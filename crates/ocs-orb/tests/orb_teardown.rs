//! An ORB has no process of its own, so nothing it leaves keeps its
//! node's loop thread alive: stopping the node closes the ORB's port,
//! which drops the handler holding the ORB. One test, in a process of its
//! own: it counts the process's threads and descriptors, which any test
//! running beside it would move.
#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ocs_orb::{Caller, ClientCtx, Orb, OrbError, Servant};
use ocs_sim::real::RealNet;
use ocs_sim::{PortReq, Rt};

fn entries(dir: &str) -> usize {
    std::fs::read_dir(dir).expect("procfs").count()
}

/// (threads, descriptors) of this process. Reading a directory holds a
/// descriptor on it, the same one both times.
fn footprint() -> (usize, usize) {
    (entries("/proc/self/task"), entries("/proc/self/fd"))
}

/// Answers every call with an empty body.
struct Null;

impl Servant for Null {
    fn type_id(&self) -> u32 {
        1
    }

    fn dispatch(&self, _c: &Caller, _method: u32, _args: &[u8]) -> Result<Bytes, OrbError> {
        Ok(Bytes::new())
    }
}

#[test]
fn an_orb_started_outside_any_node_goes_with_its_nodes_stop() {
    let before = footprint();
    let gone = {
        let net = RealNet::new();
        let server = net.add_node("server").unwrap();
        let client: Rt = net.add_node("client").unwrap();
        // Started from this thread, in no group; neither shut down nor
        // killed below.
        let orb = Orb::new(server.clone(), PortReq::Fixed(100)).unwrap();
        let obj = orb.export_root(Arc::new(Null));
        orb.start();
        let ctx = ClientCtx::new(client).with_timeout(Duration::from_secs(5));
        for _ in 0..10 {
            assert_eq!(
                ctx.call_named(&obj, 1, Bytes::new(), "null"),
                Ok(Bytes::new())
            );
        }
        let gone = Arc::downgrade(&orb);
        drop(orb);
        server.stop();
        gone
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while (footprint() != before || gone.upgrade().is_some()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(gone.upgrade().is_none(), "something keeps the ORB alive");
    assert_eq!(
        footprint(),
        before,
        "(threads, descriptors) after stop and drop"
    );
}
