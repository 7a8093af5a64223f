//! RAS liveness on the REAL runtime: the §7.2 SSC-callback monitoring
//! path, re-run on OS threads and TCP over loopback with wall-clock
//! bounds instead of virtual-time checkpoints.
//!
//! This is the real-runtime twin of `ras_liveness.rs`'s
//! `local_objects_tracked_via_ssc_callbacks`: a steady service registers
//! an object, the RAS answers Alive through the SSC live-set, the
//! service is stopped (its process group is killed for real), and the
//! old incarnation must read Dead.
//!
//! Gated behind `real_chaos` so the default test pass stays fast:
//!
//! ```sh
//! cargo test -p ocs-ras --features real_chaos --test real_liveness
//! ```

#![cfg(feature = "real_chaos")]

use std::sync::Arc;
use std::time::Duration;

use ocs_name::{AlwaysAlive, NsConfig, NsHandle, NsReplica};
use ocs_orb::{Caller, ClientCtx, ObjRef, Orb};
use ocs_ras::{EntityId, EntityStatus, Ras, RasApiClient, RasConfig, RasOracle, RAS_PORT};
use ocs_sim::real::{eventually, RealNet};
use ocs_sim::{Addr, NodeRt, PortReq, Rt};
use ocs_svcctl::{ServiceDef, ServiceRunCtx, Ssc, SscApiClient, SscConfig};

const NS_PORT: u16 = 10;

/// A service that exports an object and registers it, then idles until
/// its group is killed.
fn steady_service(name: &str) -> (ServiceDef, Arc<parking_lot::Mutex<Option<ObjRef>>>) {
    let slot: Arc<parking_lot::Mutex<Option<ObjRef>>> = Default::default();
    let slot2 = Arc::clone(&slot);
    let def = ServiceDef {
        name: name.to_string(),
        basic: true,
        factory: Arc::new(move |ctx: ServiceRunCtx| {
            let orb = Orb::new(ctx.rt.clone(), PortReq::Ephemeral).unwrap();
            struct Nop;
            impl ocs_orb::Servant for Nop {
                fn type_id(&self) -> u32 {
                    ocs_wire::type_id_of("test.nop")
                }
                fn dispatch(
                    &self,
                    _c: &Caller,
                    _m: u32,
                    _a: &[u8],
                ) -> Result<bytes::Bytes, ocs_orb::OrbError> {
                    Ok(bytes::Bytes::new())
                }
            }
            let obj = orb.export_root(Arc::new(Nop));
            orb.start();
            (ctx.notify_ready)(vec![obj]);
            *slot2.lock() = Some(obj);
            loop {
                ctx.rt.sleep(Duration::from_secs(3600));
            }
        }),
    };
    (def, slot)
}

#[test]
fn local_objects_tracked_via_ssc_callbacks_on_real_runtime() {
    let net = RealNet::new();
    let node = net.add_node("s0").expect("bind loopback");
    let rt: Rt = node.clone();
    let ns_addr = Addr::new(node.node(), NS_PORT);

    // Single NS replica with wall-clock-friendly timings. The sim's
    // resolve_cost models load on virtual time; on the real runtime it
    // would be an actual sleep per resolve, so zero it.
    let mut cfg = NsConfig::paper_defaults(0, vec![ns_addr]);
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.audit_interval = Duration::from_secs(2);
    cfg.resolve_cost = Duration::ZERO;
    let replica = NsReplica::start(rt.clone(), cfg, Arc::new(AlwaysAlive)).unwrap();

    let ns_local = NsHandle::new(ClientCtx::new(rt.clone()), ns_addr);
    let (svc, slot) = steady_service("steady");
    let ssc = Ssc::start(rt.clone(), SscConfig::default(), ns_local.clone(), vec![svc]).unwrap();
    let (_ras, _ras_ref, cb_ref) = Ras::start(rt.clone(), RasConfig::default(), ns_local).unwrap();
    replica.set_oracle(RasOracle::new(rt.clone(), Addr::new(node.node(), RAS_PORT)));

    // Wire RAS -> SSC from the driver thread (real RPCs over loopback).
    let ssc_client = SscApiClient::attach(ClientCtx::new(rt.clone()), ssc.self_ref()).unwrap();
    assert!(
        eventually(Duration::from_secs(10), || ssc_client
            .register_callback(cb_ref)
            .is_ok()),
        "SSC never accepted the RAS callback"
    );
    assert!(
        eventually(Duration::from_secs(10), || slot.lock().is_some()),
        "steady service never registered its object"
    );
    let obj = slot.lock().expect("checked above");

    let ras_target = ObjRef {
        addr: Addr::new(node.node(), RAS_PORT),
        incarnation: ObjRef::STABLE,
        type_id: RasApiClient::TYPE_ID,
        object_id: 0,
    };
    let ras = RasApiClient::attach(ClientCtx::new(rt.clone()), ras_target).unwrap();

    // Alive via the SSC live-set (the callback snapshot may lag the
    // registration by a beat, hence the poll).
    assert!(
        eventually(Duration::from_secs(10), || {
            ras.check_status(vec![EntityId::Object { obj }])
                .is_ok_and(|s| s == vec![EntityStatus::Alive])
        }),
        "RAS never reported the steady service's object Alive"
    );

    // Stop the service: its process group is killed for real — threads
    // unwind, the ORB's port closes — and the SSC reports the object
    // down, so the RAS must flip it to Dead.
    ssc_client.stop_service("steady".to_string()).unwrap();
    assert!(
        eventually(Duration::from_secs(10), || {
            ras.check_status(vec![EntityId::Object { obj }])
                .is_ok_and(|s| s == vec![EntityStatus::Dead])
        }),
        "RAS never reported the stopped service's object Dead"
    );
    node.stop();
}
