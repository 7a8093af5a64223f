//! Frame round trip over loopback on the real runtime: an echo task on
//! one node answers 96-byte frames sent one at a time from the other
//! node, first by a task of that node, then by a plain thread (the way
//! the benchmark's `ocs-sim.tcp_frame_rtt_us` probe sends them). Prints
//! the median and p90 of each, in µs.
//!
//! ```sh
//! cargo run --release --offline -p ocs-sim --example frame_echo [round trips]
//! ```

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, Endpoint, NodeRt, NodeRtExt, PortReq, RecvError};

const WARM_UP: usize = 1_000;

fn round_trips(ep: &dyn Endpoint, to: Addr, n: usize) -> Vec<f64> {
    let frame = Bytes::from_static(&[7u8; 96]);
    (0..n)
        .map(|_| {
            let t = Instant::now();
            ep.send(to, frame.clone()).expect("frame sent");
            ep.recv(Some(Duration::from_secs(5))).expect("frame echoed");
            t.elapsed().as_nanos() as f64 / 1000.0
        })
        .collect()
}

fn report(what: &str, mut us: Vec<f64>) {
    us.sort_by(f64::total_cmp);
    let at = |q: f64| us[((us.len() - 1) as f64 * q) as usize];
    println!(
        "{what:<24} median {:>6.2} µs   p90 {:>6.2} µs   ({} round trips)",
        at(0.5),
        at(0.9),
        us.len()
    );
}

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("round trips"))
        .unwrap_or(20_000);
    let net = RealNet::new();
    let (a, b) = (net.add_node("a").unwrap(), net.add_node("b").unwrap());
    let echo = b.open(PortReq::Fixed(70)).unwrap();
    let to = echo.local();
    b.spawn_fn("echo", move || loop {
        match echo.recv(None) {
            Ok((from, msg)) => {
                let _ = echo.send(from, msg);
            }
            Err(RecvError::Unreachable(_) | RecvError::TimedOut) => {}
            Err(RecvError::Closed) => return,
        }
    });

    let (tx, rx) = mpsc::channel();
    let rt: Arc<dyn NodeRt> = a.clone();
    a.spawn_fn("client", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        round_trips(&*ep, to, WARM_UP);
        tx.send(round_trips(&*ep, to, n)).unwrap();
    });
    report("task on a node", rx.recv().unwrap());

    let ep = a.open(PortReq::Ephemeral).unwrap();
    round_trips(&*ep, to, WARM_UP);
    report("thread outside a node", round_trips(&*ep, to, n));
    a.stop();
    b.stop();
}
