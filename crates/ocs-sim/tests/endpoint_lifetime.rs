//! One endpoint lifetime on both runtimes: an endpoint closes when
//! closed, when its last handle drops, at once when the group of the
//! process that opened it is killed, and when its node crashes. A group
//! lives on its home node: what a member spawns or opens through another
//! node's runtime is no member of it. The same body runs in a simulated
//! process and on a thread beside two TCP nodes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, Endpoint, NodeRt, NodeRtExt, PortReq, Queue, RecvError, Rt, Sim, SimTime};
use parking_lot::Mutex;

const WAIT: Duration = Duration::from_secs(5);

/// Sleeps `rt`'s clock a millisecond at a time until `cond` holds.
fn until(rt: &Rt, what: &str, cond: impl Fn() -> bool) {
    for _ in 0..5_000 {
        if cond() {
            return;
        }
        rt.sleep(Duration::from_millis(1));
    }
    panic!("never: {what}");
}

/// What comes back to one frame sent to `to` from a fresh endpoint.
fn probe(rt: &Rt, to: Addr) -> Result<(Addr, Bytes), RecvError> {
    let ep = rt.open(PortReq::Ephemeral).unwrap();
    ep.send(to, Bytes::from_static(b"ping")).unwrap();
    ep.recv(Some(WAIT))
}

/// Whether a frame sent to `ep` reaches it.
fn reaches(rt: &Rt, ep: &Arc<dyn Endpoint>) -> bool {
    let from = rt.open(PortReq::Ephemeral).unwrap();
    from.send(ep.local(), Bytes::from_static(b"ping")).unwrap();
    ep.recv(Some(WAIT)) == Ok((from.local(), Bytes::from_static(b"ping")))
}

/// Sets its flag when dropped: a member that has unwound.
struct Unwound(Arc<AtomicBool>);

impl Drop for Unwound {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// The rule, case by case, on `rt`'s node, with `other` as the node a
/// group member reaches across to. `instant`: the runtime runs nothing
/// else on `rt`'s node until the body waits (the simulator), so a killed
/// member is certainly still blocked when `kill` returns.
fn one_lifetime(rt: &Rt, other: &Rt, instant: bool) {
    // (a) The last handle drops: a frame sent to it bounces.
    let ep = rt.open(PortReq::Ephemeral).unwrap();
    let gone = ep.local();
    drop(ep);
    assert_eq!(probe(rt, gone), Err(RecvError::Unreachable(gone)), "(a)");

    // (b) A kill closes the group's ports before any member unwinds:
    // when `kill` returns, one port can be opened again while the member
    // is still blocked, and a frame for the other bounces.
    let (served, freed) = (Addr::new(rt.node(), 61), Addr::new(rt.node(), 62));
    let ready: Arc<Queue<()>> = Arc::new(Queue::new(rt));
    let unwound = Arc::new(AtomicBool::new(false));
    let (node, up, flag) = (rt.clone(), Arc::clone(&ready), Arc::clone(&unwound));
    let group = rt.spawn_group(
        "member",
        Box::new(move || {
            let _guard = Unwound(flag);
            let ep = node.open(PortReq::Fixed(served.port)).unwrap();
            let _other = node.open(PortReq::Fixed(freed.port)).unwrap();
            up.push(());
            let _ = ep.recv(None);
        }),
    );
    assert!(ready.pop(rt, Some(WAIT)).is_some(), "(b) the member opened");
    group.kill();
    let successor = rt.open(PortReq::Fixed(freed.port));
    assert!(successor.is_ok(), "(b) the port is free at the kill");
    if instant {
        assert!(
            !unwound.load(Ordering::SeqCst),
            "(b) the member still blocked"
        );
    }
    assert_eq!(
        probe(rt, served),
        Err(RecvError::Unreachable(served)),
        "(b)"
    );
    until(rt, "(b) the member unwinds", || {
        unwound.load(Ordering::SeqCst)
    });
    assert!(!group.alive());
    drop(successor);

    // (c) An endpoint opened by a short-lived process of a group stays
    // open after that process exits, while a handle lives.
    let slot: Arc<Mutex<Option<Arc<dyn Endpoint>>>> = Arc::default();
    let (node, kept) = (rt.clone(), Arc::clone(&slot));
    let opener = rt.spawn_group(
        "opener",
        Box::new(move || *kept.lock() = Some(node.open(PortReq::Ephemeral).unwrap())),
    );
    until(rt, "(c) the opener exits", || !opener.alive());
    let ep = slot.lock().take().expect("(c) the opener opened");
    assert!(reaches(rt, &ep), "(c) open after its opener exited");
    drop(ep);

    // (d) A stale handle dropped after its fixed port was opened again
    // leaves the successor open, and still the group's to close.
    let port = Addr::new(rt.node(), 63);
    let (node, kept) = (rt.clone(), Arc::clone(&slot));
    let group = rt.spawn_group(
        "reopener",
        Box::new(move || {
            let old = node.open(PortReq::Fixed(port.port)).unwrap();
            old.close();
            let new = node.open(PortReq::Fixed(port.port)).unwrap();
            drop(old);
            *kept.lock() = Some(new);
        }),
    );
    until(rt, "(d) the reopener exits", || !group.alive());
    let new = slot.lock().take().expect("(d) reopened");
    assert!(reaches(rt, &new), "(d) the stale drop closed the successor");
    group.kill();
    assert_eq!(
        probe(rt, port),
        Err(RecvError::Unreachable(port)),
        "(d) killed"
    );
    drop(new);

    // (e) A served handler that holds the last handle of its own port:
    // it serves after the opener exits, and a kill that closes the port
    // and drops the handler does not deadlock.
    let echo = Addr::new(rt.node(), 64);
    let node = rt.clone();
    let group = rt.spawn_group(
        "served",
        Box::new(move || {
            let ep = node.open(PortReq::Fixed(echo.port)).unwrap();
            let me = Arc::clone(&ep);
            let handler = move |landing: Result<(Addr, Bytes), RecvError>| {
                if let Ok((from, msg)) = landing {
                    let _ = me.send(from, msg);
                }
            };
            ep.serve("echo", Arc::new(handler), Arc::new(|_| true));
        }),
    );
    until(rt, "(e) the opener exits", || !group.alive());
    assert_eq!(
        probe(rt, echo).map(|(from, _)| from),
        Ok(echo),
        "(e) served"
    );
    group.kill();
    assert_eq!(
        probe(rt, echo),
        Err(RecvError::Unreachable(echo)),
        "(e) killed"
    );

    // (f) A member spawns a process and opens an endpoint at home and
    // through the other node's runtime. The kill ends every member and
    // closes every port at home; the process and the port away belong
    // to no group, and it leaves them alone.
    let (home, away) = (Addr::new(rt.node(), 65), Addr::new(other.node(), 65));
    let ready: Arc<Queue<()>> = Arc::new(Queue::new(rt));
    let child_unwound = Arc::new(AtomicBool::new(false));
    let (node, far, up) = (rt.clone(), other.clone(), Arc::clone(&ready));
    let flag = Arc::clone(&child_unwound);
    let group = rt.spawn_group(
        "roamer",
        Box::new(move || {
            let ep = node.open(PortReq::Fixed(home.port)).unwrap();
            let child = node.clone();
            node.spawn_fn("child", move || {
                let _guard = Unwound(flag);
                child.sleep(Duration::from_secs(3600));
            });
            let stray = far.open(PortReq::Fixed(away.port)).unwrap();
            far.spawn_fn("stray", move || {
                while let Ok((from, msg)) = stray.recv(None) {
                    let _ = stray.send(from, msg);
                }
            });
            up.push(());
            let _ = ep.recv(None);
        }),
    );
    assert!(ready.pop(rt, Some(WAIT)).is_some(), "(f) the member opened");
    let echoed = |what| {
        let answer = probe(rt, away).map(|(from, _)| from);
        assert_eq!(answer, Ok(away), "(f) {what}");
    };
    echoed("the stray echoes before the kill");
    group.kill();
    assert_eq!(
        probe(rt, home),
        Err(RecvError::Unreachable(home)),
        "(f) the home port closed"
    );
    until(rt, "(f) every member ends", || {
        !group.alive() && child_unwound.load(Ordering::SeqCst)
    });
    echoed("the stray and its port outlive the kill");
}

/// The body in a process on node `a` of a simulation.
#[test]
fn sim_an_endpoint_closes_by_the_one_rule() {
    let sim = Sim::new(43);
    let node = sim.add_node("a");
    let other: Rt = sim.add_node("b");
    let done = Arc::new(AtomicBool::new(false));
    let (rt, flag) = (node.clone() as Rt, Arc::clone(&done));
    node.spawn_fn("body", move || {
        one_lifetime(&rt, &other, true);
        flag.store(true, Ordering::SeqCst);
    });
    sim.run_until(SimTime::from_secs(60));
    assert!(done.load(Ordering::SeqCst), "the body finished");
}

#[test]
fn real_an_endpoint_closes_by_the_one_rule() {
    let net = RealNet::new();
    let node: Rt = net.add_node("a").unwrap();
    let other: Rt = net.add_node("b").unwrap();
    one_lifetime(&node, &other, false);
}

/// What the simulator lets go of under its lock drops after it: a port
/// whose handler holds the port's last handle, still open when the
/// simulation is dropped, and a spawn onto a crashed node whose body
/// holds an endpoint. Neither deadlocks, and neither outlives the
/// simulation.
#[test]
fn sim_what_the_kernel_drops_under_its_lock_closes_after_it() {
    let sim = Sim::new(44);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let held = Arc::new(());
    let (rt, token) = (a.clone(), Arc::clone(&held));
    a.spawn_fn("served", move || {
        let ep = rt.open(PortReq::Fixed(70)).unwrap();
        let me = Arc::clone(&ep);
        let handler = move |_: Result<(Addr, Bytes), RecvError>| {
            let _ = (&me, &token);
        };
        ep.serve("keeper", Arc::new(handler), Arc::new(|_| true));
    });
    sim.run_for(Duration::from_millis(1));
    sim.crash_node(b.node());
    let refused = b.open(PortReq::Ephemeral);
    assert!(refused.is_err(), "a crashed node opens nothing");
    let spare = a.open(PortReq::Ephemeral).unwrap();
    let spare_addr = spare.local();
    b.spawn_fn("never", move || drop(spare));
    let again = a.open(PortReq::Fixed(spare_addr.port));
    assert!(again.is_ok(), "the refused spawn's endpoint closed with it");
    assert_eq!(
        Arc::strong_count(&held),
        2,
        "the handler lives while its port is open"
    );
    drop(sim);
    assert_eq!(
        Arc::strong_count(&held),
        1,
        "the handler dropped with the simulation"
    );
}
