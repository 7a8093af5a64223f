//! One group lifetime on both runtimes: a killed group keeps nothing
//! running and nothing open. Its record is its home node's table, under
//! the lock its ports are under, so a member that kills its own group and
//! goes on before it next waits can neither add a process to the group
//! nor open a port that outlives the kill. What it sends meanwhile goes
//! out: a killed member unwinds where it next waits, and a send is no
//! wait. The same body runs in a simulated process and on a thread beside
//! two TCP nodes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ocs_sim::real::RealNet;
use ocs_sim::{Addr, Endpoint, NodeRtExt, PortReq, ProcGroup, Queue, RecvError, Rt, Sim, SimTime};
use parking_lot::Mutex;

const WAIT: Duration = Duration::from_secs(5);

/// What comes back to one frame sent to `to` from a fresh endpoint.
fn probe(rt: &Rt, to: Addr) -> Result<(Addr, Bytes), RecvError> {
    let ep = rt.open(PortReq::Ephemeral).unwrap();
    ep.send(to, Bytes::from_static(b"ping")).unwrap();
    ep.recv(Some(WAIT))
}

/// The cases on `rt`'s node, with `other` as the node a process reaches
/// across from. `window`: what a group spawned from `other` onto `rt`'s
/// node reads for `alive()` at once and 50 ms later.
fn one_lifetime(rt: &Rt, other: &Rt, window: (bool, bool)) {
    // (a) A member kills its own group, then spawns a child and opens a
    // fixed port before it waits. The child never runs, the open is
    // closed at birth, and the group is dead.
    let port = Addr::new(rt.node(), 90);
    let handle: Arc<Queue<Arc<dyn ProcGroup>>> = Arc::new(Queue::new(rt));
    let done: Arc<Queue<()>> = Arc::new(Queue::new(rt));
    let child_ran = Arc::new(AtomicBool::new(false));
    // Holds the port's handle, so that only the kill can close it.
    let kept: Arc<Mutex<Option<Arc<dyn Endpoint>>>> = Arc::default();
    let (node, given, up) = (rt.clone(), Arc::clone(&handle), Arc::clone(&done));
    let (ran, slot) = (Arc::clone(&child_ran), Arc::clone(&kept));
    let group = rt.spawn_group(
        "member",
        Box::new(move || {
            let me = given.pop(&node, Some(WAIT)).expect("its own handle");
            me.kill();
            let child = node.clone();
            node.spawn_fn("child", move || {
                ran.store(true, Ordering::SeqCst);
                child.sleep(Duration::from_secs(3600));
            });
            *slot.lock() = node.open(PortReq::Fixed(port.port)).ok();
            up.push(());
            node.sleep(Duration::from_secs(3600));
        }),
    );
    handle.push(Arc::clone(&group));
    assert!(done.pop(rt, Some(WAIT)).is_some(), "(a) the member went on");
    rt.sleep(Duration::from_millis(10));
    let seen = (
        group.alive(),
        child_ran.load(Ordering::SeqCst),
        probe(rt, port),
    );
    assert_eq!(
        seen,
        (false, false, Err(RecvError::Unreachable(port))),
        "(a) (alive, child ran, a frame for the port)"
    );
    drop(kept.lock().take());
    group.kill();

    // (c) A group serves a port and its one member leaves, as an ORB
    // serves with no process of its own: the port is still the group's,
    // and each frame's handler joins it. A kill closes the port, and no
    // handler joins after it.
    let port = Addr::new(rt.node(), 91);
    let ready: Arc<Queue<()>> = Arc::new(Queue::new(rt));
    let (node, up) = (rt.clone(), Arc::clone(&ready));
    let group = rt.spawn_group(
        "server",
        Box::new(move || {
            let ep = node.open(PortReq::Fixed(port.port)).unwrap();
            let me = Arc::clone(&ep);
            let echo = move |landing: Result<(Addr, Bytes), RecvError>| {
                if let Ok((from, msg)) = landing {
                    let _ = me.send(from, msg);
                }
            };
            ep.serve("handler", Arc::new(echo), Arc::new(|_| false));
            up.push(());
        }),
    );
    assert!(
        ready.pop(rt, Some(WAIT)).is_some(),
        "(c) the port is served"
    );
    let served = probe(rt, port).map(|(_, msg)| msg);
    rt.sleep(Duration::from_millis(10));
    let memberless = group.alive();
    group.kill();
    let seen = (served, memberless, group.alive(), probe(rt, port));
    assert_eq!(
        seen,
        (
            Ok(Bytes::from_static(b"ping")),
            false,
            false,
            Err(RecvError::Unreachable(port))
        ),
        "(c) (echo, alive with no member, alive after the kill, a frame after it)"
    );

    // (b) A process on another node spawns a group onto this one. The
    // simulator starts it one control delay later, TCP at once, so
    // `alive()` read at once differs; 50 ms later both read true.
    let seen: Arc<Queue<(bool, bool)>> = Arc::new(Queue::new(rt));
    let (home, far, out) = (rt.clone(), other.clone(), Arc::clone(&seen));
    other.spawn_fn("spawner", move || {
        let sleeper = home.clone();
        let group = home.spawn_group(
            "far",
            Box::new(move || sleeper.sleep(Duration::from_secs(3600))),
        );
        let at_once = group.alive();
        far.sleep(Duration::from_millis(50));
        let later = group.alive();
        group.kill();
        out.push((at_once, later));
    });
    let read = seen.pop(rt, Some(WAIT)).expect("(b) the spawner reports");
    assert_eq!(read, window, "(b) alive() at once and 50 ms later");

    // (d) A member kills its own group, then sends to a probe endpoint
    // and pushes to a queue before it waits: both happen, on both
    // runtimes, and the member unwinds at its sleep.
    let probe_ep = rt.open(PortReq::Ephemeral).unwrap();
    let to = probe_ep.local();
    let handle: Arc<Queue<Arc<dyn ProcGroup>>> = Arc::new(Queue::new(rt));
    let pushed: Arc<Queue<()>> = Arc::new(Queue::new(rt));
    let (node, given, out) = (rt.clone(), Arc::clone(&handle), Arc::clone(&pushed));
    let group = rt.spawn_group(
        "sender",
        Box::new(move || {
            let ep = node.open(PortReq::Ephemeral).unwrap();
            let me = given.pop(&node, Some(WAIT)).expect("its own handle");
            me.kill();
            let _ = ep.send(to, Bytes::from_static(b"after the kill"));
            out.push(());
            node.sleep(Duration::from_secs(3600));
        }),
    );
    handle.push(Arc::clone(&group));
    let seen = (
        pushed.pop(rt, Some(WAIT)).is_some(),
        probe_ep.recv(Some(WAIT)).is_ok(),
    );
    assert_eq!(
        seen,
        (true, true),
        "(d) (pushed, frame arrived) after the member's own kill"
    );
}

/// The body in a process on node `a` of a simulation.
#[test]
fn sim_a_killed_group_keeps_nothing() {
    let sim = Sim::new(45);
    let node = sim.add_node("a");
    let other: Rt = sim.add_node("b");
    let done = Arc::new(AtomicBool::new(false));
    let (rt, flag) = (node.clone() as Rt, Arc::clone(&done));
    node.spawn_fn("body", move || {
        one_lifetime(&rt, &other, (false, true));
        flag.store(true, Ordering::SeqCst);
    });
    sim.run_until(SimTime::from_secs(60));
    assert!(done.load(Ordering::SeqCst), "the body finished");
}

#[test]
fn real_a_killed_group_keeps_nothing() {
    let net = RealNet::new();
    {
        let node: Rt = net.add_node("a").unwrap();
        let other: Rt = net.add_node("b").unwrap();
        one_lifetime(&node, &other, (true, true));
    }
    // A node's core goes once its loop has run its last task, most often
    // on the loop's own thread; no group record is left in it.
    let deadline = Instant::now() + WAIT;
    while Arc::strong_count(&net) > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(Arc::strong_count(&net), 1, "a node's core outlived it");
    assert_eq!(net.counters().get("real.net.groups_outlived"), None);
}
