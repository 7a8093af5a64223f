//! A served port (`Endpoint::serve`) in the simulator: the kernel runs
//! each frame's handler at its delivery — a process of the port's node
//! and owner group, or, for a frame the port's inline test passes, no
//! process at all — and the result must be what the hand-written
//! receive loop it replaces would have done. A port served inline
//! (`Endpoint::serve_inline`) is handed its bounces as well.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ocs_sim::{
    Addr, FrameHandler, InlineTest, LandingHandler, NetStats, NodeRt, NodeRtExt, PortReq,
    RecvError, Sim, SimTime,
};
use parking_lot::Mutex;

const PORT: u16 = 80;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// How the server answers its port.
#[derive(Clone, Copy, Debug, PartialEq)]
enum How {
    /// By hand: receive, spawn the handler, drop bounces.
    RecvLoop,
    /// `serve`, each frame a process.
    Served,
    /// `serve`, each frame inline.
    Inline,
}

fn every_frame() -> InlineTest {
    Arc::new(|_: &[u8]| true)
}

/// Answers `ep` with `handler` the way `how` says; returns at the close.
fn answer(
    rt: &Arc<ocs_sim::SimNode>,
    ep: &Arc<dyn ocs_sim::Endpoint>,
    how: How,
    handler: FrameHandler,
) {
    match how {
        How::RecvLoop => loop {
            match ep.recv(None) {
                Ok((from, msg)) => {
                    let handler = Arc::clone(&handler);
                    rt.spawn_fn("svc-worker", move || handler(from, msg));
                }
                Err(RecvError::Unreachable(_) | RecvError::TimedOut) => {}
                Err(RecvError::Closed) => return,
            }
        },
        How::Served => ep.serve(&**rt, "svc-worker", handler, None),
        How::Inline => ep.serve(&**rt, "svc-worker", handler, Some(every_frame())),
    }
}

/// The server opens its port, lets a bounce and three frames queue on
/// it for a second, then answers it `how`; at 3 s a fourth frame makes
/// the handler send to a dead port from the served endpoint, so a second
/// bounce reaches the port while it is served. Returns what the handler
/// saw (payload, virtual time) and the run's counters.
fn queued_then_served(how: How) -> (Vec<(String, SimTime)>, NetStats, u64) {
    let sim = Sim::new(3);
    let client = sim.add_node("client");
    let server = sim.add_node("server");
    let to = Addr::new(server.node(), PORT);
    let node = server.node();
    let dead = move |port| Addr::new(node, port);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (rt, log) = (server.clone(), Arc::clone(&seen));
    server.spawn_fn("svc", move || {
        let ep = rt.open(PortReq::Fixed(PORT)).unwrap();
        ep.send(dead(555), Bytes::from_static(b"x")).unwrap();
        rt.sleep(Duration::from_secs(1));
        let (clock, reply) = (rt.clone(), Arc::clone(&ep));
        let handler: FrameHandler = Arc::new(move |_, msg: Bytes| {
            let text = String::from_utf8(msg.to_vec()).unwrap();
            if text == "bounce-me" {
                reply.send(dead(556), msg).unwrap();
            }
            log.lock().push((text, clock.now()));
        });
        answer(&rt, &ep, how, handler);
    });
    let rt = client.clone();
    client.spawn_fn("client", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        for m in ["a", "b", "c"] {
            ep.send(to, Bytes::from_static(m.as_bytes())).unwrap();
            rt.sleep(ms(1));
        }
        rt.sleep(Duration::from_secs(3) - ms(3));
        ep.send(to, Bytes::from_static(b"bounce-me")).unwrap();
    });
    sim.run_until(SimTime::from_secs(5));
    let seen = seen.lock().clone();
    (seen, sim.net_stats(), sim.kernel_stats().events)
}

#[test]
fn frames_queued_before_serve_run_in_arrival_order() {
    let second = SimTime::from_secs(1);
    let last = SimTime::from_secs(3) + Duration::from_micros(500);
    for how in [How::RecvLoop, How::Served, How::Inline] {
        let (seen, _, _) = queued_then_served(how);
        let order: Vec<(&str, SimTime)> = seen.iter().map(|(m, t)| (m.as_str(), *t)).collect();
        assert_eq!(
            order,
            [
                ("a", second),
                ("b", second),
                ("c", second),
                ("bounce-me", last)
            ],
            "{how:?}"
        );
    }
}

#[test]
fn a_bounce_to_a_served_port_is_dropped_and_counted_as_by_a_receive_loop() {
    let (_, by_hand, events) = queued_then_served(How::RecvLoop);
    assert_eq!(by_hand.bounces, 2, "one queued before serve, one after");
    assert_eq!(by_hand.msgs_delivered, 6, "four frames and both bounces");
    for how in [How::Served, How::Inline] {
        let (_, stats, ev) = queued_then_served(how);
        assert_eq!(stats, by_hand, "{how:?}");
        assert_eq!(ev, events, "{how:?}");
    }
}

/// A port served inline runs every frame, and every bounce of a frame it
/// sent, where it lands and with no process: what queued before the
/// call is handed over then, on the calling thread, the rest at its
/// delivery.
#[test]
fn a_port_served_inline_sees_frames_and_bounces_where_they_land() {
    let sim = Sim::new(3);
    let client = sim.add_node("client");
    let server = sim.add_node("server");
    let to = Addr::new(server.node(), PORT);
    let node = server.node();
    let dead = move |port| Addr::new(node, port);
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (rt, log) = (server.clone(), Arc::clone(&seen));
    server.spawn_fn("svc", move || {
        let ep = rt.open(PortReq::Fixed(PORT)).unwrap();
        ep.send(dead(555), Bytes::from_static(b"x")).unwrap();
        rt.sleep(Duration::from_secs(1));
        let (clock, reply) = (rt.clone(), Arc::clone(&ep));
        let handler: LandingHandler = Arc::new(move |landed| {
            let what = match landed {
                Ok((_, msg)) => String::from_utf8(msg.to_vec()).unwrap(),
                Err(e) => e.to_string(),
            };
            if what == "bounce-me" {
                reply.send(dead(556), Bytes::new()).unwrap();
            }
            log.lock().push((what, clock.now()));
        });
        ep.serve_inline("svc-worker", handler);
        // The port is this process's: it lives while the process does.
        rt.sleep(Duration::from_secs(3600));
    });
    let rt = client.clone();
    client.spawn_fn("client", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        for m in ["a", "b"] {
            ep.send(to, Bytes::from_static(m.as_bytes())).unwrap();
            rt.sleep(ms(1));
        }
        rt.sleep(Duration::from_secs(3) - ms(2));
        ep.send(to, Bytes::from_static(b"bounce-me")).unwrap();
    });
    sim.run_until(SimTime::from_secs(5));
    let at = |us| SimTime::from_micros(us);
    let landed = format!("{:?}", seen.lock());
    let want = [
        (
            format!("destination {} unreachable", dead(555)),
            at(1_000_000),
        ),
        ("a".to_string(), at(1_000_000)),
        ("b".to_string(), at(1_000_000)),
        ("bounce-me".to_string(), at(3_000_500)),
        (
            format!("destination {} unreachable", dead(556)),
            at(3_000_540),
        ),
    ];
    assert_eq!(landed, format!("{want:?}"));
    assert_eq!(
        sim.kernel_stats().spawns,
        2,
        "the server's and the client's"
    );
    assert_eq!(sim.kernel_stats().inline_runs, 2);
}

/// Sends one frame to `to` from a process on `from`; what came back
/// within a second.
fn probe(sim: &Sim, from: &Arc<ocs_sim::SimNode>, to: Addr) -> Result<(Addr, Bytes), RecvError> {
    let got = Arc::new(Mutex::new(None));
    let (rt, slot) = (from.clone(), Arc::clone(&got));
    from.spawn_fn("probe", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"ping")).unwrap();
        *slot.lock() = Some(ep.recv(Some(Duration::from_secs(1))));
    });
    sim.run_for(Duration::from_secs(2));
    let out = got.lock().take();
    out.expect("the probe finished")
}

#[test]
fn a_killed_owner_groups_served_port_bounces() {
    let sim = Sim::new(4);
    let client = sim.add_node("client");
    let server = sim.add_node("server");
    let to = Addr::new(server.node(), PORT);
    let rt = server.clone();
    let group = server.spawn_group(
        "svc",
        Box::new(move || {
            let ep = rt.open(PortReq::Fixed(PORT)).unwrap();
            let (clock, reply) = (rt.clone(), Arc::clone(&ep));
            let handler: FrameHandler = Arc::new(move |from, msg| {
                reply.send(from, msg).unwrap();
                // Still running when the group dies: it is a member.
                clock.sleep(Duration::from_secs(3600));
            });
            ep.serve(&*rt, "svc-worker", handler, None);
        }),
    );
    assert!(
        probe(&sim, &client, to).is_ok(),
        "served while the group lives"
    );
    assert_eq!(
        sim.live_processes(),
        2,
        "the serving process and one handler"
    );
    group.kill();
    sim.run_for(ms(1));
    assert!(!group.alive());
    assert_eq!(sim.live_processes(), 0, "the handler died with its group");
    assert_eq!(probe(&sim, &client, to), Err(RecvError::Unreachable(to)));
}

/// An inline handler has no process to wait in; the simulator holds it
/// to its promise and names the task that broke it.
#[test]
fn an_inline_handler_that_waits_panics_with_its_task_name() {
    type Waits = fn(&Arc<ocs_sim::SimNode>, &Arc<dyn ocs_sim::Endpoint>);
    let cases: [(&str, Waits, &str); 3] = [
        ("sleeper", |rt, _| rt.sleep(ms(1)), "may not block"),
        (
            "receiver",
            |_, ep| drop(ep.recv(Some(ms(1)))),
            "may not receive",
        ),
        (
            "opener",
            |rt, _| drop(rt.open(PortReq::Ephemeral)),
            "may not open",
        ),
    ];
    for (task, waits, what) in cases {
        let sim = Sim::new(5);
        let client = sim.add_node("client");
        let server = sim.add_node("server");
        let rt = server.clone();
        server.spawn_fn("svc", move || {
            let ep = rt.open(PortReq::Fixed(PORT)).unwrap();
            let (node, me) = (rt.clone(), Arc::clone(&ep));
            let handler: FrameHandler = Arc::new(move |_, _| waits(&node, &me));
            ep.serve(&*rt, task, handler, Some(every_frame()));
        });
        let to = Addr::new(server.node(), PORT);
        let rt = client.clone();
        client.spawn_fn("client", move || {
            let ep = rt.open(PortReq::Ephemeral).unwrap();
            ep.send(to, Bytes::from_static(b"hi")).unwrap();
            let _ = ep.recv(Some(ms(10)));
        });
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_until(SimTime::from_secs(1));
        }))
        .expect_err("the driver re-raises the handler's panic");
        let report = report.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            report.contains(&format!("inline task '{task}'")) && report.contains(what),
            "{report}"
        );
    }
}

/// The prototype's bug, kept out: an inline handler acts as its port's
/// node, whichever thread steps the kernel. An inline handler that
/// decides an op bumps the wait object a blocking submitter of that node
/// waits on, and the submitter wakes at the delivery instant. (Run as
/// the stepping process's node, the bump came "from another node" and
/// was deferred one fault-propagation delay as a control event — an
/// extra event per op.)
#[test]
fn an_inline_handler_wakes_a_same_node_waiter_at_the_same_instant() {
    let sim = Sim::new(6);
    let primary = sim.add_node("primary");
    let backup = sim.add_node("backup");
    let progress = backup.make_sync();
    let woke = Arc::new(Mutex::new(None));
    let (rt, sync, slot) = (backup.clone(), Arc::clone(&progress), Arc::clone(&woke));
    backup.spawn_fn("commit-path", move || {
        let seen = sync.generation();
        sync.wait_newer(seen, None);
        *slot.lock() = Some(rt.now());
    });
    let prepared = Arc::new(Mutex::new(None));
    let (rt, slot) = (backup.clone(), Arc::clone(&prepared));
    backup.spawn_fn("peer-orb", move || {
        let ep = rt.open(PortReq::Fixed(PORT)).unwrap();
        let (clock, reply) = (rt.clone(), Arc::clone(&ep));
        let handler: FrameHandler = Arc::new(move |from, msg| {
            *slot.lock() = Some(clock.now());
            progress.bump();
            reply.send(from, msg).unwrap();
        });
        ep.serve(&*rt, "prepare", handler, Some(every_frame()));
    });
    let to = Addr::new(backup.node(), PORT);
    let rt = primary.clone();
    primary.spawn_fn("replicate", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"prepare")).unwrap();
        ep.recv(None).unwrap();
    });
    sim.run_until(SimTime::from_secs(1));
    let delivered = SimTime::from_micros(500);
    assert_eq!(*prepared.lock(), Some(delivered));
    assert_eq!(
        *woke.lock(),
        Some(delivered),
        "the bump waited for a control event"
    );
    let stats = sim.kernel_stats();
    assert_eq!(stats.inline_runs, 1);
    assert_eq!(stats.events, 2, "the prepare and its ack, nothing deferred");
}
