//! A served port (`Endpoint::serve`) in the simulator: the kernel runs
//! each landing's handler at its delivery — a process of the port's node
//! and group for a frame, or, for a bounce or a frame the port's inline
//! test passes, no process at all — and the result must be what the
//! hand-written receive loop it replaces would have done.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ocs_sim::{
    Addr, InlineTest, LandingHandler, NetStats, NodeRt, NodeRtExt, PortReq, RecvError, Sim, SimTime,
};
use parking_lot::Mutex;

const PORT: u16 = 80;

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// How the server answers its port.
#[derive(Clone, Copy, Debug, PartialEq)]
enum How {
    /// By hand: receive, spawn the handler on a frame, run it on a bounce.
    RecvLoop,
    /// `serve`, each frame a process.
    Served,
    /// `serve`, each frame inline.
    Inline,
}

fn every_frame() -> InlineTest {
    Arc::new(|_: &[u8]| true)
}

fn no_frame() -> InlineTest {
    Arc::new(|_: &[u8]| false)
}

/// A handler that sees frames only, as most servers want.
fn frames(handler: impl Fn(Addr, Bytes) + Send + Sync + 'static) -> LandingHandler {
    Arc::new(move |landing| {
        if let Ok((from, msg)) = landing {
            handler(from, msg);
        }
    })
}

/// Answers `ep` with `handler` the way `how` says; returns at the close.
fn answer(
    rt: &Arc<ocs_sim::SimNode>,
    ep: &Arc<dyn ocs_sim::Endpoint>,
    how: How,
    handler: LandingHandler,
) {
    match how {
        How::RecvLoop => loop {
            match ep.recv(None) {
                Ok(frame) => {
                    let handler = Arc::clone(&handler);
                    rt.spawn_fn("svc-worker", move || handler(Ok(frame)));
                }
                Err(RecvError::Closed) => return,
                Err(bounce) => handler(Err(bounce)),
            }
        },
        How::Served | How::Inline => {
            let test = if how == How::Inline {
                every_frame()
            } else {
                no_frame()
            };
            ep.serve("svc-worker", handler, test);
            while !matches!(ep.recv(None), Err(RecvError::Closed)) {}
        }
    }
}

/// What a run of [`queued_then_served`] saw: each landing's text and
/// virtual time, the network's counters, events, spawns, inline runs.
type Seen = (Vec<(String, SimTime)>, NetStats, u64, u64, u64);

/// The server opens its port, lets a bounce and three frames queue on
/// it for a second, then answers it `how`; at 3 s a fourth frame makes
/// the handler send to a dead port from the served endpoint, so a second
/// bounce reaches the port while it is served.
fn queued_then_served(how: How) -> Seen {
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
        let handler: LandingHandler = Arc::new(move |landing| {
            let text = match landing {
                Ok((_, msg)) => String::from_utf8(msg.to_vec()).unwrap(),
                Err(e) => e.to_string(),
            };
            if text == "bounce-me" {
                reply.send(dead(556), Bytes::new()).unwrap();
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
    let k = sim.kernel_stats();
    (seen, sim.net_stats(), k.events, k.spawns, k.inline_runs)
}

/// What queued before the serve — a bounce, then three frames — is
/// handled first, in arrival order; later landings where they land.
#[test]
fn frames_and_bounces_queued_before_serve_run_in_arrival_order() {
    let at = SimTime::from_micros;
    let unreachable = |port| format!("destination n2:{port} unreachable");
    let want = [
        (unreachable(555), at(1_000_000)),
        ("a".to_string(), at(1_000_000)),
        ("b".to_string(), at(1_000_000)),
        ("c".to_string(), at(1_000_000)),
        ("bounce-me".to_string(), at(3_000_500)),
        (unreachable(556), at(3_000_540)),
    ];
    for how in [How::RecvLoop, How::Served, How::Inline] {
        let (seen, ..) = queued_then_served(how);
        assert_eq!(seen, want, "{how:?}");
    }
}

/// A bounce reaches a served port's handler where it lands, with no
/// process, and a frame the inline test passes runs the same way; the
/// network and the event count are those of the receive loop.
#[test]
fn a_bounce_reaches_the_handler_where_it_lands_and_starts_no_process() {
    let (_, by_hand, events, spawns, inline_runs) = queued_then_served(How::RecvLoop);
    assert_eq!(by_hand.bounces, 2, "one queued before serve, one after");
    assert_eq!(by_hand.msgs_delivered, 6, "four frames and both bounces");
    assert_eq!((spawns, inline_runs), (6, 0), "svc, client, a frame each");
    for (how, want) in [(How::Served, (6, 1)), (How::Inline, (2, 2))] {
        let (_, stats, ev, spawns, inline_runs) = queued_then_served(how);
        assert_eq!(stats, by_hand, "{how:?}");
        assert_eq!(ev, events, "{how:?}");
        // The bounce after the serve runs inline; so, served inline, does
        // the frame before it. What queued ran on the serving process.
        assert_eq!((spawns, inline_runs), want, "{how:?}");
    }
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
            let handler = frames(move |from, msg| {
                reply.send(from, msg).unwrap();
                // Still running when the group dies: it is a member.
                clock.sleep(Duration::from_secs(3600));
            });
            answer(&rt, &ep, How::Served, handler);
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
            let handler = frames(move |_, _| waits(&node, &me));
            ep.serve(task, handler, every_frame());
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
        let handler = frames(move |from, msg| {
            *slot.lock() = Some(clock.now());
            progress.bump();
            reply.send(from, msg).unwrap();
        });
        ep.serve("prepare", handler, every_frame());
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
