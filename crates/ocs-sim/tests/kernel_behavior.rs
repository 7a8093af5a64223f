//! Behavioral tests for the discrete-event kernel: time, scheduling,
//! messaging, failure injection, and determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use ocs_sim::{
    Addr, LinkParams, NodeRt, NodeRtExt, PortReq, RecvError, Sim, SimChan, SimTime,
};

fn secs(s: u64) -> Duration {
    Duration::from_secs(s)
}

#[test]
fn virtual_time_advances_only_with_events() {
    let sim = Sim::new(1);
    let node = sim.add_node("a");
    let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let log2 = Arc::clone(&log);
    let rt = node.clone();
    node.spawn_fn("sleeper", move || {
        log2.lock().push(rt.now());
        rt.sleep(secs(5));
        log2.lock().push(rt.now());
        rt.sleep(secs(3));
        log2.lock().push(rt.now());
    });
    sim.run_until(SimTime::from_secs(100));
    let l = log.lock();
    assert_eq!(
        *l,
        vec![SimTime::ZERO, SimTime::from_secs(5), SimTime::from_secs(8)]
    );
    // run_until advances the clock to the limit even when idle.
    assert_eq!(sim.now(), SimTime::from_secs(100));
}

#[test]
fn messages_respect_link_latency() {
    let sim = Sim::new(2);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.set_link(
        a.node(),
        b.node(),
        LinkParams::latency_only(Duration::from_millis(10)),
    );
    let got = Arc::new(AtomicU64::new(0));
    let got2 = Arc::clone(&got);
    let b_rt = b.clone();
    b.spawn_fn("recv", move || {
        let ep = b_rt.open(PortReq::Fixed(80)).unwrap();
        let (_, _msg) = ep.recv(None).unwrap();
        got2.store(b_rt.now().as_micros(), Ordering::Relaxed);
    });
    let a_rt = a.clone();
    let to = Addr::new(b.node(), 80);
    a.spawn_fn("send", move || {
        a_rt.sleep(Duration::from_millis(1));
        let ep = a_rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"x")).unwrap();
    });
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(got.load(Ordering::Relaxed), 11_000); // 1ms send time + 10ms latency
}

#[test]
fn bandwidth_adds_serialization_delay() {
    let sim = Sim::new(3);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    // 1 MB/s, zero latency: a 500_000-byte message takes 0.5s.
    sim.set_link(
        a.node(),
        b.node(),
        LinkParams {
            latency: Duration::ZERO,
            bandwidth: Some(1_000_000),
            loss: 0.0,
        },
    );
    let got = Arc::new(AtomicU64::new(0));
    let got2 = Arc::clone(&got);
    let b_rt = b.clone();
    b.spawn_fn("recv", move || {
        let ep = b_rt.open(PortReq::Fixed(80)).unwrap();
        ep.recv(None).unwrap();
        got2.store(b_rt.now().as_micros(), Ordering::Relaxed);
    });
    let a_rt = a.clone();
    let to = Addr::new(b.node(), 80);
    a.spawn_fn("send", move || {
        let ep = a_rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from(vec![0u8; 500_000])).unwrap();
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(got.load(Ordering::Relaxed), 500_000);
}

#[test]
fn back_to_back_sends_queue_on_the_link() {
    let sim = Sim::new(4);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.set_link(
        a.node(),
        b.node(),
        LinkParams {
            latency: Duration::ZERO,
            bandwidth: Some(1_000_000),
            loss: 0.0,
        },
    );
    let times = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let times2 = Arc::clone(&times);
    let b_rt = b.clone();
    b.spawn_fn("recv", move || {
        let ep = b_rt.open(PortReq::Fixed(80)).unwrap();
        for _ in 0..2 {
            ep.recv(None).unwrap();
            times2.lock().push(b_rt.now().as_micros());
        }
    });
    let a_rt = a.clone();
    let to = Addr::new(b.node(), 80);
    a.spawn_fn("send", move || {
        let ep = a_rt.open(PortReq::Ephemeral).unwrap();
        // Two 100 KB messages sent back to back serialize sequentially.
        ep.send(to, Bytes::from(vec![0u8; 100_000])).unwrap();
        ep.send(to, Bytes::from(vec![0u8; 100_000])).unwrap();
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(*times.lock(), vec![100_000, 200_000]);
}

#[test]
fn recv_timeout_fires() {
    let sim = Sim::new(5);
    let a = sim.add_node("a");
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt = a.clone();
    a.spawn_fn("w", move || {
        let ep = rt.open(PortReq::Fixed(1)).unwrap();
        let r = ep.recv(Some(secs(3)));
        *seen2.lock() = Some((r, rt.now()));
    });
    sim.run_until(SimTime::from_secs(10));
    let s = seen.lock();
    let (r, t) = s.as_ref().unwrap();
    assert_eq!(*r.as_ref().unwrap_err(), RecvError::TimedOut);
    assert_eq!(*t, SimTime::from_secs(3));
}

#[test]
fn send_to_closed_port_bounces() {
    let sim = Sim::new(6);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt = a.clone();
    let dead = Addr::new(b.node(), 555);
    a.spawn_fn("w", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(dead, Bytes::from_static(b"hi")).unwrap();
        *seen2.lock() = Some(ep.recv(Some(secs(5))));
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(
        seen.lock().take().unwrap(),
        Err(RecvError::Unreachable(dead))
    );
    assert_eq!(sim.net_stats().bounces, 1);
}

#[test]
fn send_to_dead_node_is_silence() {
    let sim = Sim::new(7);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.crash_node(b.node());
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt = a.clone();
    let dead = Addr::new(b.node(), 555);
    a.spawn_fn("w", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(dead, Bytes::from_static(b"hi")).unwrap();
        *seen2.lock() = Some(ep.recv(Some(secs(5))));
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(seen.lock().take().unwrap(), Err(RecvError::TimedOut));
    assert_eq!(sim.net_stats().msgs_dropped, 1);
}

#[test]
fn crash_kills_processes_and_closes_ports() {
    let sim = Sim::new(8);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let progressed = Arc::new(AtomicU64::new(0));
    let p2 = Arc::clone(&progressed);
    let rt = b.clone();
    b.spawn_fn("victim", move || {
        let _ep = rt.open(PortReq::Fixed(80)).unwrap();
        loop {
            rt.sleep(secs(1));
            p2.fetch_add(1, Ordering::Relaxed);
        }
    });
    sim.run_until(SimTime::from_secs(5) + Duration::from_millis(500));
    let before = progressed.load(Ordering::Relaxed);
    assert_eq!(before, 5);
    sim.crash_node(b.node());
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(progressed.load(Ordering::Relaxed), before);
    assert_eq!(sim.live_processes(), 0);
    // After crash, sends to the old port bounce only if the node is up;
    // here the node is down, so silence.
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt = a.clone();
    let to = Addr::new(b.node(), 80);
    a.spawn_fn("probe", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"hi")).unwrap();
        *seen2.lock() = Some(ep.recv(Some(secs(2))));
    });
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(seen.lock().take().unwrap(), Err(RecvError::TimedOut));
}

#[test]
fn process_death_closes_its_endpoints() {
    let sim = Sim::new(9);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let rt = b.clone();
    b.spawn_fn("short-lived", move || {
        let _ep = rt.open(PortReq::Fixed(80)).unwrap();
        rt.sleep(secs(1));
        // Exits; the endpoint must close with it.
    });
    sim.run_until(SimTime::from_secs(2));
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt = a.clone();
    let to = Addr::new(b.node(), 80);
    a.spawn_fn("probe", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"hi")).unwrap();
        *seen2.lock() = Some(ep.recv(Some(secs(2))));
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(seen.lock().take().unwrap(), Err(RecvError::Unreachable(to)));
}

#[test]
fn restart_allows_reopening_ports() {
    let sim = Sim::new(10);
    let b = sim.add_node("b");
    let rt = b.clone();
    b.spawn_fn("v1", move || {
        let _ep = rt.open(PortReq::Fixed(80)).unwrap();
        loop {
            rt.sleep(secs(1));
        }
    });
    sim.run_until(SimTime::from_secs(1));
    sim.crash_node(b.node());
    sim.restart_node(b.node());
    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = Arc::clone(&ok);
    let rt = b.clone();
    b.spawn_fn("v2", move || {
        rt.open(PortReq::Fixed(80)).unwrap();
        ok2.store(1, Ordering::Relaxed);
    });
    sim.run_until(SimTime::from_secs(2));
    assert_eq!(ok.load(Ordering::Relaxed), 1);
}

#[test]
fn partition_blocks_messages_both_ways() {
    let sim = Sim::new(11);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.set_partitioned(a.node(), b.node(), true);
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt_b = b.clone();
    b.spawn_fn("recv", move || {
        let ep = rt_b.open(PortReq::Fixed(80)).unwrap();
        *seen2.lock() = Some(ep.recv(Some(secs(3))));
    });
    let rt = a.clone();
    let to = Addr::new(b.node(), 80);
    a.spawn_fn("send", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"hi")).unwrap();
    });
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(seen.lock().take().unwrap(), Err(RecvError::TimedOut));
    // Healing the partition allows traffic again.
    sim.set_partitioned(a.node(), b.node(), false);
    let seen3 = Arc::clone(&seen);
    let rt_b = b.clone();
    b.spawn_fn("recv2", move || {
        let ep = rt_b.open(PortReq::Fixed(81)).unwrap();
        *seen3.lock() = Some(ep.recv(Some(secs(3))));
    });
    let rt = a.clone();
    let to = Addr::new(b.node(), 81);
    a.spawn_fn("send2", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"hi")).unwrap();
    });
    sim.run_until(SimTime::from_secs(10));
    assert!(seen.lock().take().unwrap().is_ok());
}

#[test]
fn lossy_link_drops_messages() {
    let sim = Sim::new(12);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    sim.set_link(
        a.node(),
        b.node(),
        LinkParams {
            latency: Duration::from_micros(100),
            bandwidth: None,
            loss: 1.0,
        },
    );
    let rt = a.clone();
    let to = Addr::new(b.node(), 80);
    let rt_b = b.clone();
    b.spawn_fn("recv", move || {
        let ep = rt_b.open(PortReq::Fixed(80)).unwrap();
        let _ = ep.recv(None);
    });
    a.spawn_fn("send", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        for _ in 0..10 {
            ep.send(to, Bytes::from_static(b"hi")).unwrap();
        }
    });
    sim.run_until(SimTime::from_secs(1));
    let st = sim.net_stats();
    assert_eq!(st.msgs_sent, 10);
    assert_eq!(st.msgs_dropped, 10);
    assert_eq!(st.msgs_delivered, 0);
}

#[test]
fn sim_chan_coordinates_processes() {
    let sim = Sim::new(13);
    let a = sim.add_node("a");
    let ch: SimChan<u64> = SimChan::new(&sim);
    let ch2 = ch.clone();
    let rt = a.clone();
    a.spawn_fn("producer", move || {
        for i in 0..3 {
            rt.sleep(secs(1));
            ch2.send(i);
        }
    });
    let out = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let out2 = Arc::clone(&out);
    let ch3 = ch.clone();
    let rt = a.clone();
    a.spawn_fn("consumer", move || {
        for _ in 0..3 {
            let v = ch3.recv(None).unwrap();
            out2.lock().push((v, rt.now().as_micros() / 1_000_000));
        }
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(*out.lock(), vec![(0, 1), (1, 2), (2, 3)]);
}

/// A send wakes every receiver blocked on the channel; the first to wait
/// takes the value and the rest wait again. So each value is received
/// once, in send order, and a timed receive woken for nothing still
/// returns at its own deadline. (The driver made the channel, so a send
/// from node `a` wakes it one control delay, 500 µs, later.)
#[test]
fn sim_chan_hands_each_value_to_one_receiver() {
    let sim = Sim::new(14);
    let a = sim.add_node("a");
    let ch: SimChan<u64> = SimChan::new(&sim);
    let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
    for (name, timeout) in [("r0", None), ("r1", None), ("r2", Some(secs(5)))] {
        let (ch, got, rt) = (ch.clone(), Arc::clone(&got), a.clone());
        a.spawn_fn(name, move || {
            let v = ch.recv(timeout);
            got.lock().push((name, v, rt.now()));
        });
    }
    let (tx, rt) = (ch.clone(), a.clone());
    a.spawn_fn("sender", move || {
        rt.sleep(secs(1));
        tx.send(10);
        rt.sleep(secs(2));
        tx.send(11);
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(
        *got.lock(),
        vec![
            ("r0", Some(10), SimTime::from_micros(1_000_500)),
            ("r1", Some(11), SimTime::from_micros(3_000_500)),
            ("r2", None, SimTime::from_secs(5)),
        ]
    );
    assert_eq!(ch.try_recv(), None);
}

#[test]
fn deterministic_with_same_seed() {
    fn run(seed: u64) -> (u64, Vec<u64>) {
        let sim = Sim::new(seed);
        let a = sim.add_node("a");
        let b = sim.add_node("b");
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for (idx, node) in [a.clone(), b.clone()].into_iter().enumerate() {
            let order = Arc::clone(&order);
            let rt = node.clone();
            node.spawn_fn(&format!("p{idx}"), move || {
                for _ in 0..50 {
                    let jitter = rt.rand_below(1000);
                    rt.sleep(Duration::from_micros(500 + jitter));
                    order
                        .lock()
                        .push(idx as u64 * 10_000 + rt.now().as_micros() % 10_000);
                }
            });
        }
        sim.run_until(SimTime::from_secs(1));
        let v = order.lock().clone();
        (sim.net_stats().msgs_sent, v)
    }
    let r1 = run(99);
    let r2 = run(99);
    assert_eq!(r1, r2);
    let r3 = run(100);
    assert_ne!(r1.1, r3.1, "different seeds should diverge");
}

#[test]
fn busy_occupies_the_process() {
    // A single-threaded server that is busy cannot answer: model check.
    let sim = Sim::new(15);
    let a = sim.add_node("a");
    let served_at = Arc::new(AtomicU64::new(0));
    let served2 = Arc::clone(&served_at);
    let rt = a.clone();
    a.spawn_fn("server", move || {
        let ep = rt.open(PortReq::Fixed(80)).unwrap();
        // Busy for 10 seconds before first serving.
        rt.busy(secs(10));
        let _ = ep.recv(None);
        served2.store(rt.now().as_micros(), Ordering::Relaxed);
    });
    let rt = a.clone();
    let to = Addr::new(a.node(), 80);
    a.spawn_fn("client", move || {
        rt.sleep(secs(1));
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"ping")).unwrap();
    });
    sim.run_until(SimTime::from_secs(30));
    assert_eq!(served_at.load(Ordering::Relaxed), 10_000_000);
}

#[test]
fn spawned_process_panics_propagate() {
    let sim = Sim::new(16);
    let a = sim.add_node("a");
    a.spawn_fn("bad", || panic!("boom"));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sim.run_until(SimTime::from_secs(1));
    }));
    assert!(result.is_err());
}

#[test]
fn a_process_that_panics_or_is_killed_gives_its_carrier_back() {
    let sim = Sim::new(21);
    let a = sim.add_node("a");
    for round in 0..10 {
        // `resume_unwind` is a panic minus the hook's line on stderr.
        a.spawn_fn("bad", || std::panic::resume_unwind(Box::new("boom")));
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.run_for(Duration::from_millis(1));
        }))
        .expect_err("the driver re-raises a process's panic");
        assert_eq!(
            report.downcast_ref::<String>().map(String::as_str),
            Some("simulated process panicked: process 'bad': boom"),
            "round {round}"
        );
        let rt = a.clone();
        let victim = a.spawn_group("victim", Box::new(move || rt.sleep(secs(3600))));
        sim.run_for(Duration::from_millis(1));
        victim.kill();
        sim.run_for(Duration::from_millis(1));
        assert!(!victim.alive());
    }
    assert_eq!(sim.live_processes(), 0);
    // Twenty processes, none alive beside another: one stack carries
    // them all.
    let stacks = sim.kernel_stats().stacks_mapped;
    assert_eq!(stacks, 1, "{stacks} stacks for 20 processes");
}

/// The address of a local of the caller's frame.
fn here() -> usize {
    let local = 0u8;
    std::hint::black_box(&local) as *const u8 as usize
}

#[test]
fn a_process_killed_while_suspended_unwinds_its_own_stack_and_returns_it() {
    struct OnUnwind(Arc<parking_lot::Mutex<Vec<(&'static str, usize)>>>);
    impl Drop for OnUnwind {
        fn drop(&mut self) {
            self.0.lock().push(("unwound", here()));
        }
    }
    let sim = Sim::new(22);
    let a = sim.add_node("a");
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (rt, log) = (a.clone(), Arc::clone(&seen));
    let victim = a.spawn_group(
        "victim",
        Box::new(move || {
            let _guard = OnUnwind(Arc::clone(&log));
            log.lock().push(("asleep", here()));
            rt.sleep(secs(3600));
            log.lock().push(("woke", here()));
        }),
    );
    sim.run_for(Duration::from_millis(1));
    victim.kill();
    sim.run_for(Duration::from_millis(1));
    assert!(!victim.alive());
    let log = Arc::clone(&seen);
    a.spawn_fn("next", move || log.lock().push(("next", here())));
    sim.run_for(Duration::from_millis(1));
    let seen = seen.lock().clone();
    let names: Vec<&str> = seen.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, ["asleep", "unwound", "next"]);
    // The unwind ran on the victim's stack, not the driver's, and the
    // next process got that stack back from the pool.
    let near = |x: usize, y: usize| x.abs_diff(y) < 512 * 1024;
    let (asleep, unwound, next) = (seen[0].1, seen[1].1, seen[2].1);
    assert!(near(asleep, unwound), "{asleep:#x} vs {unwound:#x}");
    assert!(!near(unwound, here()), "unwound on the driver's stack");
    assert!(near(asleep, next), "{asleep:#x} vs {next:#x}");
    assert_eq!(sim.kernel_stats().stacks_mapped, 1);
}

#[test]
fn a_process_may_exit_into_an_inline_handler_that_spawns() {
    // `exiting` wakes and ends at the instant a frame from `b` lands on a
    // port of `a` served inline (same time, lower source node: the wake
    // goes first). Its last scheduler step runs the handler, on its own
    // stack, and the handler's spawn must not be primed onto that stack.
    let sim = Sim::new(25);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (rt, log) = (a.clone(), Arc::clone(&seen));
    let port = a.open(PortReq::Fixed(7)).unwrap();
    port.serve(
        "spawner",
        Arc::new(move |item: Result<(Addr, Bytes), RecvError>| {
            if item.is_ok() {
                let log = Arc::clone(&log);
                rt.spawn_fn("child", move || log.lock().push(("child", here())));
            }
        }),
        Arc::new(|_| true),
    );
    let (rt, to, log) = (b.clone(), Addr::new(a.node(), 7), Arc::clone(&seen));
    b.spawn_fn("sender", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"spawn")).unwrap();
        log.lock().push(("sender", here()));
    });
    let (rt, log) = (a.clone(), Arc::clone(&seen));
    a.spawn_fn("exiting", move || {
        rt.sleep(Duration::from_micros(500));
        log.lock().push(("exiting", here()));
    });
    sim.run_until(SimTime::from_millis(1));
    let seen = seen.lock().clone();
    let names: Vec<&str> = seen.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, ["sender", "exiting", "child"]);
    // The child got the sender's stack back, not the one still running.
    let near = |x: usize, y: usize| x.abs_diff(y) < 512 * 1024;
    let (sender, exiting, child) = (seen[0].1, seen[1].1, seen[2].1);
    assert!(!near(exiting, child), "{exiting:#x} vs {child:#x}");
    assert!(near(sender, child), "{sender:#x} vs {child:#x}");
    assert_eq!(sim.kernel_stats().stacks_mapped, 2);
}

#[test]
fn driving_a_sim_from_another_thread_while_processes_are_suspended_panics() {
    let sim = Sim::new(23);
    let a = sim.add_node("a");
    let rt = a.clone();
    a.spawn_fn("sleeper", move || rt.sleep(secs(3600)));
    sim.run_for(Duration::from_millis(1));
    let report = std::thread::scope(|s| {
        s.spawn(|| sim.run_for(Duration::from_millis(1)))
            .join()
            .expect_err("a second thread drove suspended processes")
    });
    let msg = report.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("1 suspended processes was driven from another OS thread"),
        "{msg}"
    );
    // The thread that started them still can, and the drop unwinds them.
    sim.run_for(Duration::from_millis(1));
    assert_eq!(sim.live_processes(), 1);
}

#[test]
fn a_sim_whose_processes_are_all_done_may_move_to_another_thread() {
    let sim = Sim::new(24);
    let a = sim.add_node("a");
    let rt = a.clone();
    a.spawn_fn("brief", move || rt.sleep(secs(1)));
    sim.run_for(secs(2));
    std::thread::scope(|s| {
        s.spawn(|| {
            let rt = a.clone();
            a.spawn_fn("elsewhere", move || rt.sleep(secs(1)));
            sim.run_for(secs(2));
        });
    });
    assert_eq!(sim.live_processes(), 0);
}

#[test]
fn zero_timeout_recv_polls() {
    let sim = Sim::new(17);
    let a = sim.add_node("a");
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt = a.clone();
    a.spawn_fn("poll", move || {
        let ep = rt.open(PortReq::Fixed(1)).unwrap();
        let t0 = rt.now();
        let r = ep.recv(Some(Duration::ZERO));
        *seen2.lock() = Some((r, rt.now() == t0));
    });
    sim.run_until(SimTime::from_secs(1));
    let (r, instant) = seen.lock().take().unwrap();
    assert_eq!(r.unwrap_err(), RecvError::TimedOut);
    assert!(instant, "zero-timeout poll must not advance time");
}

#[test]
fn many_processes_run_to_completion() {
    let sim = Sim::new(18);
    let a = sim.add_node("a");
    let done = Arc::new(AtomicU64::new(0));
    for i in 0..200 {
        let rt = a.clone();
        let done = Arc::clone(&done);
        a.spawn_fn(&format!("w{i}"), move || {
            rt.sleep(Duration::from_millis(i as u64 % 17));
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(done.load(Ordering::Relaxed), 200);
    assert_eq!(sim.live_processes(), 0);
}

#[test]
fn process_groups_inherit_and_kill_together() {
    let sim = Sim::new(19);
    let a = sim.add_node("a");
    let counter = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&counter);
    let rt = a.clone();
    let group = a.spawn_group(
        "service",
        Box::new(move || {
            // Children spawned from inside inherit the group.
            for i in 0..3 {
                let rt2 = rt.clone();
                let c3 = Arc::clone(&c2);
                rt.spawn_fn(&format!("child{i}"), move || loop {
                    rt2.sleep(Duration::from_secs(1));
                    c3.fetch_add(1, Ordering::Relaxed);
                });
            }
            loop {
                rt.sleep(Duration::from_secs(10));
            }
        }),
    );
    sim.run_until(SimTime::from_secs(5) + Duration::from_millis(1));
    assert!(group.alive());
    let before = counter.load(Ordering::Relaxed);
    assert_eq!(before, 15); // 3 children x 5 ticks
    group.kill();
    sim.run_until(SimTime::from_secs(20));
    assert!(!group.alive());
    assert_eq!(counter.load(Ordering::Relaxed), before);
}

#[test]
fn killing_group_closes_its_endpoints() {
    let sim = Sim::new(20);
    let a = sim.add_node("a");
    let b = sim.add_node("b");
    let rt = b.clone();
    let group = b.spawn_group(
        "svc",
        Box::new(move || {
            let ep = rt.open(PortReq::Fixed(80)).unwrap();
            loop {
                let _ = ep.recv(None);
            }
        }),
    );
    sim.run_until(SimTime::from_secs(1));
    group.kill();
    sim.run_until(SimTime::from_secs(2));
    // Sends to the killed service's port now bounce.
    let seen = Arc::new(parking_lot::Mutex::new(None));
    let seen2 = Arc::clone(&seen);
    let rt = a.clone();
    let to = Addr::new(b.node(), 80);
    a.spawn_fn("probe", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        ep.send(to, Bytes::from_static(b"hi")).unwrap();
        *seen2.lock() = Some(ep.recv(Some(secs(2))));
    });
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(seen.lock().take().unwrap(), Err(RecvError::Unreachable(to)));
}

#[test]
fn group_dies_when_root_and_children_exit() {
    let sim = Sim::new(21);
    let a = sim.add_node("a");
    let rt = a.clone();
    let group = a.spawn_group(
        "short",
        Box::new(move || {
            rt.sleep(Duration::from_secs(1));
        }),
    );
    sim.run_until(SimTime::from_secs(5));
    assert!(!group.alive());
}

// ---- timeouts --------------------------------------------------------------

/// An echo server on `node`'s port 7 that answers every request except
/// each `drop_every`-th (0: none).
fn echo_server(node: &Arc<ocs_sim::SimNode>, drop_every: u64) -> Addr {
    let rt = node.clone();
    node.spawn_fn("echo", move || {
        let ep = rt.open(PortReq::Fixed(7)).unwrap();
        let mut n = 0;
        while let Ok((from, msg)) = ep.recv(None) {
            n += 1;
            if drop_every == 0 || n % drop_every != 0 {
                let _ = ep.send(from, msg);
            }
        }
    });
    Addr::new(node.node(), 7)
}

/// A call answered before its timeout leaves no timeout behind: 10,000
/// of them keep the pending count flat, and nothing pops but the
/// 20,000 frames.
#[test]
fn calls_answered_before_their_timeout_leave_no_timer_behind() {
    const CALLS: u64 = 10_000;
    let sim = Sim::new(31);
    let (client, server) = (sim.add_node("client"), sim.add_node("server"));
    let to = echo_server(&server, 0);
    let pending = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let (rt, seen, handle) = (client.clone(), Arc::clone(&pending), sim.clone());
    client.spawn_fn("caller", move || {
        let ep = rt.open(PortReq::Ephemeral).unwrap();
        for i in 1..=CALLS {
            ep.send(to, Bytes::from_static(b"ping")).unwrap();
            ep.recv(Some(secs(3))).expect("answered well inside its timeout");
            if i % 1_000 == 0 {
                seen.lock().push(handle.kernel_stats().timers);
            }
        }
    });
    let events = sim.kernel_stats().events;
    sim.run_until(SimTime::from_secs(3_600));
    assert_eq!(*pending.lock(), vec![0; 10], "pending timeouts every 1,000 calls");
    assert_eq!(sim.kernel_stats().events - events, 2 * CALLS);
    assert_eq!(sim.kernel_stats().timers, 0);
}

/// Runs `setup` to 1 s (its wait ends there), then to 20 s, past the
/// 10 s timeout the wait began with: the timeout is gone by 2 s, and no
/// event pops after that.
fn old_timeout_never_fires(setup: impl FnOnce(&Sim, &Arc<ocs_sim::SimNode>)) {
    let sim = Sim::new(32);
    let node = sim.add_node("waiter");
    setup(&sim, &node);
    sim.run_until(SimTime::from_secs(2));
    let stats = sim.kernel_stats();
    assert_eq!(stats.timers, 0, "the ended wait's timeout is still pending");
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(sim.kernel_stats().events, stats.events, "an event popped after the wait ended");
}

/// A receive that waits 10 s.
fn wait_ten_seconds(rt: &Arc<ocs_sim::SimNode>) -> RecvError {
    let ep = rt.open(PortReq::Fixed(9)).unwrap();
    ep.recv(Some(secs(10))).expect_err("the wait ends without a message")
}

#[test]
fn a_wait_woken_by_a_message_takes_its_timeout_with_it() {
    old_timeout_never_fires(|_, node| {
        let rt = node.clone();
        node.spawn_fn("waiter", move || {
            let ep = rt.open(PortReq::Fixed(9)).unwrap();
            assert!(ep.recv(Some(secs(10))).is_ok());
        });
        let rt = node.clone();
        node.spawn_fn("sender", move || {
            rt.sleep(secs(1));
            let ep = rt.open(PortReq::Ephemeral).unwrap();
            ep.send(Addr::new(rt.node(), 9), Bytes::from_static(b"hi")).unwrap();
        });
    });
}

#[test]
fn a_wait_killed_takes_its_timeout_with_it() {
    old_timeout_never_fires(|sim, node| {
        let rt = node.clone();
        let group = node.spawn_group(
            "waiter",
            Box::new(move || {
                wait_ten_seconds(&rt);
                unreachable!("killed in its wait");
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        group.kill();
    });
}

#[test]
fn a_wait_on_a_crashed_node_takes_its_timeout_with_it() {
    old_timeout_never_fires(|sim, node| {
        let rt = node.clone();
        node.spawn_fn("waiter", move || {
            wait_ten_seconds(&rt);
            unreachable!("its node crashed under it");
        });
        sim.run_until(SimTime::from_secs(1));
        sim.crash_node(node.node());
    });
}

/// Timed waits that end every way — answered, timed out, killed with a
/// group — pop in one order: the trace, events and pending timeouts are
/// literals read before the sharded scheduler was deleted, when a run on
/// two shards matched them.
#[test]
fn timeouts_that_end_every_way_replay_the_pinned_trace() {
    let sim = Sim::new(33);
    let server = sim.add_node("server");
    let to = echo_server(&server, 5);
    let mut groups = Vec::new();
    for i in 0..4u64 {
        let node = sim.add_node(&format!("c{i}"));
        let rt = node.clone();
        groups.push(node.spawn_group(
            "caller",
            Box::new(move || {
                let ep = rt.open(PortReq::Ephemeral).unwrap();
                loop {
                    ep.send(to, Bytes::from_static(b"ping")).unwrap();
                    let _ = ep.recv(Some(Duration::from_millis(2 + i)));
                    rt.sleep(Duration::from_micros(100 + rt.rand_u64() % 900));
                }
            }),
        ));
    }
    sim.run_until(SimTime::from_secs(1));
    groups[0].kill();
    sim.run_until(SimTime::from_secs(2));
    let stats = sim.kernel_stats();
    let got = (sim.trace_hash(), stats.events, stats.timers);
    assert_eq!(got, (17_879_380_546_042_985_297, 10_265, 3));
}

/// A wait that timed out is over: the bump that comes while the process
/// sleeps leaves the sleep alone. A queue pop that times out takes its
/// entry off the queue's wait object, so the bump finds none; a wake
/// from a wait that ended would also be ignored, since it names that
/// wait (`Tasks::wake`, whose own test plants such a wake).
#[test]
fn a_wake_for_a_wait_that_timed_out_leaves_the_next_wait_alone() {
    let sim = Sim::new(34);
    let node = sim.add_node("a");
    let rt: ocs_sim::Rt = node.clone();
    let queue = Arc::new(ocs_sim::Queue::<u64>::new(&rt));
    let woke = Arc::new(AtomicU64::new(0));
    let (waiter, q, at) = (rt.clone(), Arc::clone(&queue), Arc::clone(&woke));
    node.spawn_fn("waiter", move || {
        assert_eq!(q.pop(&waiter, Some(secs(1))), None);
        waiter.sleep(secs(10));
        at.store(waiter.now().as_micros(), Ordering::SeqCst);
    });
    let pusher = rt.clone();
    node.spawn_fn("pusher", move || {
        pusher.sleep(secs(2));
        queue.push(1);
    });
    sim.run_until(SimTime::from_secs(20));
    assert_eq!(
        woke.load(Ordering::SeqCst),
        11_000_000,
        "the sleep ended at 1 s + 10 s"
    );
}

/// The simulator is one kernel: a configuration that asks for more
/// shards is refused, naming the field, rather than run on one.
#[test]
#[should_panic(expected = "SimConfig::shards is 2")]
fn a_config_with_two_shards_is_refused() {
    let _ = Sim::with_config(ocs_sim::SimConfig {
        shards: 2,
        ..ocs_sim::SimConfig::default()
    });
}
