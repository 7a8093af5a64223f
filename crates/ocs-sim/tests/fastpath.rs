//! Scheduler equivalence: handoff elision and the indexed network
//! state are wall-clock optimizations only, so a workload's deliveries,
//! their order and its trace hash follow from its events alone.
//!
//! Three angles:
//! * a model-based proptest comparing delivery order against a reference
//!   `BTreeMap<(time, seq), tag>` oracle over arbitrary send/sleep/crash
//!   interleavings;
//! * the chatty hub workload, however the hub serves its port;
//! * literals: the hub's trace hash and event count, and the handoffs
//!   its run elides, pinned by count.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use std::collections::BTreeMap;

use ocs_sim::{Addr, LinkParams, NodeRt, NodeRtExt, PortReq, RecvError, Sim, SimTime};
use proptest::prelude::*;

/// One step of the random scenario, executed by the driver at a virtual
/// time cursor.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Advance the cursor.
    Sleep { ms: u64 },
    /// Spawn a one-shot process on sender `s` that sends `tag` to the
    /// receiver. Skipped (in sim and oracle alike) while `s` is down.
    Send { s: usize, tag: u32 },
    /// Crash sender `s`. In-flight messages from it stay deliverable.
    Crash { s: usize },
    /// Restart sender `s`.
    Restart { s: usize },
}

const SENDERS: usize = 3;
/// Distinct per-sender one-way latencies, so interleavings reorder
/// deliveries relative to send order (and collide at equal times).
const LAT_MS: [u64; SENDERS] = [10, 23, 41];
const RX_PORT: u16 = 7;

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..60).prop_map(|ms| Op::Sleep { ms }),
        (0..SENDERS, any::<u32>()).prop_map(|(s, tag)| Op::Send { s, tag }),
        (0..SENDERS).prop_map(|s| Op::Crash { s }),
        (0..SENDERS).prop_map(|s| Op::Restart { s }),
    ]
}

/// Runs the scenario, returning the receiver's delivery log (virtual
/// micros, tag), the kernel trace hash and the number of events popped.
fn run_scenario(ops: &[Op]) -> (Vec<(u64, u32)>, u64, u64) {
    let sim = Sim::new(0x5EED);
    let rx = sim.add_node("rx");
    let senders: Vec<_> = (0..SENDERS)
        .map(|i| sim.add_node(&format!("s{i}")))
        .collect();
    for (i, s) in senders.iter().enumerate() {
        sim.set_link(
            s.node(),
            rx.node(),
            LinkParams::latency_only(Duration::from_millis(LAT_MS[i])),
        );
    }
    let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let rt = Arc::clone(&rx);
        let log = Arc::clone(&log);
        rx.spawn_fn("collector", move || {
            let ep = rt.open(PortReq::Fixed(RX_PORT)).expect("open");
            while let Ok((_from, msg)) = ep.recv(None) {
                let mut tag = [0u8; 4];
                tag.copy_from_slice(&msg[..4]);
                log.lock()
                    .unwrap()
                    .push((rt.now().as_micros(), u32::from_le_bytes(tag)));
            }
        });
    }
    let rx_addr = Addr::new(rx.node(), RX_PORT);
    let mut cursor_ms = 0u64;
    let mut down = [false; SENDERS];
    for &op in ops {
        match op {
            Op::Sleep { ms } => cursor_ms += ms,
            Op::Send { s, tag } => {
                if !down[s] {
                    sim.run_until(SimTime::from_millis(cursor_ms));
                    let rt = Arc::clone(&senders[s]);
                    senders[s].spawn_fn("shot", move || {
                        let ep = rt.open(PortReq::Ephemeral).expect("open");
                        let _ = ep.send(rx_addr, bytes::Bytes::from(tag.to_le_bytes().to_vec()));
                    });
                }
            }
            Op::Crash { s } => {
                if !down[s] {
                    sim.run_until(SimTime::from_millis(cursor_ms));
                    sim.crash_node(senders[s].node());
                    down[s] = true;
                }
            }
            Op::Restart { s } => {
                if down[s] {
                    sim.run_until(SimTime::from_millis(cursor_ms));
                    sim.restart_node(senders[s].node());
                    down[s] = false;
                }
            }
        }
    }
    // Let every in-flight delivery land.
    sim.run_until(SimTime::from_millis(cursor_ms + 1_000));
    let hash = sim.trace_hash();
    let out = log.lock().unwrap().clone();
    (out, hash, sim.kernel_stats().events)
}

/// The reference model: deliveries ordered by `(arrival time, source
/// node, per-source send seq)`, exactly the kernel's event-queue key
/// (sender `s` is node `s + 2`; the receiver is node 1). A send from an
/// up sender at
/// cursor `t` arrives at `t + latency`; crashing a sender suppresses
/// its later sends but not in-flight ones.
fn oracle(ops: &[Op]) -> Vec<(u64, u32)> {
    let mut cursor_ms = 0u64;
    let mut down = [false; SENDERS];
    let mut seq = [0u64; SENDERS];
    let mut expected: BTreeMap<(u64, u32, u64), u32> = BTreeMap::new();
    for &op in ops {
        match op {
            Op::Sleep { ms } => cursor_ms += ms,
            Op::Send { s, tag } => {
                if !down[s] {
                    let at = (cursor_ms + LAT_MS[s]) * 1_000;
                    expected.insert((at, s as u32 + 2, seq[s]), tag);
                    seq[s] += 1;
                }
            }
            Op::Crash { s } => down[s] = true,
            Op::Restart { s } => down[s] = false,
        }
    }
    expected
        .into_iter()
        .map(|((at, _, _), tag)| (at, tag))
        .collect()
}

proptest! {
    #[test]
    fn delivery_order_matches_btreemap_oracle(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let (log, _, _) = run_scenario(&ops);
        prop_assert_eq!(&log, &oracle(&ops), "kernel diverged from the oracle");
    }
}

/// How the hub answers its port.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Hub {
    /// Receives and echoes in its own loop.
    Recv,
    /// Receives in a loop and spawns a process per echo — what a served
    /// port's receive loop was before the kernel served it.
    SpawnLoop,
    /// `Endpoint::serve`: a process per echo, spawned at delivery.
    Served,
    /// `Endpoint::serve` with every frame inline: no process per echo.
    Inline,
}

/// The determinism suite's chatty hub workload, parameterized over how
/// the hub serves its port.
fn hub_workload(seed: u64, how: Hub) -> (u64, u64, ocs_sim::KernelStats) {
    let sim = Sim::new(seed);
    let hub = sim.add_node("hub");
    let mut others = Vec::new();
    for i in 0..4 {
        others.push(sim.add_node(&format!("n{i}")));
    }
    {
        let rt = Arc::clone(&hub);
        hub.spawn_fn("echo", move || {
            let ep = rt.open(PortReq::Fixed(9)).expect("open");
            let reply = {
                let ep = Arc::clone(&ep);
                move |from, msg| {
                    let _ = ep.send(from, msg);
                }
            };
            match how {
                Hub::Recv => {
                    while let Ok((from, msg)) = ep.recv(None) {
                        reply(from, msg);
                    }
                }
                Hub::SpawnLoop => {
                    while let Ok((from, msg)) = ep.recv(None) {
                        let reply = reply.clone();
                        rt.spawn_fn("echo-worker", move || reply(from, msg));
                    }
                }
                Hub::Served | Hub::Inline => {
                    let inline = how == Hub::Inline;
                    let handler = move |landing: Result<_, RecvError>| {
                        if let Ok((from, msg)) = landing {
                            reply(from, msg);
                        }
                    };
                    ep.serve("echo-worker", Arc::new(handler), Arc::new(move |_| inline));
                    while !matches!(ep.recv(None), Err(RecvError::Closed)) {}
                }
            }
        });
    }
    let hub_id = hub.node();
    for (i, n) in others.iter().enumerate() {
        let rt = Arc::clone(n);
        n.spawn_fn(&format!("client{i}"), move || {
            let ep = rt.open(PortReq::Ephemeral).expect("open");
            for _ in 0..50 {
                let len = 8 + (rt.rand_u64() % 200) as usize;
                let _ = ep.send(Addr::new(hub_id, 9), bytes::Bytes::from(vec![0u8; len]));
                let _ = ep.recv(Some(Duration::from_millis(200)));
                rt.sleep(Duration::from_millis(10 + rt.rand_u64() % 90));
            }
        });
    }
    sim.run_until(SimTime::from_secs(30));
    (
        sim.trace_hash(),
        sim.net_stats().msgs_delivered,
        sim.kernel_stats(),
    )
}

/// The hub's run, counted at the commit that deleted the scheduler's
/// second handoff mode: one run, so the scheduler resumes once, and
/// every other handoff is a direct switch or the blocking process
/// running on. A lost elision shows here as a count.
#[test]
fn fast_path_actually_elides_driver_round_trips() {
    let (_, _, stats) = hub_workload(42, Hub::Recv);
    let counts = (
        stats.driver_resumes,
        stats.direct_handoffs,
        stats.self_continues,
        stats.events,
    );
    assert_eq!(counts, (1, 574, 30, HUB_EVENTS), "{stats:?}");
}

/// A served hub replays its receive loop: same trace hash, deliveries
/// and events whether each echo is a process spawned at delivery or runs
/// inline.
#[test]
fn a_served_hub_replays_its_receive_loop() {
    let (hash, delivered, base) = hub_workload(42, Hub::Recv);
    let (_, _, spawned) = hub_workload(42, Hub::SpawnLoop);
    assert_eq!(spawned.spawns, base.spawns + 200, "one process per echo");
    for how in [Hub::SpawnLoop, Hub::Served, Hub::Inline] {
        let (h, d, stats) = hub_workload(42, how);
        assert_eq!(h, hash, "trace hash: {how:?}");
        assert_eq!(d, delivered, "deliveries: {how:?}");
        assert_eq!(stats.events, base.events, "events: {how:?}");
        let (spawns, inline) = match how {
            Hub::Inline => (base.spawns, 200),
            _ => (spawned.spawns, 0),
        };
        assert_eq!(stats.spawns, spawns, "processes: {how:?}");
        assert_eq!(stats.inline_runs, inline, "inline echoes: {how:?}");
    }
}

/// Pinned to literals read from the scheduler loop that preceded the
/// windowed one, which the one kernel's loop must still replay. The
/// scenario's `run_until` cursor slices its run into many short runs.
#[test]
fn one_shard_replays_the_pinned_trace() {
    let (hash, delivered, stats) = hub_workload(42, Hub::Recv);
    assert_eq!(
        (hash, delivered, stats.events),
        (HUB_HASH, HUB_DELIVERED, HUB_EVENTS)
    );
    let ops = [
        Op::Send { s: 0, tag: 1 },
        Op::Send { s: 2, tag: 2 },
        Op::Sleep { ms: 5 },
        Op::Send { s: 1, tag: 3 },
        Op::Crash { s: 0 },
        Op::Sleep { ms: 17 },
        Op::Send { s: 0, tag: 4 },
        Op::Send { s: 2, tag: 5 },
        Op::Restart { s: 0 },
        Op::Sleep { ms: 30 },
        Op::Send { s: 0, tag: 6 },
        Op::Send { s: 1, tag: 7 },
        Op::Crash { s: 2 },
        Op::Sleep { ms: 1 },
        Op::Send { s: 1, tag: 8 },
    ];
    let (log, hash, events) = run_scenario(&ops);
    assert_eq!(log, oracle(&ops));
    assert_eq!((hash, events), (SCENARIO_HASH, SCENARIO_EVENTS));
}

const HUB_HASH: u64 = 1_172_620_786_949_139_311;
const HUB_DELIVERED: u64 = 400;
const HUB_EVENTS: u64 = 600;
const SCENARIO_HASH: u64 = 17_491_229_906_475_510_951;
const SCENARIO_EVENTS: u64 = 7;
