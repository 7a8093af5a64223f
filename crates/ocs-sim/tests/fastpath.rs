//! Scheduler fast-path equivalence: handoff elision and the indexed
//! network state are wall-clock optimizations only, so a workload must
//! behave identically — same deliveries, same order, same trace hash —
//! with the fast path on or off.
//!
//! Two angles:
//! * a model-based proptest comparing delivery order against a reference
//!   `BTreeMap<(time, seq), tag>` oracle over arbitrary send/sleep/crash
//!   interleavings, run under both scheduler modes;
//! * direct fast-vs-slow trace-hash comparison on the chatty hub
//!   workload, plus a check that the fast path actually elides handoffs.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use std::collections::BTreeMap;

use ocs_sim::{Addr, LinkParams, NodeRt, NodeRtExt, PortReq, Sim, SimConfig, SimTime};
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

/// Runs the scenario under one scheduler mode and shard count,
/// returning the receiver's delivery log (virtual micros, tag), the
/// kernel trace hash and the number of events popped.
fn run_scenario(ops: &[Op], fast: bool, shards: usize) -> (Vec<(u64, u32)>, u64, u64) {
    let sim = Sim::with_config(SimConfig {
        seed: 0x5EED,
        fast,
        shards,
        ..SimConfig::default()
    });
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
/// (sender `s` is node `s + 2`; the receiver is node 1 — the key is
/// shard-layout-invariant by construction). A send from an up sender at
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
        let want = oracle(&ops);
        let (fast_log, fast_hash, _) = run_scenario(&ops, true, 1);
        let (slow_log, slow_hash, _) = run_scenario(&ops, false, 1);
        prop_assert_eq!(&fast_log, &want, "fast path diverged from the oracle");
        prop_assert_eq!(&slow_log, &want, "classic path diverged from the oracle");
        prop_assert_eq!(fast_hash, slow_hash, "trace hashes diverged between modes");
        // The sharded kernel must replay the identical timeline: same
        // deliveries at the same virtual instants, same trace digest.
        let (sharded_log, sharded_hash, _) = run_scenario(&ops, true, 3);
        prop_assert_eq!(&sharded_log, &want, "sharded kernel diverged from the oracle");
        prop_assert_eq!(sharded_hash, fast_hash, "trace hashes diverged across shard counts");
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

/// The determinism suite's chatty hub workload, parameterized over the
/// scheduler mode, shard count and how the hub serves its port.
fn hub_workload(
    seed: u64,
    fast: bool,
    shards: usize,
    how: Hub,
) -> (u64, u64, ocs_sim::KernelStats) {
    let sim = Sim::with_config(SimConfig {
        seed,
        fast,
        shards,
        ..SimConfig::default()
    });
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
                    let inline: Option<ocs_sim::InlineTest> =
                        (how == Hub::Inline).then(|| Arc::new(|_: &[u8]| true) as _);
                    ep.serve(&*rt, "echo-worker", Arc::new(reply), inline);
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

#[test]
fn fast_and_slow_hub_workloads_are_trace_identical() {
    let (fh, fd, fstats) = hub_workload(42, true, 1, Hub::Recv);
    let (sh, sd, sstats) = hub_workload(42, false, 1, Hub::Recv);
    assert_eq!(fh, sh, "trace hash must not depend on the scheduler mode");
    assert_eq!(fd, sd);
    assert_eq!(
        fstats.events, sstats.events,
        "both modes must process the same event stream"
    );
}

#[test]
fn sharded_hub_workload_is_trace_identical_and_crosses_shards() {
    let (fh, fd, _) = hub_workload(42, true, 1, Hub::Recv);
    for shards in [2, 4] {
        let (sh, sd, sstats) = hub_workload(42, true, shards, Hub::Recv);
        assert_eq!(
            fh, sh,
            "trace hash must not depend on the shard count ({shards} shards)"
        );
        assert_eq!(fd, sd);
        assert!(
            sstats.horizon_syncs > 0,
            "sharded run must advance via windows: {sstats:?}"
        );
        assert!(
            sstats.xshard_msgs > 0,
            "hub workload must cross shard boundaries: {sstats:?}"
        );
    }
}

/// Random-topology ping mesh under a random seeded fault plan, applied
/// by a Nemesis *process* (so crash/partition/impairment controls ride
/// the kernel's broadcast control stream, the interesting cross-shard
/// path). Returns the full observable surface: trace hash, network
/// stats, and the final clock.
fn fault_mesh_workload(
    seed: u64,
    plan_seed: u64,
    nodes: usize,
    shards: usize,
) -> (u64, ocs_sim::NetStats, u64) {
    use ocs_sim::{FaultPlan, FaultPlanSpec, Nemesis, NodeId};
    let sim = Sim::with_config(SimConfig {
        seed,
        shards,
        ..SimConfig::default()
    });
    let hosts: Vec<_> = (0..nodes).map(|i| sim.add_node(&format!("m{i}"))).collect();
    for (i, h) in hosts.iter().enumerate() {
        // Echo server on a fixed port.
        {
            let rt = Arc::clone(h);
            h.spawn_fn(&format!("echo{i}"), move || {
                let ep = rt.open(PortReq::Fixed(9)).expect("open");
                while let Ok((from, msg)) = ep.recv(None) {
                    let _ = ep.send(from, msg);
                }
            });
        }
        // Client pinging the next node around the ring; crashes and
        // partitions turn replies into timeouts/bounces, all tolerated.
        let peer = Addr::new(hosts[(i + 1) % nodes].node(), 9);
        let rt = Arc::clone(h);
        h.spawn_fn(&format!("ping{i}"), move || {
            let ep = rt.open(PortReq::Ephemeral).expect("open");
            for n in 0..40u64 {
                let _ = ep.send(peer, bytes::Bytes::from(n.to_le_bytes().to_vec()));
                let _ = ep.recv(Some(Duration::from_millis(50)));
                rt.sleep(Duration::from_millis(20 + rt.rand_u64() % 60));
            }
        });
    }
    let ids: Vec<NodeId> = hosts.iter().map(|h| h.node()).collect();
    let pairs: Vec<(NodeId, NodeId)> = ids
        .iter()
        .zip(ids.iter().cycle().skip(1))
        .map(|(a, b)| (*a, *b))
        .collect();
    let spec = FaultPlanSpec::new(ids, pairs);
    Nemesis::spawn(&sim, FaultPlan::random(plan_seed, &spec));
    sim.run_until(SimTime::from_secs(8));
    (sim.trace_hash(), sim.net_stats(), sim.now().as_micros())
}

proptest! {
    #[test]
    fn sharded_fault_plans_replay_bit_identically(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
        nodes in 3usize..8,
    ) {
        let (h1, s1, t1) = fault_mesh_workload(seed, plan_seed, nodes, 1);
        let (h3, s3, t3) = fault_mesh_workload(seed, plan_seed, nodes, 3);
        prop_assert_eq!(h1, h3, "trace hash diverged between 1 and 3 shards");
        prop_assert_eq!(s1, s3, "network stats diverged between 1 and 3 shards");
        prop_assert_eq!(t1, t3, "final clock diverged between 1 and 3 shards");
    }
}

#[test]
fn fast_path_actually_elides_driver_round_trips() {
    let (_, _, fstats) = hub_workload(42, true, 1, Hub::Recv);
    let (_, _, sstats) = hub_workload(42, false, 1, Hub::Recv);
    assert!(
        fstats.direct_handoffs + fstats.self_continues > 0,
        "fast mode never took the fast path: {fstats:?}"
    );
    assert_eq!(
        sstats.direct_handoffs + sstats.self_continues,
        0,
        "slow mode must never elide the driver: {sstats:?}"
    );
    assert!(
        fstats.driver_resumes < sstats.driver_resumes / 4,
        "elision should remove most driver resumes: fast {fstats:?} vs slow {sstats:?}"
    );
}

/// A served hub replays its receive loop: same trace hash, deliveries
/// and events whether each echo is a process spawned at delivery or runs
/// inline, in either scheduler mode, on 1, 2 or 4 shards.
#[test]
fn a_served_hub_replays_its_receive_loop() {
    let (hash, delivered, base) = hub_workload(42, true, 1, Hub::Recv);
    let (_, _, spawned) = hub_workload(42, true, 1, Hub::SpawnLoop);
    assert_eq!(spawned.spawns, base.spawns + 200, "one process per echo");
    for how in [Hub::SpawnLoop, Hub::Served, Hub::Inline] {
        for fast in [true, false] {
            for shards in [1, 2, 4] {
                let (h, d, stats) = hub_workload(42, fast, shards, how);
                let run = format!("{how:?}, fast {fast}, {shards} shards");
                assert_eq!(h, hash, "trace hash: {run}");
                assert_eq!(d, delivered, "deliveries: {run}");
                assert_eq!(stats.events, base.events, "events: {run}");
                let (spawns, inline) = match how {
                    Hub::Inline => (base.spawns, 200),
                    _ => (spawned.spawns, 0),
                };
                assert_eq!(stats.spawns, spawns, "processes: {run}");
                assert_eq!(stats.inline_runs, inline, "inline echoes: {run}");
            }
        }
    }
}

/// One shard pinned to literals read from the single-shard scheduler
/// loop that preceded the windowed one: the equivalence tests above
/// compare shard counts that now run one loop, so these figures are what
/// still ties that loop to the old one. The scenario's `run_until` cursor
/// slices its run into many short runs.
#[test]
fn one_shard_replays_the_pinned_trace() {
    let (hash, delivered, stats) = hub_workload(42, true, 1, Hub::Recv);
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
    let (log, hash, events) = run_scenario(&ops, true, 1);
    assert_eq!(log, oracle(&ops));
    assert_eq!((hash, events), (SCENARIO_HASH, SCENARIO_EVENTS));
}

const HUB_HASH: u64 = 1_172_620_786_949_139_311;
const HUB_DELIVERED: u64 = 400;
const HUB_EVENTS: u64 = 600;
const SCENARIO_HASH: u64 = 17_491_229_906_475_510_951;
const SCENARIO_EVENTS: u64 = 7;
