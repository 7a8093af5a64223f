//! Chaos campaigns: seeded fault plans — node crashes with restarts,
//! link partitions with heals, loss/duplication/reordering — against the
//! full cluster while every settop watches a movie, asserting the system
//! converges after the last fault heals: the promise watch finds every
//! settop streaming again, no settop holding what it does not use,
//! `svc/mms` naming a live MMS and every replica's audit exact, every
//! server's basic services running, all inside a bounded window.
//!
//! The campaigns are reproducible: identical seeds yield identical
//! kernel trace hashes even at full-cluster scale.

use std::time::Duration;

use itv_cluster::{Cluster, ClusterConfig, Promise, Watch};
use itv_media::names;
use ocs_sim::{FaultPlan, LinkImpairment, NodeRt, Sim, SimTime};

/// A cluster up, its settops booted, at 70 s.
fn ready_cluster(sim: &Sim, cfg: ClusterConfig) -> Cluster {
    Cluster::ready(sim, cfg, SimTime::from_secs(70))
}

/// Puts every settop into a short VOD session (the workload that runs
/// *under* the fault plan).
fn start_workload(cluster: &Cluster, watch_ms: u64) {
    for s in &cluster.settops {
        s.watch_movie("movie-0", watch_ms);
    }
}

/// What a campaign must keep: every promise but the upgrade's (a fault
/// shows clients errors, and may).
const KEPT: &[Promise] = &[
    Promise::Rebind(names::MMS),
    Promise::Stream,
    Promise::Reclaim,
    Promise::Audit,
];

/// Watches what a campaign must keep for 5 s while the settops tune in
/// to a movie that outlasts the campaign, `apart` from each other: far
/// enough apart, each open sees the last one's load and the streams
/// spread over the MDS replicas.
fn watched(cluster: &Cluster, apart: Duration) -> Watch<'_> {
    let mut watch = Watch::new(cluster, KEPT);
    let end = cluster.sim.now() + Duration::from_secs(5);
    for s in &cluster.settops {
        s.watch_movie("movie-0", 600_000);
        watch.run_for(apart);
    }
    watch.run_until(end);
    watch
}

/// Settops a second apart.
const SPREAD: Duration = Duration::from_secs(1);

/// The post-heal convergence invariants (the campaign's acceptance):
/// every promise holds again within its bound of the heal point — each
/// settop streams within 25 s, no settop holds what it does not use,
/// `svc/mms` names a live MMS, every replica audits exact — and still
/// holds 130 s after it (a 40 s settle and 90 s more), when every
/// server's basic services are back up.
fn assert_converged(watch: &mut Watch, cluster: &Cluster, heal: SimTime) {
    watch.run_until(heal + Duration::from_secs(130));
    for &p in KEPT {
        let back = watch.recovered(p, heal).map(|t| t.saturating_since(heal));
        if back.is_none_or(|b| b > p.bound()) {
            eprintln!("--- postmortem timeline ---\n{}", cluster.postmortem());
            panic!("{p} held again {back:?} after the heal: {:#?}", watch.lapses());
        }
    }
    // No stuck services: every server's SSC reports its basic stack up.
    for (i, server) in cluster.servers.iter().enumerate() {
        for name in ["ns", "auth", "ras"] {
            assert!(server.runs(name), "server {i}: {name} should run after the campaign");
        }
    }
}

#[test]
fn crash_and_restart_campaign_converges() {
    let sim = Sim::new(301);
    let mut cfg = ClusterConfig::small();
    cfg.movie_replicas = 2;
    let cluster = ready_cluster(&sim, cfg);
    let mut watch = watched(&cluster, SPREAD);
    // Crash the non-bootstrap server twice; the runner re-runs "init"
    // (SSC restart) at each RestartNode, and the CSC re-places services.
    let s1 = cluster.servers[1].node.node();
    let plan = FaultPlan::new()
        .crash(s1, SimTime::from_secs(78), SimTime::from_secs(90))
        .crash(s1, SimTime::from_secs(100), SimTime::from_secs(108));
    assert!(plan.fully_healed());
    let outcome = watch.run_fault_plan(&plan);
    assert_eq!(outcome.applied, 4);
    assert_converged(&mut watch, &cluster, outcome.healed_at);
}

#[test]
fn partition_and_heal_campaign_converges() {
    let sim = Sim::new(302);
    let mut cfg = ClusterConfig::small();
    cfg.movie_replicas = 2;
    let cluster = ready_cluster(&sim, cfg);
    // Both streams start from one MDS, so the cut below also stalls the
    // victim's and its re-opens meet the cut.
    let mut watch = watched(&cluster, Duration::ZERO);
    // Split the two servers apart (both directions die: bind races,
    // MDS↔MMS traffic, RAS peer polls), then heal.
    let (a, b) = (
        cluster.servers[0].node.node(),
        cluster.servers[1].node.node(),
    );
    // Also cut one settop off from the MMS primary (whichever server won
    // the `svc/mms` bind race) while that settop's own name service on
    // the *other* server stays reachable: its MMS calls keep resolving
    // and keep failing, which is exactly what drives a client circuit
    // breaker through a full open → half-open → closed cycle. Settop i
    // homes on server i, so the victim is the settop homed opposite the
    // MMS primary.
    let mms_server = cluster.binding(names::MMS).expect("svc/mms bound").addr.node;
    let victim = if mms_server == a {
        cluster.settops[1].node.node()
    } else {
        cluster.settops[0].node.node()
    };
    let plan = FaultPlan::new()
        .partition(a, b, SimTime::from_secs(78), SimTime::from_secs(95))
        .partition(
            mms_server,
            victim,
            SimTime::from_secs(80),
            SimTime::from_secs(115),
        );
    assert!(plan.fully_healed());
    let outcome = watch.run_fault_plan(&plan);
    assert_converged(&mut watch, &cluster, outcome.healed_at);
    // Breaker observability (satellite of the telemetry PR): the settop's
    // breaker tripped during the partition, probed half-open, and closed
    // again; the transition counters and state gauges record the cycle.
    let snap = cluster.telemetry_snapshot();
    eprintln!(
        "breaker counters: opened={} half_opened={} closed={} shed={}",
        snap.counter("orb.breaker.opened"),
        snap.counter("orb.breaker.half_opened"),
        snap.counter("orb.breaker.closed"),
        snap.counter("orb.rebind.breaker_shed"),
    );
    assert!(
        snap.counter("orb.breaker.opened") >= 1,
        "a breaker opened during the partition"
    );
    assert!(
        snap.counter("orb.breaker.half_opened") >= 1,
        "an open breaker probed half-open"
    );
    assert!(
        snap.counter("orb.breaker.closed") >= 1,
        "a probe succeeded and re-closed its breaker"
    );
    // After convergence every breaker is Closed again (gauge == 0).
    for (node, m) in &snap.nodes {
        for (name, v) in &m.gauges {
            if name.starts_with("orb.breaker.state.") {
                assert_eq!(*v, 0, "node {node}: {name} should be Closed");
            }
        }
    }
}

#[test]
fn loss_duplication_reorder_campaign_converges() {
    let sim = Sim::new(303);
    let mut cfg = ClusterConfig::small();
    cfg.movie_replicas = 2;
    let cluster = ready_cluster(&sim, cfg);
    let mut watch = watched(&cluster, SPREAD);
    // Degrade the inter-server link and one settop's access link with
    // loss, duplication and reordering at once; the retry/deadline layer
    // has to carry the workload through it.
    let (a, b) = (
        cluster.servers[0].node.node(),
        cluster.servers[1].node.node(),
    );
    let settop0 = cluster.settops[0].node.node();
    let plan = FaultPlan::new()
        .impair(
            a,
            b,
            LinkImpairment::chaotic(0.20, 0.15, 0.25),
            SimTime::from_secs(77),
            SimTime::from_secs(100),
        )
        .impair(
            a,
            settop0,
            LinkImpairment::chaotic(0.15, 0.10, 0.20),
            SimTime::from_secs(80),
            SimTime::from_secs(98),
        );
    assert!(plan.fully_healed());
    let outcome = watch.run_fault_plan(&plan);
    assert_converged(&mut watch, &cluster, outcome.healed_at);
}

#[test]
fn randomized_seeded_campaigns_converge() {
    // Randomized mixed campaigns (crashes + partitions + impairments),
    // generated from seeds: whatever the generator schedules, the plan
    // always heals and the cluster always converges afterwards.
    for seed in [11u64, 42u64] {
        let sim = Sim::new(304);
        let mut cfg = ClusterConfig::small();
        cfg.movie_replicas = 2;
        let cluster = ready_cluster(&sim, cfg);
        let mut watch = watched(&cluster, SPREAD);
        let spec = cluster.chaos_spec(SimTime::from_secs(77), SimTime::from_secs(105));
        let plan = FaultPlan::random(seed, &spec);
        assert!(plan.fully_healed(), "seed {seed}: generator must heal");
        assert!(!plan.is_empty(), "seed {seed}: plan should do something");
        let outcome = watch.run_fault_plan(&plan);
        assert_converged(&mut watch, &cluster, outcome.healed_at);
    }
}

#[test]
fn healed_partition_does_not_trigger_spurious_view_change() {
    // Regression: a replica partitioned away from the group long enough
    // to suspect the primary must NOT drag the group into a view change
    // — neither while isolated (its proposals find no joiners and must
    // abort) nor after the link heals (it reverts to the last normal
    // view and catches up). Sticky primary: view changes require a
    // second suspicious replica.
    let sim = Sim::new(306);
    let cfg = ClusterConfig::orlando(); // three servers → three NS replicas
    let cluster = ready_cluster(&sim, cfg);
    let mut watch = watched(&cluster, Duration::ZERO);
    watch.run_for(Duration::from_secs(3)); // steady state, past boot elections

    let before = cluster.telemetry_snapshot();
    let view_before: Vec<i64> = cluster
        .servers
        .iter()
        .map(|s| before.nodes[&s.node.node()].gauge("ns.vsr.view"))
        .collect();
    assert_eq!(
        view_before[0], view_before[2],
        "replicas should agree on the view before the fault"
    );

    // Isolate server 2's replica from both peers, well past its suspect
    // timeout (~7 s), then heal.
    let (a, b, c) = (
        cluster.servers[0].node.node(),
        cluster.servers[1].node.node(),
        cluster.servers[2].node.node(),
    );
    let plan = FaultPlan::new()
        .partition(a, c, SimTime::from_secs(85), SimTime::from_secs(117))
        .partition(b, c, SimTime::from_secs(85), SimTime::from_secs(117));
    assert!(plan.fully_healed());
    let outcome = watch.run_fault_plan(&plan);
    watch.run_until(outcome.healed_at + Duration::from_secs(40));

    let after = cluster.telemetry_snapshot();
    let view_after: Vec<i64> = cluster
        .servers
        .iter()
        .map(|s| after.nodes[&s.node.node()].gauge("ns.vsr.view"))
        .collect();
    assert_eq!(
        view_before, view_after,
        "a partitioned-then-healed replica must not move the view"
    );
    assert_eq!(
        after.counter("ns.vsr.view_changes"),
        before.counter("ns.vsr.view_changes"),
        "no view change may be installed on account of the partition"
    );
    // The isolated replica really did suspect and propose — the stable
    // view above is the sticky-primary logic working, not a vacuous run.
    assert!(
        after.counter("ns.vsr.suspects") > before.counter("ns.vsr.suspects"),
        "the isolated replica should have suspected the primary"
    );
    assert!(
        after.counter("ns.vsr.vc_aborted") > before.counter("ns.vsr.vc_aborted"),
        "its joiner-less proposals should have aborted"
    );
    // And it is a functioning backup again: the whole cluster converges.
    assert_converged(&mut watch, &cluster, outcome.healed_at);
}

/// One full chaos run, returning the kernel's event-trace hash.
fn chaos_trace(sim_seed: u64, plan_seed: u64) -> u64 {
    chaos_trace_with(sim_seed, plan_seed, true, false)
}

/// [`chaos_trace`] with explicit control over the scheduler fast path,
/// and with the run advancing through a [`Watch`] of every promise
/// when `watched`.
fn chaos_trace_with(sim_seed: u64, plan_seed: u64, fast: bool, watched: bool) -> u64 {
    let sim = Sim::with_config(ocs_sim::SimConfig {
        seed: sim_seed,
        fast,
        ..ocs_sim::SimConfig::default()
    });
    let mut cfg = ClusterConfig::small();
    cfg.movie_replicas = 2;
    let cluster = ready_cluster(&sim, cfg);
    start_workload(&cluster, 10_000);
    let spec = cluster.chaos_spec(SimTime::from_secs(77), SimTime::from_secs(100));
    let plan = FaultPlan::random(plan_seed, &spec);
    if watched {
        let every = [KEPT, &[Promise::Upgrade]].concat();
        let mut watch = Watch::new(&cluster, &every);
        watch.run_for(Duration::from_secs(5));
        watch.run_fault_plan(&plan);
        watch.run_until(SimTime::from_secs(130));
        assert!(
            !watch.lapses().is_empty(),
            "the campaign breaks a promise the watch sees"
        );
    } else {
        sim.run_for(Duration::from_secs(5));
        cluster.run_fault_plan(&plan);
        sim.run_until(SimTime::from_secs(130));
    }
    sim.trace_hash()
}

#[test]
fn same_seed_chaos_run_has_identical_trace_hash() {
    // Full-cluster reproducibility: two runs with the same sim seed and
    // the same fault-plan seed replay the exact same event trace, down
    // to every send, delivery, crash, partition and impairment.
    let h1 = chaos_trace(305, 7);
    let h2 = chaos_trace(305, 7);
    assert_eq!(h1, h2, "same seeds must replay the same trace");
    // And the hash actually discriminates: a different fault plan (same
    // sim seed) diverges.
    let h3 = chaos_trace(305, 8);
    assert_ne!(h1, h3, "different fault plans must diverge");
}

/// The E15 campaign trace hash for `(sim seed 305, plan seed 7)`,
/// captured on the committed baseline. The real-runtime fault machinery
/// (cooperative kill, TCP impairment shim) must be bit-invisible to the
/// simulator: any drift in this hash means the sim path picked up a
/// behavioural change it must not have.
///
/// Re-captured when the name service moved to the VSR update log: the
/// replica-to-replica protocol (prepares, heartbeats, view changes)
/// changed the wire traffic, so the trace legitimately differs from the
/// election-era baseline. Re-captured again when view changes gained the
/// two-phase DoViewChange release (`view_change_go`) and prepares began
/// carrying the entry's original view beside the sender's. Re-captured
/// when the Connection Manager moved onto its own VSR group (replicated
/// allocate/release/expire ops replaced the primary/backup bind race).
/// Re-captured when service control followed: CSC placement/config ops
/// now ride an `ocs-vsr` group on the CSC port, so controller wire
/// traffic (prepares, heartbeats, master advertisement) changed.
/// Re-captured when the three replica drivers' broadcasts became
/// concurrent: prepares, heartbeats, view-change proposals and state
/// polls now leave for every peer at the same instant from one
/// ephemeral endpoint (one port per round instead of one per peer), and
/// a commit is acknowledged at the first majority ack — same frames,
/// different send times and source ports.
/// Re-captured when the MMS took its two name lookups from the node's
/// resolve cache: a warm `open` and a `close` no longer send
/// `list_repl("svc/mds")` and `resolve("svc/cmgr/<n>")`, the `status`
/// probes of an open leave together from one endpoint, and a stream's
/// process waits its tick out on a wait object `close` bumps instead of
/// sleeping — fewer frames, other send times, no other behaviour.
/// Re-captured when services began holding their names through
/// `ocs_name::advertise`: a keeper lists its parent context every period
/// and writes only when its name is gone, where each used to unbind and
/// re-bind a name it held every 5 s, and the per-server `auth` instances
/// stopped taking the single `svc/auth` from each other — the cluster's
/// name-service traffic is a fraction of what it was.
/// Re-captured when a replicated commit stopped parking a process:
/// prepares and forwarded ops leave from one long-lived peer endpoint
/// per replica instead of an ephemeral port per op, and the digest
/// hashes ports; and on the campaign's reordering links an op whose
/// prepare was buffered out of order is answered by the ack that commits
/// it, not when its own call to a silent peer times out, so a few client
/// calls come sooner.
/// Re-captured when every call a replica makes to its peers began to
/// leave from that one peer endpoint: heartbeat, view-change and
/// state-poll rounds no longer open an ephemeral port each, so later
/// ephemeral ports shift and the digest hashes ports; a straggler's
/// reply to a round that had heard enough is dropped at the port instead
/// of bouncing off a closed one.
/// Re-captured when a simulated process began to wait for all its call
/// replies on one endpoint of its own instead of opening an ephemeral
/// port per call: the reply ports, which the digest hashes, moved; no
/// send time did (with a port per call the digest is the one above).
/// Re-captured when view changes stopped carrying tables: a
/// `DoViewChange` and a `StartView` carry log entries only, a state
/// poll asks for no snapshot and the one snapshot a transfer needs is
/// fetched from one peer — smaller frames, so later send times move.
/// Re-captured when a name-service backup that may be stale began to
/// re-ask its primary for a client on its own node too, and on an empty
/// `list_repl` as on a `resolve` miss (with a `_here` method that never
/// forwards, instead of by the caller's node), and to apply through the
/// commit point the primary's answer carries: the campaign's servers
/// now send those forwards and catch up sooner, so later send times
/// move. With the forward switched off the digest is the one above.
const E15_BASELINE_TRACE_HASH: u64 = 9615327436134646523;

#[test]
fn e15_trace_hash_matches_committed_baseline() {
    assert_eq!(
        chaos_trace(305, 7),
        E15_BASELINE_TRACE_HASH,
        "sim-side E15 trace hash drifted from the committed baseline"
    );
}

#[test]
fn fast_path_preserves_chaos_trace_hash() {
    // Handoff elision and the indexed network state are pure wall-clock
    // optimizations: the full-cluster chaos campaign must replay the
    // exact same event trace whether or not the scheduler fast path is
    // enabled.
    let fast = chaos_trace_with(305, 7, true, false);
    let slow = chaos_trace_with(305, 7, false, false);
    assert_eq!(
        fast, slow,
        "scheduler fast path must not change virtual-time behaviour"
    );
}

#[test]
fn the_watch_adds_no_event() {
    // A watch reads state in place between the simulation's slices: reading
    // every promise at every period replays the unwatched trace.
    assert_eq!(
        chaos_trace_with(305, 7, true, true),
        chaos_trace(305, 7),
        "the watch must not change virtual-time behaviour"
    );
}
