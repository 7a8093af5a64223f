//! `sim_failover`: the replicated CM group of `sim_repl_storm` under
//! open-loop probes while its primary is killed and restarted, round
//! after round. The op of this workload is one fail-over; its latency
//! is the blackout — virtual time from the kill to the first admission
//! that commits afterwards.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_media::{CmBudgets, CmReplica, MediaError};
use ocs_sim::{Addr, LinkParams, NodeId, NodeRt, NodeRtExt, Rt, Sim, SimChan, SimNode, SimTime};
use parking_lot::Mutex;

use super::storm::sim_config;
use super::{
    cm_at, common_counts, merged_metrics, spans_dropped, tuned_cm_cfg, Delta, Round, SimCounters,
    Slices, Stopwatch,
};
use crate::trace::{SpanLog, SpanRec, NO_SPAN};
use crate::util::{Fnv, SplitMix64};

/// Primary kills per round: enough that p90 has its ten samples beyond.
pub const KILLS: usize = 120;
/// Open-loop probers, each spawning one probe every `PROBE_PERIOD`,
/// offset from each other by half a period.
pub const PROBERS: usize = 2;
pub const PROBE_PERIOD: Duration = Duration::from_millis(50);
/// A probe's per-attempt RPC timeout and its pause after a full sweep
/// of the three replicas failed.
const ATTEMPT_TIMEOUT: Duration = Duration::from_millis(200);
const SWEEP_PAUSE: Duration = Duration::from_millis(25);
/// The victim restarts this long after its kill; the next kill follows
/// the previous one by `KILL_GAP_MS` (seeded), once the group has
/// re-settled.
const RESTART_AFTER: Duration = Duration::from_millis(1500);
const KILL_GAP_MS: std::ops::Range<u64> = 2500..3500;
/// A fail-over slower than the paper's §9.7 bound counts as failed.
const PAPER_BOUND: Duration = Duration::from_secs(25);
const CM_PORT: u16 = 2000;
/// Virtual time per [`Window`](super::Window): about 0.6 ms of host time,
/// some 7,000 windows a round.
const SLICE: Duration = Duration::from_millis(50);
const PROBE_BPS: u64 = 100_000;
/// Every `STAY_EVERY`th probe keeps its allocation, so the end-of-round
/// audit compares non-empty tables. Not more of them: a restarted
/// replica is sent the whole table, so what stays is paid for again at
/// every kill.
const STAY_EVERY: u64 = 10;
const READ_EVERY: u64 = 5;

/// What one probe saw.
struct ProbeOut {
    /// When the attempt that committed was sent, and when its reply
    /// arrived.
    sent: SimTime,
    done: SimTime,
    /// `usage()` latency, on the probes that read.
    read_us: Option<u64>,
    stay: Option<u64>,
    gave_up: bool,
    spans: Vec<SpanRec>,
}

struct Group {
    sim: Sim,
    nodes: Vec<Arc<SimNode>>,
    peers: Vec<Addr>,
    replicas: Vec<Option<Arc<CmReplica>>>,
}

impl Group {
    fn start_replica(&mut self, i: usize) {
        let budgets = CmBudgets {
            settop_down_bps: u64::MAX / 4,
            server_egress_bps: u64::MAX / 4,
        };
        let rt: Rt = self.nodes[i].clone();
        self.replicas[i] = Some(
            CmReplica::start(rt, tuned_cm_cfg(i as u32, self.peers.clone(), budgets))
                .expect("cm replica starts"),
        );
    }

    fn live(&self) -> impl Iterator<Item = &Arc<CmReplica>> {
        self.replicas.iter().flatten()
    }

    fn primary(&self) -> Option<usize> {
        let mut masters = self
            .replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.as_ref().is_some_and(|r| r.is_master()));
        match (masters.next(), masters.next()) {
            (Some((i, _)), None) => Some(i),
            _ => None,
        }
    }

    /// One primary, every replica up and out of recovery probation.
    fn settled(&self) -> bool {
        self.primary().is_some()
            && self.replicas.iter().all(|r| r.is_some())
            && self.live().all(|r| !r.in_probation())
    }

    fn run_until_settled(&self, what: &str) {
        let deadline = self.sim.now() + Duration::from_secs(120);
        while !self.settled() {
            assert!(self.sim.now() < deadline, "cm group never settled {what}");
            self.sim.run_for(Duration::from_millis(20));
        }
    }

    fn max_view(&self) -> u64 {
        self.live().map(|r| r.view()).max().unwrap_or(0)
    }
}

/// With `timed` off the round ends where the timed phase would begin,
/// with nothing but its `setup_s`.
pub fn round(seed: u64, traced: bool, timed: bool) -> Round {
    let t_round = Instant::now();
    let sim = Sim::with_config(sim_config(seed));
    let nodes: Vec<Arc<SimNode>> = (0..3).map(|i| sim.add_node(&format!("cm{i}"))).collect();
    let peers: Vec<Addr> = nodes.iter().map(|n| Addr::new(n.node(), CM_PORT)).collect();
    let client = sim.add_node("probers");
    // The probers' access links: the default 500 µs plus up to 7 µs of
    // seeded jitter per replica, so no two seeds read alike.
    let mut g = SplitMix64::lane(seed, 0x21);
    for n in &nodes {
        let access = LinkParams::latency_only(Duration::from_micros(500 + g.below(8)));
        sim.set_link(client.node(), n.node(), access);
        sim.set_link(n.node(), client.node(), access);
    }
    let mut group = Group {
        sim,
        nodes,
        peers: peers.clone(),
        replicas: vec![None, None, None],
    };
    for i in 0..3 {
        group.start_replica(i);
    }
    group.run_until_settled("at start");
    let sim = group.sim.clone();

    // One warm-up admission (probe 1; the probers start at 2) proves
    // the path before the clock starts.
    let probers = Arc::new(Probers {
        peers: peers.clone(),
        hint: AtomicUsize::new(0),
        server: group.nodes[0].node(),
        traced,
    });
    {
        let probers = Arc::clone(&probers);
        let warm = super::on_node(&sim, &client, Duration::from_secs(60), move |rt| {
            probers.probe(&rt, 1)
        });
        assert!(!warm.gave_up, "warm-up admission failed");
    }

    let all_rts: Vec<Rt> = group
        .nodes
        .iter()
        .chain([&client])
        .map(|n| n.clone() as Rt)
        .collect();
    let client_rts = [client.clone() as Rt];
    let server_rts: Vec<Rt> = group.nodes.iter().map(|n| n.clone() as Rt).collect();
    let clients_before = merged_metrics(&client_rts);
    let servers_before = merged_metrics(&server_rts);
    let view_before = group.max_view();
    let counters_before = SimCounters::take(&sim);

    // ---- timed phase -----------------------------------------------------
    let setup_s = t_round.elapsed().as_secs_f64();
    if !timed {
        return Round {
            setup_s,
            ..Round::default()
        };
    }
    let t_start = sim.now();
    let mut watch = Stopwatch::start();
    let mut slices = Slices::start(&sim, SLICE);
    let out: SimChan<ProbeOut> = SimChan::new(&sim);
    let stop = Arc::new(AtomicBool::new(false));
    let spawned = Arc::new(Mutex::new(0u64));
    for p in 0..PROBERS {
        let rt: Rt = client.clone();
        let (probers, out, stop, spawned) = (
            Arc::clone(&probers),
            out.clone(),
            Arc::clone(&stop),
            Arc::clone(&spawned),
        );
        client.spawn_fn("prober", move || {
            // Stagger the probers by half a period.
            rt.sleep(PROBE_PERIOD * p as u32 / PROBERS as u32);
            let mut k = 0u64;
            while !stop.load(Ordering::Relaxed) {
                k += 1;
                let seq = k * PROBERS as u64 + p as u64;
                *spawned.lock() += 1;
                let (rt2, probers, out) = (rt.clone(), Arc::clone(&probers), out.clone());
                // Each probe is its own process: a stalled one never
                // delays the next one's due time (open loop).
                rt.spawn_fn("probe", move || out.send(probers.probe(&rt2, seq)));
                rt.sleep(PROBE_PERIOD);
            }
        });
    }

    let mut g = SplitMix64::lane(seed, 0x22);
    let mut kills: Vec<SimTime> = Vec::with_capacity(KILLS);
    let mut probes: Vec<ProbeOut> = Vec::new();
    let mut next_kill = sim.now() + Duration::from_millis(g.below(1000) + 500);
    for _ in 0..KILLS {
        slices.run_until(next_kill);
        group.run_until_settled("before a kill");
        let victim = group.primary().expect("settled group has a primary");
        let t_kill = sim.now();
        sim.crash_node(group.nodes[victim].node());
        group.replicas[victim] = None;
        kills.push(t_kill);
        slices.run_until(t_kill + RESTART_AFTER);
        sim.restart_node(group.nodes[victim].node());
        group.start_replica(victim);
        next_kill = t_kill
            + Duration::from_millis(
                KILL_GAP_MS.start + g.below(KILL_GAP_MS.end - KILL_GAP_MS.start),
            );
        while let Some(p) = out.try_recv() {
            probes.push(p);
        }
    }
    slices.run_until(next_kill);
    group.run_until_settled("after the last kill");
    stop.store(true, Ordering::Relaxed);
    let t_end = sim.now();
    // Drain: every spawned probe must report.
    let deadline = t_end + Duration::from_secs(120);
    loop {
        while let Some(p) = out.try_recv() {
            probes.push(p);
        }
        if probes.len() as u64 >= *spawned.lock() && sim.now() > t_end + PROBE_PERIOD {
            break;
        }
        assert!(sim.now() < deadline, "probes never drained");
        slices.run_for(Duration::from_millis(50));
    }
    let (host_s, cpu_s) = watch.lap();
    // ----------------------------------------------------------------------

    let counters_after = SimCounters::take(&sim);
    let clients_after = merged_metrics(&client_rts);
    let servers_after = merged_metrics(&server_rts);

    let mut r = Round {
        setup_s,
        clock_s: t_end.saturating_since(t_start).as_secs_f64(),
        host_s,
        cpu_s,
        attempted: KILLS as u64,
        ..Round::default()
    };
    // Blackout of a kill: from the kill to the first reply to an
    // admission that was sent after it.
    probes.sort_by_key(|p| (p.done, p.sent));
    let mut fp = Fnv::new();
    for t_kill in &kills {
        let first = probes
            .iter()
            .filter(|p| !p.gave_up && p.sent >= *t_kill)
            .map(|p| p.done)
            .min();
        match first.map(|t| t.saturating_since(*t_kill)) {
            Some(b) if b <= PAPER_BOUND => {
                r.op_us.push(b.as_micros() as f64);
                fp.word(b.as_micros() as u64);
            }
            _ => r.failed += 1,
        }
    }
    let mut stays: Vec<u64> = Vec::new();
    let mut gave_up = 0u64;
    for p in &mut probes {
        fp.word(p.done.as_micros());
        if let Some(us) = p.read_us {
            r.read_us.push(us as f64);
        }
        stays.extend(p.stay);
        gave_up += u64::from(p.gave_up);
        crate::trace::append(&mut r.spans, std::mem::take(&mut p.spans));
    }
    fp.word(sim.trace_hash());
    r.fingerprint = Some(fp.0);

    let ops = KILLS as f64;
    r.windows = slices.finish(ops);
    counters_before.report(&counters_after, ops, &mut r);
    let layer = &mut r.layer;
    common_counts(
        layer,
        &Delta {
            before: &clients_before,
            after: &clients_after,
        },
        &Delta {
            before: &servers_before,
            after: &servers_after,
        },
        ops,
    );
    layer.insert(
        "ocs-vsr.view_changes",
        (group.max_view() - view_before) as f64,
    );
    layer.insert(
        "ocs-telemetry.spans_dropped",
        spans_dropped(&all_rts) as f64,
    );
    layer.insert("bench.failover_probes", probes.len() as f64);

    // ---- correctness -------------------------------------------------------
    sim.run_for(Duration::from_secs(2));
    r.check(gave_up == 0, || format!("{gave_up} probes gave up"));
    stays.sort_unstable();
    for (i, rep) in group.replicas.iter().enumerate() {
        let rep = rep.as_ref().expect("group healed");
        let mut have: Vec<u64> = rep.allocations().iter().map(|d| d.conn).collect();
        have.sort_unstable();
        let lost = stays
            .iter()
            .filter(|c| have.binary_search(c).is_err())
            .count();
        let doubled = have
            .iter()
            .filter(|c| stays.binary_search(c).is_err())
            .count();
        r.check(lost == 0 && doubled == 0, || {
            format!("replica {i}: {lost} lost and {doubled} doubled tokened allocations")
        });
        let (indexed, scanned) = rep.audit_reserved_bps();
        r.check(indexed == scanned, || {
            format!("replica {i} reserved-bps index {indexed} != scan {scanned}")
        });
    }
    r
}

/// What every probe of a round shares.
struct Probers {
    peers: Vec<Addr>,
    /// The replica that answered last: where the next probe starts.
    hint: AtomicUsize,
    server: NodeId,
    traced: bool,
}

impl Probers {
    /// Probe number `seq` (also its retry token, never 0): one tokened
    /// allocate (+ release unless it stays) against whichever replica
    /// answers — start at the replica that answered last, sweep the group
    /// on failure, pause, repeat: the MMS retry loop in miniature.
    fn probe(&self, rt: &Rt, seq: u64) -> ProbeOut {
        let Probers {
            peers,
            hint,
            server,
            traced,
        } = self;
        let (token, server, traced) = (seq, *server, *traced);
        let settop = NodeId(9_000 + (seq % 8) as u32);
        let stay = seq.is_multiple_of(STAY_EVERY);
        let read = seq.is_multiple_of(READ_EVERY);
        let log = SpanLog::new(rt.clone(), traced);
        let mut out = ProbeOut {
            sent: rt.now(),
            done: rt.now(),
            read_us: None,
            stay: None,
            gave_up: false,
            spans: Vec::new(),
        };
        // Sweeps until `call` gets an answer; `None` after the paper's bound.
        let sweep = |call: &dyn Fn(usize) -> Option<u64>| -> Option<(SimTime, u64)> {
            let deadline = rt.now() + PAPER_BOUND * 2;
            while rt.now() < deadline {
                let first = hint.load(Ordering::Relaxed);
                for k in 0..peers.len() {
                    let i = (first + k) % peers.len();
                    let sent = rt.now();
                    if let Some(v) = call(i) {
                        hint.store(i, Ordering::Relaxed);
                        return Some((sent, v));
                    }
                }
                rt.sleep(SWEEP_PAUSE);
            }
            None
        };
        let root = log.begin("probe", token, NO_SPAN);
        let allocated = sweep(&|i| {
            log.span("itv-media.cm_allocate", token, root, |_| {
                cm_at(rt, peers[i], ATTEMPT_TIMEOUT)
                    .allocate(token, settop, server, PROBE_BPS)
                    .ok()
            })
        });
        let Some((sent, conn)) = allocated else {
            out.gave_up = true;
            return out;
        };
        out.sent = sent;
        out.done = rt.now();
        if read {
            let t0 = rt.now();
            let i = hint.load(Ordering::Relaxed);
            let got = log.span("itv-media.cm_usage", token, root, |_| {
                cm_at(rt, peers[i], ATTEMPT_TIMEOUT).usage()
            });
            if got.is_ok() {
                out.read_us = Some(rt.now().saturating_since(t0).as_micros() as u64);
            }
        }
        if stay {
            out.stay = Some(conn);
        } else {
            let released = sweep(&|i| {
                log.span("itv-media.cm_release", token, root, |_| {
                    match cm_at(rt, peers[i], ATTEMPT_TIMEOUT).release(conn) {
                        // An earlier attempt committed and its reply was
                        // lost: the conn being gone is the commit.
                        Ok(()) | Err(MediaError::UnknownSession { .. }) => Some(0),
                        Err(_) => None,
                    }
                })
            });
            out.gave_up = released.is_none();
        }
        log.end(root);
        log.drain_into(&mut out.spans);
        out
    }
}
