//! The five workloads. Each is a function from `(seed, traced)` to one
//! [`Round`] — a fixed amount of work: build a fresh cluster (timed as
//! set-up), drive the timed phase, check the outputs, tear the cluster
//! down. `main` runs rounds until `--seconds` have passed; the report
//! reads the wall-clock metrics off the quietest [`Window`]s of them all.

pub mod failover;
pub mod storm;
pub mod tcp;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use itv_media::{CmApiClient, CmBudgets, CmReplicaConfig};
use ocs_orb::{ClientCtx, ObjRef};
use ocs_sim::{Addr, Rt, Sim, SimNode, SimTime};
use ocs_telemetry::{MetricsSnapshot, NodeTelemetry};
use parking_lot::Mutex;

use crate::trace::SpanRec;
use crate::util::cpu_seconds;

/// A short stretch of a round's timed phase and what it cost the host.
/// The shared host disturbs a run in bursts that only ever add time, so
/// the report reads the wall-clock metrics off the windows it disturbed
/// least (README, "Rounds, windows").
#[derive(Default)]
pub struct Window {
    /// Completed ops (on `sim_*`: the window's share of the round's ops,
    /// by kernel events).
    pub ops: f64,
    pub host_s: f64,
    pub cpu_s: f64,
    /// `tcp_*` only — on `sim_*` latency is virtual time and the same in
    /// every window of every round.
    pub op_us: Vec<f64>,
    pub read_us: Vec<f64>,
    /// Wall-clock µs of the calls into single layers that the load
    /// generator timed, by per-layer metric name.
    pub layer_us: BTreeMap<&'static str, Vec<f64>>,
}

/// Host and CPU time, lap by lap.
pub struct Stopwatch {
    host: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            host: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Host and CPU seconds since the last lap (or the start).
    pub fn lap(&mut self) -> (f64, f64) {
        let now = Stopwatch::start();
        let lap = (
            now.host.duration_since(self.host).as_secs_f64(),
            now.cpu - self.cpu,
        );
        *self = now;
        lap
    }
}

/// Drives a simulation through its timed phase and cuts it into windows
/// of at least `step` of virtual time each. How the driver thread slices
/// its `run_until` calls has no effect on the schedule.
pub struct Slices {
    sim: Sim,
    step: Duration,
    watch: Stopwatch,
    opened: SimTime,
    events: u64,
    windows: Vec<Window>,
}

impl Slices {
    pub fn start(sim: &Sim, step: Duration) -> Slices {
        Slices {
            sim: sim.clone(),
            step,
            watch: Stopwatch::start(),
            opened: sim.now(),
            events: sim.kernel_stats().events,
            windows: Vec::new(),
        }
    }

    pub fn run_until(&mut self, t: SimTime) {
        while self.sim.now() < t {
            self.sim.run_until(t.min(self.opened + self.step));
            if self.sim.now() >= self.opened + self.step {
                self.cut();
            }
        }
    }

    pub fn run_for(&mut self, d: Duration) {
        self.run_until(self.sim.now() + d);
    }

    fn cut(&mut self) {
        let events = self.sim.kernel_stats().events;
        let (host_s, cpu_s) = self.watch.lap();
        self.windows.push(Window {
            ops: (events - self.events) as f64,
            host_s,
            cpu_s,
            ..Window::default()
        });
        self.events = events;
        self.opened = self.sim.now();
    }

    /// Closes the last window and shares the round's `ops` out over the
    /// windows in proportion to the kernel events each one handled.
    pub fn finish(mut self, ops: f64) -> Vec<Window> {
        self.cut();
        let events: f64 = self.windows.iter().map(|w| w.ops).sum();
        for w in &mut self.windows {
            w.ops *= ops / events.max(1.0);
        }
        self.windows
    }
}

/// What one round measured.
#[derive(Default)]
pub struct Round {
    /// Round start → first timed op.
    pub setup_s: f64,
    /// Latency of every completed op, µs on the runtime's own clock.
    pub op_us: Vec<f64>,
    /// Latency of every completed read, likewise.
    pub read_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Length of the timed phase on the runtime's own clock.
    pub clock_s: f64,
    /// Length and process CPU cost of the timed phase on the host.
    pub host_s: f64,
    pub cpu_s: f64,
    /// The timed phase again, cut into windows.
    pub windows: Vec<Window>,
    /// `sim_*` only: a hash over every virtual-time output and the
    /// kernel's event trace. Same seed ⇒ same fingerprint.
    pub fingerprint: Option<u64>,
    /// Per-layer metrics of this round that are counts or virtual time
    /// (the report takes the median over rounds).
    pub layer: BTreeMap<&'static str, f64>,
    pub spans: Vec<SpanRec>,
    /// A failed correctness check (fails the run, not a metric).
    pub violations: Vec<String>,
}

impl Round {
    /// Ends a window of a wall-clock round's timed phase, `lap` after the
    /// one before: adds it to the round's totals and starts the next.
    pub fn close(&mut self, window: &mut Window, lap: (f64, f64)) {
        let mut w = std::mem::take(window);
        w.ops = w.op_us.len() as f64;
        w.host_s += lap.0;
        w.cpu_s += lap.1;
        self.op_us.extend(&w.op_us);
        self.read_us.extend(&w.read_us);
        self.host_s += w.host_s;
        self.cpu_s += w.cpu_s;
        self.clock_s = self.host_s;
        self.windows.push(w);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

pub fn run_round(workload: &str, seed: u64, traced: bool) -> Option<Round> {
    Some(match workload {
        "sim_storm" => storm::round(seed, false, traced, true),
        "sim_repl_storm" => storm::round(seed, true, traced, true),
        "sim_failover" => failover::round(seed, traced, true),
        "tcp_repl_admit" => tcp::repl_admit_round(seed, traced),
        "tcp_movie_open" => tcp::movie_open_round(seed, traced),
        _ => return None,
    })
}

/// Set-ups of a `sim_*` workload before each round, on top of the
/// round's own. One takes 1–5 ms and a run has as few as three rounds,
/// too few for a steady median; a `tcp_*` run has ten and more rounds of
/// 45–230 ms set-ups.
const EXTRA_SETUPS: usize = 10;

/// `setup_s` of [`EXTRA_SETUPS`] set-ups that no timed phase follows.
pub fn extra_setups(workload: &str, seed: u64) -> Vec<f64> {
    let setup: fn(u64) -> Round = match workload {
        "sim_storm" => |seed| storm::round(seed, false, false, false),
        "sim_repl_storm" => |seed| storm::round(seed, true, false, false),
        "sim_failover" => |seed| failover::round(seed, false, false),
        _ => return Vec::new(),
    };
    (0..EXTRA_SETUPS).map(|_| setup(seed).setup_s).collect()
}

/// Per-stream rate: 3 Mb/s fits two concurrent streams in the trial's
/// 6 Mb/s settop budget (channel change + movie open never collide).
pub const STREAM_BPS: u64 = 3_000_000;

/// Admission budgets of the steady workloads: the trial's 6 Mb/s per
/// settop, head-end trunk capacity unconstrained — they measure what an
/// admission costs, not blocking, so no op may be refused.
pub fn budgets() -> CmBudgets {
    CmBudgets {
        settop_down_bps: 6_000_000,
        server_egress_bps: u64::MAX / 4,
    }
}

/// The replicated-CM group configuration every replicated workload
/// uses: 200 ms heartbeat / 600 ms election, lease expiry off so the
/// end-of-round audit is exact.
pub fn tuned_cm_cfg(i: u32, peers: Vec<Addr>, budgets: CmBudgets) -> CmReplicaConfig {
    let mut cfg = CmReplicaConfig::paper_defaults(i, peers, budgets);
    cfg.lease_ttl = None;
    cfg.heartbeat_interval = Duration::from_millis(200);
    cfg.election_timeout = Duration::from_millis(600);
    cfg.peer_timeout = Duration::from_millis(150);
    cfg
}

/// A `CmApi` stub bound straight to a replica's stable root reference.
pub fn cm_at(rt: &Rt, peer: Addr, timeout: Duration) -> CmApiClient {
    let target = ObjRef {
        addr: peer,
        incarnation: ObjRef::STABLE,
        type_id: CmApiClient::TYPE_ID,
        object_id: 0,
    };
    CmApiClient::attach(ClientCtx::new(rt.clone()).with_timeout(timeout), target)
        .expect("reference carries the CmApi type id")
}

/// Runs `f` as a process on `node` and steps virtual time until it
/// returns (at most `limit` virtual seconds).
pub fn on_node<T: Send + 'static>(
    sim: &Sim,
    node: &Arc<SimNode>,
    limit: Duration,
    f: impl FnOnce(Rt) -> T + Send + 'static,
) -> T {
    use ocs_sim::NodeRtExt;
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);
    let rt: Rt = node.clone();
    node.spawn_fn("bench-call", move || {
        let r = f(rt);
        *out.lock() = Some(r);
    });
    let deadline = sim.now() + limit;
    while sim.now() < deadline && slot.lock().is_none() {
        sim.run_for(Duration::from_millis(20));
    }
    let got = slot.lock().take();
    got.expect("simulated call finished within its limit")
}

/// The simulator's public counters (and this binary's allocation
/// count) at one instant; two of them bracket a timed phase.
pub struct SimCounters {
    kernel: ocs_sim::KernelStats,
    net: ocs_sim::NetStats,
    allocs: u64,
}

impl SimCounters {
    pub fn take(sim: &Sim) -> SimCounters {
        SimCounters {
            kernel: sim.kernel_stats(),
            net: sim.net_stats(),
            allocs: crate::alloc::allocations(),
        }
    }

    /// The `ocs-sim.*` count metrics (and `ocs-wire.bytes_per_op`) of
    /// the phase from `self` to `after`, which completed `ops` ops.
    pub fn report(&self, after: &SimCounters, ops: f64, r: &mut Round) {
        let events = (after.kernel.events - self.kernel.events) as f64;
        let switches = (after.kernel.driver_resumes + after.kernel.direct_handoffs
            - self.kernel.driver_resumes
            - self.kernel.direct_handoffs) as f64;
        let layer = &mut r.layer;
        layer.insert("ocs-sim.events_per_op", events / ops);
        layer.insert("ocs-sim.switches_per_event", switches / events);
        layer.insert(
            "ocs-sim.msgs_per_op",
            (after.net.msgs_sent - self.net.msgs_sent) as f64 / ops,
        );
        layer.insert(
            "ocs-sim.allocs_per_event",
            (after.allocs - self.allocs) as f64 / events,
        );
        layer.insert(
            "ocs-wire.bytes_per_op",
            (after.net.bytes_sent - self.net.bytes_sent) as f64 / ops,
        );
    }
}

/// Sum of the telemetry registries of `nodes`.
pub fn merged_metrics<'a>(nodes: impl IntoIterator<Item = &'a Rt>) -> MetricsSnapshot {
    let mut all = MetricsSnapshot::default();
    for n in nodes {
        all.merge(&NodeTelemetry::of(&**n).registry.snapshot());
    }
    all
}

/// Spans the per-node tracers dropped (ring overflow) across `nodes`.
pub fn spans_dropped<'a>(nodes: impl IntoIterator<Item = &'a Rt>) -> u64 {
    nodes
        .into_iter()
        .map(|n| NodeTelemetry::of(&**n).tracer.dropped())
        .sum()
}

/// Counter deltas between two snapshots of the same registries.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    pub fn count(&self, name: &str) -> f64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name)) as f64
    }
}

/// The ORB- and name-layer count metrics every workload reports, from
/// the load generators' (`clients`) and the servers' registries.
pub fn common_counts(
    layer: &mut BTreeMap<&'static str, f64>,
    clients: &Delta<'_>,
    servers: &Delta<'_>,
    ops: f64,
) {
    let both = |name: &str| clients.count(name) + servers.count(name);
    layer.insert("ocs-orb.calls_per_op", both("orb.client.calls") / ops);
    layer.insert("ocs-orb.retries_per_op", both("orb.rebind.retries") / ops);
    layer.insert(
        "ocs-orb.sheds_per_op",
        (both("orb.server.deadline_shed") + both("orb.rebind.breaker_shed")) / ops,
    );
    layer.insert("ocs-orb.breaker_opens", both("orb.breaker.opened"));
    let hits = clients.count("ns.cache.hits");
    let misses = clients.count("ns.cache.misses");
    // A proxy that still holds its own stub never consults the shared
    // cache at all; hits and misses count only the proxies that did.
    layer.insert(
        "ocs-name.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    layer.insert(
        "ocs-name.lookups_per_op",
        clients.count("ns.client.lookups") / ops,
    );
}
