//! `experiments check`: the tier-1 bench guards as one table.
//!
//! Each [`Guard`] names a run, one field of the report that run writes,
//! and what must hold of it. [`run`] executes every distinct run once —
//! an experiment by re-executing this binary in a temp dir, a
//! repo-benchmark workload by starting `benchmark/`'s binary — and
//! `evaluate`s the rows against the fresh reports and the committed
//! `BENCH_e*.json`. A new guard is one line in [`GUARDS`].

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::Json;
use Cmp::*;

/// What produces the report a guard reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Run {
    /// An experiment and its arguments, as on `experiments`' command
    /// line. The report is the `BENCH_<exp>.json` it writes; the
    /// committed one of the same name sits at the repo root.
    Exp(&'static str),
    /// A repo-benchmark workload and its `run` options. `benchmark/` is
    /// a workspace of its own, so its binary runs as a child (build it
    /// first: `scripts/tier1.sh` does). The report is the line it
    /// appends to `--out`; there is no committed counterpart.
    Workload(&'static str),
}

/// What must hold of the field. `fresh` is the value in the run's
/// report, `committed` the one in the committed artifact.
#[derive(Clone, Copy, Debug)]
pub enum Cmp {
    /// fresh < n
    Lt(f64),
    /// fresh <= n
    Le(f64),
    /// fresh >= n
    Ge(f64),
    /// fresh == n
    Eq(f64),
    /// fresh is `true`
    IsTrue,
    /// fresh == committed
    EqCommitted,
    /// fresh >= k × committed
    GeTimesCommitted(f64),
    /// committed < n: the claim the committed full run carries (its
    /// real-TCP legs are not re-run here).
    CommittedLt(f64),
}

/// One tier-1 guard.
pub struct Guard {
    pub run: Run,
    /// A top-level key of the report; `a/b` is key `b` of the top-level
    /// object `a` (the benchmark nests its metrics one level down).
    pub field: &'static str,
    pub cmp: Cmp,
    /// Skip on a host with fewer cores than this.
    pub min_cores: usize,
}

const fn g(run: Run, field: &'static str, cmp: Cmp) -> Guard {
    Guard {
        run,
        field,
        cmp,
        min_cores: 1,
    }
}

const E1: Run = Run::Exp("e1");
const E2: Run = Run::Exp("e2");
const E3: Run = Run::Exp("e3");
const E4: Run = Run::Exp("e4");
const E5: Run = Run::Exp("e5");
const E6: Run = Run::Exp("e6");
const E7: Run = Run::Exp("e7");
const E8: Run = Run::Exp("e8");
const E9: Run = Run::Exp("e9");
const E10: Run = Run::Exp("e10");
const E11: Run = Run::Exp("e11");
const E12: Run = Run::Exp("e12");
const E17_4K: Run = Run::Exp("e17 --settops 4000");
const E17_2SHARD: Run = Run::Exp("e17 --settops 4000 --shards 2");
const E13: Run = Run::Exp("e13");
const E14: Run = Run::Exp("e14");
const E15: Run = Run::Exp("e15");
const E16: Run = Run::Exp("e16");
const E18: Run = Run::Exp("e18 --settops 800");
const E19: Run = Run::Exp("e19");
const E20: Run = Run::Exp("e20 --sim-only");
const E21: Run = Run::Exp("e21 --sim-only");
const E22: Run = Run::Exp("e22");
const E23: Run = Run::Exp("e23 --sim-only");
const STORM: Run = Run::Workload("sim_storm --seconds 2 --trace 1");
const REPL_STORM: Run = Run::Workload("sim_repl_storm --seconds 2 --trace 0");
const FAILOVER: Run = Run::Workload("sim_failover --seconds 2 --trace 0");
const TCP_ADMIT: Run = Run::Workload("tcp_repl_admit --seconds 2 --trace 1");
const TCP_OPEN: Run = Run::Workload("tcp_movie_open --seconds 2 --trace 1");

/// Every tier-1 bench guard. Each run also has to pass its own built-in
/// asserts (determinism, O(1) admission, trace equivalence): a run that
/// exits non-zero fails all its rows.
#[rustfmt::skip] // one guard, one line
pub const GUARDS: &[Guard] = &[
    // The paper's verdicts whose runs commit through the CM, NS and SSC
    // groups on the full cluster, virtual time, exact for their seeds,
    // each read by the promise watch: MMS fail-over inside §9.7's 25 s
    // (22.0 s worst of six), a crashed settop's allocation, stream and
    // session gone within 25 s at every MMS poll interval (7 s: the
    // stream's orphan reclamation, not the poll chain), and a rolling
    // upgrade no client sees (0 errors, counted where the shop app fails).
    g(E1, "failover_seconds/max", Lt(25.0)),
    g(E13, "max_reclaim_s", Lt(25.0)),
    g(E13, "unreclaimed", Eq(0.0)),
    g(E14, "client_errors", Eq(0.0)),
    // §7 under fault storms: every one of the 12 seeded campaigns has
    // each settop streaming again, for good, within 25 s of its heal
    // point (22.7 s worst) — because the settop tunes in again after a
    // give-up, not because the harness re-tunes it. Adds ≈ 0.9 s.
    g(E15, "converged", Ge(12.0)),
    g(E15, "max_recovery_s", Lt(25.0)),
    // One causal tree per movie open, virtual time, exact for the seed:
    // the cold and the warm tree, rendered from the spans every node
    // recorded, exactly as committed — each call one `client:` and one
    // `server:<interface>.<method>` span, at the same offsets. Adds under
    // 0.1 s.
    g(E16, "slowest_movie_open_tree", EqCommitted),
    g(E16, "warm_movie_open_tree", EqCommitted),
    // The same, virtual time, on groups and services of their own: an NS
    // master re-elected inside §9.7's 25 s at 3, 5 and 7 replicas (9.1 s
    // worst), a restarted RAS that knows every entity again within one
    // 10 s asking period, and pings that false-kill a busy single-threaded
    // service (none idle, some at 60 and 90 % busy) where its process
    // group's liveness, the SSC's signal, never does.
    g(E9, "reelect_max_s", Lt(25.0)),
    g(E11, "relearned_all_s", Le(10.0)),
    g(E12, "ping_false_deads_idle", Eq(0.0)),
    g(E12, "ping_false_deads_busy", Ge(1.0)),
    g(E12, "callback_false_deads", Eq(0.0)),
    // A settop's own view, virtual time, exact for the seeds: the cover
    // of a channel change is up within §9.3's 0.5 s at every application
    // size, and an MDS crash mid-movie costs the viewer "a very brief
    // interruption" (§3.5.2) — 2.5 s, the stall-detection threshold.
    g(E7, "cover_max_s", Le(0.5)),
    g(E8, "interruption_seconds/max", Lt(3.0)),
    // An idle cluster's name-service log carries what changed — load
    // reports, the backups' bind retries: 36 a minute per replica at the
    // deployed intervals, a virtual-time count, exact for the seed on
    // any host. Services re-binding names they already hold read 228.
    g(E2, "idle_ns_updates_per_min", Lt(60.0)),
    // §7.1's recovery designs cost what their closed forms say, virtual
    // time, exact for the seed: S × N / P renewals a second for short
    // leases, twice that for per-service pings, 2 × N / P for the RAS
    // whatever S is (200 clients, P = 5 s; all three read 0 error). Adds
    // 0.2 s.
    g(E3, "lease_msgs_rel_err", Le(0.01)),
    g(E3, "ping_msgs_rel_err", Le(0.01)),
    g(E3, "ras_msgs_rel_err", Le(0.01)),
    // §9.6's linear capacity: shop interactions per server flat within
    // 2 % from one server to four (96.2 to 96.3 a second: 0.0003).
    // Adds 1.4 s.
    g(E4, "per_server_spread", Le(0.02)),
    // §4.6: resolves scale with name-service replicas and updates, which
    // the master serialises, do not. Every row resolves at least 0.95 ×
    // replicas × the one-replica rate (1.00 at 1, 2, 3 and 5), and the
    // update rate of the replicated rows spreads at most 5 % (1,923 a
    // second at 2, 3 and 5; one replica commits with no peer, 50,000).
    // Virtual time, exact for the seeds. Adds 13.5 s on a 2-vCPU host.
    g(E5, "resolve_scaling_min", Ge(0.95)),
    g(E5, "update_spread", Le(0.05)),
    // §8.2's recovery storm is "not a problem": when a popular service
    // dies and every client returns to the name service at once, the
    // worst outage stays within a second of the 2 s restart (2.93 s),
    // and four times the clients move the median outage by at most
    // 0.1 s at either jitter setting (0.05 s). Virtual time, exact for
    // the seeds.
    g(E6, "outage_max_s", Lt(3.0)),
    g(E6, "outage_p50_growth_s", Le(0.1)),
    // §3.1's admission control is a finite-source loss system: at each
    // load the blocked count after a 300 s warm-up lies in the central
    // 99 % binomial interval of the Engset call congestion (N − 1
    // sources, hold/think 90/60, 50 streams): 0, 0, 0 and 107 of 865
    // against 0.00, 0.00, 0.00 and 10.19 %. Adds under 0.1 s.
    g(E10, "blocked_in_engset_99/40", IsTrue),
    g(E10, "blocked_in_engset_99/50", IsTrue),
    g(E10, "blocked_in_engset_99/60", IsTrue),
    g(E10, "blocked_in_engset_99/80", IsTrue),
    // Saturation: virtual ops/sec is deterministic for a settop count
    // and scale-invariant by design (E17's point), so the 4k smoke may
    // not fall more than 20% below the committed 50k run, on any host.
    g(E17_4K, "ops_per_sec", GeTimesCommitted(0.8)),
    // Sharded kernel: the same storm on two shards replays the 1-shard
    // trace, and really took the sharded path.
    g(E17_2SHARD, "shard_trace_equivalent", IsTrue),
    g(E17_2SHARD, "horizon_syncs", Ge(1.0)),
    g(E17_2SHARD, "xshard_msgs", Ge(1.0)),
    // Kernel fast path: fast/slow trace equivalence on all legs, and the
    // ping-pong leg's virtual-time-derived fields exactly as committed
    // (it does not scale with --settops). Wall-clock events/sec and the
    // fast/slow speed-up are informational.
    g(E18, "trace_equivalent", IsTrue),
    g(E18, "deterministic_rerun", IsTrue),
    g(E18, "pp_events", EqCommitted),
    g(E18, "pp_events_per_virtual_ms", EqCommitted),
    g(E18, "pp_allocs_per_event_fast", EqCommitted),
    // The always-on flight recorder costs at most 5% of ping-pong wall
    // throughput at one write per volley (same-run fresh-vs-fresh).
    g(E18, "pp_journal_overhead_pct", Le(5.0)),
    // The 4-shard replay matches the 1-shard trace on any host; its
    // wall-clock speed-up only means something with cores under the
    // shard threads.
    g(E18, "shard_trace_equivalent", IsTrue),
    Guard { min_cores: 4, ..g(E18, "shard_speedup", Ge(2.0)) },
    // A cooperative kill on TCP, wall clock: all 40 victim groups (one
    // member parked in a receive, a child in an hour's sleep) die, and
    // the slowest kill() -> last member task gone stays under 50 ms, far
    // inside every recovery bound the suite measures (E20's tuned view
    // change is ~800 ms). Nineteen fresh runs on a shared 2-vCPU host
    // read 0.26–14.8 ms, the worst a scheduling stall (the thread-based
    // runtime before it read 0.30–9.3 ms in eight): a margin of 3.4x
    // over the worst. Adds ≈ 0.1 s.
    g(E19, "kills", Eq(40.0)),
    g(E19, "kill_latency_p99_us", Lt(50_000.0)),
    // NS view change under primary kills: sub-2 s p99 with the deployed
    // tuning (paper bound 25 s) — fresh in the simulator, and in the
    // committed full run on the simulator and on real TCP.
    g(E20, "sim_view_change_p99_s", Lt(2.0)),
    g(E20, "sim_view_change_p99_s", CommittedLt(2.0)),
    g(E20, "real_view_change_p99_s", CommittedLt(2.0)),
    // Availability under the standard storm (8 primary kills + 3 primary
    // partitions): reads at three nines, every update blackout under 2 s.
    g(E21, "sim_availability", Ge(0.999)),
    g(E21, "sim_p99_blackout_s", Lt(2.0)),
    g(E21, "sim_p99_blackout_s", CommittedLt(2.0)),
    g(E21, "real_p99_blackout_s", CommittedLt(2.0)),
    // CM fail-over: no committed allocation lost, no retried one
    // double-booked, every replica's audit consistent; blackout p99
    // inside the paper's 25 s with paper timeouts, under 2 s tuned.
    g(E22, "lost_allocs", Eq(0.0)),
    g(E22, "doubled_allocs", Eq(0.0)),
    g(E22, "audit_consistent", IsTrue),
    g(E22, "repl_paper_blackout_p99_s", Lt(25.0)),
    g(E22, "repl_blackout_p99_s", Lt(2.0)),
    g(E22, "repl_blackout_p99_s", CommittedLt(2.0)),
    // Controller fail-over: the same for placements (a doubled one is a
    // tokened retry or idempotent re-place that re-decided).
    g(E23, "lost_placements", Eq(0.0)),
    g(E23, "doubled_placements", Eq(0.0)),
    g(E23, "audit_consistent", IsTrue),
    g(E23, "svc_paper_blackout_p99_s", Lt(25.0)),
    g(E23, "svc_blackout_p99_s", Lt(2.0)),
    g(E23, "svc_blackout_p99_s", CommittedLt(2.0)),
    g(E23, "svc_real_blackout_p99_s", CommittedLt(2.0)),
    // Replicated commit (16 closed-loop clients through one 3-replica CM
    // group), virtual time, exact for a seed: p50 is one client round
    // trip plus ONE replica round trip — 1,984 us; 2,984 with sequential
    // prepares — at 2.0153 replica-to-replica calls per commit and
    // 9.4459 messages per op. The ceilings trip on a driver that blocks
    // per peer, broadcasts twice or re-sends on the commit path.
    g(REPL_STORM, "failed", Eq(0.0)),
    g(REPL_STORM, "correct", IsTrue),
    g(REPL_STORM, "end_to_end/op_p50_us", Le(2200.0)),
    g(REPL_STORM, "per_layer/ocs-vsr.peer_calls_per_commit", Le(2.05)),
    g(REPL_STORM, "per_layer/ocs-sim.msgs_per_op", Le(9.5)),
    // A commit parks no thread: the client's request, the backups'
    // `prepare`s and the acks run where they land, as their node, and
    // the ack that commits an op sends its reply. 0.1901 switches per
    // event, 1.81 per op (0.455 and 5.0 with a process per commit that
    // the first ack woke; 1.158 per event with a serving process and a
    // worker per request), 9.496 events per op (10.994 with that process
    // per commit; 12.4 when an inline handler's wake-ups are deferred as
    // though they came from another node).
    g(REPL_STORM, "per_layer/ocs-sim.switches_per_event", Le(0.21)),
    g(REPL_STORM, "per_layer/ocs-sim.events_per_op", Le(9.6)),
    // An encode writes into a pooled buffer and a frame costs one copy;
    // a call waits on its process's one reply endpoint, and its spans'
    // names are static strings; the admission table keeps a hashed record
    // per allocation and per settop, the log's result window is a ring,
    // and a lease's journal line is a template and numbers: 3.335
    // allocator calls per event, exact for the seed to a few hundredths
    // on any host (3.435 with the line formatted into a `String`; 3.710
    // with the table and the window in B-trees; 7.236 with an endpoint
    // per call, formatted span names,
    // unpooled stub and servant encoders, and a principal and a process
    // name copied per request; 7.242 when a spawn boxed its process's
    // closure instead of writing it onto the stack; 11.449 when every
    // write could copy a shared buffer). The ceiling is 0.4 above.
    g(REPL_STORM, "per_layer/ocs-sim.allocs_per_event", Le(3.84)),
    // The unreplicated storm, where a null ORB call is most of the cost:
    // 3.420 events per op, the 3.411 messages plus the timeouts that
    // fire (4.153 when a wait a reply ended left its timeout in the event
    // queue to pop), and 7.08 allocator calls per null call (18.1 with an
    // endpoint per call, two formatted span names, unpooled stub and
    // servant encoders, and a principal and a process name copied per
    // request). Counts, on any host; the run adds 2.7 s.
    g(STORM, "failed", Eq(0.0)),
    g(STORM, "per_layer/ocs-sim.events_per_op", Le(3.43)),
    g(STORM, "per_layer/ocs-orb.allocs_per_call", Le(7.6)),
    // One scheduler loop for every shard count: a 1-shard run is one
    // window, so the storm's run_until every 1 ms slice costs no
    // scheduler round trip of its own. 0.5050 switches per event, exact
    // for the seed; one extra round trip per slice adds ≈ 0.04.
    g(STORM, "per_layer/ocs-sim.switches_per_event", Le(0.52)),
    // The same group with its primary killed under open-loop probes,
    // virtual time, exact for the seed: the p50 op is the blackout a
    // kill leaves, 818,000 us (810–818 ms over seeds 1–4), ceiling 10 %
    // above; a fail-over sends the table once, 198,503 bytes per op
    // (381 KB when a view change carried a snapshot and recovery
    // fetched one per peer), ceiling 21 % above. Adds 2.2 s.
    g(FAILOVER, "failed", Eq(0.0)),
    g(FAILOVER, "correct", IsTrue),
    g(FAILOVER, "end_to_end/op_p50_us", Le(900_000.0)),
    g(FAILOVER, "per_layer/ocs-wire.bytes_per_op", Le(240_000.0)),
    // Telemetry records are fixed-size and heap-free: a retained span is
    // 48 bytes with its operation an id in the tracer's op table, a
    // journal entry 48 bytes with its line a template and numbers. The
    // first round peaks at 20.1 MB resident on a 2-vCPU x86-64 host
    // (28.9 MB with 80-byte spans naming their op with two `&str`s and
    // a heap `String` per journal line); ceiling 15 % above.
    g(FAILOVER, "end_to_end/peak_rss_mb", Le(23.0)),
    // The same log over TCP loopback: a node keeps one stream per peer
    // for life, so the timed phase opens none. A count, not a wall
    // clock: a connection per ORB call reads 5.9 here on any host.
    g(TCP_ADMIT, "failed", Eq(0.0)),
    g(TCP_ADMIT, "correct", IsTrue),
    g(TCP_ADMIT, "per_layer/ocs-sim.tcp_conns_per_op", Le(0.1)),
    // A movie cycle over TCP is nine ORB calls — the settop's resolve,
    // `open`, `play` and `close`, and under them the MMS's `status`,
    // `allocate`, `open`, then `close`, `release` — plus the
    // end-of-round audit's few: 9.015. A count again: an MMS that asks
    // the name service on the way reads 13 here on any host.
    g(TCP_OPEN, "failed", Eq(0.0)),
    g(TCP_OPEN, "correct", IsTrue),
    g(TCP_OPEN, "per_layer/ocs-orb.calls_per_op", Le(9.1)),
];

/// The repo root: where the committed artifacts and `benchmark/` are.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    // A report is the first line of a `.jsonl`, or a whole `.json`.
    let jsonl = path.extension().is_some_and(|x| x == "jsonl");
    let text = if jsonl {
        text.lines().next().unwrap_or("")
    } else {
        &text
    };
    Json::parse(text).map_err(|e| format!("{}: {e}", path.display()))
}

impl Run {
    /// The file name of the run's report.
    fn artifact(&self) -> String {
        match self {
            Run::Exp(args) => format!("BENCH_{}.json", first_word(args)),
            Run::Workload(args) => format!("{}.jsonl", first_word(args)),
        }
    }

    /// The committed report of the same name, if runs of this kind have
    /// one.
    fn committed(&self) -> Option<Result<Json, String>> {
        match self {
            Run::Exp(_) => Some(read_json(&repo_root().join(self.artifact()))),
            Run::Workload(_) => None,
        }
    }

    /// Executes the run with `dir` as its scratch space and reads the
    /// report it left there.
    fn execute(&self, dir: &Path) -> Result<Json, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let report = dir.join(self.artifact());
        let mut child = match self {
            Run::Exp(args) => {
                let exe = std::env::current_exe().map_err(|e| e.to_string())?;
                let mut c = Command::new(exe);
                c.args(args.split_whitespace());
                c
            }
            Run::Workload(args) => {
                let mut c =
                    Command::new(repo_root().join("benchmark/target/release/itv-benchmark"));
                c.args(["run", "--workload"]).args(args.split_whitespace());
                c.arg("--out").arg(&report);
                c
            }
        };
        // Quiet unless it fails: then the tail of its stderr is the why.
        let out = child
            .current_dir(dir)
            .stdout(Stdio::null())
            .output()
            .map_err(|e| format!("cannot start {:?}: {e}", child.get_program()))?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = stderr.lines().rev().take(20).collect();
            let tail: Vec<&str> = tail.into_iter().rev().collect();
            return Err(format!("run failed: {}\n{}", out.status, tail.join("\n")));
        }
        read_json(&report)
    }
}

fn first_word(s: &str) -> &str {
    s.split_whitespace().next().unwrap_or("")
}

/// What became of one guard.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok(String),
    Failed(String),
    Skipped(String),
}

/// Evaluates one guard against the fresh and the committed report (an
/// absent report, like an absent field, fails whatever reads it).
fn evaluate(g: &Guard, fresh: Option<&Json>, committed: Option<&Json>, cores: usize) -> Verdict {
    if cores < g.min_cores {
        return Verdict::Skipped(format!("host has {cores} cores, need {}", g.min_cores));
    }
    fn field<'a>(report: Option<&'a Json>, path: &str) -> Option<&'a Json> {
        path.split('/').try_fold(report?, |j, key| j.get(key))
    }
    let show =
        |v: Option<&Json>| v.map_or("missing".to_string(), |v| v.render().trim().to_string());
    let (fresh, committed) = (field(fresh, g.field), field(committed, g.field));
    let num = |v: Option<&Json>| v.and_then(Json::as_f64);
    let (value, holds, claim) = match g.cmp {
        Lt(n) => (fresh, num(fresh).is_some_and(|v| v < n), format!("< {n}")),
        Le(n) => (fresh, num(fresh).is_some_and(|v| v <= n), format!("<= {n}")),
        Ge(n) => (fresh, num(fresh).is_some_and(|v| v >= n), format!(">= {n}")),
        Eq(n) => (fresh, num(fresh) == Some(n), format!("== {n}")),
        IsTrue => (
            fresh,
            fresh == Some(&Json::Bool(true)),
            "is true".to_string(),
        ),
        EqCommitted => (
            fresh,
            fresh.is_some() && fresh == committed,
            format!("== committed {}", show(committed)),
        ),
        GeTimesCommitted(k) => (
            fresh,
            num(fresh)
                .zip(num(committed))
                .is_some_and(|(v, c)| v >= k * c),
            format!(">= {k} x committed {}", show(committed)),
        ),
        CommittedLt(n) => (
            committed,
            num(committed).is_some_and(|v| v < n),
            format!("< {n} (committed)"),
        ),
    };
    let line = format!("{}.{} {} {claim}", g.run.artifact(), g.field, show(value));
    if holds {
        Verdict::Ok(line)
    } else {
        Verdict::Failed(line)
    }
}

/// Runs every distinct run of [`GUARDS`] once, prints one line per guard
/// and returns the process exit code: non-zero if any guard failed.
pub fn run() -> i32 {
    let cores = crate::report::cores_used();
    let tmp = std::env::temp_dir().join(format!("experiments-check-{}", std::process::id()));
    let mut reports: HashMap<Run, (Option<Json>, Option<Json>)> = HashMap::new();
    let mut failed = 0;
    for (n, g) in GUARDS.iter().enumerate() {
        let (fresh, committed) = reports.entry(g.run).or_insert_with(|| {
            println!("check: {:?}", g.run);
            let complain = |e| println!("check: {e}");
            let fresh = g.run.execute(&tmp.join(n.to_string()));
            let committed = g.run.committed().and_then(|c| c.map_err(complain).ok());
            (fresh.map_err(complain).ok(), committed)
        });
        match evaluate(g, fresh.as_ref(), committed.as_ref(), cores) {
            Verdict::Ok(line) => println!("  ok      {line}"),
            Verdict::Skipped(why) => println!("  SKIPPED {}.{}: {why}", g.run.artifact(), g.field),
            Verdict::Failed(line) => {
                println!("  FAILED  {line}");
                failed += 1;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    println!("check: {} guards, {failed} failed", GUARDS.len());
    i32::from(failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Json {
        Json::parse(
            r#"{"p99_s": 0.82, "ops": 8000, "exact": true, "rough": false, "lost": 0,
                "table": [{"p99_s": 99.0}],
                "metrics": {"lost": 7, "nested_only": 1, "ocs-sim.msgs_per_op": 9.4}}"#,
        )
        .unwrap()
    }

    fn verdict(field: &'static str, cmp: Cmp, committed: &str) -> Verdict {
        let committed = Json::parse(committed).unwrap();
        evaluate(&g(E20, field, cmp), Some(&report()), Some(&committed), 2)
    }

    fn holds(field: &'static str, cmp: Cmp, committed: &str) -> bool {
        match verdict(field, cmp, committed) {
            Verdict::Ok(_) => true,
            Verdict::Failed(_) => false,
            Verdict::Skipped(why) => panic!("skipped: {why}"),
        }
    }

    #[test]
    fn every_comparator_passes_and_fails() {
        assert!(holds("p99_s", Lt(2.0), "{}"));
        assert!(!holds("p99_s", Lt(0.82), "{}"));
        assert!(holds("p99_s", Le(0.82), "{}"));
        assert!(!holds("p99_s", Le(0.8), "{}"));
        assert!(holds("ops", Ge(8000.0), "{}"));
        assert!(!holds("ops", Ge(8000.5), "{}"));
        assert!(holds("lost", Eq(0.0), "{}"));
        assert!(!holds("ops", Eq(0.0), "{}"));
        assert!(holds("exact", IsTrue, "{}"));
        assert!(!holds("rough", IsTrue, "{}"));
        assert!(!holds("ops", IsTrue, "{}"));
        assert!(holds("ops", EqCommitted, r#"{"ops": 8000}"#));
        assert!(!holds("ops", EqCommitted, r#"{"ops": 8001}"#));
        assert!(holds("ops", GeTimesCommitted(0.8), r#"{"ops": 10000}"#));
        assert!(!holds("ops", GeTimesCommitted(0.8), r#"{"ops": 10001}"#));
        // `CommittedLt` reads the committed value only.
        assert!(holds("p99_s", CommittedLt(2.0), r#"{"p99_s": 1.9}"#));
        assert!(!holds("p99_s", CommittedLt(2.0), r#"{"p99_s": 2.0}"#));
        assert!(holds(
            "real_p99_s",
            CommittedLt(2.0),
            r#"{"real_p99_s": 0.9}"#
        ));
    }

    #[test]
    fn a_missing_field_or_report_fails() {
        assert!(!holds("no_such", Lt(2.0), "{}"));
        assert!(!holds("no_such", IsTrue, "{}"));
        assert!(!holds("no_such", EqCommitted, "{}"));
        assert!(!holds("ops", EqCommitted, "{}"));
        assert!(!holds("ops", GeTimesCommitted(0.8), "{}"));
        assert!(!holds("p99_s", CommittedLt(2.0), "{}"));
        // A number where a bool is wanted, and the reverse.
        assert!(!holds("exact", Ge(0.0), "{}"));
        let guard = g(E20, "p99_s", Lt(2.0));
        assert!(matches!(
            evaluate(&guard, None, None, 2),
            Verdict::Failed(_)
        ));
        let line = verdict("no_such", Lt(2.0), "{}");
        assert_eq!(
            line,
            Verdict::Failed("BENCH_e20.json.no_such missing < 2".into())
        );
    }

    #[test]
    fn only_top_level_keys_count() {
        // `lost` is 0 at the top and 7 inside `metrics`; `p99_s` is 0.82
        // at the top and 99 inside `table`. The first textual match of
        // either is not the question.
        assert!(holds("lost", Eq(0.0), "{}"));
        assert!(holds("p99_s", Lt(2.0), "{}"));
        // A key that exists only inside a nested object is missing...
        assert!(!holds("nested_only", Ge(0.0), "{}"));
        assert!(!holds("ocs-sim.msgs_per_op", Le(9.5), "{}"));
        // ...unless the guard says where it is.
        assert!(holds("metrics/ocs-sim.msgs_per_op", Le(9.5), "{}"));
        assert!(holds("metrics/lost", Eq(7.0), "{}"));
        assert!(!holds("table/p99_s", Lt(200.0), "{}"));
    }

    #[test]
    fn min_cores_above_the_host_skips() {
        let guard = Guard {
            min_cores: 4,
            ..g(E18, "no_such", Ge(2.0))
        };
        let on = |cores| evaluate(&guard, Some(&report()), None, cores);
        assert!(matches!(on(2), Verdict::Skipped(_)));
        assert!(matches!(on(4), Verdict::Failed(_)));
    }

    #[test]
    fn every_run_names_an_experiment_or_a_workload() {
        let manifest = read_json(&repo_root().join("BENCHMARK.json")).unwrap();
        let Some(Json::Arr(workloads)) = manifest.get("workloads") else {
            panic!("BENCHMARK.json lists no workloads");
        };
        for guard in GUARDS {
            let known = match guard.run {
                Run::Exp(args) => crate::exps::EXPERIMENTS
                    .iter()
                    .any(|(name, _)| *name == first_word(args)),
                Run::Workload(args) => workloads
                    .iter()
                    .any(|w| w.get("name") == Some(&Json::from(first_word(args)))),
            };
            assert!(known, "{:?} names nothing that runs", guard.run);
        }
    }

    /// A renamed field must not silently retire a guard: every field an
    /// experiment guard reads — `a/b` is key `b` of object `a` — exists in
    /// the committed artifact (unless
    /// the artifact came from a host the guard skips on), and every
    /// nested field a workload guard reads is one `BENCHMARK.json`
    /// declares.
    #[test]
    fn every_guard_field_exists_in_its_committed_artifact() {
        let manifest = read_json(&repo_root().join("BENCHMARK.json")).unwrap();
        for guard in GUARDS {
            let Guard { run, field, .. } = guard;
            match run.committed() {
                Some(committed) => {
                    let committed = committed.unwrap();
                    let cores = committed.get("cores_used").and_then(Json::as_f64).unwrap();
                    let found = field.split('/').try_fold(&committed, |j, key| j.get(key));
                    assert!(
                        found.is_some() || (cores as usize) < guard.min_cores,
                        "{} has no field {field}",
                        run.artifact()
                    );
                }
                None => {
                    let Some((section, metric)) = field.split_once('/') else {
                        continue;
                    };
                    let Some(Json::Arr(declared)) = manifest.get(section) else {
                        panic!("BENCHMARK.json has no section {section}");
                    };
                    assert!(
                        declared
                            .iter()
                            .any(|m| m.get("name") == Some(&Json::from(metric))),
                        "BENCHMARK.json declares no {section} metric {metric}"
                    );
                }
            }
        }
    }
}
