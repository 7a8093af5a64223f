//! From rounds to numbers: the quietest windows' wall-clock metrics,
//! the printed tables, the per-workload budgets, the result files, and
//! `compare`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

use crate::catalog::{Metric, END_TO_END, PER_LAYER, VIRTUAL_BOUND, VIRTUAL_ON_SIM, WORKLOADS};
use crate::probes::{self, Frames, Metrics};
use crate::trace::{self_times, SpanRec, NO_SPAN};
use crate::util::{median, percentile, quartiles, sorted, Json};
use crate::workloads::{failover, storm, tcp, Round, Window};

/// Spans written to `out/trace_<workload>.json`, at most.
const TRACE_FILE_SPANS: usize = 50_000;

/// One run of one workload, summarized.
pub struct Summary {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub rounds: usize,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub violations: Vec<String>,
    /// The end-to-end metrics of each untraced round, to show how far the
    /// rounds lie apart.
    pub per_round: Vec<BTreeMap<&'static str, f64>>,
    /// Samples behind the percentiles.
    pub op_samples: usize,
    pub read_samples: usize,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: Metrics,
    /// Rows of the latency budget: `(layer, what, µs, source)`.
    pub budget: Vec<(&'static str, String, f64, &'static str)>,
    /// Spans of the first traced round.
    spans: Vec<SpanRec>,
}

/// The end-to-end metrics of one round, start to end.
fn round_e2e(r: &Round) -> BTreeMap<&'static str, f64> {
    let ops = r.op_us.len().max(1) as f64;
    let op = sorted(&r.op_us);
    BTreeMap::from([
        ("setup_s", r.setup_s),
        ("op_p50_us", percentile(&op, 0.50)),
        ("op_p90_us", percentile(&op, 0.90)),
        (
            "ops_per_s",
            r.op_us.len() as f64 / r.clock_s.max(f64::MIN_POSITIVE),
        ),
        ("read_p50_us", percentile(&sorted(&r.read_us), 0.50)),
        ("host_us_per_op", r.host_s * 1e6 / ops),
        ("cpu_us_per_op", r.cpu_s * 1e6 / ops),
    ])
}

/// The share of a `tcp_*` run's windows its metrics are read from.
const QUIET_SHARE: f64 = 0.1;

/// The windows of `rounds` that the host disturbed least. Host noise — a
/// neighbour on the machine's other hardware thread, a scheduler hiccup —
/// only ever adds time and comes in bursts of 50 ms to seconds, so the
/// cheapest repeats of a piece of work are the steadiest estimate of what
/// the code costs; a real regression moves every repeat.
///
/// `sim_*`: the same seed gives the same schedule, so window *k* of every
/// round did exactly the same work: each is taken from the round that ran
/// it in the least host time, and together they are one whole round.
/// `tcp_*`: every window ran the same mix of cycles, so the tenth with the
/// lowest median op latency stands for them all. (Ranked by the median,
/// not the total: a window keeps the slow ops that are the program's own,
/// so the pool keeps its tail.)
fn quiet<'a>(rounds: &[&'a Round]) -> Vec<&'a Window> {
    if rounds[0].fingerprint.is_some() {
        let shortest = rounds.iter().map(|r| r.windows.len()).min().unwrap_or(0);
        return (0..shortest)
            .filter_map(|k| {
                rounds
                    .iter()
                    .map(|r| &r.windows[k])
                    .min_by(|a, b| a.host_s.total_cmp(&b.host_s))
            })
            .collect();
    }
    let mut all: Vec<(f64, &Window)> = rounds
        .iter()
        .flat_map(|r| &r.windows)
        .filter(|w| w.ops > 0.0)
        .map(|w| (p50(w.op_us.clone()), w))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0));
    all.truncate(((all.len() as f64 * QUIET_SHARE) as usize).max(1));
    all.into_iter().map(|(_, w)| w).collect()
}

/// The wall-clock end-to-end metrics of the windows `ws`, pooled.
fn windows_e2e(ws: &[&Window]) -> BTreeMap<&'static str, f64> {
    let sum = |f: fn(&Window) -> f64| ws.iter().map(|w| f(w)).sum::<f64>();
    let pool = |f: fn(&Window) -> &Vec<f64>| {
        sorted(&ws.iter().flat_map(|w| f(w)).copied().collect::<Vec<f64>>())
    };
    let (ops, host_s, cpu_s) = (sum(|w| w.ops), sum(|w| w.host_s), sum(|w| w.cpu_s));
    let op = pool(|w| &w.op_us);
    BTreeMap::from([
        ("op_p50_us", percentile(&op, 0.50)),
        ("op_p90_us", percentile(&op, 0.90)),
        ("ops_per_s", ops / host_s),
        ("read_p50_us", percentile(&pool(|w| &w.read_us), 0.50)),
        ("host_us_per_op", host_s * 1e6 / ops),
        ("cpu_us_per_op", cpu_s * 1e6 / ops),
    ])
}

pub fn summarize(
    workload: &str,
    seed: u64,
    seconds: u64,
    traced: bool,
    rss_mb: f64,
    mut setups: Vec<f64>,
    mut rounds: Vec<(bool, Round)>,
) -> Summary {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .expect("workload name was validated")
        .name;
    let mut violations: Vec<String> = Vec::new();
    for (i, (_, r)) in rounds.iter().enumerate() {
        violations.extend(r.violations.iter().map(|v| format!("round {i}: {v}")));
    }
    // Same seed ⇒ same virtual-time outputs and kernel trace, round
    // after round, traced or not.
    let fingerprints: Vec<u64> = rounds.iter().filter_map(|(_, r)| r.fingerprint).collect();
    if fingerprints.windows(2).any(|w| w[0] != w[1]) {
        violations.push(format!(
            "same-seed rounds diverged in virtual time: fingerprints {fingerprints:x?}"
        ));
    }
    let cuts: Vec<usize> = rounds.iter().map(|(_, r)| r.windows.len()).collect();
    if !fingerprints.is_empty() && cuts.windows(2).any(|w| w[0] != w[1]) {
        violations.push(format!(
            "same-seed rounds were cut into different numbers of windows: {cuts:?}"
        ));
    }
    // The trace file gets the first traced round's spans.
    let spans = rounds
        .iter_mut()
        .find(|(traced, _)| *traced)
        .map(|(_, r)| std::mem::take(&mut r.spans))
        .unwrap_or_default();
    // End-to-end metrics come from the untraced rounds only.
    setups.extend(rounds.iter().filter(|(t, _)| !t).map(|(_, r)| r.setup_s));
    let untraced: Vec<(&Round, BTreeMap<&'static str, f64>)> = rounds
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, r)| (r, round_e2e(r)))
        .collect();
    let traced_rounds: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();

    // Wall-clock metrics: the quietest windows of the run. Virtual-time
    // metrics: the first round's, which every other round repeats.
    let untraced_rounds: Vec<&Round> = untraced.iter().map(|(r, _)| *r).collect();
    let calm_windows = quiet(&untraced_rounds);
    let calm = windows_e2e(&calm_windows);
    let (first, first_e2e) = &untraced[0];
    let virtual_time = first.fingerprint.is_some();
    let mut e2e: BTreeMap<&'static str, f64> = BTreeMap::new();
    for m in &END_TO_END {
        let v = match m.name {
            "peak_rss_mb" => rss_mb,
            "setup_s" => median(&setups),
            name if virtual_time && VIRTUAL_ON_SIM.contains(&name) => first_e2e[name],
            name => calm[name],
        };
        e2e.insert(m.name, v);
    }

    // Per-layer metrics of the rounds. Wall-clock times the load generator
    // took: medians over the same windows as the end-to-end metrics, so
    // that budget rows belong to the op they are set against. Counts and
    // virtual times: the median over every round (on `sim_*` each round
    // has the same).
    let mut pooled: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for w in &calm_windows {
        for (name, us) in &w.layer_us {
            pooled.entry(name).or_default().extend(us);
        }
    }
    let mut layer: Metrics = pooled
        .into_iter()
        .map(|(name, us)| (name, p50(us)))
        .collect();
    let counts: std::collections::BTreeSet<&'static str> = rounds
        .iter()
        .flat_map(|(_, r)| r.layer.keys().copied())
        .collect();
    for name in counts {
        let values: Vec<f64> = rounds
            .iter()
            .map(|(_, r)| r.layer.get(name).copied().unwrap_or(0.0))
            .collect();
        layer.insert(name, median(&values));
    }
    let attempted: u64 = untraced.iter().map(|(r, _)| r.attempted).sum();
    let failed: u64 = untraced.iter().map(|(r, _)| r.failed).sum();
    let events_per_op = layer.get("ocs-sim.events_per_op").copied().unwrap_or(0.0);
    if events_per_op > 0.0 {
        layer.insert(
            "ocs-sim.host_ns_per_event",
            e2e["host_us_per_op"] * 1000.0 / events_per_op,
        );
    }
    layer.insert("bench.rounds", rounds.len() as f64);
    layer.insert("bench.fail_ratio", failed as f64 / attempted.max(1) as f64);
    let p99s: Vec<f64> = untraced
        .iter()
        .map(|(r, _)| percentile(&sorted(&r.op_us), 0.99))
        .collect();
    layer.insert("bench.op_p99_us", median(&p99s));
    if workload == "sim_failover" {
        layer.insert("bench.blackout_p50_ms", e2e["op_p50_us"] / 1000.0);
        layer.insert("bench.blackout_p90_ms", e2e["op_p90_us"] / 1000.0);
    } else if workload.contains("repl") {
        // What the log adds to a servant call: a write minus a read on
        // the same servant, same link, same run.
        layer.insert(
            "ocs-vsr.commit_self_us",
            e2e["op_p50_us"] - e2e["read_p50_us"],
        );
    }
    if !traced_rounds.is_empty() {
        // CPU is the steadier cost on TCP, host time the one that
        // exists on the simulator.
        let cost = if workload.starts_with("tcp_") {
            "cpu_us_per_op"
        } else {
            "host_us_per_op"
        };
        let with = windows_e2e(&quiet(&traced_rounds))[cost];
        layer.insert(
            "bench.trace_overhead_pct",
            (with / calm[cost] - 1.0) * 100.0,
        );
    }

    Summary {
        workload,
        seed,
        seconds,
        traced,
        rounds: rounds.len(),
        attempted,
        failed,
        correct: violations.is_empty(),
        violations,
        per_round: untraced.iter().map(|(_, e)| e.clone()).collect(),
        op_samples: if virtual_time {
            first.op_us.len()
        } else {
            calm_windows.iter().map(|w| w.op_us.len()).sum()
        },
        read_samples: if virtual_time {
            first.read_us.len()
        } else {
            calm_windows.iter().map(|w| w.read_us.len()).sum()
        },
        e2e,
        layer,
        budget: Vec::new(),
        spans,
    }
}

/// Nearest-rank median, as `op_p50_us` is computed (an averaging median
/// would put rows and total half a sample apart).
fn p50(xs: Vec<f64>) -> f64 {
    percentile(&sorted(&xs), 0.50)
}

/// Median self time (µs) of the spans named `name`.
fn span_self_us(selfs: &[(&'static str, f64)], name: &str) -> f64 {
    p50(selfs
        .iter()
        .filter(|(n, _)| *n == name)
        .map(|(_, us)| *us)
        .collect())
}

/// Median duration (µs) of the spans named `name` whose root is an op.
fn op_child_us(spans: &[SpanRec], name: &str, host: bool) -> f64 {
    let under_op = |s: &SpanRec| {
        let mut at = s;
        while at.parent != NO_SPAN {
            at = &spans[at.parent as usize];
        }
        at.name == "op" || at.name == "probe"
    };
    p50(spans
        .iter()
        .filter(|s| s.name == name && under_op(s))
        .map(|s| s.dur_us(host))
        .collect())
}

/// The traced run's second half: the probes that explain this workload,
/// the span-derived metrics, and the latency budget whose rows plus
/// `bench.unattributed_us` equal `op_p50_us`.
pub fn add_probes_and_budget(s: &mut Summary) {
    let tcp = s.workload.starts_with("tcp_");
    let (frames, population) = match s.workload {
        "tcp_movie_open" => (Frames::MovieOpen, 1_000),
        "sim_storm" => (Frames::Allocate, storm::SETTOPS_PLAIN),
        "sim_repl_storm" => (Frames::Allocate, storm::SETTOPS_REPL),
        _ => (Frames::Allocate, 1_000),
    };
    let mut p = Metrics::new();
    probes::cpu_probes(frames, population, &mut p);
    let link_us = match s.workload {
        "sim_storm" | "sim_repl_storm" => storm::median_link_us(s.seed),
        // The probers reach the replicas over the default 500 µs link.
        _ => 500,
    };
    if tcp {
        probes::tcp_rpc_probes(s.workload == "tcp_repl_admit", &mut p);
    } else {
        probes::sim_rpc_probes(link_us, &mut p);
    }
    // Where the workload itself measured a layer (movie open resolves
    // once per op), its span wins over the probe.
    for (k, v) in p {
        s.layer.entry(k).or_insert(v);
    }

    let selfs = self_times(&s.spans, tcp);
    s.layer.insert(
        "ocs-name.rebind_self_us",
        span_self_us(&selfs, "ocs-name.rebind"),
    );
    let l = |name: &str| s.layer.get(name).copied().unwrap_or(0.0);
    let op_p50 = s.e2e["op_p50_us"];
    let mut rows: Vec<(&'static str, String, f64, &'static str)> = Vec::new();
    match s.workload {
        "sim_storm" | "sim_repl_storm" => {
            let link = 2.0 * link_us as f64;
            let call = op_child_us(&s.spans, "itv-media.cm_allocate", false);
            let commit = l("ocs-vsr.commit_self_us");
            rows.push((
                "ocs-sim",
                format!("injected link, 2 x {link_us} us"),
                link,
                "input",
            ));
            rows.push((
                "ocs-orb",
                "null-servant round trip minus the link".into(),
                l("ocs-orb.echo_rtt_us") - link,
                "probe",
            ));
            rows.push((
                "ocs-name",
                "Rebinding::call minus the closure it runs".into(),
                l("ocs-name.rebind_self_us"),
                "span",
            ));
            rows.push((
                "ocs-vsr",
                "write minus read on the same servant".into(),
                commit,
                "derived",
            ));
            rows.push((
                "itv-media",
                "allocate call minus null round trip minus commit".into(),
                call - l("ocs-orb.echo_rtt_us") - commit,
                "span-probe",
            ));
        }
        "sim_failover" => {
            rows.push((
                "ocs-vsr",
                "election timeout before a backup may suspect".into(),
                600_000.0,
                "input",
            ));
            rows.push((
                "ocs-vsr",
                "first-suspecting backup's stagger (replica id x heartbeat/2, p50)".into(),
                100_000.0,
                "input",
            ));
        }
        "tcp_repl_admit" => {
            let wire = (l("ocs-wire.encode_ns") + l("ocs-wire.decode_ns")) / 1000.0;
            rows.push((
                "ocs-sim",
                "raw frame round trip, long-lived endpoints".into(),
                l("ocs-sim.tcp_frame_rtt_us"),
                "probe",
            ));
            rows.push((
                "ocs-orb",
                "null-servant round trip minus the frame round trip".into(),
                l("ocs-orb.echo_rtt_us") - l("ocs-sim.tcp_frame_rtt_us"),
                "probe",
            ));
            rows.push((
                "ocs-wire",
                "this op's request + reply, both ways".into(),
                wire,
                "probe",
            ));
            rows.push((
                "itv-media",
                "usage() read minus null round trip minus codec".into(),
                s.e2e["read_p50_us"] - l("ocs-orb.echo_rtt_us") - wire,
                "derived",
            ));
            rows.push((
                "ocs-vsr",
                "write minus read on the same servant".into(),
                l("ocs-vsr.commit_self_us"),
                "derived",
            ));
        }
        "tcp_movie_open" => {
            rows.push((
                "ocs-name",
                "resolve svc/mms at the settop's NS replica".into(),
                l("ocs-name.resolve_us"),
                "span",
            ));
            rows.push((
                "itv-media",
                "MmsApi::open (MDS status + CM allocate + MDS open inside)".into(),
                l("itv-media.mms_open_us"),
                "span",
            ));
            rows.push((
                "itv-media",
                "MovieCtl::play".into(),
                l("itv-media.mds_play_us"),
                "span",
            ));
        }
        _ => {}
    }
    let unattributed = op_p50 - rows.iter().map(|r| r.2).sum::<f64>();
    s.layer.insert("bench.unattributed_us", unattributed);
    s.budget = rows;
}

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn metric_json(metrics: &[Metric], values: &BTreeMap<&'static str, f64>) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                (
                    "value",
                    Json::Num(values.get(m.name).copied().unwrap_or(0.0)),
                ),
                ("unit", Json::Str(m.unit.into())),
            ]),
        )
    }))
}

impl Summary {
    /// What the benchmark contract asks for as the last stdout line.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                if self.traced {
                    metric_json(&PER_LAYER, &self.layer)
                } else {
                    metric_json(&END_TO_END, &self.e2e)
                },
            ),
        ])
    }

    pub fn print(&self) {
        let w = WORKLOADS
            .iter()
            .find(|w| w.name == self.workload)
            .expect("known workload");
        println!(
            "\n== {} (seed {}, {} s, {} rounds{}) ==",
            self.workload,
            self.seed,
            self.seconds,
            self.rounds,
            if self.traced { ", traced" } else { "" }
        );
        println!("   why: {}", w.why);
        for (k, v) in self.inputs() {
            println!("   {k}: {v}");
        }
        println!(
            "   attempted {} failed {} | percentiles of {} op and {} read samples | correct: {}",
            self.attempted, self.failed, self.op_samples, self.read_samples, self.correct
        );
        for v in &self.violations {
            println!("   VIOLATION {v}");
        }
        let list = |name: &str| {
            let v: Vec<String> = self.per_round.iter().map(|r| fmt_value(r[name])).collect();
            v.join(" ")
        };
        println!(
            "   untraced rounds: op_p50_us [{}] host_us_per_op [{}]",
            list("op_p50_us"),
            list("host_us_per_op")
        );
        if !self.traced {
            println!("   {:<34} {:>14}  unit", "end-to-end metric", "value");
            for m in &END_TO_END {
                println!(
                    "   {:<34} {:>14}  {}",
                    m.name,
                    fmt_value(self.e2e[m.name]),
                    m.unit
                );
            }
            return;
        }
        println!("   {:<34} {:>14}  unit", "per-layer metric", "value");
        for m in &PER_LAYER {
            let v = self.layer.get(m.name).copied().unwrap_or(0.0);
            println!("   {:<34} {:>14}  {}", m.name, fmt_value(v), m.unit);
        }
        let op_p50 = self.e2e["op_p50_us"];
        println!("   latency budget of op_p50_us = {} us:", fmt_value(op_p50));
        for (layer, what, us, source) in &self.budget {
            println!(
                "     {:<14} {:>12} us {:>6.1}%  [{}] {}",
                layer,
                fmt_value(*us),
                us / op_p50 * 100.0,
                source,
                what
            );
        }
        let un = self.layer["bench.unattributed_us"];
        println!(
            "     {:<14} {:>12} us {:>6.1}%",
            "unattributed",
            fmt_value(un),
            un / op_p50 * 100.0
        );
        self.print_cost_budget();
    }

    /// Where an op's host cost goes, as far as probes × counts can say:
    /// `host_us_per_op` on `sim_*`, `cpu_us_per_op` on `tcp_*`.
    fn print_cost_budget(&self) {
        let l = |name: &str| self.layer.get(name).copied().unwrap_or(0.0);
        let (metric, total) = if self.workload.starts_with("tcp_") {
            ("cpu_us_per_op", self.e2e["cpu_us_per_op"])
        } else {
            ("host_us_per_op", self.e2e["host_us_per_op"])
        };
        let calls = l("ocs-orb.calls_per_op");
        let rows = [
            (
                "ocs-orb",
                calls * l("ocs-orb.echo_cost_us"),
                "calls_per_op x echo_cost_us: everything a null call costs",
            ),
            (
                "itv-media",
                l("itv-media.cm_allocate_ns") / 2000.0,
                "cm_allocate_ns / 2: one admission's bookkeeping",
            ),
        ];
        println!("   cost budget of {metric} = {} us:", fmt_value(total));
        for (layer, us, what) in rows {
            println!(
                "     {:<14} {:>12} us {:>6.1}%  [probe x count] {}",
                layer,
                fmt_value(us),
                us / total * 100.0,
                what
            );
        }
        let rest = total - rows.iter().map(|r| r.1).sum::<f64>();
        println!(
            "     {:<14} {:>12} us {:>6.1}%  servants, VSR engine, load generator",
            "unattributed",
            fmt_value(rest),
            rest / total * 100.0
        );
        // Inside the ORB row, for scale.
        let inside = [
            (
                "ocs-sim",
                l("ocs-sim.events_per_op") * l("ocs-sim.pingpong_ns_per_event") / 1000.0,
                "events_per_op x pingpong_ns_per_event",
            ),
            (
                "ocs-wire",
                calls * (l("ocs-wire.encode_ns") + l("ocs-wire.decode_ns")) / 1000.0,
                "calls_per_op x (encode_ns + decode_ns)",
            ),
            (
                "ocs-telemetry",
                calls * 2.0 * l("ocs-telemetry.span_record_ns") / 1000.0,
                "calls_per_op x 2 spans x span_record_ns",
            ),
        ];
        for (layer, us, what) in inside {
            println!(
                "       of which {:<12} {:>5} us {:>6.1}%  {}",
                layer,
                fmt_value(us),
                us / total * 100.0,
                what
            );
        }
    }

    /// The generated inputs the output states.
    fn inputs(&self) -> BTreeMap<&'static str, String> {
        match self.workload {
            "sim_storm" => storm::describe(self.seed, false),
            "sim_repl_storm" => storm::describe(self.seed, true),
            "sim_failover" => BTreeMap::from([
                (
                    "link one-way (us)",
                    "500 between replicas, 500..507 prober to replica".to_string(),
                ),
                (
                    "kills / probers",
                    format!(
                        "{} kills, {} open-loop probers every {} ms",
                        failover::KILLS,
                        failover::PROBERS,
                        failover::PROBE_PERIOD.as_millis()
                    ),
                ),
            ]),
            "tcp_repl_admit" => BTreeMap::from([
                ("link", "TCP loopback, no injected delay".to_string()),
                ("admissions per round", tcp::ADMITS.to_string()),
            ]),
            _ => BTreeMap::from([
                ("link", "TCP loopback, no injected delay".to_string()),
                ("opens per round", tcp::OPENS.to_string()),
            ]),
        }
    }

    fn to_json(&self) -> Json {
        let values =
            |m: &BTreeMap<&'static str, f64>| Json::obj(m.iter().map(|(k, v)| (*k, Json::Num(*v))));
        Json::obj([
            ("workload", Json::Str(self.workload.into())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("traced", Json::Bool(self.traced)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("correct", Json::Bool(self.correct)),
            ("end_to_end", values(&self.e2e)),
            ("per_layer", values(&self.layer)),
            (
                "per_round",
                Json::Arr(self.per_round.iter().map(values).collect()),
            ),
        ])
    }

    /// Appends the run to `out` (JSON lines, `compare`'s input) when
    /// given, and writes the traced run's spans under `dir`.
    pub fn save(&self, dir: &Path, out: Option<&Path>) -> std::io::Result<()> {
        if let Some(path) = out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(f, "{}", self.to_json().render())?;
        }
        if !self.traced {
            return Ok(());
        }
        std::fs::create_dir_all(dir)?;
        let spans: Vec<Json> = self
            .spans
            .iter()
            .take(TRACE_FILE_SPANS)
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::Str(s.name.into())),
                    ("request", Json::Num(s.req as f64)),
                    (
                        "parent",
                        if s.parent == NO_SPAN {
                            Json::Null
                        } else {
                            Json::Num(f64::from(s.parent))
                        },
                    ),
                    ("start_us", Json::Num(s.start_us as f64)),
                    ("end_us", Json::Num(s.end_us as f64)),
                    ("host_start_ns", Json::Num(s.host_start_ns as f64)),
                    ("host_end_ns", Json::Num(s.host_end_ns as f64)),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("run", self.to_json()),
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            ("spans", Json::Arr(spans)),
        ]);
        let mut f = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("trace_{}.json", self.workload)),
        )?);
        f.write_all(doc.pretty().as_bytes())?;
        f.flush()
    }
}

/// `-- probe`: every layer probe on both runtimes.
pub fn probe_all(seed: u64, pinned: Option<usize>) {
    println!("layer probes (pinned to cpu: {pinned:?})");
    let link_us = storm::median_link_us(seed);
    type Probe = Box<dyn Fn(&mut Metrics)>;
    let sets: [(&str, Probe); 4] = [
        (
            "cpu probes, allocate frames, storm-sized table",
            Box::new(|m| probes::cpu_probes(Frames::Allocate, storm::SETTOPS_PLAIN, m)),
        ),
        (
            "codec, movie-open frames",
            Box::new(|m| probes::wire(Frames::MovieOpen, m)),
        ),
        (
            "simulator, median driver link (virtual us)",
            Box::new(move |m| probes::sim_rpc_probes(link_us, m)),
        ),
        (
            "TCP loopback (wall us)",
            Box::new(|m| probes::tcp_rpc_probes(true, m)),
        ),
    ];
    for (title, run) in sets {
        let mut m = Metrics::new();
        run(&mut m);
        println!("-- {title}");
        for (name, v) in m {
            let unit = PER_LAYER
                .iter()
                .find(|x| x.name == name)
                .map_or("", |x| x.unit);
            println!("   {:<34} {:>14}  {}", name, fmt_value(v), unit);
        }
    }
}

/// One set of runs: workload → metric → one value per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_set(path: &Path) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        if run.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let (Some(w), Some(Json::Obj(e2e))) = (
            run.get("workload").and_then(Json::str),
            run.get("end_to_end"),
        ) else {
            return Err(format!("{}:{}: not a run record", path.display(), n + 1));
        };
        for (k, v) in e2e {
            set.entry(w.to_string())
                .or_default()
                .entry(k.clone())
                .or_default()
                .extend(v.num());
        }
    }
    Ok(set)
}

/// `-- compare A B`: one row per workload × end-to-end metric with both
/// medians, the ratio with its base, and a verdict against the bound:
/// `ok`, `worse`, or `unresolved` when either set's own spread
/// (interquartile range ÷ median) is wider than the bound. Exits
/// non-zero when any row is `worse`.
pub fn compare(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load_set(a), load_set(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<15} {:>12} {:>12} {:>16} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "B/A (base A)",
        "spread A",
        "spread B",
        "bound"
    );
    let mut worse = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = |set: &RunSet| set.get(w.name).and_then(|x| x.get(m.name)).cloned();
            let (Some(va), Some(vb)) = (values(&a), values(&b)) else {
                println!("{:<15} {:<15} missing from one set", w.name, m.name);
                continue;
            };
            let spread = |v: &[f64]| {
                let (q1, q2, q3) = quartiles(v);
                if v.len() < 2 || q2 == 0.0 {
                    0.0
                } else {
                    (q3 - q1) / q2
                }
            };
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (spread(&va), spread(&vb));
            let change = if m.higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let exact = w.name.starts_with("sim_") && VIRTUAL_ON_SIM.contains(&m.name);
            let bound = if exact { VIRTUAL_BOUND } else { m.bound };
            let verdict = if !exact && sa.max(sb) > bound {
                "unresolved"
            } else if change > bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{:<15} {:<15} {:>12} {:>12} {:>7.4} ({:>6}) {:>8.4} {:>8.4} {:>6.2}  {}",
                w.name,
                m.name,
                fmt_value(ma),
                fmt_value(mb),
                mb / ma,
                fmt_value(ma),
                sa,
                sb,
                bound,
                verdict
            );
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
