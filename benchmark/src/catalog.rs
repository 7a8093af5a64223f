//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is `-- manifest` output, so the two cannot drift.

use crate::util::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

/// In the order a full run executes them: simulator runs sit between
/// the two TCP workloads, so that where a round cannot have a network
/// namespace of its own each starts from a calmer TIME-WAIT table.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tcp_movie_open",
        why: "resolve+open+play over TCP with the log off the path: ORB, transport, MMS, MDS changes show; VSR changes must not",
    },
    Workload {
        name: "sim_storm",
        why: "E17 admission storm on unreplicated CMs: kernel, ORB, codec, resolve cache, CM bookkeeping do all the work; the log does none",
    },
    Workload {
        name: "sim_repl_storm",
        why: "same storm through one 3-replica CM group: every op is a VSR commit under 16 clients; batching, pipelining, read leases show here",
    },
    Workload {
        name: "sim_failover",
        why: "same group, primary killed 120 times under open-loop probes: a log change must not buy throughput with blackout",
    },
    Workload {
        name: "tcp_repl_admit",
        why: "same log over TCP loopback where virtual time hides nothing: threads, sockets, connection per call, writes beside reads",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: 0.0,
    }
}

/// Every workload reports every one of these (README, "End-to-end
/// metrics", says what the op and the read of each workload are).
///
/// Bounds: every metric that is wall-clock on some workload gets the
/// widest bound the contract allows — twice the spread measured over a
/// busy hour on the shared host (6–18 %; README, "Spread and bounds").
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("op_p50_us", "us", false, 0.25),
    e2e("op_p90_us", "us", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("read_p50_us", "us", false, 0.25),
    e2e("host_us_per_op", "us", false, 0.25),
    e2e("cpu_us_per_op", "us", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.20),
];

/// On `sim_*` these four are virtual time: they repeat exactly for a
/// seed, so `compare` holds them to this bound instead (it only
/// forgives trivia) and skips the spread test — what differs between
/// the runs of a set is the seed, not noise. `BENCHMARK.json` can carry
/// only one bound per metric name, so the driver sees the wider one.
pub const VIRTUAL_BOUND: f64 = 0.02;
pub const VIRTUAL_ON_SIM: [&str; 4] = ["op_p50_us", "op_p90_us", "ops_per_s", "read_p50_us"];

/// `<crate>.<metric>`; 0 on a workload whose path the layer is not on.
pub const PER_LAYER: [Metric; 51] = [
    layer("ocs-sim.host_ns_per_event", "ns", false),
    layer("ocs-sim.events_per_op", "count", false),
    layer("ocs-sim.switches_per_event", "count", false),
    layer("ocs-sim.msgs_per_op", "count", false),
    layer("ocs-sim.allocs_per_event", "count", false),
    layer("ocs-sim.pingpong_ns_per_event", "ns", false),
    layer("ocs-sim.tcp_conns_per_op", "count", false),
    layer("ocs-sim.tw_at_start", "count", false),
    layer("ocs-sim.tw_at_end", "count", false),
    layer("ocs-sim.tcp_frame_rtt_us", "us", false),
    layer("ocs-wire.encode_ns", "ns", false),
    layer("ocs-wire.decode_ns", "ns", false),
    layer("ocs-wire.bytes_per_op", "B", false),
    layer("ocs-orb.echo_rtt_us", "us", false),
    layer("ocs-orb.echo_cost_us", "us", false),
    layer("ocs-orb.calls_per_op", "count", false),
    layer("ocs-orb.retries_per_op", "count", false),
    layer("ocs-orb.sheds_per_op", "count", false),
    layer("ocs-orb.breaker_opens", "count", false),
    layer("ocs-orb.allocs_per_call", "count", false),
    layer("ocs-name.resolve_us", "us", false),
    layer("ocs-name.bind_us", "us", false),
    layer("ocs-name.cache_hit_ratio", "ratio", true),
    layer("ocs-name.lookups_per_op", "count", false),
    layer("ocs-name.rebind_self_us", "us", false),
    layer("ocs-vsr.core_commit_ns", "ns", false),
    layer("ocs-vsr.peer_calls_per_commit", "count", false),
    layer("ocs-vsr.follower_lag_ops", "count", false),
    layer("ocs-vsr.view_changes", "count", false),
    layer("ocs-vsr.commit_self_us", "us", false),
    layer("itv-media.cmtable_apply_ns", "ns", false),
    layer("itv-media.cm_allocate_ns", "ns", false),
    layer("itv-media.cm_refused_ratio", "ratio", false),
    layer("itv-media.mms_open_us", "us", false),
    layer("itv-media.mds_play_us", "us", false),
    layer("itv-media.mms_close_us", "us", false),
    layer("itv-media.mds_first_segment_ms", "ms", false),
    layer("ocs-telemetry.span_record_ns", "ns", false),
    layer("ocs-telemetry.counter_inc_ns", "ns", false),
    layer("ocs-telemetry.spans_dropped", "count", false),
    layer("bench.op_p99_us", "us", false),
    layer("bench.trace_overhead_pct", "%", false),
    layer("bench.unattributed_us", "us", false),
    layer("bench.fail_ratio", "ratio", false),
    layer("bench.blackout_p50_ms", "ms", false),
    layer("bench.blackout_p90_ms", "ms", false),
    layer("bench.failover_probes", "count", true),
    layer("bench.rounds", "count", true),
    layer("bench.pinned", "count", true),
    layer("bench.netns", "count", true),
    layer("bench.tw_wait_s", "s", false),
];

/// How long one run measures, and the command the driver appends
/// `--workload W --seed S --seconds N --trace 0|1` to.
pub const RUN_SECONDS: u64 = 15;
const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

fn better(m: &Metric) -> Json {
    Json::Str(if m.higher { "higher" } else { "lower" }.into())
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::Str((*s).into())).collect()),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
