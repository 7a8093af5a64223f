#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): full release build, a clean clippy run,
# the complete workspace test suite, a pinned-seed chaos smoke — one
# seeded fault campaign must converge and two identically-seeded runs
# must replay the exact same event trace — a real-runtime chaos smoke
# (one process-group kill and one partition-heal over TCP loopback,
# time-bounded) — a telemetry smoke: a
# 1-settop run must produce a causal span dump whose movie-open tree
# crosses the MMS, Connection Manager and MDS — and bench guards over
# the committed E17/E18/E20/E21 artifacts (throughput, kernel fast path
# plus flight-recorder overhead, NS view-change latency, and measured
# availability/blackout windows under a fault storm), CM fail-over
# admission integrity (E22), controller fail-over placement integrity
# (E23: 0 lost / 0 doubled placements, exact replica audits,
# decision-blackout p99 bounds), the replicated-commit latency and the
# replica-to-replica traffic of the repo benchmark's `sim_repl_storm`
# workload, and the connections its `tcp_repl_admit` workload opens per
# admission.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo clippy -q --offline --workspace --all-targets -- -D warnings
cargo test --offline --workspace -q
cargo test --offline -p itv-cluster --test chaos -q -- \
    crash_and_restart_campaign_converges \
    same_seed_chaos_run_has_identical_trace_hash

# Real-runtime chaos smoke (E19): one cooperative kill plus one
# partition-heal cycle over actual TCP on loopback. Wall-clock timing is
# not reproducible, so the leg gets a hard 60 s timeout and one retry
# before it counts as a failure.
real_chaos_smoke() {
    timeout 60 cargo test --offline -p itv-cluster --features real_chaos \
        --test real_chaos -q -- --exact smoke_kill_and_partition_heal_cycle
}
if ! real_chaos_smoke; then
    echo "tier1: real chaos smoke failed once; retrying" >&2
    real_chaos_smoke
fi

# Telemetry smoke: E16 scrapes every node's Telemetry servant and dumps
# the causal span forest of a single settop's movie open. Run from a
# temp dir so the BENCH_e16.json it writes doesn't touch the committed
# artifact.
repo="$(pwd)"
tmp="$(mktemp -d)"
spans="$(cd "$tmp" && cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- e16)"
rm -rf "$tmp"
for needle in "client:itv.mms.open" "client:itv.cmgr.allocate" "client:itv.mds.open"; do
    if ! grep -qF "$needle" <<<"$spans"; then
        echo "tier1: telemetry smoke FAILED - span dump missing $needle" >&2
        exit 1
    fi
done

# Saturation smoke + bench guard: a small-population E17 must pass its
# built-in determinism and O(1)-admission assertions, and its virtual
# ops/sec — deterministic for a given settop count — must not regress
# more than 20% against the committed full-scale BENCH_e17.json.
# (ops/sec is virtual-time-derived, so the guard is machine-independent;
# the committed artifact is at 50k settops, the smoke at 4k, and the
# rate is scale-invariant by design — E17's point is that it is.)
tmp="$(mktemp -d)"
(cd "$tmp" && cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- \
    e17 --settops 4000 >/dev/null)
json_field() { # file key -> value
    grep -oE "\"$2\": [0-9.]+" "$1" | head -1 | awk '{print $2}'
}
fresh="$(json_field "$tmp/BENCH_e17.json" ops_per_sec)"
committed="$(json_field "$repo/BENCH_e17.json" ops_per_sec)"
rm -rf "$tmp"
if [ -z "$fresh" ] || [ -z "$committed" ]; then
    echo "tier1: bench guard FAILED - ops_per_sec missing from BENCH_e17.json" >&2
    exit 1
fi
if ! awk -v f="$fresh" -v c="$committed" 'BEGIN { exit !(f >= 0.8 * c) }'; then
    echo "tier1: bench guard FAILED - E17 ops/sec regressed >20%: $fresh vs committed $committed" >&2
    exit 1
fi
echo "tier1: E17 smoke ops/sec $fresh (committed $committed)"

# Sharded-kernel smoke: the same E17 storm on two kernel shards must
# replay the exact event trace of the 1-shard run. The experiment's own
# shard-equivalence leg asserts hash, op-count, virtual-elapsed and
# latency-histogram equality and records the verdict; the guard also
# demands the run really exercised the sharded path (horizon syncs and
# cross-shard messages both non-zero).
tmp="$(mktemp -d)"
(cd "$tmp" && cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- \
    e17 --settops 4000 --shards 2 >/dev/null)
if ! grep -qE '"shard_trace_equivalent": true' "$tmp/BENCH_e17.json"; then
    echo "tier1: sharded E17 smoke FAILED - 2-shard run did not match the 1-shard trace" >&2
    exit 1
fi
syncs="$(json_field "$tmp/BENCH_e17.json" horizon_syncs)"
xmsgs="$(json_field "$tmp/BENCH_e17.json" xshard_msgs)"
rm -rf "$tmp"
if [ -z "$syncs" ] || [ "$syncs" = "0" ] || [ -z "$xmsgs" ] || [ "$xmsgs" = "0" ]; then
    echo "tier1: sharded E17 smoke FAILED - sharded path not exercised (syncs=${syncs:-missing}, xshard=${xmsgs:-missing})" >&2
    exit 1
fi
echo "tier1: sharded E17 smoke trace-identical on 2 shards ($syncs horizon syncs, $xmsgs cross-shard msgs)"

# Kernel fast-path smoke + bench guard: a reduced-replay E18 must pass
# its built-in asserts (fast/slow trace equivalence on all three legs,
# same-seed rerun identical including the allocation count), and its
# deterministic fields must match the committed BENCH_e18.json exactly.
# The ping-pong leg doesn't scale with --settops, and its event count,
# events-per-virtual-ms and allocations-per-event are derived from
# virtual time and same-binary allocation behaviour — deterministic, so
# the equality check is machine-independent. Wall-clock events/sec and
# the fast/slow speedup are informational.
tmp="$(mktemp -d)"
(cd "$tmp" && cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- \
    e18 --settops 800 >/dev/null)
for key in trace_equivalent deterministic_rerun; do
    if ! grep -qE "\"$key\": true" "$tmp/BENCH_e18.json"; then
        echo "tier1: E18 smoke FAILED - $key is not true in the fresh run" >&2
        exit 1
    fi
done
for key in pp_events pp_events_per_virtual_ms pp_allocs_per_event_fast; do
    fresh="$(json_field "$tmp/BENCH_e18.json" "$key")"
    committed="$(json_field "$repo/BENCH_e18.json" "$key")"
    if [ -z "$fresh" ] || [ "$fresh" != "$committed" ]; then
        echo "tier1: E18 guard FAILED - $key: fresh ${fresh:-missing} != committed baseline ${committed:-missing} (BENCH_e18.json)" >&2
        exit 1
    fi
done
eps="$(json_field "$tmp/BENCH_e18.json" pp_events_per_sec_fast)"
speedup="$(json_field "$tmp/BENCH_e18.json" pp_speedup)"
committed_speedup="$(json_field "$repo/BENCH_e18.json" pp_speedup)"
# Journal-overhead guard: the always-on flight recorder must cost no
# more than 5% of ping-pong wall throughput at one write per volley
# (measured at 8x density and scaled down, so machine noise is damped;
# the ratio is same-run fresh-vs-fresh, not against the committed file).
overhead="$(json_field "$tmp/BENCH_e18.json" pp_journal_overhead_pct)"
# Shard-speedup guard: E18's replay leg reruns on 4 shards and asserts
# trace equality unconditionally; the wall-clock speedup is only
# meaningful with real cores under the shard threads, so on hosts with
# fewer than 4 the experiment records a skip reason instead and the
# guard honours it.
if ! grep -qE '"shard_trace_equivalent": true' "$tmp/BENCH_e18.json"; then
    echo "tier1: E18 guard FAILED - 4-shard replay did not match the 1-shard trace" >&2
    exit 1
fi
cores="$(nproc 2>/dev/null || echo 1)"
if [ "$cores" -ge 4 ]; then
    shard_speedup="$(json_field "$tmp/BENCH_e18.json" shard_speedup)"
    if [ -z "$shard_speedup" ] || ! awk -v s="$shard_speedup" 'BEGIN { exit !(s >= 2.0) }'; then
        echo "tier1: E18 guard FAILED - 4-shard replay speedup ${shard_speedup:-missing} not >= 2.0x on a $cores-core host" >&2
        exit 1
    fi
    echo "tier1: E18 shard guard ${shard_speedup}x replay speedup on 4 shards ($cores cores)"
else
    echo "tier1: E18 shard speedup guard SKIPPED - host has $cores core(s), need >= 4 (trace equality still verified)"
fi
rm -rf "$tmp"
if [ -z "$overhead" ] || ! awk -v o="$overhead" 'BEGIN { exit !(o <= 5.0) }'; then
    echo "tier1: E18 guard FAILED - journal overhead ${overhead:-missing}% exceeds 5%" >&2
    exit 1
fi
echo "tier1: E18 smoke ping-pong $eps ev/s wall-clock, ${speedup}x fast/slow, journal overhead ${overhead}% (informational committed baseline ${committed_speedup}x)"

# View-change smoke + bench guard: E20's simulator legs (the real-TCP
# leg is skipped with --sim-only to keep this deterministic and fast)
# must elect a new master after every primary kill, with a sub-second
# p99 under the deployed tuning. The committed full-run BENCH_e20.json
# must also carry the headline claim: view-change p99 under 2 s on both
# the tuned sim leg and the real TCP runtime (vs the paper's 25 s
# bound).
tmp="$(mktemp -d)"
(cd "$tmp" && timeout 120 cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- \
    e20 --sim-only >/dev/null)
fresh="$(json_field "$tmp/BENCH_e20.json" sim_view_change_p99_s)"
rm -rf "$tmp"
if [ -z "$fresh" ] || ! awk -v f="$fresh" 'BEGIN { exit !(f < 2.0) }'; then
    echo "tier1: E20 smoke FAILED - fresh sim view-change p99 ${fresh:-missing} not < 2.0 s" >&2
    exit 1
fi
for key in sim_view_change_p99_s real_view_change_p99_s; do
    committed="$(json_field "$repo/BENCH_e20.json" "$key")"
    if [ -z "$committed" ] || ! awk -v c="$committed" 'BEGIN { exit !(c < 2.0) }'; then
        echo "tier1: E20 guard FAILED - committed $key ${committed:-missing} not < 2.0 s (BENCH_e20.json)" >&2
        exit 1
    fi
done
echo "tier1: E20 smoke sim view-change p99 ${fresh}s (guard: < 2.0 s, paper bound 25 s)"

# Availability-audit smoke + bench guard: E21's simulator leg (the
# real-TCP leg is skipped with --sim-only) drives read/update probe
# streams through a standard fault storm (8 primary kills + 3 primary
# partitions) and must keep read availability at or above three nines
# with every update blackout window under 2 s at p99. The committed
# full-run BENCH_e21.json must carry the same blackout claim on both
# the sim and real TCP legs (vs the paper's 25 s fail-over bound).
tmp="$(mktemp -d)"
(cd "$tmp" && timeout 120 cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- \
    e21 --sim-only >/dev/null)
avail="$(json_field "$tmp/BENCH_e21.json" sim_availability)"
blackout="$(json_field "$tmp/BENCH_e21.json" sim_p99_blackout_s)"
rm -rf "$tmp"
if [ -z "$avail" ] || ! awk -v a="$avail" 'BEGIN { exit !(a >= 0.999) }'; then
    echo "tier1: E21 smoke FAILED - fresh sim read availability ${avail:-missing} not >= 0.999" >&2
    exit 1
fi
if [ -z "$blackout" ] || ! awk -v b="$blackout" 'BEGIN { exit !(b < 2.0) }'; then
    echo "tier1: E21 smoke FAILED - fresh sim p99 update blackout ${blackout:-missing}s not < 2.0 s" >&2
    exit 1
fi
for key in sim_p99_blackout_s real_p99_blackout_s; do
    committed="$(json_field "$repo/BENCH_e21.json" "$key")"
    if [ -z "$committed" ] || ! awk -v c="$committed" 'BEGIN { exit !(c < 2.0) }'; then
        echo "tier1: E21 guard FAILED - committed $key ${committed:-missing} not < 2.0 s (BENCH_e21.json)" >&2
        exit 1
    fi
done
echo "tier1: E21 smoke sim availability $avail, p99 update blackout ${blackout}s (guards: >= 0.999, < 2.0 s)"

# CM fail-over smoke + bench guard: E22 puts the Connection Manager's
# admission table through repeated primary kills. The fresh run must
# lose no committed allocation, double-book no retried one, keep every
# replica's audit consistent, and hold the deployed-tuning update
# blackout p99 under 2 s (the paper-timeout leg sits inside the paper's
# 25 s fail-over bound). The committed BENCH_e22.json must carry the
# same claims.
tmp="$(mktemp -d)"
(cd "$tmp" && timeout 240 cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- \
    e22 >/dev/null)
paper_p99="$(json_field "$tmp/BENCH_e22.json" repl_paper_blackout_p99_s)"
tuned_p99="$(json_field "$tmp/BENCH_e22.json" repl_blackout_p99_s)"
lost="$(json_field "$tmp/BENCH_e22.json" lost_allocs)"
doubled="$(json_field "$tmp/BENCH_e22.json" doubled_allocs)"
audit="$(grep -oE '"audit_consistent": (true|false)' "$tmp/BENCH_e22.json" | awk '{print $2}')"
rm -rf "$tmp"
if [ "$lost" != "0" ] || [ "$doubled" != "0" ] || [ "$audit" != "true" ]; then
    echo "tier1: E22 smoke FAILED - lost=${lost:-missing} doubled=${doubled:-missing} audit=${audit:-missing} (want 0/0/true)" >&2
    exit 1
fi
if [ -z "$paper_p99" ] || ! awk -v f="$paper_p99" 'BEGIN { exit !(f < 25.0) }'; then
    echo "tier1: E22 smoke FAILED - fresh paper-timeout blackout p99 ${paper_p99:-missing} not < 25 s" >&2
    exit 1
fi
if [ -z "$tuned_p99" ] || ! awk -v f="$tuned_p99" 'BEGIN { exit !(f < 2.0) }'; then
    echo "tier1: E22 smoke FAILED - fresh tuned blackout p99 ${tuned_p99:-missing} not < 2.0 s" >&2
    exit 1
fi
committed="$(json_field "$repo/BENCH_e22.json" repl_blackout_p99_s)"
if [ -z "$committed" ] || ! awk -v c="$committed" 'BEGIN { exit !(c < 2.0) }'; then
    echo "tier1: E22 guard FAILED - committed repl_blackout_p99_s ${committed:-missing} not < 2.0 s (BENCH_e22.json)" >&2
    exit 1
fi
echo "tier1: E22 smoke CM blackout p99 ${tuned_p99}s tuned / ${paper_p99}s paper, lost=$lost doubled=$doubled audit=$audit"

# Controller fail-over smoke + bench guard: E23 puts the controllers'
# replicated placement table through repeated primary kills (the real-TCP
# leg is skipped with --sim-only to keep this deterministic). The fresh
# run must lose no committed placement, re-decide no tokened retry or
# idempotent re-place, keep every replica's audit exact, and hold the
# deployed-tuning update blackout p99 under 2 s (the paper-timeout leg
# sits inside the paper's 25 s fail-over bound). The committed
# BENCH_e23.json must carry the same claims on the tuned sim AND the
# real TCP legs.
tmp="$(mktemp -d)"
(cd "$tmp" && timeout 240 cargo run --release --offline -q \
    --manifest-path "$repo/Cargo.toml" -p bench --bin experiments -- \
    e23 --sim-only >/dev/null)
paper_p99="$(json_field "$tmp/BENCH_e23.json" svc_paper_blackout_p99_s)"
tuned_p99="$(json_field "$tmp/BENCH_e23.json" svc_blackout_p99_s)"
lost="$(json_field "$tmp/BENCH_e23.json" lost_placements)"
doubled="$(json_field "$tmp/BENCH_e23.json" doubled_placements)"
audit="$(grep -oE '"audit_consistent": (true|false)' "$tmp/BENCH_e23.json" | awk '{print $2}')"
rm -rf "$tmp"
if [ "$lost" != "0" ] || [ "$doubled" != "0" ] || [ "$audit" != "true" ]; then
    echo "tier1: E23 smoke FAILED - lost=${lost:-missing} doubled=${doubled:-missing} audit=${audit:-missing} (want 0/0/true)" >&2
    exit 1
fi
if [ -z "$paper_p99" ] || ! awk -v f="$paper_p99" 'BEGIN { exit !(f < 25.0) }'; then
    echo "tier1: E23 smoke FAILED - fresh paper-timeout blackout p99 ${paper_p99:-missing} not < 25 s" >&2
    exit 1
fi
if [ -z "$tuned_p99" ] || ! awk -v f="$tuned_p99" 'BEGIN { exit !(f < 2.0) }'; then
    echo "tier1: E23 smoke FAILED - fresh tuned blackout p99 ${tuned_p99:-missing} not < 2.0 s" >&2
    exit 1
fi
for key in svc_blackout_p99_s svc_real_blackout_p99_s; do
    committed="$(json_field "$repo/BENCH_e23.json" "$key")"
    if [ -z "$committed" ] || ! awk -v c="$committed" 'BEGIN { exit !(c < 2.0) }'; then
        echo "tier1: E23 guard FAILED - committed $key ${committed:-missing} not < 2.0 s (BENCH_e23.json)" >&2
        exit 1
    fi
done
echo "tier1: E23 smoke controller blackout p99 ${tuned_p99}s tuned / ${paper_p99}s paper, lost=$lost doubled=$doubled audit=$audit"

# Replicated-commit guard on the repo benchmark (benchmark/README.md):
# two seconds of `sim_repl_storm` — 16 closed-loop clients admitting
# through one 3-replica CM group — must fail no op and keep the admission
# p50 at one client round trip plus ONE replica round trip. The number is
# virtual time, exact for a seed: 1,984 us since the prepares go out
# concurrently (it was 2,984 with two sequential round trips), so the
# 2,200 us ceiling trips on any return to per-peer blocking calls.
# The same run pins the log's traffic, which virtual time makes exact
# too: 2.0153 replica-to-replica calls per commit (one prepare to each
# of two backups, plus heartbeats) and 9.4459 messages per op. The
# ceilings trip, on any host, on a driver that broadcasts twice or
# re-sends on the commit path.
tmp="$(mktemp -d)"
cargo run --release --offline --quiet --manifest-path "$repo/benchmark/Cargo.toml" -- \
    run --workload sim_repl_storm --seconds 2 --trace 0 --out "$tmp/repl.jsonl" >/dev/null
p50="$(json_field "$tmp/repl.jsonl" op_p50_us)"
failed="$(json_field "$tmp/repl.jsonl" failed)"
peer_calls="$(json_field "$tmp/repl.jsonl" ocs-vsr.peer_calls_per_commit)"
msgs="$(json_field "$tmp/repl.jsonl" ocs-sim.msgs_per_op)"
correct="$(grep -oE '"correct": (true|false)' "$tmp/repl.jsonl" | head -1 | awk '{print $2}')"
rm -rf "$tmp"
if [ "$failed" != "0" ] || [ "$correct" != "true" ]; then
    echo "tier1: sim_repl_storm guard FAILED - failed=${failed:-missing} correct=${correct:-missing} (want 0/true)" >&2
    exit 1
fi
if [ -z "$p50" ] || ! awk -v p="$p50" 'BEGIN { exit !(p <= 2200) }'; then
    echo "tier1: sim_repl_storm guard FAILED - admission op_p50_us ${p50:-missing} exceeds 2200" >&2
    exit 1
fi
if [ -z "$peer_calls" ] || ! awk -v c="$peer_calls" 'BEGIN { exit !(c <= 2.05) }'; then
    echo "tier1: sim_repl_storm guard FAILED - ${peer_calls:-missing} peer calls per commit (want <= 2.05)" >&2
    exit 1
fi
if [ -z "$msgs" ] || ! awk -v m="$msgs" 'BEGIN { exit !(m <= 9.5) }'; then
    echo "tier1: sim_repl_storm guard FAILED - ${msgs:-missing} messages per op (want <= 9.5)" >&2
    exit 1
fi
echo "tier1: sim_repl_storm admission p50 ${p50} us, $peer_calls peer calls/commit, $msgs msgs/op, failed=$failed (guard: <= 2200 us, <= 2.05, <= 9.5, 0 failed)"

# Connection-reuse guard on the same benchmark: two traced seconds of
# `tcp_repl_admit` — the same log over TCP loopback — must fail no op and
# open (almost) no connection per admission: a node keeps one stream per
# peer for life, so the whole timed phase opens none. The guard is a
# count, not a wall clock: a return to a connection per ORB call reads
# 5.9 here on any host, busy or not.
tmp="$(mktemp -d)"
cargo run --release --offline --quiet --manifest-path "$repo/benchmark/Cargo.toml" -- \
    run --workload tcp_repl_admit --seconds 2 --trace 1 --out "$tmp/admit.jsonl" >/dev/null
conns="$(json_field "$tmp/admit.jsonl" ocs-sim.tcp_conns_per_op)"
failed="$(json_field "$tmp/admit.jsonl" failed)"
correct="$(grep -oE '"correct": (true|false)' "$tmp/admit.jsonl" | head -1 | awk '{print $2}')"
rm -rf "$tmp"
if [ "$failed" != "0" ] || [ "$correct" != "true" ]; then
    echo "tier1: tcp_repl_admit guard FAILED - failed=${failed:-missing} correct=${correct:-missing} (want 0/true)" >&2
    exit 1
fi
if [ -z "$conns" ] || ! awk -v c="$conns" 'BEGIN { exit !(c <= 0.1) }'; then
    echo "tier1: tcp_repl_admit guard FAILED - ${conns:-missing} connections opened per admission (want <= 0.1)" >&2
    exit 1
fi
echo "tier1: tcp_repl_admit $conns connections per admission, failed=$failed (guard: <= 0.1, 0 failed)"

echo "tier1: OK"
