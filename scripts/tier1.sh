#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): full release build (the workspace and
# the repo benchmark, a workspace of its own), a clean clippy run, the
# complete workspace test suite, the mutation corpus, a real-runtime
# chaos smoke, and the
# bench guards — one table, `GUARDS` in crates/bench/src/check.rs, that
# `experiments check` evaluates against fresh runs of the experiments
# and benchmark workloads its rows name, and against the committed
# BENCH_e*.json.
set -euo pipefail
cd "$(dirname "$0")/.."

# The gate leaves `benchmark/` as it found it: cargo rewrites a stale
# benchmark/Cargo.lock on every build, and only a benchmark PR may
# change a file in there. Whatever else differs there gets a warning.
lock_aside=$(mktemp)
cp benchmark/Cargo.lock "$lock_aside"
leave_benchmark_as_found() {
    cp "$lock_aside" benchmark/Cargo.lock
    rm -f "$lock_aside"
    if [ -n "$(git status --porcelain -- benchmark BENCHMARK.json)" ]; then
        echo "tier1: WARNING: benchmark/ or BENCHMARK.json differs from HEAD:" >&2
        git status --porcelain -- benchmark BENCHMARK.json >&2
    fi
}
trap leave_benchmark_as_found EXIT

# Each step's wall time, printed as it ends and again, with the total,
# after the last.
timings=()
gate_start=$SECONDS
step() {
    local name=$1 start=$SECONDS
    shift
    "$@"
    timings+=("$(printf '%5d s  %s' $((SECONDS - start)) "$name")")
    echo "tier1: ${timings[-1]}" >&2
}

step "build" cargo build --release --offline --workspace
step "build benchmark" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# The feature-gated real-runtime suites are compiled (not run) here, so
# a change to what they build fails the gate.
step "clippy" cargo clippy -q --offline --workspace --all-targets \
    --features ocs-ras/real_chaos,ocs-svcctl/real_chaos,itv-cluster/real_chaos -- -D warnings
step "test workspace" cargo test --offline --workspace -q
# Both runtimes switch process stacks with unsafe code (ocs-sim's only,
# with the real runtime's epoll calls); its tests, and the ORB's, whose
# requests run where they land on both runtimes' switched stacks, run
# optimized too, where the compiler is freest.
step "test ocs-sim, ocs-orb release" cargo test --release --offline -p ocs-sim -p ocs-orb -q
# The replicated log's model harness at depth (the default 64 cases above
# are shallow): 100,000 schedules per machine for groups of three, and
# 40,000 for groups of five, the smallest whose recovery poll may end
# without every peer (about 7 s and 5 s on 2 vCPUs).
step "model, groups of three" env PROPTEST_CASES=100000 \
    cargo test --release --offline -p ocs-vsr --test model -q agrees -- --skip of_five
step "model, groups of five" env PROPTEST_CASES=40000 \
    cargo test --release --offline -p ocs-vsr --test model -q of_five_agrees
# The mutation corpus (tests/mutants/): each bug a test was written to
# catch, planted again in a copy of the tree under target/mutants, must
# still fail that test; a patch that no longer applies fails the gate.
step "mutants" scripts/mutants.sh

# Real-runtime chaos smoke (E19): one cooperative kill plus one
# partition-heal cycle over actual TCP on loopback, and a fault plan whose
# every action the TCP postmortem must list. Wall-clock timing is not
# reproducible, so the leg gets a hard 60 s timeout and one retry before
# it counts as a failure.
real_chaos_smoke() {
    timeout 60 cargo test --offline -p itv-cluster --features real_chaos \
        --test real_chaos -q -- --exact smoke_kill_and_partition_heal_cycle \
        postmortem_lists_injected_faults_in_order_on_tcp
}
real_chaos_smoke_with_retry() {
    if ! real_chaos_smoke; then
        echo "tier1: real chaos smoke failed once; retrying" >&2
        real_chaos_smoke
    fi
}
step "real chaos smoke" real_chaos_smoke_with_retry

# Do the numbers still hold? One line per guard; non-zero if any failed.
step "experiments check" timeout 600 target/release/experiments check

printf 'tier1: %s\n' "${timings[@]}" >&2
printf 'tier1: %5d s  total\n' $((SECONDS - gate_start)) >&2
echo "tier1: OK"
