#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md): full release build (the workspace and
# the repo benchmark, a workspace of its own), a clean clippy run, the
# complete workspace test suite, a real-runtime chaos smoke, and the
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

cargo build --release --offline --workspace
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# The feature-gated real-runtime suites are compiled (not run) here, so
# a change to what they build fails the gate.
cargo clippy -q --offline --workspace --all-targets \
    --features ocs-ras/real_chaos,ocs-svcctl/real_chaos,itv-cluster/real_chaos -- -D warnings
cargo test --offline --workspace -q
# Both runtimes switch process stacks with unsafe code (ocs-sim's only,
# with the real runtime's epoll calls); its tests run optimized too,
# where the compiler is freest.
cargo test --release --offline -p ocs-sim -q

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

# Do the numbers still hold? One line per guard; non-zero if any failed.
timeout 600 target/release/experiments check

echo "tier1: OK"
