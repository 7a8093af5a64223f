#!/usr/bin/env bash
# The mutation corpus: each `tests/mutants/<name>.patch` plants one bug
# again that a test was written to catch. Its header names the command
# that runs that test, the test, and what must happen to it:
#
#   # command: cargo test --offline -p ocs-sim --test group_lifetime
#   # test: sim_a_killed_group_keeps_nothing
#   # expect: caught        (the test must fail)
#   # expect: missed        (a known gap: the test must still pass)
#
# Every patch is applied in turn to one copy of the workspace, kept under
# target/mutants/tree with a target dir of its own, so each run rebuilds
# only what the patch touches. The copy is brought up to date with the
# working tree first, file by file and only where the content differs.
# A patch that no longer applies fails the script: re-cut it against the
# code that moved.
#
#   scripts/mutants.sh               # the whole corpus
#   scripts/mutants.sh join_ignores_the_kill ...   # some of it, by name
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
work=$root/target/mutants
tree=$work/tree
export CARGO_TARGET_DIR=$work/target
# The copy lies inside this repository's work tree, where `git apply`
# would patch paths relative to the repository root, not to the copy.
export GIT_CEILING_DIRECTORIES=$work
mkdir -p "$tree" "$work/logs"

# Bring the copy up to date with what the workspace builds from, and
# with the committed artifacts and EXPERIMENTS.md that bench's render
# test reads (a checkout or an exported tree alike: no git metadata is
# read).
find Cargo.toml Cargo.lock src crates examples tests vendor EXPERIMENTS.md BENCH_e*.json \
    -type f | sort >"$work/want"
while read -r f; do
    if ! cmp -s "$f" "$tree/$f"; then
        mkdir -p "$tree/$(dirname "$f")"
        cp "$f" "$tree/$f"
    fi
done <"$work/want"
(cd "$tree" && find . -type f | sed 's|^\./||' | sort) >"$work/have"
comm -13 "$work/want" "$work/have" | while read -r f; do rm -f "$tree/$f"; done

header() { sed -n "s/^# $1: //p" "$2" | head -n 1; }

if [ $# -gt 0 ]; then
    patches=()
    for name in "$@"; do patches+=("tests/mutants/$name.patch"); done
else
    patches=(tests/mutants/*.patch)
fi

failed=0
caught=0
missed=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    cmd=$(header command "$patch")
    test=$(header test "$patch")
    expect=$(header expect "$patch")
    if [ -z "$cmd" ] || [ -z "$test" ] || [ -z "$expect" ]; then
        echo "mutants: $name: header lacks command, test or expect" >&2
        failed=$((failed + 1))
        continue
    fi
    if ! (cd "$tree" && git apply --check "$root/$patch" 2>"$work/logs/$name.apply"); then
        echo "mutants: $name: NO LONGER APPLIES (re-cut it):" >&2
        cat "$work/logs/$name.apply" >&2
        failed=$((failed + 1))
        continue
    fi
    (cd "$tree" && git apply "$root/$patch")
    start=$SECONDS
    set +e
    (cd "$tree" && eval "$cmd") >"$work/logs/$name.log" 2>&1
    status=$?
    set -e
    (cd "$tree" && git apply -R "$root/$patch")
    took=$((SECONDS - start))
    log=$work/logs/$name.log
    if grep -Eq "^test (.*::)?$test \.\.\. FAILED$" "$log"; then
        verdict=caught
    elif [ $status -eq 0 ] && grep -Eq "^test (.*::)?$test \.\.\. ok$" "$log"; then
        verdict=missed
    else
        verdict="not run (exit $status; see $log)"
    fi
    if [ "$verdict" = "$expect" ]; then
        echo "mutants: $name: $verdict by $test, as expected (${took}s)"
        [ "$verdict" = caught ] && caught=$((caught + 1)) || missed=$((missed + 1))
    else
        echo "mutants: $name: $verdict, expected $expect by $test (${took}s)" >&2
        failed=$((failed + 1))
    fi
done

echo "mutants: $caught caught, $missed missed as expected, $failed wrong"
[ $failed -eq 0 ]
