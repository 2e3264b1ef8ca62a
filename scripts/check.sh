#!/usr/bin/env bash
# The tier-1 gate, exactly as CI runs it. Everything is offline: external
# dependencies are vendored under vendor/ as path crates, so no registry
# access is needed (or attempted).
#
# Usage: check.sh [all|debug|release]
#   debug    fmt + clippy + debug-profile tests (invariant checking on; the
#            slowest simulation suites are `#[cfg_attr(debug_assertions,
#            ignore)]` so this tier stays fast)
#   release  release build + release-profile tests with `--include-ignored`
#            (the trimmed suites at full iteration counts)
#   all      both tiers (default)
set -euo pipefail
cd "$(dirname "$0")/.."

tier="${1:-all}"

if [[ "$tier" == "all" || "$tier" == "debug" ]]; then
    echo "==> cargo fmt --check"
    cargo fmt --all -- --check

    echo "==> cargo clippy (-D warnings)"
    cargo clippy --offline --workspace --all-targets -- -D warnings

    echo "==> cargo test (debug tier)"
    cargo test --offline -q

    # PROPHET_RESULTS_DIR: don't clobber the committed 200-plan artifacts.
    for sweep in ext_chaos ext_elastic ext_integrity; do
        echo "==> $sweep smoke (seed 42, 2 plans per strategy)"
        PROPHET_RESULTS_DIR="$(mktemp -d)" \
            cargo run --offline -q -p prophet-bench --bin repro -- "$sweep" 42 2 > /dev/null
    done

    echo "==> bench smoke (criterion --test mode, no artifacts)"
    # Single-sample pass over the first scale point: compiles the bench
    # harnesses and exercises both engines without touching BENCH_*.json.
    cargo bench --offline -q -p prophet-bench --bench maxmin_scale -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench sim_scale -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench threaded -- --test > /dev/null
    cargo bench --offline -q -p prophet-bench --bench plan_cost -- --test > /dev/null

    echo "==> perf gate (pinned floors over BENCH_threaded.json)"
    ./scripts/perf_gate.sh
fi

if [[ "$tier" == "all" || "$tier" == "release" ]]; then
    echo "==> cargo build --release"
    cargo build --offline --release

    echo "==> cargo test --release (full tier)"
    # --lib/--bins/--tests: `--include-ignored` must not reach doctests
    # (vendored crates mark non-compiling examples `ignore`); doctests
    # already ran in the debug tier. This tier also picks up the full
    # chaos sweeps in tests/chaos_search.rs (transient, churn, corruption
    # and all-ten-kinds, across the scheduler lineup) behind their
    # `#[cfg_attr(debug_assertions, ignore)]` gates.
    cargo test --offline --release -q --lib --bins --tests -- --include-ignored

    for sweep in ext_chaos ext_elastic ext_integrity; do
        echo "==> $sweep sweep (seed 42, 50 plans per strategy)"
        PROPHET_RESULTS_DIR="$(mktemp -d)" \
            cargo run --offline --release -q -p prophet-bench --bin repro -- "$sweep" 42 50 > /dev/null
    done
fi

echo "==> OK ($tier)"
