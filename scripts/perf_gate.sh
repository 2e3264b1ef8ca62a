#!/usr/bin/env bash
# Throughput regression gate over the committed threaded-PS bench artifact.
#
# Reads the derived metrics of BENCH_threaded.json (or the file given as
# $1) and fails if any pinned floor is broken:
#
#   speedup_8w_4s_vgg           >= 4.3   end-to-end speedup of the
#                                        8-worker 4-shard VGG cell over
#                                        the single-threaded seed rate
#   shard_scaling_8w_4s_over_1s >  1.0   4 shards must out-run 1 shard —
#                                        shard count stays a positive
#                                        scaling knob
#   pull_pipelining_deep_prophet_over_fifo
#                               >= 1.25  on the message-bound deep stack
#                                        (66 small tensors, 4w/2s),
#                                        Prophet must out-run FIFO —
#                                        the runtime lets the scheduler
#                                        keep several pulls in flight
#
# The floors are pinned here, not derived from a previous run: a bench
# regeneration that lands slower numbers in the artifact fails CI loudly
# instead of silently re-baselining. Bump them deliberately, with the
# optimisation that earns it, in the same commit.
set -euo pipefail
cd "$(dirname "$0")/.."

artifact="${1:-BENCH_threaded.json}"
speedup_floor="4.3"
scaling_floor="1.0"
pipelining_floor="1.25"

if [[ ! -f "$artifact" ]]; then
    echo "perf gate: $artifact missing (run: cargo bench -p prophet-bench --bench threaded)" >&2
    exit 1
fi

speedup=$(jq -r '.derived.speedup_8w_4s_vgg // empty' "$artifact")
scaling=$(jq -r '.derived.shard_scaling_8w_4s_over_1s // empty' "$artifact")
pipelining=$(jq -r '.derived.pull_pipelining_deep_prophet_over_fifo // empty' "$artifact")

if [[ -z "$speedup" || -z "$scaling" || -z "$pipelining" ]]; then
    echo "perf gate: $artifact lacks derived.speedup_8w_4s_vgg / derived.shard_scaling_8w_4s_over_1s / derived.pull_pipelining_deep_prophet_over_fifo" >&2
    exit 1
fi

fail=0
if ! awk -v v="$speedup" -v f="$speedup_floor" 'BEGIN { exit !(v >= f) }'; then
    echo "perf gate FAIL: speedup_8w_4s_vgg = $speedup < floor $speedup_floor" >&2
    fail=1
fi
if ! awk -v v="$scaling" -v f="$scaling_floor" 'BEGIN { exit !(v > f) }'; then
    echo "perf gate FAIL: shard_scaling_8w_4s_over_1s = $scaling <= floor $scaling_floor" >&2
    fail=1
fi
if ! awk -v v="$pipelining" -v f="$pipelining_floor" 'BEGIN { exit !(v >= f) }'; then
    echo "perf gate FAIL: pull_pipelining_deep_prophet_over_fifo = $pipelining < floor $pipelining_floor" >&2
    fail=1
fi
if [[ "$fail" -ne 0 ]]; then
    exit 1
fi

echo "perf gate OK: speedup_8w_4s_vgg = $speedup (floor $speedup_floor), shard_scaling_8w_4s_over_1s = $scaling (floor $scaling_floor), pull_pipelining_deep_prophet_over_fifo = $pipelining (floor $pipelining_floor)"
