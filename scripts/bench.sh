#!/usr/bin/env bash
# Performance benchmarks for the trial engine and the kernel VM.
#
# Runs the criterion-compat `decision_search` and `kernel_execution`
# benches, then the `bench_search` binary, which times the full tune
# pipeline wall-clock (min over several runs — the robust statistic on a
# noisy host), reports charged trials and the trial-engine cache
# hit-rate, and writes the results to BENCH_search.json at the repo
# root (the pre-trial-engine number rides along as
# `before_us_other_host`: it is from another machine, so no speedup is
# derived from it). The `bench_kernel` binary then times one
# provably-disjoint gemm kernel with its buffers at f64, f32 and f16,
# each sequentially and at each parallel thread budget (asserting
# bit-equal outputs), and writes BENCH_kernel.json, recording
# `host_cores` so the speedup column is honest for the machine it ran on.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench --offline -p prescaler-bench --bench decision_search
cargo bench --offline -p prescaler-bench --bench kernel_execution

# A min-of-N needs a real sample: never record fewer than 3 runs.
iters="${1:-5}"
if [ "$iters" -lt 3 ]; then
    echo "bench.sh: clamping iterations ${iters} -> 3 (min-of-N needs a sample)" >&2
    iters=3
fi
cargo run --release --offline -p prescaler-bench --bin bench_search "$iters"
cargo run --release --offline -p prescaler-bench --bin bench_kernel "$iters"

echo
echo "=== BENCH_search.json ==="
cat BENCH_search.json
echo
echo "=== BENCH_kernel.json ==="
cat BENCH_kernel.json
