#!/usr/bin/env bash
# Builds the standalone benchmark drivers in Release mode and writes the
# committed baseline reports at the repository root:
#   E13 incremental index      -> BENCH_pr4.json
#   E15 columnar execution     -> BENCH_pr7.json
#   E16 storage integrity      -> BENCH_pr8.json
#   E17 sharded topology       -> BENCH_pr9.json
#   E18 overload protection    -> BENCH_pr10.json
#
#   bench/run_bench.sh [e13-out [unused [e15-out [e16-out [e17-out [e18-out]]]]]]
#
# The second position was the retired E14 report (BENCH_pr6.json stays as
# history); it is still accepted and ignored so later positions keep their
# meaning.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
e13_out="${1:-$repo_root/BENCH_pr4.json}"
e15_out="${3:-$repo_root/BENCH_pr7.json}"
e16_out="${4:-$repo_root/BENCH_pr8.json}"
e17_out="${5:-$repo_root/BENCH_pr9.json}"
e18_out="${6:-$repo_root/BENCH_pr10.json}"
build_dir="$repo_root/build-bench"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$build_dir" --target bench_e13_incremental_index \
  bench_e15_columnar_exec \
  bench_e16_storage_integrity bench_e17_sharded_topology \
  bench_e18_overload -j >/dev/null

"$build_dir/bench/bench_e13_incremental_index" --out="$e13_out"
echo "wrote $e13_out"
"$build_dir/bench/bench_e15_columnar_exec" --out="$e15_out"
echo "wrote $e15_out"
"$build_dir/bench/bench_e16_storage_integrity" --out="$e16_out"
echo "wrote $e16_out"
"$build_dir/bench/bench_e17_sharded_topology" --out="$e17_out"
echo "wrote $e17_out"
"$build_dir/bench/bench_e18_overload" --out="$e18_out"
echo "wrote $e18_out"
