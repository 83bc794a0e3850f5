#!/usr/bin/env sh
# Local CI chain for nemtcam. Run from the repo root:
#
#   tools/ci.sh
#
# Stages:
#   1. release build (preset `release`) + full ctest
#   2. ASan/UBSan build (preset `asan`) + the `robustness`, `hier`,
#      `array`, `lifetime`, `sta`, `paper`, `tcam`, `netlist` and `solver`
#      test labels (recovery ladder, elaboration, coupled-array search,
#      multi-rate engine, static analysis, the pinned paper figures, every
#      design's row writes on the replayed write template, whose cells'
#      device pointers live across writes, the netlist parser's error
#      paths, and the solver's unit oracles — the LU refactorization and
#      the assembly-cache replay are raw index arithmetic — under the
#      sanitizers)
#   3. TSan build (preset `tsan`) + the `threads` and `solver` labels.
#      `threads` (test_util, test_sweep) holds the repo's only concurrency:
#      ThreadPool, run_sweep and run_sweep_guarded. The `solver` label
#      starts no thread; it checks that the solver runs clean under the
#      TSan instrumentation
#   4. lint build (preset `lint`): -Wall -Wextra -Wshadow -Werror, plus
#      clang-tidy when installed (the CMake option degrades gracefully);
#      first, no file under src/ but src/util/ThreadPool.cpp (which reads
#      NEMTCAM_THREADS) may call getenv — the simulator has one
#      configuration, with no process-wide switch (plain grep, so the
#      check needs no .git directory)
#   5. static ERC + STA margin rules over the shipped example decks
#      (including the hierarchical .subckt deck) via
#      nemtcam_lint --sta --werror
#   6. bench smokes: the CI-sized datacenter-lifetime sweep
#      (bench_lifetime --smoke) and the STA bracketing/speedup gate
#      (bench_sta --smoke) must complete with their internal gates green,
#      and the two Monte-Carlo sweeps must print the same table at
#      NEMTCAM_THREADS=1 and =4: the RRAM-variation A1 table
#      (bench_ablation_variation) and the relay-threshold A5 refresh-yield
#      table (bench_ablation_relay_variation), whose trials each draw their
#      thresholds in a per-replay hook of their own row
#   7. perfbench smoke: perfbench/driver.cpp compiles against the
#      row and array search templates and the solver's telemetry, yet no
#      other stage builds it; perfbench/run.py builds it (Release, under
#      .bench_build/) and runs each of its four workloads for 2 s at seed
#      1, whose JSON result must read "correct": true with 0 failed ops
#
# Fails fast on the first broken stage.
set -eu

cd "$(dirname "$0")/.."

echo "==== [1/7] release build + tests ===="
cmake --preset release
cmake --build --preset release -j
ctest --preset all -j

echo "==== [2/7] asan build + sanitizer test labels" \
     "(robustness/hier/array/lifetime/sta/paper/tcam/netlist/solver) ===="
cmake --preset asan
cmake --build --preset asan -j
ctest --preset robustness-asan -j
ctest --preset hier-asan -j
ctest --preset array-asan -j
ctest --preset lifetime-asan -j
ctest --preset sta-asan -j
ctest --preset paper-asan -j
ctest --preset tcam-asan -j
ctest --preset netlist-asan -j
ctest --preset solver-asan -j

echo "==== [3/7] tsan build + threads/solver labels ===="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --preset threads-tsan -j
ctest --preset solver-tsan -j

echo "==== [4/7] no getenv outside the thread pool + lint build" \
     "(-Werror, clang-tidy if installed) ===="
getenv_calls=$(grep -rn getenv src | grep -v '^src/util/ThreadPool\.cpp:' ||
               true)
if [ -n "$getenv_calls" ]; then
  echo "getenv outside src/util/ThreadPool.cpp (no process-wide switches):" >&2
  printf '%s\n' "$getenv_calls" >&2
  exit 1
fi
cmake --preset lint
cmake --build --preset lint -j

echo "==== [5/7] ERC + STA margins over example decks (warnings are errors) ===="
build/tools/nemtcam_lint --sta --werror examples/decks/*.sp

echo "==== [6/7] bench smokes (lifetime sweep, STA gate, A1/A5 determinism) ===="
(cd build/bench && ./bench_lifetime --smoke)
(cd build/bench && ./bench_sta --smoke)
# The table a sweep bench prints at a given thread count, from the line
# matching the first pattern through the line matching the second.
# Usage: sweep_table <bench> <threads> <first> <last>
sweep_table() {
  (cd build/bench && NEMTCAM_THREADS="$2" "./$1") | sed -n "/$3/,/$4/p"
}
# Fails the chain unless the table is the same at 1 and 4 threads.
# Usage: same_at_1_and_4_threads <bench> <table> <first> <last>
same_at_1_and_4_threads() {
  serial=$(sweep_table "$1" 1 "$3" "$4")
  pooled=$(sweep_table "$1" 4 "$3" "$4")
  if [ -z "$serial" ] || [ "$serial" != "$pooled" ]; then
    echo "$1: $2 table differs between NEMTCAM_THREADS=1 and =4" >&2
    printf '%s\n--- NEMTCAM_THREADS=4 ---\n%s\n' "$serial" "$pooled" >&2
    exit 1
  fi
  printf '%s\n(identical at NEMTCAM_THREADS=1 and =4)\n' "$serial"
}
same_at_1_and_4_threads bench_ablation_variation A1 \
  '^Ablation A1' '^3T2N matched-ML margin'
same_at_1_and_4_threads bench_ablation_relay_variation A5 \
  '^Ablation A5' '^The 30 mV gap'

echo "==== [7/7] perfbench smoke (all four workloads) ===="
# perfbench_driver exits 3 when one of the NEMTCAM_* variables it lists
# is set (no code reads them any more), so this last stage clears them.
for v in $(env | sed -n 's/^\(NEMTCAM_[A-Z0-9_]*\)=.*/\1/p'); do unset "$v"; done
for w in row_search row_update array_search lifetime; do
  result=$(python3 perfbench/run.py --workload "$w" --seed 1 --seconds 2 |
           tail -n 1)
  if ! printf '%s' "$result" | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' 2>/dev/null; then
    echo "perfbench $w: want \"correct\": true and 0 failed ops, got: $result" >&2
    exit 1
  fi
  echo "perfbench $w: correct, 0 failed ops"
done

echo "==== ci.sh: all stages passed ===="
