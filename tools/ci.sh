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
#      ThreadPool::parallel_for, whose workers and caller claim indices
#      from one shared counter, and run_sweep and run_sweep_guarded on top
#      of it. The `solver` label starts no thread; it checks that the
#      solver runs clean under the TSan instrumentation
#   4. lint build (preset `lint`): -Wall -Wextra -Wshadow -Werror, plus
#      clang-tidy when installed (the CMake option degrades gracefully);
#      first, no file under src/ but src/util/ThreadPool.cpp (which reads
#      NEMTCAM_THREADS) may call getenv — the simulator has one
#      configuration, with no process-wide switch (plain grep, so the
#      check needs no .git directory)
#   5. static ERC + STA margin rules over the shipped example decks
#      (including the hierarchical .subckt deck) via
#      nemtcam_lint --sta --werror
#   6. bench smokes and sweep determinism: the STA bracketing/speedup
#      gate (bench_sta --smoke) must complete with its internal gates
#      green, and every program that runs a sweep must exit 0 and print
#      the same results at 1 and 4 threads: the RRAM-variation A1 table
#      (bench_ablation_variation) and the relay-threshold A5 refresh-yield
#      table (bench_ablation_relay_variation), whose trials each draw their
#      thresholds in a per-replay hook of their own row, the fault
#      campaign's tables (bench_fault_campaign), the CI-sized
#      datacenter-lifetime sweep's tables (bench_lifetime --smoke, which
#      also gates on its own checks), and nemtcam_sim's whole report over
#      the example decks (--threads 1 and 4)
#   7. perfbench smoke: perfbench/driver.cpp compiles against the
#      row and array search templates and the solver's telemetry, yet no
#      other stage builds it; perfbench/run.py builds it (Release, under
#      .bench_build/) and runs each of its four workloads for 2 s at seed
#      1, whose JSON result must read "correct": true with 0 failed ops
#   8. every library function has a caller: the programs, the tests and
#      the perfbench driver build into build-reach/ (preset `reach`) at
#      -O0 -fkeep-inline-functions -ffunction-sections -fdata-sections
#      and link with -Wl,--gc-sections, so every inline function is
#      emitted and each binary keeps exactly the functions it can reach.
#      The stage fails on any nemtcam:: function that a libnemtcam_*.a
#      archive defines and no binary keeps, comparing demangled names
#      without their argument lists (a template instantiation whose
#      demangled text starts with its return type is skipped). Among the
#      inline (weak or local) symbols it skips constructors and lambdas:
#      the constructors the compiler generates and a lambda's conversion
#      to a function pointer are emitted whether or not anything calls
#      them. The gap: an inline constructor written by hand that nothing
#      calls does not show here either. ~3 min on 4 cores (emitting every
#      inline function doubles the -O0 build)
#
# Fails fast on the first broken stage.
set -eu

cd "$(dirname "$0")/.."

echo "==== [1/8] release build + tests ===="
cmake --preset release
cmake --build --preset release -j
ctest --preset all -j

echo "==== [2/8] asan build + sanitizer test labels" \
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

echo "==== [3/8] tsan build + threads/solver labels ===="
cmake --preset tsan
cmake --build --preset tsan -j
ctest --preset threads-tsan -j
ctest --preset solver-tsan -j

echo "==== [4/8] no getenv outside the thread pool + lint build" \
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

echo "==== [5/8] ERC + STA margins over example decks (warnings are errors) ===="
build/tools/nemtcam_lint --sta --werror examples/decks/*.sp

echo "==== [6/8] bench smokes + sweep determinism at 1 and 4 threads" \
     "(A1, A5, fault campaign, lifetime, example decks) ===="
(cd build/bench && ./bench_sta --smoke)
# The table a sweep bench prints at a given thread count, from the line
# matching <first> through the line matching <last>. Fails when the bench
# does: a table piped through sed alone would lose its exit status.
# Usage: bench_table <threads> <first> <last> <bench> [args...]
bench_table() {
  threads=$1 first=$2 last=$3 bench=$4
  shift 4
  out=$(cd build/bench && NEMTCAM_THREADS="$threads" "./$bench" "$@") ||
    return
  printf '%s\n' "$out" | sed -n "/$first/,/$last/p"
}
a1_table() {
  bench_table "$1" '^Ablation A1' '^3T2N matched-ML margin' \
    bench_ablation_variation
}
a5_table() {
  bench_table "$1" '^Ablation A5' '^The 30 mV gap' \
    bench_ablation_relay_variation
}
fault_campaign_tables() {
  bench_table "$1" '^Fault campaign' '^Recovery-ladder demo' \
    bench_fault_campaign
}
lifetime_tables() {
  bench_table "$1" '^Lifetime sweep' '^wrote BENCH_lifetime' \
    bench_lifetime --smoke
}
example_decks_report() {
  build/tools/nemtcam_sim examples/decks/*.sp --threads "$1"
}
# Fails the chain unless <output> (a function of the thread count above)
# exits 0 and prints the same, non-empty text at 1 and at 4 threads.
# Usage: same_at_1_and_4_threads <what> <output>
same_at_1_and_4_threads() {
  serial=$("$2" 1) || { echo "$1 failed at 1 thread" >&2; exit 1; }
  pooled=$("$2" 4) || { echo "$1 failed at 4 threads" >&2; exit 1; }
  if [ -z "$serial" ] || [ "$serial" != "$pooled" ]; then
    echo "$1 differs between 1 and 4 threads" >&2
    printf '%s\n--- 4 threads ---\n%s\n' "$serial" "$pooled" >&2
    exit 1
  fi
  printf '%s\n(identical at 1 and 4 threads)\n' "$serial"
}
same_at_1_and_4_threads "A1 table" a1_table
same_at_1_and_4_threads "A5 table" a5_table
same_at_1_and_4_threads "fault campaign tables" fault_campaign_tables
same_at_1_and_4_threads "lifetime --smoke tables" lifetime_tables
same_at_1_and_4_threads "nemtcam_sim example decks" example_decks_report

echo "==== [7/8] perfbench smoke (all four workloads) ===="
# perfbench_driver exits 3 when one of the NEMTCAM_* variables it lists
# is set (no code reads them any more), so this stage clears them.
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

echo "==== [8/8] every library function has a caller" \
     "(-O0, -fkeep-inline-functions, -ffunction-sections, --gc-sections) ===="
cmake --preset reach
cmake --build --preset reach -j
cmake -S perfbench -B build-reach/perfbench -DCMAKE_BUILD_TYPE=None \
  -DCMAKE_CXX_FLAGS="-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
cmake --build build-reach/perfbench -j
# The nemtcam:: functions the given archives or binaries define, one
# demangled name per line without its argument list (so overloads count
# as one name). A template instantiation whose demangled text starts with
# its return type is skipped, and so is an inline (weak or local)
# constructor or lambda.
functions_defined() {
  nm --defined-only "$@" | awk 'NF == 3 && $2 ~ /^[TtWw]$/ { print $2, $3 }' |
    c++filt -p | awk '
      { type = $1; name = substr($0, 3); n = split(name, part, "::") }
      name !~ /^nemtcam::/ { next }
      type != "T" && (name ~ /[{]lambda[(]/ || part[n] == part[n - 1]) { next }
      { print name }' | sort -u
}
functions_defined build-reach/src/*/libnemtcam_*.a \
  > build-reach/library_functions.txt
functions_defined build-reach/perfbench/perfbench_driver \
  $(find build-reach/bench build-reach/tools build-reach/examples \
         build-reach/tests -maxdepth 1 -type f -perm -u+x) \
  > build-reach/kept_functions.txt
uncalled=$(comm -23 build-reach/library_functions.txt \
                    build-reach/kept_functions.txt)
if [ -n "$uncalled" ]; then
  echo "library functions that no program, test or the perfbench driver" \
       "keeps (delete them, or call them):" >&2
  printf '%s\n' "$uncalled" >&2
  exit 1
fi
echo "every library function is kept by a program, a test or the driver"

echo "==== ci.sh: all stages passed ===="
