#!/usr/bin/env bash
# Single CI entry point: tier-1 configure/build/test, then every sanitizer
# lane (tsan/asan/ubsan) and both lint targets, with a summary table and a
# nonzero exit if anything failed. This is the one command a CI job or a
# reviewer runs:
#
#   tools/ci.sh [build-dir]      (default: ./build-ci)
#
# Each sanitizer lane is a nested configure+build+run driven by ctest (see
# tests/CMakeLists.txt), so this script stays a thin sequencer. lint.tidy
# reports SKIP when clang-tidy is absent; that counts as success here.
set -u

SRC_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$SRC_ROOT/build-ci}"
NPROC="$(nproc 2>/dev/null || echo 2)"

declare -a STEP_NAMES=()
declare -a STEP_RESULTS=()
overall=0

declare -a STEP_SECONDS=()

run_step() {
  local name="$1"
  shift
  echo
  echo "==== $name: $* ===="
  local t0=$SECONDS
  "$@"
  local rc=$?
  STEP_NAMES+=("$name")
  STEP_SECONDS+=("$((SECONDS - t0))")
  if [ $rc -eq 0 ]; then
    STEP_RESULTS+=("PASS")
  else
    STEP_RESULTS+=("FAIL (exit $rc)")
    overall=1
  fi
  return $rc
}

run_bench_e2e() {
  local dir="$BUILD_DIR/bench_e2e"
  cmake -S "$SRC_ROOT/bench_e2e" -B "$dir" -DCMAKE_BUILD_TYPE=Release \
    && cmake --build "$dir" --parallel "$NPROC" \
    && ctest --test-dir "$dir" --output-on-failure
}

run_step "configure" cmake -S "$SRC_ROOT" -B "$BUILD_DIR" \
  && run_step "build" cmake --build "$BUILD_DIR" --parallel "$NPROC"
if [ $overall -ne 0 ]; then
  echo "ci: configure/build failed; skipping test lanes"
else
  # Tier-1: everything except the nested sanitizer lanes, the lint entries
  # and the bench smokes that each get a summary row of their own below
  # (bench.comm_smoke has none, so it runs here).
  run_step "tier1.ctest" ctest --test-dir "$BUILD_DIR" --output-on-failure \
    -j "$NPROC" \
    -E '^((tsan|asan|ubsan|lint)\.|bench\.(scale|async|hierarchy|codec|personalize)_smoke$)'
  # Scalability gate, surfaced as its own summary row: streaming rounds over
  # a virtual FedDataset must keep peak RSS flat as the population grows
  # (bench_scale exits nonzero on a superlinear blow-up).
  run_step "bench.scale" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R '^bench\.scale_smoke$'
  # Async-aggregation gate: the buffered async loop and the sync barrier
  # loop both run under one availability trace, and the async fold budget
  # must land exactly (bench_async exits nonzero on a mismatch).
  run_step "bench.async" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R '^bench\.async_smoke$'
  # Sharded-fold gate: every shard count and the two-level topology must
  # hash bit-identical to the flat fold (bench_hierarchy exits nonzero on
  # any mismatch — the fixed-point merge algebra is what it proves).
  run_step "bench.hierarchy" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R '^bench\.hierarchy_smoke$'
  # Compression gate: every update codec runs the fixed-seed workbench;
  # bench_codec exits nonzero if the f32 hash moves, topk16/int8a miss
  # their ratio floors, a lossy codec drifts past half a probe point, or
  # the auto chooser stops being thread-count deterministic.
  run_step "bench.codec" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R '^bench\.codec_smoke$'
  # Personalization-sweep gate: the stage as one sweep (its feature table),
  # through per-client encodes, and split into its encode and probe parts
  # must give bit-identical accuracies (bench_micro exits nonzero on any
  # mismatch).
  run_step "bench.personalize" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R '^bench\.personalize_smoke$'
  # End-to-end benchmark gate: bench_e2e/ is its own CMake project (it
  # compiles src/ itself, exactly as bench_e2e/run.py does), so it gets its
  # own tree under the CI build dir. Its ctest entries are
  # bench.e2e_selftest (order statistics, verdicts, bit-identity of the
  # traced decorators) and bench.e2e_smoke (all four workloads at CI scale
  # with every output check, metric tables against BENCHMARK.json).
  run_step "bench.e2e" run_bench_e2e
  for lane in tsan asan ubsan; do
    run_step "lane.$lane" ctest --test-dir "$BUILD_DIR" \
      --output-on-failure -R "^$lane\."
  done
  # Lint lane: the calibre_analyze passes (full run + one entry per
  # whole-program pass, each printing per-pass timing via ctest -V on the
  # full run), the analyzer's own unit tests, then clang-tidy. Every python
  # entry runs under `python3 -W error` (tests/CMakeLists.txt): any Python
  # warning fails the lane.
  for lint_step in calibre layering locks determinism cli; do
    run_step "lint.$lint_step" ctest --test-dir "$BUILD_DIR" \
      --output-on-failure -R "^lint\.$lint_step\$"
  done
  run_step "lint.tidy" ctest --test-dir "$BUILD_DIR" \
    --output-on-failure -R '^lint\.tidy$'
fi

echo
echo "==== ci summary ===="
printf '%-18s %-8s %s\n' "step" "seconds" "result"
printf '%-18s %-8s %s\n' "----" "-------" "------"
for i in "${!STEP_NAMES[@]}"; do
  printf '%-18s %-8s %s\n' "${STEP_NAMES[$i]}" "${STEP_SECONDS[$i]}" \
    "${STEP_RESULTS[$i]}"
done
if [ $overall -eq 0 ]; then
  echo "ci: all steps passed"
else
  echo "ci: FAILURES above"
fi
exit $overall
