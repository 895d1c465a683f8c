#!/usr/bin/env bash
# One-shot verification gate for Background Buster.
#
# Runs, in order, failing fast on the first problem:
#   1. default build with -DBB_WERROR=ON, full ctest suite (minus the
#      bench-smoke label, which gets its own step)
#   2. bench smoke runs + bb.bench.v1 report schema validation
#   3. streaming smoke bench: one StreamingReconstructor run whose
#      bb.bench.v1 report must carry the stream.* memory gauges and the
#      fault-injection degradation gauges (fails on schema drift via
#      report_check --require-memory / --require-degradation)
#   4. container smoke: simulate to v1, bbvtool migrate to v2, verify and
#      attack both containers and require byte-identical reconstructions,
#      plus the dedup/seek gauges in the perf report (report_check
#      --require-measured)
#   5. chaos smoke: end-to-end CLI run under an injected fault schedule -
#      quarantine must degrade gracefully, a tight --max-bad-frames budget
#      must fail with a structured error - plus the seeded chaos test label
#   6. shard smoke: map-reduce the same call as three shard workers
#      (backbuster attack --shard i/3) plus backbuster reduce, require the
#      merged reconstruction byte-identical to the single-process run, the
#      shard-scaling gauges in the perf report (report_check
#      --require-measured), and the shard-equivalence test matrix
#      (ctest -R shard)
#   7. attackd smoke: spool two healthy jobs (one multi-shard) plus one
#      hostile record through attackctl, drain the spool with attackd
#      --drain-once, require both reconstructions byte-identical to direct
#      backbuster attacks, the hostile record refused to failed/ with the
#      pinned INVALID_JOB_RECORD reason, the daemon throughput gauges in
#      the perf report (report_check --require-measured), and the service
#      test label (spool/job-record units + supervised-daemon chaos)
#   8. kernel smoke: the same CLI attack + location ranking at --threads 1
#      and --threads 4 - both reconstructions and rankings must be
#      byte-identical - plus the template-match pruning gauges in the perf
#      report (report_check --require-measured), the kernel and
#      pruned-template-search tests, and the HSV-key, location, disc
#      morphology and segmenter exactness suites
#   9. ThreadSanitizer build, the concurrent suites: the thread pool,
#      trace emission, every thread-count-invariance pin (determinism,
#      golden, streaming identity, location ranking and its exactness
#      suite, the shard matrix), the
#      suites that call Segment() from pool workers, and the disc
#      morphology, component-pick and segmenter suites those paths run
#      (their scratch is per thread)
#   10. UndefinedBehaviorSanitizer build, full ctest suite (minus
#      bench-smoke: the benches are already covered by step 2 and would
#      dominate the sanitized runtime)
#   11. bblint tree scan (also part of each ctest pass as lint.TreeIsClean)
#   12. lint-sarif: bblint emits the tree report as SARIF 2.1.0 against the
#      checked-in ratchet baseline; the standalone sarif_check parser
#      validates the document, and any finding not in the baseline fails
#   13. bench trajectory delta: aggregate the smoke reports from step 2
#      into a bb.bench.trajectory.v1 snapshot and print a one-line
#      geomean time delta vs the newest committed bench/trajectory/
#      BENCH_*.json (informational - speed PRs quote this line)
#   14. green under load: print nproc, then run the determinism, golden,
#      shard, chaos and service tests at -j 2*nproc, each up to three times
#      (--repeat until-fail:3), so races between concurrently running
#      tests and inside the thread pool fail the gate
#
# Usage: tools/check.sh [jobs]   (from the repo root; build dirs are
# created as build-check, build-check-tsan, build-check-ubsan)
set -euo pipefail

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

step() { printf '\n== %s ==\n' "$*"; }

step "default build (-DBB_WERROR=ON) + full test suite"
cmake -B build-check -S . -DBB_WERROR=ON
cmake --build build-check -j "$JOBS"
ctest --test-dir build-check --output-on-failure -j "$JOBS" -LE bench-smoke

step "bench smoke runs + report schema validation"
ctest --test-dir build-check --output-on-failure -j "$JOBS" -L bench-smoke

step "streaming smoke bench + memory/degradation-gauge schema validation"
STREAM_REPORT_DIR="build-check/stream-smoke"
mkdir -p "$STREAM_REPORT_DIR"
BB_BENCH_SMOKE=1 BB_THREADS=2 BB_BENCH_REPORT_DIR="$STREAM_REPORT_DIR" \
  build-check/bench/bench_perf \
  --benchmark_filter='StreamingReconstructor' --benchmark_min_time=0.01
build-check/tools/report_check \
  --require-memory stream.window_capacity \
  --require-memory stream.peak_window_frames \
  --require-memory stream.frames_pushed \
  --require-memory stream.window_flushes \
  --require-memory stream.pool_hits \
  --require-memory stream.pool_misses \
  --require-degradation stream.frames_quarantined \
  --require-degradation stream.bad_frame_events \
  --require-degradation stream.faults_fired \
  "$STREAM_REPORT_DIR/BENCH_perf.json"

step "container smoke: v2 round-trip, v1 migration, dedup/seek gauges"
CONTAINER_DIR="build-check/container-smoke"
mkdir -p "$CONTAINER_DIR"
build-check/apps/backbuster simulate --out "$CONTAINER_DIR/call_v1.bbv" \
  --format v1 --duration 4 --action arm_wave
build-check/tools/bbvtool migrate --in "$CONTAINER_DIR/call_v1.bbv" \
  --out "$CONTAINER_DIR/call_v2.bbv"
build-check/tools/bbvtool inspect --in "$CONTAINER_DIR/call_v2.bbv" \
  | tee "$CONTAINER_DIR/inspect.out"
grep -q 'BBV2' "$CONTAINER_DIR/inspect.out"
build-check/tools/bbvtool verify --in "$CONTAINER_DIR/call_v1.bbv"
build-check/tools/bbvtool verify --in "$CONTAINER_DIR/call_v2.bbv"
# Both containers must reconstruct to the same bytes.
build-check/apps/backbuster attack --in "$CONTAINER_DIR/call_v1.bbv" \
  --stream --window 16 --out "$CONTAINER_DIR/recon_v1"
build-check/apps/backbuster attack --in "$CONTAINER_DIR/call_v2.bbv" \
  --stream --window 16 --out "$CONTAINER_DIR/recon_v2"
# WriteImageAuto picks .png or .ppm depending on build support; compare
# whichever it produced.
RECON_V1="$(ls "$CONTAINER_DIR"/recon_v1.p?? | head -n 1)"
cmp "$RECON_V1" "${RECON_V1/recon_v1/recon_v2}"
# The perf report must carry the container gauges (step 3 wrote it with a
# benchmark filter, so run the probe-bearing binary unfiltered here).
CONTAINER_REPORT_DIR="build-check/container-smoke/report"
mkdir -p "$CONTAINER_REPORT_DIR"
BB_BENCH_SMOKE=1 BB_THREADS=2 BB_BENCH_REPORT_DIR="$CONTAINER_REPORT_DIR" \
  build-check/bench/bench_perf \
  --benchmark_filter='StreamingReconstructorWindow/10$' \
  --benchmark_min_time=0.01
build-check/tools/report_check \
  --require-measured v2.dedup_ratio \
  --require-measured v2.size_fraction_of_v1 \
  --require-measured 'v2.seek_to_last_frame [s]' \
  --require-measured 'v2.linear_decode_to_last_frame [s]' \
  "$CONTAINER_REPORT_DIR/BENCH_perf.json"

step "chaos smoke: fault injection, graceful degradation, error budget"
CHAOS_DIR="build-check/chaos-smoke"
mkdir -p "$CHAOS_DIR"
build-check/apps/backbuster simulate --out "$CHAOS_DIR/call.bbv" \
  --duration 4 --action arm_wave
build-check/apps/backbuster attack --in "$CHAOS_DIR/call.bbv" \
  --stream --window 16 --out "$CHAOS_DIR/degraded" \
  --faults 'source@2=fail,source@11=corrupt,source@30=truncate' \
  --max-bad-frames 10% | tee "$CHAOS_DIR/attack.out"
grep -q 'degraded: 3 of' "$CHAOS_DIR/attack.out"
# One quarantine past the budget must fail the run with a structured error.
if build-check/apps/backbuster attack --in "$CHAOS_DIR/call.bbv" \
     --stream --window 16 --out "$CHAOS_DIR/budget" \
     --faults 'source@2=fail,source@11=corrupt,source@30=truncate' \
     --max-bad-frames 1 2> "$CHAOS_DIR/budget.err"; then
  echo 'chaos smoke: budget-exceeded attack unexpectedly succeeded' >&2
  exit 1
fi
grep -q 'bad-frame budget exceeded' "$CHAOS_DIR/budget.err"
ctest --test-dir build-check --output-on-failure -j "$JOBS" -L chaos

step "shard smoke: 3-way map-reduce byte-identical to the single process"
SHARD_DIR="build-check/shard-smoke"
mkdir -p "$SHARD_DIR"
build-check/apps/backbuster simulate --out "$SHARD_DIR/call.bbv" \
  --duration 4 --action arm_wave
build-check/apps/backbuster attack --in "$SHARD_DIR/call.bbv" \
  --stream --window 16 --out "$SHARD_DIR/single"
for i in 0 1 2; do
  build-check/apps/backbuster attack --in "$SHARD_DIR/call.bbv" \
    --stream --window 16 --shard "$i/3" \
    --partial-out "$SHARD_DIR/shard$i.bbpr"
done
build-check/apps/backbuster reduce \
  --in "$SHARD_DIR/shard0.bbpr,$SHARD_DIR/shard1.bbpr,$SHARD_DIR/shard2.bbpr" \
  --out "$SHARD_DIR/merged"
# The merged reconstruction must be the same bytes as the single process
# (WriteImageAuto picks .png or .ppm; compare whichever it produced).
SINGLE="$(ls "$SHARD_DIR"/single.p?? | head -n 1)"
cmp "$SINGLE" "${SINGLE/single/merged}"
# Shard-scaling gauges live in the step-4 perf report (the probes run
# unfiltered there).
build-check/tools/report_check \
  --require-measured 'shard.worker_1x [s]' \
  --require-measured 'shard.worker_3x_max [s]' \
  --require-measured 'shard.reduce_3x [s]' \
  "$CONTAINER_REPORT_DIR/BENCH_perf.json"
ctest --test-dir build-check --output-on-failure -j "$JOBS" -R shard

step "attackd smoke: spooled jobs drain byte-identical, hostile refused"
ATTACKD_DIR="build-check/attackd-smoke"
rm -rf "$ATTACKD_DIR"
mkdir -p "$ATTACKD_DIR"
build-check/apps/backbuster simulate --out "$ATTACKD_DIR/call.bbv" \
  --duration 4 --action arm_wave
# Direct single-process references for the byte-identity comparison.
build-check/apps/backbuster attack --in "$ATTACKD_DIR/call.bbv" \
  --stream --window 16 --out "$ATTACKD_DIR/direct1"
build-check/apps/backbuster attack --in "$ATTACKD_DIR/call.bbv" \
  --stream --window 8 --out "$ATTACKD_DIR/direct2"
# Two healthy jobs (one multi-shard) plus one hostile record in the spool.
build-check/apps/attackctl submit --spool "$ATTACKD_DIR/spool" \
  --in "$ATTACKD_DIR/call.bbv" --out "$ATTACKD_DIR/job1" \
  --window 16 --shards 3
build-check/apps/attackctl submit --spool "$ATTACKD_DIR/spool" \
  --in "$ATTACKD_DIR/call.bbv" --out "$ATTACKD_DIR/job2" --window 8
printf 'not a BBJB record' > "$ATTACKD_DIR/spool/incoming/99.bbjb"
build-check/apps/attackd --spool "$ATTACKD_DIR/spool" \
  --worker-bin build-check/apps/backbuster --drain-once
build-check/apps/attackctl status --spool "$ATTACKD_DIR/spool" --json \
  | tee "$ATTACKD_DIR/status.json"
# The hostile record must land in failed/ with the structured reason...
grep -q 'INVALID_JOB_RECORD' "$ATTACKD_DIR/status.json"
grep -q '"state":"failed"' "$ATTACKD_DIR/status.json"
# ...and the drained jobs must be byte-identical to the direct attacks.
DIRECT1="$(ls "$ATTACKD_DIR"/direct1.p?? | head -n 1)"
cmp "$DIRECT1" "${DIRECT1/direct1/job1}"
DIRECT2="$(ls "$ATTACKD_DIR"/direct2.p?? | head -n 1)"
cmp "$DIRECT2" "${DIRECT2/direct2/job2}"
# Daemon throughput gauges live in the step-4 perf report (probes run
# unfiltered there).
build-check/tools/report_check \
  --require-measured 'service.drain_workers_1x [s]' \
  --require-measured 'service.drain_workers_3x [s]' \
  --require-measured service.jobs_per_min_workers_1x \
  --require-measured service.jobs_per_min_workers_3x \
  "$CONTAINER_REPORT_DIR/BENCH_perf.json"
ctest --test-dir build-check --output-on-failure -j "$JOBS" -L service

step "kernel smoke: the thread count cannot move the bits"
KERNEL_DIR="build-check/kernel-smoke"
mkdir -p "$KERNEL_DIR"
build-check/apps/backbuster simulate --out "$KERNEL_DIR/call.bbv" \
  --vb office --duration 4 --action arm_wave
build-check/apps/backbuster simulate --out "$KERNEL_DIR/decoy.bbv" \
  --vb office --duration 1 --scene-seed 9 \
  --truth-out "$KERNEL_DIR/decoy" > /dev/null
TRUTH="$KERNEL_DIR/call.bbv.truth.ppm"
LOCATE="$KERNEL_DIR/decoy.ppm,$TRUTH"
# The same attack + location ranking at one and at four threads.
# Reconstruction bytes and ranked scores must be identical in both runs.
for threads in 1 4; do
  build-check/apps/backbuster attack \
    --in "$KERNEL_DIR/call.bbv" --vb office --truth "$TRUTH" \
    --locate "$LOCATE" --out "$KERNEL_DIR/threads$threads" \
    --threads "$threads" \
    | grep -E 'recovered|RBRR|score' > "$KERNEL_DIR/threads$threads.out"
done
BASE="$(ls "$KERNEL_DIR"/threads1.p?? | head -n 1)"
cmp "$BASE" "${BASE/threads1/threads4}"
diff "$KERNEL_DIR/threads1.out" "$KERNEL_DIR/threads4.out"
# The true background must outrank the decoy.
head -n 3 "$KERNEL_DIR/threads1.out" | grep -q 'truth'
# Template-match pruning gauges live in the step-4 perf report (probes run
# unfiltered there); the identity + speedup numbers must be present.
build-check/tools/report_check \
  --require-measured 'match_template.exhaustive [s]' \
  --require-measured 'match_template.pruned [s]' \
  --require-measured match_template.prune_speedup \
  "$CONTAINER_REPORT_DIR/BENCH_perf.json"
KERNEL_SUITES='Kernel|kernels|Pruned|HsvKeyExactnessTest|LocationExactnessTest'
KERNEL_SUITES+='|DiscMorphologyExactnessTest|ClassicalSegmenterExactnessTest'
ctest --test-dir build-check --output-on-failure -j "$JOBS" \
      -R "$KERNEL_SUITES"

step "ThreadSanitizer build + concurrent suites"
cmake -B build-check-tsan -S . -DBB_SANITIZE=thread -DBB_WERROR=ON
cmake --build build-check-tsan -j "$JOBS"
# Named suites, not substrings: ctest -R is case-sensitive, and a substring
# both misses suites and catches unrelated ones.
TSAN_SUITES='ParallelTest|TraceTest|DeterminismTest|TraceDeterminismTest'
TSAN_SUITES+='|GoldenPipelineTest|StreamingIdentityTest|StreamingProtocolTest'
TSAN_SUITES+='|SegmentOnceTest|RankLocationsTest|LocationExactnessTest'
TSAN_SUITES+='|ShardTest|ShardChaosTest'
TSAN_SUITES+='|MorphologyTest|Seeds/DistanceTransformPropertyTest'
TSAN_SUITES+='|Shapes/DiscMorphologyExactnessTest|ClassicalSegmenterTest'
TSAN_SUITES+='|NoisyOracleTest|ClassicalSegmenterExactnessTest'
TSAN_SUITES+='|SegmentAllocationTest|ComponentPickExactnessTest'
ctest --test-dir build-check-tsan --output-on-failure -j "$JOBS" \
      -R "^(shard\.)?($TSAN_SUITES)\."

step "UndefinedBehaviorSanitizer build + full test suite"
cmake -B build-check-ubsan -S . -DBB_SANITIZE=undefined -DBB_WERROR=ON
cmake --build build-check-ubsan -j "$JOBS"
ctest --test-dir build-check-ubsan --output-on-failure -j "$JOBS" \
      -LE bench-smoke

step "bblint tree scan"
build-check/tools/bblint/bblint --root "$ROOT" \
  --baseline "$ROOT/tools/bblint/baseline.json"

step "lint-sarif: SARIF emission + independent validation"
build-check/tools/bblint/bblint --root "$ROOT" \
  --baseline "$ROOT/tools/bblint/baseline.json" \
  --sarif build-check/bblint.sarif
build-check/tools/bblint/sarif_check build-check/bblint.sarif

step "bench trajectory delta vs newest committed snapshot"
TRAJECTORY_DIR="build-check/bench-trajectory"
mkdir -p "$TRAJECTORY_DIR"
build-check/tools/report_check \
  --aggregate "$TRAJECTORY_DIR/BENCH_current.json" \
  build-check/bench/smoke_reports/BENCH_*.json > /dev/null
NEWEST="$(ls -t "$ROOT"/bench/trajectory/BENCH_*.json 2>/dev/null | head -n 1 || true)"
if [ -n "$NEWEST" ]; then
  build-check/tools/report_check --delta "$NEWEST" \
    "$TRAJECTORY_DIR/BENCH_current.json"
else
  echo "no committed bench/trajectory/BENCH_*.json yet - skipping delta"
fi

step "green under load: determinism/golden/shard/chaos/service at 2x nproc"
NPROC="$(nproc 2>/dev/null || echo 1)"
echo "nproc: $NPROC"
ctest --test-dir build-check --output-on-failure -j "$((2 * NPROC))" \
      --repeat until-fail:3 -R 'Determinism|Golden|^shard\.'
ctest --test-dir build-check --output-on-failure -j "$((2 * NPROC))" \
      --repeat until-fail:3 -L 'chaos|service'

step "all checks passed"
