#!/usr/bin/env bash
# Tier-1 verification pipeline, the same stages a CI runner executes:
#
#   0. Layering check: no file under src/ includes a path under bench/,
#      tests/ or perfbench/ — the libraries must build from src/ alone.
#   1. Debug build with ASan+UBSan (the ESPK_SANITIZE cache option) and the
#      full ctest suite — memory and UB bugs in the zero-copy buffer path
#      (refcount mistakes, slices outliving buffers) fail here loudly.
#   2. TSan build of the sharded-runtime suite — the executor, the shard
#      inboxes, the timer wheel, and the width-N determinism test run under
#      ThreadSanitizer, plus the span and health suites whose sharded cases
#      read zone state from barrier hooks (the merged-mirror observability
#      path). The sharded runtime's bit-identity claim rests on the
#      executor barrier giving happens-before between epochs; TSan is
#      the check that actually exercises it (a startup race in the executor
#      once made shards share a thread slice and fire events an epoch late —
#      exactly the class of bug this stage exists to catch).
#   3. Release build and the bench smoke gate (espk_bench_smoke), which
#      regenerates BENCH_codec.json / BENCH_fanout.json / BENCH_trace.json /
#      BENCH_fleet.json and validates each against bench/baselines with
#      bench_gate.
#   4. Example smoke run: every examples/ binary from the Release build
#      executes end to end (in a scratch directory — some write artifacts
#      like health_trace.json). A crashing or hanging example is a broken
#      public API.
#   5. Golden-output check: the fleet_dashboard example runs entirely on the
#      simulated clock, so its output is byte-identical across runs and
#      machines; its smoke-run output is diffed against the checked-in
#      ci/golden/fleet_dashboard.out. A diff means telemetry-plane
#      determinism broke (or the dashboard changed — regenerate the golden
#      by copying the new output over it).
#   6. latency_budget golden-output check: same discipline for the span
#      plane — critical-path tables, the resolved deadline-miss exemplar
#      tree, and the sampler counters must be byte-identical across runs.
#   7. subscriptions golden-output check: the service plane's who-hears-what
#      view (directory registrations, runtime subscribe/unsubscribe churn,
#      zone policy enforcement, the dashboard section splice) must be
#      byte-identical across runs.
#   8. health_monitor golden-output check: the health plane's alert log,
#      traps, and flight-recorder postmortems (rules, byte counts, the
#      first document's head) must be byte-identical across runs.
#   9. Benchmark self-check: perfbench/selfcheck.py builds the repository
#      benchmark (a separate Release CMake project over src/, in
#      .bench_build/) and runs every BENCHMARK.json workload at a tiny size,
#      untraced and traced. The benchmark compiles src/ through its public
#      API, which no ctest target covers, so a change that breaks an API the
#      benchmark uses fails here rather than only in the benchmark run.
#
# Usage: ci/check.sh [jobs]     (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "==> [0/9] Layering: src/ includes nothing from bench/, tests/, perfbench/"
if grep -rnE '^[[:space:]]*#[[:space:]]*include[[:space:]]*["<](bench|tests|perfbench)/' src; then
  echo "FAIL: a file under src/ includes a bench/, tests/ or perfbench/ path"
  exit 1
fi

echo "==> [1/9] Debug + ASan/UBSan: configure, build, ctest"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DESPK_SANITIZE="address;undefined"
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "==> [2/9] TSan: sharded runtime suite under ThreadSanitizer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DESPK_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target \
  timer_wheel_test shard_test sharded_determinism_test span_test health_test
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'timer_wheel_test|shard_test|sharded_determinism_test|span_test|health_test'

echo "==> [3/9] Release: configure, build, bench smoke gate"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-release -j "$JOBS"
ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "==> [4/9] Release example smoke run"
EXAMPLES_DIR="$(pwd)/build-release/examples"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
for example in quickstart building_pa internet_radio netboot_demo \
               secure_stream health_monitor fleet_dashboard \
               latency_budget subscriptions sharded_observability; do
  echo "--> examples/$example"
  (cd "$SCRATCH" && "$EXAMPLES_DIR/$example" > "$example.out")
done

echo "==> [5/9] fleet_dashboard golden-output check"
if ! diff -u ci/golden/fleet_dashboard.out "$SCRATCH/fleet_dashboard.out"; then
  echo "FAIL: fleet_dashboard output drifted from ci/golden/fleet_dashboard.out"
  exit 1
fi
echo "--> fleet_dashboard output matches golden"

echo "==> [6/9] latency_budget golden-output check"
if ! diff -u ci/golden/latency_budget.out "$SCRATCH/latency_budget.out"; then
  echo "FAIL: latency_budget output drifted from ci/golden/latency_budget.out"
  exit 1
fi
echo "--> latency_budget output matches golden"

echo "==> [7/9] subscriptions golden-output check"
if ! diff -u ci/golden/subscriptions.out "$SCRATCH/subscriptions.out"; then
  echo "FAIL: subscriptions output drifted from ci/golden/subscriptions.out"
  exit 1
fi
echo "--> subscriptions output matches golden"

echo "==> [8/9] health_monitor golden-output check"
if ! diff -u ci/golden/health_monitor.out "$SCRATCH/health_monitor.out"; then
  echo "FAIL: health_monitor output drifted from ci/golden/health_monitor.out"
  exit 1
fi
echo "--> health_monitor output matches golden"

echo "==> [9/9] Benchmark self-check: build perfbench, run every workload tiny"
python3 perfbench/selfcheck.py

echo "==> ci/check.sh: all stages passed"
