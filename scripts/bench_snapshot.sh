#!/usr/bin/env bash
# Refreshes the checked-in machine-readable benchmark snapshots:
#
#   BENCH_o1.json       — the O1 scalability experiment (pipeline depth,
#                         bare and per observability level, multi-graph
#                         engine scaling)
#   BENCH_reconfig.json — live reconfiguration (hot swap unverified,
#                         verified and verified with the gate armed; swap
#                         under traffic, fence cycle, rollback)
#
# Usage: scripts/bench_snapshot.sh                  # refresh both
#        scripts/bench_snapshot.sh o1.json re.json  # same series, custom paths
#
# Expects a Release build in ./build (cmake -B build -S .
# -DCMAKE_BUILD_TYPE=Release && cmake --build build -j) and refuses any
# other build type: timings of an unoptimized PerPos are not comparable.
# Benchmark selection and repetitions are kept modest so the snapshot is
# reproducible on a laptop; the environment block printed after each run
# (PerPos build type, num_cpus, host, date) says what produced the numbers
# — read it before comparing snapshots from different machines.
set -eu
for bench in build/bench/bench_o1_scalability build/bench/bench_reconfig; do
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built (run: cmake --build build -j)" >&2
    exit 1
  fi
done
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' build/CMakeCache.txt)"
if [ "$build_type" != "Release" ]; then
  echo "error: build/ is configured as CMAKE_BUILD_TYPE='$build_type', not" \
       "'Release'; reconfigure with:" >&2
  echo "  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release" >&2
  exit 1
fi

# Prints the environment block of a snapshot and warns — loudly — on a
# single-CPU machine (the engine-scaling series needs real cores to mean
# anything).
report_context() {
  python3 - "$1" "$build_type" <<'EOF'
import json, sys
path, build = sys.argv[1], sys.argv[2]
ctx = json.load(open(path))["context"]
cpus = ctx.get("num_cpus", 0)
print(f"== {path} environment ==")
print(f"   CMAKE_BUILD_TYPE   : {build}")
print(f"   num_cpus           : {cpus}")
print(f"   host               : {ctx.get('host_name', '?')}")
print(f"   date               : {ctx.get('date', '?')}")
if cpus < 2:
    print("*" * 68)
    print(f"** WARNING: only {cpus} CPU visible. Engine worker-scaling")
    print("** numbers (BM_EngineMultiGraph*) degenerate on one core; only")
    print("** single-thread series (BM_PipelineDepth*) are meaningful.")
    print("*" * 68)
EOF
}

snap() {
  local bench="$1" out="$2" filter="$3"
  "$bench" \
    --benchmark_filter="$filter" \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json > /dev/null
  echo "wrote $out"
  report_context "$out"
}

snap build/bench/bench_o1_scalability "${1:-BENCH_o1.json}" \
  'BM_PipelineDepth/|BM_PipelineDepthObserved/|BM_EngineMultiGraph/'
snap build/bench/bench_reconfig "${2:-BENCH_reconfig.json}" '.'
