#!/usr/bin/env bash
# Refreshes the checked-in machine-readable benchmark snapshot:
#
#   BENCH_o1.json   — the O1 scalability experiment (pipeline depth,
#                     multi-graph engine scaling)
#
# Usage: scripts/bench_snapshot.sh            # refresh BENCH_o1.json
#        scripts/bench_snapshot.sh out.json   # same series, custom path
#
# Expects a configured build in ./build (cmake -B build -S . && cmake
# --build build -j). Benchmark selection and repetitions are kept modest so
# the snapshot is reproducible on a laptop; the environment block in the
# JSON (host, num_cpus, library_build_type, date) says what produced the
# numbers — read it before comparing snapshots from different machines.
set -eu
bench="build/bench/bench_o1_scalability"
if [ ! -x "$bench" ]; then
  echo "error: $bench not built (run: cmake --build build -j)" >&2
  exit 1
fi

# Prints the environment block of a snapshot and warns — loudly — about
# the two conditions that make absolute numbers meaningless: a benchmark
# library built without optimization, and a single-CPU machine (the
# engine-scaling series needs real cores to mean anything).
report_context() {
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
ctx = json.load(open(path))["context"]
build = ctx.get("library_build_type", "unknown")
cpus = ctx.get("num_cpus", 0)
print(f"== {path} environment ==")
print(f"   library_build_type : {build}")
print(f"   num_cpus           : {cpus}")
print(f"   host               : {ctx.get('host_name', '?')}")
print(f"   date               : {ctx.get('date', '?')}")
if build != "release":
    print("*" * 68)
    print(f"** WARNING: benchmark library built as '{build}', not 'release'.")
    print("** Absolute timings are NOT representative — reconfigure with")
    print("**   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release")
    print("*" * 68)
if cpus < 2:
    print("*" * 68)
    print(f"** WARNING: only {cpus} CPU visible. Engine worker-scaling")
    print("** numbers (BM_EngineMultiGraph*) degenerate on one core; only")
    print("** single-thread series (BM_PipelineDepth*) are meaningful.")
    print("*" * 68)
EOF
}

snap() {
  local out="$1" filter="$2"
  "$bench" \
    --benchmark_filter="$filter" \
    --benchmark_format=json \
    --benchmark_out="$out" \
    --benchmark_out_format=json > /dev/null
  echo "wrote $out"
  report_context "$out"
}

snap "${1:-BENCH_o1.json}" 'BM_PipelineDepth/|BM_EngineMultiGraph/'
