#!/usr/bin/env bash
# Perf smoke for the translucency plane: runs the report phase of the
# observability-sensitive benches with --metrics-json, checks that every
# snapshot is well-formed and that the engine hot path stayed clean (no
# task failures, no flight-ring events dropped from the flow trace of a
# calm run), and leaves the
# snapshots plus the profiler flight-recorder dump in an artifact
# directory for CI to upload.
#
# Usage: scripts/perf_smoke.sh [build_dir] [artifact_dir]
set -eu
build="${1:-build}"
artifacts="${2:-perf-smoke-artifacts}"
mkdir -p "$artifacts"

fail=0

run_one() {
  name="$1"
  allow_drops="${2:-no}"
  bench="$build/bench/bench_$name"
  json="$artifacts/$name.metrics.json"
  if [ ! -x "$bench" ]; then
    echo "error: $bench not built" >&2
    fail=1
    return
  fi
  echo "--- $name ---"
  "$bench" --metrics-json "$json" --benchmark_filter=NO_MATCH \
    > "$artifacts/$name.report.txt" 2>&1 || {
    echo "error: $name report phase failed" >&2
    tail -20 "$artifacts/$name.report.txt" >&2
    fail=1
    return
  }
  python3 - "$json" "$name" "$allow_drops" <<'EOF' || fail=1
import json, sys
path, name, allow_drops = sys.argv[1], sys.argv[2], sys.argv[3]
try:
    with open(path) as f:
        doc = json.load(f)
except (OSError, ValueError) as e:
    print(f"error: {name}: snapshot unreadable: {e}", file=sys.stderr)
    sys.exit(1)
counters = {}
for c in doc.get("metrics", {}).get("counters", []):
    counters[c["name"]] = counters.get(c["name"], 0) + c["value"]
# Hot-path regression gates: a calm observed run must execute tasks
# without failures, and the bounded flight ring behind its flow trace must
# not evict events.
failed = counters.get("perpos_exec_tasks_failed_total", 0)
dropped = doc.get("trace", {}).get("droppedEvents", 0)
problems = []
if not counters:
    problems.append("no counters in snapshot")
if failed:
    problems.append(f"{failed} failed engine tasks")
if dropped and allow_drops != "yes":
    problems.append(f"{dropped} dropped flight events")
if problems:
    print(f"error: {name}: " + "; ".join(problems), file=sys.stderr)
    sys.exit(1)
print(f"ok: {name}: {len(counters)} counters, {failed} failed tasks, "
      f"{dropped} dropped flight events")
EOF
}

# fig1 exercises the full pipeline with recording (its ring holds the whole
# run); bench_profiler dumps the engine profiler + flight recorder; o1
# covers the multi-worker engine.
run_one fig1_pipeline
# o1's observed stress workload intentionally overflows the bounded flight
# ring; eviction there is by design, so only the failure gate applies.
run_one o1_scalability yes
run_one profiler

exit "$fail"
