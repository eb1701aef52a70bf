#!/usr/bin/env python3
"""End-to-end positioning benchmark for PerPos.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds the benchmark driver from source (Release, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), runs one workload in
its own process, checks its outputs against the inline reference transcript
and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. The line before it carries the build
provenance (build type, compiler, flags, source revision, nproc, seed) and the
run's notes; the same record is written to .bench_out/.

--smoke runs every workload briefly on two seeds, traced and untraced, and
checks that every named metric is emitted and that the outputs match the
reference. The benchmark's own tests run it.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1.5
SMOKE_SEEDS = (1, 2)


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    return out / "perfbench"


def cache_value(key):
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_revision():
    """The git commit when there is one, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for directory in (ROOT / "src", HERE):
        for path in sorted(directory.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sha256:" + digest.hexdigest()[:16]


def provenance(seed):
    build_type = cache_value("CMAKE_BUILD_TYPE")
    flags = " ".join(
        v for v in (cache_value("CMAKE_CXX_FLAGS"),
                    cache_value("CMAKE_CXX_FLAGS_" + build_type.upper())) if v)
    return {
        "build_type": build_type,
        "compiler": cache_value("CMAKE_CXX_COMPILER"),
        "cxx_flags": flags,
        "source_revision": source_revision(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def optimised(prov):
    flags = prov["cxx_flags"].split()
    return any(f in ("-O1", "-O2", "-O3", "-Os", "-Ofast") for f in flags)


def run_driver(binary, workload, seed, seconds, trace):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.stderr:
        log(proc.stderr.rstrip())
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench: {workload} printed no result "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def wanted_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def check_metrics(result, wanted):
    """Names missing from the result or reported in another unit."""
    problems = []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']} in {got['unit']}, "
                            f"expected {m['unit']}")
    return problems


def measure(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    binary = build()
    prov = provenance(args.seed)
    if not optimised(prov):
        raise SystemExit("perfbench: refusing to measure a build without "
                         f"optimisation ({prov['build_type']}, "
                         f"'{prov['cxx_flags']}')")
    result = run_driver(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    wanted = wanted_metrics(spec, args.trace)
    missing = check_metrics(result, wanted)
    for p in missing + result.get("problems", []):
        log("perfbench: " + p)
    if missing:
        return 1
    if not result.get("valid", True):
        log("perfbench: INVALID run: the load generator fell behind its "
            "schedule; latency figures describe the generator, not PerPos")
    metrics = {m["name"]: result["metrics"][m["name"]] for m in wanted}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "valid": result.get("valid", True),
        "provenance": prov,
        "notes": result.get("notes", {}),
        "problems": result.get("problems", []),
        "metrics": result["metrics"],
    }
    out = ROOT / ".bench_out" / \
        f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": prov, "valid": record["valid"],
                      "notes": record["notes"]}))
    correct = bool(result["correct"])
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def smoke():
    spec = load_spec()
    binary = build()
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SMOKE_SEEDS:
            for trace in (0, 1):
                result = run_driver(binary, workload, seed, SMOKE_SECONDS,
                                    trace)
                problems = check_metrics(result, wanted_metrics(spec, trace))
                problems += result.get("problems", [])
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"{result['failed']} of "
                                    f"{result['attempted']} outputs differ "
                                    "from the reference")
                status = "ok" if not problems else "FAIL"
                print(f"smoke {workload} seed={seed} trace={trace}: {status} "
                      f"({len(result['metrics'])} metrics, "
                      f"{result['attempted']} attempted)")
                for p in problems:
                    print("  " + p)
                failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
