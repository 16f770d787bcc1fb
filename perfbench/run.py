#!/usr/bin/env python3
"""Serving benchmark: build the harness from this checkout and run one workload.

Usage, from the root of a checkout:
  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see perfbench/NOTES.md): live_batched, replay_tcp, split_int8.
The harness and the repository's src/ libraries build into .bench_build/.
The last line of standard output is the run's JSON result; the run record
(host, build, configuration, sample counts) goes to
.bench_build/runs/<workload>-seed<N>-trace<T>.json, and a traced run's spans
to the same name with .spans.csv. Any build, run or
verification failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "einet_perfbench"
WORKLOADS = ("live_batched", "replay_tcp", "split_int8")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and (incrementally) build the harness; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no src/ tree in {ROOT}: nothing to build")
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "einet_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def host_record():
    """CPU model, core count, SIMD ISA and build identity for the record."""
    cpu, flags = platform.processor(), set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                cpu = value.strip()
            elif key.strip() == "flags":
                flags = set(value.split())
    except OSError:
        pass
    isa = ("AVX-512 VNNI" if "avx512_vnni" in flags
           else "AVX2" if "avx2" in flags else "scalar")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for tree in ("src", "perfbench"):
        for path in sorted((ROOT / tree).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "isa": isa,
            "git_sha": sha, "source_sha256": digest.hexdigest()}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny request counts, one set-up, all verification")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    runs = BUILD / "runs"
    runs.mkdir(exist_ok=True)
    record = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", str(ROOT), "--record", str(record)]
    if args.trace:
        cmd += ["--spans", str(record.with_suffix(".spans.csv"))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"run failed with exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        fail("malformed result: " + lines[-1])
    if list(result["metrics"]) != expected_metrics(args.trace):
        fail("metric names disagree with BENCHMARK.json")
    if not result["correct"] or result["attempted"] < 1:
        fail("run did not verify")

    rec = json.loads(record.read_text())
    rec["host"] = host_record()
    record.write_text(json.dumps(rec, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
