#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from anywhere inside a source checkout:

    python3 perfbench/run.py --workload paper-grid --seed 24301 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest     # benchmark unit tests + 63.2/85.2 check
    python3 perfbench/run.py --reference    # simulated results at both recorded seeds

The first call configures and builds the simulator's sources together with
the benchmark program in an optimized (RelWithDebInfo) tree under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; everything else on stdout is human-readable detail, and
build output goes to stderr. The metric names are checked against
BENCHMARK.json before the line is printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TYPE = "RelWithDebInfo"
TIME_LIMIT_S = 175  # a measuring run must end within 180 s


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.normpath(os.path.join(ROOT, base))
    if os.path.commonpath([base, ROOT]) != ROOT:
        base = os.path.join(ROOT, ".bench_build")  # never write outside the checkout
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("timed out: " + " ".join(cmd))


def build(out):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = os.path.join(out, "CMakeCache.txt")
    configured = False
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            configured = "CMAKE_BUILD_TYPE:STRING=" + BUILD_TYPE + "\n" in f.read()
    if not configured:
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if shutil.which("ninja") is not None and not os.path.exists(cache):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd, 300) != 0:
            fail("configuring the benchmark failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", "cpc_perfbench", "perfbench_tests"]
    if run_quiet(cmd, 850) != 0:
        fail("building the benchmark failed")


def source_id():
    """The git commit when there is one, else a hash of the sources built."""
    try:
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0 and commit.stdout.strip():
            return commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "none-src-sha256-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                         "unit mismatch %s" % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=lambda s: int(s, 0))
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    started = time.monotonic()

    knobs = sorted(k for k in os.environ if k.startswith("CPC_"))
    if knobs:
        fail("refusing to run with simulator knobs set: %s (the benchmark pins every "
             "knob to its default)" % " ".join(knobs), 2)
    if not os.path.exists(os.path.join(ROOT, "src", "sim", "sweep_runner.hpp")):
        fail("simulator sources (src/) not found next to perfbench/")
    measuring = not (args.selftest or args.reference)
    if measuring and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    out = build_dir()
    build(out)
    binary = os.path.join(out, "cpc_perfbench")

    if args.selftest:
        for cmd in ([os.path.join(out, "perfbench_tests")], [binary, "--selftest"]):
            if run_quiet(cmd, TIME_LIMIT_S) != 0:
                fail("self-test failed: " + os.path.basename(cmd[0]))
        print("perfbench self-test passed")
        return
    if args.reference:
        sys.exit(subprocess.run([binary, "--reference"], cwd=ROOT).returncode)

    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", spans_dir, "--commit", source_id()]
    budget = max(10.0, TIME_LIMIT_S - (time.monotonic() - started))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("the benchmark did not finish within %.0f s" % budget)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        detail = lines[:-1] if lines[-1].startswith("{") else lines
        sys.stdout.write("\n".join(detail) + "\n")
        fail("the benchmark exited with code %d and no result" % proc.returncode)
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as error:
        fail("malformed result line: %s" % error)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
