#!/usr/bin/env python3
"""Open-loop benchmark of the real engine (see perfbench/README.md).

One run of one workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

Every workload, untraced and traced, with every metric, its unit and the
tracing overhead; exits 1 when the delivery oracle fails on any of them:
    python3 perfbench/run.py --all [--seed 1] [--seconds 20]

Harness self-tests:
    python3 perfbench/run.py --selftest

The engine is built from ../src into .bench_build/perfbench (Release).
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench-run")
ALL_WORKLOADS = ["fanout", "fanin", "ingest", "cluster3"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures once, then builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "server.cpp")):
        fail("engine sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def source_id():
    """git sha when the checkout is a repository, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]


def run_once(binary, workload, seed, seconds, trace, sha, echo=True):
    """Runs one workload; returns (result dict, stdout lines)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", SCRATCH, "--git-sha", sha]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("%s run timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s run failed (exit %d)" % (workload, proc.returncode), 1)
    if echo:
        print("\n".join(lines), flush=True)
    result = json.loads(lines[-1])
    names = expected_metrics(trace)
    if names is not None and sorted(names) != sorted(result["metrics"]):
        fail("metrics emitted do not match BENCHMARK.json", 3)
    return result, lines


def end_to_end(lines):
    """Every end-to-end and tail metric a run printed."""
    for line in lines:
        if line.startswith("end_to_end: "):
            return json.loads(line[len("end_to_end: "):])
    return {}


def run_all(binary, seed, seconds, sha):
    ok = True
    for workload in ALL_WORKLOADS:
        print("=" * 72 + "\n%s (seed %d, %s s)" % (workload, seed, seconds), flush=True)
        plain, plain_lines = run_once(binary, workload, seed, seconds, 0, sha, echo=False)
        traced, lines = run_once(binary, workload, seed, seconds, 1, sha, echo=False)
        shown = [l for l in lines if not l.startswith(("{", "end_to_end"))]
        print("\n".join(shown))
        print("end-to-end metrics (untraced run) and tracing overhead "
              "(traced minus untraced):")
        with_trace = end_to_end(lines)
        for name, m in end_to_end(plain_lines).items():
            delta = with_trace.get(name, {}).get("value", float("nan")) - m["value"]
            print("  %-32s %16.6f %-5s overhead %+14.6f" % (name, m["value"], m["unit"], delta))
        for label, res in (("untraced", plain), ("traced", traced)):
            rate = res["failed"] / res["attempted"]
            print("  error_rate (%s) %.9f: %d failed of %d attempted -> %s"
                  % (label, rate, res["failed"], res["attempted"],
                     "correct" if res["correct"] else "ORACLE FAILED"))
            ok = ok and res["correct"]
    print("=" * 72 + "\n" + ("all workloads correct" if ok else "delivery oracle FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return subprocess.run([binary, os.path.join(ROOT, ".bench_build", "perfbench-selftest")],
                              cwd=ROOT).returncode
    if not args.all and not args.workload:
        fail("give --workload NAME, --all or --selftest")
    binary = build("perfbench")
    sha = source_id()
    if args.all:
        return run_all(binary, args.seed, args.seconds, sha)
    run_once(binary, args.workload, args.seed, args.seconds, args.trace, sha)
    return 0


if __name__ == "__main__":
    sys.exit(main())
