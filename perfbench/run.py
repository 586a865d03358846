#!/usr/bin/env python3
"""pictdb's benchmark: builds the harness from source and runs one workload.

    python3 perfbench/run.py --workload hot|cold|serve|churn --seed N \
        --seconds S --trace 0|1

`--workload churn-race` also runs, outside the declared workloads: churn's
writer and reader on two threads side by side, with the wrong reads that
concurrent reads still produce counted as failed operations.

Run from the root of a pictdb checkout. The first run configures and builds
the library and the harness (RelWithDebInfo, the repository's default)
under $CARGO_TARGET_DIR or .bench_build; later runs rebuild incrementally.
Lines before the last one are a human-readable report: every metric with
its unit and sample count or ratio base, the fail share with its base, and
the identifying facts (build type, kernel family, source id, seed). The
last line is one JSON object: correct, attempted, failed and the metrics
BENCHMARK.json declares (end-to-end with --trace 0, per-layer with
--trace 1). The exit code is non-zero when a correctness check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

# Runnable on request, but not one of BENCHMARK.json's workloads.
EXTRA_WORKLOADS = ("churn-race",)
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEADLINE_S = 170  # a run must end within 180 s once built
BUILD_DEADLINE_S = 850  # the first run builds


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    # Build outputs stay inside the checkout.
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.abspath(os.path.join(ROOT, target))
    if os.path.commonpath([path, ROOT]) != ROOT:
        path = os.path.join(ROOT, ".bench_build")
    return path


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no pictdb sources next to perfbench/")
    binary = os.path.join(build_dir, "perfbench")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_DEADLINE_S)
    remaining = BUILD_DEADLINE_S - (time.monotonic() - started)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "3"], check=True, stdout=sys.stderr,
                   stderr=sys.stderr, timeout=max(remaining, 1))
    return binary


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]] + \
            list(EXTRA_WORKLOADS):
        parser.error("unknown workload %r" % args.workload)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_root()
    binary = build(os.path.join(bdir, "perfbench"))
    # Relative, so the unix socket path stays short wherever the
    # checkout lives.
    data_dir = os.path.relpath(os.path.join(bdir, "perfbench-data"), ROOT)
    os.makedirs(os.path.join(ROOT, data_dir), exist_ok=True)
    sid = source_id()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--source-id", sid]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=DEADLINE_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("harness exited %d without a result"
                           % proc.returncode)
    result = json.loads(lines[-1])

    info = result["info"]
    print("perfbench %s seed=%s seconds=%s traced=%s build=%s kernel=%s "
          "source=%s" % (info["workload"], info["seed"], info["seconds"],
                         info["traced"], info["build_type"], info["kernel"],
                         info["source"]))
    for key, value in info.items():
        if key not in ("workload", "seed", "seconds", "traced", "build_type",
                       "kernel", "source"):
            print("  info %s = %s" % (key, value))
    for name, m in result["metrics"].items():
        base = " (n=%d %s)" % (m["n"], m["base"]) if m["base"] else ""
        print("  %-30s %16.6f %-6s%s" % (name, m["value"], m["unit"], base))
    attempted, failed = result["attempted"], result["failed"]
    print("  fail_share = %.6g  (%d failed of %d attempted: %d wrong, "
          "%d errors, %d refused)" % (failed / max(attempted, 1), failed,
                                      attempted, result["wrong"],
                                      result["errors"], result["refused"]))
    for why in result["fatal"]:
        print("  CHECK FAILED: " + why)

    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is not None and got["value"] is not None:
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        elif args.trace:
            # A layer this workload never calls into did no work.
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}
            print("  %-30s %16s %-6s (layer not on this workload's path)"
                  % (m["name"], "0", m["unit"]))
        else:
            raise RuntimeError("harness did not report " + m["name"])
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
