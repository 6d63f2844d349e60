#!/usr/bin/env python3
"""Benchmark entry point for vosim (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the vosim library from
src/ plus the vosbench program) into .bench_build/ when needed, runs one
workload, checks the output digest against the reference recorded for
that seed and nproc in perfbench/references.json (when there is one),
writes the full record to .bench_out/ and prints, as the last stdout
line, {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("campaign_cold", "characterize_sweep", "fleet_closed_loop",
             "serve_mixed")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace")[-20000:])
        fail("build step failed: " + " ".join(cmd))


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full checkout")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    run_logged(["cmake", "--build", build_dir, "-j", jobs],
               max(1.0, deadline - time.monotonic()))
    binary = os.path.join(build_dir, "vosbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no vosbench binary")
    return binary


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    sha = out.stdout.decode().strip()
    return sha if out.returncode == 0 and sha else "none"


def source_sha256():
    """Digest of the sources the benchmark builds, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_dir, "perfbench")
    binary = build(build_dir)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", ".bench_out", "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("vosbench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.decode(errors="replace").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("vosbench exited with code %d" % proc.returncode)
    record = json.loads(lines[-1])

    # Cells depend on the worker count in their last bits (see README,
    # Defects), so references are kept per nproc; a host whose nproc
    # has none only checks that its reps agree.
    with open(os.path.join(HERE, "references.json")) as f:
        refs = json.load(f).get(args.workload, {})
    refs = refs.get("nproc=%d" % record["host"]["nproc"], {})
    expected = refs.get(str(args.seed))
    record["reference"] = {
        "digest": expected,
        "match": None if expected is None else expected == record["digest"],
    }
    record["host"]["src_sha256"] = source_sha256()
    correct = bool(record["correct"]) and expected in (None,
                                                      record["digest"])
    record["correct"] = correct

    name = "result-%s-%d-trace%d.json" % (args.workload, args.seed,
                                          args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("digest = %s (reference: %s)" % (
        record["digest"], "none for this seed and nproc" if expected is None
        else "match" if expected == record["digest"] else "MISMATCH"))
    print("host = " + json.dumps(record["host"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
