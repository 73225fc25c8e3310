#!/usr/bin/env python3
"""End-to-end benchmark over IOR campaign traces.

Run from the repository root:

    python3 perfbench/run.py --workload ingest|serve_mixed|serve_wide \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/, elog_tool and iobench) into
$CARGO_TARGET_DIR (default .bench_build), generates the workload's IOR
campaign from the seed in a separate process, then runs the workload.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. Build and generator
output goes to stderr. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "serve_mixed", "serve_wide")
BUILD_TIMEOUT_S = 700  # the first run, build included, stays within 900 s
RUN_BUDGET_S = 175  # gen + run stay within a 180 s limit per run


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_step(cmd, timeout, env=None, capture=False):
    """Runs cmd, sends its stdout to stderr unless captured; kills it on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out after {timeout}s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def source_digest():
    """Content digest of what the benchmark builds (the checkout has no git)."""
    h = hashlib.sha256()
    for top in ("src", "examples", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    build_dir = os.path.join(build_root, "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"] + generator,
                 BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    iobench = os.path.join(build_dir, "iobench")
    elog_tool = os.path.join(build_dir, "elog_tool")

    # Inputs and scratch live inside the checkout; the run's own
    # temporary files (shard blobs) too.
    run_dir = os.path.join(build_root, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    data_dir = os.path.join(run_dir, "data")
    work_dir = os.path.join(run_dir, "work")
    tmp_dir = os.path.join(run_dir, "tmp")
    for d in (data_dir, work_dir, tmp_dir):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    # The traced run's spans outlive the run directory.
    spans_dir = os.path.join(build_root, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        run_step([iobench, "gen", "--workload", args.workload, "--seed", str(args.seed),
                  "--out", data_dir], RUN_BUDGET_S, env)
        # Write the generated traces back now, so the kernel's writeback
        # does not compete with the measured passes.
        os.sync()
        out = run_step([iobench, "run", "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--data", data_dir, "--work", work_dir, "--elog-tool", elog_tool,
                        "--commit", source_digest(), "--spans", spans],
                       max(1, deadline - time.monotonic()), env, capture=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith('{"correct"'):
        fail("iobench printed no result")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
