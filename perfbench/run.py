#!/usr/bin/env python3
"""Builds and runs the INDaaS end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a checkout of the repository. The first call
configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the benchmark's JSON result.
Traced runs (--trace 1) also write their spans to
.bench_build/traces/<workload>-seed<n>.jsonl.

Workloads: remote_sia_fattree, svc_small_mixed, psop_ring_k3. See
perfbench/README.md for what each measures.
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
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("remote_sia_fattree", "svc_small_mixed", "psop_ring_k3")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """The git revision when the checkout is a repository, else a digest of
    the sources, so every result names the code it measured."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".h", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    def run(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}", done.returncode)

    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(HERE), "-B", str(BUILD),
             f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench"])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no INDaaS sources under {ROOT}; run from a full checkout")
    build()

    cmd = [str(BUILD / "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--source-id={source_id()}"]
    if args.trace:
        traces = BUILD_ROOT / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={traces / f'{args.workload}-seed{args.seed}.jsonl'}")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed", 3)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail(f"perfbench exited with code {done.returncode}", done.returncode)

    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = declared_metrics(args.trace)
    got = set(result.get("metrics", {}))
    if got != want:
        fail(f"reported metrics differ from BENCHMARK.json: missing {sorted(want - got)}, "
             f"undeclared {sorted(got - want)}", 4)


if __name__ == "__main__":
    main()
