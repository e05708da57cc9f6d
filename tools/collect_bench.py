#!/usr/bin/env python3
"""Collects the per-PR benchmark snapshot (BENCH_<tag>.json).

Runs the machine-readable benchmarks and folds their --json-out documents
into one flat snapshot at the repo root:

    {"<benchmark name>": {"p50_seconds": ..., "bytes": ..., "config": {...}}}

Usage (from the repo root, after building):
    tools/collect_bench.py --tag=pr5 [--build=build] [--fig8-n-max=10000]

Compare snapshots across PRs with tools/check_bench.py.
"""

import argparse
import json
import os
import pathlib
import socket
import subprocess
import sys
import tempfile


def snapshot_metadata(tag):
    """Provenance stamped into the snapshot under "_metadata".

    Keys starting with "_" are not benchmarks; check_bench.py skips them.
    Knowing which commit and host produced a snapshot is what makes a
    cross-PR comparison interpretable (a 10% swing across hosts is noise;
    on the same host it is a finding).
    """
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], check=True, capture_output=True, text=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git_sha = "unknown"
    metadata = {"tag": tag, "git_sha": git_sha, "hostname": socket.gethostname()}
    # A chaos plan in the environment poisons every number below: injected
    # delays/stalls look like real regressions. Record it so check_bench.py
    # can flag the comparison instead of letting it pass as a clean run.
    chaos_plan = os.environ.get("INDAAS_CHAOS")
    if chaos_plan:
        metadata["chaos_plan"] = chaos_plan
    return metadata


def run_bench(cmd):
    print("+ " + " ".join(cmd), file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)


def collect_risk_groups(build, workdir):
    """bench_risk_groups: one entry per (topology case, engine)."""
    out = workdir / "risk_groups.json"
    run_bench([str(build / "bench" / "bench_risk_groups"), f"--json-out={out}"])
    doc = json.loads(out.read_text())
    snapshot = {}
    for result in doc["results"]:
        name = f"risk_groups/{result['bench']}/{result['engine']}"
        snapshot[name] = {
            "p50_seconds": result["ns_per_op"] / 1e9,
            "bytes": 0,
            "config": {
                "topology": result["topology"],
                "engine": result["engine"],
                "groups": result["groups"],
                "reps": doc["reps"],
                "threads": doc["threads"],
            },
        }
    return snapshot


def collect_fig8(build, workdir, n_max):
    """bench_fig8 --real: one entry per loopback-ring (k, n) point."""
    out = workdir / "fig8.json"
    run_bench([
        str(build / "bench" / "bench_fig8_pia_overheads"),
        "--real",
        "--ks-n-cap=0",  # the KS baseline is minutes-slow and has no JSON row
        f"--n-max={n_max}",
        f"--json-out={out}",
    ])
    doc = json.loads(out.read_text())
    snapshot = {}
    for point in doc["real_points"]:
        name = f"fig8_psop_ring/k{point['k']}_n{point['n']}"
        snapshot[name] = {
            "p50_seconds": point["measured_wall_s"],
            "bytes": point.get("bytes_sent", 0),
            "config": {
                "k": point["k"],
                "n": point["n"],
                "estimated_wall_s": point["estimated_wall_s"],
                "matches_plaintext": point["matches_plaintext"],
            },
        }
    # Per-method bytes-on-wire: exact P-SOP vs MinHash-sampled vs sketch
    # exchange at the same (k, n). The bytes column is the headline — the
    # sketch rows stay flat as n grows while exact rows scale linearly.
    for point in doc["methods"]:
        name = f"fig8_methods/{point['method']}/k{point['k']}_n{point['n']}"
        snapshot[name] = {
            "p50_seconds": point["compute_s_per_party"],
            "bytes": point["bytes_sent_per_party"],
            "config": {
                "method": point["method"],
                "k": point["k"],
                "n": point["n"],
                "jaccard": point["jaccard"],
            },
        }
    return snapshot


def collect_sketch_allpairs(build, workdir):
    """bench_sketch_allpairs: all-pairs sketch audit plus SIMD kernel points.

    --skip-calib skips the exact-P-SOP calibration ring (seconds per pair);
    the snapshot keeps the audit wall time, the candidate-pair reduction and
    the scalar/SIMD intersect costs, which is what regressions show up in.
    """
    out = workdir / "sketch_allpairs.json"
    run_bench([
        str(build / "bench" / "bench_sketch_allpairs"),
        "--skip-calib",
        f"--json-out={out}",
    ])
    doc = json.loads(out.read_text())
    providers = doc["providers"]
    snapshot = {
        f"sketch_allpairs/audit_p{providers}": {
            "p50_seconds": doc["audit_wall_s"],
            "bytes": doc["sketch_bytes_total"],
            "config": {
                "providers": providers,
                "sketch_k": doc["sketch_k"],
                "lsh_bands": doc["lsh_bands"],
                "lsh_rows": doc["lsh_rows"],
                "pairs_evaluated": doc["pairs_evaluated"],
                "ring_exec_reduction": doc["ring_exec_reduction"],
                "recall_top10": doc["recall_top10"],
                "mae_candidates": doc["mae_candidates"],
            },
        },
        "sketch_allpairs/intersect_scalar": {
            "p50_seconds": doc["scalar_ns_per_pair"] / 1e9,
            "bytes": 0,
            "config": {"elements": doc["elements"]},
        },
        f"sketch_allpairs/intersect_{doc['simd_level']}": {
            "p50_seconds": doc["simd_ns_per_pair"] / 1e9,
            "bytes": 0,
            "config": {
                "elements": doc["elements"],
                "simd_speedup": doc["simd_speedup"],
            },
        },
    }
    for point in doc["k_sweep"]:
        snapshot[f"sketch_allpairs/build_k{point['k']}"] = {
            "p50_seconds": point["build_s"],
            "bytes": point["bytes_per_provider"],
            "config": {"k": point["k"], "mae_planted": point["mae_planted"]},
        }
    return snapshot


def collect_svc_rpc(build, workdir):
    """bench_svc_rpc: serial client RPC latency (ping and structural audit).

    Runs the same RPC mix twice — profiler off, then sampling at the
    production default of 99 Hz — so every snapshot carries the measured
    continuous-profiling overhead. The profiled rows get their own names
    (svc_rpc/<phase>_profiled99) so the baseline svc_rpc/<phase> series
    stays comparable across PRs, and each profiled row records the
    off-vs-on ratio from the same collection run in its config.
    """
    docs = {}
    for hz in (0, 99):
        out = workdir / f"svc_rpc_hz{hz}.json"
        run_bench([
            str(build / "bench" / "bench_svc_rpc"),
            f"--profile-hz={hz}",
            f"--json-out={out}",
        ])
        docs[hz] = json.loads(out.read_text())
    snapshot = {}
    for phase in ("ping", "audit"):
        off = docs[0][phase]
        on = docs[99][phase]
        snapshot[f"svc_rpc/{phase}"] = {
            "p50_seconds": off["us_per_rpc"] / 1e6,
            "bytes": 0,
            "config": {"rpcs": off["rpcs"]},
        }
        snapshot[f"svc_rpc/{phase}_profiled99"] = {
            "p50_seconds": on["us_per_rpc"] / 1e6,
            "bytes": 0,
            "config": {
                "rpcs": on["rpcs"],
                "profile_hz": 99,
                "overhead_vs_off": on["us_per_rpc"] / off["us_per_rpc"],
            },
        }
    return snapshot


def collect_svc_saturation(build, workdir):
    """bench_svc_saturation: pipelining gain, sustained concurrency, open loop."""
    out = workdir / "svc_saturation.json"
    run_bench([str(build / "bench" / "bench_svc_saturation"), f"--json-out={out}"])
    doc = json.loads(out.read_text())
    snapshot = {
        "svc_saturation/mux_ping": {
            "p50_seconds": 1.0 / doc["pipelining"]["mux_rps"],
            "bytes": 0,
            "config": doc["pipelining"],
        },
    }
    for run in doc["sustained"]:
        name = f"svc_saturation/reactor_c{run['conns']}"
        snapshot[name] = {
            "p50_seconds": run["p50_ms"] / 1e3,
            "bytes": 0,
            "config": {
                "conns": run["conns"],
                "sustained": run["sustained"],
                "completed": run["completed"],
                "p99_ms": run["p99_ms"],
            },
        }
    for run in doc["open_loop"]:
        name = f"svc_saturation/openloop_r{run['rate']:.0f}"
        snapshot[name] = {
            "p50_seconds": run["p50_ms"] / 1e3,
            "bytes": 0,
            "config": {
                "rate": run["rate"],
                "achieved_rps": run["achieved_rps"],
                "shed": run["shed"],
                "p99_ms": run["p99_ms"],
            },
        }
    return snapshot


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tag", required=True, help="snapshot tag, e.g. pr5")
    parser.add_argument("--build", default="build", help="CMake build directory")
    parser.add_argument("--fig8-n-max", type=int, default=1000,
                        help="largest --real ring dataset (keeps collection fast)")
    parser.add_argument("--out-dir", default=".", help="where BENCH_<tag>.json lands")
    args = parser.parse_args()

    build = pathlib.Path(args.build)
    snapshot = {"_metadata": snapshot_metadata(args.tag)}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        snapshot.update(collect_risk_groups(build, workdir))
        snapshot.update(collect_fig8(build, workdir, args.fig8_n_max))
        snapshot.update(collect_sketch_allpairs(build, workdir))
        snapshot.update(collect_svc_rpc(build, workdir))
        snapshot.update(collect_svc_saturation(build, workdir))

    out_path = pathlib.Path(args.out_dir) / f"BENCH_{args.tag}.json"
    out_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    benchmarks = sum(1 for name in snapshot if not name.startswith("_"))
    print(f"wrote {out_path} ({benchmarks} benchmarks)")


if __name__ == "__main__":
    main()
