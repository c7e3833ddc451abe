"""Repeat the benchmark over seeds and summarize its spread.

    python3 perfbench/measure.py --runs 10 [--first-seed 1] [--trace-runs 1]
        [--seconds 30] [--out perfbench/baseline.json] [workload ...]

Runs `run.py` once per (workload, seed), one process at a time, and
reports for every metric its median, quartiles and the quartile spread
as a share of the median -- the numbers BENCHMARK.json's bounds are set
against. With --trace-runs it also makes traced runs and reports the
per-layer medians. With --out it writes the summary, the environment and
the per-layer prediction table (baseline.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: layer metric -> (end-to-end metric it should move, workloads), as
#: predicted when the benchmark was defined
PREDICTIONS = {
    "lp.*": "unit_s_p50, unit_s_tail and in_budget_frac on membership_mixed; "
            "no change on minimax_2222 and snl_tsirelson (under 2% there)",
    "geometry.is_local.*, geometry.vertex_matrix.s":
        "unit_s_* and in_budget_frac on membership_mixed; its setup_s and "
        "peak_rss_mb once vertex matrices stop being materialized",
    "monotones.*": "units_per_s and unit_s_p50 on minimax_2222 (and the "
                   "non-SLSQP part of snl_tsirelson); no change on membership_mixed",
    "scipy.minimize.*": "unit_s_p50 and units_per_s on snl_tsirelson; "
                        "near zero on minimax_2222",
    "wirings.apply.*, divergence.*": "no end-to-end metric (under 1% everywhere)",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return {"details": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "wall_s": wall}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"),
            "values": values}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=ROOT).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": "pinned to 1 in run.py (OPENBLAS/OMP/MKL_NUM_THREADS)",
        "machine": platform.machine(),
        "commit": commit or "unknown",
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-runs", type=int, default=0)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    summary = {}
    for name in names:
        runs = [run_once(name, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        metrics = {}
        for key in runs[0]["result"]["metrics"]:
            metrics[key] = summarize([r["result"]["metrics"][key]["value"] for r in runs])
        # the same runs' per-entry fastest wall times, without the probe
        raw = {key: summarize([r["details"]["raw_wall"][key] for r in runs])
               for key in runs[0]["details"]["raw_wall"]}
        entry = {
            "end_to_end": metrics,
            "raw_wall": raw,
            "run_wall_s": summarize([r["wall_s"] for r in runs]),
            "details": [r["details"] for r in runs],
        }
        if args.trace_runs:
            traced = [run_once(name, args.first_seed + i, seconds, 1)
                      for i in range(args.trace_runs)]
            entry["per_layer"] = {
                key: statistics.median(r["result"]["metrics"][key]["value"] for r in traced)
                for key in traced[0]["result"]["metrics"]
            }
        summary[name] = entry
        print(name, json.dumps({k: [round(v["median"], 6), round(v["spread"], 4)]
                                for k, v in metrics.items()}),
              "raw", json.dumps({k: round(v["spread"], 4) for k, v in raw.items()}),
              f"run wall {entry['run_wall_s']['median']:.1f}s", flush=True)
        if args.trace_runs:
            shares = {k: round(v, 4) for k, v in entry["per_layer"].items()
                      if k.endswith("share") or k.startswith("trace.")}
            print("   ", json.dumps(shares), flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps({
            "environment": environment(),
            "runs_per_workload": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "seconds": seconds,
            "predictions": PREDICTIONS,
            "workloads": summary,
        }, indent=1) + "\n")


if __name__ == "__main__":
    main()
