"""bellwire benchmark: time to certified answers, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload minimax_2222 --seed 1 --seconds 30 --trace 0

Each invocation runs one workload in this single process as a closed
loop (one caller; the next unit starts after the last one returns). The
workload's fixed input pool is visited in an order fixed by --seed, in
as many whole passes as fit in --seconds (at least two). Every unit's
output is checked (see workloads.check_unit); any failed check makes the
run report correct=false and exit 1.

--trace 0 prints the end-to-end metrics. --trace 1 runs two untraced
passes, then one traced pass with spans around every call into the
library's layers (tracing.py), prints the per-layer metrics, and writes
the spans to perfbench/out/. The last line of stdout is always the
result object; the line before it holds the run's details.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-ups timed per run; setup_s is their median
SETUP_REPEATS = 5
#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
#: untraced passes per run, at least
MIN_PASSES = 2


class Probe:
    """Fixed kernels that share no code with bellwire, timed just before
    and just after every unit to read the machine's speed around it.

    On a shared host the same unit runs up to twice as slow in phases
    from milliseconds to tens of seconds long, and the share of slow
    phases differs between runs minutes apart. Each unit's time is
    therefore divided by the probe's mean slowdown before and after it
    (its time over REF_S, its fastest time on the machine that defined
    the benchmark), which gives seconds at that machine's full speed.
    `interp` is a 16x16 multiplicative-update loop, like the Frank-Wolfe
    kernel; `pivot` is argmin/where/outer updates on an 82x811 tableau,
    like a membership solve. A workload uses the kernels in KINDS.
    """

    REF_S = {"interp": 2.4e-3, "pivot": 2.5e-3}
    #: kernels per workload, both by default; membership units slow down
    #: like the pivot kernel, much less than the interpreted loop does
    KINDS = {"membership_mixed": ("pivot",)}

    def __init__(self, workload: str):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.M = rng.random((16, 16))
        self.T = rng.random((82, 811))
        self.U = np.empty_like(self.T)
        kinds = self.KINDS.get(workload, ("interp", "pivot"))
        self.kernels = [getattr(self, "_" + k) for k in kinds]
        self.ref_s = sum(self.REF_S[k] for k in kinds)

    def _interp(self):
        x = self.np.full(16, 1.0 / 16)
        for _ in range(1000):
            v = self.M @ x
            x = v / v.sum()

    def _pivot(self):
        np, T = self.np, self.T
        for it in range(20):
            col = int(np.argmin(T[-1, :-1] - T[it, :-1]))
            rows = np.where(T[:-1, col] > 0.5)[0]
            r = int(rows[0]) if rows.size else 0
            np.subtract(T, np.outer(T[:, col] / T[r, col], T[r]), out=self.U)

    def slowdown(self) -> float:
        t0 = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        return (time.perf_counter() - t0) / self.ref_s


def _pin_blas_threads() -> None:
    # before numpy is imported anywhere in this process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _load():
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def set_up(workload: str):
    wl = _load()
    pool = wl.POOLS[workload]()
    wl.certify_pool(workload, pool)
    wl.warm_up(pool)
    with open(HERE / "reference.json") as fh:
        refs = json.load(fh)["workloads"][workload]
    if len(refs) != len(pool):
        raise SystemExit(f"reference.json has {len(refs)} entries, pool has {len(pool)}")
    return wl, pool, refs


def time_setups(workload: str, seed: int, probe: Probe) -> tuple[list[float], list[float]]:
    """Wall time of fresh set-ups (interpreter start, imports, input
    generation and warm-up), each in its own process, and the same
    divided by the probe's mean slowdown before and after it."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe.slowdown()
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms,
        # which rounds the time; a set-up that hangs would hang this
        # process's own set-up just after anyway
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] / ((before + probe.slowdown()) / 2))
    return times, scaled


def tail(cost: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND executions beyond
    it in every run, and its nearest-rank value over the per-entry costs.
    Each entry runs at least MIN_PASSES times, so the percentile is fixed
    by the pool size alone and does not move with the run's pass count."""
    n = len(cost)
    beyond = -(-TAIL_BEYOND // MIN_PASSES)  # entries beyond the percentile
    return 100.0 * (n - beyond) / n, sorted(cost)[n - beyond - 1]


def run_pass(wl, workload, pool, refs, order, overran, tracer=None, probe=None):
    """One pass over the pool in `order`. Returns per-entry wall times,
    the same divided by the probe's slowdown (equal to the wall times
    without a probe), passed and failed counts, units with a nonlocal
    answer, the first check failure (or None) and the failed entries.

    A unit that overruns its budget is timed at the budget and added to
    `overran`. It is not a failed unit: its box is then decided by
    Dantzig alone, outside the timed region, and that verdict is checked.
    Entries in `overran` exceeded their budget in an earlier pass; they
    are not run again and keep the budget as their time."""
    unit_fn = wl.UNITS[workload]
    times, scaled, passed, failed, nonlocal_units, bad = {}, {}, 0, 0, 0, None
    failed_uids = set()
    for uid in order:
        if uid in overran:
            times[uid] = scaled[uid] = wl.MEMBERSHIP_BUDGET_S
            continue
        e, ref = pool[uid], refs[uid]
        before = probe.slowdown() if probe else 1.0
        out = None
        with tracer.unit_span(uid) if tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                out = unit_fn(e)
            except wl.BudgetExceeded:
                overran.add(uid)
            except wl.UNIT_FAILURES:
                pass
            dt = time.perf_counter() - t0
        slowdown = (before + probe.slowdown()) / 2 if probe else 1.0
        if uid in overran:
            dt = wl.MEMBERSHIP_BUDGET_S
            try:
                out = wl.finish_overrun(e)
            except wl.UNIT_FAILURES:
                pass
        if out is None:
            failed += 1
            failed_uids.add(uid)
        else:
            nonlocal_units += wl.answered_nonlocal(workload, out)
            try:
                wl.check_unit(workload, e, out, ref)
                passed += 1
            except wl.CheckFailed as err:
                failed += 1
                failed_uids.add(uid)
                bad = bad or f"unit {uid}: {err}"
        times[uid] = dt
        scaled[uid] = dt if uid in overran else dt / slowdown
    return times, scaled, passed, failed, nonlocal_units, bad, failed_uids


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "bellwire" / "__init__.py").is_file():
        print(f"bellwire sources not found under {SRC}", file=sys.stderr)
        return 2
    _pin_blas_threads()
    if args.setup_only:
        set_up(args.workload)
        return 0

    probe = None if args.trace else Probe(args.workload)
    setups, scaled_setups = time_setups(args.workload, args.seed, probe) if probe else ([], [])
    wl, pool, refs = set_up(args.workload)
    order = wl.stratified_order(pool, args.seed)

    passes, pass_walls = [], []
    overran: set[int] = set()

    def timed_pass(pass_overran, tracer=None):
        t0 = time.perf_counter()
        passes.append(run_pass(wl, args.workload, pool, refs, order, pass_overran,
                               tracer, probe))
        pass_walls.append(time.perf_counter() - t0)

    timed_pass(overran)
    per_layer = None
    if args.trace:
        from tracing import Tracer

        # the first pass pays first-call costs; compare against the second
        timed_pass(overran)
        tracer = Tracer()
        with tracer.installed():
            # entries that overran are traced again, so the pass counts them
            timed_pass(set(), tracer)
        per_layer = tracer.per_layer()
        # per-entry times, so an entry that overran counts in both passes
        untraced, traced = (sum(p[0].values()) for p in passes[1:])
        per_layer["trace.overhead_frac"] = traced / untraced - 1.0
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        # start another pass only if one as long as the last still fits
        while len(passes) < MIN_PASSES or sum(pass_walls) + pass_walls[-1] <= args.seconds:
            timed_pass(overran)

    entries = range(len(pool))
    # per-entry cost: the median of its speed-scaled executions
    cost = [statistics.median(p[1][uid] for p in passes) for uid in entries]
    # and, unscaled, the fastest of its executions
    fastest = [min(p[0][uid] for p in passes) for uid in entries]
    passed = sum(p[2] for p in passes)
    failed = sum(p[3] for p in passes)
    attempted = passed + failed
    # entries that finished within budget and passed every check
    ok_entries = len(pool) - len(overran | set().union(*(p[6] for p in passes)))
    bad = next((p[5] for p in passes if p[5]), None)
    pct, tail_s = tail(cost)

    details = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "pool_size": len(pool), "N": attempted, "passed": passed,
        "tail_percentile": pct, "nonlocal_share": sum(p[4] for p in passes) / max(passed, 1),
        "over_budget": sorted(overran),
        "setup_s_samples": setups, "failed_check": bad,
        "pass_wall_s": pass_walls,
        "slowest_units": sorted(zip(cost, entries), reverse=True)[:5],
        "raw_wall": {
            "units_per_s": ok_entries / sum(fastest),
            "unit_s_p50": statistics.median(fastest),
            "unit_s_tail": tail(fastest)[1],
            "setup_s": statistics.median(setups) if setups else None,
        },
    }
    if per_layer is None:
        metrics = {
            "units_per_s": (ok_entries / sum(cost), "1/s"),
            "unit_s_p50": (statistics.median(cost), "s"),
            "unit_s_tail": (tail_s, "s"),
            "in_budget_frac": (ok_entries / len(pool), "frac"),
            "setup_s": (statistics.median(scaled_setups), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    else:
        units = {k: "count" for k in per_layer}
        units.update({k: "s" for k in per_layer if k.endswith(".s") or k.endswith("self_s")})
        units.update({k: "frac" for k in per_layer if k.endswith("share") or "frac" in k})
        units.update({"lp.pivots_per_s": "1/s", "monotones.fw_iterations_per_s": "1/s",
                      "lp.mb_moved": "MB_computed"})
        metrics = {k: (v, units[k]) for k, v in per_layer.items()}
    print(json.dumps(details))
    print(json.dumps({
        "correct": bad is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if bad is None else 1


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
