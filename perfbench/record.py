"""Record per-unit reference values for every pool entry.

    python3 perfbench/record.py [workload ...]

Runs each pool entry once through its workload's unit and stores the
values (with their certified gaps) in perfbench/reference.json. The
benchmark compares every later unit against these within the summed
certified gaps, so re-recording is only right at a commit whose values
are trusted; say in the change why it was done.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._pin_blas_threads()

import workloads as wl  # noqa: E402


def record(workload: str) -> list[dict]:
    pool = wl.POOLS[workload]()
    wl.certify_pool(workload, pool)
    refs = []
    for i, e in enumerate(pool):
        try:
            out = wl.UNITS[workload](e)
        except wl.BudgetExceeded:
            # Bland overran; the reference verdict comes from Dantzig alone
            out = wl.finish_overrun(e)
        ref = wl.reference_record(workload, out)
        wl.check_unit(workload, e, out, ref)
        refs.append(ref)
        print(workload, i, json.dumps(ref), flush=True)
    return refs


def main() -> None:
    path = HERE / "reference.json"
    data = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    names = sys.argv[1:] or list(wl.POOLS)
    for name in names:
        data["workloads"][name] = record(name)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, cwd=HERE).stdout.strip()
    data["recorded_at_commit"] = commit or "unknown"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
