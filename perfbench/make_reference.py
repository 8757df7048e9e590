"""Regenerate perfbench/reference.npz: every job of every workload and size,
run at 4x its ``n_steps``.  Formula-only jobs store just their oracle column.

    python3 perfbench/make_reference.py

The committed file was produced from the seed code.  Regenerating it from a
later commit would measure that commit against itself, so do it only when the
workloads themselves change.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import rabisweep as rs  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    entries = {}
    for size in workloads.SIZES:
        for workload in workloads.WORKLOADS:
            for job in workloads.build_jobs(workload, size):
                spec = replace(job.spec, n_steps=checks.REFERENCE_STEP_FACTOR * job.spec.n_steps)
                t0 = time.perf_counter()
                table = rs.run_experiment(spec)
                if not all(row.converged for row in table.rows):
                    raise SystemExit(f"{size}/{workload}/{job.name}: reference run unconverged")
                key = checks.reference_key(size, workload, job.name)
                entries[key] = checks.table_arrays(table)
                print(f"{key}: {len(table.rows)} rows, {time.perf_counter() - t0:.1f} s", flush=True)
    checks.save_reference(checks.REFERENCE_FILE, entries)
    print(f"wrote {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
