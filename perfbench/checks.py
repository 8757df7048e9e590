"""Correctness gate: every row of every job is checked on every pass.

A row fails when the package marks it unconverged, when its simulated
probabilities differ from the committed 4x-step reference by more than
``REF_TOL``, when its readout probabilities do not sum to 1, or when an oracle
that holds in the job's regime disagrees with it.  Closed-form oracle columns
must match their committed values to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.npz"
REFERENCE_STEP_FACTOR = 4

# Largest |dP| against the 4x-step reference a simulated row may show.
REF_TOL = 1e-6
# Closed-form oracle columns are recomputed, not integrated: rounding only.
ORACLE_REF_TOL = 1e-12
# Same limit as the package's own row check on the probability sum.
SUM_TOL = 1e-6
# Oracle tolerances, each well above the deviation the seed code shows in the
# regime where the oracle holds (measured: Poisson 5.6e-3 at v/omega^2=1e5,
# cascade 2.8e-4 and survival 2.4e-4 on fig6_valid, survival 1.4e-4 on
# multimode_small) and far below what a wrong propagator gives.
POISSON_TOL = 1e-2
CASCADE_TOL = 1e-3
SURVIVAL_TOL = 1e-3
# max_dp_ref is reported no lower than this: below it the 4x-step reference's
# own step error and rounding in the propagator decide the value.
DP_FLOOR = 1e-10


def label_key(label) -> str:
    photons = label.photons
    if isinstance(photons, tuple):
        photons = ";".join(str(n) for n in photons)
    return f"{label.scheme}|{label.qubit}|{photons}"


@dataclass
class TableArrays:
    """A result table as dense arrays over a fixed label order (NaN = absent)."""

    scan: np.ndarray
    labels: list[str]
    sim: np.ndarray
    oracle: np.ndarray
    degenerate: np.ndarray
    converged: np.ndarray


def table_arrays(table, labels: list[str] | None = None) -> TableArrays:
    """Flatten a ResultTable; labels not in ``labels`` are appended."""
    labels = list(labels or [])
    index = {lab: i for i, lab in enumerate(labels)}
    for row in table.rows:
        for recs in (row.sim, row.oracle):
            for rec in recs or ():
                key = label_key(rec.label)
                if key not in index:
                    index[key] = len(labels)
                    labels.append(key)
    shape = (len(table.rows), len(labels))
    sim = np.full(shape, np.nan)
    oracle = np.full(shape, np.nan)
    degenerate = np.zeros(shape, dtype=bool)
    for i, row in enumerate(table.rows):
        for rec in row.sim or ():
            j = index[label_key(rec.label)]
            sim[i, j] = rec.probability
            degenerate[i, j] = bool(getattr(rec, "degenerate_tracking", False))
        for rec in row.oracle or ():
            oracle[i, index[label_key(rec.label)]] = rec.probability
    return TableArrays(
        scan=np.array([row.scan_value for row in table.rows], dtype=float),
        labels=labels,
        sim=sim,
        oracle=oracle,
        degenerate=degenerate,
        converged=np.array([bool(row.converged) for row in table.rows]),
    )


def save_reference(path: Path, entries: dict[str, TableArrays]) -> None:
    arrays = {}
    for key, arr in entries.items():
        arrays[f"{key}/scan"] = arr.scan
        arrays[f"{key}/labels"] = np.array(arr.labels, dtype=str)
        arrays[f"{key}/sim"] = arr.sim
        arrays[f"{key}/oracle"] = arr.oracle
    np.savez_compressed(path, **arrays)


def load_reference(path: Path = REFERENCE_FILE) -> dict[str, TableArrays]:
    out: dict[str, TableArrays] = {}
    with np.load(path, allow_pickle=False) as data:
        keys = {name.rsplit("/", 1)[0] for name in data.files}
        for key in keys:
            sim = data[f"{key}/sim"]
            out[key] = TableArrays(
                scan=data[f"{key}/scan"],
                labels=[str(s) for s in data[f"{key}/labels"]],
                sim=sim,
                oracle=data[f"{key}/oracle"],
                degenerate=np.zeros(sim.shape, dtype=bool),
                converged=np.ones(sim.shape[0], dtype=bool),
            )
    return out


def reference_key(size: str, workload: str, job_name: str) -> str:
    return f"{size}/{workload}/{job_name}"


@dataclass
class JobCheck:
    """Outcome of checking one job's table."""

    rows: int
    rows_failed: int
    max_dp: float
    problems: list[str] = field(default_factory=list)


def _survival_rate(job, scan_value: float) -> float:
    """v/delta^2 of the sweep a row ends."""
    if job.spec.kind == "lz_trace":
        return float(job.spec.options["rate"])
    return scan_value


def check_table(job, table, ref: TableArrays) -> JobCheck:
    """Check every row of ``table`` against ``ref`` and the job's oracles."""
    n_rows = len(job.spec.scan_values)
    cur = table_arrays(table, ref.labels)
    if cur.sim.shape != ref.sim.shape:
        return JobCheck(
            n_rows, n_rows, math.inf,
            [f"{job.name}: table shape {cur.sim.shape} != reference {ref.sim.shape}"],
        )
    failed = ~cur.converged
    problems = [f"{job.name}: row {s:g} unconverged" for s in cur.scan[failed]]

    def fail(mask: np.ndarray, what: str) -> None:
        nonlocal failed
        for i in np.nonzero(mask & ~failed)[0]:
            problems.append(f"{job.name}: row {cur.scan[i]:g} {what}")
        failed = failed | mask

    fail(~np.isclose(cur.scan, ref.scan, rtol=1e-9, atol=1e-12), "scan value differs from reference")
    for which in ("sim", "oracle"):
        fail(
            np.any(np.isnan(getattr(cur, which)) != np.isnan(getattr(ref, which)), axis=1),
            f"{which} labels differ from reference",
        )
    dp_sim = np.where(cur.degenerate, 0.0, np.abs(cur.sim - ref.sim))
    dp_sim = np.nan_to_num(dp_sim, nan=0.0)
    dp_oracle = np.nan_to_num(np.abs(cur.oracle - ref.oracle), nan=0.0)
    fail(dp_sim.max(axis=1, initial=0.0) > REF_TOL, f"|dP| vs reference above {REF_TOL:g}")
    fail(dp_oracle.max(axis=1, initial=0.0) > ORACLE_REF_TOL, "oracle column differs from reference")

    has_sim = ~np.all(np.isnan(cur.sim), axis=1)
    sums = np.nansum(cur.sim, axis=1)
    fail(has_sim & (np.abs(sums - 1.0) > SUM_TOL), f"readout sums differ from 1 by more than {SUM_TOL:g}")

    oracle_dev = np.nan_to_num(np.abs(cur.sim - cur.oracle), nan=0.0).max(axis=1, initial=0.0)
    if job.poisson_at:
        at = np.isin(cur.scan, job.poisson_at)
        fail(at & (oracle_dev > POISSON_TOL), f"deviates from the Poisson sudden limit by more than {POISSON_TOL:g}")
    if job.cascade:
        fail(oracle_dev > CASCADE_TOL, f"deviates from the cascade formula by more than {CASCADE_TOL:g}")
    if job.survival:
        # The last row of a trace ends the sweep; every row of a scan does.
        rows = [len(cur.scan) - 1] if job.spec.kind == "lz_trace" else range(len(cur.scan))
        survival_col = [j for j, lab in enumerate(cur.labels) if lab.startswith("displaced|down|")
                        and set(lab.rsplit("|", 1)[1].split(";")) == {"0"}]
        mask = np.zeros(len(cur.scan), dtype=bool)
        for i in rows:
            exact = math.exp(-math.pi / (2.0 * _survival_rate(job, cur.scan[i])))
            got = cur.sim[i, survival_col[0]] if survival_col else math.nan
            mask[i] = not abs(got - exact) <= SURVIVAL_TOL
        fail(mask, f"survival deviates from exp(-pi delta^2/2v) by more than {SURVIVAL_TOL:g}")

    max_dp = float(max(dp_sim.max(initial=0.0), dp_oracle.max(initial=0.0)))
    return JobCheck(n_rows, int(failed.sum()), max_dp, problems)
