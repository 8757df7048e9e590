"""The benchmark's workloads, built only through the package's public API.

Each workload is a list of jobs; a job is one ``ExperimentSpec`` plus the
oracle checks that hold in its regime.  The specs start from the bundled
``PRESETS`` and are trimmed with ``dataclasses.replace`` so that one pass over
a workload fits several times into a run.  Two sizes exist: ``full`` is what
the benchmark measures, ``tiny`` (1,000 steps, one rate) is the same code path
for the benchmark's own tests.

Trace axes have 400 equal intervals and every trace ``n_steps`` is a multiple
of 400, so each sample falls on a step boundary both at ``n_steps`` and at the
4x-step reference; otherwise rounding the sample times to steps would differ
between the two and swamp the step error being measured.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import rabisweep as rs

WORKLOADS = ("quench_scan", "bias_scan", "traces", "formula_tables")
SIZES = ("full", "tiny")

# fig6_valid's bias window (g/omega=1, delta/omega=0.1): +-29 omega.  Pinned for
# the bias trace so that its axis and its reference do not depend on internals.
FIG6_WINDOW = 29.0


@dataclass(frozen=True)
class Job:
    """One experiment of a workload and the oracle checks valid for it."""

    name: str
    spec: rs.ExperimentSpec
    svg_labels: tuple | None = None
    # Scan values at which the sudden-limit Poisson law holds.
    poisson_at: tuple[float, ...] = ()
    # The independent-crossing cascade formula holds on every row.
    cascade: bool = False
    # The exact survival exp(-pi delta^2 / 2v) holds at the end of the sweep.
    survival: bool = False


def _preset(name: str) -> tuple[rs.ExperimentSpec, tuple | None]:
    preset = rs.PRESETS[name]
    return preset.build(), preset.svg_labels


def _regrid_trace(spec: rs.ExperimentSpec, n_intervals: int) -> tuple[float, ...]:
    lo, hi = spec.scan_values[0], spec.scan_values[-1]
    return tuple(np.linspace(lo, hi, n_intervals + 1))


def _quench_scan(size: str) -> list[Job]:
    spec, labels = _preset("fig1a")
    if size == "tiny":
        spec = replace(spec, scan_values=(1e5,), n_steps=1000)
    else:
        spec = replace(spec, scan_values=(1e3, 1e4, 1e5), n_steps=4000)
    return [Job("fig1a", spec, labels, poisson_at=(1e5,))]


def _bias_scan(size: str) -> list[Job]:
    fig6, fig6_labels = _preset("fig6_valid")
    multi, multi_labels = _preset("multimode_small")
    if size == "tiny":
        fig6 = replace(fig6, scan_values=(100.0,), n_steps=1000)
        multi = replace(multi, scan_values=(300.0,), n_steps=1000)
    else:
        fig6 = replace(fig6, scan_values=(100.0, 300.0), n_steps=2000)
        multi = replace(multi, scan_values=(300.0,), n_steps=1000)
    return [
        Job("fig6_valid", fig6, fig6_labels, cascade=True, survival=True),
        Job("multimode_small", multi, multi_labels, survival=True),
    ]


def _traces(size: str) -> list[Job]:
    fig2a, _ = _preset("fig2a")
    fig4a, _ = _preset("fig4a")
    fig6, _ = _preset("fig6_valid")
    if size == "tiny":
        intervals, quench_steps, bias_steps, bias_rate = 40, 1000, 1000, 100.0
    else:
        intervals, quench_steps, bias_steps, bias_rate = 400, 1200, 2000, 100.0
    bias_trace = rs.ExperimentSpec(
        "lz_trace",
        fig6.params,
        "epsilon_over_omega",
        tuple(np.linspace(-FIG6_WINDOW, FIG6_WINDOW, intervals + 1)),
        n_steps=bias_steps,
        options={"rate": bias_rate, "window": FIG6_WINDOW},
    )
    return [
        Job("fig2a", replace(fig2a, scan_values=_regrid_trace(fig2a, intervals), n_steps=quench_steps)),
        Job("fig4a", replace(fig4a, scan_values=_regrid_trace(fig4a, intervals), n_steps=quench_steps)),
        Job("lz_trace_fig6", bias_trace, survival=True),
    ]


def _formula_tables(size: str) -> list[Job]:
    jobs = []
    for name in ("fig5a", "fig5b", "fig5d"):
        spec, labels = _preset(name)
        if size == "tiny":
            spec = replace(spec, scan_values=spec.scan_values[:1])
        jobs.append(Job(name, spec, labels))
    multi, labels = _preset("multimode_small")
    grid = (10.0,) if size == "tiny" else tuple(np.logspace(-1.0, 2.0, 31))
    multi = replace(multi, scan_values=grid, options={**multi.options, "simulate": False})
    jobs.append(Job("multimode_formula", multi, labels))
    return jobs


_BUILDERS = {
    "quench_scan": _quench_scan,
    "bias_scan": _bias_scan,
    "traces": _traces,
    "formula_tables": _formula_tables,
}


def build_jobs(workload: str, size: str = "full") -> list[Job]:
    """The jobs of one workload at one size."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return _BUILDERS[workload](size)
