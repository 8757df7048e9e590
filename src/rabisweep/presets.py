"""Bundled desk-scale experiment presets.

Names follow the library's figure set: fig1*/fig3* are rate scans toward and
away from strong coupling, fig2*/fig4* the matching time traces, fig5* the
cascade-formula curves, fig6* the formula-vs-simulation tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytics import cascade_gaps
from .experiments import ExperimentSpec, default_quench_delta_hi
from .model import BasisLabel, Mode, MultiModeParams, QrmParams, default_n_fock


def _log_grid(lo_exp: float, hi_exp: float, per_decade: int) -> tuple[float, ...]:
    n = int(round((hi_exp - lo_exp) * per_decade)) + 1
    return tuple(np.logspace(lo_exp, hi_exp, n))


def _quench_params(g_over_omega: float, n_fock: int | None = None) -> QrmParams:
    nf = n_fock if n_fock is not None else default_n_fock(g_over_omega, 1.0)
    return QrmParams(delta=0.0, epsilon=0.0, omega=1.0, g=g_over_omega, n_fock=nf)


def _quench_scan(
    kind: str,
    g_over_omega: float,
    grid: tuple[float, ...],
    n_fock: int | None = None,
    delta_hi: float | None = None,
) -> ExperimentSpec:
    p = _quench_params(g_over_omega, n_fock)
    options = {}
    if delta_hi is not None:
        options["delta_hi"] = delta_hi
    return ExperimentSpec(kind, p, "v_over_omega2", grid, options=options)


def _quench_trace(
    direction: str,
    g_over_omega: float,
    rate: float = 1e4,
    n_points: int = 400,
    n_fock: int | None = None,
) -> ExperimentSpec:
    p = _quench_params(g_over_omega, n_fock)
    hi = default_quench_delta_hi(p)
    if direction == "ns":
        axis = tuple(np.linspace(-hi, 0.0, n_points))
        name = "v_times_t_minus_T_over_omega"
    else:
        axis = tuple(np.linspace(0.0, hi, n_points))
        name = "v_times_t_over_omega"
    return ExperimentSpec(
        "quench_trace", p, name, axis, options={"direction": direction, "rate": rate}
    )


def _formula_grid(g_over_omega: float, n_top: int = 5, per_decade: int = 20) -> tuple[float, ...]:
    """v/delta^2 range bracketing every cascade peak up to n_top."""
    spec = cascade_gaps(1.0, g_over_omega, 1.0, n_max=max(n_top, 1))
    scales = [
        math.pi * spec.gaps[n] ** 2 / 2.0 for n in range(n_top + 1) if spec.gaps[n] > 0
    ]
    lo = math.floor(math.log10(min(scales) / 30.0))
    hi = math.ceil(math.log10(max(scales) * 30.0))
    return _log_grid(lo, hi, per_decade)


def _lz_spec(
    g_over_omega: float,
    delta_over_omega: float,
    grid: tuple[float, ...],
    n_fock: int | None = None,
    simulate: bool = True,
) -> ExperimentSpec:
    nf = n_fock if n_fock is not None else default_n_fock(g_over_omega, 1.0)
    p = QrmParams(delta=delta_over_omega, epsilon=0.0, omega=1.0, g=g_over_omega, n_fock=nf)
    options = {} if simulate else {"simulate": False}
    return ExperimentSpec("lz_scan", p, "v_over_delta2", grid, options=options)


def _multimode_small() -> ExperimentSpec:
    p = MultiModeParams(
        delta=0.15,
        modes=(Mode(omega=1.0, g=0.5, n_fock=12), Mode(omega=2.3, g=0.92, n_fock=8)),
    )
    # Crossings above the caps weakly populate the ladder edge: over this grid
    # the final state holds 4e-6 to 6e-5 in the top tenth of a Fock ladder
    # (measured at 3,000 steps), above the default TOP_OCCUPANCY_TOL, so each
    # row is judged at a limit of 1e-4 instead.
    return ExperimentSpec(
        "multimode_scan",
        p,
        "v_over_delta2",
        (0.5, 2.0, 8.0, 30.0),
        options={"caps": (5, 4), "top_occupancy_tol": 1e-4},
    )


_CASCADE_LABELS = tuple(
    [BasisLabel("displaced", "down", 0)]
    + [BasisLabel("displaced", "up", n) for n in range(6)]
)


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    build: Callable[[], ExperimentSpec]
    long_running: bool = False
    svg_labels: tuple[BasisLabel, ...] | None = None


PRESETS: dict[str, Preset] = {
    preset.name: preset
    for preset in (
        Preset(
            "fig1a",
            "rate scan toward strong coupling, g/omega=1 (desk scale)",
            lambda: _quench_scan("quench_ns", 1.0, _log_grid(-1, 5, 4), n_fock=64, delta_hi=200.0),
        ),
        Preset(
            "fig1b",
            "rate scan toward strong coupling, g/omega=2 (desk scale)",
            lambda: _quench_scan("quench_ns", 2.0, _log_grid(-1, 5, 4), n_fock=64, delta_hi=200.0),
        ),
        Preset(
            "fig1c",
            "rate scan toward strong coupling, g/omega=5 (fast-side grid)",
            lambda: _quench_scan("quench_ns", 5.0, _log_grid(2, 5, 4)),
        ),
        Preset(
            "fig1d_long",
            "rate scan toward strong coupling, g/omega=20 (hours; not desk scale)",
            lambda: _quench_scan("quench_ns", 20.0, _log_grid(2, 5, 2), n_fock=896),
            long_running=True,
        ),
        Preset(
            "fig2a",
            "time trace toward strong coupling, g/omega=1, rate 1e4",
            lambda: _quench_trace("ns", 1.0, n_fock=64),
        ),
        Preset(
            "fig2c",
            "time trace toward strong coupling, g/omega=5, rate 1e4",
            lambda: _quench_trace("ns", 5.0),
        ),
        Preset(
            "fig3a",
            "rate scan toward weak coupling, g/omega=1 (desk scale)",
            lambda: _quench_scan("quench_sn", 1.0, _log_grid(-1, 4, 4), n_fock=64, delta_hi=200.0),
        ),
        Preset(
            "fig3c",
            "rate scan toward weak coupling, g/omega=5 (fast-side grid)",
            lambda: _quench_scan("quench_sn", 5.0, _log_grid(2, 5, 4)),
        ),
        Preset(
            "fig4a",
            "time trace toward weak coupling, g/omega=1, rate 1e4",
            lambda: _quench_trace("sn", 1.0, n_fock=64),
        ),
        Preset(
            "fig4c",
            "time trace toward weak coupling, g/omega=5, rate 1e4",
            lambda: _quench_trace("sn", 5.0),
        ),
        Preset(
            "fig5a",
            "cascade-formula curves, g/omega=0.1",
            lambda: _lz_spec(0.1, 0.1, _formula_grid(0.1), simulate=False),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig5b",
            "cascade-formula curves, g/omega=1",
            lambda: _lz_spec(1.0, 0.1, _formula_grid(1.0), simulate=False),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig5d",
            "cascade-formula curves, g/omega=3",
            lambda: _lz_spec(3.0, 0.1, _formula_grid(3.0), simulate=False),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig6_small",
            "bias sweep vs formula, g/omega=0.1, delta/omega=0.1",
            lambda: _lz_spec(0.1, 0.1, _log_grid(-1, 2, 4)),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig6_valid",
            "bias sweep vs formula, g/omega=1, delta/omega=0.1 (validity regime)",
            lambda: _lz_spec(1.0, 0.1, _log_grid(-1, 2, 4)),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig6_breakdown",
            "bias sweep vs formula, g/omega=1, delta/omega=10 (formula breaks down)",
            lambda: _lz_spec(1.0, 10.0, _log_grid(-1, 2, 2), n_fock=48),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "multimode_small",
            "two-mode bias sweep vs sequential oracle (small dimension)",
            lambda: _multimode_small(),
        ),
    )
}
