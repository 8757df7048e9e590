"""Bundled desk-scale experiment presets, and the builders that write specs.

Names follow the library's figure set: fig1*/fig3* are rate scans toward and
away from strong coupling, fig2*/fig4* the matching time traces, fig5* the
cascade-formula curves, fig6* the formula-vs-simulation tables.

``log_grid``, ``qrm_params``, ``quench_scan_spec``, ``quench_trace_spec``,
``lz_scan_spec`` and ``lz_trace_spec`` are the one way a single-mode
``ExperimentSpec`` is written from user inputs: the presets below and the
command line both call them, so an option is wired in one place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytics import cascade_gaps
from .errors import InvalidParameterError
from .experiments import DEFAULT_N_STEPS, ExperimentSpec, default_quench_delta_hi, lz_window
from .model import BasisLabel, Mode, MultiModeParams, QrmParams, default_n_fock

# Samples on a trace axis.
_TRACE_POINTS = 400
# Formula grids bracket the cascade peaks up to this level, at this density.
_FORMULA_TOP_LEVEL = 5
_FORMULA_PER_DECADE = 20


def log_grid(v_min: float, v_max: float, per_decade: int) -> tuple[float, ...]:
    """Log-spaced rates from ``v_min`` to ``v_max``, both included, at
    ``per_decade`` points per decade and at least two points."""
    if not (0 < v_min < v_max < np.inf):
        raise InvalidParameterError(f"need 0 < v_min < v_max, both finite; got {v_min}, {v_max}")
    if per_decade < 1:
        raise InvalidParameterError(f"points per decade must be at least 1, got {per_decade}")
    lo, hi = np.log10(v_min), np.log10(v_max)
    n = max(2, int(round((hi - lo) * per_decade)) + 1)
    return tuple(np.logspace(lo, hi, n))


def qrm_params(
    g_over_omega: float, delta: float = 0.0, epsilon: float = 0.0, n_fock: int | None = None
) -> QrmParams:
    """Single-mode parameters in omega units; ``n_fock`` defaults to
    ``default_n_fock`` at this coupling."""
    nf = n_fock if n_fock is not None else default_n_fock(g_over_omega, 1.0)
    return QrmParams(delta=delta, epsilon=epsilon, omega=1.0, g=g_over_omega, n_fock=nf)


def quench_scan_spec(
    direction: str, g_over_omega: float, grid: tuple[float, ...], *,
    n_fock: int | None = None, delta_hi: float | None = None, n_steps: int = DEFAULT_N_STEPS,
) -> ExperimentSpec:
    """Gap-quench rate scan over ``grid`` (v/omega^2); ``direction`` is
    "ns" (toward zero gap) or "sn" (away from it)."""
    options = {} if delta_hi is None else {"delta_hi": delta_hi}
    return ExperimentSpec(
        f"quench_{direction}", qrm_params(g_over_omega, n_fock=n_fock), "v_over_omega2", grid,
        n_steps=n_steps, options=options,
    )


def quench_trace_spec(
    direction: str, g_over_omega: float, rate: float = 1e4, *,
    n_fock: int | None = None, delta_hi: float | None = None, n_steps: int = DEFAULT_N_STEPS,
) -> ExperimentSpec:
    """Time trace of one gap quench at ``rate`` (v/omega^2), on
    _TRACE_POINTS samples of the paper's axis for ``direction``."""
    p = qrm_params(g_over_omega, n_fock=n_fock)
    hi = delta_hi if delta_hi is not None else default_quench_delta_hi(p)
    if direction == "ns":
        axis = np.linspace(-hi, 0.0, _TRACE_POINTS)
        name = "v_times_t_minus_T_over_omega"
    else:
        axis = np.linspace(0.0, hi, _TRACE_POINTS)
        name = "v_times_t_over_omega"
    options = {} if delta_hi is None else {"delta_hi": delta_hi}
    return ExperimentSpec(
        "quench_trace", p, name, tuple(axis),
        n_steps=n_steps, options={**options, "direction": direction, "rate": rate},
    )


def _formula_grid(g_over_omega: float) -> tuple[float, ...]:
    """v/delta^2 range bracketing every cascade peak up to _FORMULA_TOP_LEVEL."""
    spec = cascade_gaps(1.0, g_over_omega, 1.0, n_max=_FORMULA_TOP_LEVEL)
    gaps = (spec.gaps[n] for n in range(_FORMULA_TOP_LEVEL + 1))
    scales = [math.pi * gap**2 / 2.0 for gap in gaps if gap > 0]
    lo = math.floor(math.log10(min(scales) / 30.0))
    hi = math.ceil(math.log10(max(scales) * 30.0))
    return log_grid(10.0**lo, 10.0**hi, _FORMULA_PER_DECADE)


def lz_scan_spec(
    g_over_omega: float, delta_over_omega: float, grid: tuple[float, ...], *,
    n_fock: int | None = None, simulate: bool = True, window: float | None = None,
    n_steps: int = DEFAULT_N_STEPS,
) -> ExperimentSpec:
    """Bias-sweep rate scan over ``grid`` (v/delta^2) against the cascade
    formula; ``simulate=False`` gives the formula-only table."""
    options = {} if window is None else {"window": window}
    if not simulate:
        options["simulate"] = False
    p = qrm_params(g_over_omega, delta_over_omega, n_fock=n_fock)
    return ExperimentSpec("lz_scan", p, "v_over_delta2", grid, n_steps=n_steps, options=options)


def lz_trace_spec(
    g_over_omega: float, delta_over_omega: float, rate: float = 1.0, *,
    n_fock: int | None = None, window: float | None = None, n_steps: int = DEFAULT_N_STEPS,
) -> ExperimentSpec:
    """Time trace of one bias sweep at ``rate`` (v/delta^2), on _TRACE_POINTS
    bias samples across the window."""
    p = qrm_params(g_over_omega, delta_over_omega, n_fock=n_fock)
    half = window if window is not None else lz_window(p)
    options = {} if window is None else {"window": window}
    return ExperimentSpec(
        "lz_trace", p, "epsilon_over_omega", tuple(np.linspace(-half, half, _TRACE_POINTS)),
        n_steps=n_steps, options={**options, "rate": rate},
    )


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
            lambda: quench_scan_spec("ns", 1.0, log_grid(1e-1, 1e5, 4), n_fock=64, delta_hi=200.0),
        ),
        Preset(
            "fig1b",
            "rate scan toward strong coupling, g/omega=2 (desk scale)",
            lambda: quench_scan_spec("ns", 2.0, log_grid(1e-1, 1e5, 4), n_fock=64, delta_hi=200.0),
        ),
        Preset(
            "fig1c",
            "rate scan toward strong coupling, g/omega=5 (fast-side grid)",
            lambda: quench_scan_spec("ns", 5.0, log_grid(1e2, 1e5, 4)),
        ),
        Preset(
            "fig1d_long",
            "rate scan toward strong coupling, g/omega=20 (hours; not desk scale)",
            lambda: quench_scan_spec("ns", 20.0, log_grid(1e2, 1e5, 2), n_fock=896),
            long_running=True,
        ),
        Preset(
            "fig2a",
            "time trace toward strong coupling, g/omega=1, rate 1e4",
            lambda: quench_trace_spec("ns", 1.0, n_fock=64),
        ),
        Preset(
            "fig2c",
            "time trace toward strong coupling, g/omega=5, rate 1e4",
            lambda: quench_trace_spec("ns", 5.0),
        ),
        Preset(
            "fig3a",
            "rate scan toward weak coupling, g/omega=1 (desk scale)",
            lambda: quench_scan_spec("sn", 1.0, log_grid(1e-1, 1e4, 4), n_fock=64, delta_hi=200.0),
        ),
        Preset(
            "fig3c",
            "rate scan toward weak coupling, g/omega=5 (fast-side grid)",
            lambda: quench_scan_spec("sn", 5.0, log_grid(1e2, 1e5, 4)),
        ),
        Preset(
            "fig4a",
            "time trace toward weak coupling, g/omega=1, rate 1e4",
            lambda: quench_trace_spec("sn", 1.0, n_fock=64),
        ),
        Preset(
            "fig4c",
            "time trace toward weak coupling, g/omega=5, rate 1e4",
            lambda: quench_trace_spec("sn", 5.0),
        ),
        Preset(
            "fig5a",
            "cascade-formula curves, g/omega=0.1",
            lambda: lz_scan_spec(0.1, 0.1, _formula_grid(0.1), simulate=False),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig5b",
            "cascade-formula curves, g/omega=1",
            lambda: lz_scan_spec(1.0, 0.1, _formula_grid(1.0), simulate=False),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig5d",
            "cascade-formula curves, g/omega=3",
            lambda: lz_scan_spec(3.0, 0.1, _formula_grid(3.0), simulate=False),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig6_small",
            "bias sweep vs formula, g/omega=0.1, delta/omega=0.1",
            lambda: lz_scan_spec(0.1, 0.1, log_grid(1e-1, 1e2, 4)),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig6_valid",
            "bias sweep vs formula, g/omega=1, delta/omega=0.1 (validity regime)",
            lambda: lz_scan_spec(1.0, 0.1, log_grid(1e-1, 1e2, 4)),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "fig6_breakdown",
            "bias sweep vs formula, g/omega=1, delta/omega=10 (formula breaks down)",
            lambda: lz_scan_spec(1.0, 10.0, log_grid(1e-1, 1e2, 2), n_fock=48),
            svg_labels=_CASCADE_LABELS,
        ),
        Preset(
            "multimode_small",
            "two-mode bias sweep vs sequential oracle (small dimension)",
            _multimode_small,
        ),
    )
}
