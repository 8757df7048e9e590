"""Closed-form results: sudden-limit overlaps, two-level sweep survival, and
the independent-crossing cascade with its gap spectrum.

Gap arithmetic is done in log space throughout; at g/omega = 3 the common
prefactor exp(-2 (g/omega)^2) is already ~1.5e-8 and products of such factors
underflow quickly in linear space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCrossingError,
    GapTruncationError,
    InvalidParameterError,
)
from .model import (
    BasisLabel,
    MultiModeParams,
    Readout,
    _require_count,
    _require_finite,
    _require_positive,
)

# Relative tolerance used to declare two crossing positions coincident.
CROSSING_DEGENERACY_RTOL = 1e-9
# Residual survival weight allowed past the last retained crossing.
CASCADE_RESIDUAL_TOL = 1e-9

Occupation = int | tuple[int, ...]


def poisson_overlap(n: int, g: float, omega: float) -> float:
    """Sudden-limit occupation of the n-th level: e^{-m} m^n / n!, m = (g/omega)^2."""
    _require_count("level index", n, 0)
    _require_finite(g=g)
    _require_positive("omega", omega)
    mean = (g / omega) ** 2
    if mean == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))


def lz_probability(delta: float, v: float) -> float:
    """Two-level diabatic survival e^{-pi delta^2 / (2 v)} for a linear sweep."""
    _require_finite(delta=delta)
    _require_positive("sweep rate", v)
    return math.exp(-math.pi * delta * delta / (2.0 * v))


def _log_gap_factor(n: int, alpha: float) -> float:
    """log of (2 alpha)^n / sqrt(n!) * exp(-2 alpha^2); -inf when it vanishes."""
    if alpha == 0.0:
        return 0.0 if n == 0 else -math.inf
    return n * math.log(2.0 * abs(alpha)) - 0.5 * math.lgamma(n + 1) - 2.0 * alpha * alpha


def default_n_max(g: float, omega: float) -> int:
    """Crossings retained by default: covers the gap-spectrum peak plus a tail."""
    return int(math.ceil(4.0 * (g / omega) ** 2)) + 60


@dataclass(frozen=True)
class GapSpectrum:
    """Effective gaps and positions of the avoided-crossing mesh."""

    delta: float
    ratios: tuple[float, ...]
    gaps: dict[Occupation, float]
    log_gaps: dict[Occupation, float]
    crossing_positions: dict[Occupation, float]
    sum_rule_tail: float

    def sorted_occupations(self) -> list[Occupation]:
        """Occupations ordered by crossing position, lexicographic on ties."""
        def sort_key(occ: Occupation):
            key = occ if isinstance(occ, tuple) else (occ,)
            return (self.crossing_positions[occ], key)

        return sorted(self.gaps, key=sort_key)

    def degenerate_groups(self) -> list[tuple[Occupation, ...]]:
        """Groups of distinct occupations whose crossings coincide."""
        order = self.sorted_occupations()
        groups: list[list[Occupation]] = []
        for occ in order:
            pos = self.crossing_positions[occ]
            if groups:
                prev = self.crossing_positions[groups[-1][-1]]
                scale = max(1.0, abs(pos), abs(prev))
                if abs(pos - prev) <= CROSSING_DEGENERACY_RTOL * scale:
                    groups[-1].append(occ)
                    continue
            groups.append([occ])
        return [tuple(grp) for grp in groups if len(grp) > 1]


def _validate_spectrum(spec: GapSpectrum) -> GapSpectrum:
    total = 0.0
    for occ, lg in spec.log_gaps.items():
        if spec.gaps[occ] < 0:
            raise InvalidParameterError("gaps must be nonnegative")
        if math.isfinite(lg) and spec.delta != 0.0:
            total += math.exp(2.0 * (lg - math.log(abs(spec.delta))))
    if total > 1.0 + 1e-12:
        raise InvalidParameterError(
            f"gap sum rule violated: sum(gap^2)/delta^2 = {total!r} > 1"
        )
    return spec


def cascade_gaps(delta: float, g: float, omega: float, n_max: int | None = None) -> GapSpectrum:
    """Single-mode gap ladder Delta_n with crossings at n*omega."""
    _require_finite(delta=delta, g=g)
    _require_positive("omega", omega)
    if n_max is None:
        n_max = default_n_max(g, omega)
    _require_count("n_max", n_max, 1)
    alpha = g / omega
    log_delta = math.log(abs(delta)) if delta != 0.0 else -math.inf
    log_gaps = {n: _log_gap_factor(n, alpha) + log_delta for n in range(n_max + 1)}
    gaps = {n: math.exp(lg) if math.isfinite(lg) else 0.0 for n, lg in log_gaps.items()}
    covered = sum(
        math.exp(2.0 * _log_gap_factor(n, alpha)) for n in range(n_max + 1)
    ) if alpha != 0.0 else 1.0
    tail = max(0.0, 1.0 - covered) * delta * delta
    positions = {n: n * omega for n in range(n_max + 1)}
    return _validate_spectrum(
        GapSpectrum(delta, (alpha,), gaps, log_gaps, positions, tail)
    )


def multimode_gaps(p: MultiModeParams, caps: tuple[int, ...]) -> GapSpectrum:
    """Gap mesh of a qubit swept past several modes; crossings at sum_j n_j w_j."""
    if len(caps) != len(p.modes):
        raise InvalidParameterError("one occupation cap per mode is required")
    for cap in caps:
        _require_count("an occupation cap", cap, 0)
    occs: list[tuple[int, ...]] = [()]
    for cap in caps:
        occs = [o + (n,) for o in occs for n in range(cap + 1)]
    log_delta = math.log(abs(p.delta)) if p.delta != 0.0 else -math.inf
    log_gaps: dict[Occupation, float] = {}
    positions: dict[Occupation, float] = {}
    covered = 0.0
    for occ in occs:
        lg = sum(_log_gap_factor(n, r) for n, r in zip(occ, p.ratios))
        log_gaps[occ] = lg + log_delta
        positions[occ] = float(sum(n * m.omega for n, m in zip(occ, p.modes)))
        if math.isfinite(lg):
            covered += math.exp(2.0 * lg)
    gaps = {o: math.exp(lg) if math.isfinite(lg) else 0.0 for o, lg in log_gaps.items()}
    tail = max(0.0, 1.0 - covered) * p.delta * p.delta
    return _validate_spectrum(
        GapSpectrum(p.delta, p.ratios, gaps, log_gaps, positions, tail)
    )


def sequential_crossing_probabilities(
    spec: GapSpectrum, v, residual_tol: float = CASCADE_RESIDUAL_TOL
) -> Readout | list[Readout | GapTruncationError]:
    """Independent-crossing populations after one pass through the mesh, at
    the sweep rate ``v`` or at each rate of a 1-D array ``v``.

    A rate whose retained crossings leave more than ``residual_tol`` of
    survival weight unassigned is refused with ``GapTruncationError``: a
    scalar call raises it, an array call returns it as that rate's entry in
    place of its ``Readout``. Rates that are not positive and finite refuse
    the whole call. The crossing order, the degeneracy check and the labels
    are made once per call (every rate's readout shares the labels), and
    every rate's survival is one cumulative sum along the crossing order.

    Refuses coincident crossings: probability would have to be split through
    simultaneous transitions, which the sequential picture cannot order.
    """
    rates = np.asarray(v, dtype=float)
    if rates.ndim > 1:
        raise InvalidParameterError(
            f"sweep rates must be a scalar or a 1-D array, got shape {rates.shape}"
        )
    grid = np.atleast_1d(rates)
    for rate in grid.tolist():
        _require_positive("sweep rate", rate)
    degenerate = spec.degenerate_groups()
    if degenerate:
        raise DegenerateCrossingError(
            f"coincident crossings for occupations {degenerate}; "
            "sequential evaluation is not defined there"
        )
    order = spec.sorted_occupations()
    log_gaps = np.array([spec.log_gaps[occ] for occ in order])
    # x[i, k] = pi gap_k^2 / (2 v_i), one row per rate; a vanishing gap gives 0.
    exponents = np.exp((math.log(math.pi / 2.0) + 2.0 * log_gaps) - np.log(grid)[:, None])
    log_survival = -np.cumsum(exponents, axis=1)
    log_survival_before = np.hstack([np.zeros((len(exponents), 1)), log_survival[:, :-1]])
    transfers = np.exp(log_survival_before) * (-np.expm1(-exponents))
    exact_log_survival = -math.pi * spec.delta**2 / (2.0 * grid)

    ground_occ: Occupation = tuple(0 for _ in order[0]) if isinstance(order[0], tuple) else 0
    labels = (
        *(BasisLabel("displaced", "up", occ) for occ in order),
        BasisLabel("displaced", "down", ground_occ),
    )
    survival = [math.exp(x) for x in exact_log_survival.tolist()]
    residuals = [math.exp(f) - s for f, s in zip(log_survival[:, -1].tolist(), survival)]
    kept = [i for i, residual in enumerate(residuals) if not residual > residual_tol]
    readouts = dict(zip(kept, Readout.rows(labels, np.column_stack([transfers, survival])[kept])))
    entries: list[Readout | GapTruncationError] = [
        readouts[i] if i in readouts else GapTruncationError(
            f"retained crossings leave residual survival weight {residual:.2e} "
            f"(> {residual_tol:.0e}); extend the occupation caps"
        )
        for i, residual in enumerate(residuals)
    ]
    if rates.ndim == 1:
        return entries
    (entry,) = entries
    if isinstance(entry, GapTruncationError):
        raise entry
    return entry


def cascade_probabilities(
    delta: float, v: float, g: float, omega: float, n_max: int | None = None
) -> Readout | list[Readout | GapTruncationError]:
    """Single-mode cascade populations P(up, n), plus the exact P(down, 0), at
    one rate or, for an array of rates, one entry per rate (see
    ``sequential_crossing_probabilities``)."""
    return sequential_crossing_probabilities(cascade_gaps(delta, g, omega, n_max), v)


@dataclass(frozen=True)
class FockPrepWindow:
    """Sweep-rate window for preparing |up, target_n>, with the formula's peak."""

    target_n: int
    v_low: float
    v_high: float
    predicted_peak: float
    peak_rate: float
    empty: bool

    @property
    def separated(self) -> bool:
        """True when both decade margins fit inside the window."""
        return (not self.empty) and self.v_low < self.v_high


def fock_prep_window(
    delta: float, g: float, omega: float, target_n: int
) -> FockPrepWindow:
    """Rate window fast for crossings below target_n yet adiabatic at target_n.

    The window exists when the target gap exceeds the previous one; the margin
    endpoints (one decade on each side of the adjacent gap scales) may cross
    when the separation is only partial.

    The peak is closed-form. With x = pi gap_n^2 / (2 v) every lower crossing's
    exponent is a fixed multiple of x, so P(up, target_n) = e^{-R x}(1 - e^{-x})
    with R = sum_{m < n} (gap_m / gap_n)^2. Its one stationary point is
    x* = log1p(1/R), where P = e^{-R x*} / (1 + R). In a non-empty window
    R >= (gap_{n-1}/gap_n)^2 = n / (2g/omega)^2 > 0, so x* is finite.
    """
    _require_count("target_n", target_n, 1)
    spec = cascade_gaps(delta, g, omega, n_max=target_n)
    gap_prev = spec.gaps[target_n - 1]
    gap_n = spec.gaps[target_n]
    v_low = 10.0 * math.pi * gap_prev**2 / 2.0
    v_high = math.pi * gap_n**2 / 2.0 / 10.0
    if gap_n <= gap_prev:
        return FockPrepWindow(target_n, v_low, v_high, 0.0, math.nan, True)

    big_r = sum(
        math.exp(2.0 * (spec.log_gaps[m] - spec.log_gaps[target_n])) for m in range(target_n)
    )
    x_star = math.log1p(1.0 / big_r)
    peak = math.exp(-big_r * x_star) / (1.0 + big_r)
    v_star = math.pi * gap_n**2 / (2.0 * x_star)
    return FockPrepWindow(target_n, v_low, v_high, peak, v_star, False)
