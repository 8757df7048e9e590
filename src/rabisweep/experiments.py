"""Figure-level drivers: rate scans, time traces, and formula-vs-simulation
tables, each pairing the dynamics with its closed-form oracle where one exists.

Scan axes are dimensionless: quench rates in units of omega^2, bias sweep
rates in units of delta^2, trace rows on the swept-parameter time axis.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._version import __version__ as _version
from .analytics import (
    CASCADE_RESIDUAL_TOL,
    GapSpectrum,
    cascade_gaps,
    multimode_gaps,
    poisson_overlap,
    sequential_crossing_probabilities,
)
from .errors import InvalidParameterError, RabisweepError
from .model import (
    BasisLabel,
    EVEN_SECTOR,
    MultiModeParams,
    QrmParams,
    Readout,
    TOP_OCCUPANCY_TOL,
    _require_count,
    _require_finite,
    _require_positive,
    critical_delta,
)
from .operators import StateVector
from .sweep import (
    _SECTOR_TAGS,
    DEFAULT_N_STEPS,
    MIN_N_STEPS,
    RateBlock,
    SweepSchedule,
    Trajectory,
    _hamiltonian_parts,
    _lowest_eigenvector,
    _tridiagonal_eigh,
    _tridiagonal_parts,
    eigen_level_series,
    greedy_label_assignment,
    ground_state,
    project_records,
    readout_columns,
    run_sweep,
)

# Each kind's option keys; any other key is refused.
_OPTION_KEYS = {
    "quench_ns": ("delta_hi",),
    "quench_sn": ("delta_hi",),
    "quench_trace": ("delta_hi", "direction", "rate"),
    "lz_scan": ("window", "simulate", "top_occupancy_tol"),
    "lz_trace": ("window", "rate"),
    "multimode_scan": ("window", "simulate", "top_occupancy_tol", "caps"),
}
EXPERIMENT_KINDS = tuple(_OPTION_KEYS)
# Kinds whose scan axis is a sweep rate; trace kinds scan a signed time axis.
RATE_SCAN_KINDS = ("quench_ns", "quench_sn", "lz_scan", "multimode_scan")

# The limits of a converged row, judged only by ``_row_checks``: the run's
# largest norm drift, its opposite-parity weight (where measured) and the
# probability-sum defect of its readout.
SAMPLE_NORM_TOL = 1e-8
LEAKAGE_TOL = 1e-10
ROW_SUM_TOL = 1e-6
# Bounded caps leave a small unassigned survival weight in the multimode
# oracle; it is recorded per row and only fails the row past this tolerance.
ORACLE_RESIDUAL_TOL = 1e-3
# Options that, when given, must be finite and positive.
_POSITIVE_OPTIONS = ("rate", "delta_hi", "window", "top_occupancy_tol")


@dataclass
class ExperimentSpec:
    """One parameterized experiment: what to sweep, over which grid."""

    kind: str
    params: QrmParams | MultiModeParams
    scan_name: str
    scan_values: tuple[float, ...]
    n_steps: int = DEFAULT_N_STEPS
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidParameterError(f"unknown experiment kind {self.kind!r}")
        values = tuple(self.scan_values)
        if len(values) == 0:
            raise InvalidParameterError("scan grid must be nonempty")
        for value in values:
            _require_finite(scan_value=value)
        values = tuple(float(v) for v in values)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise InvalidParameterError("scan grid must be strictly increasing")
        if self.kind in RATE_SCAN_KINDS and values[0] <= 0:
            raise InvalidParameterError(
                f"{self.kind} scans sweep rates, which must be positive; got {values[0]}"
            )
        self.scan_values = values
        _require_count("n_steps", self.n_steps, MIN_N_STEPS)
        if self.kind.startswith("quench"):
            if not isinstance(self.params, QrmParams):
                raise InvalidParameterError("quench experiments take single-mode parameters")
            if self.params.epsilon != 0.0:
                raise InvalidParameterError("quench experiments run at zero bias")
        if self.kind == "multimode_scan" and not isinstance(self.params, MultiModeParams):
            raise InvalidParameterError("multimode_scan takes MultiModeParams")
        if self.kind in ("quench_trace", "lz_trace") and "rate" not in self.options:
            raise InvalidParameterError(f"{self.kind} requires options['rate']")
        unknown = [key for key in self.options if key not in _OPTION_KEYS[self.kind]]
        if unknown:
            raise InvalidParameterError(
                f"unknown options {unknown} for {self.kind}; it takes {_OPTION_KEYS[self.kind]}"
            )
        for key in _POSITIVE_OPTIONS:
            if key in self.options:
                _require_positive(f"options[{key!r}]", self.options[key])
        if "caps" in self.options:
            caps = self.options["caps"]
            if not isinstance(caps, (tuple, list)) or len(caps) != len(self.params.modes):
                raise InvalidParameterError(f"options['caps'] needs one cap per mode, got {caps!r}")
            for cap in caps:
                _require_count("an occupation cap", cap, 0)
        if self.kind == "quench_trace" and self.options.get("direction") not in ("ns", "sn"):
            raise InvalidParameterError("quench_trace requires options['direction'] in 'ns'/'sn'")


@dataclass
class ResultRow:
    """One scan value's simulated and oracle readouts (None where the row
    has none)."""

    scan_value: float
    sim: Readout | None
    oracle: Readout | None
    converged: bool
    checks: dict = field(default_factory=dict)
    warnings: tuple[str, ...] = ()


@dataclass
class ResultTable:
    spec: ExperimentSpec
    rows: list[ResultRow]
    provenance: dict = field(default_factory=dict)

    def _label_tuples(self) -> list[tuple[BasisLabel, ...]]:
        """The distinct label tuples of the rows' readouts, in first-seen
        order (sim before oracle within a row)."""
        seen: dict[int, tuple[BasisLabel, ...]] = {}
        for row in self.rows:
            for readout in (row.sim, row.oracle):
                if readout:
                    seen.setdefault(id(readout.labels), readout.labels)
        return list(seen.values())

    def labels(self) -> list[BasisLabel]:
        return list(dict.fromkeys(itertools.chain.from_iterable(self._label_tuples())))

    def columns(
        self, labels: list[BasisLabel]
    ) -> dict[BasisLabel, tuple[np.ndarray, np.ndarray]]:
        """Each label's (sim, oracle) probabilities, one entry per row: the
        row's first record of that label, NaN where it has none. One pass
        over the rows reads each record once."""
        index = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
        out = np.full((2, len(index), len(self.rows)), np.nan)
        # Per label tuple: the columns it fills and the entries that fill them.
        places = {}
        for labs in self._label_tuples():
            first: dict[BasisLabel, int] = {}
            for k, lab in enumerate(labs):
                if lab in index:
                    first.setdefault(lab, k)
            places[id(labs)] = ([index[lab] for lab in first], list(first.values()))
        for j, row in enumerate(self.rows):
            for which, readout in enumerate((row.sim, row.oracle)):
                if readout:
                    targets, sources = places[id(readout.labels)]
                    out[which, targets, j] = readout.probabilities[sources]
        return {lab: (out[0, i], out[1, i]) for lab, i in index.items()}


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def default_quench_delta_hi(p: QrmParams) -> float:
    """Desk-scale initial/final gap: far above the semiclassical change."""
    return max(200.0 * p.omega, 50.0 * critical_delta(p.g, p.omega))


def lz_window(p: QrmParams | MultiModeParams) -> float:
    """Half-width of the bias sweep: all populated crossings sit far inside.

    Single mode: +-((n_rel + 10) omega + 50 delta) with
    n_rel = ceil(4 (g/omega)^2 + 10); multimode uses the farthest retained
    crossing plus the same margins.
    """
    if isinstance(p, QrmParams):
        n_rel = int(np.ceil(4.0 * p.g_over_omega**2 + 10.0))
        return (n_rel + 10.0) * p.omega + 50.0 * abs(p.delta)
    farthest = sum((m.n_fock - 1) * m.omega for m in p.modes)
    return farthest + 10.0 * max(m.omega for m in p.modes) + 50.0 * abs(p.delta)


def _row_checks(
    traj: Trajectory,
    readout: Readout,
    top_occupancy_tol: float = TOP_OCCUPANCY_TOL,
) -> tuple[dict, bool, tuple[str, ...]]:
    """A row's checks, converged flag and warnings. The one judge of a row's
    limits: the run's norm drift against SAMPLE_NORM_TOL, its parity leakage
    against LEAKAGE_TOL (only where the run measured it; None in the checks
    otherwise), its final-state and endpoint top-tenth Fock weights against
    ``top_occupancy_tol``, and the readout's sum against ROW_SUM_TOL. Each
    exceeded limit adds one warning naming the value and the limit. The
    checks also carry the run's steps and its Chebyshev terms per step."""
    total = float(sum(readout.probabilities.tolist()))
    checks = {
        "norm_deviation": traj.max_norm_deviation,
        "parity_leakage": traj.max_parity_leakage,
        "top_fock_occupancy": traj.metadata["top_fock_occupancy"],
        "endpoint_top_fock_occupancy": traj.metadata["endpoint_top_fock_occupancy"],
        "probability_sum": total,
        "n_steps": traj.schedule.n_steps,
        "chebyshev_terms": traj.metadata["chebyshev_terms"],
    }
    # Written as "not within", so that a NaN exceeds every limit.
    warnings = []
    if not checks["norm_deviation"] <= SAMPLE_NORM_TOL:
        warnings.append(
            f"norm deviation {checks['norm_deviation']:.2e} (limit {SAMPLE_NORM_TOL:.0e})"
        )
    leakage = checks["parity_leakage"]
    if leakage is not None and not leakage <= LEAKAGE_TOL:
        warnings.append(f"parity leakage {leakage:.2e} (limit {LEAKAGE_TOL:.0e})")
    occupancy = max(checks["top_fock_occupancy"], checks["endpoint_top_fock_occupancy"])
    if not occupancy <= top_occupancy_tol:
        warnings.append(
            f"top tenth of the Fock ladder holds weight {occupancy:.2e} "
            f"(limit {top_occupancy_tol:.0e}); results are truncation-limited"
        )
    if not abs(total - 1.0) <= ROW_SUM_TOL:
        warnings.append(f"readout probabilities sum to {total:.8f} (limit 1 +- {ROW_SUM_TOL:.0e})")
    return checks, not warnings, tuple(warnings)


def _rate_scan(
    spec: ExperimentSpec,
    oracles_for_values: Callable[[tuple[float, ...]], list[Readout | RabisweepError]],
    ramp: tuple[str, float, float, float] | None = None,
    psi0: StateVector | None = None,
    readout: tuple[np.ndarray, tuple[BasisLabel, ...]] | None = None,
) -> ResultTable:
    """One row per rate: the body of every rate scan.

    One ``oracles_for_values`` call over the whole grid gives each rate its
    oracle readout or the package error that refuses it (an error raised for
    the whole grid refuses every rate), timed as ``provenance["oracle_s"]``.
    ``ramp`` is ``(parameter, start, end, rate_unit)``, or None for a
    formula-only table. The rates not refused run from ``psi0`` as one
    ``RateBlock`` at scan value x ``rate_unit``, timed as
    ``provenance["block_propagation_s"]``; an error the whole block raises,
    a schedule the sweep layer refuses included, fails its rows. Each final
    state is projected onto ``readout`` ``(cols, labels)`` and judged by
    ``_row_checks`` at ``options["top_occupancy_tol"]`` (the default for
    kinds that do not take it), and every row records its oracle's
    unassigned weight as ``checks["oracle_residual"]``. A package error in a
    rate's oracle, run or row fails only that row; ``wall_times_s`` holds
    each row's own time.
    """
    t0 = time.perf_counter()
    try:
        entries = oracles_for_values(spec.scan_values)
    except RabisweepError as exc:
        entries = [exc] * len(spec.scan_values)
    layer_times = {"oracle_s": round(time.perf_counter() - t0, 4)}
    # Keyed by scan value: the grid is strictly increasing.
    oracles = dict(zip(spec.scan_values, entries, strict=True))
    kept = [v for v, oracle in oracles.items() if not isinstance(oracle, RabisweepError)]
    runs: dict = {}
    if ramp is not None and kept:
        parameter, start, end, rate_unit = ramp
        t0 = time.perf_counter()
        try:
            block = RateBlock(tuple(
                SweepSchedule(parameter, start, end, v * rate_unit, n_steps=spec.n_steps)
                for v in kept
            ))
            runs = dict(zip(kept, run_sweep(spec.params, block, psi0)))
        except RabisweepError as exc:
            runs = dict.fromkeys(kept, exc)
        layer_times["block_propagation_s"] = round(time.perf_counter() - t0, 4)
    top_occupancy_tol = float(spec.options.get("top_occupancy_tol", TOP_OCCUPANCY_TOL))
    rows, times = [], []
    for scan_value, oracle in oracles.items():
        t0 = time.perf_counter()
        traj = runs.get(scan_value)
        failure = next((e for e in (oracle, traj) if isinstance(e, RabisweepError)), None)
        if failure is None:
            try:
                sim, checks, ok, warns = None, {}, True, ()
                if traj is not None:
                    sim = project_records(*readout, traj.final_state)
                    checks, ok, warns = _row_checks(traj, sim, top_occupancy_tol)
                checks["oracle_residual"] = 1.0 - sum(oracle.probabilities.tolist())
                rows.append(ResultRow(scan_value, sim, oracle, ok, checks, warns))
            except RabisweepError as exc:
                failure = exc
        if failure is not None:
            warning = f"{type(failure).__name__}: {failure}"
            rows.append(ResultRow(scan_value, None, None, False, {}, (warning,)))
        times.append(time.perf_counter() - t0)
    return ResultTable(spec, rows, _provenance(spec, times) | layer_times)


# ---------------------------------------------------------------------------
# Quench experiments
# ---------------------------------------------------------------------------

def _quench_endpoints(spec: ExperimentSpec) -> tuple[float, float]:
    """(start, end) gap of a quench between ``delta_hi`` and zero gap, in the
    kind's direction or, for ``quench_trace`` only, ``options["direction"]``."""
    p = spec.params
    hi = float(spec.options.get("delta_hi", default_quench_delta_hi(p)))
    direction = spec.options.get("direction", spec.kind.removeprefix("quench_"))
    return (hi, 0.0) if direction == "ns" else (0.0, hi)


def _even_ground_state(block: tuple[np.ndarray, np.ndarray], delta: float) -> StateVector:
    """Ground state of the even block at gap ``delta``, as ``ground_state``
    gives it, solved on parts the caller already holds."""
    return StateVector(_lowest_eigenvector(*block, delta), _SECTOR_TAGS[EVEN_SECTOR])


def _named_levels(
    p: QrmParams, block: tuple[np.ndarray, np.ndarray], delta: float, scheme: str
) -> tuple[np.ndarray, list[BasisLabel]]:
    """Eigenvectors of the even block (A, B) at gap ``delta``, one
    tridiagonal solve, each labelled by its best-matching state of
    ``scheme``."""
    _, vecs = _tridiagonal_eigh(*_tridiagonal_parts(*block), delta)
    return vecs, greedy_label_assignment(*readout_columns(p, scheme, EVEN_SECTOR), vecs)


def _trace_run(
    spec: ExperimentSpec,
    parameter: str,
    start: float,
    end: float,
    rate: float,
    times: np.ndarray,
    psi0: StateVector,
) -> Trajectory:
    """One run of a trace, sampled at the step nearest each of ``times``,
    step round(t/T n); times outside the sweep are refused, and those a
    rounding error past an end are clipped."""
    total_time = abs(end - start) / rate
    if np.any(times < -1e-9) or np.any(times > total_time * (1 + 1e-12)):
        raise InvalidParameterError("trace axis values fall outside the sweep")
    n = spec.n_steps
    steps = tuple(round(t / total_time * n) for t in np.clip(times, 0.0, total_time).tolist())
    schedule = SweepSchedule(parameter, start, end, rate, n_steps=n, sample_steps=steps)
    return run_sweep(spec.params, schedule, psi0)


def quench_rate_scan(spec: ExperimentSpec) -> ResultTable:
    """Final-state populations vs sweep rate for a gap quench, one
    ``_rate_scan`` row per rate v/omega^2.

    The run stays in the even-parity block (the ground state's sector).
    Readout: exact strong-coupling doublet states for sweeps ending at zero
    gap, instantaneous eigenstates named by the weak-coupling labels for
    sweeps ending at large gap. The sudden-limit Poisson law rides along as
    the oracle column.
    """
    if spec.kind not in ("quench_ns", "quench_sn"):
        raise InvalidParameterError(f"quench_rate_scan cannot run kind {spec.kind!r}")
    p = spec.params
    start, end = _quench_endpoints(spec)
    block = _hamiltonian_parts(p, "delta", EVEN_SECTOR)[:2]
    if end < start:
        cols, labels = readout_columns(p, "superradiant", EVEN_SECTOR)
    else:
        cols, labels = _named_levels(p, block, end, "normal")
    labels = tuple(labels)
    oracle = Readout(labels, [poisson_overlap(lab.photons, p.g, p.omega) for lab in labels])
    return _rate_scan(
        spec, lambda values: [oracle] * len(values),
        ramp=("delta", start, end, p.omega**2),
        psi0=_even_ground_state(block, start), readout=(cols, labels),
    )


def quench_time_trace(spec: ExperimentSpec) -> ResultTable:
    """Populations of the instantaneous energy levels along one gap quench.

    Levels are tracked by their energy ordering at each sample and named by
    the basis state each level matches at the last sample, so the curves read
    as that sample's labels; samples where adjacent tracked levels approach
    degeneracy are flagged on their records.
    """
    if spec.kind != "quench_trace":
        raise InvalidParameterError(f"quench_time_trace cannot run kind {spec.kind!r}")
    p = spec.params
    direction = spec.options["direction"]
    rate = float(spec.options["rate"]) * p.omega**2
    start, end = _quench_endpoints(spec)
    total_time = abs(end - start) / rate
    # Paper-style axis: rate*(t - T)/omega toward the strong-coupling side,
    # rate*t/omega away from it.
    offset = total_time if direction == "ns" else 0.0
    times = np.asarray(spec.scan_values) * p.omega / rate + offset
    block = _hamiltonian_parts(p, "delta", EVEN_SECTOR)[:2]
    traj = _trace_run(spec, "delta", start, end, rate, times, _even_ground_state(block, start))

    delta_values = np.array([traj.schedule.value_at(t) for t in traj.times])
    pops, _, flags = eigen_level_series(*block, delta_values, traj.states)
    scheme = "superradiant" if abs(delta_values[-1]) < abs(delta_values[0]) else "normal"
    _, level_labels = _named_levels(p, block, delta_values[-1], scheme)

    rows = []
    for t, sim in zip(traj.times, Readout.rows(level_labels, pops, flags)):
        axis_value = rate * (t - offset) / p.omega
        checks, ok, warns = _row_checks(traj, sim)
        rows.append(ResultRow(float(axis_value), sim, None, ok, checks, warns))
    prov = _provenance(spec, [])
    prov["semiclassical_crossing_axis_value"] = (
        -critical_delta(p.g, p.omega) / p.omega
        if direction == "ns"
        else critical_delta(p.g, p.omega) / p.omega
    )
    return ResultTable(spec, rows, prov)


# ---------------------------------------------------------------------------
# Bias-sweep (multi-crossing) experiments
# ---------------------------------------------------------------------------

def _bias_scan(spec: ExperimentSpec, spectrum: GapSpectrum, residual_tol: float) -> ResultTable:
    """Bias sweeps across the window vs the sequential-crossing oracle of
    ``spectrum``, one ``_rate_scan`` row per rate v/delta^2.

    With ``options["simulate"]`` false a row holds only the oracle. Otherwise
    each run starts from the instantaneous ground state at the window edge
    (the finite-window stand-in for the asymptotic ground state) and is read
    out in the displaced basis at the far edge.
    """
    p = spec.params
    window = float(spec.options.get("window", lz_window(p)))
    ramp = psi0 = readout = None
    if spec.options.get("simulate", True):
        ramp = ("epsilon", -window, window, p.delta**2)
        psi0 = ground_state(p, "epsilon", -window)
        cols, labels = readout_columns(p, "displaced")
        readout = (cols, tuple(labels))

    def oracles_for_values(values: tuple[float, ...]) -> list[Readout | RabisweepError]:
        return sequential_crossing_probabilities(
            spectrum, np.asarray(values) * p.delta**2, residual_tol=residual_tol
        )

    table = _rate_scan(spec, oracles_for_values, ramp=ramp, psi0=psi0, readout=readout)
    table.provenance["window"] = window
    return table


def lz_scan(spec: ExperimentSpec) -> ResultTable:
    """Single-mode bias sweep through the crossing mesh vs the
    independent-crossing cascade formula; ``options["simulate"] = False``
    gives the formula-only table. See ``_bias_scan`` and ``_rate_scan``."""
    if spec.kind != "lz_scan":
        raise InvalidParameterError(f"lz_scan cannot run kind {spec.kind!r}")
    p = spec.params
    return _bias_scan(spec, cascade_gaps(p.delta, p.g, p.omega), CASCADE_RESIDUAL_TOL)


def lz_time_trace(spec: ExperimentSpec) -> ResultTable:
    """Displaced-basis populations along one bias sweep; axis is bias/omega."""
    if spec.kind != "lz_trace":
        raise InvalidParameterError(f"lz_time_trace cannot run kind {spec.kind!r}")
    p = spec.params
    window = float(spec.options.get("window", lz_window(p)))
    rate = float(spec.options["rate"]) * p.delta**2
    omega = p.omega if isinstance(p, QrmParams) else min(m.omega for m in p.modes)
    times = (np.asarray(spec.scan_values) * omega + window) / rate
    traj = _trace_run(
        spec, "epsilon", -window, window, rate, times,
        ground_state(p, "epsilon", -window),
    )
    cols, labels = readout_columns(p, "displaced")
    rows = []
    for t, sim in zip(traj.times, project_records(cols, labels, traj.states)):
        checks, ok, warns = _row_checks(traj, sim)
        rows.append(ResultRow(float((t * rate - window) / omega), sim, None, ok, checks, warns))
    prov = _provenance(spec, [])
    prov["window"] = window
    return ResultTable(spec, rows, prov)


def multimode_scan(spec: ExperimentSpec) -> ResultTable:
    """Multimode bias sweep vs the sequential-crossing oracle over the
    occupations up to ``options["caps"]`` (default n_fock - 3 per mode); a
    row whose retained crossings leave more than ORACLE_RESIDUAL_TOL of
    survival weight unassigned fails. See ``_bias_scan`` and ``_rate_scan``."""
    if spec.kind != "multimode_scan":
        raise InvalidParameterError(f"multimode_scan cannot run kind {spec.kind!r}")
    p = spec.params
    caps = tuple(spec.options.get("caps", tuple(m.n_fock - 3 for m in p.modes)))
    # A degenerate crossing mesh refuses the one oracle call, and so every row.
    table = _bias_scan(spec, multimode_gaps(p, caps), ORACLE_RESIDUAL_TOL)
    table.provenance["caps"] = caps
    return table


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    runner = {
        "quench_ns": quench_rate_scan,
        "quench_sn": quench_rate_scan,
        "quench_trace": quench_time_trace,
        "lz_scan": lz_scan,
        "lz_trace": lz_time_trace,
        "multimode_scan": multimode_scan,
    }[spec.kind]
    return runner(spec)


def _provenance(spec: ExperimentSpec, wall_times: list[float]) -> dict:
    p = spec.params
    if isinstance(p, QrmParams):
        truncation: object = p.n_fock
    else:
        truncation = tuple(m.n_fock for m in p.modes)
    return {
        "version": _version,
        "kind": spec.kind,
        "n_steps": spec.n_steps,
        "truncation": truncation,
        "wall_times_s": [round(t, 4) for t in wall_times],
    }


# ---------------------------------------------------------------------------
# Resolution audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of rerunning an experiment at 2x and 4x one resolution knob."""

    knob: str
    base_value: float
    tolerance: float
    max_change_2x: float | None
    max_change_4x: float | None
    passed: bool
    notes: tuple[str, ...] = ()


def _endpoint_option(spec: ExperimentSpec) -> tuple[str, float]:
    """The option that sets a scan's far sweep endpoint, and its value:
    ``delta_hi`` for a quench, ``window`` for a bias scan."""
    if spec.kind.startswith("quench"):
        return "delta_hi", max(_quench_endpoints(spec))
    return "window", float(spec.options.get("window", lz_window(spec.params)))


def _scaled_spec(spec: ExperimentSpec, knob: str, factor: int) -> ExperimentSpec:
    """``spec`` with ``knob`` scaled by ``factor``. The n_fock knob scales
    every mode and pins the endpoint, which a multimode window derives from
    the ladders; the endpoint knob scales ``n_steps`` too, so dt is fixed."""
    if knob == "n_steps":
        return replace(spec, n_steps=factor * spec.n_steps)
    key, magnitude = _endpoint_option(spec)
    if knob == "endpoint_magnitude":
        options = {**spec.options, key: factor * magnitude}
        return replace(spec, n_steps=factor * spec.n_steps, options=options)
    p = spec.params
    if isinstance(p, QrmParams):
        params = replace(p, n_fock=factor * p.n_fock)
    else:
        params = replace(p, modes=tuple(replace(m, n_fock=factor * m.n_fock) for m in p.modes))
    return replace(spec, params=params, options={**spec.options, key: magnitude})


def _largest_change(coarse: ResultTable, fine: ResultTable) -> float | None:
    """Largest change in any row's simulated probabilities, where a label
    that only one table's row carries counts its whole probability; None
    when a row of either table has no simulated readout."""
    changes = [0.0]
    for a, b in zip(coarse.rows, fine.rows, strict=True):
        if a.sim is None or b.sim is None:
            return None
        pa = dict(zip(a.sim.labels, a.sim.probabilities.tolist()))
        pb = dict(zip(b.sim.labels, b.sim.probabilities.tolist()))
        changes += [abs(pb.get(k, 0.0) - pa.get(k, 0.0)) for k in pa.keys() | pb.keys()]
    return max(changes)


def convergence_scan(
    spec: ExperimentSpec, knob: str, tolerance: float = 1e-3
) -> ConvergenceReport:
    """Rerun a simulated rate scan at 1x, 2x and 4x ``knob`` and report the
    largest change in any row's simulated probabilities between successive
    resolutions.

    Each resolution is one ``run_experiment`` call, so every run starts from
    its own initial state and reads out as its table does. ``knob`` is
    ``n_steps``, ``n_fock`` (of every mode) or ``endpoint_magnitude``
    (``delta_hi`` of a quench, ``window`` of a bias scan). The report passes
    when both changes are within ``tolerance`` and every row converged at
    every resolution; the unconverged rows' warnings are its notes, and a
    change is None when a row failed at either resolution. An unknown
    knob, a NaN, infinite or negative tolerance, a trace kind and a
    formula-only spec are refused before any run.
    """
    if knob not in ("n_steps", "n_fock", "endpoint_magnitude"):
        raise InvalidParameterError(f"unknown convergence knob {knob!r}")
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise InvalidParameterError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    if spec.kind not in RATE_SCAN_KINDS:
        raise InvalidParameterError(f"convergence_scan audits rate scans, not {spec.kind!r}")
    if not spec.options.get("simulate", True):
        raise InvalidParameterError("a formula-only spec has no simulation to audit")
    p = spec.params
    base_value = {
        "n_steps": float(spec.n_steps),
        "n_fock": float(p.n_fock if isinstance(p, QrmParams) else max(m.n_fock for m in p.modes)),
        "endpoint_magnitude": _endpoint_option(spec)[1],
    }[knob]
    tables = {f: run_experiment(_scaled_spec(spec, knob, f)) for f in (1, 2, 4)}
    unconverged = [(f, row) for f, t in tables.items() for row in t.rows if not row.converged]
    notes = tuple(
        f"{f}x, {spec.scan_name} = {row.scan_value:g}: {warning}"
        for f, row in unconverged
        for warning in row.warnings
    )
    changes = [_largest_change(tables[1], tables[2]), _largest_change(tables[2], tables[4])]
    passed = not unconverged and all(c is not None and c <= tolerance for c in changes)
    return ConvergenceReport(knob, base_value, tolerance, *changes, passed, notes)
