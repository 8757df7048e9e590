"""Figure-level drivers: rate scans, time traces, and formula-vs-simulation
tables, each pairing the dynamics with its closed-form oracle where one exists.

Scan axes are dimensionless: quench rates in units of omega^2, bias sweep
rates in units of delta^2, trace rows on the swept parameter over omega.

Each ramp family has one setup that its scans and its trace share, a
``_Setup`` whose ``readout(values, states)`` serves both bodies: ``_quench``
reads out in the even block's eigenbasis under one label tuple, named once at
the far end, and ``_bias`` in the displaced columns. A setup alone assembles
a table's Hamiltonian parts, which its runs take, and solves both sweep ends.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

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
    _as_tuple,
    _finite_derived,
    _require_count,
    _require_finite,
    _require_positive,
    critical_delta,
    parity_block_ladder,
    top_fock_occupancy,
)
from .operators import StateVector, eig_hermitian
from .sweep import (
    DEFAULT_N_STEPS,
    MIN_N_STEPS,
    RateBlock,
    SweepSchedule,
    Trajectory,
    _lowest_eigenvector,
    eigen_level_series,
    greedy_label_assignment,
    hamiltonian_parts,
    project_records,
    readout_columns,
    run_sweep,
)

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
        kind = _KINDS[self.kind]
        if not isinstance(self.options, dict):
            raise InvalidParameterError(f"options must be a dict, got {self.options!r}")
        values = _as_tuple("scan_values", self.scan_values)
        if len(values) == 0:
            raise InvalidParameterError("scan grid must be nonempty")
        for value in values:
            _require_finite(scan_value=value)
        values = tuple(float(v) for v in values)
        if any(b <= a for a, b in zip(values, values[1:])):
            raise InvalidParameterError("scan grid must be strictly increasing")
        # A row's manifest key is its value at 9 significant digits; on an
        # increasing grid only neighbours can share one.
        for a, b in zip(values, values[1:]):
            if f"{a:.9g}" == f"{b:.9g}":
                raise InvalidParameterError(
                    f"scan values {a!r} and {b!r} read alike at 9 significant digits"
                )
        if kind.scans_rates and values[0] <= 0:
            raise InvalidParameterError(
                f"{self.kind} scans sweep rates, which must be positive; got {values[0]}"
            )
        self.scan_values = values
        _require_count("n_steps", self.n_steps, MIN_N_STEPS)
        if not isinstance(self.params, kind.params):
            raise InvalidParameterError(
                f"{self.kind} takes {kind.params.__name__}, got {type(self.params).__name__}"
            )
        if self.kind.startswith("quench"):
            if self.params.epsilon != 0.0:
                raise InvalidParameterError("quench experiments run at zero bias")
        elif self.params.delta == 0.0:
            raise InvalidParameterError(f"{self.kind} rates are in units of delta^2; delta is 0")
        if not kind.scans_rates and "rate" not in self.options:
            raise InvalidParameterError(f"{self.kind} requires options['rate']")
        unknown = [key for key in self.options if key not in kind.options]
        if unknown:
            raise InvalidParameterError(
                f"unknown options {unknown} for {self.kind}; it takes {kind.options}"
            )
        for key in _POSITIVE_OPTIONS:
            if key in self.options:
                _require_positive(f"options[{key!r}]", self.options[key])
        # Read as a flag, so only a real bool is taken: "no" would be true.
        if not isinstance(self.options.get("simulate", True), (bool, np.bool_)):
            raise InvalidParameterError(
                f"options['simulate'] must be True or False, got {self.options['simulate']!r}"
            )
        if "caps" in self.options:
            caps = self.options["caps"]
            if not isinstance(caps, (tuple, list)) or len(caps) != len(self.params.modes):
                raise InvalidParameterError(f"options['caps'] needs one cap per mode, got {caps!r}")
            for cap in caps:
                _require_count("an occupation cap", cap, 0)
        elif self.kind == "multimode_scan":
            for mode in self.params.modes:
                _require_count("a mode's n_fock under the default caps n_fock - 3", mode.n_fock, 3)
        if self.kind == "quench_trace" and self.options.get("direction") not in ("ns", "sn"):
            raise InvalidParameterError("quench_trace requires options['direction'] in 'ns'/'sn'")
        # A default far endpoint that is not finite raises; so does the rate unit.
        _endpoint_option(self)
        _finite_derived("rate unit", _rate_unit(self))


@dataclass
class ResultRow:
    """One scan value's simulated and oracle readouts (None where the row
    has none), the numbers ``_row_checks`` recorded and the warnings of the
    limits they exceeded; a row converged when it has no warning."""

    scan_value: float
    sim: Readout | None
    oracle: Readout | None
    checks: dict = field(default_factory=dict, kw_only=True)
    warnings: tuple[str, ...] = field(default=(), kw_only=True)

    @property
    def converged(self) -> bool:
        return not self.warnings


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
        row's first record of that label, NaN where it has none. The rows
        are grouped by (sim or oracle, label tuple), and each group fills
        its columns with one assignment of its rows' stacked probabilities."""
        index = {lab: i for i, lab in enumerate(dict.fromkeys(labels))}
        out = np.full((2, len(index), len(self.rows)), np.nan)
        groups: dict[tuple[int, int], tuple[tuple[BasisLabel, ...], list, list]] = {}
        for j, row in enumerate(self.rows):
            for which, readout in enumerate((row.sim, row.oracle)):
                if readout:
                    _, rows, probs = groups.setdefault(
                        (which, id(readout.labels)), (readout.labels, [], [])
                    )
                    rows.append(j)
                    probs.append(readout.probabilities)
        for (which, _), (labs, rows, probs) in groups.items():
            first: dict[BasisLabel, int] = {}
            for k, lab in enumerate(labs):
                if lab in index:
                    first.setdefault(lab, k)
            if first:
                targets = [index[lab] for lab in first]
                out[which][np.ix_(targets, rows)] = np.stack(probs)[:, list(first.values())].T
        return {lab: (out[0, i], out[1, i]) for lab, i in index.items()}


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def default_quench_delta_hi(p: QrmParams) -> float:
    """Desk-scale initial/final gap: far above the semiclassical change."""
    hi = max(200.0 * p.omega, 50.0 * critical_delta(p.g, p.omega))
    return _finite_derived("default delta_hi", hi)


def lz_window(p: QrmParams | MultiModeParams) -> float:
    """Half-width of the bias sweep: all populated crossings sit far inside.

    Single mode: +-((n_rel + 10) omega + 50 delta) with
    n_rel = ceil(4 (g/omega)^2 + 10); multimode uses the farthest retained
    crossing plus the same margins.
    """
    if isinstance(p, QrmParams):
        n_rel = float(np.ceil(4.0 * (p.g_over_omega * p.g_over_omega) + 10.0))
        window = (n_rel + 10.0) * p.omega + 50.0 * abs(p.delta)
    else:
        farthest = sum((m.n_fock - 1) * m.omega for m in p.modes)
        window = farthest + 10.0 * max(m.omega for m in p.modes) + 50.0 * abs(p.delta)
    return _finite_derived("default window", window)


def _rate_unit(spec: ExperimentSpec) -> float:
    """The unit of a sweep rate: omega^2 for a quench, delta^2 for a bias sweep."""
    p = spec.params
    return p.omega * p.omega if spec.kind.startswith("quench") else p.delta * p.delta


def _endpoint_option(spec: ExperimentSpec) -> tuple[str, float]:
    """The option that sets a sweep's far endpoint, and its value, given or
    default: ``delta_hi`` for a quench, ``window`` for a bias sweep. The
    default is derived only when the option is not given."""
    key, default = (
        ("delta_hi", default_quench_delta_hi) if spec.kind.startswith("quench")
        else ("window", lz_window)
    )
    return key, float(spec.options[key]) if key in spec.options else default(spec.params)


class _Setup(NamedTuple):
    """What a ramp family's setup hands its scans and its trace: the ramp
    ``(parameter, start, end, rate_unit)``, the ``parts`` (A, B) that every
    run of the table takes, the initial state ``psi0``, the table's
    ``endpoint_occupancy`` (the larger top-tenth Fock weight of psi0 and of
    the far end's ground state, each end solved once per table) and
    ``readout(values, states)``."""

    ramp: tuple[str, float, float, float]
    parts: tuple[np.ndarray, np.ndarray]
    psi0: StateVector
    endpoint_occupancy: float
    readout: Callable[[np.ndarray, np.ndarray], list[Readout]]


def _row_checks(
    traj: Trajectory,
    readout: Readout,
    endpoint_occupancy: float,
    top_occupancy_tol: float = TOP_OCCUPANCY_TOL,
) -> tuple[dict, tuple[str, ...]]:
    """A row's checks and warnings; the row converged when there are none.
    The one judge of a row's limits: the run's norm drift against
    SAMPLE_NORM_TOL, its parity leakage against LEAKAGE_TOL (only where the
    run measured it; None in the checks otherwise), its final state's
    top-tenth Fock weight and its table's ``endpoint_occupancy`` (see
    ``_Setup``) against ``top_occupancy_tol``, and the readout's sum against
    ROW_SUM_TOL. Each exceeded limit adds one warning naming the value and
    the limit. The checks, read from the ``Trajectory``'s fields and the
    endpoint weight, also carry the run's steps and its Chebyshev terms per
    step; ``io.write_result_table`` writes them to the manifest."""
    total = float(sum(readout.probabilities.tolist()))
    checks = {
        "norm_deviation": traj.max_norm_deviation,
        "parity_leakage": traj.max_parity_leakage,
        "top_fock_occupancy": traj.top_fock_occupancy,
        "endpoint_top_fock_occupancy": endpoint_occupancy,
        "probability_sum": total,
        "n_steps": traj.schedule.n_steps,
        "chebyshev_terms": traj.chebyshev_terms,
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
    return checks, tuple(warnings)


def _rate_scan(
    spec: ExperimentSpec,
    oracles_for_values: Callable[[tuple[float, ...]], list[Readout | RabisweepError]],
    setup: _Setup | None = None,
) -> ResultTable:
    """One row per rate: the body of every rate scan.

    One ``oracles_for_values`` call over the whole grid gives each rate its
    oracle readout or the package error that refuses it (an error raised for
    the whole grid refuses every rate), timed as ``provenance["oracle_s"]``.
    ``setup`` is the ramp family's (see ``_Setup``), or None for a
    formula-only table. The rates not refused run under its ``parts`` from
    its ``psi0`` as one ``RateBlock`` at scan value x ``rate_unit``, and one
    ``readout(values, states)`` call reads their (dim, runs) block of final
    states, every value at ``end``; the two are timed as
    ``provenance["propagation_s"]`` and ``provenance["readout_s"]``. A
    package error in a rate's oracle or run fails only that row; one that
    the whole block, its schedules or its readout raise fails every row it
    covers. Each row is judged by ``_row_checks`` at
    ``options["top_occupancy_tol"]`` (the default for kinds that do not take
    it) and records its oracle's unassigned weight as
    ``checks["oracle_residual"]``.
    """
    t0 = time.perf_counter()
    try:
        entries = oracles_for_values(spec.scan_values)
    except RabisweepError as exc:
        entries = [exc] * len(spec.scan_values)
    provenance = {"oracle_s": round(time.perf_counter() - t0, 4)}
    # Keyed by scan value: the grid is strictly increasing.
    oracles = dict(zip(spec.scan_values, entries, strict=True))
    kept = [v for v, oracle in oracles.items() if not isinstance(oracle, RabisweepError)]
    runs, sims = {}, {}
    if setup is not None and kept:
        parameter, start, end, rate_unit = setup.ramp
        t0 = time.perf_counter()
        try:
            block = RateBlock(tuple(
                SweepSchedule(parameter, start, end, v * rate_unit, n_steps=spec.n_steps)
                for v in kept
            ))
            runs = dict(zip(kept, run_sweep(spec.params, setup.parts, block, setup.psi0)))
        except RabisweepError as exc:
            runs = dict.fromkeys(kept, exc)
        t1 = time.perf_counter()
        done = [v for v, traj in runs.items() if not isinstance(traj, RabisweepError)]
        if done:
            finals = np.stack([runs[v].final_state for v in done], axis=1)
            try:
                sims = dict(zip(done, setup.readout(np.full(len(done), end), finals)))
            except RabisweepError as exc:
                sims = dict.fromkeys(done, exc)
        provenance["propagation_s"] = round(t1 - t0, 4)
        provenance["readout_s"] = round(time.perf_counter() - t1, 4)
    top_occupancy_tol = float(spec.options.get("top_occupancy_tol", TOP_OCCUPANCY_TOL))
    rows = []
    for scan_value, oracle in oracles.items():
        traj, sim = runs.get(scan_value), sims.get(scan_value)
        failure = next((e for e in (oracle, traj, sim) if isinstance(e, RabisweepError)), None)
        if failure is not None:
            warning = f"{type(failure).__name__}: {failure}"
            rows.append(ResultRow(scan_value, None, None, warnings=(warning,)))
            continue
        checks, warns = ({}, ()) if traj is None else _row_checks(
            traj, sim, setup.endpoint_occupancy, top_occupancy_tol
        )
        checks["oracle_residual"] = 1.0 - sum(oracle.probabilities.tolist())
        rows.append(ResultRow(scan_value, sim, oracle, checks=checks, warnings=warns))
    return ResultTable(spec, rows, provenance)


def _time_trace(spec: ExperimentSpec, setup: _Setup, axis_unit: float) -> ResultTable:
    """One row per axis value: the body of every time trace. The ramp of
    ``setup`` (see ``_Setup``) runs once under its ``parts`` from its
    ``psi0`` at ``options["rate"]`` x ``rate_unit``. An axis value times
    ``axis_unit`` is a value of the swept parameter, sampled at the step k
    whose ramp value start + (end - start) k/n_steps is nearest; values
    outside the sweep are refused, those a rounding error past an end are
    clipped, and two values nearest one step are refused before the run.
    ``readout(values, states)`` reads the samples out at their ramp values,
    and each row, at its value over ``axis_unit``, is judged by
    ``_row_checks``; the run and the readout are timed as in ``_rate_scan``."""
    parameter, start, end, rate_unit = setup.ramp
    n = spec.n_steps
    fractions = (np.asarray(spec.scan_values) * axis_unit - start) / (end - start)
    if np.any(fractions < -1e-12) or np.any(fractions > 1.0 + 1e-12):
        raise InvalidParameterError("trace axis values fall outside the sweep")
    steps = [round(f * n) for f in np.clip(fractions, 0.0, 1.0).tolist()]
    # Each row has its own manifest key, so each needs its own step; the
    # steps follow the axis, so only neighbours can share one.
    for a, b, k, k_next in zip(spec.scan_values, spec.scan_values[1:], steps, steps[1:]):
        if k == k_next:
            raise InvalidParameterError(
                f"trace axis values {a!r} and {b!r} fall on one step ({k} of {n})"
            )
    rate = float(spec.options["rate"]) * rate_unit
    schedule = SweepSchedule(parameter, start, end, rate, n_steps=n, sample_steps=steps)
    values = start + (end - start) * (np.array(steps) / n)
    t0 = time.perf_counter()
    traj = run_sweep(spec.params, setup.parts, schedule, setup.psi0)
    t1 = time.perf_counter()
    sims = setup.readout(values, traj.states)
    provenance = {
        "propagation_s": round(t1 - t0, 4), "readout_s": round(time.perf_counter() - t1, 4)
    }
    rows = []
    for value, sim in zip(values.tolist(), sims):
        checks, warns = _row_checks(traj, sim, setup.endpoint_occupancy)
        # Adding 0.0 turns the -0.0 of a negative unit at zero into 0.0.
        rows.append(ResultRow(value / axis_unit + 0.0, sim, None, checks=checks, warnings=warns))
    return ResultTable(spec, rows, provenance)


# ---------------------------------------------------------------------------
# Quench experiments
# ---------------------------------------------------------------------------

def _quench(spec: ExperimentSpec) -> tuple[_Setup, float, tuple[BasisLabel, ...]]:
    """The gap-quench setup that its scans and its trace share:
    ``(setup, sign, labels)``. The ramp ``("delta", start, end, omega^2)``
    runs between ``delta_hi`` and zero gap in the kind's direction or, for
    ``quench_trace`` only, ``options["direction"]``, inside the even-parity
    block from its ground state ``psi0``. ``sign`` is the trace axis' sign:
    -1 toward zero gap (v(t - T)/omega = -delta/omega), +1 away from it
    (v t/omega = delta/omega). Both ends are dense solves of the block's
    parts (``operators.eig_hermitian``), the start's for ``psi0``; the one
    solve at ``end`` serves three uses: ``labels`` names its vectors, each by
    its best match in the direction's scheme (superradiant toward zero gap,
    normal away from it), its lowest column is the far end's ground state
    for the endpoint weight, and its vectors read out every state at
    ``end``. ``readout(values, states)`` gives each state's populations of
    the block's eigenvectors at its gap (``eigen_level_series``: levels in
    energy order, flagged near a degeneracy) under that one tuple; a trace's
    samples away from ``end`` are solved on the block's ladder
    (``parity_block_ladder``), so only a trace loads ``scipy.linalg``."""
    p = spec.params
    hi = _endpoint_option(spec)[1]
    ns = spec.options.get("direction", spec.kind.removeprefix("quench_")) == "ns"
    start, end, sign, scheme = (hi, 0.0, -1.0, "superradiant") if ns else (0.0, hi, 1.0, "normal")
    parts = hamiltonian_parts(p, "delta", EVEN_SECTOR)
    ladder = parity_block_ladder(p, EVEN_SECTOR)
    far = eig_hermitian(parts[0] + end * parts[1])
    labels = tuple(greedy_label_assignment(*readout_columns(p, scheme, EVEN_SECTOR), far[1]))

    def readout(values: np.ndarray, states: np.ndarray) -> list[Readout]:
        pops, _, flags = eigen_level_series(ladder, values, states, {end: far})
        return Readout.rows(labels, pops, flags)

    psi0 = StateVector(_lowest_eigenvector(*parts, start), EVEN_SECTOR)
    occupancy = max(top_fock_occupancy(p, psi0.amplitudes), top_fock_occupancy(p, far[1][:, 0]))
    ramp = ("delta", start, end, _rate_unit(spec))
    return _Setup(ramp, parts, psi0, occupancy, readout), sign, labels


def quench_rate_scan(spec: ExperimentSpec) -> ResultTable:
    """Final-state populations vs sweep rate for a gap quench, one
    ``_rate_scan`` row per rate v/omega^2, read out in the even block's
    named eigenbasis at the far end (see ``_quench``). The sudden-limit
    Poisson law over the same label tuple rides along as the oracle column.
    """
    if spec.kind not in ("quench_ns", "quench_sn"):
        raise InvalidParameterError(f"quench_rate_scan cannot run kind {spec.kind!r}")
    p = spec.params
    setup, _, labels = _quench(spec)
    oracle = Readout(labels, [poisson_overlap(lab.photons, p.g, p.omega) for lab in labels])
    return _rate_scan(spec, lambda values: [oracle] * len(values), setup)


def quench_time_trace(spec: ExperimentSpec) -> ResultTable:
    """Populations of the instantaneous energy levels along one gap quench,
    one ``_time_trace`` row per sample of the paper's axis, named as in
    ``quench_rate_scan`` (see ``_quench``)."""
    if spec.kind != "quench_trace":
        raise InvalidParameterError(f"quench_time_trace cannot run kind {spec.kind!r}")
    p = spec.params
    setup, sign, _ = _quench(spec)
    table = _time_trace(spec, setup, sign * p.omega)
    crossing = sign * critical_delta(p.g, p.omega) / p.omega
    table.provenance["semiclassical_crossing_axis_value"] = crossing
    return table


# ---------------------------------------------------------------------------
# Bias-sweep (multi-crossing) experiments
# ---------------------------------------------------------------------------

def _bias(spec: ExperimentSpec) -> tuple[float, _Setup]:
    """The bias-sweep setup that its scans and its trace share:
    ``(window, setup)``. The ramp ``("epsilon", -window, window, delta^2)``
    starts from the instantaneous ground state ``psi0`` at the window edge
    (the finite-window stand-in for the asymptotic ground state). The full
    space's parts are assembled once, for every run of the table, and solved
    at both edges, -window for psi0 and +window for the endpoint weight;
    ``readout(values, states)`` projects onto the displaced columns."""
    p = spec.params
    window = _endpoint_option(spec)[1]
    cols, labels = readout_columns(p, "displaced")
    parts = hamiltonian_parts(p, "epsilon")
    psi0 = StateVector(_lowest_eigenvector(*parts, -window))
    far = _lowest_eigenvector(*parts, window)
    occupancy = max(top_fock_occupancy(p, psi0.amplitudes), top_fock_occupancy(p, far))
    return window, _Setup(
        ("epsilon", -window, window, _rate_unit(spec)), parts, psi0, occupancy,
        lambda values, states: project_records(cols, labels, states),
    )


def _bias_scan(spec: ExperimentSpec, spectrum: GapSpectrum, residual_tol: float) -> ResultTable:
    """Bias sweeps across the window vs the sequential-crossing oracle of
    ``spectrum``, one ``_rate_scan`` row per rate v/delta^2, each run set up
    by ``_bias``. With ``options["simulate"]`` false a row holds only the
    oracle, and no setup is built.
    """
    if spec.options.get("simulate", True):
        window, setup = _bias(spec)
    else:
        window, setup = _endpoint_option(spec)[1], None

    def oracles_for_values(values: tuple[float, ...]) -> list[Readout | RabisweepError]:
        return sequential_crossing_probabilities(
            spectrum, np.asarray(values) * _rate_unit(spec), residual_tol=residual_tol
        )

    table = _rate_scan(spec, oracles_for_values, setup)
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
    """Displaced-basis populations along one bias sweep, one ``_time_trace``
    row per sample of the axis epsilon/omega, set up by ``_bias``."""
    if spec.kind != "lz_trace":
        raise InvalidParameterError(f"lz_time_trace cannot run kind {spec.kind!r}")
    window, setup = _bias(spec)
    table = _time_trace(spec, setup, spec.params.omega)
    table.provenance["window"] = window
    return table


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


class _Kind(NamedTuple):
    """A kind's driver, its one parameter type, the option keys it takes
    (any other is refused) and whether its scan axis is a sweep rate; a
    trace kind scans its swept parameter over omega at the one rate options["rate"]."""

    driver: Callable[[ExperimentSpec], ResultTable]
    params: type
    options: tuple[str, ...]
    scans_rates: bool


# Every experiment kind: a new kind is one entry here.
_KINDS = {
    "quench_ns": _Kind(quench_rate_scan, QrmParams, ("delta_hi",), True),
    "quench_sn": _Kind(quench_rate_scan, QrmParams, ("delta_hi",), True),
    "quench_trace": _Kind(
        quench_time_trace, QrmParams, ("delta_hi", "direction", "rate"), False
    ),
    "lz_scan": _Kind(lz_scan, QrmParams, ("window", "simulate", "top_occupancy_tol"), True),
    "lz_trace": _Kind(lz_time_trace, QrmParams, ("window", "rate"), False),
    "multimode_scan": _Kind(
        multimode_scan, MultiModeParams, ("window", "simulate", "top_occupancy_tol", "caps"), True
    ),
}
EXPERIMENT_KINDS = tuple(_KINDS)
RATE_SCAN_KINDS = tuple(name for name, kind in _KINDS.items() if kind.scans_rates)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    return _KINDS[spec.kind].driver(spec)


# ---------------------------------------------------------------------------
# Resolution audit
# ---------------------------------------------------------------------------

# The resolution knobs ``convergence_scan`` scales (see ``_scaled_spec``).
AUDIT_KNOBS = ("n_steps", "n_fock", "endpoint_magnitude")


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
    # Where each largest change sits: (scan value, label text), or None
    # when that change is None.
    where_2x: tuple[float, str] | None = None
    where_4x: tuple[float, str] | None = None


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


def _largest_change(
    coarse: ResultTable, fine: ResultTable
) -> tuple[float | None, tuple[float, str] | None]:
    """Largest change in any row's simulated probabilities, where a label
    that only one table's row carries counts its whole probability, and
    where it sits: (scan value, label text) of its first occurrence. Both
    are None when a row of either table has no simulated readout."""
    changes = []
    for a, b in zip(coarse.rows, fine.rows, strict=True):
        if a.sim is None or b.sim is None:
            return None, None
        pa = dict(zip(a.sim.labels, a.sim.probabilities.tolist()))
        pb = dict(zip(b.sim.labels, b.sim.probabilities.tolist()))
        changes += [
            (abs(pb.get(k, 0.0) - pa.get(k, 0.0)), a.scan_value, str(k)) for k in {**pa, **pb}
        ]
    change, value, label = max(changes, key=lambda c: c[0])
    return change, (value, label)


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
    every resolution; the unconverged rows' warnings are its notes. A change
    is None when a row failed at either resolution; otherwise its report
    names the scan value and label where it sits. An unknown knob, a
    tolerance that is not a finite real number >= 0, a trace kind and a
    formula-only spec are refused before any run.

    On the command line, ``--audit KNOB`` on a table command (``quench``,
    ``lz``, ``multimode`` or ``presets NAME``) runs this on the spec that
    command would run, at the default tolerance, and writes the reports to
    ``<name>_audit.json`` (``io.write_audit``).
    """
    if knob not in AUDIT_KNOBS:
        raise InvalidParameterError(f"unknown convergence knob {knob!r}")
    _require_finite(tolerance=tolerance)
    if tolerance < 0:
        raise InvalidParameterError(f"tolerance must be >= 0, got {tolerance!r}")
    if spec.kind not in RATE_SCAN_KINDS:
        raise InvalidParameterError(f"convergence_scan audits rate scans, not {spec.kind!r}")
    if not spec.options.get("simulate", True):
        raise InvalidParameterError("a formula-only spec has no simulation to audit")
    base_value = {
        "n_steps": float(spec.n_steps),
        "n_fock": float(max(m.n_fock for m in spec.params.modes)),
        "endpoint_magnitude": _endpoint_option(spec)[1],
    }[knob]
    tables = {f: run_experiment(_scaled_spec(spec, knob, f)) for f in (1, 2, 4)}
    unconverged = [(f, row) for f, t in tables.items() for row in t.rows if not row.converged]
    notes = tuple(
        f"{f}x, {spec.scan_name} = {row.scan_value:g}: {warning}"
        for f, row in unconverged
        for warning in row.warnings
    )
    change_2x, where_2x = _largest_change(tables[1], tables[2])
    change_4x, where_4x = _largest_change(tables[2], tables[4])
    passed = not unconverged and all(
        c is not None and c <= tolerance for c in (change_2x, change_4x)
    )
    return ConvergenceReport(
        knob, base_value, tolerance, change_2x, change_4x, passed, notes, where_2x, where_4x
    )
