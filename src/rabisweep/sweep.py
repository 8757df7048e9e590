"""Time evolution under linear parameter schedules.

The stepper is a piecewise-constant midpoint exponential: within each step the
Hamiltonian is frozen at the step's midpoint and its exact exponential is
applied, so every step is unitary by construction and the scheme is
second-order in the step size.

The exponential action is computed two ways: batched eigendecomposition for
tiny dimensions, and a Chebyshev expansion of exp(-i H dt) (coefficients shared
across a chunk of steps, spectral bounds from Gershgorin discs) otherwise.
Per-step eigendecomposition is prohibitively slow past dim ~ 32 on one core;
the Chebyshev action reproduces the exact exponential to machine precision.

Every run has the shape H(t) = A + f(t) B with A and B real symmetric: the
model layer builds every Hamiltonian, ramp and parity basis as float64, and
the propagator refuses complex ones. The Chebyshev branch builds the scaled
matrix 2(A - c)/r once per chunk and on each step rewrites only the entries
where B is nonzero: the diagonal for a sector gap sweep or a bias sweep, the
sigma_x (x) I entries for a full-space gap sweep. The recurrence runs in
buffers allocated once per run and multiplies the complex states through
their float views, a real product that is cheaper per column than a complex
one; a step costs one such product and one in-place subtraction per term,
plus one product per run for the sum.

The midpoint values of f do not depend on the sweep's duration, so the runs of
a rate scan, which differ only in their rate, share every step's matrix. A
``RateBlock`` passed to ``run_sweep`` propagates them together, as the columns
of one block, each with its own step size, coefficients and phase.
``_lowest_eigenvector`` is the one ground-state solve of A + f B:
``ground_state`` applies it to a model's parts, and ``run_sweep`` to the parts
of its own run, so a run assembles its Hamiltonian once. A run takes its
space from its initial state's basis tag and its samples as step indices,
and returns a ``Trajectory``: its sampled states as the columns of one
read-only array, with its norm drift, parity leakage and truncation weights
recorded for ``experiments._row_checks``, the one judge of every limit.

A level series reads a trace out in the instantaneous eigenbasis of a parity
block, where A is real tridiagonal and B diagonal. Each sample is one real
symmetric tridiagonal solve (LAPACK ``dstevd``) of the diagonal d0 + f d1 and
the off-diagonal e: the divide-and-conquer solve that a dense ``eigh`` of the
same matrix ends in, without the dense reduction before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.lapack import dstevd
from scipy.special import jv

from .errors import (
    InvalidParameterError,
    NumericalInstabilityError,
    RabisweepError,
)
from .model import (
    EVEN_SECTOR,
    ODD_SECTOR,
    BasisLabel,
    MultiModeParams,
    ParitySector,
    QrmParams,
    Readout,
    _require_count,
    _require_finite,
    _scheme_column,
    build_multimode,
    build_qrm,
    delta_ramp,
    epsilon_ramp,
    multimode_displaced_basis,
    parity_sector_basis,
    parity_sector_labels,
    scheme_basis,
    top_fock_occupancy,
)
from .operators import StateVector

# Hard error threshold on norm drift during a run.
NORM_DRIFT_LIMIT = 1e-6
# Adjacent tracked levels closer than this (times the spectral scale) are
# flagged: their populations are not individually trustworthy there.
DEGENERACY_WARN_RTOL = 1e-8
# Fewest steps a sweep may take: the resolution guard of every fixed-step run.
MIN_N_STEPS = 1000
# Steps per run unless a schedule or an experiment spec sets its own.
DEFAULT_N_STEPS = 20_000

_EIGH_BACKEND_MAX_DIM = 16
_EIGH_CHUNK = 4096
_CHEB_CHUNK = 1024
_CHEB_COEFF_TOL = 1e-16


@dataclass(frozen=True)
class SweepSchedule:
    """Linear ramp of one Hamiltonian parameter in ``n_steps`` equal steps.

    ``sample_steps`` names the steps whose states a run returns: ordered
    integers in [0, n_steps], repeats allowed, step k at time k T / n_steps.
    Without it a run returns its start and its end. Steps, unlike times,
    sit at the same ramp values for every rate of a ``RateBlock``.
    """

    parameter: str
    start_value: float
    end_value: float
    rate_v: float
    n_steps: int = DEFAULT_N_STEPS
    sample_steps: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.parameter not in ("delta", "epsilon"):
            raise InvalidParameterError(f"unknown sweep parameter {self.parameter!r}")
        _require_finite(
            start_value=self.start_value, end_value=self.end_value, rate_v=self.rate_v
        )
        if self.rate_v <= 0:
            raise InvalidParameterError(f"rate_v must be positive, got {self.rate_v}")
        _require_count("n_steps", self.n_steps, MIN_N_STEPS)
        if self.sample_steps is not None:
            steps = tuple(self.sample_steps)
            for k in steps:
                _require_count("a sample step", k, 0)
            if list(steps) != sorted(steps) or any(k > self.n_steps for k in steps):
                raise InvalidParameterError("sample_steps must be ordered, within [0, n_steps]")
            object.__setattr__(self, "sample_steps", tuple(int(k) for k in steps))

    @property
    def total_time(self) -> float:
        return abs(self.end_value - self.start_value) / self.rate_v

    def value_at(self, t: float) -> float:
        total = self.total_time
        if total == 0.0:
            return self.start_value
        return self.start_value + (self.end_value - self.start_value) * (t / total)

    def reversed(self) -> "SweepSchedule":
        """The opposite-direction ramp: same rate and steps, endpoints swapped.

        This is the other quench direction (normal->superradiant becomes
        superradiant->normal), not the time reverse of a run. Undoing a run of
        a real H(t) also needs complex conjugation: with psi(T) = U psi(0),
        running ``reversed()`` from conj(psi(T)) returns conj(psi(0)).
        """
        return replace(self, start_value=self.end_value, end_value=self.start_value)


# What the schedules of a rate block share: everything but the rate.
_BLOCK_SHARED = ("parameter", "start_value", "end_value", "n_steps", "sample_steps")


@dataclass(frozen=True)
class RateBlock:
    """Schedules that differ only in ``rate_v``, propagated as one block.

    Every rate of a scan steps through the same midpoint values of the ramp,
    so ``run_sweep`` carries the whole block in one Chebyshev recurrence,
    and samples every entry at the same steps, hence the same ramp values.
    """

    schedules: tuple[SweepSchedule, ...]

    def __post_init__(self) -> None:
        schedules = tuple(self.schedules)
        if not schedules:
            raise InvalidParameterError("a rate block needs at least one schedule")
        if not all(isinstance(s, SweepSchedule) for s in schedules):
            raise InvalidParameterError("a rate block holds SweepSchedule entries")
        shared = [tuple(getattr(s, name) for name in _BLOCK_SHARED) for s in schedules]
        if any(key != shared[0] for key in shared):
            raise InvalidParameterError("the schedules of a rate block may differ only in rate_v")
        object.__setattr__(self, "schedules", schedules)

    @property
    def n_steps(self) -> int:
        return self.schedules[0].n_steps


@dataclass
class Trajectory:
    """Sampled output of one sweep. ``states`` is one read-only complex
    (dim, samples) array, the normalized state at each sample step as a
    column, in the run's coordinates (block coordinates for a sector run),
    and ``times`` holds those steps' times. The two maxima cover every
    sample and the end of the sweep, recorded, not judged; leakage is None
    where parity is not measured. Readouts come from ``project_records``
    over ``readout_columns``.
    """

    schedule: SweepSchedule
    times: np.ndarray
    states: np.ndarray
    max_norm_deviation: float
    max_parity_leakage: float | None
    metadata: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        """The last sampled state."""
        return self.states[:, -1]


# ---------------------------------------------------------------------------
# Propagation backends
# ---------------------------------------------------------------------------

def _chebyshev_coefficients(z: float) -> np.ndarray:
    """Expansion coefficients of exp(-i z x) over Chebyshev T_k(x), x in [-1, 1]."""
    if z < 1e-14:
        k_max = 4
    else:
        k_max = int(z + 12.0 * z ** (1.0 / 3.0) + 30.0)
    k = np.arange(k_max + 1)
    bessels = jv(k, z)
    keep = np.nonzero(np.abs(bessels) >= _CHEB_COEFF_TOL)[0]
    cut = min(int(keep[-1]) + 2 if keep.size else 1, k_max)
    coeffs = ((-1j) ** k[: cut + 1]) * bessels[: cut + 1]
    coeffs[1:] *= 2.0
    return coeffs


def _gershgorin_bounds(h0: np.ndarray, h1: np.ndarray, f_vals: np.ndarray) -> tuple[float, float]:
    d0 = np.diag(h0)
    d1 = np.diag(h1)
    s0 = np.sum(np.abs(h0), axis=1) - np.abs(d0)
    s1 = np.sum(np.abs(h1), axis=1) - np.abs(d1)
    f_lo, f_hi = float(f_vals.min()), float(f_vals.max())
    f_abs = max(abs(f_lo), abs(f_hi))
    lo = min(
        float(np.min(d0 + f_lo * d1 - s0 - f_abs * s1)),
        float(np.min(d0 + f_hi * d1 - s0 - f_abs * s1)),
    )
    hi = max(
        float(np.max(d0 + f_lo * d1 + s0 + f_abs * s1)),
        float(np.max(d0 + f_hi * d1 + s0 + f_abs * s1)),
    )
    return lo, hi


def _chunk_midpoints(f_start: float, f_end: float, n_steps: int, chunk_size: int):
    """Yield each chunk's step indices and the ramp's values at their midpoints.

    The values f_k = f_start + (f_end - f_start)(k + 1/2)/n_steps do not
    depend on the sweep's duration, so every rate of a scan shares them."""
    for start in range(0, n_steps, chunk_size):
        steps = np.arange(start, min(n_steps, start + chunk_size))
        yield steps, f_start + (f_end - f_start) * ((steps + 0.5) / n_steps)


def _chebyshev_expansion(
    h_static: np.ndarray, h_ramp: np.ndarray, f_mid: np.ndarray, dts: np.ndarray
) -> tuple[float, float, list[np.ndarray]]:
    """Centre c, radius r and, for each step size in ``dts``, the
    coefficients of one chunk's expansion. c and r come from the Gershgorin
    bounds of H over the chunk's ramp values, so every run shares them."""
    lo, hi = _gershgorin_bounds(h_static, h_ramp, f_mid)
    center = 0.5 * (hi + lo)
    radius = 0.5 * (hi - lo) + 1e-300
    return center, radius, [_chebyshev_coefficients(radius * dt) for dt in dts]


def _evolve_linear(
    h_static: np.ndarray,
    h_ramp: np.ndarray,
    f_start: float,
    f_end: float,
    total_times,
    n_steps: int,
    psi0: np.ndarray,
    sample_steps: set[int],
) -> tuple[dict[int, np.ndarray], list[int]]:
    """Midpoint-exponential propagation of H(t) = h_static + f(t) h_ramp for
    a block of R runs that differ only in their total time.

    h_static and h_ramp are real symmetric arrays; a complex one raises
    ``InvalidParameterError``. Every run starts from psi0 and takes
    ``n_steps`` steps through the same midpoint values f_k; run j steps by
    total_times[j] / n_steps. Returns the (dim, R) block of states after each
    step in ``sample_steps``, columns in the order of ``total_times``, and
    each run's Chebyshev terms per step: the most any chunk took, 0 on the
    eigh branch and for a zero-length sweep. A single run is a block of one.

    The only code that applies exp(-i H dt); the branch is chosen by
    dimension, as the module docstring describes. The Chebyshev branch holds
    the chunk's real scaled matrix h2 = 2(h_static - c)/r in one buffer,
    built once per chunk and shared by every run, and on each step rewrites
    only the entries where h_ramp is nonzero. The recurrence
    T_{n+1} = h2 T_n - T_{n-1} fills a stack of complex (dim, R) blocks, one
    matrix product and one subtraction per order, h2 multiplying each block
    through its float view of shape (dim, 2R), whose first 2a columns are
    the block's first a. Runs are ordered slowest first, so the runs that
    still need order n form a leading slice of the block and the product at
    order n covers only that slice. Each run's new state is then one product
    of its own coefficients, times its phase exp(-i c dt_j), with its column
    of the stack. Buffers grow only when a chunk needs more orders than any
    before it, so a step allocates nothing of the problem's size.
    """
    if np.iscomplexobj(h_static) or np.iscomplexobj(h_ramp):
        raise InvalidParameterError("the propagator takes real symmetric h_static and h_ramp")
    dim = h_static.shape[0]
    total_times = np.asarray(total_times, dtype=float).reshape(-1)
    n_runs = total_times.size
    psi = np.zeros((dim, n_runs), dtype=complex)
    psi[:] = np.asarray(psi0, dtype=complex)[:, None]
    if not total_times.any():
        return {k: psi.copy() for k in sample_steps}, [0] * n_runs
    # Slowest run first: the runs with terms left at any order lead the block.
    order = np.argsort(-total_times, kind="stable")
    restore = np.argsort(order)
    dts = total_times[order] / n_steps
    out: dict[int, np.ndarray] = {}
    if 0 in sample_steps:
        out[0] = psi.copy()
    if dim <= _EIGH_BACKEND_MAX_DIM:
        for steps, f_mid in _chunk_midpoints(f_start, f_end, n_steps, _EIGH_CHUNK):
            hb = h_static[None, :, :] + f_mid[:, None, None] * h_ramp[None, :, :]
            w, v = np.linalg.eigh(hb)
            phases = np.exp(-1j * w[:, :, None] * dts)
            for i, k in enumerate(steps):
                psi = v[i] @ (phases[i] * (v[i].T @ psi))
                if k + 1 in sample_steps:
                    out[k + 1] = psi[:, restore]
        return out, [0] * n_runs

    # Flat indices of the ramp's nonzero entries: the diagonal for a sector
    # gap sweep or a bias sweep, sigma_x (x) I for a full-space gap sweep.
    ramp_idx = np.flatnonzero(h_ramp)
    ramp_vals = h_ramp.reshape(-1)[ramp_idx]
    h2 = np.empty((dim, dim))
    h2_flat = h2.reshape(-1)
    a_idx = np.empty(ramp_idx.size)
    b_idx = np.empty(ramp_idx.size)
    entries = np.empty(ramp_idx.size)
    # stack[n] holds T_n for every run; stack[0] is the current state.
    stack = psi[None]
    new_psi = np.empty((dim, n_runs), dtype=complex)
    terms = [0] * n_runs
    for steps, f_mid in _chunk_midpoints(f_start, f_end, n_steps, _CHEB_CHUNK):
        center, radius, coeffs = _chebyshev_expansion(h_static, h_ramp, f_mid, dts)
        lengths = [len(c) for c in coeffs]
        terms = [max(t, n) for t, n in zip(terms, lengths)]
        if max(lengths) > stack.shape[0]:
            grown = np.zeros((max(lengths), dim, n_runs), dtype=complex)
            grown[0] = stack[0]
            stack = grown
        real_view = stack.view(float)
        # Order n >= 2: the product over the leading runs that still need it.
        orders = []
        for n in range(2, max(lengths)):
            a = 1 + max(j for j, length in enumerate(lengths) if length > n)
            orders.append((
                real_view[n - 1, :, : 2 * a],
                real_view[n, :, : 2 * a],
                stack[n, :, :a],
                stack[n - 2, :, :a],
            ))
        # Run j's new state: its phased coefficients times its own T_n.
        phases = np.exp(-1j * center * dts)
        finals = [
            (phase * c, stack[: len(c), :, j], new_psi[:, j])
            for j, (phase, c) in enumerate(zip(phases, coeffs))
        ]
        np.copyto(h2, h_static)
        h2_flat[:: dim + 1] -= center
        h2 *= 2.0 / radius
        np.take(h2_flat, ramp_idx, out=a_idx)
        np.multiply(ramp_vals, 2.0 / radius, out=b_idx)
        for k, f in zip(steps.tolist(), f_mid.tolist()):
            np.multiply(b_idx, f, out=entries)
            entries += a_idx
            h2_flat[ramp_idx] = entries
            # T_0 = psi, T_1 = h2 psi / 2, T_{n+1} = h2 T_n - T_{n-1}.
            np.matmul(h2, real_view[0], out=real_view[1])
            stack[1] *= 0.5
            for t_in, t_out, t_new, t_back in orders:
                np.matmul(h2, t_in, out=t_out)
                t_new -= t_back
            for weights, column_terms, column in finals:
                np.matmul(weights, column_terms, out=column)
            stack[0] = new_psi
            if k + 1 in sample_steps:
                out[k + 1] = new_psi[:, restore]
    return out, [terms[j] for j in restore]


# ---------------------------------------------------------------------------
# Model plumbing
# ---------------------------------------------------------------------------

def _hamiltonian_parts(
    p: QrmParams | MultiModeParams, parameter: str, sector: ParitySector | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(A, B, sector basis) of H = A + f B, where f is the swept parameter.

    A and B are real symmetric float64 arrays. With ``sector`` given
    (single-mode, bias-free gap sweeps only) they are projected onto that
    parity block and its basis columns come third; otherwise the third entry
    is None.
    """
    if isinstance(p, MultiModeParams):
        if parameter != "epsilon":
            raise InvalidParameterError("multimode sweeps support the bias parameter only")
        h_static, h_ramp = build_multimode(p), epsilon_ramp(p)
    elif parameter == "delta":
        h_static, h_ramp = build_qrm(replace(p, delta=0.0)), delta_ramp(p)
    else:
        h_static, h_ramp = build_qrm(replace(p, epsilon=0.0)), epsilon_ramp(p)
    if sector is None:
        return h_static, h_ramp, None
    if isinstance(p, MultiModeParams) or parameter != "delta" or p.epsilon != 0.0:
        raise InvalidParameterError(
            "sector-restricted runs require a single-mode, bias-free gap sweep"
        )
    basis, _ = parity_sector_basis(p, sector)
    return basis.T @ h_static @ basis, basis.T @ h_ramp @ basis, basis


# The basis tag of a state of each space: the full space (None) or a parity
# block. A run takes its space from its initial state's tag.
_SECTOR_TAGS = {None: "bare", EVEN_SECTOR: "parity-symmetric", ODD_SECTOR: "parity-antisymmetric"}


def _lowest_eigenvector(h_static: np.ndarray, h_ramp: np.ndarray, value: float) -> np.ndarray:
    """Lowest eigenvector of A + value B."""
    _, vecs = eigh(h_static + value * h_ramp, subset_by_index=[0, 0])
    return vecs[:, 0]


def ground_state(
    p: QrmParams | MultiModeParams,
    parameter: str,
    value: float,
    sector: ParitySector | None = None,
) -> StateVector:
    """Ground state of A + value B, the Hamiltonian of a ``parameter`` sweep
    frozen at ``value``: a ``"bare"`` full-space state, or with ``sector``
    (single-mode, bias-free gap sweeps only) that parity block's ground
    state in block coordinates, tagged with the sector."""
    h_static, h_ramp, _ = _hamiltonian_parts(p, parameter, sector)
    return StateVector(_lowest_eigenvector(h_static, h_ramp, value), _SECTOR_TAGS[sector])


def readout_columns(
    p: QrmParams | MultiModeParams, scheme: str, sector: ParitySector | None = None
) -> tuple[np.ndarray, list[BasisLabel]]:
    """Orthonormal columns of one complete readout scheme, with their labels.

    Without ``sector`` the columns span the full space (multimode models have
    the displaced scheme only). With ``sector`` (single-mode, parity-definite
    schemes) they are that sector's states in its block coordinates, the
    coordinates of a sector run's states.
    """
    if isinstance(p, MultiModeParams):
        if scheme != "displaced" or sector is not None:
            raise InvalidParameterError(
                "multimode readout supports the full-space displaced scheme only"
            )
        return multimode_displaced_basis(p)
    if sector is None:
        return scheme_basis(p, scheme)
    labels = parity_sector_labels(sector, p.n_fock, scheme)
    basis, _ = parity_sector_basis(p, sector)
    cols_full, _ = scheme_basis(p, scheme)
    keep = [_scheme_column(lab, p.n_fock) for lab in labels]
    return basis.T @ cols_full[:, keep], labels


def project_records(
    cols: np.ndarray, labels: list[BasisLabel], amplitudes: np.ndarray
) -> Readout | list[Readout]:
    """|<column | psi>|^2 for each column, under its label: one ``Readout``
    for a state vector, or one per column of a (dim, k) block of states,
    from one product."""
    probs = np.abs(cols.conj().T @ amplitudes) ** 2
    if probs.ndim == 1:
        return Readout(labels, probs)
    return Readout.rows(labels, probs.T)


# ---------------------------------------------------------------------------
# Public sweep driver
# ---------------------------------------------------------------------------

def run_sweep(
    p: QrmParams | MultiModeParams,
    schedule: SweepSchedule | RateBlock,
    psi0: StateVector,
) -> Trajectory | list[Trajectory | RabisweepError]:
    """Propagate psi0 under the scheduled ramp and return the normalized
    state at every step of ``schedule.sample_steps``, or at the start and
    the end when it is None.

    The swept parameter's value in ``p`` is ignored; the schedule supplies it.
    The run's space is psi0's: a ``"bare"`` state runs in the full space, a
    parity-tagged one (bias-free single-mode gap sweeps only) inside that
    parity block, in block coordinates. The run reads nothing out: project
    its states with ``project_records`` over ``readout_columns``.

    Every sample and the end of the sweep, sampled or not, are measured. A
    norm drift past NORM_DRIFT_LIMIT raises ``NumericalInstabilityError`` at
    the first such sample; below it the largest drift and parity leakage are
    recorded for ``experiments._row_checks`` to judge. The top-tenth Fock
    weights (``model.top_fock_occupancy``) of the end state and of both
    endpoint ground states (solved on the run's own parts) are recorded in
    ``metadata["top_fock_occupancy"]`` and
    ``metadata["endpoint_top_fock_occupancy"]``, and
    ``metadata["chebyshev_terms"]`` records the Chebyshev terms per step (the
    most any chunk took; 0 on the eigh branch). ``max_parity_leakage`` is
    None where leakage is not measured: sector runs, bias sweeps, and
    full-space gap sweeps from a state of no definite parity.

    A ``RateBlock`` runs its schedules in one propagation, as the columns of
    one block (see ``_evolve_linear``), and returns one ``Trajectory`` or
    ``RabisweepError`` per schedule, in order: a bad argument raises for the
    whole block, and a run's norm drift fails only that run's entry.
    """
    schedules = schedule.schedules if isinstance(schedule, RateBlock) else (schedule,)
    first = schedules[0]
    sector = next(s for s, tag in _SECTOR_TAGS.items() if tag == psi0.basis_tag)
    h_static, h_ramp, sector_matrix = _hamiltonian_parts(p, first.parameter, sector)
    leak_matrix = None
    if sector is None and isinstance(p, QrmParams) and first.parameter == "delta" and p.epsilon == 0.0:
        plus, _ = parity_sector_basis(p, EVEN_SECTOR)
        minus, _ = parity_sector_basis(p, ODD_SECTOR)
        w_plus = float(np.sum(np.abs(plus.T @ psi0.amplitudes) ** 2))
        if w_plus > 1.0 - 1e-12:
            leak_matrix = minus
        elif w_plus < 1e-12:
            leak_matrix = plus
    if psi0.dim != h_static.shape[0]:
        raise InvalidParameterError(
            f"initial state dimension {psi0.dim} does not match the model ({h_static.shape[0]})"
        )

    endpoint_occ = 0.0
    for value in {first.start_value, first.end_value}:
        ground = _lowest_eigenvector(h_static, h_ramp, value)
        full_ground = sector_matrix @ ground if sector_matrix is not None else ground
        endpoint_occ = max(endpoint_occ, top_fock_occupancy(p, full_ground))

    n_steps = first.n_steps
    steps = [0, n_steps] if first.sample_steps is None else list(first.sample_steps)
    # Every distinct sampled step and the end, in time order: the end state
    # is always propagated, so the conservation checks and the final
    # truncation weight see it even when no sample asks for it.
    checked = sorted(set(steps) | {n_steps})
    columns = np.searchsorted(checked, steps)
    sampled, chebyshev_terms = _evolve_linear(
        h_static, h_ramp, first.start_value, first.end_value,
        [s.total_time for s in schedules], n_steps, psi0.amplitudes, set(checked),
    )

    def trajectory(j: int) -> Trajectory:
        own = schedules[j]
        dt = own.total_time / n_steps if own.total_time else 0.0
        block = np.stack([sampled[k][:, j] for k in checked], axis=1)
        norms = np.array([np.linalg.norm(column) for column in block.T])
        deviations = norms - 1.0
        # "Not within" the limit: a NaN norm fails the run too.
        drifted = np.flatnonzero(~(np.abs(deviations) <= NORM_DRIFT_LIMIT))
        if drifted.size:
            i = drifted[0]
            raise NumericalInstabilityError(
                f"norm drifted by {deviations[i]:.2e} at t = {checked[i] * dt:.6g}"
            )
        final = block[:, -1] if sector_matrix is None else sector_matrix @ block[:, -1]
        states = block[:, columns] / norms[columns]
        states.flags.writeable = False
        return Trajectory(
            schedule=own,
            times=np.array(steps) * dt,
            states=states,
            max_norm_deviation=float(np.max(np.abs(deviations))),
            max_parity_leakage=None if leak_matrix is None else float(
                np.max(np.sum(np.abs(leak_matrix.T @ block) ** 2, axis=0))
            ),
            metadata={
                "top_fock_occupancy": top_fock_occupancy(p, final),
                "endpoint_top_fock_occupancy": endpoint_occ,
                "chebyshev_terms": chebyshev_terms[j],
            },
        )

    if not isinstance(schedule, RateBlock):
        return trajectory(0)
    results: list[Trajectory | RabisweepError] = []
    for j in range(len(schedules)):
        try:
            results.append(trajectory(j))
        except RabisweepError as exc:
            results.append(exc)
    return results


# ---------------------------------------------------------------------------
# Instantaneous-eigenbasis readout
# ---------------------------------------------------------------------------

def greedy_label_assignment(
    reference: np.ndarray, labels: list[BasisLabel], vectors: np.ndarray
) -> list[BasisLabel]:
    """Assign each vector (column) the label of its best-matching reference
    column: repeatedly take the globally largest remaining overlap."""
    overlaps = np.abs(reference.conj().T @ vectors) ** 2
    if overlaps.shape[0] != overlaps.shape[1]:
        raise InvalidParameterError("label matching needs a complete reference basis")
    n = overlaps.shape[0]
    out: list[BasisLabel | None] = [None] * n
    work = overlaps.copy()
    for _ in range(n):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        out[j] = labels[i]
        work[i, :] = -1.0
        work[:, j] = -1.0
    return out  # type: ignore[return-value]


def _tridiagonal_parts(
    h_static: np.ndarray, h_ramp: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d0, d1, e) of H = A + f B: the diagonals of A and B and the
    off-diagonal of A, for a real A that is exactly symmetric tridiagonal and
    a real B that is exactly diagonal, as in a parity block of a gap sweep.
    Any other parts raise ``InvalidParameterError``."""
    a, b = np.asarray(h_static), np.asarray(h_ramp)
    square = a.ndim == 2 and a.shape[0] == a.shape[1] and b.shape == a.shape
    if square and not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        d0, d1, e = np.diag(a), np.diag(b), np.diag(a, 1)
        tridiagonal = np.array_equal(a, np.diag(d0) + np.diag(e, 1) + np.diag(e, -1))
        if tridiagonal and np.array_equal(b, np.diag(d1)):
            return d0, d1, e
    raise InvalidParameterError(
        "level series take a real symmetric tridiagonal A and a real diagonal B"
    )


def _tridiagonal_eigh(
    d0: np.ndarray, d1: np.ndarray, e: np.ndarray, value: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of the tridiagonal
    matrix with diagonal d0 + value d1 and off-diagonal e."""
    w, v, info = dstevd(d0 + value * d1, e)
    if info != 0:
        raise NumericalInstabilityError(f"tridiagonal eigensolve failed (dstevd info = {info})")
    return w, v


def eigen_level_series(
    h_static: np.ndarray,
    h_ramp: np.ndarray,
    values: np.ndarray,
    states: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy-ordered level populations along a trace.

    ``states`` is a (dim, len(values)) block, the state at each value as a
    column (a ``Trajectory.states``); any other shape raises
    ``InvalidParameterError``. Returns (populations[time, level],
    eigenvalues[time, level], degenerate_flags[time, level]). Level identity
    is the energy ordering at each instant; labels are attached by the
    caller at an anchor time. The parts are a parity block's, a real
    tridiagonal A and a diagonal B (see ``_tridiagonal_parts``); each sample
    is one tridiagonal solve.
    """
    d0, d1, e = _tridiagonal_parts(h_static, h_ramp)
    states = np.asarray(states)
    if states.shape != (d0.size, len(values)):
        raise InvalidParameterError(
            f"level series take a ({d0.size}, {len(values)}) block of states, got {states.shape}"
        )
    pops = np.empty((len(values), d0.size))
    vals = np.empty((len(values), d0.size))
    for i, value in enumerate(values):
        vals[i], v = _tridiagonal_eigh(d0, d1, e, value)
        pops[i] = np.abs(v.T @ states[:, i]) ** 2
    scale = np.maximum(np.max(np.abs(vals), axis=1), 1e-300)
    tight = np.diff(vals, axis=1) <= DEGENERACY_WARN_RTOL * scale[:, None]
    flags = np.zeros(vals.shape, dtype=bool)
    flags[:, :-1] |= tight
    flags[:, 1:] |= tight
    return pops, vals, flags
