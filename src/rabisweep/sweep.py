"""Time evolution under linear parameter schedules.

The stepper is a piecewise-constant midpoint exponential: within each step the
Hamiltonian is frozen at the step's midpoint and its exact exponential is
applied, so every step is unitary by construction and the scheme is
second-order in the step size.

At every dimension the exponential action is one Chebyshev expansion of
exp(-i H dt), with spectral bounds from Gershgorin discs shared across a chunk
of steps, which reproduces the exact exponential to machine precision. Its
series exp(-i z x) = sum_k c_k T_k(x), with z = r dt for spectral radius r,
stops at the first order K whose tail bound 2 sum_{k >= K} |J_k(z)| is below
1e-16. Since |T_k| <= 1 on the Gershgorin interval, that bounds each step's
truncation error by 1e-16 times the state's norm; a tail that does not fall
below it raises ``NumericalInstabilityError``. The Bessel values come from
Miller's backward recurrence (``_bessel_j``), within 2e-16 of their exact
values at every z measured up to 300, where scipy's ``jv`` drifts to 6e-15.

Every run has the shape H(t) = A + f(t) B with A and B real symmetric: the
model layer builds every Hamiltonian and ramp as float64, a parity block's
from its photon ladder (``hamiltonian_parts``), and the propagator refuses
complex ones. ``_evolve_linear`` holds the step: one
scaled matrix h2 per chunk, in which each step rewrites the entries where B
is nonzero, and a stack of real orders, each one (2R, dim) array of every
run's real and imaginary parts: 13 numpy calls per step for a block whose
slowest run takes 6 terms. Every buffer handed to BLAS starts on a 64-byte
cache line (``_aligned_zeros``): on an AVX-512 Xeon, one BLAS thread,
multimode_small's dim-192 step took 101.5 µs with h2 16 bytes past a line,
where numpy puts it, and 64.4 µs with it on one (best of 30 calls).

The midpoint values of f do not depend on the sweep's duration, so the runs of
a rate scan, which differ only in their rate, share every step's matrix. A
``RateBlock`` passed to ``run_sweep`` propagates them together, as the rows
of one stack, each with its own step size, coefficients and phase; a run
whose step or stack would pass the propagator's limits fails only its entry.
A single ``SweepSchedule`` is a block of one on the same path: the kernel
writes every run's samples into one (runs, samples, dim) array, and
``run_sweep`` measures them all at once. A sector run is measured in its
parity block, whose coordinate k is photon number k, and is never lifted to
the full space. A table's ramp family setup in ``experiments`` assembles the
sweep's (A, B) once (``hamiltonian_parts``) and solves both of its ends
densely (``operators.eig_hermitian``: ``_lowest_eigenvector``, or a quench's
full far-end solve, which also names its levels).
``run_sweep`` takes those parts, assembles and solves nothing, and assumes
nothing about its initial state: it takes its space from psi0's ``sector``
and returns a ``Trajectory`` per run, the states at its sample steps as the
columns of one read-only array, with its norm drift, parity leakage and
final truncation weight recorded for ``experiments._row_checks``, the one
judge of every limit.

A level series reads a trace out in the instantaneous eigenbasis of a parity
block, where A is real tridiagonal and B diagonal. Each sample is one real
symmetric tridiagonal solve (LAPACK ``dstevd``) of the diagonal d0 + f d1 and
the off-diagonal e of the ladder that forms the block's parts: the
divide-and-conquer solve that a dense ``eigh`` of the same matrix ends in,
without the dense reduction before it. At the far end a quench passes in
the dense solve it already made there (``experiments._quench``), which
names its levels, gives that end's ground state and reads out every state
there, so a rate scan, read out only at that end, makes no tridiagonal solve.

The per-sample solve of a trace is the package's only use of
``scipy.linalg``: numpy has no tridiagonal solve, and its batched ``eigh`` is
about 1.9x slower per sample at dim 64. It imports ``scipy.linalg`` at its
first call, so ``import rabisweep``, the formula-only tables, every rate
scan and every bias sweep never load its ~110 modules and the second
OpenBLAS they bring. Every sweep end is solved by numpy
(``operators.eig_hermitian``): about 0.3 ms at dim 64, a few ms at dim 192;
a run makes none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidParameterError,
    NumericalInstabilityError,
    RabisweepError,
    ResourceLimitError,
)
from .model import (
    BasisLabel,
    MultiModeParams,
    ParitySector,
    QrmParams,
    Readout,
    _as_tuple,
    _capped_dim,
    _require_count,
    _require_finite,
    build_multimode,
    build_qrm,
    delta_ramp,
    epsilon_ramp,
    multimode_displaced_basis,
    parity_block_ladder,
    parity_sector_labels,
    scheme_basis,
    top_fock_occupancy,
)
from .operators import StateVector, eig_hermitian, unitary_displacement

# Hard error threshold on norm drift during a run.
NORM_DRIFT_LIMIT = 1e-6
# Adjacent tracked levels closer than this (times the spectral scale) are
# flagged: their populations are not individually trustworthy there.
DEGENERACY_WARN_RTOL = 1e-8
# Fewest steps a sweep may take: the resolution guard of every fixed-step run.
MIN_N_STEPS = 1000
# Steps per run unless a schedule or an experiment spec sets its own.
DEFAULT_N_STEPS = 20_000

_CHEB_CHUNK = 1024
# Steps whose ramp entries are written into one table by one vectorised op.
_RAMP_ROWS = 64
_CHEB_COEFF_TOL = 1e-16
# Largest Chebyshev argument z = r dt a step may take: the series needs about
# z terms. The presets reach 6,450 (fig1d_long's 4x endpoint audit).
_CHEB_Z_MAX = 1e5
# Largest Chebyshev stack a block may hold: per term, two real rows of dim
# entries per run. fig1d_long's 4x endpoint audit needs 0.67 GB.
_CHEB_STACK_BYTES_MAX = 2**30


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
            steps = _as_tuple("sample_steps", self.sample_steps)
            if not steps:
                raise InvalidParameterError("sample_steps must name at least one step")
            for k in steps:
                _require_count("a sample step", k, 0)
            if list(steps) != sorted(steps) or any(k > self.n_steps for k in steps):
                raise InvalidParameterError("sample_steps must be ordered, within [0, n_steps]")
            object.__setattr__(self, "sample_steps", tuple(int(k) for k in steps))

    @property
    def total_time(self) -> float:
        return abs(self.end_value - self.start_value) / self.rate_v

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
        schedules = _as_tuple("a rate block's schedules", self.schedules)
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
    (dim, samples) array of its own: the normalized state at each of the
    schedule's ``sample_steps`` (its start and end when None) as a
    contiguous column, in the run's coordinates (block coordinates for a
    sector run). The maxima, the final truncation weight and the Chebyshev
    terms are recorded, not judged, as ``run_sweep`` describes; leakage is
    None where parity is not measured. A run reads nothing out: its
    family's ``readout(values, states)`` in ``experiments`` does.
    """

    schedule: SweepSchedule
    states: np.ndarray
    max_norm_deviation: float
    max_parity_leakage: float | None
    top_fock_occupancy: float
    chebyshev_terms: int

    @property
    def final_state(self) -> np.ndarray:
        """The last sampled state."""
        return self.states[:, -1]


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def _bessel_j(z: float, k_max: int) -> np.ndarray:
    """J_0(z), ..., J_{k_max}(z) for z >= 1e-14, by Miller's backward
    recurrence J_{n-1} = (2n/z) J_n - J_{n+1}: started from J_{n+1} = 0,
    J_n = 1 at n = k_max + sqrt(40 max(z, 1)) + 20, rescaled before it can
    overflow, and normalized by J_0 + 2 sum_k J_{2k} = 1. Run downward, J is
    the recurrence's growing solution above n ~ z, so rounding does not
    build up there as it does upward."""
    start = k_max + int(math.sqrt(40.0 * max(z, 1.0))) + 20
    values = [0.0] * (k_max + 1)
    j_above, j_here, norm = 0.0, 1.0, 0.0
    for n in range(start, 0, -1):
        j_above, j_here = j_here, 2.0 * n / z * j_here - j_above
        if n <= k_max + 1:
            values[n - 1] = j_here
        if n % 2:
            norm += j_here if n == 1 else 2.0 * j_here
        if abs(j_here) > 1e250:
            j_above, j_here, norm = j_above * 1e-250, j_here * 1e-250, norm * 1e-250
            values = [v * 1e-250 for v in values]
    return np.array(values) / norm


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """Coefficients c_0 = J_0(z), c_k = 2 (-i)^k J_k(z) of exp(-i z x) =
    sum_k c_k T_k(x) on [-1, 1], for the orders k < K: K is the first order
    whose tail bound 2 sum_{j >= K} |J_j(z)| is below ``_CHEB_COEFF_TOL``, and
    at least 2, since the propagator always forms T_1. The J_k come from
    ``_bessel_j``, or below z = 1e-14 from the series' leading terms
    (z/2)^k / k!, exact there in double precision. Orders past k_max are
    far below J_{k_max}; a tail still above the tolerance at k_max raises
    ``NumericalInstabilityError``, as does a z above ``_CHEB_Z_MAX`` or not
    finite, before any order is sized by it."""
    if not z <= _CHEB_Z_MAX:
        raise NumericalInstabilityError(
            f"Chebyshev argument z = {z:.6g} is above the limit {_CHEB_Z_MAX:g}"
        )
    if z < 1e-14:
        k_max = 4
        bessels = np.array([(0.5 * z) ** k / math.factorial(k) for k in range(k_max + 1)])
    else:
        k_max = int(z + 12.0 * z ** (1.0 / 3.0) + 30.0)
        bessels = _bessel_j(z, k_max)
    k = np.arange(k_max + 1)
    tails = 2.0 * np.cumsum(np.abs(bessels)[::-1])[::-1]
    below = np.flatnonzero(tails < _CHEB_COEFF_TOL)
    if not below.size:
        raise NumericalInstabilityError(
            f"Chebyshev tail of exp(-i z x) at z = {z:.6g} stays at {tails[-1]:.2e} "
            f"through order {k_max} (tolerance {_CHEB_COEFF_TOL:g})"
        )
    cut = max(int(below[0]), 2)
    coeffs = ((-1j) ** k[:cut]) * bessels[:cut]
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


def _chunk_midpoints(f_start: float, f_end: float, n_steps: int):
    """Yield each chunk's step indices and the ramp's values at their midpoints.

    The values f_k = f_start + (f_end - f_start)(k + 1/2)/n_steps do not
    depend on the sweep's duration, so every rate of a scan shares them."""
    for start in range(0, n_steps, _CHEB_CHUNK):
        steps = np.arange(start, min(n_steps, start + _CHEB_CHUNK))
        yield steps, f_start + (f_end - f_start) * ((steps + 0.5) / n_steps)


def _block_refusal(
    h_static: np.ndarray,
    h_ramp: np.ndarray,
    f_start: float,
    f_end: float,
    total_times,
    n_steps: int,
) -> RabisweepError | None:
    """Why a block of runs may not propagate, or None if it may: the one
    limit rule, which ``run_sweep`` applies to every block run by run and
    ``_evolve_linear`` raises, the guard of its direct callers; a block of
    no runs may. A block whose slowest step could take
    z = r dt above ``_CHEB_Z_MAX`` (r from the whole ramp's Gershgorin
    bounds) is refused with ``NumericalInstabilityError`` naming the step
    count that would fit; one whose stack at that z would pass
    ``_CHEB_STACK_BYTES_MAX``, with ``ResourceLimitError`` naming its bytes
    and a step count that fits. No chunk's radius exceeds the whole ramp's,
    so no step's z, nor its number of terms, exceeds the ones checked."""
    dim = h_static.shape[0]
    n_runs = len(total_times)
    lo, hi = _gershgorin_bounds(h_static, h_ramp, np.array([f_start, f_end]))
    z_max = 0.5 * (hi - lo) * (float(np.max(total_times, initial=0.0)) / n_steps)
    if not z_max <= _CHEB_Z_MAX:
        fit = n_steps * (z_max / _CHEB_Z_MAX)
        return NumericalInstabilityError(
            f"a step spans z = r dt = {z_max:.3g} (limit {_CHEB_Z_MAX:g}): "
            + (f"{math.ceil(fit)} steps would fit" if math.isfinite(fit) else "no step count fits")
        )
    # Each order holds every run's real and imaginary parts: 16 bytes an entry.
    order_bytes = 16 * dim * n_runs
    try:
        stack_bytes = len(_chebyshev_coefficients(z_max)) * order_bytes
    except NumericalInstabilityError as exc:
        return exc
    if stack_bytes > _CHEB_STACK_BYTES_MAX:
        # Every z below z_fit takes at most z + 12 z^(1/3) + 30 terms, which fit.
        orders = _CHEB_STACK_BYTES_MAX // order_bytes
        z_fit = orders - 12.0 * orders ** (1.0 / 3.0) - 30.0
        return ResourceLimitError(
            f"the Chebyshev stack of {n_runs} runs at dim {dim} needs {stack_bytes} bytes "
            f"(limit {_CHEB_STACK_BYTES_MAX}): "
            + (f"{math.ceil(n_steps * z_max / z_fit)} steps would fit" if z_fit > 0
               else "no step count fits")
        )
    return None


def _aligned_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed, C-contiguous float64 array of ``shape`` whose data starts on
    a 64-byte cache line: the next line inside an array 8 entries longer.

    numpy's own arrays start 16 bytes past a line (a large one is mapped at
    a page plus 16, a small one is a 16-byte aligned heap chunk), and
    OpenBLAS's small-M ``dgemm`` on an AVX-512 core is about 1.5x slower on
    a matrix that does not start on a line: a (2, 192)·(192, 192) product
    took 9.6 µs against 6.2 on one."""
    size = math.prod(shape)
    raw = np.zeros(size + 8)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + size].reshape(shape)


def _evolve_linear(
    h_static: np.ndarray,
    h_ramp: np.ndarray,
    f_start: float,
    f_end: float,
    total_times,
    n_steps: int,
    psi0: np.ndarray,
    sample_steps: list[int],
) -> tuple[np.ndarray, list[int]]:
    """Midpoint-exponential propagation of H(t) = h_static + f(t) h_ramp for
    a block of R runs that differ only in their total time.

    h_static and h_ramp are real symmetric arrays; a complex one raises
    ``InvalidParameterError``. Every run starts from psi0 and takes
    ``n_steps`` steps through the same midpoint values f_k; run j steps by
    total_times[j] / n_steps. ``sample_steps`` are distinct steps in
    [0, n_steps]. Returns one new complex (R, len(sample_steps), dim) array,
    allocated once the block passes its limits, whose entry [j, i] is run j
    (in the order of ``total_times``) after step sample_steps[i], and each
    run's Chebyshev terms per step: the most any chunk took, 0 only for a
    zero-length sweep. A single run is a block of one.
    A step keeps the orders below the first whose dropped tail
    2 sum_{k >= K} |J_k(r dt)| is under 1e-16 (``_chebyshev_coefficients``),
    so its truncation error is at most 1e-16 times the state's norm. A block
    that ``_block_refusal`` refuses (its slowest step's z or its stack past
    the limits) raises that error before it runs.

    The only code that applies exp(-i H dt), at every dimension. Each chunk
    takes its centre c and radius r from the Gershgorin bounds of H over its
    ramp values, so every run shares them, and gives each run its own
    coefficients. The chunk's real scaled matrix h2 = 2(h_static - c)/r sits
    in one buffer, built once per chunk and shared by every run, and each
    step rewrites only the entries where h_ramp is nonzero. The recurrence
    T_{n+1} = h2 T_n - T_{n-1} fills a stack of real (2R, dim) orders: row
    2j holds the real part of run j's T_n and row 2j + 1 its imaginary part.
    h2 is symmetric, so an order is one product of its rows with h2 and one
    subtraction. Runs are ordered slowest first, so the runs that still
    need order n form its leading rows, and both act on that contiguous
    leading slice. The ramp entries a + f_k b of ``_RAMP_ROWS`` steps at a
    time fill one fixed table by one vectorised operation, and a step
    writes its row into h2 with one indexed assignment. Every run's sum is
    one batched real product: run j's phased coefficients w (times
    exp(-i c dt_j)), zero-padded to the chunk's most orders n_max, as the
    weights [[Re w, Im w], [-Im w, Re w]] of its real row and its imaginary
    row of every order below n_max. Its rows past its own orders are zeros
    or values of its own recurrence from an earlier chunk, finite either
    way, so their zero weights add exactly 0 and no run reads another's
    rows. One addition of the real rows' two partial sums to the imaginary
    rows' forms every run's new state, written straight back into the
    stack's first order: a step makes 5 + 2(n_max - 2) numpy calls, 13 for
    a block whose slowest run takes 6 terms. Buffers grow only when a chunk
    needs more orders than any before it, so a step allocates nothing of
    the problem's size; a sampled step copies the stack's first order into
    its slot of the returned array. h2, the stack (also as it grows) and
    the partial sums come from ``_aligned_zeros``, so each starts on a
    64-byte line and the step's speed does not depend on where the
    allocator put them (see the module docstring); rows whose length is not
    a multiple of 8 entries still alternate in alignment within a buffer.
    """
    if np.iscomplexobj(h_static) or np.iscomplexobj(h_ramp):
        raise InvalidParameterError("the propagator takes real symmetric h_static and h_ramp")
    dim = h_static.shape[0]
    total_times = np.asarray(total_times, dtype=float).reshape(-1)
    n_runs = total_times.size
    psi0 = np.asarray(psi0, dtype=complex)
    refusal = _block_refusal(h_static, h_ramp, f_start, f_end, total_times, n_steps)
    if refusal is not None:
        raise refusal
    # Every sample starts as psi0: the state at step 0, and at every step of
    # a zero-length sweep.
    sampled = np.tile(psi0, (n_runs, len(sample_steps), 1))
    if not total_times.any():
        return sampled, [0] * n_runs
    slot = {k: i for i, k in enumerate(sample_steps)}
    # Slowest run first: the runs with terms left at any order lead the block.
    order = np.argsort(-total_times, kind="stable")
    restore = np.argsort(order)
    dts = total_times[order] / n_steps
    # stack[n] holds T_n, run j in rows 2j (real) and 2j + 1 (imaginary);
    # stack[0] is the current state.
    stack = _aligned_zeros((1, 2 * n_runs, dim))
    stack[0, 0::2] = psi0.real
    stack[0, 1::2] = psi0.imag
    sampled_re, sampled_im = sampled.real, sampled.imag
    # Flat indices of the ramp's nonzero entries: the diagonal for a sector
    # gap sweep or a bias sweep, sigma_x (x) I for a full-space gap sweep.
    ramp_idx = np.flatnonzero(h_ramp)
    ramp_vals = h_ramp.reshape(-1)[ramp_idx]
    h2 = _aligned_zeros((dim, dim))
    h2_flat = h2.reshape(-1)
    a_idx = np.empty(ramp_idx.size)
    b_idx = np.empty(ramp_idx.size)
    # table[i]: the scaled entries a + f b of step i of a sub-block of
    # _RAMP_ROWS steps; a whole chunk's table would hold 16 times as many.
    table = np.empty((_RAMP_ROWS, ramp_idx.size))
    # parts[j, p, q]: run j's sum over its orders of weights[j, p, q] times
    # part p (0 real, 1 imaginary) of T_n; its new state's part q is
    # parts[j, 0, q] + parts[j, 1, q].
    parts = _aligned_zeros((n_runs, 2, 2, dim))
    terms = [0] * n_runs
    for steps, f_mid in _chunk_midpoints(f_start, f_end, n_steps):
        lo, hi = _gershgorin_bounds(h_static, h_ramp, f_mid)
        center = 0.5 * (hi + lo)
        radius = 0.5 * (hi - lo) + 1e-300
        coeffs = [_chebyshev_coefficients(radius * dt) for dt in dts]
        lengths = [len(c) for c in coeffs]
        terms = [max(t, n) for t, n in zip(terms, lengths)]
        n_max = max(lengths)
        if n_max > stack.shape[0]:
            grown = _aligned_zeros((n_max, 2 * n_runs, dim))
            grown[0] = stack[0]
            stack = grown
        t_0, t_1 = stack[0], stack[1]
        new_state = t_0.reshape(n_runs, 2, dim)
        # Order n >= 2: the rows of the leading runs that still need it.
        orders = []
        for n in range(2, n_max):
            rows = 2 * (1 + max(j for j, length in enumerate(lengths) if length > n))
            orders.append((stack[n - 1, :rows], stack[n, :rows], stack[n - 2, :rows]))
        # Run j's phased coefficients w, zero past its own orders, as the
        # weights [[Re w, Im w], [-Im w, Re w]] of its real and imaginary
        # rows of every order below n_max: one batched product forms every
        # run's partial sums.
        weights = np.zeros((n_runs, 2, 2, n_max))
        for j, (phase, c) in enumerate(zip(np.exp(-1j * center * dts), coeffs)):
            w = phase * c
            weights[j, 0, 0, : len(c)] = weights[j, 1, 1, : len(c)] = w.real
            weights[j, 0, 1, : len(c)] = w.imag
            weights[j, 1, 0, : len(c)] = -w.imag
        run_rows = stack[:n_max].reshape(n_max, n_runs, 2, dim).transpose(1, 2, 0, 3)
        np.copyto(h2, h_static)
        h2_flat[:: dim + 1] -= center
        h2 *= 2.0 / radius
        np.take(h2_flat, ramp_idx, out=a_idx)
        np.multiply(ramp_vals, 2.0 / radius, out=b_idx)
        for first in range(0, steps.size, _RAMP_ROWS):
            f_sub = f_mid[first : first + _RAMP_ROWS]
            entries = table[: f_sub.size]
            np.multiply.outer(f_sub, b_idx, out=entries)
            entries += a_idx
            for k, row in zip(steps[first : first + _RAMP_ROWS].tolist(), entries):
                h2_flat[ramp_idx] = row
                # T_0 = psi, T_1 = h2 psi / 2, T_{n+1} = h2 T_n - T_{n-1}.
                np.dot(t_0, h2, out=t_1)
                t_1 *= 0.5
                for t_in, t_out, t_back in orders:
                    np.dot(t_in, h2, out=t_out)
                    t_out -= t_back
                np.matmul(weights, run_rows, out=parts)
                np.add(parts[:, 0], parts[:, 1], out=new_state)
                if k + 1 in slot:
                    # Stack row j is input run order[j].
                    sampled_re[order, slot[k + 1]] = t_0[0::2]
                    sampled_im[order, slot[k + 1]] = t_0[1::2]
    return sampled, [terms[j] for j in restore]


# ---------------------------------------------------------------------------
# Model plumbing
# ---------------------------------------------------------------------------

def _conserves_parity(p: QrmParams | MultiModeParams, parameter: str) -> bool:
    """Whether a ``parameter`` sweep of ``p`` conserves the parity
    sx (x) (-1)^n: a single-mode gap sweep at zero bias."""
    return isinstance(p, QrmParams) and parameter == "delta" and p.epsilon == 0.0


def _weight_outside(p: QrmParams, states: np.ndarray, sign: int) -> np.ndarray:
    """Weight of full-space states (along the last axis) outside the parity
    sector of ``sign``: sum_n |psi_up,n - sign (-1)^n psi_down,n|^2 / 2, the
    weight on the other sector's columns of ``parity_sector_basis``."""
    signs = sign * (1.0 - 2.0 * (np.arange(p.n_fock) % 2))
    up, down = states[..., : p.n_fock], states[..., p.n_fock :]
    return 0.5 * np.sum(np.abs(up - signs * down) ** 2, axis=-1)


def hamiltonian_parts(
    p: QrmParams | MultiModeParams, parameter: str, sector: ParitySector | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of H = A + f B, f the swept "delta" or "epsilon" (any other is
    refused): the real symmetric float64 parts a table assembles once and
    hands every ``run_sweep``. With ``sector`` (single-mode, bias-free gap
    sweeps only) they come from that parity block's ladder
    (``model.parity_block_ladder``) with no full-space array; a bias sweep's
    A is the zero-bias ``build_multimode`` of the model's modes, one or more."""
    if parameter not in ("delta", "epsilon"):
        raise InvalidParameterError(f"unknown sweep parameter {parameter!r}")
    if sector is not None:
        if not _conserves_parity(p, parameter):
            raise InvalidParameterError(
                "sector-restricted runs require a single-mode, bias-free gap sweep"
            )
        d0, d1, e = parity_block_ladder(p, sector)
        return np.diag(d0) + np.diag(e, 1) + np.diag(e, -1), np.diag(d1)
    if parameter == "epsilon":
        _capped_dim(p)  # a refusal names the model's kind
        return build_multimode(MultiModeParams(p.delta, p.modes)), epsilon_ramp(p)
    if isinstance(p, MultiModeParams):
        raise InvalidParameterError("multimode sweeps support the bias parameter only")
    return build_qrm(replace(p, delta=0.0)), delta_ramp(p)


def _lowest_eigenvector(h_static: np.ndarray, h_ramp: np.ndarray, value: float) -> np.ndarray:
    """Lowest eigenvector of A + value B: the first column of the package's
    dense eigensolve, ``operators.eig_hermitian`` (numpy's ``eigh``)."""
    return eig_hermitian(h_static + value * h_ramp)[1][:, 0]


def ground_state(
    p: QrmParams | MultiModeParams,
    parameter: str,
    value: float,
    sector: ParitySector | None = None,
) -> StateVector:
    """Ground state of A + value B, the Hamiltonian of a ``parameter`` sweep
    frozen at ``value``: a full-space state, or with ``sector`` (single-mode,
    bias-free gap sweeps only) that parity block's ground state in block
    coordinates, whose ``sector`` it carries."""
    h_static, h_ramp = hamiltonian_parts(p, parameter, sector)
    return StateVector(_lowest_eigenvector(h_static, h_ramp, value), sector)


def readout_columns(
    p: QrmParams | MultiModeParams, scheme: str, sector: ParitySector | None = None
) -> tuple[np.ndarray, list[BasisLabel]]:
    """Orthonormal columns of one complete readout scheme, with their labels.

    Without ``sector`` the columns span the full space (multimode models have
    the displaced scheme only). With ``sector`` (single-mode, parity-definite
    schemes) they are that sector's states in its block coordinates, the
    coordinates of a sector run's states, built with no full-space array: in
    either sector the normal columns are the identity and the superradiant
    ones D(-g/omega), the labels alternating (``parity_sector_labels``).
    """
    if isinstance(p, MultiModeParams):
        if scheme != "displaced" or sector is not None:
            raise InvalidParameterError(
                "multimode readout supports the full-space displaced scheme only"
            )
        return multimode_displaced_basis(p)
    if sector is None:
        return scheme_basis(p, scheme)
    labels = parity_sector_labels(sector, _capped_dim(p) // 2, scheme)
    if scheme == "normal":
        return np.eye(p.n_fock, dtype=complex), labels
    return unitary_displacement(-p.g_over_omega, p.n_fock), labels


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
    parts: tuple[np.ndarray, np.ndarray],
    schedule: SweepSchedule | RateBlock,
    psi0: StateVector,
) -> Trajectory | list[Trajectory | RabisweepError]:
    """Propagate psi0 under H = A + f B, ``parts`` = (A, B) with f ramped by
    ``schedule``, and return the normalized state at every step of
    ``schedule.sample_steps``, or at the start and the end when it is None.

    The run assembles nothing: its table builds the parts once, with
    ``hamiltonian_parts(p, parameter, psi0.sector)``, and ``p`` serves only
    the measurements (its Fock layout, and whether its sweep conserves parity).
    The run's space is psi0's ``sector``: None runs in the full space, a
    parity sector (bias-free single-mode gap sweeps only) inside that parity
    block, in block coordinates (photon numbers). Parts or a state that do
    not fit it raise ``InvalidParameterError`` before any step. The run
    reads nothing out.

    Every sample and the end of the sweep, sampled or not, are measured,
    every run's norms in one batched product. A norm drift past
    NORM_DRIFT_LIMIT raises ``NumericalInstabilityError`` at the first such
    sample; below it the largest drift and parity leakage are
    recorded for ``experiments._row_checks`` to judge. The end state's
    top-tenth Fock weight (``model.top_fock_occupancy``, in the run's
    coordinates) is recorded as ``top_fock_occupancy``. The run makes no
    eigensolve and assumes nothing about psi0: the weights of the sweep's
    ends are its table's (see ``experiments._row_checks``).
    ``chebyshev_terms`` records the Chebyshev terms per step (the most any
    chunk took; 0 only for a zero-length sweep). ``max_parity_leakage`` is
    the largest weight outside psi0's parity, weighed from each state's two
    qubit halves (``_weight_outside``), on full-space runs of a sweep that
    conserves it (``_conserves_parity``) from a state of one parity; it is
    None where leakage is not measured: sector runs, bias sweeps, and
    full-space gap sweeps from a state of no definite parity.

    A ``RateBlock`` runs its schedules in one propagation, as the rows of
    one stack (see ``_evolve_linear``), and returns one ``Trajectory`` or
    ``RabisweepError`` per schedule, in order: a bad argument raises for the
    whole block, and a run's norm drift fails only that run's entry. So does
    a step or stack past the propagator's limits (``_block_refusal``): the
    block gives up its slowest runs one at a time until the rest fit, and
    each of those entries is the error that refused it. A single schedule
    is a block of one on the same path: its entry is returned, or raised
    when it is an error.
    """
    schedules = schedule.schedules if isinstance(schedule, RateBlock) else (schedule,)
    first = schedules[0]
    h_static, h_ramp = parts
    # A parity block's coordinate k is photon number k; multimode has none.
    space = p.dim if psi0.sector is None else (p.n_fock if isinstance(p, QrmParams) else 0)
    if not (space, space) == (psi0.dim, psi0.dim) == np.shape(h_static) == np.shape(h_ramp):
        raise InvalidParameterError(
            f"initial state dimension {psi0.dim} and parts of shape {np.shape(h_static)} "
            f"do not fit the model's {'full space' if psi0.sector is None else 'block'} ({space})"
        )
    # A full-space run of a parity-conserving sweep from a state of one
    # parity measures the weight it leaks out of that parity.
    leak_sign = None
    if psi0.sector is None and _conserves_parity(p, first.parameter):
        leak_sign = next(
            (sign for sign in (+1, -1) if _weight_outside(p, psi0.amplitudes, sign) < 1e-12),
            None,
        )

    n_steps = first.n_steps
    steps = [0, n_steps] if first.sample_steps is None else list(first.sample_steps)
    # Every distinct sampled step and the end, in time order: the end state
    # is always propagated, so the conservation checks and the final
    # truncation weight see it even when no sample asks for it.
    checked = sorted(set(steps) | {n_steps})
    columns = np.searchsorted(checked, steps)
    # A block gives up its slowest runs, one at a time, until the rest fit
    # the propagator's limits; each refused entry holds the error that
    # refused it.
    times = [s.total_time for s in schedules]
    results: list[Trajectory | RabisweepError | None] = [None] * len(schedules)
    live = list(range(len(schedules)))
    while live:
        error = _block_refusal(
            h_static, h_ramp, first.start_value, first.end_value,
            [times[j] for j in live], n_steps,
        )
        if error is None:
            break
        slowest = max(live, key=times.__getitem__)
        results[slowest] = error
        live.remove(slowest)
    sampled, chebyshev_terms = _evolve_linear(
        h_static, h_ramp, first.start_value, first.end_value,
        [times[j] for j in live], n_steps, psi0.amplitudes, checked,
    )
    # Every sample's norm at once, summed as np.linalg.norm sums one
    # vector's, Re.Re + Im.Im, each a (1, dim).(dim, 1) product (a BLAS dot)
    # of that sample's own row: so a norm does not depend on the samples or
    # runs beside it.
    re, im = sampled.real[:, :, None, :], sampled.imag[:, :, None, :]
    norms = np.sqrt((re @ re.swapaxes(2, 3) + im @ im.swapaxes(2, 3))[:, :, 0, 0])
    deviations = norms - 1.0
    leakage = None if leak_sign is None else _weight_outside(p, sampled, leak_sign)
    for i, j in enumerate(live):
        # "Not within" the limit: a NaN norm fails the run too.
        drifted = np.flatnonzero(~(np.abs(deviations[i]) <= NORM_DRIFT_LIMIT))
        if drifted.size:
            k = drifted[0]
            results[j] = NumericalInstabilityError(
                f"norm drifted by {deviations[i, k]:.2e} "
                f"at t = {checked[k] * (times[j] / n_steps):.6g}"
            )
            continue
        states = sampled[i, columns].T / norms[i, columns]
        states.flags.writeable = False
        results[j] = Trajectory(
            schedule=schedules[j],
            states=states,
            max_norm_deviation=float(np.max(np.abs(deviations[i]))),
            max_parity_leakage=None if leakage is None else float(np.max(leakage[i])),
            top_fock_occupancy=top_fock_occupancy(p, sampled[i, -1]),
            chebyshev_terms=chebyshev_terms[i],
        )
    if isinstance(schedule, RateBlock):
        return results
    if isinstance(results[0], RabisweepError):
        raise results[0]
    return results[0]


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


def _tridiagonal_eigh(
    d0: np.ndarray, d1: np.ndarray, e: np.ndarray, value: float
) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of the tridiagonal
    matrix with diagonal d0 + value d1 and off-diagonal e, by LAPACK's
    ``dstevd`` (imported at the first call; see the module docstring): the
    solve of a level series at every value that ``solved`` does not hold."""
    from scipy.linalg.lapack import dstevd

    w, v, info = dstevd(d0 + value * d1, e)
    if info != 0:
        raise NumericalInstabilityError(f"tridiagonal eigensolve failed (dstevd info = {info})")
    return w, v


def eigen_level_series(
    ladder: tuple[np.ndarray, np.ndarray, np.ndarray],
    values: np.ndarray,
    states: np.ndarray,
    solved: dict[float, tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Energy-ordered level populations along a trace.

    ``ladder`` is a parity block's (d0, d1, e) (``model.parity_block_ladder``),
    diagonal d0 + f d1 and off-diagonal e at value f: real 1-D arrays, d0 and
    d1 of one length n >= 1, e of n - 1. ``states`` is a (n, len(values))
    block, the state at each value as a column (a ``Trajectory.states``).
    Anything else raises ``InvalidParameterError`` before any solve. Returns
    (populations, eigenvalues, degenerate_flags), each [time, level]. Level
    identity is the energy ordering at each instant; the caller names the
    levels once (``experiments._quench``, at the far end). Each distinct
    value is one tridiagonal solve (``_tridiagonal_eigh``), or the
    (eigenvalues, eigenvector columns) that ``solved`` holds for it: a
    quench's dense far-end solve, so a series read only there solves nothing.
    """
    ladder = tuple(np.asarray(part) for part in _as_tuple("a ladder", ladder))
    n = ladder[0].size if ladder else 0
    shapes = [part.shape for part in ladder]
    if not (n and shapes == [(n,), (n,), (n - 1,)] and all(x.dtype.kind in "fiu" for x in ladder)):
        raise InvalidParameterError(
            "level series take a ladder (d0, d1, e) of real 1-D arrays, d0 and d1 of one "
            f"length n >= 1 and e of n - 1; got shapes {shapes}"
        )
    states = np.asarray(states)
    if states.shape != (n, len(values)):
        raise InvalidParameterError(
            f"level series take a ({n}, {len(values)}) block of states, got {states.shape}"
        )
    pops = np.empty((len(values), n))
    vals = np.empty((len(values), n))
    # In value order, one solve per distinct value: a rate scan reads every
    # state at one.
    values = np.asarray(values, dtype=float)
    last = None
    for i in np.argsort(values, kind="stable").tolist():
        if values[i] != last:
            last = values[i]
            w, v = solved.get(last) or _tridiagonal_eigh(*ladder, last)
        vals[i] = w
        pops[i] = np.abs(v.T @ states[:, i]) ** 2
    scale = np.maximum(np.max(np.abs(vals), axis=1), 1e-300)
    tight = np.diff(vals, axis=1) <= DEGENERACY_WARN_RTOL * scale[:, None]
    flags = np.zeros(vals.shape, dtype=bool)
    flags[:, :-1] |= tight
    flags[:, 1:] |= tight
    return pops, vals, flags
