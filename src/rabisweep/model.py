"""Physics layer: Rabi Hamiltonian, parity structure, readout bases, and the
readout value.

Every readout, simulated or closed-form, is one ``Readout``: a tuple of basis
labels shared by the rows of a table, and the probabilities (and, for level
traces, the degeneracy flags) as read-only arrays, checked once on entry.
``ProbabilityRecord`` is the view of one entry, built only when a readout is
iterated or indexed.

A single mode is the one-mode case of the multimode model: ``QrmParams.modes``
holds its one ``Mode``, ``build_multimode`` assembles every Hamiltonian's
qubit, oscillator and coupling terms (``build_qrm`` adds only the static
bias), the displaced bases and the Fock-ladder weights read ``p.modes``, and
one DIM_CAP bounds every dimension. Parity sectors are single-mode only; a
parity block is its photon ladder (``parity_block_ladder``).

Conventions (fixed once, asserted in tests):
  * sigma_z |up> = +|up>, sigma_z |down> = -|down>; |right/left> = (|up> +/- |down>)/sqrt(2).
  * Tensor ordering is qubit (x) oscillator; for several modes, qubit (x) mode1 (x) mode2 ...
  * H = -(delta/2) sx - (epsilon/2) sz + omega n + g sz (a + a^dag), hbar = 1.
  * The parity operator is sx (x) (-1)^n, signed so that its +1 sector is the
    one containing |right,0>, |left,1>, |right,2>, ...
  * Displaced-basis states pair |up> with D(-g/omega)|n> and |down> with
    D(+g/omega)|n>, so the qubit-conditioned excitation counters
    (a^dag +/- g/omega)(a +/- g/omega) read n on them.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientTruncationError,
    InvalidParameterError,
    ResourceLimitError,
)
# Re-exported: the parity sectors live with StateVector, which names its space by one.
from .operators import (
    EVEN_SECTOR,
    IDENTITY_2,
    ODD_SECTOR,
    SIGMA_X,
    SIGMA_Z,
    ParitySector,
    StateVector,
    annihilation,
    kron,
    unitary_displacement,
)

# Truncation-tail weight allowed for a displaced Fock level.
STATE_TAIL_TOL = 1e-8
# Weight allowed in the top tenth of a Fock ladder, for the initial and final
# states of a sweep and for the ground state at its far end.
TOP_OCCUPANCY_TOL = 1e-6
# Cap on the full Hilbert-space dimension of a problem, single-mode (2 n_fock;
# the presets reach 1,792, fig1d_long's) or multimode.
DIM_CAP = 4096

QUBIT_LABELS = {
    "bare": ("up", "down"),
    "normal": ("right", "left"),
    "superradiant": ("+", "-"),
    "displaced": ("up", "down"),
}


def _require_finite(**values: float) -> None:
    """Refuse a value that is not a finite real number."""
    for name, value in values.items():
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    """Refuse a value that is not a positive, finite real number."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")


def _finite_derived(name: str, value: float) -> float:
    """``value``, derived from the model's parameters; one that is not
    finite (a parameter too large for it) is refused."""
    if not math.isfinite(value):
        raise InvalidParameterError(f"the {name} of these parameters is {value!r}, not finite")
    return value


def _as_tuple(name: str, values) -> tuple:
    """``values`` as a tuple; a value that is not iterable is refused."""
    try:
        return tuple(values)
    except TypeError:
        raise InvalidParameterError(f"{name} must be a sequence, got {values!r}") from None


def _require_count(name: str, value: int, minimum: int) -> None:
    """Refuse a count that is not an integer of at least ``minimum``."""
    if not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class QrmParams:
    """Single-mode qubit-oscillator parameters (angular-frequency units)."""

    delta: float
    epsilon: float
    omega: float
    g: float
    n_fock: int

    def __post_init__(self) -> None:
        _require_finite(delta=self.delta, epsilon=self.epsilon, omega=self.omega, g=self.g)
        if self.omega <= 0:
            raise InvalidParameterError(f"omega must be positive, got {self.omega}")
        _require_count("n_fock", self.n_fock, 2)

    @property
    def g_over_omega(self) -> float:
        return self.g / self.omega

    @property
    def delta_over_omega(self) -> float:
        return self.delta / self.omega

    @property
    def dim(self) -> int:
        return 2 * self.n_fock

    @property
    def modes(self) -> tuple[Mode]:
        """The model's one mode, as a multimode model holds its modes."""
        return (Mode(self.omega, self.g, self.n_fock),)


@dataclass(frozen=True)
class Mode:
    """One oscillator mode of a multimode model."""

    omega: float
    g: float
    n_fock: int

    def __post_init__(self) -> None:
        _require_finite(omega=self.omega, g=self.g)
        if self.omega <= 0:
            raise InvalidParameterError(f"mode omega must be positive, got {self.omega}")
        _require_count("mode n_fock", self.n_fock, 2)


@dataclass(frozen=True)
class MultiModeParams:
    """Qubit coupled to several oscillator modes."""

    delta: float
    modes: tuple[Mode, ...]

    def __post_init__(self) -> None:
        _require_finite(delta=self.delta)
        modes = _as_tuple("modes", self.modes)
        if not all(isinstance(m, Mode) for m in modes):
            raise InvalidParameterError(f"modes must be Mode entries, got {self.modes!r}")
        if not modes:
            raise InvalidParameterError("at least one mode is required")
        object.__setattr__(self, "modes", modes)

    @property
    def dim(self) -> int:
        d = 2
        for m in self.modes:
            d *= m.n_fock
        return d

    @property
    def osc_dim(self) -> int:
        return self.dim // 2


@dataclass(frozen=True)
class BasisLabel:
    """A (scheme, qubit, photons) label for one basis state."""

    scheme: str
    qubit: str
    photons: int | tuple[int, ...]

    def __post_init__(self) -> None:
        if self.scheme not in QUBIT_LABELS:
            raise InvalidParameterError(f"unknown labelling scheme {self.scheme!r}")
        if self.qubit not in QUBIT_LABELS[self.scheme]:
            raise InvalidParameterError(
                f"qubit label {self.qubit!r} not valid for scheme {self.scheme!r}"
            )
        ns = self.photons if isinstance(self.photons, tuple) else (self.photons,)
        if any((not isinstance(n, numbers.Integral)) or n < 0 for n in ns):
            raise InvalidParameterError(f"photon numbers must be >= 0, got {self.photons}")
        # Stored as int, whatever integral type they came as.
        ns = tuple(int(n) for n in ns)
        object.__setattr__(self, "photons", ns if isinstance(self.photons, tuple) else ns[0])

    def __str__(self) -> str:
        n = ";".join(str(k) for k in self.photons) if isinstance(self.photons, tuple) else self.photons
        return f"({self.qubit},{n})"


# A readout probability may stray this far outside [0, 1] by rounding.
_PROBABILITY_SLACK = 1e-9


def _probability_error(value: float) -> InvalidParameterError:
    return InvalidParameterError(f"probability {value!r} outside [0, 1]")


@dataclass(frozen=True)
class ProbabilityRecord:
    """One (basis label, probability) readout entry."""

    label: BasisLabel
    probability: float
    degenerate_tracking: bool = False

    def __post_init__(self) -> None:
        if not (-_PROBABILITY_SLACK <= self.probability <= 1.0 + _PROBABILITY_SLACK):
            raise _probability_error(self.probability)


def _readout_arrays(labels, probabilities, degenerate, ndim: int):
    """(labels tuple, probabilities, flags) as read-only copies, with one
    entry per label along the last axis and ``ProbabilityRecord``'s range
    rule checked over the whole array (NaN refused); the error names the
    first offending value in row-major order. Each array is a view of a
    read-only array, so its ``writeable`` flag cannot be set again."""
    labels = tuple(labels)
    arrays = []
    for values, dtype in ((probabilities, float), (degenerate, bool)):
        array = None
        if values is not None:
            array = np.array(values, dtype=dtype, order="C")
            array.flags.writeable = False
            array = array.view()
        arrays.append(array)
    probs, flags = arrays
    if probs.ndim != ndim or probs.shape[-1] != len(labels) or (
        flags is not None and flags.shape != probs.shape
    ):
        raise InvalidParameterError(
            f"a readout needs one probability (and flag) per label: {len(labels)} labels, "
            f"probabilities {probs.shape}, flags {None if flags is None else flags.shape}"
        )
    ok = (probs >= -_PROBABILITY_SLACK) & (probs <= 1.0 + _PROBABILITY_SLACK)
    if not ok.all():
        raise _probability_error(float(probs.flat[np.argmin(ok.ravel())]))
    return labels, probs, flags


class Readout(Sequence):
    """One readout: a probability for each basis label, held as arrays.

    ``labels`` is a tuple of ``BasisLabel``; the rows of one table share it
    by identity. ``probabilities`` is a read-only float64 array with one entry
    per label, and ``degenerate``, when given, a read-only bool array of the
    same length that flags entries whose level tracking approached a
    degeneracy. Every probability is checked once, by the rule of
    ``ProbabilityRecord`` (NaN refused). As a sequence a readout yields
    ``ProbabilityRecord``s, built on demand and not stored.
    """

    __slots__ = ("labels", "probabilities", "degenerate")

    def __init__(self, labels, probabilities, degenerate=None) -> None:
        self._set(*_readout_arrays(labels, probabilities, degenerate, 1))

    def _set(self, labels, probs, flags) -> None:
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "degenerate", flags)

    @classmethod
    def _trusted(cls, labels, probs, flags) -> Readout:
        out = cls.__new__(cls)
        out._set(labels, probs, flags)
        return out

    @classmethod
    def rows(cls, labels, probabilities, degenerate=None) -> list[Readout]:
        """One readout per row of a (rows, labels) probability array (and
        flag array), all sharing one ``labels`` tuple; checked once."""
        labels, probs, flags = _readout_arrays(labels, probabilities, degenerate, 2)
        flag_rows = itertools.repeat(None) if flags is None else flags
        return [cls._trusted(labels, row, fl) for row, fl in zip(probs, flag_rows)]

    def __setattr__(self, name, value) -> None:
        raise AttributeError("a Readout is immutable")

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            flags = None if self.degenerate is None else self.degenerate[index]
            return Readout._trusted(self.labels[index], self.probabilities[index], flags)
        flag = False if self.degenerate is None else bool(self.degenerate[index])
        return ProbabilityRecord(self.labels[index], float(self.probabilities[index]), flag)

    def __iter__(self):
        flags = self._flags().tolist()
        for label, p, flag in zip(self.labels, self.probabilities.tolist(), flags):
            yield ProbabilityRecord(label, p, flag)

    def _flags(self) -> np.ndarray:
        if self.degenerate is None:
            return np.zeros(len(self), dtype=bool)
        return self.degenerate

    def __eq__(self, other) -> bool:
        if not isinstance(other, Readout):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.probabilities, other.probabilities)
            and np.array_equal(self._flags(), other._flags())
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Readout({list(self)!r})"


# ---------------------------------------------------------------------------
# Truncation adequacy. A displaced Fock level fits a truncation when its weight
# outside it is at most STATE_TAIL_TOL. A sweep's truncation is adequate when
# its final state, and the ground states at both ends of its ramp, hold at
# most TOP_OCCUPANCY_TOL (or a row's own limit) in the top tenth of every
# Fock ladder. A run records its final state's weight; a table's setup
# (``experiments._quench``, ``experiments._bias``) solves both ends once, and
# ``experiments._row_checks`` judges every row against both.
# ---------------------------------------------------------------------------

def default_n_fock(g: float, omega: float) -> int:
    """Default Fock truncation for coupling ratio g/omega.

    It represents the low displaced levels only, by the rule of
    ``displaced_level_fits``: n <= 26 at g/omega = 0.1, n <= 14 at 1 (32
    levels) and n <= 16 at 2 (50 levels). The floor over g/omega in [0, 5]
    is n <= 10, at g/omega = 1.4-1.5. Higher displaced levels need a larger
    n_fock. A g/omega that is not finite, or so large that the count is not,
    is refused.
    """
    _require_finite(g=g)
    _require_positive("omega", omega)
    ratio = g / omega
    return max(32, int(math.ceil(_finite_derived("default n_fock", 10.0 * (ratio * ratio + 1.0)))))


def displaced_fock_tail(alpha: complex, n: int, n_fock: int) -> float:
    """Weight of D(alpha)|n> outside the first n_fock Fock levels."""
    _require_finite(alpha=abs(complex(alpha)))
    # The unitary column converges at this padded dimension, so its first
    # n_fock entries are the untruncated operator's.
    dim = max(n_fock, n + 2)
    pad_dim = int(np.ceil((np.sqrt(dim) + abs(alpha)) ** 2)) + 16
    col = unitary_displacement(alpha, pad_dim)[:n_fock, n]
    return max(0.0, 1.0 - float(np.sum(np.abs(col) ** 2)))


def displaced_level_fits(alpha: float, n: int, n_fock: int) -> bool:
    """Whether D(alpha)|n> is representable in n_fock Fock levels.

    The one rule for displaced levels: its weight outside the truncation is at
    most STATE_TAIL_TOL. ``displaced_state`` and ``superradiant_state`` refuse
    any level it rejects.
    """
    return displaced_fock_tail(alpha, n, n_fock) <= STATE_TAIL_TOL


def _require_displaced_level(alpha: float, n: int, n_fock: int) -> None:
    if not displaced_level_fits(alpha, n, n_fock):
        raise InsufficientTruncationError(
            f"displaced Fock state |{n}> at alpha={alpha:+.3f} leaves weight "
            f"{displaced_fock_tail(alpha, n, n_fock):.2e} outside {n_fock} levels "
            f"(limit {STATE_TAIL_TOL:.0e})"
        )


def top_fock_occupancy(p: QrmParams | MultiModeParams, amplitudes: np.ndarray) -> float:
    """Largest per-mode weight in the top tenth of any Fock ladder of a
    full-space state or, for a single mode, of a parity block's state as it
    is: block coordinate k is photon number k (see ``parity_block_ladder``).
    Any other shape raises ``InvalidParameterError``."""
    sizes = tuple(m.n_fock for m in p.modes)
    block = len(sizes) == 1 and np.shape(amplitudes) == sizes
    if not block and np.shape(amplitudes) != (p.dim,):
        raise InvalidParameterError(
            f"a state of shape {np.shape(amplitudes)} is neither a parity block's "
            "nor the full space's"
        )
    probs = np.abs(np.reshape(amplitudes, (1 if block else 2, *sizes))) ** 2
    worst = 0.0
    for j, size in enumerate(sizes):
        top = max(1, size // 10)
        axis_probs = np.moveaxis(probs, 1 + j, -1).reshape(-1, size).sum(axis=0)
        worst = max(worst, float(axis_probs[size - top :].sum()))
    return worst


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def _capped_dim(p: QrmParams | MultiModeParams) -> int:
    """``p.dim``, refused with ``ResourceLimitError`` past DIM_CAP before any
    dense array of it is allocated."""
    if p.dim > DIM_CAP:
        kind = "single-mode" if isinstance(p, QrmParams) else "multimode"
        raise ResourceLimitError(f"{kind} dimension {p.dim} exceeds the cap {DIM_CAP}")
    return p.dim


def build_qrm(p: QrmParams) -> np.ndarray:
    """Full Rabi Hamiltonian at the parameters in p: the one-mode
    ``build_multimode`` plus the static bias epsilon times ``epsilon_ramp``."""
    _capped_dim(p)
    h = build_multimode(MultiModeParams(p.delta, p.modes))
    h += p.epsilon * epsilon_ramp(p)
    return h


def delta_ramp(p: QrmParams | MultiModeParams) -> np.ndarray:
    """dH/d(delta): the qubit-gap ramp generator."""
    return -0.5 * kron(SIGMA_X, np.eye(_capped_dim(p) // 2))


def epsilon_ramp(p: QrmParams | MultiModeParams) -> np.ndarray:
    """dH/d(epsilon): the qubit-bias ramp generator."""
    return -0.5 * kron(SIGMA_Z, np.eye(_capped_dim(p) // 2))


def _mode_operator(modes: tuple[Mode, ...], index: int, op: np.ndarray) -> np.ndarray:
    out = None
    for j, m in enumerate(modes):
        factor = op if j == index else np.eye(m.n_fock)
        out = factor if out is None else np.kron(out, factor)
    return out


def build_multimode(p: MultiModeParams) -> np.ndarray:
    """Multimode Hamiltonian at zero bias, the one assembly of every model's
    qubit, oscillator and coupling terms; the bias enters through
    ``epsilon_ramp``."""
    _capped_dim(p)
    h = (-0.5 * p.delta) * kron(SIGMA_X, np.eye(p.osc_dim))
    for j, m in enumerate(p.modes):
        a = annihilation(m.n_fock)
        h += m.omega * kron(IDENTITY_2, _mode_operator(p.modes, j, a.T @ a))
        h += m.g * kron(SIGMA_Z, _mode_operator(p.modes, j, a + a.T))
    return h


def critical_delta(g: float, omega: float) -> float:
    """Gap value where the semiclassical normal/superradiant change occurs."""
    _require_finite(g=g)
    _require_positive("omega", omega)
    return 4.0 * g * g / omega


# ---------------------------------------------------------------------------
# Parity
# ---------------------------------------------------------------------------

def parity_operator(p: QrmParams) -> np.ndarray:
    """Conserved Z2 parity of the epsilon = 0 model: sx (x) (-1)^n.

    Signed so that |right,0> (the weak-coupling ground state) sits in the
    +1 eigenspace.
    """
    signs = np.diag(np.where(np.arange(p.n_fock) % 2 == 0, 1.0, -1.0))
    return kron(SIGMA_X, signs)


def parity_sector_labels(sector: ParitySector, n_fock: int, scheme: str = "normal") -> list[BasisLabel]:
    """The alternating state list spanning one parity sector.

    For sign +1 and the normal scheme: (right,0), (left,1), (right,2), ...
    """
    if scheme not in ("normal", "superradiant"):
        raise InvalidParameterError("parity sectors alternate in the normal or superradiant schemes")
    first, second = QUBIT_LABELS[scheme]
    labels = []
    for n in range(n_fock):
        even = (n % 2 == 0)
        if sector.sign == -1:
            even = not even
        labels.append(BasisLabel(scheme, first if even else second, n))
    return labels


def parity_block_ladder(
    p: QrmParams, sector: ParitySector
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d0, d1, e) of a parity block of the gap sweep H = A + delta B, whose
    coordinate k is photon number k (column k of ``parity_sector_basis``): A
    has diagonal d0 = omega k and off-diagonal e = g sqrt(k), k = 1 ...
    n_fock - 1, and B diagonal d1 = -sign (-1)^k / 2. A biased or multimode
    model, which has no parity block, is refused, as is a dim past DIM_CAP."""
    if not isinstance(p, QrmParams) or p.epsilon != 0.0:
        raise InvalidParameterError("parity blocks are a single-mode, bias-free model's")
    k = np.arange(_capped_dim(p) // 2)
    return p.omega * k, -0.5 * sector.sign * (1.0 - 2.0 * (k % 2)), p.g * np.sqrt(k[1:])


def parity_sector_basis(p: QrmParams, sector: ParitySector) -> tuple[np.ndarray, list[BasisLabel]]:
    """Orthonormal columns spanning one parity sector, with their labels."""
    labels = parity_sector_labels(sector, p.n_fock, "normal")
    b = np.zeros((_capped_dim(p), p.n_fock))
    s = 1.0 / np.sqrt(2.0)
    for col, lab in enumerate(labels):
        n = lab.photons
        b[n, col] = s
        b[p.n_fock + n, col] = s if lab.qubit == "right" else -s
    return b, labels


# ---------------------------------------------------------------------------
# Readout bases: Kronecker products, qubit-major. Bare and normal columns are
# kron(qubit columns, I); displaced and superradiant ones come from the blocks.
# ---------------------------------------------------------------------------

_SQRT_HALF = 1.0 / np.sqrt(2.0)
_QUBIT_COLUMNS = {
    "bare": np.eye(2, dtype=complex),
    "normal": np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex),
}


def _displaced_blocks(p: QrmParams | MultiModeParams) -> list[np.ndarray]:
    """The blocks |up> (x)_j D(-g_j/w_j) and |down> (x)_j D(+g_j/w_j) over
    the modes of ``p``. A block's columns run over the occupation tuples
    (n_1, n_2, ...) in lexicographic order.
    """
    eye2 = np.eye(2, dtype=complex)
    blocks = []
    for q, sign in ((0, -1.0), (1, +1.0)):
        osc = functools.reduce(
            np.kron, [unitary_displacement(sign * (m.g / m.omega), m.n_fock) for m in p.modes]
        )
        blocks.append(np.kron(eye2[:, [q]], osc))
    return blocks


def scheme_basis(p: QrmParams, scheme: str) -> tuple[np.ndarray, list[BasisLabel]]:
    """Complete column basis of one labelling scheme, qubit-major ordering.

    Displacement-bearing schemes use ``unitary_displacement``, the exactly
    unitary truncated rotation, so the columns are orthonormal and projections
    onto them sum to one. Columns of levels that fail ``displaced_level_fits``
    are still returned; the state constructors refuse them.
    """
    if scheme not in QUBIT_LABELS:
        raise InvalidParameterError(f"unknown labelling scheme {scheme!r}")
    _capped_dim(p)
    labels = [
        BasisLabel(scheme, q, n) for q in QUBIT_LABELS[scheme] for n in range(p.n_fock)
    ]
    if scheme in _QUBIT_COLUMNS:
        return np.kron(_QUBIT_COLUMNS[scheme], np.eye(p.n_fock, dtype=complex)), labels
    up_block, down_block = _displaced_blocks(p)
    if scheme == "displaced":
        return np.hstack([up_block, down_block]), labels
    s = _SQRT_HALF
    return np.hstack([s * (up_block + down_block), s * (up_block - down_block)]), labels


def multimode_displaced_basis(p: MultiModeParams) -> tuple[np.ndarray, list[BasisLabel]]:
    """Displaced product basis |gamma> (x)_j D(-/+ g_j/w_j)|n_j>.

    The complete, exactly orthonormal basis of the model's full space, for
    readout: up columns first, then down, each with the occupation tuples in
    lexicographic order.
    """
    up_block, down_block = _displaced_blocks(p)
    occs = list(itertools.product(*(range(m.n_fock) for m in p.modes)))
    labels = [BasisLabel("displaced", q, occ) for q in ("up", "down") for occ in occs]
    return np.hstack([up_block, down_block]), labels


def normal_state(p: QrmParams, qubit: str, n: int) -> StateVector:
    """|right/left> (x) |n>, the weak-coupling product state: its label's
    ``scheme_basis`` column, built as its two nonzero entries."""
    label = BasisLabel("normal", qubit, n)
    if n >= p.n_fock:
        raise InvalidParameterError(f"photon number {n} outside truncation {p.n_fock}")
    amplitudes = np.zeros(_capped_dim(p), dtype=complex)
    q = QUBIT_LABELS["normal"].index(label.qubit)
    amplitudes[[n, p.n_fock + n]] = _QUBIT_COLUMNS["normal"][:, q]
    return StateVector(amplitudes)


def displaced_state(p: QrmParams, qubit: str, n: int) -> StateVector:
    """Qubit-conditioned displaced Fock state |up> D(-g/omega)|n> or
    |down> D(+g/omega)|n>, in the bare product basis: column n of its one
    displacement, in its qubit's half."""
    label = BasisLabel("displaced", qubit, n)
    up = label.qubit == "up"
    alpha = -p.g_over_omega if up else p.g_over_omega
    _require_displaced_level(alpha, n, p.n_fock)
    amplitudes = np.zeros(_capped_dim(p), dtype=complex)
    half = slice(None, p.n_fock) if up else slice(p.n_fock, None)
    amplitudes[half] = unitary_displacement(alpha, p.n_fock)[:, n]
    return StateVector(amplitudes)


def superradiant_state(p: QrmParams, qubit: str, n: int) -> StateVector:
    """Strong-coupling doublet state (|up,D(-a)n> +/- |down,D(+a)n>)/sqrt(2),
    a = g/omega: column n of each of the two displacements."""
    label = BasisLabel("superradiant", qubit, n)
    a = p.g_over_omega
    for alpha in (-a, a):
        _require_displaced_level(alpha, n, p.n_fock)
    _capped_dim(p)  # refused before either displacement's eigensolve
    down_sign = 1.0 if label.qubit == "+" else -1.0
    up_half = unitary_displacement(-a, p.n_fock)[:, n]
    down_half = down_sign * unitary_displacement(a, p.n_fock)[:, n]
    return StateVector(_SQRT_HALF * np.concatenate([up_half, down_half]))
