"""Dense linear-algebra kernel for truncated qubit-oscillator problems.

Operators are real float64 ndarrays, except the displacement, whose amplitude
is complex; states are complex, in a thin wrapper that names their space: the
full space or one parity sector. Everything here is a pure function of its
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvalidParameterError,
    InvalidTruncationError,
    SymmetryViolationError,
)

# Relative tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-12
# Norm tolerance enforced on StateVector construction.
STATE_NORM_ATOL = 1e-10

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
IDENTITY_2 = np.eye(2)


@dataclass(frozen=True)
class ParitySector:
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (+1, -1):
            raise InvalidParameterError(f"parity sign must be +1 or -1, got {self.sign}")


EVEN_SECTOR = ParitySector(+1)
ODD_SECTOR = ParitySector(-1)


@dataclass(frozen=True)
class StateVector:
    """Unit-norm complex amplitude vector: over the full space when
    ``sector`` is None, else over that parity block in its block
    coordinates."""

    amplitudes: np.ndarray
    sector: ParitySector | None = None

    def __post_init__(self) -> None:
        try:
            amp = np.asarray(self.amplitudes, dtype=complex)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"amplitudes must be complex numbers, got {self.amplitudes!r}"
            ) from None
        object.__setattr__(self, "amplitudes", amp)
        if amp.ndim != 1 or amp.size < 1:
            raise InvalidParameterError("amplitudes must be a nonempty 1-D array")
        if self.sector is not None and not isinstance(self.sector, ParitySector):
            raise InvalidParameterError(f"unknown state sector {self.sector!r}")
        nrm = np.linalg.norm(amp)
        # "Not within" the tolerance: a NaN norm is refused too.
        if not abs(nrm - 1.0) <= STATE_NORM_ATOL:
            raise InvalidParameterError(
                f"state norm {nrm:.12f} deviates from 1 beyond {STATE_NORM_ATOL}"
            )

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def hermiticity_defect(matrix: np.ndarray) -> float:
    """Max |M - M^dagger| entry, relative to the largest entry magnitude."""
    m = np.asarray(matrix)
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T)) / scale)


def require_hermitian(matrix: np.ndarray, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError(f"expected a square matrix, got shape {m.shape}")
    defect = hermiticity_defect(m)
    if defect > rtol:
        raise SymmetryViolationError(
            f"matrix is not Hermitian: relative defect {defect:.3e} > {rtol:.1e}"
        )
    return m


def annihilation(n_fock: int) -> np.ndarray:
    """Bosonic annihilation operator in an n_fock-dimensional truncation."""
    if n_fock < 2:
        raise InvalidTruncationError(f"Fock truncation must be >= 2, got {n_fock}")
    return np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), k=1)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square operators."""
    a = np.asarray(a)
    b = np.asarray(b)
    for m in (a, b):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameterError("kron expects square matrices")
    return np.kron(a, b)


@lru_cache(maxsize=128)
def _displacement_unitary(re: float, im: float, n_fock: int) -> np.ndarray:
    alpha = complex(re, im)
    a = annihilation(n_fock)
    gen_h = -1j * (alpha * a.conj().T - np.conjugate(alpha) * a)
    w, v = np.linalg.eigh(gen_h)
    out = (v * np.exp(1j * w)) @ v.conj().T
    out.setflags(write=False)
    return out


def unitary_displacement(alpha: complex, n_fock: int) -> np.ndarray:
    """Exactly unitary displacement: the exponential of the truncated generator.

    Columns form an orthonormal set by construction. Low columns agree with
    those of the untruncated operator exp(alpha a^dag - alpha* a) up to the
    truncation tail that ``model.displaced_fock_tail`` measures. This is the
    one displacement builder: every displaced readout basis and state is made
    from it.
    """
    if n_fock < 2:
        raise InvalidTruncationError(f"Fock truncation must be >= 2, got {n_fock}")
    alpha = complex(alpha)
    if not (np.isfinite(alpha.real) and np.isfinite(alpha.imag)):
        raise InvalidParameterError("displacement amplitude must be finite")
    if alpha == 0:
        return np.eye(n_fock, dtype=complex)
    return _displacement_unitary(alpha.real, alpha.imag, n_fock)


def eig_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, orthonormal eigenvector columns). Raises
    SymmetryViolationError if the input fails the Hermiticity check.
    """
    h = require_hermitian(matrix)
    return np.linalg.eigh(h)
