import math

import numpy as np
import pytest
from scipy.special import gammainc

from rabisweep.errors import (
    InvalidParameterError,
    InvalidTruncationError,
    SymmetryViolationError,
)
from rabisweep.operators import (
    SIGMA_X,
    SIGMA_Z,
    StateVector,
    annihilation,
    eig_hermitian,
    hermiticity_defect,
    kron,
    unitary_displacement,
)
from rabisweep.model import displaced_fock_tail
from rabisweep.sweep import _evolve_linear

RNG = np.random.default_rng(20240811)


def random_hermitian(dim, rng=RNG):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (m + m.conj().T)


def random_symmetric(dim, rng=RNG):
    m = rng.normal(size=(dim, dim))
    return 0.5 * (m + m.T)


class TestAnnihilation:
    def test_two_level(self):
        assert np.array_equal(annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_superdiagonal(self):
        a = annihilation(4)
        assert np.allclose(np.diag(a, k=1), np.sqrt([1.0, 2.0, 3.0]))
        assert np.count_nonzero(a - np.diag(np.diag(a, 1), 1)) == 0

    def test_commutator_edge_defect(self):
        # [a, a^dag] = I except for the corner entry, the truncation signature.
        for n in (4, 9, 17):
            a = annihilation(n)
            comm = a @ a.conj().T - a.conj().T @ a
            expected = np.eye(n, dtype=complex)
            expected[n - 1, n - 1] = -(n - 1)
            assert np.allclose(comm, expected, atol=1e-12)

    def test_rejects_small_truncation(self):
        with pytest.raises(InvalidTruncationError):
            annihilation(1)


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_sigma_z_block(self):
        got = kron(SIGMA_Z, np.eye(2))
        assert np.allclose(np.diag(got), [1, 1, -1, -1])

    def test_mixed_product_rule(self):
        # (A x B)(C x D) = (AC) x (BD), both sides assembled independently.
        for _ in range(5):
            a, c = RNG.normal(size=(2, 2, 2)) + 1j * RNG.normal(size=(2, 2, 2))
            b, d = RNG.normal(size=(2, 3, 3)) + 1j * RNG.normal(size=(2, 3, 3))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidParameterError):
            kron(np.ones((2, 3)), np.eye(2))


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.array_equal(unitary_displacement(0.0, 7), np.eye(7))

    def test_vacuum_column_is_coherent_state(self):
        # D(a)|0> is a coherent state: its weight on n >= N is the Poisson
        # tail P(N, |a|^2), the regularized lower incomplete gamma function.
        for alpha in (0.3, 1.0, 2.0, 3.0):
            for n_fock in (4, 12, 32, 50):
                got = displaced_fock_tail(alpha, 0, n_fock)
                assert abs(got - gammainc(n_fock, alpha**2)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_inverse_product_on_retained_levels(self, alpha):
        # D(a) D(-a), each cropped to N levels of the untruncated operator,
        # acts as the identity on well-truncated levels (n <= 3) once
        # N >= 10 (|a|^2 + 1); the bound comes from a truncation scan.
        n_fock = int(10 * (alpha**2 + 1))

        def cropped(a):
            return unitary_displacement(a, 4 * n_fock)[:n_fock, :n_fock]

        prod = cropped(alpha) @ cropped(-alpha)
        window = prod[:4, :4] - np.eye(n_fock)[:4, :4]
        assert np.max(np.abs(window)) <= 1e-8

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameterError):
            unitary_displacement(np.inf, 8)


class TestEigHermitian:
    def test_diagonal(self):
        vals, _ = eig_hermitian(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(vals, [-1.0, 2.0, 3.0])

    def test_sigma_x(self):
        vals, _ = eig_hermitian(SIGMA_X)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_decoupled_qubit_oscillator_spectrum(self):
        # H = -(delta/2) sx + omega n at g = 0: eigenvalues m*omega -/+ delta/2.
        delta, omega, n_fock = 3.7, 1.0, 12
        h = kron(-0.5 * delta * SIGMA_X, np.eye(n_fock)) + kron(
            np.eye(2), omega * np.diag(np.arange(n_fock))
        )
        vals, _ = eig_hermitian(h)
        expected = np.sort(
            [m * omega + s * delta / 2 for m in range(n_fock) for s in (-1, 1)]
        )
        assert np.allclose(vals, expected, atol=1e-10)

    def test_residuals_and_orthonormality(self):
        h = random_hermitian(40)
        vals, vecs = eig_hermitian(h)
        scale = np.linalg.norm(h)
        for k in range(40):
            assert np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-10 * scale
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(40))) <= 1e-10

    def test_reconstruction(self):
        h = random_hermitian(60)
        vals, vecs = eig_hermitian(h)
        back = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(back - h) <= 1e-9 * np.linalg.norm(h)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert hermiticity_defect(m) > 0.1
        with pytest.raises(SymmetryViolationError):
            eig_hermitian(m)


def _rk4_reference(h, dt, psi, n_sub=400):
    """Independent fixed-step integrator of i d/dt psi = H psi."""
    y = psi.astype(complex).copy()
    step = dt / n_sub

    def f(v):
        return -1j * (h @ v)

    for _ in range(n_sub):
        k1 = f(y)
        k2 = f(y + 0.5 * step * k1)
        k3 = f(y + 0.5 * step * k2)
        k4 = f(y + step * k3)
        y = y + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def propagate(h, dt, psi, n_steps=1):
    """n_steps steps of exp(-i H dt) through the sweep propagator, with a
    zero ramp so that H stays fixed. H is real symmetric, as the
    propagator requires."""
    h = np.asarray(h)
    out, _ = _evolve_linear(
        h, np.zeros_like(h), 0.0, 0.0, [n_steps * dt], n_steps, psi, [n_steps]
    )
    return out[0, 0]


class TestPropagateStep:
    def test_zero_hamiltonian(self):
        psi = StateVector(np.array([0.6, 0.8j]))
        out = propagate(np.zeros((2, 2)), 0.37, psi.amplitudes)
        assert np.allclose(out, psi.amplitudes)

    def test_diagonal_phases(self):
        energies = np.array([0.5, -1.0, 2.0])
        h = np.diag(energies)
        amp = np.array([0.5, 0.5, 1 / np.sqrt(2)], dtype=complex)
        out = propagate(h, 0.9, amp)
        assert np.allclose(out, amp * np.exp(-1j * energies * 0.9))
        assert np.allclose(np.abs(out) ** 2, np.abs(amp) ** 2)

    def test_rabi_flop(self):
        delta = 1.3
        h = -0.5 * delta * SIGMA_X
        out = propagate(h, np.pi / delta, np.array([1.0, 0.0], dtype=complex))
        assert abs(out[0]) < 1e-12
        assert abs(abs(out[1]) - 1.0) < 1e-12

    def test_matches_independent_integrator(self):
        h = random_symmetric(8)
        psi = RNG.normal(size=8) + 1j * RNG.normal(size=8)
        psi /= np.linalg.norm(psi)
        got = propagate(h, 0.21, psi)
        ref = _rk4_reference(h, 0.21, psi)
        assert np.linalg.norm(got - ref) < 1e-9

    def test_unitarity_per_step(self):
        for dim in (3, 8, 21):
            h = random_symmetric(dim)
            psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
            psi /= np.linalg.norm(psi)
            out = propagate(h, 1.7, psi)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_energy_conservation_long_run(self):
        h = random_symmetric(4)
        psi = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        psi /= np.linalg.norm(psi)
        e0 = np.vdot(psi, h @ psi).real
        psi = propagate(h, 0.05, psi, n_steps=100_000)
        e1 = np.vdot(psi, h @ psi).real
        assert abs(e1 - e0) <= 1e-9 * np.linalg.norm(h)
        # accumulated drift stays far below the per-trajectory budget
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParameterError):
            StateVector(np.array([1.0, 1.0]))

    @pytest.mark.parametrize(
        "amplitudes", [[math.nan, 0.0], "ab", [1, "x"]], ids=["nan", "string", "mixed"]
    )
    def test_rejects_amplitudes_that_are_not_numbers(self, amplitudes):
        # A NaN norm is not within the tolerance; a string fails the complex
        # conversion, which used to escape as a bare ValueError.
        with pytest.raises(InvalidParameterError):
            StateVector(amplitudes)

    def test_rejects_unknown_tag(self):
        # A state names its space by a ParitySector or None, not by a string.
        for tag in ("mystery", "parity-symmetric", +1):
            with pytest.raises(InvalidParameterError):
                StateVector(np.array([1.0, 0.0]), tag)

    def test_creation_is_adjoint(self):
        # a^dag |n> = sqrt(n + 1) |n + 1>: the adjoint of a is the raising ladder.
        raising = np.diag(np.sqrt(np.arange(1, 6, dtype=float)), k=-1)
        assert np.allclose(annihilation(6).conj().T, raising)
