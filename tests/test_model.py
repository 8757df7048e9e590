import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rabisweep.errors import (
    InsufficientTruncationError,
    InvalidParameterError,
    ResourceLimitError,
)
from rabisweep.model import (
    DIM_CAP,
    EVEN_SECTOR,
    ODD_SECTOR,
    BasisLabel,
    Mode,
    MultiModeParams,
    ProbabilityRecord,
    QrmParams,
    Readout,
    build_multimode,
    build_qrm,
    critical_delta,
    default_n_fock,
    delta_ramp,
    displaced_level_fits,
    displaced_state,
    epsilon_ramp,
    normal_state,
    multimode_displaced_basis,
    parity_block_ladder,
    parity_operator,
    parity_sector_basis,
    parity_sector_labels,
    scheme_basis,
    superradiant_state,
    top_fock_occupancy,
)
from rabisweep.operators import eig_hermitian, hermiticity_defect, unitary_displacement
from rabisweep.presets import qrm_params
from rabisweep.sweep import hamiltonian_parts, readout_columns

RNG = np.random.default_rng(7)


def sector_spectrum(p, sector):
    basis, _ = parity_sector_basis(p, sector)
    h = build_qrm(p)
    return np.linalg.eigvalsh(basis.conj().T @ h @ basis)


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            QrmParams(1.0, 0.0, -1.0, 0.5, 8)
        with pytest.raises(InvalidParameterError):
            QrmParams(1.0, 0.0, 1.0, 0.5, 1)
        with pytest.raises(InvalidParameterError):
            QrmParams(np.nan, 0.0, 1.0, 0.5, 8)

    def test_ratios(self):
        p = QrmParams(3.0, 0.0, 2.0, 1.0, 8)
        assert p.g_over_omega == 0.5
        assert p.delta_over_omega == 1.5

    def test_a_single_mode_is_one_mode(self):
        p = QrmParams(3.0, 0.2, 2.0, 1.0, 8)
        assert p.modes == (Mode(2.0, 1.0, 8),)
        assert MultiModeParams(p.delta, p.modes).dim == p.dim
        with pytest.raises(AttributeError):
            p.modes = ()

    @pytest.mark.parametrize("g", [np.nan, np.inf, 1e200])
    def test_default_truncation_of_a_coupling_that_overflows_is_refused(self, g):
        # It used to raise ValueError (nan) or OverflowError from int().
        with pytest.raises(InvalidParameterError):
            default_n_fock(g, 1.0)

    def test_default_truncation(self):
        assert default_n_fock(0.1, 1.0) == 32
        assert default_n_fock(2.0, 1.0) == 50
        assert qrm_params(5.0).n_fock == 260

    def test_default_truncation_fits_the_low_displaced_levels(self):
        # The floor over this grid is n <= 10, at g/omega = 1.4-1.5.
        for g in np.linspace(0.0, 5.0, 51):
            n_fock = default_n_fock(g, 1.0)
            assert all(displaced_level_fits(g, n, n_fock) for n in range(11)), g


class TestBuildQrm:
    def test_decoupled_spectrum(self):
        p = QrmParams(2.4, 0.0, 1.0, 0.0, 16)
        vals, _ = eig_hermitian(build_qrm(p))
        expected = np.sort([m + s * 1.2 for m in range(16) for s in (-1, 1)])
        assert np.allclose(vals, expected, atol=1e-10)

    @pytest.mark.parametrize("gow", [0.8, 1.5, 2.0])
    def test_zero_gap_ground_energy(self, gow):
        nf = int(10 * (gow**2 + 1))
        p = QrmParams(0.0, 0.0, 1.0, gow, nf)
        vals = np.linalg.eigvalsh(build_qrm(p))
        assert abs(vals[0] - (-(gow**2))) < 1e-8

    def test_zero_gap_ground_matches_doublet_state(self):
        p = QrmParams(0.0, 0.0, 1.0, 1.5, 40)
        # Within the even-parity block the ground state is unique.
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        hb = basis.conj().T @ build_qrm(p) @ basis
        _, vecs = eig_hermitian(hb)
        ground = basis @ vecs[:, 0]
        target = superradiant_state(p, "+", 0).amplitudes
        assert abs(np.vdot(ground, target)) ** 2 >= 1.0 - 1e-6

    @pytest.mark.parametrize(
        "p",
        [QrmParams(0.7, 0.0, 1.0, 0.4, 8), QrmParams(2.1, 0.37, 1.3, 1.1, 12),
         QrmParams(0.0, -0.6, 0.8, 2.5, 6)],
    )
    def test_is_the_four_term_sum(self, p):
        # -(delta/2) sx (x) I - (epsilon/2) sz (x) I + omega I (x) a^dag a
        # + g sz (x) (a + a^dag), written out here.
        a = np.diag(np.sqrt(np.arange(1.0, p.n_fock)), k=1)
        sx, sz, eye = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(p.n_fock)
        want = (
            -(p.delta / 2) * np.kron(sx, eye)
            - (p.epsilon / 2) * np.kron(sz, eye)
            + p.omega * np.kron(np.eye(2), a.T @ a)
            + p.g * np.kron(sz, a + a.T)
        )
        assert np.array_equal(build_qrm(p), want)

    def test_hermiticity(self):
        for _ in range(4):
            p = QrmParams(
                float(RNG.uniform(0, 5)),
                float(RNG.uniform(-2, 2)),
                1.0,
                float(RNG.uniform(0, 2)),
                24,
            )
            assert hermiticity_defect(build_qrm(p)) <= 1e-12


class TestParity:
    def test_involution_and_hermitian(self):
        p = QrmParams(1.0, 0.0, 1.0, 0.7, 12)
        par = parity_operator(p)
        assert np.max(np.abs(par @ par - np.eye(p.dim))) <= 1e-12
        assert hermiticity_defect(par) <= 1e-12

    def test_commutes_with_unbiased_hamiltonian(self):
        for _ in range(5):
            p = QrmParams(
                float(RNG.uniform(0.1, 4)), 0.0, float(RNG.uniform(0.5, 2)),
                float(RNG.uniform(0, 2)), 16,
            )
            h = build_qrm(p)
            par = parity_operator(p)
            comm = h @ par - par @ h
            assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(h)

    def test_bias_breaks_parity(self):
        p = QrmParams(1.0, 0.8, 1.0, 0.5, 12)
        h = build_qrm(p)
        par = parity_operator(p)
        assert np.linalg.norm(h @ par - par @ h) > 0.1 * abs(p.epsilon)

    @pytest.mark.parametrize(
        "p",
        [
            QrmParams(0.3, 0.0, 1.0, 1.0, 32),
            MultiModeParams(1.0, (Mode(1.0, 0.5, 8), Mode(2.3, 0.92, 6))),
        ],
        ids=["single-mode", "two-mode"],
    )
    def test_parity_reflects_the_bias_sweep(self, p):
        # P = sigma_x (x) prod_j (-1)^{n_j} keeps the bias-free part A and
        # flips the bias ramp B exactly, so it maps H(epsilon) = A + epsilon
        # B to H(-epsilon) and the ground state at -W to the one at +W. P
        # only swaps the qubit states and signs amplitudes, so it keeps
        # every Fock weight: both window edges have one top-tenth weight,
        # and a bias table's +W solve adds no information to that check.
        modes = (p.n_fock,) if isinstance(p, QrmParams) else tuple(m.n_fock for m in p.modes)
        signs = np.ones(1)
        for n_fock in modes:
            signs = np.kron(signs, np.where(np.arange(n_fock) % 2 == 0, 1.0, -1.0))
        par = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag(signs))
        if isinstance(p, QrmParams):
            assert np.array_equal(par, parity_operator(p))
        h_static, h_ramp = hamiltonian_parts(p, "epsilon")
        assert np.array_equal(par @ h_static @ par, h_static)
        assert np.array_equal(par @ h_ramp @ par, -h_ramp)
        # Its own generator, so the module's draws elsewhere are unchanged.
        rng = np.random.default_rng(11)
        state = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
        state /= np.linalg.norm(state)
        weight = top_fock_occupancy(p, state)
        assert top_fock_occupancy(p, par @ state) == pytest.approx(weight, rel=1e-14, abs=0)

    def test_projector_idempotent_and_rank(self):
        # The sector basis B spans the sector: B B^dag = (I + sign P)/2.
        p = QrmParams(1.0, 0.0, 1.0, 0.5, 10)
        for sector in (EVEN_SECTOR, ODD_SECTOR):
            basis, labels = parity_sector_basis(p, sector)
            proj = basis @ basis.conj().T
            want = 0.5 * (np.eye(p.dim) + sector.sign * parity_operator(p))
            assert np.max(np.abs(proj - want)) <= 1e-12
            assert np.max(np.abs(proj @ proj - proj)) <= 1e-12
            assert abs(np.trace(proj).real - p.n_fock) <= 1e-10
            assert len(labels) == p.n_fock

    def test_even_sector_enumeration(self):
        p = QrmParams(1.0, 0.0, 1.0, 0.5, 6)
        _, labels = parity_sector_basis(p, EVEN_SECTOR)
        got = [(lab.qubit, lab.photons) for lab in labels[:4]]
        assert got == [("right", 0), ("left", 1), ("right", 2), ("left", 3)]

    def test_sector_spectra_interleave_to_full_spectrum(self):
        p = QrmParams(1.7, 0.0, 1.0, 0.9, 14)
        full = np.linalg.eigvalsh(build_qrm(p))
        merged = np.sort(
            np.concatenate([sector_spectrum(p, EVEN_SECTOR), sector_spectrum(p, ODD_SECTOR)])
        )
        assert np.allclose(full, merged, atol=1e-10)

    def test_block_structure(self):
        p = QrmParams(2.0, 0.0, 1.0, 1.1, 12)
        h = build_qrm(p)
        plus, _ = parity_sector_basis(p, EVEN_SECTOR)
        minus, _ = parity_sector_basis(p, ODD_SECTOR)
        off = minus.conj().T @ h @ plus
        assert np.max(np.abs(off)) <= 1e-12 * np.linalg.norm(h)


class TestParityBlockLadder:
    # The parity block's parts and readout columns against the full-space
    # formulas they replaced: the projections basis.T @ X @ basis.
    @pytest.mark.parametrize("sector", [EVEN_SECTOR, ODD_SECTOR], ids=["even", "odd"])
    @pytest.mark.parametrize("g_over_omega", [0.3, 1.0, 2.0])
    def test_parts_are_the_projected_full_space(self, sector, g_over_omega):
        p = QrmParams(0.7, 0.0, 1.3, 1.3 * g_over_omega, 40)
        basis, _ = parity_sector_basis(p, sector)
        a, b = hamiltonian_parts(p, "delta", sector)
        for part, full in ((a, build_qrm(replace(p, delta=0.0))), (b, delta_ramp(p))):
            ref = basis.T @ full @ basis
            assert np.max(np.abs(part - ref)) <= 1e-15 * np.max(np.abs(ref))
        # A is the ladder's tridiagonal and B its diagonal, exactly.
        d0, d1, e = parity_block_ladder(p, sector)
        assert np.array_equal(a, np.diag(d0) + np.diag(e, 1) + np.diag(e, -1))
        assert np.array_equal(b, np.diag(d1))
        k = np.arange(p.n_fock)
        assert np.array_equal(d1, np.where(k % 2 == 0, -0.5, 0.5) * sector.sign)

    @pytest.mark.parametrize("sector", [EVEN_SECTOR, ODD_SECTOR], ids=["even", "odd"])
    @pytest.mark.parametrize("scheme", ["normal", "superradiant"])
    def test_readout_columns_are_the_projected_scheme_basis(self, sector, scheme):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 24)
        basis, _ = parity_sector_basis(p, sector)
        cols, labels = readout_columns(p, scheme, sector)
        full, full_labels = scheme_basis(p, scheme)
        ref = basis.T @ full[:, [full_labels.index(lab) for lab in labels]]
        assert labels == parity_sector_labels(sector, p.n_fock, scheme)
        assert np.max(np.abs(cols - ref)) <= 1e-15

    @pytest.mark.parametrize("preset", ["fig6_valid", "fig5d", "fig6_breakdown"])
    def test_bias_static_part_is_the_zero_bias_hamiltonian(self, preset):
        from rabisweep.presets import PRESETS

        p = PRESETS[preset].build().params
        h_static, h_ramp = hamiltonian_parts(p, "epsilon")
        assert np.array_equal(h_static, build_qrm(replace(p, epsilon=0.0)))
        assert np.array_equal(h_ramp, epsilon_ramp(p))

    def test_a_model_without_a_parity_block_is_refused(self):
        for p in (
            QrmParams(0.0, 0.3, 1.0, 1.0, 8),
            MultiModeParams(0.5, (Mode(1.0, 0.5, 4),)),
        ):
            with pytest.raises(InvalidParameterError, match="parity blocks"):
                parity_block_ladder(p, EVEN_SECTOR)


class TestTopFockOccupancy:
    @pytest.mark.parametrize("sector", [EVEN_SECTOR, ODD_SECTOR])
    def test_a_block_state_weighs_as_its_lift(self, sector):
        # Block coordinate k is photon number k, so a sector state is weighed
        # without lifting it to the full space.
        p = QrmParams(0.0, 0.0, 1.0, 1.5, 20)
        basis, _ = parity_sector_basis(p, sector)
        rng = np.random.default_rng(11)
        block = rng.normal(size=p.n_fock) + 1j * rng.normal(size=p.n_fock)
        block /= np.linalg.norm(block)
        _, vecs = np.linalg.eigh(basis.T @ build_qrm(replace(p, delta=3.0)) @ basis)
        for state in (block, vecs[:, 0]):
            lifted = top_fock_occupancy(p, basis @ state)
            assert lifted > 0.0
            assert top_fock_occupancy(p, state) == pytest.approx(lifted, rel=1e-15, abs=0.0)

    def test_other_lengths_are_refused(self):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 8)
        for size in (p.n_fock - 1, p.n_fock + 1, p.dim - 1, p.dim + 1):
            with pytest.raises(InvalidParameterError, match="neither a parity block's"):
                top_fock_occupancy(p, np.ones(size))
        with pytest.raises(InvalidParameterError):
            top_fock_occupancy(p, np.ones((p.n_fock, 1)))
        # A multimode model has no parity block: half its space is refused.
        mm = MultiModeParams(0.5, (Mode(1.0, 0.5, 4), Mode(2.0, 0.5, 3)))
        assert top_fock_occupancy(mm, np.ones(mm.dim) / np.sqrt(mm.dim)) > 0.0
        with pytest.raises(InvalidParameterError):
            top_fock_occupancy(mm, np.ones(mm.osc_dim))


class TestStates:
    def test_displaced_reduces_to_bare_at_zero_coupling(self):
        p = QrmParams(1.0, 0.0, 1.0, 0.0, 8)
        for n in (0, 2):
            got = displaced_state(p, "up", n).amplitudes
            bare = np.zeros(16, dtype=complex)
            bare[n] = 1.0
            assert np.allclose(got, bare)

    def test_doublet_states_orthonormal(self):
        p = QrmParams(0.0, 0.0, 1.0, 2.0, 64)
        states = [
            superradiant_state(p, q, n).amplitudes for q in ("+", "-") for n in range(4)
        ]
        gram = np.array([[np.vdot(a, b) for b in states] for a in states])
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-10

    def test_doublet_is_zero_gap_eigenstate(self):
        gow = 1.4
        p = QrmParams(0.0, 0.0, 1.0, gow, 40)
        h = build_qrm(p)
        psi = superradiant_state(p, "+", 0).amplitudes
        assert np.linalg.norm(h @ psi - (-(gow**2)) * psi) <= 1e-9

    def test_scheme_gram_matrices(self):
        p = QrmParams(1.0, 0.0, 1.0, 2.0, 50)
        for scheme, tol in (("bare", 1e-10), ("normal", 1e-10),
                            ("superradiant", 1e-8), ("displaced", 1e-8)):
            cols, labels = scheme_basis(p, scheme)
            assert len(labels) == p.dim
            gram = cols.conj().T @ cols
            assert np.max(np.abs(gram - np.eye(p.dim))) <= tol, scheme

    def test_truncation_tail_guard(self):
        p = QrmParams(0.0, 0.0, 1.0, 3.0, 12)
        with pytest.raises(InsufficientTruncationError):
            displaced_state(p, "up", 0)

    def test_normal_state_layout(self):
        p = QrmParams(1.0, 0.0, 1.0, 0.5, 4)
        amp = normal_state(p, "left", 1).amplitudes
        s = 1 / np.sqrt(2)
        expected = np.zeros(8, dtype=complex)
        expected[1] = s      # |up, 1>
        expected[5] = -s     # |down, 1>
        assert np.allclose(amp, expected)

    @pytest.mark.parametrize("g", [0.0, 0.7, 2.3])
    @pytest.mark.parametrize(
        "scheme, build",
        [("normal", normal_state), ("displaced", displaced_state),
         ("superradiant", superradiant_state)],
    )
    def test_each_state_is_its_scheme_basis_column(self, scheme, build, g):
        # A constructor builds only the column it returns, and it is the
        # scheme_basis column of its label to the bit, for every qubit and
        # every level that fits the ladder.
        p = QrmParams(0.4, 0.0, 1.3, g, 24)
        cols, labels = scheme_basis(p, scheme)
        built = []
        for column, label in enumerate(labels):
            try:
                state = build(p, label.qubit, label.photons)
            except InsufficientTruncationError:
                continue
            assert np.array_equal(state.amplitudes, cols[:, column]), label
            built.append(label)
        # Both qubits, and at g = 2.3 the lowest three levels of each.
        assert {label.qubit for label in built if label.photons == 2} == {
            label.qubit for label in labels
        }


class TestMultimode:
    def test_single_mode_matches_qrm(self):
        p1 = QrmParams(1.3, 0.4, 1.0, 0.6, 10)
        mm = MultiModeParams(1.3, (Mode(1.0, 0.6, 10),))
        assert np.allclose(build_multimode(mm) + 0.4 * epsilon_ramp(mm), build_qrm(p1))

    def test_decoupled_two_mode_spectrum(self):
        delta = 1.9
        mm = MultiModeParams(delta, (Mode(1.0, 0.0, 4), Mode(2.3, 0.0, 3)))
        vals = np.linalg.eigvalsh(build_multimode(mm))
        expected = np.sort(
            [
                s * delta / 2 + n1 * 1.0 + n2 * 2.3
                for s in (-1, 1)
                for n1 in range(4)
                for n2 in range(3)
            ]
        )
        assert np.allclose(vals, expected, atol=1e-10)

    def test_zero_gap_ground_energy(self):
        mm = MultiModeParams(0.0, (Mode(1.0, 0.5, 16), Mode(2.0, 0.8, 16)))
        vals = np.linalg.eigvalsh(build_multimode(mm))
        expected = -(0.5**2 / 1.0 + 0.8**2 / 2.0)
        assert abs(vals[0] - expected) < 1e-8

    def test_displaced_basis_is_a_kronecker_product(self):
        modes = (Mode(1.0, 0.5, 4), Mode(2.0, 0.9, 3))
        mm = MultiModeParams(0.3, modes)
        cols, labels = multimode_displaced_basis(mm)
        assert cols.shape == (mm.dim, mm.dim)
        assert np.max(np.abs(cols.conj().T @ cols - np.eye(mm.dim))) <= 1e-12
        keys = [(("up", "down").index(lab.qubit), lab.photons) for lab in labels]
        assert keys == sorted(keys) and len(set(keys)) == mm.dim
        eye2 = np.eye(2, dtype=complex)
        for col, lab in zip(cols.T, labels):
            q = ("up", "down").index(lab.qubit)
            sign = -1.0 if q == 0 else +1.0
            d1, d2 = (unitary_displacement(sign * m.g / m.omega, m.n_fock) for m in modes)
            n1, n2 = lab.photons
            want = np.kron(eye2[:, q], np.kron(d1[:, n1], d2[:, n2]))
            assert col.tobytes() == want.tobytes()

    def test_dimension_cap(self):
        mm = MultiModeParams(1.0, (Mode(1.0, 0.1, 64), Mode(1.5, 0.1, 64)))
        with pytest.raises(ResourceLimitError):
            build_multimode(mm)


class TestSingleModeDimensionCap:
    # One level past the cap: each dense array would take about 134 MB.
    P = QrmParams(0.3, 0.2, 1.0, 0.5, DIM_CAP // 2 + 1)

    @pytest.mark.parametrize(
        "build",
        [
            build_qrm,
            delta_ramp,
            epsilon_ramp,
            lambda p: parity_sector_basis(p, EVEN_SECTOR),
            lambda p: scheme_basis(p, "displaced"),
            lambda p: scheme_basis(p, "normal"),
            # The parity block's ladder, parts and columns, and a bias
            # sweep's parts, are refused under the same cap.
            lambda p: parity_block_ladder(replace(p, epsilon=0.0), EVEN_SECTOR),
            lambda p: hamiltonian_parts(replace(p, epsilon=0.0), "delta", EVEN_SECTOR),
            lambda p: readout_columns(p, "superradiant", EVEN_SECTOR),
            lambda p: hamiltonian_parts(p, "epsilon"),
        ],
    )
    def test_refused_before_any_dense_array(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="single-mode dimension 4098 exceeds"):
                build(self.P)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_every_preset_fits(self):
        from rabisweep.presets import PRESETS

        dims = [
            spec.params.dim for spec in (preset.build() for preset in PRESETS.values())
            if isinstance(spec.params, QrmParams)
        ]
        assert max(dims) == 1792 <= DIM_CAP
        at_cap = replace(self.P, n_fock=DIM_CAP // 2)
        assert parity_sector_basis(at_cap, EVEN_SECTOR)[0].shape == (DIM_CAP, DIM_CAP // 2)


class TestCriticalDelta:
    def test_values(self):
        assert critical_delta(0.0, 1.0) == 0.0
        assert critical_delta(1.0, 1.0) == 4.0
        assert critical_delta(20.0, 1.0) == 1600.0

    @pytest.mark.parametrize(
        "g, omega", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, 0.0), (1.0, -1.0)]
    )
    def test_refusals(self, g, omega):
        # A NaN used to pass the omega <= 0 check and come back as NaN.
        with pytest.raises(InvalidParameterError):
            critical_delta(g, omega)

    def test_minimum_sector_gap_sits_near_it(self):
        # At strong coupling the smallest even-sector gap localizes within 20%
        # of the semiclassical value.
        gow = 5.0
        p = QrmParams(0.0, 0.0, 1.0, gow, 260)
        dc = critical_delta(gow, 1.0)
        deltas = np.linspace(0.5 * dc, 1.5 * dc, 41)
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        gaps = []
        for d in deltas:
            h = basis.conj().T @ build_qrm(QrmParams(d, 0.0, 1.0, gow, 260)) @ basis
            vals = np.linalg.eigvalsh(h)
            gaps.append(vals[1] - vals[0])
        at_min = deltas[int(np.argmin(gaps))]
        assert abs(at_min - dc) <= 0.2 * dc


class TestBasisLabel:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            BasisLabel("normal", "up", 0)
        with pytest.raises(InvalidParameterError):
            BasisLabel("bare", "up", -1)
        for bad in (np.int64(-1), 2.0, (1, 2.0)):
            with pytest.raises(InvalidParameterError):
                BasisLabel("displaced", "up", bad)
        assert str(BasisLabel("displaced", "up", (1, 0))) == "(up,1;0)"
        # Integral photon numbers of any type are stored as int.
        label = BasisLabel("bare", "up", np.int64(2))
        assert label == BasisLabel("bare", "up", 2) and type(label.photons) is int
        pair = BasisLabel("displaced", "up", (np.int64(1), 0)).photons
        assert pair == (1, 0) and all(type(n) is int for n in pair)


class TestReadout:
    LABELS = tuple(BasisLabel("displaced", q, n) for q in ("up", "down") for n in range(3))

    @pytest.mark.parametrize("bad", [1.5, -0.1, np.nan, 1.0 + 2e-9, -2e-9, np.inf])
    def test_out_of_range_is_refused_with_the_records_message(self, bad):
        with pytest.raises(InvalidParameterError) as record_error:
            ProbabilityRecord(self.LABELS[0], bad)
        probs = [0.5, bad, 2.0, 0.1, 0.2, 0.3]
        with pytest.raises(InvalidParameterError) as readout_error:
            Readout(self.LABELS, probs)
        assert str(readout_error.value) == str(record_error.value)
        # Rows are checked in row-major order: the first offender is named.
        with pytest.raises(InvalidParameterError) as rows_error:
            Readout.rows(self.LABELS, [[0.1] * 6, probs])
        assert str(rows_error.value) == str(record_error.value)

    def test_the_rules_edges_are_accepted(self):
        probs = [-1e-9, 1.0 + 1e-9, 0.0, 1.0, 0.5, 0.25]
        for p in probs:
            ProbabilityRecord(self.LABELS[0], p)
        assert Readout(self.LABELS, probs).probabilities.tolist() == probs

    def test_length_mismatch_is_refused(self):
        with pytest.raises(InvalidParameterError):
            Readout(self.LABELS, [0.1] * 5)
        with pytest.raises(InvalidParameterError):
            Readout(self.LABELS, [[0.1] * 6])
        with pytest.raises(InvalidParameterError):
            Readout(self.LABELS, [0.1] * 6, [False] * 5)
        with pytest.raises(InvalidParameterError):
            Readout.rows(self.LABELS, [[0.1] * 5])
        with pytest.raises(InvalidParameterError):
            Readout.rows(self.LABELS, [[0.1] * 6], [[False] * 6, [True] * 6])

    def test_arrays_are_read_only_copies(self):
        probs = np.full(6, 0.1)
        flags = np.zeros(6, dtype=bool)
        readouts = [Readout(self.LABELS, probs, flags), *Readout.rows(self.LABELS, [probs], [flags])]
        probs[0], flags[0] = 0.9, True
        for readout in readouts:
            assert readout.probabilities.dtype == np.float64 and readout.degenerate.dtype == bool
            assert readout.probabilities[0] == 0.1 and not readout.degenerate[0]
            for array in (readout.probabilities, readout.degenerate):
                with pytest.raises(ValueError):
                    array[0] = 0.5
                with pytest.raises(ValueError):
                    array.flags.writeable = True
            with pytest.raises(AttributeError):
                readout.labels = ()

    def test_sequence_behaviour(self):
        probs = [0.1, 0.2, 0.3, 0.15, 0.05, 0.2]
        flags = [False, True, False, False, True, False]
        readout = Readout(self.LABELS, probs, flags)
        records = [ProbabilityRecord(lab, p, f) for lab, p, f in zip(self.LABELS, probs, flags)]
        assert len(readout) == 6 and readout
        assert list(readout) == records
        assert [readout[i] for i in range(-6, 6)] == records + records
        assert list(readout[1:4]) == records[1:4]
        assert isinstance(readout[1:4], Readout)
        with pytest.raises(IndexError):
            readout[6]
        assert records[2] in readout
        empty = Readout((), [])
        assert not empty and len(empty) == 0 and list(empty) == []
        assert list(Readout(self.LABELS, probs)) == [
            ProbabilityRecord(lab, p) for lab, p in zip(self.LABELS, probs)
        ]

    def test_rows_share_one_label_tuple(self):
        rows = Readout.rows(list(self.LABELS), np.full((3, 6), 1 / 6))
        assert len(rows) == 3
        assert rows[0].labels is rows[1].labels is rows[2].labels
        assert rows[0].degenerate is None
