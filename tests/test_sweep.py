import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from rabisweep import experiments, model, operators, sweep
from rabisweep.errors import InvalidParameterError, NumericalInstabilityError, ResourceLimitError
from rabisweep.experiments import ExperimentSpec, convergence_scan, lz_window, run_experiment
from rabisweep.model import (
    EVEN_SECTOR,
    ODD_SECTOR,
    Mode,
    MultiModeParams,
    ProbabilityRecord,
    QrmParams,
    build_multimode,
    build_qrm,
    displaced_level_fits,
    displaced_state,
    epsilon_ramp,
    parity_block_ladder,
    parity_sector_basis,
    scheme_basis,
    superradiant_state,
)
from rabisweep.operators import SIGMA_X, StateVector, eig_hermitian
from rabisweep.presets import (
    PRESETS,
    lz_scan_spec,
    lz_trace_spec,
    qrm_params,
    quench_scan_spec,
    quench_trace_spec,
)
from rabisweep.sweep import (
    RateBlock,
    SweepSchedule,
    Trajectory,
    _evolve_linear,
    eigen_level_series,
    greedy_label_assignment,
    ground_state,
    project_records,
    readout_columns,
    run_sweep,
)

RNG = np.random.default_rng(23)


def symmetric(dim):
    m = RNG.normal(size=(dim, dim))
    return 0.5 * (m + m.T)


def block_ground(p: QrmParams, delta_value: float) -> StateVector:
    basis, _ = parity_sector_basis(p, EVEN_SECTOR)
    h = basis.conj().T @ build_qrm(replace(p, delta=delta_value)) @ basis
    _, vecs = eig_hermitian(h)
    return StateVector(vecs[:, 0], EVEN_SECTOR)


def block_parts(p: QrmParams) -> tuple[np.ndarray, np.ndarray]:
    """The even block's (A, B) of a gap sweep: what a quench table's setup
    hands each of its runs."""
    return sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)


def final_records(p, traj, scheme, sector=None):
    return project_records(*readout_columns(p, scheme, sector), traj.final_state)


def eigen_records(h, p, scheme, amplitudes, sector=None):
    """Populations of the eigenstates of h, each named by its best-matching
    state of the scheme."""
    _, vecs = eig_hermitian(h)
    labels = greedy_label_assignment(*readout_columns(p, scheme, sector), vecs)
    return project_records(vecs, labels, amplitudes)


class TestSchedule:
    def test_total_time(self):
        s = SweepSchedule("delta", 200.0, 0.0, 50.0, n_steps=2000)
        assert s.total_time == 4.0
        # A run without sample steps returns its start and its end.
        assert s.sample_steps is None

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SweepSchedule("gap", 1.0, 0.0, 1.0)
        # Parts and ground states refuse an unknown parameter as a schedule
        # does; a single-mode "gap" was a bias sweep's parts.
        p = QrmParams(0.5, 0.0, 1.0, 0.7, 6)
        mm = MultiModeParams(0.5, (Mode(1.0, 0.4, 3),))
        for params, parameter in ((p, "gap"), (p, "omega"), (mm, "gap")):
            with pytest.raises(InvalidParameterError, match="unknown sweep parameter"):
                sweep.hamiltonian_parts(params, parameter)
            with pytest.raises(InvalidParameterError, match="unknown sweep parameter"):
                ground_state(params, parameter, 0.3)
        with pytest.raises(InvalidParameterError):
            SweepSchedule("delta", 1.0, 0.0, -1.0)
        with pytest.raises(InvalidParameterError):
            SweepSchedule("delta", 1.0, 0.0, 1.0, n_steps=10)
        # Sample steps lie in [0, n_steps] and are ordered; repeats are
        # allowed. A run samples at least one step.
        for steps in ((20_001,), (-1,), (10, 5), (), 5):
            with pytest.raises(InvalidParameterError):
                SweepSchedule("delta", 1.0, 0.0, 1.0, sample_steps=steps)
        s = SweepSchedule("delta", 1.0, 0.0, 1.0, sample_steps=[0, np.int64(5), 5, 20_000])
        assert s.sample_steps == (0, 5, 5, 20_000)
        assert all(type(k) is int for k in s.sample_steps)

    def test_refuses_nan_sample_times(self):
        # Samples are step indices: NaN, fractional and float-valued steps
        # are refused, not rounded.
        for steps in ((0, math.nan), (math.nan,), (0.5,), (1.0,)):
            with pytest.raises(InvalidParameterError, match="integer"):
                SweepSchedule("delta", 1.0, 0.0, 1.0, sample_steps=steps)

    def test_zero_length_sweep_is_identity(self):
        p = QrmParams(1.0, 0.0, 1.0, 0.7, 12)
        psi0 = block_ground(p, 1.0)
        s = SweepSchedule("delta", 1.0, 1.0, 3.0, n_steps=1000)
        traj = run_sweep(p, block_parts(p), s, psi0)
        overlap = abs(np.vdot(traj.final_state, psi0.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("parameter", ["delta", "epsilon"])
    def test_state_of_the_wrong_dimension_is_refused(self, parameter):
        # A bias-free full-space gap sweep weighs psi0's parity before it
        # propagates; the dimension is checked ahead of that product.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        psi0 = StateVector(np.ones(30, dtype=complex) / np.sqrt(30))
        s = SweepSchedule(parameter, 20.0, 0.0, 1e3, n_steps=1000)
        with pytest.raises(InvalidParameterError, match="dimension 30"):
            run_sweep(p, sweep.hamiltonian_parts(p, parameter), s, psi0)

    @pytest.mark.parametrize("sector", [None, EVEN_SECTOR], ids=["full-space", "block"])
    def test_parts_that_do_not_fit_psi0_are_refused(self, monkeypatch, sector):
        # Full-space parts with a parity-block state, and block parts with
        # a full-space state: refused before any step.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        psi0 = ground_state(p, "delta", 20.0, sector)
        parts = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR if sector is None else None)
        assert parts[0].shape[0] != psi0.dim
        evolve = mock.Mock(wraps=sweep._evolve_linear)
        monkeypatch.setattr(sweep, "_evolve_linear", evolve)
        s = SweepSchedule("delta", 20.0, 0.0, 1e3, n_steps=1000)
        for schedule in (s, RateBlock((s, replace(s, rate_v=1e4)))):
            with pytest.raises(InvalidParameterError, match="do not fit"):
                run_sweep(p, parts, schedule, psi0)
        assert evolve.call_count == 0
        # The same state runs under the parts of its own space.
        run_sweep(p, sweep.hamiltonian_parts(p, "delta", sector), s, psi0)
        assert evolve.call_count == 1


class TestEngine:
    def test_backends_agree(self):
        # The one Chebyshev kernel runs at every dimension and must match a
        # per-step exponential of the midpoint H: at dim 24, at the small
        # dimension 12 and in the two-level limit, dim 2. The reference
        # steps come from one batched eigh of the midpoints per case, except
        # at dims 12 and 2, which keep a dense matrix exponential as an
        # independent check, and on the zero ramp, whose 1,500 equal steps
        # would compound the eigenvectors' rounding to 1e-12.
        # The kernel rewrites only the entries where h1 is nonzero,
        # so its ramps are dense, diagonal (sector gap and bias sweeps),
        # sparse off-diagonal (full-space gap sweep) and zero, all real
        # symmetric like every model Hamiltonian. Each case runs alone, as a
        # block of two rates 10x apart, faster first, so the block reorders
        # its columns, and as a block of three rates spanning 100x, whose
        # fewer-term runs drop out of the later orders: those orders multiply
        # only the leading rows, the slower runs' real and imaginary parts,
        # not every run's rows. A run of duration 1e-13 keeps the two terms
        # that the kernel always forms (z < 1e-14). Every block column must
        # match its single-run propagation to 1e-14 after one step and to
        # 1e-13 after 750 and 1500: BLAS sums a product of another height in
        # another order, and that rounding walks to about 5e-14 by step
        # 1500. The sample at step 1 would be overwritten if it aliased the
        # working stack.
        f_start, f_end, total_time, n_steps = -2.0, 3.0, 5.0, 1500
        samples = [1, 750, 1500]

        def diagonal(dim):
            return np.diag(RNG.normal(size=dim))

        def by_eigh(h_mid):
            w, v = np.linalg.eigh(h_mid)
            return lambda dt: (v * np.exp(-1j * dt * w)[:, None, :]) @ v.conj().transpose(0, 2, 1)

        def by_expm(h_mid):
            return lambda dt: expm(-1j * dt * h_mid)

        cases = [
            (12, symmetric, symmetric, by_expm),
            (24, symmetric, symmetric, by_eigh),
            (24, symmetric, diagonal, by_eigh),
            (24, symmetric, lambda dim: np.kron(SIGMA_X, np.eye(dim // 2)), by_eigh),
            (24, symmetric, lambda dim: np.zeros((dim, dim)), by_expm),
            (2, symmetric, symmetric, by_expm),
        ]
        blocks = [
            [total_time / 10, total_time],
            [total_time / 100, total_time, total_time / 10],
        ]
        tiny = 1e-13
        for dim, static, ramp, reference in cases:
            h0 = static(dim)
            h1 = ramp(dim)
            psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
            psi /= np.linalg.norm(psi)

            def evolve(times):
                return _evolve_linear(h0, h1, f_start, f_end, times, n_steps, psi, samples)

            single = {t: evolve([t])[0] for t in (total_time, total_time / 10, total_time / 100)}
            single[tiny], tiny_terms = evolve([tiny])
            assert all(sampled.shape == (1, 3, dim) for sampled in single.values())
            assert tiny_terms == [2], dim
            f_mid = f_start + (f_end - f_start) * ((np.arange(n_steps) + 0.5) / n_steps)
            steps_of = reference(h0 + f_mid[:, None, None] * h1)
            refs = {}
            for run_time in single:
                ref = psi
                for k, step in enumerate(steps_of(run_time / n_steps)):
                    ref = step @ ref
                    if k + 1 in samples:
                        refs[run_time, k + 1] = ref
            columns = [
                (t, sampled[0, i], k) for t, sampled in single.items() for i, k in enumerate(samples)
            ]
            for block_times in blocks:
                block, terms = evolve(block_times)
                # Terms fall with the rate, so the block takes the
                # leading-row product at some order.
                assert len(set(terms)) == len(block_times), (dim, terms)
                assert block.shape == (len(block_times), len(samples), dim)
                for j, t in enumerate(block_times):
                    for i, k in enumerate(samples):
                        column = block[j, i]
                        diff = np.linalg.norm(column - single[t][0, i])
                        assert diff < (1e-14 if k == 1 else 1e-13), (dim, block_times, j, k)
                        columns.append((t, column, k))
            for run_time, column, k in columns:
                assert np.linalg.norm(column - refs[run_time, k]) < 1e-12, (dim, run_time, k)

    def test_the_entry_table_at_its_edges(self):
        # A step takes its ramp entries from a table of 64 steps, filled
        # once per sub-block of a chunk. With 1,100 steps the second chunk
        # (steps 1024-1099) and its last sub-block (1088-1099) are partial.
        # The samples sit on each side of the first sub-block's edge (64),
        # the first chunk's edge (1024) and the end. Dense, diagonal and
        # sigma_x (x) I ramps each match a per-step exponential of the
        # midpoint H from one batched eigh to 1e-12, and every column of a
        # block of three rates its single run to 1e-13.
        dim, f_start, f_end, total_time, n_steps = 16, -2.0, 3.0, 5.0, 1100
        samples = [63, 64, 65, 1023, 1024, 1025, 1100]
        times = [total_time / 10, total_time, total_time / 100]
        ramps = [
            symmetric,
            lambda dim: np.diag(RNG.normal(size=dim)),
            lambda dim: np.kron(SIGMA_X, np.eye(dim // 2)),
        ]
        f_mid = f_start + (f_end - f_start) * ((np.arange(n_steps) + 0.5) / n_steps)
        for ramp in ramps:
            h0, h1 = symmetric(dim), ramp(dim)
            psi = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
            psi /= np.linalg.norm(psi)
            block, _ = _evolve_linear(h0, h1, f_start, f_end, times, n_steps, psi, samples)
            assert block.shape == (len(times), len(samples), dim)
            w, v = np.linalg.eigh(h0 + f_mid[:, None, None] * h1)
            for j, run_time in enumerate(times):
                alone, _ = _evolve_linear(h0, h1, f_start, f_end, [run_time], n_steps, psi, samples)
                ref = psi
                for k in range(n_steps):
                    ref = v[k] @ (np.exp(-1j * (run_time / n_steps) * w[k]) * (v[k].T @ ref))
                    if k + 1 in samples:
                        i = samples.index(k + 1)
                        assert np.linalg.norm(alone[0, i] - ref) < 1e-12, (run_time, k)
                        assert np.linalg.norm(block[j, i] - ref) < 1e-12, (run_time, k)
                        diff = np.linalg.norm(block[j, i] - alone[0, i])
                        assert diff < 1e-13, (run_time, k)

    def test_chebyshev_series_stops_where_its_tail_bound_does(self):
        # K kept orders: the first K whose dropped tail 2 sum_{k >= K} |J_k(z)|
        # is below the tolerance (at least 2), which bounds each step's
        # truncation error since |T_k| <= 1 on [-1, 1]. On the grid x = j/32,
        # z x is exact for z >= 1 and rounds by under 1e-18 below, so
        # exp(-i z x) carries only its own rounding.
        # The cut is the one scipy's jv gives; its values only decide the cut
        # here, since at z = 100 they are off by up to 3e-15 each, and the
        # Miller J_k that the series uses by under 2e-16. Through z = 10 the
        # kept series matches exp(-i z x) to 1e-15, to 5e-15 through z = 100
        # and to 5e-14 at z = 300: the rounding of its 153 and 375 terms.
        tol = sweep._CHEB_COEFF_TOL
        x = np.linspace(-1.0, 1.0, 65)
        counts = []
        for z in (0.0, 1e-15, 1e-4, 0.01, 1.0, 10.0, 40.0, 100.0, 300.0):
            coeffs = sweep._chebyshev_coefficients(z)
            cut = len(coeffs)
            bessels = np.abs(jv(np.arange(cut + 200), z))
            tails = 2.0 * np.cumsum(bessels[::-1])[::-1]
            assert tails[cut] < tol, z
            assert cut == 2 or tails[cut - 1] >= tol, z
            series = np.polynomial.chebyshev.chebval(x, coeffs)
            bound = 1e-15 if z <= 10.0 else 5e-15 if z <= 100.0 else 5e-14
            assert np.max(np.abs(series - np.exp(-1j * z * x))) < bound, z
            counts.append(cut)
        assert counts[:2] == [2, 2]
        assert counts == sorted(counts)

    def test_bessel_values_match_scipy(self):
        # Miller's backward recurrence against scipy's jv, order by order,
        # and against its own normalization J_0 + 2 sum_k J_{2k} = 1. jv is
        # itself off by up to 2.8e-16 near z = 2-3 (against 40 digits), so
        # accuracy is checked against mpmath below.
        for z in (1e-14, 1e-4, 0.01, 0.1, 1.0, 2.5, 5.0, 10.0):
            k_max = int(z + 12.0 * z ** (1.0 / 3.0) + 30.0)
            bessels = sweep._bessel_j(z, k_max)
            assert np.max(np.abs(bessels - jv(np.arange(k_max + 1), z))) < 2e-16, z
            assert abs(bessels[0] + 2.0 * bessels[2::2].sum() - 1.0) < 3e-16, z

    def test_bessel_values_match_mpmath(self):
        # Against 40-digit values, the recurrence holds 2e-16 through z = 300,
        # where jv drifts to 6e-15.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for z in (0.001, 1.0, 10.0, 40.0, 100.0, 300.0):
                k_max = int(z + 12.0 * z ** (1.0 / 3.0) + 30.0)
                exact = np.array([float(mpmath.besselj(k, z)) for k in range(k_max + 1)])
                assert np.max(np.abs(sweep._bessel_j(z, k_max) - exact)) < 2e-16, z

    def test_chebyshev_terms_of_a_pinned_quench(self):
        # The g/omega = 1 even-block quench over 200 -> 0 at v/omega^2 = 1e3,
        # 1e4 and 1e5 in 4,000 steps: no term past the tail bound is kept.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 64)
        base = SweepSchedule("delta", 200.0, 0.0, 1e3, n_steps=4000)
        block = RateBlock(tuple(replace(base, rate_v=r) for r in (1e3, 1e4, 1e5)))
        runs = run_sweep(p, block_parts(p), block, block_ground(p, 200.0))
        assert [traj.chebyshev_terms for traj in runs] == [6, 5, 4]

    def test_chebyshev_tail_that_never_falls_is_refused(self, monkeypatch):
        monkeypatch.setattr(sweep, "_CHEB_COEFF_TOL", 0.0)
        with pytest.raises(NumericalInstabilityError, match="Chebyshev tail"):
            sweep._chebyshev_coefficients(1.0)

    @pytest.mark.parametrize("z", [math.inf, math.nan, 2.0 * sweep._CHEB_Z_MAX])
    def test_chebyshev_argument_past_the_limit_is_refused(self, z):
        # A z that is not finite or above the limit is refused before any
        # Bessel order is sized by it.
        with pytest.raises(NumericalInstabilityError, match="Chebyshev argument"):
            sweep._chebyshev_coefficients(z)

    def test_a_step_past_the_limit_names_the_steps_that_fit(self):
        # 1e9 -> 0 at v = 0.1 in 1,000 steps: r ~ 5e8 and dt = 1e7, so z ~ 5e15,
        # refused from the Gershgorin bounds before any chunk runs.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        slow = SweepSchedule("delta", 1e9, 0.0, 0.1, n_steps=1000)
        with pytest.raises(NumericalInstabilityError, match=r"z = r dt = 5(\.\d+)?e\+15") as info:
            run_sweep(p, block_parts(p), slow, block_ground(p, 1e9))
        fit = int(str(info.value).rsplit(": ", 1)[1].split()[0])
        lo, hi = sweep._gershgorin_bounds(
            *sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR), np.array([1e9, 0.0])
        )
        radius = 0.5 * (hi - lo)
        cap = sweep._CHEB_Z_MAX
        assert radius * slow.total_time / fit <= cap < radius * slow.total_time / (fit - 1)
        # An overflowing z names no step count.
        far = SweepSchedule("delta", 1e308, 0.0, 1.0, n_steps=1000)
        with pytest.raises(NumericalInstabilityError, match="no step count fits"):
            run_sweep(p, block_parts(p), far, block_ground(p, 1e308))

    def test_a_stack_past_the_cap_is_refused_before_it_is_allocated(self):
        # 40 runs at dim 64 whose slowest step spans z ~ 5e4: about 5e4
        # orders of 40 kB, 2 GB, refused from the whole ramp's z with the
        # bytes it needs and a step count whose stack fits.
        h0 = symmetric(64)
        h1 = np.diag(np.linspace(-1.0, 1.0, 64))
        lo, hi = sweep._gershgorin_bounds(h0, h1, np.array([0.0, 1.0]))
        n_steps = 1000
        slowest = 5e4 * n_steps / (0.5 * (hi - lo))
        times = slowest * np.linspace(1.0, 0.5, 40)
        psi0 = np.eye(64)[0]
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=r"needs (\d+) bytes") as info:
                _evolve_linear(h0, h1, 0.0, 1.0, times, n_steps, psi0, [n_steps])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        message = str(info.value)
        order_bytes = 16 * 64 * 40
        assert int(message.split("needs ")[1].split()[0]) == order_bytes * len(
            sweep._chebyshev_coefficients(5e4)
        ) > sweep._CHEB_STACK_BYTES_MAX
        fit = int(message.rsplit(": ", 1)[1].split()[0])

        def stack(steps):
            return order_bytes * len(sweep._chebyshev_coefficients(5e4 * n_steps / steps))

        assert stack(fit) <= sweep._CHEB_STACK_BYTES_MAX < stack(int(0.97 * fit))

    def test_the_z_limit_is_far_above_every_preset_and_its_audits(self):
        # The largest z = r dt of any step, from the whole ramp's Gershgorin
        # bounds and the slowest rate, without propagating: the limit is 10x
        # above every preset at 1x and at 4x of each audit knob. Two 4x
        # n_fock cases are left out, whose dense parts would be large
        # (fig1d_long at dim 7,168, 1,728 against 6,450 at its 4x endpoint;
        # multimode_small at dim 3,072, 49 against 68). The Chebyshev stack
        # cap is above them too: the largest stack, 0.67 GB, is that
        # of fig1d_long's 4x endpoint audit.
        largest = 0.0
        largest_stack = 0
        for preset in PRESETS.values():
            spec = preset.build()
            if not spec.options.get("simulate", True):
                continue
            for knob in (None, *experiments.AUDIT_KNOBS):
                run = spec if knob is None else experiments._scaled_spec(spec, knob, 4)
                if run.params.dim > 2000:
                    continue
                _, far = experiments._endpoint_option(run)
                quench = run.kind.startswith("quench")
                parts = sweep.hamiltonian_parts(
                    run.params, "delta" if quench else "epsilon", EVEN_SECTOR if quench else None
                )
                ends = (0.0, far) if quench else (-far, far)
                lo, hi = sweep._gershgorin_bounds(*parts, np.array(ends))
                slowest = run.options.get("rate", run.scan_values[0]) * experiments._rate_unit(run)
                z = 0.5 * (hi - lo) * (ends[1] - ends[0]) / slowest / run.n_steps
                largest = max(largest, z)
                runs = 1 if "rate" in run.options else len(run.scan_values)
                stack = 16 * parts[0].shape[0] * runs * len(sweep._chebyshev_coefficients(z))
                largest_stack = max(largest_stack, stack)
        assert 6000.0 < largest < 0.1 * sweep._CHEB_Z_MAX
        assert 6e8 < largest_stack < 0.7 * sweep._CHEB_STACK_BYTES_MAX

    @pytest.mark.parametrize("dim", [12, 24])
    def test_refuses_complex_parts(self, dim):
        # The propagator takes real symmetric parts only, at a small
        # dimension as at a larger one; a complex part is refused whatever
        # its imaginary entries.
        real = symmetric(dim)
        psi = np.eye(dim, dtype=complex)[0]
        for h0, h1 in ((real.astype(complex), real), (real, real.astype(complex))):
            with pytest.raises(InvalidParameterError, match="real symmetric"):
                _evolve_linear(h0, h1, 0.0, 1.0, [1.0], 1000, psi, [1000])

    @pytest.mark.parametrize("shape", [(1,), (13,), (192,), (3, 2, 11), (5, 6, 192)])
    def test_aligned_zeros_start_on_a_cache_line(self, shape):
        # Zeroed, C-contiguous and writeable, on a 64-byte line, at sizes
        # that are and are not multiples of 8 entries; a few allocations
        # each, so that more than one starting address is met.
        for _ in range(4):
            buf = sweep._aligned_zeros(shape)
            assert buf.shape == shape and buf.dtype == np.float64
            assert buf.flags.c_contiguous and buf.flags.writeable
            assert buf.ctypes.data % 64 == 0
            assert not buf.any()
            buf[...] = 1.0
            assert buf.sum() == math.prod(shape)

    def test_every_buffer_blas_reads_starts_on_a_cache_line(self, monkeypatch):
        # The sn quench 0 -> 200 over two chunks of 1,024 steps: the radius
        # grows with the gap, so the second chunk needs more orders and the
        # stack regrows. Every buffer the propagator hands to BLAS comes
        # from _aligned_zeros and starts on a line: the stack as first made
        # and as each chunk grows it, h2 and every run's partial sums.
        made = []
        aligned_zeros = sweep._aligned_zeros

        def spy(shape):
            made.append(aligned_zeros(shape))
            return made[-1]

        monkeypatch.setattr(sweep, "_aligned_zeros", spy)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        h0, h1 = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        n_steps = 2048
        base = SweepSchedule("delta", 0.0, 200.0, 10.0, n_steps=n_steps)
        schedules = tuple(replace(base, rate_v=r) for r in (100.0, 1e3))
        n_max = []
        for _, f_mid in sweep._chunk_midpoints(0.0, 200.0, n_steps):
            lo, hi = sweep._gershgorin_bounds(h0, h1, f_mid)
            radius = 0.5 * (hi - lo) + 1e-300
            n_max.append(max(
                len(sweep._chebyshev_coefficients(radius * s.total_time / n_steps))
                for s in schedules
            ))
        assert len(n_max) == 2 and n_max[0] < n_max[1]
        run_sweep(p, block_parts(p), RateBlock(schedules), block_ground(p, 0.0))
        assert [buf.shape for buf in made] == [
            (1, 4, 32), (32, 32), (2, 2, 2, 32), (n_max[0], 4, 32), (n_max[1], 4, 32)
        ]
        assert all(buf.ctypes.data % 64 == 0 for buf in made)

    def test_two_level_crossing_matches_survival_formula(self):
        # Bias sweep over +-100 delta at v = delta^2: survival within 5e-3.
        p = QrmParams(1.0, 0.0, 1.0, 0.0, 2)
        s = SweepSchedule("epsilon", -100.0, 100.0, 1.0, n_steps=100_000)
        psi0 = displaced_state(p, "down", 0)
        traj = run_sweep(p, sweep.hamiltonian_parts(p, "epsilon"), s, psi0)
        p_down = sum(
            r.probability for r in final_records(p, traj, "bare") if r.label.qubit == "down"
        )
        assert abs(p_down - math.exp(-math.pi / 2.0)) <= 5e-3

    def test_norm_is_conserved(self):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        s = SweepSchedule(
            "delta", 200.0, 0.0, 100.0, n_steps=5000, sample_steps=tuple(range(0, 5001, 625))
        )
        traj = run_sweep(p, block_parts(p), s, block_ground(p, 200.0))
        assert traj.max_norm_deviation <= 1e-10

    def test_states_are_one_read_only_block(self):
        # One column per sample step, a repeated step included; the final
        # state is the last column and the run's end state alike.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        psi0 = block_ground(p, 20.0)
        s = SweepSchedule(
            "delta", 20.0, 0.0, 1e3, n_steps=1000, sample_steps=(0, 500, 500, 1000)
        )
        traj = run_sweep(p, block_parts(p), s, psi0)
        assert traj.states.dtype == complex and traj.states.shape == (16, 4)
        assert traj.schedule.sample_steps == (0, 500, 500, 1000)
        assert traj.states.flags.writeable is False
        with pytest.raises(ValueError):
            traj.states[0, 0] = 0.0
        assert np.array_equal(traj.states[:, 1], traj.states[:, 2])
        assert np.allclose(np.linalg.norm(traj.states, axis=0), 1.0, atol=1e-14)
        assert np.allclose(traj.states[:, 0], psi0.amplitudes, atol=1e-15)
        end = run_sweep(p, block_parts(p), replace(s, sample_steps=None), psi0)
        assert np.array_equal(traj.final_state, traj.states[:, -1])
        assert np.array_equal(traj.final_state, end.final_state)


class TestConservation:
    def test_parity_leakage_full_space(self):
        # Full-space bias-free sweep from an even-sector state: the odd sector
        # must stay empty to numerical precision.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        psi0 = StateVector(superradiant_state(p, "+", 0).amplitudes)
        s = SweepSchedule(
            "delta", 0.0, 50.0, 25.0, n_steps=20_000, sample_steps=tuple(range(0, 20_001, 1000))
        )
        traj = run_sweep(p, sweep.hamiltonian_parts(p, "delta"), s, psi0)
        assert traj.max_parity_leakage <= 1e-10
        assert traj.max_norm_deviation <= 1e-8

    def test_parity_leakage_full_space_from_an_odd_state(self):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        psi0 = StateVector(superradiant_state(p, "-", 0).amplitudes)
        s = SweepSchedule("delta", 0.0, 20.0, 25.0, n_steps=4000)
        traj = run_sweep(p, sweep.hamiltonian_parts(p, "delta"), s, psi0)
        assert traj.max_parity_leakage <= 1e-10
        even, _ = parity_sector_basis(p, EVEN_SECTOR)
        assert np.sum(np.abs(even.T @ traj.final_state) ** 2) <= 1e-10

    def test_leaked_weight_is_the_other_sectors_projection(self):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 12)
        states = RNG.normal(size=(3, 5, p.dim)) + 1j * RNG.normal(size=(3, 5, p.dim))
        for sign, other in ((+1, ODD_SECTOR), (-1, EVEN_SECTOR)):
            basis, _ = parity_sector_basis(p, other)
            want = np.sum(np.abs(states @ basis) ** 2, axis=-1)
            assert np.allclose(sweep._weight_outside(p, states, sign), want, rtol=1e-13, atol=0)

    def test_parity_leakage_unmeasured_from_a_mixed_state(self):
        # A state of no definite parity has no sector to leak from.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        mixed = superradiant_state(p, "+", 0).amplitudes + superradiant_state(p, "-", 0).amplitudes
        s = SweepSchedule("delta", 0.0, 20.0, 25.0, n_steps=1000)
        traj = run_sweep(
            p, sweep.hamiltonian_parts(p, "delta"), s, StateVector(mixed / np.linalg.norm(mixed))
        )
        assert traj.max_parity_leakage is None

    def test_parity_leakage_unmeasured_in_a_sector_run(self):
        # A parity-block run cannot leave its block, so leakage is not
        # measured and reads None rather than a conserved-looking 0.0.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        s = SweepSchedule("delta", 20.0, 0.0, 1e3, n_steps=1000)
        traj = run_sweep(p, block_parts(p), s, block_ground(p, 20.0))
        assert traj.max_parity_leakage is None

    def test_time_reversal_fidelity(self):
        # H(t) is real in the parity block, so the reversed ramp run from the
        # conjugated final state retraces the forward midpoint sequence and
        # must land on conj(psi0).
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        s = SweepSchedule("delta", 200.0, 0.0, 2000.0, n_steps=4000)
        psi0 = block_ground(p, 200.0)
        forward = run_sweep(p, block_parts(p), s, psi0)
        echo = StateVector(forward.final_state.conj(), EVEN_SECTOR)
        back = run_sweep(p, block_parts(p), s.reversed(), echo)
        fid = abs(np.vdot(back.final_state, psi0.amplitudes.conj())) ** 2
        assert fid >= 1.0 - 1e-6


class TestAccuracyScalings:
    def test_step_halving_is_second_order(self):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = block_ground(p, 200.0)

        def final_probs(n_steps):
            s = SweepSchedule("delta", 200.0, 0.0, 10.0, n_steps=n_steps)
            traj = run_sweep(p, block_parts(p), s, psi0)
            recs = final_records(p, traj, "superradiant", EVEN_SECTOR)
            return np.array([r.probability for r in recs])

        probs = {n: final_probs(n) for n in (1000, 2000, 4000, 8000)}
        d1 = np.max(np.abs(probs[2000] - probs[1000]))
        d2 = np.max(np.abs(probs[4000] - probs[2000]))
        d3 = np.max(np.abs(probs[8000] - probs[4000]))
        assert 3.5 <= d1 / d2 <= 4.5
        assert 3.5 <= d2 / d3 <= 4.5

    def test_adiabatic_limit_monotone(self):
        # Ground-state survival grows as the rate drops, checked over a
        # decade below the knee of the g/omega = 1 quench.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = block_ground(p, 200.0)
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        h_final = basis.conj().T @ build_qrm(replace(p, delta=0.0)) @ basis
        _, final_vecs = eig_hermitian(h_final)
        base = SweepSchedule("delta", 200.0, 0.0, 0.3, n_steps=20_000)
        block = RateBlock(tuple(replace(base, rate_v=r) for r in (0.3, 0.1, 0.03)))
        survivals = [
            abs(np.vdot(final_vecs[:, 0], traj.final_state)) ** 2
            for traj in run_sweep(p, block_parts(p), block, psi0)
        ]
        assert survivals[0] < survivals[1] < survivals[2]
        assert survivals[-1] > 0.999


class TestInstantaneousPopulations:
    def test_ground_state_reads_one(self):
        p = QrmParams(3.0, 0.0, 1.0, 0.8, 24)
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        h = basis.conj().T @ build_qrm(p) @ basis
        _, vecs = eig_hermitian(h)
        recs = eigen_records(h, p, "normal", vecs[:, 0], EVEN_SECTOR)
        top = max(recs, key=lambda r: r.probability)
        assert top.probability == pytest.approx(1.0, abs=1e-12)
        assert (top.label.qubit, top.label.photons) == ("right", 0)

    def test_completeness(self):
        p = QrmParams(1.3, 0.0, 1.0, 0.8, 24)
        amp = RNG.normal(size=p.dim) + 1j * RNG.normal(size=p.dim)
        recs = eigen_records(build_qrm(p), p, "superradiant", amp / np.linalg.norm(amp))
        assert abs(sum(r.probability for r in recs) - 1.0) <= 1e-10

    def test_zero_gap_matches_doublet_projection(self):
        p = QrmParams(0.0, 0.0, 1.0, 2.0, 64)
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        h = basis.conj().T @ build_qrm(replace(p, delta=1.0)) @ basis
        _, vecs = eig_hermitian(h)
        mix = (vecs[:, 0] + 0.5 * vecs[:, 1] + 0.25 * vecs[:, 3]).astype(complex)
        mix /= np.linalg.norm(mix)
        h0 = basis.conj().T @ build_qrm(p) @ basis
        recs = eigen_records(h0, p, "superradiant", mix, EVEN_SECTOR)
        full = basis @ mix
        fits = [
            r for r in recs if displaced_level_fits(p.g_over_omega, r.label.photons, p.n_fock)
        ]
        assert len(fits) == 27
        for rec in fits:
            direct = abs(np.vdot(
                superradiant_state(p, rec.label.qubit, rec.label.photons).amplitudes, full
            )) ** 2
            assert abs(rec.probability - direct) <= 1e-8

    def test_sector_readout_refuses_bias(self):
        # A bias breaks parity, so no parity block holds the eigenstates.
        p = QrmParams(1.0, 0.5, 1.0, 0.8, 16)
        with pytest.raises(InvalidParameterError):
            ground_state(p, "delta", 1.0, EVEN_SECTOR)


class TestEigenLevelSeries:
    def test_block_matches_dense_eigh(self):
        # The fig1a/fig2a even block over the span of its quench.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 64)
        h0, h1 = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        values = np.linspace(200.0, 0.0, 41)
        states = RNG.normal(size=(64, 41)) + 1j * RNG.normal(size=(64, 41))
        states /= np.linalg.norm(states, axis=0)
        pops, vals, flags = eigen_level_series(
            parity_block_ladder(p, EVEN_SECTOR), values, states, {}
        )
        assert pops.shape == vals.shape == flags.shape == (41, 64)
        for i, (value, amp) in enumerate(zip(values, states.T)):
            w, v = np.linalg.eigh(h0 + value * h1)
            assert np.max(np.abs(pops[i] - np.abs(v.T @ amp) ** 2)) <= 1e-14
            assert np.max(np.abs(vals[i] - w)) <= 1e-14 * np.max(np.abs(w))
            tight = np.diff(w) <= sweep.DEGENERACY_WARN_RTOL * np.max(np.abs(w))
            expected = np.zeros(64, dtype=bool)
            expected[:-1] |= tight
            expected[1:] |= tight
            assert np.array_equal(flags[i], expected)

    def test_one_solve_per_distinct_value(self, monkeypatch):
        # Repeated values, in any order, share one solve and read out
        # exactly as each value's own series does.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        h0, h1 = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        values = np.array([5.0, 0.0, 5.0, 2.0, 0.0, 0.0])
        states = RNG.normal(size=(16, 6)) + 1j * RNG.normal(size=(16, 6))
        states /= np.linalg.norm(states, axis=0)
        ladder = parity_block_ladder(p, EVEN_SECTOR)
        single = [
            eigen_level_series(ladder, values[[i]], states[:, [i]], {}) for i in range(6)
        ]
        solve = mock.Mock(wraps=sweep._tridiagonal_eigh)
        monkeypatch.setattr(sweep, "_tridiagonal_eigh", solve)
        series = eigen_level_series(ladder, values, states, {})
        assert solve.call_count == 3
        for got, want in zip(series, (np.concatenate(parts) for parts in zip(*single))):
            assert got.tobytes() == want.tobytes()
        # A value already solved is read with that solve, not solved again.
        solved = {0.0: sweep._tridiagonal_eigh(*ladder, 0.0)}
        again = eigen_level_series(ladder, values, states, solved)
        assert solve.call_count == 3 + 1 + 2
        for got, want in zip(again, series):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "case", ["full space", "complex", "short e", "short d1", "empty", "two-dimensional d0"]
    )
    def test_other_parts_are_refused(self, monkeypatch, case):
        # A level series takes a ladder (d0, d1, e), checked before any
        # solve: the full space's dense (A, B), a complex d0 (whose
        # imaginary part the solve would drop) and arrays of other lengths
        # or dimensions are refused.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 8)
        d0, d1, e = parity_block_ladder(p, EVEN_SECTOR)
        ladder = {
            "full space": sweep.hamiltonian_parts(p, "delta"),
            "complex": (d0 + 1e-3j, d1, e),
            "short e": (d0, d1, e[:-1]),
            "short d1": (d0, d1[:-1], e),
            "empty": (d0[:0], d1[:0], e[:0]),
            "two-dimensional d0": (np.diag(d0), d1, e),
        }[case]
        solve = mock.Mock(wraps=sweep._tridiagonal_eigh)
        monkeypatch.setattr(sweep, "_tridiagonal_eigh", solve)
        with pytest.raises(InvalidParameterError, match="ladder"):
            eigen_level_series(ladder, np.array([1.0]), np.eye(8)[:, :1], {})
        assert solve.call_count == 0

    @pytest.mark.parametrize("shape", [(8,), (2, 8), (8, 1), (8, 3), (7, 2), (8, 2, 1)])
    def test_states_of_another_shape_are_refused(self, shape):
        # Two values take a (block dim, 2) block: one column per value.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 8)
        states = np.ones(shape, dtype=complex)
        with pytest.raises(InvalidParameterError, match=r"\(8, 2\) block of states"):
            eigen_level_series(
                parity_block_ladder(p, EVEN_SECTOR), np.array([1.0, 0.0]), states, {}
            )

    def test_failed_solve_raises(self, monkeypatch):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 8)
        # The solve imports dstevd at its first call, so it is patched at its source.
        import scipy.linalg.lapack

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", lambda d, e: (d, np.eye(d.size), 3))
        with pytest.raises(NumericalInstabilityError, match="info = 3"):
            eigen_level_series(parity_block_ladder(p, EVEN_SECTOR), [1.0], np.eye(8)[:, :1], {})

    def test_degenerate_pair_is_flagged(self):
        # Levels 1 and 2 share the diagonal entry 2 and no off-diagonal
        # couples them; at f = 1 the ramp lifts level 2 to 3.
        ladder = (
            np.array([0.0, 2.0, 2.0, 5.0, 6.0]),
            np.array([0.0, 0.0, 1.0, 0.0, 0.0]),
            np.array([0.0, 0.0, 0.0, 0.5]),
        )
        states = np.eye(5, dtype=complex)[:, [0, 0]]
        _, vals, flags = eigen_level_series(ladder, np.array([0.0, 1.0]), states, {})
        assert vals[0, 1] == vals[0, 2] == 2.0
        assert flags.tolist() == [
            [False, True, True, False, False],
            [False, False, False, False, False],
        ]

    def test_block_path_never_calls_dense_eigh(self, monkeypatch):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        state = ground_state(p, "delta", 5.0, EVEN_SECTOR).amplitudes

        def no_dense(*args, **kwargs):
            raise AssertionError("dense eigh called on a tridiagonal block")

        monkeypatch.setattr(np.linalg, "eigh", no_dense)
        ladder = parity_block_ladder(p, EVEN_SECTOR)
        pops, _, _ = eigen_level_series(ladder, np.array([5.0, 0.0]), np.stack([state] * 2, 1), {})
        assert pops[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestGroundState:
    @pytest.mark.parametrize("epsilon", [-3.0, 0.0, 0.7])
    def test_full_space_matches_eigh(self, epsilon):
        p = QrmParams(1.3, 0.2, 1.0, 0.8, 12)
        state = ground_state(p, "epsilon", epsilon)
        _, vecs = np.linalg.eigh(build_qrm(replace(p, epsilon=epsilon)))
        assert state.sector is None
        assert abs(np.vdot(vecs[:, 0], state.amplitudes)) ** 2 >= 1.0 - 1e-12

    def test_multimode_matches_eigh(self):
        mm = MultiModeParams(0.6, (Mode(1.0, 0.4, 5), Mode(2.3, 0.3, 4)))
        state = ground_state(mm, "epsilon", -1.5)
        _, vecs = np.linalg.eigh(build_multimode(mm) - 1.5 * epsilon_ramp(mm))
        assert abs(np.vdot(vecs[:, 0], state.amplitudes)) ** 2 >= 1.0 - 1e-12

    @pytest.mark.parametrize("sector", [EVEN_SECTOR, ODD_SECTOR])
    def test_sector_matches_projected_block(self, sector):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        state = ground_state(p, "delta", 2.5, sector)
        basis, _ = parity_sector_basis(p, sector)
        _, vecs = np.linalg.eigh(basis.T @ build_qrm(replace(p, delta=2.5)) @ basis)
        assert state.sector == sector
        assert state.dim == p.n_fock
        assert abs(np.vdot(vecs[:, 0], state.amplitudes)) ** 2 >= 1.0 - 1e-12

    @pytest.mark.parametrize("preset", ["fig1a", "fig6_valid", "multimode_small"])
    def test_lowest_eigenvector_matches_a_one_vector_eigh(self, preset):
        # numpy's full eigh against scipy's one-vector solve at both ends of
        # the preset's ramp: the dim-64 even block of a quench, the dim-64
        # full space of a bias sweep and the dim-192 multimode space.
        from scipy.linalg import eigh

        spec = PRESETS[preset].build()
        _, far = experiments._endpoint_option(spec)
        quench = spec.kind.startswith("quench")
        parts = sweep.hamiltonian_parts(
            spec.params, "delta" if quench else "epsilon", EVEN_SECTOR if quench else None
        )
        assert parts[0].shape == ((64, 64) if preset != "multimode_small" else (192, 192))
        for value in (0.0, far) if quench else (-far, far):
            h = parts[0] + value * parts[1]
            _, ref = eigh(h, subset_by_index=[0, 0])
            vec = sweep._lowest_eigenvector(*parts, value)
            assert abs(np.vdot(ref[:, 0], vec)) >= 1.0 - 1e-12
            residual = h @ vec - (vec @ h @ vec) * vec
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(h, 2)

    @pytest.mark.parametrize("rates", [(1e3,), (1e3, 1e4), (1e2, 1e3, 1e4)])
    @pytest.mark.parametrize(
        "parameter, sector, leak_measured",
        [("delta", EVEN_SECTOR, False), ("delta", None, True), ("epsilon", None, False)],
        ids=["block", "full-gap", "bias"],
    )
    def test_a_run_assembles_and_solves_nothing(
        self, monkeypatch, parameter, sector, leak_measured, rates
    ):
        # A single schedule or a rate block alike takes the parts it is
        # handed: no model builder runs inside run_sweep, nor the dense
        # ground-state solve, numpy's eigh under it or the tridiagonal level
        # solve. A full-space gap run measures its leakage from the state's
        # two qubit halves, with no parity basis. The endpoint check is its
        # table's.
        p = QrmParams(0.0 if parameter == "delta" else 0.3, 0.0, 1.0, 1.0, 16)
        ends = (20.0, 0.0) if parameter == "delta" else (-10.0, 10.0)
        parts = sweep.hamiltonian_parts(p, parameter, sector)
        psi0 = StateVector(sweep._lowest_eigenvector(*parts, ends[0]), sector)
        schedules = tuple(SweepSchedule(parameter, *ends, r, n_steps=1000) for r in rates)
        spies = {}
        for name in (
            "build_qrm", "build_multimode", "delta_ramp", "epsilon_ramp", "parity_sector_basis",
            "scheme_basis", "_lowest_eigenvector", "eig_hermitian", "_tridiagonal_eigh",
        ):
            # Spied in every module that holds the name.
            holders = [m for m in (model, operators, sweep) if hasattr(m, name)]
            spies[name] = mock.Mock(wraps=getattr(holders[0], name))
            for module in holders:
                monkeypatch.setattr(module, name, spies[name])
        schedule = schedules[0] if len(schedules) == 1 else RateBlock(schedules)
        result = run_sweep(p, parts, schedule, psi0)
        trajectories = result if isinstance(result, list) else [result]
        assert [type(traj) for traj in trajectories] == [Trajectory] * len(rates)
        calls = {name: spy.call_count for name, spy in spies.items()}
        assert calls == dict.fromkeys(spies, 0)
        leakage = [traj.max_parity_leakage for traj in trajectories]
        assert all((x is None) != leak_measured for x in leakage)


class TestReadout:
    def test_unknown_scheme_is_refused(self):
        p = QrmParams(1.0, 0.0, 1.0, 0.5, 8)
        with pytest.raises(InvalidParameterError):
            scheme_basis(p, "foo")
        for sector in (None, EVEN_SECTOR):
            with pytest.raises(InvalidParameterError):
                readout_columns(p, "foo", sector)
        # Sector columns exist only for the parity-definite schemes.
        with pytest.raises(InvalidParameterError):
            readout_columns(p, "displaced", EVEN_SECTOR)
        mm = MultiModeParams(1.0, (Mode(1.0, 0.5, 4),))
        for scheme in ("foo", "bare"):
            with pytest.raises(InvalidParameterError):
                readout_columns(mm, scheme)

    def test_sector_columns_match_full_space_projection(self):
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 24)
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        amp = block_ground(p, 2.0).amplitudes
        sector = {r.label: r.probability for r in project_records(
            *readout_columns(p, "superradiant", EVEN_SECTOR), amp
        )}
        full = {r.label: r.probability for r in project_records(
            *readout_columns(p, "superradiant"), basis @ amp
        )}
        assert len(sector) == p.n_fock
        for label, prob in full.items():
            assert abs(sector.get(label, 0.0) - prob) <= 1e-12

    def test_records_are_the_per_entry_ones(self):
        p = QrmParams(0.1, 0.0, 1.0, 1.0, 16)
        cols, labels = readout_columns(p, "displaced")
        amp = ground_state(p, "epsilon", -3.0).amplitudes
        probs = np.abs(cols.conj().T @ amp) ** 2
        expected = [ProbabilityRecord(lab, float(pr)) for lab, pr in zip(labels, probs)]
        assert list(project_records(cols, labels, amp)) == expected

    def test_a_block_of_states_gives_one_readout_per_column(self):
        # One product for every state; each column's readout is the
        # single-state one up to the product's rounding.
        p = QrmParams(0.1, 0.0, 1.0, 1.0, 16)
        cols, labels = readout_columns(p, "displaced")
        states = np.stack(
            [ground_state(p, "epsilon", e).amplitudes for e in (-3.0, -0.5, 0.0, 2.0)], axis=1
        )
        readouts = project_records(cols, labels, states)
        assert len(readouts) == 4
        assert all(r.labels is readouts[0].labels for r in readouts)
        for readout, amp in zip(readouts, states.T):
            alone = project_records(cols, labels, amp)
            assert readout.labels == alone.labels
            np.testing.assert_allclose(readout.probabilities, alone.probabilities, rtol=0, atol=1e-15)


def _where_largest_change(coarse, fine) -> tuple[float, str]:
    """(scan value, label text) of the audit's largest change: the first
    argmax over each row's records, then the labels only the fine row has."""
    at = []
    for a, b in zip(coarse.rows, fine.rows):
        pa = {rec.label: rec.probability for rec in a.sim}
        pb = {rec.label: rec.probability for rec in b.sim}
        at += [(abs(pa.get(k, 0.0) - pb.get(k, 0.0)), a.scan_value, str(k)) for k in {**pa, **pb}]
    _, value, label = at[int(np.argmax([change for change, _, _ in at]))]
    return value, label


def _largest_change(coarse, fine) -> float:
    """The audit's rule, record by record: the largest change of any row's
    simulated probability, a label only one side carries counting whole."""
    out = 0.0
    for a, b in zip(coarse.rows, fine.rows):
        pa = {rec.label: rec.probability for rec in a.sim}
        pb = {rec.label: rec.probability for rec in b.sim}
        out = max(out, *(abs(pa.get(k, 0.0) - pb.get(k, 0.0)) for k in pa.keys() | pb.keys()))
    return out


QUENCH = quench_scan_spec("ns", 1.0, (1e4,), n_fock=16, delta_hi=20.0, n_steps=1000)


class TestConvergenceScan:
    @pytest.fixture
    def no_run(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("propagated before the audit checked its inputs")

        monkeypatch.setattr(experiments, "run_sweep", fail)

    def test_frozen_schedule_always_converged(self):
        # At g = 0 every H(t) of the quench commutes with the start state,
        # so the state never moves and no resolution changes its readout.
        spec = quench_scan_spec("ns", 0.0, (1.0, 1e4), n_fock=16, delta_hi=1.0, n_steps=1000)
        report = convergence_scan(spec, "n_steps")
        assert report.passed and report.notes == ()
        assert report.max_change_2x <= 1e-12 and report.max_change_4x <= 1e-12

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-3, "1e-3", None, [1e-3]])
    def test_bad_tolerance_fails_before_any_run(self, no_run, tolerance):
        # A NaN tolerance used to run all three sweeps and report a 1e-12
        # drift as not converged; a string, None or a list escaped as a
        # TypeError.
        with pytest.raises(InvalidParameterError, match="tolerance"):
            convergence_scan(QUENCH, "n_steps", tolerance=tolerance)

    @pytest.mark.parametrize(
        "spec, knob",
        [
            (QUENCH, "rate"),
            (quench_trace_spec("ns", 1.0, n_fock=16, delta_hi=20.0, n_steps=1000), "n_steps"),
            (lz_trace_spec(1.0, 0.1, n_fock=16, n_steps=1000), "n_fock"),
            (lz_scan_spec(1.0, 0.1, (1.0, 10.0), n_fock=16, simulate=False), "n_steps"),
        ],
        ids=["unknown-knob", "quench-trace", "lz-trace", "formula-only"],
    )
    def test_refused_before_any_run(self, no_run, spec, knob):
        with pytest.raises(InvalidParameterError):
            convergence_scan(spec, knob)

    @pytest.mark.parametrize(
        "spec, knob, scaled",
        [
            (
                quench_scan_spec("sn", 1.0, (1e3, 1e4), n_fock=16, delta_hi=20.0, n_steps=1000),
                "n_fock",
                lambda f: quench_scan_spec(
                    "sn", 1.0, (1e3, 1e4), n_fock=16 * f, delta_hi=20.0, n_steps=1000
                ),
            ),
            (
                lz_scan_spec(0.1, 0.1, (10.0, 100.0), n_fock=8, n_steps=1000),
                "endpoint_magnitude",
                lambda f: lz_scan_spec(
                    0.1, 0.1, (10.0, 100.0), n_fock=8, n_steps=1000 * f,
                    window=f * lz_window(qrm_params(0.1, 0.1, n_fock=8)),
                ),
            ),
        ],
        ids=["quench_sn-n_fock", "lz_scan-endpoint_magnitude"],
    )
    def test_compares_the_tables_of_the_scaled_specs(self, spec, knob, scaled):
        # Each resolution is the table run_experiment writes for the spec
        # with that knob scaled: named levels for quench_sn, the displaced
        # basis at the far window edge for lz_scan.
        tables = [run_experiment(scaled(f)) for f in (1, 2, 4)]
        report = convergence_scan(spec, knob)
        assert report.max_change_2x == _largest_change(tables[0], tables[1])
        assert report.max_change_4x == _largest_change(tables[1], tables[2])
        assert (report.where_2x, report.where_4x) == (
            _where_largest_change(tables[0], tables[1]), _where_largest_change(tables[1], tables[2])
        )
        converged = all(row.converged for table in tables for row in table.rows)
        assert report.notes == () and converged
        assert report.passed == (max(report.max_change_2x, report.max_change_4x) <= 1e-3)

    def test_a_failed_row_has_no_change(self):
        # The multimode oracle refuses v = 0.3 delta^2 (crossings past the
        # caps), so that row fails at every resolution and is not propagated.
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        spec = ExperimentSpec("multimode_scan", p, "v_over_delta2", (0.3,), n_steps=1000)
        report = convergence_scan(spec, "n_steps")
        assert report.max_change_2x is None and report.max_change_4x is None
        assert not report.passed
        assert [note.split(": ")[:2] for note in report.notes] == [
            [f"{f}x, v_over_delta2 = 0.3", "GapTruncationError"] for f in (1, 2, 4)
        ]

    def test_quench_step_doubling_is_stable(self):
        spec = quench_scan_spec("ns", 1.0, (1e4,), n_fock=32, delta_hi=200.0, n_steps=10_000)
        report = convergence_scan(spec, "n_steps")
        assert report.passed
        assert report.max_change_2x <= 1e-3 and report.max_change_4x <= 1e-3

    def test_tiny_truncation_flagged(self):
        # At 8 levels the endpoint ground state at zero gap leaks into the
        # top of the ladder: the row is unconverged and says why.
        spec = quench_scan_spec("ns", 2.0, (1e4,), n_fock=8, delta_hi=200.0, n_steps=5000)
        report = convergence_scan(spec, "n_fock")
        assert not report.passed
        assert report.notes[0].startswith("1x, v_over_omega2 = 10000: top tenth of the Fock")
        assert all("truncation-limited" in note for note in report.notes)


class TestRateBlock:
    def test_refuses_schedules_that_differ_in_more_than_the_rate(self):
        base = SweepSchedule("delta", 20.0, 0.0, 1e3, n_steps=1000)
        assert RateBlock((base, replace(base, rate_v=1e4))).n_steps == 1000
        others = [
            replace(base, parameter="epsilon"),
            replace(base, start_value=10.0),
            replace(base, end_value=1.0),
            replace(base, n_steps=2000),
            replace(base, sample_steps=(0, 500)),
        ]
        for other in others:
            with pytest.raises(InvalidParameterError, match="only in rate_v"):
                RateBlock((base, other))
        for bad in ((), (base, 1e4), base, None):
            with pytest.raises(InvalidParameterError):
                RateBlock(bad)

    def test_entries_match_single_runs(self):
        # Dim 32 in the even block runs the Chebyshev kernel on its real
        # rows; each entry is the run its schedule gives alone. Sample
        # steps, unlike sample times, sit at one point of the ramp for every
        # rate: sample i of each entry is at the same gap value.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = block_ground(p, 200.0)
        steps = (0, 10, 250, 250, 999, 1000)
        base = SweepSchedule("delta", 200.0, 0.0, 1e3, n_steps=1000, sample_steps=steps)
        # The kernel runs the slowest first: a cyclic reordering of these.
        schedules = tuple(replace(base, rate_v=r) for r in (1e4, 1e5, 1e3))
        block = run_sweep(p, block_parts(p), RateBlock(schedules), psi0)
        assert [traj.schedule for traj in block] == list(schedules)
        gaps = [200.0 * (1.0 - k / 1000) for k in steps]
        for traj, schedule in zip(block, schedules):
            ramp = [
                schedule.start_value
                + (schedule.end_value - schedule.start_value) * (k / schedule.n_steps)
                for k in traj.schedule.sample_steps
            ]
            assert ramp == pytest.approx(gaps, abs=1e-12)
            alone = run_sweep(p, block_parts(p), schedule, psi0)
            for name in ("top_fock_occupancy", "chebyshev_terms"):
                assert getattr(traj, name) == pytest.approx(getattr(alone, name), rel=1e-12, abs=0)
            assert traj.schedule.sample_steps == alone.schedule.sample_steps == steps
            assert traj.states.shape == alone.states.shape == (32, len(steps))
            assert np.all(np.linalg.norm(traj.states - alone.states, axis=0) < 1e-12)

    def test_a_stack_grown_mid_run_carries_the_state(self):
        # The sn quench 0 -> 200 in 3,000 steps spans three chunks, and the
        # radius grows with the gap, so each chunk needs more orders than the
        # one before it and the stack grows twice, carrying every run's rows
        # of the state into the larger stack. Each entry matches its single
        # run to 1e-12, and a per-step exponential of the midpoint H from one
        # batched eigh to 1e-12, at the chunk boundaries and the end.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        h0, h1 = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        n_steps = 3000
        steps = (0, 1024, 2048, 3000)
        base = SweepSchedule("delta", 0.0, 200.0, 10.0, n_steps=n_steps, sample_steps=steps)
        schedules = tuple(replace(base, rate_v=r) for r in (100.0, 10.0, 1e3))
        per_chunk = []
        for _, f_mid in sweep._chunk_midpoints(0.0, 200.0, n_steps):
            lo, hi = sweep._gershgorin_bounds(h0, h1, f_mid)
            radius = 0.5 * (hi - lo) + 1e-300
            per_chunk.append([
                len(sweep._chebyshev_coefficients(radius * s.total_time / n_steps))
                for s in schedules
            ])
        assert len(per_chunk) == 3
        assert max(per_chunk[0]) < max(per_chunk[1]) < max(per_chunk[2])
        psi0 = block_ground(p, 0.0)
        block = run_sweep(p, block_parts(p), RateBlock(schedules), psi0)
        f_mid = 200.0 * (np.arange(n_steps) + 0.5) / n_steps
        w, v = np.linalg.eigh(h0 + f_mid[:, None, None] * h1)
        for j, (traj, schedule) in enumerate(zip(block, schedules)):
            assert traj.chebyshev_terms == max(terms[j] for terms in per_chunk)
            alone = run_sweep(p, block_parts(p), schedule, psi0)
            assert np.all(np.linalg.norm(traj.states - alone.states, axis=0) < 1e-12)
            dt = schedule.total_time / n_steps
            ref = psi0.amplitudes.astype(complex)
            refs = [ref]
            for k in range(n_steps):
                ref = v[k] @ (np.exp(-1j * dt * w[k]) * (v[k].T @ ref))
                if k + 1 in steps:
                    refs.append(ref)
            assert np.all(np.linalg.norm(traj.states - np.array(refs).T, axis=0) < 1e-12)

    def test_a_run_past_the_z_limit_fails_only_its_entry(self):
        # Only the slowest rate's step spans z past the limit (twice it): its
        # entry is the error that refuses it, and the other two run as their
        # own block, each matching its single run. That rate alone raises.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = block_ground(p, 200.0)
        parts = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        lo, hi = sweep._gershgorin_bounds(*parts, np.array([200.0, 0.0]))
        slow = 0.5 * (hi - lo) * 200.0 / (1000 * 2.0 * sweep._CHEB_Z_MAX)
        base = SweepSchedule("delta", 200.0, 0.0, 1e3, n_steps=1000)
        schedules = tuple(replace(base, rate_v=r) for r in (1e4, slow, 1e3))
        fast, refused, last = run_sweep(p, block_parts(p), RateBlock(schedules), psi0)
        assert isinstance(refused, NumericalInstabilityError)
        assert "z = r dt = 2e+05" in str(refused)
        for traj, schedule in ((fast, schedules[0]), (last, schedules[2])):
            alone = run_sweep(p, block_parts(p), schedule, psi0)
            assert traj.chebyshev_terms == alone.chebyshev_terms
            assert np.all(np.linalg.norm(traj.states - alone.states, axis=0) < 1e-12)
        with pytest.raises(NumericalInstabilityError, match="z = r dt") as info:
            run_sweep(p, block_parts(p), schedules[1], psi0)
        # A single schedule raises the error its block of one holds.
        (entry,) = run_sweep(p, block_parts(p), RateBlock((schedules[1],)), psi0)
        assert type(info.value) is type(entry) and str(info.value) == str(entry)

    def test_a_block_past_the_stack_cap_gives_up_its_slowest_runs(self, monkeypatch):
        # With the cap set to the stack of the two faster runs, the block of
        # three is refused by its stack; it gives up its slowest run, whose
        # entry names the three runs' bytes, and runs the other two.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = block_ground(p, 200.0)
        parts = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        base = SweepSchedule("delta", 200.0, 0.0, 1e3, n_steps=1000)
        schedules = tuple(replace(base, rate_v=r) for r in (1e4, 10.0, 1e3))
        alone = [run_sweep(p, block_parts(p), schedule, psi0) for schedule in schedules]
        lo, hi = sweep._gershgorin_bounds(*parts, np.array([200.0, 0.0]))
        z_of = [0.5 * (hi - lo) * s.total_time / 1000 for s in schedules]
        cap = 16 * 32 * 2 * len(sweep._chebyshev_coefficients(z_of[2]))
        assert 16 * 32 * 3 * len(sweep._chebyshev_coefficients(z_of[1])) > cap
        monkeypatch.setattr(sweep, "_CHEB_STACK_BYTES_MAX", cap)
        fast, refused, last = run_sweep(p, block_parts(p), RateBlock(schedules), psi0)
        assert isinstance(refused, ResourceLimitError)
        assert "stack of 3 runs at dim 32" in str(refused)
        for traj, single in ((fast, alone[0]), (last, alone[2])):
            assert np.all(np.linalg.norm(traj.states - single.states, axis=0) < 1e-12)

    def test_a_two_term_run_beside_a_many_term_run(self):
        # Every run's sum is one batched product over the orders of the
        # slowest run, with zero weights past each run's own. A run of
        # duration 1e-13 keeps its two terms beside runs of many. The quench
        # 200 -> 0 in 2,048 steps spans two chunks and its radius falls, so
        # the middle run takes 9 terms, then 8: in the second chunk its row
        # of order 8 still holds a value of the first, which only a zero
        # weight keeps out of its sum. Each entry matches its single run,
        # terms included, to 1e-14 after one step and 1e-13 after many.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = block_ground(p, 200.0)
        steps = (0, 1, 1024, 1025, 2048)
        base = SweepSchedule("delta", 200.0, 0.0, 10.0, n_steps=2048, sample_steps=steps)
        schedules = tuple(replace(base, rate_v=r) for r in (200.0 / 1e-13, 100.0, 10.0))
        block = run_sweep(p, block_parts(p), RateBlock(schedules), psi0)
        alone = [run_sweep(p, block_parts(p), schedule, psi0) for schedule in schedules]
        assert [traj.chebyshev_terms for traj in block] == [2, 9, 16]
        for traj, single in zip(block, alone):
            assert traj.chebyshev_terms == single.chebyshev_terms
            diffs = np.linalg.norm(traj.states - single.states, axis=0)
            assert diffs[1] < 1e-14 and np.all(diffs[2:] < 1e-13), diffs

    def test_a_drifting_run_fails_only_its_entry(self, monkeypatch):
        # A norm that drifts, or is NaN, fails its run's entry alone.
        evolve = sweep._evolve_linear
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        base = SweepSchedule("delta", 200.0, 0.0, 1e3, n_steps=1000)
        block = RateBlock(tuple(replace(base, rate_v=r) for r in (1e3, 1e4, 1e5)))
        for factor in (1.01, math.nan):

            def drift_second_run(*args):
                sampled, terms = evolve(*args)
                sampled[1] *= factor
                return sampled, terms

            monkeypatch.setattr(sweep, "_evolve_linear", drift_second_run)
            first, failed, last = run_sweep(p, block_parts(p), block, block_ground(p, 200.0))
            assert isinstance(failed, NumericalInstabilityError), factor
            assert first.max_norm_deviation < 1e-10 and last.max_norm_deviation < 1e-10


class TestBatch:
    def test_failures_are_isolated(self):
        good = QrmParams(1.0, 0.0, 1.0, 0.0, 2)
        schedule = SweepSchedule("epsilon", -50.0, 50.0, 1.0, n_steps=2000)
        parts = sweep.hamiltonian_parts(good, "epsilon")
        with pytest.raises(InvalidParameterError):
            run_sweep(
                good,
                parts,
                schedule,
                StateVector(np.array([1.0, 0, 0, 0], dtype=complex), EVEN_SECTOR),
            )
        traj = run_sweep(good, parts, schedule, displaced_state(good, "down", 0))
        assert abs(sum(r.probability for r in final_records(good, traj, "bare")) - 1.0) <= 1e-10
