from dataclasses import replace

import numpy as np
import pytest

from rabisweep.errors import InvalidParameterError, NumericalInstabilityError
from rabisweep import experiments, sweep
from rabisweep.analytics import (
    cascade_gaps,
    fock_prep_window,
    lz_probability,
    multimode_gaps,
    poisson_overlap,
)
from rabisweep.experiments import (
    ExperimentSpec,
    _row_checks,
    default_quench_delta_hi,
    lz_window,
    run_experiment,
)
from rabisweep.model import (
    EVEN_SECTOR,
    TOP_OCCUPANCY_TOL,
    BasisLabel,
    Mode,
    MultiModeParams,
    QrmParams,
    Readout,
    parity_sector_basis,
    top_fock_occupancy,
)
from rabisweep.sweep import (
    MIN_N_STEPS,
    SweepSchedule,
    Trajectory,
    ground_state,
    project_records,
    readout_columns,
    run_sweep,
)


class TestScanLoop:
    def test_failed_row_does_not_stop_the_scan(self, monkeypatch):
        # At v = 0.3 delta^2 the crossings past the default caps hold more
        # survival weight than the oracle allows; the slower and the faster
        # rate both stay inside the caps. The refused rate is not propagated,
        # and a scan whose every rate is refused propagates nothing.
        blocks = []
        run_sweep = sweep.run_sweep

        def recording_run(p, block, psi0, **kwargs):
            blocks.append([s.rate_v for s in block.schedules])
            return run_sweep(p, block, psi0, **kwargs)

        monkeypatch.setattr(experiments, "run_sweep", recording_run)
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        spec = ExperimentSpec(
            "multimode_scan", p, "v_over_delta2", (0.1, 0.3, 1e3), n_steps=1000
        )
        table = run_experiment(spec)
        assert blocks == [[0.1, 1e3]]
        assert [row.scan_value for row in table.rows] == [0.1, 0.3, 1e3]
        first, failed, last = table.rows
        assert failed.sim is None and failed.oracle is None and not failed.converged
        assert failed.warnings[0].startswith("GapTruncationError")
        for row in (first, last):
            assert row.sim is not None and row.oracle is not None
            assert abs(sum(r.probability for r in row.sim) - 1.0) <= 1e-8
        assert len(table.provenance["wall_times_s"]) == 3

        (refused,) = run_experiment(replace(spec, scan_values=(0.3,))).rows
        assert blocks == [[0.1, 1e3]]
        assert refused.warnings[0].startswith("GapTruncationError")

    @pytest.mark.parametrize(
        "kind, params, parameter",
        [
            ("quench_ns", QrmParams(0.0, 0.0, 1.0, 1.0, 32), "delta"),
            ("lz_scan", QrmParams(0.1, 0.0, 1.0, 0.3, 16), "epsilon"),
        ],
    )
    def test_rows_match_single_runs(self, kind, params, parameter):
        # A scan propagates its rates as one block; each row must be what
        # its rate gives in a run of its own.
        spec = ExperimentSpec(kind, params, "rate", (10.0, 100.0, 1e3), n_steps=1000)
        table = run_experiment(spec)
        assert table.provenance["block_propagation_s"] > 0
        assert table.provenance["oracle_s"] >= 0
        assert len(table.provenance["wall_times_s"]) == len(spec.scan_values)
        if kind == "quench_ns":
            start, end = default_quench_delta_hi(params), 0.0
            scale, sector = params.omega**2, EVEN_SECTOR
            psi0, scheme = ground_state(params, "delta", start, sector), "superradiant"
        else:
            window = lz_window(params)
            start, end, scale, sector = -window, window, params.delta**2, None
            psi0, scheme = ground_state(params, "epsilon", start), "displaced"
        cols, labels = readout_columns(params, scheme, sector)
        for row in table.rows:
            schedule = SweepSchedule(parameter, start, end, row.scan_value * scale, n_steps=1000)
            traj = run_sweep(params, schedule, psi0)
            alone = project_records(cols, labels, traj.final_state)
            assert row.checks["chebyshev_terms"] == traj.metadata["chebyshev_terms"] > 0
            assert [r.label for r in row.sim] == [r.label for r in alone]
            for got, ref in zip(row.sim, alone):
                assert got.probability == pytest.approx(ref.probability, abs=1e-12)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("lz_scan", QrmParams(0.1, 0.0, 1.0, 0.3, 16)),
            ("multimode_scan", MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))),
        ],
    )
    def test_one_oracle_call_per_table(self, monkeypatch, kind, params):
        # The cascade formula runs once over the whole grid; in the
        # multimode table the v = 0.3 delta^2 rate is refused in that call
        # and fails only its own row.
        calls = []
        oracle = experiments.sequential_crossing_probabilities

        def counting_oracle(spectrum, v, **kwargs):
            calls.append(np.asarray(v).tolist())
            return oracle(spectrum, v, **kwargs)

        monkeypatch.setattr(experiments, "sequential_crossing_probabilities", counting_oracle)
        grid = (0.1, 0.3, 1e3)
        spec = ExperimentSpec(kind, params, "v_over_delta2", grid, options={"simulate": False})
        table = run_experiment(spec)
        assert calls == [[v * params.delta**2 for v in grid]]
        assert table.provenance["oracle_s"] >= 0
        assert len(table.provenance["wall_times_s"]) == len(grid)
        refused = [row.scan_value for row in table.rows if row.oracle is None]
        assert refused == ([0.3] if kind == "multimode_scan" else [])
        for row in table.rows:
            if row.oracle is not None:
                assert row.converged and row.sim is None
                assert abs(row.checks["oracle_residual"]) <= experiments.ORACLE_RESIDUAL_TOL

    def test_a_failed_entry_fails_only_its_row(self, monkeypatch):
        # One run of the block drifts in norm: its row fails with the
        # run's error and the rows on either side still converge.
        evolve = sweep._evolve_linear

        def drift_second_run(*args):
            sampled, terms = evolve(*args)
            for states in sampled.values():
                states[:, 1] *= 1.01
            return sampled, terms

        monkeypatch.setattr(sweep, "_evolve_linear", drift_second_run)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        spec = ExperimentSpec("quench_ns", p, "rate", (10.0, 100.0, 1e3), n_steps=1000)
        first, failed, last = run_experiment(spec).rows
        assert failed.sim is None and not failed.converged
        assert failed.warnings[0].startswith("NumericalInstabilityError")
        assert first.converged and last.converged


class TestRateScan:
    # The g/omega = 2 quench in 16 levels leaves 7.91e-6 of its final weight
    # in the top tenth of the ladder, above the default limit.
    P = QrmParams(0.0, 0.0, 1.0, 2.0, 16)

    def _row(self, **options):
        spec = ExperimentSpec(
            "quench_ns", self.P, "v_over_omega2", (1e4,), n_steps=1000,
            options={"delta_hi": 100.0, **options},
        )
        (row,) = run_experiment(spec).rows
        return row

    def test_quench_rows_are_judged_at_the_row_limit(self):
        row = self._row()
        assert not row.converged
        assert row.warnings == (
            "top tenth of the Fock ladder holds weight 7.91e-06 (limit 1e-06); "
            "results are truncation-limited",
        )
        # Quench kinds do not take the bias scans' limit option; it used to
        # be accepted and then ignored.
        with pytest.raises(InvalidParameterError, match="unknown options"):
            self._row(top_occupancy_tol=1e-2)

    def test_quench_rows_record_the_oracle_residual(self):
        row = self._row()
        expected = 1.0 - sum(poisson_overlap(lab.photons, 2.0, 1.0) for lab in row.sim.labels)
        assert row.checks["oracle_residual"] == expected
        assert row.checks["oracle_residual"] == pytest.approx(4.89e-6, rel=1e-3)

    def test_a_refused_schedule_fails_the_block_rows(self):
        # At omega = 2, v = 1e308 omega^2 overflows to an infinite rate. The
        # block is built where its run is, so the table still comes back.
        p = replace(self.P, omega=2.0)
        spec = ExperimentSpec(
            "quench_ns", p, "v_over_omega2", (1e4, 1e308), n_steps=1000,
            options={"delta_hi": 100.0},
        )
        rows = run_experiment(spec).rows
        assert len(rows) == 2
        for row in rows:
            assert row.sim is None and not row.converged
            assert "rate_v must be finite" in row.warnings[0]


class TestRowChecks:
    def test_truncation_is_judged_at_the_row_limit(self):
        # The delta 100 -> 0 quench at g/omega = 2 in 8 levels puts 1.4e-2 on
        # the top level of its delta = 0 ground state. Recorded without a
        # verdict, it fails a row at the default limit and passes one whose
        # own limit lies above it.
        p = QrmParams(0.0, 0.0, 1.0, 2.0, 8)
        s = SweepSchedule("delta", 100.0, 0.0, 1000.0, n_steps=2000)
        psi0 = ground_state(p, "delta", 100.0, EVEN_SECTOR)
        traj = run_sweep(p, s, psi0)
        # The run records its weights and passes no verdict on them.
        assert not hasattr(traj, "warnings")
        occupancy = traj.metadata["endpoint_top_fock_occupancy"]
        assert occupancy > TOP_OCCUPANCY_TOL
        records = project_records(
            *readout_columns(p, "superradiant", EVEN_SECTOR), traj.final_state
        )

        checks, ok, warnings = _row_checks(traj, records)
        assert not ok
        assert len([w for w in warnings if "Fock ladder" in w]) == 1
        assert checks["endpoint_top_fock_occupancy"] == occupancy
        # Dim 8 runs the eigh branch, which takes no Chebyshev terms.
        assert checks["n_steps"] == 2000
        assert checks["chebyshev_terms"] == 0

        _, ok, warnings = _row_checks(traj, records, top_occupancy_tol=2.0 * occupancy)
        assert ok
        assert warnings == ()

    def test_chebyshev_runs_report_their_terms(self):
        # The fig1a block at 32 levels runs the Chebyshev branch; a faster
        # sweep over the same gap takes fewer terms per step.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = ground_state(p, "delta", 200.0, EVEN_SECTOR)
        cols, labels = readout_columns(p, "superradiant", EVEN_SECTOR)
        terms = []
        for rate in (1e3, 1e5):
            s = SweepSchedule("delta", 200.0, 0.0, rate, n_steps=1000)
            traj = run_sweep(p, s, psi0)
            checks, ok, _ = _row_checks(
                traj, project_records(cols, labels, traj.final_state)
            )
            assert ok
            assert checks["parity_leakage"] is None
            assert checks["n_steps"] == 1000
            terms.append(checks["chebyshev_terms"])
        assert terms[0] > terms[1] > 2


    @staticmethod
    def _judge(norm=0.0, leakage=None, occupancy=0.0, total=1.0):
        """``_row_checks`` of a run that recorded these values."""
        traj = Trajectory(
            schedule=SweepSchedule("delta", 1.0, 0.0, 1.0, n_steps=1000),
            times=np.zeros(1),
            states=np.ones((1, 1), dtype=complex),
            max_norm_deviation=norm,
            max_parity_leakage=leakage,
            metadata={
                "top_fock_occupancy": occupancy,
                "endpoint_top_fock_occupancy": 0.0,
                "chebyshev_terms": 0,
            },
        )
        labels = (BasisLabel("normal", "right", 0), BasisLabel("normal", "left", 0))
        return _row_checks(traj, Readout(labels, [total - 0.25, 0.25]))

    @pytest.mark.parametrize(
        "recorded, warning",
        [
            ({"norm": 3e-8}, "norm deviation 3.00e-08 (limit 1e-08)"),
            ({"leakage": 3e-10}, "parity leakage 3.00e-10 (limit 1e-10)"),
            (
                {"occupancy": 3e-6},
                "top tenth of the Fock ladder holds weight 3.00e-06 (limit 1e-06); "
                "results are truncation-limited",
            ),
            (
                {"total": 1.0 - 3e-6},
                "readout probabilities sum to 0.99999700 (limit 1 +- 1e-06)",
            ),
            ({"norm": np.nan}, "norm deviation nan (limit 1e-08)"),
        ],
        ids=["norm", "leakage", "truncation", "probability-sum", "nan-norm"],
    )
    def test_one_warning_per_exceeded_limit(self, recorded, warning):
        # Each limit is compared once, here: one warning naming the value
        # and the limit, and an unconverged row.
        _, ok, warnings = self._judge(**recorded)
        assert not ok
        assert warnings == (warning,)

    def test_no_warning_within_the_limits(self):
        # At each limit, or with leakage unmeasured, the row converges.
        for recorded in ({}, {"norm": 1e-8, "leakage": 1e-10, "occupancy": 1e-6}):
            _, ok, warnings = self._judge(**recorded)
            assert ok and warnings == ()
        _, ok, warnings = self._judge(norm=1.0, leakage=1.0, occupancy=1.0, total=0.5)
        assert not ok and len(warnings) == 4


class TestTraces:
    # A trace returns exactly its axis, also when the axis stops short of
    # the end of the sweep.
    def test_lz_trace_stopping_short_returns_its_axis(self):
        p = QrmParams(0.1, 0.0, 1.0, 0.3, 16)
        spec = ExperimentSpec(
            "lz_trace", p, "epsilon_over_omega", (-5.0, 0.0, 5.0), n_steps=1000,
            options={"rate": 1e3},
        )
        table = run_experiment(spec)
        # The default window is 26, so a step moves the axis by 0.052.
        assert [row.scan_value for row in table.rows] == pytest.approx(
            [-5.0, 0.0, 5.0], abs=0.052
        )

    def test_quench_trace_stopping_short_returns_its_axis(self):
        p = QrmParams(0.0, 0.0, 1.0, 0.5, 16)
        spec = ExperimentSpec(
            "quench_trace", p, "v_t_over_omega", (0.0, 50.0, 100.0), n_steps=1000,
            options={"direction": "sn", "rate": 1e4},
        )
        table = run_experiment(spec)
        assert [row.scan_value for row in table.rows] == pytest.approx([0.0, 50.0, 100.0])
        assert all(row.converged for row in table.rows)

    @pytest.mark.parametrize(
        "kind, axis, options",
        [
            ("quench_trace", (0.0, 101.0), {"direction": "sn", "rate": 1e4, "delta_hi": 100.0}),
            ("lz_trace", (-10.0, 11.0), {"rate": 1e3, "window": 10.0}),
        ],
    )
    def test_axis_past_the_end_is_refused(self, kind, axis, options):
        p = QrmParams(0.1, 0.0, 1.0, 0.5, 16)
        spec = ExperimentSpec(kind, p, "axis", axis, n_steps=1000, options=options)
        with pytest.raises(InvalidParameterError, match="outside the sweep"):
            run_experiment(spec)

    @pytest.mark.parametrize(
        "kind, axis, options",
        [
            ("quench_trace", (-100.0, -50.0, 0.0),
             {"direction": "ns", "rate": 1e4, "delta_hi": 100.0}),
            ("quench_trace", (0.0, 50.0, 100.0),
             {"direction": "sn", "rate": 1e4, "delta_hi": 100.0}),
            ("quench_sn", (1e4,), {"delta_hi": 100.0}),
        ],
    )
    def test_a_quench_table_assembles_its_block_twice(self, monkeypatch, kind, axis, options):
        # Once for the table (initial state and level names) and once inside
        # run_sweep; the initial state is the vector ground_state gives.
        p = QrmParams(0.0, 0.0, 1.0, 0.5, 16)
        spec = ExperimentSpec(kind, p, "axis", axis, n_steps=1000, options=options)
        calls = []
        parts = sweep._hamiltonian_parts

        def counting_parts(*args, **kwargs):
            calls.append(args)
            return parts(*args, **kwargs)

        monkeypatch.setattr(sweep, "_hamiltonian_parts", counting_parts)
        monkeypatch.setattr(experiments, "_hamiltonian_parts", counting_parts)
        run_experiment(spec)
        assert len(calls) == 2
        start = options["delta_hi"] if options.get("direction") == "ns" else 0.0
        psi0 = experiments._even_ground_state(parts(p, "delta", EVEN_SECTOR)[:2], start)
        reference = ground_state(p, "delta", start, EVEN_SECTOR)
        assert psi0.basis_tag == reference.basis_tag
        assert np.array_equal(psi0.amplitudes, reference.amplitudes)

    def test_end_of_sweep_is_checked_when_not_sampled(self):
        # Sampling only the first half of a sweep returns those samples, but
        # the truncation and conservation checks still see the end state.
        p = QrmParams(0.0, 0.0, 1.0, 2.0, 8)
        s = SweepSchedule(
            "delta", 100.0, 0.0, 1000.0, n_steps=2000, sample_steps=(0, 1000)
        )
        psi0 = ground_state(p, "delta", 100.0, EVEN_SECTOR)
        traj = run_sweep(p, s, psi0)
        whole = run_sweep(p, replace(s, sample_steps=None), psi0)
        assert list(traj.times) == pytest.approx([0.0, 0.05])
        assert traj.states.shape == (p.n_fock, 2)
        assert traj.metadata["top_fock_occupancy"] == whole.metadata["top_fock_occupancy"]
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        halfway = top_fock_occupancy(p, basis @ traj.final_state)
        assert halfway != pytest.approx(traj.metadata["top_fock_occupancy"], rel=1e-3)

    @staticmethod
    def _run_with_the_end_scaled(monkeypatch, scale: float):
        # The run samples the first half of the sweep; only the state at its
        # end, which no sample asks for, is scaled.
        evolve = sweep._evolve_linear

        def scale_the_end(*args):
            sampled, terms = evolve(*args)
            sampled[max(sampled)] *= scale
            return sampled, terms

        monkeypatch.setattr(sweep, "_evolve_linear", scale_the_end)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        s = SweepSchedule(
            "delta", 100.0, 0.0, 1000.0, n_steps=2000, sample_steps=(0, 1000)
        )
        return run_sweep(p, s, ground_state(p, "delta", 100.0, EVEN_SECTOR))

    def test_unsampled_end_norm_drift_is_a_warning(self, monkeypatch):
        # The run records the drift; the row judges it, once, against its limit.
        traj = self._run_with_the_end_scaled(monkeypatch, 1.0 + 1e-7)
        assert traj.max_norm_deviation == pytest.approx(1e-7, rel=1e-6)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        readout = project_records(
            *readout_columns(p, "superradiant", EVEN_SECTOR), traj.final_state
        )
        _, ok, warnings = _row_checks(traj, readout)
        assert not ok
        assert [w for w in warnings if "norm deviation" in w] == [
            "norm deviation 1.00e-07 (limit 1e-08)"
        ]

    def test_a_drifting_trace_warns_once_per_row(self, monkeypatch):
        # From the midpoint on, all 201 of the 401 samples drift past the
        # row limit; each row still carries one norm warning, with the
        # run's largest drift.
        evolve = sweep._evolve_linear

        def drift_the_second_half(*args):
            sampled, terms = evolve(*args)
            n_steps = args[5]
            for k, states in sampled.items():
                if 2 * k >= n_steps:
                    states *= 1.0 + 1e-7 * (1.0 + k / n_steps)
            return sampled, terms

        monkeypatch.setattr(sweep, "_evolve_linear", drift_the_second_half)
        p = QrmParams(0.0, 0.0, 1.0, 0.5, 16)
        spec = ExperimentSpec(
            "quench_trace", p, "v_t_over_omega", tuple(np.linspace(0.0, 100.0, 401)),
            n_steps=1200, options={"direction": "sn", "rate": 1e4, "delta_hi": 100.0},
        )
        rows = run_experiment(spec).rows
        assert len(rows) == 401
        for row in rows:
            assert not row.converged
            assert row.warnings == ("norm deviation 2.00e-07 (limit 1e-08)",)

    def test_unsampled_end_norm_drift_fails_the_run(self, monkeypatch):
        with pytest.raises(NumericalInstabilityError, match="norm drifted by 1.00e-05 at t = 0.1"):
            self._run_with_the_end_scaled(monkeypatch, 1.0 + 1e-5)

    def test_a_nan_end_state_fails_the_run(self, monkeypatch):
        # A NaN norm is not within the drift limit, though it compares below it.
        with pytest.raises(NumericalInstabilityError, match="norm drifted by nan at t = 0.1"):
            self._run_with_the_end_scaled(monkeypatch, np.nan)


class TestQuenchDirection:
    def test_the_kind_sets_the_direction(self):
        # quench_ns ends at zero gap and reads out in the doublet states; a
        # direction option, which only quench_trace takes, is refused.
        p = QrmParams(0.0, 0.0, 1.0, 0.5, 16)
        with pytest.raises(InvalidParameterError, match="unknown options"):
            ExperimentSpec(
                "quench_ns", p, "v_over_omega2", (1e4,), n_steps=1000,
                options={"direction": "sn", "delta_hi": 100.0},
            )
        spec = ExperimentSpec(
            "quench_ns", p, "v_over_omega2", (1e4,), n_steps=1000, options={"delta_hi": 100.0}
        )
        (row,) = run_experiment(spec).rows
        assert row.converged
        assert {rec.label.scheme for rec in row.sim} == {"superradiant"}


class TestSpec:
    @pytest.mark.parametrize(
        "build, good, bad",
        [
            (lambda n: SweepSchedule("delta", 1.0, 0.0, 1.0, n_steps=n), 2000, 2000.5),
            (lambda n: SweepSchedule("delta", 1.0, 0.0, 1.0, n_steps=n), 2000, 2000.0),
            (
                lambda n: ExperimentSpec(
                    "quench_ns", QrmParams(0.0, 0.0, 1.0, 1.0, 16), "v", (1e4,), n_steps=n
                ),
                2000, 2000.5,
            ),
            (
                lambda n: ExperimentSpec(
                    "quench_ns", QrmParams(0.0, 0.0, 1.0, 1.0, 16), "v", (1e4,), n_steps=n
                ),
                np.int64(2000), np.float64(2000.0),
            ),
            (lambda n: QrmParams(0.0, 0.0, 1.0, 1.0, n), 16, 16.5),
            (lambda n: QrmParams(0.0, 0.0, 1.0, 1.0, n), 16, 16.0),
            (lambda n: Mode(1.0, 0.5, n), 4, 4.5),
            (lambda n: Mode(1.0, 0.5, n), 4, "4"),
        ],
        ids=[
            "schedule-fraction", "schedule-float", "spec-fraction", "spec-numpy-float",
            "qrm-fraction", "qrm-float", "mode-fraction", "mode-string",
        ],
    )
    def test_refuses_non_integer_counts(self, build, good, bad):
        # A non-integer count used to escape as a bare TypeError from
        # range() or a model builder; it is refused where it is given.
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            build(bad)
        build(good)

    @pytest.mark.parametrize("kind", ["quench_ns", "quench_sn", "lz_scan"])
    @pytest.mark.parametrize("first_rate", [-1.0, 0.0])
    def test_rate_scans_refuse_non_positive_rates(self, kind, first_rate):
        p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
        with pytest.raises(InvalidParameterError):
            ExperimentSpec(kind, p, "rate", (first_rate, 10.0, 30.0))

    def test_multimode_scan_refuses_non_positive_rates(self):
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        with pytest.raises(InvalidParameterError):
            ExperimentSpec("multimode_scan", p, "v_over_delta2", (-1.0, 10.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_scan_values(self, bad):
        p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
        with pytest.raises(InvalidParameterError):
            ExperimentSpec("lz_scan", p, "v_over_delta2", (1.0, bad))
        with pytest.raises(InvalidParameterError):
            ExperimentSpec(
                "lz_trace", p, "epsilon_over_omega", (bad, 5.0), options={"rate": 10.0}
            )

    def test_refuses_too_few_steps(self):
        # Below the sweep's resolution guard every simulated row would fail.
        p = QrmParams(0.1, 0.0, 1.0, 0.1, 32)
        with pytest.raises(InvalidParameterError):
            ExperimentSpec("lz_scan", p, "v_over_delta2", (1.0, 10.0), n_steps=MIN_N_STEPS - 1)
        spec = ExperimentSpec("lz_scan", p, "v_over_delta2", (1.0, 10.0), n_steps=MIN_N_STEPS)
        assert spec.n_steps == MIN_N_STEPS

    @pytest.mark.parametrize(
        "kind, options",
        [
            ("lz_scan", {"window": 0.0}),
            ("lz_scan", {"top_occupancy_tol": np.nan}),
            ("quench_ns", {"delta_hi": np.inf}),
        ],
        ids=["zero-window", "nan-row-tolerance", "infinite-quench-endpoint"],
    )
    def test_refuses_non_positive_or_non_finite_options(self, kind, options):
        # A negative window runs the sweep backwards, and a NaN tolerance
        # passes every truncation check.
        p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
        with pytest.raises(InvalidParameterError):
            ExperimentSpec(kind, p, "rate", (1.0, 10.0), options=options)

    @pytest.mark.parametrize(
        "kind, options",
        [
            ("quench_ns", {"windw": 5.0}),
            ("quench_sn", {"window": 5.0}),
            ("quench_trace", {"direction": "ns", "rate": 1e4, "simulate": False}),
            ("lz_scan", {"delta_hi": 5.0}),
            ("lz_trace", {"rate": 10.0, "top_occupancy_tol": 1e-3}),
            ("multimode_scan", {"direction": "ns"}),
        ],
    )
    def test_refuses_unknown_options(self, kind, options):
        # An unknown key used to run silently at the default it meant to set.
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        if kind != "multimode_scan":
            p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
        with pytest.raises(InvalidParameterError, match="unknown options"):
            ExperimentSpec(kind, p, "rate", (1.0, 10.0), options=options)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SweepSchedule("delta", "1", 0.0, 1.0),
            lambda: QrmParams("0", 0.0, 1.0, 1.0, 16),
            lambda: lz_probability(1.0, "2"),
            lambda: ExperimentSpec(
                "lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 32), "v", (1.0,),
                options={"window": "x"},
            ),
            lambda: ExperimentSpec("lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 32), "v", ("a",)),
            lambda: fock_prep_window(0.1, 1.0, 1.0, 1.5),
            lambda: cascade_gaps(0.1, 1.0, 1.0, n_max=2.5),
            lambda: multimode_gaps(MultiModeParams(1.0, (Mode(1.0, 1.0, 8),)), (2.5,)),
        ],
        ids=[
            "schedule-string", "qrm-string", "lz-rate-string", "option-string",
            "scan-value-string", "fock-window-fraction", "n-max-fraction", "cap-fraction",
        ],
    )
    def test_refuses_values_of_the_wrong_type(self, build):
        # Each used to escape as a bare TypeError or ValueError.
        with pytest.raises(InvalidParameterError):
            build()

    @pytest.mark.parametrize("caps", [(2.5,), 5, (-1,), (3, 3)])
    def test_refuses_bad_caps(self, caps):
        # run_experiment used to raise TypeError from range() or tuple().
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        with pytest.raises(InvalidParameterError, match="cap"):
            ExperimentSpec("multimode_scan", p, "v_over_delta2", (1e3,), options={"caps": caps})

    def test_trace_axes_stay_signed(self):
        p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
        spec = ExperimentSpec(
            "lz_trace", p, "epsilon_over_omega", (-5.0, 0.0, 5.0), options={"rate": 10.0}
        )
        assert spec.scan_values == (-5.0, 0.0, 5.0)
        # The trace's own rate is a rate: zero used to divide by zero at run time.
        with pytest.raises(InvalidParameterError):
            ExperimentSpec(
                "lz_trace", p, "epsilon_over_omega", (-5.0, 5.0), options={"rate": 0.0}
            )
