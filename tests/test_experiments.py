import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from rabisweep.errors import InvalidParameterError, NumericalInstabilityError
from rabisweep import experiments, model, sweep
from rabisweep.analytics import (
    cascade_gaps,
    fock_prep_window,
    lz_probability,
    multimode_gaps,
    poisson_overlap,
)
from rabisweep.experiments import (
    ExperimentSpec,
    ResultRow,
    _row_checks,
    default_quench_delta_hi,
    lz_window,
    run_experiment,
)
from rabisweep.io import render_result_csv
from rabisweep.model import (
    EVEN_SECTOR,
    TOP_OCCUPANCY_TOL,
    BasisLabel,
    Mode,
    MultiModeParams,
    QrmParams,
    Readout,
    displaced_fock_tail,
    displaced_level_fits,
    parity_block_ladder,
    parity_sector_basis,
    top_fock_occupancy,
)
from rabisweep.operators import eig_hermitian
from rabisweep.presets import PRESETS
from rabisweep.sweep import (
    MIN_N_STEPS,
    SweepSchedule,
    Trajectory,
    greedy_label_assignment,
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

        def recording_run(p, parts, block, psi0):
            blocks.append([s.rate_v for s in block.schedules])
            return run_sweep(p, parts, block, psi0)

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
        assert table.provenance["propagation_s"] > 0 and table.provenance["readout_s"] >= 0

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
        # A scan propagates its rates as one block and reads them out in one
        # call; each row must be what its rate gives in a run of its own,
        # read out in the even block's eigenbasis at zero gap (one dense
        # eigh, named by the superradiant states) or in the displaced basis.
        spec = ExperimentSpec(kind, params, "rate", (10.0, 100.0, 1e3), n_steps=1000)
        table = run_experiment(spec)
        assert table.provenance["propagation_s"] > 0
        assert table.provenance["oracle_s"] >= 0 and table.provenance["readout_s"] >= 0
        if kind == "quench_ns":
            start, end = default_quench_delta_hi(params), 0.0
            scale, sector = params.omega**2, EVEN_SECTOR
            psi0 = ground_state(params, "delta", start, sector)
            parts = sweep.hamiltonian_parts(params, "delta", sector)
            _, cols = np.linalg.eigh(parts[0] + end * parts[1])
            labels = greedy_label_assignment(
                *readout_columns(params, "superradiant", sector), cols
            )
        else:
            window = lz_window(params)
            start, end, scale, sector = -window, window, params.delta**2, None
            psi0 = ground_state(params, "epsilon", start)
            parts = sweep.hamiltonian_parts(params, "epsilon")
            cols, labels = readout_columns(params, "displaced")
        for row in table.rows:
            schedule = SweepSchedule(parameter, start, end, row.scan_value * scale, n_steps=1000)
            traj = run_sweep(params, parts, schedule, psi0)
            alone = project_records(cols, labels, traj.final_state)
            assert row.checks["chebyshev_terms"] == traj.chebyshev_terms > 0
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
        assert "propagation_s" not in table.provenance and "readout_s" not in table.provenance
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
            sampled[1] *= 1.01
            return sampled, terms

        monkeypatch.setattr(sweep, "_evolve_linear", drift_second_run)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        spec = ExperimentSpec("quench_ns", p, "rate", (10.0, 100.0, 1e3), n_steps=1000)
        first, failed, last = run_experiment(spec).rows
        assert failed.sim is None and not failed.converged
        assert failed.warnings[0].startswith("NumericalInstabilityError")
        assert first.converged and last.converged

    def test_a_rate_past_the_z_limit_fails_only_its_row(self):
        # The slowest rate's step spans z far past the propagator's limit:
        # its row carries that refusal, and the faster rates still run.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        spec = ExperimentSpec(
            "quench_ns", p, "rate", (1e-9, 100.0, 1e3), n_steps=1000, options={"delta_hi": 20.0}
        )
        refused, *ran = run_experiment(spec).rows
        assert refused.sim is None and not refused.converged
        assert refused.warnings[0].startswith("NumericalInstabilityError: a step spans z")
        assert all(row.sim is not None and row.converged for row in ran)

    def test_one_readout_call_reads_the_finished_runs(self, monkeypatch):
        # The second run drifts; the other two final states are read out in
        # one call, and an error that call raises fails just their rows.
        evolve = sweep._evolve_linear

        def drift_second_run(*args):
            sampled, terms = evolve(*args)
            sampled[1] *= 1.01
            return sampled, terms

        blocks = []

        def failing_series(tridiagonal, values, states, solved):
            blocks.append((list(values), states.shape))
            raise NumericalInstabilityError("no level series")

        monkeypatch.setattr(sweep, "_evolve_linear", drift_second_run)
        monkeypatch.setattr(experiments, "eigen_level_series", failing_series)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        spec = ExperimentSpec(
            "quench_ns", p, "rate", (10.0, 100.0, 1e3), n_steps=1000, options={"delta_hi": 20.0}
        )
        first, drifted, last = run_experiment(spec).rows
        assert blocks == [([0.0, 0.0], (16, 2))]
        assert drifted.warnings[0].startswith("NumericalInstabilityError: norm drifted")
        for row in (first, last):
            assert row.sim is None
            assert row.warnings == ("NumericalInstabilityError: no level series",)


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

    @pytest.mark.parametrize("kind", ["quench_ns", "quench_sn"])
    def test_sim_and_oracle_share_one_label_tuple(self, kind):
        # The levels are named once per table, and the Poisson oracle takes
        # those names: every row's sim and oracle hold the one tuple.
        spec = ExperimentSpec(
            kind, self.P, "v_over_omega2", (1e3, 1e4), n_steps=1000,
            options={"delta_hi": 100.0},
        )
        rows = run_experiment(spec).rows
        for row in rows:
            assert row.sim.labels is row.oracle.labels is rows[0].sim.labels

    @pytest.mark.parametrize("kind", ["quench_ns", "quench_sn"])
    def test_a_quench_table_solves_its_two_ends_densely(self, monkeypatch, kind):
        # Both ends are dense solves of the block's parts: the start's gives
        # the initial state; the far end's names the levels, its lowest
        # column is that end's ground state for the endpoint check, and its
        # vectors read every rate's final state there. The runs make none,
        # and no tridiagonal solve is made.
        spies = {}
        for name in ("_tridiagonal_eigh", "_lowest_eigenvector", "eig_hermitian"):
            holders = [m for m in (sweep, experiments) if hasattr(m, name)]
            spies[name] = mock.Mock(wraps=getattr(holders[0], name))
            for module in holders:
                monkeypatch.setattr(module, name, spies[name])
        spec = ExperimentSpec(
            kind, self.P, "v_over_omega2", (1e2, 1e3, 1e4), n_steps=1000,
            options={"delta_hi": 100.0},
        )
        rows = run_experiment(spec).rows
        assert all(row.sim is not None for row in rows)
        assert [spy.call_count for spy in spies.values()] == [0, 1, 2]

    @pytest.mark.parametrize("preset", ["fig1a", "fig3a"])
    def test_the_dense_far_end_solve_agrees_with_the_tridiagonal_one(self, preset):
        # A scan's far end and a trace's other samples are solved two ways:
        # at zero gap and at delta_hi, the dense solve of the block's parts
        # and dstevd on its ladder give one spectrum and one set of
        # populations of the table's initial state.
        spec = PRESETS[preset].build()
        setup, _, _ = experiments._quench(spec)
        ladder = parity_block_ladder(spec.params, EVEN_SECTOR)
        for value in (0.0, spec.options["delta_hi"]):
            w, v = eig_hermitian(setup.parts[0] + value * setup.parts[1])
            w_tri, v_tri = sweep._tridiagonal_eigh(*ladder, value)
            assert np.max(np.abs(w - w_tri)) <= 1e-12 * np.max(np.abs(w))
            pops = np.abs(v.T @ setup.psi0.amplitudes) ** 2
            pops_tri = np.abs(v_tri.T @ setup.psi0.amplitudes) ** 2
            assert np.max(np.abs(pops - pops_tri)) <= 1e-13

    @pytest.mark.parametrize("kind", ["quench_ns", "quench_sn"])
    def test_every_row_weighs_both_ends_of_its_quench(self, kind):
        # At g/omega = 2 in 8 levels the zero-gap ground state holds 1.43e-2
        # on the top level, and the gap-100 one 4e-12. That is the far end
        # of an ns quench and psi0 of an sn one, so each half of the
        # table's max is covered: every row records the weight once and
        # fails on it with one warning.
        p = QrmParams(0.0, 0.0, 1.0, 2.0, 8)
        spec = ExperimentSpec(
            kind, p, "v_over_omega2", (1e3, 1e4), n_steps=1000, options={"delta_hi": 100.0}
        )
        ends = [
            top_fock_occupancy(p, ground_state(p, "delta", d, EVEN_SECTOR).amplitudes)
            for d in (0.0, 100.0)
        ]
        assert ends[1] < 1e-10
        rows = run_experiment(spec).rows
        assert len(rows) == 2
        for row in rows:
            assert row.checks["endpoint_top_fock_occupancy"] == pytest.approx(1.43e-2, rel=1e-2)
            assert row.checks["endpoint_top_fock_occupancy"] == pytest.approx(max(ends), rel=1e-12)
            assert len([w for w in row.warnings if "Fock ladder" in w]) == 1

    @pytest.mark.parametrize(
        "kind, params, axis, options",
        [
            ("lz_scan", QrmParams(0.3, 0.0, 1.0, 1.0, 16), (10.0, 100.0), {"window": 10.0}),
            ("lz_trace", QrmParams(0.3, 0.0, 1.0, 1.0, 16), (-5.0, 0.0, 5.0),
             {"window": 10.0, "rate": 100.0}),
            ("multimode_scan", MultiModeParams(1.0, (Mode(1.0, 1.0, 8),)), (1e3,), {}),
        ],
    )
    def test_a_bias_table_weighs_both_edges_once(self, monkeypatch, kind, params, axis, options):
        # The setup assembles the full space once and solves it at both
        # window edges, psi0 at -window and the far end at +window; every
        # row records the larger of the two dense ground states' weights.
        spec = ExperimentSpec(kind, params, "axis", axis, n_steps=1000, options=options)
        window = experiments._endpoint_option(spec)[1]
        expected = max(
            top_fock_occupancy(params, ground_state(params, "epsilon", e).amplitudes)
            for e in (-window, window)
        )
        assert expected > 0.0
        spies = {}
        for name in ("hamiltonian_parts", "_lowest_eigenvector"):
            spies[name] = mock.Mock(wraps=getattr(sweep, name))
            monkeypatch.setattr(experiments, name, spies[name])
        monkeypatch.setattr(sweep, "_lowest_eigenvector", spies["_lowest_eigenvector"])
        rows = run_experiment(spec).rows
        assert [spy.call_count for spy in spies.values()] == [1, 2]
        for row in rows:
            assert row.checks["endpoint_top_fock_occupancy"] == expected

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
        traj = run_sweep(p, sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR), s, psi0)
        # The run records its weights and passes no verdict on them.
        assert not hasattr(traj, "warnings")
        occupancy = top_fock_occupancy(p, ground_state(p, "delta", 0.0, EVEN_SECTOR).amplitudes)
        assert occupancy > TOP_OCCUPANCY_TOL
        records = project_records(
            *readout_columns(p, "superradiant", EVEN_SECTOR), traj.final_state
        )

        checks, warnings = _row_checks(traj, records, occupancy)
        assert len([w for w in warnings if "Fock ladder" in w]) == 1
        assert checks["endpoint_top_fock_occupancy"] == occupancy
        # The row carries the run's step count and Chebyshev terms per step.
        assert checks["n_steps"] == 2000
        assert checks["chebyshev_terms"] == traj.chebyshev_terms

        _, warnings = _row_checks(traj, records, occupancy, top_occupancy_tol=2.0 * occupancy)
        assert warnings == ()

    def test_chebyshev_runs_report_their_terms(self):
        # On the fig1a block at 32 levels, a faster sweep over the same gap
        # takes fewer terms per step.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 32)
        psi0 = ground_state(p, "delta", 200.0, EVEN_SECTOR)
        cols, labels = readout_columns(p, "superradiant", EVEN_SECTOR)
        parts = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        terms = []
        for rate in (1e3, 1e5):
            s = SweepSchedule("delta", 200.0, 0.0, rate, n_steps=1000)
            traj = run_sweep(p, parts, s, psi0)
            checks, warnings = _row_checks(
                traj, project_records(cols, labels, traj.final_state), 0.0
            )
            assert warnings == ()
            assert checks["parity_leakage"] is None
            assert checks["n_steps"] == 1000
            terms.append(checks["chebyshev_terms"])
        assert terms[0] > terms[1] > 2


    @staticmethod
    def _judge(norm=0.0, leakage=None, occupancy=0.0, total=1.0):
        """``_row_checks`` of a run that recorded these values."""
        traj = Trajectory(
            schedule=SweepSchedule("delta", 1.0, 0.0, 1.0, n_steps=1000, sample_steps=(1000,)),
            states=np.ones((1, 1), dtype=complex),
            max_norm_deviation=norm,
            max_parity_leakage=leakage,
            top_fock_occupancy=occupancy,
            chebyshev_terms=0,
        )
        labels = (BasisLabel("normal", "right", 0), BasisLabel("normal", "left", 0))
        return _row_checks(traj, Readout(labels, [total - 0.25, 0.25]), 0.0)

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
        # and the limit.
        _, warnings = self._judge(**recorded)
        assert warnings == (warning,)

    def test_no_warning_within_the_limits(self):
        # At each limit, or with leakage unmeasured, the row converges.
        for recorded in ({}, {"norm": 1e-8, "leakage": 1e-10, "occupancy": 1e-6}):
            _, warnings = self._judge(**recorded)
            assert warnings == ()
        _, warnings = self._judge(norm=1.0, leakage=1.0, occupancy=1.0, total=0.5)
        assert len(warnings) == 4

    def test_a_row_converged_when_it_has_no_warning(self):
        assert ResultRow(1.0, None, None).converged
        assert not ResultRow(1.0, None, None, warnings=("a limit",)).converged
        # A flag passed where converged used to be would land in the checks.
        with pytest.raises(TypeError):
            ResultRow(1.0, None, None, True)


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
            # Steps of 0.04 on the axis: -10 and -9.999999 both land on step 0.
            ("quench_trace", (-10.0, -9.999999, -5.0, -1.0),
             {"direction": "ns", "rate": 100.0, "delta_hi": 20.0}),
            ("lz_trace", (-10.0, 0.0, 0.001, 5.0), {"rate": 1e3, "window": 10.0}),
        ],
    )
    def test_axis_values_on_one_step_are_refused(self, monkeypatch, kind, axis, options):
        # Their rows would share a manifest key: refused, naming both
        # values, before the sweep runs.
        def no_run(*args, **kwargs):
            raise AssertionError("a refused trace ran")

        monkeypatch.setattr(experiments, "run_sweep", no_run)
        p = QrmParams(0.0 if kind == "quench_trace" else 0.3, 0.0, 1.0, 1.0, 16)
        spec = ExperimentSpec(kind, p, "axis", axis, n_steps=1000, options=options)
        with pytest.raises(InvalidParameterError, match="fall on one step") as refusal:
            run_experiment(spec)
        shared = axis[:2] if kind == "quench_trace" else axis[1:3]
        assert all(repr(v) in str(refusal.value) for v in shared)

    @pytest.mark.parametrize(
        "kind, params, axis, options",
        [
            ("quench_ns", QrmParams(0.0, 0.0, 1.0, 0.5, 16), (1e3, 1e4), {"delta_hi": 100.0}),
            ("quench_sn", QrmParams(0.0, 0.0, 1.0, 0.5, 16), (1e4,), {"delta_hi": 100.0}),
            ("quench_trace", QrmParams(0.0, 0.0, 1.0, 0.5, 16), (-100.0, -50.0, 0.0),
             {"direction": "ns", "rate": 1e4, "delta_hi": 100.0}),
            ("quench_trace", QrmParams(0.0, 0.0, 1.0, 0.5, 16), (0.0, 50.0, 100.0),
             {"direction": "sn", "rate": 1e4, "delta_hi": 100.0}),
            ("lz_scan", QrmParams(0.3, 0.0, 1.0, 1.0, 16), (10.0, 100.0), {"window": 10.0}),
            ("lz_trace", QrmParams(0.3, 0.0, 1.0, 1.0, 16), (-5.0, 0.0, 5.0),
             {"window": 10.0, "rate": 100.0}),
            ("multimode_scan", MultiModeParams(1.0, (Mode(1.0, 1.0, 8),)), (1e3,), {}),
        ],
        ids=["quench_ns", "quench_sn", "trace-ns", "trace-sn", "lz_scan", "lz_trace", "multimode"],
    )
    def test_a_simulated_table_assembles_its_parts_once(
        self, monkeypatch, kind, params, axis, options
    ):
        # Its setup assembles the parts once per table; every run takes
        # those same arrays. A quench table builds nothing in the full
        # space: its parts, level solves and readout columns come from the
        # even block's ladder. A quench starts from the ground state that
        # ground_state gives at the start of the table's ramp.
        spec = ExperimentSpec(kind, params, "axis", axis, n_steps=1000, options=options)
        assembled, handed = [], []
        assemble = sweep.hamiltonian_parts

        def recording_parts(*args):
            assembled.append(assemble(*args))
            return assembled[-1]

        for module in (sweep, experiments):
            monkeypatch.setattr(module, "hamiltonian_parts", recording_parts)
        full_space = {}
        for name in (
            "build_qrm", "build_multimode", "delta_ramp", "epsilon_ramp", "parity_sector_basis",
            "scheme_basis",
        ):
            full_space[name] = mock.Mock(wraps=getattr(model, name))
            for module in (model, sweep, experiments):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, full_space[name])
        run = experiments.run_sweep

        def recording_run(p, parts, schedule, psi0):
            handed.append(parts)
            return run(p, parts, schedule, psi0)

        monkeypatch.setattr(experiments, "run_sweep", recording_run)
        rows = run_experiment(spec).rows
        assert all(row.sim is not None for row in rows)
        quench = kind.startswith("quench")
        assert len(assembled) == 1
        assert len(handed) == 1 and handed[0] is assembled[0]
        if not quench:
            # A bias table's static part is the zero-bias build_multimode.
            assert full_space["build_multimode"].call_count == 1
            assert full_space["build_qrm"].call_count == 0
        else:
            calls = {name: spy.call_count for name, spy in full_space.items()}
            assert calls == dict.fromkeys(full_space, 0)
            setup, _, _ = experiments._quench(spec)
            start = setup.ramp[1]
            reference = ground_state(params, "delta", start, EVEN_SECTOR)
            assert start == (100.0 if options.get("direction", kind[-2:]) == "ns" else 0.0)
            assert setup.psi0.sector == reference.sector == EVEN_SECTOR
            assert np.array_equal(setup.psi0.amplitudes, reference.amplitudes)

    @pytest.mark.parametrize(
        "kind, axis, options, unit",
        [
            ("quench_trace", (-10.0, -3.7, 0.0),
             {"direction": "ns", "rate": 1e3, "delta_hi": 20.0}, -2.0),
            ("quench_trace", (0.0, 3.7, 10.0),
             {"direction": "sn", "rate": 1e3, "delta_hi": 20.0}, 2.0),
            ("lz_trace", (-5.0, 0.0, 1.3, 5.0), {"rate": 1e3, "window": 10.0}, 2.0),
        ],
        ids=["quench-ns", "quench-sn", "lz"],
    )
    def test_rows_sit_at_the_ramp_values_of_their_steps(
        self, monkeypatch, kind, axis, options, unit
    ):
        # At omega = 2 an axis unit is -omega toward zero gap and +omega
        # otherwise: each row's scan value times it is the ramp value
        # start + (end - start) k/n of its sampled step k, the step nearest
        # its axis value, and the axis value 0 prints as 0, never -0.
        runs = []
        run = experiments.run_sweep

        def recording_run(*args):
            runs.append(run(*args))
            return runs[-1]

        monkeypatch.setattr(experiments, "run_sweep", recording_run)
        p = QrmParams(0.1 if kind == "lz_trace" else 0.0, 0.0, 2.0, 1.0, 16)
        table = run_experiment(
            ExperimentSpec(kind, p, "axis", axis, n_steps=1000, options=options)
        )
        (traj,) = runs
        s = traj.schedule
        ramp = [
            s.start_value + (s.end_value - s.start_value) * (k / s.n_steps)
            for k in s.sample_steps
        ]
        assert [row.scan_value * unit for row in table.rows] == pytest.approx(ramp, rel=1e-15)
        half_step = 0.5 * abs(s.end_value - s.start_value) / s.n_steps / abs(unit)
        assert [row.scan_value for row in table.rows] == pytest.approx(axis, abs=half_step)
        scan_texts = [line.split(",")[0] for line in render_result_csv(table).splitlines()[1:]]
        assert "0" in scan_texts and "-0" not in scan_texts

    @pytest.mark.parametrize("direction, scheme", [("ns", "superradiant"), ("sn", "normal")])
    def test_a_quench_trace_names_its_levels_by_its_direction(self, direction, scheme):
        # Its zero-gap sample alone, the end of an ns quench or the start of
        # an sn one, reads in the scheme of its direction; the ns end reads
        # as the last of several samples does.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        options = {"direction": direction, "rate": 1e3, "delta_hi": 20.0}

        def trace(axis):
            spec = ExperimentSpec("quench_trace", p, "axis", axis, n_steps=1000, options=options)
            return run_experiment(spec).rows

        (alone,) = trace((0.0,))
        assert {label.scheme for label in alone.sim.labels} == {scheme}
        if direction == "ns":
            last = trace((-20.0, 0.0))[-1]
            assert alone.sim.labels == last.sim.labels
            assert np.array_equal(alone.sim.probabilities, last.sim.probabilities)

    @pytest.mark.parametrize("direction, axis", [("ns", (-20.0, 0.0)), ("sn", (0.0, 20.0))])
    def test_a_scan_row_is_the_last_row_of_its_trace(self, direction, axis):
        # Scans and traces share one readout: a quench scan row at rate v
        # reads as the trace at v does at the far end. The ns row used to be
        # projected onto the truncated superradiant columns.
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        scan = ExperimentSpec(
            f"quench_{direction}", p, "v", (1e3,), n_steps=1000, options={"delta_hi": 20.0}
        )
        trace = ExperimentSpec(
            "quench_trace", p, "axis", axis, n_steps=1000,
            options={"direction": direction, "rate": 1e3, "delta_hi": 20.0},
        )
        (row,) = run_experiment(scan).rows
        last = run_experiment(trace).rows[-1]
        assert row.sim.labels == last.sim.labels
        assert np.max(np.abs(row.sim.probabilities - last.sim.probabilities)) <= 1e-12

    @pytest.mark.parametrize(
        "direction, axis", [("ns", (-20.0, -10.0, 0.0)), ("sn", (0.0, 10.0, 20.0))]
    )
    def test_a_trace_short_of_the_far_end_keeps_the_far_end_names(self, direction, axis):
        # The levels are named once, at the far end of the sweep: a trace
        # whose axis stops short of it carries the labels of the full trace
        # and of the scan row at its rate. A short trace used to name its
        # levels at its last sample, where their order differs (both
        # directions here).
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        trace = {"direction": direction, "rate": 1e3, "delta_hi": 20.0}

        def labels(kind, values, options):
            spec = ExperimentSpec(kind, p, "axis", values, n_steps=1000, options=options)
            return {row.sim.labels for row in run_experiment(spec).rows}

        scan = labels(f"quench_{direction}", (1e3,), {"delta_hi": 20.0})
        assert len(scan) == 1
        assert labels("quench_trace", axis[:-1], trace) == labels("quench_trace", axis, trace)
        assert labels("quench_trace", axis, trace) == scan

    def test_end_of_sweep_is_checked_when_not_sampled(self):
        # Sampling only the first half of a sweep returns those samples, but
        # the truncation and conservation checks still see the end state.
        p = QrmParams(0.0, 0.0, 1.0, 2.0, 8)
        s = SweepSchedule(
            "delta", 100.0, 0.0, 1000.0, n_steps=2000, sample_steps=(0, 1000)
        )
        psi0 = ground_state(p, "delta", 100.0, EVEN_SECTOR)
        parts = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        traj = run_sweep(p, parts, s, psi0)
        whole = run_sweep(p, parts, replace(s, sample_steps=None), psi0)
        assert traj.schedule.sample_steps == (0, 1000)
        assert traj.states.shape == (p.n_fock, 2)
        assert traj.top_fock_occupancy == whole.top_fock_occupancy
        basis, _ = parity_sector_basis(p, EVEN_SECTOR)
        halfway = top_fock_occupancy(p, basis @ traj.final_state)
        assert halfway != pytest.approx(traj.top_fock_occupancy, rel=1e-3)

    @staticmethod
    def _run_with_the_end_scaled(monkeypatch, scale: float):
        # The run samples the first half of the sweep; only the state at its
        # end, which no sample asks for, is scaled.
        evolve = sweep._evolve_linear

        def scale_the_end(*args):
            sampled, terms = evolve(*args)
            sampled[:, -1] *= scale
            return sampled, terms

        monkeypatch.setattr(sweep, "_evolve_linear", scale_the_end)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        s = SweepSchedule(
            "delta", 100.0, 0.0, 1000.0, n_steps=2000, sample_steps=(0, 1000)
        )
        parts = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        return run_sweep(p, parts, s, ground_state(p, "delta", 100.0, EVEN_SECTOR))

    def test_unsampled_end_norm_drift_is_a_warning(self, monkeypatch):
        # The run records the drift; the row judges it, once, against its limit.
        traj = self._run_with_the_end_scaled(monkeypatch, 1.0 + 1e-7)
        assert traj.max_norm_deviation == pytest.approx(1e-7, rel=1e-6)
        p = QrmParams(0.0, 0.0, 1.0, 1.0, 16)
        readout = project_records(
            *readout_columns(p, "superradiant", EVEN_SECTOR), traj.final_state
        )
        _, warnings = _row_checks(traj, readout, 0.0)
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
            n_steps, steps = args[5], args[7]
            for i, k in enumerate(steps):
                if 2 * k >= n_steps:
                    sampled[:, i] *= 1.0 + 1e-7 * (1.0 + k / n_steps)
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


    @pytest.mark.parametrize("g, n_fock", [(1.0, 32), (1.0, 64), (2.0, 32), (2.0, 64)])
    def test_the_zero_gap_eigenbasis_is_the_superradiant_basis(self, g, n_fock):
        # An ns quench reads out in the even block's eigenvectors at zero
        # gap, named by the superradiant states. On every level that fits
        # the ladder, each vector is its named state's column within 1e-13
        # of fidelity beyond that level's own truncation tail, and the names
        # run in photon order.
        p = QrmParams(0.0, 0.0, 1.0, g, n_fock)
        spec = ExperimentSpec("quench_ns", p, "v", (1e3,), options={"delta_hi": 20.0})
        setup, _, named = experiments._quench(spec)
        readout = setup.readout
        cols, labels = readout_columns(p, "superradiant", EVEN_SECTOR)
        # Read out, the columns give the fidelity of each named level with
        # each column.
        overlaps = readout(np.zeros(n_fock), cols)
        assert overlaps[0].labels is named
        assert sorted(named, key=lambda lab: lab.photons) == labels
        fits = [displaced_level_fits(g, lab.photons, n_fock) for lab in named]
        assert named[: sum(fits)] == tuple(labels[: sum(fits)])
        for k, row in enumerate(overlaps):
            level = named.index(labels[k])
            if fits[level]:
                tail = displaced_fock_tail(g, labels[k].photons, n_fock)
                assert 1.0 - row.probabilities[level] <= tail + 1e-13


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

    @pytest.mark.parametrize("kind", ["lz_scan", "lz_trace"])
    def test_refuses_values_alike_at_nine_significant_digits(self, kind):
        # Rows are keyed by their value at 9 significant digits in the
        # manifest, so two such values would overwrite each other's key.
        p = QrmParams(0.1, 0.0, 1.0, 0.1, 32)
        options = {"simulate": False} if kind == "lz_scan" else {"rate": 10.0}
        with pytest.raises(InvalidParameterError, match="9 significant digits") as refusal:
            ExperimentSpec(kind, p, "v", (1.0, 1.0000000001, 2.0), options=options)
        assert "1.0 and 1.0000000001" in str(refusal.value)
        ExperimentSpec(kind, p, "v", (1.0, 1.00000001, 2.0), options=options)

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

    @pytest.mark.parametrize("kind", ["lz_scan", "multimode_scan"])
    def test_simulate_takes_only_a_bool(self, kind):
        # The option is read as a flag: "no" used to run the full simulation.
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        if kind == "lz_scan":
            p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
        for simulate in (True, False, np.bool_(True), np.bool_(False)):
            ExperimentSpec(kind, p, "v_over_delta2", (1.0,), options={"simulate": simulate})
        for simulate in ("no", "", 0, 1, None, 1.0):
            with pytest.raises(InvalidParameterError, match="simulate"):
                ExperimentSpec(kind, p, "v_over_delta2", (1.0,), options={"simulate": simulate})

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
            lambda: ExperimentSpec(
                "lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 32), "v", (1.0,), options=None
            ),
            lambda: ExperimentSpec("lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 32), "v", 1.0),
            lambda: MultiModeParams(0.1, (1, 2)),
            lambda: MultiModeParams(0.1, Mode(1.0, 1.0, 8)),
        ],
        ids=[
            "schedule-string", "qrm-string", "lz-rate-string", "option-string",
            "scan-value-string", "fock-window-fraction", "n-max-fraction", "cap-fraction",
            "options-none", "scan-values-scalar", "modes-of-numbers", "mode-not-in-a-sequence",
        ],
    )
    def test_refuses_values_of_the_wrong_type(self, build):
        # Each used to escape as a bare TypeError, ValueError or, from a
        # later p.dim, AttributeError.
        with pytest.raises(InvalidParameterError):
            build()

    @pytest.mark.parametrize("simulate", [True, False])
    def test_refuses_a_mode_below_its_default_cap(self, simulate):
        # Without caps a mode's cap is n_fock - 3; at n_fock 2 the run used
        # to fail on a cap of -1 that nobody gave. A given cap is accepted.
        p = MultiModeParams(1.0, (Mode(1.0, 0.5, 2),))
        with pytest.raises(InvalidParameterError, match="n_fock under the default caps.*got 2"):
            ExperimentSpec(
                "multimode_scan", p, "v_over_delta2", (1e3,), options={"simulate": simulate}
            )
        ExperimentSpec("multimode_scan", p, "v_over_delta2", (1e3,), options={"caps": (0,)})

    @pytest.mark.parametrize("caps", [(2.5,), 5, (-1,), (3, 3)])
    def test_refuses_bad_caps(self, caps):
        # run_experiment used to raise TypeError from range() or tuple().
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        with pytest.raises(InvalidParameterError, match="cap"):
            ExperimentSpec("multimode_scan", p, "v_over_delta2", (1e3,), options={"caps": caps})

    @pytest.mark.parametrize(
        "kind, scan, options",
        [
            ("quench_ns", (10.0,), {}),
            ("quench_trace", (-1.0, 0.0), {"direction": "ns", "rate": 10.0}),
            ("lz_scan", (10.0,), {"simulate": False}),
            ("lz_trace", (-1.0, 0.0), {"rate": 10.0}),
            ("multimode_scan", (10.0,), {"simulate": False}),
        ],
    )
    def test_each_kind_takes_one_params_type(self, kind, scan, options):
        # An lz_scan on multimode parameters used to escape run_experiment
        # as a bare AttributeError from cascade_gaps.
        single = QrmParams(1.0, 0.0, 1.0, 1.0, 8)
        multi = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        good, bad = (multi, single) if kind == "multimode_scan" else (single, multi)
        ExperimentSpec(kind, good, "v", scan, options=options)
        with pytest.raises(InvalidParameterError, match=f"{kind} takes {type(good).__name__}"):
            ExperimentSpec(kind, bad, "v", scan, options=options)

    @pytest.mark.parametrize(
        "kind, params, scan, options",
        [
            ("lz_scan", QrmParams(0.0, 0.0, 1.0, 1.0, 8), (10.0,), {"simulate": False}),
            ("lz_trace", QrmParams(0.0, 0.0, 1.0, 1.0, 8), (-1.0, 0.0), {"rate": 10.0}),
            ("multimode_scan", MultiModeParams(0.0, (Mode(1.0, 1.0, 8),)), (10.0,), {}),
        ],
    )
    def test_bias_sweeps_refuse_zero_delta(self, kind, params, scan, options):
        # Their rates are in units of delta^2: an lz trace at delta = 0 used
        # to escape as a ZeroDivisionError after a RuntimeWarning, and the
        # scans failed every row.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvalidParameterError, match="units of delta"):
                ExperimentSpec(kind, params, "v", scan, options=options)

    @pytest.mark.parametrize(
        "kind, params, scan, options, message",
        [
            ("quench_ns", QrmParams(0.0, 0.0, 1.0, 1e200, 16), (10.0,), {}, "default delta_hi"),
            ("quench_trace", QrmParams(0.0, 0.0, 1.0, 1e200, 16), (0.0,),
             {"rate": 10.0, "direction": "sn"}, "default delta_hi"),
            ("lz_scan", QrmParams(1.0, 0.0, 1.0, 1e200, 16), (10.0,), {}, "default window"),
            ("lz_scan", QrmParams(1e200, 0.0, 1.0, 1.0, 16), (10.0,),
             {"window": 30.0, "simulate": False}, "rate unit"),
            ("multimode_scan", MultiModeParams(1e200, (Mode(1.0, 1.0, 8),)), (10.0,),
             {"window": 30.0}, "rate unit"),
            ("quench_sn", QrmParams(0.0, 0.0, 1e200, 1.0, 16), (10.0,), {"delta_hi": 20.0},
             "rate unit"),
        ],
    )
    def test_refuses_a_derived_endpoint_or_rate_unit_that_is_not_finite(
        self, kind, params, scan, options, message
    ):
        # 4 (g/omega)^2 and delta^2 overflow here: the spec is refused when
        # built, where the run used to fail on an infinite endpoint or the
        # float power's OverflowError.
        with pytest.raises(InvalidParameterError, match=message):
            ExperimentSpec(kind, params, "v", scan, options=options)
        if "default" in message:
            with pytest.raises(InvalidParameterError, match=message):
                (default_quench_delta_hi if kind.startswith("quench") else lz_window)(params)

    def test_a_given_endpoint_skips_its_default(self):
        # The default delta_hi at g/omega = 1e200 is infinite; a given one
        # is used without deriving it.
        p = QrmParams(0.0, 0.0, 1.0, 1e200, 16)
        spec = ExperimentSpec("quench_ns", p, "v", (10.0,), options={"delta_hi": 20.0})
        assert experiments._endpoint_option(spec) == ("delta_hi", 20.0)

    def test_kinds_come_from_one_map(self):
        assert experiments.EXPERIMENT_KINDS == tuple(experiments._KINDS)
        assert experiments.RATE_SCAN_KINDS == ("quench_ns", "quench_sn", "lz_scan", "multimode_scan")

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
