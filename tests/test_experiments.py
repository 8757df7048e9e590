from rabisweep.experiments import ExperimentSpec, run_experiment
from rabisweep.model import Mode, MultiModeParams


class TestScanLoop:
    def test_failed_row_does_not_stop_the_scan(self):
        # At v = 0.3 delta^2 the crossings past the default caps hold more
        # survival weight than the oracle allows; the slower and the faster
        # rate both stay inside the caps.
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        spec = ExperimentSpec(
            "multimode_scan", p, "v_over_delta2", (0.1, 0.3, 1e3), n_steps=1000
        )
        table = run_experiment(spec)
        assert [row.scan_value for row in table.rows] == [0.1, 0.3, 1e3]
        first, failed, last = table.rows
        assert failed.sim is None and failed.oracle is None and not failed.converged
        assert failed.warnings[0].startswith("GapTruncationError")
        for row in (first, last):
            assert row.sim is not None and row.oracle is not None
            assert abs(sum(r.probability for r in row.sim) - 1.0) <= 1e-8
        assert len(table.provenance["wall_times_s"]) == 3
