import json
import platform

import numpy as np
import pytest
import scipy

from rabisweep.experiments import ExperimentSpec, run_experiment
from rabisweep.io import parse_result_csv, render_result_csv, write_result_table
from rabisweep.model import BasisLabel, Mode, MultiModeParams, QrmParams


@pytest.fixture(scope="module")
def table():
    p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
    return run_experiment(ExperimentSpec(
        "lz_scan", p, "v_over_delta2", (1.0, 10.0, 100.0), options={"simulate": False}
    ))


class TestCsv:
    def test_round_trip(self, table):
        parsed = parse_result_csv(render_result_csv(table))
        expected = [
            (row.scan_value, rec.label, rec.probability, row.converged)
            for row in table.rows
            for rec in row.oracle
        ]
        assert len(parsed) == len(expected)
        for got, (scan_value, label, probability, converged) in zip(parsed, expected):
            assert got.scan_value == scan_value
            assert got.label == label
            assert got.probability is None
            assert got.oracle_probability == pytest.approx(probability, rel=1e-8, abs=1e-300)
            assert got.converged is converged

    def test_identical_configs_write_identical_bytes(self, tmp_path):
        p = QrmParams(0.1, 0.0, 1.0, 1.0, 32)
        paths = []
        for out in ("a", "b"):
            spec = ExperimentSpec(
                "lz_scan", p, "v_over_delta2", (1.0, 10.0, 100.0), options={"simulate": False}
            )
            csv_path, _ = write_result_table(run_experiment(spec), tmp_path / out)
            paths.append(csv_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_one_mode_labels_round_trip(self):
        # A one-mode occupation tuple must not read back as a plain int.
        p = MultiModeParams(1.0, (Mode(1.0, 1.0, 8),))
        spec = ExperimentSpec(
            "multimode_scan", p, "v_over_delta2", (1e3, 1e4), options={"simulate": False}
        )
        table = run_experiment(spec)
        text = render_result_csv(table)
        assert BasisLabel("displaced", "up", (0,)) in table.labels()
        assert [r.label for r in parse_result_csv(text)] == [
            rec.label for row in table.rows for rec in row.oracle
        ]
        assert ",displaced,up,0;," in text


class TestManifest:
    def test_records_the_environment(self, table, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        csv_path, manifest_path = write_result_table(table, tmp_path)
        env = json.loads(manifest_path.read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert all(isinstance(v, str) and v for v in env["blas"].values())
        assert env["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["threads"]["MKL_NUM_THREADS"] is None
        assert set(env["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"
        }
        # The environment goes to the manifest only: the CSV keeps its bytes.
        assert csv_path.read_bytes() == render_result_csv(table).encode("utf-8")
