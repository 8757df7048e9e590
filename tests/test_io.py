import hashlib
import json
import platform
from dataclasses import replace

import numpy as np
import pytest
import scipy

from rabisweep.experiments import ExperimentSpec, ResultRow, ResultTable, run_experiment
from rabisweep.io import emit_svg, parse_result_csv, render_result_csv, write_result_table
from rabisweep.model import BasisLabel, Mode, MultiModeParams, ProbabilityRecord, QrmParams
from rabisweep.presets import PRESETS


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


def _svg_spec(name):
    """The preset's table as the SVG test plots it: multimode_small formula
    only, fig6_valid trimmed to two simulated rates."""
    spec = PRESETS[name].build()
    if name == "multimode_small":
        return replace(spec, options={**spec.options, "simulate": False})
    if name == "fig6_valid":
        return replace(spec, scan_values=(100.0, 300.0), n_steps=2000)
    return spec


class TestSvg:
    # SHA-256 of each SVG as written when every plotted label walked every
    # record on its own; filling the columns in one pass keeps the bytes.
    DIGESTS = {
        "fig5a": "db57349b6679b1656a5858c39fb5aa36e4269ad61bb27532aea76e9dcf5f98d1",
        "fig5b": "a828498070f980caf1f2114f601047bb790afb584c618620a5c88e0d42d4f175",
        "fig5d": "1ba1d83622c8e84a419d4eab56e7391e2c32d3e748d20091d65e2bc354518bd6",
        "multimode_small": "43673c7d96a278b5ffb34c6c091074565919f5e7c21a4853de7c8d5de76f9ce7",
        "fig6_valid": "3eff892e7b73d86c529395709f1030cf5476f914ee94f1c6713febe084561cf1",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_bytes_are_unchanged(self, name, tmp_path):
        table = run_experiment(_svg_spec(name))
        labels = PRESETS[name].svg_labels or table.labels()[:8]
        path = emit_svg(table, list(labels), tmp_path, name)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[name]

    def test_columns_take_each_rows_first_record(self):
        a, b, c = (BasisLabel("displaced", "up", n) for n in range(3))
        spec = ExperimentSpec("lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 8), "v", (1.0, 2.0))
        rows = [
            ResultRow(1.0, (ProbabilityRecord(a, 0.1), ProbabilityRecord(a, 0.2)), None, True),
            ResultRow(2.0, None, (ProbabilityRecord(b, 0.3),), True),
        ]
        columns = ResultTable(spec, rows).columns([a, b, a, c])
        assert list(columns) == [a, b, c]
        np.testing.assert_array_equal(columns[a][0], [0.1, np.nan])
        np.testing.assert_array_equal(columns[a][1], [np.nan, np.nan])
        np.testing.assert_array_equal(columns[b][1], [np.nan, 0.3])
        assert np.isnan(columns[c]).all()


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
