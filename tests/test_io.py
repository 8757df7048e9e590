import hashlib
import json
import math
import platform
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from rabisweep.errors import InvalidParameterError
from rabisweep.experiments import ExperimentSpec, ResultRow, ResultTable, run_experiment
from rabisweep.io import (
    CSV_HEADER,
    emit_svg,
    parse_result_csv,
    read_result_table,
    render_result_csv,
    write_audit,
    write_result_table,
)
from rabisweep.model import (
    BasisLabel,
    Mode,
    MultiModeParams,
    QrmParams,
    Readout,
)
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

    def test_read_result_table_reads_what_was_written(self, table, tmp_path):
        csv_path, _ = write_result_table(table, tmp_path, "formula")
        assert read_result_table(csv_path) == parse_result_csv(render_result_csv(table))

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

    @pytest.mark.parametrize(
        "row",
        [
            "abc,displaced,up,0,0.5,,,true",
            "1,displaced,up,x,0.5,,,true",
            "1,displaced,up,0,0.5q,,,true",
            "1,displaced,up,0;x;,0.5,,,true",
            "1,displaced,up,0,0.5,,,yes",
            "1,displaced,up,0,0.5,,,",
            "1,displaced,up,0,0.5,,",
        ],
        ids=["scan-value", "photons", "probability", "photon-tuple", "converged-yes",
             "converged-empty", "seven-fields"],
    )
    def test_malformed_rows_raise_the_package_error(self, row):
        with pytest.raises(InvalidParameterError, match="malformed result row"):
            parse_result_csv(f"{CSV_HEADER}\n1,displaced,up,0,0.5,,,true\n{row}\n")

    @settings(max_examples=60, deadline=None)
    @given(rows=st.deferred(lambda: _rows()))
    def test_equals_the_per_record_writer(self, rows):
        table = ResultTable(_SPEC, rows)
        assert render_result_csv(table) == _reference_csv(table)


_SPEC = ExperimentSpec("lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 8), "v", (1.0,))

_LABELS = st.one_of(
    st.builds(BasisLabel, st.just("displaced"), st.sampled_from(("up", "down")), st.integers(0, 2)),
    st.builds(
        BasisLabel, st.just("displaced"), st.sampled_from(("up", "down")),
        st.lists(st.integers(0, 1), min_size=1, max_size=2).map(tuple),
    ),
    st.builds(BasisLabel, st.just("normal"), st.sampled_from(("right", "left")), st.integers(0, 2)),
)
_KINDS = st.sampled_from(("sim", "oracle", "both", "failed"))


@st.composite
def _rows(draw):
    """Rows of sim-only, oracle-only, sim+oracle and failed kinds, whose
    readouts draw their label tuples from a small shared pool: by identity,
    as an equal copy, or as a fresh tuple. Labels may repeat in a readout
    and overlap partly between sim and oracle."""
    pool = draw(st.lists(st.lists(_LABELS, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3))

    def readout():
        labels = draw(st.one_of(
            st.sampled_from(pool),
            st.sampled_from(pool).map(lambda t: tuple(list(t))),
            st.lists(_LABELS, min_size=1, max_size=3).map(tuple),
        ))
        probs = draw(st.lists(st.floats(0.0, 1.0), min_size=len(labels), max_size=len(labels)))
        return Readout(labels, probs)

    rows = []
    # Runs of one kind, so that neighbouring rows often have equal-length
    # label tuples that may or may not be the same.
    for kind, count in draw(st.lists(st.tuples(_KINDS, st.integers(1, 3)), max_size=5)):
        for _ in range(count):
            sim = readout() if kind in ("sim", "both") else None
            oracle = readout() if kind in ("oracle", "both") else None
            scan_value = draw(st.floats(-1e6, 1e6, allow_nan=False))
            warnings = draw(st.sampled_from(((), ("a limit was exceeded",))))
            rows.append(ResultRow(scan_value, sim, oracle, warnings=warnings))
    return rows


def _reference_csv(table: ResultTable) -> str:
    """The writer record by record: per row, the simulated labels in order,
    then the oracle's labels the simulation lacks, each at its first record."""
    lines = [CSV_HEADER]
    for row in table.rows:
        pairs: dict = {}
        for rec in row.sim or ():
            pairs.setdefault(rec.label, [rec.probability, None])
        for rec in row.oracle or ():
            pair = pairs.setdefault(rec.label, [None, None])
            if pair[1] is None:
                pair[1] = rec.probability
        for lab, (p_sim, p_or) in pairs.items():
            n = lab.photons
            if isinstance(n, tuple):
                n = ";".join(str(k) for k in n) + (";" if len(n) == 1 else "")
            fields = [
                f"{row.scan_value:.9g}", lab.scheme, lab.qubit, str(n),
                "" if p_sim is None else f"{p_sim:.9g}",
                "" if p_or is None else f"{p_or:.9g}",
                "" if p_sim is None or p_or is None else f"{abs(p_sim - p_or):.9g}",
                "true" if row.converged else "false",
            ]
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


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
        # Sim tuples T1, T2, T1 on rows 3-5, T1 shared by identity and
        # repeating a; rows 2 and 6 have no sim readout, row 6 none at all.
        t1, t2 = (a, b, a), (c, a)
        rows = [
            ResultRow(1.0, Readout((a, a), [0.1, 0.2]), None),
            ResultRow(2.0, None, Readout((b,), [0.3])),
            ResultRow(3.0, Readout(t1, [0.4, 0.5, 0.6]), Readout((b, c), [0.55, 0.05])),
            ResultRow(4.0, Readout(t2, [0.7, 0.8]), None),
            ResultRow(5.0, Readout(t1, [0.9, 0.15, 0.25]), None, warnings=("a limit",)),
            ResultRow(6.0, None, None, warnings=("failed",)),
        ]
        assert rows[2].sim.labels is rows[4].sim.labels
        table = ResultTable(spec, rows)
        columns = table.columns([a, b, a, c])
        assert list(columns) == [a, b, c]
        nan = np.nan
        expected = {
            a: ([0.1, nan, 0.4, 0.8, 0.9, nan], [nan] * 6),
            b: ([nan, nan, 0.5, nan, 0.15, nan], [nan, 0.3, 0.55, nan, nan, nan]),
            c: ([nan, nan, nan, 0.7, nan, nan], [nan, nan, 0.05, nan, nan, nan]),
        }
        for lab, (sim, oracle) in expected.items():
            np.testing.assert_array_equal(columns[lab][0], sim)
            np.testing.assert_array_equal(columns[lab][1], oracle)
        # The CSV writes the same first record.
        assert render_result_csv(table).splitlines()[1:] == [
            "1,displaced,up,0,0.1,,,true",
            "2,displaced,up,1,,0.3,,true",
            "3,displaced,up,0,0.4,,,true",
            "3,displaced,up,1,0.5,0.55,0.05,true",
            "3,displaced,up,2,,0.05,,true",
            "4,displaced,up,2,0.7,,,true",
            "4,displaced,up,0,0.8,,,true",
            "5,displaced,up,0,0.9,,,false",
            "5,displaced,up,1,0.15,,,false",
        ]

    def test_points_follow_the_per_point_formula(self, tmp_path):
        a, b, c = (BasisLabel("displaced", q, n) for q, n in (("up", 0), ("down", 0), ("up", 1)))
        spec = ExperimentSpec("lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 8), "v", (1.0,))
        scan = [0.5, 3.0, 20.0, 150.0, 1000.0]
        # a's sim column has a NaN gap at 20 and values a rounding error
        # past [0, 1], which clamp; b has only oracle records.
        rows = [
            ResultRow(scan[0], Readout((a,), [1.0 + 5e-10]), Readout((b,), [0.25])),
            ResultRow(scan[1], Readout((a,), [0.3]), Readout((b,), [0.123456789])),
            ResultRow(scan[2], Readout((c,), [0.5]), None),
            ResultRow(scan[3], Readout((a,), [-5e-10]), Readout((b,), [1.0])),
            ResultRow(scan[4], Readout((a,), [0.77]), Readout((b,), [-5e-10])),
        ]
        path = emit_svg(ResultTable(spec, rows), [a, b], tmp_path, "t")
        points = re.findall(r'<polyline [^>]*points="([^"]*)"', path.read_text())

        # The writer's pixels, one point at a time: decades 1e-1..1e3 span
        # the 460 px plot width, probabilities 1..0 its 390 px height.
        def reference(pairs):
            return " ".join(
                f"{70 + (math.log10(v) + 1.0) / 4.0 * 460:.2f},"
                f"{20 + (1.0 - min(max(p, 0.0), 1.0)) * 390:.2f}"
                for v, p in pairs
            )

        assert points == [
            reference([(0.5, 1.0 + 5e-10), (3.0, 0.3), (150.0, -5e-10), (1000.0, 0.77)]),
            reference([(0.5, 0.25), (3.0, 0.123456789), (150.0, 1.0), (1000.0, -5e-10)]),
        ]
        # The clamped values sit on the frame's top and bottom edges.
        ys = [pt.split(",")[1] for pt in points[0].split()]
        assert ys == ["20.00", "293.00", "410.00", "109.70"]


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

    def test_manifest_and_audit_are_records_of_one_writer(self, table, tmp_path):
        # Both carry the same envelope and are one line of sorted JSON.
        _, manifest_path = write_result_table(table, tmp_path / "out", "t")
        audit_path = write_audit(table.spec, [], tmp_path / "out", "t")
        assert audit_path == tmp_path / "out" / "t_audit.json"
        envelope = {"name", "version", "config", "environment", "written_at_unix"}
        own = {
            manifest_path: {"provenance", "convergence", "checks", "warnings", "checksums"},
            audit_path: {"audits"},
        }
        for path, keys in own.items():
            text = path.read_text(encoding="utf-8")
            record = json.loads(text)
            assert set(record) == envelope | keys
            assert text == json.dumps(record, sort_keys=True) + "\n"
            assert record["name"] == "t"

    def test_records_each_rows_checks(self, tmp_path):
        # Keyed by scan value, as the convergence flags are.
        spec = ExperimentSpec(
            "lz_scan", QrmParams(0.1, 0.0, 1.0, 1.0, 16), "v_over_delta2", (10.0, 100.0),
            n_steps=1000,
        )
        table = run_experiment(spec)
        _, manifest_path = write_result_table(table, tmp_path)
        checks = json.loads(manifest_path.read_text())["checks"]
        assert set(checks) == {"10", "100"}
        for row in table.rows:
            recorded = checks[f"{row.scan_value:g}"]
            assert recorded == row.checks
            assert recorded["n_steps"] == 1000
            assert recorded["chebyshev_terms"] > 0
            assert recorded["oracle_residual"] == pytest.approx(0.0, abs=1e-12)
