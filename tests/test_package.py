import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rabisweep


class TestExports:
    def test_every_name_resolves_once(self):
        assert len(rabisweep.__all__) == len(set(rabisweep.__all__))
        for name in rabisweep.__all__:
            assert hasattr(rabisweep, name), name

    @pytest.mark.parametrize(
        "name",
        [
            "StepPropagator",
            "propagate_step",
            "displacement_truncation_defect",
            "instantaneous_populations",
            "bundled_presets",
            "displacement",
            "creation",
            "number_operator",
            "SIGMA_Y",
            "parity_projector",
            "scheme_state",
            "_chebyshev_terms",
            "_embed_state",
            "sector_ground_state",
            "instantaneous_ground_state",
            "_endpoint_ground_occupancy",
            "_grid",
            "_log_grid",
            "_quench_params",
            "_quench_scan",
            "_quench_trace",
            "_lz_spec",
            "_sample_steps",
            "_basis_tag",
            "DEFAULT_DIM_CAP",
            "BASIS_TAGS",
            "_SECTOR_TAGS",
            "_OPTION_KEYS",
            "_EIGH_BACKEND_MAX_DIM",
            "_EIGH_CHUNK",
            "_chebyshev_expansion",
            "_trace_run",
            "value_at",
            "_even_ground_state",
            "QRM_DIM_CAP",
            "MULTIMODE_DIM_CAP",
            "ratios",
            "_tridiagonal_parts",
            "_scheme_column",
        ],
    )
    def test_deleted_names_are_gone(self, name):
        for module in (
            "rabisweep", "rabisweep.operators", "rabisweep.sweep", "rabisweep.model",
            "rabisweep.presets", "rabisweep.experiments", "rabisweep.cli",
        ):
            assert not hasattr(importlib.import_module(module), name), module
        # Nor does a parameter class hold one (MultiModeParams.ratios is gone).
        for params in (rabisweep.QrmParams, rabisweep.MultiModeParams, rabisweep.Mode):
            assert not hasattr(params, name), params.__name__

    def test_pyproject_holds_the_package_version(self):
        # Two files hold the version. A regex reads pyproject.toml, since
        # tomllib is missing on Python 3.10.
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        versions = re.findall(r'^version = "([^"]*)"$', text, flags=re.MULTILINE)
        assert versions == [rabisweep.__version__]

    def test_import_loads_no_optimizer(self):
        # Nothing the package or its CLI runs needs scipy.optimize, whose
        # import alone loads about 200 more scipy modules. scipy.linalg and
        # scipy.special (about 110 modules, over half the import time) are not
        # imported either: the one LAPACK solve, a quench trace's per-sample
        # tridiagonal dstevd, imports scipy.linalg at its first call.
        loaded = _scipy_modules_after(
            "import rabisweep, rabisweep.cli", ("scipy.linalg", "scipy.special", "scipy.optimize")
        )
        assert loaded == []

    def test_trimmed_formula_table_loads_no_linalg(self, tmp_path):
        # A formula-only table (fig5a trimmed to its first rate), run and
        # written as CSV and manifest, makes no eigensolve.
        run = (
            "import dataclasses\n"
            "from rabisweep import PRESETS, run_experiment, write_result_table\n"
            "spec = PRESETS['fig5a'].build()\n"
            "spec = dataclasses.replace(spec, scan_values=spec.scan_values[:1])\n"
            f"write_result_table(run_experiment(spec), {str(tmp_path)!r})"
        )
        assert _scipy_modules_after(run, ("scipy.linalg",)) == []
        assert (tmp_path / "lz_scan.csv").is_file()

    @pytest.mark.parametrize(
        "build, linalg",
        [
            ("PRESETS['fig6_valid'].build()", False),
            ("PRESETS['multimode_small'].build()", False),
            ("lz_trace_spec(1.0, 0.1, 100.0)", False),
            ("PRESETS['fig1a'].build()", False),
            ("PRESETS['fig3a'].build()", False),
            ("PRESETS['fig2a'].build()", True),
        ],
        ids=["lz_scan", "multimode_scan", "lz_trace", "quench_ns", "quench_sn", "quench_trace"],
    )
    def test_only_quench_traces_load_linalg(self, tmp_path, build, linalg):
        # A simulated table, trimmed to one rate and 1,000 steps, solves both
        # ends of its sweep with numpy, and a quench scan reads its levels out
        # at its far end, with that end's solve. Only a quench trace's level
        # series, at its first sample away from the far end, loads
        # scipy.linalg (and the second OpenBLAS it brings).
        run = (
            "import dataclasses\n"
            "from rabisweep import PRESETS, run_experiment, write_result_table\n"
            "from rabisweep.presets import lz_trace_spec\n"
            f"spec = {build}\n"
            "spec = dataclasses.replace(spec, n_steps=1000, scan_values=(\n"
            "    spec.scan_values if 'rate' in spec.options else spec.scan_values[-1:]))\n"
            "table = run_experiment(spec)\n"
            "assert all(row.sim is not None for row in table.rows)\n"
            f"write_result_table(table, {str(tmp_path)!r})"
        )
        assert bool(_scipy_modules_after(run, ("scipy.linalg",))) == linalg
        assert len(list(tmp_path.glob("*.csv"))) == 1

    def test_run_sweep_only_propagates(self):
        # Readout is project_records over readout_columns, not a run option,
        # and a run takes the parts its table assembled, with no default.
        assert "readout" not in inspect.signature(rabisweep.run_sweep).parameters
        parameters = inspect.signature(rabisweep.run_sweep).parameters.values()
        assert [(x.name, x.default) for x in parameters] == [
            (name, inspect.Parameter.empty) for name in ("p", "parts", "schedule", "psi0")
        ]
        assert not hasattr(rabisweep.Trajectory, "records")

    def test_each_input_has_one_spelling(self):
        # Formula-only bias scans are lz_scan with options["simulate"] false,
        # a run's space is its initial state's sector, its samples are
        # step indices in and out (none: its start and its end), with no
        # times on a run and no value_at on a schedule, a multimode bias
        # enters only through epsilon_ramp, the multimode dimension cap is
        # a constant, and default truncation is presets.qrm_params. Only
        # the row checks judge a run's limits, so a run carries no warnings;
        # it records its measurements as typed fields, not string keys, and
        # the weights of a sweep's ends are its table's, not its run's.
        from rabisweep.experiments import EXPERIMENT_KINDS

        def fields(cls):
            return {f.name for f in dataclasses.fields(cls)}

        assert "lz_formula" not in EXPERIMENT_KINDS
        assert fields(rabisweep.SweepSchedule) & {"n_samples", "sample_times"} == set()
        assert "sample_steps" in fields(rabisweep.SweepSchedule)
        assert "sector" not in inspect.signature(rabisweep.run_sweep).parameters
        assert "warnings" not in fields(rabisweep.Trajectory)
        assert "times" not in fields(rabisweep.Trajectory)
        assert not hasattr(rabisweep.SweepSchedule, "value_at")
        assert "metadata" not in fields(rabisweep.Trajectory)
        assert "endpoint_top_fock_occupancy" not in fields(rabisweep.Trajectory)
        assert "basis_tag" not in fields(rabisweep.StateVector)
        assert "dim_cap" not in fields(rabisweep.MultiModeParams)
        assert not hasattr(rabisweep.QrmParams, "with_default_truncation")
        assert "epsilon" not in inspect.signature(rabisweep.build_multimode).parameters

    @pytest.mark.parametrize(
        "params, parameter, sector",
        [
            (rabisweep.QrmParams(0.5, 0.0, 1.0, 0.7, 6), "delta", None),
            (rabisweep.QrmParams(0.5, 0.0, 1.0, 0.7, 6), "delta", rabisweep.EVEN_SECTOR),
            (rabisweep.QrmParams(0.5, 0.0, 1.0, 0.7, 6), "delta", rabisweep.ODD_SECTOR),
            (rabisweep.QrmParams(0.5, 0.3, 1.0, 0.7, 6), "epsilon", None),
            (rabisweep.MultiModeParams(0.5, (rabisweep.Mode(1.0, 0.4, 3),) * 2), "epsilon", None),
        ],
    )
    def test_hamiltonian_parts_are_real(self, params, parameter, sector):
        # The propagator refuses complex parts, so every model builds real
        # ones; a table's setup builds them through the public builder.
        assert rabisweep.hamiltonian_parts is rabisweep.sweep.hamiltonian_parts
        h_static, h_ramp = rabisweep.hamiltonian_parts(params, parameter, sector)
        assert h_static.dtype == h_ramp.dtype == np.float64

    def test_truncation_policy_lives_in_model(self):
        from rabisweep import model

        assert rabisweep.displaced_fock_tail is model.displaced_fock_tail
        assert rabisweep.top_fock_occupancy is model.top_fock_occupancy


def _scipy_modules_after(code: str, packages: tuple[str, ...]) -> list[str]:
    """The modules of ``packages`` loaded after ``code`` runs in a fresh
    interpreter on this checkout's ``src``."""
    probe = (
        f"{code}\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules"
        f" if any(m == p or m.startswith(p + '.') for p in {packages!r}))))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def _benchmark_module(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Registered first: its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves():
    # The benchmark traces these names and skips any it cannot find, so a
    # deletion would otherwise only show as an "absent" layer in its records.
    tracing = _benchmark_module("tracing")
    for _, owner, names in tracing.LAYERS:
        module = importlib.import_module(f"rabisweep.{owner}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{owner}.{name}"


@pytest.mark.parametrize(
    "kind, params",
    [
        ("quench_ns", rabisweep.QrmParams(0.0, 0.0, 1.0, 1.0, 32)),
        ("lz_scan", rabisweep.QrmParams(0.1, 0.0, 1.0, 0.3, 16)),
    ],
)
def test_benchmark_tracer_sees_scan_propagation(kind, params):
    # The benchmark counts runs and steps from the argument of run_sweep
    # that has n_steps; a scan that propagated elsewhere would read as none.
    tracing = _benchmark_module("tracing")
    tracer = tracing.Tracer()
    spec = rabisweep.ExperimentSpec(kind, params, "rate", (10.0, 100.0), n_steps=1000)
    with tracing.installed(tracer) as absent:
        assert absent == []
        table = rabisweep.run_experiment(spec)
    assert all(row.converged for row in table.rows)
    runs = tracer.counts["sweep.runs"]
    assert runs >= 1
    assert tracer.counts["sweep.steps_requested"] == spec.n_steps * runs


_QUENCH = rabisweep.QrmParams(0.0, 0.0, 1.0, 0.5, 16)
_BIAS = rabisweep.QrmParams(0.1, 0.0, 1.0, 0.3, 16)
_READER_SPECS = {
    "quench_trace": rabisweep.ExperimentSpec(
        "quench_trace", _QUENCH, "v_times_t_minus_T_over_omega",
        tuple(np.linspace(-200.0, 0.0, 5)), n_steps=1000,
        options={"direction": "ns", "rate": 1e4},
    ),
    "lz_trace": rabisweep.ExperimentSpec(
        "lz_trace", _BIAS, "epsilon_over_omega", (-10.0, 0.0, 10.0), n_steps=1000,
        options={"rate": 1e3, "window": 10.0},
    ),
    "lz_scan": rabisweep.ExperimentSpec(
        "lz_scan", _BIAS, "v_over_delta2", (10.0, 1e3), n_steps=1000
    ),
    "formula_only": rabisweep.ExperimentSpec(
        "lz_scan", _BIAS, "v_over_delta2", (1.0, 1e3), options={"simulate": False}
    ),
}


@pytest.mark.parametrize("name", sorted(_READER_SPECS))
def test_benchmark_gate_reads_each_rows_readouts(name):
    # The benchmark's gate reads rows record by record (``row.sim or ()``,
    # each record's ``degenerate_tracking``); what it reads must be the
    # readouts' own arrays, or its ok_frac would judge other numbers.
    checks = _benchmark_module("checks")
    table = rabisweep.run_experiment(_READER_SPECS[name])
    if name == "quench_trace":
        # Flag some entries, so that the degenerate column is read too.
        for i, row in enumerate(table.rows):
            flags = np.arange(len(row.sim)) % (i + 2) == 0
            row.sim = rabisweep.Readout(row.sim.labels, row.sim.probabilities, flags)
    got = checks.table_arrays(table)
    keys = [checks.label_key(label) for label in table.labels()]
    assert got.labels == keys
    column = {key: j for j, key in enumerate(keys)}
    shape = (len(table.rows), len(keys))
    expected = {"sim": np.full(shape, np.nan), "oracle": np.full(shape, np.nan)}
    degenerate = np.zeros(shape, dtype=bool)
    for i, row in enumerate(table.rows):
        for which in ("sim", "oracle"):
            readout = getattr(row, which)
            if readout is None:
                continue
            # Its records carry exactly its arrays.
            flags = [False] * len(readout) if readout.degenerate is None else readout.degenerate.tolist()
            assert [(r.label, r.probability, r.degenerate_tracking) for r in readout] == list(
                zip(readout.labels, readout.probabilities.tolist(), flags)
            )
            cols = [column[checks.label_key(label)] for label in readout.labels]
            expected[which][i, cols] = readout.probabilities
            if which == "sim" and readout.degenerate is not None:
                degenerate[i, cols] = readout.degenerate
    np.testing.assert_array_equal(got.sim, expected["sim"])
    np.testing.assert_array_equal(got.oracle, expected["oracle"])
    np.testing.assert_array_equal(got.degenerate, degenerate)
    assert got.degenerate.any() == (name == "quench_trace")
