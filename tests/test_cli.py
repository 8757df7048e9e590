import json

import numpy as np
import pytest

from rabisweep import cli, experiments, io, sweep
from rabisweep.cli import main
from rabisweep.experiments import AUDIT_KNOBS
from rabisweep.model import EVEN_SECTOR, parity_block_ladder
from rabisweep.presets import PRESETS, Preset, qrm_params, quench_scan_spec
from rabisweep.sweep import (
    DEFAULT_N_STEPS,
    SweepSchedule,
    eigen_level_series,
    greedy_label_assignment,
    ground_state,
    readout_columns,
    run_sweep,
)


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# formula defaults\ng-over-omega = 1.0\nn = 2\n", encoding="utf-8")
    return str(path)


def printed(capsys) -> str:
    return capsys.readouterr().out.strip()


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["formula", "--g-over-omega", "1.0", "--n", "1"]) == 0
        assert printed(capsys) == "0.367879"

    def test_usage_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a run that got through would write here
        assert main(["formula"]) == 1
        assert main(["no-such-command"]) == 1
        # Flags that contradict each other are refused, not one of them
        # silently dropped.
        assert main(["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1",
                     "--n-fock", "8", "--n-steps", "1000", "--trace", "--formula-only"]) == 1
        assert main(["formula", "--g-over-omega", "1", "--lz", "--cascade",
                     "--v-over-delta2", "1", "--n", "2"]) == 1
        # A trace takes no rate grid, and a scan no trace rate.
        quench = ["quench", "--g-over-omega", "1", "--n-fock", "16", "--delta-i", "20",
                  "--n-steps", "1000"]
        lz = ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--n-fock", "8",
              "--n-steps", "1000"]
        assert main([*quench, "--v-min", "1e3", "--v-max", "1e4", "--trace"]) == 1
        assert main([*quench, "--trace", "--points-per-decade", "2"]) == 1
        assert main([*quench, "--rate", "1e4"]) == 1
        assert main([*lz, "--rate", "5", "--formula-only"]) == 1
        assert main([*lz, "--rate", "5"]) == 1
        assert main([*lz, "--trace", "--v-max", "10"]) == 1
        err = capsys.readouterr().err
        assert err.count("usage error") == 10
        assert "not allowed with argument" in err
        assert "--v-min/--v-max: not allowed with --trace" in err
        assert err.count("--rate: not allowed without --trace") == 3
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["formula", "--g-over-omega", "1", "--v-over-delta2", "1"],
             "--v-over-delta2: not allowed without --lz or --cascade"),
            (["formula", "--g-over-omega", "1", "--delta-over-omega", "2"],
             "--delta-over-omega: not allowed without --lz or --cascade"),
            (["formula", "--g-over-omega", "1", "--lz", "--v-over-delta2", "1", "--n", "4",
              "--delta-over-omega", "3"], "--n/--delta-over-omega: not allowed with --lz"),
            (["formula", "--g-over-omega", "1", "--lz", "--v-over-delta2", "1", "--n", "0"],
             "--n: not allowed with --lz"),
            (["presets", "--emit-svg"], "--emit-svg needs a preset name"),
            (["presets", "--allow-long"], "--allow-long needs a preset name"),
        ],
        ids=["poisson-rate", "poisson-gap", "lz-level-and-gap", "lz-level-zero",
             "presets-svg", "presets-allow-long"],
    )
    def test_a_flag_its_mode_does_not_read_is_a_usage_error(self, argv, message, capsys):
        # Each used to exit 0 without reading the flag: formula printed the
        # Poisson or Landau-Zener value, and presets listed the presets.
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_each_formula_mode_applies_its_own_defaults(self, capsys):
        # --n defaults to 0 and --delta-over-omega to 1, as given explicitly.
        for mode, defaults in (
            ([], ["--n", "0"]),
            (["--cascade", "--v-over-delta2", "2"], ["--n", "0", "--delta-over-omega", "1"]),
        ):
            assert main(["formula", "--g-over-omega", "1", *mode]) == 0
            implicit = printed(capsys)
            assert main(["formula", "--g-over-omega", "1", *mode, *defaults]) == 0
            assert printed(capsys) == implicit

    @pytest.mark.parametrize(
        "argv",
        [
            ["quench", "--g-over-omega", "1", "--n-fock", "16", "--delta-i", "20",
             "--n-steps", "1000", "--trace"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--n-fock", "8",
             "--n-steps", "1000", "--trace"],
            ["presets", "fig2a"],
            ["presets", "fig2c"],
            ["presets", "fig4a"],
            ["presets", "fig4c"],
        ],
        ids=["quench-trace", "lz-trace", "fig2a", "fig2c", "fig4a", "fig4c"],
    )
    def test_svg_of_a_trace_is_a_usage_error(self, argv, monkeypatch, tmp_path, capsys):
        # emit_svg draws rate scans only; a trace used to write its table,
        # skip the SVG with a warning and exit 0. It is refused before the run.
        def fail(spec):
            raise AssertionError("ran a refused command")

        monkeypatch.setattr(cli, "run_experiment", fail)
        assert main([*argv, "--emit-svg", "--output-dir", str(tmp_path / "out")]) == 1
        assert "usage error: --emit-svg" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_configuration(self, capsys):
        assert main(["formula", "--g-over-omega", "1.0", "--lz"]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["quench", "--g-over-omega", "1", "--v-min", "nan"],
            ["formula", "--g-over-omega", "1", "--cascade", "--v-over-delta2", "10", "--n", "100"],
            ["formula", "--g-over-omega", "1", "--cascade", "--v-over-delta2", "10", "--n", "-1"],
            ["lz", "--g-over-omega", "0.1", "--delta-over-omega", "0.1", "--n-steps", "500"],
            ["multimode", "--delta-over-omega", "1", "--modes", "1:x:8", "--no-simulate"],
            ["multimode", "--delta-over-omega", "1", "--modes", "1:0.5:8", "--caps", "5,a"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--formula-only",
             "--points-per-decade", "0"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--formula-only",
             "--points-per-decade", "-3"],
            ["spectrum", "--delta", "1", "--g-over-omega", "0.5", "--levels", "0"],
            ["spectrum", "--delta", "1", "--g-over-omega", "0.5", "--levels", "-3"],
            ["quench", "--trace", "--g-over-omega", "1", "--audit", "n_steps"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--formula-only",
             "--audit", "n_fock"],
            ["quench", "--g-over-omega", "1", "--delta-i", "nan"],
            ["quench", "--g-over-omega", "1", "--delta-i", "0"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--window", "nan"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--window", "-5"],
        ],
        ids=[
            "nan-grid", "cascade-level-too-high", "cascade-level-negative", "too-few-steps",
            "bad-mode-field", "bad-cap", "zero-points-per-decade", "negative-points-per-decade",
            "zero-levels", "negative-levels", "audit-of-a-trace", "audit-of-formula-only",
            "nan-quench-endpoint", "zero-quench-endpoint", "nan-window", "negative-window",
        ],
    )
    def test_bad_values_are_invalid_configuration(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a run that got through would write here
        assert main(argv) == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quench", "--g-over-omega", "nan"], "g must be finite, got nan"),
            (["quench", "--g-over-omega", "inf"], "g must be finite, got inf"),
            (["quench", "--g-over-omega", "1e200"], "the default n_fock of these parameters"),
            (["spectrum", "--delta", "1", "--g-over-omega", "nan"], "g must be finite"),
            (["lz", "--g-over-omega", "nan", "--delta-over-omega", "1", "--formula-only"],
             "g must be finite"),
            (["quench", "--g-over-omega", "1e200", "--n-fock", "16", "--n-steps", "1000"],
             "the default delta_hi of these parameters is inf"),
            (["quench", "--g-over-omega", "1e200", "--n-fock", "16", "--n-steps", "1000",
              "--trace"], "the default delta_hi of these parameters is inf"),
            (["lz", "--g-over-omega", "1e200", "--delta-over-omega", "1", "--n-fock", "16",
              "--window", "30", "--formula-only"], "the default crossing count"),
            (["lz", "--g-over-omega", "1", "--delta-over-omega", "1e200", "--n-fock", "16",
              "--formula-only", "--v-min", "1", "--v-max", "10"], "the rate unit"),
            (["formula", "--cascade", "--g-over-omega", "1", "--delta-over-omega", "1e200",
              "--v-over-delta2", "1"], "sweep rate must be positive and finite, got inf"),
            (["formula", "--g-over-omega", "1e200"], "Poisson mean"),
        ],
    )
    def test_parameters_that_overflow_are_invalid_configuration(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        # Each used to escape main as a ValueError or OverflowError: a NaN or
        # overflowing default truncation, far endpoint, crossing count or
        # rate unit. Now main prints one line and writes nothing.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid configuration: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_crossings_past_the_cap_fail_the_run(self, tmp_path, monkeypatch, capsys):
        # About 4e20 crossings by default at g/omega = 1e10: refused before
        # the mesh is built (the process used to run out of memory).
        monkeypatch.chdir(tmp_path)
        argv = ["lz", "--g-over-omega", "1e10", "--delta-over-omega", "1", "--n-fock", "16",
                "--formula-only"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: ResourceLimitError: ") and "exceed the cap" in err
        assert not any(tmp_path.iterdir())

    def test_a_truncation_past_the_dimension_cap_fails_at_once(self, tmp_path, monkeypatch, capsys):
        # g/omega = 100 defaults to 100,010 levels: refused before the
        # dense (200,020 x 200,020) Hamiltonian is built.
        monkeypatch.chdir(tmp_path)
        assert main(["quench", "--g-over-omega", "100"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run failed: ResourceLimitError: single-mode dimension 200020")
        assert not any(tmp_path.iterdir())

    def test_an_overflowing_chebyshev_argument_fails_the_rows(self, tmp_path, capsys):
        # At delta_i = 1e308, z = r dt overflows; every row of the scan fails
        # with that warning, where OverflowError used to escape.
        out = tmp_path / "out"
        argv = ["quench", "--g-over-omega", "1", "--n-fock", "16", "--delta-i", "1e308",
                "--n-steps", "1000", "--v-min", "1", "--v-max", "10", "--output-dir", str(out)]
        assert main(argv) == 0
        manifest = json.loads((out / "quench_ns_manifest.json").read_text(encoding="utf-8"))
        assert len(manifest["warnings"]) == 5
        for warnings in manifest["warnings"].values():
            assert warnings == [
                "NumericalInstabilityError: a step spans z = r dt = inf (limit 100000): "
                "no step count fits"
            ]

    def test_run_failure(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.cfg")
        assert main(["--config", missing, "formula"]) == 2
        assert "run failed" in capsys.readouterr().err


DESK_QUENCH = ["--n-fock", "64", "--delta-i", "200", "--v-min", "0.1"]
FAST_SIDE = ["--v-min", "100", "--v-max", "1e5"]
BIAS_SCAN = ["--v-min", "0.1", "--v-max", "100"]

# The CLI spelling of every preset it can express: all but multimode_small,
# whose row tolerance has no flag.
PRESET_ARGV = {
    "fig1a": ["quench", "--g-over-omega", "1", *DESK_QUENCH, "--v-max", "1e5"],
    "fig1b": ["quench", "--g-over-omega", "2", *DESK_QUENCH, "--v-max", "1e5"],
    "fig1c": ["quench", "--g-over-omega", "5", *FAST_SIDE],
    "fig1d_long": ["quench", "--g-over-omega", "20", *FAST_SIDE, "--points-per-decade", "2",
                   "--n-fock", "896"],
    "fig2a": ["quench", "--trace", "--g-over-omega", "1", "--n-fock", "64"],
    "fig2c": ["quench", "--trace", "--g-over-omega", "5"],
    "fig3a": ["quench", "--direction", "sn", "--g-over-omega", "1", *DESK_QUENCH,
              "--v-max", "1e4"],
    "fig3c": ["quench", "--direction", "sn", "--g-over-omega", "5", *FAST_SIDE],
    "fig4a": ["quench", "--trace", "--direction", "sn", "--g-over-omega", "1", "--n-fock", "64"],
    "fig4c": ["quench", "--trace", "--direction", "sn", "--g-over-omega", "5"],
    "fig5a": ["lz", "--formula-only", "--g-over-omega", "0.1", "--delta-over-omega", "0.1",
              "--v-min", "1e-11", "--v-max", "1e2", "--points-per-decade", "20"],
    "fig5b": ["lz", "--formula-only", "--g-over-omega", "1", "--delta-over-omega", "0.1",
              "--v-min", "1e-4", "--v-max", "10", "--points-per-decade", "20"],
    "fig5d": ["lz", "--formula-only", "--g-over-omega", "3", "--delta-over-omega", "0.1",
              "--v-min", "1e-17", "--v-max", "1e-8", "--points-per-decade", "20"],
    "fig6_small": ["lz", "--g-over-omega", "0.1", "--delta-over-omega", "0.1", *BIAS_SCAN],
    "fig6_valid": ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", *BIAS_SCAN],
    "fig6_breakdown": ["lz", "--g-over-omega", "1", "--delta-over-omega", "10", *BIAS_SCAN,
                       "--points-per-decade", "2", "--n-fock", "48"],
}


class _Captured(Exception):
    pass


class TestPresetsAndCliAgree:
    def test_every_expressible_preset_is_covered(self):
        assert set(PRESET_ARGV) == set(PRESETS) - {"multimode_small"}

    @pytest.mark.parametrize("name", sorted(PRESET_ARGV))
    def test_cli_builds_the_preset_spec(self, name, monkeypatch):
        def capture(spec):
            raise _Captured(spec)

        monkeypatch.setattr(cli, "run_experiment", capture)
        with pytest.raises(_Captured) as caught:
            main(PRESET_ARGV[name])
        assert caught.value.args[0] == PRESETS[name].build()

    def test_formula_preset_and_its_cli_spelling_write_the_same_csv(self, tmp_path, capsys):
        assert main(["presets", "fig5a", "--output-dir", str(tmp_path / "preset")]) == 0
        assert main([*PRESET_ARGV["fig5a"], "--output-dir", str(tmp_path / "cli")]) == 0
        preset_csv = (tmp_path / "preset" / "fig5a.csv").read_bytes()
        assert preset_csv == (tmp_path / "cli" / "lz_formula.csv").read_bytes()


class TestPresetsCommand:
    def test_listing_names_every_preset(self, capsys):
        assert main(["presets"]) == 0
        listed = [line.split()[0] for line in printed(capsys).splitlines()]
        assert listed == list(PRESETS)

    def test_unknown_name_is_invalid_configuration(self, capsys):
        assert main(["presets", "no_such_preset"]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_long_preset_needs_allow_long(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["presets", "fig1d_long", "--output-dir", str(out)]) == 1
        assert "--allow-long" in capsys.readouterr().err
        assert not out.exists()


def trimmed_spec():
    """fig1a trimmed to one rate, a 16-level ladder and a near endpoint."""
    return quench_scan_spec("ns", 1.0, (1e4,), n_fock=16, delta_hi=20.0, n_steps=1000)


@pytest.fixture
def trimmed(monkeypatch, tmp_path):
    """Argv that audits the trimmed preset into tmp_path, less its knobs."""
    preset = Preset("fig1a_trimmed", "fig1a trimmed to one rate", trimmed_spec)
    monkeypatch.setitem(PRESETS, preset.name, preset)
    return ["presets", preset.name, "--output-dir", str(tmp_path)]


def single_run_audit(knob: str) -> dict:
    """The audit of the trimmed preset, computed run by run: each resolution
    one ``run_sweep`` from its own even-block ground state, read out in the
    even block's eigenbasis at zero gap, each level named by the
    superradiant state it matches best."""
    def final_probs(factor: int) -> dict:
        n_fock = 16 * factor if knob == "n_fock" else 16
        start = 20.0 * factor if knob == "endpoint_magnitude" else 20.0
        n_steps = 1000 if knob == "n_fock" else 1000 * factor
        p = qrm_params(1.0, n_fock=n_fock)
        parts = sweep.hamiltonian_parts(p, "delta", EVEN_SECTOR)
        traj = run_sweep(
            p, parts, SweepSchedule("delta", start, 0.0, 1e4, n_steps=n_steps),
            ground_state(p, "delta", start, EVEN_SECTOR),
        )
        ladder = parity_block_ladder(p, EVEN_SECTOR)
        (probs,), _, _ = eigen_level_series(ladder, [0.0], traj.final_state[:, None], {})
        _, vecs = sweep._tridiagonal_eigh(*ladder, 0.0)
        labels = greedy_label_assignment(
            *readout_columns(p, "superradiant", EVEN_SECTOR), vecs
        )
        return dict(zip(labels, probs.tolist()))

    probs = [final_probs(f) for f in (1, 2, 4)]
    changes = [
        max(abs(b.get(k, 0.0) - a.get(k, 0.0)) for k in a.keys() | b.keys())
        for a, b in zip(probs, probs[1:])
    ]
    return {
        "max_change_2x": changes[0],
        "max_change_4x": changes[1],
        "base_value": {"n_steps": 1000, "n_fock": 16, "endpoint_magnitude": 20}[knob],
        "passed": max(changes) <= 1e-3,
    }


class TestConvergence:
    @pytest.mark.parametrize("knob", AUDIT_KNOBS)
    def test_audit_file_holds_the_run_by_run_audit(self, knob, trimmed, tmp_path, capsys):
        assert main([*trimmed, "--audit", knob]) == 0
        path = tmp_path / "fig1a_trimmed_audit.json"
        assert printed(capsys) == str(path)
        record = json.loads(path.read_text(encoding="utf-8"))
        assert record["config"]["scan_values"] == [1e4]
        (audit,) = record["audits"]
        assert audit["knob"] == knob and audit["tolerance"] == 1e-3 and audit["seconds"] > 0
        assert {key: audit[key] for key in single_run_audit(knob)} == single_run_audit(knob)
        assert record["environment"] == io._environment()
        assert not (tmp_path / "fig1a_trimmed.csv").exists()

    def test_knobs_are_audited_in_the_order_given(self, monkeypatch, trimmed, tmp_path):
        def stub(spec, knob):
            return experiments.ConvergenceReport(knob, 1.0, 1e-3, 0.0, 0.0, True)

        monkeypatch.setattr(cli, "convergence_scan", stub)
        assert main([*trimmed, "--audit", "n_fock", "--audit", "n_steps"]) == 0
        record = json.loads((tmp_path / "fig1a_trimmed_audit.json").read_text(encoding="utf-8"))
        assert [audit["knob"] for audit in record["audits"]] == ["n_fock", "n_steps"]

    @pytest.mark.parametrize("g, delta_hi", [("2", 800.0), ("5", 5000.0)])
    def test_defaults_audit_the_quench_table(self, monkeypatch, tmp_path, g, delta_hi):
        # The audit takes the spec `rabisweep quench` runs without --audit,
        # with that table's default endpoint and steps.
        audited = []

        def stub(spec, knob):
            audited.append(spec)
            return experiments.ConvergenceReport(knob, 1.0, 1e-3, 0.0, 0.0, True)

        def capture(spec):
            raise _Captured(spec)

        monkeypatch.setattr(cli, "convergence_scan", stub)
        monkeypatch.setattr(cli, "run_experiment", capture)
        argv = ["quench", "--g-over-omega", g, *FAST_SIDE, "--output-dir", str(tmp_path)]
        assert main([*argv, "--audit", "n_steps"]) == 0
        with pytest.raises(_Captured) as caught:
            main(argv)
        (spec,) = audited
        assert spec == caught.value.args[0]
        assert experiments._endpoint_option(spec) == ("delta_hi", delta_hi)
        assert spec.n_steps == DEFAULT_N_STEPS

    def test_endpoint_runs_start_from_their_own_ground_state(self, monkeypatch, trimmed):
        # The 2x and 4x runs scale both endpoints, so each starts from the
        # ground state at its own large-gap endpoint.
        runs = []
        run_block = experiments.run_sweep

        def recording_run(p, parts, block, psi0):
            runs.append((p, block.schedules[0].start_value, psi0))
            return run_block(p, parts, block, psi0)

        monkeypatch.setattr(experiments, "run_sweep", recording_run)
        assert main([*trimmed, "--audit", "endpoint_magnitude"]) == 0
        assert [start for _, start, _ in runs] == [20.0, 40.0, 80.0]
        for p, start, psi0 in runs:
            expected = ground_state(p, "delta", start, EVEN_SECTOR).amplitudes
            assert np.linalg.norm(psi0.amplitudes - expected) <= 1e-12

    @pytest.mark.parametrize(
        "argv",
        [
            ["presets", "--audit", "n_steps"],
            ["presets", "fig1d_long", "--audit", "n_steps"],
            ["presets", "fig6_small", "--audit", "n_steps", "--emit-svg"],
            ["quench", "--g-over-omega", "1", "--audit", "n_steps", "--emit-svg"],
            ["quench", "--g-over-omega", "1", "--audit", "rate"],
        ],
        ids=["no-preset-name", "long-preset", "preset-svg", "quench-svg", "unknown-knob"],
    )
    def test_refused_as_usage_errors(self, argv, monkeypatch, tmp_path, capsys):
        def fail(spec, knob):
            raise AssertionError("audited a refused command")

        monkeypatch.setattr(cli, "convergence_scan", fail)
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# A quench table small enough to run and audit in a test.
SMALL_QUENCH = ["quench", "--n-fock", "16", "--delta-i", "20", "--n-steps", "1000",
                "--v-min", "1e3", "--v-max", "1e4"]


def read_json(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class TestManifestConfig:
    def test_records_the_coupling(self, tmp_path, capsys):
        # Two couplings used to write equal config blocks.
        configs = []
        for g in ("1", "2"):
            out = tmp_path / g
            assert main([*SMALL_QUENCH, "--g-over-omega", g, "--output-dir", str(out)]) == 0
            configs.append(read_json(out / "quench_ns_manifest.json")["config"])
        assert [config["params"]["g"] for config in configs] == [1.0, 2.0]
        assert configs[0]["params"]["n_fock"] == 16

    def test_manifest_and_audit_share_the_config(self, tmp_path, capsys):
        argv = [*SMALL_QUENCH, "--g-over-omega", "1", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main([*argv, "--audit", "n_steps"]) == 0
        manifest = read_json(tmp_path / "quench_ns_manifest.json")
        assert manifest["config"] == read_json(tmp_path / "quench_ns_audit.json")["config"]
        # The provenance holds what the run measured, not the config again.
        assert set(manifest["provenance"]) == {"oracle_s", "propagation_s", "readout_s"}


class TestConfig:
    @pytest.mark.parametrize("position", ["top", "sub", "equals"])
    def test_either_position(self, config, position, capsys):
        argv = {
            "top": ["--config", config, "formula"],
            "sub": ["formula", "--config", config],
            "equals": [f"--config={config}", "formula"],
        }[position]
        assert main(argv) == 0
        assert printed(capsys) == "0.183940"

    def test_flags_override_config(self, config, capsys):
        assert main(["--config", config, "formula", "--n", "0"]) == 0
        assert printed(capsys) == "0.367879"

    def test_missing_file_argument(self, capsys):
        assert main(["formula", "--g-over-omega", "1.0", "--config"]) == 1
        assert "expected one argument" in capsys.readouterr().err

    def test_false_leaves_a_flag_out(self, tmp_path, capsys):
        path = tmp_path / "flags.cfg"
        path.write_text("cascade = false\n", encoding="utf-8")
        argv = ["formula", "--g-over-omega", "1", "--lz", "--v-over-delta2", "1"]
        assert main(argv) == 0
        expected = printed(capsys)
        assert main(["--config", str(path), *argv]) == 0
        assert printed(capsys) == expected
