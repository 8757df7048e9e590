import numpy as np
import pytest

from rabisweep import cli, experiments
from rabisweep.cli import main
from rabisweep.model import EVEN_SECTOR
from rabisweep.presets import PRESETS, qrm_params
from rabisweep.sweep import (
    SweepSchedule,
    ground_state,
    project_records,
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

    def test_usage_error(self, capsys):
        assert main(["formula"]) == 1
        assert main(["no-such-command"]) == 1
        assert "usage error" in capsys.readouterr().err

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
            ["convergence", "--knob", "n_steps", "--g-over-omega", "1", "--rate", "1e4",
             "--n-fock", "16", "--delta-i", "20", "--n-steps", "1000", "--tolerance", "nan"],
            ["convergence", "--knob", "n_steps", "--g-over-omega", "1", "--rate", "1e4",
             "--n-fock", "16", "--delta-i", "20", "--n-steps", "1000", "--tolerance", "-0.001"],
            ["quench", "--g-over-omega", "1", "--delta-i", "nan"],
            ["quench", "--g-over-omega", "1", "--delta-i", "0"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--window", "nan"],
            ["lz", "--g-over-omega", "1", "--delta-over-omega", "0.1", "--window", "-5"],
        ],
        ids=[
            "nan-grid", "cascade-level-too-high", "cascade-level-negative", "too-few-steps",
            "bad-mode-field", "bad-cap", "zero-points-per-decade", "negative-points-per-decade",
            "zero-levels", "negative-levels", "nan-tolerance", "negative-tolerance",
            "nan-quench-endpoint", "zero-quench-endpoint", "nan-window", "negative-window",
        ],
    )
    def test_bad_values_are_invalid_configuration(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a run that got through would write here
        assert main(argv) == 1
        assert "invalid configuration" in capsys.readouterr().err

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


CONVERGENCE = [
    "convergence", "--g-over-omega", "1", "--n-fock", "16", "--rate", "1e4",
    "--delta-i", "20", "--n-steps", "1000",
]


def single_run_audit(knob: str) -> str:
    """What ``convergence`` prints for CONVERGENCE, computed run by run: each
    resolution one ``run_sweep`` from its own even-block ground state, read
    out in the even block's superradiant basis."""
    def final_probs(factor: int) -> dict:
        n_fock = 16 * factor if knob == "n_fock" else 16
        start = 20.0 * factor if knob == "endpoint_magnitude" else 20.0
        n_steps = 1000 if knob == "n_fock" else 1000 * factor
        p = qrm_params(1.0, n_fock=n_fock)
        traj = run_sweep(
            p, SweepSchedule("delta", start, 0.0, 1e4, n_steps=n_steps),
            ground_state(p, "delta", start, EVEN_SECTOR),
        )
        readout = project_records(
            *readout_columns(p, "superradiant", EVEN_SECTOR), traj.final_state
        )
        return dict(zip(readout.labels, readout.probabilities.tolist()))

    probs = [final_probs(f) for f in (1, 2, 4)]
    changes = [
        max(abs(b.get(k, 0.0) - a.get(k, 0.0)) for k in a.keys() | b.keys())
        for a, b in zip(probs, probs[1:])
    ]
    base = {"n_steps": 1000, "n_fock": 16, "endpoint_magnitude": 20}[knob]
    return "\n".join([
        f"knob={knob} base={base} tolerance=0.001",
        f"max_change_2x={changes[0]}",
        f"max_change_4x={changes[1]}",
        "converged" if max(changes) <= 1e-3 else "NOT CONVERGED",
    ])


class TestConvergence:
    @pytest.mark.parametrize("knob", ["n_steps", "n_fock", "endpoint_magnitude"])
    def test_prints_the_run_by_run_audit(self, knob, capsys):
        assert main([*CONVERGENCE, "--knob", knob]) == 0
        assert printed(capsys) == single_run_audit(knob)

    def test_endpoint_runs_start_from_their_own_ground_state(self, monkeypatch, capsys):
        # The 2x and 4x runs scale both endpoints, so each starts from the
        # ground state at its own large-gap endpoint.
        runs = []
        run_block = experiments.run_sweep

        def recording_run(p, block, psi0, **kwargs):
            runs.append((p, block.schedules[0].start_value, psi0))
            return run_block(p, block, psi0, **kwargs)

        monkeypatch.setattr(experiments, "run_sweep", recording_run)
        assert main([*CONVERGENCE, "--knob", "endpoint_magnitude"]) == 0
        assert [start for _, start, _ in runs] == [20.0, 40.0, 80.0]
        for p, start, psi0 in runs:
            expected = ground_state(p, "delta", start, EVEN_SECTOR).amplitudes
            assert np.linalg.norm(psi0.amplitudes - expected) <= 1e-12


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
