import numpy as np
import pytest

from rabisweep.experiments import (
    EXPERIMENT_KINDS,
    ROW_SUM_TOL,
    ExperimentSpec,
    run_experiment,
)
from rabisweep.model import BasisLabel, Mode, MultiModeParams, QrmParams
from rabisweep.presets import PRESETS


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_builds_a_known_kind(name):
    preset = PRESETS[name]
    spec = preset.build()
    assert isinstance(spec, ExperimentSpec)
    assert spec.kind in EXPERIMENT_KINDS
    for label in preset.svg_labels or ():
        assert isinstance(label, BasisLabel)


QUENCH = QrmParams(0.0, 0.0, 1.0, 0.5, 16)
BIAS = QrmParams(0.1, 0.0, 1.0, 0.3, 16)

# One tiny run of each kind, plus the formula-only bias scan: at most 1,000
# steps and dimension <= 96.
TINY_SPECS = {
    "quench_ns": ExperimentSpec("quench_ns", QUENCH, "v_over_omega2", (1e4,), n_steps=1000),
    "quench_sn": ExperimentSpec("quench_sn", QUENCH, "v_over_omega2", (1e4,), n_steps=1000),
    "quench_trace": ExperimentSpec(
        "quench_trace", QUENCH, "v_times_t_minus_T_over_omega",
        tuple(np.linspace(-200.0, 0.0, 5)), n_steps=1000,
        options={"direction": "ns", "rate": 1e4},
    ),
    "lz_scan": ExperimentSpec("lz_scan", BIAS, "v_over_delta2", (1e3,), n_steps=1000),
    "lz_trace": ExperimentSpec(
        "lz_trace", BIAS, "epsilon_over_omega", (-10.0, 0.0, 10.0), n_steps=1000,
        options={"rate": 1e3, "window": 10.0},
    ),
    "lz_scan_formula_only": ExperimentSpec(
        "lz_scan", BIAS, "v_over_delta2", (1.0, 1e3), options={"simulate": False}
    ),
    "multimode_scan": ExperimentSpec(
        "multimode_scan",
        MultiModeParams(1.0, (Mode(1.0, 0.4, 8), Mode(2.3, 0.5, 6))),
        "v_over_delta2",
        (1e3,),
        n_steps=1000,
    ),
}


def test_every_kind_has_a_tiny_run():
    assert sorted({spec.kind for spec in TINY_SPECS.values()}) == sorted(EXPERIMENT_KINDS)


@pytest.mark.parametrize("kind", sorted(TINY_SPECS))
def test_tiny_run_is_converged_and_complete(kind):
    table = run_experiment(TINY_SPECS[kind])
    assert len(table.rows) == len(TINY_SPECS[kind].scan_values)
    for row in table.rows:
        assert row.converged, row.warnings
        records = row.sim if row.sim is not None else row.oracle
        assert abs(sum(r.probability for r in records) - 1.0) <= ROW_SUM_TOL
