"""Tests of the benchmark itself, on the tiny size (1,000 steps, one rate).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import rabisweep as rs  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(capsys, workload: str, seed: int = 1, trace: int = 0) -> tuple[dict, dict]:
    """Run one tiny pass in-process; returns (record line, result line)."""
    status = run.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.001",
        "--trace", str(trace), "--size", "tiny",
    ])
    assert status == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_names_match_benchmark_json(workload):
    assert workload in [w["name"] for w in SPEC["workloads"]]
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_passes_and_emits_end_to_end_metrics(capsys, workload):
    record, result = _bench(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert len(record["setup_raw_s"]) == run.SETUP_REPEATS
    assert len(record["setup_kernel_s"]) == run.SETUP_REPEATS + 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(capsys, workload):
    record, result = _bench(capsys, workload, trace=1)
    assert result["correct"], record["problems"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert record["absent"] == []
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["experiments.rows"] > 0 and metrics["io.csv_bytes"] > 0
    if workload == "formula_tables":
        assert metrics["sweep.runs"] == 0 and metrics["sweep.propagate_s"] == 0
        assert metrics["analytics.oracle_calls"] > 0
    else:
        assert metrics["sweep.runs"] > 0 and metrics["sweep.propagate_s"] > 0
        assert metrics["sweep.steps_requested"] == 1000 * metrics["sweep.runs"]


def test_csvs_identical_across_seeds(capsys):
    orders = [run.pass_order(seed, 0, 4) for seed in (1, 2)]
    assert orders[0] != orders[1]
    first, _ = _bench(capsys, "formula_tables", seed=1)
    second, _ = _bench(capsys, "formula_tables", seed=2)
    assert first["passes"][0]["order"] != second["passes"][0]["order"]
    assert first["csv_sha256"] == second["csv_sha256"]


def test_wrappers_patch_names_imported_elsewhere_and_restore_them():
    original = rs.sweep.run_sweep
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        assert absent == []
        assert rs.experiments.run_sweep is rs.sweep.run_sweep is rs.run_sweep
        assert rs.experiments.run_sweep is not original
        assert rs.sweep.build_qrm is rs.model.build_qrm is not None
        rs.sweep.build_qrm(rs.QrmParams(0.5, 0.0, 1.0, 0.3, 4))
    assert tracer.calls["model.assemble"] == 1
    assert rs.experiments.run_sweep is original and rs.run_sweep is original


def test_absent_names_are_reported_not_raised():
    layers = tracing.LAYERS + (
        ("model.assemble", "model", ("no_such_function",)),
        ("ghost", "no_such_module", ("anything",)),
    )
    with tracing.installed(tracing.Tracer(), layers) as absent:
        pass
    assert absent == ["model.no_such_function", "no_such_module.anything"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.05)
        with tracer.span("outer"):
            pass
    assert 0.015 < tracer.self_s["outer"] < 0.045
    assert tracer.self_s["inner"] >= 0.05
    assert tracer.calls["outer"] == 1 and tracer.calls["inner"] == 1


def test_speed_scaling_uses_the_kernel_samples_around_each_job():
    ref = speed.REFERENCE_S
    assert speed.scaled([1.0], [ref, ref]) == pytest.approx(1.0)
    assert speed.scaled([1.0, 3.0], [ref, 2 * ref, 2 * ref]) == pytest.approx(1 / 1.5 + 3 / 2)
    assert speed.SpeedProbe().sample() > 0


def test_gate_fails_a_perturbed_row():
    job = workloads.build_jobs("quench_scan", "tiny")[0]
    table = rs.run_experiment(job.spec)
    ref = checks.load_reference()[checks.reference_key("tiny", "quench_scan", job.name)]
    assert checks.check_table(job, table, ref).rows_failed == 0
    row = table.rows[0]
    sim = list(row.sim)
    sim[0] = replace(sim[0], probability=sim[0].probability + 1e-5)
    table.rows[0] = replace(row, sim=tuple(sim))
    check = checks.check_table(job, table, ref)
    assert check.rows_failed == 1 and check.max_dp >= 1e-5


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "formula_tables",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
