"""Benchmark for rabisweep: wall time of fixed experiment workloads at a
stated accuracy, with per-layer self time from a separate traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload quench_scan --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; without it the script
exits with status 2.  One run sets up five times in fresh interpreters
(``setup_s``), then repeats passes over the workload's jobs until the next
pass would end past ``--seconds``.  Pass k runs the jobs in an order drawn
from (seed, k); the seed sets nothing else.  Every pass is checked (see
checks.py) and its CSVs must be byte-identical to the first pass's.
``wall_s`` and ``setup_s`` are scaled by a machine-speed probe (speed.py).

With ``--trace 1`` passes alternate between untraced and traced; the traced
ones give the per-layer metrics and the difference of the two medians is
``trace.overhead_s``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment, the sizes and every pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("quench_scan", "bias_scan", "traces", "formula_tables")
SETUP_REPEATS = 5
# BLAS runs on one thread.  At dims 64-192 a second OpenBLAS thread makes the
# seed code slower (fig1a at three rates and 20,000 steps: 8.7 s with 2
# threads, 5.8 s with 1, on 2 cores), and its spinning ties timings to
# whatever else the machine runs.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Fresh interpreter: import the package and build the workload's specs.
_SETUP_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build_jobs(sys.argv[3], sys.argv[4])
print(repr(time.perf_counter() - t0))
"""


def measure_setup(workload: str, size: str, probe) -> tuple[list[float], list[float]]:
    """Raw seconds of each setup probe, and the speed-kernel samples between them."""
    raw, kernels = [], [probe.sample()]
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH_DIR), workload, size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        kernels.append(probe.sample())
    return raw, kernels


def pass_order(seed: int, k: int, n_jobs: int) -> list[int]:
    order = list(range(n_jobs))
    random.Random(f"{seed}/{k}").shuffle(order)
    return order


def run_pass(rs, jobs, order, out_dir: Path, probe) -> tuple[list[float], list[float], dict]:
    """Run, write and plot every job once.

    Returns (wall seconds of each job, the speed-kernel samples taken before,
    between and after the jobs, results by job name).
    """
    results: dict = {}
    job_s = []
    kernels = [probe.sample()]
    for i in order:
        job = jobs[i]
        t0 = time.perf_counter()
        try:
            table = rs.run_experiment(job.spec)
            rs.write_result_table(table, out_dir, job.name)
            labels = job.svg_labels or table.labels()[:8]
            with warnings.catch_warnings():
                # Trace axes are not positive; emit_svg skips them with a warning.
                warnings.simplefilter("ignore")
                rs.emit_svg(table, list(labels), out_dir, job.name)
            results[job.name] = table
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            results[job.name] = exc
        job_s.append(time.perf_counter() - t0)
        kernels.append(probe.sample())
    return job_s, kernels, results


def check_job(checks, job, ref, result, pass_dir: Path, digests: dict):
    """Gate one job's result of one pass; its CSV must match the first pass's."""
    if isinstance(result, Exception):
        rows = len(job.spec.scan_values)
        return checks.JobCheck(rows, rows, 0.0, [f"{job.name}: {type(result).__name__}: {result}"])
    check = checks.check_table(job, result, ref)
    digest = hashlib.sha256((pass_dir / f"{job.name}.csv").read_bytes()).hexdigest()
    if digests.setdefault(job.name, digest) != digest:
        check.rows_failed = check.rows
        check.problems.append(f"{job.name}: CSV differs from the first pass's")
    return check


def environment(rs) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "rabisweep": getattr(rs, "__version__", "unknown"),
        "src_lines": src_lines,
    }


def job_sizes(jobs) -> dict:
    out = {}
    for job in jobs:
        spec = job.spec
        out[job.name] = {
            "kind": spec.kind,
            "dim": getattr(spec.params, "dim", None),
            "n_steps": spec.n_steps,
            "rows": len(spec.scan_values),
        }
    return out


def layer_metrics(tracer, tables: dict, failed_jobs: int) -> dict:
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def us_per_step(dim: int) -> float:
        steps = counts[f"sweep.steps.dim{dim}"]
        return 1e6 * counts[f"sweep.propagate_s.dim{dim}"] / steps if steps else 0.0

    rows = sum(len(t.rows) for t in tables.values())
    rows_failed = sum(not r.converged for t in tables.values() for r in t.rows)
    return {
        "presets.build_s": self_s["presets"],
        "model.assemble_s": self_s["model.assemble"],
        "model.assemble_calls": calls["model.assemble"],
        "model.readout_basis_s": self_s["model.readout_basis"],
        "model.readout_basis_calls": calls["model.readout_basis"],
        "operators.eig_s": self_s["operators.eig"],
        "operators.eig_calls": calls["operators.eig"],
        "sweep.propagate_s": self_s["sweep.propagate"],
        "sweep.runs": int(counts["sweep.runs"]),
        "sweep.steps_requested": int(counts["sweep.steps_requested"]),
        "sweep.us_per_step.dim64": us_per_step(64),
        "sweep.us_per_step.dim192": us_per_step(192),
        "sweep.readout_s": self_s["sweep.readout"],
        "sweep.readout_samples": int(counts["sweep.readout_samples"]),
        "analytics.oracle_s": self_s["analytics.oracle"],
        "analytics.oracle_calls": calls["analytics.oracle"],
        "experiments.self_s": self_s["experiments"],
        "experiments.rows": rows,
        "experiments.rows_failed": rows_failed + failed_jobs,
        "io.write_s": self_s["io.write"],
        "io.csv_bytes": int(counts["io.csv_bytes"]),
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if ".us_per_step." in name:
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: 1,000 steps and one rate per job, for the benchmark's tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rabisweep" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'rabisweep'}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads; the setup probes inherit it
    sys.path.insert(0, str(SRC))
    import rabisweep as rs

    if Path(rs.__file__).resolve().parent != (SRC / "rabisweep").resolve():
        print(f"imported rabisweep from {rs.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import checks
    import speed
    import tracing
    import workloads

    probe = speed.SpeedProbe()
    setup_raw, setup_kernels = ([], []) if args.trace else measure_setup(args.workload, args.size, probe)
    reference = checks.load_reference()
    jobs = workloads.build_jobs(args.workload, args.size)
    refs = [reference[checks.reference_key(args.size, args.workload, j.name)] for j in jobs]

    run_name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    pass_dir = OUT_DIR / run_name
    walls: dict[bool, list[float]] = {False: [], True: []}  # scaled, by traced
    layer_runs: list[dict] = []
    absent: list[str] = []
    digests: dict[str, str] = {}
    attempted = failed = 0
    max_dp = 0.0
    problems: list[str] = []
    passes = []

    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        order = pass_order(args.seed, k, len(jobs))
        shutil.rmtree(pass_dir, ignore_errors=True)
        if traced:
            tracer = tracing.Tracer()
            with tracing.installed(tracer) as absent:
                with tracer.span("presets"):
                    pass_jobs = workloads.build_jobs(args.workload, args.size)
                job_s, kernels, results = run_pass(rs, pass_jobs, order, pass_dir, probe)
        else:
            job_s, kernels, results = run_pass(rs, jobs, order, pass_dir, probe)
        wall = speed.scaled(job_s, kernels)
        walls[traced].append(wall)

        for job, ref in zip(jobs, refs):
            check = check_job(checks, job, ref, results[job.name], pass_dir, digests)
            attempted += check.rows
            failed += check.rows_failed
            max_dp = max(max_dp, check.max_dp)
            problems.extend(check.problems)
        tables = {name: r for name, r in results.items() if not isinstance(r, Exception)}
        if traced:
            layer_runs.append(layer_metrics(tracer, tables, len(results) - len(tables)))
        passes.append({"order": [jobs[i].name for i in order], "traced": traced,
                       "job_s": job_s, "kernel_s": kernels, "scaled_s": wall})
        k += 1

        elapsed = time.perf_counter() - start
        if args.trace and not walls[True]:
            continue
        if elapsed + elapsed / k > args.seconds:
            break
    shutil.rmtree(pass_dir, ignore_errors=True)

    if args.trace:
        # median_low: a value one traced pass measured, so counts stay whole.
        metrics = {
            name: statistics.median_low(run[name] for run in layer_runs) for name in layer_runs[0]
        }
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "setup_s": statistics.median(
                speed.scaled([t], setup_kernels[i:i + 2]) for i, t in enumerate(setup_raw)
            ),
            "max_dp_ref": min(1.0, max(checks.DP_FLOOR, max_dp)),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {"wall_s": "s", "setup_s": "s", "max_dp_ref": "1", "ok_frac": "1",
             "peak_rss_mb": "MB"}

    record = {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(rs),
        "jobs": job_sizes(jobs),
        "speed_reference_s": speed.REFERENCE_S,
        "setup_raw_s": setup_raw,
        "setup_kernel_s": setup_kernels,
        "passes": passes,
        "csv_sha256": digests,
        "absent": absent,
        "problems": problems[:50],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{run_name}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name) or unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
