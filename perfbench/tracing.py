"""Per-layer spans recorded from outside the package.

Each layer is a ``rabisweep`` module.  Its public functions are wrapped, and a
call records a span: the layer group, its duration, and the time its child
spans covered.  A group's self time is the sum of its spans' durations minus
their children.  ``calls`` counts calls into a group from outside it, so a
public function that calls another of the same group counts once.

A wrapper replaces the function object in every loaded ``rabisweep`` module
that holds it, so names imported with ``from .model import build_qrm`` are
traced along with the module attribute.  A name that no longer exists is
reported as absent and skipped, so the benchmark outlives refactors that
move or delete functions.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (group, owner module, public names).  The "presets" group is a span the
# benchmark opens itself around PRESETS[...].build().
LAYERS = (
    ("model.assemble", "model",
     ("build_qrm", "build_multimode", "delta_ramp", "epsilon_ramp", "parity_sector_basis")),
    ("model.readout_basis", "model", ("scheme_basis", "multimode_displaced_basis")),
    ("operators.eig", "operators", ("eig_hermitian",)),
    ("sweep.propagate", "sweep", ("run_sweep",)),
    ("sweep.readout", "sweep",
     ("project_records", "eigen_level_series", "greedy_label_assignment")),
    ("analytics.oracle", "analytics",
     ("poisson_overlap", "cascade_probabilities", "multimode_gaps",
      "sequential_crossing_probabilities")),
    ("experiments", "experiments",
     ("run_experiment", "quench_rate_scan", "quench_time_trace", "lz_scan",
      "lz_time_trace", "multimode_scan")),
    ("io.write", "io", ("render_result_csv", "write_result_table", "emit_svg")),
)


class Tracer:
    """Span stack plus per-group self time, call counts and work counters."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [group, start, child_seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)

    def enter(self, group: str) -> None:
        self._stack.append([group, time.perf_counter(), 0.0])

    def leave(self) -> float:
        """Close the innermost span; returns its self time."""
        group, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        own = duration - child
        self.self_s[group] += own
        if self._stack:
            self._stack[-1][2] += duration
        if not self._stack or self._stack[-1][0] != group:
            self.calls[group] += 1
        return own

    @contextmanager
    def span(self, group: str):
        self.enter(group)
        try:
            yield
        finally:
            self.leave()


def _find(args, kwargs, attr: str):
    """First argument that has ``attr``; wrappers do not rely on signatures."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, attr):
            return value
    return None


def _count_sweep(tracer: Tracer, args, kwargs, result, own: float) -> None:
    tracer.counts["sweep.runs"] += 1
    schedule = _find(args, kwargs, "n_steps")
    state = _find(args, kwargs, "amplitudes")
    if schedule is None or state is None:
        return
    steps = schedule.n_steps
    dim = len(state.amplitudes)
    tracer.counts["sweep.steps_requested"] += steps
    tracer.counts[f"sweep.steps.dim{dim}"] += steps
    tracer.counts[f"sweep.propagate_s.dim{dim}"] += own


def _count_projection(tracer: Tracer, args, kwargs, result, own: float) -> None:
    tracer.counts["sweep.readout_samples"] += 1


def _count_level_series(tracer: Tracer, args, kwargs, result, own: float) -> None:
    populations = result[0] if isinstance(result, tuple) and result else None
    tracer.counts["sweep.readout_samples"] += len(populations) if populations is not None else 0


def _count_csv(tracer: Tracer, args, kwargs, result, own: float) -> None:
    if isinstance(result, str):
        tracer.counts["io.csv_bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "run_sweep": _count_sweep,
    "project_records": _count_projection,
    "eigen_level_series": _count_level_series,
    "render_result_csv": _count_csv,
}


def _wrap(tracer: Tracer, group: str, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(group)
        try:
            result = fn(*args, **kwargs)
        finally:
            own = tracer.leave()
        if hook is not None:
            hook(tracer, args, kwargs, result, own)
        return result

    return traced


def _package_modules() -> list:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "rabisweep" or name.startswith("rabisweep."))
    ]


@contextmanager
def installed(tracer: Tracer, layers=LAYERS):
    """Wrap every layer function for the duration of the block.

    Yields the list of ``module.name`` entries that do not exist.
    """
    modules = _package_modules()
    patches = []
    absent = []
    try:
        for group, owner, names in layers:
            try:
                owner_module = importlib.import_module(f"rabisweep.{owner}")
            except ModuleNotFoundError:
                owner_module = None
            for name in names:
                original = getattr(owner_module, name, None)
                if not callable(original):
                    absent.append(f"{owner}.{name}")
                    continue
                wrapper = _wrap(tracer, group, original, _HOOKS.get(name))
                for module in modules:
                    holders = [attr for attr, value in vars(module).items() if value is original]
                    for attr in holders:
                        setattr(module, attr, wrapper)
                        patches.append((module, attr, original))
        yield absent
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
