"""Serialization: CSV result tables, run manifests, and self-contained SVG plots.

CSV layout is fixed: one line per (grid point, label), floats at 9 significant
digits, UTF-8 with LF line endings. A row's lines are its simulated labels in
order, then the oracle's labels that the simulation lacks; a label repeated
within one readout is written once, with its first entry, as
``ResultTable.columns`` (and so the SVGs) reads it. Wall-clock times live only
in the manifest so identical configurations produce byte-identical CSVs.

Text is formatted in array form: a CSV row is its scan value's text joined
into its layout's template and one % over its floats, an SVG polyline one %
over its points' pixels, and a manifest key is formatted once per row.

A manifest and an audit are records of one writer (``_write_record``) and
hold the same ``config`` (``_spec_config``): the spec's kind, model
parameters, grid, steps and options.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import platform
import time
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParameterError
from ._version import __version__
from .experiments import ConvergenceReport, ExperimentSpec, ResultTable
from .model import BasisLabel

CSV_HEADER = "scan_value,label_scheme,qubit_label,n,probability,oracle_probability,abs_dev,converged"

# Paper-style curve palette; the survival label is red, climbing levels follow.
_PALETTE = ("#228b22", "#1f4fd8", "#c71585", "#00b7c7", "#ff8c00", "#808000",
            "#8b4513", "#4b0082", "#2f4f4f", "#b22222")
_SURVIVAL_COLOR = "#d62728"


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _photons_str(photons) -> str:
    if isinstance(photons, tuple):
        # A one-mode tuple ends in ';' so that it does not read back as an int.
        return ";".join(str(n) for n in photons) + (";" if len(photons) == 1 else "")
    return str(photons)


def _photons_parse(text: str):
    if ";" in text:
        return tuple(int(t) for t in text.rstrip(";").split(";"))
    return int(text)


def _csv_layout(
    sim_labels: tuple[BasisLabel, ...],
    oracle_labels: tuple[BasisLabel, ...],
    label_text: dict[BasisLabel, str],
) -> tuple[dict[bool, list[str]], list[int], list[int], list[int]]:
    """The lines of a row whose readouts carry these labels: for each
    converged flag a %-template of the row's floats, split on its scan-value
    slots; the positions of the floats that fill it; and the sim and oracle
    entries of the labels both carry.

    A row's floats are [*sim, *oracle, *|sim - oracle| over the labels both
    carry]; the positions pick them in template order. A label repeated
    within a readout takes its first entry.
    """
    slots: dict[BasisLabel, list] = {}
    for k, lab in enumerate(sim_labels):
        slots.setdefault(lab, [k, None])
    for k, lab in enumerate(oracle_labels):
        slot = slots.setdefault(lab, [None, None])
        if slot[1] is None:
            slot[1] = k
    n_floats = len(sim_labels) + len(oracle_labels)
    lines, positions, both_sim, both_oracle = [], [], [], []
    for lab, (k_sim, k_oracle) in slots.items():
        text = label_text.get(lab)
        if text is None:
            text = label_text[lab] = f"{lab.scheme},{lab.qubit},{_photons_str(lab.photons)}"
        fields = ["", "", ""]
        if k_sim is not None:
            positions.append(k_sim)
            fields[0] = "%.9g"
        if k_oracle is not None:
            positions.append(len(sim_labels) + k_oracle)
            fields[1] = "%.9g"
        if k_sim is not None and k_oracle is not None:
            positions.append(n_floats + len(both_sim))
            both_sim.append(k_sim)
            both_oracle.append(k_oracle)
            fields[2] = "%.9g"
        lines.append(f"%s,{text},{fields[0]},{fields[1]},{fields[2]}")
    templates = {
        flag: "\n".join(line + tail for line in lines).split("%s")
        for flag, tail in ((True, ",true"), (False, ",false"))
    }
    return templates, positions, both_sim, both_oracle


def _readout_labels(readout) -> tuple[BasisLabel, ...]:
    return readout.labels if readout else ()


def _probability_block(readouts, width: int) -> np.ndarray:
    """The readouts' probabilities as (rows, width); width 0 for rows
    without that readout."""
    if width == 0:
        return np.empty((len(readouts), 0))
    return np.stack([r.probabilities for r in readouts])


def render_result_csv(table: ResultTable) -> str:
    """One line per (row, label): the row's simulated labels in order, then
    the oracle's labels that the simulation lacks.

    A row's lines depend only on its (sim, oracle) label tuples, so each run
    of rows that share them is laid out once (``_csv_layout``). A row's scan
    value text, formatted once, joins its template's pieces, and one %
    substitutes its floats (numeric text holds no %); ``"%.9g" % x`` and
    ``_fmt(x)`` give the same text. Each label's ``scheme,qubit,n`` text is
    built once per table.
    """
    label_text: dict[BasisLabel, str] = {}
    lines = [CSV_HEADER]
    for key, group in itertools.groupby(
        table.rows, lambda row: (_readout_labels(row.sim), _readout_labels(row.oracle))
    ):
        run = list(group)
        templates, positions, both_sim, both_oracle = _csv_layout(*key, label_text)
        if not positions:  # failed rows write no lines
            continue
        sims = _probability_block([row.sim for row in run], len(key[0]))
        oracles = _probability_block([row.oracle for row in run], len(key[1]))
        floats = np.hstack([sims, oracles, np.abs(sims[:, both_sim] - oracles[:, both_oracle])])
        for row, row_floats in zip(run, floats[:, positions].tolist()):
            template = _fmt(row.scan_value).join(templates[bool(row.converged)])
            lines.append(template % tuple(row_floats))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CsvRecord:
    scan_value: float
    label: BasisLabel
    probability: float | None
    oracle_probability: float | None
    abs_dev: float | None
    converged: bool


def parse_result_csv(text: str) -> list[CsvRecord]:
    """The records of a result CSV. A row that does not have eight fields,
    a number in each numeric field and ``true`` or ``false`` as its
    converged flag raises ``InvalidParameterError``."""
    lines = text.strip("\n").split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidParameterError("unrecognized result-table header")
    records = []
    for line in lines[1:]:
        try:
            sv, scheme, qubit, n, p, po, dev, conv = line.split(",")
            if conv not in ("true", "false"):
                raise ValueError(conv)
            scan_value, photons = float(sv), _photons_parse(n)
            probabilities = [float(x) if x else None for x in (p, po, dev)]
        except ValueError:
            raise InvalidParameterError(f"malformed result row: {line!r}") from None
        records.append(CsvRecord(
            scan_value, BasisLabel(scheme, qubit, photons), *probabilities, conv == "true"
        ))
    return records


def read_result_table(path: str | Path) -> list[CsvRecord]:
    return parse_result_csv(Path(path).read_text(encoding="utf-8"))


def _spec_config(spec: ExperimentSpec) -> dict:
    """The one record of a spec, in manifests and audits alike."""
    return {
        "kind": spec.kind,
        "params": _jsonable(asdict(spec.params)),
        "scan_name": spec.scan_name,
        "scan_values": [float(v) for v in spec.scan_values],
        "n_steps": spec.n_steps,
        "options": {k: _jsonable(v) for k, v in spec.options.items()},
    }


def _write_record(
    out_dir: str | Path, name: str, kind: str, spec: ExperimentSpec, fields: dict
) -> Path:
    """Write ``fields`` with the ``name``, ``version``, spec ``config``,
    ``environment`` and ``written_at_unix`` to ``<name>_<kind>.json`` in
    ``out_dir`` (made if missing) as one line of JSON with sorted keys
    (without ``indent`` json uses its C encoder); returns the path."""
    path = Path(out_dir) / f"{name}_{kind}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {**fields, "name": name, "version": __version__, "config": _spec_config(spec),
              "environment": _environment(), "written_at_unix": time.time()}
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_result_table(
    table: ResultTable, out_dir: str | Path, name: str | None = None
) -> list[Path]:
    """Write one CSV and its run manifest (``_write_record``); returns their
    paths. The manifest holds the run's ``provenance``, each row's
    ``convergence`` flag, ``checks`` and any ``warnings``, keyed by scan
    value at 9 significant digits (``ExperimentSpec`` and a trace refuse
    values that would share a key), and the CSV's ``checksums``."""
    name = name or table.spec.kind
    csv_path = Path(out_dir) / f"{name}.csv"
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    payload = render_result_csv(table).encode("utf-8")
    csv_path.write_bytes(payload)
    keyed = [(_fmt(row.scan_value), row) for row in table.rows]
    manifest_path = _write_record(out_dir, name, "manifest", table.spec, {
        "provenance": _jsonable(table.provenance),
        "convergence": {key: row.converged for key, row in keyed},
        "checks": {key: _jsonable(row.checks) for key, row in keyed},
        "warnings": {key: list(row.warnings) for key, row in keyed if row.warnings},
        "checksums": {csv_path.name: hashlib.sha256(payload).hexdigest()},
    })
    return [csv_path, manifest_path]


def write_audit(
    spec: ExperimentSpec, reports: list[tuple[ConvergenceReport, float]],
    out_dir: str | Path, name: str,
) -> Path:
    """Write the resolution audit of one table as ``<name>_audit.json``
    (``_write_record``): each knob's ``ConvergenceReport`` fields with the
    seconds its audit took. Returns the written path."""
    return _write_record(out_dir, name, "audit", spec, {
        "audits": [
            {**_jsonable(asdict(report)), "seconds": round(seconds, 3)}
            for report, seconds in reports
        ],
    })


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _environment() -> dict:
    """Python, numpy, scipy and BLAS versions and the BLAS thread settings
    (None where unset) of the writing process. scipy is imported here, for
    its version only."""
    import scipy

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name", "unknown"),
            "version": blas.get("version", "unknown"),
        },
        "threads": {var: os.environ.get(var) for var in _THREAD_VARS},
    }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def _decade_bounds(values: np.ndarray) -> tuple[float, float]:
    lo = math.floor(math.log10(values.min()))
    hi = math.ceil(math.log10(values.max()))
    if hi == lo:
        hi = lo + 1
    return float(lo), float(hi)


def _color_for(label: BasisLabel, index: int) -> str:
    if label.qubit in ("down", "-", "left") and label.photons in (0, (0,), (0, 0)):
        return _SURVIVAL_COLOR
    if label.qubit in ("up", "+", "right") and isinstance(label.photons, int) and label.photons < len(_PALETTE):
        return _PALETTE[label.photons]
    return _PALETTE[index % len(_PALETTE)]


def emit_svg(
    table: ResultTable,
    labels: list[BasisLabel],
    out_dir: str | Path,
    name: str | None = None,
) -> Path | None:
    """Render requested labels as log-x probability curves; one polyline each.

    The x range snaps to the surrounding decade boundaries of the scan grid.
    Degenerate single-point grids are skipped with a warning. A label's
    curve is its simulated column from ``ResultTable.columns``, or its
    oracle column where it has no simulated record, without its NaNs. Each
    scan value's x pixel is computed once per table; a curve's y pixels are
    one array expression with ``y_px``'s operations, and its points one %.
    """
    scan = np.array([row.scan_value for row in table.rows], dtype=float)
    if len(scan) < 2:
        warnings.warn("single-point grid: skipping SVG output", stacklevel=2)
        return None
    if np.any(scan <= 0):
        warnings.warn("non-positive scan values: log-x plot skipped", stacklevel=2)
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    name = name or table.spec.kind
    path = out / f"{name}.svg"

    width, height = 720, 460
    ml, mr, mt, mb = 70, 190, 20, 50
    plot_w, plot_h = width - ml - mr, height - mt - mb
    lo, hi = _decade_bounds(scan)

    def x_px(v: float) -> float:
        return ml + (math.log10(v) - lo) / (hi - lo) * plot_w

    def y_px(p: float) -> float:
        return mt + (1.0 - min(max(p, 0.0), 1.0)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>',
    ]
    for d in range(int(lo), int(hi) + 1):
        x = x_px(10.0**d)
        parts.append(
            f'<line x1="{x:.1f}" y1="{mt + plot_h}" x2="{x:.1f}" y2="{mt + plot_h + 6}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{mt + plot_h + 22}" font-size="12" text-anchor="middle">1e{d}</text>'
        )
    for frac in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        y = y_px(frac)
        parts.append(f'<line x1="{ml - 6}" y1="{y:.1f}" x2="{ml}" y2="{y:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{ml - 10}" y="{y + 4:.1f}" font-size="12" text-anchor="end">{frac:.1f}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.1f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">{table.spec.scan_name}</text>'
    )

    xs = np.array([x_px(v) for v in scan.tolist()])
    columns = table.columns(labels)
    for i, lab in enumerate(labels):
        col, oracle_col = columns[lab]
        if np.all(np.isnan(col)):
            col = oracle_col
        ok = ~np.isnan(col)
        if not ok.any():
            continue
        ys = mt + (1.0 - np.clip(col[ok], 0.0, 1.0)) * plot_h
        xy = np.column_stack([xs[ok], ys]).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * len(ys)) % tuple(xy)
        color = _color_for(lab, i)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{pts}"/>'
        )
        ly = mt + 16 + 18 * i
        lx = ml + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-size="12">{lab.scheme} {lab}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Flat key=value config files
# ---------------------------------------------------------------------------

def parse_config_file(path: str | Path) -> dict[str, str]:
    """key = value lines; '#' starts a comment; later keys win."""
    out: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"malformed config line: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out
