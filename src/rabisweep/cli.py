"""Command-line front end.

All frequencies are given as ratios to the oscillator frequency (omega = 1
internally); sweep-rate grids are dimensionless (v/omega^2 for gap sweeps,
v/delta^2 for bias sweeps). Exit codes: 0 success, 1 argument/validation
error, 2 numerical or I/O failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from ._version import __version__
from .analytics import cascade_probabilities, lz_probability, poisson_overlap
from .errors import InvalidParameterError, RabisweepError
from .experiments import DEFAULT_N_STEPS, ExperimentSpec, convergence_scan, run_experiment
from .io import emit_svg, parse_config_file, write_result_table
from .model import Mode, MultiModeParams, build_qrm, parity_operator
from .operators import eig_hermitian
from .presets import (
    PRESETS,
    log_grid,
    lz_scan_spec,
    lz_trace_spec,
    qrm_params,
    quench_scan_spec,
    quench_trace_spec,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _add_grid_flags(sp, default_min: float, default_max: float, per_decade: int = 4):
    sp.add_argument("--v-min", type=float, default=default_min)
    sp.add_argument("--v-max", type=float, default=default_max)
    sp.add_argument("--points-per-decade", type=int, default=per_decade)


def _build_parser() -> _Parser:
    parser = _Parser(prog="rabisweep", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", type=str, default=None, help="flat key=value file; flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quench", help="gap sweep across the coupling regimes")
    q.add_argument("--direction", choices=("ns", "sn"), default="ns")
    q.add_argument("--g-over-omega", type=float, required=True)
    q.add_argument("--delta-i", type=float, default=None, help="large-gap endpoint (omega units)")
    q.add_argument("--n-fock", type=int, default=None)
    q.add_argument("--n-steps", type=int, default=DEFAULT_N_STEPS)
    q.add_argument("--trace", action="store_true", help="time trace at a single rate")
    q.add_argument("--rate", type=float, default=1e4, help="v/omega^2 for --trace")
    _add_grid_flags(q, 1e-1, 1e4)
    _add_output_flags(q)

    lz = sub.add_parser("lz", help="bias sweep through the crossing mesh")
    lz.add_argument("--g-over-omega", type=float, required=True)
    lz.add_argument("--delta-over-omega", type=float, required=True)
    lz.add_argument("--n-fock", type=int, default=None)
    lz.add_argument("--n-steps", type=int, default=DEFAULT_N_STEPS)
    lz.add_argument("--formula-only", action="store_true")
    lz.add_argument("--trace", action="store_true")
    lz.add_argument("--rate", type=float, default=1.0, help="v/delta^2 for --trace")
    lz.add_argument("--window", type=float, default=None, help="bias half-width (omega units)")
    _add_grid_flags(lz, 1e-1, 1e2)
    _add_output_flags(lz)

    mm = sub.add_parser("multimode", help="bias sweep with several oscillator modes")
    mm.add_argument("--delta-over-omega", type=float, required=True)
    mm.add_argument(
        "--modes", type=str, required=True,
        help="comma list of omega:g:n_fock triples, e.g. 1:0.5:8,2.3:0.92:6",
    )
    mm.add_argument("--caps", type=str, default=None, help="comma list of occupation caps")
    mm.add_argument("--n-steps", type=int, default=DEFAULT_N_STEPS)
    mm.add_argument("--no-simulate", action="store_true", help="sequential oracle only")
    _add_grid_flags(mm, 0.5, 30.0, per_decade=2)
    _add_output_flags(mm)

    f = sub.add_parser("formula", help="closed-form quantities")
    f.add_argument("--g-over-omega", type=float, required=True)
    f.add_argument("--n", type=int, default=0)
    f.add_argument("--delta-over-omega", type=float, default=1.0)
    f.add_argument("--v-over-delta2", type=float, default=None)
    f.add_argument("--lz", action="store_true", help="two-level survival probability")
    f.add_argument("--cascade", action="store_true", help="cascade P(up, n) at --v-over-delta2")

    s = sub.add_parser("spectrum", help="low-lying eigenvalues at fixed parameters")
    s.add_argument("--delta", type=float, required=True, help="qubit gap (omega units)")
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--g-over-omega", type=float, required=True)
    s.add_argument("--n-fock", type=int, default=None)
    s.add_argument("--levels", type=int, default=10)

    c = sub.add_parser("convergence", help="rerun a quench point at 2x/4x one knob")
    c.add_argument("--knob", choices=("n_steps", "n_fock", "endpoint_magnitude"), required=True)
    c.add_argument("--g-over-omega", type=float, required=True)
    c.add_argument("--rate", type=float, required=True, help="v/omega^2")
    c.add_argument("--delta-i", type=float, default=None, help="large-gap endpoint (omega units)")
    c.add_argument("--n-fock", type=int, default=None)
    c.add_argument("--n-steps", type=int, default=DEFAULT_N_STEPS)
    c.add_argument("--tolerance", type=float, default=1e-3)

    pr = sub.add_parser("presets", help="list or run bundled experiment presets")
    pr.add_argument("name", nargs="?", default=None)
    pr.add_argument("--allow-long", action="store_true")
    _add_output_flags(pr)
    return parser


def _add_output_flags(sp) -> None:
    sp.add_argument("--output-dir", type=str, default="runs")
    sp.add_argument("--emit-svg", action="store_true")


def _emit(table, args, name: str, svg_labels=None) -> None:
    paths = write_result_table(table, args.output_dir, name)
    for p in paths:
        print(p)
    if args.emit_svg:
        labels = svg_labels or table.labels()[:8]
        svg = emit_svg(table, list(labels), args.output_dir, name)
        if svg is not None:
            print(svg)


def _cmd_quench(args) -> int:
    common = dict(n_fock=args.n_fock, delta_hi=args.delta_i, n_steps=args.n_steps)
    if args.trace:
        spec = quench_trace_spec(args.direction, args.g_over_omega, args.rate, **common)
        name = f"quench_trace_{args.direction}"
    else:
        grid = log_grid(args.v_min, args.v_max, args.points_per_decade)
        spec = quench_scan_spec(args.direction, args.g_over_omega, grid, **common)
        name = f"quench_{args.direction}"
    _emit(run_experiment(spec), args, name)
    return 0


def _cmd_lz(args) -> int:
    g, d = args.g_over_omega, args.delta_over_omega
    common = dict(n_fock=args.n_fock, window=args.window, n_steps=args.n_steps)
    if args.trace:
        spec = lz_trace_spec(g, d, args.rate, **common)
        name = "lz_trace"
    else:
        grid = log_grid(args.v_min, args.v_max, args.points_per_decade)
        spec = lz_scan_spec(g, d, grid, simulate=not args.formula_only, **common)
        name = "lz_formula" if args.formula_only else "lz_scan"
    _emit(run_experiment(spec), args, name)
    return 0


def _cmd_multimode(args) -> int:
    modes = []
    for part in args.modes.split(","):
        try:
            omega, g, n_fock = part.split(":")
            fields = (float(omega), float(g), int(n_fock))
        except ValueError:
            raise InvalidParameterError(f"bad mode triple {part!r}") from None
        modes.append(Mode(*fields))
    p = MultiModeParams(args.delta_over_omega, tuple(modes))
    options: dict = {"simulate": not args.no_simulate}
    if args.caps:
        try:
            options["caps"] = tuple(int(t) for t in args.caps.split(","))
        except ValueError:
            raise InvalidParameterError(f"bad occupation caps {args.caps!r}") from None
    grid = log_grid(args.v_min, args.v_max, args.points_per_decade)
    spec = ExperimentSpec(
        "multimode_scan", p, "v_over_delta2", grid, n_steps=args.n_steps, options=options
    )
    _emit(run_experiment(spec), args, "multimode_scan")
    return 0


def _cmd_formula(args) -> int:
    if args.lz:
        if args.v_over_delta2 is None:
            raise InvalidParameterError("--lz needs --v-over-delta2")
        print(f"{lz_probability(1.0, args.v_over_delta2):.6f}")
    elif args.cascade:
        if args.v_over_delta2 is None:
            raise InvalidParameterError("--cascade needs --v-over-delta2")
        delta = args.delta_over_omega
        recs = cascade_probabilities(delta, args.v_over_delta2 * delta**2, args.g_over_omega, 1.0)
        up = {r.label.photons: r.probability for r in recs if r.label.qubit == "up"}
        if args.n not in up:
            raise InvalidParameterError(f"--n {args.n} is not a cascade level (0..{max(up)})")
        print(f"{up[args.n]:.6f}")
    else:
        print(f"{poisson_overlap(args.n, args.g_over_omega, 1.0):.6f}")
    return 0


def _cmd_spectrum(args) -> int:
    if args.levels < 1:
        raise InvalidParameterError(f"levels must be at least 1, got {args.levels}")
    p = qrm_params(args.g_over_omega, args.delta, args.epsilon, args.n_fock)
    h = build_qrm(p)
    vals, vecs = eig_hermitian(h)
    print("level,energy,parity")
    parity = parity_operator(p)
    for i in range(min(args.levels, len(vals))):
        v = vecs[:, i]
        par = float(np.real(np.vdot(v, parity @ v)))
        print(f"{i},{vals[i]:.9g},{par:+.3f}")
    return 0


def _cmd_convergence(args) -> int:
    spec = quench_scan_spec(
        "ns", args.g_over_omega, (args.rate,),
        n_fock=args.n_fock, delta_hi=args.delta_i, n_steps=args.n_steps,
    )
    report = convergence_scan(spec, args.knob, args.tolerance)
    print(f"knob={report.knob} base={report.base_value:g} tolerance={report.tolerance:g}")
    print(f"max_change_2x={report.max_change_2x}")
    print(f"max_change_4x={report.max_change_4x}")
    for note in report.notes:
        print(f"note: {note}")
    print("converged" if report.passed else "NOT CONVERGED")
    return 0


def _cmd_presets(args) -> int:
    if args.name is None:
        for name, preset in PRESETS.items():
            tag = " [long-running]" if preset.long_running else ""
            print(f"{name:16s} {preset.description}{tag}")
        return 0
    if args.name not in PRESETS:
        raise InvalidParameterError(f"unknown preset {args.name!r}")
    preset = PRESETS[args.name]
    if preset.long_running and not args.allow_long:
        raise InvalidParameterError(
            f"preset {args.name!r} runs for hours; pass --allow-long to confirm"
        )
    table = run_experiment(preset.build())
    _emit(table, args, args.name, svg_labels=preset.svg_labels)
    return 0


_COMMANDS = {
    "quench": _cmd_quench,
    "lz": _cmd_lz,
    "multimode": _cmd_multimode,
    "formula": _cmd_formula,
    "spectrum": _cmd_spectrum,
    "convergence": _cmd_convergence,
    "presets": _cmd_presets,
}


def _splice_config(argv: list[str]) -> list[str]:
    """Replace ``--config FILE`` by the file's flags, placed right after the
    subcommand so that explicit flags, which come later, override them.
    ``key = true`` becomes a bare ``--key`` and ``key = false`` is left out."""
    argv = [part for arg in argv for part in (
        arg.split("=", 1) if arg.startswith("--config=") else [arg]
    )]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise _UsageError("argument --config: expected one argument")
    injected = []
    for key, value in parse_config_file(argv[idx + 1]).items():
        if value.lower() == "false":
            continue
        injected.append(f"--{key}")
        if value.lower() != "true":
            injected.append(value)
    rest = argv[:idx] + argv[idx + 2 :]
    at = next((i + 1 for i, arg in enumerate(rest) if arg in _COMMANDS), len(rest))
    return rest[:at] + injected + rest[at:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_splice_config(argv))
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvalidParameterError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (RabisweepError, OSError) as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
