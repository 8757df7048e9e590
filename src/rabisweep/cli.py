"""Command-line front end.

All frequencies are given as ratios to the oscillator frequency (omega = 1
internally); sweep-rate grids are dimensionless (v/omega^2 for gap sweeps,
v/delta^2 for bias sweeps). Exit codes: 0 success, 1 argument/validation
error, 2 numerical or I/O failure.

The table commands (quench, lz, multimode, presets NAME) write NAME.csv and
its manifest to --output-dir. With --audit KNOB (n_steps, n_fock or
endpoint_magnitude; repeatable) they write no table: they rerun the same
table at 2x and 4x each knob and write NAME_audit.json, which holds per knob
the largest change in any simulated probability, where it sits, whether it
passed at 1e-3 and the seconds taken, with the version and environment.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from ._version import __version__
from .analytics import cascade_probabilities, lz_probability, poisson_overlap
from .errors import InvalidParameterError, RabisweepError
from .experiments import (
    AUDIT_KNOBS,
    DEFAULT_N_STEPS,
    RATE_SCAN_KINDS,
    ExperimentSpec,
    convergence_scan,
    run_experiment,
)
from .io import emit_svg, parse_config_file, write_audit, write_result_table
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


def _add_grid_flags(sp) -> None:
    sp.add_argument("--v-min", type=float)
    sp.add_argument("--v-max", type=float)
    sp.add_argument("--points-per-decade", type=int)


def _rate_grid(args, v_min: float, v_max: float, per_decade: int = 4) -> tuple[float, ...]:
    """The log grid of the grid flags, each defaulting to its value here."""
    flags = (args.v_min, args.v_max, args.points_per_decade)
    return log_grid(*(d if f is None else f for f, d in zip(flags, (v_min, v_max, per_decade))))


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
    q.add_argument("--rate", type=float, help="v/omega^2 of a --trace")
    _add_grid_flags(q)
    _add_output_flags(q)

    lz = sub.add_parser("lz", help="bias sweep through the crossing mesh")
    lz.add_argument("--g-over-omega", type=float, required=True)
    lz.add_argument("--delta-over-omega", type=float, required=True)
    lz.add_argument("--n-fock", type=int, default=None)
    lz.add_argument("--n-steps", type=int, default=DEFAULT_N_STEPS)
    lz_mode = lz.add_mutually_exclusive_group()
    lz_mode.add_argument("--formula-only", action="store_true")
    lz_mode.add_argument("--trace", action="store_true")
    lz.add_argument("--rate", type=float, help="v/delta^2 of a --trace")
    lz.add_argument("--window", type=float, default=None, help="bias half-width (omega units)")
    _add_grid_flags(lz)
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
    _add_grid_flags(mm)
    _add_output_flags(mm)

    f = sub.add_parser("formula", help="closed-form quantities")
    f.add_argument("--g-over-omega", type=float, required=True)
    f.add_argument("--n", type=int, default=None, help="photon number (default 0)")
    f.add_argument("--delta-over-omega", type=float, default=None, help="cascade only (default 1)")
    f.add_argument("--v-over-delta2", type=float, default=None)
    f_mode = f.add_mutually_exclusive_group()
    f_mode.add_argument("--lz", action="store_true", help="two-level survival probability")
    f_mode.add_argument(
        "--cascade", action="store_true", help="cascade P(up, n) at --v-over-delta2"
    )

    s = sub.add_parser("spectrum", help="low-lying eigenvalues at fixed parameters")
    s.add_argument("--delta", type=float, required=True, help="qubit gap (omega units)")
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--g-over-omega", type=float, required=True)
    s.add_argument("--n-fock", type=int, default=None)
    s.add_argument("--levels", type=int, default=10)

    pr = sub.add_parser("presets", help="list or run bundled experiment presets")
    pr.add_argument("name", nargs="?", default=None)
    pr.add_argument("--allow-long", action="store_true")
    _add_output_flags(pr)
    return parser


def _add_output_flags(sp) -> None:
    sp.add_argument("--output-dir", type=str, default="runs")
    out = sp.add_mutually_exclusive_group()
    out.add_argument("--emit-svg", action="store_true")
    out.add_argument(
        "--audit", action="append", choices=AUDIT_KNOBS, metavar="KNOB",
        help=f"audit the table at 2x/4x KNOB ({', '.join(AUDIT_KNOBS)}); repeatable",
    )


def _run_table(args, spec: ExperimentSpec, name: str, svg_labels) -> int:
    """Run the table and write it, or with --audit write its audit file.
    --emit-svg draws rate scans only, so a trace given it runs nothing."""
    if args.emit_svg and spec.kind not in RATE_SCAN_KINDS:
        raise _UsageError(f"--emit-svg: {name} is a trace, and only rate scans are drawn")
    if args.audit:
        reports = []
        for knob in args.audit:
            start = time.perf_counter()
            reports.append((convergence_scan(spec, knob), time.perf_counter() - start))
        print(write_audit(spec, reports, args.output_dir, name))
        return 0
    table = run_experiment(spec)
    for p in write_result_table(table, args.output_dir, name):
        print(p)
    if args.emit_svg:
        labels = svg_labels or table.labels()[:8]
        svg = emit_svg(table, list(labels), args.output_dir, name)
        if svg is not None:
            print(svg)
    return 0


def _refuse_unread(args, names: tuple[str, ...], where: str) -> None:
    """A usage error naming each flag of ``names`` that was given: it is
    not allowed ``where``, since that mode does not read it."""
    given = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is not None]
    if given:
        raise _UsageError(f"{'/'.join(given)}: not allowed {where}")


def _trace_rate(args) -> dict:
    """The rate keyword of a --trace, empty for the spec builder's default.
    The grid flags with --trace and --rate without it are usage errors."""
    unused = ("v_min", "v_max", "points_per_decade") if args.trace else ("rate",)
    _refuse_unread(args, unused, f"{'with' if args.trace else 'without'} --trace")
    return {} if args.rate is None else {"rate": args.rate}


def _cmd_quench(args):
    common = dict(n_fock=args.n_fock, delta_hi=args.delta_i, n_steps=args.n_steps)
    rate = _trace_rate(args)
    if args.trace:
        spec = quench_trace_spec(args.direction, args.g_over_omega, **rate, **common)
        return spec, f"quench_trace_{args.direction}", None
    grid = _rate_grid(args, 1e-1, 1e4)
    spec = quench_scan_spec(args.direction, args.g_over_omega, grid, **common)
    return spec, f"quench_{args.direction}", None


def _cmd_lz(args):
    g, d = args.g_over_omega, args.delta_over_omega
    common = dict(n_fock=args.n_fock, window=args.window, n_steps=args.n_steps)
    rate = _trace_rate(args)
    if args.trace:
        return lz_trace_spec(g, d, **rate, **common), "lz_trace", None
    grid = _rate_grid(args, 1e-1, 1e2)
    spec = lz_scan_spec(g, d, grid, simulate=not args.formula_only, **common)
    return spec, "lz_formula" if args.formula_only else "lz_scan", None


def _cmd_multimode(args):
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
    grid = _rate_grid(args, 0.5, 30.0, per_decade=2)
    spec = ExperimentSpec(
        "multimode_scan", p, "v_over_delta2", grid, n_steps=args.n_steps, options=options
    )
    return spec, "multimode_scan", None


def _cmd_formula(args) -> int:
    """One closed-form value. Each mode refuses the flags it does not read:
    the Poisson overlap (the default) reads --n, --lz reads --v-over-delta2
    and --cascade reads all three."""
    n = 0 if args.n is None else args.n
    if args.lz:
        _refuse_unread(args, ("n", "delta_over_omega"), "with --lz")
        if args.v_over_delta2 is None:
            raise InvalidParameterError("--lz needs --v-over-delta2")
        print(f"{lz_probability(1.0, args.v_over_delta2):.6f}")
    elif args.cascade:
        if args.v_over_delta2 is None:
            raise InvalidParameterError("--cascade needs --v-over-delta2")
        delta = 1.0 if args.delta_over_omega is None else args.delta_over_omega
        rate = args.v_over_delta2 * (delta * delta)
        recs = cascade_probabilities(delta, rate, args.g_over_omega, 1.0)
        up = {r.label.photons: r.probability for r in recs if r.label.qubit == "up"}
        if n not in up:
            raise InvalidParameterError(f"--n {n} is not a cascade level (0..{max(up)})")
        print(f"{up[n]:.6f}")
    else:
        _refuse_unread(args, ("v_over_delta2", "delta_over_omega"), "without --lz or --cascade")
        print(f"{poisson_overlap(n, args.g_over_omega, 1.0):.6f}")
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


def _cmd_presets(args):
    if args.name is None:
        given = [flag for flag, on in (("--audit", args.audit), ("--emit-svg", args.emit_svg),
                                       ("--allow-long", args.allow_long)) if on]
        if given:
            raise _UsageError(f"{'/'.join(given)} needs a preset name")
        for name, preset in PRESETS.items():
            tag = " [long-running]" if preset.long_running else ""
            print(f"{name:16s} {preset.description}{tag}")
        return 0
    if args.name not in PRESETS:
        raise InvalidParameterError(f"unknown preset {args.name!r}")
    preset = PRESETS[args.name]
    if preset.long_running and not args.allow_long:
        raise _UsageError(f"preset {args.name!r} runs for hours; pass --allow-long to confirm")
    return preset.build(), args.name, preset.svg_labels


# A command returns its exit code, or a table (spec, name, SVG labels) to run.
_COMMANDS = {
    "quench": _cmd_quench,
    "lz": _cmd_lz,
    "multimode": _cmd_multimode,
    "formula": _cmd_formula,
    "spectrum": _cmd_spectrum,
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
        outcome = _COMMANDS[args.command](args)
        return outcome if isinstance(outcome, int) else _run_table(args, *outcome)
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
