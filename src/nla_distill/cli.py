"""Command-line front end: figure sweeps as CSV (optional SVG), single-point
evaluation, and the verification suite.

Exit codes: 0 success, 1 infeasible parameters / validation failure /
failed verification, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, figures, optimize, verify
from .analytic import InfeasibleParameterError, lambda_from_db
from .figures import format_number

__all__ = ["main"]


def _panel_path(base: str, suffix: str) -> str:
    if not suffix:
        return base
    root, ext = os.path.splitext(base)
    return f"{root}{suffix}{ext or '.csv'}"


def _echo(key: str, value) -> str:
    if key == "lambda_db":
        return ":".join(str(x) for x in value)
    if isinstance(value, tuple):
        return ",".join(format_number(v) for v in value)
    return format_number(value)


def _run_figure(args: argparse.Namespace) -> int:
    name = args.command
    # the parser registered one flag per input the figure reads, None if unset
    params = figures.figure_params(
        name, **{k: getattr(args, k) for k in figures.figure_params(name)})
    panels = figures.figure_rows(name, params, getattr(args, "workers", None))
    comments = [f"nla-distill {__version__}",
                " ".join([f"command={name}"]
                         + [f"{k}={_echo(k, v)}" for k, v in params.items()])]
    for suffix, header, rows, skipped in panels:
        path = _panel_path(args.output, suffix)
        extra = [] if skipped is None else [f"infeasible_skipped={skipped}"]
        figures.write_csv(path, header, rows, comments + extra)
        if args.svg:
            figures.write_svg(os.path.splitext(path)[0] + ".svg",
                              f"{name}{suffix}", header, rows, name + suffix)
    return 0


def _run_point(args: argparse.Namespace) -> int:
    lam = lambda_from_db(args.lambda_db)
    res = optimize.optimize_entanglement(lam, args.pi, args.stages)
    fields = (("lambda_db", args.lambda_db), ("lambda", lam),
              ("pi", args.pi), ("n_stages", res.n_stages),
              ("eps_b_given_a", res.eps_b_given_a),
              ("eps_a_given_b", res.eps_a_given_b), ("purity", res.purity),
              ("success_prob", res.success_prob), ("r_opt", res.r_opt),
              ("eta_opt", res.eta_opt))
    print(" ".join(f"{k}={format_number(v)}" for k, v in fields))
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    results = verify.run_all()
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok &= r.passed
        print(f"{r.name:<{width}}  {status}  measured={format_number(r.error)} "
              f"tolerance={format_number(r.tolerance)}")
    print(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nla-distill",
        description="Heralded-amplifier EPR distillation: figure sweeps, "
                    "point evaluation, verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in figures.FIGURES:
        p = sub.add_parser(name, help=f"write {name} sweep data as CSV")
        p.add_argument("-o", "--output", required=True, help="CSV output path")
        p.add_argument("--svg", action="store_true", help="also write SVG charts")
        # a figure takes a flag only if its value shapes the rows
        shaped = figures.figure_params(name)
        if "lambda_db" in shaped:
            p.add_argument("--lambda-db", type=float, nargs=3,
                           metavar=("MIN", "MAX", "STEP"), help="loss axis in dB")
            p.add_argument("--pi", type=float, nargs="+",
                           help="success probabilities")
            p.add_argument("--workers", type=int,
                           help="parallel sweep workers (default: CPU count)")
        if "eps_target" in shaped:
            p.add_argument("--eps-target", type=float, help="target entanglement")
        if "max_stages" in shaped:
            p.add_argument("--max-stages", type=int, help=(
                f"largest stage count, 1 to {optimize.MAX_FLOOR_STAGES}"))

    p = sub.add_parser("point", help="evaluate one operating point")
    p.add_argument("--lambda-db", type=float, required=True, help="loss in dB")
    p.add_argument("--pi", type=float, required=True, help="success probability")
    p.add_argument("--stages", type=int, default=1,
                   help=f"stage count, 1 to {optimize.MAX_SEARCH_STAGES}")

    sub.add_parser("verify", help="run the oracle suite")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run = {"point": _run_point, "verify": _run_verify}.get(args.command,
                                                           _run_figure)
    try:
        return run(args)
    except (InfeasibleParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
