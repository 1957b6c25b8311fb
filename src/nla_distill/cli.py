"""Command-line front end: figure sweeps as CSV (optional SVG), single-point
evaluation, and the verification suite.

Exit codes: 0 success, 1 infeasible parameters / validation failure /
failed verification, 2 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from . import __version__, figures, optimize, verify
from .analytic import InfeasibleParameterError, lambda_from_db
from .figures import DEFAULT_LAMBDA_DB, DEFAULT_PIS, format_number

__all__ = ["RunConfig", "run", "main"]

_FIGURES = ("fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11")


@dataclass
class RunConfig:
    """Parsed invocation; all computations downstream are deterministic."""

    command: str
    output_path: str | None = None
    cutoff: int = 25
    tolerance: float = verify.TAIL_BUDGET
    lambda_db: tuple[float, float, float] = DEFAULT_LAMBDA_DB
    pis: tuple[float, ...] = DEFAULT_PIS
    eps_target: float | None = None
    stages: int = 1
    max_stages: int = 20
    point_lambda_db: float | None = None
    point_pi: float | None = None
    emit_svg: bool = False
    workers: int = field(default_factory=lambda: os.cpu_count() or 1)

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        lo, hi, step = self.lambda_db
        if step <= 0 or hi < lo:
            raise ValueError(f"bad loss range {self.lambda_db}")
        if not self.pis or any(p <= 0 or p > 1 for p in self.pis):
            raise ValueError(f"success probabilities must be in (0, 1]: {self.pis}")


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


def _comments(config: RunConfig) -> list[str]:
    """Tool version, then the command and the parameters that shaped it."""
    params = figures.figure_params(
        config.command, lambda_db=config.lambda_db, pis=config.pis,
        eps_target=config.eps_target, n_max=config.max_stages)
    echo = " ".join([f"command={config.command}"]
                    + [f"{k}={_echo(k, v)}" for k, v in params.items()])
    return [f"nla-distill {__version__}", echo]


def _run_figure(config: RunConfig) -> int:
    if not config.output_path:
        raise ValueError("figure commands need --output")
    panels = figures.figure_rows(
        config.command,
        lambda_db=config.lambda_db,
        pis=config.pis,
        eps_target=config.eps_target,
        n_max=config.max_stages,
        workers=config.workers,
    )
    comments = _comments(config)
    for suffix, header, rows, skipped in panels:
        path = _panel_path(config.output_path, suffix)
        extra = [] if skipped is None else [f"infeasible_skipped={skipped}"]
        figures.write_csv(path, header, rows, comments + extra)
        if config.emit_svg:
            figures.write_svg(os.path.splitext(path)[0] + ".svg",
                              f"{config.command}{suffix}", header, rows,
                              config.command + suffix)
    return 0


def _run_point(config: RunConfig) -> int:
    if config.point_lambda_db is None or config.point_pi is None:
        raise ValueError("point needs --lambda-db and --pi")
    lam = lambda_from_db(config.point_lambda_db)
    res = optimize.optimize_entanglement(lam, config.point_pi, config.stages)
    fields = (("lambda_db", config.point_lambda_db), ("lambda", lam),
              ("pi", config.point_pi), ("n_stages", res.n_stages),
              ("eps_b_given_a", res.eps_b_given_a),
              ("eps_a_given_b", res.eps_a_given_b), ("purity", res.purity),
              ("success_prob", res.success_prob), ("r_opt", res.r_opt),
              ("eta_opt", res.eta_opt))
    print(" ".join(f"{k}={format_number(v)}" for k, v in fields))
    return 0


def _run_verify(config: RunConfig) -> int:
    results = verify.run_all(cutoff=config.cutoff, tail_budget=config.tolerance)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok &= r.passed
        print(f"{r.name:<{width}}  {status}  measured={format_number(r.error)} "
              f"tolerance={format_number(r.tolerance)}")
    print(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def run(config: RunConfig) -> int:
    """Dispatch one command; returns the process exit status."""
    if config.command in _FIGURES:
        return _run_figure(config)
    if config.command == "point":
        return _run_point(config)
    if config.command == "verify":
        return _run_verify(config)
    raise ValueError(f"unknown command {config.command!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nla-distill",
        description="Heralded-amplifier EPR distillation: figure sweeps, "
                    "point evaluation, verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FIGURES:
        p = sub.add_parser(name, help=f"write {name} sweep data as CSV")
        p.add_argument("-o", "--output", required=True, help="CSV output path")
        p.add_argument("--svg", action="store_true", help="also write SVG charts")
        # a figure takes a flag only if its value shapes the rows
        shaped = figures.figure_params(name)
        if "lambda_db" in shaped:
            p.add_argument("--lambda-db", type=float, nargs=3,
                           metavar=("MIN", "MAX", "STEP"),
                           default=list(DEFAULT_LAMBDA_DB), help="loss axis in dB")
            p.add_argument("--pi", type=float, nargs="+",
                           default=list(DEFAULT_PIS), help="success probabilities")
            p.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                           help="parallel sweep workers")
        if "eps_target" in shaped:
            p.add_argument("--eps-target", type=float, default=None,
                           help="target entanglement")
        if "max_stages" in shaped:
            p.add_argument("--max-stages", type=int, default=20,
                           help="largest stage count")

    p = sub.add_parser("point", help="evaluate one operating point")
    p.add_argument("--lambda-db", type=float, required=True, help="loss in dB")
    p.add_argument("--pi", type=float, required=True, help="success probability")
    p.add_argument("--stages", type=int, default=1,
                   help=f"stage count, 1 to {optimize.MAX_SEARCH_STAGES}")

    p = sub.add_parser("verify", help="run the oracle suite")
    p.add_argument("--cutoff", type=int, default=25,
                   help="Fock cutoff for the lossy-channel checks")
    p.add_argument("--tolerance", type=float, default=verify.TAIL_BUDGET,
                   help="truncation tail-mass budget")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    kw = dict(command=args.command)
    if args.command in _FIGURES:
        given = vars(args)
        kw.update(output_path=args.output, emit_svg=args.svg)
        if "lambda_db" in given:
            kw.update(lambda_db=tuple(args.lambda_db), pis=tuple(args.pi),
                      workers=args.workers)
        if "eps_target" in given:
            kw.update(eps_target=args.eps_target)
        if "max_stages" in given:
            kw.update(max_stages=args.max_stages)
    elif args.command == "point":
        kw.update(point_lambda_db=args.lambda_db, point_pi=args.pi,
                  stages=args.stages)
    else:
        kw.update(cutoff=args.cutoff, tolerance=args.tolerance)
    return RunConfig(**kw)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        return run(config)
    except (InfeasibleParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
