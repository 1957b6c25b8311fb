"""Sweep-data generation for every figure, plus CSV/SVG emission.

``figure_params`` is the one place that knows a figure's inputs, their
defaults and their valid ranges; ``figure_rows`` runs on what it returns.

Each generator returns a list of (panel_suffix, header, rows, skipped); the
CSV schema (header names and row order) is part of the package's external
contract and covered by golden tests.  ``skipped`` counts the sweep points
left out of the panel as infeasible, and is None for the figures that do not
search (fig3, fig4, fig11).  The searched figures run one sweep worker,
`_point`, over their (pi, loss) grid, fanned out over a process pool; rows
are assembled in axis order regardless of completion order, so output bytes
do not depend on scheduling.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

from . import analytic, optimize
from .analytic import (RECORD_SQUEEZING_DB, _check_params, db_from_lambda,
                       eps_no_nla, lambda_from_db, purity_no_nla,
                       purity_tradeoff, r_from_squeeze_db)

__all__ = ["FIGURES", "figure_rows", "figure_params", "format_number",
           "write_csv", "write_svg", "DEFAULT_PIS", "DEFAULT_LAMBDA_DB",
           "FIG4_EPS_TARGETS", "MAX_SWEEP_POINTS"]

DEFAULT_PIS = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_LAMBDA_DB = (0.5, 40.0, 0.5)          # min, max, step
FIG3_LAMBDAS = tuple(i / 100.0 for i in range(100))
FIG3_SQUEEZE_DB = (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, RECORD_SQUEEZING_DB)
FIG4_EPS_TARGETS = tuple(round(1.0 - 0.11 * k, 2) for k in range(10))
FIG10_PIS = (1e-1, 1e-4)
# (loss, pi) points in one sweep; the default grids have 320.  A point costs
# about 0.4 ms at one stage and 7 ms at two (fig10 runs four searches per
# point, 13 ms) on one core of a Xeon server, so the cap bounds a sweep at
# about 70 s of fig8 work, or 2 min of fig10, before the worker pool divides it
MAX_SWEEP_POINTS = 10_000

_SWEEP = {"lambda_db": DEFAULT_LAMBDA_DB, "pi": DEFAULT_PIS}
# the inputs that shape each figure's rows, with their defaults; fig3 and
# fig4 run on fixed grids
_DEFAULTS = {
    "fig3": {},
    "fig4": {},
    "fig6": _SWEEP,
    "fig7": {**_SWEEP, "eps_target": 0.85},
    "fig8": _SWEEP,
    "fig9": {**_SWEEP, "eps_target": 0.6},
    "fig10": {**_SWEEP, "pi": FIG10_PIS, "eps_target": 0.85},
    "fig11": {"max_stages": 20},
}
FIGURES = tuple(_DEFAULTS)


def _db_count(spec: tuple[float, float, float]) -> int:
    """Points on the loss axis (MIN, MAX, STEP) in dB, after checking that
    every loss on it is a valid `lambda_from_db` input and the count is in
    bounds."""
    lo, hi, step = spec
    if not all(math.isfinite(x) for x in spec) or step <= 0 or hi < lo:
        raise ValueError(f"bad loss-dB range {spec}")
    for db in (lo, hi):  # lambda_from_db is monotone: the ends bound the axis
        lambda_from_db(db)
    span = (hi - lo) / step + 1e-9
    if span >= MAX_SWEEP_POINTS:
        raise ValueError(f"loss-dB range {spec} has more than "
                         f"{MAX_SWEEP_POINTS} points")
    return int(math.floor(span)) + 1


def _db_range(spec: tuple[float, float, float]) -> list[float]:
    lo, _, step = spec
    return [lo + i * step for i in range(_db_count(spec))]


def _pmap(fn, items: Sequence, workers: int) -> list:
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # imported here: it pulls in multiprocessing, which a single-worker run
    # (and every command that does not sweep) never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=1))


def _point(args):
    """One sweep point: (lam_db, lam, pi, search result), or None where the
    point is infeasible.  Module-level, so it pickles for the worker pool."""
    search, lam_db, pi, kwargs = args
    lam = lambda_from_db(lam_db)
    try:
        res = search(lam=lam, pi=pi, **kwargs)
    except analytic.InfeasibleParameterError:
        return None
    return (lam_db, lam, pi, res)


def _sweep(search, db_spec, pis, workers: int, **kwargs) -> list:
    """`_point` over the (pi, loss) grid in axis order."""
    dbs = _db_range(db_spec)
    return _pmap(_point, [(search, db, pi, kwargs) for pi in pis for db in dbs],
                 workers)


# ---------------------------------------------------------------------------
# figure generators


def _fig3(lambdas: Iterable[float]):
    head = ("lambda_db", "lambda", "squeeze_db", "r", "eps_b_given_a")
    head_b = ("lambda_db", "lambda", "squeeze_db", "r", "purity")
    rows_a, rows_b = [], []
    # the last squeezing, inf, gives the infinite-squeezing benchmark
    for sdb in FIG3_SQUEEZE_DB + (math.inf,):
        r = r_from_squeeze_db(sdb)
        for lam in lambdas:
            rows_a.append((db_from_lambda(lam), lam, sdb, r, eps_no_nla(r, lam)[0]))
            rows_b.append((db_from_lambda(lam), lam, sdb, r, purity_no_nla(r, lam)))
    return [("a", head, rows_a, None), ("b", head_b, rows_b, None)]


def _fig4(lambdas: Iterable[float]):
    head = ("lambda_db", "lambda", "eps_target", "purity")
    rows = []
    for eps in FIG4_EPS_TARGETS:
        for lam in lambdas:
            if lam * lam > eps:
                continue  # beyond the infinite-squeezing floor
            rows.append((db_from_lambda(lam), lam, eps, purity_tradeoff(eps, lam)))
    return [("", head, rows, None)]


def _fig_opt(db_spec, pis, n_stages: int, workers: int):
    got = _sweep(optimize.optimize_entanglement, db_spec, pis, workers,
                 n_stages=n_stages)
    head_a = ("lambda_db", "lambda", "pi", "eps_opt", "r_opt", "eta_opt")
    head_b = ("lambda_db", "lambda", "pi", "purity", "r_opt", "eta_opt")
    rows_a, rows_b = [], []
    for lam_db, lam, pi, res in filter(None, got):
        rows_a.append((lam_db, lam, pi, res.eps_b_given_a, res.r_opt, res.eta_opt))
        rows_b.append((lam_db, lam, pi, res.purity, res.r_opt, res.eta_opt))
    skipped = got.count(None)
    return [("a", head_a, rows_a, skipped), ("b", head_b, rows_b, skipped)]


def _fig_target(db_spec, pis, eps_target: float, n_stages: int, workers: int):
    got = _sweep(optimize.purity_for_target_entanglement, db_spec, pis,
                 workers, eps_target=eps_target, n_stages=n_stages)
    head = ("lambda_db", "lambda", "pi", "eps_target", "purity",
            "purity_no_nla", "r_opt", "eta_opt")
    rows = []
    for lam_db, lam, pi, res in filter(None, got):
        bench = purity_tradeoff(eps_target, lam) if lam * lam <= eps_target else 0.0
        rows.append((lam_db, lam, pi, eps_target, res.purity, bench,
                     res.r_opt, res.eta_opt))
    return [("", head, rows, got.count(None))]


def _by_stages(suffix: str, panels):
    """One panel from (n_stages, panel) pairs, n_stages inserted as column 3."""
    head = panels[0][1][1]
    rows = [row[:3] + (n,) + row[3:] for n, panel in panels for row in panel[2]]
    return (suffix, head[:3] + ("n_stages",) + head[3:], rows,
            sum(panel[3] for _, panel in panels))


def _fig10(db_spec, pis, eps_target: float, workers: int):
    opt = [(n, _fig_opt(db_spec, pis, n, workers)[0]) for n in (1, 2)]
    target = [(n, _fig_target(db_spec, pis, eps_target, n, workers)[0])
              for n in (1, 2)]
    return [_by_stages("a", opt), _by_stages("b", target)]


def _fig11(n_max: int):
    head = ("n_stages", "eps_best", "kappa_best")
    rows = [(n, e, k) for n, e, k in optimize.best_entanglement_vs_stages(n_max)]
    return [("", head, rows, None)]


def figure_params(name: str, *, lambda_db=None, pi=None,
                  eps_target: float | None = None,
                  max_stages: int | None = None) -> dict:
    """The inputs that shape one figure's rows, defaults resolved and checked.

    None selects the figure's default; fig3 and fig4 take no input, fig11
    only max_stages.  Raises ValueError for an unknown figure, an input the
    figure does not read, or a value out of range.
    """
    if name not in _DEFAULTS:
        raise ValueError(f"unknown figure {name!r}")
    given = {"lambda_db": lambda_db, "pi": pi, "eps_target": eps_target,
             "max_stages": max_stages}
    unread = [k for k, v in given.items() if v is not None and k not in _DEFAULTS[name]]
    if unread:
        raise ValueError(f"{name} does not read {', '.join(unread)}")
    p = {k: d if given[k] is None else given[k] for k, d in _DEFAULTS[name].items()}
    if "pi" in p:
        p["lambda_db"], p["pi"] = tuple(p["lambda_db"]), tuple(p["pi"])
        if not p["pi"]:
            raise ValueError("a sweep needs at least one success probability")
        for x in p["pi"]:
            _check_params(pi=x)
        if _db_count(p["lambda_db"]) * len(p["pi"]) > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep of {p['lambda_db']} x {len(p['pi'])} "
                             f"success probabilities exceeds "
                             f"{MAX_SWEEP_POINTS} points")
    _check_params(eps_target=p.get("eps_target", 1.0))
    optimize._check_floor_stages(p.get("max_stages", 1))
    return p


def figure_rows(name: str, params: dict | None = None,
                workers: int | None = None):
    """Rows for one figure from its ``figure_params`` (the figure's defaults
    when None); see the module docstring for the return shape."""
    p = figure_params(name) if params is None else params
    workers = os.cpu_count() or 1 if workers is None else workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if name == "fig3":
        return _fig3(FIG3_LAMBDAS)
    if name == "fig4":
        return _fig4(FIG3_LAMBDAS)
    if name == "fig10":
        return _fig10(p["lambda_db"], p["pi"], p["eps_target"], workers)
    if name == "fig11":
        return _fig11(p["max_stages"])
    if name not in _DEFAULTS:
        raise ValueError(f"unknown figure {name!r}")
    n_stages = 1 if name in ("fig6", "fig7") else 2
    if "eps_target" in p:
        return _fig_target(p["lambda_db"], p["pi"], p["eps_target"], n_stages,
                           workers)
    return _fig_opt(p["lambda_db"], p["pi"], n_stages, workers)


# ---------------------------------------------------------------------------
# serialization


def format_number(x) -> str:
    """12 significant digits, scientific below 1e-4; stable across platforms."""
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if x == 0.0:
        return "0"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if abs(x) < 1e-4:
        return f"{x:.11e}"
    return f"{x:.12g}"


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence],
              comments: Sequence[str] = ()) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_number(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# minimal SVG emission (convenience only; CSV is the authoritative output)

_PALETTE = ("#e08214", "#41ab5d", "#4292c6", "#d4b106", "#807dba", "#d6616b",
            "#636363", "#8c6d31")

# per-panel plotting layout: (x column, y column, group-by column)
_PLOT_SPEC = {
    "fig3a": ("lambda", "eps_b_given_a", "squeeze_db"),
    "fig3b": ("lambda", "purity", "squeeze_db"),
    "fig4": ("lambda", "purity", "eps_target"),
    "fig6a": ("lambda_db", "eps_opt", "pi"),
    "fig6b": ("lambda_db", "purity", "pi"),
    "fig7": ("lambda_db", "purity", "pi"),
    "fig8a": ("lambda_db", "eps_opt", "pi"),
    "fig8b": ("lambda_db", "purity", "pi"),
    "fig9": ("lambda_db", "purity", "pi"),
    "fig10a": ("lambda_db", "eps_opt", "pi"),
    "fig10b": ("lambda_db", "purity", "pi"),
    "fig11": ("n_stages", "eps_best", None),
}


def write_svg(path: str, title: str, header: Sequence[str],
              rows: Sequence[Sequence], panel: str) -> None:
    spec = _PLOT_SPEC.get(panel)
    if spec is None or not rows:
        return
    xcol, ycol, gcol = spec
    xi, yi = header.index(xcol), header.index(ycol)
    gi = header.index(gcol) if gcol else None
    groups: dict = {}
    for row in rows:
        key = row[gi] if gi is not None else ""
        x, y = float(row[xi]), float(row[yi])
        if math.isfinite(x) and math.isfinite(y):
            groups.setdefault(key, []).append((x, y))
    pts = [p for g in groups.values() for p in g]
    if not pts:
        return
    x0, x1 = min(p[0] for p in pts), max(p[0] for p in pts)
    y0, y1 = min(p[1] for p in pts), max(p[1] for p in pts)
    xs = (x1 - x0) or 1.0
    ys = (y1 - y0) or 1.0
    w, h, m = 640, 420, 56

    def sx(x):
        return m + (x - x0) / xs * (w - 2 * m)

    def sy(y):
        return h - m - (y - y0) / ys * (h - 2 * m)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
             f'viewBox="0 0 {w} {h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<text x="{w/2:.0f}" y="20" text-anchor="middle" '
             f'font-family="sans-serif" font-size="14">{title}</text>',
             f'<line x1="{m}" y1="{h-m}" x2="{w-m}" y2="{h-m}" stroke="black"/>',
             f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h-m}" stroke="black"/>',
             f'<text x="{w/2:.0f}" y="{h-14}" text-anchor="middle" '
             f'font-family="sans-serif" font-size="12">{xcol}</text>',
             f'<text x="16" y="{h/2:.0f}" text-anchor="middle" '
             f'font-family="sans-serif" font-size="12" '
             f'transform="rotate(-90 16 {h/2:.0f})">{ycol}</text>']
    for k, (key, pts_k) in enumerate(sorted(groups.items(), key=lambda t: str(t[0]))):
        color = _PALETTE[k % len(_PALETTE)]
        path_d = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts_k)
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{path_d}"/>')
        if key != "":
            parts.append(f'<text x="{w-m+4}" y="{m+14*k}" font-family="sans-serif" '
                         f'font-size="10" fill="{color}">{gcol}={key}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
