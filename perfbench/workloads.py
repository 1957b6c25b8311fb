"""The four benchmark workloads: seeded inputs, one timed pass, and the
correctness gate that compares a pass's outputs with the stored references.

Inputs come from fixed pools whose reference outputs live in
``perfbench/reference/`` (regenerate them with ``make_reference.py``).  A seed
selects and orders pool entries, so every seed has exact references and the
amount of work changes little from seed to seed.

This module imports only the standard library at import time: the worker
times ``import nla_distill`` (numpy and scipy included) after importing it.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

WORKLOADS = ("sweep-n1", "sweep-n2", "floor", "verify")

# sweep-n1: one point per cell of a 30 x 20 grid over loss dB and log10(pi);
# the pool holds two candidates per cell and a seed picks one of each.
N1_DB_RANGE = (0.5, 40.0)
N1_LOG_PI_RANGE = (-4.0, -1.0)
N1_CELLS = (30, 20)
N1_CANDIDATES = 2
N1_EPS_TARGET = 0.85
N1_POOL_SEED = 20141102

# sweep-n2: fig8 + fig9 on a two-point loss grid (one low-loss, one high-loss
# point) and two pi values (one large, one small); fig9 uses its default
# target entanglement.
N2_LOSS_STARTS = tuple(0.5 + k for k in range(10))
N2_LOSS_STEP = 20.0
N2_PIS_HIGH = (1e-1, 1e-2)
N2_PIS_LOW = (1e-3, 1e-4)
N2_EPS_TARGET = 0.6

FLOOR_N_MAX = 12
FLOOR_REF_N_MAX = 20
# the single- and dual-stage floors pinned by the verify suite:
# (n, eps, eps tolerance, kappa, kappa tolerance)
FLOOR_PINS = ((1, 0.81, 5e-3, 0.36, 1e-2), (2, 0.57, 5e-3, 0.59, 1e-2))

# smoke-test sizes
TINY = {"sweep-n1": 12, "floor": 2}

EPS_TOL = 1e-9        # eps and purity, absolute
PARAM_TOL = 1e-6      # r_opt and eta_opt, absolute
INPUT_TOL = 1e-12     # echoed inputs in the CSVs


def lambda_from_db(db: float) -> float:
    """Loss reflectivity for an attenuation in dB (lam = 1 - 10^(-dB/10))."""
    return 1.0 - 10.0 ** (-db / 10.0)


def load_reference(workload: str) -> dict:
    path = os.path.join(REFERENCE_DIR, workload.replace("-", "_") + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs


def n1_pool() -> list[tuple[float, float]]:
    """The fixed sweep-n1 pool as (loss dB, pi), cell-major."""
    rng = random.Random(N1_POOL_SEED)
    (db_lo, db_hi), (lp_lo, lp_hi) = N1_DB_RANGE, N1_LOG_PI_RANGE
    n_db, n_pi = N1_CELLS
    pool = []
    for i in range(n_db):
        for j in range(n_pi):
            for _ in range(N1_CANDIDATES):
                db = db_lo + (i + rng.random()) * (db_hi - db_lo) / n_db
                lp = lp_lo + (j + rng.random()) * (lp_hi - lp_lo) / n_pi
                pool.append((db, 10.0 ** lp))
    return pool


def n2_grid(seed: int, tiny: bool = False) -> dict:
    """The loss grid and pi values handed to the CLI for one seed."""
    rng = random.Random(seed)
    lo = rng.choice(N2_LOSS_STARTS)
    pis = [rng.choice(N2_PIS_HIGH), rng.choice(N2_PIS_LOW)]
    hi = lo + N2_LOSS_STEP
    if tiny:
        hi, pis = lo, pis[:1]
    return {"lambda_db": [lo, hi, N2_LOSS_STEP], "pis": pis}


def n2_points(grid: dict) -> list[tuple[float, float]]:
    lo, hi, step = grid["lambda_db"]
    dbs = [lo + i * step for i in range(int(math.floor((hi - lo) / step + 1e-9)) + 1)]
    return [(db, pi) for pi in grid["pis"] for db in dbs]


def n2_key(db: float, pi: float) -> str:
    return f"{db:.6g}|{pi:.6g}"


def make_spec(workload: str, seed: int, tiny: bool = False) -> dict:
    """Everything a pass needs; the same seed always gives the same spec."""
    if workload == "sweep-n1":
        rng = random.Random(seed)
        n_cells = N1_CELLS[0] * N1_CELLS[1]
        picks = [c * N1_CANDIDATES + rng.randrange(N1_CANDIDATES)
                 for c in range(n_cells)]
        rng.shuffle(picks)
        if tiny:
            picks = picks[:TINY["sweep-n1"]]
        pool = n1_pool()
        points = [[lambda_from_db(pool[k][0]), pool[k][1]] for k in picks]
        return {"workload": workload, "seed": seed, "pool_index": picks,
                "points": points}
    if workload == "sweep-n2":
        return {"workload": workload, "seed": seed, **n2_grid(seed, tiny)}
    if workload == "floor":
        return {"workload": workload, "seed": seed,
                "n_max": TINY["floor"] if tiny else FLOOR_N_MAX}
    if workload == "verify":
        return {"workload": workload, "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one pass (runs in the worker process, after nla_distill is imported)


def _guarded(fn):
    """fn()'s value, or an error record: a call that raises is a failed
    output for the correctness gate, not a crash of the pass."""
    try:
        return fn()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _attempt(fn) -> list | str | dict:
    """[eps, purity, r_opt, eta_opt], "infeasible", or an error record."""
    from nla_distill.analytic import InfeasibleParameterError
    try:
        res = fn()
    except InfeasibleParameterError:
        return "infeasible"
    except Exception as exc:  # any other exception is a failed point
        return {"error": f"{type(exc).__name__}: {exc}"}
    return [res.eps_b_given_a, res.purity, res.r_opt, res.eta_opt]


def _pass_sweep_n1(spec: dict, out_dir: str) -> dict:
    from nla_distill import optimize
    outputs, point_s = [], []
    start = time.perf_counter()
    for lam, pi in spec["points"]:
        t0 = time.perf_counter()
        opt = _attempt(lambda: optimize.optimize_entanglement(lam, pi, 1))
        tgt = _attempt(lambda: optimize.purity_for_target_entanglement(
            N1_EPS_TARGET, lam, pi, 1))
        point_s.append(time.perf_counter() - t0)
        outputs.append([opt, tgt])
    wall = time.perf_counter() - start
    return {"wall_s": wall, "points": len(outputs), "point_s": point_s,
            "outputs": outputs}


def _read_csv(path: str) -> list[list[float]]:
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return [[float(x) for x in r] for r in rows[1:]]


def _pass_sweep_n2(spec: dict, out_dir: str) -> dict:
    from nla_distill import cli
    lo, hi, step = (str(x) for x in spec["lambda_db"])
    pis = [str(p) for p in spec["pis"]]
    paths = {fig: os.path.join(out_dir, f"{fig}.csv") for fig in ("fig8", "fig9")}
    for path in (os.path.join(out_dir, n) for n in ("fig8a.csv", "fig8b.csv", "fig9.csv")):
        if os.path.exists(path):
            os.remove(path)
    start = time.perf_counter()
    rcs = [_guarded(lambda: cli.main([fig, "-o", paths[fig], "--lambda-db", lo, hi,
                                      step, "--pi", *pis, "--workers", "1"]))
           for fig in ("fig8", "fig9")]
    wall = time.perf_counter() - start
    outputs = {"rc": rcs}
    for name in ("fig8a", "fig8b", "fig9"):
        path = os.path.join(out_dir, name + ".csv")
        outputs[name] = _read_csv(path) if os.path.exists(path) else None
    return {"wall_s": wall, "points": 2 * len(n2_points(spec)),
            "outputs": outputs}


def _pass_floor(spec: dict, out_dir: str) -> dict:
    from nla_distill import optimize
    start = time.perf_counter()
    rows = _guarded(lambda: [list(r) for r in
                             optimize.best_entanglement_vs_stages(spec["n_max"])])
    wall = time.perf_counter() - start
    return {"wall_s": wall, "points": spec["n_max"], "outputs": rows}


def _pass_verify(spec: dict, out_dir: str) -> dict:
    from nla_distill import verify
    start = time.perf_counter()
    results = _guarded(verify.run_all)
    wall = time.perf_counter() - start
    if isinstance(results, dict):
        return {"wall_s": wall, "points": len(load_reference("verify")["checks"]),
                "outputs": results}
    return {"wall_s": wall, "points": len(results),
            "outputs": [[r.name, float(r.error), float(r.tolerance), bool(r.passed)]
                        for r in results]}


PASSES = {"sweep-n1": _pass_sweep_n1, "sweep-n2": _pass_sweep_n2,
          "floor": _pass_floor, "verify": _pass_verify}


# ---------------------------------------------------------------------------
# correctness gate: each function returns (attempted, list of mismatches);
# the harness counts at most `attempted` failures per pass


def _close(got, want, tol) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol


def _compare_point(label: str, got, want) -> list[str]:
    if isinstance(got, dict):
        return [f"{label}: raised {got['error']}"]
    if want == "infeasible" or got == "infeasible":
        return [] if got == want else [f"{label}: verdict {got!r}, reference {want!r}"]
    tols = (EPS_TOL, EPS_TOL, PARAM_TOL, PARAM_TOL)
    fields = ("eps", "purity", "r_opt", "eta_opt")
    return [f"{label}: {f} {g!r}, reference {w!r}"
            for f, g, w, t in zip(fields, got, want, tols) if not _close(g, w, t)]


def check_sweep_n1(spec: dict, outputs: list, ref: dict) -> tuple[int, list[str]]:
    bad = []
    if len(outputs) != len(spec["pool_index"]):
        bad.append(f"{len(outputs)} results for {len(spec['pool_index'])} points")
    for k, (opt, tgt) in zip(spec["pool_index"], outputs):
        want_opt, want_tgt = ref["pool"][k][2:]
        errs = (_compare_point(f"point {k} optimize", opt, want_opt)
                + _compare_point(f"point {k} target", tgt, want_tgt))
        if errs:
            bad.append("; ".join(errs))
    return len(spec["pool_index"]), bad


def check_sweep_n2(spec: dict, outputs: dict, ref: dict) -> tuple[int, list[str]]:
    bad = [f"cli.main returned {rc}" for rc in outputs["rc"] if rc != 0]
    # CSV layouts: fig8a (db, lam, pi, eps, r, eta), fig8b (db, lam, pi,
    # purity, r, eta), fig9 (db, lam, pi, eps_target, purity, purity_no_nla,
    # r, eta)
    rows = {name: {n2_key(r[0], r[2]): r for r in (outputs[name] or [])}
            for name in ("fig8a", "fig8b", "fig9")}
    points = n2_points(spec)
    for db, pi in points:
        key = n2_key(db, pi)
        a, b, c = (rows[n].pop(key, None) for n in ("fig8a", "fig8b", "fig9"))
        # fig8 and fig9 each count as one attempted point per (loss, pi)
        for fig, want, got, echo in (
                ("fig8", ref["fig8"][key], a and b and [a[3], b[3], a[4], a[5]],
                 a and [(a[1], lambda_from_db(db)), (b[4], a[4]), (b[5], a[5])]),
                ("fig9", ref["fig9"][key], c and [c[3], c[4], c[6], c[7]],
                 c and [(c[1], lambda_from_db(db))])):
            if want == "infeasible":
                errs = [] if got is None else ["row written for an infeasible point"]
            elif got is None:
                errs = ["row missing"]
            else:
                errs = _compare_point(fig, got, want)
                errs += [f"echoed {x!r}, expected {y!r}" for x, y in echo
                         if not _close(x, y, INPUT_TOL)]
            if errs:
                bad.append(f"{fig} at loss {db} dB, pi {pi}: " + "; ".join(errs))
    extra = sum(len(v) for v in rows.values())
    if extra:
        bad.append(f"{extra} CSV rows for points outside the grid")
    return 2 * len(points), bad


def check_floor(spec: dict, outputs: list, ref: dict) -> tuple[int, list[str]]:
    n_max = spec["n_max"]
    if isinstance(outputs, dict):
        return n_max, [f"raised {outputs['error']}"] * n_max
    bad = []
    if [int(r[0]) for r in outputs] != list(range(1, n_max + 1)):
        bad.append(f"stage counts {[r[0] for r in outputs]}")
    for (n, eps, kappa), (rn, reps, rkappa) in zip(outputs, ref["rows"]):
        if not (_close(eps, reps, EPS_TOL) and _close(kappa, rkappa, PARAM_TOL)):
            bad.append(f"n={n}: eps {eps!r} kappa {kappa!r}, "
                       f"reference {reps!r} {rkappa!r}")
    for n, eps0, etol, k0, ktol in FLOOR_PINS:
        if n > len(outputs):
            continue
        _, eps, kappa = outputs[n - 1]
        if not (_close(eps, eps0, etol) and _close(kappa, k0, ktol)):
            bad.append(f"n={n}: floor {eps!r} at kappa {kappa!r} misses the "
                       f"pin {eps0} at {k0}")
    return n_max, bad


def check_verify(spec: dict, outputs: list, ref: dict) -> tuple[int, list[str]]:
    if isinstance(outputs, dict):
        return len(ref["checks"]), [f"raised {outputs['error']}"] * len(ref["checks"])
    bad = [f"check {name}: error {err!r} above tolerance {tol!r}"
           for name, err, tol, passed in outputs if not passed]
    names, want = [o[0] for o in outputs], [c[0] for c in ref["checks"]]
    if names != want:
        bad.append(f"checks {names}, reference {want}")
    return max(len(outputs), len(want)), bad


CHECKS = {"sweep-n1": check_sweep_n1, "sweep-n2": check_sweep_n2,
          "floor": check_floor, "verify": check_verify}
