"""Regenerate the reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py [sweep-n1 sweep-n2 floor verify]

Run it from the repository root only when a change to the program is meant
to change its numbers; the benchmark's correctness gate compares every run
with these files.  sweep-n2 covers its whole input pool (160 two-stage
optimizations) and takes several minutes.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl

ROOT = os.path.dirname(wl.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from nla_distill import analytic, optimize, verify  # noqa: E402


def sweep_n1() -> dict:
    pool = []
    for db, pi in wl.n1_pool():
        lam = wl.lambda_from_db(db)
        opt = wl._attempt(lambda: optimize.optimize_entanglement(lam, pi, 1))
        tgt = wl._attempt(lambda: optimize.purity_for_target_entanglement(
            wl.N1_EPS_TARGET, lam, pi, 1))
        pool.append([db, pi, opt, tgt])
    return {"eps_target": wl.N1_EPS_TARGET, "pool": pool}


def sweep_n2() -> dict:
    ref = {"eps_target": wl.N2_EPS_TARGET, "fig8": {}, "fig9": {}}
    for lo in wl.N2_LOSS_STARTS:
        grid = {"lambda_db": [lo, lo + wl.N2_LOSS_STEP, wl.N2_LOSS_STEP],
                "pis": list(wl.N2_PIS_HIGH + wl.N2_PIS_LOW)}
        for db, pi in wl.n2_points(grid):
            lam = analytic.lambda_from_db(db)
            key = wl.n2_key(db, pi)
            ref["fig8"][key] = wl._attempt(
                lambda: optimize.optimize_entanglement(lam, pi, 2))
            ref["fig9"][key] = wl._attempt(
                lambda: optimize.purity_for_target_entanglement(
                    wl.N2_EPS_TARGET, lam, pi, 2))
            print(key, ref["fig8"][key], ref["fig9"][key], flush=True)
    return ref


def floor() -> dict:
    return {"rows": [list(r) for r in
                     optimize.best_entanglement_vs_stages(wl.FLOOR_REF_N_MAX)]}


def verify_checks() -> dict:
    return {"checks": [[r.name, r.error, r.tolerance]
                       for r in verify.run_all()]}


BUILDERS = {"sweep-n1": sweep_n1, "sweep-n2": sweep_n2, "floor": floor,
            "verify": verify_checks}


def main(names: list[str]) -> None:
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    for name in names or list(BUILDERS):
        data = BUILDERS[name]()
        if '"error":' in json.dumps(data):
            raise SystemExit(f"{name}: the program raised errors; no reference written")
        path = os.path.join(wl.REFERENCE_DIR, name.replace("-", "_") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
