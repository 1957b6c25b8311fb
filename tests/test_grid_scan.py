"""The array grid scans against the scalar evaluators they stand in for.

The searches evaluate their squeezing grid (`optimize.R_GRID`), and the
floor its kappa grids, in one array pass, then refine on the scalar
objective.  These tests hold the array pass to the scalar objective point by
point, and hold the searches to the results of the scalar scan they replaced.
"""

import math

import numpy as np
import pytest

from nla_distill import optimize
from nla_distill.analytic import (InfeasibleParameterError, eps_ladder,
                                  lambda_from_db)

# 40 points over the figures' loss and success-rate range, the two-stage
# case with a second feasible pocket, and a success rate no squeezing reaches
POINTS = ([(lambda_from_db(db), pi) for db in (0.5, 3, 6, 10, 15, 20, 30, 40)
           for pi in (0.3, 0.1, 1e-2, 1e-3, 1e-4)]
          + [(0.3, 1e-2), (0.5, 1.0)])
# numpy's vectorized tanh/cosh differ from math's by an ulp at some points;
# the one-stage closed form cancels terms of size 4/pi as r -> 0 and the
# N = 4 eta polynomial is ill-conditioned, so the two agree to these bounds
# (measured worst: 3.8e-11 in eps, 1.2e-12 in eta), not to the ulp
EPS_RTOL, ETA_RTOL = 1e-10, 1e-11


def scalar_grid(lam, pi, n):
    objective = optimize._make_objective(lam, pi, n)
    return np.array([objective(r) for r in optimize.R_GRID]).T


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_array_grid_matches_the_scalar_objective(n):
    for lam, pi in POINTS:
        eps, eta = optimize._grid_values(lam, pi, n)
        s_eps, s_eta = scalar_grid(lam, pi, n)
        feasible = ~np.isnan(s_eta)
        assert np.array_equal(~np.isnan(eta), feasible), (lam, pi)
        assert np.array_equal(eps == np.inf, ~feasible), (lam, pi)
        np.testing.assert_allclose(eps[feasible], s_eps[feasible],
                                   rtol=EPS_RTOL, atol=0)
        np.testing.assert_allclose(eta[feasible], s_eta[feasible],
                                   rtol=ETA_RTOL, atol=0)
        if not feasible.any():
            for e, h in ((eps, eta), (s_eps, s_eta)):
                with pytest.raises(InfeasibleParameterError):
                    optimize._feasible_grid(e, h, lam, pi, n)
            continue
        _, e, runs = optimize._feasible_grid(eps, eta, lam, pi, n)
        _, s_e, s_runs = optimize._feasible_grid(s_eps, s_eta, lam, pi, n)
        assert np.array_equal(runs, s_runs), (lam, pi)
        assert np.argmin(e) == np.argmin(s_e), (lam, pi)


def test_array_grid_takes_the_best_of_several_roots(monkeypatch):
    # no point above has two feasible roots at one squeezing, so hand both
    # evaluators the same extra candidate
    lam, pi, n, extra = 0.5, 1e-2, 2, 0.97
    grid_etas, eta_candidates = optimize._grid_etas, optimize.eta_candidates
    monkeypatch.setattr(optimize, "_grid_etas", lambda *a: np.sort(
        np.column_stack([grid_etas(*a), np.full(optimize.R_GRID_POINTS, extra)]),
        axis=1))
    monkeypatch.setattr(optimize, "eta_candidates",
                        lambda *a: sorted(eta_candidates(*a) + [extra]))
    eps, eta = optimize._grid_values(lam, pi, n)
    s_eps, s_eta = scalar_grid(lam, pi, n)
    np.testing.assert_allclose(eps, s_eps, rtol=EPS_RTOL, atol=0)
    np.testing.assert_allclose(eta, s_eta, rtol=ETA_RTOL, atol=0)
    won = eta == extra
    assert won.any() and not won.all()


def test_point_list_covers_two_pockets_and_an_infeasible_grid():
    _, _, runs = optimize._feasible_grid(
        *optimize._grid_values(0.3, 1e-2, 2), 0.3, 1e-2, 2)
    assert runs[-1] == 1
    eps, eta = optimize._grid_values(0.5, 1.0, 1)
    assert np.isnan(eta).all() and (eps == np.inf).all()


@pytest.mark.parametrize("n", [1, 2, 12, 60, 150])
def test_floor_grid_matches_the_scalar_ladder(n):
    # with kappa up to 64 the ladder weights pass 2^256 (and are rescaled)
    # from N = 60 on
    top = max(optimize._KAPPA_GRIDS[-1])
    log2_w = sum(2.0 * math.log2((n - j + 1) * top / n) for j in range(1, n + 1))
    assert (log2_w > 256.0) == (n >= 60)
    for grid in optimize._KAPPA_GRIDS:
        vals = eps_ladder(n, grid, 0.0)[0]
        scalar = np.array([eps_ladder(n, float(k), 0.0)[0] for k in grid])
        assert np.isfinite(vals).all()
        np.testing.assert_allclose(vals, scalar, rtol=1e-12, atol=0)
        assert np.argmin(vals) == np.argmin(scalar)


# ---------------------------------------------------------------------------
# the searches against the scalar scan


def scalar_feasible_grid(objective, lam, pi, n_stages):
    """The scalar grid scan the array pass replaced, verbatim."""
    grid = np.geomspace(optimize.R_GRID_LO, optimize.R_GRID_HI,
                        optimize.R_GRID_POINTS)
    vals = [objective(r) for r in grid]
    idx = np.flatnonzero([not math.isnan(eta) for _, eta in vals])
    if not idx.size:
        raise InfeasibleParameterError(
            f"no squeezing in [{optimize.R_GRID_LO}, {optimize.R_GRID_HI}] "
            f"reaches success probability {pi} at lam={lam} with "
            f"{n_stages} stage(s)")
    runs = np.concatenate([[0], np.cumsum(np.diff(idx) != 1)])
    return grid[idx], [vals[i] for i in idx], runs


def scalar_floor(n_max):
    """The floor search with the scalar kappa scan it had, verbatim."""
    out = []
    for n in range(1, n_max + 1):
        def eps_of(kappa, n=n):
            return eps_ladder(n, kappa, 0.0)[0]

        hi = 4.0
        while True:
            grid = np.geomspace(1e-3, hi, optimize.R_GRID_POINTS)
            vals = [eps_of(k) for k in grid]
            k = int(np.argmin(vals))
            if k < len(grid) - 2 or hi >= 64.0:
                break
            hi *= 2.0
        kappa_best = optimize._golden_min(eps_of, grid[max(k - 1, 0)],
                                          grid[min(k + 1, len(grid) - 1)],
                                          optimize.GOLDEN_TOL)
        out.append((n, eps_of(kappa_best), kappa_best))
    return out


def outcome(fn):
    try:
        return fn()
    except InfeasibleParameterError as exc:
        return type(exc).__name__, str(exc)


def searches(lam, pi, n):
    return [outcome(lambda: optimize.optimize_entanglement(lam, pi, n))] + [
        outcome(lambda: optimize.purity_for_target_entanglement(
            target, lam, pi, n, full_output=True)) for target in (0.6, 0.85)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_searches_equal_the_scalar_scan(n, monkeypatch):
    points = POINTS if n == 1 else POINTS[:40:6] + POINTS[40:]
    array_scan = [searches(lam, pi, n) for lam, pi in points]

    def feasible_grid(eps, eta, lam, pi, n_stages):  # ignores the array pass
        objective = optimize._make_objective(lam, pi, n_stages)
        sub, vals, runs = scalar_feasible_grid(objective, lam, pi, n_stages)
        return sub, np.array([v[0] for v in vals]), runs

    monkeypatch.setattr(optimize, "_feasible_grid", feasible_grid)
    assert array_scan == [searches(lam, pi, n) for lam, pi in points]


def test_floor_equals_the_scalar_scan():
    assert optimize.best_entanglement_vs_stages(40) == scalar_floor(40)
