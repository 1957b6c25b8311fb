"""The array grid scans against the scalar evaluators they stand in for.

The searches evaluate their squeezing grid (`optimize.R_GRID`), and the
floor its kappa grid, in one array pass, then refine on scalar evaluators
(the floor on the root of its closed slope).  These tests hold the array pass
to the scalar objective point by point, hold the searches to the results of
the scalar scan they replaced, and hold the floor to a 40-digit one.
"""

import functools
import itertools
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
# the array pass reads eps from the ladder sums at every N; the one-stage
# scalar objective's closed form cancels terms of size 4/pi as r -> 0 and the
# N = 4 eta polynomial is ill-conditioned, so the two agree to these bounds
# (measured worst: 4.3e-11 in eps, 1.2e-12 in eta), not to the ulp
EPS_RTOL, ETA_RTOL = 1e-10, 1e-11


def scalar_scan(lam, pi, n):
    """The scalar objective's (eps, eta) at every `R_GRID` point."""
    objective = optimize._make_objective(lam, pi, n)
    return [objective(r) for r in optimize.R_GRID]


# the scan of the unpatched objective, built once per (lam, pi, n) and shared
# by every test below that reads it
shared_scan = functools.cache(scalar_scan)


def scalar_grid(lam, pi, n):
    return np.array(shared_scan(lam, pi, n)).T


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_array_grid_matches_the_scalar_objective(n):
    for lam, pi in POINTS:
        eps = optimize._grid_values(lam, pi, n)
        s_eps, s_eta = scalar_grid(lam, pi, n)
        feasible = ~np.isnan(s_eta)
        assert np.array_equal(eps < np.inf, feasible), (lam, pi)
        np.testing.assert_allclose(eps[feasible], s_eps[feasible],
                                   rtol=EPS_RTOL, atol=0)
        # the scalar objective's eta is one of the grid pass's roots there
        etas, s_eta = optimize._grid_etas(lam, pi, n)[feasible], s_eta[feasible]
        near = abs(etas - s_eta[:, None]) <= ETA_RTOL * s_eta[:, None]
        assert near.any(axis=1).all(), (lam, pi)
        if not feasible.any():
            with pytest.raises(InfeasibleParameterError,
                               match="no squeezing in"):
                optimize._scan(lam, pi, n)
            continue
        assert np.argmin(eps) == np.argmin(s_eps), (lam, pi)


def test_array_grid_takes_the_best_of_several_roots(monkeypatch):
    # no point above has two feasible roots at one squeezing, so hand both
    # evaluators the same extra candidate
    lam, pi, n, extra = 0.5, 1e-2, 2, 0.97
    plain = optimize._grid_values(lam, pi, n)
    grid_etas, eta_candidates = optimize._grid_etas, optimize.eta_candidates
    monkeypatch.setattr(optimize, "_grid_etas", lambda *a: np.sort(
        np.column_stack([grid_etas(*a), np.full(optimize.R_GRID_POINTS, extra)]),
        axis=1))
    monkeypatch.setattr(optimize, "eta_candidates",
                        lambda *a: sorted(eta_candidates(*a) + [extra]))
    eps = optimize._grid_values(lam, pi, n)
    # the patched objective: off the shared scan
    s_eps, s_eta = np.array(scalar_scan(lam, pi, n)).T
    np.testing.assert_allclose(eps, s_eps, rtol=EPS_RTOL, atol=0)
    won = s_eta == extra
    assert won.any() and not won.all()
    # where the extra root wins, the grid pass reads its eps, not the other's
    assert (eps[won] < plain[won]).all() and (eps[~won] == plain[~won]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_grid_pass_reads_the_ladder_sums_only(n, monkeypatch):
    # the closed form is the one-stage refinement's objective, not the grid's
    calls = []
    real = optimize.eps_opt_formula

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(optimize, "eps_opt_formula", counting)
    for lam, pi in POINTS:
        optimize._grid_values(lam, pi, n)
    assert calls == []
    assert optimize._make_objective(0.3, 1e-2, n)(0.05)[0] < math.inf
    assert len(calls) == (n == 1)


def test_point_list_covers_two_pockets_and_an_infeasible_grid():
    feasible = optimize._grid_values(0.3, 1e-2, 2) < np.inf
    # the finite runs of the row: each one starts where feasible turns on
    starts = feasible & ~np.concatenate([[False], feasible[:-1]])
    assert starts.sum() == 2
    assert (optimize._grid_values(0.5, 1.0, 1) == np.inf).all()


@pytest.mark.parametrize("n", [1, 2, 12, 60, 150])
def test_floor_grid_matches_the_scalar_ladder(n):
    # with kappa up to 4 the largest prefix of the ladder weights passes
    # 2^256 (and the weights are rescaled) from N = 139 on
    grid = optimize._KAPPA_GRID
    log2_w = max(itertools.accumulate(
        2.0 * math.log2((n - j + 1) * grid[-1] / n) for j in range(1, n + 1)))
    assert (log2_w > 256.0) == (n >= 139)
    vals = eps_ladder(n, grid, 0.0)[0]
    scalar = np.array([eps_ladder(n, float(k), 0.0)[0] for k in grid])
    assert np.isfinite(vals).all()
    np.testing.assert_allclose(vals, scalar, rtol=1e-12, atol=0)
    assert np.argmin(vals) == np.argmin(scalar)


def test_floor_grid_minimum_is_interior():
    # the floor refines inside the cell around its grid minimum, which must
    # therefore sit off both edges of the one kappa grid at every N it takes
    grid = optimize._KAPPA_GRID
    for n in range(1, optimize.MAX_FLOOR_STAGES + 1):
        assert 0 < np.argmin(eps_ladder(n, grid, 0.0)[0]) < len(grid) - 2, n


def test_floor_meets_the_mpmath_floor(eps_mp):
    # kappa* is the root of d eps / d kappa, found here in 40 digits by
    # mpmath's own bracketing solver on its numerical derivative; every
    # kappa* up to N = 150 lies in [0.356, 1.023]
    mp = pytest.importorskip("mpmath")
    floor = optimize.best_entanglement_vs_stages(150)
    for n in [*range(1, 13), 40, 100, 150]:
        def slope(x, n=n):
            return mp.diff(lambda k: eps_mp(n, k, 0)[0], x)

        kappa_star = mp.findroot(slope, (0.3, 1.1), solver="anderson")
        assert floor[n - 1][0] == n
        assert abs(floor[n - 1][2] - kappa_star) <= 1e-12, n
        assert abs(floor[n - 1][1] - eps_mp(n, kappa_star, 0)[0]) <= 1e-13, n


# ---------------------------------------------------------------------------
# the searches against the scalar scan


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

    # the scalar scan's eps row in place of the array pass
    monkeypatch.setattr(optimize, "_grid_values",
                        lambda lam, pi, n_stages: scalar_grid(lam, pi, n_stages)[0])
    assert array_scan == [searches(lam, pi, n) for lam, pi in points]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_searches_bracket_only_feasible_squeezings(n, monkeypatch):
    # where no eta is feasible the objective jumps to inf: a bracket with
    # such an end holds no root, and _brentq would stop at the jump.  At
    # 10 dB, pi = 1e-300 and N = 2 the r = 0 edge and the first grid points
    # are infeasible
    cases = [(lam, pi, target) for lam, pi in POINTS for target in (0.6, 0.85)]
    if n == 2:
        cases.append((lambda_from_db(10.0), 1e-300, 0.85))
    brackets = []
    real = optimize._brentq

    def recording(f, a, b):
        brackets.append((a, b))
        return real(f, a, b)

    monkeypatch.setattr(optimize, "_brentq", recording)
    for lam, pi, target in cases:
        brackets.clear()
        outcome(lambda: optimize.optimize_entanglement(lam, pi, n))
        outcome(lambda: optimize.purity_for_target_entanglement(
            target, lam, pi, n))
        objective = optimize._make_objective(lam, pi, n)
        for a, b in brackets:
            assert objective(a)[0] < math.inf, (lam, pi, target, a)
            assert objective(b)[0] < math.inf, (lam, pi, target, b)
