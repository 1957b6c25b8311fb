"""Operating-point searches: best entanglement at fixed loss and success rate,
best purity at fixed entanglement, and the vanishing-success-rate floor per
stage count.

Each search scans a 200-point logarithmic grid over the source squeezing
(`R_GRID`; the floor its one kappa grid) in one array pass, then refines
inside the best grid cell on a scalar evaluator: a search's minimum by golden
section on its objective (`_minimize_on_grid`), a target by Brent's root
finder (`_brentq`, a transcription of scipy's ``brentq.c``) on the objective,
and the floor's minimum by `_brentq` on the closed slope of the ladder sums
(`analytic._eps_slope`), so every reported number comes from the scalar
evaluators; the grid guards against the (empirically valid) assumption that
the objective is unimodal on the feasible interval.  Both searches open
through `_scan`: input checks, then the grid pass's eps row, inf where no eta
is feasible, which is all the grid state they carry.  The grid pass solves
eta with the scalar objective's solvers on arrays (the linear inversion at one
stage, `_unit_roots` at N >= 2) and reads eps from the ladder sums
(`eps_ladder`) at every N, within 5e-11 of the closed form and the moments
engine the scalar objective runs on.  eps_A|B and purity are reported from the
ladder sums.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from . import moments
from .analytic import (DistillationResult, InfeasibleParameterError,
                       _check_params, _cosh2, _eps_slope, _eps_sums,
                       _kappa_rho, _ladder, _purity_sums, _success_weights,
                       _xp, eps_ladder, eps_opt_formula, success_prob)

__all__ = [
    "UnachievableTargetError",
    "eta_candidates",
    "optimize_entanglement",
    "purity_for_target_entanglement",
    "best_entanglement_vs_stages",
]

R_GRID_LO = 1e-4
R_GRID_HI = 3.0
R_GRID_POINTS = 200
R_GRID = np.geomspace(R_GRID_LO, R_GRID_HI, R_GRID_POINTS)
R_GRID.flags.writeable = False
# the floor's kappa grid: for every N up to MAX_FLOOR_STAGES its argmin index
# is at most 166 of 199 and the refined kappa* lies in [0.356, 1.023]
_KAPPA_GRID = np.geomspace(1e-3, 4.0, R_GRID_POINTS)
GOLDEN_TOL = 1e-8
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# the N >= 2 searches refine on the moments engine, which compiles each stage
# count once per process at a cost exponential in N (6 ms at N = 2, 0.12 s at
# N = 4, about 0.7 s and a 120 MB peak at N = 5 on one core of a Xeon server);
# after the array grid pass a search makes ~30 evaluations of 0.07 to 0.10 ms.
# Averaged over the default fig8 grid's 320 (loss, pi) points, infeasible ones
# included, a search costs 5 to 7 ms at N = 2, 6 to 9 ms at N = 3 and 7 to
# 11 ms at N = 4, in process on one core of a 2-core Xeon host (Python 3.11,
# numpy 2.4), so at the cap a search costs at most about 0.13 s in a fresh
# process, the compile included
MAX_SEARCH_STAGES = 4
# the floor search is O(N^2): 0.01 s at N = 20, 0.2 s at 100, 0.5 s at 150
# and about 4 s at 400 on one core of a Xeon server
MAX_FLOOR_STAGES = 150


class UnachievableTargetError(InfeasibleParameterError):
    """Requested entanglement is below the optimum for these constraints."""


def _linear_eta(r, lam: float, pi: float):
    """The eta of the one-stage success probability pi, unchecked; r may be
    an array."""
    xp = _xp(r)
    t2 = xp.tanh(r) ** 2
    d = (1.0 - lam * t2) ** 2 * _cosh2(r)  # inf past r ~ 355.6: eta is -inf
    num = 1.0 - lam * t2 - pi * d
    if xp is math and t2 == 1.0:  # r > ~19.1: eta runs off to +-inf
        return math.copysign(math.inf, num)
    return num / (1.0 - t2)


def eta_candidates(r: float, lam: float, pi: float, n_stages: int) -> list[float]:
    """All transmissivities in (0, 1) with the N-stage success probability pi,
    ascending: the one inversion of `analytic.success_prob` at every N.

    The joint success probability is a degree-N polynomial in eta, solved by
    `_unit_roots`; at N = 1 it is linear, and its one root is solved in closed
    form.  Returns [] when unreachable; raises ValueError for an r, lam, pi or
    N outside its domain.
    """
    n_stages = _check_params(r, lam, pi, n_stages=n_stages)
    if n_stages == 1:
        eta = float(_linear_eta(r, lam, pi))  # a float for a numpy lam or pi too
        return [eta] if 0.0 < eta < 1.0 else []
    # Pi_N <= cosh^2 rho / cosh^2 r (every u_j <= 1 and the Bernstein basis
    # sums to 1): past that bound no eta reaches pi, and the level set's
    # constant term over its leading coefficient can overflow the solver
    if pi * (1.0 - lam * math.tanh(r) ** 2) * _cosh2(r) > 1.0:
        return []
    etas = _unit_roots(r, lam, pi, n_stages)
    return [float(x) for x in etas[~np.isnan(etas)]]


def _level_set_coeffs(r, lam: float, pi: float, n: int) -> list:
    """Monomial coefficients, constant first, of a polynomial in eta whose
    roots are those of Pi_N(eta) = pi; r may be an array."""
    u, ch2rho = _success_weights(n, r, lam)
    target = pi * _cosh2(r) / ch2rho
    coeffs = [0.0] * (n + 1)
    for j, uj in enumerate(u):
        # expand eta^j (1-eta)^(N-j)
        for k in range(n - j + 1):
            coeffs[j + k] += uj * math.comb(n - j, k) * (-1.0) ** k
    coeffs[0] -= target
    return coeffs


def _unit_roots(r, lam: float, pi: float, n_stages: int) -> np.ndarray:
    """The real roots in (0, 1) of Pi_N(eta) = pi, ascending on the last axis
    and NaN-padded; r may be an array.  `np.roots`' companion matrices, one
    per r, in one eigvals call."""
    p = np.stack(_level_set_coeffs(r, lam, pi, n_stages)[::-1], axis=-1)
    a = np.zeros(p.shape[:-1] + (n_stages, n_stages))
    a[..., 0, :] = -p[..., 1:] / p[..., :1]
    a[..., range(1, n_stages), range(n_stages - 1)] = 1.0
    roots = np.linalg.eigvals(a)
    z = roots.real
    real = (abs(roots.imag) < 1e-9) & (1e-12 < z) & (z < 1.0 - 1e-12)
    return np.sort(np.where(real, z, np.nan), axis=-1)


def _grid_etas(lam: float, pi: float, n_stages: int) -> np.ndarray:
    """`eta_candidates` at every `R_GRID` point: one ascending row per point,
    NaN where a root is missing."""
    if n_stages == 1:
        eta = _linear_eta(R_GRID, lam, pi)
        return np.where((0.0 < eta) & (eta < 1.0), eta, np.nan)[:, None]
    return _unit_roots(R_GRID, lam, pi, n_stages)


def _golden_min(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


# _brentq stops once |step| < (xtol + rtol |x|) / 2 (rtol: scipy's floor)
_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """A root of f in the sign-changing bracket [a, b] by Brent's method.

    A line-for-line transcription of scipy's ``brentq.c`` (Brent 1973, ch. 4)
    with scipy's ``brentq(f, a, b, xtol=1e-12)`` settings: it returns the
    same double, bit for bit, and raises as scipy does.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _brent_eval(f, xpre), _brent_eval(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # where C divides by zero, to inf or NaN, it bisects below
                stry = (-fcur * (fblk * dblk - fpre * dpre) / den if den
                        else math.inf)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _brent_eval(f, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def _brent_eval(f: Callable[[float], float], x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; "
                         "solver cannot continue.")
    return fx


def _make_objective(lam: float, pi: float,
                    n_stages: int) -> Callable[[float], tuple[float, float]]:
    """Objective r -> (eps_B|A, eta) minimized over the eta level set;
    (inf, nan) where no eta is feasible."""

    def objective(r: float) -> tuple[float, float]:
        best = (math.inf, math.nan)
        for eta in eta_candidates(r, lam, pi, n_stages):
            # eps_ladder matches both branches to ~1e-14, but in the flat
            # optimum that moves r_opt and purity by 1e-8 to 1e-7, past the
            # 1e-9 the benchmark references hold; the fork awaits a re-base
            if n_stages == 1:
                e = eps_opt_formula(r, lam, pi)
            else:
                e = moments.eps_via_moments(n_stages,
                                            *_kappa_rho(r, lam, eta))
            if e < best[0]:
                best = (e, eta)
        return best

    return objective


def _grid_values(lam: float, pi: float, n_stages: int) -> np.ndarray:
    """`_make_objective`'s eps at every `R_GRID` point in one array pass, inf
    where no eta is feasible."""
    etas = _grid_etas(lam, pi, n_stages)
    i, j = np.nonzero(~np.isnan(etas))
    e = np.full(etas.shape, np.inf)
    e[i, j] = eps_ladder(n_stages, *_kappa_rho(R_GRID[i], lam, etas[i, j]))[0]
    e[~(e < np.inf)] = np.inf  # the objective keeps an eta only if eps < inf
    return e.min(axis=1)


def _minimize_on_grid(objective, eps) -> tuple[float, float, float]:
    """The golden-section minimum x of objective(x)[0] in the cell around the
    least grid value ``eps``, bounded by its feasible neighbours:
    (x, *objective(x)).  The entanglement and target searches share it."""
    k = int(np.argmin(eps))
    lo = R_GRID[k - 1] if k > 0 and eps[k - 1] < np.inf else R_GRID[k]
    hi = R_GRID[k + 1] if k < R_GRID_POINTS - 1 and eps[k + 1] < np.inf \
        else R_GRID[k]
    r_opt = _golden_min(lambda r: objective(r)[0], lo, hi, GOLDEN_TOL) \
        if hi > lo else R_GRID[k]
    eps_opt, eta_opt = objective(r_opt)
    if not math.isfinite(eps_opt):  # boundary roundoff: fall back to grid point
        r_opt = R_GRID[k]
        eps_opt, eta_opt = objective(r_opt)
    return float(r_opt), eps_opt, eta_opt


def optimize_entanglement(lam: float, pi: float,
                          n_stages: int = 1) -> DistillationResult:
    """Best (smallest) eps_B|A over the source squeezing at fixed (lam, pi).

    The success probability is the joint N-stage heralding probability; the
    scissor transmissivity is recovered from it at every probed squeezing.
    """
    n_stages, lam, pi, objective, eps = _scan(lam, pi, n_stages)
    r_opt, eps_opt, eta_opt = _minimize_on_grid(objective, eps)
    return _finalize(r_opt, eta_opt, eps_opt, lam, pi, n_stages)


def _scan(lam: float, pi: float, n_stages: int, eps_target: float = 1.0):
    """Both searches' opening: the input checks, then the scalar objective and
    the grid pass's eps row, as (N, lam, pi, objective, eps), with N a Python
    int and lam, pi Python floats, which the search computes with.

    The feasible grid points, those with eps < inf, usually form a single
    interval in r, but a second pocket can open at large squeezing (the gain
    inversion re-enters (0, 1) on its way down), so no bracket ever spans an
    infeasible point.
    """
    n_stages = _check_params(lam=lam, pi=pi, eps_target=eps_target,
                             n_stages=n_stages)
    if n_stages > MAX_SEARCH_STAGES:
        raise ValueError(f"searches take 1 to {MAX_SEARCH_STAGES} stages, "
                         f"got {n_stages}")
    lam, pi = float(lam), float(pi)
    eps = _grid_values(lam, pi, n_stages)
    if not (eps < np.inf).any():
        raise InfeasibleParameterError(
            f"no squeezing in [{R_GRID_LO}, {R_GRID_HI}] reaches success "
            f"probability {pi} at lam={lam} with {n_stages} stage(s)")
    return n_stages, lam, pi, _make_objective(lam, pi, n_stages), eps


def _finalize(r_opt: float, eta_opt: float, eps_opt: float, lam: float,
              pi: float, n_stages: int) -> DistillationResult:
    """The reported operating point; InfeasibleParameterError where its eta
    misses the success budget pi by more than 1e-6 relative (the N >= 2 roots
    carry ~1e-16 of absolute error in Pi_N, from `_level_set_coeffs`)."""
    got = success_prob(n_stages, r_opt, lam, eta_opt)
    if not abs(got - pi) <= 1e-6 * pi:
        raise InfeasibleParameterError(
            f"success probability {pi} with {n_stages} stage(s) is below what "
            f"the eta solver resolves: its eta misses the budget")
    kappa, rho = _kappa_rho(r_opt, lam, eta_opt)
    ladder = _ladder(n_stages, kappa, rho)  # one ladder serves both reports
    return DistillationResult(
        eps_b_given_a=eps_opt,
        eps_a_given_b=_eps_sums(n_stages, kappa, ladder)[1],
        purity=_purity_sums(n_stages, ladder),
        success_prob=pi,
        r_opt=r_opt,
        eta_opt=eta_opt,
        n_stages=n_stages,
    )


def purity_for_target_entanglement(eps_target: float, lam: float, pi: float,
                                   n_stages: int = 1, full_output: bool = False):
    """Purest operating point delivering exactly ``eps_target``.

    Finds every squeezing with eps(r, lam, pi) = eps_target on the feasible
    interval (generically one root below and one above the entanglement
    optimum) and returns the root with maximal purity; ``full_output=True``
    additionally returns all roots' results.
    """
    n_stages, lam, pi, objective, eps = _scan(lam, pi, n_stages, eps_target)
    eps_target = float(eps_target)  # it is the result's eps_b_given_a
    if (eps > eps_target).all():
        # only then can the target lie below the optimum, or between the
        # refined optimum and every grid value (the straddle below, whose
        # condition implies this one, reads r_opt)
        r_opt, eps_min, _ = _minimize_on_grid(objective, eps)
        if eps_target < eps_min:
            raise UnachievableTargetError(
                f"target {eps_target} below the optimum {eps_min:.6f} "
                f"reachable at lam={lam}, pi={pi}, {n_stages} stage(s)")
    # the r = 0 edge (vacuum input) reaches eps = 1 up to roundoff, where an
    # eta is feasible; the log grid cannot contain it
    grid = np.concatenate([[0.0], R_GRID])
    diffs = np.concatenate([[objective(0.0)[0]], eps]) - eps_target

    etas = {}  # _brentq returns a squeezing it probed: its eta is kept here

    def f(r: float) -> float:
        e, etas[r] = objective(r)
        return e - eps_target

    def root(a: float, b: float) -> list[float]:
        """The root in [a, b], or none where the scalar objective does not
        confirm the sign change the grid values show (they differ from it by
        roundoff, which decides a target within ~1e-13 of a grid value)."""
        try:
            return [_brentq(f, a, b)]
        except ValueError:
            return []

    feasible = diffs < np.inf
    on_grid = abs(diffs) < 1e-14
    roots = [float(r) for r in grid[on_grid]]
    # signs, not diffs: an infeasible sample reads inf, and inf * 0 warns
    signs = np.sign(diffs)
    # never bridge disjoint feasible pockets: both ends of a cell feasible
    crossed = (feasible[:-1] & feasible[1:] & ~on_grid[:-1]
               & (signs[:-1] * signs[1:] < 0.0))
    for i in np.flatnonzero(crossed):
        roots += root(grid[i], grid[i + 1])
    if not roots and (diffs > 0.0).all():
        # the target lies between the refined optimum and every grid value:
        # one root on each side of r_opt, inside its grid cell
        i = int(np.searchsorted(grid, r_opt)) - 1
        roots = root(grid[i], r_opt) + root(r_opt, grid[i + 1])
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    roots = deduped

    results = []
    for r in roots:
        eta = etas[r] if r in etas else objective(r)[1]
        if not math.isnan(eta):  # a grid root where the scalar finds no eta
            results.append(_finalize(r, eta, eps_target, lam, pi, n_stages))
    if not results:
        raise InfeasibleParameterError(
            f"no squeezing reaches eps={eps_target} at lam={lam}, pi={pi}")
    best = max(results, key=lambda dr: dr.purity)
    return (best, results) if full_output else best


def _check_floor_stages(n_max: int) -> int:
    """n_max (fig11's max_stages) as a Python int; ValueError unless it is an
    integer 1 to `MAX_FLOOR_STAGES`."""
    n_max = _check_params(n_stages=n_max)
    if n_max > MAX_FLOOR_STAGES:
        raise ValueError(f"max_stages must be 1 to {MAX_FLOOR_STAGES}, got {n_max}")
    return n_max


def best_entanglement_vs_stages(n_max: int) -> list[tuple[int, float, float]]:
    """Vanishing-success-rate entanglement floor per stage count.

    For each N minimizes eps_B|A of the normalized pure state
    (1 + (kappa/N) a'b')^N |0> over the pair amplitude kappa: the ladder
    sums at zero loss (rho = 0), scanned on `_KAPPA_GRID`; kappa* is the root
    of the closed slope d eps_B|A / d kappa (`_eps_slope`) by `_brentq` in the
    cell around the grid minimum, and eps_B|A is reported from the ladder sums
    there.  A cell without a sign change raises RuntimeError naming N.
    """
    n_max = _check_floor_stages(n_max)
    out = []
    for n in range(1, n_max + 1):
        k = int(np.argmin(eps_ladder(n, _KAPPA_GRID, 0.0)[0]))
        lo = _KAPPA_GRID[max(k - 1, 0)]
        hi = _KAPPA_GRID[min(k + 1, R_GRID_POINTS - 1)]
        try:
            kappa = _brentq(
                lambda x, n=n: _eps_slope(n, x, _ladder(n, x, 0.0)), lo, hi)
        except ValueError as exc:  # no sign change, or a NaN slope
            raise RuntimeError(f"no floor at N = {n} in the kappa cell "
                               f"[{lo}, {hi}]: {exc}") from exc
        out.append((n, eps_ladder(n, kappa, 0.0)[0], kappa))
    return out
