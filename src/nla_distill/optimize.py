"""Operating-point searches: best entanglement at fixed loss and success rate,
best purity at fixed entanglement, and the vanishing-success-rate floor per
stage count.

The scalar searches use a 200-point logarithmic grid over the source
squeezing followed by golden-section refinement; the grid guards against the
(empirically valid) assumption that the objective is unimodal on the feasible
interval.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from . import moments
from .analytic import (ChannelParams, InfeasibleParameterError, NlaParams,
                       eps_ladder, eps_opt_formula, purity_formula,
                       purity_ladder)
from .nla import DistillationResult

__all__ = [
    "DistillationResult",
    "UnachievableTargetError",
    "eta_from_pi",
    "eta_candidates",
    "optimize_entanglement",
    "purity_for_target_entanglement",
    "best_entanglement_vs_stages",
]

R_GRID_LO = 1e-4
R_GRID_HI = 3.0
R_GRID_POINTS = 200
GOLDEN_TOL = 1e-8
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# the N >= 2 searches run on the moments engine, which compiles each stage
# count once per process at a cost exponential in N (9 ms at N = 2, 0.35 s at
# N = 4, 2.1 s and a 170 MB peak at N = 5 on one core of a Xeon server); a
# search then makes ~200 evaluations of 0.07 to 0.13 ms each
MAX_SEARCH_STAGES = 4
# the floor search is O(N^2) in Python: 0.08 s at N = 20, 1.8 s at 100,
# 3.8 s at 150 and about 32 s at 400 on one core of a Xeon server
MAX_FLOOR_STAGES = 150


class UnachievableTargetError(InfeasibleParameterError):
    """Requested entanglement is below the optimum for these constraints."""


def eta_from_pi(r: float, lam: float, pi: float) -> float:
    """Invert the one-stage success probability for the transmissivity.

    The relation is linear in eta; raises when the required eta falls outside
    (0, 1), i.e. the success rate is unreachable at this squeezing.
    """
    if pi <= 0.0:
        raise ValueError(f"success probability must be > 0, got {pi}")
    t2 = math.tanh(r) ** 2
    d = (1.0 - lam * t2) ** 2 * math.cosh(r) ** 2
    eta = (1.0 - lam * t2 - pi * d) / (1.0 - t2)
    if not 0.0 < eta < 1.0:
        raise InfeasibleParameterError(
            f"success probability {pi} unreachable at (r={r}, lam={lam}): "
            f"eta would be {eta}")
    return eta


def eta_candidates(r: float, lam: float, pi: float, n_stages: int) -> list[float]:
    """All transmissivities in (0, 1) with the N-stage success probability pi.

    The joint success probability (2^N symmetric patterns, recombination
    ports heralded on vacuum) is a degree-N polynomial in eta; for N = 1 this
    reduces to `eta_from_pi`.  Returns [] when unreachable.
    """
    if n_stages == 1:
        try:
            return [eta_from_pi(r, lam, pi)]
        except InfeasibleParameterError:
            return []
    t2 = math.tanh(r) ** 2
    q = (1.0 - lam) * t2
    ch2rho = 1.0 / (1.0 - lam * t2)  # cosh^2(rho)
    n = n_stages
    # Pi_N(eta) = (cosh^2 rho / cosh^2 r) * sum_j u_j eta^j (1-eta)^(N-j)
    u = [(math.comb(n, j) * math.factorial(j) / n**j) ** 2 * (q * ch2rho) ** j
         for j in range(n + 1)]
    target = pi * math.cosh(r) ** 2 / ch2rho
    coeffs = np.zeros(n + 1)
    for j, uj in enumerate(u):
        # expand eta^j (1-eta)^(N-j)
        for k in range(n - j + 1):
            coeffs[j + k] += uj * math.comb(n - j, k) * (-1.0) ** k
    coeffs[0] -= target
    roots = np.roots(coeffs[::-1])
    out = sorted(float(z.real) for z in roots
                 if abs(z.imag) < 1e-9 and 1e-12 < z.real < 1.0 - 1e-12)
    return out


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


def _make_objective(lam: float, pi: float,
                    n_stages: int) -> Callable[[float], tuple[float, float]]:
    """Objective r -> (eps_B|A, eta) minimized over the eta level set."""

    def objective(r: float) -> tuple[float, float]:
        best = (math.inf, math.nan)
        for eta in eta_candidates(r, lam, pi, n_stages):
            if n_stages == 1:
                e = eps_opt_formula(r, lam, pi)
            else:
                # eps_ladder agrees to ~1e-14, but inside the flat optimum
                # that moves r_opt and the reported purity by 1e-8 to 1e-7,
                # past the 1e-9 the two-stage reference sweeps are held to;
                # the search stays on the moments engine until they re-base
                p = NlaParams(n_stages, eta, ChannelParams(r, lam))
                e = moments.eps_via_moments(n_stages, p.kappa, p.rho)
            if e < best[0]:
                best = (e, eta)
        return best

    return objective


def _feasible_grid(objective, lam: float, pi: float, n_stages: int
                   ) -> tuple[np.ndarray, list[tuple[float, float]], np.ndarray]:
    """Feasible grid points, objective values, and run labels.

    A grid point is feasible when the objective finds a transmissivity there
    (its eta is not NaN).  The feasible set is usually a single interval in r,
    but a second pocket can open at large squeezing (the gain inversion
    re-enters (0, 1) on its way down), so bracketing is only ever done inside
    one contiguous run.
    """
    grid = np.geomspace(R_GRID_LO, R_GRID_HI, R_GRID_POINTS)
    vals = [objective(r) for r in grid]
    idx = np.flatnonzero([not math.isnan(eta) for _, eta in vals])
    if not idx.size:
        raise InfeasibleParameterError(
            f"no squeezing in [{R_GRID_LO}, {R_GRID_HI}] reaches success "
            f"probability {pi} at lam={lam} with {n_stages} stage(s)")
    runs = np.concatenate([[0], np.cumsum(np.diff(idx) != 1)])
    return grid[idx], [vals[i] for i in idx], runs


def _minimize_on_grid(objective, sub, vals, runs) -> tuple[float, float, float]:
    k = int(np.argmin([v[0] for v in vals]))
    in_run = np.flatnonzero(runs == runs[k])
    lo = sub[max(k - 1, in_run[0])]
    hi = sub[min(k + 1, in_run[-1])]
    r_opt = _golden_min(lambda r: objective(r)[0], lo, hi, GOLDEN_TOL) \
        if hi > lo else sub[k]
    eps_opt, eta_opt = objective(r_opt)
    if not math.isfinite(eps_opt):  # boundary roundoff: fall back to grid point
        r_opt = sub[k]
        eps_opt, eta_opt = vals[k]
    return r_opt, eps_opt, eta_opt


def optimize_entanglement(lam: float, pi: float,
                          n_stages: int = 1) -> DistillationResult:
    """Best (smallest) eps_B|A over the source squeezing at fixed (lam, pi).

    The success probability is the joint N-stage heralding probability; the
    scissor transmissivity is recovered from it at every probed squeezing.
    """
    _validate_domain(lam, pi, n_stages)
    objective = _make_objective(lam, pi, n_stages)
    sub, vals, runs = _feasible_grid(objective, lam, pi, n_stages)
    r_opt, eps_opt, eta_opt = _minimize_on_grid(objective, sub, vals, runs)
    return _finalize(r_opt, eta_opt, eps_opt, lam, pi, n_stages)


def _validate_domain(lam, pi, n_stages):
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"loss reflectivity must be in [0, 1), got {lam}")
    if not 0.0 < pi <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {pi}")
    if not 1 <= n_stages <= MAX_SEARCH_STAGES:
        raise ValueError(f"searches take 1 to {MAX_SEARCH_STAGES} stages, "
                         f"got {n_stages}")


def _finalize(r_opt: float, eta_opt: float, eps_opt: float, lam: float,
              pi: float, n_stages: int) -> DistillationResult:
    p = NlaParams(n_stages, eta_opt, ChannelParams(r_opt, lam))
    _, eps_ab = eps_ladder(n_stages, p.kappa, p.rho)
    if n_stages == 1:
        pur = purity_formula(r_opt, lam, pi)
    else:
        pur = purity_ladder(n_stages, p.kappa, p.rho)
    return DistillationResult(
        eps_b_given_a=eps_opt,
        eps_a_given_b=eps_ab,
        purity=pur,
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
    _validate_domain(lam, pi, n_stages)
    if eps_target <= 0.0:
        raise ValueError("target entanglement must be positive")
    objective = _make_objective(lam, pi, n_stages)
    sub, vals, runs = _feasible_grid(objective, lam, pi, n_stages)
    _, eps_min, _ = _minimize_on_grid(objective, sub, vals, runs)
    # the r = 0 edge is always feasible and reaches eps = 1 exactly (vacuum
    # input); the log grid cannot contain it
    sub = np.concatenate([[0.0], sub])
    vals = [objective(0.0)] + vals
    runs = np.concatenate([[runs[0]], runs])
    eps_vals = np.array([v[0] for v in vals])
    if eps_target < eps_min:
        raise UnachievableTargetError(
            f"target {eps_target} below the optimum {eps_min:.6f} reachable "
            f"at lam={lam}, pi={pi}, {n_stages} stage(s)")

    roots: list[float] = []
    f = lambda r: objective(r)[0] - eps_target
    diffs = eps_vals - eps_target
    for i in range(len(sub) - 1):
        if runs[i] != runs[i + 1]:
            continue  # never bridge disjoint feasible pockets
        lo_v, hi_v = diffs[i], diffs[i + 1]
        if abs(lo_v) < 1e-14:
            roots.append(float(sub[i]))
        elif lo_v * hi_v < 0.0:
            roots.append(float(brentq(f, sub[i], sub[i + 1], xtol=1e-12)))
    if abs(diffs[-1]) < 1e-14:
        roots.append(float(sub[-1]))
    if not roots:
        raise InfeasibleParameterError(
            f"no squeezing reaches eps={eps_target} at lam={lam}, pi={pi}")
    deduped: list[float] = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    roots = deduped

    results = []
    for r in roots:
        _, eta = objective(r)
        res = _finalize(r, eta, eps_target, lam, pi, n_stages)
        results.append(res)
    best = max(results, key=lambda dr: dr.purity)
    return (best, results) if full_output else best


def best_entanglement_vs_stages(n_max: int) -> list[tuple[int, float, float]]:
    """Vanishing-success-rate entanglement floor per stage count.

    For each N minimizes eps_B|A of the normalized pure state
    (1 + (kappa/N) a'b')^N |0> over the pair amplitude kappa: the ladder
    sums at zero loss (rho = 0).
    """
    if not 1 <= n_max <= MAX_FLOOR_STAGES:
        raise ValueError(f"n_max must be 1 to {MAX_FLOOR_STAGES}, got {n_max}")
    out = []
    for n in range(1, n_max + 1):
        def eps_of(kappa: float, n=n) -> float:
            return eps_ladder(n, kappa, 0.0)[0]

        hi = 4.0
        while True:
            grid = np.geomspace(1e-3, hi, R_GRID_POINTS)
            vals = [eps_of(k) for k in grid]
            k = int(np.argmin(vals))
            if k < len(grid) - 2 or hi >= 64.0:
                break
            hi *= 2.0
        kappa_best = _golden_min(eps_of, grid[max(k - 1, 0)],
                                 grid[min(k + 1, len(grid) - 1)], GOLDEN_TOL)
        out.append((n, eps_of(kappa_best), kappa_best))
    return out
