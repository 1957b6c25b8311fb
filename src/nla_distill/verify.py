"""Cross-module oracle suite behind the `verify` command.

Every closed form is checked against the independent Fock-space simulation
(and the ladder-algebra moment engine) at fixed tolerances; each check
reports its name, the measured error, and the tolerance it must meet.
Every Fock state a check builds reports its truncation tail to the last
line, `truncation_tail_budget`; a run whose worst tail exceeds TAIL_BUDGET
fails the budget check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, metrics, moments, nla, optimize
from .analytic import (eps_infinity, eps_no_nla, eps_opt_formula, kappa_rho,
                       purity_formula, purity_no_nla, purity_tradeoff,
                       success_prob)

__all__ = ["CheckResult", "run_all", "TAIL_BUDGET", "MAX_CUTOFF"]

TAIL_BUDGET = 1e-10
# largest cutoff of a circuit the suite builds: a squeezing whose tail rule
# (`_auto_cutoff`) asks for more lies outside the circuit route
MAX_CUTOFF = 128

_BENCH_GRID = [(r, lam) for r in (0.2, 0.5, 0.7) for lam in (0.1, 0.3, 0.6)]
_CIRCUIT_GRID = [(r, lam, eta) for r in (0.2, 0.3) for lam in (0.2, 0.5)
                 for eta in (0.5, 0.8)]
_FORMULA_GRID = [(r, lam, eta) for r in (0.2, 0.5, 0.9) for lam in (0.1, 0.5, 0.9)
                 for eta in (0.3, 0.7, 0.95)]
_MIN_POINTS = [(lam, pi) for lam in (0.5, 0.9) for pi in (1e-1, 1e-3)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


def _auto_cutoff(r: float) -> int:
    """Source cutoff whose EPR tail stays at most 1e-11, below the tail
    budget, quantized to a multiple of 8 so that nearby squeezings share
    the beamsplitter tables `fock._bs_plan` and `fock._bs_blocks` cache by
    the mode pair's dimensions."""
    chi = math.tanh(r)
    if chi < 0.05:
        need = 12
    else:
        need = max(12, math.ceil(math.log(1e-11) / (2.0 * math.log(chi))) - 1)
    return int(math.ceil(need / 8.0) * 8)


def _check_benchmarks(tail: list) -> list[CheckResult]:
    e_ba = e_ab = pur = 0.0
    for r, lam in _BENCH_GRID:
        st = nla.lossy_channel_state(r, lam, _auto_cutoff(r))
        tail.append(st.tail_mass)
        res = metrics.epr_criterion(st, "A", "B")
        ana_ba, ana_ab = eps_no_nla(r, lam)
        e_ba = max(e_ba, abs(res.eps_b_given_a - ana_ba))
        e_ab = max(e_ab, abs(res.eps_a_given_b - ana_ab))
        p = fock.purity(st, ["A", "B"])
        pur = max(pur, abs(p - purity_no_nla(r, lam)))
    return [CheckResult("benchmark_eps_b_given_a_vs_sim", e_ba, 1e-6),
            CheckResult("benchmark_eps_a_given_b_vs_sim", e_ab, 1e-6),
            CheckResult("benchmark_purity_vs_sim", pur, 1e-6)]


def _check_limits() -> list[CheckResult]:
    err = max(abs(eps_no_nla(10.0, lam)[0] - eps_infinity(lam))
              for lam in (0.3, 0.7, 0.9))
    elim = max(abs(purity_tradeoff(eps_no_nla(r, lam)[0], lam)
                   - purity_no_nla(r, lam))
               for r, lam in _BENCH_GRID)
    return [CheckResult("infinite_squeezing_limit", err, 1e-8),
            CheckResult("purity_tradeoff_eliminant", elim, 1e-12)]


def _check_epr_identity(tail: list) -> CheckResult:
    worst = 0.0
    for r in (0.2, 0.5, 0.8):
        # a squeezed vacuum's weight falls by tanh^2 r per photon pair, an
        # EPR source's by tanh^2 r per photon: twice the source cutoff
        cut = 2 * _auto_cutoff(r)
        st = fock.tensor(fock.squeezed_vacuum(r, "C", cut),
                         fock.squeezed_vacuum(-r, "D", cut))
        st = fock.apply_beamsplitter(st, ("C", "D"), 0.5)
        epr = fock.epr_state(math.tanh(r), ("C", "D"), cut)
        tail.extend([st.tail_mass, epr.tail_mass])
        worst = max(worst, 1.0 - fock.fidelity(st, epr))
    return CheckResult("squeezer_beamsplitter_epr_identity", worst, 1e-8)


def _check_circuits(tail: list) -> list[CheckResult]:
    f1 = f2 = dpi = 0.0
    for r, lam, eta in _CIRCUIT_GRID:
        cut = _auto_cutoff(r)
        c1 = nla.single_stage_circuit(r, lam, eta, cut)
        k1 = nla.closed_form_state(1, r, lam, eta, cut)
        c2 = nla.dual_stage_circuit(r, lam, eta, cut)
        k2 = nla.closed_form_state(2, r, lam, eta, cut)
        tail.extend(h.state.tail_mass for h in (c1, k1, c2, k2))
        f1 = max(f1, 1.0 - fock.fidelity(c1.state, k1.state))
        f2 = max(f2, 1.0 - fock.fidelity(c2.state, k2.state))
        dpi = max(dpi, abs(success_prob(1, r, lam, eta) - c1.success_prob),
                  abs(success_prob(2, r, lam, eta) - c2.success_prob))
    return [CheckResult("single_stage_circuit_vs_closed_form", f1, 1e-10),
            CheckResult("dual_stage_circuit_vs_closed_form", f2, 1e-8),
            CheckResult("success_prob_vs_heralding", dpi, 1e-10)]


def _check_patterns(tail: list) -> list[CheckResult]:
    r, lam = 0.3, 0.3
    cut = _auto_cutoff(r)
    base1 = nla.single_stage_circuit(r, lam, 0.7, cut)
    alt1 = nla.single_stage_circuit(r, lam, 0.7, cut, pattern=(0, 1))
    base2 = nla.dual_stage_circuit(r, lam, 0.7, cut)
    tail.extend(h.state.tail_mass for h in (base1, alt1, base2))
    dn = abs(fock.norm_sq(alt1.state) - fock.norm_sq(base1.state))
    df = 1.0 - fock.fidelity(alt1.state, base1.state)
    for pats in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))):
        alt2 = nla.dual_stage_circuit(r, lam, 0.7, cut, patterns=pats)
        tail.append(alt2.state.tail_mass)
        dn = max(dn, abs(fock.norm_sq(alt2.state) - fock.norm_sq(base2.state)))
        df = max(df, 1.0 - fock.fidelity(alt2.state, base2.state))
    return [CheckResult("pattern_norm_symmetry", dn, 1e-12),
            CheckResult("pattern_state_after_compensation", df, 1e-12)]


def _check_eta_roundtrip() -> CheckResult:
    """Every eta root of Pi_N = pi at N = 1 and 2 against `success_prob`; a
    point with no root fails the check."""
    worst = 0.0
    for n in (1, 2):
        for r, lam, pi in ((0.1, 0.3, 0.01), (0.2, 0.1, 0.3), (0.8, 0.6, 0.3)):
            errs = [abs(success_prob(n, r, lam, eta) - pi)
                    for eta in optimize.eta_candidates(r, lam, pi, n)]
            worst = max(worst, max(errs, default=math.inf))
    return CheckResult("eta_inversion_roundtrip", worst, 1e-12)


def _check_commutation(tail: list) -> CheckResult:
    """Moments of the pair-creation state two ways: ladder-algebra recursion
    (the commutation identity route) against the Fock simulation."""
    worst = 0.0
    number_word = [(1.0, (("A", True), ("A", False)))]     # a'a
    pair_word = [(1.0, (("A", False), ("L", False)))]       # a l
    for rho in (0.2, 0.5):
        st = fock.epr_state(math.tanh(rho), ("A", "L"), 40)
        tail.append(st.tail_mass)
        z = fock.norm_sq(st)
        zg = moments.quadrature_moment(1, 0.0, rho, [])
        for factors in ([("A", "+")] * 2, [("A", "-")] * 2,
                        [("A", "+"), ("L", "+")]):
            sim = fock.quadrature_moment(st, factors) / z
            alg = moments.quadrature_moment(1, 0.0, rho, factors)
            worst = max(worst, abs(sim - alg / zg))
        # photon-number moments straight from the word evaluator
        for poly, expect in ((number_word, math.sinh(rho) ** 2),
                             (pair_word, math.sinh(rho) * math.cosh(rho))):
            alg = moments.heralded_moment(1, 0.0, rho, poly).real / zg
            worst = max(worst, abs(alg - expect))
    return CheckResult("commutation_moment_recursion", worst, 1e-10)


def _check_formulas(tail: list) -> list[CheckResult]:
    de = dp = 0.0
    for r, lam, eta in _FORMULA_GRID:
        pi = success_prob(1, r, lam, eta)
        hs = nla.single_stage_circuit(r, lam, eta, _auto_cutoff(r))
        tail.append(hs.state.tail_mass)
        res = nla.distill_and_measure(hs)
        de = max(de, abs(res.eps_b_given_a - eps_opt_formula(r, lam, pi)))
        dp = max(dp, abs(res.purity - purity_formula(r, lam, pi)))
    return [CheckResult("eps_formula_pointwise_vs_sim", de, 1e-6),
            CheckResult("purity_formula_pointwise_vs_sim", dp, 1e-6)]


# the circuit search scans every _SCAN_STRIDE-th R_GRID point; on the four
# _MIN_POINTS the minimum of the full 200-point scan lies in the cell around
# the coarse minimum (tests/test_verify.py holds it there)
_SCAN_STRIDE = 8
_FMIN_XATOL = 1e-8
_FMIN_MAXFUN = 500
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))


def _fminbound(f, a: float, b: float,
               xatol: float) -> tuple[float, float]:
    """The least (x, f(x)) Brent's bounded minimizer (Brent 1973, ch. 5)
    evaluated in [a, b]: a line-for-line, plain-float transcription of
    scipy's ``fminbound(f, a, b, xtol=xatol)``, whose x it returns bit for
    bit.  Independent of the searches' refinement in `optimize`."""
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 * (-1.0 if xm - xf < 0.0 else 1.0)
            else:
                golden = True
        if golden:  # a golden-section step
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _FMIN_MAXFUN:
            break
    return xf, fx


def _circuit_eps(r: float, lam: float, pi: float, tail: list) -> float:
    """eps_B|A simulated on the single-stage circuit at success rate pi; inf
    at a squeezing with no eta root, or whose tail rule needs a cutoff past
    MAX_CUTOFF: both are outside the circuit route."""
    etas = optimize.eta_candidates(r, lam, pi, 1)  # at most one root
    cutoff = _auto_cutoff(r)
    if not etas or cutoff > MAX_CUTOFF:
        return math.inf
    hs = nla.single_stage_circuit(r, lam, etas[0], cutoff)
    tail.append(hs.state.tail_mass)
    return metrics.epr_criterion(hs.state, "A", "B").eps_b_given_a


def _circuit_minimum(lam: float, pi: float, tail: list) -> float:
    """Minimum over r of `_circuit_eps`: a scan of every _SCAN_STRIDE-th
    `optimize.R_GRID` point, then `_fminbound` in the cell between the best
    scan point's neighbours; a neighbour scored inf is replaced by the best
    point itself."""
    scan = optimize.R_GRID[::_SCAN_STRIDE].tolist()
    eps = [_circuit_eps(r, lam, pi, tail) for r in scan]
    k = int(np.argmin(eps))
    lo = scan[k - 1] if k > 0 and eps[k - 1] < math.inf else scan[k]
    hi = scan[k + 1] if k + 1 < len(scan) and eps[k + 1] < math.inf else scan[k]
    return _fminbound(lambda r: _circuit_eps(r, lam, pi, tail), lo, hi,
                      _FMIN_XATOL)[1]


def _check_minimum(tail: list) -> CheckResult:
    worst = 0.0
    for lam, pi in _MIN_POINTS:
        closed = optimize.optimize_entanglement(lam, pi, 1)
        worst = max(worst, abs(closed.eps_b_given_a
                               - _circuit_minimum(lam, pi, tail)))
    return CheckResult("eps_formula_minimum_vs_sim", worst, 1e-5)


def _check_moments_engine(tail: list) -> CheckResult:
    worst = 0.0
    for n_st, r, lam, eta in ((1, 0.5, 0.3, 0.8), (2, 0.3, 0.3, 0.7)):
        hs = nla.closed_form_state(n_st, r, lam, eta, 40)
        tail.append(hs.state.tail_mass)
        sim = metrics.epr_criterion(hs.state, "A", "B").eps_b_given_a
        alg = moments.eps_via_moments(n_st, *kappa_rho(r, lam, eta))
        worst = max(worst, abs(sim - alg))
    return CheckResult("moment_engine_vs_sim", worst, 1e-10)


def _check_floors() -> list[CheckResult]:
    floors = optimize.best_entanglement_vs_stages(2)
    (_, e1, k1), (_, e2, k2) = floors
    return [CheckResult("single_stage_floor_eps", abs(e1 - 0.81), 5e-3),
            CheckResult("single_stage_floor_kappa", abs(k1 - 0.36), 1e-2),
            CheckResult("dual_stage_floor_eps", abs(e2 - 0.57), 5e-3),
            CheckResult("dual_stage_floor_kappa", abs(k2 - 0.59), 1e-2)]


def run_all() -> list[CheckResult]:
    """Run every oracle check; the last line is the worst truncation tail of
    every state the checks built, against TAIL_BUDGET."""
    tails: list[float] = []
    out: list[CheckResult] = []
    out += _check_benchmarks(tails)
    out += _check_limits()
    out.append(_check_epr_identity(tails))
    out += _check_circuits(tails)
    out += _check_patterns(tails)
    out.append(_check_eta_roundtrip())
    out.append(_check_commutation(tails))
    out += _check_formulas(tails)
    out.append(_check_minimum(tails))
    out.append(_check_moments_engine(tails))
    out += _check_floors()
    out.append(CheckResult("truncation_tail_budget", max(tails), TAIL_BUDGET))
    return out
