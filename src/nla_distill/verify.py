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
from .analytic import (ChannelParams, NlaParams, eps_infinity, eps_no_nla,
                       eps_opt_formula, purity_formula, purity_no_nla,
                       purity_tradeoff, success_prob_1stage)

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
        ch = ChannelParams(r, lam)
        st = nla.lossy_channel_state(ch, _auto_cutoff(r))
        tail.append(st.tail_mass)
        res = metrics.epr_criterion(st, "A", "B")
        ana_ba, ana_ab = eps_no_nla(ch)
        e_ba = max(e_ba, abs(res.eps_b_given_a - ana_ba))
        e_ab = max(e_ab, abs(res.eps_a_given_b - ana_ab))
        p = fock.purity(st, ["A", "B"])
        pur = max(pur, abs(p - purity_no_nla(ch)))
    return [CheckResult("benchmark_eps_b_given_a_vs_sim", e_ba, 1e-6),
            CheckResult("benchmark_eps_a_given_b_vs_sim", e_ab, 1e-6),
            CheckResult("benchmark_purity_vs_sim", pur, 1e-6)]


def _check_limits() -> list[CheckResult]:
    err = max(abs(eps_no_nla(ChannelParams(10.0, lam))[0] - eps_infinity(lam))
              for lam in (0.3, 0.7, 0.9))
    elim = max(abs(purity_tradeoff(eps_no_nla(ChannelParams(r, lam))[0], lam)
                   - purity_no_nla(ChannelParams(r, lam)))
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
        ch = ChannelParams(r, lam)
        cut = _auto_cutoff(r)
        c1 = nla.single_stage_circuit(ch, eta, cut)
        k1 = nla.closed_form_state(1, ch, eta, cut)
        c2 = nla.dual_stage_circuit(ch, eta, cut)
        k2 = nla.closed_form_state(2, ch, eta, cut)
        tail.extend(h.state.tail_mass for h in (c1, k1, c2, k2))
        f1 = max(f1, 1.0 - fock.fidelity(c1.state, k1.state))
        dpi = max(dpi, abs(success_prob_1stage(ch, eta) - c1.success_prob))
        f2 = max(f2, 1.0 - fock.fidelity(c2.state, k2.state))
    return [CheckResult("single_stage_circuit_vs_closed_form", f1, 1e-10),
            CheckResult("dual_stage_circuit_vs_closed_form", f2, 1e-8),
            CheckResult("success_prob_vs_heralding", dpi, 1e-10)]


def _check_patterns(tail: list) -> list[CheckResult]:
    ch = ChannelParams(0.3, 0.3)
    cut = _auto_cutoff(ch.r)
    base1 = nla.single_stage_circuit(ch, 0.7, cut)
    alt1 = nla.single_stage_circuit(ch, 0.7, cut, pattern=(0, 1))
    base2 = nla.dual_stage_circuit(ch, 0.7, cut)
    tail.extend(h.state.tail_mass for h in (base1, alt1, base2))
    dn = abs(fock.norm_sq(alt1.state) - fock.norm_sq(base1.state))
    df = 1.0 - fock.fidelity(alt1.state, base1.state)
    for pats in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))):
        alt2 = nla.dual_stage_circuit(ch, 0.7, cut, patterns=pats)
        tail.append(alt2.state.tail_mass)
        dn = max(dn, abs(fock.norm_sq(alt2.state) - fock.norm_sq(base2.state)))
        df = max(df, 1.0 - fock.fidelity(alt2.state, base2.state))
    return [CheckResult("pattern_norm_symmetry", dn, 1e-12),
            CheckResult("pattern_state_after_compensation", df, 1e-12)]


def _check_eta_roundtrip() -> CheckResult:
    worst = 0.0
    for r, lam, pi in ((0.1, 0.3, 0.01), (0.2, 0.1, 0.3), (0.8, 0.6, 0.3)):
        eta = optimize.eta_from_pi(r, lam, pi)
        worst = max(worst, abs(success_prob_1stage(ChannelParams(r, lam), eta) - pi))
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
        ch = ChannelParams(r, lam)
        pi = success_prob_1stage(ch, eta)
        hs = nla.single_stage_circuit(ch, eta, _auto_cutoff(r))
        tail.append(hs.state.tail_mass)
        res = nla.distill_and_measure(hs)
        de = max(de, abs(res.eps_b_given_a - eps_opt_formula(r, lam, pi)))
        dp = max(dp, abs(res.purity - purity_formula(r, lam, pi)))
    return [CheckResult("eps_formula_pointwise_vs_sim", de, 1e-6),
            CheckResult("purity_formula_pointwise_vs_sim", dp, 1e-6)]


def _circuit_minimum(lam: float, pi: float, tail: list) -> float:
    """Minimum over r of eps_B|A simulated on the single-stage circuit, found
    by the closed-form search's grid scan and golden refinement.  A squeezing
    with no eta root, or whose tail rule needs a cutoff past MAX_CUTOFF, is
    outside the circuit route and scores (inf, nan)."""

    def objective(r: float) -> tuple[float, float]:
        etas = optimize.eta_candidates(r, lam, pi, 1)  # at most one root
        cutoff = _auto_cutoff(r)
        if not etas or cutoff > MAX_CUTOFF:
            return math.inf, math.nan
        hs = nla.single_stage_circuit(ChannelParams(r, lam), etas[0], cutoff)
        tail.append(hs.state.tail_mass)
        return metrics.epr_criterion(hs.state, "A", "B").eps_b_given_a, etas[0]

    eps, eta = np.array([objective(r) for r in optimize.R_GRID]).T
    sub, eps, runs = optimize._feasible_grid(eps, eta, lam, pi, 1)
    return optimize._minimize_on_grid(objective, sub, eps, runs)[1]


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
        ch = ChannelParams(r, lam)
        p = NlaParams(n_st, eta, ch)
        hs = nla.closed_form_state(n_st, ch, eta, 40)
        tail.append(hs.state.tail_mass)
        sim = metrics.epr_criterion(hs.state, "A", "B").eps_b_given_a
        alg = moments.eps_via_moments(n_st, p.kappa, p.rho)
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
