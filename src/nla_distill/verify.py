"""Cross-module oracle suite behind the `verify` command.

Every closed form is checked against the independent Fock-space simulation
(and the ladder-algebra moment engine) at fixed tolerances; each check
reports its name, the measured error, and the tolerance it must meet.
Results whose truncation tail exceeds the tail budget are refused outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock, metrics, moments, nla, optimize
from .analytic import (ChannelParams, NlaParams, eps_infinity, eps_no_nla,
                       eps_opt_formula, purity_formula, purity_no_nla,
                       purity_tradeoff, success_prob_1stage)

__all__ = ["CheckResult", "run_all", "TAIL_BUDGET", "DEFAULT_CUTOFF",
           "MAX_CUTOFF"]

TAIL_BUDGET = 1e-10
DEFAULT_CUTOFF = 25  # Fock cutoff of the lossy-channel benchmark checks
# also the cap of the suite's own circuits (`_auto_cutoff`); the benchmark
# checks hold (c+1)^3 amplitudes and read purity from a (c+1) x (c+1) Gram
# matrix, so the suite takes 1.6 s and 410 MB resident at 48 and 5.0 s and
# 580 MB at 128 on a 2-core host
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
    """Source cutoff whose EPR tail stays near 1e-11, below the tail budget,
    capped at MAX_CUTOFF and quantized for operator-cache reuse."""
    chi = math.tanh(r)
    if chi < 0.05:
        need = 12
    else:
        need = max(12, math.ceil(math.log(1e-11) / (2.0 * math.log(chi))) - 1)
    return int(math.ceil(min(need, MAX_CUTOFF) / 8.0) * 8)


def _check_benchmarks(cutoff: int, tail: list) -> list[CheckResult]:
    e_ba = e_ab = pur = 0.0
    for r, lam in _BENCH_GRID:
        ch = ChannelParams(r, lam)
        st = nla.lossy_channel_state(ch, cutoff)
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


def _check_epr_identity() -> CheckResult:
    worst = 0.0
    for r in (0.2, 0.5, 0.8):
        cut = fock.squeeze_cutoff_envelope(r)
        st = fock.vacuum(["C", "D"], [cut, cut])
        st = fock.apply_single_mode_squeeze(st, "C", r)
        st = fock.apply_single_mode_squeeze(st, "D", -r)
        st = fock.apply_beamsplitter(st, ("C", "D"), 0.5)
        worst = max(worst, 1.0 - fock.fidelity(
            st, fock.epr_state(math.tanh(r), ("C", "D"), cut)))
    return CheckResult("squeezer_beamsplitter_epr_identity", worst, 1e-8)


def _check_circuits(tail: list) -> list[CheckResult]:
    f1 = f2 = dpi = 0.0
    for r, lam, eta in _CIRCUIT_GRID:
        ch = ChannelParams(r, lam)
        c1 = nla.single_stage_circuit(ch, eta, 20)
        k1 = nla.closed_form_state(1, ch, eta, 20)
        tail.extend([c1.state.tail_mass, k1.state.tail_mass])
        f1 = max(f1, 1.0 - fock.fidelity(c1.state, k1.state))
        dpi = max(dpi, abs(success_prob_1stage(ch, eta) - c1.success_prob))
        c2 = nla.dual_stage_circuit(ch, eta, 8)
        k2 = nla.closed_form_state(2, ch, eta, 8)
        f2 = max(f2, 1.0 - fock.fidelity(c2.state, k2.state))
    return [CheckResult("single_stage_circuit_vs_closed_form", f1, 1e-10),
            CheckResult("dual_stage_circuit_vs_closed_form", f2, 1e-8),
            CheckResult("success_prob_vs_heralding", dpi, 1e-10)]


def _check_patterns() -> list[CheckResult]:
    ch = ChannelParams(0.3, 0.3)
    base1 = nla.single_stage_circuit(ch, 0.7, 12)
    alt1 = nla.single_stage_circuit(ch, 0.7, 12, pattern=(0, 1))
    base2 = nla.dual_stage_circuit(ch, 0.7, 8)
    dn = abs(fock.norm_sq(alt1.state) - fock.norm_sq(base1.state))
    df = 1.0 - fock.fidelity(alt1.state, base1.state)
    for pats in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))):
        alt2 = nla.dual_stage_circuit(ch, 0.7, 8, patterns=pats)
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


def _check_commutation() -> CheckResult:
    """Moments of the pair-creation state two ways: ladder-algebra recursion
    (the commutation identity route) against the Fock simulation."""
    worst = 0.0
    number_word = [(1.0, (("A", True), ("A", False)))]     # a'a
    pair_word = [(1.0, (("A", False), ("L", False)))]       # a l
    for rho in (0.2, 0.5):
        st = fock.epr_state(math.tanh(rho), ("A", "L"), 40)
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
        cutoff = _auto_cutoff(r)
        hs = nla.single_stage_circuit(ch, eta, cutoff)
        tail.append(hs.state.tail_mass)
        res = nla.distill_and_measure(hs)
        de = max(de, abs(res.eps_b_given_a - eps_opt_formula(r, lam, pi)))
        dp = max(dp, abs(res.purity - purity_formula(r, lam, pi)))
    return [CheckResult("eps_formula_pointwise_vs_sim", de, 1e-6),
            CheckResult("purity_formula_pointwise_vs_sim", dp, 1e-6)]


def _circuit_minimum(lam: float, pi: float) -> float:
    """Minimum over r of eps_B|A simulated on the single-stage circuit, found
    by the closed-form search's grid scan and golden refinement."""

    def objective(r: float) -> tuple[float, float]:
        etas = optimize.eta_candidates(r, lam, pi, 1)  # at most one root
        if not etas:
            return math.inf, math.nan
        hs = nla.single_stage_circuit(ChannelParams(r, lam), etas[0],
                                      _auto_cutoff(r))
        return metrics.epr_criterion(hs.state, "A", "B").eps_b_given_a, etas[0]

    eps, eta = np.array([objective(r) for r in optimize.R_GRID]).T
    sub, eps, runs = optimize._feasible_grid(eps, eta, lam, pi, 1)
    return optimize._minimize_on_grid(objective, sub, eps, runs)[1]


def _check_minimum() -> CheckResult:
    worst = 0.0
    for lam, pi in _MIN_POINTS:
        closed = optimize.optimize_entanglement(lam, pi, 1)
        worst = max(worst, abs(closed.eps_b_given_a - _circuit_minimum(lam, pi)))
    return CheckResult("eps_formula_minimum_vs_sim", worst, 1e-5)


def _check_moments_engine() -> CheckResult:
    worst = 0.0
    for n_st, r, lam, eta in ((1, 0.5, 0.3, 0.8), (2, 0.3, 0.3, 0.7)):
        ch = ChannelParams(r, lam)
        p = NlaParams(n_st, eta, ch)
        hs = nla.closed_form_state(n_st, ch, eta, 40)
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


def run_all(cutoff: int = DEFAULT_CUTOFF,
            tail_budget: float = TAIL_BUDGET) -> list[CheckResult]:
    """Run every oracle check; the tail budget applies to all states built."""
    if not 1 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must be 1 to {MAX_CUTOFF}, got {cutoff}")
    if not tail_budget > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tail_budget}")
    tails: list[float] = []
    out: list[CheckResult] = []
    out += _check_benchmarks(cutoff, tails)
    out += _check_limits()
    out.append(_check_epr_identity())
    out += _check_circuits(tails)
    out += _check_patterns()
    out.append(_check_eta_roundtrip())
    out.append(_check_commutation())
    out += _check_formulas(tails)
    out.append(_check_minimum())
    out.append(_check_moments_engine())
    out += _check_floors()
    out.append(CheckResult("truncation_tail_budget", max(tails), tail_budget))
    return out
