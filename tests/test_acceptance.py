"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
success).  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

from nla_distill import fock, metrics, nla, optimize, verify
from nla_distill.analytic import (InfeasibleParameterError, eps_no_nla, lambda_from_db, purity_formula,
                                  purity_no_nla, purity_tradeoff,
                                  success_prob)

BENCH_GRID = [(r, lam) for r in (0.2, 0.5, 0.7) for lam in (0.1, 0.3, 0.6)]
CIRCUIT_GRID = [(r, lam, eta) for r in (0.2, 0.3) for lam in (0.2, 0.5)
                for eta in (0.5, 0.8)]


def report(num, name, ok, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_benchmark_formulas():
    t0 = time.perf_counter()
    worst = 0.0
    for r, lam in BENCH_GRID:
        st = nla.lossy_channel_state(r, lam, 25)
        sim_ba, sim_ab = metrics.epr_criterion(st, "A", "B")
        ana_ba, ana_ab = eps_no_nla(r, lam)
        pur = fock.purity(st, ["A", "B"])
        worst = max(worst, abs(sim_ba - ana_ba), abs(sim_ab - ana_ab),
                    abs(pur - purity_no_nla(r, lam)))
    dt = time.perf_counter() - t0
    report(1, "benchmark-formulas",
           worst <= 1e-6 and dt < 10.0,
           f"max err {worst:.2e} <= 1e-6, {dt:.1f}s < 10s")


def test_criterion_02_infinite_squeezing_floor():
    worst = max(abs(eps_no_nla(10.0, lam)[0] - lam * lam)
                for lam in (0.3, 0.7, 0.9))
    report(2, "infinite-squeezing-floor", worst <= 1e-8,
           f"max err {worst:.2e} <= 1e-8")


def test_criterion_03_tradeoff_identity():
    worst = max(abs(purity_tradeoff(eps_no_nla(r, lam)[0], lam)
                    - purity_no_nla(r, lam))
                for r, lam in BENCH_GRID)
    report(3, "tradeoff-identity", worst <= 1e-12,
           f"max err {worst:.2e} <= 1e-12")


def test_criterion_04_circuit_closed_form_equivalence():
    worst1 = 0.0
    for r, lam, eta in CIRCUIT_GRID:
        circ = nla.single_stage_circuit(r, lam, eta, 20)
        cf = nla.closed_form_state(1, r, lam, eta, 20)
        worst1 = max(worst1, 1.0 - fock.fidelity(circ, cf))
    t0 = time.perf_counter()
    worst2 = 0.0
    for r, lam, eta in CIRCUIT_GRID:
        circ = nla.dual_stage_circuit(r, lam, eta, 8)
        cf = nla.closed_form_state(2, r, lam, eta, 8)
        worst2 = max(worst2, 1.0 - fock.fidelity(circ, cf))
    dt = time.perf_counter() - t0
    report(4, "circuit-closed-form-equivalence",
           worst1 <= 1e-10 and worst2 <= 1e-8 and dt < 120.0,
           f"1-stage deficit {worst1:.2e} <= 1e-10, "
           f"2-stage deficit {worst2:.2e} <= 1e-8, dual {dt:.1f}s < 120s")


def test_criterion_05_success_probability():
    worst = 0.0
    for r, lam, eta in CIRCUIT_GRID:
        circ = nla.single_stage_circuit(r, lam, eta, 20)
        worst = max(worst, abs(success_prob(1, r, lam, eta)
                               - 2.0 * fock.norm_sq(circ)))
    report(5, "success-probability", worst <= 1e-10,
           f"max err {worst:.2e} <= 1e-10")


def test_criterion_06_single_stage_floor():
    (_, eps, kappa), = optimize.best_entanglement_vs_stages(1)
    ok = abs(eps - 0.81) <= 5e-3 and abs(kappa - 0.36) <= 1e-2
    report(6, "single-stage-floor", ok,
           f"eps {eps:.4f} in 0.81+-0.005, kappa {kappa:.4f} in 0.36+-0.01")


def test_criterion_07_dual_stage_floor():
    _, (_, eps, kappa) = optimize.best_entanglement_vs_stages(2)
    ok = abs(eps - 0.57) <= 5e-3 and abs(kappa - 0.59) <= 1e-2
    report(7, "dual-stage-floor", ok,
           f"eps {eps:.4f} in 0.57+-0.005, kappa {kappa:.4f} in 0.59+-0.01")


def test_criterion_08_eps_formula_minimum():
    worst = 0.0
    for lam in (0.5, 0.9):
        for pi in (1e-1, 1e-3):
            a = optimize.optimize_entanglement(lam, pi, 1)
            worst = max(worst, abs(a.eps_b_given_a
                                   - verify._circuit_minimum(lam, pi, [])))
    report(8, "entanglement-formula-minimum", worst <= 1e-5,
           f"max |closed - simulated| {worst:.2e} <= 1e-5")


def test_criterion_09_purity_formula():
    # The stated point (r, lam, pi) = (0.4, 0.5, 0.01) admits no gain in
    # (0, 1): pi = 0.01 lies below the eta -> 1 floor ~0.0718 there, so the
    # comparison is made at feasible neighbors instead and the stated point
    # must signal infeasibility (see the decisions ledger).
    assert optimize.eta_candidates(0.4, 0.5, 0.01, 1) == []
    with pytest.raises(InfeasibleParameterError):
        purity_formula(0.4, 0.5, 0.01)
    worst = 0.0
    for r, lam, pi in ((0.4, 0.5, 0.1), (0.1, 0.5, 0.01), (0.4, 0.3, 0.2)):
        eta, = optimize.eta_candidates(r, lam, pi, 1)
        hs = nla.single_stage_circuit(r, lam, eta, 40)
        sim = nla.distill_and_measure(1, hs).purity
        worst = max(worst, abs(sim - purity_formula(r, lam, pi)))
    report(9, "purity-formula", worst <= 1e-6,
           f"stated point infeasible as required; max err at feasible "
           f"neighbors {worst:.2e} <= 1e-6")


def test_criterion_10_trade_rates():
    worst1 = worst2 = 0.0
    for db in (15.0, 20.0, 25.0):
        base1 = optimize.optimize_entanglement(lambda_from_db(db), 1e-2, 1)
        traded1 = optimize.optimize_entanglement(lambda_from_db(db + 10), 1e-3, 1)
        worst1 = max(worst1, abs(traded1.eps_b_given_a - base1.eps_b_given_a)
                     / base1.eps_b_given_a)
        base2 = optimize.optimize_entanglement(lambda_from_db(db), 1e-2, 2)
        traded2 = optimize.optimize_entanglement(lambda_from_db(db + 10), 1e-4, 2)
        worst2 = max(worst2, abs(traded2.eps_b_given_a - base2.eps_b_given_a)
                     / base2.eps_b_given_a)
    report(10, "trade-rates", worst1 <= 0.02 and worst2 <= 0.02,
           f"N=1 10dB/10dB rel {worst1:.2%} <= 2%, "
           f"N=2 10dB/20dB rel {worst2:.2%} <= 2%")


def _benefit_crossing(n_stages, db_lo, db_hi, step=0.25):
    prev = None
    for db in np.arange(db_lo, db_hi + step / 2, step):
        lam = lambda_from_db(db)
        res = optimize.optimize_entanglement(lam, 1e-4, n_stages)
        beats = res.eps_b_given_a < lam * lam
        if prev is not None and beats and not prev:
            return db
        prev = beats
    return None


def test_criterion_11_benefit_thresholds():
    db1 = _benefit_crossing(1, 8.5, 11.5)
    db2 = _benefit_crossing(2, 4.5, 7.5)
    ok = db1 is not None and 9.0 <= db1 <= 11.0 and \
        db2 is not None and 5.0 <= db2 <= 7.0
    report(11, "benefit-thresholds", ok,
           f"N=1 crossing {db1} dB in 10+-1, N=2 crossing {db2} dB in 6+-1")


def test_criterion_12_floor_vs_stages_shape():
    t0 = time.perf_counter()
    out = optimize.best_entanglement_vs_stages(20)
    dt = time.perf_counter() - t0
    eps = [e for _, e, _ in out]
    ok = all(b < a for a, b in zip(eps, eps[1:])) and eps[-1] > 0.0 and dt < 30.0
    report(12, "floor-vs-stages-shape", ok,
           f"strictly decreasing over N=1..20, eps(20)={eps[-1]:.4f} > 0, "
           f"{dt:.1f}s < 30s")


def test_criterion_13_purity_benchmark_beating():
    # sampled over the loss range where eps = 0.85 is achievable at pi = 0.1
    ok = True
    details = []
    for db in (1.0, 2.5, 4.0, 5.5, 7.0, 8.5, 10.0):
        lam = lambda_from_db(db)
        res = optimize.purity_for_target_entanglement(0.85, lam, 1e-1, 1)
        bench = purity_tradeoff(0.85, lam)
        ok &= res.purity > bench
        details.append(f"{db}dB:{res.purity:.3f}>{bench:.3f}")
    n1_unachievable = False
    try:
        optimize.purity_for_target_entanglement(0.6, lambda_from_db(3.0), 1e-2, 1)
    except optimize.UnachievableTargetError:
        n1_unachievable = True
    res2 = optimize.purity_for_target_entanglement(0.6, lambda_from_db(3.0),
                                                   1e-2, 2)
    ok &= n1_unachievable and 0.0 < res2.purity <= 1.0
    ok &= abs(res2.eps_b_given_a - 0.6) < 1e-9
    report(13, "purity-benchmark-beating", ok,
           "NLA beats no-NLA purity at every sampled loss; eps=0.6 "
           f"unachievable at N=1 and reached at N=2 (purity {res2.purity:.3f})")


def test_verification_suite_green():
    results = verify.run_all()
    bad = [r for r in results if not r.passed]
    assert not bad, f"verification failures: {[r.name for r in bad]}"
