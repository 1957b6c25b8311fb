"""Closed-form benchmark expressions and unit conventions."""

import math

import numpy as np
import pytest

from nla_distill import analytic, optimize
from nla_distill.analytic import (InfeasibleParameterError, eps_infinity,
                                  eps_no_nla, eps_opt_formula, kappa_rho,
                                  purity_formula, purity_no_nla,
                                  purity_tradeoff, success_prob)


def test_eps_no_nla_lossless():
    ba, ab = eps_no_nla(0.7, 0.0)
    expect = (1 / math.cosh(1.4)) ** 2
    assert ba == pytest.approx(expect, abs=1e-15)
    assert ab == pytest.approx(expect, abs=1e-15)


def test_eps_no_nla_no_squeezing():
    ba, ab = eps_no_nla(0.0, 0.4)
    assert ba == 1.0 and ab == 1.0


def test_eps_no_nla_large_r_approaches_loss_floor():
    for lam in (0.3, 0.4, 0.7):
        ba, _ = eps_no_nla(10.0, lam)
        assert abs(ba - lam * lam) < 1e-8


@pytest.mark.parametrize("r", [356.0, 400.0, 1e3, math.inf])
@pytest.mark.parametrize("lam", [0.0, 0.3])
def test_closed_forms_past_the_cosh_overflow_are_their_limits(r, lam):
    # cosh 2r (r > ~355) and cosh^2 r (r > ~355.6) overflow a double; the
    # closed forms return their r -> infinity limits instead of raising, and
    # at r = inf itself (where lam (cosh 2r - 1) is 0 * inf at lam = 0)
    assert success_prob(1, r, lam, 0.5) == success_prob(2, r, lam, 0.5) == 0.0
    assert eps_no_nla(r, lam) == (lam ** 2, lam ** 2 / (1.0 - lam) ** 2)
    assert purity_no_nla(r, lam) == (1.0 if lam == 0.0 else 0.0)


def test_eps_infinity_values():
    assert eps_infinity(0.0) == 0.0
    assert eps_infinity(0.5) == 0.25


def test_eps_monotonicity():
    lams = np.linspace(0.0, 0.95, 30)
    rs = np.linspace(0.05, 2.0, 30)
    fixed_lam = [eps_no_nla(r, 0.4)[0] for r in rs]
    assert all(b < a for a, b in zip(fixed_lam, fixed_lam[1:]))
    fixed_r = [eps_no_nla(0.7, l)[0] for l in lams]
    assert all(b > a for a, b in zip(fixed_r, fixed_r[1:]))


def test_purity_no_nla_limits():
    assert purity_no_nla(0.7, 0.0) == 1.0
    assert purity_no_nla(0.0, 0.6) == 1.0


def test_purity_tradeoff_limits():
    assert purity_tradeoff(1.0, 0.3) == pytest.approx(1.0, abs=1e-15)
    assert purity_tradeoff(0.25, 0.5) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InfeasibleParameterError):
        purity_tradeoff(0.2, 0.5)
    # above 1 no entanglement is certified: a purity there would exceed 1;
    # a NaN eps is no entanglement either
    for eps in (1.5, math.nan):
        with pytest.raises(ValueError):
            purity_tradeoff(eps, 0.3)
    # without loss the pure source reaches every eps, eps = 0 included
    assert purity_tradeoff(0.0, 0.0) == purity_tradeoff(1e-300, 0.0) == 1.0


@pytest.mark.parametrize("r,lam", [(0.8, 0.25), (0.3, 0.1), (1.2, 0.6)])
def test_tradeoff_is_exact_eliminant(r, lam):
    assert purity_tradeoff(eps_no_nla(r, lam)[0], lam) == pytest.approx(
        purity_no_nla(r, lam), abs=1e-12)


def test_success_prob_zero_squeezing():
    assert success_prob(1, 0.0, 0.3, 0.25) == pytest.approx(0.75, abs=1e-15)


def test_success_prob_vanishes_at_full_gain_zero_squeezing():
    vals = [success_prob(1, 1e-6, 0.0, eta) for eta in (0.9, 0.99, 0.999)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2e-3


def test_success_prob_linear_in_eta():
    r, lam = 0.5, 0.3
    etas = np.linspace(0.05, 0.95, 7)
    pis = [success_prob(1, r, lam, e) for e in etas]
    diffs = np.diff(pis) / np.diff(etas)
    assert np.allclose(diffs, diffs[0], atol=1e-12)


@pytest.mark.parametrize("r,lam,eta", [(0.0, 0.3, 0.25), (0.4, 0.2, 0.6),
                                       (1.3, 0.9, 0.05), (2.5, 0.0, 0.97)])
def test_success_prob_one_stage_is_the_closed_form(r, lam, eta):
    # the published one-stage heralding probability, kept here as a reference
    t2 = math.tanh(r) ** 2
    closed = (1.0 - eta + (eta - lam) * t2) / ((1.0 - lam * t2) ** 2
                                               * math.cosh(r) ** 2)
    assert abs(success_prob(1, r, lam, eta) - closed) <= 1e-15


def _norm_inf_sum(n, r, lam, eta):
    """The untruncated closed-form branch norm, summed term by term over the
    (1 + (kappa/N) a'b')^N expansion (each photon pair weighted by
    cosh^2 rho from the loss ladder)."""
    kappa, rho = kappa_rho(r, lam, eta)
    scale = (math.cosh(rho) / math.cosh(r)) * ((1.0 - eta) / 2.0) ** (n / 2.0)
    return scale**2 * sum(
        (math.comb(n, j) * (kappa / n) ** j * math.factorial(j)) ** 2
        * math.cosh(rho) ** (2 * j) for j in range(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 64])
@pytest.mark.parametrize("r,lam,eta", [(0.3, 0.3, 0.7), (0.9, 0.6, 0.2),
                                       (1.5, 0.1, 0.95)])
def test_success_prob_matches_the_branch_norm_sum(n, r, lam, eta):
    ref = 2.0**n * _norm_inf_sum(n, r, lam, eta)
    assert abs(analytic.success_prob(n, r, lam, eta) / ref - 1.0) <= 1e-13


def test_success_prob_validates():
    r, lam = 0.3, 0.3
    for n, eta in ((0, 0.5), (2, 0.0), (2, 1.0)):
        with pytest.raises(ValueError):
            analytic.success_prob(n, r, lam, eta)


def test_eps_formula_r_to_zero_limit():
    for lam in (0.1, 0.5, 0.9):
        assert eps_opt_formula(1e-8, lam, 0.05) == pytest.approx(1.0, rel=1e-5)


def test_eps_formula_large_loss_floor():
    # minimized value at extreme loss stays in the single-stage window
    lam, pi = 1 - 1e-3, 1e-4
    rs = np.geomspace(1e-4, 0.5, 400)
    vals = []
    for r in rs:
        if optimize.eta_candidates(r, lam, pi, 1):
            vals.append(eps_opt_formula(r, lam, pi))
    assert vals, "no feasible point found"
    assert 0.81 < min(vals) < 1.0


def test_purity_formula_lossless_is_pure():
    for r in (0.2, 0.7):
        pi = success_prob(1, r, 0.0, 0.6)
        assert purity_formula(r, 0.0, pi) == pytest.approx(1.0, abs=1e-9)


def test_purity_formula_infeasible_pi_rejected():
    # Pi below the full-gain floor at this squeezing has no eta in (0, 1)
    with pytest.raises(InfeasibleParameterError):
        purity_formula(0.4, 0.5, 0.01)


def test_purity_formula_past_the_cosh_squared_overflow_is_infeasible():
    # cosh^2 r is inf past r ~ 355.6 (and at r = inf): no gain reaches any
    # success rate there, as just below it
    for r in (355.5, 355.6, 400.0, 800.0, math.inf):
        with pytest.raises(InfeasibleParameterError, match="no gain"):
            purity_formula(r, 0.3, 0.01)


def test_cosh2_is_inf_past_a_double():
    assert analytic._cosh2(355.5) == math.cosh(355.5) ** 2
    for r in (355.6, 710.0, 800.0, math.inf):
        assert analytic._cosh2(r) == math.inf
    grid = np.array([0.0, 0.5, 3.0])
    assert np.array_equal(analytic._cosh2(grid), np.cosh(grid) ** 2)


def test_kappa_rho_is_the_nla_params_map():
    # the searches read the amplifier's kappa and rho from the one unchecked
    # map the public, checked kappa_rho reads, for floats and arrays alike
    assert analytic._kappa_rho(0.4, 0.3, 0.7) == kappa_rho(0.4, 0.3, 0.7)
    r, eta = np.array([0.4, 1.2]), np.array([0.7, 0.2])
    kappa, rho = analytic._kappa_rho(r, 0.3, eta)
    for i in range(2):
        k, p = kappa_rho(float(r[i]), 0.3, float(eta[i]))
        assert abs(kappa[i] - k) <= 1e-15 * k
        assert abs(rho[i] - p) <= 1e-15 * p


def test_nla_params_derived_quantities():
    # at eta = 0.8 the amplitude gain sqrt(eta / (1 - eta)) is 2
    kappa, rho = kappa_rho(0.5, 0.3, 0.8)
    assert kappa == pytest.approx(2.0 * math.sqrt(0.7) * math.tanh(0.5), abs=1e-15)
    assert math.tanh(rho) == pytest.approx(math.sqrt(0.3) * math.tanh(0.5), abs=1e-15)
    for args, match in (((0.5, 0.3, 1.0), "eta"), ((0.5, 0.3, math.nan), "eta"),
                        ((-0.5, 0.3, 0.8), "squeezing"),
                        ((0.5, 1.0, 0.8), "loss reflectivity")):
        with pytest.raises(ValueError, match=match):
            kappa_rho(*args)


def test_db_conventions():
    assert analytic.lambda_from_db(10.0) == pytest.approx(0.9, abs=1e-15)
    assert analytic.db_from_lambda(0.9) == pytest.approx(10.0, abs=1e-12)
    # squeezing dB maps to the squeezed-quadrature variance 10^(-dB/10)
    r = analytic.r_from_squeeze_db(3.0)
    assert math.exp(-2 * r) == pytest.approx(10 ** (-0.3), abs=1e-15)
    assert analytic.squeeze_db_from_r(r) == pytest.approx(3.0, abs=1e-12)


def test_record_squeezing_constant():
    assert analytic.RECORD_SQUEEZING_DB == 12.7


@pytest.mark.parametrize("r", [0.2, 0.5, 0.9])
@pytest.mark.parametrize("lam", [0.1, 0.5, 0.9])
def test_benchmarks_agree_with_simulation_at_tail_rule_cutoff(r, lam):
    # cutoff follows the tail rule rather than a fixed value
    from nla_distill import fock, metrics, nla
    chi = math.tanh(r)
    cutoff = max(12, math.ceil(math.log(1e-11) / (2 * math.log(chi))) - 1)
    st = nla.lossy_channel_state(r, lam, cutoff)
    res = metrics.epr_criterion(st, "A", "B")
    ana_ba, ana_ab = eps_no_nla(r, lam)
    assert abs(res.eps_b_given_a - ana_ba) < 1e-6
    assert abs(res.eps_a_given_b - ana_ab) < 1e-6
    pur = fock.purity(st, ["A", "B"])
    assert abs(pur - purity_no_nla(r, lam)) < 1e-6
