"""Ladder sums for the N-stage heralded state against the independent routes:
the Fock-space closed-form state, the moments engine, the one-stage closed
forms, and the lossless pair state."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla_distill import fock, metrics, moments, nla
from nla_distill.analytic import (_eps_slope, _ladder, eps_ladder,
                                  eps_opt_formula, kappa_rho, purity_formula,
                                  purity_ladder, success_prob)

# r up to 1 keeps T = lam tanh^2 r below 0.47, so a cutoff of 80 leaves a
# truncation tail far below the tolerances
squeezing = st.floats(0.05, 1.0)
loss = st.floats(0.0, 0.8)
transmissivity = st.floats(0.05, 0.95)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), r=squeezing, lam=loss, eta=transmissivity)
def test_ladder_matches_fock_closed_form_state(n, r, lam, eta):
    kappa, rho = kappa_rho(r, lam, eta)
    hs = nla.closed_form_state(n, r, lam, eta, 80)
    assert hs.state.tail_mass < 1e-12
    sim = metrics.epr_criterion(hs.state, "A", "B")
    sim_purity = fock.purity(hs.state, ["A", "B"])
    eps_ba, eps_ab = eps_ladder(n, kappa, rho)
    assert abs(eps_ba - sim.eps_b_given_a) < 1e-10
    assert abs(eps_ab - sim.eps_a_given_b) < 1e-10
    assert abs(purity_ladder(n, kappa, rho) - sim_purity) < 1e-10


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), kappa=st.floats(0.0, 3.0), rho=st.floats(0.0, 1.0))
def test_ladder_matches_moments_engine(n, kappa, rho):
    alg = moments.eps_via_moments(n, kappa, rho)
    assert abs(eps_ladder(n, kappa, rho)[0] - alg) < 1e-12


@settings(max_examples=50, deadline=None)
@given(r=squeezing, lam=loss, eta=transmissivity)
def test_ladder_matches_one_stage_closed_forms(r, lam, eta):
    pi = success_prob(1, r, lam, eta)
    kappa, rho = kappa_rho(r, lam, eta)
    assert abs(eps_ladder(1, kappa, rho)[0]
               - eps_opt_formula(r, lam, pi)) < 1e-12
    assert abs(purity_ladder(1, kappa, rho)
               - purity_formula(r, lam, pi)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), kappa=st.floats(0.0, 4.0))
def test_ladder_at_zero_loss_matches_pair_state(n, kappa):
    sim = metrics.epr_criterion(nla.truncated_pair_state(n, kappa), "A", "B")
    eps_ba, eps_ab = eps_ladder(n, kappa, 0.0)
    assert abs(eps_ba - sim.eps_b_given_a) < 1e-12
    assert abs(eps_ab - sim.eps_a_given_b) < 1e-12
    assert purity_ladder(n, kappa, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_ladder_without_pair_creation():
    assert eps_ladder(3, 0.0, 0.0) == (1.0, 1.0)
    # kappa = 0 leaves B in vacuum and A thermal, with variance cosh(2 rho)
    eps_ba, eps_ab = eps_ladder(2, 0.0, 0.4)
    assert eps_ba == pytest.approx(1.0, abs=1e-15)
    assert eps_ab == pytest.approx(math.cosh(0.8) ** 2, rel=1e-14)
    with pytest.raises(ValueError):
        eps_ladder(0, 0.5, 0.1)


@pytest.mark.parametrize("rho", [0.0, 0.4])
@pytest.mark.parametrize("n", [1, 2, 5, 12, 150])
def test_slope_matches_the_mpmath_derivative(n, rho, eps_mp):
    # at N = 150 the ladder weights pass 2^256, and are rescaled, at kappa = 4;
    # past the floor (kappa > ~1) eps_B|A at large N is a small difference of
    # terms of size <b'b>, so the slope keeps fewer digits there (measured
    # worst: 2.1e-14 up to kappa = 0.9, 1.9e-11 at N = 150 and kappa = 4)
    mp = pytest.importorskip("mpmath")
    for kappa, tol in ((0.05, 1e-13), (0.36, 1e-13), (0.9, 1e-13),
                       (2.5, 1e-10), (4.0, 1e-10)):
        want = mp.diff(lambda x: eps_mp(n, x, rho)[0], kappa)
        got = _eps_slope(n, kappa, _ladder(n, kappa, rho))
        assert abs(got - want) <= tol * max(1.0, abs(want)), (kappa, got)


def exact_ladder(n, kappa, rho):
    """(eps_B|A, eps_A|B, purity) of the ladder sums in exact arithmetic for
    an integer kappa, with T = a / d the float the library uses.

    Over the common denominator n^(2N) (d-a)^(N+1), S_j = w_j q^(j+1) is the
    integer c_j n^(2(N-j)) d^(j+1) (d-a)^(N-j), c_j = (N!/(N-j)! kappa^j)^2.
    The purity pairs are regrouped as y sum_i x^i (sum_j w_j C(j,i) y^j)^2,
    x = T^2, y = 1/(1-x), and cleared the same way with e = d^2 - a^2.
    """
    t = Fraction(math.tanh(rho) ** 2)
    a, d = t.numerator, t.denominator
    c = [1]
    for j in range(1, n + 1):
        c.append(c[-1] * ((n - j + 1) * kappa) ** 2)
    s = [c[j] * n ** (2 * (n - j)) * d ** (j + 1) * (d - a) ** (n - j)
         for j in range(n + 1)]
    z = sum(s)
    nb = Fraction(sum(j * sj for j, sj in enumerate(s)), z)
    na = nb + Fraction(a * sum((j + 1) * sj for j, sj in enumerate(s)), (d - a) * z)
    ab = Fraction(d * kappa * sum(s[j - 1] * j * (n - j + 1) for j in range(1, n + 1)),
                  (d - a) * n * z)
    v_a, v_b, c2 = 1 + 2 * na, 1 + 2 * nb, (2 * ab) ** 2
    dd, e = d * d, d * d - a * a
    u = [c[j] * n ** (2 * (n - j)) * dd ** j * e ** (n - j) for j in range(n + 1)]
    num = sum(a ** (2 * i) * dd ** (n - i)
              * sum(u[j] * math.comb(j, i) for j in range(i, n + 1)) ** 2
              for i in range(n + 1))
    purity = Fraction(num * dd * (d - a) ** (2 * n + 2),
                      e ** (2 * n + 1) * dd ** n * z * z)
    return (v_b - c2 / v_a) ** 2, (v_a - c2 / v_b) ** 2, purity


@pytest.mark.parametrize("n,kappa,rho", [(3, 2, 0.4), (150, 30, 0.3),
                                         (64, 9, 2.5), (150, 14, 2.75)])
def test_ladder_matches_exact_rational_sums(n, kappa, rho):
    # at N = 150, kappa = 30 the weight w_N ~ 1e316 overflows a float, and
    # the sums read nan unless the weights are rescaled on the way; at large
    # rho the weights times q^j = (1 - T)^(-j), and pair terms over
    # (1 - T^2)^(j+k), overflow too unless q joins the rescaled recurrence
    if (n, kappa) == (150, 30):
        assert Fraction(math.factorial(n) * kappa**n, n**n) ** 2 > sys.float_info.max
    got = eps_ladder(n, float(kappa), rho) + (purity_ladder(n, float(kappa), rho),)
    for value, exact in zip(got, exact_ladder(n, kappa, rho)):
        assert value == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("rho", [20.0, math.inf, math.nan])
def test_ladder_sums_reject_rho_where_tanh_squared_is_not_below_one(rho):
    # the sums take |rho| <= 19, past every rho the (r, lam, eta) map returns,
    # for a float or an array element; tanh^2 rho rounds to 1 there
    for sums in (lambda x: eps_ladder(1, 0.5, x),
                 lambda x: purity_ladder(2, 0.5, x)):
        for value in (rho, np.array([0.5, rho])):
            with pytest.raises(ValueError, match="rho"):
                sums(value)


def test_ladder_sums_are_finite_just_below_where_tanh_squared_rounds_to_one():
    assert math.tanh(19.0) ** 2 < 1.0
    for n in (1, 2, 4):
        assert all(map(math.isfinite, eps_ladder(n, 0.5, 19.0)))
        assert math.isfinite(purity_ladder(n, 0.5, 19.0))
    rho = np.array([0.5, 18.0])
    assert np.isfinite(eps_ladder(2, 0.5, rho)).all()
    assert np.isfinite(purity_ladder(2, 0.5, rho)).all()


@pytest.mark.parametrize("rho", [19.0, 19.03])
def test_ladder_sums_take_a_float_and_an_array_alike(rho):
    # numpy's tanh rounds 19.0 to 1 and math's does not until ~19.07: the
    # bound is on rho itself, so a float and an array element pass or fail
    # together, and agree where they pass
    for sums in (lambda x: eps_ladder(2, 0.5, x),
                 lambda x: (purity_ladder(2, 0.5, x),)):
        if rho > 19.0:
            for value in (rho, np.array([rho])):
                with pytest.raises(ValueError, match="rho"):
                    sums(value)
            continue
        for want, got in zip(sums(rho), sums(np.array([rho]))):
            assert got[0] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("rho", [10.0, 15.0, 18.0, 19.0])
@pytest.mark.parametrize("n", [1, 2])
def test_ladder_sums_keep_their_digits_at_large_rho(n, rho, eps_mp):
    # formed as 1/(1 - tanh^2 rho), q lost the digits tanh^2 rho shares with
    # 1: eps_A|B read 2.2e-8 off at rho = 10, 3.3e-4 at 15 and 68 % at 19
    for got, want in zip(eps_ladder(n, 0.5, rho), eps_mp(n, 0.5, rho)):
        assert abs(got / float(want) - 1.0) <= 1e-14, (got, want)
