"""Ladder sums for the N-stage heralded state against the independent routes:
the Fock-space closed-form state, the moments engine, the one-stage closed
forms, and the lossless pair state."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla_distill import fock, metrics, moments, nla
from nla_distill.analytic import (ChannelParams, NlaParams, eps_ladder,
                                  eps_opt_formula, purity_formula,
                                  purity_ladder, success_prob_1stage)

# r up to 1 keeps T = lam tanh^2 r below 0.47, so a cutoff of 80 leaves a
# truncation tail far below the tolerances
squeezing = st.floats(0.05, 1.0)
loss = st.floats(0.0, 0.8)
transmissivity = st.floats(0.05, 0.95)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), r=squeezing, lam=loss, eta=transmissivity)
def test_ladder_matches_fock_closed_form_state(n, r, lam, eta):
    p = NlaParams(n, eta, ChannelParams(r, lam))
    hs = nla.closed_form_state(n, p.channel, eta, 80)
    assert hs.state.tail_mass < 1e-12
    sim = metrics.epr_criterion(hs.state, "A", "B")
    sim_purity = fock.purity(hs.state, ["A", "B"])
    eps_ba, eps_ab = eps_ladder(n, p.kappa, p.rho)
    assert abs(eps_ba - sim.eps_b_given_a) < 1e-10
    assert abs(eps_ab - sim.eps_a_given_b) < 1e-10
    assert abs(purity_ladder(n, p.kappa, p.rho) - sim_purity) < 1e-10


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 4), kappa=st.floats(0.0, 3.0), rho=st.floats(0.0, 1.0))
def test_ladder_matches_moments_engine(n, kappa, rho):
    alg = moments.eps_via_moments(n, kappa, rho)
    assert abs(eps_ladder(n, kappa, rho)[0] - alg) < 1e-12


@settings(max_examples=50, deadline=None)
@given(r=squeezing, lam=loss, eta=transmissivity)
def test_ladder_matches_one_stage_closed_forms(r, lam, eta):
    ch = ChannelParams(r, lam)
    pi = success_prob_1stage(ch, eta)
    p = NlaParams(1, eta, ch)
    assert abs(eps_ladder(1, p.kappa, p.rho)[0]
               - eps_opt_formula(r, lam, pi)) < 1e-12
    assert abs(purity_ladder(1, p.kappa, p.rho)
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
