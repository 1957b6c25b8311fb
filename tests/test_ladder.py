"""Ladder sums for the N-stage heralded state against the independent routes:
the Fock-space closed-form state, the moments engine, the one-stage closed
forms, and the lossless pair state."""

import math

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
    sim_purity = fock.purity(fock.partial_trace(hs.state, ["A", "B"]))
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
