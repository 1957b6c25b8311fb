"""Conditional variances and the directional EPR product."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla_distill import fock, metrics, nla
from nla_distill.analytic import eps_no_nla
from test_fock import random_states


def test_vacuum_pair_uncorrelated():
    st = fock.vacuum(["A", "B"], [4, 4])
    cv = metrics.conditional_variances(st, "B", "A")
    assert cv.v_plus == pytest.approx(1.0, abs=1e-14)
    assert cv.v_minus == pytest.approx(1.0, abs=1e-14)
    assert cv.gamma_plus == 0.0 and cv.gamma_minus == 0.0
    res = metrics.epr_criterion(st, "A", "B")
    assert res.eps_b_given_a == pytest.approx(1.0, abs=1e-14)
    assert res.eps_a_given_b == pytest.approx(1.0, abs=1e-14)


def test_beamsplit_vacua_stay_uncorrelated():
    st = fock.vacuum(["A", "B", "C"], [4, 4, 4])
    st = fock.apply_beamsplitter(st, ("B", "C"), 0.3)
    cv = metrics.conditional_variances(st, "B", "A")
    assert cv.v_plus == pytest.approx(1.0, abs=1e-14)
    assert cv.v_minus == pytest.approx(1.0, abs=1e-14)


def test_lossy_epr_matches_closed_form():
    r, lam = 0.6, 0.3
    st = nla.lossy_channel_state(r, lam, 25)
    cv = metrics.conditional_variances(st, "B", "A")
    expect = lam + (1 - lam) / math.cosh(2 * r)
    assert math.sqrt(cv.v_plus * cv.v_minus) == pytest.approx(expect, abs=1e-6)


def test_pure_epr_criterion_value():
    r = 0.6
    st = fock.epr_state(math.tanh(r), ("A", "B"), 25)
    res = metrics.epr_criterion(st, "A", "B")
    # oracle: the lossless limit of the loss-channel closed form
    expect = (1.0 / math.cosh(2 * r)) ** 2
    assert res.eps_b_given_a == pytest.approx(expect, abs=1e-6)
    assert res.eps_a_given_b == pytest.approx(expect, abs=1e-6)


def test_lossy_epr_directionality_and_eq9():
    r, lam = 0.6, 0.3
    st = nla.lossy_channel_state(r, lam, 25)
    res = metrics.epr_criterion(st, "A", "B")
    ana_ba, ana_ab = eps_no_nla(r, lam)
    assert res.eps_b_given_a < res.eps_a_given_b
    assert res.eps_a_given_b == pytest.approx(ana_ab, abs=1e-6)


@pytest.mark.parametrize("r,lam", [(0.3, 0.2), (0.8, 0.5), (0.5, 0.05)])
def test_directionality_property(r, lam):
    st = nla.lossy_channel_state(r, lam, 30)
    res = metrics.epr_criterion(st, "A", "B")
    assert res.eps_b_given_a < res.eps_a_given_b


def test_gamma_is_the_true_minimizer():
    st = nla.lossy_channel_state(0.6, 0.3, 25)
    w = fock.norm_sq(st)
    cv = metrics.conditional_variances(st, "B", "A")
    for sign, v_opt, g_opt in (("+", cv.v_plus, cv.gamma_plus),
                               ("-", cv.v_minus, cv.gamma_minus)):
        var_b = fock.quadrature_moment(st, [("B", sign)] * 2) / w
        var_a = fock.quadrature_moment(st, [("A", sign)] * 2) / w
        cov = fock.quadrature_moment(st, [("B", sign), ("A", sign)]) / w
        for g in np.linspace(g_opt - 0.5, g_opt + 0.5, 20):
            val = var_b - 2 * g * cov + g * g * var_a
            assert val >= v_opt - 1e-12


def test_scale_invariance():
    st = nla.lossy_channel_state(0.5, 0.2, 20)
    scaled = fock.PureState(st.modes, 0.5 * st.amps)
    a = metrics.epr_criterion(st, "A", "B")
    b = metrics.epr_criterion(scaled, "A", "B")
    assert abs(a.eps_b_given_a - b.eps_b_given_a) < 1e-12
    assert abs(a.eps_a_given_b - b.eps_a_given_b) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_separable_bound_on_product_states(seed):
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(2):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        a /= np.linalg.norm(a)
        states.append(a)
    amps = np.tensordot(states[0], states[1], axes=0)
    st = fock.PureState(("A", "B"), amps)
    res = metrics.epr_criterion(st, "A", "B")
    assert res.eps_b_given_a >= 1 - 1e-10
    assert res.eps_a_given_b >= 1 - 1e-10


def test_degenerate_conditioner_rejected():
    # scissor-style mode with cutoff 1 in a sharp Fock state has zero X variance
    # only for vanishing norm; build a zero-variance conditioner via a trick:
    amps = np.zeros((2, 3), dtype=complex)
    amps[0, 0] = 1e-9
    st = fock.PureState(("A", "B"), amps)
    with pytest.raises(ValueError):
        metrics.conditional_variances(st, "B", "A")


def test_same_mode_rejected():
    st = fock.vacuum(["A", "B"], [2, 2])
    with pytest.raises(ValueError):
        metrics.conditional_variances(st, "A", "A")


def test_second_moments_make_no_quadrature_moment_calls(monkeypatch):
    # the criterion reads every moment from one ladder pass;
    # fock.quadrature_moment is only its oracle
    calls = []
    real = fock.quadrature_moment

    def counting(obj, factors):
        calls.append(tuple(factors))
        return real(obj, factors)

    monkeypatch.setattr(fock, "quadrature_moment", counting)
    st = nla.lossy_channel_state(0.5, 0.3, 12)
    res = metrics.epr_criterion(st, "A", "B")
    ba = metrics.conditional_variances(st, "B", "A")
    ab = metrics.conditional_variances(st, "A", "B")
    assert calls == []
    assert res.eps_b_given_a == ba.v_plus * ba.v_minus
    assert abs(res.eps_a_given_b - ab.v_plus * ab.v_minus) < 1e-14


@settings(max_examples=60)
@given(state=random_states(max_modes=3, max_cutoff=4), data=st.data())
def test_second_moments_match_quadrature_moment_oracle(state, data):
    # dense random states: population at every cutoff, (generically) nonzero
    # first moments on every mode
    target, conditioner = data.draw(st.permutations(state.modes))[:2]
    w = fock.norm_sq(state)
    for sign, var_t, var_c, cov in metrics._second_moments(state, target,
                                                           conditioner):
        def moment(*modes):
            return fock.quadrature_moment(state, [(m, sign) for m in modes]) / w

        mt, mc = moment(target), moment(conditioner)
        assert abs(var_t - (moment(target, target) - mt * mt)) <= 1e-12
        assert abs(var_c - (moment(conditioner, conditioner) - mc * mc)) <= 1e-12
        assert abs(cov - (moment(target, conditioner) - mt * mc)) <= 1e-12


def lower_by_roll(arr, ax):
    """Reference annihilator: roll the axis down, zero the wrapped top slot."""
    w = np.sqrt(np.arange(1.0, arr.shape[ax] + 1))
    w[-1] = 0.0
    return (np.expand_dims(w, [i for i in range(arr.ndim) if i != ax])
            * np.roll(arr, -1, axis=ax))


@settings(max_examples=40)
@given(state=random_states(min_modes=1, max_modes=4), data=st.data())
def test_lower_matches_the_roll_formula(state, data):
    psi = state.amps
    ax, bx = data.draw(st.integers(0, psi.ndim - 1)), data.draw(st.integers(0, psi.ndim - 1))
    once = metrics._lower(psi, ax)
    assert once.shape == psi.shape
    assert np.array_equal(once, lower_by_roll(psi, ax))
    # lowering a lowered array, as the second moments do
    assert np.array_equal(metrics._lower(once, bx), lower_by_roll(lower_by_roll(psi, ax), bx))
