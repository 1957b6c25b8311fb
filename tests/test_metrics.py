"""The directional EPR product of Fock-simulated states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla_distill import fock, metrics, nla
from nla_distill.analytic import eps_ladder, eps_no_nla, kappa_rho
from test_fock import random_states


def test_vacuum_pair_uncorrelated():
    st = fock.vacuum(["A", "B"], [4, 4])
    assert [cov for *_, cov in metrics._second_moments(st, "B", "A")] == [0.0, 0.0]
    eps_ba, eps_ab = metrics.epr_criterion(st, "A", "B")
    assert eps_ba == pytest.approx(1.0, abs=1e-14)
    assert eps_ab == pytest.approx(1.0, abs=1e-14)


def test_criterion_returns_two_python_floats():
    out = metrics.epr_criterion(nla.lossy_channel_state(0.5, 0.3, 12), "A", "B")
    assert type(out) is tuple and [type(x) for x in out] == [float, float]


def test_beamsplit_vacua_stay_uncorrelated():
    st = fock.vacuum(["A", "B", "C"], [4, 4, 4])
    st = fock.apply_beamsplitter(st, ("B", "C"), 0.3)
    eps_ba, eps_ab = metrics.epr_criterion(st, "A", "B")
    assert eps_ba == pytest.approx(1.0, abs=1e-14)
    assert eps_ab == pytest.approx(1.0, abs=1e-14)


def test_lossy_epr_matches_closed_form():
    r, lam = 0.6, 0.3
    st = nla.lossy_channel_state(r, lam, 25)
    eps_ba, _ = metrics.epr_criterion(st, "A", "B")
    expect = lam + (1 - lam) / math.cosh(2 * r)
    assert math.sqrt(eps_ba) == pytest.approx(expect, abs=1e-6)


def test_pure_epr_criterion_value():
    r = 0.6
    st = fock.epr_state(math.tanh(r), ("A", "B"), 25)
    eps_ba, eps_ab = metrics.epr_criterion(st, "A", "B")
    # oracle: the lossless limit of the loss-channel closed form
    expect = (1.0 / math.cosh(2 * r)) ** 2
    assert eps_ba == pytest.approx(expect, abs=1e-6)
    assert eps_ab == pytest.approx(expect, abs=1e-6)


def test_lossy_epr_directionality_and_eq9():
    r, lam = 0.6, 0.3
    st = nla.lossy_channel_state(r, lam, 25)
    eps_ba, eps_ab = metrics.epr_criterion(st, "A", "B")
    ana_ba, ana_ab = eps_no_nla(r, lam)
    assert eps_ba < eps_ab
    assert eps_ab == pytest.approx(ana_ab, abs=1e-6)


@pytest.mark.parametrize("r,lam", [(0.3, 0.2), (0.8, 0.5), (0.5, 0.05)])
def test_directionality_property(r, lam):
    st = nla.lossy_channel_state(r, lam, 30)
    eps_ba, eps_ab = metrics.epr_criterion(st, "A", "B")
    assert eps_ba < eps_ab


def test_gamma_is_the_true_minimizer():
    # eps_B|A is the product of min_g Var(X_B - g X_A) over the two
    # quadratures: no gain on a grid around the oracle's optimum does better
    st = nla.lossy_channel_state(0.6, 0.3, 25)
    w = fock.norm_sq(st)
    eps_ba, _ = metrics.epr_criterion(st, "A", "B")
    curves = []
    for sign in ("+", "-"):
        var_b = fock.quadrature_moment(st, [("B", sign)] * 2) / w
        var_a = fock.quadrature_moment(st, [("A", sign)] * 2) / w
        cov = fock.quadrature_moment(st, [("B", sign), ("A", sign)]) / w
        g_opt = cov / var_a
        gs = np.append(np.linspace(g_opt - 0.5, g_opt + 0.5, 20), g_opt)
        curves.append(var_b - 2 * gs * cov + gs * gs * var_a)
    products = np.outer(*curves)
    assert np.all(eps_ba <= products + 1e-12)
    assert products.min() == pytest.approx(eps_ba, abs=1e-12)


def test_scale_invariance():
    st = nla.lossy_channel_state(0.5, 0.2, 20)
    scaled = fock.PureState(st.modes, 0.5 * st.amps)
    a = metrics.epr_criterion(st, "A", "B")
    b = metrics.epr_criterion(scaled, "A", "B")
    assert abs(a[0] - b[0]) < 1e-12
    assert abs(a[1] - b[1]) < 1e-12


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
    eps_ba, eps_ab = metrics.epr_criterion(st, "A", "B")
    assert eps_ba >= 1 - 1e-10
    assert eps_ab >= 1 - 1e-10


def test_zero_norm_state_rejected():
    for st in (fock.PureState(("A", "B"), np.zeros((2, 3))),
               nla.closed_form_state(1, 800.0, 0.3, 0.5, 10)):
        with pytest.raises(ValueError, match="zero norm"):
            metrics.epr_criterion(st, "A", "B")


def test_tiny_norm_state_equals_its_rescaled_self():
    # the criterion is scale-free, however small the branch's probability
    tiny_vacuum = np.zeros((2, 3))
    tiny_vacuum[0, 0] = 1e-9
    hs = nla.closed_form_state(20, 0.3, 0.3, 0.9, 30)
    assert fock.norm_sq(hs) < 1e-25
    for st in (fock.PureState(("A", "B"), tiny_vacuum),
               fock.PureState(("A", "B", "L"), hs.amps)):
        unit = fock.PureState(st.modes, st.amps / math.sqrt(fock.norm_sq(st)))
        got, want = (metrics.epr_criterion(s, "A", "B") for s in (st, unit))
        assert got == pytest.approx(want, rel=1e-12)
    kappa, rho = kappa_rho(0.3, 0.3, 0.9)
    assert got == pytest.approx(eps_ladder(20, kappa, rho), rel=1e-12)


def test_same_mode_rejected():
    st = fock.vacuum(["A", "B"], [2, 2])
    with pytest.raises(ValueError):
        metrics.epr_criterion(st, "A", "A")


def test_second_moments_make_no_quadrature_moment_calls(monkeypatch):
    # the criterion reads every moment from one ladder pass;
    # fock.quadrature_moment is only its oracle
    calls = []
    real = fock.quadrature_moment

    def counting(obj, factors):
        calls.append(tuple(factors))
        return real(obj, factors)

    monkeypatch.setattr(fock, "quadrature_moment", counting)
    st = nla.lossy_channel_state(0.5, 0.3, 24)
    eps = metrics.epr_criterion(st, "A", "B")
    assert calls == []
    assert eps == pytest.approx(eps_no_nla(0.5, 0.3), abs=1e-10)


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
