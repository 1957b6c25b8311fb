"""Ladder-word vacuum algebra and the commutation-based moment engine."""

import itertools
import math
from functools import lru_cache
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla_distill import fock, metrics, moments, nla
from nla_distill.analytic import kappa_rho

A_DAG, A = ("A", True), ("A", False)
L_DAG, L = ("L", True), ("L", False)


# Reference: the word-by-word expansion that the compiled plans replace.
# Every (i, j) block substitutes each word symbol by symbol (mode B passes
# through as x 1.0) and sums coef * vacuum value over all 2^k words,
# zeros included.

def _ref_substitute(poly, rules):
    out = []
    for coef, word in poly:
        terms = [(coef, ())]
        for sym in word:
            repl = rules.get(sym, [(1.0, sym)])
            terms = [(c * rc, w + (rsym,)) for c, w in terms for rc, rsym in repl]
        out.extend(terms)
    return out


def _ref_poly_vacuum(poly):
    return sum(c * moments.vacuum_expectation(w) for c, w in poly)


def _ref_heralded_moment(n_stages, kappa, rho, middle):
    k = kappa / n_stages
    ch, sh = math.cosh(rho), math.sinh(rho)
    rules = {A: [(ch, A), (sh, L_DAG)], A_DAG: [(ch, A_DAG), (sh, L)],
             L: [(ch, L), (sh, A_DAG)], L_DAG: [(ch, L_DAG), (sh, A)]}
    total = 0j
    for i in range(n_stages + 1):
        left = tuple([("B", False)] * i + [A] * i)
        cl = comb(n_stages, i) * k**i
        for j in range(n_stages + 1):
            right = tuple([A_DAG] * j + [("B", True)] * j)
            cr = comb(n_stages, j) * k**j
            poly = [(cl * cr * c, left + w + right) for c, w in middle]
            total += _ref_poly_vacuum(_ref_substitute(poly, rules))
    return total


def _first_moments():
    return [moments._x_poly(m, s) for m in "ABL" for s in "+-"]


def _even_middles():
    """Every even middle that eps_via_moments and verify build."""
    out = [[(1.0, ())], [(1.0, (A_DAG, A))], [(1.0, (A, L))]]
    for sign in ("+", "-"):
        xa, xb = moments._x_poly("A", sign), moments._x_poly("B", sign)
        out += [moments._poly_mul(xb, xb), moments._poly_mul(xa, xa),
                moments._poly_mul(xb, xa)]
    xa, xl = moments._x_poly("A", "+"), moments._x_poly("L", "+")
    out.append(moments._poly_mul(xa, xl))
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), kappa=st.floats(0.0, 3.0), rho=st.floats(0.0, 2.0))
def test_compiled_moments_are_bit_identical_to_word_expansion(n, kappa, rho):
    for middle in _even_middles():
        got = moments.heralded_moment(n, kappa, rho, middle)
        assert got == _ref_heralded_moment(n, kappa, rho, middle), middle
    for middle in _first_moments():
        assert moments.heralded_moment(n, kappa, rho, middle) == 0
        assert _ref_heralded_moment(n, kappa, rho, middle) == 0
    got = moments.eps_via_moments(n, kappa, rho)
    with mock.patch.object(moments, "heralded_moment", _ref_heralded_moment):
        assert got == moments.eps_via_moments(n, kappa, rho)


def _eps_with_first_moments(n_stages, kappa, rho):
    """eps_via_moments as written before the zero first moments were dropped."""
    qm = moments.quadrature_moment
    z = qm(n_stages, kappa, rho, [])
    prod = 1.0
    for sign in ("+", "-"):
        mb, ma, mab, fb, fa = (
            qm(n_stages, kappa, rho, [(m, sign) for m in modes]) / z
            for modes in ("BB", "AA", "BA", "B", "A"))
        var_b = mb - fb * fb
        var_a = ma - fa * fa
        cov = mab - fa * fb
        prod *= var_b - cov * cov / var_a
    return prod


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 4), kappa=st.floats(0.0, 3.0), rho=st.floats(0.0, 2.0))
def test_first_moments_vanish_so_eps_drops_them(n, kappa, rho):
    # a one-symbol middle makes every sandwiched word odd: no plan term
    for mode in "ABL":
        assert moments._plan(n, (((mode, False),), ((mode, True),))) == ()
        for sign in "+-":
            assert moments.quadrature_moment(n, kappa, rho, [(mode, sign)]) == 0.0
    assert moments.eps_via_moments(n, kappa, rho) == \
        _eps_with_first_moments(n, kappa, rho)


@lru_cache(maxsize=None)
def _commuted_vacuum(word):
    """Reference: <0| word |0> by commuting [m, m'] = 1, recursively."""
    if not word:
        return 1.0
    # a leading creator kills the bra; a trailing annihilator kills the ket
    if word[0][1] or not word[-1][1]:
        return 0.0
    # find an (annihilator, creator) adjacent pair and commute
    for i in range(len(word) - 1):
        (m1, d1), (m2, d2) = word[i], word[i + 1]
        if not d1 and d2:
            val = _commuted_vacuum(word[:i] + (word[i + 1], word[i]) + word[i + 2:])
            if m1 == m2:
                val += _commuted_vacuum(word[:i] + word[i + 2:])
            return val
    return 0.0


def test_vacuum_walk_matches_commutation_recursion():
    # every word of up to six symbols over {A, B, L} x {m, m'}, uncached
    symbols = [(mode, dagger) for mode in "ABL" for dagger in (False, True)]
    for k in range(7):
        for word in itertools.product(symbols, repeat=k):
            assert moments.vacuum_expectation.__wrapped__(word) == \
                _commuted_vacuum(word), word


def test_vacuum_expectation_basics():
    assert moments.vacuum_expectation(()) == 1.0
    assert moments.vacuum_expectation((A,)) == 0.0
    assert moments.vacuum_expectation((A_DAG,)) == 0.0
    assert moments.vacuum_expectation((A, A_DAG)) == 1.0       # [a, a'] = 1
    assert moments.vacuum_expectation((A_DAG, A)) == 0.0
    assert moments.vacuum_expectation((A, A, A_DAG, A_DAG)) == 2.0
    assert moments.vacuum_expectation((A, L, A_DAG, L_DAG)) == 1.0
    assert moments.vacuum_expectation((A, L, L_DAG, A_DAG)) == 1.0
    assert moments.vacuum_expectation((A, L_DAG)) == 0.0


def test_pair_source_photon_number():
    # <n_A> on the two-mode pair-creation state equals sinh^2(rho)
    for rho in (0.2, 0.5):
        z = moments.heralded_moment(1, 0.0, rho, [(1.0, ())]).real
        na = moments.heralded_moment(1, 0.0, rho, [(1.0, (A_DAG, A))]).real
        assert na / z == pytest.approx(math.sinh(rho) ** 2, abs=1e-12)


def test_pair_source_cross_moment():
    for rho in (0.2, 0.5):
        z = moments.heralded_moment(1, 0.0, rho, [(1.0, ())]).real
        al = moments.heralded_moment(1, 0.0, rho, [(1.0, (A, L))]).real
        assert al / z == pytest.approx(math.sinh(rho) * math.cosh(rho), abs=1e-12)


@pytest.mark.parametrize("rho", [0.2, 0.5])
def test_commutation_route_matches_simulation(rho):
    """The identity m sigma = cosh sigma m + sinh sigma n' drives the algebra;
    its moments must agree with direct Fock simulation."""
    st = fock.epr_state(math.tanh(rho), ("A", "L"), 40)
    z = fock.norm_sq(st)
    zg = moments.quadrature_moment(1, 0.0, rho, [])
    for factors in ([("A", "+")] * 2, [("A", "-")] * 2, [("A", "+"), ("L", "+")]):
        sim = fock.quadrature_moment(st, factors) / z
        alg = moments.quadrature_moment(1, 0.0, rho, factors) / zg
        assert abs(sim - alg) < 1e-10


@pytest.mark.parametrize("n_st", [1, 2, 3])
def test_quadrature_moment_takes_the_fock_spec(n_st):
    # one factor spec drives both routes on the heralded state
    r, lam = 0.3, 0.4
    kappa, rho = kappa_rho(r, lam, 0.7)
    st = nla.closed_form_state(n_st, r, lam, 0.7, 40).state
    z = fock.norm_sq(st)
    zg = moments.quadrature_moment(n_st, kappa, rho, [])
    assert zg == moments.heralded_moment(n_st, kappa, rho, [(1.0, ())]).real
    for factors in ([("B", "+")] * 2, [("B", "-"), ("A", "-")], [("A", "+")],
                    [("L", "+"), ("B", "-")], [("A", "-"), ("L", "-")]):
        sim = fock.quadrature_moment(st, factors) / z
        alg = moments.quadrature_moment(n_st, kappa, rho, factors) / zg
        assert abs(sim - alg) < 1e-10, factors
    xb, xa = moments._x_poly("B", "-"), moments._x_poly("A", "-")
    assert moments.quadrature_moment(n_st, kappa, rho,
                                     [("B", "-"), ("A", "-")]) == \
        moments.heralded_moment(n_st, kappa, rho,
                                moments._poly_mul(xb, xa)).real


@pytest.mark.parametrize("n_st,r,lam,eta", [
    (1, 0.5, 0.3, 0.8),
    (1, 0.2, 0.6, 0.5),
    (2, 0.3, 0.3, 0.7),
])
def test_eps_via_moments_matches_fock_route(n_st, r, lam, eta):
    hs = nla.closed_form_state(n_st, r, lam, eta, 40)
    sim = metrics.epr_criterion(hs.state, "A", "B").eps_b_given_a
    alg = moments.eps_via_moments(n_st, *kappa_rho(r, lam, eta))
    assert abs(sim - alg) < 1e-10


def test_heralded_moment_rejects_bad_stage_count():
    with pytest.raises(ValueError):
        moments.heralded_moment(0, 0.1, 0.1, [(1.0, ())])
