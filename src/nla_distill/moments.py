"""Vacuum moments of ladder-operator words, and moments of heralded states.

This is the package's second, simulation-free route to expectation values of
the heralded amplifier output.  States of the form

    (1 + (kappa/N) a'b')^N  exp[rho (a'l' - a l)] |0>

are handled by commuting the pair-creation operator to the right with the
Bogoliubov rules and normal-ordering the leftover polynomial word by word.
Everything is exact rational-coefficient algebra on tiny words, so it shares
no code path (and no truncation) with the Fock-tensor simulation.

Which expanded words survive, and their vacuum values, depend only on the
stage count and the middle words, so each such pair is compiled once per
process into its nonzero terms; a call then only multiplies in kappa,
cosh(rho) and sinh(rho).  Measured on one core of a Xeon server (Python
3.11): compiling the six distinct middles of `eps_via_moments` costs
1.3 ms / 9 ms / 56 ms / 0.35 s at N = 1 / 2 / 3 / 4 (the expansion is still
exponential in N), after which one `eps_via_moments` call costs
0.06 / 0.07 / 0.10 / 0.13 ms.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import product
from math import comb

__all__ = ["vacuum_expectation", "heralded_moment", "quadrature_moment",
           "eps_via_moments"]

# A word is a tuple of (mode, is_dagger) applied left to right as written,
# e.g. ((A, True), (A, False)) is a'a.  A polynomial is a list of
# (coefficient, word) pairs.

Word = tuple[tuple[str, bool], ...]


@lru_cache(maxsize=200_000)
def vacuum_expectation(word: Word) -> float:
    """<0| w1 w2 ... wk |0> via [m, m'] = 1, recursively."""
    if not word:
        return 1.0
    # a leading creator kills the bra; a trailing annihilator kills the ket
    if word[0][1] or not word[-1][1]:
        return 0.0
    # find an (annihilator, creator) adjacent pair and commute
    for i in range(len(word) - 1):
        (m1, d1), (m2, d2) = word[i], word[i + 1]
        if not d1 and d2:
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2:]
            val = vacuum_expectation(swapped)
            if m1 == m2:
                val += vacuum_expectation(word[:i] + word[i + 2:])
            return val
    return 0.0


# pair-creation operator exp[rho (a'l' - a l)] conjugates an A or L symbol
# into cosh(rho) times itself plus sinh(rho) times the partner mode's symbol
# of opposite type (m sigma = cosh sigma m + sinh sigma n'); B passes through
_PARTNER = {"A": "L", "L": "A"}


@lru_cache(maxsize=256)
def _plan(n_stages: int, words: tuple[Word, ...]):
    """The nonzero terms of every (i, j) block of `heralded_moment`.

    Block (i, j) sandwiches each middle word between B^i A^i and A'^j B'^j.
    Substituting every A/L symbol expands a word into 2^k words, of which
    only those with a nonzero vacuum expectation survive.  Each survivor is
    kept as (middle index, cosh/sinh picks in symbol order, vacuum value);
    which terms survive depends on the words alone, never on kappa or rho.
    """
    blocks = []
    for i in range(n_stages + 1):
        left = (("B", False),) * i + (("A", False),) * i
        for j in range(n_stages + 1):
            right = (("A", True),) * j + (("B", True),) * j
            terms = []
            for idx, word in enumerate(words):
                choices = [((0, sym), (1, (_PARTNER[sym[0]], not sym[1])))
                           if sym[0] in _PARTNER else ((None, sym),)
                           for sym in left + word + right]
                for picked in product(*choices):
                    v = vacuum_expectation(tuple(sym for _, sym in picked))
                    if v:
                        picks = tuple(q for q, _ in picked if q is not None)
                        terms.append((idx, picks, v))
            if terms:
                blocks.append((i, j, tuple(terms)))
    return tuple(blocks)


def heralded_moment(n_stages: int, kappa: float, rho: float, middle) -> complex:
    """<Psi| M |Psi> for |Psi> = (1 + (kappa/N) a'b')^N sigma_AL^rho |0>.

    ``middle`` is a polynomial (list of (coef, word)) in modes "A", "B" and
    "L".  The state is unnormalized; pass ``[(1.0, ())]`` to get the squared
    norm.  Each term is the product coef * cosh/sinh picks * vacuum value,
    multiplied left to right, summed within its block, then across blocks.
    """
    if n_stages < 1:
        raise ValueError("n_stages must be >= 1")
    k = kappa / n_stages
    fac = (math.cosh(rho), math.sinh(rho))
    weight = [comb(n_stages, i) * k**i for i in range(n_stages + 1)]
    coefs = [c for c, _ in middle]
    total = 0j
    for i, j, terms in _plan(n_stages, tuple(w for _, w in middle)):
        clcr = weight[i] * weight[j]
        block = []
        for idx, picks, v in terms:
            x = clcr * coefs[idx]
            for q in picks:
                x = x * fac[q]
            block.append(x * v)
        total += sum(block)
    return total


def _x_poly(mode: str, sign: str):
    if sign == "+":
        return [(1.0, ((mode, False),)), (1.0, ((mode, True),))]
    # X- = (m - m')/i; products of two X- stay real through the -1 = (1/i)^2
    return [(-1j, ((mode, False),)), (1j, ((mode, True),))]


def _poly_mul(p1, p2):
    return [(c1 * c2, w1 + w2) for c1, w1 in p1 for c2, w2 in p2]


# one product polynomial per factor spec: rebuilding it on every call made
# eps_via_moments about a quarter slower
@lru_cache(maxsize=256)
def _quadrature_poly(factors: tuple) -> tuple:
    polys = [_x_poly(mode, sign) for mode, sign in factors] or [[(1.0, ())]]
    return tuple(reduce(_poly_mul, polys))


def quadrature_moment(n_stages: int, kappa: float, rho: float,
                      factors) -> float:
    """Re <Psi| X X ... |Psi> for the heralded state of `heralded_moment`.

    ``factors`` is `fock.quadrature_moment`'s [(mode, sign), ...] spec, e.g.
    ``[("A", "+"), ("B", "+")]``; no factors give the squared norm.
    """
    poly = _quadrature_poly(tuple(map(tuple, factors)))
    return heralded_moment(n_stages, kappa, rho, poly).real


def eps_via_moments(n_stages: int, kappa: float, rho: float) -> float:
    """eps_B|A of the heralded state, from ladder algebra alone."""
    z = quadrature_moment(n_stages, kappa, rho, [])
    prod = 1.0
    for sign in ("+", "-"):
        mb, ma, mab, fb, fa = (
            quadrature_moment(n_stages, kappa, rho, [(m, sign) for m in modes]) / z
            for modes in ("BB", "AA", "BA", "B", "A"))
        var_b = mb - fb * fb
        var_a = ma - fa * fa
        cov = mab - fa * fb
        prod *= var_b - cov * cov / var_a
    return prod
