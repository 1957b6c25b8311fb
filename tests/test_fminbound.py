"""`verify._fminbound` against scipy's `fminbound`, its reference: the same
minimizer and minimum, bit for bit, on every bracket."""

import math
import random

import numpy as np
import pytest

from nla_distill.verify import _fminbound

fminbound = pytest.importorskip("scipy.optimize").fminbound


def _cases(n_per_family=300, seed=20261019):
    """(f, a, b, xtol): shifted quadratics, cusps |x - c|^p, exponential
    minus linear, and cosines (several minima in the bracket), each on a
    seeded bracket that may or may not hold the minimum.  Every other
    quadratic is inf past a seeded cut, as the circuit objective is outside
    the circuit route."""
    rng = random.Random(seed)
    for i in range(n_per_family):
        xtol = rng.choice((1e-5, 1e-8, 10.0 ** rng.uniform(-10.0, -3.0)))
        a = rng.uniform(-5.0, 5.0)
        b = a + 10.0 ** rng.uniform(-3.0, 1.0)
        c, s = rng.uniform(a - 1.0, b + 1.0), rng.uniform(1e-3, 1e3)
        cut = rng.uniform(c, b + 1.0) if i % 2 else math.inf
        yield (lambda x, c=c, s=s, cut=cut:
               s * (x - c) ** 2 + 0.5 if x <= cut else math.inf), a, b, xtol
        p = rng.uniform(0.5, 3.0)
        yield (lambda x, c=c, p=p: abs(x - c) ** p), a, b, xtol
        k = rng.uniform(1e-2, 1e2)
        yield (lambda x, k=k: math.exp(x) - k * x), a, b, xtol
        w, phase = rng.uniform(0.1, 20.0), rng.uniform(0.0, 2.0 * math.pi)
        yield (lambda x, w=w, phase=phase: math.cos(w * x + phase)), a, b, xtol


def test_fminbound_matches_scipy_bit_for_bit():
    cases = list(_cases())
    assert len(cases) >= 1000
    mismatches = []
    for f, a, b, xtol in cases:
        # scipy's numpy scalars warn on inf - inf in the parabola, which the
        # plain floats of the transcription turn into NaN silently
        with np.errstate(invalid="ignore"):
            x, fx, _, _ = fminbound(f, a, b, xtol=xtol, full_output=True,
                                    disp=0)
        if _fminbound(f, a, b, xtol) != (x, fx):
            mismatches.append((a, b, xtol))
    assert mismatches == []


def test_fminbound_returns_the_point_it_evaluated():
    seen = {}

    def f(x):
        seen[x] = (x - 0.3) ** 2
        return seen[x]

    x, fx = _fminbound(f, 0.0, 1.0, 1e-8)
    assert seen[x] == fx == min(seen.values())
    assert abs(x - 0.3) < 1e-8
