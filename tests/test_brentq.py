"""`optimize._brentq` against scipy's C `brentq`, its reference: the same
double for every bracket, and the same errors."""

import math
import random

import numpy as np
import pytest
from scipy.optimize import brentq

from nla_distill.optimize import _brentq


def _cases(n_per_family=700, seed=20261018):
    """(f, a, b) with f changing sign on [a, b]: odd powers, tanh plus a
    cubic, and an exponential, each around a seeded root.  Half the odd
    powers are scaled by 1e-300, which underflows the extrapolation's
    denominator to 0 on most brackets (C divides to inf there, and bisects)."""
    rng = random.Random(seed)
    for i in range(n_per_family):
        c, k = rng.uniform(-50.0, 50.0), rng.choice((1, 3, 5, 7, 9))
        root = math.copysign(abs(c) ** (1.0 / k), c)
        scale = 1e-300 if i % 2 else 1.0
        yield (lambda x, c=c, k=k, scale=scale: scale * (x ** k - c),
               root - rng.uniform(1e-3, 3.0), root + rng.uniform(1e-3, 3.0))
        c, s = rng.uniform(-3.0, 3.0), rng.uniform(0.01, 5.0)
        yield (lambda x, c=c, s=s: math.tanh(x - c) + s * (x - c) ** 3,
               c - rng.uniform(1e-3, 4.0), c + rng.uniform(1e-3, 4.0))
        c = rng.uniform(1e-3, 1e3)
        root = math.log(c)
        yield (lambda x, c=c: math.exp(x) - c,
               root - rng.uniform(1e-3, 5.0), root + rng.uniform(1e-3, 5.0))


def test_brentq_matches_scipy_bit_for_bit():
    cases = list(_cases())
    assert len(cases) >= 2000
    mismatches = [(a, b) for f, a, b in cases
                  if _brentq(f, a, b) != brentq(f, a, b, xtol=1e-12)]
    assert mismatches == []


def test_brentq_raises_as_scipy_does():
    def same_sign(x):
        return x * x + 1.0

    def triple_root(x):  # flat enough that 100 steps do not converge
        return (x - 3.567737771798308) ** 3

    for f, a, b, error in ((same_sign, 0.0, 1.0, ValueError),
                           (triple_root, 0.27, 4.2, RuntimeError)):
        with pytest.raises(error) as ours:
            _brentq(f, a, b)
        with pytest.raises(error) as scipys:
            brentq(f, a, b, xtol=1e-12)
        assert str(ours.value) == str(scipys.value)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0)


def test_brentq_endpoint_roots_and_float_inputs():
    assert _brentq(lambda x: x - 0.25, 0.25, 1.0) == 0.25
    assert _brentq(lambda x: x - 1.0, 0.25, 1.0) == 1.0
    root = _brentq(lambda x: x * x - 2.0, np.float64(0.0), np.float64(2.0))
    assert type(root) is float and abs(root - math.sqrt(2.0)) < 1e-12
