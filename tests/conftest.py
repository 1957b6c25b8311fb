"""Settings and oracles shared by every test module."""

import pytest
from hypothesis import settings

# every property test draws the same examples on every run
settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")


@pytest.fixture
def eps_mp():
    """(eps_B|A, eps_A|B)(N, kappa, rho) of the ladder sums in 40-digit
    mpmath, from the weights w_j q^j with their factorials and powers written
    out."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40

    def eps(n, kappa, rho):
        kappa, big_t = mp.mpf(kappa), mp.tanh(mp.mpf(rho)) ** 2
        q = 1 / (1 - big_t)
        v = [(mp.factorial(n) / mp.factorial(n - j) * (kappa / n) ** j) ** 2
             * q ** j for j in range(n + 1)]
        z = mp.fsum(v)
        nb = mp.fsum(j * vj for j, vj in enumerate(v)) / z
        na = nb + big_t * q * (nb + 1)
        ab = q * kappa / n * mp.fsum(v[j - 1] * j * (n - j + 1)
                                     for j in range(1, n + 1)) / z
        v_a, v_b, c2 = 1 + 2 * na, 1 + 2 * nb, 4 * ab ** 2
        return (v_b - c2 / v_a) ** 2, (v_a - c2 / v_b) ** 2

    return eps
