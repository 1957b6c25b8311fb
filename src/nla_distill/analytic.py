"""Closed-form entanglement, purity and success-probability expressions.

These are the fast evaluation path for sweeps and the oracle the Fock-space
simulation is checked against.  The two big success-probability-parametrized
expressions (`eps_opt_formula`, `purity_formula`) are transcribed verbatim and
never hand-simplified; their correctness is established purely by agreement
with the independent simulation pipeline.  `eps_opt_formula` is the one-stage
search objective, whose roundoff the benchmark references pin; `purity_formula`
is an oracle for `verify` and the tests, as the ladder sums report purity.
The heralding probability has one form for every stage count, `success_prob`.

The success weights, the ladder sums behind `eps_ladder` and the parameter
layer's `_kappa_rho` and `_cosh2` also take numpy arrays, which is how the
searches scan a whole grid in one pass, on the ladder sums at every stage
count (the closed forms and the checked `kappa_rho` take floats).  The
elementary functions are picked by argument type (`_xp`), so a float argument
goes through `math`.  `_check_params` is the one check of each domain, run by
every function on what it takes: the channel as the floats (r, lam) included.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RECORD_SQUEEZING_DB",
    "DistillationResult",
    "InfeasibleParameterError",
    "eps_no_nla",
    "purity_no_nla",
    "purity_tradeoff",
    "kappa_rho",
    "success_prob",
    "eps_opt_formula",
    "purity_formula",
    "eps_ladder",
    "purity_ladder",
    "lambda_from_db",
    "db_from_lambda",
    "r_from_squeeze_db",
    "squeeze_db_from_r",
]

# Highest squeezing level demonstrated experimentally at the time the
# benchmark curves were drawn; exposed for the fig3 reproduction.
RECORD_SQUEEZING_DB = 12.7


class InfeasibleParameterError(ValueError):
    """Operating point outside the physically reachable domain."""


def _xp(x):
    """numpy for an array argument, math for a float."""
    return np if isinstance(x, np.ndarray) else math


# the parameter layer: the one check of each parameter domain, the one
# (r, lam, eta) -> (kappa, rho) map and the one cosh^2 r
def _check_params(r=0.0, lam=0.0, pi=1.0, eps_target=1.0, n_stages=1,
                  eta=0.5) -> int:
    """N as a Python int, the N every N-stage function computes with; raises
    ValueError for r < 0, lam outside [0, 1), pi or eps_target outside (0, 1],
    an N not an integer >= 1 (bools and floats included) or eta outside
    (0, 1), NaN included.  An argument left out passes."""
    if not r >= 0.0:
        raise ValueError(f"squeezing parameter r must be >= 0, got {r}")
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"loss reflectivity must be in [0, 1), got {lam}")
    if not 0.0 < pi <= 1.0:
        raise ValueError(f"success probability must be in (0, 1], got {pi}")
    if not 0.0 < eps_target <= 1.0:
        raise ValueError(f"eps_target must be in (0, 1], got {eps_target}")
    try:  # operator.index, not an ABC check: this runs on every search probe
        n = operator.index(n_stages) if n_stages is not True else 0
    except TypeError:
        n = 0
    if n < 1:
        raise ValueError(f"n_stages must be an integer >= 1, got {n_stages!r}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1), got {eta}")
    return n


def _kappa_rho(r, lam: float, eta):
    """Unchecked kappa = g sqrt(1 - lam) tanh(r), g = sqrt(eta / (1 - eta)),
    and rho, tanh(rho) = sqrt(lam) tanh(r); r and eta may be arrays."""
    chi = _xp(r).tanh(r)
    g = _xp(eta).sqrt(eta / (1.0 - eta))
    return g * math.sqrt(1.0 - lam) * chi, _xp(chi).atanh(math.sqrt(lam) * chi)


def kappa_rho(r: float, lam: float, eta: float) -> tuple[float, float]:
    """The (kappa, rho) that `eps_ladder` and `purity_ladder` take at squeezing
    r, loss lam and scissor transmissivity eta, checked; floats only."""
    _check_params(r, lam, eta=eta)
    return _kappa_rho(r, lam, eta)


def _cosh2(r):
    """cosh^2 r, +inf past a double's range (r > ~355.6); r may be an array."""
    try:
        return _xp(r).cosh(r) ** 2
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class DistillationResult:
    """Observables of one operating point of the distiller."""

    eps_b_given_a: float
    eps_a_given_b: float
    purity: float
    success_prob: float
    r_opt: float = math.nan
    eta_opt: float = math.nan
    n_stages: int = 0


# ---------------------------------------------------------------------------
# loss-only benchmarks


def eps_no_nla(r: float, lam: float) -> tuple[float, float]:
    """EPR-criterion products (eps_B|A, eps_A|B) of the lossy EPR state."""
    _check_params(r, lam)
    try:
        sech2r = 1.0 / math.cosh(2.0 * r)
    except OverflowError:  # r > ~355: the infinite-squeezing limit
        sech2r = 0.0
    eps_ba = (lam + (1.0 - lam) * sech2r) ** 2
    eps_ab = eps_ba / (1.0 - lam * (1.0 - sech2r)) ** 2
    return eps_ba, eps_ab


def purity_no_nla(r: float, lam: float) -> float:
    """Purity of the two-mode state after loss, 1/[1 + lam (cosh 2r - 1)]."""
    _check_params(r, lam)
    try:  # lam = 0 is pure at every r, r = inf included (0 * inf is NaN)
        return 1.0 / (1.0 + lam * (math.cosh(2.0 * r) - 1.0)) if lam else 1.0
    except OverflowError:  # r > ~355: the infinite-squeezing limit
        return 0.0


def purity_tradeoff(eps: float, lam: float) -> float:
    """Purity reachable at entanglement eps in [lam^2, 1] under loss lam (no
    amplifier)."""
    _check_params(lam=lam)
    if not eps <= 1.0:  # NaN included
        raise ValueError(f"entanglement {eps} is not <= 1: it certifies none")
    if eps < lam * lam:
        raise InfeasibleParameterError(
            f"entanglement {eps} below the loss floor {lam * lam}")
    if lam == 0.0:  # the pure source reaches every eps in [0, 1]
        return 1.0
    p = (1.0 - lam / math.sqrt(eps)) / (1.0 - lam)
    return max(p, 0.0)


# ---------------------------------------------------------------------------
# single-stage amplifier


def eps_opt_formula(r: float, lam: float, pi: float) -> float:
    """Entanglement of the heralded one-stage output at fixed success rate.

    Value of the squared bracket whose minimum over r is the optimized
    entanglement; transcribed term by term from the closed-form expression.
    """
    _check_params(r, lam, pi)
    ch2, ch4 = math.cosh(2.0 * r), math.cosh(4.0 * r)
    c2, s2 = _cosh2(r), math.sinh(r) ** 2
    t2 = math.tanh(r) ** 2
    sech2 = 1.0 / c2

    den1 = (1.0 + lam) * pi + (1.0 - lam) * pi * ch2
    den2 = (-4.0 + 3.0 * pi + lam * (4.0 + 2.0 * pi + 3.0 * lam * pi)
            + 2.0 * (1.0 - lam) * (2.0 + (1.0 - lam) * pi) * ch2
            - (1.0 - lam) ** 2 * pi * ch4
            - 4.0 * lam ** 2 * pi * sech2)
    if den1 == 0.0 or den2 == 0.0:
        raise InfeasibleParameterError(
            f"degenerate denominator at (r={r}, lam={lam}, pi={pi})")

    num2 = 8.0 * (1.0 + pi * c2 ** 2 + lam * s2 + lam ** 2 * pi * s2 ** 2
                  - c2 * (1.0 + 2.0 * lam * pi * s2)) * (1.0 + lam * t2)
    bracket = (1.0 - 2.0 * lam + 4.0 / pi
               - 2.0 * (1.0 - lam) * ch2
               - 8.0 / den1
               + num2 / den2)
    return bracket ** 2


def purity_formula(r: float, lam: float, pi: float) -> float:
    """Purity of the heralded one-stage output at fixed success rate.

    The published closed form for this quantity is unusable as printed
    (its terms do not reproduce the heralded state for any reading of the
    success probability), so this is the exact expression rederived from
    first principles: the heralded branch is an orthogonal mixture over the
    loss-mode photon ladder, whose purity sums to a rational function of
    T = lam tanh^2(r) and the pair amplitude kappa^2; kappa^2 is then
    eliminated in favor of the success probability.  Validated against the
    simulated heralded state (see the verification suite).
    """
    _check_params(r, lam, pi)
    t2 = math.tanh(r) ** 2
    c2 = _cosh2(r)
    big_t = lam * t2
    if r == 0.0:
        return 1.0
    den_k = pi * (1.0 - big_t) ** 2 * c2 - (1.0 - lam) * t2
    if abs(den_k) < 1e-300:
        raise InfeasibleParameterError(
            f"success probability at the gain->infinity boundary "
            f"(r={r}, lam={lam}, pi={pi})")
    k2 = (1.0 - lam) * t2 * (1.0 - big_t) * (1.0 - pi * (1.0 - big_t) * c2) / den_k
    if not k2 >= 0.0:  # NaN where cosh^2 r is inf: the r -> inf limit is < 0
        raise InfeasibleParameterError(
            f"no gain in (0, 1) reaches success probability {pi} at "
            f"(r={r}, lam={lam})")
    up = (1.0 - big_t) * ((1.0 - big_t) ** 2 * (1.0 + big_t) ** 2
                          + 2.0 * k2 * (1.0 - big_t) * (1.0 + big_t)
                          + k2 * k2 * (1.0 + big_t * big_t))
    down = (1.0 + big_t) ** 3 * ((1.0 - big_t) + k2) ** 2
    return up / down


# ---------------------------------------------------------------------------
# N-stage heralded state, summed over the loss-mode ladder
#
# (1 + (kappa/N) a'b')^N sigma_AL^rho |0> puts j photons in B and n + j in A
# when the loss mode holds n.  Tracing the loss mode out leaves an orthogonal
# mixture over n whose sums close in T = tanh^2(rho) and q = cosh^2(rho)
# (formed as 1/(1 - T) it loses digits as T nears 1), so every quantity is a
# finite sum over j <= N.


def _success_weights(n: int, r: float, lam: float):
    """u_j and cosh^2(rho) of Pi_N(eta) = (cosh^2 rho / cosh^2 r)
    * sum_j u_j eta^j (1-eta)^(N-j), the joint N-stage heralding probability
    in its all-positive Bernstein form; r may be an array."""
    t2 = _xp(r).tanh(r) ** 2
    q = (1.0 - lam) * t2
    ch2rho = 1.0 / (1.0 - lam * t2)  # cosh^2(rho)
    u = [(math.comb(n, j) * math.factorial(j) / n**j) ** 2 * (q * ch2rho) ** j
         for j in range(n + 1)]
    return u, ch2rho


def success_prob(n_stages: int, r: float, lam: float, eta: float) -> float:
    """Heralding probability of the N-stage amplifier (all 2^N patterns).

    Summed in the Bernstein form, whose terms are all positive; the expanded
    monomial coefficients cancel catastrophically at large N.
    """
    n_stages = _check_params(r, lam, n_stages=n_stages, eta=eta)
    u, ch2rho = _success_weights(n_stages, r, lam)
    total = sum(uj * eta**j * (1.0 - eta) ** (n_stages - j)
                for j, uj in enumerate(u))
    return total * ch2rho / _cosh2(r)  # 0 past r ~ 355.6


def _require(ok, need: str, name: str, x) -> None:
    """The ladder sums' ValueError, naming the elements of x where ok fails."""
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        bad = np.broadcast_to(x, ok.shape)[~ok] if isinstance(ok, np.ndarray) else x
        raise ValueError(f"the ladder sums need {need}, got {name} = {bad}")


def _ladder(n_stages: int, kappa: float, rho: float):
    """T, q = cosh^2 rho, and v_j = w_j q^j with w_j = (N!/(N-j)! (kappa/N)^j)^2,
    by recurrence (no factorials or powers), up to one common power-of-two
    factor (per element when kappa or rho is an array).  ValueError, for a
    float and an array element alike (NaN fails), unless |rho| <= 19 (tanh
    rounds to 1 from 19.0 in numpy, 19.07 in math; the (r, lam, eta) map's rho
    is at most 18.72) and kappa^2 q <= 2^256, so that no step outgrows the
    rescale (the searches' kappa^2 q is below 1e18, the floor's below 16).
    N is taken as checked: a Python int >= 1, from `_check_params`."""
    _require(abs(rho) <= 19.0, "|rho| <= 19", "rho", rho)
    big_t, q = _xp(rho).tanh(rho) ** 2, _cosh2(rho)
    # kappa is compared, not squared: its square can overflow
    _require(abs(kappa) <= 2.0**128 / _xp(q).sqrt(q),
             "kappa^2 cosh^2 rho <= 2^256", "kappa", kappa)
    v, vj = [1.0], 1.0
    for j in range(1, n_stages + 1):
        vj = vj * ((n_stages - j + 1) * kappa / n_stages) ** 2 * q
        over = vj > 2.0**256
        if over.any() if isinstance(over, np.ndarray) else over:
            # exact rescale: only ratios of the v_j enter the sums
            scale = 2.0 ** (-256 * over)
            vj, v = vj * scale, [x * scale for x in v]
        v.append(vj)
    return big_t, q, v


def eps_ladder(n_stages: int, kappa: float, rho: float) -> tuple[float, float]:
    """EPR products (eps_B|A, eps_A|B) of the N-stage heralded state.

    First moments vanish and X- mirrors X+, so both products follow from
    <a'a>, <b'b> and <ab>; B holds j photons with weight q v_j.
    kappa and rho may be arrays (of one shape, or one of them a float);
    they need |rho| <= 19 and kappa^2 cosh^2 rho <= 2^256 (`_ladder`).
    """
    n_stages = _check_params(n_stages=n_stages)
    return _eps_sums(n_stages, kappa, _ladder(n_stages, kappa, rho))


def _eps_sums(n_stages: int, kappa: float, ladder) -> tuple[float, float]:
    """``eps_ladder``'s body on a ``_ladder(n_stages, kappa, rho)`` result."""
    big_t, q, v = ladder
    n, z = n_stages, sum(v)
    nb = sum(j * vj for j, vj in enumerate(v)) / z
    na = nb + big_t * q * sum((j + 1) * vj for j, vj in enumerate(v)) / z
    # <ab> joins j - 1 and j: q v_j j N / ((N-j+1) kappa), via v_{j-1} so
    # that kappa = 0 needs no division
    ab = q * sum(v[j - 1] * j * (n - j + 1) * kappa / n
                 for j in range(1, n + 1)) / z
    v_a, v_b, c2 = 1.0 + 2.0 * na, 1.0 + 2.0 * nb, (2.0 * ab) ** 2
    return (v_b - c2 / v_a) ** 2, (v_a - c2 / v_b) ** 2


def _eps_slope(n_stages: int, kappa: float, ladder) -> float:
    """d eps_B|A / d kappa on a ``_ladder(n_stages, kappa, rho)`` result.

    v_j goes as kappa^(2j), so d v_j / d kappa = 2 j v_j / kappa; every sum
    enters as a ratio, so the ladder's common rescale drops out.
    """
    big_t, q, v = ladder
    n, z = n_stages, sum(v)
    nb = sum(j * vj for j, vj in enumerate(v)) / z
    nb2 = sum(j * j * vj for j, vj in enumerate(v)) / z
    dnb = 2.0 / kappa * (nb2 - nb * nb)
    na, dna = nb + big_t * q * (nb + 1.0), (1.0 + big_t * q) * dnb
    # <ab> = q kappa A / (N z), A = sum_j v_{j-1} j (N-j+1), and kappa v_{j-1}
    # goes as kappa^(2j-1)
    w = [v[j - 1] * j * (n - j + 1) for j in range(1, n + 1)]
    a0 = sum(w)
    a1 = sum((2 * j - 1) * wj for j, wj in enumerate(w, 1))
    ab = q * kappa * a0 / (n * z)
    dab = q * a1 / (n * z) - 2.0 * ab * nb / kappa
    v_a, c2 = 1.0 + 2.0 * na, 4.0 * ab * ab
    g = 1.0 + 2.0 * nb - c2 / v_a
    return 2.0 * g * (2.0 * dnb - (8.0 * ab * dab * v_a - 2.0 * c2 * dna)
                      / (v_a * v_a))


def purity_ladder(n_stages: int, kappa: float, rho: float) -> float:
    """Purity of the N-stage heralded state with the loss mode traced out:
    the squared block norms, grouped by powers of T^2, are sum_i T^(2i)
    (sum_(j>=i) C(j,i) v_j (1+T)^-j)^2 / ((1 - T^2) q^2 (sum_j v_j)^2)."""
    n_stages = _check_params(n_stages=n_stages)
    return _purity_sums(n_stages, _ladder(n_stages, kappa, rho))


def _purity_sums(n_stages: int, ladder) -> float:
    """``purity_ladder``'s body on a ``_ladder`` result."""
    big_t, q, v = ladder
    y, z = 1.0 / (1.0 + big_t), sum(v)
    s = [vj / z * y**j for j, vj in enumerate(v)]
    # s_i -> sum_(j>=i) C(j,i) s_j, the coefficients of sum_j s_j (x+1)^j,
    # by additions of positive terms only
    for i in range(n_stages):
        for j in range(n_stages - 1, i - 1, -1):
            s[j] = s[j] + s[j + 1]
    return sum(big_t ** (2 * i) * si * si for i, si in enumerate(s)) * y / q


# ---------------------------------------------------------------------------
# unit conventions


def lambda_from_db(db: float) -> float:
    """Channel loss reflectivity from a dB attenuation, lam = 1 - 10^(-dB/10).

    The attenuation must be finite, >= 0 dB, and leave a reflectivity below 1
    (past about 160 dB lam rounds to 1).
    """
    lam = 1.0 - 10.0 ** (-db / 10.0) if 0.0 <= db < math.inf else 1.0
    if lam == 1.0:
        raise ValueError(f"loss must be finite, >= 0 dB and leave a "
                         f"reflectivity below 1, got {db} dB")
    return lam


def db_from_lambda(lam: float) -> float:
    _check_params(lam=lam)
    return -10.0 * math.log10(1.0 - lam)


def r_from_squeeze_db(db: float) -> float:
    """Squeezing parameter giving a squeezed-quadrature variance 10^(-dB/10)."""
    return db * math.log(10.0) / 20.0


def squeeze_db_from_r(r: float) -> float:
    return 20.0 * r / math.log(10.0)
