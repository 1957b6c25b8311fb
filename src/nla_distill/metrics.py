"""Entanglement and purity measures: conditional variances and the EPR product.

The criterion is directional: eps_B|A multiplies the two conditional variances
of B's quadratures given the optimal linear estimate from A's.  Values below 1
certify entanglement; smaller is stronger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import ModeLabel, PureState

__all__ = ["ConditionalVariancePair", "EprResult", "conditional_variances",
           "epr_criterion"]

_DEGENERATE_VAR = 1e-12


@dataclass(frozen=True)
class ConditionalVariancePair:
    """Optimal conditional variances V+/V- and their estimation gains."""

    v_plus: float
    v_minus: float
    gamma_plus: float
    gamma_minus: float


@dataclass(frozen=True)
class EprResult:
    eps_b_given_a: float
    eps_a_given_b: float


def _lower(arr: np.ndarray, ax: int) -> np.ndarray:
    """The annihilator along one axis, (a psi)_n = sqrt(n + 1) psi_(n+1), in
    the same box: lowering never leaves it, so the ladder sums below are exact
    at the cutoff (the top slot would read the empty slot past it)."""
    w = np.sqrt(np.arange(1.0, arr.shape[ax] + 1))
    w[-1] = 0.0
    return (np.expand_dims(w, [i for i in range(arr.ndim) if i != ax])
            * np.roll(arr, -1, axis=ax))


def _second_moments(state: PureState, target: ModeLabel, conditioner: ModeLabel):
    """(sign, Var_t, Var_c, Cov) for X+ and X-, first moments subtracted and
    the state normalized, so subnormalized and displaced states alike work.

    One pass of shifted-slice ladder sums, exact at the cutoff: <a>, <a^2>,
    <a'a> per mode, <a_t a_c>, <a_t' a_c>."""
    if target == conditioner:
        raise ValueError("target and conditioner must differ")
    t, c = state.axis(target), state.axis(conditioner)
    psi = state.amps
    w = float(np.vdot(psi, psi).real)
    if w <= _DEGENERATE_VAR:
        raise ValueError("state has (near-)zero norm; nothing to normalize")
    low = {ax: _lower(psi, ax) for ax in (t, c)}
    a = [np.vdot(psi, low[ax]) for ax in (t, c)]
    a2 = [np.vdot(psi, _lower(low[ax], ax)) for ax in (t, c)]
    n = [np.vdot(low[ax], low[ax]).real for ax in (t, c)]
    aa = np.vdot(psi, _lower(low[t], c)).real
    ada = np.vdot(low[t], low[c]).real
    out = []
    for sign, s in (("+", 1.0), ("-", -1.0)):
        mean = [2.0 * (x.real if s > 0 else x.imag) / w for x in a]
        var = [(2.0 * (s * x2.real + nx) + w) / w - m * m
               for x2, nx, m in zip(a2, n, mean)]
        cov = 2.0 * (s * aa + ada) / w - mean[0] * mean[1]
        out.append((sign, var[0], var[1], cov))
    return out


def _conditioned(sign: str, var_t: float, var_c: float,
                 cov: float) -> tuple[float, float]:
    if var_c < _DEGENERATE_VAR:
        raise ValueError(f"conditioner quadrature X{sign} has (near-)zero variance")
    return var_t - cov * cov / var_c, cov / var_c


def conditional_variances(state: PureState, target: ModeLabel,
                          conditioner: ModeLabel) -> ConditionalVariancePair:
    """min_gamma Var(X_target - gamma X_conditioner) for both quadratures.

    The optimum is V = Var_t - Cov^2 / Var_c at gamma = Cov / Var_c (the
    input is normalized internally).
    """
    (v_plus, g_plus), (v_minus, g_minus) = (
        _conditioned(*m) for m in _second_moments(state, target, conditioner))
    return ConditionalVariancePair(v_plus=v_plus, v_minus=v_minus,
                                   gamma_plus=g_plus, gamma_minus=g_minus)


def epr_criterion(state: PureState, a: ModeLabel, b: ModeLabel) -> EprResult:
    """EPR products in both directions; eps_B|A conditions B's variance on A.

    Each quadrature moment is computed once and serves both directions.
    """
    moments = _second_moments(state, b, a)
    ba = [_conditioned(s, vb, va, cov)[0] for s, vb, va, cov in moments]
    ab = [_conditioned(s, va, vb, cov)[0] for s, vb, va, cov in moments]
    return EprResult(eps_b_given_a=ba[0] * ba[1], eps_a_given_b=ab[0] * ab[1])
