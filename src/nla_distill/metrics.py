"""Entanglement and purity measures: conditional variances and the EPR product.

The criterion is directional: eps_B|A multiplies the two conditional variances
of B's quadratures given the optimal linear estimate from A's.  Values below 1
certify entanglement; smaller is stronger.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fock
from .fock import ModeLabel, PureState, StateLike

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


def _weight(obj: StateLike) -> float:
    w = fock.norm_sq(obj) if isinstance(obj, PureState) else obj.trace
    if w <= _DEGENERATE_VAR:
        raise ValueError("state has (near-)zero norm; nothing to normalize")
    return w


def _second_moments(obj: StateLike, target: ModeLabel, conditioner: ModeLabel):
    """(sign, Var_t, Var_c, Cov) for X+ and X-, first moments subtracted and
    the state normalized, so subnormalized and displaced states alike work."""
    if target == conditioner:
        raise ValueError("target and conditioner must differ")
    w = _weight(obj)
    out = []
    for sign in "+-":
        mt = fock.quadrature_moment(obj, [(target, sign)]) / w
        mc = fock.quadrature_moment(obj, [(conditioner, sign)]) / w
        var_t = fock.quadrature_moment(obj, [(target, sign)] * 2) / w - mt * mt
        var_c = fock.quadrature_moment(obj, [(conditioner, sign)] * 2) / w - mc * mc
        cov = fock.quadrature_moment(obj, [(target, sign), (conditioner, sign)]) / w \
            - mt * mc
        out.append((sign, var_t, var_c, cov))
    return out


def _conditioned(sign: str, var_t: float, var_c: float,
                 cov: float) -> tuple[float, float]:
    if var_c < _DEGENERATE_VAR:
        raise ValueError(f"conditioner quadrature X{sign} has (near-)zero variance")
    return var_t - cov * cov / var_c, cov / var_c


def conditional_variances(obj: StateLike, target: ModeLabel,
                          conditioner: ModeLabel) -> ConditionalVariancePair:
    """min_gamma Var(X_target - gamma X_conditioner) for both quadratures.

    The optimum is V = Var_t - Cov^2 / Var_c at gamma = Cov / Var_c (the
    input is normalized internally).
    """
    (v_plus, g_plus), (v_minus, g_minus) = (
        _conditioned(*m) for m in _second_moments(obj, target, conditioner))
    return ConditionalVariancePair(v_plus=v_plus, v_minus=v_minus,
                                   gamma_plus=g_plus, gamma_minus=g_minus)


def epr_criterion(obj: StateLike, a: ModeLabel, b: ModeLabel) -> EprResult:
    """EPR products in both directions; eps_B|A conditions B's variance on A.

    Each quadrature moment is computed once and serves both directions.
    """
    moments = _second_moments(obj, b, a)
    ba = [_conditioned(s, vb, va, cov)[0] for s, vb, va, cov in moments]
    ab = [_conditioned(s, va, vb, cov)[0] for s, vb, va, cov in moments]
    return EprResult(eps_b_given_a=ba[0] * ba[1], eps_a_given_b=ab[0] * ab[1])
