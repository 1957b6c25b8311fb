"""Heralded amplifier output states.

Two constructions of the same physics:

* brute-force simulations of the N-stage scissor network (entangled source,
  loss beamsplitter, the lossy arm split over N scissors, ancilla photon
  injection, heralding detection patterns, coherent recombination), and
* the closed-form heralded states (1 + (kappa/N) a'b')^N sigma_AL^rho |0>
  for any stage count, expanded with exact binomial coefficients.

Each returns the unnormalized `fock.PureState` branch of one concrete detection
pattern; the success probability folds in the 2^N symmetric patterns, whose
branches coincide after the documented phase compensation on the amplified
mode.  Every builder takes the channel as the floats (r, lam) and checks them
before it builds any state.
"""

from __future__ import annotations

import math
from dataclasses import replace
from math import comb

import numpy as np

from . import fock, metrics
from .analytic import (DistillationResult, _check_params, _kappa_rho,
                       success_prob)

__all__ = [
    "DistillationResult",
    "lossy_channel_state",
    "scissor_circuit",
    "single_stage_circuit",
    "dual_stage_circuit",
    "closed_form_state",
    "truncated_pair_state",
    "distill_and_measure",
]

_PATTERNS = ((1, 0), (0, 1))


def _flip_odd(state: fock.PureState, mode: str) -> fock.PureState:
    """Negate amplitudes with odd photon number in one mode (pi phase)."""
    ax = state.axis(mode)
    amps = state.amps.copy()
    sl = [slice(None)] * amps.ndim
    sl[ax] = slice(1, None, 2)
    amps[tuple(sl)] *= -1.0
    return replace(state, amps=amps)


def _scissor(state: fock.PureState, signal: str, photon: str, vac: str,
             photon_cutoff: int, eta: float,
             pattern: tuple[int, int]) -> fock.PureState:
    """One quantum scissor: eta-splitter on the ancilla pair |1, 0>, 50:50 mix
    of the signal with the reflected arm, herald on the detection pattern.

    The ancilla photon ends in mode ``photon``, which becomes the scissor
    output; a pi phase shows up on its one-photon component for the (0,1)
    pattern and is compensated here.  The eta-splitter acts on the ancilla
    alone, and the herald reads the signal state and the ancilla as two
    factors: their (larger) product state is never formed.
    """
    ancilla = fock.fock_state([photon, vac], [photon_cutoff, 1], [1, 0])
    ancilla = fock.apply_beamsplitter(ancilla, (vac, photon), eta)
    state = fock.herald_beamsplitter(state, (signal, vac), 0.5, pattern,
                                     ancilla=ancilla)
    if pattern == (0, 1):
        state = _flip_odd(state, photon)
    return state


def _arm_transmissivity(n_stages: int, k: int) -> float:
    """Share kept on the lossy arm as arm k peels off: each arm gets 1/N."""
    return 1.0 - 1.0 / (n_stages - k)


def lossy_channel_state(r: float, lam: float, cutoff: int) -> fock.PureState:
    """EPR pair on (A, B) with B sent through the loss splitter into L."""
    _check_params(r, lam)
    st = fock.epr_state(math.tanh(r), ("A", "B"), cutoff)
    st = fock.tensor(st, fock.vacuum(["L"], [cutoff]))
    # vacuum-first ordering keeps the loss-arm amplitudes positive
    return fock.apply_beamsplitter(st, ("L", "B"), 1.0 - lam)


def scissor_circuit(n_stages: int, r: float, lam: float, eta: float,
                    cutoff: int, patterns=None) -> fock.PureState:
    """Full circuit: EPR source, loss on one arm, the lossy arm split evenly
    over N scissors and coherently recombined (Ralph & Lund's N-splitter
    generalized scissor).

    Each peeled arm is scissored at once, the lossy arm itself last; the arms
    recombine in mirror order, each dark port projected on vacuum and folded
    into the success probability.  ``patterns`` holds each scissor's detection
    pattern in that order (all (1,0) when None; 2^N symmetric combinations).
    Only the source truncation clips: ancillas hold one photon, the scissor
    outputs N together.  The returned state's ``tail_mass`` is that clipped
    population; the caller picks the cutoff and judges the tail.
    """
    n = _check_params(r, lam, n_stages=n_stages, eta=eta)
    patterns = [(1, 0)] * n if patterns is None else [tuple(p) for p in patterns]
    if len(patterns) != n or not set(patterns) <= set(_PATTERNS):
        raise ValueError(f"need {n} detection patterns, each (1,0) or (0,1): {patterns}")
    st = lossy_channel_state(r, lam, cutoff)
    for k in range(n - 1):
        st = fock.tensor(st, fock.vacuum([f"W{k}"], [cutoff]))
        st = fock.apply_beamsplitter(st, (f"W{k}", "B"), _arm_transmissivity(n, k))
        st = _scissor(st, f"W{k}", f"P{k}", f"V{k}", n, eta, patterns[k])
    out = f"P{n - 1}"
    st = _scissor(st, "B", out, f"V{n - 1}", n, eta, patterns[-1])
    for k in reversed(range(n - 1)):
        st = fock.apply_beamsplitter(st, (out, f"P{k}"), _arm_transmissivity(n, k))
        st = fock.project_fock(st, f"P{k}", 0)
    return fock.reorder_modes(fock.rename_modes(st, {out: "B"}), ("A", "B", "L"))


def single_stage_circuit(r: float, lam: float, eta: float, cutoff: int,
                         pattern=(1, 0)) -> fock.PureState:
    """One scissor on the lossy arm: ``scissor_circuit(1, ...)``."""
    return scissor_circuit(1, r, lam, eta, cutoff, [pattern])


def dual_stage_circuit(r: float, lam: float, eta: float, cutoff: int,
                       patterns=None) -> fock.PureState:
    """Two scissors on the evenly split lossy arm: ``scissor_circuit(2, ...)``."""
    return scissor_circuit(2, r, lam, eta, cutoff, patterns)


def closed_form_state(n_stages: int, r: float, lam: float, eta: float,
                      cutoff: int) -> fock.PureState:
    """Heralded branch (1 + (kappa/N) a'b')^N sigma_AL^rho |0> at exact scale.

    The binomial is expanded with exact integer coefficients; the overall
    amplitude generalizes the one- and two-stage prefactors as
    cosh(rho)/cosh(r) * ((1-eta)/2)^(N/2), each scissor contributing one
    factor sqrt((1-eta)/2).
    """
    n = _check_params(r, lam, n_stages=n_stages, eta=eta)
    kappa, rho = _kappa_rho(r, lam, eta)
    try:
        cosh_r = math.cosh(r)
    except OverflowError:  # r > ~710: the r = inf branch, all zero
        cosh_r = math.inf
    scale = (math.cosh(rho) / cosh_r) * ((1.0 - eta) / 2.0) ** (n / 2.0)
    tl = math.tanh(rho)
    sech = 1.0 / math.cosh(rho)
    coef = [comb(n, j) * (kappa / n) ** j * math.sqrt(math.factorial(j))
            for j in range(n + 1)]

    amps = np.zeros((cutoff + 1, n + 1, cutoff + 1), dtype=np.complex128)
    for nl in range(cutoff + 1):
        base = scale * sech * tl**nl
        for j in range(n + 1):
            if nl + j > cutoff:
                break
            amps[nl + j, j, nl] = base * coef[j] * math.sqrt(math.perm(nl + j, j))
    # the untruncated branch holds one pattern's share of the success rate
    norm_inf = success_prob(n, r, lam, eta) / 2.0**n
    tail = max(norm_inf - float(np.vdot(amps, amps).real), 0.0)
    return fock.PureState(("A", "B", "L"), amps, tail_mass=tail)


def truncated_pair_state(n_stages: int, kappa: float) -> fock.PureState:
    """Normalized (1 + (kappa/N) a'b')^N |0_AB>; cutoff N is exact."""
    n = _check_params(n_stages=n_stages)
    # |j, j> has amplitude N!/(N-j)! (kappa/N)^j, built term by term: the
    # factorials alone overflow a double from N = 171
    diag = np.ones(n + 1)
    for j in range(1, n + 1):
        diag[j] = diag[j - 1] * (n - j + 1) * kappa / n
    diag /= math.sqrt(float(diag @ diag))
    amps = np.zeros((n + 1, n + 1), dtype=np.complex128)
    amps[np.arange(n + 1), np.arange(n + 1)] = diag
    return fock.PureState(("A", "B"), amps)


def distill_and_measure(n_stages: int,
                        state: fock.PureState) -> DistillationResult:
    """Trace out the loss mode of an N-stage branch and evaluate the figures;
    the success rate folds in its 2^N symmetric detection patterns."""
    n_stages = _check_params(n_stages=n_stages)
    eps_ba, eps_ab = metrics.epr_criterion(state, "A", "B")
    return DistillationResult(
        eps_b_given_a=eps_ba,
        eps_a_given_b=eps_ab,
        purity=fock.purity(state, ["A", "B"]),
        success_prob=2.0**n_stages * fock.norm_sq(state),
        n_stages=n_stages,
    )
