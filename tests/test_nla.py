"""Heralded amplifier circuits against their closed forms."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nla_distill import analytic, fock, metrics, nla, optimize
from nla_distill.analytic import kappa_rho, success_prob

GRID = [(r, lam, eta) for r in (0.2, 0.3) for lam in (0.2, 0.5)
        for eta in (0.5, 0.8)]


def test_single_stage_trivial_point():
    # no squeezing: the ancilla photon must reflect straight into the detector
    hs = nla.single_stage_circuit(0.0, 0.0, 0.3, 6)
    assert hs.success_prob == pytest.approx(0.7, abs=1e-12)
    assert hs.pattern_count == 2
    vac = fock.vacuum(["A", "B", "L"], [6, 1, 6])
    assert fock.fidelity(hs.state, vac) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r,lam,eta", GRID)
def test_single_stage_matches_closed_form(r, lam, eta):
    circ = nla.single_stage_circuit(r, lam, eta, 20)
    cf = nla.closed_form_state(1, r, lam, eta, 20)
    assert fock.fidelity(circ.state, cf.state) >= 1 - 1e-10


@pytest.mark.parametrize("r,lam,eta", GRID)
def test_single_stage_success_prob_matches_formula(r, lam, eta):
    circ = nla.single_stage_circuit(r, lam, eta, 20)
    ana = success_prob(1, r, lam, eta)
    assert abs(2.0 * fock.norm_sq(circ.state) - ana) < 1e-10
    assert abs(circ.success_prob - ana) < 1e-10


def test_heralding_probability_at_reference_point():
    # single-pattern heralding probability equals the closed form halved
    r, lam = 0.5, 0.3
    circ = nla.single_stage_circuit(r, lam, 0.8, 20)
    assert fock.norm_sq(circ.state) == pytest.approx(
        success_prob(1, r, lam, 0.8) / 2.0, abs=1e-10)


def test_single_stage_pattern_symmetry():
    r, lam = 0.3, 0.3
    a = nla.single_stage_circuit(r, lam, 0.7, 15)
    b = nla.single_stage_circuit(r, lam, 0.7, 15, pattern=(0, 1))
    assert abs(fock.norm_sq(a.state) - fock.norm_sq(b.state)) < 1e-12
    assert fock.fidelity(a.state, b.state) >= 1 - 1e-12


def scissor_splitting_after_tensor(state, signal, photon, vac, photon_cutoff,
                                   eta, pattern):
    """Reference scissor: the eta-splitter acts after the ancilla pair has
    joined the signal state."""
    state = fock.tensor(state, fock.fock_state([photon, vac], [photon_cutoff, 1],
                                               [1, 0]))
    state = fock.apply_beamsplitter(state, (vac, photon), eta)
    state = fock.herald_beamsplitter(state, (signal, vac), 0.5, pattern)
    return nla._flip_odd(state, photon) if pattern == (0, 1) else state


@settings(max_examples=15)
@given(r=st.floats(0.0, 0.8), lam=st.floats(0.0, 0.9), eta=st.floats(0.02, 0.98),
       patterns=st.lists(st.sampled_from(nla._PATTERNS), min_size=3, max_size=3))
def test_circuits_match_splitting_the_ancilla_after_tensoring(r, lam, eta, patterns):
    # gates on disjoint modes commute: splitting the ancilla pair first
    # simulates the same network

    def build():
        return (nla.single_stage_circuit(r, lam, eta, 12, patterns[0]),
                nla.dual_stage_circuit(r, lam, eta, 5, patterns[:2]),
                nla.scissor_circuit(3, r, lam, eta, 4, patterns))

    new = build()
    with mock.patch.object(nla, "_scissor", scissor_splitting_after_tensor):
        old = build()
    for a, b in zip(new, old):
        assert a.state.modes == b.state.modes
        assert fock.fidelity(a.state, b.state) >= 1 - 1e-14
        assert abs(a.success_prob - b.success_prob) <= 1e-14
        assert abs(a.state.tail_mass - b.state.tail_mass) <= 1e-14


def test_single_stage_rejects_bad_pattern():
    with pytest.raises(ValueError):
        nla.single_stage_circuit(0.3, 0.3, 0.7, 10, pattern=(1, 1))


def test_closed_form_n1_lossless_structure():
    r, lam = 0.4, 0.0
    eta = 0.6
    hs = nla.closed_form_state(1, r, lam, eta, 8)
    kappa = kappa_rho(r, lam, eta)[0]
    amps = hs.state.amps
    nz = {idx: amps[idx] for idx in np.ndindex(amps.shape) if abs(amps[idx]) > 1e-15}
    assert set(nz) == {(0, 0, 0), (1, 1, 0)}
    assert nz[(1, 1, 0)] / nz[(0, 0, 0)] == pytest.approx(kappa, abs=1e-12)


def test_closed_form_n2_coefficients():
    # two-photon term: operator coefficient kappa^2/4, state amplitude kappa^2/2
    r, lam = 0.3, 0.0
    eta = 0.7
    kappa = kappa_rho(r, lam, eta)[0]
    hs = nla.closed_form_state(2, r, lam, eta, 8)
    a = hs.state.amps
    amp11 = a[1, 1, 0] / a[0, 0, 0]
    amp22 = a[2, 2, 0] / a[0, 0, 0]
    assert amp11 == pytest.approx(kappa, abs=1e-12)
    assert amp22 / amp11 == pytest.approx(kappa / 2.0, abs=1e-12)
    # dividing out the n! amplitude factors recovers the operator ratio kappa/4
    coef_ratio = (amp22 / math.factorial(2)) / (amp11 / math.factorial(1))
    assert coef_ratio == pytest.approx(kappa / 4.0, abs=1e-12)


def test_closed_form_large_n_approaches_epr():
    # 64 stages at unit gain: the heralded state converges on the ideal pair
    # source of strength kappa
    kappa = 0.3
    hs = nla.closed_form_state(64, math.atanh(kappa), 0.0, 0.5, 30)
    st = fock.project_fock(hs.state, "L", 0)
    target_amps = np.zeros((31, 65), dtype=complex)
    for n in range(31):
        target_amps[n, n] = kappa ** n
    target_amps /= np.linalg.norm(target_amps)
    target = fock.PureState(("A", "B"), target_amps)
    assert fock.fidelity(st, target) >= 0.999


@pytest.mark.parametrize("n", [1, 2])
def test_closed_form_past_the_cosh_overflow_is_the_infinite_squeezing_branch(n):
    # cosh r overflows a double past r ~ 710: the branch is the r = inf one,
    # all zero with success probability 0, as success_prob reads there
    far, limit = (nla.closed_form_state(n, r, 0.3, 0.5, 10)
                  for r in (800.0, math.inf))
    assert not far.state.amps.any() and not limit.state.amps.any()
    assert far.success_prob == success_prob(n, 800.0, 0.3, 0.5) == 0.0
    assert far.state.tail_mass == limit.state.tail_mass == 0.0


def test_closed_form_rejects_zero_stages():
    with pytest.raises(ValueError):
        nla.closed_form_state(0, 0.3, 0.1, 0.5, 10)


def test_dual_stage_trivial_point():
    hs = nla.dual_stage_circuit(0.0, 0.0, 0.3, 4)
    assert hs.pattern_count == 4
    assert hs.success_prob == pytest.approx(0.7 ** 2, abs=1e-12)
    vac = fock.vacuum(["A", "B", "L"], [4, 2, 4])
    assert fock.fidelity(hs.state, vac) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("r,lam,eta", GRID)
def test_dual_stage_matches_closed_form(r, lam, eta):
    circ = nla.dual_stage_circuit(r, lam, eta, 8)
    cf = nla.closed_form_state(2, r, lam, eta, 8)
    assert fock.fidelity(circ.state, cf.state) >= 1 - 1e-8
    assert abs(circ.success_prob - cf.success_prob) < 1e-12


def test_dual_stage_reference_point():
    r, lam = 0.3, 0.3
    circ = nla.dual_stage_circuit(r, lam, 0.7, 8)
    cf = nla.closed_form_state(2, r, lam, 0.7, 8)
    assert fock.fidelity(circ.state, cf.state) >= 1 - 1e-8


def test_dual_stage_pattern_symmetry():
    r, lam = 0.3, 0.3
    base = nla.dual_stage_circuit(r, lam, 0.7, 8)
    for pats in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, 1), (0, 1))):
        alt = nla.dual_stage_circuit(r, lam, 0.7, 8, patterns=pats)
        assert abs(fock.norm_sq(alt.state) - fock.norm_sq(base.state)) < 1e-12
        assert fock.fidelity(alt.state, base.state) >= 1 - 1e-12


def test_heralded_state_invariant():
    r, lam = 0.4, 0.2
    for n, hs in ((1, nla.single_stage_circuit(r, lam, 0.6, 15)),
                  (2, nla.dual_stage_circuit(r, lam, 0.6, 8)),
                  (3, nla.closed_form_state(3, r, lam, 0.6, 15))):
        assert hs.n_stages == n and hs.pattern_count == 2**n
        assert hs.success_prob == 2.0**n * fock.norm_sq(hs.state)
        assert nla.distill_and_measure(hs).n_stages == n


@pytest.mark.parametrize("n,cutoff", [(1, 14), (2, 12), (3, 10), (4, 10)])
@pytest.mark.parametrize("r,lam,eta", [(0.2, 0.3, 0.37), (0.12, 0.6, 0.81)])
def test_success_prob_matches_every_circuit(n, cutoff, r, lam, eta):
    # the source tails (chi^(2(cutoff+1)) < 1e-15) stay below the tolerance
    circ = nla.scissor_circuit(n, r, lam, eta, cutoff)
    assert abs(circ.success_prob - analytic.success_prob(n, r, lam, eta)) <= 1e-13


@pytest.mark.parametrize("n", [1, 3])
def test_closed_form_tail_is_the_truncated_branch_norm(n):
    r, lam = 0.6, 0.4
    small = nla.closed_form_state(n, r, lam, 0.7, 8)
    big = nla.closed_form_state(n, r, lam, 0.7, 60)
    assert big.state.tail_mass <= 1e-16
    assert abs(small.state.tail_mass
               - (fock.norm_sq(big.state) - fock.norm_sq(small.state))) <= 1e-15


def test_lossy_channel_state_routes_the_loss_into_l():
    r, lam = 0.5, 0.3
    st = nla.lossy_channel_state(r, lam, 30)
    assert st.modes == ("A", "B", "L") and st.cutoffs == (30, 30, 30)
    assert st.tail_mass == pytest.approx(math.tanh(r) ** 62, rel=1e-12)
    probs = np.abs(st.amps) ** 2
    mean = [float(np.arange(31) @ probs.sum(axis=tuple({0, 1, 2} - {ax})))
            for ax in range(3)]
    sh2 = math.sinh(r) ** 2
    assert mean == pytest.approx([sh2, (1 - lam) * sh2, lam * sh2], abs=1e-10)


def test_distill_and_measure_vacuum_branch():
    hs = nla.single_stage_circuit(0.0, 0.0, 0.4, 6)
    res = nla.distill_and_measure(hs)
    assert res.eps_b_given_a == pytest.approx(1.0, abs=1e-12)
    assert res.purity == pytest.approx(1.0, abs=1e-12)
    assert res.success_prob == pytest.approx(0.6, abs=1e-12)
    assert res.n_stages == 1


def test_distill_ideal_single_stage_floor():
    # kappa = 0.36 on the pure truncated pair state sits at the quoted floor
    st = nla.truncated_pair_state(1, 0.36)
    eps = metrics.epr_criterion(st, "A", "B").eps_b_given_a
    assert eps == pytest.approx(0.81, abs=5e-3)


def test_distill_ideal_dual_stage_floor():
    st = nla.truncated_pair_state(2, 0.59)
    eps = metrics.epr_criterion(st, "A", "B").eps_b_given_a
    assert eps == pytest.approx(0.57, abs=5e-3)


@pytest.mark.parametrize("r,lam,eta", GRID)
def test_heralded_entanglement_bounded_by_pure_floor(r, lam, eta):
    res1 = nla.distill_and_measure(nla.single_stage_circuit(r, lam, eta, 20))
    assert res1.eps_b_given_a >= 0.81 - 1e-3
    res2 = nla.distill_and_measure(nla.dual_stage_circuit(r, lam, eta, 8))
    assert res2.eps_b_given_a >= 0.57 - 1e-3


def test_truncated_pair_state_is_normalized():
    st = nla.truncated_pair_state(5, 0.7)
    assert fock.norm_sq(st) == pytest.approx(1.0, abs=1e-12)
    assert st.cutoffs == (5, 5)


N_STAGE_POINTS = [(0.3, 0.3, 0.7), (0.5, 0.6, 0.4)]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("r,lam,eta", N_STAGE_POINTS)
def test_n_stage_circuit_matches_closed_form(n, r, lam, eta):
    circ = nla.scissor_circuit(n, r, lam, eta, 10)
    cf = nla.closed_form_state(n, r, lam, eta, 10)
    assert circ.state.modes == cf.state.modes
    assert circ.pattern_count == 2**n
    assert fock.fidelity(circ.state, cf.state) >= 1 - 1e-12
    assert abs(fock.norm_sq(circ.state) / fock.norm_sq(cf.state) - 1) <= 1e-12
    # only the source clips: every scissor output has room for all N photons
    assert abs(circ.state.tail_mass - math.tanh(r) ** (2 * 11)) < 1e-14


def test_closed_form_pins_the_splitter_convention(monkeypatch):
    # N <= 2 cannot tell the peeling splitters 1 - 1/(N-k) from 1/(N-k):
    # the flipped network must miss the N = 3 closed form by far more than
    # the tolerance above
    r, lam, eta = N_STAGE_POINTS[0]
    cf = nla.closed_form_state(3, r, lam, eta, 10)
    monkeypatch.setattr(nla, "_arm_transmissivity", lambda n, k: 1.0 / (n - k))
    flipped = nla.scissor_circuit(3, r, lam, eta, 10)
    assert fock.fidelity(flipped.state, cf.state) < 1 - 1e-4


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("r,lam,pi", [(0.2, 0.3, 1e-2), (0.25, 0.6, 1e-3)])
def test_n_stage_success_prob_matches_polynomial(n, r, lam, pi):
    # the circuit heralds with the probability Pi_N(eta) that eta_candidates
    # inverts
    etas = optimize.eta_candidates(r, lam, pi, n)
    assert etas
    for eta in etas:
        hs = nla.scissor_circuit(n, r, lam, eta, 10)
        assert abs(hs.success_prob - pi) <= 1e-13


def test_n_stage_pattern_symmetry():
    r, lam = 0.3, 0.3
    base = nla.scissor_circuit(3, r, lam, 0.7, 10)
    for pats in itertools.product(nla._PATTERNS, repeat=3):
        alt = nla.scissor_circuit(3, r, lam, 0.7, 10, patterns=pats)
        assert abs(fock.norm_sq(alt.state) - fock.norm_sq(base.state)) < 1e-12
        assert fock.fidelity(alt.state, base.state) >= 1 - 1e-12


def test_scissor_circuit_needs_one_pattern_per_stage():
    r, lam = 0.3, 0.3
    for n, pats in ((3, [(1, 0)] * 2), (2, [(1, 0)] * 3), (1, [])):
        with pytest.raises(ValueError, match="patterns"):
            nla.scissor_circuit(n, r, lam, 0.7, 4, patterns=pats)
    with pytest.raises(ValueError):
        nla.scissor_circuit(0, r, lam, 0.7, 4)


@pytest.mark.parametrize("cutoff,pattern", [(4, (1, 0)), (16, (0, 1))])
def test_single_stage_circuit_never_forms_the_ancilla_product(monkeypatch, cutoff, pattern):
    # heralding reads the signal state and the ancilla as two factors, so no
    # state outgrows the lossy three-mode source
    sizes = []
    validate = fock.PureState.__post_init__

    def recording(self):
        sizes.append(np.size(self.amps))
        validate(self)

    monkeypatch.setattr(fock.PureState, "__post_init__", recording)
    nla.scissor_circuit(1, 0.4, 0.3, 0.6, cutoff, [pattern])
    assert sizes and max(sizes) <= (cutoff + 1) ** 3
