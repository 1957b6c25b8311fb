"""Fock-core: constructors, unitaries, projection, tracing, moments."""

import itertools
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nla_distill import fock, nla


@st.composite
def random_states(draw, min_modes=2, max_modes=4, max_cutoff=5):
    """Dense random complex (sub)normalized states, mode labels in random order."""
    k = draw(st.integers(min_modes, max_modes))
    labels = tuple(draw(st.permutations("ABCD"[:k])))
    cutoffs = tuple(draw(st.lists(st.integers(1, max_cutoff), min_size=k, max_size=k)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = [c + 1 for c in cutoffs]
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps *= draw(st.floats(0.1, 1.0)) / np.linalg.norm(amps)
    return fock.PureState(labels, amps)


def sector_loop_beamsplitter(state, modes, transmissivity):
    """Reference: one gather, block product and scatter per photon sector."""
    theta = fock._bs_theta(transmissivity)
    ax1, ax2 = state.axis(modes[0]), state.axis(modes[1])
    pair = np.moveaxis(state.amps, (ax1, ax2), (0, 1))
    d1, d2 = pair.shape[:2]
    flat = pair.reshape(d1, d2, -1)
    mats = fock._bs_sectors(d1 + d2 - 2, theta)
    out = np.zeros_like(flat)
    for s in range(len(mats)):
        js = np.arange(max(0, s - (d2 - 1)), min(s, d1 - 1) + 1)
        out[js, s - js, :] = mats[s][np.ix_(js, js)] @ flat[js, s - js, :]
    return np.moveaxis(out.reshape(pair.shape), (0, 1), (ax1, ax2))


def test_vacuum_amplitudes():
    v = fock.vacuum(["A"], [5])
    assert v.amps[0] == 1.0
    assert np.count_nonzero(v.amps) == 1
    assert fock.norm_sq(v) == 1.0


def test_vacuum_two_modes_normalized():
    v = fock.vacuum(["A", "B"], [3, 3])
    assert fock.norm_sq(v) == 1.0


def test_vacuum_photon_number_zero():
    v = fock.vacuum(["A"], [5])
    x2 = fock.quadrature_moment(v, [("A", "+")] * 2)
    # <n> = (<X+^2> + <X-^2> - 2)/4
    y2 = fock.quadrature_moment(v, [("A", "-")] * 2)
    assert abs((x2 + y2 - 2.0) / 4.0) < 1e-15


def test_vacuum_needs_modes():
    with pytest.raises(ValueError):
        fock.vacuum([], [])


def test_epr_chi_zero_is_vacuum():
    st = fock.epr_state(0.0, ("M", "N"), 6)
    assert fock.fidelity(st, fock.vacuum(["M", "N"], [6, 6])) == 1.0
    assert st.tail_mass == 0.0


def test_epr_amplitude_value():
    st = fock.epr_state(0.5, ("M", "N"), 10)
    assert abs(st.amps[1, 1] - math.sqrt(0.75) * 0.5) < 1e-15
    assert st.amps[1, 0] == 0.0


def test_epr_mean_photon_number_vs_series():
    chi = 0.5
    # independent oracle: sum the geometric series numerically
    oracle = sum((1 - chi * chi) * chi ** (2 * n) * n for n in range(400))
    st = fock.epr_state(chi, ("M", "N"), 30)
    for mode in ("M", "N"):
        x2 = fock.quadrature_moment(st, [(mode, "+")] * 2)
        y2 = fock.quadrature_moment(st, [(mode, "-")] * 2)
        n_mean = (x2 + y2 - 2.0) / 4.0
        assert abs(n_mean - oracle) < 1e-10
        assert abs(n_mean - math.sinh(math.atanh(chi)) ** 2) < 1e-10


def test_epr_rejects_chi_out_of_range():
    with pytest.raises(ValueError):
        fock.epr_state(1.0, ("M", "N"), 5)


def test_epr_reports_tail_mass():
    st = fock.epr_state(0.5, ("M", "N"), 3)
    assert st.tail_mass == pytest.approx(0.5 ** (2 * 4), abs=0.0)


def expm_squeezed_vacuum(r, cutoff):
    """Reference: exp[r (m^2 - m'^2)/2] of the truncated generator on |0>,
    orthogonal but distorted near the cutoff, so accurate only far below it."""
    m = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    return scipy.linalg.expm(0.5 * r * (m @ m - m.T @ m.T))[:, 0]


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8, -0.5])
def test_squeezed_vacuum_matches_matrix_exponential(r):
    st = fock.squeezed_vacuum(r, "A", 200)
    assert np.abs(st.amps - expm_squeezed_vacuum(r, 200)).max() <= 1e-14


def test_squeeze_zero_is_identity():
    st = fock.squeezed_vacuum(0.0, "A", 20)
    assert np.array_equal(st.amps, fock.vacuum(["A"], [20]).amps)
    assert st.tail_mass == 0.0


@pytest.mark.parametrize("r,cutoff", [(0.8, 50), (0.5, 16), (-1.2, 40), (0.3, 7)])
def test_squeezed_vacuum_counts_its_tail(r, cutoff):
    st = fock.squeezed_vacuum(r, "A", cutoff)
    assert st.tail_mass == 1.0 - fock.norm_sq(st) > 0.0
    # every bit of the fidelity lost to the cutoff is on the tail, up to
    # roundoff in the two norms
    ref = fock.squeezed_vacuum(r, "A", 200)
    padded = np.zeros(201, dtype=complex)
    padded[:cutoff + 1] = st.amps
    lost = 1.0 - fock.fidelity(fock.PureState(("A",), padded), ref)
    assert lost <= st.tail_mass + 4 * np.finfo(float).eps


@pytest.mark.parametrize("r", [0.3, 0.5])
def test_squeezed_vacuum_variances(r):
    # oracle: number-basis series of the squeezed vacuum, no matrix exponential
    def amp(n):
        return ((1 / math.sqrt(math.cosh(r))) * (-math.tanh(r)) ** n
                * math.sqrt(math.factorial(2 * n)) / (2 ** n * math.factorial(n)))

    amps = [amp(n) for n in range(60)]
    nbar = sum(a * a * 2 * n for n, a in enumerate(amps))
    m2 = sum(amps[n] * amps[n + 1] * math.sqrt((2 * n + 2) * (2 * n + 1))
             for n in range(59))
    oracle_plus = 1 + 2 * nbar + 2 * m2
    oracle_minus = 1 + 2 * nbar - 2 * m2

    st = fock.squeezed_vacuum(r, "A", 40)
    vp = fock.quadrature_moment(st, [("A", "+")] * 2)
    vm = fock.quadrature_moment(st, [("A", "-")] * 2)
    assert abs(vp - oracle_plus) < 1e-6
    assert abs(vm - oracle_minus) < 1e-6
    # with S(r) = exp[r(m^2 - m'^2)/2] the squeezed quadrature is X+
    assert abs(vp - math.exp(-2 * r)) < 1e-6
    assert abs(vm - math.exp(2 * r)) < 1e-6


def test_squeezed_vacuum_rejects_bad_input():
    for r in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            fock.squeezed_vacuum(r, "A", 10)
    for cutoff in (0, -1):
        with pytest.raises(ValueError):
            fock.squeezed_vacuum(0.5, "A", cutoff)


@pytest.mark.parametrize("r", [0.2, 0.5, 0.8])
def test_squeezer_beamsplitter_epr_identity(r):
    st = fock.tensor(fock.squeezed_vacuum(r, "C", 64),
                     fock.squeezed_vacuum(-r, "D", 64))
    st = fock.apply_beamsplitter(st, ("C", "D"), 0.5)
    target = fock.epr_state(math.tanh(r), ("C", "D"), 64)
    assert fock.fidelity(st, target) >= 1 - 1e-8


def test_beamsplitter_identity_at_full_transmission():
    st = fock.epr_state(0.4, ("M", "N"), 8)
    out = fock.apply_beamsplitter(st, ("M", "N"), 1.0)
    assert np.allclose(out.amps, st.amps, atol=1e-14)


def test_beamsplitter_single_photon_convention():
    st = fock.fock_state(["M", "N"], [2, 2], [1, 0])
    out = fock.apply_beamsplitter(st, ("M", "N"), 0.5)
    assert out.amps[1, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert out.amps[0, 1] == pytest.approx(-1 / math.sqrt(2), abs=1e-15)


def test_beamsplitter_rejects_same_mode():
    st = fock.vacuum(["M", "N"], [2, 2])
    with pytest.raises(ValueError):
        fock.apply_beamsplitter(st, ("M", "M"), 0.5)


def test_beamsplitter_norm_preserved_without_clipping():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(4, 4, 3)) + 1j * rng.normal(size=(4, 4, 3))
    for j in range(4):      # keep total photon number within the sector budget
        for k in range(4):
            if j + k > 3:
                amps[j, k, :] = 0.0
    amps /= np.linalg.norm(amps)
    st = fock.PureState(("M", "N", "R"), amps)
    out = fock.apply_beamsplitter(st, ("M", "N"), 0.37)
    assert abs(fock.norm_sq(out) - 1.0) < 1e-12
    assert out.tail_mass < 1e-12


def test_beamsplitter_clipping_reported():
    st = fock.fock_state(["M", "N"], [1, 1], [1, 1])
    out = fock.apply_beamsplitter(st, ("M", "N"), 0.5)
    # |1,1> -> (|2,0> - |0,2>)/sqrt(2) under this convention: all clipped
    assert out.tail_mass == pytest.approx(1.0, abs=1e-12)


def test_beamsplitter_inverse_composition():
    rng = np.random.default_rng(3)
    amps = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    amps /= np.linalg.norm(amps) * 1.0000001
    st = fock.PureState(("M", "N"), amps)
    t = 0.73
    # swapping the mode order realizes the inverse rotation
    out = fock.apply_beamsplitter(st, ("M", "N"), t)
    out = fock.apply_beamsplitter(out, ("N", "M"), t)
    kept = fock.norm_sq(out) / fock.norm_sq(st)
    overlap = abs(np.vdot(st.amps, out.amps)) / fock.norm_sq(st)
    assert overlap > kept - 1e-10  # equal up to clipped sectors
    # a sector-safe state must round-trip exactly
    amps2 = np.zeros((5, 5), dtype=complex)
    amps2[:2, :2] = amps[:2, :2]
    amps2 /= np.linalg.norm(amps2)
    st2 = fock.PureState(("M", "N"), amps2)
    back = fock.apply_beamsplitter(fock.apply_beamsplitter(st2, ("M", "N"), t),
                                   ("N", "M"), t)
    assert np.allclose(back.amps, st2.amps, atol=1e-10)


def test_herald_matches_apply_then_project():
    rng = np.random.default_rng(11)
    amps = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    amps /= np.linalg.norm(amps)
    st = fock.PureState(("S", "P", "R"), amps)
    for outcome in ((1, 0), (0, 1), (2, 1)):
        fused = fock.herald_beamsplitter(st, ("S", "P"), 0.5, outcome)
        full = fock.apply_beamsplitter(st, ("S", "P"), 0.5)
        full = fock.project_fock(full, "S", outcome[0])
        full = fock.project_fock(full, "P", outcome[1])
        assert fused.modes == full.modes
        assert np.allclose(fused.amps, full.amps, atol=1e-12)


@settings(max_examples=60)
@given(state=random_states(), order=st.permutations(range(4)),
       t=st.floats(0.0, 1.0))
def test_batched_beamsplitter_matches_sector_loop(state, order, t):
    pair = tuple(state.modes[i] for i in order if i < len(state.modes))[:2]
    out = fock.apply_beamsplitter(state, pair, t)
    assert out.modes == state.modes and out.cutoffs == state.cutoffs
    assert np.abs(out.amps - sector_loop_beamsplitter(state, pair, t)).max() <= 1e-13
    # every bit of norm not kept is booked as clipped tail
    clipped = out.tail_mass - state.tail_mass
    assert abs(fock.norm_sq(state) - fock.norm_sq(out) - clipped) <= 1e-13


@settings(max_examples=12)
@given(s_max=st.integers(0, 256), theta=st.floats(0.0, math.pi / 2))
def test_beamsplitter_sectors_are_orthogonal(s_max, theta):
    # s_max 256 is the pair of cutoff-128 modes that verify builds
    mats = fock._bs_sectors(s_max, theta)
    assert len(mats) == s_max + 1
    for s, m in enumerate(mats):
        assert np.abs(m @ m.T - np.eye(s + 1)).max() <= 1e-13


def sectors_with_fresh_tables(s_max, theta):
    """Reference sector recursion: every sqrt table and shifted copy built
    afresh per sector."""
    c, s_ = math.cos(theta), math.sin(theta)
    mats = [np.ones((1, 1))]
    for s in range(1, s_max + 1):
        below = np.zeros((s + 1, s))
        below[:s] = mats[-1]
        above = np.zeros((s + 1, s))
        above[1:] = mats[-1]
        sq_jp = np.sqrt(np.arange(s + 1))[:, None]
        sq_rest = sq_jp[::-1]
        w = np.sqrt(np.arange(1, s + 1))
        cur = np.zeros((s + 1, s + 1))
        cur[:, 1:] = (c * sq_jp * above - s_ * sq_rest * below) * w
        cur[:, :-1] += (c * sq_rest * below + s_ * sq_jp * above) * w[::-1]
        mats.append(cur / s)
    return mats


@settings(max_examples=30)
@given(s_max=st.integers(0, 64), theta=st.floats(0.0, math.pi / 2))
def test_beamsplitter_sectors_match_the_fresh_table_recursion(s_max, theta):
    for got, want in zip(fock._bs_sectors(s_max, theta),
                         sectors_with_fresh_tables(s_max, theta), strict=True):
        assert np.array_equal(got, want)


@settings(max_examples=60)
@given(state=random_states(min_modes=3), order=st.permutations(range(4)),
       t=st.floats(0.0, 1.0), outcome=st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_herald_matches_apply_then_project_anywhere(state, order, t, outcome):
    m1, m2 = tuple(state.modes[i] for i in order if i < len(state.modes))[:2]
    n1, n2 = min(outcome[0], state.cutoff_of(m1)), min(outcome[1], state.cutoff_of(m2))
    fused = fock.herald_beamsplitter(state, (m1, m2), t, (n1, n2))
    full = fock.apply_beamsplitter(state, (m1, m2), t)
    full = fock.project_fock(fock.project_fock(full, m1, n1), m2, n2)
    assert fused.modes == full.modes and fused.cutoffs == full.cutoffs
    assert np.abs(fused.amps - full.amps).max() <= 1e-13
    assert fused.tail_mass == state.tail_mass


@settings(max_examples=60)
@given(a=random_states(min_modes=1, max_modes=3), b=random_states(min_modes=1, max_modes=3),
       t=st.floats(0.0, 1.0), tails=st.tuples(st.floats(0.0, 1e-3), st.floats(0.0, 1e-3)),
       data=st.data())
def test_herald_from_factors_matches_herald_of_the_product(a, b, t, tails, data):
    # the heralded pair may sit in either factor or straddle the two
    a = fock.PureState(a.modes, a.amps, tail_mass=tails[0])
    b = fock.PureState(tuple(m.lower() for m in b.modes), b.amps, tail_mass=tails[1])
    assume(len(a.modes) + len(b.modes) >= 3)
    ab = fock.tensor(a, b)
    m1, m2 = data.draw(st.permutations(ab.modes))[:2]
    for n1, n2 in itertools.product(range(ab.cutoff_of(m1) + 1),
                                    range(ab.cutoff_of(m2) + 1)):
        want = fock.herald_beamsplitter(ab, (m1, m2), t, (n1, n2))
        got = fock.herald_beamsplitter(a, (m1, m2), t, (n1, n2), ancilla=b)
        assert got.modes == want.modes
        assert np.array_equal(got.amps, want.amps)
        assert got.tail_mass == want.tail_mass


def test_herald_from_factors_rejects_shared_labels_and_unknown_modes():
    a, b = fock.vacuum(["A", "B"], [2, 2]), fock.vacuum(["B", "C"], [2, 2])
    with pytest.raises(ValueError, match="share"):
        fock.herald_beamsplitter(a, ("A", "C"), 0.5, (0, 0), ancilla=b)
    with pytest.raises(ValueError, match="not in"):
        fock.herald_beamsplitter(a, ("A", "Z"), 0.5, (0, 0),
                                 ancilla=fock.vacuum(["C"], [2]))


def test_norm_sq_is_the_validated_norm_of_every_state():
    rng = np.random.default_rng(7)
    amps = rng.normal(size=(3, 4, 2)) + 1j * rng.normal(size=(3, 4, 2))
    raw = fock.PureState(("A", "B", "C"), amps / np.linalg.norm(amps))
    epr = fock.epr_state(0.6, ("M", "N"), 6)
    sq = fock.squeezed_vacuum(0.4, "S", 9)
    states = [
        raw,
        fock.vacuum(["A", "B"], [2, 3]),
        fock.fock_state(["A", "B"], [2, 2], [1, 2]),
        epr,
        sq,
        fock.tensor(epr, sq),
        fock.rename_modes(raw, {"A": "Z"}),
        fock.reorder_modes(raw, ("C", "A", "B")),
        fock.apply_beamsplitter(raw, ("A", "B"), 0.3),
        fock.herald_beamsplitter(raw, ("A", "B"), 0.3, (1, 2)),
        fock.herald_beamsplitter(epr, ("N", "S"), 0.4, (2, 1), ancilla=sq),
        fock.project_fock(raw, "B", 3),
        nla.scissor_circuit(2, 0.3, 0.4, 0.6, 8),
        nla.closed_form_state(2, 0.3, 0.4, 0.6, 8),
        nla.truncated_pair_state(3, 0.7),
    ]
    for state in states:
        assert fock.norm_sq(state) == float(np.vdot(state.amps, state.amps).real)


def test_project_vacuum_probability_one():
    st = fock.vacuum(["A", "B"], [3, 3])
    br = fock.project_fock(st, "B", 0)
    assert fock.norm_sq(br) == pytest.approx(1.0, abs=0.0)


def test_project_epr_single_photon_branch():
    chi = 0.5
    st = fock.epr_state(chi, ("M", "N"), 10)
    br = fock.project_fock(st, "N", 1)
    assert fock.norm_sq(br) == pytest.approx((1 - chi * chi) * chi * chi, abs=1e-15)
    assert abs(br.amps[1]) > 0 and np.count_nonzero(br.amps) == 1


def test_project_outcomes_sum_to_norm():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    amps /= np.linalg.norm(amps) * 1.25  # subnormalized input
    st = fock.PureState(("M", "N"), amps)
    total = sum(fock.norm_sq(fock.project_fock(st, "N", n)) for n in range(4))
    assert abs(total - fock.norm_sq(st)) < 1e-12


def test_project_requires_known_mode():
    st = fock.vacuum(["A", "B"], [2, 2])
    with pytest.raises(ValueError):
        fock.project_fock(st, "Z", 0)


def test_partial_trace_full_keep_is_projector():
    st = fock.epr_state(0.6, ("M", "N"), 6)
    dm = fock.partial_trace(st, ["M", "N"])
    assert fock.purity(st, ["M", "N"]) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(dm).real == pytest.approx(fock.norm_sq(st), abs=1e-12)


def test_partial_trace_epr_gives_thermal_diagonal():
    chi = 0.5
    st = fock.epr_state(chi, ("M", "N"), 20)
    dm = fock.partial_trace(st, ["M"])
    diag = np.diag(dm).real
    expect = (1 - chi * chi) * chi ** (2 * np.arange(21))
    assert np.allclose(diag, expect, atol=1e-12)
    off = dm - np.diag(np.diag(dm))
    assert np.abs(off).max() < 1e-14


def test_partial_trace_requires_subset():
    st = fock.vacuum(["A", "B"], [2, 2])
    for reduce in (fock.partial_trace, fock.purity):
        with pytest.raises(ValueError):
            reduce(st, ["A", "Z"])
        with pytest.raises(ValueError):
            reduce(st, [])


def assert_purity_matches_partial_trace(state):
    """Gram-matrix purity against Tr rho^2 / (Tr rho)^2 of the reduced matrix,
    for every nonempty kept subset (both Gram orientations occur)."""
    for k in range(1, len(state.modes) + 1):
        for keep in itertools.combinations(state.modes, k):
            rho = fock.partial_trace(state, keep)
            tr = np.trace(rho).real
            ref = np.vdot(rho, rho).real / (tr * tr)
            assert abs(fock.purity(state, keep) - ref) <= 1e-14


@settings(max_examples=60)
@given(state=random_states())
def test_purity_matches_partial_trace_reference(state):
    assert_purity_matches_partial_trace(state)


def test_purity_of_heralded_branch_matches_partial_trace_reference():
    hs = nla.single_stage_circuit(0.5, 0.3, 0.7, 12)
    assert fock.norm_sq(hs) < 0.5  # subnormalized
    assert_purity_matches_partial_trace(hs)


def test_tiny_norm_state_has_fidelity_and_purity():
    # 150 stages at eta = 0.9: norm^2 1.4e-195, whose square underflows; the
    # EPR criterion reads this state too
    branch = nla.closed_form_state(150, 0.3, 0.3, 0.9, 10)
    w = fock.norm_sq(branch)
    assert 0.0 < w < math.sqrt(sys.float_info.min)
    assert fock.fidelity(branch, branch) == pytest.approx(1.0, abs=1e-14)
    unit = fock.PureState(branch.modes, branch.amps / math.sqrt(w))
    for keep in (["A", "B"], ["A"], ["L"]):
        assert fock.purity(branch, keep) == pytest.approx(
            fock.purity(unit, keep), rel=1e-14)


def test_zero_norm_state_has_no_fidelity_or_purity():
    # past r ~ 710 the closed-form branch is all zero: nothing to normalize
    zero = nla.closed_form_state(1, 800.0, 0.3, 0.5, 10)
    assert fock.norm_sq(zero) == 0.0
    other = nla.closed_form_state(1, 0.5, 0.3, 0.5, 10)
    for measure in (lambda: fock.fidelity(zero, zero),
                    lambda: fock.fidelity(other, zero),
                    lambda: fock.fidelity(zero, other),
                    lambda: fock.purity(zero, ["A", "B"]),
                    lambda: fock.purity(zero, ["A"])):
        with pytest.raises(ValueError, match="zero norm"):
            measure()


def test_quadrature_first_moment_vacuum():
    v = fock.vacuum(["A"], [4])
    assert fock.quadrature_moment(v, [("A", "+")]) == 0.0
    assert fock.quadrature_moment(v, [("A", "-")]) == 0.0


def test_quadrature_vacuum_variance_is_one():
    v = fock.vacuum(["A"], [4])
    assert fock.quadrature_moment(v, [("A", "+")] * 2) == pytest.approx(1.0, abs=1e-15)
    assert fock.quadrature_moment(v, [("A", "-")] * 2) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_cross_moment_epr_series_oracle():
    chi = 0.5
    c = lambda n: math.sqrt(1 - chi * chi) * chi ** n
    oracle = 2 * sum(c(n) * c(n + 1) * (n + 1) for n in range(400))
    st = fock.epr_state(chi, ("M", "N"), 30)
    got = fock.quadrature_moment(st, [("M", "+"), ("N", "+")])
    assert abs(got - oracle) < 1e-8
    assert abs(got - 4.0 / 3.0) < 1e-8
    # X- quadratures are anticorrelated with equal magnitude
    got_minus = fock.quadrature_moment(st, [("M", "-"), ("N", "-")])
    assert abs(got_minus + oracle) < 1e-8


def test_quadrature_moment_exact_at_cutoff_boundary():
    st = fock.fock_state(["A"], [1], [1])
    assert fock.quadrature_moment(st, [("A", "+")] * 2) == pytest.approx(3.0, abs=1e-14)


def test_quadrature_moment_rejects_malformed_spec():
    v = fock.vacuum(["A"], [4])
    with pytest.raises(ValueError):
        fock.quadrature_moment(v, [])
    with pytest.raises(ValueError):
        fock.quadrature_moment(v, [("A", "+")] * 3)
    with pytest.raises(ValueError):
        fock.quadrature_moment(v, [("A", "x")])
    with pytest.raises(ValueError):
        fock.quadrature_moment(v, [("Q", "+")])


def test_purity_maximally_mixed_two_level():
    # either half of a Bell pair is maximally mixed
    amps = np.diag([1.0, 1.0]).astype(complex) / math.sqrt(2.0)
    bell = fock.PureState(("A", "B"), amps)
    for keep in (["A"], ["B"]):
        assert fock.purity(bell, keep) == pytest.approx(0.5, abs=1e-15)


def test_operations_are_bit_deterministic():
    st = fock.epr_state(0.37, ("M", "N"), 12)
    a = fock.apply_beamsplitter(st, ("M", "N"), 0.61)
    b = fock.apply_beamsplitter(st, ("M", "N"), 0.61)
    assert np.array_equal(a.amps, b.amps)


def test_debug_serialize_golden():
    st = fock.epr_state(0.5, ("A", "B"), 3)
    expect = "\n".join([
        "0,0: 0.8660254037844386,0",
        "1,1: 0.4330127018922193,0",
        "2,2: 0.21650635094610965,0",
        "3,3: 0.10825317547305482,0",
    ])
    assert fock.debug_serialize(st) == expect


def test_states_are_immutable():
    st = fock.vacuum(["A"], [3])
    with pytest.raises(ValueError):
        st.amps[0] = 0.0


def test_cutoffs_are_the_amplitude_shape():
    st = fock.PureState(("A", "B"), np.full((2, 4), 0.25, dtype=complex))
    assert st.cutoffs == (1, 3) and st.cutoff_of("B") == 3
    with pytest.raises(ValueError, match="axes"):
        fock.PureState(("A", "B"), np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="cutoffs"):
        fock.PureState(("A",), np.array([1.0], dtype=complex))


def test_norm_invariant_enforced():
    with pytest.raises(ValueError, match="exceeds 1"):
        fock.PureState(("A",), np.array([1.0, 1.0], dtype=complex))
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                complex(np.inf, -np.inf)):
        with pytest.raises(ValueError, match="non-finite"):
            fock.PureState(("A",), np.array([0.5, bad], dtype=complex))
