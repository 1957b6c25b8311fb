"""Operating-point searches and the success-probability inversion."""

import dataclasses
import math

import numpy as np
import pytest

from nla_distill import figures, fock, nla, optimize
from nla_distill.analytic import (InfeasibleParameterError, eps_ladder,
                                  eps_no_nla, eps_opt_formula, kappa_rho,
                                  lambda_from_db, purity_formula,
                                  purity_ladder, purity_no_nla, success_prob)


def test_one_stage_eta_zero_squeezing():
    assert optimize.eta_candidates(0.0, 0.3, 0.25, 1) == [
        pytest.approx(0.75, abs=1e-15)]


@pytest.mark.parametrize("r,lam,pi", [(0.1, 0.3, 0.01), (0.2, 0.1, 0.3),
                                      (0.8, 0.6, 0.3)])
def test_one_stage_eta_roundtrip(r, lam, pi):
    eta, = optimize.eta_candidates(r, lam, pi, 1)
    assert success_prob(1, r, lam, eta) == pytest.approx(pi, abs=1e-12)


def test_one_stage_eta_infeasible():
    assert optimize.eta_candidates(1.0, 0.5, 0.99, 1) == []
    # small success rates are unreachable at moderate squeezing: the required
    # gain exceeds its eta -> 1 limit
    assert optimize.eta_candidates(0.5, 0.3, 0.01, 1) == []


def test_eta_candidates_reduce_to_linear_inversion():
    # Pi_1 is linear in eta: its one root is the secant's through two values
    r, lam, pi = 0.2, 0.1, 0.3
    a, b = success_prob(1, r, lam, 0.25), success_prob(1, r, lam, 0.75)
    assert optimize.eta_candidates(r, lam, pi, 1) == [
        pytest.approx(0.25 + 0.5 * (pi - a) / (b - a), abs=1e-14)]


@pytest.mark.parametrize("r,lam,pi", [(0.2, 0.3, 0.05), (0.3, 0.1, 0.1)])
def test_eta_candidates_two_stage_roundtrip(r, lam, pi):
    etas = optimize.eta_candidates(r, lam, pi, 2)
    assert etas
    for eta in etas:
        hs = nla.closed_form_state(2, r, lam, eta, 60)
        assert 4.0 * fock.norm_sq(hs) == pytest.approx(pi, abs=1e-9)


def test_optimize_entanglement_soundness():
    lam, pi = 0.9, 1e-2
    res = optimize.optimize_entanglement(lam, pi, 1)
    obj = optimize._make_objective(lam, pi, 1)
    # local minimum within the golden-section tolerance
    for delta in (-1e-4, 1e-4):
        val = obj(res.r_opt + delta)[0]
        assert val >= res.eps_b_given_a - 1e-10
    # no grid point undercuts the reported optimum
    for r in optimize.R_GRID:
        assert obj(r)[0] >= res.eps_b_given_a - 1e-8


def test_optimize_saturates_at_single_stage_floor():
    vals = [optimize.optimize_entanglement(0.9, pi, 1).eps_b_given_a
            for pi in (1e-3, 1e-5, 1e-7)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.8081
    assert vals[-1] < 0.8086


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eta_candidates_reject_nonpositive_success_rate(n):
    for pi in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="success probability"):
            optimize.eta_candidates(0.3, 0.2, pi, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eta_candidates_reject_squeezing_and_loss_outside_their_domains(n):
    # a NaN or negative r and a lam outside [0, 1) are errors at every stage
    # count, not an empty root list, a LinAlgError or a root; r = inf is not
    for r in (math.nan, -0.5):
        with pytest.raises(ValueError, match="squeezing"):
            optimize.eta_candidates(r, 0.3, 0.01, n)
    for lam in (math.nan, 1.5, -0.1):
        with pytest.raises(ValueError, match="loss reflectivity"):
            optimize.eta_candidates(0.3, lam, 0.01, n)
    assert optimize.eta_candidates(math.inf, 0.3, 0.01, n) == []


def test_eta_candidates_reject_stage_counts_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_stages must be an integer >= 1"):
            optimize.eta_candidates(0.3, 0.2, 0.01, n)


# every entry point that takes a stage count, called with one
STAGE_COUNT_ENTRIES = {
    "success_prob": lambda n: success_prob(n, 0.3, 0.3, 0.5),
    "eps_ladder": lambda n: eps_ladder(n, 0.5, 0.2),
    "purity_ladder": lambda n: purity_ladder(n, 0.5, 0.2),
    "eta_candidates": lambda n: optimize.eta_candidates(0.3, 0.3, 0.01, n),
    "scissor_circuit": lambda n: nla.scissor_circuit(n, 0.3, 0.3, 0.5, 8),
    "closed_form_state": lambda n: nla.closed_form_state(n, 0.3, 0.3, 0.5, 8),
    "truncated_pair_state": lambda n: nla.truncated_pair_state(n, 0.5),
    "distill_and_measure": lambda n: nla.distill_and_measure(
        n, nla.closed_form_state(2, 0.3, 0.3, 0.5, 8)),
    "optimize_entanglement":
        lambda n: optimize.optimize_entanglement(0.5, 0.01, n),
    "purity_for_target_entanglement":
        lambda n: optimize.purity_for_target_entanglement(0.9, 0.5, 0.01, n),
    "best_entanglement_vs_stages": optimize.best_entanglement_vs_stages,
    "figure_params": lambda n: figures.figure_params("fig11", max_stages=n),
}


@pytest.mark.parametrize("entry", STAGE_COUNT_ENTRIES)
def test_stage_counts_are_integers(entry):
    # a float, a bool, a string or a NaN stage count is a ValueError, not a
    # TypeError from range() or a result; a numpy integer is an integer
    call = STAGE_COUNT_ENTRIES[entry]
    for n in (2.5, 2.0, True, "3", math.nan):
        with pytest.raises(ValueError):
            call(n)
    out = call(np.int64(2))
    if entry in ("optimize_entanglement", "purity_for_target_entanglement",
                 "distill_and_measure"):
        # a report carries N and its figures as Python scalars
        assert repr(out) == repr(call(2))


# every entry point that takes the lossy channel, with the arguments that go
# before and after its (r, lam)
CHANNEL_ENTRIES = [
    (success_prob, (1,), (0.5,)), (eps_no_nla, (), ()), (purity_no_nla, (), ()),
    (nla.lossy_channel_state, (), (8,)), (nla.scissor_circuit, (2,), (0.5, 8)),
    (nla.single_stage_circuit, (), (0.5, 8)),
    (nla.dual_stage_circuit, (), (0.5, 8)),
    (nla.closed_form_state, (2,), (0.5, 8)),
]


@pytest.mark.parametrize("form,args", [
    (eps_opt_formula, (0.3, 0.3, 1.5)), (purity_formula, (0.3, 0.3, 1.5)),
    (success_prob, (1, 0.3, 0.3, 1.5)),
    (optimize.eta_candidates, (0.3, 0.3, 1.5, 1)),
    (optimize.eta_candidates, (0.3, 0.3, 1.5, 2)),
    (optimize.eta_candidates, (0.3, 1.5, 0.01, 1)),
    (optimize.eta_candidates, (-0.5, 0.3, 0.01, 1)),
    (purity_formula, (-0.3, 0.3, 0.01)), (purity_formula, (0.3, 1.5, 0.01)),
    (eps_opt_formula, (math.nan, 0.3, 0.01)),
] + [(form, (*head, r, lam, *tail)) for form, head, tail in CHANNEL_ENTRIES
     for r, lam in ((-0.1, 0.3), (math.nan, 0.3), (0.5, 1.0), (0.5, math.nan))])
def test_one_stage_forms_check_their_domains(form, args, monkeypatch):
    # an (r, lam, pi) outside its domain is an input error, not a number, an
    # empty root list or an unreachable operating point; a Fock-route builder
    # raises it before it builds any state (nla's state constructors are
    # unbound here, so building one would raise AttributeError)
    monkeypatch.setattr(nla, "fock", None)
    monkeypatch.setattr(nla, "np", None)
    with pytest.raises(ValueError) as exc:
        form(*args)
    assert type(exc.value) is ValueError, exc.value


@pytest.mark.parametrize("r", [20.0, 25.0, 356.0, 400.0, 1e3])
def test_eta_inversion_where_tanh_squared_rounds_to_one(r):
    # 1 - tanh^2 r is 0 in floats: the linear eta runs off to -inf, outside
    # (0, 1), at every stage count alike; past r ~ 355.6 cosh^2 r overflows
    # a double too
    assert math.tanh(r) ** 2 == 1.0
    for n in (1, 2, 3, 4):
        assert optimize.eta_candidates(r, 0.3, 0.5, n) == []


def test_eta_candidates_below_the_cosh_squared_overflow():
    # just below where cosh^2 r overflows (r ~ 355.6) the level set's
    # constant term over its leading coefficient overflowed the companion
    # solver; Pi_N <= cosh^2 rho / cosh^2 r rules every such point out before
    # it is solved
    assert optimize.eta_candidates(355.58450362725193, 0.3, 0.5, 2) == []
    assert optimize.eta_candidates(354.9, 0.0, 1.0, 2) == []
    for r in np.linspace(19.0, 355.58, 3000):
        for n in (2, 3, 4):
            for lam in (0.0, 0.3, 0.9, 0.999):
                for pi in (1e-4, 0.5, 1.0):
                    assert optimize.eta_candidates(float(r), lam, pi, n) == []


def test_eta_candidates_match_np_roots():
    # the batched companion solver against np.roots on the same polynomial,
    # bit for bit, with the same (0, 1) filter
    rng = np.random.default_rng(0)
    found = 0
    for _ in range(1200):
        n = int(rng.integers(2, 5))
        r, lam = rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.99)
        pi = 10.0 ** rng.uniform(-4.0, 0.0)
        roots = np.roots(optimize._level_set_coeffs(r, lam, pi, n)[::-1])
        z = roots.real
        inside = (abs(roots.imag) < 1e-9) & (1e-12 < z) & (z < 1.0 - 1e-12)
        etas = optimize.eta_candidates(r, lam, pi, n)
        assert etas == sorted(z[inside].tolist()), (n, r, lam, pi)
        found += bool(etas)
    assert found > 600


@pytest.mark.parametrize("lam,pi", [(0.3, 1e-2), (0.6, 1e-1), (0.9, 1e-3),
                                    (lambda_from_db(15.0), 1e-2)])
def test_one_stage_purity_is_reported_from_the_ladder(lam, pi):
    # every stage count reports purity from the ladder sums; the published
    # one-stage closed form agrees to roundoff
    best, results = optimize.purity_for_target_entanglement(
        0.85, lam, pi, 1, full_output=True)
    for res in [optimize.optimize_entanglement(lam, pi, 1), *results]:
        kappa, rho = kappa_rho(res.r_opt, lam, res.eta_opt)
        assert res.purity == purity_ladder(1, kappa, rho)
        assert abs(res.purity - purity_formula(res.r_opt, lam, pi)) < 1e-12


def test_optimize_result_is_consistent():
    res = optimize.optimize_entanglement(0.9, 1e-2, 1)
    assert 0 < res.eta_opt < 1
    assert res.success_prob == 1e-2
    assert success_prob(1, res.r_opt, 0.9, res.eta_opt) == pytest.approx(
        1e-2, abs=1e-9)
    assert res.eps_b_given_a < res.eps_a_given_b
    assert res.n_stages == 1


@pytest.mark.parametrize("n", [1, 2])
def test_search_results_hold_python_floats(n):
    # r_opt comes off the numpy grid; isinstance would pass a numpy scalar,
    # so the type is compared exactly
    for res in (optimize.optimize_entanglement(0.9, 1e-2, n),
                optimize.purity_for_target_entanglement(0.9, 0.9, 1e-2, n)):
        for field in dataclasses.fields(res):
            value = getattr(res, field.name)
            expect = int if field.name == "n_stages" else float
            assert type(value) is expect, (field.name, type(value))
        assert "np.float64" not in repr(res)


def test_optimize_second_feasible_pocket_is_handled():
    # at this point the eta inversion re-enters (0, 1) near r ~ 2.1; the
    # optimizer must scan it without assuming a single feasible interval
    res = optimize.optimize_entanglement(0.5, 1e-1, 1)
    assert res.r_opt < 0.5
    assert math.isfinite(res.eps_b_given_a)


def test_optimize_two_stage_simulate_agrees():
    # the optimum found on the ladder algebra, re-measured on the simulated
    # two-stage state at the reported operating point
    a = optimize.optimize_entanglement(0.9, 1e-3, 2)
    hs = nla.closed_form_state(2, a.r_opt, 0.9, a.eta_opt, 60)
    assert hs.tail_mass < 1e-12
    sim = nla.distill_and_measure(2, hs)
    assert abs(a.eps_b_given_a - sim.eps_b_given_a) < 1e-8
    assert abs(a.eps_a_given_b - sim.eps_a_given_b) < 1e-8
    assert abs(a.purity - sim.purity) < 1e-8
    assert a.eps_b_given_a < 0.81  # two photons beat the single-stage floor


@pytest.mark.parametrize("n", [3, 4])
def test_many_stage_search_matches_ladder_sums(n):
    # the search objective (moments engine) re-evaluated at the reported
    # operating point by the independent ladder sums
    res = optimize.optimize_entanglement(0.9, 1e-2, n)
    assert res.n_stages == n and 0 < res.eta_opt < 1
    kappa, rho = kappa_rho(res.r_opt, 0.9, res.eta_opt)
    assert abs(res.eps_b_given_a - eps_ladder(n, kappa, rho)[0]) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam,pi", [(0.3, 1e-2), (0.6, 1e-1), (0.9, 1e-3)])
def test_refined_optimum_undercuts_the_grid(n, lam, pi):
    # golden-section refinement assumes the objective is unimodal around the
    # best grid point; were it not, the refined optimum could land above it
    # ((0.3, 1e-2) at two stages has a second feasible pocket)
    objective = optimize._make_objective(lam, pi, n)
    eps, eta = np.array([objective(r) for r in optimize.R_GRID]).T
    _, grid_eps, _ = optimize._feasible_grid(eps, eta, lam, pi, n)
    res = optimize.optimize_entanglement(lam, pi, n)
    assert res.eps_b_given_a <= grid_eps.min()


def test_optimize_rejects_bad_domain():
    with pytest.raises(ValueError):
        optimize.optimize_entanglement(1.0, 0.1, 1)
    with pytest.raises(ValueError):
        optimize.optimize_entanglement(0.5, 0.0, 1)


def test_searches_reject_stage_counts_past_the_bound():
    # the multi-stage searches run on the moments engine, whose one-off
    # compile grows exponentially with the stage count; inputs past the
    # bound fail fast
    n = optimize.MAX_SEARCH_STAGES + 1
    with pytest.raises(ValueError, match="stages"):
        optimize.optimize_entanglement(0.5, 0.1, n)
    with pytest.raises(ValueError, match="stages"):
        optimize.purity_for_target_entanglement(0.9, 0.5, 0.1, n)
    with pytest.raises(ValueError):
        optimize.optimize_entanglement(0.5, 0.1, 0)


@pytest.mark.parametrize("eps", [0.0, -0.1, 1.5, math.nan, math.inf])
def test_purity_target_rejects_targets_outside_zero_one(eps):
    # the target search and figure_params share one (0, 1] target domain
    with pytest.raises(ValueError, match=r"eps_target must be in \(0, 1\]"):
        optimize.purity_for_target_entanglement(eps, 0.3, 0.01, 1)
    with pytest.raises(ValueError, match=r"eps_target must be in \(0, 1\]"):
        figures.figure_params("fig7", eps_target=eps)


def test_purity_target_trivial():
    res = optimize.purity_for_target_entanglement(1.0, 0.5, 0.1, 1)
    assert res.r_opt == pytest.approx(0.0, abs=1e-6)
    assert res.purity == pytest.approx(1.0, abs=1e-6)


def test_purity_target_unachievable():
    with pytest.raises(optimize.UnachievableTargetError):
        optimize.purity_for_target_entanglement(0.6, 0.5, 0.1, 1)


def test_purity_target_two_roots_max_purity():
    best, all_roots = optimize.purity_for_target_entanglement(
        0.9, 0.9, 1e-2, 1, full_output=True)
    assert len(all_roots) >= 2
    assert best.purity == max(r.purity for r in all_roots)
    assert best.eps_b_given_a == pytest.approx(0.9, abs=1e-9)
    # the low-squeezing root is the purer operating point
    assert best.r_opt == min(r.r_opt for r in all_roots)


def test_purity_target_two_stage_succeeds_below_single_floor():
    res = optimize.purity_for_target_entanglement(
        0.6, 0.5, 1e-2, 2)
    assert res.eps_b_given_a == pytest.approx(0.6, abs=1e-9)
    assert 0 < res.purity <= 1


@pytest.mark.parametrize("n", [1, 2])
def test_purity_target_between_refined_optimum_and_grid(n):
    # a target below every grid value but above the refined optimum has its
    # two roots inside the optimum's grid cells, one on each side
    lam, pi = lambda_from_db(10.0), 1e-2
    best = optimize.optimize_entanglement(lam, pi, n)
    objective = optimize._make_objective(lam, pi, n)
    grid_min = min(objective(r)[0] for r in optimize.R_GRID)
    target = 0.5 * (best.eps_b_given_a + grid_min)
    assert best.eps_b_given_a < target < grid_min
    _, results = optimize.purity_for_target_entanglement(
        target, lam, pi, n, full_output=True)
    roots = [res.r_opt for res in results]
    assert len(roots) == 2 and roots[0] < best.r_opt < roots[1]
    for r in roots:
        assert abs(objective(r)[0] - target) <= 1e-9


def test_best_entanglement_vs_stages_known_floors():
    out = optimize.best_entanglement_vs_stages(2)
    (n1, e1, k1), (n2, e2, k2) = out
    assert (n1, n2) == (1, 2)
    assert e1 == pytest.approx(0.81, abs=5e-3)
    assert k1 == pytest.approx(0.36, abs=1e-2)
    assert e2 == pytest.approx(0.57, abs=5e-3)
    assert k2 == pytest.approx(0.59, abs=1e-2)


def test_floor_refines_by_the_slope_root_alone(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the floor called a golden-section search")

    monkeypatch.setattr(optimize, "_golden_min", forbidden)
    monkeypatch.setattr(optimize, "_minimize_on_grid", forbidden)
    assert len(optimize.best_entanglement_vs_stages(3)) == 3


def test_floor_without_a_slope_root_names_the_stage_count(monkeypatch):
    monkeypatch.setattr(optimize, "_eps_slope", lambda n, kappa, ladder: 1.0)
    with pytest.raises(RuntimeError, match="no floor at N = 1 "):
        optimize.best_entanglement_vs_stages(2)


def test_best_entanglement_decreases_with_stages():
    out = optimize.best_entanglement_vs_stages(8)
    eps = [e for _, e, _ in out]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    assert eps[-1] > 0.0


def test_fully_infeasible_grid_raises():
    # success probability 1 needs eta = 0, outside the open interval, at
    # every squeezing
    with pytest.raises(InfeasibleParameterError):
        optimize.optimize_entanglement(0.5, 1.0, 1)


@pytest.mark.parametrize("n", [1, 2])
def test_scalar_probes_are_the_refinement_only(n, monkeypatch):
    # the grid is scanned as arrays, so the scalar eta_candidates only sees
    # the refinement's squeezings, each once: the target search keeps the eta
    # of every squeezing brentq probes, and each root is one of them
    probed = []
    real = optimize.eta_candidates

    def counting(r, lam, pi, n_stages):
        probed.append(r)
        return real(r, lam, pi, n_stages)

    monkeypatch.setattr(optimize, "eta_candidates", counting)
    optimize.optimize_entanglement(0.6, 1e-2, n)
    assert 0 < len(probed) < optimize.R_GRID_POINTS
    assert len(probed) == len(set(probed))
    probed.clear()
    optimize.purity_for_target_entanglement(0.9, 0.6, 1e-2, n)
    assert 0 < len(probed) < optimize.R_GRID_POINTS
    assert len(probed) == len(set(probed))


def test_target_search_refines_the_optimum_only_above_the_grid(monkeypatch):
    # the refined optimum (eps_min, r_opt) is read only when every grid value
    # lies above the target, so only then is it searched for
    calls = []
    real = optimize._minimize_on_grid
    monkeypatch.setattr(optimize, "_minimize_on_grid",
                        lambda *a: calls.append(a) or real(*a))
    optimize.purity_for_target_entanglement(0.9, 0.6, 1e-2, 1)
    assert not calls
    with pytest.raises(optimize.UnachievableTargetError):
        optimize.purity_for_target_entanglement(0.6, 0.5, 0.1, 1)
    assert len(calls) == 1
