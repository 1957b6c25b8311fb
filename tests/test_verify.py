"""The oracle suite's truncation rule: every cutoff comes from the tail rule,
and every state a check builds is counted on the tail-budget line.  Its
circuit search brackets the circuit's minimum, and runs no search step of
`optimize`.  Its success-probability checks reach two stages."""

import inspect

import numpy as np
import pytest

from nla_distill import fock, nla, optimize, verify


def _record_states(monkeypatch) -> list[tuple[float, int]]:
    """Wrap every public function of `fock` and `nla`; each state one of them
    returns is recorded as (tail_mass, largest cutoff)."""
    built = []
    for mod in (fock, nla):
        for name in mod.__all__:
            fn = getattr(mod, name)
            if not inspect.isfunction(fn):
                continue

            def wrapped(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                st = out.state if isinstance(out, nla.HeraldedState) else out
                if isinstance(st, fock.PureState):
                    built.append((st.tail_mass, max(st.cutoffs)))
                return out

            monkeypatch.setattr(mod, name, wrapped)
    return built


def test_tail_line_is_the_worst_tail_of_every_state_built(monkeypatch):
    built = _record_states(monkeypatch)
    line = verify.run_all()[-1]
    assert len(built) > 1000  # the wrappers saw the suite's circuits
    worst = max(tail for tail, _ in built)
    assert line.name == "truncation_tail_budget"
    assert line.error == worst
    assert worst <= verify.TAIL_BUDGET == line.tolerance
    assert max(cut for _, cut in built) <= verify.MAX_CUTOFF


def test_circuit_minimum_builds_no_circuit_past_the_cutoff_cap(monkeypatch):
    # (0.5, 0.1) has a second feasible pocket at squeezings whose tail rule
    # asks for more than MAX_CUTOFF; those are scored off the circuit route.
    # Its grid point 192 is on the circuit scan, so the scan probes one
    r = optimize.R_GRID[192]
    assert r in optimize.R_GRID[::verify._SCAN_STRIDE]
    assert optimize.eta_candidates(r, 0.5, 0.1, 1)
    assert verify._auto_cutoff(r) > verify.MAX_CUTOFF
    built = _record_states(monkeypatch)
    tails = []
    verify._circuit_minimum(0.5, 0.1, tails)
    assert max(cut for _, cut in built) <= verify.MAX_CUTOFF
    assert max(tails) == max(tail for tail, _ in built) <= verify.TAIL_BUDGET


@pytest.mark.parametrize("lam,pi", verify._MIN_POINTS)
def test_circuit_scan_bracket_holds_the_full_scan_minimum(monkeypatch, lam, pi):
    # the circuit search scans every _SCAN_STRIDE-th grid point; the argmin
    # of the circuit on all 200 points lies in the cell it refines, and the
    # refined minimum is below every grid value
    cells, fminbound = [], verify._fminbound

    def recording(f, a, b, xatol):
        cells.append((a, b))
        return fminbound(f, a, b, xatol)

    monkeypatch.setattr(verify, "_fminbound", recording)
    found = verify._circuit_minimum(lam, pi, [])
    full = [verify._circuit_eps(r, lam, pi, [])
            for r in optimize.R_GRID.tolist()]
    (lo, hi), = cells
    assert lo < optimize.R_GRID[int(np.argmin(full))] < hi
    assert found <= min(full)


def test_circuit_minimum_runs_no_search_step_of_optimize(monkeypatch):
    # the circuit search is an oracle: it shares no refinement with the
    # searches it checks
    lam, pi = verify._MIN_POINTS[0]
    closed = optimize.optimize_entanglement(lam, pi, 1).eps_b_given_a

    def forbidden(*args, **kwargs):
        raise AssertionError("verify ran a search step of optimize")

    for name in ("_minimize_on_grid", "_feasible_grid", "_golden_min"):
        monkeypatch.setattr(optimize, name, forbidden)
    assert abs(verify._circuit_minimum(lam, pi, []) - closed) < 1e-10


def _check(results, name):
    found, = (c for c in results if c.name == name)
    return found


def test_heralding_check_reads_the_two_stage_success_prob(monkeypatch):
    # success_prob 1e-9 off at N = 2 only must show against the dual circuit
    exact = verify.success_prob
    assert _check(verify._check_circuits([]), "success_prob_vs_heralding").passed
    monkeypatch.setattr(verify, "success_prob", lambda n, r, lam, eta: exact(
        n, r, lam, eta) + (1e-9 if n == 2 else 0.0))
    assert not _check(verify._check_circuits([]),
                      "success_prob_vs_heralding").passed


def test_eta_roundtrip_checks_the_two_stage_roots(monkeypatch):
    # eta roots 1e-9 off at N = 2 only must fail the round trip
    exact = optimize.eta_candidates
    assert verify._check_eta_roundtrip().passed
    monkeypatch.setattr(optimize, "eta_candidates", lambda r, lam, pi, n: [
        eta + (1e-9 if n == 2 else 0.0) for eta in exact(r, lam, pi, n)])
    assert not verify._check_eta_roundtrip().passed


def test_eta_roundtrip_fails_a_point_with_no_root(monkeypatch):
    monkeypatch.setattr(optimize, "eta_candidates", lambda r, lam, pi, n: [])
    assert verify._check_eta_roundtrip().error == float("inf")
