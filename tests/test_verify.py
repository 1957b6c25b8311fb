"""The oracle suite's truncation rule: every cutoff comes from the tail rule,
and every state a check builds is counted on the tail-budget line."""

import inspect

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
    # asks for more than MAX_CUTOFF; those are scored off the circuit route
    assert verify._auto_cutoff(optimize.R_GRID[-1]) > verify.MAX_CUTOFF
    built = _record_states(monkeypatch)
    tails = []
    verify._circuit_minimum(0.5, 0.1, tails)
    assert max(cut for _, cut in built) <= verify.MAX_CUTOFF
    assert max(tails) == max(tail for tail, _ in built) <= verify.TAIL_BUDGET
