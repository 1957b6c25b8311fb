"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

They are not part of the package's test suite: the smoke runs start fresh
worker processes and take about a minute in total.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # names: 0 = a, 1 = b, 2 = c
    #   a [0, 10]
    #     b [1, 4]
    #     c [5, 9]
    #       b [6, 7]
    #   c [12, 13]
    name_idx = [0, 1, 2, 1, 2]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 12.0]
    end = [10.0, 4.0, 9.0, 7.0, 13.0]
    calls, self_s, incl_s = tracer.span_times(name_idx, parent, start, end, 3)
    assert list(calls) == [1, 2, 2]
    assert list(self_s) == pytest.approx([10 - 3 - 4, 3 + 1, (4 - 1) + 1])
    assert list(incl_s) == pytest.approx([10, 4, 5])


def test_tracer_patches_every_binding_and_restores():
    from nla_distill import analytic, optimize, verify
    original = analytic.eps_opt_formula
    with tracer.Tracer() as tr:
        assert optimize.eps_opt_formula is analytic.eps_opt_formula
        assert verify.eps_opt_formula is analytic.eps_opt_formula
        assert analytic.eps_opt_formula is not original
        optimize.optimize_entanglement(0.5, 1e-2, 1)
    assert analytic.eps_opt_formula is original
    assert optimize.eps_opt_formula is original
    fn = tr.stats()["functions"]
    assert fn["optimize.optimize_entanglement"]["calls"] == 1
    assert fn["optimize.eta_candidates"]["calls"] > 0
    assert fn["analytic.eps_opt_formula"]["calls"] > 0
    # the entry point spans every nested call
    total = sum(f["self_s"] for f in fn.values())
    assert total == pytest.approx(fn["optimize.optimize_entanglement"]["incl_s"])


def _n1_outputs_from_reference(spec, ref):
    return [copy.deepcopy(ref["pool"][k][2:]) for k in spec["pool_index"]]


def test_gate_catches_perturbed_sweep_n1_reference():
    spec = wl.make_spec("sweep-n1", 7, tiny=True)
    ref = wl.load_reference("sweep-n1")
    outputs = _n1_outputs_from_reference(spec, ref)
    assert wl.check_sweep_n1(spec, outputs, ref) == (len(outputs), [])

    feasible = next(k for k in spec["pool_index"] if ref["pool"][k][2] != "infeasible")
    bad_ref = copy.deepcopy(ref)
    bad_ref["pool"][feasible][2][0] += 2e-9              # eps beyond 1e-9
    assert len(wl.check_sweep_n1(spec, outputs, bad_ref)[1]) == 1
    bad_ref = copy.deepcopy(ref)
    bad_ref["pool"][feasible][2][3] += 5e-7              # eta within 1e-6
    assert wl.check_sweep_n1(spec, outputs, bad_ref)[1] == []
    bad_ref["pool"][feasible][2] = "infeasible"          # verdict flipped
    assert len(wl.check_sweep_n1(spec, outputs, bad_ref)[1]) == 1

    outputs[0][1] = {"error": "TailMassError: leak"}
    assert len(wl.check_sweep_n1(spec, outputs, ref)[1]) == 1


def test_gate_catches_perturbed_floor_and_pins():
    ref = wl.load_reference("floor")
    spec = wl.make_spec("floor", 0)
    outputs = copy.deepcopy(ref["rows"][:spec["n_max"]])
    assert wl.check_floor(spec, outputs, ref) == (spec["n_max"], [])
    bad_ref = copy.deepcopy(ref)
    bad_ref["rows"][4][1] -= 1e-8
    assert len(wl.check_floor(spec, outputs, bad_ref)[1]) == 1
    # a floor that drifts off the verify pins fails twice: reference and pin
    outputs[0][1] += 0.01
    assert len(wl.check_floor(spec, outputs, ref)[1]) == 2
    # a call that raised fails every stage count
    assert len(wl.check_floor(spec, {"error": "RuntimeError: x"}, ref)[1]) \
        == spec["n_max"]


def test_gate_catches_failed_verify_check():
    ref = wl.load_reference("verify")
    outputs = [[n, e, t, e <= t] for n, e, t in ref["checks"]]
    assert wl.check_verify({}, outputs, ref) == (len(outputs), [])
    outputs[3][3] = False
    assert len(wl.check_verify({}, outputs, ref)[1]) == 1


def test_percentiles():
    assert run.tail_percentile(600) == 98
    assert run.tail_percentile(12) == 50
    values = list(range(1, 601))
    assert run.percentile(values, 98) == 588      # twelve values above it
    assert run.percentile(values, 50) == 300


def test_benchmark_json_matches_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_run(workload):
    record = run.run_workload(workload, seed=3, seconds=0, trace=False, tiny=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > 0
    assert set(record["end_to_end"]) == set(run.REPORTED)
    assert all(v > 0 for v in record["end_to_end"].values())
    assert record["seed"] == 3 and record["versions"]["numpy"]


def test_smoke_traced_run():
    record = run.run_workload("floor", seed=3, seconds=0, trace=True, tiny=True)
    assert record["failed"] == 0, record["failures"]
    layers = record["per_layer"]
    assert set(layers) == {name for name, _, _ in run.PER_LAYER}
    assert layers["metrics.epr_criterion.calls"] > 0
    assert layers["fock.quadrature_moment.calls"] \
        == 20 * layers["metrics.epr_criterion.calls"]
    assert layers["nla.truncated_pair_state.calls"] \
        == layers["metrics.epr_criterion.calls"]
