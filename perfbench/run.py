"""Benchmark harness for nla-distill.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each pass of a workload runs in a fresh
single process (no process pool, ``--workers 1`` for the CLI), so caches
start cold as they do for one ``nla-distill`` invocation.  Passes repeat
until ``--seconds`` is used up; every pass's outputs go through the
correctness gate in ``workloads.py``.

With ``--trace 0`` the harness reports the end-to-end metrics (medians over
passes).  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics from the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object; the full
record (inputs, versions, per-pass figures, spans) goes to
``perfbench/out/<workload>-seed<N>-trace<T>/``.  The exit status is 0 only
when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(HERE, "out")

SETUP_SAMPLES = 5          # import timings per run, from passes and probes
PASS_TIMEOUT_S = 170
TAIL_BEYOND = 10           # points the tail percentile must leave above it
# One BLAS thread per worker: on a shared two-core machine a second OpenBLAS
# thread tripled a sweep-n1 pass whenever another process kept a core busy.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# End-to-end metrics in BENCHMARK.json.  point_p50_ms is reported next to
# them but not gated: on the machine the benchmark was built on, the median
# of sweep-n1's short, interpreter-bound points moved by up to 75 % between
# runs with the host's CPU contention, beyond the largest bound (0.25) that
# BENCHMARK.json may set.
END_TO_END = {"wall_s": "s", "points_per_s": "1/s", "point_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED = {**END_TO_END, "point_p50_ms": "ms"}

# per-layer metrics from the traced passes: (name, unit, better)
LAYER_CALLS = (
    "fock.quadrature_moment", "fock.apply_beamsplitter",
    "fock.herald_beamsplitter", "metrics.epr_criterion",
    "analytic.eps_opt_formula", "analytic.purity_formula",
    "moments.eps_via_moments", "moments.heralded_moment",
    "nla.closed_form_state", "nla.single_stage_circuit",
    "nla.dual_stage_circuit", "nla.truncated_pair_state",
    "optimize.eta_candidates")
LAYER_SELF = (
    "fock.quadrature_moment", "fock.apply_beamsplitter",
    "fock.herald_beamsplitter", "fock.partial_trace", "fock.purity",
    "metrics.epr_criterion", "analytic.eps_opt_formula",
    "moments.eps_via_moments", "moments.heralded_moment",
    "nla.closed_form_state", "nla.single_stage_circuit",
    "nla.dual_stage_circuit", "nla.truncated_pair_state",
    "nla.distill_and_measure", "optimize.eta_candidates",
    "optimize.optimize_entanglement", "optimize.purity_for_target_entanglement",
    "optimize.best_entanglement_vs_stages", "figures.figure_rows",
    "figures.write_csv", "cli.main", "verify.run_all")
LAYER_EXTRA = (
    ("fock.state_bytes_max", "bytes", "lower"),
    ("moments.vacuum_expectation.hit_ratio", "ratio", "higher"),
    ("moments.vacuum_expectation.misses", "count", "lower"),
    ("optimize.eta_candidates.feasible_ratio", "ratio", "higher"),
    ("optimize.eta_candidates.calls_per_point", "calls/point", "lower"),
    ("figures.write_csv.bytes", "bytes", "lower"),
    ("verify.min_margin_decades", "decades", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)
PER_LAYER = ([(f"{n}.calls", "count", "lower") for n in LAYER_CALLS]
             + [(f"{n}.self_s", "s", "lower") for n in LAYER_SELF]
             + list(LAYER_EXTRA))


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def run_worker(mode: str, spec: dict) -> dict:
    """One fresh-process pass; ``mode`` is setup, plain or traced."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), mode],
            input=json.dumps(spec), capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, **WORKER_ENV}, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise HarnessError(f"{mode} pass exited with {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = time.perf_counter() - t0
    return res


def run_passes(spec: dict, seconds: float, trace: bool) -> list[dict]:
    """Passes until ``seconds`` would be exceeded; at least one of each mode."""
    modes = ("plain", "traced") if trace else ("plain",)
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        mode = modes[len(passes) % len(modes)]
        passes.append(run_worker(mode, {**spec, "pass": len(passes)}))
        next_s = max(p["elapsed_s"] for p in passes[-len(modes):])
        if (len(passes) >= len(modes)
                and time.perf_counter() - t0 + next_s > seconds):
            return passes


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the value with ``pct`` % of values at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves at least TAIL_BEYOND of n points
    above it (50 when n is too small for that)."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n))) if n else 50


def end_to_end(plain: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics (medians over passes) and notes on how they were read."""
    med = statistics.median
    points = plain[0]["points"]
    if "point_s" in plain[0]:
        pct = tail_percentile(points)
        p50 = med(percentile(p["point_s"], 50) for p in plain) * 1e3
        tail = med(percentile(p["point_s"], pct) for p in plain) * 1e3
        note = f"p{pct} of {points} timed points per pass, median over passes"
    else:
        p50 = tail = med(p["wall_s"] / p["points"] for p in plain) * 1e3
        note = (f"points are not timed one by one here: p50 and tail both "
                f"read wall_s / {points} points, median over passes")
    values = {
        "wall_s": med(p["wall_s"] for p in plain),
        "points_per_s": med(p["points"] / p["wall_s"] for p in plain),
        "point_p50_ms": p50,
        "point_tail_ms": tail,
        "setup_s": med(setup),
        "peak_rss_mb": med(p["maxrss_kb"] for p in plain) / 1024.0,
    }
    return values, {"point_latency": note, "points_per_pass": points,
                    "passes": len(plain), "setup_samples": len(setup)}


def _min_margin_decades(outputs) -> float:
    margins = [math.log10(tol / err) for _, err, tol, _ in outputs if err > 0]
    return min(margins) if margins else 0.0


def layer_values(p: dict, workload: str) -> dict:
    """Per-layer metrics of one traced pass."""
    tr, fn = p["trace"], p["trace"]["functions"]
    vals = {f"{n}.calls": fn[n]["calls"] for n in LAYER_CALLS}
    vals.update({f"{n}.self_s": fn[n]["self_s"] for n in LAYER_SELF})
    cache = tr["vacuum_cache"]
    lookups = cache["hits"] + cache["misses"]
    eta_calls = fn["optimize.eta_candidates"]["calls"]
    vals.update({
        "fock.state_bytes_max": tr["state_bytes_max"],
        "moments.vacuum_expectation.hit_ratio":
            cache["hits"] / lookups if lookups else 0.0,
        "moments.vacuum_expectation.misses": cache["misses"],
        "optimize.eta_candidates.feasible_ratio":
            tr["eta_candidates_nonempty"] / eta_calls if eta_calls else 0.0,
        "optimize.eta_candidates.calls_per_point": eta_calls / p["points"],
        "figures.write_csv.bytes": tr["csv_bytes"],
        "verify.min_margin_decades":
            _min_margin_decades(p["outputs"]) if workload == "verify" else 0.0,
    })
    return vals


def per_layer(plain: list[dict], traced: list[dict], workload: str) -> dict:
    med = statistics.median
    each = [layer_values(p, workload) for p in traced]
    vals = {name: med(v[name] for v in each) for name in each[0]}
    vals["trace.overhead_frac"] = (med(p["wall_s"] for p in traced)
                                   / med(p["wall_s"] for p in plain) - 1.0)
    return vals


def layer_shares(traced: list[dict]) -> list[tuple[str, float, float]]:
    """(function, self share, inclusive share) of the traced wall time."""
    p = traced[0]
    fn = p["trace"]["functions"]
    rows = [(n, f["self_s"] / p["wall_s"], f["incl_s"] / p["wall_s"])
            for n, f in fn.items() if f["calls"]]
    return sorted(rows, key=lambda r: -r[1])


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Run one benchmark invocation and return its full record."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nla_distill", "__init__.py")):
        raise HarnessError(f"no program to measure: {ROOT}/src/nla_distill is missing")
    out_dir = os.path.join(OUT_ROOT, f"{workload}-seed{seed}-trace{int(trace)}")
    os.makedirs(out_dir, exist_ok=True)
    spec = {**wl.make_spec(workload, seed, tiny), "out_dir": out_dir}
    ref = wl.load_reference(workload)

    passes = run_passes(spec, seconds, trace)
    setup = [p["setup_s"] for p in passes]
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_worker("setup", spec)["setup_s"])

    attempted, failed, failures = 0, 0, []
    for k, p in enumerate(passes):
        n, bad = wl.CHECKS[workload](spec, p["outputs"], ref)
        attempted += n
        failed += min(n, len(bad))
        failures += [f"pass {k}: {b}" for b in bad]

    plain = [p for p in passes if p["mode"] == "plain"]
    traced = [p for p in passes if p["mode"] == "traced"]
    e2e, notes = end_to_end(plain, setup)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "cores": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "versions": passes[0]["versions"],
        "inputs": {k: v for k, v in spec.items() if k not in ("out_dir", "points")},
        "end_to_end": e2e, "notes": notes,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures[:50],
        "passes": [{k: p[k] for k in ("mode", "setup_s", "wall_s", "points",
                                      "maxrss_kb", "elapsed_s", "point_s") if k in p}
                   for p in passes],
    }
    if trace:
        record["per_layer"] = per_layer(plain, traced, workload)
        record["layer_shares"] = layer_shares(traced)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_report(record: dict) -> None:
    trace = record["trace"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"cores {record['cores']}  python {record['versions']['python']}  "
          f"numpy {record['versions']['numpy']}  scipy {record['versions']['scipy']}  "
          f"git {record['git_sha'] or 'unknown'}")
    for name, unit in REPORTED.items():
        print(f"  {name:<14} {record['end_to_end'][name]:.6g} {unit}")
    print(f"  {'failed_frac':<14} {record['failed_frac']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    for key, val in record["notes"].items():
        print(f"  {key}: {val}")
    for msg in record["failures"][:10]:
        print(f"  FAILED {msg}")
    if trace:
        for name, unit, _ in PER_LAYER:
            print(f"  {name:<44} {record['per_layer'][name]:.6g} {unit}")
        print("  share of traced wall_s (self, inclusive):")
        for name, self_share, incl_share in record["layer_shares"]:
            print(f"    {name:<40} {self_share:6.1%} {incl_share:6.1%}")
        metrics = {n: {"value": record["per_layer"][n], "unit": u}
                   for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": record["end_to_end"][n], "unit": u}
                   for n, u in END_TO_END.items()}
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_report(record)
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
