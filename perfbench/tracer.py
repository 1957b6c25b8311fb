"""Spans around the calls into each nla_distill module's public functions.

The tracer replaces each traced function in every ``nla_distill`` module
namespace that binds it (``from .analytic import eps_opt_formula`` copies the
reference into ``optimize`` and ``verify``), so calls between modules are seen
whichever name they go through.  Spans (name, start, end, parent) are kept in
flat arrays in memory and written out once the pass ends; ``restore`` puts the
original functions back.

``moments.vacuum_expectation`` stays unwrapped: it recurses millions of times
per two-stage sweep, and its ``cache_info()`` already counts its work.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

# (module, function) pairs whose calls are spanned
TRACED = (
    ("fock", "quadrature_moment"),
    ("fock", "apply_beamsplitter"),
    ("fock", "herald_beamsplitter"),
    ("fock", "partial_trace"),
    ("fock", "purity"),
    ("metrics", "epr_criterion"),
    ("analytic", "eps_opt_formula"),
    ("analytic", "purity_formula"),
    ("moments", "eps_via_moments"),
    ("moments", "heralded_moment"),
    ("nla", "closed_form_state"),
    ("nla", "single_stage_circuit"),
    ("nla", "dual_stage_circuit"),
    ("nla", "truncated_pair_state"),
    ("nla", "distill_and_measure"),
    ("optimize", "eta_candidates"),
    ("optimize", "optimize_entanglement"),
    ("optimize", "purity_for_target_entanglement"),
    ("optimize", "best_entanglement_vs_stages"),
    ("figures", "figure_rows"),
    ("figures", "write_csv"),
    ("cli", "main"),
    ("verify", "run_all"),
)

PACKAGE = "nla_distill"

# traced functions that return a state; fock.state_bytes_max watches these
STATE_RETURNING = frozenset({
    "fock.apply_beamsplitter", "fock.herald_beamsplitter", "fock.partial_trace",
    "nla.closed_form_state", "nla.single_stage_circuit",
    "nla.dual_stage_circuit", "nla.truncated_pair_state"})


def _state_nbytes(result) -> int:
    """Bytes of the state array a state builder or Fock primitive returned."""
    state = getattr(result, "state", result)
    arr = getattr(state, "amps", None)
    if arr is None:
        arr = getattr(state, "matrix", None)
    return 0 if arr is None else arr.nbytes


class Tracer:
    """Records spans and boundary counters while installed."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, f in TRACED]
        self.name_idx = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.eta_nonempty = 0
        self.state_bytes_max = 0
        self.csv_bytes = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _hook(self, name: str):
        if name == "optimize.eta_candidates":
            def hook(args, result):
                if result:
                    self.eta_nonempty += 1
        elif name == "figures.write_csv":
            def hook(args, result):
                self.csv_bytes += os.path.getsize(args[0])
        elif name in STATE_RETURNING:
            def hook(args, result):
                self.state_bytes_max = max(self.state_bytes_max,
                                           _state_nbytes(result))
        else:
            hook = None
        return hook

    def _wrap(self, idx: int, fn, hook):
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_idx.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def install(self) -> None:
        traced = [(importlib.import_module(f"{PACKAGE}.{m}"), f) for m, f in TRACED]
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for idx, (module, fn_name) in enumerate(traced):
            original = getattr(module, fn_name)
            wrapper = self._wrap(idx, original, self._hook(self.names[idx]))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def stats(self) -> dict:
        """Per-function calls, self and inclusive seconds, plus counters."""
        calls, self_s, incl_s = span_times(self.name_idx, self.parent, self.start,
                                           self.end, len(self.names))
        return {"functions": {n: {"calls": int(c), "self_s": float(s),
                                  "incl_s": float(i)}
                              for n, c, s, i in zip(self.names, calls, self_s, incl_s)},
                "eta_candidates_nonempty": self.eta_nonempty,
                "state_bytes_max": self.state_bytes_max,
                "csv_bytes": self.csv_bytes,
                "spans": len(self.start)}

    def save(self, path: str) -> None:
        import numpy as np
        np.savez_compressed(path, names=np.array(self.names),
                            name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=np.float64),
                            end=np.frombuffer(self.end, dtype=np.float64))


def span_times(name_idx, parent, start, end, n_names: int):
    """Calls, self time and inclusive time per name from a span tree.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap in a single thread.
    Inclusive time sums each span's full duration.
    """
    import numpy as np
    name_idx = np.asarray(name_idx, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    child = np.zeros_like(dur)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    calls = np.bincount(name_idx, minlength=n_names)
    self_s = np.bincount(name_idx, weights=dur - child, minlength=n_names)
    incl_s = np.bincount(name_idx, weights=dur, minlength=n_names)
    return calls, self_s, incl_s
