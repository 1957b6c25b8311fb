"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py MODE < spec.json

MODE is ``setup`` (time the imports only), ``plain`` (run the workload's
timed section) or ``traced`` (the same with spans around every traced
function).  The worker times ``import nla_distill`` and its submodules from
the checkout's ``src/``, runs the pass, and prints one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program() -> float:
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nla_distill  # noqa: F401
    from nla_distill import (analytic, cli, figures, fock, metrics,  # noqa: F401
                             moments, nla, optimize, verify)
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(nla_distill.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"nla_distill imported from {nla_distill.__file__}, "
                         f"not from {SRC}")
    return setup_s


def main(mode: str) -> None:
    spec = json.load(sys.stdin)
    setup_s = _import_program()
    result = {"mode": mode, "setup_s": setup_s}
    if mode != "setup":
        import numpy
        import scipy

        import workloads
        from nla_distill import moments
        out_dir = spec["out_dir"]
        run_pass = workloads.PASSES[spec["workload"]]
        # library output must not mix with the JSON result on stdout
        with contextlib.redirect_stdout(sys.stderr):
            if mode == "traced":
                import tracer
                with tracer.Tracer() as tr:
                    res = run_pass(spec, out_dir)
                res["trace"] = tr.stats()
                res["trace"]["vacuum_cache"] = moments.vacuum_expectation.cache_info()._asdict()
                tr.save(os.path.join(out_dir, f"spans-pass{spec['pass']}.npz"))
            else:
                res = run_pass(spec, out_dir)
        result.update(res)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("setup", "plain", "traced"):
        raise SystemExit(__doc__)
    main(sys.argv[1])
