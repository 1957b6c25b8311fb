"""The search path imports none of the Fock oracle's modules.

The figures come from closed forms and ladder algebra (`analytic`, `moments`,
`optimize`, `figures`); the brute-force Fock simulation (`fock`, `metrics`,
`nla`, `verify`) checks them.  The cross-check is only independent while the
two routes share no code beyond the bottom layer.
"""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import nla_distill

PACKAGE = pathlib.Path(nla_distill.__file__).parent
ORACLE = {"fock", "metrics", "nla", "verify"}


def package_imports(module: str) -> set[str]:
    """The nla_distill submodules a module's source imports."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module + "." if node.module else "")
            names = [base + a.name for a in node.names]
        else:
            continue
        for name in names:
            parts = name.lstrip(".").split(".")
            if name.startswith("."):
                found.add(parts[0])
            elif parts[0] == "nla_distill" and len(parts) > 1:
                found.add(parts[1])
    return found


@pytest.mark.parametrize("module", ["analytic", "moments", "optimize", "figures"])
def test_search_path_imports_no_oracle_module(module):
    assert not package_imports(module) & ORACLE


def test_import_scan_sees_the_package_imports():
    assert package_imports("optimize") == {"analytic", "moments"}
    assert package_imports("verify") >= ORACLE - {"verify"}


def test_distillation_result_is_one_type_under_every_name():
    from nla_distill import analytic, nla, optimize
    assert (nla_distill.DistillationResult is analytic.DistillationResult
            is nla.DistillationResult is optimize.DistillationResult)


def test_importing_the_package_loads_no_process_pool():
    # multiprocessing costs tens of ms at import; only a sweep with more than
    # one worker needs it, so `figures._pmap` imports it on first use
    code = ("import importlib, pkgutil, sys, nla_distill\n"
            "for m in pkgutil.iter_modules(nla_distill.__path__):\n"
            "    importlib.import_module('nla_distill.' + m.name)\n"
            "print(sorted(m for m in sys.modules if m.startswith('nla_')))\n"
            "print('concurrent.futures' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout.split("\n")
    assert "'nla_distill.verify'" in out[0] and "'nla_distill.cli'" in out[0]
    assert out[1] == "False"


@pytest.mark.parametrize("module", ["nla_distill", "nla_distill.analytic",
                                    "nla_distill.optimize"])
def test_every_exported_name_resolves(module):
    # a removed function must leave no stale name in an __all__
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import_runs():
    namespace = {}
    exec("from nla_distill import *", namespace)
    assert set(nla_distill.__all__) <= set(namespace)
