"""Every demo script, and the README's library quick start, runs to completion."""

import contextlib
import io
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()


def test_readme_quick_start_runs():
    section = (ROOT / "README.md").read_text(encoding="utf-8").split(
        "## Quick start (library)", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md quick start", "exec"),
             {"__name__": "__main__"})
    assert out.getvalue()
