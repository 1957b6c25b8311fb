"""Figure CSVs, byte for byte, against golden files under tests/data/.

The golden files were written before the searches' grid scans became array
passes, by the scalar scan they replaced.  Any change to a reported number,
its formatting or the provenance comments fails here.  Regenerate a file only
with a change that is meant to move the numbers, and name the columns that
moved.
"""

from pathlib import Path

import pytest

from nla_distill import cli

DATA = Path(__file__).parent / "data"
GRID = ["--lambda-db", "2", "32", "10", "--pi", "0.1", "0.001"]
SWEEP = [*GRID, "--workers", "1"]
# a default sweep fans its points out over a process pool
POOL = [*GRID, "--workers", "2"]
CASES = [("fig6", SWEEP, ("fig6a", "fig6b")),
         ("fig8", SWEEP, ("fig8a", "fig8b")),
         ("fig9", SWEEP, ("fig9",)),
         ("fig11", ["--max-stages", "6"], ("fig11",)),
         ("fig6", POOL, ("fig6a", "fig6b")),
         ("fig8", POOL, ("fig8a", "fig8b"))]
IDS = [fig + "-pool" * (flags is POOL) for fig, flags, _ in CASES]


@pytest.mark.parametrize("fig,flags,panels", CASES, ids=IDS)
def test_csv_matches_golden(tmp_path, fig, flags, panels):
    assert cli.main([fig, "-o", str(tmp_path / f"{fig}.csv"), *flags]) == 0
    for panel in panels:
        got = (tmp_path / f"{panel}.csv").read_bytes()
        assert got == (DATA / f"{panel}.csv").read_bytes(), panel
