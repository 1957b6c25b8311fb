"""Figure CSVs, byte for byte, against golden files under tests/data/.

The golden files were written before the searches' grid scans became array
passes, by the scalar scan they replaced.  Any change to a reported number,
its formatting or the provenance comments fails here.  Regenerate a file only
with a change that is meant to move the numbers, and name the columns that
moved.

Files under tests/golden/ pin what tests/data/ leaves open: the fig7 and
fig10 CSVs and three SVG charts (lines grouped by one column, by two, and a
single line).  fig3 and fig4 take no grid flags and write 24 to 36 KB a
panel, so they are pinned by the SHA-256 of each panel's bytes.
"""

import hashlib
from pathlib import Path

import pytest

from nla_distill import cli

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
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


# (figure, flags, files under tests/golden/ that the run must reproduce)
PINNED = [("fig7", SWEEP, ("fig7.csv",)),
          ("fig10", [*SWEEP, "--svg"],
           ("fig10a.csv", "fig10b.csv", "fig10a.svg")),
          ("fig6", [*SWEEP, "--svg"], ("fig6a.svg",)),
          ("fig11", ["--max-stages", "6", "--svg"], ("fig11.svg",))]
DIGESTS = {
    "fig3": {
        "fig3a.csv":
        "3adf3b35faa3057df682edb70e6a4726eb8a6a4dfa7fc9709d69fbee76026568",
        "fig3b.csv":
        "ec967565297854c73fc523878cf1dfcfcf854f203f6de076b0ab08bc914402e8"},
    "fig4": {
        "fig4.csv":
        "5f85ba9239c4adea6e7da7eb45398ab47099596bec99c508103da08091d66a37"},
}


@pytest.mark.parametrize("fig,flags,files", PINNED, ids=[c[0] for c in PINNED])
def test_panel_matches_pinned_file(tmp_path, fig, flags, files):
    assert cli.main([fig, "-o", str(tmp_path / f"{fig}.csv"), *flags]) == 0
    for name in files:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / name).read_bytes(), name


@pytest.mark.parametrize("fig", sorted(DIGESTS))
def test_fixed_grid_panel_matches_digest(tmp_path, fig):
    assert cli.main([fig, "-o", str(tmp_path / f"{fig}.csv")]) == 0
    for name, digest in DIGESTS[fig].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name
