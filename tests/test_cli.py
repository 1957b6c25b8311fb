"""Command-line surface: CSV schema, determinism, exit codes."""

import math
import os
import re
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from nla_distill import cli, figures, optimize
from nla_distill.figures import format_number

# header names are an external contract
EXPECTED_HEADERS = {
    "fig3a": ("lambda_db", "lambda", "squeeze_db", "r", "eps_b_given_a"),
    "fig3b": ("lambda_db", "lambda", "squeeze_db", "r", "purity"),
    "fig4": ("lambda_db", "lambda", "eps_target", "purity"),
    "fig6a": ("lambda_db", "lambda", "pi", "eps_opt", "r_opt", "eta_opt"),
    "fig6b": ("lambda_db", "lambda", "pi", "purity", "r_opt", "eta_opt"),
    "fig7": ("lambda_db", "lambda", "pi", "eps_target", "purity",
             "purity_no_nla", "r_opt", "eta_opt"),
    "fig10a": ("lambda_db", "lambda", "pi", "n_stages", "eps_opt", "r_opt",
               "eta_opt"),
    "fig10b": ("lambda_db", "lambda", "pi", "n_stages", "eps_target", "purity",
               "purity_no_nla", "r_opt", "eta_opt"),
    "fig11": ("n_stages", "eps_best", "kappa_best"),
}


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    comments = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    return comments, rest[0].split(","), rest[1:]


def test_format_number():
    assert format_number(0.0) == "0"
    assert format_number(1) == "1"
    assert format_number(0.9) == "0.9"
    assert format_number(12.5) == "12.5"
    assert format_number(5e-5) == "5.00000000000e-05"
    assert format_number(float("inf")) == "inf"
    assert format_number(1.0 / 3.0) == "0.333333333333"


def test_fig11_values_and_schema(tmp_path):
    out = tmp_path / "fig11.csv"
    assert cli.main(["fig11", "-o", str(out), "--max-stages", "3"]) == 0
    comments, header, rows = read_csv(out)
    assert tuple(header) == EXPECTED_HEADERS["fig11"]
    assert len(comments) == 2 and comments[0].startswith("# nla-distill")
    n, eps, kappa = rows[0].split(",")
    assert n == "1"
    assert abs(float(eps) - 0.81) < 5e-3 and abs(float(kappa) - 0.36) < 1e-2
    n, eps, kappa = rows[1].split(",")
    assert n == "2"
    assert abs(float(eps) - 0.57) < 5e-3 and abs(float(kappa) - 0.59) < 1e-2


def test_output_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["fig6", "--lambda-db", "10", "11", "1", "--pi", "0.01",
            "--workers", "2"]
    assert cli.main(args + ["-o", str(a)]) == 0
    assert cli.main(args + ["-o", str(b)]) == 0
    for suffix in ("a", "b"):
        pa = tmp_path / f"a{suffix}.csv"
        pb = tmp_path / f"b{suffix}.csv"
        assert pa.read_bytes() == pb.read_bytes()


def test_fig3_fig4_schema(tmp_path):
    out = tmp_path / "fig3.csv"
    assert cli.main(["fig3", "-o", str(out)]) == 0
    _, header_a, rows_a = read_csv(tmp_path / "fig3a.csv")
    _, header_b, _ = read_csv(tmp_path / "fig3b.csv")
    assert tuple(header_a) == EXPECTED_HEADERS["fig3a"]
    assert tuple(header_b) == EXPECTED_HEADERS["fig3b"]
    # seven squeezing curves plus the infinite-squeezing benchmark
    svals = {r.split(",")[2] for r in rows_a}
    assert "12.7" in svals and "inf" in svals and len(svals) == 8
    out4 = tmp_path / "fig4.csv"
    assert cli.main(["fig4", "-o", str(out4)]) == 0
    _, header4, rows4 = read_csv(out4)
    assert tuple(header4) == EXPECTED_HEADERS["fig4"]
    evals = {r.split(",")[2] for r in rows4}
    assert evals == {"1", "0.89", "0.78", "0.67", "0.56", "0.45", "0.34",
                     "0.23", "0.12", "0.01"}


def test_fig6_schema_and_svg(tmp_path):
    out = tmp_path / "fig6.csv"
    assert cli.main(["fig6", "-o", str(out), "--lambda-db", "10", "11", "1",
                     "--pi", "0.01", "--workers", "1", "--svg"]) == 0
    _, header_a, rows_a = read_csv(tmp_path / "fig6a.csv")
    _, header_b, _ = read_csv(tmp_path / "fig6b.csv")
    assert tuple(header_a) == EXPECTED_HEADERS["fig6a"]
    assert tuple(header_b) == EXPECTED_HEADERS["fig6b"]
    assert len(rows_a) == 2
    svg = (tmp_path / "fig6a.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_fig7_schema_includes_benchmark(tmp_path):
    out = tmp_path / "fig7.csv"
    assert cli.main(["fig7", "-o", str(out), "--lambda-db", "3", "5", "1",
                     "--pi", "0.1", "--workers", "1"]) == 0
    _, header, rows = read_csv(out)
    assert tuple(header) == EXPECTED_HEADERS["fig7"]
    for row in rows:
        vals = dict(zip(header, row.split(",")))
        assert float(vals["purity"]) > float(vals["purity_no_nla"])
        assert vals["eps_target"] == "0.85"


def test_fig10_schema(tmp_path):
    out = tmp_path / "fig10.csv"
    assert cli.main(["fig10", "-o", str(out), "--lambda-db", "12", "13", "1",
                     "--pi", "0.1", "--workers", "2"]) == 0
    _, header_a, rows_a = read_csv(tmp_path / "fig10a.csv")
    _, header_b, _ = read_csv(tmp_path / "fig10b.csv")
    assert tuple(header_a) == EXPECTED_HEADERS["fig10a"]
    assert tuple(header_b) == EXPECTED_HEADERS["fig10b"]
    stages = {r.split(",")[3] for r in rows_a}
    assert stages == {"1", "2"}


def test_fig10_svg_draws_one_line_per_pi_and_stage_count(tmp_path):
    # each line runs left to right along the loss axis: the N = 1 and N = 2
    # rows of one pi are two lines, not one that jumps back
    assert cli.main(["fig10", "-o", str(tmp_path / "fig10.csv"), "--lambda-db",
                     "3", "9", "3", "--pi", "0.1", "--workers", "1",
                     "--svg"]) == 0
    for panel in ("fig10a", "fig10b"):
        svg = (tmp_path / f"{panel}.svg").read_text()
        assert re.findall(r'">(pi=[^<]*)</text>', svg) == [
            "pi=0.1 n_stages=1", "pi=0.1 n_stages=2"]
        lines = re.findall(r'points="([^"]*)"', svg)
        assert len(lines) == 2
        for points in lines:
            xs = [float(p.split(",")[0]) for p in points.split()]
            assert len(xs) == 3 and xs == sorted(xs)


def test_point_command_output(capsys):
    assert cli.main(["point", "--lambda-db", "10", "--pi", "0.01"]) == 0
    out = capsys.readouterr().out.strip()
    fields = dict(kv.split("=") for kv in out.split())
    assert set(fields) == {"lambda_db", "lambda", "pi", "n_stages",
                           "eps_b_given_a", "eps_a_given_b", "purity",
                           "success_prob", "r_opt", "eta_opt"}
    assert abs(float(fields["lambda"]) - 0.9) < 1e-12
    assert 0.80 < float(fields["eps_b_given_a"]) < 0.82


def test_point_infeasible_exits_one(capsys):
    # success probability 1 requires eta = 0, outside the open interval
    assert cli.main(["point", "--lambda-db", "10", "--pi", "1.0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("db,shown", [("-3", "-3.0 dB"), ("inf", "inf dB"),
                                      ("nan", "nan dB"), ("170", "170.0 dB")])
def test_point_checks_the_loss_in_db(db, shown, capsys):
    # 170 dB is finite but rounds the reflectivity to 1
    assert cli.main(["point", f"--lambda-db={db}", "--pi", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and shown in err


def test_unwritable_output_exits_two():
    assert cli.main(["fig11", "-o", "/nonexistent-dir/x.csv",
                     "--max-stages", "1"]) == 2


def test_bad_flag_validation_exits_one():
    assert cli.main(["fig6", "-o", "/tmp/x.csv", "--lambda-db", "5", "4", "1"]) == 1
    assert cli.main(["fig6", "-o", "/tmp/x.csv", "--pi", "2.0"]) == 1


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every process pool opened: the pool is replaced by
    an in-process stand-in, so no process starts (the fork start method forks
    every worker of a real pool on its first submit)."""
    import concurrent.futures
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


@pytest.mark.parametrize("workers,n_items,cpus,pool", [
    (64, 2, 8, 2), (64, 10, 4, 4), (3, 10, 4, 3), (2, 10, None, None),
    (8, 1, 8, None), (1, 10, 8, None)])
def test_worker_pool_is_capped_by_points_and_cpus(monkeypatch, pool_sizes,
                                                  workers, n_items, cpus, pool):
    monkeypatch.setattr(figures.os, "cpu_count", lambda: cpus)
    items = list(range(n_items))
    assert figures._pmap(abs, items, workers) == items
    assert pool_sizes == ([] if pool is None else [pool])


def test_cli_pool_is_no_larger_than_the_sweep(monkeypatch, pool_sizes, tmp_path):
    monkeypatch.setattr(figures.os, "cpu_count", lambda: 8)
    assert cli.main(["fig6", "-o", str(tmp_path / "fig6.csv"), "--lambda-db",
                     "10", "12", "2", "--pi", "0.01", "--workers", "64"]) == 0
    assert pool_sizes == [2]


def test_sweep_rows_follow_axis_order(tmp_path):
    out = tmp_path / "fig6.csv"
    assert cli.main(["fig6", "-o", str(out), "--lambda-db", "10", "14", "2",
                     "--pi", "0.1", "0.01", "--workers", "3"]) == 0
    _, header, rows = read_csv(tmp_path / "fig6a.csv")
    keys = [(float(r.split(",")[2]), float(r.split(",")[0])) for r in rows]
    expect = [(pi, db) for pi in (0.1, 0.01) for db in (10.0, 12.0, 14.0)]
    assert keys == expect


def test_fig8_fig9_two_stage_figures(tmp_path):
    out8 = tmp_path / "fig8.csv"
    assert cli.main(["fig8", "-o", str(out8), "--lambda-db", "8", "9", "1",
                     "--pi", "0.01", "--workers", "1"]) == 0
    comments8, header_a, rows_a = read_csv(tmp_path / "fig8a.csv")
    assert tuple(header_a) == EXPECTED_HEADERS["fig6a"]
    assert rows_a, "two-stage sweep produced no feasible rows"
    out9 = tmp_path / "fig9.csv"
    assert cli.main(["fig9", "-o", str(out9), "--lambda-db", "2", "3", "1",
                     "--pi", "0.01", "--workers", "1"]) == 0
    comments9, header9, rows9 = read_csv(out9)
    assert tuple(header9) == EXPECTED_HEADERS["fig7"]
    for row in rows9:
        vals = dict(zip(header9, row.split(",")))
        assert vals["eps_target"] == "0.6"
    # provenance echoes only what shaped the file, defaults resolved
    assert comments9[1:] == [
        "# command=fig9 lambda_db=2.0:3.0:1.0 pi=0.01 eps_target=0.6",
        "# infeasible_skipped=0"]
    assert comments8[1:] == ["# command=fig8 lambda_db=8.0:9.0:1.0 pi=0.01",
                             "# infeasible_skipped=0"]


def test_infeasible_points_are_counted(tmp_path):
    # success probability 1 needs eta = 0, outside the open interval, at every
    # squeezing: both of its points are skipped, the pi = 0.01 rows stay
    sweep = ["--lambda-db", "10", "11", "1", "--pi", "0.01", "1.0",
             "--workers", "1"]
    assert cli.main(["fig6", "-o", str(tmp_path / "fig6.csv")] + sweep) == 0
    for panel in ("fig6a", "fig6b"):
        comments, _, rows = read_csv(tmp_path / f"{panel}.csv")
        assert comments[2] == "# infeasible_skipped=2"
        assert [r.split(",")[2] for r in rows] == ["0.01", "0.01"]
    assert cli.main(["fig7", "-o", str(tmp_path / "fig7.csv")] + sweep) == 0
    comments, _, rows = read_csv(tmp_path / "fig7.csv")
    assert comments[2] == "# infeasible_skipped=2" and len(rows) == 2
    # figures that run no search carry no count
    assert cli.main(["fig4", "-o", str(tmp_path / "fig4.csv")]) == 0
    comments, _, _ = read_csv(tmp_path / "fig4.csv")
    assert comments == ["# nla-distill " + cli.__version__, "# command=fig4"]


@pytest.mark.parametrize("db,pi,found", [("74", "0.01", 0), ("120", "1", 1)])
def test_target_one_at_high_loss_is_a_row_or_a_skip(db, pi, found, tmp_path):
    # near eps = 1 the grid pass and the scalar objective differ by roundoff:
    # at 74 dB the r = 0 edge reads 1 + 2.4e-13 and the first grid point
    # 1 - 1.6e-13, a sign change the objective does not confirm, so no root;
    # at pi = 1 the edge has no eta and reads inf.  Warnings are errors here.
    assert cli.main(["fig7", "-o", str(tmp_path / "fig7.csv"), "--lambda-db",
                     db, db, "1", "--pi", pi, "--eps-target", "1",
                     "--workers", "1"]) == 0
    comments, _, rows = read_csv(tmp_path / "fig7.csv")
    assert comments[2] == f"# infeasible_skipped={1 - found}"
    assert len(rows) == found


def test_a_budget_the_eta_misses_is_counted(tmp_path, capsys):
    # at two stages the eta roots miss pi = 1e-16: the point is skipped, the
    # pi = 0.01 row stays, and `point` exits 1
    assert cli.main(["fig8", "-o", str(tmp_path / "fig8.csv"), "--lambda-db",
                     "10", "10", "1", "--pi", "0.01", "1e-16",
                     "--workers", "1"]) == 0
    comments, _, rows = read_csv(tmp_path / "fig8a.csv")
    assert comments[2] == "# infeasible_skipped=1"
    assert [r.split(",")[2] for r in rows] == ["0.01"]
    assert cli.main(["point", "--lambda-db", "10", "--pi", "1e-300",
                     "--stages", "2"]) == 1
    assert "eta solver" in capsys.readouterr().err


def test_removed_flags_are_rejected():
    parser = cli._build_parser()
    fig = ["fig6", "-o", "x.csv"]
    point = ["point", "--lambda-db", "10", "--pi", "0.01"]
    # each figure takes only the flags it reads
    unread = [["fig3", "--pi", "0.1"], ["fig3", "--lambda-db", "1", "2", "1"],
              ["fig4", "--eps-target", "0.5"], ["fig4", "--workers", "2"],
              ["fig6", "--eps-target", "0.5"], ["fig8", "--max-stages", "3"],
              ["fig9", "--max-stages", "3"], ["fig10", "--max-stages", "3"],
              ["fig11", "--lambda-db", "1", "2", "1"], ["fig11", "--pi", "0.1"],
              ["fig11", "--eps-target", "0.5"], ["fig11", "--workers", "2"]]
    for argv in (fig + ["--cutoff", "30"], fig + ["--tolerance", "1e-9"],
                 point + ["--cutoff", "30"], point + ["--tolerance", "1e-9"],
                 point + ["--workers", "2"], point + ["--method", "simulate"],
                 ["verify", "--workers", "2"], ["verify", "--cutoff", "30"],
                 ["verify", "--tolerance", "1e-9"],
                 *([a[0], "-o", "x.csv", *a[1:]] for a in unread)):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, argv


def test_point_rejects_unbounded_stage_count(capsys):
    t0 = time.perf_counter()
    assert cli.main(["point", "--lambda-db", "10", "--pi", "0.01",
                     "--stages", "7"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "stages" in capsys.readouterr().err


def test_fig11_rejects_stage_counts_past_the_floor_bound(tmp_path, capsys):
    # the floor search is O(N^2): 5000 stages would run for about an hour
    out = tmp_path / "x.csv"
    t0 = time.perf_counter()
    assert cli.main(["fig11", "-o", str(out), "--max-stages",
                     str(optimize.MAX_FLOOR_STAGES + 1)]) == 1
    assert cli.main(["fig11", "-o", str(out), "--max-stages", "5000"]) == 1
    assert time.perf_counter() - t0 < 1.0
    assert "max_stages" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError):
        optimize.best_entanglement_vs_stages(optimize.MAX_FLOOR_STAGES + 1)


def test_fig10_defaults_to_its_own_success_probabilities(tmp_path):
    out = tmp_path / "fig10.csv"
    assert cli.main(["fig10", "-o", str(out), "--lambda-db", "12", "12", "1",
                     "--workers", "1"]) == 0
    for panel in ("fig10a", "fig10b"):
        comments, header, rows = read_csv(tmp_path / f"{panel}.csv")
        assert comments[1] == ("# command=fig10 lambda_db=12.0:12.0:1.0 "
                               "pi=0.1,0.0001 eps_target=0.85")
        # two stage counts at each of the two pi, written or counted skipped
        assert {float(r.split(",")[2]) for r in rows} <= {0.1, 1e-4}
        assert len(rows) + int(comments[2].split("=")[1]) == 4


@pytest.mark.parametrize("argv", [["fig7", "--eps-target", "0"],
                                  ["fig9", "--eps-target", "-0.5"],
                                  ["fig10", "--eps-target", "0"],
                                  ["fig11", "--max-stages", "0"],
                                  ["fig8", "--pi", "0"],
                                  ["fig7", "--eps-target", "1.5"],
                                  ["fig9", "--eps-target", "1.01"],
                                  ["fig10", "--eps-target", "2"],
                                  ["fig6", "--workers", "0"],
                                  ["fig8", "--workers", "-3"],
                                  ["fig6", "--lambda-db", "0", "inf", "1"],
                                  ["fig7", "--lambda-db", "nan", "5", "1"],
                                  ["fig8", "--lambda-db", "0", "5", "inf"],
                                  ["fig9", "--lambda-db", "-1", "5", "1"],
                                  ["fig6", "--lambda-db", "0", "170", "1"],
                                  ["fig10", "--lambda-db", "0.5", "40", "1e-7"],
                                  ["fig8", "--lambda-db", "0", "160", "0.1",
                                   "--pi", "0.1", "0.2", "0.3", "0.4", "0.5",
                                   "0.6", "0.7"]])
def test_out_of_range_figure_inputs_exit_one(argv, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main([argv[0], "-o", str(out), *argv[1:]]) == 1
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_figure_params_own_defaults_and_ranges():
    assert figures.figure_params("fig3") == {}
    assert figures.figure_params("fig11") == {"max_stages": 20}
    assert figures.figure_params("fig10")["pi"] == figures.FIG10_PIS
    assert figures.figure_params("fig7", pi=[0.5]) == {
        "lambda_db": figures.DEFAULT_LAMBDA_DB, "pi": (0.5,), "eps_target": 0.85}
    for name, kw in (("fig6", {"lambda_db": (5.0, 4.0, 1.0)}),
                     ("fig6", {"pi": ()}), ("fig6", {"pi": (1.5,)}),
                     ("fig9", {"eps_target": 0.0}), ("fig7", {"eps_target": 1.5}),
                     ("fig11", {"max_stages": 0}),
                     ("fig6", {"eps_target": 0.5}), ("fig3", {"pi": (0.1,)}),
                     ("fig5", {})):
        with pytest.raises(ValueError):
            figures.figure_params(name, **kw)


def test_figure_params_take_integer_stage_counts_only():
    # a float or a bool passed the range check and failed later in range()
    for m in (2.5, 2.0, True, "3", math.nan):
        with pytest.raises(ValueError, match="n_stages must be an integer"):
            figures.figure_params("fig11", max_stages=m)
    assert figures.figure_params("fig11", max_stages=np.int64(3)) == {
        "max_stages": 3}


def test_runtime_needs_no_scipy(tmp_path):
    # with scipy blocked every import of it raises: the package, a point, a
    # target search (fig7) and the oracle suite must not reach for it
    script = textwrap.dedent(f"""
        import importlib, sys
        sys.modules["scipy"] = None
        for name in ("analytic", "cli", "figures", "fock", "metrics",
                     "moments", "nla", "optimize", "verify"):
            importlib.import_module("nla_distill." + name)
        from nla_distill import cli
        for argv in (["point", "--lambda-db", "10", "--pi", "0.01"],
                     ["fig7", "-o", {str(tmp_path / "fig7.csv")!r},
                      "--lambda-db", "3", "13", "10", "--pi", "0.01",
                      "--workers", "1"],
                     ["verify"]):
            assert cli.main(argv) == 0, argv
        """)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "verify: all checks passed" in proc.stdout
    _, _, rows = read_csv(tmp_path / "fig7.csv")
    assert len(rows) == 2


def test_version_matches_pyproject():
    # the version is written twice: in pyproject.toml and in
    # nla_distill.__version__, which --version and CSV provenance print
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "pyproject.toml")
    with open(path, "rb") as f:
        assert tomllib.load(f)["project"]["version"] == cli.__version__
