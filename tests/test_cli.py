import logging
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import treedesign

from treedesign.cli import SweepSpec, build_parser, compute_gap, main, run_experiment
from treedesign.report import SUMMARY_COLUMNS

from helpers import read_csv


def test_compute_gap_examples(caplog):
    assert compute_gap(103.0, 100.0) == pytest.approx(3.0)
    assert compute_gap(100.0, 100.0) == 0.0
    assert round(compute_gap(1.0132 * 250.0, 250.0), 2) == 1.32
    with pytest.raises(ValueError):
        compute_gap(1.0, 0.0)
    with caplog.at_level(logging.ERROR):
        compute_gap(99.0, 100.0)
    assert any("internal error" in r.message for r in caplog.records)


def test_sweep_row_counting(tmp_path):
    spec = SweepSpec(
        ns=[6], seeds=[0, 1, 2], rhos=[0.1, 1.0], modes=["central", "dist"],
        max_iters=60, out_dir=tmp_path, wall_time=False,
    )
    rows = run_experiment(spec)
    assert len(rows) == 12
    keys = [(r[0], r[2], r[3], r[4]) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert len(row) == len(SUMMARY_COLUMNS)
        assert (tmp_path / row[12]).exists()
        if row[7] and row[8] is not None:  # feasible with oracle gap
            assert row[8] >= -1e-9


def test_sweep_oracle_skipped_when_budget_exceeded(tmp_path):
    spec = SweepSpec(
        ns=[10], seeds=[0], rhos=[1.0], modes=["central"],
        p=1.0,  # complete graph: m = 45 exceeds the default edge budget
        max_iters=5, out_dir=tmp_path, wall_time=False,
    )
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0][10] == "oracle-skipped"
    assert rows[0][8] is None and rows[0][9] is None


def test_sweep_cell_error_is_recorded(tmp_path):
    spec = SweepSpec(
        ns=[6], seeds=[0], rhos=[1.0], modes=["bogus"],
        max_iters=5, out_dir=tmp_path, wall_time=False, oracle=False,
    )
    rows = run_experiment(spec)
    assert len(rows) == 1
    assert rows[0][10].startswith("error:")


def test_sweep_rerun_is_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        code = main([
            "sweep", "--n", "6", "--seeds", "1", "--rhos", "0.1,1",
            "--modes", "both", "--max-iters", "60", "--no-wall-time",
            "--out", str(out),
        ])
        assert code == 0
    s1 = (out1 / "summary.csv").read_bytes()
    s2 = (out2 / "summary.csv").read_bytes()
    assert s1 == s2
    for trace in sorted(out1.glob("trace_*.csv")):
        assert trace.read_bytes() == (out2 / trace.name).read_bytes()


def test_csv_round_trip(tmp_path):
    out = tmp_path / "s"
    main(["sweep", "--n", "6", "--seeds", "1", "--rhos", "1.0",
          "--modes", "central", "--max-iters", "40", "--no-wall-time",
          "--out", str(out)])
    for path in [out / "summary.csv", *out.glob("trace_*.csv")]:
        header, rows = read_csv(path)
        echo = tmp_path / ("echo_" + path.name)
        with open(echo, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
        assert echo.read_bytes() == path.read_bytes()


def test_gen_solve_oracle_project_cli(tmp_path, capsys):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--n", "6", "--p", "0.5", "--seed", "3",
                 "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert main(["solve-central", "--instance", str(inst_path),
                 "--rho", "0.1", "--max-iters", "150",
                 "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert "objective:" in out and "feasible:   True" in out
    assert (tmp_path / "run" / "trace_central.csv").exists()

    assert main(["oracle", "--instance", str(inst_path),
                 "--out", str(tmp_path / "sol.txt")]) == 0
    sol_text = (tmp_path / "sol.txt").read_text(encoding="utf-8")
    assert sol_text.splitlines()[-1].startswith("tree ")
    capsys.readouterr()

    assert main(["project", "--instance", str(inst_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("h:")
    assert "tree edges:" in out

    assert main(["dump-qp", "--instance", str(inst_path),
                 "--out", str(tmp_path / "qp.txt")]) == 0
    dump = (tmp_path / "qp.txt").read_text(encoding="utf-8")
    assert dump.startswith("variables ")
    assert "eq " in dump and "le " in dump


def test_solve_dist_cli_aggregate_trace(tmp_path, capsys):
    assert main(["solve-dist", "--n", "5", "--p", "0.6", "--seed", "1",
                 "--rho", "0.1", "--max-iters", "150", "--trace-aggregate",
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "trace_dist.csv")
    assert header == ("k", "agent", "objective_w", "residual_contrib",
                      "consensus_gap", "qp_iters")
    agents = {row[1] for row in rows}
    assert agents == {"-1"}


@pytest.mark.parametrize("argv", [
    ["solve-central", "--n", "6", "--trace-aggregate"],
    ["dump-qp", "--n", "6", "--tol", "0.5"],
    ["dump-qp", "--n", "6", "--max-iters", "1"],
    ["gen", "--n", "6", "--instance", "inst.txt"],
], ids=["solve-central-trace-aggregate", "dump-qp-tol", "dump-qp-max-iters",
        "gen-instance"])
def test_parser_rejects_retired_flags(argv):
    with pytest.raises(SystemExit):
        build_parser().parse_args(argv)


def test_sweep_flags_and_defaults():
    parser = build_parser()
    assert parser.parse_args(["sweep", "--n", "6", "--out", "o"]) == Namespace(
        verbose=False, command="sweep", n=[6], seeds=1, seed_list=None,
        rhos="1.0", modes="both", p=0.5, hop_slack=2, commodities=None,
        tol=1e-4, max_iters=500, no_oracle=False, oracle_max_edges=24,
        oracle_max_trees=10_000_000, no_wall_time=False, trace_per_agent=True,
        out=Path("o"),
    )
    args = parser.parse_args([
        "sweep", "--n", "6", "--n", "8", "--p", "0.4", "--seeds", "2",
        "--seed-list", "1,3", "--rhos", "0.1,1", "--modes", "dist",
        "--commodities", "2", "--hop-slack", "1", "--tol", "1e-3",
        "--max-iters", "7", "--no-oracle", "--oracle-max-edges", "9",
        "--oracle-max-trees", "99", "--no-wall-time", "--trace-aggregate",
        "--out", "o",
    ])
    assert (args.n, args.p, args.commodities, args.hop_slack, args.tol,
            args.max_iters, args.oracle_max_edges, args.oracle_max_trees) == (
        [6, 8], 0.4, 2, 1, 1e-3, 7, 9, 99)
    assert args.no_oracle and args.no_wall_time and not args.trace_per_agent


def test_parser_rejects_missing_input():
    parser = build_parser()
    args = parser.parse_args(["solve-central"])
    with pytest.raises(SystemExit):
        from treedesign.cli import _load_instance
        _load_instance(args)


def test_cli_module_runs_without_runtime_warning():
    # importing the package must not import treedesign.cli, or running it
    # with -m warns that the module is already in sys.modules
    env = dict(os.environ, PYTHONPATH=str(Path(treedesign.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "treedesign.cli",
         "gen", "--n", "5", "--seed", "0"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("nodes 5")
