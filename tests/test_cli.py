import logging
import os
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

import treedesign

from treedesign.central import (SolverConfig, build_centralized_subproblem,
                                init_state, solve_central)
from treedesign.cli import (
    SweepSpec,
    _trace_rows_distributed,
    build_parser,
    compute_gap,
    main,
    run_experiment,
)
from treedesign.distributed import solve_distributed
from treedesign.mcf import random_instance, read_instance
from treedesign.report import DISTRIBUTED_TRACE_COLUMNS, SUMMARY_COLUMNS, write_csv

from helpers import read_csv, trace_rows_distributed_reference


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
    assert rows == [(6, random_instance(6, 0.5, 0).m, 0, 1.0, "bogus", "", "",
                     False, None, None, "error: unknown mode 'bogus'", 0.0, "")]


def test_sweep_records_a_rejected_rho_as_an_error_row(tmp_path):
    # the settings are checked inside the cell, so a rejected rho is that
    # cell's error row and the other cells run as they would alone
    def sweep(rhos, out):
        return run_experiment(SweepSpec(
            ns=[6], seeds=[0], rhos=rhos, modes=["central"], oracle=False,
            max_iters=5, out_dir=out, wall_time=False,
        ))

    rows = sweep([0.0, 1.0], tmp_path / "mixed")
    alone = sweep([1.0], tmp_path / "alone")
    assert rows[0] == (6, random_instance(6, 0.5, 0).m, 0, 0.0, "central", "",
                       "", False, None, None,
                       "error: rho must be finite and positive, got 0.0", 0.0, "")
    assert rows[1:] == alone
    traces = sorted(p.name for p in (tmp_path / "mixed").iterdir())
    assert traces == sorted(p.name for p in (tmp_path / "alone").iterdir())
    assert traces == ["trace_n6_s0_rho1_central.csv"]
    assert ((tmp_path / "mixed" / traces[0]).read_bytes()
            == (tmp_path / "alone" / traces[0]).read_bytes())


def test_sweep_records_an_instance_that_fails_to_build(tmp_path):
    def sweep(ns, out):
        return run_experiment(SweepSpec(
            ns=ns, seeds=[0], rhos=[1.0, 0.1], modes=["dist", "central"],
            oracle=True, max_iters=40, out_dir=out, wall_time=False,
        ))

    rows = sweep([6, 1], tmp_path / "mixed")
    alone = sweep([6], tmp_path / "alone")
    with pytest.raises(ValueError) as exc:
        random_instance(1, 0.5, 0)
    # the n=1 cells sort first, one error row each with no edge count
    assert rows[:4] == [
        (1, "", 0, rho, mode, "", "", False, None, None, f"error: {exc.value}",
         0.0, "")
        for rho in (0.1, 1.0) for mode in ("central", "dist")
    ]
    assert rows[4:] == alone
    traces = sorted(p.name for p in (tmp_path / "mixed").iterdir())
    assert traces == sorted(p.name for p in (tmp_path / "alone").iterdir())
    assert len(traces) == 4
    for name in traces:
        assert ((tmp_path / "mixed" / name).read_bytes()
                == (tmp_path / "alone" / name).read_bytes())


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


def _assert_rejected(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.err == f"treedesign {argv[0]}: error: {message}\n"
    assert "Traceback" not in captured.err and not captured.out


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
    # a single --w value is not one weight per edge, and is not broadcast;
    # a rejected input is one error line on stderr and exit code 2
    m = read_instance(inst_path).m
    _assert_rejected(capsys, ["project", "--instance", str(inst_path), "--w", "0.5"],
                     f"w_next has length 1 but mu has length {m}")
    _assert_rejected(capsys, ["solve-central", "--n", "6", "--rho", "0"],
                     "rho must be finite and positive, got 0.0")

    assert main(["dump-qp", "--instance", str(inst_path),
                 "--out", str(tmp_path / "qp.txt")]) == 0
    dump = (tmp_path / "qp.txt").read_text(encoding="utf-8")
    assert dump.startswith("variables ")
    assert "eq " in dump and "le " in dump


def _parse_qp_dump(text):
    """The diag, linear, eq and le lines of a dump-qp file, as arrays."""
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    parsed = {"eq": ([], []), "le": ([], [])}
    for line in lines[1:]:
        label, *tokens = line.split()
        if label in ("diag", "linear"):
            parsed[label] = np.array([float(t) for t in tokens])
        elif label in parsed:
            row = np.zeros(n)
            for term in tokens[:-2]:
                col, value = term.split(":")
                row[int(col)] = float(value)
            parsed[label][0].append(row)
            parsed[label][1].append(float(tokens[-1]))
    return parsed


@pytest.mark.parametrize("rho", [0.5, 1.0, 10.0])
def test_dump_qp_is_the_first_centralized_subproblem(tmp_path, rho):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--n", "6", "--p", "0.5", "--seed", "0",
                 "--out", str(inst_path)]) == 0
    assert main(["dump-qp", "--instance", str(inst_path), "--rho", repr(rho),
                 "--out", str(tmp_path / "qp.txt")]) == 0
    parsed = _parse_qp_dump((tmp_path / "qp.txt").read_text(encoding="utf-8"))
    inst = read_instance(inst_path)
    cfg = SolverConfig(rho=rho)
    state = init_state(inst, cfg)
    qp = build_centralized_subproblem(inst, state.z, state.y, state.mu,
                                      state.eta, cfg.rho)
    # repr floats round-trip, so every value compares bit for bit
    assert parsed["diag"].tobytes() == qp.d.tobytes()
    assert parsed["linear"].tobytes() == qp.q.tobytes()
    for label, mat, rhs in (("eq", qp.a_eq, qp.b_eq), ("le", qp.a_in, qp.b_in)):
        rows, values = parsed[label]
        assert np.array(rows).tobytes() == mat.toarray().tobytes()
        assert np.array(values).tobytes() == np.asarray(rhs, float).tobytes()


def test_solve_dist_cli_aggregate_trace(tmp_path, capsys):
    assert main(["solve-dist", "--n", "5", "--p", "0.6", "--seed", "1",
                 "--rho", "0.1", "--max-iters", "150", "--trace-aggregate",
                 "--out", str(tmp_path)]) == 0
    header, rows = read_csv(tmp_path / "trace_dist.csv")
    assert header == ("k", "agent", "objective_w", "residual_contrib",
                      "consensus_gap", "qp_iters")
    agents = {row[1] for row in rows}
    assert agents == {"-1"}


@pytest.mark.parametrize("command, solve", [("solve-central", solve_central),
                                            ("solve-dist", solve_distributed)])
def test_solve_prints_the_run_counters_on_one_line(tmp_path, capsys, command, solve):
    inst_path = tmp_path / "inst.txt"
    assert main(["gen", "--n", "5", "--p", "0.6", "--seed", "1",
                 "--out", str(inst_path)]) == 0
    capsys.readouterr()
    assert main([command, "--instance", str(inst_path), "--rho", "0.1",
                 "--max-iters", "40"]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()
             if line.startswith("counters:")]
    counters = solve(read_instance(inst_path), SolverConfig(rho=0.1, max_iters=40)).counters
    assert all(counters)
    assert lines == [["counters:"] + [f"{name}={count}" for name, count
                                      in counters._asdict().items()]]


def test_aggregated_trace_is_byte_identical_to_the_per_round_scan(tmp_path):
    # one pass over the trace writes the bytes the scan per round wrote,
    # also for a trace whose rounds are not in order
    report = solve_distributed(random_instance(6, 0.5, seed=1),
                               SolverConfig(rho=0.1, max_iters=60))
    shuffled = list(reversed(report.trace[len(report.trace) // 3:])) \
        + report.trace[:len(report.trace) // 3]
    for trace in (report.trace, shuffled):
        report.trace = trace
        paths = tmp_path / "fast.csv", tmp_path / "reference.csv"
        for path, rows in zip(paths, (_trace_rows_distributed(report, False),
                                      trace_rows_distributed_reference(report, False))):
            write_csv(path, DISTRIBUTED_TRACE_COLUMNS, rows)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert len(paths[0].read_text().splitlines()) == 1 + len({r.k for r in trace})


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


def test_parser_rejects_missing_input(tmp_path, capsys):
    # no instance to load, or a file that is not there, ends in one error
    # line and exit code 2, as a rejected value does
    for command in ("solve-central", "solve-dist", "oracle", "project",
                    "dump-qp"):
        _assert_rejected(capsys, [command], "need --instance or --n")
    _assert_rejected(capsys, ["gen"], "need --n to generate an instance")
    missing = tmp_path / "missing.txt"
    _assert_rejected(capsys, ["solve-dist", "--instance", str(missing)],
                     f"[Errno 2] No such file or directory: '{missing}'")


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
