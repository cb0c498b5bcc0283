"""Experiment command line: instance generation, solver runs, sweeps, CSVs.

Subcommands: gen, solve-central, solve-dist, oracle, project, sweep, dump-qp.
Random seeds are always explicit flags, never ambient state; repeating any
cell with identical flags reproduces its summary row and trace file byte for
byte (wall-clock columns can be zeroed with --no-wall-time for comparisons).
The solver and oracle flags take their defaults from SolverConfig and
EnumerationBudget, and the sweep runs from its parsed flags. A rejected
input ends in one error line and exit code 2.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .central import (SolverConfig, build_centralized_subproblem,
                      relaxed_start, solve_central)
from .distributed import solve_distributed
from .graphs import GraphGenerationError
from .mcf import (
    format_instance,
    random_instance,
    read_instance,
    write_instance,
    write_solution,
)
from .oracle import BudgetExceededError, EnumerationBudget, exact_solve
from .projection import mst_kruskal, projection_weights
from .qp import InfeasibleSubproblemError
from .report import (
    CENTRAL_TRACE_COLUMNS,
    DISTRIBUTED_TRACE_COLUMNS,
    SUMMARY_COLUMNS,
    DistributedTraceRow,
    compute_gap,
    write_csv,
)

logger = logging.getLogger(__name__)

__all__ = ["run_experiment", "main"]


def _trace_rows_distributed(report, per_agent):
    if per_agent:
        return report.trace
    groups = {}
    for row in report.trace:
        groups.setdefault(row.k, []).append(row)
    rows = []
    for k, group in sorted(groups.items()):
        rows.append(DistributedTraceRow(
            k=k,
            agent=-1,
            objective_w=group[0].objective_w,  # reporting agent's objective
            residual_contrib=sum(r.residual_contrib for r in group) / len(group),
            consensus_gap=group[0].consensus_gap,
            qp_iters=sum(r.qp_iters for r in group),
        ))
    return rows


def _write_trace(report, path, per_agent):
    if report.mode == "central":
        write_csv(path, CENTRAL_TRACE_COLUMNS, report.trace)
    else:
        write_csv(path, DISTRIBUTED_TRACE_COLUMNS,
                  _trace_rows_distributed(report, per_agent))


_SOLVERS = {"central": solve_central, "dist": solve_distributed}
_SOLVE_MODES = {"solve-central": "central", "solve-dist": "dist"}


def run_experiment(args):
    """Run the grid of the parsed ``sweep`` flags ``args``; returns summary
    rows in (n, seed, rho, mode) order.

    Each distinct --n, seed and rho value is one grid value. An empty seed
    or rho list, and rhos whose ``:g`` trace names collide, raise ValueError
    before ``args.out`` is made.
    Cell failures are recorded in the row's status column and the sweep
    continues. Each (n, seed) instance and its oracle solution are built
    once and shared by that instance's rho/mode cells.
    """
    seeds = (range(args.seeds) if args.seed_list is None
             else _parse_list(args.seed_list, int))
    rhos = sorted(set(_parse_list(args.rhos, float)))
    if not (seeds and rhos):
        raise ValueError(f"the sweep grid has no {'rhos' if seeds else 'seeds'}")
    for a, b in zip(rhos, rhos[1:]):
        if f"{a:g}" == f"{b:g}":
            raise ValueError(f"rhos {a!r} and {b!r} share the trace name rho{a:g}")
    modes = ["central", "dist"] if args.modes == "both" else [args.modes]
    budget = _oracle_budget(args)
    args.out.mkdir(parents=True, exist_ok=True)
    cells = [(rho, mode) for rho in rhos for mode in modes]
    rows = []
    for n in sorted(set(args.n)):
        for seed in sorted(set(seeds)):
            try:
                inst = random_instance(
                    n, args.p, seed, n_commodities=args.commodities,
                    hop_slack=args.hop_slack,
                )
            except Exception as exc:  # cell failures must not kill the sweep
                logger.error("instance (n=%d, seed=%d) failed: %s", n, seed, exc)
                rows.extend(_error_row(n, "", seed, rho, mode, exc)
                            for rho, mode in cells)
                continue
            oracle_result = None
            if not args.no_oracle:
                try:
                    oracle_result = exact_solve(inst, budget)
                except BudgetExceededError:
                    pass
            rows.extend(_run_cell(args, inst, oracle_result, n, seed, rho, mode)
                        for rho, mode in cells)
    return rows


def _error_row(n, m, seed, rho, mode, exc):
    return (n, m, seed, rho, mode, "", "", False, None, None,
            f"error: {exc}", 0.0, "")


def _run_cell(args, inst, oracle_result, n, seed, rho, mode):
    trace_name = f"trace_n{n}_s{seed}_rho{rho:g}_{mode}.csv"
    t0 = time.perf_counter()
    try:
        cfg = SolverConfig(rho=rho, tol=args.tol, max_iters=args.max_iters)
        report = _SOLVERS[mode](inst, cfg)
    except Exception as exc:
        logger.error("cell (n=%d, seed=%d, rho=%g, %s) failed: %s",
                     n, seed, rho, mode, exc)
        return _error_row(n, inst.m, seed, rho, mode, exc)
    wall_ms = 0.0 if args.no_wall_time else (time.perf_counter() - t0) * 1000.0
    _write_trace(report, args.out / trace_name, per_agent=args.trace_per_agent)
    gap = None
    oracle_obj = None
    status = report.status
    if not args.no_oracle:
        if oracle_result is None:
            status = "oracle-skipped"
        elif oracle_result.feasible:
            oracle_obj = oracle_result.objective
            if report.feasible:
                gap = compute_gap(report.objective, oracle_obj)
        else:
            status = "oracle-infeasible"
    return (
        n, inst.m, seed, rho, mode, report.iterations,
        report.objective, report.feasible, gap, oracle_obj, status,
        wall_ms, trace_name,
    )


# -- argument plumbing --------------------------------------------------------


# one definition per flag; each subcommand lists the flags it takes
_FLAGS = {
    "--instance": dict(type=Path, help="instance file to load"),
    "--n": dict(type=int, help="node count for a generated instance"),
    "--seed": dict(type=int, default=0, help="generator seed"),
    "--p": dict(type=float, default=0.5, help="edge probability"),
    "--hop-slack": dict(type=int, default=2,
                        help="hop bound slack over the longest shortest path"),
    "--commodities": dict(type=int, default=None,
                          help="commodity count (default floor(n/5), min 1)"),
    "--rho": dict(type=float, default=SolverConfig.rho, help="penalty parameter"),
    "--tol": dict(type=float, default=SolverConfig.tol, help="stopping tolerance"),
    "--max-iters": dict(type=int, default=SolverConfig.max_iters,
                        help="iteration cap"),
    "--oracle-max-edges": dict(type=int, default=EnumerationBudget.max_edges),
    "--oracle-max-trees": dict(type=int, default=EnumerationBudget.max_trees),
    "--trace-aggregate": dict(
        dest="trace_per_agent", action="store_false",
        help="one aggregated distributed trace row per round"),
}
_FAMILY_FLAGS = ("--p", "--hop-slack", "--commodities")
_GENERATOR_FLAGS = ("--n", "--seed") + _FAMILY_FLAGS
_INSTANCE_FLAGS = ("--instance",) + _GENERATOR_FLAGS
_STOPPING_FLAGS = ("--tol", "--max-iters")
_ORACLE_FLAGS = ("--oracle-max-edges", "--oracle-max-trees")


def _add_flags(p, names):
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def _oracle_budget(args):
    return EnumerationBudget(max_edges=args.oracle_max_edges,
                             max_trees=args.oracle_max_trees)


def _generate(args, missing="need --n to generate an instance"):
    if args.n is None:
        raise ValueError(missing)
    return random_instance(args.n, args.p, args.seed,
                           n_commodities=args.commodities,
                           hop_slack=args.hop_slack)


def _load_instance(args):
    if args.instance is not None:
        return read_instance(args.instance)
    return _generate(args, "need --instance or --n")


def _parse_list(text, kind):
    return [kind(tok) for tok in text.split(",") if tok]


def _print_report(report, inst):
    print(f"mode:       {report.mode}")
    print(f"status:     {report.status}")
    print(f"iterations: {report.iterations}")
    print(f"objective:  {report.objective!r}")
    print(f"feasible:   {report.feasible} (extraction: {report.extraction})")
    if report.tree is not None:
        edges = [inst.graph.edges[e] for e in report.tree.selected]
        print(f"tree edges: {edges}")
    if report.final_consensus_gap is not None:
        print(f"consensus gap: {report.final_consensus_gap!r}")
    print("counters:   " + " ".join(f"{name}={count}" for name, count
                                     in report.counters._asdict().items()))


def _cmd_gen(args):
    inst = _generate(args)
    if args.out is None:
        sys.stdout.write(format_instance(inst))
    else:
        write_instance(inst, args.out)
        print(f"wrote {args.out} (n={inst.n}, m={inst.m}, F={inst.n_commodities}, "
              f"d={inst.hop_bound})")
    return 0


def _cmd_solve(args):
    mode = _SOLVE_MODES[args.command]
    inst = _load_instance(args)
    cfg = SolverConfig(rho=args.rho, tol=args.tol, max_iters=args.max_iters)
    report = _SOLVERS[mode](inst, cfg)
    _print_report(report, inst)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / f"trace_{mode}.csv"
        # solve-central has no --trace-aggregate; a central trace has no agents
        _write_trace(report, trace_path,
                     per_agent=mode == "central" or args.trace_per_agent)
        print(f"trace: {trace_path}")
    return 0


def _cmd_oracle(args):
    inst = _load_instance(args)
    result = exact_solve(inst, _oracle_budget(args))
    if not result.feasible:
        print("infeasible: no spanning tree satisfies the hop bound")
        return 1
    print(f"optimum: {result.objective!r}")
    print(f"tree edges: {[inst.graph.edges[e] for e in result.tree.selected]}")
    print(f"trees enumerated: {result.trees_enumerated}")
    if args.out is not None:
        write_solution(inst, result.tree, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_project(args):
    inst = _load_instance(args)
    w = np.array(_parse_list(args.w, float)) if args.w else np.ones(inst.m)
    mu = np.array(_parse_list(args.mu, float)) if args.mu else np.zeros(inst.m)
    h = projection_weights(w, mu)
    tree = mst_kruskal(inst.graph, h)
    print("h:", " ".join(repr(float(x)) for x in h))
    print("tree indices:", " ".join(str(e) for e in tree.selected))
    print("tree edges:", [inst.graph.edges[e] for e in tree.selected])
    return 0


def _cmd_dump_qp(args):
    inst = _load_instance(args)
    cfg = SolverConfig(rho=args.rho)
    start = relaxed_start(inst)
    qp = build_centralized_subproblem(inst, start["z"], start["y"], start["mu"],
                                      start["eta"], cfg.rho)
    lines = [f"variables {qp.n}"]
    lines.append("diag " + " ".join(repr(float(x)) for x in qp.d))
    lines.append("linear " + " ".join(repr(float(x)) for x in qp.q))
    for label, mat, rhs in (("eq", qp.a_eq, qp.b_eq), ("le", qp.a_in, qp.b_in)):
        for r in range(mat.shape[0]):
            row = mat.getrow(r)
            terms = " ".join(f"{c}:{repr(float(v))}"
                             for c, v in zip(row.indices, row.data))
            lines.append(f"{label} {terms} rhs {repr(float(rhs[r]))}")
    lines.append("box 0 1")
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args):
    rows = run_experiment(args)
    summary = args.out / "summary.csv"
    write_csv(summary, SUMMARY_COLUMNS, rows)
    print(f"wrote {summary} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve-central": _cmd_solve,
    "solve-dist": _cmd_solve,
    "oracle": _cmd_oracle,
    "project": _cmd_project,
    "dump-qp": _cmd_dump_qp,
    "sweep": _cmd_sweep,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="treedesign",
        description="ADMM heuristics for hop-constrained spanning-tree design",
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log solver internals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance file")
    _add_flags(p, _GENERATOR_FLAGS)
    p.add_argument("--out", type=Path, default=None)

    for name, mode in _SOLVE_MODES.items():
        p = sub.add_parser(name, help=f"run the {mode} solver")
        _add_flags(p, _INSTANCE_FLAGS + ("--rho",) + _STOPPING_FLAGS)
        p.add_argument("--out", type=Path, default=None,
                       help="directory for the trace CSV")
        if mode == "dist":
            _add_flags(p, ("--trace-aggregate",))

    p = sub.add_parser("oracle", help="exhaustive exact solve")
    _add_flags(p, _INSTANCE_FLAGS + _ORACLE_FLAGS)
    p.add_argument("--out", type=Path, default=None,
                   help="write instance plus tree stanza here")

    p = sub.add_parser("project", help="debug: print projection weights and tree")
    _add_flags(p, _INSTANCE_FLAGS)
    p.add_argument("--w", type=str, default=None, help="comma-separated w vector")
    p.add_argument("--mu", type=str, default=None, help="comma-separated mu vector")

    p = sub.add_parser("dump-qp", help="debug: dump the initial subproblem")
    _add_flags(p, _INSTANCE_FLAGS + ("--rho",))
    p.add_argument("--out", type=Path, default=None)

    p = sub.add_parser("sweep", help="run an experiment grid")
    p.add_argument("--n", type=int, action="append", required=True,
                   help="node count (repeatable)")
    p.add_argument("--seeds", type=int, default=1,
                   help="number of seeds (0..k-1)")
    p.add_argument("--seed-list", type=str, default=None,
                   help="explicit comma-separated seeds (overrides --seeds)")
    p.add_argument("--rhos", type=str, default=repr(SolverConfig.rho),
                   help="comma-separated penalty values")
    p.add_argument("--modes", choices=["central", "dist", "both"],
                   default="both")
    _add_flags(p, _FAMILY_FLAGS + _STOPPING_FLAGS + _ORACLE_FLAGS)
    p.add_argument("--no-oracle", action="store_true")
    p.add_argument("--no-wall-time", action="store_true",
                   help="write wall_ms as 0 for byte-stable comparisons")
    _add_flags(p, ("--trace-aggregate",))
    p.add_argument("--out", type=Path, required=True)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, BudgetExceededError, GraphGenerationError,
            InfeasibleSubproblemError) as exc:
        parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
