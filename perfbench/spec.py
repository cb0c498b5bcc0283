"""The benchmark's definition: workloads, metrics and what each layer moves.

``BENCHMARK.json`` at the repository root is generated from this file with
``python3 perfbench/spec.py``; a test checks that the two agree.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 35

WORKLOADS = {
    "sweep-n10": (
        "acceptance-fixture cell: n=10 central rho sweep with the oracle; "
        "stresses per-iteration Python cost of the inner QP, outer loops "
        "that cycle to the cap, and the brute-force oracle"
    ),
    "dist-n8": (
        "n=8 distributed solves under a round cap: many small per-agent QPs, "
        "so polish, factorizations and per-agent workspaces dominate; the "
        "only workload that runs distributed"
    ),
}

# (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("qp_iter_rel_p50", "ratio", "lower", 0.25),
    ("cost_over_mst", "ratio", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better, what it should move: end-to-end metric on workload).
# scale-n30 is runnable (run.py --workload scale-n30) but not listed above:
# at two to four n=30 instances per run its figures vary across seeds by
# more than any useful bound.
_ITER = "qp_iter_rel_p50 and solve_wall_s on sweep-n10 and dist-n8"
_SWEEP = "solve_wall_s and solve_s_p50 on sweep-n10"
_DIST = "qp_iter_rel_p50 and solve_wall_s on dist-n8"
_ORACLE = "oracle_s on sweep-n10; nothing elsewhere"
PER_LAYER = [
    ("qp.solve.calls", "count", "lower", _ITER),
    ("qp.solve.self_s", "s", "lower", _ITER + "; little on scale-n30"),
    ("qp.inner_iters", "count", "lower", "solve_wall_s on sweep-n10 and dist-n8"),
    ("qp.inner_iters_per_solve", "count", "lower", "solve_wall_s on sweep-n10 and dist-n8"),
    ("qp.solved_frac", "ratio", "higher", "solve_wall_s on sweep-n10 and dist-n8"),
    ("qp.workspaces", "count", "lower", "solve_wall_s and peak_rss_mb on dist-n8"),
    ("qp.lu_solve.calls", "count", "lower", _ITER + "; qp_iter_rel_p50 on scale-n30"),
    ("qp.lu_solve.s", "s", "lower", _ITER + "; qp_iter_rel_p50 on scale-n30"),
    ("qp.lu_solve.flops_computed", "flop", "lower", "qp_iter_rel_p50 on scale-n30"),
    ("qp.splu.calls", "count", "lower", _DIST + "; setup_s on scale-n30"),
    ("qp.splu.s", "s", "lower", _DIST + "; setup_s on scale-n30"),
    ("qp.kkt_fill_nnz", "count", "lower", "qp_iter_rel_p50, setup_s and peak_rss_mb on scale-n30"),
    ("central.outer_iters", "count", "lower", _SWEEP),
    ("central.capped_frac", "ratio", "lower", _SWEEP),
    ("central.converged_frac", "ratio", "higher", _SWEEP),
    ("central.step.self_s", "s", "lower", "qp_iter_rel_p50 on sweep-n10"),
    ("central.residual_central.self_s", "s", "lower", "qp_iter_rel_p50 on sweep-n10"),
    ("central.solve_central.self_s", "s", "lower", "qp_iter_rel_p50 on sweep-n10"),
    ("central.outer_iter_s_p50", "s", "lower", "solve_s_p50 on sweep-n10 and scale-n30"),
    ("distributed.rounds", "count", "lower", "solve_wall_s on dist-n8 only"),
    ("distributed.capped_frac", "ratio", "lower", "solve_wall_s on dist-n8 only"),
    ("distributed.agent_solves", "count", "lower", "solve_wall_s on dist-n8 only"),
    ("distributed.sync_round.self_s", "s", "lower", _DIST),
    ("distributed.agent_primal_step.self_s", "s", "lower", _DIST),
    ("distributed.agent_dual_step.self_s", "s", "lower", _DIST),
    ("distributed.consensus_gap.self_s", "s", "lower", _DIST),
    ("distributed.residual_distributed.self_s", "s", "lower", _DIST),
    ("distributed.solve_distributed.self_s", "s", "lower", _DIST),
    ("distributed.consensus_gap_final_max", "norm", "lower", "cost_over_mst and feasible_frac on dist-n8"),
    ("mcf.random_instance.s", "s", "lower", "setup_s on every workload"),
    ("mcf.relaxed_set_nonempty.s", "s", "lower", "setup_s on every workload, most on scale-n30"),
    ("mcf.constraint_blocks.s", "s", "lower", "setup_s on every workload"),
    ("mcf.build_subproblem.calls", "count", "lower", _ITER),
    ("mcf.build_subproblem.self_s", "s", "lower", _ITER),
    ("mcf.check_feasible.calls", "count", "lower", _ITER),
    ("mcf.check_feasible.self_s", "s", "lower", _ITER),
    ("mcf.route_on_tree.calls", "count", "lower", _ITER),
    ("projection.project_tree.calls", "count", "lower", _ITER),
    ("projection.project_tree.self_s", "s", "lower", _ITER),
    ("projection.project_binary.self_s", "s", "lower", _ITER),
    ("graphs.generate_erdos_renyi.s", "s", "lower", "setup_s on every workload"),
    ("graphs.is_spanning_tree.calls", "count", "lower", "qp_iter_rel_p50 on sweep-n10"),
    ("graphs.is_spanning_tree.self_s", "s", "lower", "qp_iter_rel_p50 on sweep-n10"),
    ("oracle.exact_solve.s", "s", "lower", _ORACLE),
    ("oracle.trees_enumerated", "count", "lower", _ORACLE),
    ("oracle.subsets_tested", "count", "lower", _ORACLE),
    ("oracle.tree_yield", "ratio", "higher", _ORACLE),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced solve_wall_s"),
]


def benchmark_json():
    spec = {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }
    return json.dumps(spec, indent=2) + "\n"


if __name__ == "__main__":
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").write_text(
        benchmark_json())
