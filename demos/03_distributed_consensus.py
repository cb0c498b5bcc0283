"""Multi-agent consensus run, checked against the arc-dual reference.

Every graph node runs its own copy of the problem and talks only to its
neighbors. The script shows the per-agent objectives clustering over rounds,
then replays the same trajectory with the un-condensed per-arc dual variables
and verifies the two implementations coincide.
"""

import sys
from pathlib import Path

import numpy as np

from treedesign import (
    SolverConfig,
    SubproblemRuntime,
    consensus_gap,
    init_world,
    objective,
    random_instance,
    solve_distributed,
    sync_round,
)

# the arc-dual reference is validation code and lives with the tests
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from helpers import (  # noqa: E402
    consensus_dual_aggregates,
    full_dual_step,
    init_full_dual_world,
)

inst = random_instance(6, 0.5, seed=3)
print(inst, "hop bound", inst.hop_bound)

cfg = SolverConfig(rho=0.1, tol=1e-4, max_iters=400)
world = init_world(inst, cfg)
runtime = SubproblemRuntime()
print("\nround   consensus gap   per-agent objectives")
for r in range(1, 101):
    world = sync_round(world, cfg, runtime)
    if r in (1, 2, 5, 10, 20, 40, 80, 100):
        objs = " ".join(f"{objective(inst, w):6.3f}" for w in world.w)
        print(f"{r:>5d}   {consensus_gap(world):13.3e}   {objs}")

report = solve_distributed(inst, cfg)
print(f"\nfull driver: {report.status} after {report.iterations} rounds, "
      f"objective {report.objective:.4f}, feasible {report.feasible}, "
      f"consensus gap {report.final_consensus_gap:.2e}")

# Replay with explicit per-arc averages and duals (alpha, beta, gamma,
# delta). Aggregating them per agent recovers the condensed consensus duals
# exactly; the identity alpha + beta = 0 holds at every round.
cfg_ref = SolverConfig(rho=1.0, tol=1e-12, max_iters=10, qp_tol=1e-10)
cond = init_world(inst, cfg_ref)
ref = init_full_dual_world(inst, cfg_ref)
rt1, rt2 = SubproblemRuntime(), SubproblemRuntime()
for _ in range(10):
    cond = sync_round(cond, cfg_ref, rt1)
    ref = full_dual_step(ref, cfg_ref, rt2)
nu_agg, xi_agg = consensus_dual_aggregates(ref)
worst = 0.0
for i in range(inst.n):
    worst = max(
        worst,
        float(np.max(np.abs(cond.u[i] - ref.agents[i].u))),
        float(np.max(np.abs(cond.nu[i] - nu_agg[i]))),
        float(np.max(np.abs(cond.xi[i] - xi_agg[i]))),
    )
print(f"condensed vs arc-dual reference after 10 rounds: "
      f"largest field difference {worst:.2e}")
for a in range(len(ref.arcs.arcs)):
    assert np.all(ref.alpha[a] + ref.beta[a] == 0.0)
print("alpha + beta = 0 and gamma + delta = 0 hold exactly on every arc")
