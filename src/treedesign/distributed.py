"""Synchronous multi-agent simulation of the distributed consensus method.

Every agent keeps full copies (u^i, w^i, z^i, y^i) plus four duals: mu/eta
tie its own tree and flow roundings to its relaxation, nu/xi drive neighbor
consensus. The world holds each copy and dual as one (agents, dim) array,
row i for agent i, and the trees as a list. A round is two-phase: phase 1
builds every agent's linear cost from the round-k rows, then solves each
agent's subproblem and projections; after a barrier, phase 2 ascends nu/xi
with the fresh round-(k+1) neighbor primals, then mu/eta locally. Each
agent's start, primal step and local duals are the centralized driver's
per-copy update (:func:`central.relaxed_start`, :func:`central.primal_step`,
:func:`central.local_duals`), solving in the runtime that
:func:`central.run_outer_loop` passes to each round. Agents within a phase
are data-independent -- results are identical for any processing order,
which is tested. Message passing is simulated in-process, not a network
stack; determinism outranks realism at desk scale.

Communication follows the instance graph: each neighbor pair is one
consensus constraint, with a quadratic of coefficient rho and a unit dual
step (the consensus form of Boyd et al. 2011, section 7). One array
operation per neighbor slot adds every agent's term for that neighbor, in
the order of a per-neighbor loop, so the bits are those of the per-agent,
per-neighbor expressions and of the un-condensed reference with explicit
per-arc averages and duals, both kept in ``tests/helpers.py``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .central import (Primals, change_norm, local_duals, primal_step,
                      relaxed_start, run_outer_loop)
from .mcf import agent_diagonal, agent_linear_cost, objective
# not called here; the patch table in perfbench/tracing.py looks them up here
from .graphs import is_spanning_tree  # noqa: F401
from .mcf import build_agent_subproblem, check_feasible, route_on_tree  # noqa: F401
from .projection import project_binary, project_tree  # noqa: F401
from .report import DistributedTraceRow

__all__ = [
    "World",
    "init_world",
    "agent_primal_step",
    "agent_dual_step",
    "sync_round",
    "residual_distributed",
    "consensus_gap",
    "solve_distributed",
]


@dataclasses.dataclass(eq=False)
class World:
    """Every agent's copies and duals for one round counter, one row each.

    ``z`` lists the trees (the relaxed anchor w0 before round 1, see
    :func:`central.relaxed_start`). ``slots[s]`` pairs the index arrays of
    the agents with more than s neighbors and of their s-th neighbors in
    ascending id.
    """

    inst: object
    slots: tuple
    u: np.ndarray
    w: np.ndarray
    z: list
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    nu: np.ndarray
    xi: np.ndarray
    k: int = 0

    def copies(self):
        """Each agent's primals, as row views."""
        return [Primals(self.w[i], self.u[i], self.z[i], self.y[i])
                for i in range(self.inst.n)]


def init_world(inst, cfg):
    """All agents start identical (relaxed w0, zero duals)."""
    neighbors = [[j for _, j in inst.graph.incident(i)] for i in range(inst.n)]
    slots = tuple(
        (np.array([i for i, nb in enumerate(neighbors) if len(nb) > s]),
         np.array([nb[s] for nb in neighbors if len(nb) > s]))
        for s in range(max(map(len, neighbors))))
    start = relaxed_start(inst)
    rows = {name: np.tile(start[name], (inst.n, 1))
            for name in ("u", "w", "y", "mu", "eta")}
    return World(inst, slots, z=[start["z"]] * inst.n,
                 nu=np.zeros((inst.n, inst.dim_u)),
                 xi=np.zeros((inst.n, inst.dim_w)), **rows)


def agent_primal_step(world, agent, q, cfg, runtime):
    """Phase 1 for one agent: :func:`central.primal_step` on its row ``q``
    of the round's linear costs in ``runtime``, which returns its
    round-(k+1) primals."""
    inst = world.inst
    diag = agent_diagonal(cfg.rho, len(inst.graph.incident(agent)))
    return primal_step(runtime, agent, inst, diag, q, cfg, world.mu[agent],
                       world.eta[agent])


def agent_dual_step(world, staged):
    """Phase 2 for every agent: consensus duals from the fresh primals
    ``staged`` (one :class:`central.Primals` per agent), then each agent's
    local tree/flow duals of :func:`central.local_duals`; returns the next
    world.

    The consensus duals ascend one neighbor slot at a time, with the
    operands and order of nu += u - u_other and xi += w - w_other.
    """
    u = np.array([p.u for p in staged])
    w = np.array([p.w for p in staged])
    nu, xi = world.nu.copy(), world.xi.copy()
    for agents, partners in world.slots:
        nu[agents] += u[agents] - u[partners]
        xi[agents] += w[agents] - w[partners]
    mu, eta = zip(*(local_duals(world.mu[i], world.eta[i], p)
                    for i, p in enumerate(staged)))
    return dataclasses.replace(
        world, u=u, w=w, z=[p.z for p in staged],
        y=np.array([p.y for p in staged]), mu=np.array(mu),
        eta=np.array(eta), nu=nu, xi=xi, k=world.k + 1)


def sync_round(world, cfg, runtime, order=None):
    """One synchronous round over all agents, solving in ``runtime``.

    Phase 1 reads only the round-k rows, phase 2 only phase-1 output, so
    any processing order gives bit-identical results. ``order``, when
    given, must list every agent id once; any other raises ValueError.
    """
    n = world.inst.n
    order = list(range(n)) if order is None else list(order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of the agent "
                         f"ids 0 to {n - 1}")
    q = agent_linear_cost(world.inst, world, cfg.rho)
    staged = [None] * n
    for i in order:
        staged[i] = agent_primal_step(world, i, q[i], cfg, runtime)
    return agent_dual_step(world, staged)


def _agent_changes(prev, curr):
    """Per agent: (dual-change norm, primal-change norm) between rounds."""
    return list(zip(change_norm(prev, curr, ("mu", "eta", "nu", "xi")).tolist(),
                    change_norm(prev, curr, ("u", "w")).tolist()))


def _mean_residual(changes):
    """Average dual change plus average primal change, summed in agent order."""
    dual = 0.0
    primal = 0.0
    for d, p in changes:
        dual += d
        primal += p
    return dual / len(changes) + primal / len(changes)


def residual_distributed(prev, curr):
    """Average per-agent dual change plus average per-agent primal change."""
    return _mean_residual(_agent_changes(prev, curr))


def consensus_gap(world):
    """Largest pairwise disagreement max_{i,j} ||w^i - w^j|| + ||u^i - u^j||."""
    w, u = world.w, world.u
    gap = 0.0
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            # sqrt(d . d) is what np.linalg.norm computes for a real vector d
            d_w = w[i] - w[j]
            d_u = u[i] - u[j]
            gap = max(gap, math.sqrt(d_w.dot(d_w)) + math.sqrt(d_u.dot(d_u)))
    return gap


def solve_distributed(inst, cfg):
    """Run synchronous rounds until the average residual drops below tol.

    :func:`central.run_outer_loop` checks every agent's tree and extracts
    the answer from the lowest-id agent, as for the centralized driver. The
    trace carries one row per (round, agent): its objective, its residual
    contribution, the world consensus gap, and its inner iteration count.
    """
    gap = 0.0  # every agent starts from the same point

    def record(prev, world, trace, runtime):
        nonlocal gap
        changes = _agent_changes(prev, world)
        gap = consensus_gap(world)
        for i, (dual, primal) in enumerate(changes):
            trace.append(DistributedTraceRow(
                k=world.k,
                agent=i,
                objective_w=objective(inst, world.w[i]),
                residual_contrib=dual + primal,
                consensus_gap=gap,
                qp_iters=runtime.last[i].iterations,
            ))
        return _mean_residual(changes)

    report = run_outer_loop(
        inst, cfg, "distributed", init_world,
        lambda world, runtime: sync_round(world, cfg, runtime),
        World.copies, record,
    )
    report.final_consensus_gap = gap
    return report
