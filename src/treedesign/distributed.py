"""Synchronous multi-agent simulation of the distributed consensus method.

Every agent keeps full copies (u^i, w^i, z^i, y^i) plus four duals: mu/eta
tie its own tree and flow roundings to its relaxation, nu/xi drive neighbor
consensus. A round is two-phase: phase 1 solves every agent's subproblem and
projections from the round-k snapshots; after a barrier, phase 2 ascends
nu/xi with the fresh round-(k+1) neighbor primals, then mu/eta locally.
Each agent's start, primal step and local duals are the centralized
driver's per-copy update (:func:`central.relaxed_start`,
:func:`central.primal_step`, :func:`central.local_duals`), solving in the
runtime that :func:`central.run_outer_loop` passes to each round. Agents
within a phase are data-independent -- results are identical for any
processing order, which is tested.

Message passing is simulated in-process (snapshot arrays), not a network
stack; determinism outranks realism at desk scale.

Communication follows the instance graph: each neighbor pair is one
consensus constraint, with a quadratic of coefficient rho and a unit dual
step (the consensus form of Boyd et al. 2011, section 7).

The condensed updates are validated against an un-condensed reference with
explicit per-arc averages and duals, kept in the tests (``tests/helpers.py``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .central import (change_norm, local_duals, primal_step, relaxed_start,
                      run_outer_loop)
from .mcf import agent_diagonal, agent_linear_cost, objective
# not called here; the patch table in perfbench/tracing.py looks them up here
from .graphs import is_spanning_tree  # noqa: F401
from .mcf import build_agent_subproblem, check_feasible, route_on_tree  # noqa: F401
from .projection import project_binary, project_tree  # noqa: F401
from .report import DistributedTraceRow

__all__ = [
    "AgentState",
    "World",
    "init_world",
    "agent_primal_step",
    "agent_dual_step",
    "sync_round",
    "residual_distributed",
    "consensus_gap",
    "solve_distributed",
]


@dataclass
class AgentState:
    """One agent's full variable copies and duals.

    ``z`` is a TreeIndicator from round 1 onward; the identical initial
    states carry the relaxed anchor vector w0 instead (see
    :func:`central.relaxed_start`).
    """

    u: np.ndarray
    w: np.ndarray
    z: object
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    nu: np.ndarray
    xi: np.ndarray


class World:
    """All agent states for one round counter; ``partners[i]`` lists agent
    i's neighbors in the instance graph, once each, in ascending id."""

    def __init__(self, inst, agents, k=0):
        self.inst = inst
        self.agents = list(agents)
        self.k = k
        self.partners = tuple(
            tuple(j for _, j in inst.graph.incident(i)) for i in range(inst.n))


def init_world(inst, cfg):
    """All agents start identical (relaxed w0, zero duals)."""
    return World(inst, [
        AgentState(**relaxed_start(inst), nu=np.zeros(inst.dim_u),
                   xi=np.zeros(inst.dim_w))
        for _ in range(inst.n)
    ])


def agent_primal_step(inst, agent, own, neighbor_snapshots, cfg, runtime):
    """Phase 1 for one agent: :func:`central.primal_step` on its own linear
    cost in ``runtime``, which returns its round-(k+1) primals.

    ``neighbor_snapshots`` holds the round-k state of each graph neighbor.
    """
    diag = agent_diagonal(cfg.rho, len(neighbor_snapshots))
    q = agent_linear_cost(inst, agent, own, neighbor_snapshots, cfg.rho)
    return primal_step(runtime, agent, inst, diag, q, cfg, own.mu, own.eta)


def agent_dual_step(own, staged, staged_partners):
    """Phase 2 for one agent: consensus duals from fresh neighbor primals,
    then the local tree/flow duals of :func:`central.local_duals`.

    The consensus duals run in place, with the operands and order of
    nu += u - u_other and xi += w - w_other.
    """
    nu = own.nu.copy()
    xi = own.xi.copy()
    d_u, d_w = np.empty_like(nu), np.empty_like(xi)
    for other in staged_partners:
        np.add(nu, np.subtract(staged.u, other.u, out=d_u), out=nu)
        np.add(xi, np.subtract(staged.w, other.w, out=d_w), out=xi)
    mu, eta = local_duals(own.mu, own.eta, staged)
    return AgentState(
        u=staged.u, w=staged.w, z=staged.z, y=staged.y,
        mu=mu, eta=eta, nu=nu, xi=xi,
    )


def sync_round(world, cfg, runtime, order=None):
    """One synchronous round over all agents, solving in ``runtime``.

    Phase 1 reads only the round-k states of each agent and its graph
    neighbors, phase 2 only phase-1 output, so any processing order gives
    bit-identical results. ``order``, when given, must list every agent id
    once; any other raises ValueError.
    """
    inst = world.inst
    agents = world.agents
    order = list(range(inst.n)) if order is None else list(order)
    if sorted(order) != list(range(inst.n)):
        raise ValueError(f"order {order} is not a permutation of the agent "
                         f"ids 0 to {inst.n - 1}")
    staged = [None] * inst.n
    for i in order:
        snapshots = [agents[j] for j in world.partners[i]]
        staged[i] = agent_primal_step(inst, i, agents[i], snapshots, cfg,
                                      runtime)
    new_agents = [None] * inst.n
    for i in order:
        staged_partners = [staged[j] for j in world.partners[i]]
        new_agents[i] = agent_dual_step(agents[i], staged[i], staged_partners)
    # the next world shares this one's instance and partner lists
    nxt = copy.copy(world)
    nxt.agents, nxt.k = new_agents, world.k + 1
    return nxt


def _agent_changes(prev, curr):
    """Per agent: (dual-change norm, primal-change norm) between rounds."""
    return [
        (change_norm(a, b, ("mu", "eta", "nu", "xi")),
         change_norm(a, b, ("u", "w")))
        for a, b in zip(prev.agents, curr.agents)
    ]


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
    agents = world.agents
    gap = 0.0
    for i in range(len(agents)):
        for j in range(i + 1, len(agents)):
            # sqrt(d . d) is what np.linalg.norm computes for a real vector d
            d_w = agents[i].w - agents[j].w
            d_u = agents[i].u - agents[j].u
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
        for i, (agent, (dual, primal)) in enumerate(zip(world.agents, changes)):
            trace.append(DistributedTraceRow(
                k=world.k,
                agent=i,
                objective_w=objective(inst, agent.w),
                residual_contrib=dual + primal,
                consensus_gap=gap,
                qp_iters=runtime.last[i].iterations,
            ))
        return _mean_residual(changes)

    report = run_outer_loop(
        inst, cfg, "distributed", init_world,
        lambda world, runtime: sync_round(world, cfg, runtime),
        lambda world: world.agents, record,
    )
    report.final_consensus_gap = gap
    return report
