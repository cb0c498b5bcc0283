"""Synchronous multi-agent simulation of the distributed consensus method.

Every agent keeps full copies (u^i, w^i, z^i, y^i) plus four duals: mu/eta
tie its own tree and flow roundings to its relaxation, nu/xi drive neighbor
consensus. The world holds each copy and dual as one (agents, dim) array,
row i for agent i, the trees as int8 0/1 rows. A round is two-phase:
phase 1 builds every agent's linear cost from the round-k rows, then solves
each agent's subproblem and projections; after a barrier, phase 2 ascends
nu/xi with the fresh round-(k+1) neighbor primals, then mu/eta locally. Each
agent's start, primal step and local duals are the centralized driver's
per-copy update (:func:`central.relaxed_start`, :func:`central.primal_step`,
and :func:`central.local_duals` on every agent's rows at once), solving in
the runtime that :func:`central.run_outer_loop` passes to each round; only
the subproblem, built here, differs. Agents within a phase are
data-independent -- results are identical for any processing order, which
is tested. Message passing is simulated in-process, not a network stack;
determinism outranks realism at desk scale.

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

from .central import (change_norm, local_duals, primal_step, relaxed_start,
                      run_outer_loop)
from .mcf import objective, relaxed_qp
# not called here; the patch table in perfbench/tracing.py looks them up here
from .graphs import is_spanning_tree  # noqa: F401
from .mcf import check_feasible, route_on_tree  # noqa: F401
from .projection import project_binary, project_tree  # noqa: F401
from .report import DistributedTraceRow

__all__ = [
    "World",
    "init_world",
    "half_incident_costs",
    "agent_linear_cost",
    "agent_diagonal",
    "build_agent_subproblem",
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

    Row i of ``z`` is agent i's tree as int8 0/1 entries (the all-ones
    relaxed anchor w0 before round 1, see :func:`central.relaxed_start`).
    ``slots[s]`` pairs the index arrays of the agents with more than s
    neighbors and of their s-th neighbors in ascending id.
    """

    inst: object
    slots: tuple
    u: np.ndarray
    w: np.ndarray
    z: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    nu: np.ndarray
    xi: np.ndarray
    k: int = 0


def init_world(inst, cfg):
    """All agents start identical (relaxed w0, zero duals)."""
    neighbors = [[j for _, j in inst.graph.incident(i)] for i in range(inst.n)]
    slots = tuple(
        (np.array([i for i, nb in enumerate(neighbors) if len(nb) > s]),
         np.array([nb[s] for nb in neighbors if len(nb) > s]))
        for s in range(max(map(len, neighbors))))
    start = relaxed_start(inst)
    rows = {name: np.tile(start[name], (inst.n, 1))
            for name in ("u", "w", "z", "y", "mu", "eta")}
    return World(inst, slots, nu=np.zeros((inst.n, inst.dim_u)),
                 xi=np.zeros((inst.n, inst.dim_w)), **rows)


def half_incident_costs(inst):
    """Local objective coefficients, one row per agent: half of each
    incident edge cost."""
    q = np.zeros((inst.n, inst.dim_w))
    q[np.array(inst.graph.edges).T, np.arange(inst.dim_w)] = inst.costs / 2.0
    return q


def agent_linear_cost(inst, world, rho):
    """Linear terms of every agent's subproblem, one row per agent.

    Each neighbor adds a consensus quadratic rho ||. - midpoint||^2. The
    consensus duals nu/xi are scaled (their ascent steps carry no rho), so
    their contribution to the objective is rho * nu' u + rho * xi' w --
    dividing the unscaled duals by rho leaves this factor on the linear
    terms, exactly as it leaves the quadratic penalty on the mu term.
    """
    dim_w = inst.dim_w
    # every row of q = [q_w, q_u] is built in place from the expressions
    #   q_w = c/2 - rho (z + mu) + rho xi - sum rho (w + w_neighbor)
    #   q_u = -rho (y + eta) + rho nu     - sum rho (u + u_neighbor)
    # each term with its operands and order, one neighbor slot at a time;
    # an integer 0/1 entry meets a float one as the float it converts to
    # exactly. The blocks stay apart: 0 - x is not -x when x = +0
    q = np.empty((inst.n, inst.dim_total))
    q_w, q_u = q[:, :dim_w], q[:, dim_w:]
    np.add(world.z, world.mu, out=q_w)
    np.multiply(rho, q_w, out=q_w)
    np.subtract(half_incident_costs(inst), q_w, out=q_w)
    q_w += rho * world.xi
    np.add(world.y, world.eta, out=q_u)
    np.multiply(-rho, q_u, out=q_u)
    q_u += rho * world.nu
    for agents, partners in world.slots:
        q_w[agents] -= rho * (world.w[agents] + world.w[partners])
        q_u[agents] -= rho * (world.u[agents] + world.u[partners])
    return q


def agent_diagonal(rho, n_neighbors):
    """Diagonal of an agent's subproblem: rho plus 2 rho per neighbor."""
    return float(rho) + 2.0 * rho * n_neighbors


def build_agent_subproblem(inst, world, agent, rho):
    """Quadratic subproblem of one agent of ``world``:
    :func:`mcf.relaxed_qp` (the agent-local replicas of the centralized
    rows) with :func:`agent_diagonal` and its row of
    :func:`agent_linear_cost`."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return relaxed_qp(
        inst, agent_diagonal(rho, len(inst.graph.incident(agent))),
        agent_linear_cost(inst, world, rho)[agent],
    )


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
    ``staged`` (one :class:`central.Primals` per agent), then the local
    tree/flow duals of :func:`central.local_duals` on the rows of every
    agent at once; returns the next world.

    The consensus duals ascend one neighbor slot at a time, with the
    operands and order of nu += u - u_other and xi += w - w_other.
    """
    w, u, z, y = map(np.array, zip(*staged))
    nu, xi = world.nu.copy(), world.xi.copy()
    for agents, partners in world.slots:
        nu[agents] += u[agents] - u[partners]
        xi[agents] += w[agents] - w[partners]
    mu, eta = local_duals(world.mu, world.eta, z, w, y, u)
    return dataclasses.replace(world, u=u, w=w, z=z, y=y, mu=mu, eta=eta,
                               nu=nu, xi=xi, k=world.k + 1)


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
    """Per agent, in agent order: the dual-change norms and the
    primal-change norms between rounds, as two lists."""
    return (change_norm(prev, curr, ("mu", "eta", "nu", "xi")).tolist(),
            change_norm(prev, curr, ("u", "w")).tolist())


def _mean_residual(dual, primal):
    """Average dual change plus average primal change, each summed in agent
    order."""
    return sum(dual) / len(dual) + sum(primal) / len(primal)


def residual_distributed(prev, curr):
    """Average per-agent dual change plus average per-agent primal change."""
    return _mean_residual(*_agent_changes(prev, curr))


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
        dual, primal = _agent_changes(prev, world)
        gap = consensus_gap(world)
        for i, (d, p) in enumerate(zip(dual, primal)):
            trace.append(DistributedTraceRow(
                k=world.k,
                agent=i,
                objective_w=objective(inst, world.w[i]),
                residual_contrib=d + p,
                consensus_gap=gap,
                qp_iters=runtime.last[i].iterations,
            ))
        return _mean_residual(dual, primal)

    report = run_outer_loop(
        inst, cfg, "distributed", init_world,
        lambda world, runtime: sync_round(world, cfg, runtime), record,
    )
    report.final_consensus_gap = gap
    return report
