"""Synchronous multi-agent simulation of the distributed consensus method.

Every agent keeps full copies (u^i, w^i, z^i, y^i) plus four duals: mu/eta
tie its own tree and flow roundings to its relaxation, nu/xi drive neighbor
consensus. A round is two-phase: phase 1 solves every agent's subproblem and
projections from the round-k snapshots; after a barrier, phase 2 ascends
nu/xi with the fresh round-(k+1) neighbor primals, then mu/eta locally.
Agents within a phase are data-independent -- results are identical for any
processing order, which is tested.

Message passing is simulated in-process (snapshot arrays), not a network
stack; determinism outranks realism at desk scale.

Communication follows the instance graph. For an undirected topology each
neighbor pair exchanges in both directions, giving consensus quadratics with
coefficient rho and unit dual increments; a one-directional partner (directed
topologies) contributes rho/2 and a half increment. The same code path
covers both: a partner list entry is one direction of exchange.

The module also carries the un-condensed reference implementation with
explicit per-arc averages (t, s) and duals (alpha, beta, gamma, delta),
used to validate the condensed updates. With zero-initialized arc duals,
alpha + beta and gamma + delta vanish identically and the averages collapse
to midpoints; dividing the per-agent dual aggregates by rho then reproduces
the condensed trajectories exactly, at any rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .central import SubproblemRuntime, change_norm, initial_w0, run_outer_loop
from .graphs import TreeIndicator, indicator_vector
from .mcf import agent_diagonal, agent_linear_cost, half_incident_costs, objective
# not called here; the patch table in perfbench/tracing.py looks them up here
from .graphs import is_spanning_tree  # noqa: F401
from .mcf import build_agent_subproblem, check_feasible, route_on_tree  # noqa: F401
from .projection import project_binary, project_tree
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
    "FullDualAgentState",
    "FullDualWorld",
    "init_full_dual_world",
    "full_dual_step",
    "consensus_dual_aggregates",
]


@dataclass
class AgentState:
    """One agent's full variable copies and duals.

    ``z`` is a TreeIndicator from round 1 onward; the identical initial
    states carry the relaxed anchor vector w0 instead (same rationale as the
    centralized initial state).
    """

    u: np.ndarray
    w: np.ndarray
    z: object
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    nu: np.ndarray
    xi: np.ndarray


@dataclass
class _Staged:
    """Phase-1 output: round-(k+1) primals before the dual ascent."""

    u: np.ndarray
    w: np.ndarray
    z: TreeIndicator
    y: np.ndarray


class World:
    """All agent states plus the communication pattern for one round counter.

    ``partners[i]`` lists one entry per direction of exchange agent i
    participates in; for the undirected application every graph neighbor
    appears twice (once per arc orientation), ``consensus_coeff`` is rho/2
    per entry and the dual increment is half the per-entry disagreement,
    which reproduces the undirected form exactly.
    """

    def __init__(self, inst, agents, k=0, comm=None):
        self.inst = inst
        self.agents = list(agents)
        self.k = k
        self.comm = comm if comm is not None else inst.arcs
        partners = [[] for _ in range(inst.n)]
        for (i, j) in self.comm.arcs:
            partners[i].append(j)
            partners[j].append(i)
        self.partners = tuple(tuple(sorted(p)) for p in partners)


def _initial_agent(inst, cfg):
    w0 = initial_w0(inst, cfg)
    return AgentState(
        u=np.zeros(inst.dim_u),
        w=w0.copy(),
        z=w0.copy(),  # relaxed anchor; real trees appear from round 1 on
        y=np.zeros(inst.dim_u, dtype=np.int8),
        mu=np.zeros(inst.dim_w),
        eta=np.zeros(inst.dim_u),
        nu=np.zeros(inst.dim_u),
        xi=np.zeros(inst.dim_w),
    )


def init_world(inst, cfg):
    """All agents start identical (relaxed w0, zero duals)."""
    return World(inst, [_initial_agent(inst, cfg) for _ in range(inst.n)])


def agent_primal_step(inst, agent, own, neighbor_snapshots, cfg, _runtime=None):
    """Phase 1 for one agent: subproblem solve plus both projections.

    ``neighbor_snapshots`` holds one round-k state per direction of exchange
    (graph neighbors twice for undirected topologies).
    """
    runtime = _runtime if _runtime is not None else SubproblemRuntime()
    # rho/2 per direction of exchange; doubled pairs give the undirected form
    kappa = cfg.rho / 2.0
    diag = agent_diagonal(cfg.rho, kappa, len(neighbor_snapshots))
    q = agent_linear_cost(inst, agent, own, neighbor_snapshots, cfg.rho, kappa)
    sol = runtime.solve(agent, inst, diag, q, cfg)
    w_next, u_next = inst.split(sol.v)
    w_next, u_next = w_next.copy(), u_next.copy()
    z_next = project_tree(w_next, own.mu, inst.graph)
    y_next = project_binary(u_next - own.eta)
    return _Staged(u_next, w_next, z_next, y_next)


def agent_dual_step(own, staged, staged_partners):
    """Phase 2 for one agent: consensus duals from fresh neighbor primals,
    then the local tree/flow duals."""
    nu = own.nu.copy()
    xi = own.xi.copy()
    for other in staged_partners:
        nu += 0.5 * (staged.u - other.u)
        xi += 0.5 * (staged.w - other.w)
    mu = own.mu + (staged.z.vector - staged.w)
    eta = own.eta + (staged.y - staged.u)
    return AgentState(
        u=staged.u, w=staged.w, z=staged.z, y=staged.y,
        mu=mu, eta=eta, nu=nu, xi=xi,
    )


def sync_round(world, cfg, _runtime=None, order=None):
    """One synchronous round over all agents.

    Phase 1 reads only round-k snapshots, phase 2 reads only phase-1 output,
    so any processing order gives bit-identical results.
    """
    inst = world.inst
    agents = world.agents
    order = list(range(inst.n)) if order is None else list(order)
    staged = [None] * inst.n
    for i in order:
        snapshots = [agents[j] for j in world.partners[i]]
        staged[i] = agent_primal_step(inst, i, agents[i], snapshots, cfg,
                                      _runtime=_runtime)
    new_agents = [None] * inst.n
    for i in order:
        staged_partners = [staged[j] for j in world.partners[i]]
        new_agents[i] = agent_dual_step(agents[i], staged[i], staged_partners)
    return World(inst, new_agents, k=world.k + 1, comm=world.comm)


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
            gap = max(
                gap,
                float(np.linalg.norm(agents[i].w - agents[j].w))
                + float(np.linalg.norm(agents[i].u - agents[j].u)),
            )
    return gap


def solve_distributed(inst, cfg):
    """Run synchronous rounds until the average residual drops below tol.

    :func:`central.run_outer_loop` checks every agent's tree and extracts
    the answer from the lowest-id agent, as for the centralized driver. The
    trace carries one row per (round, agent): its objective, its residual
    contribution, the world consensus gap, and its inner iteration count.
    """
    runtime = SubproblemRuntime()
    gap = 0.0  # every agent starts from the same point

    def record(prev, world, trace):
        nonlocal gap
        changes = _agent_changes(prev, world)
        gap = consensus_gap(world)
        for i, (agent, (dual, primal)) in enumerate(zip(world.agents, changes)):
            last = runtime.last.get(i)
            trace.append(DistributedTraceRow(
                k=world.k,
                agent=i,
                objective_w=objective(inst, agent.w),
                residual_contrib=dual + primal,
                consensus_gap=gap,
                qp_iters=last.iterations if last is not None else 0,
            ))
        return _mean_residual(changes)

    report = run_outer_loop(
        inst, cfg, "distributed", init_world,
        lambda world: sync_round(world, cfg, _runtime=runtime),
        lambda world: world.agents, record,
    )
    report.final_consensus_gap = gap
    return report


# -- un-condensed reference with explicit per-arc averages and duals ---------


@dataclass
class FullDualAgentState:
    """Agent copy for the reference implementation; mu/eta are unscaled."""

    u: np.ndarray
    w: np.ndarray
    z: object
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray


class FullDualWorld:
    """Reference state: per-arc averages t/s and duals alpha..delta.

    Arc index a runs over both orientations of every edge; t[a] and alpha[a],
    beta[a] live in flow space, s[a] and gamma[a], delta[a] in edge space.
    """

    def __init__(self, inst, agents, t, s, alpha, beta, gamma, delta, k=0):
        self.inst = inst
        self.arcs = inst.arcs
        self.agents = list(agents)
        self.t = t
        self.s = s
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.k = k


def init_full_dual_world(inst, cfg):
    """Zero arc duals; averages seeded with the (identical) initial primals."""
    base = _initial_agent(inst, cfg)
    agents = [
        FullDualAgentState(
            u=base.u.copy(), w=base.w.copy(), z=base.z, y=base.y.copy(),
            mu=np.zeros(inst.dim_w), eta=np.zeros(inst.dim_u),
        )
        for _ in range(inst.n)
    ]
    arcs = inst.arcs
    t = [(agents[i].u + agents[j].u) / 2.0 for (i, j) in arcs.arcs]
    s = [(agents[i].w + agents[j].w) / 2.0 for (i, j) in arcs.arcs]
    alpha = [np.zeros(inst.dim_u) for _ in arcs.arcs]
    beta = [np.zeros(inst.dim_u) for _ in arcs.arcs]
    gamma = [np.zeros(inst.dim_w) for _ in arcs.arcs]
    delta = [np.zeros(inst.dim_w) for _ in arcs.arcs]
    return FullDualWorld(inst, agents, t, s, alpha, beta, gamma, delta)


def full_dual_step(world, cfg, _runtime=None):
    """One synchronous round of the un-condensed updates, written literally.

    Phase 1 minimizes each agent's local Lagrangian with the per-arc linear
    dual terms and (rho/2)-weighted squared distances to the stored averages;
    phase 2 recomputes the averages as midpoints of the fresh primals and
    ascends all duals with their rho-scaled residuals.
    """
    inst = world.inst
    arcs = world.arcs
    rho = cfg.rho
    agents = world.agents
    runtime = _runtime if _runtime is not None else SubproblemRuntime()
    staged = []
    for i, own in enumerate(agents):
        z_vec = indicator_vector(own.z, inst.dim_w).astype(float)
        q_w = half_incident_costs(inst, i) - own.mu - rho * z_vec
        q_u = -own.eta - rho * own.y.astype(float)
        degree2 = 0
        for a, _ in arcs.out_arcs(i):
            q_u = q_u + world.alpha[a] - rho * world.t[a]
            q_w = q_w + world.gamma[a] - rho * world.s[a]
            degree2 += 1
        for a, _ in arcs.in_arcs(i):
            q_u = q_u + world.beta[a] - rho * world.t[a]
            q_w = q_w + world.delta[a] - rho * world.s[a]
            degree2 += 1
        diag = rho * (1.0 + degree2)
        q = np.concatenate([q_w, q_u])
        sol = runtime.solve(i, inst, diag, q, cfg)
        w_next, u_next = inst.split(sol.v)
        w_next, u_next = w_next.copy(), u_next.copy()
        z_next = project_tree(w_next, own.mu / rho, inst.graph)
        y_next = project_binary(u_next - own.eta / rho)
        staged.append((u_next, w_next, z_next, y_next))
    t_next, s_next = [], []
    alpha, beta = [], []
    gamma, delta = [], []
    for a, (i, j) in enumerate(arcs.arcs):
        ui, wi = staged[i][0], staged[i][1]
        uj, wj = staged[j][0], staged[j][1]
        t_next.append((ui + uj) / 2.0)
        s_next.append((wi + wj) / 2.0)
        alpha.append(world.alpha[a] + (rho / 2.0) * (ui - uj))
        beta.append(world.beta[a] + (rho / 2.0) * (uj - ui))
        gamma.append(world.gamma[a] + (rho / 2.0) * (wi - wj))
        delta.append(world.delta[a] + (rho / 2.0) * (wj - wi))
    new_agents = []
    for own, (u_next, w_next, z_next, y_next) in zip(agents, staged):
        new_agents.append(FullDualAgentState(
            u=u_next, w=w_next, z=z_next, y=y_next,
            mu=own.mu + rho * (z_next.vector - w_next),
            eta=own.eta + rho * (y_next - u_next),
        ))
    return FullDualWorld(inst, new_agents, t_next, s_next, alpha, beta,
                         gamma, delta, k=world.k + 1)


def consensus_dual_aggregates(world):
    """Condensed consensus duals recovered from the per-arc duals.

    Agent i aggregates alpha over its outgoing arcs and beta over its
    incoming ones (flow space), likewise gamma/delta in edge space.
    """
    inst = world.inst
    arcs = world.arcs
    nu = [np.zeros(inst.dim_u) for _ in range(inst.n)]
    xi = [np.zeros(inst.dim_w) for _ in range(inst.n)]
    for i in range(inst.n):
        for a, _ in arcs.out_arcs(i):
            nu[i] += world.alpha[a]
            xi[i] += world.gamma[a]
        for a, _ in arcs.in_arcs(i):
            nu[i] += world.beta[a]
            xi[i] += world.delta[a]
    return nu, xi
