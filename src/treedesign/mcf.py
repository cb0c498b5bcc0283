"""Hop-constrained multicommodity-flow spanning-tree design.

Instance data, constraint assembly for the relaxed continuous set (flow
conservation, edge-activation coupling, hop budget, box bounds -- the
tree-counting rows are deliberately excluded: the projection step guarantees
a tree at every iteration), feasibility checking, routing on a fixed tree,
and the plain-text instance format.

Flow variables are stacked commodity-major after the edge block: a full
iterate is [w (m entries) | u^0 (2m) | u^1 (2m) | ...]. Conservation rows
use the origin-to-destination orientation: net inflow is -1 at the origin
and +1 at the destination.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import (
    TreeIndicator,
    UndirectedGraph,
    bidirect,
    generate_erdos_renyi,
    indicator_vector,
    is_spanning_tree,
    tree_path,
)
from .qp import QuadraticProgram, solve_qp

logger = logging.getLogger(__name__)

__all__ = [
    "Commodity",
    "Instance",
    "FeasibilityReport",
    "RoutingResult",
    "relaxed_qp",
    "build_centralized_subproblem",
    "centralized_linear_cost",
    "agent_diagonal",
    "build_agent_subproblem",
    "agent_linear_cost",
    "constraint_blocks",
    "check_feasible",
    "check_flows",
    "objective",
    "route_on_tree",
    "random_instance",
    "read_instance",
    "write_instance",
    "write_solution",
    "format_instance",
    "parse_instance",
]


@dataclass(frozen=True)
class Commodity:
    """One unit of demand from an origin node to a destination node."""

    origin: int
    dest: int

    def __post_init__(self):
        if self.origin == self.dest:
            raise ValueError("commodity origin and destination must differ")


class Instance:
    """Problem data: graph, edge costs, commodities, and the hop bound.

    Immutable after construction; constraint assembly caches the shared
    sparse blocks on the instance, so repeated builds are cheap.
    """

    def __init__(self, graph, costs, commodities, hop_bound):
        costs = np.asarray(costs, dtype=float)
        if len(costs) != graph.m:
            raise ValueError("need one cost per edge")
        if not np.isfinite(costs).all() or (costs < 0).any():
            raise ValueError("costs must be finite and nonnegative")
        if hop_bound < 1:
            raise ValueError("hop bound must be at least 1")
        if not graph.is_connected():
            raise ValueError("instance graph must be connected")
        commodities = tuple(commodities)
        if not commodities:
            raise ValueError("need at least one commodity")
        for c in commodities:
            if not (0 <= c.origin < graph.n and 0 <= c.dest < graph.n):
                raise ValueError(f"commodity {c} out of range")
        self.graph = graph
        self.arcs = bidirect(graph)
        self.costs = costs
        self.commodities = commodities
        self.hop_bound = int(hop_bound)
        self._blocks = None

    @property
    def n(self):
        return self.graph.n

    @property
    def m(self):
        return self.graph.m

    @property
    def n_arcs(self):
        return 2 * self.graph.m

    @property
    def n_commodities(self):
        return len(self.commodities)

    @property
    def dim_w(self):
        return self.graph.m

    @property
    def dim_u(self):
        return self.n_arcs * self.n_commodities

    @property
    def dim_total(self):
        return self.dim_w + self.dim_u

    def u_index(self, f, arc):
        """Index of commodity f's arc variable within a stacked (w, u) vector."""
        return self.dim_w + f * self.n_arcs + arc

    def flow_index(self, f, arc):
        """Index of commodity f's arc variable within a flow-only vector."""
        return f * self.n_arcs + arc

    def flow_slice(self, f):
        """Commodity f's block within a flow-only vector."""
        return slice(f * self.n_arcs, (f + 1) * self.n_arcs)

    def split(self, v):
        """Split a stacked iterate into (w over edges, u over commodities*arcs)."""
        v = np.asarray(v)
        if len(v) != self.dim_total:
            raise ValueError("stacked vector has wrong length")
        return v[: self.dim_w], v[self.dim_w:]

    def __repr__(self):
        return (f"Instance(n={self.n}, m={self.m}, F={self.n_commodities}, "
                f"d={self.hop_bound})")


def flow_rhs(inst, f):
    """Conservation right-hand side for commodity f, one entry per node."""
    rhs = np.zeros(inst.n)
    rhs[inst.commodities[f].origin] = -1.0
    rhs[inst.commodities[f].dest] = 1.0
    return rhs


def constraint_blocks(inst):
    """Shared sparse constraint blocks (a_eq, b_eq, a_in, b_in).

    Equalities: flow conservation for every (commodity, node).
    Inequalities: coupling u_f(i,j) + u_f(j,i) <= w_e for every (commodity,
    edge), then one hop row per commodity. Cached on the instance.
    """
    if inst._blocks is not None:
        return inst._blocks
    n, m, nf = inst.n, inst.m, inst.n_commodities
    arcs = inst.arcs
    total = inst.dim_total

    rows, cols, vals = [], [], []
    b_eq = np.zeros(n * nf)
    for f in range(nf):
        rhs = flow_rhs(inst, f)
        for i in range(n):
            r = f * n + i
            b_eq[r] = rhs[i]
            for a, _ in arcs.in_arcs(i):
                rows.append(r)
                cols.append(inst.u_index(f, a))
                vals.append(1.0)
            for a, _ in arcs.out_arcs(i):
                rows.append(r)
                cols.append(inst.u_index(f, a))
                vals.append(-1.0)
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(n * nf, total))

    rows, cols, vals = [], [], []
    n_coupling = m * nf
    b_in = np.zeros(n_coupling + nf)
    r = 0
    for f in range(nf):
        for e in range(m):
            rows += [r, r, r]
            cols += [inst.u_index(f, e), inst.u_index(f, e + m), e]
            vals += [1.0, 1.0, -1.0]
            r += 1
    for f in range(nf):
        for a in range(inst.n_arcs):
            rows.append(r)
            cols.append(inst.u_index(f, a))
            vals.append(1.0)
        b_in[r] = float(inst.hop_bound)
        r += 1
    a_in = sp.csr_matrix((vals, (rows, cols)), shape=(n_coupling + nf, total))

    inst._blocks = (a_eq, b_eq, a_in, b_in)
    logger.debug(
        "constraint blocks: %d vars, %d conservation rows, %d coupling rows, "
        "%d hop rows", total, n * nf, n_coupling, nf,
    )
    return inst._blocks


def centralized_linear_cost(inst, z_k, y_k, mu_k, eta_k, rho):
    """Linear term of the centralized subproblem over stacked (w, u).

    Expansion of  c'w + (rho/2)||z - w + mu||^2 + (rho/2)||y - u + eta||^2.
    """
    z = indicator_vector(z_k, inst.dim_w).astype(float)
    y = np.asarray(y_k, dtype=float)
    mu = np.asarray(mu_k, dtype=float)
    eta = np.asarray(eta_k, dtype=float)
    if len(y) != inst.dim_u or len(eta) != inst.dim_u or len(mu) != inst.dim_w:
        raise ValueError("iterate dimensions do not match the instance")
    q = np.empty(inst.dim_total)
    q[: inst.dim_w] = inst.costs - rho * (z + mu)
    q[inst.dim_w:] = -rho * (y + eta)
    return q


def relaxed_qp(inst, diag, q):
    """The subproblem every ADMM variant solves over the relaxed set.

    Scalar diagonal ``diag`` on every variable, linear cost ``q``, the shared
    constraint blocks, and the unit box. The tree-counting rows are not part
    of the feasible set; the projection step enforces the tree structure
    instead. Only ``q`` changes between iterations, and only ``q`` and
    ``diag`` between variants.
    """
    a_eq, b_eq, a_in, b_in = constraint_blocks(inst)
    return QuadraticProgram(
        d=np.full(inst.dim_total, diag),
        q=q,
        a_eq=a_eq,
        b_eq=b_eq,
        a_in=a_in,
        b_in=b_in,
        lo=np.zeros(inst.dim_total),
        hi=np.ones(inst.dim_total),
    )


def build_centralized_subproblem(inst, z_k, y_k, mu_k, eta_k, rho):
    """Quadratic subproblem of the centralized method at the current iterate:
    :func:`relaxed_qp` with diagonal rho and the linear cost from
    :func:`centralized_linear_cost`."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return relaxed_qp(inst, float(rho),
                      centralized_linear_cost(inst, z_k, y_k, mu_k, eta_k, rho))


def half_incident_costs(inst, agent):
    """Local objective coefficients: half of each incident edge cost."""
    q = np.zeros(inst.dim_w)
    for e, _ in inst.graph.incident(agent):
        q[e] = inst.costs[e] / 2.0
    return q


def agent_linear_cost(inst, agent, local, neighbor_snapshots, rho,
                      consensus_coeff):
    """Linear term of one agent's subproblem.

    ``local`` and each snapshot provide the attributes u, w, z, y, mu, eta,
    nu, xi. ``consensus_coeff`` is the weight kappa on each listed consensus
    quadratic ||. - midpoint||^2. The solvers list every neighbor once per
    direction of exchange with kappa = rho/2, which for an undirected graph
    equals one entry per neighbor with kappa = rho.

    The consensus duals nu/xi are scaled (their ascent steps carry no rho),
    so their contribution to the objective is rho * nu' u + rho * xi' w --
    dividing the unscaled duals by rho leaves this factor on the linear
    terms, exactly as it leaves the quadratic penalty on the mu term.
    """
    z = indicator_vector(local.z, inst.dim_w).astype(float)
    q_w = (half_incident_costs(inst, agent)
           - rho * (z + np.asarray(local.mu, dtype=float))
           + rho * np.asarray(local.xi, dtype=float))
    q_u = (-rho * (np.asarray(local.y, dtype=float)
                   + np.asarray(local.eta, dtype=float))
           + rho * np.asarray(local.nu, dtype=float))
    w_own = np.asarray(local.w, dtype=float)
    u_own = np.asarray(local.u, dtype=float)
    for snap in neighbor_snapshots:
        q_w = q_w - consensus_coeff * (w_own + np.asarray(snap.w, dtype=float))
        q_u = q_u - consensus_coeff * (u_own + np.asarray(snap.u, dtype=float))
    return np.concatenate([q_w, q_u])


def agent_diagonal(rho, consensus_coeff, n_partners):
    """Diagonal of an agent's subproblem: rho plus 2*kappa per consensus
    block."""
    return float(rho) + 2.0 * consensus_coeff * n_partners


def build_agent_subproblem(inst, agent, local, neighbor_snapshots, rho,
                           consensus_coeff):
    """Quadratic subproblem of one agent given its neighbors' snapshots:
    :func:`relaxed_qp` (the agent-local replicas of the centralized rows)
    with :func:`agent_diagonal` and :func:`agent_linear_cost`."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return relaxed_qp(
        inst, agent_diagonal(rho, consensus_coeff, len(neighbor_snapshots)),
        agent_linear_cost(inst, agent, local, neighbor_snapshots, rho,
                          consensus_coeff),
    )


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list


def check_feasible(inst, z, y):
    """Verify a binary (tree, flows) pair against the full model.

    Violations are returned as data, one string per failed constraint:
    spanning tree, then the flow checks of :func:`check_flows`.
    """
    violations = check_flows(inst, z, y).violations
    if not is_spanning_tree(inst.graph, indicator_vector(z, inst.dim_w)):
        violations = ["selected edges do not form a spanning tree"] + violations
    return FeasibilityReport(not violations, violations)


def check_flows(inst, z, y):
    """Verify binary flows ``y`` against the edge selection ``z``, without
    checking that ``z`` is a spanning tree.

    For callers that have already checked the tree; violations are reported
    as in :func:`check_feasible`: binariness, conservation, coupling, and hop
    budget.
    """
    violations = []
    zv = indicator_vector(z, inst.dim_w)
    yv = np.asarray(y)
    if len(yv) != inst.dim_u:
        raise ValueError("flow vector has wrong length")
    if not np.isin(yv, (0, 1)).all():
        violations.append("flows are not binary")
    yv = yv.astype(np.int64)
    arcs = inst.arcs
    for f in range(inst.n_commodities):
        uf = yv[inst.flow_slice(f)]
        rhs = flow_rhs(inst, f)
        for i in range(inst.n):
            net = sum(int(uf[a]) for a, _ in arcs.in_arcs(i)) \
                - sum(int(uf[a]) for a, _ in arcs.out_arcs(i))
            if net != int(rhs[i]):
                violations.append(
                    f"conservation violated for commodity {f} at node {i}: "
                    f"net {net} != {int(rhs[i])}"
                )
        for e in range(inst.m):
            if uf[e] + uf[e + inst.m] > zv[e]:
                violations.append(
                    f"coupling violated for commodity {f} on edge {e}"
                )
        used = int(uf.sum())
        if used > inst.hop_bound:
            violations.append(
                f"hop bound violated for commodity {f}: {used} > {inst.hop_bound}"
            )
    return FeasibilityReport(not violations, violations)


def objective(inst, z_or_w):
    """Total edge cost of a binary tree vector or a fractional w iterate."""
    v = indicator_vector(z_or_w, inst.dim_w) if isinstance(z_or_w, TreeIndicator) \
        else np.asarray(z_or_w, dtype=float)
    if len(v) != inst.dim_w:
        raise ValueError("vector has wrong length")
    return float(np.dot(inst.costs, v))


@dataclass
class RoutingResult:
    """Unique per-commodity routing on a fixed tree.

    ``flows`` always carries the routed arcs; ``over_limit`` lists the
    commodities whose unique tree path exceeds the hop bound.
    """

    flows: np.ndarray
    over_limit: list

    @property
    def feasible(self):
        return not self.over_limit


def route_on_tree(inst, z):
    """Route every commodity along its unique tree path.

    Raises InvalidTreeError when z is not a spanning tree; a too-long path is
    a result (listed in ``over_limit``), not an error.
    """
    y = np.zeros(inst.dim_u, dtype=np.int8)
    over = []
    for f, c in enumerate(inst.commodities):
        path = tree_path(inst.graph, z, c.origin, c.dest)
        if len(path) > inst.hop_bound:
            over.append(f)
        for (i, j) in path:
            y[inst.flow_index(f, inst.arcs.arc_index(i, j))] = 1
    return RoutingResult(y, over)


def relaxed_set_nonempty(inst):
    """One feasibility solve over the relaxed constraint set."""
    probe = relaxed_qp(inst, 1.0, np.zeros(inst.dim_total))
    return solve_qp(probe, tol=1e-6).status == "solved"


# edge costs of generated instances are uniform on [low, high)
COST_RANGE = (0.1, 1.1)


def random_instance(n, p, seed, n_commodities=None, hop_slack=2):
    """Seed-deterministic random instance.

    Connected G(n, p) topology, uniform costs on ``COST_RANGE``,
    floor(n/5) commodities by default (at least one) with endpoints drawn
    without replacement, and hop bound max shortest-path hops + slack, capped
    at n-1 and verified nonempty by one feasibility solve (incrementing the
    bound on failure).
    """
    graph = generate_erdos_renyi(n, p, seed)
    rng = np.random.default_rng([seed, 0x7EE5])
    costs = rng.uniform(*COST_RANGE, graph.m)
    count = max(1, n // 5) if n_commodities is None else int(n_commodities)
    if count < 1:
        raise ValueError("need at least one commodity")
    commodities = []
    for _ in range(count):
        o, d = rng.choice(n, size=2, replace=False)
        commodities.append(Commodity(int(o), int(d)))
    longest = max(graph.shortest_path_hops(c.origin, c.dest) for c in commodities)
    hop = min(max(1, longest + hop_slack), n - 1)
    while True:
        inst = Instance(graph, costs, commodities, hop)
        if relaxed_set_nonempty(inst):
            return inst
        if hop >= n - 1:
            raise ValueError(
                f"relaxed set empty even at hop bound {hop} (n={n}, seed={seed})"
            )
        hop += 1


# -- plain-text instance format ---------------------------------------------


def format_instance(inst):
    lines = [f"nodes {inst.n}"]
    for (u, v), c in zip(inst.graph.edges, inst.costs):
        lines.append(f"edge {u} {v} {float(c)!r}")
    for c in inst.commodities:
        lines.append(f"commodity {c.origin} {c.dest}")
    lines.append(f"hopbound {inst.hop_bound}")
    return "\n".join(lines) + "\n"


_RECORD_FIELDS = {"nodes": 1, "edge": 3, "commodity": 2, "hopbound": 1}


def parse_instance(text):
    """Instance from :func:`format_instance` text; malformed input raises
    ValueError naming its line."""
    n = None
    edges, costs, commodities, hop = [], [], [], None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "tree":
            continue  # blank, or the solution stanza the oracle writer appends
        kind, fields = parts[0], parts[1:]
        if kind not in _RECORD_FIELDS:
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
        if len(fields) != _RECORD_FIELDS[kind]:
            raise ValueError(f"line {lineno}: {kind} record needs "
                             f"{_RECORD_FIELDS[kind]} fields, got {len(fields)}")
        if (kind == "nodes" and n is not None) or \
                (kind == "hopbound" and hop is not None):
            raise ValueError(f"line {lineno}: repeated {kind} record")
        try:
            if kind == "nodes":
                n = int(fields[0])
            elif kind == "edge":
                edges.append((int(fields[0]), int(fields[1])))
                costs.append(float(fields[2]))
            elif kind == "commodity":
                commodities.append(Commodity(int(fields[0]), int(fields[1])))
            else:
                hop = int(fields[0])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if n is None or hop is None:
        raise ValueError("instance text is missing nodes or hopbound")
    graph = UndirectedGraph(n, edges)
    ordered = [0.0] * graph.m
    for (u, v), c in zip(edges, costs):
        ordered[graph.edge_index(u, v)] = c
    return Instance(graph, ordered, commodities, hop)


def read_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def write_instance(inst, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst))


def write_solution(inst, tree, path):
    """Instance text plus a ``tree`` stanza listing the selected edge indices."""
    vec = indicator_vector(tree, inst.m)
    stanza = "tree " + " ".join(str(int(e)) for e in np.flatnonzero(vec))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(inst))
        fh.write(stanza + "\n")
