"""Hop-constrained multicommodity-flow spanning-tree design.

The model only: instance data, constraint assembly for the relaxed
continuous set (flow conservation, edge-activation coupling, hop budget, box
bounds -- the tree-counting rows are deliberately excluded: the projection
step guarantees a tree at every iteration), the relaxed QP over that set,
whose linear cost each driver builds, feasibility checking, routing on a
fixed tree, the objective and the plain-text instance format.

Flow variables are stacked commodity-major after the edge block: a full
vector is [w (m entries) | u^0 (2m) | u^1 (2m) | ...]. Conservation rows
use the origin-to-destination orientation: net inflow is -1 at the origin
and +1 at the destination.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import (
    UndirectedGraph,
    bidirect,
    generate_erdos_renyi,
    indicator_vector,
    is_spanning_tree,
    tree_path,
)
from .qp import QuadraticProgram, WarmStart, solve_qp

logger = logging.getLogger(__name__)

__all__ = [
    "Commodity",
    "Instance",
    "FeasibilityReport",
    "RoutingResult",
    "relaxed_qp",
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

    def split(self, v):
        """Split a stacked vector into (w over edges, u over commodities*arcs)."""
        v = np.asarray(v)
        if len(v) != self.dim_total:
            raise ValueError("stacked vector has wrong length")
        return v[: self.dim_w], v[self.dim_w:]

    def __repr__(self):
        return (f"Instance(n={self.n}, m={self.m}, F={self.n_commodities}, "
                f"d={self.hop_bound})")


def constraint_blocks(inst):
    """Shared sparse constraint blocks (a_eq, b_eq, a_in, b_in).

    Equalities: flow conservation for every (commodity, node).
    Inequalities: coupling u_f(i,j) + u_f(j,i) <= w_e for every (commodity,
    edge), then one hop row per commodity. Cached on the instance.
    """
    if inst._blocks is not None:
        return inst._blocks
    n, m, nf = inst.n, inst.m, inst.n_commodities
    n_arcs, total = inst.n_arcs, inst.dim_total
    commodity = np.arange(nf)[:, None]
    # u[f, a]: the column of commodity f's flow on arc a
    u = inst.u_index(commodity, np.arange(n_arcs))
    tail, head = np.array(inst.arcs.arcs).T
    # both blocks are written in canonical CSR form: each row's columns
    # ascend, and no (row, column) pair repeats

    # conservation row f n + i: +1 on the arcs entering node i, -1 on those
    # leaving it. An arc enters one node and leaves another, so each row
    # lists distinct arcs; sorting one commodity's entries by (node, arc)
    # orders every commodity's rows, whose columns are u[f, arc]
    node = np.concatenate([head, tail])
    arc = np.tile(np.arange(n_arcs), 2)
    by_row = np.lexsort((arc, node))
    sign = np.where(by_row < n_arcs, 1.0, -1.0)
    a_eq = sp.csr_matrix(
        (np.tile(sign, nf), u[:, arc[by_row]].ravel(),
         np.concatenate([[0], np.cumsum(np.tile(np.bincount(node, minlength=n), nf))])),
        shape=(n * nf, total))
    b_eq = np.zeros(n * nf)
    b_eq[n * commodity.ravel() + [c.origin for c in inst.commodities]] = -1.0
    b_eq[n * commodity.ravel() + [c.dest for c in inst.commodities]] = 1.0

    # coupling row f m + e: -w_e, then u_f on both arcs of edge e (e and
    # e + m); then hop row m nf + f: u_f on every arc. The w columns come
    # before every u column
    n_coupling = m * nf
    coupling = np.empty((nf, m, 3), dtype=u.dtype)
    coupling[:, :, 0] = np.arange(m)
    coupling[:, :, 1], coupling[:, :, 2] = u[:, :m], u[:, m:]
    vals = np.ones(3 * n_coupling + nf * n_arcs)
    vals[:3 * n_coupling:3] = -1.0
    a_in = sp.csr_matrix(
        (vals, np.concatenate([coupling.ravel(), u.ravel()]),
         np.concatenate([[0], np.cumsum(np.repeat([3, n_arcs], [n_coupling, nf]))])),
        shape=(n_coupling + nf, total))
    b_in = np.zeros(n_coupling + nf)
    b_in[n_coupling:] = float(inst.hop_bound)

    inst._blocks = (a_eq, b_eq, a_in, b_in)
    logger.debug(
        "constraint blocks: %d vars, %d conservation rows, %d coupling rows, "
        "%d hop rows", total, n * nf, n_coupling, nf,
    )
    return inst._blocks


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


@dataclass
class FeasibilityReport:
    feasible: bool
    violations: list


def check_feasible(inst, z, y):
    """Verify a binary (tree, flows) pair against the full model: a spanning
    tree whose flows meet the relaxed rows (:func:`check_flows`).

    Violations are returned as data, one string per failed constraint:
    spanning tree, then the flow checks of :func:`check_flows`.
    """
    violations = check_flows(inst, z, y).violations
    if not is_spanning_tree(inst.graph, indicator_vector(z, inst.dim_w)):
        violations = ["selected edges do not form a spanning tree"] + violations
    return FeasibilityReport(not violations, violations)


def check_flows(inst, z, y):
    """Verify binary flows ``y`` against the 0/1 edge selection ``z``,
    without checking that ``z`` is a spanning tree.

    Evaluates the rows of :func:`constraint_blocks` at v = [z; y]. Every
    entry is +-1 and every value a small integer, so the row sums are exact.
    Violations come as in :func:`check_feasible`: binariness, then per
    commodity conservation (by node), coupling (by edge) and hop budget.
    """
    zv = indicator_vector(z, inst.dim_w)
    yv = np.asarray(y)
    if len(yv) != inst.dim_u:
        raise ValueError("flow vector has wrong length")
    violations = [] if ((yv == 0) | (yv == 1)).all() else ["flows are not binary"]
    a_eq, b_eq, a_in, _ = constraint_blocks(inst)
    v = np.concatenate([zv, yv.astype(np.int64)]).astype(float)
    nf = inst.n_commodities
    # conservation row f n + i is node i's net inflow, coupling row f m + e
    # is u_f on edge e minus z_e, and hop row m nf + f the arcs u_f uses
    net, expected = (a_eq @ v).reshape(nf, inst.n), b_eq.reshape(nf, inst.n)
    rows = a_in @ v
    excess, used = rows[:inst.m * nf].reshape(nf, inst.m), rows[inst.m * nf:]
    for f in range(nf):
        for i in np.flatnonzero(net[f] != expected[f]):
            violations.append(
                f"conservation violated for commodity {f} at node {i}: "
                f"net {int(net[f, i])} != {int(expected[f, i])}"
            )
        for e in np.flatnonzero(excess[f] > 0):
            violations.append(f"coupling violated for commodity {f} on edge {e}")
        if used[f] > inst.hop_bound:
            violations.append(f"hop bound violated for commodity {f}: "
                              f"{int(used[f])} > {inst.hop_bound}")
    return FeasibilityReport(not violations, violations)


def objective(inst, z_or_w):
    """Total edge cost of a binary tree vector or a fractional w."""
    v = np.asarray(indicator_vector(z_or_w, inst.dim_w), dtype=float)
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


def shortest_path_point(inst):
    """A point of the relaxed set whenever one exists: w = 1 on every edge
    and each commodity's unit flow on a fewest-hop path.

    Every coupling row holds (a simple path uses at most one arc of an
    edge, and w_e = 1), and so does every hop row when the bound is at
    least the longest of those paths; no unit flow uses fewer arcs, so
    otherwise the relaxed set is empty.
    """
    v = np.zeros(inst.dim_total)
    v[:inst.dim_w] = 1.0
    for f, c in enumerate(inst.commodities):
        path = inst.graph.shortest_path(c.origin, c.dest)
        for i, j in zip(path, path[1:]):
            v[inst.u_index(f, inst.arcs.arc_index(i, j))] = 1.0
    return v


def relaxed_set_nonempty(inst):
    """One feasibility solve of one iteration over the relaxed constraint
    set: "solved", i.e. residuals at or below 1e-6 on the original data,
    means nonempty.

    The QP has no objective (zero diagonal and cost), so every feasible
    point is optimal with zero multipliers, and it starts at
    :func:`shortest_path_point`, which is feasible exactly when the relaxed
    set is nonempty. A feasible start is a KKT point, a fixed point of the
    iteration, so the check after its one step certifies it; a start that
    breaks a hop row is not certified.
    """
    probe = relaxed_qp(inst, 0.0, np.zeros(inst.dim_total))
    start = WarmStart(shortest_path_point(inst))
    return solve_qp(probe, tol=1e-6, max_iters=1, warm=start).status == "solved"


# edge costs of generated instances are uniform on [low, high)
COST_RANGE = (0.1, 1.1)


def random_instance(n, p, seed, n_commodities=None, hop_slack=2):
    """Seed-deterministic random instance.

    Connected G(n, p) topology, uniform costs on ``COST_RANGE``,
    floor(n/5) commodities by default (at least one) with endpoints drawn
    without replacement, and hop bound max shortest-path hops plus
    max(slack, 0), capped at n-1. The relaxed set is nonempty exactly when
    the bound is at least the longest shortest path (see
    :func:`shortest_path_point`), so the bound needs no search; the
    one-step :func:`relaxed_set_nonempty` solve, started at that point,
    certifies it and raises ValueError if it does not.
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
    hop = min(longest + max(hop_slack, 0), n - 1)
    inst = Instance(graph, costs, commodities, hop)
    if not relaxed_set_nonempty(inst):
        raise ValueError(
            f"relaxed set empty at hop bound {hop} (n={n}, seed={seed})")
    return inst


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
    edge_line, costs, commodities, hop = {}, [], [], None
    node_ids = []  # (line, ids), checked once the node count is known
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
                if n < 2:
                    raise ValueError("graph needs at least 2 nodes")
            elif kind == "edge":
                u, v, cost = int(fields[0]), int(fields[1]), float(fields[2])
                if u == v:
                    raise ValueError(f"self-loop at node {u}")
                if not 0.0 <= cost < np.inf:
                    raise ValueError(f"edge cost {cost!r} is not finite "
                                     "and nonnegative")
                key = (min(u, v), max(u, v))
                if key in edge_line:
                    raise ValueError(f"duplicate edge {key}, first on line "
                                     f"{edge_line[key]}")
                edge_line[key] = lineno
                costs.append(cost)
                node_ids.append((lineno, key))
            elif kind == "commodity":
                commodities.append(Commodity(int(fields[0]), int(fields[1])))
                node_ids.append((lineno, (int(fields[0]), int(fields[1]))))
            else:
                hop = int(fields[0])
                if hop < 1:
                    raise ValueError("hop bound must be at least 1")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if n is None or hop is None:
        raise ValueError("instance text is missing nodes or hopbound")
    for lineno, ids in node_ids:
        for i in ids:
            if not 0 <= i < n:
                raise ValueError(f"line {lineno}: node {i} out of range for n={n}")
    graph = UndirectedGraph(n, list(edge_line))
    ordered = [0.0] * graph.m
    for (u, v), c in zip(edge_line, costs):
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
