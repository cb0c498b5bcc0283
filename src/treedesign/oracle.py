"""Exhaustive exact solvers at desk scale.

Spanning-tree and arborescence enumeration, the exact hop-constrained
tree-design optimum (brute force over all spanning trees; the routing on a
fixed tree is forced, so enumeration is exact), and the exhaustive projection
reference. Budgets are enforced loudly before enumeration starts -- the
oracle never silently truncates.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .graphs import TreeIndicator

__all__ = [
    "EnumerationBudget",
    "BudgetExceededError",
    "enumerate_spanning_trees",
    "enumerate_arborescences",
    "spanning_tree_count_kirchhoff",
    "exact_solve",
    "exact_project",
    "ExactSolution",
]


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    """Hard caps checked before any enumeration starts."""

    max_edges: int = 24
    max_trees: int = 10_000_000

    def __post_init__(self):
        if self.max_edges <= 0 or self.max_trees <= 0:
            raise ValueError("budget entries must be positive")


DEFAULT_BUDGET = EnumerationBudget()


def _check_tree_budget(g, budget):
    if g.m > budget.max_edges:
        raise BudgetExceededError(
            f"graph has m={g.m} edges, budget allows {budget.max_edges}"
        )
    candidates = math.comb(g.m, g.n - 1)
    if candidates > budget.max_trees:
        raise BudgetExceededError(
            f"{candidates} candidate edge subsets exceed the cap {budget.max_trees}"
        )


def _tree_edge_sets(g):
    """Yield every spanning tree of g as a tuple of edge indices.

    Flat union-find without allocation per candidate; the loop body is the
    hot path of every oracle at desk scale.
    """
    n = g.n
    heads = [u for u, _ in g.edges]
    tails = [v for _, v in g.edges]
    template = list(range(n))
    parent = template.copy()
    for combo in itertools.combinations(range(g.m), n - 1):
        parent[:] = template
        ok = True
        for k in combo:
            ru = heads[k]
            while parent[ru] != ru:
                parent[ru] = parent[parent[ru]]
                ru = parent[ru]
            rv = tails[k]
            while parent[rv] != rv:
                parent[rv] = parent[parent[rv]]
                rv = parent[rv]
            if ru == rv:
                ok = False
                break
            parent[rv] = ru
        if ok:
            yield combo


def enumerate_spanning_trees(g, budget=DEFAULT_BUDGET):
    """Yield every spanning tree of g exactly once.

    Subset enumeration of n-1 edges filtered through a disjoint-set acyclicity
    check; the count matches the Kirchhoff determinant (tested property).
    """
    _check_tree_budget(g, budget)
    for combo in _tree_edge_sets(g):
        yield TreeIndicator.from_indices(g.m, combo)


def spanning_tree_count_kirchhoff(g):
    """Number of spanning trees via the matrix-tree determinant."""
    lap = np.zeros((g.n, g.n))
    for u, v in g.edges:
        lap[u, u] += 1
        lap[v, v] += 1
        lap[u, v] -= 1
        lap[v, u] -= 1
    minor = lap[1:, 1:]
    return int(round(float(np.linalg.det(minor))))


def enumerate_arborescences(arcs, root, budget=DEFAULT_BUDGET):
    """Yield every spanning arborescence rooted at ``root``.

    Enumerates one incoming arc per non-root node (in-degree 1 by
    construction) and keeps the combinations whose parent pointers all reach
    the root, i.e. the cycle-free ones.
    """
    non_root = [v for v in range(arcs.n) if v != root]
    choices = []
    count = 1
    for v in non_root:
        in_list = arcs.in_arcs(v)
        count *= len(in_list)
        choices.append(in_list)
    if count > budget.max_trees:
        raise BudgetExceededError(
            f"{count} incoming-arc combinations exceed the cap {budget.max_trees}"
        )
    if not non_root:
        return
    for combo in itertools.product(*choices):
        parent = {v: tail for v, (_, tail) in zip(non_root, combo)}
        ok = True
        for v in non_root:
            node = v
            hops = 0
            while node != root:
                node = parent[node]
                hops += 1
                if hops > arcs.n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield TreeIndicator.from_indices(len(arcs), [a for a, _ in combo])


@dataclass
class ExactSolution:
    """Optimal tree and objective, or infeasible when tree is None."""

    tree: TreeIndicator | None
    objective: float | None
    trees_enumerated: int

    @property
    def feasible(self):
        return self.tree is not None


def exact_solve(inst, budget=DEFAULT_BUDGET):
    """Global optimum of the hop-constrained tree-design instance.

    Enumerates all spanning trees; a tree is feasible iff every commodity's
    unique tree path uses at most ``hop_bound`` arcs (the routing on a fixed
    tree is forced). Returns the first minimum-cost feasible tree in
    enumeration order. Hop checks run only on cost-improving trees, which
    leaves the optimal value unchanged.
    """
    g = inst.graph
    _check_tree_budget(g, budget)
    costs = inst.costs
    pairs = [(c.origin, c.dest) for c in inst.commodities]
    d = inst.hop_bound
    n = g.n
    edges = g.edges
    best_cost = math.inf
    best_combo = None
    enumerated = 0
    for combo in _tree_edge_sets(g):
        enumerated += 1
        cost = float(costs[list(combo)].sum())
        if cost >= best_cost:
            continue
        adj = [[] for _ in range(n)]
        for k in combo:
            u, v = edges[k]
            adj[u].append(v)
            adj[v].append(u)
        if _all_paths_within(adj, pairs, d, n):
            best_cost = cost
            best_combo = combo
    if best_combo is None:
        return ExactSolution(None, None, enumerated)
    tree = TreeIndicator.from_indices(g.m, best_combo)
    # recompute through the same dot product the solvers report, so equal
    # trees give bit-identical objectives and a gap of exactly zero
    final_cost = float(np.dot(costs, tree.vector.astype(float)))
    return ExactSolution(tree, final_cost, enumerated)


def _all_paths_within(adj, pairs, d, n):
    for s, t in pairs:
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        hops = -1
        while queue:
            i = queue.popleft()
            if i == t:
                hops = dist[i]
                break
            for j in adj[i]:
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        if hops < 0 or hops > d:
            return False
    return True


def exact_project(w, mu, g, budget=DEFAULT_BUDGET):
    """Brute-force minimizer of ||z - w + mu||^2 over all spanning trees.

    Returns (tree, minimum squared distance). The witness is the first
    minimizer in enumeration order; under ties only the value is contractual.
    """
    _check_tree_budget(g, budget)
    v = np.asarray(w, dtype=float) - np.asarray(mu, dtype=float)
    if len(v) != g.m:
        raise ValueError("w and mu must have length m")
    best_val = math.inf
    best_combo = None
    z = np.zeros(g.m)
    for combo in _tree_edge_sets(g):
        z[:] = 0.0
        z[list(combo)] = 1.0
        val = float(np.sum((z - v) ** 2))
        if val < best_val:
            best_val = val
            best_combo = combo
    tree = TreeIndicator.from_indices(g.m, best_combo)
    return tree, best_val
