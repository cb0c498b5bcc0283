"""Exact combinatorial projections onto the tree set.

Minimum spanning tree (Kruskal) for undirected graphs, minimum-weight rooted
arborescence (Chu-Liu/Edmonds with cycle contraction) for directed graphs,
and the component-wise binary projection. All handle arbitrary signed
weights; ties are broken by ascending edge/arc index so every projection is
deterministic. All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

from .graphs import DirectedArcSet, TreeIndicator, UndirectedGraph, UnionFind

__all__ = [
    "DisconnectedGraphError",
    "NoArborescenceError",
    "mst_kruskal",
    "mwra_edmonds",
    "projection_weights",
    "project_tree",
    "project_binary",
]


class DisconnectedGraphError(ValueError):
    """No spanning tree exists."""


class NoArborescenceError(ValueError):
    """No spanning arborescence rooted at the requested node exists."""


def mst_kruskal(g, h):
    """Minimum-total-weight spanning tree under signed weights h.

    Sort-based Kruskal; equal weights are resolved by ascending edge index,
    so the output is deterministic.
    """
    h = np.asarray(h, dtype=float)
    if len(h) != g.m:
        raise ValueError(f"weights have length {len(h)}, expected m={g.m}")
    if not np.isfinite(h).all():
        raise ValueError("weights must be finite")
    order = np.lexsort((np.arange(g.m), h))  # primary key h, ties by index
    uf = UnionFind(g.n)
    chosen = []
    for k in order:
        u, v = g.edges[k]
        if uf.union(u, v):
            chosen.append(int(k))
            if len(chosen) == g.n - 1:
                break
    if len(chosen) < g.n - 1:
        raise DisconnectedGraphError("no spanning tree exists")
    return TreeIndicator.from_indices(g.m, chosen)


class _Arc:
    """Arc record threaded through contraction levels."""

    __slots__ = ("tail", "head", "weight", "index", "parent")

    def __init__(self, tail, head, weight, index, parent):
        self.tail = tail
        self.head = head
        self.weight = weight
        self.index = index
        self.parent = parent


def _find_cycle(best, root):
    """A cycle among the parent pointers v -> best[v].tail, or None."""
    state = {}  # 0 in progress, 1 done
    for start in best:
        if start in state:
            continue
        path = []
        node = start
        while node != root and node not in state:
            state[node] = 0
            path.append(node)
            node = best[node].tail
        if node != root and state.get(node) == 0:
            return path[path.index(node):]
        for v in path:
            state[v] = 1
    return None


def _min_arborescence(nodes, arcs, root):
    best = {}
    for a in arcs:
        if a.head == root:
            continue
        b = best.get(a.head)
        if b is None or (a.weight, a.index) < (b.weight, b.index):
            best[a.head] = a
    for v in nodes:
        if v != root and v not in best:
            raise NoArborescenceError("no arborescence exists")
    cycle = _find_cycle(best, root)
    if cycle is None:
        return list(best.values())
    cyc = set(cycle)
    super_id = max(nodes) + 1
    new_nodes = [v for v in nodes if v not in cyc] + [super_id]
    new_arcs = []
    for a in arcs:
        tin = a.tail in cyc
        hin = a.head in cyc
        if tin and hin:
            continue
        weight = a.weight - best[a.head].weight if hin else a.weight
        new_arcs.append(
            _Arc(super_id if tin else a.tail, super_id if hin else a.head,
                 weight, a.index, a)
        )
    chosen = _min_arborescence(new_nodes, new_arcs, root)
    result = []
    entering = None
    for a in chosen:
        result.append(a.parent)
        if a.head == super_id:
            entering = a.parent
    # exactly one arc enters the contracted node; its original head keeps its
    # new parent, every other cycle node keeps its cycle arc
    for v in cycle:
        if v != entering.head:
            result.append(best[v])
    return result


def mwra_edmonds(arcs, root, h):
    """Minimum-weight spanning arborescence rooted at ``root``.

    Chu-Liu/Edmonds with explicit cycle contraction and expansion; recursion
    depth is bounded by the node count. Arbitrary signed weights; ties prefer
    the lowest original arc index at each selection.
    """
    h = np.asarray(h, dtype=float)
    if len(h) != len(arcs):
        raise ValueError(f"weights have length {len(h)}, expected {len(arcs)}")
    if not np.isfinite(h).all():
        raise ValueError("weights must be finite")
    if not (0 <= root < arcs.n):
        raise ValueError(f"root {root} out of range")
    records = [
        _Arc(tail, head, float(h[k]), k, None)
        for k, (tail, head) in enumerate(arcs.arcs)
    ]
    chosen = _min_arborescence(list(range(arcs.n)), records, root)
    assert len(chosen) == arcs.n - 1
    return TreeIndicator.from_indices(len(arcs), [a.index for a in chosen])


def projection_weights(w_next, mu):
    """Linear weights reducing the nearest-tree problem to MST/MWRA.
    ``w_next`` and ``mu`` must have one length; neither is broadcast."""
    w_next = np.asarray(w_next, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if w_next.shape != mu.shape:
        raise ValueError(f"w_next has length {w_next.size} but mu has "
                         f"length {mu.size}")
    return mu - w_next


def project_tree(w_next, mu, topology):
    """Exact minimizer of ||z - w_next + mu||^2 over the tree set.

    ``topology`` is an UndirectedGraph (spanning trees) or a pair
    (DirectedArcSet, root) (rooted arborescences). The squared distance is
    minimized exactly, up to ties resolved by index.
    """
    h = projection_weights(w_next, mu)
    if isinstance(topology, UndirectedGraph):
        return mst_kruskal(topology, h)
    if isinstance(topology, tuple) and len(topology) == 2 \
            and isinstance(topology[0], DirectedArcSet):
        arcs, root = topology
        return mwra_edmonds(arcs, root, h)
    raise TypeError("topology must be an UndirectedGraph or (DirectedArcSet, root)")


def project_binary(v):
    """Component-wise nearest point of {0, 1}; an exact tie at 0.5 rounds to 1."""
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("entries must be finite")
    return (v >= 0.5).astype(np.int8)
