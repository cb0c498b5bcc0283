"""Graph containers, random graph generation, tree predicates, and path queries.

All containers are immutable after construction and safe to share across
concurrent computations. Edge indices are dense and ordered lexicographically
by (min endpoint, max endpoint), which fixes tie-breaking everywhere
downstream. A path query raises ValueError for a node outside the graph.
"""

from __future__ import annotations

import logging
from collections import deque

import numpy as np

logger = logging.getLogger(__name__)


class GraphGenerationError(RuntimeError):
    """The random-graph generator exhausted its resample budget."""


class InvalidTreeError(ValueError):
    """An operation required a valid spanning tree and did not get one."""


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    __slots__ = ("parent", "size", "components")

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, u):
        parent = self.parent
        root = u
        while parent[root] != root:
            root = parent[root]
        while parent[u] != root:
            parent[u], u = root, parent[u]
        return root

    def union(self, u, v):
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        if self.size[ru] < self.size[rv]:
            ru, rv = rv, ru
        self.parent[rv] = ru
        self.size[ru] += self.size[rv]
        self.components -= 1
        return True


class TreeIndicator:
    """0/1 selection vector over edge (or arc) indices."""

    __slots__ = ("vector",)

    def __init__(self, vector):
        vec = np.asarray(vector)
        if vec.ndim != 1:
            raise ValueError("indicator must be a flat vector")
        if not np.isin(vec, (0, 1)).all():
            raise ValueError("indicator entries must be 0 or 1")
        self.vector = vec.astype(np.int8)

    @classmethod
    def from_indices(cls, length, indices):
        """The indicator selecting ``indices``; built 0/1, so not re-checked."""
        tree = cls.__new__(cls)
        tree.vector = np.zeros(length, dtype=np.int8)
        tree.vector[list(indices)] = 1
        return tree

    @property
    def selected(self):
        """Indices of the selected edges/arcs, ascending."""
        return tuple(int(i) for i in np.flatnonzero(self.vector))

    def __len__(self):
        return len(self.vector)

    def __eq__(self, other):
        if not isinstance(other, TreeIndicator):
            return NotImplemented
        return np.array_equal(self.vector, other.vector)

    def __repr__(self):
        return f"TreeIndicator({self.selected})"


def indicator_vector(z, length):
    """Coerce a TreeIndicator or array-like to a 0/1 vector of given length."""
    vec = z.vector if isinstance(z, TreeIndicator) else np.asarray(z)
    if len(vec) != length:
        raise ValueError(f"indicator has length {len(vec)}, expected {length}")
    return vec


class UndirectedGraph:
    """Simple undirected graph with stable lexicographic edge indices.

    Self-loops and parallel edges are rejected; edges are re-sorted to the
    canonical (min, max) lexicographic order at construction.
    """

    def __init__(self, n, edges):
        if n < 2:
            raise ValueError("graph needs at least 2 nodes")
        canon = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.append((min(u, v), max(u, v)))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        self.n = n
        self.edges = tuple(canon)
        self.m = len(canon)
        self._edge_index = {e: k for k, e in enumerate(canon)}
        incident = [[] for _ in range(n)]
        for k, (u, v) in enumerate(canon):
            incident[u].append((k, v))
            incident[v].append((k, u))
        self._incident = tuple(tuple(lst) for lst in incident)

    def incident(self, i):
        """Pairs (edge index, other endpoint) for edges touching node i."""
        return self._incident[i]

    def edge_index(self, u, v):
        return self._edge_index[(min(u, v), max(u, v))]

    def is_connected(self):
        uf = UnionFind(self.n)
        for u, v in self.edges:
            uf.union(u, v)
        return uf.components == 1

    def shortest_path(self, s, t):
        """Nodes of a fewest-edge path from s to t, s first (BFS, which
        reaches each node first from the earliest-listed neighbor).

        Raises ValueError when s or t is not a node of the graph.
        """
        for node in (s, t):
            if not 0 <= node < self.n:
                raise ValueError(f"node {node} is not in the graph (n={self.n})")
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            i = queue.popleft()
            for _, j in self._incident[i]:
                if j not in parent:
                    parent[j] = i
                    queue.append(j)
        if t not in parent:
            raise ValueError(f"no path from {s} to {t}")
        path = [t]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]

    def shortest_path_hops(self, s, t):
        """Minimum number of edges between s and t."""
        return len(self.shortest_path(s, t)) - 1

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


class DirectedArcSet:
    """Ordered arc list with in/out-arc lookups."""

    def __init__(self, n, arcs):
        if n < 1:
            raise ValueError("arc set needs at least 1 node")
        seen = set()
        canon = []
        for i, j in arcs:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self-loop arc at node {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"arc ({i},{j}) out of range for n={n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate arc ({i},{j})")
            seen.add((i, j))
            canon.append((i, j))
        self.n = n
        self.arcs = tuple(canon)
        outs = [[] for _ in range(n)]
        ins = [[] for _ in range(n)]
        for a, (i, j) in enumerate(canon):
            outs[i].append((a, j))
            ins[j].append((a, i))
        self._out = tuple(tuple(lst) for lst in outs)
        self._in = tuple(tuple(lst) for lst in ins)
        self._arc_index = {arc: a for a, arc in enumerate(canon)}

    def __len__(self):
        return len(self.arcs)

    def out_arcs(self, i):
        """Pairs (arc index, head) for arcs leaving node i."""
        return self._out[i]

    def in_arcs(self, i):
        """Pairs (arc index, tail) for arcs entering node i."""
        return self._in[i]

    def arc_index(self, i, j):
        return self._arc_index[(i, j)]

    def __repr__(self):
        return f"DirectedArcSet(n={self.n}, arcs={len(self.arcs)})"


# disconnected draws generate_erdos_renyi resamples before it gives up
MAX_ATTEMPTS = 1000


def generate_erdos_renyi(n, p, seed):
    """Sample a connected G(n, p) graph with a seeded generator.

    Each unordered pair is included independently with probability p.
    Disconnected draws are resampled (attempt count logged); after
    ``MAX_ATTEMPTS`` failures a GraphGenerationError is raised.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0.0 < p <= 1.0):
        raise ValueError("p must be in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for attempt in range(1, MAX_ATTEMPTS + 1):
        draws = rng.random(len(pairs))
        edges = [pair for pair, x in zip(pairs, draws) if x < p]
        g = UndirectedGraph(n, edges)
        if g.is_connected():
            if attempt > 1:
                logger.info(
                    "connected graph for (n=%d, p=%g, seed=%s) after %d attempts",
                    n, p, seed, attempt,
                )
            return g
    raise GraphGenerationError(
        f"could not generate connected graph for (n={n}, p={p}, seed={seed}) "
        f"within {MAX_ATTEMPTS} attempts"
    )


def bidirect(g):
    """Both orientations of every edge: forward arcs 0..m-1 mirror the edge
    indices, reverse arcs m..2m-1."""
    arcs = list(g.edges) + [(v, u) for u, v in g.edges]
    return DirectedArcSet(g.n, arcs)


def is_spanning_tree(g, z):
    """True iff the selected edges form a spanning tree of g.

    Checks exactly n-1 selected edges plus connectivity over all n nodes
    (which together imply acyclicity).
    """
    vec = indicator_vector(z, g.m)
    chosen = np.flatnonzero(vec)
    if len(chosen) != g.n - 1:
        return False
    adj = [[] for _ in range(g.n)]
    for k in chosen:
        u, v = g.edges[k]
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        i = queue.popleft()
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                count += 1
                queue.append(j)
    return count == g.n


def tree_path(g, z, s, t):
    """The unique s-to-t path in a spanning tree, as directed (u, v) arcs.

    Raises InvalidTreeError when z is not a spanning tree of g, and
    ValueError when s or t is not a node of g.
    """
    vec = indicator_vector(z, g.m)
    if not is_spanning_tree(g, vec):
        raise InvalidTreeError("indicator is not a spanning tree")
    tree = UndirectedGraph(g.n, [g.edges[k] for k in np.flatnonzero(vec)])
    nodes = tree.shortest_path(s, t)
    return list(zip(nodes, nodes[1:]))
