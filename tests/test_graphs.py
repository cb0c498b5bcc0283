import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from treedesign.graphs import (
    DirectedArcSet,
    GraphGenerationError,
    InvalidTreeError,
    TreeIndicator,
    UndirectedGraph,
    UnionFind,
    bidirect,
    generate_erdos_renyi,
    is_spanning_tree,
    tree_path,
)

from helpers import k3


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        UndirectedGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        UndirectedGraph(1, [])


def test_edge_order_is_lexicographic():
    g = UndirectedGraph(4, [(3, 2), (1, 0), (2, 0)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert g.edge_index(3, 2) == 2


def test_generate_trivial_cases():
    g = generate_erdos_renyi(2, 1.0, seed=7)
    assert g.edges == ((0, 1),)
    g = generate_erdos_renyi(4, 1.0, seed=0)
    assert g.m == 6  # complete graph


def test_generate_deterministic():
    a = generate_erdos_renyi(10, 0.5, seed=123)
    b = generate_erdos_renyi(10, 0.5, seed=123)
    assert a.edges == b.edges
    c = generate_erdos_renyi(10, 0.5, seed=124)
    assert c.edges != a.edges  # overwhelmingly likely for distinct seeds


def test_generate_always_connected():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = generate_erdos_renyi(int(rng.integers(2, 12)), 0.4,
                                 int(rng.integers(10**6)))
        assert g.is_connected()


def test_generate_resample_cap():
    # p tiny on a larger graph: every draw is disconnected
    with pytest.raises(GraphGenerationError, match="could not generate"):
        generate_erdos_renyi(20, 0.01, seed=0)


def test_bidirect_counts_and_parents():
    g = k3()
    arcs = bidirect(g)
    assert len(arcs) == 6
    assert arcs.arcs[:3] == g.edges
    assert arcs.arcs[3:] == tuple((v, u) for u, v in g.edges)
    # every edge e is exactly arcs e (forward) and e + m (reverse)
    for e, (u, v) in enumerate(g.edges):
        assert arcs.arc_index(u, v) == e
        assert arcs.arc_index(v, u) == e + g.m


def test_bidirect_complete_graph_degrees():
    g = generate_erdos_renyi(4, 1.0, seed=0)
    arcs = bidirect(g)
    assert len(arcs) == 12
    for i in range(4):
        assert len(arcs.out_arcs(i)) == 3
        assert len(arcs.in_arcs(i)) == 3


def test_single_edge_bidirect():
    arcs = bidirect(UndirectedGraph(2, [(0, 1)]))
    assert arcs.arcs == ((0, 1), (1, 0))


def test_tree_indicator_validation():
    # outside input is checked; from_indices builds its own 0/1 vector
    for bad in ([0, 2], [0, 2, 1], [[0, 1]]):
        with pytest.raises(ValueError):
            TreeIndicator(bad)
    t = TreeIndicator.from_indices(4, [1, 3])
    assert t.selected == (1, 3)
    assert len(t) == 4
    assert t.vector.dtype == np.int8
    assert t == TreeIndicator([0, 1, 0, 1])


def test_is_spanning_tree_k3():
    g = k3()
    # edges in lexicographic order: (0,1), (0,2), (1,2)
    path_tree = np.zeros(3, dtype=int)
    path_tree[g.edge_index(0, 1)] = 1
    path_tree[g.edge_index(1, 2)] = 1
    assert is_spanning_tree(g, path_tree)
    assert not is_spanning_tree(g, np.ones(3, dtype=int))  # cycle
    lonely = np.zeros(3, dtype=int)
    lonely[g.edge_index(0, 1)] = 1
    assert not is_spanning_tree(g, lonely)  # node 2 disconnected
    with pytest.raises(ValueError):
        is_spanning_tree(g, np.zeros(5, dtype=int))


def test_is_spanning_tree_matches_union_find_check():
    # independent route: popcount == n-1 and one disjoint-set component
    rng = np.random.default_rng(11)
    g = generate_erdos_renyi(7, 0.6, seed=2)
    for _ in range(1000):
        z = (rng.random(g.m) < 0.35).astype(int)
        uf = UnionFind(g.n)
        for k in np.flatnonzero(z):
            uf.union(*g.edges[k])
        expected = z.sum() == g.n - 1 and uf.components == 1
        assert is_spanning_tree(g, z) == expected


def test_tree_path_k3():
    g = k3()
    z = np.zeros(3, dtype=int)
    z[g.edge_index(0, 1)] = 1
    z[g.edge_index(1, 2)] = 1
    assert tree_path(g, z, 0, 2) == [(0, 1), (1, 2)]
    assert tree_path(g, z, 0, 0) == []
    assert tree_path(g, z, 2, 0) == [(2, 1), (1, 0)]


def test_tree_path_requires_tree():
    g = k3()
    with pytest.raises(InvalidTreeError):
        tree_path(g, np.ones(3, dtype=int), 0, 2)


def test_tree_path_reversal_and_length():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = generate_erdos_renyi(int(rng.integers(3, 9)), 0.5,
                                 int(rng.integers(10**6)))
        # random spanning tree via random-weight projection
        from treedesign.projection import mst_kruskal
        z = mst_kruskal(g, rng.normal(size=g.m))
        for _ in range(5):
            s, t = rng.integers(g.n, size=2)
            fwd = tree_path(g, z, int(s), int(t))
            bwd = tree_path(g, z, int(t), int(s))
            assert len(fwd) <= g.n - 1
            assert bwd == [(b, a) for a, b in reversed(fwd)]


def test_shortest_path_is_a_fewest_edge_path():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = generate_erdos_renyi(int(rng.integers(2, 12)), 0.4,
                                 int(rng.integers(10**6)))
        u, v = np.array(g.edges).T
        hops = shortest_path(sp.csr_matrix((np.ones(g.m), (u, v)), shape=(g.n, g.n)),
                             directed=False, unweighted=True)
        for s in range(g.n):
            for t in range(g.n):
                path = g.shortest_path(s, t)
                assert path[0] == s and path[-1] == t
                assert len(path) - 1 == g.shortest_path_hops(s, t) == hops[s, t]
                for a, b in zip(path, path[1:]):
                    g.edge_index(a, b)  # raises unless a and b are adjacent


def test_shortest_path_needs_a_connection():
    g = UndirectedGraph(4, [(0, 1), (2, 3)])
    assert g.shortest_path(2, 2) == [2]
    with pytest.raises(ValueError, match="no path from 0 to 3"):
        g.shortest_path(0, 3)


PATH_QUERIES = {
    "shortest_path": lambda g, z, s, t: g.shortest_path(s, t),
    "shortest_path_hops": lambda g, z, s, t: g.shortest_path_hops(s, t),
    "tree_path": tree_path,
}


@pytest.mark.parametrize("query", PATH_QUERIES)
@pytest.mark.parametrize("node", [-1, 4])
@pytest.mark.parametrize("end", ["s", "t"])
def test_path_queries_reject_a_node_outside_the_graph(query, node, end):
    # on the path 0-1-2-3, -1 once wrapped to node 3 (shortest_path(-1, 1)
    # gave [-1, 2, 1]), and 4 raised IndexError or KeyError
    g = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    s, t = (node, 1) if end == "s" else (1, node)
    with pytest.raises(ValueError, match=rf"^node {node} is not in the graph"):
        PATH_QUERIES[query](g, np.ones(3, dtype=int), s, t)


def test_directed_arc_set_validation():
    with pytest.raises(ValueError):
        DirectedArcSet(2, [(0, 0)])
    with pytest.raises(ValueError):
        DirectedArcSet(2, [(0, 1), (0, 1)])
    arcs = DirectedArcSet(3, [(0, 1), (1, 2), (2, 0)])
    assert arcs.out_arcs(0) == ((0, 1),)
    assert arcs.in_arcs(0) == ((2, 2),)
    assert arcs.arc_index(1, 2) == 1
