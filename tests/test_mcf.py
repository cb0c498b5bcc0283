import numpy as np
import pytest

from treedesign.graphs import UndirectedGraph
from treedesign.mcf import (
    Commodity,
    Instance,
    agent_linear_cost,
    build_agent_subproblem,
    build_centralized_subproblem,
    check_feasible,
    constraint_blocks,
    format_instance,
    half_incident_costs,
    objective,
    parse_instance,
    random_instance,
    route_on_tree,
    write_instance,
    read_instance,
)
from treedesign.qp import solve_qp

from helpers import k3_instance


class _Snapshot:
    def __init__(self, inst, w=None, u=None):
        self.w = np.zeros(inst.dim_w) if w is None else np.asarray(w, float)
        self.u = np.zeros(inst.dim_u) if u is None else np.asarray(u, float)
        self.z = np.zeros(inst.dim_w)
        self.y = np.zeros(inst.dim_u)
        self.mu = np.zeros(inst.dim_w)
        self.eta = np.zeros(inst.dim_u)
        self.nu = np.zeros(inst.dim_u)
        self.xi = np.zeros(inst.dim_w)


def test_instance_validation():
    g = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        Instance(g, [1.0, 2.0], [Commodity(0, 2)], 2)
    with pytest.raises(ValueError):
        Instance(g, [1.0, 2.0, -1.0], [Commodity(0, 2)], 2)
    with pytest.raises(ValueError):
        Instance(g, [1.0, 2.0, 3.0], [Commodity(0, 2)], 0)
    with pytest.raises(ValueError):
        Commodity(1, 1)
    disconnected = UndirectedGraph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        Instance(disconnected, [1.0, 1.0], [Commodity(0, 1)], 1)


def test_stacking_round_trip():
    inst = random_instance(7, 0.6, seed=5, n_commodities=3)
    seen = set()
    for f in range(inst.n_commodities):
        for a in range(inst.n_arcs):
            idx = inst.u_index(f, a)
            assert idx not in seen
            seen.add(idx)
            # invert: strip the w offset, then divmod
            flat = idx - inst.dim_w
            assert flat // inst.n_arcs == f
            assert flat % inst.n_arcs == a
    assert seen == set(range(inst.dim_w, inst.dim_total))
    v = np.arange(inst.dim_total, dtype=float)
    w, u = inst.split(v)
    assert np.array_equal(w, v[:inst.m])
    assert np.array_equal(u, v[inst.m:])


def test_centralized_subproblem_counts():
    inst = k3_instance(hop=2)
    qp = build_centralized_subproblem(
        inst,
        z_k=np.zeros(3), y_k=np.zeros(6),
        mu_k=np.zeros(3), eta_k=np.zeros(6), rho=1.0,
    )
    assert qp.n == 9  # 3 edge vars + one flow var per arc (2*3) per commodity
    assert qp.a_eq.shape == (3, 9)   # one conservation row per node
    assert qp.a_in.shape == (4, 9)   # 3 coupling rows + 1 hop row
    assert np.array_equal(qp.lo, np.zeros(9))
    assert np.array_equal(qp.hi, np.ones(9))


def test_rho_doubling_scales_consistently():
    inst = k3_instance(hop=2)
    rng = np.random.default_rng(0)
    z = rng.integers(0, 2, 3).astype(float)
    y = rng.integers(0, 2, 6).astype(float)
    mu = rng.normal(size=3)
    eta = rng.normal(size=6)
    qp1 = build_centralized_subproblem(inst, z, y, mu, eta, rho=1.0)
    qp2 = build_centralized_subproblem(inst, z, y, mu, eta, rho=2.0)
    assert np.allclose(qp2.d, 2.0 * qp1.d)
    # the penalty-driven linear parts double; the cost part does not
    cost_part = np.concatenate([inst.costs, np.zeros(6)])
    assert np.allclose(qp2.q - cost_part, 2.0 * (qp1.q - cost_part))


def test_single_edge_subproblem_forces_routing():
    g = UndirectedGraph(2, [(0, 1)])
    inst = Instance(g, [1.0], [Commodity(0, 1)], 1)
    qp = build_centralized_subproblem(
        inst, z_k=np.zeros(1), y_k=np.zeros(2),
        mu_k=np.zeros(1), eta_k=np.zeros(2), rho=1.0,
    )
    assert qp.n == 3
    sol = solve_qp(qp, tol=1e-8)
    w, u = inst.split(sol.v)
    fwd = inst.arcs.arc_index(0, 1)
    rev = inst.arcs.arc_index(1, 0)
    assert abs(u[fwd] - 1.0) <= 1e-6
    assert abs(u[rev]) <= 1e-6
    assert abs(w[0] - 1.0) <= 1e-6


def test_check_feasible_k3():
    inst = k3_instance(costs=(1.0, 2.0, 3.0), commodity=(0, 2), hop=1)
    g = inst.graph
    direct = np.zeros(3, dtype=int)
    direct[g.edge_index(0, 1)] = 1
    direct[g.edge_index(0, 2)] = 1
    y = np.zeros(inst.dim_u, dtype=int)
    y[inst.flow_index(0, inst.arcs.arc_index(0, 2))] = 1
    assert check_feasible(inst, direct, y).feasible

    path_tree = np.zeros(3, dtype=int)
    path_tree[g.edge_index(0, 1)] = 1
    path_tree[g.edge_index(1, 2)] = 1
    y2 = np.zeros(inst.dim_u, dtype=int)
    y2[inst.flow_index(0, inst.arcs.arc_index(0, 1))] = 1
    y2[inst.flow_index(0, inst.arcs.arc_index(1, 2))] = 1
    report = check_feasible(inst, path_tree, y2)
    assert not report.feasible
    assert any("hop bound" in v for v in report.violations)

    report = check_feasible(inst, np.ones(3, dtype=int), y)
    assert not report.feasible
    assert any("spanning tree" in v for v in report.violations)


def test_objective_values():
    inst = k3_instance(costs=(1.0, 2.0, 3.0))
    g = inst.graph
    z = np.zeros(3)
    z[g.edge_index(0, 1)] = 1
    z[g.edge_index(1, 2)] = 1
    assert objective(inst, z) == 3.0
    assert objective(inst, np.zeros(3)) == 0.0
    assert objective(inst, np.full(3, 0.5)) == 3.0


def test_route_on_tree():
    inst = k3_instance(costs=(1.0, 2.0, 3.0), commodity=(0, 2), hop=1)
    g = inst.graph
    star = np.zeros(3, dtype=int)
    star[g.edge_index(0, 1)] = 1
    star[g.edge_index(0, 2)] = 1
    routing = route_on_tree(inst, star)
    assert routing.feasible
    used = np.flatnonzero(routing.flows)
    assert list(used) == [inst.flow_index(0, inst.arcs.arc_index(0, 2))]

    inst2 = k3_instance(costs=(1.0, 2.0, 3.0), commodity=(1, 2), hop=1)
    routing2 = route_on_tree(inst2, star)
    assert not routing2.feasible
    assert routing2.over_limit == [0]

    from treedesign.graphs import InvalidTreeError
    with pytest.raises(InvalidTreeError):
        route_on_tree(inst, np.ones(3, dtype=int))


def test_routing_passes_check_iff_within_hops():
    rng = np.random.default_rng(14)
    from treedesign.oracle import enumerate_spanning_trees
    for _ in range(8):
        inst = random_instance(6, 0.6, seed=int(rng.integers(10**6)))
        for tree in enumerate_spanning_trees(inst.graph):
            routing = route_on_tree(inst, tree)
            assert check_feasible(inst, tree, routing.flows).feasible \
                == routing.feasible


def test_binary_feasible_point_satisfies_relaxed_rows():
    inst = random_instance(6, 0.6, seed=9)
    from treedesign.oracle import exact_solve
    res = exact_solve(inst)
    assert res.feasible
    routing = route_on_tree(inst, res.tree)
    v = np.concatenate([res.tree.vector.astype(float),
                        routing.flows.astype(float)])
    a_eq, b_eq, a_in, b_in = constraint_blocks(inst)
    assert float(np.max(np.abs(a_eq @ v - b_eq))) == 0.0
    assert float(np.max(a_in @ v - b_in)) <= 0.0


def test_agent_subproblem_shapes_and_isolated_case():
    inst = k3_instance(hop=2)
    local = _Snapshot(inst)
    # no partners: the subproblem is the centralized one with the local
    # half-cost objective
    qp = build_agent_subproblem(inst, 1, local, [], rho=1.0,
                                consensus_coeff=1.0)
    central = build_centralized_subproblem(
        inst, z_k=local.z, y_k=local.y, mu_k=local.mu, eta_k=local.eta,
        rho=1.0,
    )
    assert np.array_equal(qp.d, central.d)
    assert (qp.a_eq != central.a_eq).nnz == 0
    assert (qp.a_in != central.a_in).nnz == 0
    expected_q = central.q.copy()
    expected_q[:inst.dim_w] = half_incident_costs(inst, 1)
    assert np.allclose(qp.q, expected_q)

    # two partners add two consensus blocks to every diagonal entry
    qp2 = build_agent_subproblem(inst, 1, local,
                                 [_Snapshot(inst), _Snapshot(inst)], rho=1.0,
                                 consensus_coeff=1.0)
    assert np.allclose(qp2.d, 1.0 + 2.0 * 1.0 * 2)


def test_agent_consensus_pull_toward_midpoints():
    inst = k3_instance(hop=2)
    rng = np.random.default_rng(1)
    local = _Snapshot(inst, w=rng.uniform(0, 1, inst.dim_w),
                      u=rng.uniform(0, 1, inst.dim_u))
    rho = 0.7
    # identical snapshots: the consensus target is the agent's own iterate,
    # so the linear term matches -2*kappa*own per block
    twin = _Snapshot(inst, w=local.w, u=local.u)
    q = agent_linear_cost(inst, 0, local, [twin, twin], rho, rho)
    base = agent_linear_cost(inst, 0, local, [], rho, rho)
    assert np.allclose(q[:inst.dim_w] - base[:inst.dim_w],
                       -2 * rho * 2 * local.w / 2 * 2)
    # general midpoint algebra
    other = _Snapshot(inst, w=rng.uniform(0, 1, inst.dim_w),
                      u=rng.uniform(0, 1, inst.dim_u))
    q2 = agent_linear_cost(inst, 0, local, [other], rho, rho)
    assert np.allclose(q2[:inst.dim_w] - base[:inst.dim_w],
                       -rho * (local.w + other.w))


def test_half_incident_split_covers_costs():
    inst = random_instance(7, 0.6, seed=4)
    total = sum(half_incident_costs(inst, i) for i in range(inst.n))
    assert np.allclose(total, inst.costs)


def test_instance_text_round_trip(tmp_path):
    inst = random_instance(6, 0.5, seed=11, n_commodities=2)
    path = tmp_path / "inst.txt"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.graph.edges == inst.graph.edges
    assert np.array_equal(back.costs, inst.costs)
    assert back.commodities == inst.commodities
    assert back.hop_bound == inst.hop_bound
    # byte-stable re-emission
    assert format_instance(back) == path.read_text(encoding="utf-8")


def test_parse_rejects_unknown_records():
    with pytest.raises(ValueError, match="unknown record"):
        parse_instance("nodes 2\nedgy 0 1 1.0\nhopbound 1\n")
    with pytest.raises(ValueError, match="missing"):
        parse_instance("nodes 2\nedge 0 1 1.0\n")


def test_parse_rejects_truncated_record_with_line_number():
    with pytest.raises(ValueError, match="^line 2: edge record needs 3 fields"):
        parse_instance("nodes 2\nedge 0\ncommodity 0 1\nhopbound 1\n")


def test_parse_rejects_non_numeric_field_with_line_number():
    with pytest.raises(ValueError, match="^line 3: .*'x'"):
        parse_instance("nodes 3\nedge 0 1 1.0\nedge 0 1 x\n"
                       "commodity 0 1\nhopbound 1\n")


@pytest.mark.parametrize("kind", ["nodes 2", "hopbound 1"])
def test_parse_rejects_repeated_record_with_line_number(kind):
    text = "nodes 2\nedge 0 1 1.0\ncommodity 0 1\nhopbound 1\n"
    with pytest.raises(ValueError, match=f"^line 5: repeated {kind.split()[0]}"):
        parse_instance(text + kind + "\n")


def test_random_instance_deterministic_and_feasible():
    a = random_instance(8, 0.5, seed=3)
    b = random_instance(8, 0.5, seed=3)
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.costs, b.costs)
    assert a.commodities == b.commodities
    assert a.hop_bound == b.hop_bound
    assert len(a.commodities) == max(1, 8 // 5)
    longest = max(a.graph.shortest_path_hops(c.origin, c.dest)
                  for c in a.commodities)
    assert a.hop_bound >= longest
