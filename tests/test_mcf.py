import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treedesign import mcf
from treedesign.central import SolverConfig, build_centralized_subproblem
from treedesign.distributed import (
    agent_diagonal,
    agent_linear_cost,
    build_agent_subproblem,
    half_incident_costs,
    init_world,
)
from treedesign.graphs import UndirectedGraph
from treedesign.mcf import (
    Commodity,
    Instance,
    check_feasible,
    check_flows,
    constraint_blocks,
    format_instance,
    objective,
    parse_instance,
    random_instance,
    relaxed_qp,
    relaxed_set_nonempty,
    route_on_tree,
    shortest_path_point,
    write_instance,
    read_instance,
)
from treedesign.projection import mst_kruskal
from treedesign.qp import QpWorkspace, solve_qp

from helpers import (
    assert_same_csc,
    check_flows_reference,
    constraint_blocks_reference,
    half_incident_costs_reference,
    k3_instance,
    step_operator,
)


def _world(inst, w=None, u=None):
    """A world whose agents all sit at zero, with copies w and u (rows, or
    one vector every agent holds) when given."""
    world = init_world(inst)
    rows = {name: np.zeros_like(getattr(world, name))
            for name in ("u", "w", "y", "mu", "eta")}
    for name, value in (("w", w), ("u", u)):
        if value is not None:
            rows[name] += value
    return dataclasses.replace(world, z=[np.zeros(inst.dim_w)] * inst.n, **rows)


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


def _k3_flows(inst, *paths):
    """Flows on K3 with commodity f on the arcs of ``paths[f]``."""
    y = np.zeros(inst.dim_u, dtype=np.int8)
    for f, path in enumerate(paths):
        for i, j in path:
            y[inst.flow_index(f, inst.arcs.arc_index(i, j))] = 1
    return y


def _k3_tree(inst, *edges):
    z = np.zeros(inst.m, dtype=np.int8)
    z[[inst.graph.edge_index(i, j) for i, j in edges]] = 1
    return z


def test_check_flows_reports_net_and_expected_inflow_per_node():
    inst = k3_instance(commodity=(0, 2), hop=2)
    star = _k3_tree(inst, (0, 1), (0, 2))
    report = check_flows(inst, star, _k3_flows(inst, []))
    assert not report.feasible
    assert report.violations == [
        "conservation violated for commodity 0 at node 0: net 0 != -1",
        "conservation violated for commodity 0 at node 2: net 0 != 1",
    ]
    assert check_flows(inst, star, _k3_flows(inst, [(0, 2)])) == \
        mcf.FeasibilityReport(True, [])


def test_check_flows_reports_flow_on_an_unselected_edge():
    inst = k3_instance(commodity=(0, 2), hop=2)
    path = _k3_tree(inst, (0, 1), (1, 2))
    report = check_flows(inst, path, _k3_flows(inst, [(0, 2)]))
    assert report.violations == [
        f"coupling violated for commodity 0 on edge {inst.graph.edge_index(0, 2)}",
    ]


def test_check_flows_reports_used_arcs_against_the_hop_bound():
    inst = k3_instance(commodity=(0, 2), hop=1)
    path = _k3_tree(inst, (0, 1), (1, 2))
    report = check_flows(inst, path, _k3_flows(inst, [(0, 1), (1, 2)]))
    assert report.violations == ["hop bound violated for commodity 0: 2 > 1"]


def test_check_flows_reports_non_binary_flows():
    inst = k3_instance(commodity=(0, 2), hop=2)
    star = _k3_tree(inst, (0, 1), (0, 2))
    y = _k3_flows(inst, [(0, 2)]).astype(float)
    y[inst.flow_index(0, inst.arcs.arc_index(1, 0))] = 0.5
    report = check_flows(inst, star, y)
    assert report == mcf.FeasibilityReport(False, ["flows are not binary"])


@pytest.mark.parametrize("value", [2, -1, 2.0, -1.0])
def test_check_flows_reports_integer_flows_off_zero_one(value):
    # integers other than 0 and 1 are not binary either, in any dtype; the
    # rows they break come after the binariness message
    inst = k3_instance(commodity=(0, 2), hop=2)
    star = _k3_tree(inst, (0, 1), (0, 2))
    y = _k3_flows(inst, [(0, 2)]).astype(type(value))
    y[inst.flow_index(0, inst.arcs.arc_index(1, 0))] = value
    report = check_flows(inst, star, y)
    assert not report.feasible
    assert report.violations[0] == "flows are not binary"
    assert report.violations.count("flows are not binary") == 1


def test_check_flows_rejects_a_flow_vector_of_the_wrong_length():
    inst = k3_instance()
    with pytest.raises(ValueError, match="flow vector has wrong length"):
        check_flows(inst, np.ones(inst.m), np.zeros(inst.dim_u + 1))


def test_check_flows_orders_messages_by_commodity_then_kind():
    g = k3_instance().graph
    inst = Instance(g, [1.0, 2.0, 3.0], [Commodity(0, 2), Commodity(1, 2)], 1)
    path = _k3_tree(inst, (0, 1), (1, 2))
    # commodity 0 leaves 0 directly for 2 and also leaves 1 for 2; commodity
    # 1 sends nothing
    y = _k3_flows(inst, [(0, 2), (1, 2)], [])
    assert check_flows(inst, path, y).violations == [
        "conservation violated for commodity 0 at node 1: net -1 != 0",
        "conservation violated for commodity 0 at node 2: net 2 != 1",
        f"coupling violated for commodity 0 on edge {g.edge_index(0, 2)}",
        "hop bound violated for commodity 0: 2 > 1",
        "conservation violated for commodity 1 at node 1: net 0 != -1",
        "conservation violated for commodity 1 at node 2: net 0 != 1",
    ]
    assert check_feasible(inst, path, y).violations == \
        check_flows(inst, path, y).violations


@settings(max_examples=100, deadline=None, derandomize=True)
@example(seed=0, n=3, commodities=3, tree_z=True, flows="integer")
@example(seed=0, n=10, commodities=2, tree_z=False, flows="flipped")
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10),
       commodities=st.integers(1, 3), tree_z=st.booleans(),
       flows=st.sampled_from(["routed", "flipped", "binary", "integer"]))
def test_check_flows_equals_the_loop_reference(seed, n, commodities, tree_z,
                                               flows):
    # z is a spanning tree or any 0/1 selection; y is routed on a tree, one
    # bit off that routing, any 0/1 vector, or integers outside {0, 1}
    inst = random_instance(n, 0.5, seed, n_commodities=commodities)
    rng = np.random.default_rng([seed, 1])
    tree = mst_kruskal(inst.graph, rng.random(inst.m))
    z = tree if tree_z else rng.integers(0, 2, inst.m)
    if flows in ("routed", "flipped"):
        y = route_on_tree(inst, tree).flows
        if flows == "flipped":
            y[rng.integers(inst.dim_u)] ^= 1
    elif flows == "binary":
        y = rng.integers(0, 2, inst.dim_u)
    else:
        y = rng.integers(-1, 3, inst.dim_u)
    assert check_flows(inst, z, y) == check_flows_reference(inst, z, y)


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 8),
       hop_slack=st.integers(0, 2),
       flows=st.sampled_from(["routed", "flipped", "binary"]))
def test_feasible_flows_on_a_tree_are_its_routing(seed, n, hop_slack, flows):
    # binary flows that meet conservation and coupling on a spanning tree
    # use each tree edge in one direction at most, so they are the unique
    # tree routing; the drivers extract their answer on this equivalence
    inst = random_instance(n, 0.5, seed, hop_slack=hop_slack)
    rng = np.random.default_rng([seed, 2])
    tree = mst_kruskal(inst.graph, rng.random(inst.m))
    routed = route_on_tree(inst, tree)
    if flows == "binary":
        y = rng.integers(0, 2, inst.dim_u).astype(np.int8)
    else:
        y = routed.flows.copy()
        if flows == "flipped":
            y[rng.integers(inst.dim_u)] ^= 1
    assert check_feasible(inst, tree, y).feasible == \
        (routed.feasible and np.array_equal(routed.flows, y))


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


@settings(max_examples=25, deadline=None, derandomize=True)
@example(seed=0, n=8, commodities=1)
@example(seed=0, n=3, commodities=2)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 10),
       commodities=st.integers(1, 3))
def test_constraint_blocks_equal_the_row_by_row_build(seed, n, commodities):
    inst = random_instance(n, 0.5, seed, n_commodities=commodities)
    got = constraint_blocks(inst)
    ref = constraint_blocks_reference(inst)
    for mat, expected in zip(got[::2], ref[::2]):
        assert_same_csc(mat, expected)
    for rhs, expected in zip(got[1::2], ref[1::2]):
        assert rhs.dtype == expected.dtype and np.array_equal(rhs, expected)


def test_agent_subproblem_shapes_and_isolated_case():
    inst = k3_instance(hop=2)
    world = _world(inst)
    # every copy at zero: the consensus terms vanish, and the subproblem is
    # the centralized one with the local half-cost objective
    qp = build_agent_subproblem(inst, world, 1, rho=1.0)
    central = build_centralized_subproblem(
        inst, z_k=world.z[1], y_k=world.y[1], mu_k=world.mu[1],
        eta_k=world.eta[1], rho=1.0,
    )
    assert agent_diagonal(1.0, 0) == central.d[0]
    assert (qp.a_eq != central.a_eq).nnz == 0
    assert (qp.a_in != central.a_in).nnz == 0
    expected_q = central.q.copy()
    expected_q[:inst.dim_w] = half_incident_costs(inst)[1]
    assert np.allclose(qp.q, expected_q)

    # its two neighbors add 2 rho each to every diagonal entry
    assert np.allclose(qp.d, 1.0 + 2.0 * 1.0 * 2)


def test_agent_consensus_pull_toward_midpoints():
    inst = k3_instance(hop=2)
    rng = np.random.default_rng(1)
    w, u = rng.uniform(0, 1, inst.dim_w), rng.uniform(0, 1, inst.dim_u)
    rho = 0.7
    # identical copies: the consensus target is the agent's own iterate,
    # so the linear term matches -2 rho own per neighbor, against the same
    # world with no neighbor slots
    twins = _world(inst, w=w, u=u)
    q = agent_linear_cost(inst, twins, rho)
    base = agent_linear_cost(inst, dataclasses.replace(twins, slots=()), rho)
    assert np.allclose(q[0, :inst.dim_w] - base[0, :inst.dim_w],
                       2 * (-2 * rho * w))
    # general midpoint algebra: agent 0's neighbors in K3 are agents 1 and 2
    world = _world(inst, w=rng.uniform(0, 1, (inst.n, inst.dim_w)),
                   u=rng.uniform(0, 1, (inst.n, inst.dim_u)))
    q2 = agent_linear_cost(inst, world, rho)
    base = agent_linear_cost(inst, dataclasses.replace(world, slots=()), rho)
    for lo, hi, x in ((0, inst.dim_w, world.w), (inst.dim_w, None, world.u)):
        assert np.allclose(q2[0, lo:hi] - base[0, lo:hi],
                           -rho * (x[0] + x[1]) - rho * (x[0] + x[2]))


def test_half_incident_split_covers_costs():
    inst = random_instance(7, 0.6, seed=4)
    rows = half_incident_costs(inst)
    assert np.allclose(rows.sum(axis=0), inst.costs)
    for i in range(inst.n):
        assert np.array_equal(rows[i], half_incident_costs_reference(inst, i))


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


# edge costs the format must carry bit for bit: any finite nonnegative
# float, plus -0.0, which the instance accepts, and the subnormal and
# extreme values spelled out
_COSTS = st.floats(min_value=0.0, allow_infinity=False) \
    | st.sampled_from([-0.0, 0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308])


@st.composite
def instances(draw):
    """An instance on a connected graph: a random spanning tree on
    relabeled nodes plus any further edges, with drawn costs, commodities
    and hop bound."""
    n = draw(st.integers(2, 8))
    label = draw(st.permutations(range(n)))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    edges |= set(draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=12)))
    graph = UndirectedGraph(n, {tuple(sorted((label[u], label[v]))) for u, v in edges})
    costs = draw(st.lists(_COSTS, min_size=graph.m, max_size=graph.m))
    commodities = []
    for origin, step in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                st.integers(1, n - 1)),
                                      min_size=1, max_size=4)):
        commodities.append(Commodity(origin, (origin + step) % n))
    return Instance(graph, costs, commodities, draw(st.integers(1, 2 * n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(inst=instances())
def test_instance_text_round_trip_property(inst):
    # parsing the text gives the same instance, costs bit for bit, and
    # formatting it again gives the same bytes
    text = format_instance(inst)
    back = parse_instance(text)
    assert back.n == inst.n and back.graph.edges == inst.graph.edges
    assert back.costs.tobytes() == inst.costs.tobytes()
    assert back.commodities == inst.commodities
    assert back.hop_bound == inst.hop_bound
    assert format_instance(back) == text


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


_VALID_LINES = ["nodes 3", "edge 0 1 1.0", "edge 1 2 1.0", "commodity 0 2",
                "hopbound 2"]


@pytest.mark.parametrize("lineno, record, message", [
    (3, "edge 1 7 1.0", "node 7 out of range for n=3"),
    (3, "edge 1 1 1.0", "self-loop at node 1"),
    (3, "edge 1 0 2.0", r"duplicate edge \(0, 1\), first on line 2"),
    (3, "edge 1 2 nan", "edge cost nan is not finite"),
    (3, "edge 1 2 -1.0", "edge cost -1.0 is not finite"),
    (4, "commodity 0 5", "node 5 out of range for n=3"),
    (1, "nodes 1", "graph needs at least 2 nodes"),
    (5, "hopbound 0", "hop bound must be at least 1"),
])
def test_parse_names_the_line_of_an_invalid_record(lineno, record, message):
    lines = list(_VALID_LINES)
    lines[lineno - 1] = record
    with pytest.raises(ValueError, match=f"^line {lineno}: {message}"):
        parse_instance("\n".join(lines) + "\n")
    parse_instance("\n".join(_VALID_LINES) + "\n")


@pytest.mark.parametrize("hop_slack", [-3, -1, 0, 2])
@pytest.mark.parametrize("n, seed", [(6, 0), (6, 5), (8, 3), (8, 11)])
def test_random_instance_hop_bound_is_the_smallest_feasible_one(n, seed,
                                                                 hop_slack):
    inst = random_instance(n, 0.5, seed, hop_slack=hop_slack)
    longest = max(inst.graph.shortest_path_hops(c.origin, c.dest)
                  for c in inst.commodities)
    assert inst.hop_bound == min(longest + max(hop_slack, 0), n - 1)
    assert relaxed_set_nonempty(inst)
    # one hop below the longest shortest path the relaxed set is empty, so a
    # negative slack cannot give a smaller feasible bound
    if longest > 1:
        tighter = Instance(inst.graph, inst.costs, inst.commodities,
                           longest - 1)
        assert not relaxed_set_nonempty(tighter)


@pytest.mark.parametrize("n, commodities, loop",
                         [(8, None, "xspace"), (10, 2, "xspace"), (20, None, "sparse")])
def test_probe_certifies_the_shortest_path_point_at_its_first_check(
        n, commodities, loop, monkeypatch):
    # on each step operator the probe's start is a KKT point that the
    # check after its one step certifies; one hop tighter it breaks a hop
    # row, and that check does not certify it
    probes = []
    solve = QpWorkspace.solve

    def spy(ws, *args, **kwargs):
        sol = solve(ws, *args, **kwargs)
        probes.append((step_operator(ws), sol))
        return sol

    monkeypatch.setattr(QpWorkspace, "solve", spy)
    inst = random_instance(n, 0.5, 0, n_commodities=commodities)
    (found, sol), = probes
    assert (found, sol.status, sol.iterations) == \
        (loop, "solved", 1)
    longest = max(inst.graph.shortest_path_hops(c.origin, c.dest)
                  for c in inst.commodities)
    assert longest > 1
    tighter = Instance(inst.graph, inst.costs, inst.commodities, longest - 1)
    assert not relaxed_set_nonempty(tighter)
    assert (probes[-1][1].status, probes[-1][1].iterations) == ("max-iters", 1)


@pytest.mark.parametrize("n, seed, commodities", [(6, 0, None), (10, 7, 2), (20, 1, None)])
def test_shortest_path_point_meets_every_relaxed_row(n, seed, commodities):
    inst = random_instance(n, 0.5, seed, n_commodities=commodities)
    v = shortest_path_point(inst)
    qp = relaxed_qp(inst, 0.0, np.zeros(inst.dim_total))
    assert np.array_equal(qp.a_eq @ v, qp.b_eq)
    assert (qp.a_in @ v <= qp.b_in).all()
    assert (v >= qp.lo).all() and (v <= qp.hi).all()
    # w = 1, and each commodity uses exactly its shortest path's arcs
    assert (v[:inst.dim_w] == 1.0).all()
    for f, c in enumerate(inst.commodities):
        assert v[inst.u_index(f, 0):inst.u_index(f + 1, 0)].sum() == \
            inst.graph.shortest_path_hops(c.origin, c.dest)


# SHA-256 of format_instance(random_instance(n, p, seed, commodities)),
# recorded before the feasibility probe started at the shortest-path point.
# Every benchmark instance comes from random_instance
PINNED_INSTANCES = {
    (6, 0.5, 0, None): "9e7563e19b302d110be711dd35453fa8d0e33ccf5b2e36b6f15c5f1a0c9f1288",
    (8, 0.5, 3, None): "b118847514fd8f9b7c1b446d6877e0946cb61f4c8487f9ba1c1136ca6a9505b9",
    (10, 0.5, 7, 2): "84bbc2ae8078af61f555eb13bef997dbeaf779c9e2ce001808677989281e06ed",
    (12, 0.3, 4, 3): "14ea4fc9e99aaf59705d6a18193efb5d2b93867edbe9944bd9c725e807f1e5ea",
    (20, 0.5, 1, None): "b4f61615ebfa3f39420a3600a9009b9505f61024c2538151cd33a1c5ce2e865c",
}


@pytest.mark.parametrize("cell", PINNED_INSTANCES, ids=str)
def test_random_instance_output_is_pinned(cell):
    n, p, seed, commodities = cell
    text = format_instance(random_instance(n, p, seed, n_commodities=commodities))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_INSTANCES[cell]


def test_random_instance_raises_when_the_relaxed_set_is_empty(monkeypatch):
    monkeypatch.setattr(mcf, "relaxed_set_nonempty", lambda inst: False)
    with pytest.raises(ValueError, match="relaxed set empty at hop bound"):
        random_instance(6, 0.5, 0)


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
