import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedesign.central import SolverConfig, SubproblemRuntime, solve_central
from treedesign.distributed import (
    AgentState,
    World,
    agent_dual_step,
    agent_primal_step,
    consensus_gap,
    init_world,
    residual_distributed,
    solve_distributed,
    sync_round,
)
from treedesign.graphs import UndirectedGraph, is_spanning_tree
from treedesign.mcf import Commodity, Instance, agent_linear_cost, random_instance
from treedesign.projection import project_tree

from helpers import (
    agent_dual_step_reference,
    agent_linear_cost_reference,
    consensus_dual_aggregates,
    consensus_gap_reference,
    full_dual_step,
    init_full_dual_world,
    k3_instance,
)


def two_node_instance():
    g = UndirectedGraph(2, [(0, 1)])
    return Instance(g, [1.0], [Commodity(0, 1)], 1)


def clone_agent(a):
    return AgentState(
        u=a.u.copy(), w=a.w.copy(), z=a.z, y=a.y.copy(), mu=a.mu.copy(),
        eta=a.eta.copy(), nu=a.nu.copy(), xi=a.xi.copy(),
    )


def agents_equal(a, b):
    return (np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)
            and np.array_equal(np.asarray(a.z if not hasattr(a.z, "vector")
                                          else a.z.vector),
                               np.asarray(b.z if not hasattr(b.z, "vector")
                                          else b.z.vector))
            and np.array_equal(a.y, b.y) and np.array_equal(a.mu, b.mu)
            and np.array_equal(a.eta, b.eta) and np.array_equal(a.nu, b.nu)
            and np.array_equal(a.xi, b.xi))


def test_agent_step_without_neighbors_keeps_consensus_duals():
    inst = two_node_instance()
    cfg = SolverConfig(rho=1.0)
    world = init_world(inst, cfg)
    own = world.agents[0]
    staged = agent_primal_step(inst, 0, own, [], cfg)
    nxt = agent_dual_step(own, staged, [])
    assert not np.any(nxt.nu)
    assert not np.any(nxt.xi)
    assert is_spanning_tree(inst.graph, nxt.z)
    # matches the centralized update rule with the local objective
    assert np.array_equal(nxt.mu, own.mu + (nxt.z.vector - nxt.w))
    assert np.array_equal(nxt.eta, own.eta + (nxt.y - nxt.u))


def test_identical_staged_primals_produce_zero_consensus_increments():
    inst = k3_instance(hop=2)
    cfg = SolverConfig(rho=0.5)
    world = init_world(inst, cfg)
    own = world.agents[0]

    class Staged:
        pass

    mine = Staged()
    mine.u = np.full(inst.dim_u, 0.25)
    mine.w = np.full(inst.dim_w, 0.5)
    from treedesign.graphs import TreeIndicator
    vec = np.zeros(inst.dim_w, dtype=np.int8)
    vec[[0, 1]] = 1
    mine.z = TreeIndicator(vec)
    mine.y = np.zeros(inst.dim_u, dtype=np.int8)
    # every partner holding the same primals contributes nothing
    nxt = agent_dual_step(own, mine, [mine, mine, mine, mine])
    assert not np.any(nxt.nu)
    assert not np.any(nxt.xi)


def test_dual_arithmetic_single_neighbor():
    inst = two_node_instance()
    cfg = SolverConfig(rho=1.0)
    world = init_world(inst, cfg)
    own = world.agents[0]

    class Staged:
        pass

    mine = Staged()
    mine.u = np.array([1.0, 0.0])
    mine.w = np.array([1.0])
    from treedesign.graphs import TreeIndicator
    mine.z = TreeIndicator([1])
    mine.y = np.array([1, 0], dtype=np.int8)
    other = Staged()
    other.u = np.array([0.0, 0.0])
    other.w = np.array([0.0])
    # one neighbor, one unit step by the full disagreement
    nxt = agent_dual_step(own, mine, [other])
    assert np.array_equal(nxt.xi, np.array([1.0]))
    assert np.array_equal(nxt.nu, np.array([1.0, 0.0]))


def test_round_is_order_independent():
    inst = random_instance(5, 0.7, seed=3)
    cfg = SolverConfig(rho=0.3)
    world = init_world(inst, cfg)
    world = sync_round(world, cfg)  # desynchronize trees a little
    fwd = sync_round(world, cfg, order=range(inst.n))
    rev = sync_round(world, cfg, order=reversed(range(inst.n)))
    assert fwd.k == rev.k
    for a, b in zip(fwd.agents, rev.agents):
        assert agents_equal(a, b)


def test_symmetric_two_agent_world_stays_symmetric():
    inst = two_node_instance()
    cfg = SolverConfig(rho=1.0)
    world = init_world(inst, cfg)
    for _ in range(5):
        world = sync_round(world, cfg)
        assert agents_equal(world.agents[0], world.agents[1])


def test_residual_distributed_examples():
    inst = k3_instance(hop=2)
    cfg = SolverConfig()
    world = init_world(inst, cfg)
    same = World(inst, [clone_agent(a) for a in world.agents], k=1)
    assert residual_distributed(world, same) == 0.0
    bumped = World(inst, [clone_agent(a) for a in world.agents], k=1)
    delta = np.array([0.3, 0.4, 0.0])
    bumped.agents[1].mu = bumped.agents[1].mu + delta
    assert residual_distributed(world, bumped) == pytest.approx(0.5 / inst.n)
    allw = World(inst, [clone_agent(a) for a in world.agents], k=1)
    for a in allw.agents:
        a.w = a.w + delta
    assert residual_distributed(world, allw) == pytest.approx(0.5)


def test_consensus_gap_properties():
    inst = k3_instance(hop=2)
    world = init_world(inst, SolverConfig())
    assert consensus_gap(world) == 0.0
    bumped = World(inst, [clone_agent(a) for a in world.agents])
    delta = np.array([0.3, 0.4, 0.0])
    bumped.agents[2].w = bumped.agents[2].w + delta
    assert consensus_gap(bumped) == pytest.approx(0.5)
    sub = World(inst, bumped.agents[:2])
    assert consensus_gap(sub) <= consensus_gap(bumped)


@pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (5, 0.7, 3), (8, 0.5, 0)])
def test_partners_are_the_graph_neighbors_once_each(n, p, seed):
    inst = two_node_instance() if n == 2 else random_instance(n, p, seed=seed)
    world = init_world(inst, SolverConfig())
    for i in range(inst.n):
        neighbors = sorted(j for (a, b) in inst.graph.edges for j in (a, b)
                           if i in (a, b) and j != i)
        assert world.partners[i] == tuple(neighbors)


def test_solve_distributed_one_round_trees():
    inst = random_instance(5, 0.6, seed=7)
    # a tolerance above any residual (a config rejects a non-finite one)
    rep = solve_distributed(inst, SolverConfig(rho=1.0, tol=1e300,
                                               max_iters=50))
    assert rep.iterations == 1
    assert is_spanning_tree(inst.graph, rep.tree)


def test_solve_distributed_zero_rounds():
    inst = random_instance(5, 0.6, seed=7)
    rep = solve_distributed(inst, SolverConfig(max_iters=0))
    assert rep.status == "not-run"
    assert rep.tree is None
    assert not rep.feasible


def test_solve_distributed_matches_central_quality():
    inst = random_instance(6, 0.5, seed=3)
    repd = solve_distributed(inst, SolverConfig(rho=0.1, tol=1e-4,
                                                max_iters=400))
    repc = solve_central(inst, SolverConfig(rho=0.1, tol=1e-4, max_iters=400))
    assert repd.feasible and repc.feasible
    assert abs(repd.objective - repc.objective) / repc.objective <= 0.05
    assert rep_trace_schema_ok(repd)


def rep_trace_schema_ok(rep):
    for row in rep.trace:
        k, agent, obj_w, contrib, gap, qp_iters = row
        assert isinstance(k, int) and isinstance(agent, int)
        assert isinstance(obj_w, float) and isinstance(contrib, float)
        assert isinstance(gap, float) and isinstance(qp_iters, int)
    return True


def test_full_dual_identities_and_averages():
    inst = random_instance(4, 0.7, seed=1)
    cfg = SolverConfig(rho=0.7, tol=1e-6, max_iters=10)
    fd = init_full_dual_world(inst, cfg)
    rt = SubproblemRuntime()
    prev_agents = [a.u.copy() for a in fd.agents]
    fd = full_dual_step(fd, cfg, _runtime=rt)
    # averages are the midpoints of the fresh primals
    for a, (i, j) in enumerate(fd.arcs.arcs):
        assert np.array_equal(fd.t[a], (fd.agents[i].u + fd.agents[j].u) / 2.0)
        assert np.array_equal(fd.s[a], (fd.agents[i].w + fd.agents[j].w) / 2.0)
    for r in range(4):
        fd = full_dual_step(fd, cfg, _runtime=rt)
        for a in range(len(fd.arcs.arcs)):
            assert np.all(fd.alpha[a] + fd.beta[a] == 0.0)
            assert np.all(fd.gamma[a] + fd.delta[a] == 0.0)
    del prev_agents


def test_condensed_matches_full_dual_any_rho():
    for rho in (0.1, 1.0, 2.5):
        inst = random_instance(4, 0.7, seed=2)
        cfg = SolverConfig(rho=rho, tol=1e-12, max_iters=10, qp_tol=1e-10)
        world = init_world(inst, cfg)
        fd = init_full_dual_world(inst, cfg)
        rt1, rt2 = SubproblemRuntime(), SubproblemRuntime()
        for _ in range(6):
            world = sync_round(world, cfg, _runtime=rt1)
            fd = full_dual_step(fd, cfg, _runtime=rt2)
        nu_agg, xi_agg = consensus_dual_aggregates(fd)
        for i in range(inst.n):
            a, b = world.agents[i], fd.agents[i]
            assert np.allclose(a.u, b.u, atol=1e-8)
            assert np.allclose(a.w, b.w, atol=1e-8)
            assert np.array_equal(a.z.vector, b.z.vector)
            assert np.array_equal(a.y, b.y)
            assert np.allclose(a.mu, b.mu / rho, atol=1e-8)
            assert np.allclose(a.eta, b.eta / rho, atol=1e-8)
            assert np.allclose(a.nu, nu_agg[i] / rho, atol=1e-8)
            assert np.allclose(a.xi, xi_agg[i] / rho, atol=1e-8)


def test_runtime_key_is_bound_to_instance_and_rho():
    inst = random_instance(5, 0.6, seed=4)
    cfg = SolverConfig(rho=1.0)
    rt = SubproblemRuntime()
    world = sync_round(init_world(inst, cfg), cfg, _runtime=rt)
    sync_round(world, cfg, _runtime=rt)  # same instance and rho: reused
    other_rho = SolverConfig(rho=2.0)
    with pytest.raises(ValueError, match="bound to another"):
        sync_round(init_world(inst, other_rho), other_rho, _runtime=rt)
    twin = random_instance(5, 0.6, seed=4)
    with pytest.raises(ValueError, match="bound to another"):
        sync_round(init_world(twin, cfg), cfg, _runtime=rt)


def random_agent(inst, rng, tree):
    """An agent state with awkward floats: signed zeros, wide magnitudes,
    an int8 flow rounding and a tree or relaxed-vector z."""
    def floats(size):
        v = rng.normal(size=size) * 10.0 ** rng.integers(-8, 8, size=size)
        v[rng.random(size) < 0.2] = -0.0
        v[rng.random(size) < 0.2] = 0.0
        return v
    z = project_tree(floats(inst.dim_w), np.zeros(inst.dim_w), inst.graph) \
        if tree else rng.random(inst.dim_w)
    return AgentState(
        u=floats(inst.dim_u), w=floats(inst.dim_w), z=z,
        y=rng.integers(0, 2, size=inst.dim_u).astype(np.int8),
        mu=floats(inst.dim_w), eta=floats(inst.dim_u),
        nu=floats(inst.dim_u), xi=floats(inst.dim_w),
    )


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), tree=st.booleans())
def test_in_place_round_arithmetic_matches_the_plain_expressions(seed, tree):
    # the linear cost, the dual step and the consensus gap built in place
    # give the bits of the whole-vector expressions they replace
    rng = np.random.default_rng(seed)
    inst = random_instance(int(rng.integers(3, 8)), 0.6, int(rng.integers(2**31)),
                           n_commodities=int(rng.integers(1, 3)))
    agents = [random_agent(inst, rng, tree) for _ in range(inst.n)]
    rho = float(rng.uniform(0.01, 10.0))
    for i in range(inst.n):
        partners = [agents[j] for j in rng.integers(0, inst.n, size=rng.integers(0, 6))]
        assert_same_bits(
            agent_linear_cost(inst, i, agents[i], partners, rho),
            agent_linear_cost_reference(inst, i, agents[i], partners, rho))
        staged = random_agent(inst, rng, True)
        got = agent_dual_step(agents[i], staged, partners)
        expected = agent_dual_step_reference(agents[i], staged, partners)
        for name in ("u", "w", "y", "mu", "eta", "nu", "xi"):
            assert_same_bits(getattr(got, name), getattr(expected, name))
        assert got.z is expected.z
    world = World(inst, agents)
    assert consensus_gap(world) == consensus_gap_reference(world)
