import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treedesign.central import (Primals, SolverConfig, SubproblemRuntime,
                                init_state, local_duals, solve_central, step)
from treedesign.distributed import (
    agent_dual_step,
    agent_linear_cost,
    agent_primal_step,
    consensus_gap,
    init_world,
    residual_distributed,
    solve_distributed,
    sync_round,
)
from treedesign.graphs import TreeIndicator, UndirectedGraph, is_spanning_tree
from treedesign.mcf import Commodity, Instance, random_instance
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

ROWS = ("u", "w", "z", "y", "mu", "eta", "nu", "xi")


def two_node_instance():
    g = UndirectedGraph(2, [(0, 1)])
    return Instance(g, [1.0], [Commodity(0, 1)], 1)


def clone_world(world):
    return dataclasses.replace(
        world, **{name: getattr(world, name).copy() for name in ROWS})


def agents_equal(a, i, b, j):
    """Agent i of world a holds the same copies as agent j of world b."""
    return all(np.array_equal(getattr(a, name)[i], getattr(b, name)[j])
               for name in ROWS)


def test_agent_step_without_neighbors_keeps_consensus_duals():
    # a world without neighbor slots runs the centralized per-copy update,
    # with the local objective, and no consensus terms
    inst = two_node_instance()
    cfg = SolverConfig(rho=1.0)
    world = dataclasses.replace(init_world(inst, cfg), slots=())
    nxt = sync_round(world, cfg, SubproblemRuntime())
    assert not np.any(nxt.nu)
    assert not np.any(nxt.xi)
    for i in range(inst.n):
        assert is_spanning_tree(inst.graph, nxt.z[i])
        # matches the centralized update rule
        assert np.array_equal(nxt.mu[i], world.mu[i] + (nxt.z[i] - nxt.w[i]))
        assert np.array_equal(nxt.eta[i], world.eta[i] + (nxt.y[i] - nxt.u[i]))


def test_identical_staged_primals_produce_zero_consensus_increments():
    inst = k3_instance(hop=2)
    cfg = SolverConfig(rho=0.5)
    world = init_world(inst, cfg)
    vec = np.zeros(inst.dim_w, dtype=np.int8)
    vec[[0, 1]] = 1
    mine = Primals(w=np.full(inst.dim_w, 0.5), u=np.full(inst.dim_u, 0.25),
                   z=vec, y=np.zeros(inst.dim_u, dtype=np.int8))
    # every neighbor holding the same primals contributes nothing
    nxt = agent_dual_step(world, [mine] * inst.n)
    assert not np.any(nxt.nu)
    assert not np.any(nxt.xi)


def test_dual_arithmetic_single_neighbor():
    inst = two_node_instance()
    cfg = SolverConfig(rho=1.0)
    world = init_world(inst, cfg)
    tree = np.array([1], dtype=np.int8)
    mine = Primals(w=np.array([1.0]), u=np.array([1.0, 0.0]),
                   z=tree, y=np.array([1, 0], dtype=np.int8))
    other = Primals(w=np.array([0.0]), u=np.array([0.0, 0.0]),
                    z=tree, y=np.array([0, 0], dtype=np.int8))
    # one neighbor, one unit step by the full disagreement, each way
    nxt = agent_dual_step(world, [mine, other])
    assert np.array_equal(nxt.xi, np.array([[1.0], [-1.0]]))
    assert np.array_equal(nxt.nu, np.array([[1.0, 0.0], [-1.0, 0.0]]))


def test_drivers_hold_every_tree_as_an_int8_row():
    # from the relaxed anchor on, z is one int8 0/1 vector (central) or one
    # such row per agent (a world), and the report's tree is row 0's
    inst = random_instance(6, 0.5, seed=2)
    cfg = SolverConfig(rho=1.0, max_iters=4)
    drivers = (
        (init_state, lambda s, rt: step(s, inst, cfg, rt), solve_central,
         (inst.dim_w,)),
        (init_world, lambda w, rt: sync_round(w, cfg, rt), solve_distributed,
         (inst.n, inst.dim_w)),
    )
    for init, advance, solve, shape in drivers:
        state, rt = init(inst, cfg), SubproblemRuntime()
        assert state.z.dtype == np.int8 and state.z.shape == shape
        for _ in range(cfg.max_iters):
            state = advance(state, rt)
            assert state.z.dtype == np.int8 and state.z.shape == shape
            assert np.isin(state.z, (0, 1)).all()
        report = solve(inst, cfg)
        assert report.iterations == state.k == cfg.max_iters
        assert report.tree == TreeIndicator(np.atleast_2d(state.z)[0])


def test_steps_require_a_runtime():
    # the drivers' outer loop owns each run's runtime; no step makes its own
    inst = two_node_instance()
    cfg = SolverConfig(rho=1.0)
    world = init_world(inst, cfg)
    q = agent_linear_cost(inst, world, cfg.rho)
    with pytest.raises(TypeError, match="runtime"):
        step(init_state(inst, cfg), inst, cfg)
    with pytest.raises(TypeError, match="runtime"):
        agent_primal_step(world, 0, q[0], cfg)
    with pytest.raises(TypeError, match="runtime"):
        sync_round(world, cfg)


def test_round_is_order_independent():
    inst = random_instance(5, 0.7, seed=3)
    cfg = SolverConfig(rho=0.3)
    world = init_world(inst, cfg)
    # desynchronize trees a little
    world = sync_round(world, cfg, SubproblemRuntime())
    fwd = sync_round(world, cfg, SubproblemRuntime(), order=range(inst.n))
    rev = sync_round(world, cfg, SubproblemRuntime(),
                     order=reversed(range(inst.n)))
    assert fwd.k == rev.k
    for i in range(inst.n):
        assert agents_equal(fwd, i, rev, i)


@pytest.mark.parametrize("order", [[0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 5],
                                   list(range(7)), [0, 1, 2, 3, 4]])
def test_round_rejects_an_order_that_is_not_a_permutation(order):
    # a repeated or missing id once raised AttributeError on the agent left
    # unstaged, and an id past the last agent an IndexError
    inst = random_instance(6, 0.7, seed=3)
    cfg = SolverConfig(rho=0.3)
    world = init_world(inst, cfg)
    with pytest.raises(ValueError, match=rf"^order \[{order[0]}, .* not a permutation"):
        sync_round(world, cfg, SubproblemRuntime(), order=order)
    assert sync_round(world, cfg, SubproblemRuntime(),
                      order=reversed(range(inst.n))).k == 1


def test_symmetric_two_agent_world_stays_symmetric():
    inst = two_node_instance()
    cfg = SolverConfig(rho=1.0)
    world = init_world(inst, cfg)
    for _ in range(5):
        world = sync_round(world, cfg, SubproblemRuntime())
        assert agents_equal(world, 0, world, 1)


def test_residual_distributed_examples():
    inst = k3_instance(hop=2)
    cfg = SolverConfig()
    world = init_world(inst, cfg)
    same = dataclasses.replace(clone_world(world), k=1)
    assert residual_distributed(world, same) == 0.0
    bumped = dataclasses.replace(clone_world(world), k=1)
    delta = np.array([0.3, 0.4, 0.0])
    bumped.mu[1] += delta
    assert residual_distributed(world, bumped) == pytest.approx(0.5 / inst.n)
    allw = dataclasses.replace(clone_world(world), k=1)
    allw.w += delta
    assert residual_distributed(world, allw) == pytest.approx(0.5)


def test_consensus_gap_properties():
    inst = k3_instance(hop=2)
    world = init_world(inst, SolverConfig())
    assert consensus_gap(world) == 0.0
    bumped = clone_world(world)
    delta = np.array([0.3, 0.4, 0.0])
    bumped.w[2] += delta
    assert consensus_gap(bumped) == pytest.approx(0.5)
    sub = dataclasses.replace(bumped, u=bumped.u[:2], w=bumped.w[:2])
    assert consensus_gap(sub) <= consensus_gap(bumped)


@pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (5, 0.7, 3), (8, 0.5, 0)])
def test_partners_are_the_graph_neighbors_once_each(n, p, seed):
    # slot s pairs every agent with more than s neighbors with its s-th
    # neighbor, so reading agent i's partners slot by slot lists them all
    inst = two_node_instance() if n == 2 else random_instance(n, p, seed=seed)
    world = init_world(inst, SolverConfig())
    for i in range(inst.n):
        neighbors = sorted(j for (a, b) in inst.graph.edges for j in (a, b)
                           if i in (a, b) and j != i)
        partners = [int(p) for agents, partners in world.slots
                    for a, p in zip(agents, partners) if a == i]
        assert partners == neighbors
    for agents, _ in world.slots:
        assert np.all(np.diff(agents) > 0)


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
        # exactly float: an np.float64 cell would print as np.float64(...)
        assert type(obj_w) is float and type(contrib) is float
        assert type(gap) is float and isinstance(qp_iters, int)
    return True


def test_full_dual_identities_and_averages():
    inst = random_instance(4, 0.7, seed=1)
    cfg = SolverConfig(rho=0.7, tol=1e-6, max_iters=10)
    fd = init_full_dual_world(inst, cfg)
    rt = SubproblemRuntime()
    fd = full_dual_step(fd, cfg, rt)
    # averages are the midpoints of the fresh primals
    for a, (i, j) in enumerate(fd.arcs.arcs):
        assert np.array_equal(fd.t[a], (fd.agents[i].u + fd.agents[j].u) / 2.0)
        assert np.array_equal(fd.s[a], (fd.agents[i].w + fd.agents[j].w) / 2.0)
    for r in range(4):
        fd = full_dual_step(fd, cfg, rt)
        for a in range(len(fd.arcs.arcs)):
            assert np.all(fd.alpha[a] + fd.beta[a] == 0.0)
            assert np.all(fd.gamma[a] + fd.delta[a] == 0.0)


def test_condensed_matches_full_dual_any_rho():
    for rho in (0.1, 1.0, 2.5):
        inst = random_instance(4, 0.7, seed=2)
        cfg = SolverConfig(rho=rho, tol=1e-12, max_iters=10, qp_tol=1e-10)
        world = init_world(inst, cfg)
        fd = init_full_dual_world(inst, cfg)
        rt1, rt2 = SubproblemRuntime(), SubproblemRuntime()
        for _ in range(6):
            world = sync_round(world, cfg, rt1)
            fd = full_dual_step(fd, cfg, rt2)
        nu_agg, xi_agg = consensus_dual_aggregates(fd)
        for i in range(inst.n):
            b = fd.agents[i]
            assert np.allclose(world.u[i], b.u, atol=1e-8)
            assert np.allclose(world.w[i], b.w, atol=1e-8)
            assert np.array_equal(world.z[i], b.z.vector)
            assert np.array_equal(world.y[i], b.y)
            assert np.allclose(world.mu[i], b.mu / rho, atol=1e-8)
            assert np.allclose(world.eta[i], b.eta / rho, atol=1e-8)
            assert np.allclose(world.nu[i], nu_agg[i] / rho, atol=1e-8)
            assert np.allclose(world.xi[i], xi_agg[i] / rho, atol=1e-8)


def test_runtime_key_is_bound_to_instance_and_rho():
    inst = random_instance(5, 0.6, seed=4)
    cfg = SolverConfig(rho=1.0)
    rt = SubproblemRuntime()
    world = sync_round(init_world(inst, cfg), cfg, rt)
    sync_round(world, cfg, rt)  # same instance and rho: reused
    other_rho = SolverConfig(rho=2.0)
    with pytest.raises(ValueError, match="bound to another"):
        sync_round(init_world(inst, other_rho), other_rho, rt)
    twin = random_instance(5, 0.6, seed=4)
    with pytest.raises(ValueError, match="bound to another"):
        sync_round(init_world(twin, cfg), cfg, rt)


def awkward_floats(rng, shape):
    """Floats with signed zeros and wide magnitudes."""
    v = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)
    v[rng.random(shape) < 0.2] = -0.0
    v[rng.random(shape) < 0.2] = 0.0
    return v


def random_tree(inst, rng):
    """A spanning tree's int8 0/1 row."""
    return project_tree(awkward_floats(rng, inst.dim_w), np.zeros(inst.dim_w),
                        inst.graph).vector


def random_world(inst, rng, tree):
    """A world with awkward floats, int8 flow roundings and, for z, int8
    tree rows or the all-ones relaxed anchor."""
    n = inst.n
    world = init_world(inst, SolverConfig())
    return dataclasses.replace(
        world,
        z=(np.array([random_tree(inst, rng) for _ in range(n)]) if tree
           else world.z),
        y=rng.integers(0, 2, size=(n, inst.dim_u)).astype(np.int8),
        **{name: awkward_floats(rng, (n, inst.dim_u if name in ("u", "eta", "nu")
                                      else inst.dim_w))
           for name in ("u", "w", "mu", "eta", "nu", "xi")})


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), tree=st.booleans())
def test_in_place_round_arithmetic_matches_the_plain_expressions(seed, tree):
    # the whole-world linear costs and dual step, one neighbor slot at a
    # time, give the bits of the per-agent, per-neighbor expressions, and
    # the local duals ascended on every agent's rows at once give those of
    # one central.local_duals call per agent; the agents' unequal degrees
    # leave some slots covering only some agents
    rng = np.random.default_rng(seed)
    inst = random_instance(int(rng.integers(3, 8)), 0.6, int(rng.integers(2**31)),
                           n_commodities=int(rng.integers(1, 3)))
    assume(len({len(inst.graph.incident(i)) for i in range(inst.n)}) > 1)
    world = random_world(inst, rng, tree)
    rho = float(rng.uniform(0.01, 10.0))
    q = agent_linear_cost(inst, world, rho)
    staged = [Primals(w=awkward_floats(rng, inst.dim_w),
                      u=awkward_floats(rng, inst.dim_u),
                      z=random_tree(inst, rng),
                      y=rng.integers(0, 2, size=inst.dim_u).astype(np.int8))
              for _ in range(inst.n)]
    nxt = agent_dual_step(world, staged)
    assert nxt.k == world.k + 1
    for i in range(inst.n):
        assert_same_bits(q[i], agent_linear_cost_reference(inst, world, i, rho))
        for name, expected in zip(("mu", "eta", "nu", "xi"),
                                  agent_dual_step_reference(world, staged, i)):
            assert_same_bits(getattr(nxt, name)[i], expected)
        own = staged[i]
        for row, expected in zip((nxt.mu[i], nxt.eta[i]), local_duals(
                world.mu[i], world.eta[i], own.z, own.w, own.y, own.u)):
            assert_same_bits(row, expected)
        for name in ("u", "w", "z", "y"):
            assert_same_bits(getattr(nxt, name)[i], getattr(own, name))
    assert consensus_gap(world) == consensus_gap_reference(world)
