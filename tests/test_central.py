import numpy as np
import pytest

from treedesign.central import (
    CentralState,
    SolverConfig,
    SubproblemRuntime,
    init_state,
    residual_central,
    solve_central,
    step,
)
from treedesign.distributed import solve_distributed
from treedesign.graphs import UndirectedGraph, is_spanning_tree
from treedesign.mcf import Commodity, Instance, check_feasible, objective, random_instance
from treedesign.qp import QpSolution, QpWorkspace

from helpers import k3_instance


def single_edge_instance():
    g = UndirectedGraph(2, [(0, 1)])
    return Instance(g, [1.0], [Commodity(0, 1)], 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    for cap in (2.5, float("nan")):
        with pytest.raises(ValueError, match="^max_iters must be"):
            SolverConfig(max_iters=cap)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["rho", "tol", "qp_tol"])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        SolverConfig(**{field: value})


def test_init_state_defaults():
    inst = k3_instance(hop=2)
    cfg = SolverConfig()
    st = init_state(inst, cfg)
    assert np.array_equal(st.w, np.ones(3))
    # the first anchor is the relaxed vector itself, not a projected tree
    assert np.array_equal(np.asarray(st.z), np.ones(3))
    assert not np.any(st.u)
    assert not np.any(st.y)
    assert not np.any(st.mu)
    assert not np.any(st.eta)
    assert st.k == 0


def test_dual_update_arithmetic():
    # mu' = mu + (z - w) componentwise
    inst = single_edge_instance()
    cfg = SolverConfig(rho=1.0)
    st = init_state(inst, cfg)
    nxt = step(st, inst, cfg)
    assert np.allclose(nxt.mu, nxt.z.vector - nxt.w, atol=1e-12)
    assert np.allclose(nxt.eta, nxt.y - nxt.u, atol=1e-12)


def test_fixed_point_keeps_duals():
    inst = single_edge_instance()
    cfg = SolverConfig(rho=1.0, tol=1e-4, max_iters=10)
    st = init_state(inst, cfg)
    s1 = step(st, inst, cfg)
    s2 = step(s1, inst, cfg)
    # the single-edge instance reaches its fixed point after one iteration
    assert np.allclose(s2.w, s1.w, atol=1e-6)
    assert np.allclose(s2.mu, s1.mu, atol=1e-6)
    assert residual_central(s1, s2) < 1e-4


def test_step_tree_invariant_and_dual_exactness():
    inst = random_instance(6, 0.5, seed=2)
    cfg = SolverConfig(rho=0.5, tol=1e-8, max_iters=0)
    st = init_state(inst, cfg)
    for _ in range(12):
        prev = st
        st = step(st, inst, cfg)
        assert is_spanning_tree(inst.graph, st.z)
        assert int(st.z.vector.sum()) == inst.n - 1
        # dual ascent is exactly the stated formula, bitwise
        assert np.array_equal(st.mu, prev.mu + (st.z.vector - st.w))
        assert np.array_equal(st.eta, prev.eta + (st.y - st.u))
        assert set(np.unique(st.y)).issubset({0, 1})


def test_residual_central_examples():
    inst = k3_instance(hop=2)
    st = init_state(inst, SolverConfig())
    same = CentralState(w=st.w.copy(), u=st.u.copy(), z=st.z, y=st.y.copy(),
                        mu=st.mu.copy(), eta=st.eta.copy(), k=1)
    assert residual_central(st, same) == 0.0
    delta = np.array([0.3, 0.4, 0.0])
    bumped = CentralState(w=st.w.copy(), u=st.u.copy(), z=st.z, y=st.y.copy(),
                          mu=st.mu + delta, eta=st.eta.copy(), k=1)
    assert residual_central(st, bumped) == pytest.approx(0.5)
    wshift = CentralState(w=st.w + delta, u=st.u.copy(), z=st.z, y=st.y.copy(),
                          mu=st.mu.copy(), eta=st.eta.copy(), k=1)
    assert residual_central(st, wshift) == pytest.approx(0.5)


def test_solve_single_edge():
    inst = single_edge_instance()
    rep = solve_central(inst, SolverConfig(rho=1.0, tol=1e-4, max_iters=50))
    assert rep.status == "converged"
    assert rep.iterations <= 2
    assert rep.feasible
    assert rep.objective == 1.0


def test_solve_tol_infinite_stops_after_one_iteration():
    inst = random_instance(6, 0.5, seed=1)
    # a tolerance above any residual (a config rejects a non-finite one)
    rep = solve_central(inst, SolverConfig(rho=1.0, tol=1e300, max_iters=100))
    assert rep.iterations == 1
    assert is_spanning_tree(inst.graph, rep.tree)


def test_solve_zero_iterations():
    inst = k3_instance(hop=2)
    rep = solve_central(inst, SolverConfig(max_iters=0))
    assert rep.status == "not-run"
    assert rep.iterations == 0
    assert rep.tree is None
    assert not rep.feasible


def test_solve_reports_are_deterministic():
    inst = random_instance(7, 0.5, seed=6)
    cfg = SolverConfig(rho=0.1, tol=1e-4, max_iters=120)
    a = solve_central(inst, cfg)
    b = solve_central(inst, cfg)
    assert a.trace == b.trace
    assert a.objective == b.objective
    assert np.array_equal(a.tree.vector, b.tree.vector)


def test_final_objective_recomputes():
    inst = random_instance(7, 0.5, seed=8)
    rep = solve_central(inst, SolverConfig(rho=0.1, tol=1e-4, max_iters=200))
    assert rep.objective == objective(inst, rep.tree.vector)
    if rep.feasible:
        assert check_feasible(inst, rep.tree, rep.flows).feasible
    assert rep.trees_validated == rep.iterations


def test_trace_rows_schema():
    inst = random_instance(6, 0.5, seed=4)
    rep = solve_central(inst, SolverConfig(rho=0.1, tol=1e-4, max_iters=30))
    assert rep.trace
    for row in rep.trace:
        k, obj_w, obj_z, residual, qp_iters, qp_status, feas = row
        assert isinstance(k, int) and k >= 1
        assert isinstance(obj_w, float) and isinstance(obj_z, float)
        assert isinstance(residual, float)
        assert isinstance(qp_iters, int)
        assert qp_status in ("solved", "max-iters")
        assert isinstance(feas, bool)


def test_runtime_key_is_bound_to_instance_and_rho():
    inst = random_instance(6, 0.5, seed=2)
    cfg = SolverConfig(rho=1.0)
    rt = SubproblemRuntime()
    state = step(init_state(inst, cfg), inst, cfg, _runtime=rt)
    step(state, inst, cfg, _runtime=rt)  # same instance and rho: reused
    assert len(rt.workspaces) == 1
    other_rho = SolverConfig(rho=0.5)
    with pytest.raises(ValueError, match="bound to another"):
        step(init_state(inst, other_rho), inst, other_rho, _runtime=rt)
    other_inst = random_instance(6, 0.5, seed=3)
    with pytest.raises(ValueError, match="bound to another"):
        step(init_state(other_inst, cfg), other_inst, cfg, _runtime=rt)


def test_runtime_rejects_nan_residual_of_a_max_iters_solve(monkeypatch):
    inst = single_edge_instance()
    cfg = SolverConfig(rho=1.0)

    def nan_solve(self, q, tol=1e-6, max_iters=20000, warm=None):
        return QpSolution(np.zeros(len(q)), 1e-9, 0.0, float("nan"),
                          max_iters, "max-iters")

    monkeypatch.setattr(QpWorkspace, "solve", nan_solve)
    with pytest.raises(RuntimeError, match="stalled at residual nan"):
        SubproblemRuntime().solve(None, inst, cfg.rho,
                                  np.zeros(inst.dim_total), cfg)


# (n, seed, rho, max_iters) on random_instance(n, 0.5, seed, hop_slack=0):
# with no hop slack, an early final iterate's flows fail the check, and
# routing on its tree either repairs them or still breaks the hop bound
EXTRACTION_CASES = {
    (solve_central, "rerouted"): (6, 2, 1.0, 1),
    (solve_central, "none"): (6, 8, 10.0, 1),
    (solve_distributed, "rerouted"): (5, 6, 1.0, 1),
    (solve_distributed, "none"): (5, 0, 1.0, 3),
}


@pytest.mark.parametrize("solve", [solve_central, solve_distributed],
                         ids=["central", "distributed"])
def test_extraction_outcomes_match_across_drivers(solve, caplog):
    for extraction in ("rerouted", "none"):
        n, seed, rho, max_iters = EXTRACTION_CASES[solve, extraction]
        inst = random_instance(n, 0.5, seed, hop_slack=0)
        caplog.clear()
        rep = solve(inst, SolverConfig(rho=rho, max_iters=max_iters))
        assert rep.extraction == extraction
        assert is_spanning_tree(inst.graph, rep.tree)
        assert rep.objective == objective(inst, rep.tree)
        if extraction == "rerouted":
            assert rep.feasible
            assert check_feasible(inst, rep.tree, rep.flows).feasible
        else:
            assert rep.flows is None and not rep.feasible
            assert "no feasible extraction" in caplog.text

