from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treedesign import central
from treedesign.central import (
    CentralState,
    SolverConfig,
    SubproblemRuntime,
    change_norm,
    init_state,
    residual_central,
    solve_central,
    step,
)
from treedesign.distributed import solve_distributed
from treedesign.graphs import (InvalidTreeError, TreeIndicator, UndirectedGraph,
                               is_spanning_tree)
from treedesign.mcf import Commodity, Instance, check_feasible, objective, random_instance
from treedesign.projection import project_tree
from treedesign.qp import InfeasibleSubproblemError, QpSolution, QpWorkspace
from treedesign.report import QpCounters

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
    st = init_state(inst)
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
    st = init_state(inst)
    nxt = step(st, inst, cfg, SubproblemRuntime())
    assert np.allclose(nxt.mu, nxt.z - nxt.w, atol=1e-12)
    assert np.allclose(nxt.eta, nxt.y - nxt.u, atol=1e-12)


def test_fixed_point_keeps_duals():
    inst = single_edge_instance()
    cfg = SolverConfig(rho=1.0, tol=1e-4, max_iters=10)
    st = init_state(inst)
    s1 = step(st, inst, cfg, SubproblemRuntime())
    s2 = step(s1, inst, cfg, SubproblemRuntime())
    # the single-edge instance reaches its fixed point after one iteration
    assert np.allclose(s2.w, s1.w, atol=1e-6)
    assert np.allclose(s2.mu, s1.mu, atol=1e-6)
    assert residual_central(s1, s2) < 1e-4


def test_step_tree_invariant_and_dual_exactness():
    inst = random_instance(6, 0.5, seed=2)
    cfg = SolverConfig(rho=0.5, tol=1e-8, max_iters=0)
    st = init_state(inst)
    for _ in range(12):
        prev = st
        st = step(st, inst, cfg, SubproblemRuntime())
        assert is_spanning_tree(inst.graph, st.z)
        assert int(st.z.sum()) == inst.n - 1
        # dual ascent is exactly the stated formula, bitwise
        assert np.array_equal(st.mu, prev.mu + (st.z - st.w))
        assert np.array_equal(st.eta, prev.eta + (st.y - st.u))
        assert set(np.unique(st.y)).issubset({0, 1})


def test_residual_central_examples():
    inst = k3_instance(hop=2)
    st = init_state(inst)
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
        # exactly float: an np.float64 cell would print as np.float64(...)
        assert type(residual) is float
        assert isinstance(qp_iters, int)
        assert qp_status in ("solved", "max-iters")
        assert isinstance(feas, bool)


def test_runtime_key_is_bound_to_instance_and_rho():
    inst = random_instance(6, 0.5, seed=2)
    cfg = SolverConfig(rho=1.0)
    rt = SubproblemRuntime()
    state = step(init_state(inst), inst, cfg, rt)
    step(state, inst, cfg, rt)  # same instance and rho: reused
    assert len(rt.workspaces) == 1
    other_rho = SolverConfig(rho=0.5)
    with pytest.raises(ValueError, match="bound to another"):
        step(init_state(inst), inst, other_rho, rt)
    other_inst = random_instance(6, 0.5, seed=3)
    with pytest.raises(ValueError, match="bound to another"):
        step(init_state(other_inst), other_inst, cfg, rt)


def test_runtime_rejects_nan_residual_of_a_max_iters_solve(monkeypatch, caplog):
    inst = single_edge_instance()
    cfg = SolverConfig(rho=1.0)
    stalled_at = float("nan")

    def stalled_solve(self, q, tol=1e-6, max_iters=20000, warm=None):
        return QpSolution(np.zeros(len(q)), 1e-9, 0.0, stalled_at,
                          max_iters, "max-iters")

    def solve():
        return SubproblemRuntime().solve(None, inst, cfg.rho,
                                         np.zeros(inst.dim_total), cfg)

    monkeypatch.setattr(QpWorkspace, "solve", stalled_solve)
    with pytest.raises(RuntimeError, match="stalled at residual nan"):
        solve()
    # within QP_ACCEPT_RESIDUAL a max-iters solve is kept as degraded
    stalled_at = 5e-5
    assert solve().status == "max-iters"
    assert "accepting degraded inner solve (residual 5.000e-05)" in caplog.text
    stalled_at = 2e-4
    with pytest.raises(RuntimeError, match="stalled at residual 2.000e-04"):
        solve()


@pytest.mark.parametrize("solve, who", [(solve_central, ""),
                                        (solve_distributed, "agent 0: ")],
                         ids=["central", "distributed"])
def test_drivers_raise_on_an_empty_relaxed_set(solve, who):
    # the hop bound is one below the commodity's shortest path of 2 hops
    base = random_instance(8, 0.5, 5)
    inst = Instance(base.graph, base.costs, base.commodities, 1)
    with pytest.raises(InfeasibleSubproblemError,
                       match=f"^{who}continuous subproblem infeasible"):
        solve(inst, SolverConfig())


@pytest.mark.parametrize("solve", [solve_central, solve_distributed],
                         ids=["central", "distributed"])
def test_drivers_raise_on_a_projection_that_is_not_a_tree(solve, monkeypatch):
    # both drivers project through central.primal_step, so one patch
    # reaches every copy
    inst = random_instance(6, 0.5, 2)
    monkeypatch.setattr(central, "project_tree",
                        lambda w, mu, graph: TreeIndicator(np.zeros(graph.m)))
    with pytest.raises(InvalidTreeError,
                       match=r"^iterate 1, copy 0: not a spanning tree$"):
        solve(inst, SolverConfig())
    # only the third projection is bad: the central run's third iterate, or
    # the third agent's tree in the first round, and the error names it
    calls = []

    def third_is_empty(w, mu, graph):
        calls.append(w)
        return (TreeIndicator(np.zeros(graph.m)) if len(calls) == 3
                else project_tree(w, mu, graph))

    monkeypatch.setattr(central, "project_tree", third_is_empty)
    where = "iterate 3, copy 0" if solve is solve_central else "iterate 1, copy 2"
    with pytest.raises(InvalidTreeError, match=f"^{where}: not a spanning tree$"):
        solve(inst, SolverConfig())


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



@pytest.mark.parametrize("solve, n, seed", [(solve_central, 8, 3),
                                            (solve_distributed, 6, 0)],
                         ids=["central", "distributed"])
def test_counters_equal_wrapper_counts(solve, n, seed, monkeypatch):
    # wrappers count what the report's counters total: every solve and its
    # inner iterations, every rho adaptation that moved the penalty, and
    # every polish, kept when it hands back a point other than the loop's
    counts = Counter()
    plain = QpWorkspace.solve, QpWorkspace._polish, QpWorkspace._adapt_rho

    def solve_qp(self, q, **kwargs):
        sol = plain[0](self, q, **kwargs)
        counts["solves"] += 1
        counts["inner_iters"] += sol.iterations
        return sol

    def polish(self, x, z, lam, q):
        out = plain[1](self, x, z, lam, q)
        counts["polish_kept" if out[0] is not x else "polish_rejected"] += 1
        return out

    def adapt_rho(self, r_prim, r_dual):
        before = self._rho_base
        plain[2](self, r_prim, r_dual)
        counts["refactors"] += self._rho_base != before

    # built first: the instance's feasibility probe is a solve of its own
    inst = random_instance(n, 0.5, seed=seed)
    monkeypatch.setattr(QpWorkspace, "solve", solve_qp)
    monkeypatch.setattr(QpWorkspace, "_polish", polish)
    monkeypatch.setattr(QpWorkspace, "_adapt_rho", adapt_rho)
    rep = solve(inst, SolverConfig(rho=0.1, max_iters=40))
    assert rep.counters == QpCounters(**counts)
    assert all(rep.counters)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 60),
       rows=st.integers(1, 4))
def test_change_norm_sums_the_plain_squares(seed, size, rows):
    # each field's term is computed in place with the bits of
    # np.sum((curr - prev) ** 2), and (rows, dim) fields give the bits of
    # each row's norm
    rng = np.random.default_rng(seed)
    prevs, currs = ([CentralState(*(rng.normal(size=size) * 10.0 ** rng.integers(-8, 8)
                                    for _ in range(6))) for _ in range(rows)]
                    for _ in range(2))
    fields = ("mu", "eta", "u", "w")
    stacked = [SimpleNamespace(**{name: np.array([getattr(s, name) for s in states])
                                  for name in fields})
               for states in (prevs, currs)]
    norms = change_norm(*stacked, fields)
    assert norms.shape == (rows,)
    for r, (prev, curr) in enumerate(zip(prevs, currs)):
        total = 0.0
        for name in fields:
            total += float(np.sum((getattr(curr, name) - getattr(prev, name)) ** 2))
        assert change_norm(prev, curr, fields) == np.sqrt(total)
        assert norms[r] == np.sqrt(total)
