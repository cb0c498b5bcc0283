import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treedesign import central
from treedesign import qp as qp_module
from treedesign.central import SolverConfig, solve_central
from treedesign.mcf import (constraint_blocks, random_instance, relaxed_qp,
                            shortest_path_point)
from treedesign.qp import (
    QpSolution,
    QpWorkspace,
    QuadraticProgram,
    WarmStart,
    _clip,
    _matvec,
    factor_kkt,
    solve_qp,
)

from helpers import (
    PlainResidualsMixin,
    ReferenceQpWorkspace,
    ReferenceXspaceWorkspace,
    UnfoldedXspaceWorkspace,
    UnfusedFactorWorkspace,
    UnfusedXspaceWorkspace,
    added_onto,
    assert_same_csc,
    iteration_kkt_reference,
    map_reference,
    polish_reference,
    projected_gradient_qp,
    random_feasible_qp,
    step_operator,
    step_rows_reference,
    superlu_polish_solver,
    workspace_structures_reference,
)


def forced_workspace(qp, operator, cls=QpWorkspace):
    """A ``cls`` workspace that steps with ``operator`` (see
    ``step_operator``): zeroing the map's size cap rules the map out, and a
    small ``qp`` fits it."""
    with pytest.MonkeyPatch.context() as mp:
        if operator == "sparse":
            mp.setattr(QpWorkspace, "XSPACE_MAX_ENTRIES", 0)
        ws = cls(qp)
    assert step_operator(ws) == operator
    return ws


def xspace_workspace(qp):
    return forced_workspace(qp, "xspace")


def sparse_workspace(qp):
    return forced_workspace(qp, "sparse")


def sparse_reference(qp):
    """The sparse factor step's bit-for-bit reference."""
    return forced_workspace(qp, "sparse", ReferenceXspaceWorkspace)


def keep_loop_output(ws):
    """Make ``ws`` return its inner loop's own (x, z, lam), unpolished."""
    ws._polish = lambda x, z, lam, q: (x, z, lam, ws._report_residuals(x, lam, q))
    return ws


def box_qp(d, q, lo, hi):
    return QuadraticProgram(d=np.asarray(d, float), q=np.asarray(q, float),
                            lo=np.asarray(lo, float), hi=np.asarray(hi, float))


@pytest.mark.parametrize("position", range(3))
def test_max_residual_propagates_nan_in_any_position(position):
    residuals = [1e-9, 0.0, 2e-9]
    assert QpSolution(np.zeros(1), *residuals, 1, "solved").max_residual == 2e-9
    residuals[position] = float("nan")
    sol = QpSolution(np.zeros(1), *residuals, 1, "max-iters")
    assert np.isnan(sol.max_residual)


def test_unconstrained_interior():
    s = solve_qp(box_qp([1.0], [-0.3], [0.0], [1.0]))
    assert s.status == "solved"
    assert abs(s.v[0] - 0.3) <= 1e-6


def test_clamped_at_box():
    s = solve_qp(box_qp([1.0], [-1.5], [0.0], [1.0]))
    assert abs(s.v[0] - 1.0) <= 1e-6


def test_symmetric_equality():
    qp = QuadraticProgram(
        d=np.array([2.0, 2.0]), q=np.zeros(2),
        a_eq=sp.csr_matrix(np.array([[1.0, 1.0]])), b_eq=np.array([1.0]),
        lo=np.zeros(2), hi=np.ones(2),
    )
    s = solve_qp(qp)
    assert np.allclose(s.v, [0.5, 0.5], atol=1e-6)


def test_validation_errors():
    with pytest.raises(ValueError):
        QuadraticProgram(d=np.array([-1.0]), q=np.zeros(1))
    with pytest.raises(ValueError):
        QuadraticProgram(d=np.ones(2), q=np.zeros(1))
    # no variables was once accepted, and solve_qp then raised numpy's
    # zero-size reduction error from the residual checks
    with pytest.raises(ValueError, match="at least one variable"):
        QuadraticProgram(d=np.ones(0), q=np.zeros(0))
    with pytest.raises(ValueError):
        QuadraticProgram(d=np.ones(1), q=np.zeros(1),
                         lo=np.array([1.0]), hi=np.array([0.0]))
    # half of a constraint pair once dropped the rows silently (a stray
    # right-hand side) or raised a TypeError (rows without one)
    row = sp.csr_matrix(np.ones((1, 1)))
    for given, missing in (({"b_eq": [1.0]}, "a_eq"), ({"b_in": [1.0]}, "a_in"),
                           ({"a_eq": row}, "b_eq"), ({"a_in": row}, "b_in")):
        with pytest.raises(ValueError, match=f"{missing} is missing$"):
            QuadraticProgram(d=np.ones(1), q=np.zeros(1), **given)
    for given, message in (
            ({"a_eq": np.ones((1, 2)), "b_eq": [1.0]}, "must have n columns"),
            ({"a_in": np.ones((1, 1)), "b_in": [1.0, 2.0]}, "rhs length must match"),
            ({"lo": np.zeros(2)}, "box bounds must have length n"),
            ({"hi": np.ones(2)}, "box bounds must have length n")):
        with pytest.raises(ValueError, match=message):
            QuadraticProgram(d=np.ones(1), q=np.zeros(1), **given)


@pytest.mark.parametrize("name, value", [
    ("a_eq", np.nan), ("a_in", np.nan), ("b_eq", np.nan), ("b_in", np.nan),
    ("lo", np.nan), ("hi", np.nan), ("lo", np.inf), ("hi", -np.inf),
    ("b_in", -np.inf), ("b_eq", np.inf), ("a_in", -np.inf),
])
def test_non_finite_data_is_rejected_by_name(name, value):
    # each of these once passed, and the first rho adaptation then raised
    # "Factor is exactly singular" from SuperLU
    qp, _ = random_feasible_qp(np.random.default_rng(26))
    data = {f: getattr(qp, f) for f in ("d", "q", "a_eq", "b_eq", "a_in", "b_in",
                                         "lo", "hi")}
    data[name] = with_entry(data[name], value)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        QuadraticProgram(**data)


@pytest.mark.parametrize("name, value", [
    ("tol", 0.0), ("tol", -1e-6), ("tol", np.nan), ("tol", np.inf),
    ("max_iters", -5), ("max_iters", 2.5), ("max_iters", None),
])
def test_solve_rejects_a_bad_tolerance_or_cap_by_name(name, value):
    # a negative cap once returned a "max-iters" solution with negative
    # iterations, and a NaN tolerance ran silently to the cap
    qp, _ = random_feasible_qp(np.random.default_rng(25))
    ws, untouched = QpWorkspace(qp), QpWorkspace(qp)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        ws.solve(qp.q, **{name: value})
    assert_same_solution(ws.solve(qp.q), untouched.solve(qp.q))
    # no iteration at all is a valid cap: the start, polished
    assert solve_qp(qp, max_iters=0).iterations == 0


def test_infinite_inequality_bound_is_a_free_row():
    qp, _ = random_feasible_qp(np.random.default_rng(26))
    free = replace(qp, b_in=with_entry(qp.b_in, np.inf))
    dropped = replace(qp, a_in=qp.a_in[1:], b_in=qp.b_in[1:])
    a, b = solve_qp(free, tol=1e-8), solve_qp(dropped, tol=1e-8)
    assert a.status == b.status == "solved"
    assert float(np.max(np.abs(a.v - b.v))) <= 1e-6


@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_matches_projected_gradient_reference(seed):
    # both steps, the product with the map and the solve with the sparse
    # factor, land on the minimizer an independent dual ascent finds
    qp, _ = random_feasible_qp(np.random.default_rng(seed))
    ref = projected_gradient_qp(qp, steps=400_000)
    for make in (xspace_workspace, sparse_workspace):
        s = make(qp).solve(qp.q, tol=1e-6)
        assert s.status == "solved"
        assert s.max_residual <= 1e-6
        assert float(np.max(np.abs(s.v - ref))) <= 1e-4


def test_determinism():
    rng = np.random.default_rng(8)
    qp, _ = random_feasible_qp(rng)
    a = solve_qp(qp)
    b = solve_qp(qp)
    assert np.array_equal(a.v, b.v)
    assert a.iterations == b.iterations


def test_scaling_invariance_of_argmin():
    rng = np.random.default_rng(9)
    qp, _ = random_feasible_qp(rng)
    scaled = QuadraticProgram(
        d=qp.d * 3.7, q=qp.q * 3.7, a_eq=qp.a_eq, b_eq=qp.b_eq,
        a_in=qp.a_in, b_in=qp.b_in, lo=qp.lo, hi=qp.hi,
    )
    a = solve_qp(qp)
    b = solve_qp(scaled)
    assert float(np.max(np.abs(a.v - b.v))) <= 1e-5


def test_objective_certificate():
    # no small feasible step away from the returned point may improve it;
    # directions aim at strictly interior points, so the whole step stays
    # feasible by convexity
    rng = np.random.default_rng(10)
    qp, v0 = random_feasible_qp(rng)
    s = solve_qp(qp)

    def value(v):
        return 0.5 * float(v @ (qp.d * v)) + float(qp.q @ v)

    def strictly_feasible(v):
        return ((v >= qp.lo + 1e-6).all() and (v <= qp.hi - 1e-6).all()
                and (qp.a_in @ v <= qp.b_in - 1e-6).all()
                and float(np.max(np.abs(qp.a_eq @ v - qp.b_eq))) <= 1e-9)

    a_eq = qp.a_eq.toarray()
    _, _, vt = np.linalg.svd(a_eq)
    null_basis = vt[np.linalg.matrix_rank(a_eq):].T
    base = value(s.v)
    tested = 0
    for _ in range(200):
        target = v0 + 0.02 * (null_basis @ rng.normal(size=null_basis.shape[1]))
        if not strictly_feasible(target):
            continue
        direction = target - s.v
        nrm = np.linalg.norm(direction)
        if nrm < 1e-9:
            continue
        cand = s.v + 1e-3 * direction / nrm
        tested += 1
        assert value(cand) >= base - 1e-6
    assert tested > 0


def test_infeasible_detected():
    qp = QuadraticProgram(
        d=np.ones(2), q=np.zeros(2),
        a_eq=sp.csr_matrix(np.array([[1.0, 1.0]])), b_eq=np.array([3.0]),
        lo=np.zeros(2), hi=np.ones(2),
    )
    assert solve_qp(qp, max_iters=20000).status == "infeasible-detected"
    assert xspace_workspace(qp).solve(qp.q, max_iters=20000).status == \
        "infeasible-detected"
    # the factor step's plain-expression reference gives the same bits, for
    # the polished point and for the loop's own
    s = sparse_workspace(qp).solve(qp.q, max_iters=20000)
    assert s.status == "infeasible-detected"
    assert_same_solution(s, sparse_reference(qp).solve(qp.q, max_iters=20000))
    loop, loop_ref = (keep_loop_output(make(qp)).solve(qp.q, max_iters=20000)
                      for make in (sparse_workspace, sparse_reference))
    assert loop.status == "infeasible-detected"
    assert_same_solution(loop, loop_ref)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_warm_start_reuses_structure(seed):
    # a workspace reused with a new linear cost, warm-started from the old
    # solution, lands where a cold one-shot solve of the new cost does
    rng = np.random.default_rng(seed)
    qp, _ = random_feasible_qp(rng)
    ws = QpWorkspace(qp)
    cold = ws.solve(qp.q, tol=1e-8)
    q2 = qp.q + 1e-3 * rng.normal(size=qp.n)
    warm = ws.solve(q2, tol=1e-8, warm=cold)
    qp2 = QuadraticProgram(
        d=qp.d, q=q2, a_eq=qp.a_eq, b_eq=qp.b_eq, a_in=qp.a_in, b_in=qp.b_in,
        lo=qp.lo, hi=qp.hi,
    )
    cold2 = solve_qp(qp2, tol=1e-8)
    assert warm.status == "solved" and cold2.status == "solved"
    assert warm.iterations <= cold.iterations
    assert float(np.max(np.abs(warm.v - cold2.v))) <= 1e-6


def test_workspace_rejects_wrong_length_cost():
    qp, _ = random_feasible_qp(np.random.default_rng(13))
    with pytest.raises(ValueError):
        QpWorkspace(qp).solve(np.zeros(qp.n + 1))


def test_reported_residuals_are_for_original_data():
    rng = np.random.default_rng(12)
    qp, _ = random_feasible_qp(rng)
    # scale one inequality row heavily; reported violations must stay in the
    # original units
    a_in = qp.a_in.toarray()
    a_in[0] *= 1e4
    b_in = qp.b_in.copy()
    b_in[0] *= 1e4
    qp2 = QuadraticProgram(d=qp.d, q=qp.q, a_eq=qp.a_eq, b_eq=qp.b_eq,
                           a_in=sp.csr_matrix(a_in), b_in=b_in,
                           lo=qp.lo, hi=qp.hi)
    s = solve_qp(qp2, tol=1e-6)
    assert s.status == "solved"
    assert float(np.max(np.maximum(a_in @ s.v - b_in, 0.0))) <= 1e-4


def assert_same_solution(fast, ref):
    for name in ("v", "z", "lam"):
        assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
    assert fast.iterations == ref.iterations
    assert fast.polished == ref.polished
    assert fast.status == ref.status
    assert (fast.eq_residual, fast.in_violation, fast.stationarity) == \
        (ref.eq_residual, ref.in_violation, ref.stationarity)


def test_max_iters_exit_is_bit_identical_to_reference():
    # 37 is not a multiple of CHECK_EVERY, so the last check is the
    # it == max_iters one, and x and z leave the loop mid-way between checks
    qp, _ = random_feasible_qp(np.random.default_rng(21))
    fast = sparse_workspace(qp).solve(qp.q, tol=1e-12, max_iters=37)
    ref = sparse_reference(qp).solve(qp.q, tol=1e-12, max_iters=37)
    assert fast.status == "max-iters" and fast.iterations == 37
    assert_same_solution(fast, ref)
    # the polish recomputes its point from the active set alone, so the
    # loop's own output is compared too
    loop, loop_ref = (keep_loop_output(make(qp)).solve(qp.q, tol=1e-12, max_iters=37)
                      for make in (sparse_workspace, sparse_reference))
    assert not loop.polished and loop.iterations == 37
    assert_same_solution(loop, loop_ref)


@pytest.mark.parametrize("loop", ["xspace", "sparse"])
def test_cold_start_is_the_start_at_zero(loop):
    # one start rule: no warm start, and a bare point at zero, give the same
    # bits; a bare point v elsewhere is the start at z = clip(A v), lam = 0
    rng = np.random.default_rng(4)
    qp, v0 = random_feasible_qp(rng)
    cold = forced_workspace(qp, loop).solve(qp.q, tol=1e-8)
    at_zero = forced_workspace(qp, loop).solve(qp.q, tol=1e-8,
                                               warm=WarmStart(np.zeros(qp.n)))
    assert_same_solution(cold, at_zero)
    if loop == "sparse":
        ref = sparse_reference(qp)
        start = SimpleNamespace(v=v0, z=np.clip(ref.a_csr @ v0, ref.l, ref.u),
                                lam=np.zeros(ref.m_total))
        assert_same_solution(sparse_workspace(qp).solve(qp.q, tol=1e-8,
                                                        warm=WarmStart(v0)),
                             ref.solve(qp.q, tol=1e-8, warm=start))


def with_entry(a, value):
    """A copy of ``a`` with its first (stored) entry set to ``value``."""
    a = a.copy()
    (a.data if sp.issparse(a) else a)[0] = value
    return a


@pytest.mark.parametrize("cls", [QpWorkspace, ReferenceQpWorkspace])
@pytest.mark.parametrize("name, malformed", [
    ("lam", lambda s: replace(s, lam=None)),
    ("lam", lambda s: replace(s, lam=s.lam[:-1])),
    ("lam", lambda s: replace(s, lam=with_entry(s.lam, np.nan))),
    ("z", lambda s: replace(s, z=None)),
    ("z", lambda s: replace(s, z=s.z[1:])),
    ("z", lambda s: replace(s, z=with_entry(s.z, np.nan))),
    ("v", lambda s: WarmStart(s.v[:-1])),
    ("v", lambda s: replace(s, v=s.v[:-1])),
    ("v", lambda s: WarmStart(with_entry(s.v, np.nan))),
], ids=["lam-missing", "lam-short", "lam-nan", "z-missing", "z-short", "z-nan",
        "v-short", "v-short-with-state", "v-nan"])
def test_malformed_warm_start_names_the_array(cls, name, malformed):
    inst = random_instance(6, 0.5, 0)
    qp = relaxed_qp(inst, 1.0, np.zeros(inst.dim_total))
    ws, untouched = cls(qp), cls(qp)
    sol = ws.solve(qp.q)
    untouched.solve(qp.q)
    with pytest.raises(ValueError, match=f"^warm start {name} "):
        ws.solve(qp.q, warm=malformed(sol))
    # the raise left the workspace as it was
    assert_same_solution(ws.solve(qp.q, warm=sol), untouched.solve(qp.q, warm=sol))


@pytest.mark.parametrize("polish", ["kept", "rejected"])
def test_returned_arrays_are_not_reused_by_later_solves(polish):
    # a rejected polish hands back the loop's own x and z
    for make in (xspace_workspace, sparse_workspace):
        rng = np.random.default_rng(22)
        qp, _ = random_feasible_qp(rng)
        ws = make(qp)
        if polish == "rejected":
            keep_loop_output(ws)
        a = ws.solve(qp.q)
        assert a.polished == (polish == "kept")
        kept = (a.v.copy(), a.z.copy(), a.lam.copy())
        b = ws.solve(qp.q + 1e-2 * rng.normal(size=qp.n), warm=a)
        c = ws.solve(qp.q - 1e-2 * rng.normal(size=qp.n))
        for old, now in zip(kept, (a.v, a.z, a.lam)):
            assert np.array_equal(old, now)
        assert not np.shares_memory(a.v, a.z)
        for later in (b, c):
            for arr in (later.v, later.z, later.lam):
                assert not any(np.shares_memory(arr, mine)
                               for mine in (a.v, a.z, a.lam))


@pytest.mark.parametrize("position", range(3))
def test_nan_residual_after_polish_is_not_solved(position, monkeypatch):
    # the loop converges, then polish reports a NaN residual: the solve
    # must not stay "solved" whichever residual is NaN
    ws = QpWorkspace(box_qp([1.0], [-0.3], [0.0], [1.0]))
    residuals = [1e-9, 0.0, 2e-9]
    residuals[position] = float("nan")
    monkeypatch.setattr(ws, "_polish",
                        lambda x, z, lam, q: (x, z, lam, tuple(residuals)))
    s = ws.solve(np.array([-0.3]))
    assert s.status == "max-iters"
    assert s.iterations < ws.CHECK_EVERY * 4


@settings(max_examples=25, deadline=None, derandomize=True)
@example(seed=0)
@given(seed=st.integers(0, 2**32 - 1))
def test_fast_path_is_bit_identical_to_reference(seed):
    # the factor step's in-place iteration, the templated KKT matrix, the
    # sparse Schur polish and the reused residuals reproduce the
    # plain-expression step, the sp.bmat iteration matrix, the plain Schur
    # polish and the plain residuals bit for bit, cold and warm, across rho
    # adaptation
    rng = np.random.default_rng(seed)
    qp, _ = random_feasible_qp(rng)
    ws, ref = sparse_workspace(qp), sparse_reference(qp)
    cold = ws.solve(qp.q, tol=1e-8)
    cold_ref = ref.solve(qp.q, tol=1e-8)
    assert_same_solution(cold, cold_ref)
    assert ws._rho_base == ref._rho_base
    if seed == 0:
        # the pinned example adapts rho, so the templated refactor is covered
        assert ws._rho_base != ws.RHO0
    q2 = qp.q + 1e-3 * rng.normal(size=qp.n)
    assert_same_solution(ws.solve(q2, tol=1e-8, warm=cold),
                         ref.solve(q2, tol=1e-8, warm=cold_ref))


class PlainQpWorkspace(PlainResidualsMixin, QpWorkspace):
    """QpWorkspace with its checks, residuals and polish in plain form."""


def relaxed_subproblem(seed):
    """A small relaxed flow subproblem with a random cost and diagonal, and
    the generator that drew it. Its polishes are often rejected."""
    rng = np.random.default_rng(seed)
    inst = random_instance(int(rng.integers(3, 7)), 0.6, int(rng.integers(2**31)),
                           n_commodities=int(rng.integers(1, 3)))
    return relaxed_qp(inst, float(rng.uniform(0.1, 2.0)),
                      rng.normal(size=inst.dim_total)), rng


def polish_outcome(ws, q, **kwargs):
    """Solve, and say how the polish ended: "accepted", "rejected early" (on
    the sign of its multipliers alone) or "rejected"."""
    points = []
    report = ws._report_residuals

    def spy(x, lam, q):
        points.append(x)
        return report(x, lam, q)

    ws._report_residuals = spy
    try:
        sol = ws.solve(q, **kwargs)
    finally:
        del ws._report_residuals
    if len(points) == 1:
        return sol, "rejected early"
    return sol, "accepted" if sol.v is points[1] else "rejected"


@settings(max_examples=25, deadline=None, derandomize=True)
@example(seed=2, relaxed=True)  # rho adapts, the polish is accepted
@example(seed=0, relaxed=True)  # rho adapts, the polish is rejected early
@example(seed=20, relaxed=True)  # rho stays, the polish is rejected early
@given(seed=st.integers(0, 2**32 - 1), relaxed=st.booleans())
def test_loops_are_bit_identical_with_plain_residuals(seed, relaxed):
    # the in-place residuals, the kernel products, the check that skips the
    # dual residual and the polish's early rejection change no bit of any
    # loop's solution, cold or warm
    if relaxed:
        qp, rng = relaxed_subproblem(seed)
        tol = 1e-6
    else:
        rng = np.random.default_rng(seed)
        qp, _ = random_feasible_qp(rng)
        tol = 1e-8
    q2 = qp.q + 1e-3 * rng.normal(size=qp.n)
    pinned = {2: (True, "accepted"), 0: (True, "rejected early"),
              20: (False, "rejected early")}.get(seed) if relaxed else None
    for loop in ("xspace", "sparse"):
        ws = forced_workspace(qp, loop)
        plain = forced_workspace(qp, loop, PlainQpWorkspace)
        cold, outcome = polish_outcome(ws, qp.q, tol=tol)
        cold_plain = plain.solve(qp.q, tol=tol)
        assert_same_solution(cold, cold_plain)
        assert ws._rho_base == plain._rho_base
        if pinned is not None:
            assert (ws._rho_base != ws.RHO0, outcome) == pinned
        assert_same_solution(ws.solve(q2, tol=tol, warm=cold),
                             plain.solve(q2, tol=tol, warm=cold_plain))
        assert ws._rho_base == plain._rho_base


def with_index_dtype(a, dtype):
    a.indices, a.indptr = a.indices.astype(dtype), a.indptr.astype(dtype)
    return a


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("make", [
    pytest.param(lambda: csr([1.5, -2.0, 3.0, 0.0, 1e-300], [0, 2, 1, 2, 0],
                             [0, 2, 2, 3, 3, 5], 3), id="empty-rows"),
    pytest.param(lambda: csr([], [], [0, 0, 0], 4), id="no-entries"),
    pytest.param(lambda: csr([], [], [0], 4), id="no-rows"),
    pytest.param(lambda: csr([], [], [0, 0], 0), id="no-columns"),
    pytest.param(lambda: sp.random(40, 30, density=0.2, format="csr",
                                   random_state=3), id="random"),
])
def test_matvec_equals_the_sparse_product(make, dtype):
    # the kernel called directly gives the bits of scipy's own product; if
    # scipy stops shipping that kernel, the import of treedesign.qp fails
    a = with_index_dtype(make(), dtype)
    assert a.indices.dtype == dtype and a.indptr.dtype == dtype
    x = np.random.default_rng(4).normal(size=a.shape[1])
    x[:1] = -0.0
    out = np.full(a.shape[0], np.nan)  # a stale buffer
    got = _matvec(a, x, out)
    assert got is out
    expected = a @ x
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()
    # the kernel reads x and writes out unchecked, so the helper checks both
    with pytest.raises(ValueError):
        _matvec(a, np.zeros(a.shape[1] + 1), out)
    with pytest.raises(ValueError):
        _matvec(a, x, np.zeros(a.shape[0] + 1))


def test_caller_constraint_matrices_are_not_rewritten():
    # a non-canonical matrix (a repeated column) is stored canonical, as a
    # copy with its duplicates summed
    a_in = csr([1.0, 2.0, 3.0], [0, 0, 1], [0, 3, 3, 3], 2)
    arrays = [arr.copy() for arr in (a_in.indptr, a_in.indices, a_in.data)]
    qp = QuadraticProgram(d=np.ones(2), q=np.zeros(2), a_in=a_in,
                          b_in=np.ones(3), lo=np.zeros(2), hi=np.ones(2))
    assert qp.a_in.has_canonical_format
    assert np.array_equal(qp.a_in.indptr, [0, 2, 2, 2])
    assert np.array_equal(qp.a_in.indices, [0, 1])
    assert np.array_equal(qp.a_in.data, [3.0, 3.0])
    ws = QpWorkspace(qp)
    for before, after in zip(arrays, (a_in.indptr, a_in.indices, a_in.data)):
        assert np.array_equal(before, after)
    assert np.array_equal(ws.a_csr[:3].toarray(), [[1.0, 1.0], [0, 0], [0, 0]])
    assert ws.solve(np.zeros(2)).status == "solved"
    # duplicates are summed before the finiteness check, so a sum that
    # overflows is rejected
    with pytest.raises(ValueError, match="a_in must be finite"):
        QuadraticProgram(d=np.ones(2), q=np.zeros(2),
                         a_in=csr([1e308, 1e308], [0, 0], [0, 2], 2),
                         b_in=np.ones(1))
    # the library's own constraint blocks are canonical, so stored as they
    # are, without a copy
    inst = random_instance(5, 0.6, seed=1)
    qp = relaxed_qp(inst, 1.0, np.zeros(inst.dim_total))
    a_eq, _, a_in, _ = constraint_blocks(inst)
    for stored, block in ((qp.a_eq, a_eq), (qp.a_in, a_in)):
        for name in ("indptr", "indices", "data"):
            assert np.shares_memory(getattr(stored, name), getattr(block, name))


def assert_same_structures(make_qp):
    """QpWorkspace's structures equal, entry for entry, the ``sp.bmat`` and
    ``sp.vstack`` assembly of an identical copy of the problem."""
    ws = QpWorkspace(make_qp())
    for name, expected in workspace_structures_reference(make_qp()).items():
        got = getattr(ws, name)
        if sp.issparse(expected):
            assert_same_csc(got, expected)
        else:
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
    return ws


@settings(max_examples=25, deadline=None, derandomize=True)
@example(seed=0, n=8)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([6, 8, 10]))
def test_workspace_structures_equal_the_sparse_assembly(seed, n):
    assert_same_structures(lambda: random_feasible_qp(np.random.default_rng(seed))[0])
    inst = random_instance(n, 0.5, seed)
    diag = float(np.random.default_rng(seed).uniform(0.0, 3.0))
    assert_same_structures(lambda: relaxed_qp(inst, diag, np.zeros(inst.dim_total)))


def csr(data, indices, indptr, n):
    """A CSR matrix stored exactly as given, duplicates and zeros included."""
    return sp.csr_matrix((np.array(data, float), indices, indptr),
                         shape=(len(indptr) - 1, n))


@pytest.mark.parametrize("rows", [
    pytest.param({"a_in": csr([1.0, -2.0], [0, 2], [0, 2], 3)}, id="empty-a_eq"),
    pytest.param({"a_eq": csr([1.0, -2.0], [0, 2], [0, 2], 3)}, id="empty-a_in"),
    pytest.param({}, id="box-only"),
    pytest.param({"a_eq": csr([1.0, 4.0], [0, 2], [0, 1, 1, 2], 3)},
                 id="all-zero-row"),
    pytest.param({"a_in": csr([2.0, 0.5, -1.0, 3.0], [1, 0, 1, 2], [0, 3, 4], 3)},
                 id="duplicate-entry"),
    pytest.param({"a_eq": csr([1.0, 2.0, -1.0], [1, 0, 1], [0, 3], 3)},
                 id="cancelling-duplicate"),
    pytest.param({"a_in": csr([1.0, 0.0, 3.0], [0, 1, 2], [0, 2, 3], 3)},
                 id="stored-zero"),
    pytest.param({"a_in": csr([0.0], [1], [0, 1, 1], 3)}, id="stored-zero-row"),
])
def test_workspace_structures_of_edge_case_rows(rows):
    def make():
        blocks = {}
        for name, rhs in (("a_eq", "b_eq"), ("a_in", "b_in")):
            if name in rows:
                blocks[name] = rows[name].copy()
                blocks[rhs] = np.ones(rows[name].shape[0])
        return QuadraticProgram(d=np.ones(3), q=np.zeros(3), lo=np.zeros(3),
                                hi=np.ones(3), **blocks)

    ws = assert_same_structures(make)
    # a row with no nonzero entry keeps scale 1.0; stored zeros are dropped
    # from the scaled rows but kept in the reported ones
    empty = np.diff(ws.a_csr.indptr)[:ws.m_eq + ws.m_in] == 0
    assert np.all(ws.row_scale[:ws.m_eq + ws.m_in][empty] == 1.0)
    assert np.all(ws.a_csr.data != 0.0)
    assert ws.solve(np.zeros(3)).status in ("solved", "infeasible-detected")


def test_stored_zero_is_dropped_from_the_scaled_rows():
    a_in = csr([1.0, 0.0, 3.0], [0, 1, 1], [0, 2, 3], 2)
    qp = QuadraticProgram(d=[1.0, 1.0], q=[0.0, 0.0], a_in=a_in, b_in=[1.0, 1.0],
                          lo=[0.0, 0.0], hi=[1.0, 1.0])
    ws = QpWorkspace(qp)
    assert ws.a_csr.nnz == 4
    assert ws._report_rows.nnz == 7


def assert_solves_agree(kkt, rhs, rtol):
    fast = factor_kkt(kkt).solve(rhs)
    colamd = spla.splu(kkt).solve(rhs)  # COLAMD with partial pivoting
    gap = float(np.max(np.abs(fast - colamd)))
    assert gap <= rtol * float(np.max(np.abs(colamd))), gap


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_kkt_factorization_agrees_with_colamd(seed):
    # the symmetric ordering without pivoting solves the iteration's KKT
    # system and the factor branch's polish Schur complement S = A_C D~^-1
    # A_C' + delta I as the default SuperLU factorization does. The
    # iteration matrices are well conditioned at every penalty the
    # adaptation can reach; S is definite through delta = 1e-9 alone along
    # rows that are dependent on the active set, so it is conditioned near
    # 1/delta
    rng = np.random.default_rng(seed)
    qp, _ = random_feasible_qp(rng)
    ws = sparse_workspace(qp)
    size = qp.n + ws.m_total
    for rho_base in (ws.RHO_MIN, 0.1, ws.RHO_MAX):
        rho = np.full(ws.m_total, rho_base)
        rho[ws._is_eq] *= ws.EQ_RHO_FACTOR
        assert_solves_agree(iteration_kkt_reference(ws, rho),
                            rng.normal(size=size), rtol=1e-10)
    sol = ws.solve(qp.q, tol=1e-8)
    active_sets = [ws._is_eq | (np.abs(sol.lam) > 1e-12)]
    active_sets += [ws._is_eq | (rng.random(ws.m_total) < 0.3) for _ in range(2)]
    m_con, delta = ws.m_eq + ws.m_in, ws.POLISH_DELTA
    for active in active_sets:
        a_c = ws.a_csr[:m_con][active[:m_con]]
        d_tilde = qp.d + delta + np.where(active[m_con:], 1.0 / delta, 0.0)
        k = a_c.shape[0]
        s = a_c @ sp.diags(1.0 / d_tilde) @ a_c.T + delta * sp.identity(k)
        assert_solves_agree(s.tocsc(), rng.normal(size=k), rtol=1e-5)


def test_feasible_qp_does_not_stall():
    qp, _ = random_feasible_qp(np.random.default_rng(240 * 7919 + 1))
    s = solve_qp(qp)
    assert s.status == "solved"


def assert_loops_agree(fast, plain, tol):
    assert fast.status == plain.status
    if fast.status == "solved":
        assert fast.max_residual <= tol and plain.max_residual <= tol


def assert_agrees_with_plain_iteration(make, seed):
    # an operator that is the plain (z, lam) iteration of
    # ReferenceQpWorkspace in other rounding: the same exits, cold and warm,
    # across rho adaptation, with iterates that agree to rounding when both
    # run out of iterations
    rng = np.random.default_rng(seed)
    qp, _ = random_feasible_qp(rng)
    fast, plain = make(qp), ReferenceQpWorkspace(qp)
    tol = 1e-8
    cold = fast.solve(qp.q, tol=tol), plain.solve(qp.q, tol=tol)
    assert_loops_agree(*cold, tol)
    if seed == 0:
        assert fast._rho_base != fast.RHO0
    assert fast._rho_base == pytest.approx(plain._rho_base, rel=1e-3)
    q2 = qp.q + 1e-3 * rng.normal(size=qp.n)
    assert_loops_agree(fast.solve(q2, tol=tol, warm=cold[0]),
                       plain.solve(q2, tol=tol, warm=cold[1]), tol)

    # 137 iterations cross the rho adaptation at the fourth check; the
    # reference's own polish hands back (x, z, lam) alone
    pair = keep_loop_output(make(qp)), ReferenceQpWorkspace(qp)
    pair[1]._polish = lambda x, z, lam, q: (x, z, lam)
    capped = [ws.solve(qp.q, tol=1e-15, max_iters=137) for ws in pair]
    assert [sol.status for sol in capped] == ["max-iters"] * 2
    if seed == 0:
        assert pair[0]._rho_base != pair[0].RHO0
    for name in ("v", "z", "lam"):
        a, b = (getattr(sol, name) for sol in capped)
        assert float(np.max(np.abs(a - b))) <= 1e-8 * max(1.0, float(np.max(np.abs(b))))

    # an inequality row that cuts off the equality row it copies
    bad = QuadraticProgram(
        d=qp.d, q=qp.q, a_eq=qp.a_eq, b_eq=qp.b_eq,
        a_in=sp.vstack([qp.a_in, qp.a_eq[0]]),
        b_in=np.concatenate([qp.b_in, qp.b_eq[:1] - 0.5]), lo=qp.lo, hi=qp.hi,
    )
    assert_loops_agree(make(bad).solve(bad.q),
                       ReferenceQpWorkspace(bad).solve(bad.q), 1e-6)


@settings(max_examples=25, deadline=None, derandomize=True)
@example(seed=0)
@given(seed=st.integers(0, 2**32 - 1))
def test_xspace_loop_agrees_with_plain_iteration(seed):
    assert_agrees_with_plain_iteration(xspace_workspace, seed)


@settings(max_examples=25, deadline=None, derandomize=True)
@example(seed=0)
@given(seed=st.integers(0, 2**32 - 1))
def test_sparse_factor_step_agrees_with_plain_iteration(seed):
    assert_agrees_with_plain_iteration(sparse_workspace, seed)


@pytest.mark.parametrize("operator", ["xspace", "sparse"])
def test_every_step_checks_on_one_cadence(operator, monkeypatch):
    # one stop policy around both steps: a check every CHECK_EVERY steps
    # and at max_iters, and a re-base, which writes the map's offset, at
    # the start and after each check that adapts rho
    qp, _ = random_feasible_qp(np.random.default_rng(0))
    ws = forced_workspace(qp, operator)
    checks, offsets = [], []
    check, set_map_offset = ws._check, ws._set_map_offset
    monkeypatch.setattr(ws, "_check",
                        lambda it, *args: checks.append(it) or check(it, *args))
    monkeypatch.setattr(ws, "_set_map_offset",
                        lambda q: offsets.append(q) or set_map_offset(q))
    has_map = ws._map is not None
    assert ws.solve(qp.q, tol=1e-15, max_iters=60).status == "max-iters"
    assert checks == [25, 50, 60]
    assert len(offsets) == has_map
    # 290 steps cross the adapting checks at 100 and 200, and end on a
    # check that cannot adapt, so every adaptation is followed by steps
    checks.clear()
    offsets.clear()
    refactors = ws.refactors
    assert ws.solve(qp.q, tol=1e-15, max_iters=290).status == "max-iters"
    assert checks == list(range(25, 290, 25)) + [290]
    adapted = ws.refactors - refactors
    assert adapted
    assert len(offsets) == (1 + adapted) * has_map


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make",
                         [xspace_workspace, sparse_workspace],
                         ids=["xspace", "sparse"])
def test_non_finite_cost_is_rejected_and_leaves_the_workspace_intact(make, bad):
    qp, _ = random_feasible_qp(np.random.default_rng(23))
    q_bad = qp.q.copy()
    q_bad[3] = bad
    with pytest.raises(ValueError):
        QuadraticProgram(d=qp.d, q=q_bad)
    ws = make(qp)
    with pytest.raises(ValueError):
        ws.solve(q_bad)
    assert_same_solution(ws.solve(qp.q), make(qp).solve(qp.q))


@pytest.mark.parametrize("seed", range(6))
def test_dense_map_is_the_scaled_inverse_kkt_matrix(seed):
    # the dense map V, built from the transposed first n columns of K^-1,
    # is alpha [K_xz, -K_xx q] read off the x rows of all of K^-1 at every
    # penalty rho adaptation reaches, offset included; the equality rows'
    # penalties run from 1e-3 to 1e6
    qp, _ = random_feasible_qp(np.random.default_rng(seed))
    ws = xspace_workspace(qp)
    for rho_base in (ws.RHO_MIN, ws.RHO0, 1.0, ws.RHO_MAX):
        ws._refactor(rho_base)
        ws._set_map_offset(qp.q)
        ref = map_reference(ws, qp.q)
        gap = float(np.max(np.abs(ws._map - ref)))
        assert gap <= 1e-11 * max(1.0, float(np.max(np.abs(ref)))), (rho_base, gap)


def test_refactors_rewrite_the_one_kkt_matrix():
    # every factorization writes its -1/rho into the one KKT matrix, which
    # then is the sp.bmat iteration matrix at the workspace's penalty, also
    # after a failed factorization left its own diagonal there
    qp, _ = random_feasible_qp(np.random.default_rng(25))
    for make in (xspace_workspace, sparse_workspace):
        ws = make(qp)
        kkt = ws._kkt
        for rho_base in (1.0, ws.RHO_MAX, float("nan"), ws.RHO_MIN):
            if np.isnan(rho_base):
                with pytest.raises(RuntimeError):
                    ws._refactor(rho_base)
                continue
            ws._refactor(rho_base)
            assert ws._kkt is kkt and ws._rho_base == rho_base
            assert_same_csc(ws._kkt, iteration_kkt_reference(ws, ws.rho))


def test_failed_refactor_keeps_the_old_penalty():
    # a factorization that raises must leave rho, the factor and the map
    # as they were, so later solves are those of an untouched workspace
    qp, _ = random_feasible_qp(np.random.default_rng(24))
    ws = xspace_workspace(qp)
    rho_base, rho, lu, fold = ws._rho_base, ws.rho, ws._lu, ws._fold.copy()
    # a refactor writes every column of the map but the last, the offset
    # each solve writes
    v_map = ws._map[:, :-1].copy()
    with pytest.raises(RuntimeError):
        ws._refactor(float("nan"))
    assert ws._rho_base == rho_base and ws.rho is rho and ws._lu is lu
    assert np.array_equal(ws._map[:, :-1], v_map)
    assert np.array_equal(ws._fold, fold)
    assert_same_solution(ws.solve(qp.q), xspace_workspace(qp).solve(qp.q))


@pytest.mark.parametrize("n, commodities, seeds, loop",
                         [(6, None, 5, "xspace"), (8, None, 5, "xspace"),
                          (10, 2, 5, "xspace"), (30, None, 1, "sparse")],
                         ids=["dist-n6", "dist-n8", "sweep-n10", "n30"])
def test_loop_is_chosen_by_structure_size(n, commodities, seeds, loop,
                                          monkeypatch):
    # the distributed n=6 subproblems of acceptance criterion 3, the
    # benchmark's distributed n=8 ones and its central n=10 ones, with two
    # commodities, step with the map V, and n=30 subproblems with the
    # sparse factor. The polish follows the same rule: only a workspace
    # without the map factors its k x k Schur complement, k the active
    # constraint rows, with factor_kkt
    factored = []
    monkeypatch.setattr(qp_module, "factor_kkt",
                        lambda kkt: factored.append(kkt) or factor_kkt(kkt))
    for seed in range(seeds):
        inst = random_instance(n, 0.5, seed=seed, n_commodities=commodities)
        q = np.random.default_rng(seed).normal(size=inst.dim_total)
        ws = QpWorkspace(relaxed_qp(inst, 1.0, q))
        assert step_operator(ws) == loop
        sol = keep_loop_output(ws).solve(q, max_iters=50)
        factored.clear()
        QpWorkspace._polish(ws, sol.v, sol.z, sol.lam, q)
        # the equality rows are always active, so every polish factors
        assert len(factored) == (loop == "sparse")
        active = ws._is_eq | (np.abs(sol.lam) > 1e-12)
        k = np.count_nonzero(active[:ws.m_eq + ws.m_in])
        assert all(s.shape == (k, k) for s in factored)


def assert_polish_agrees_with_superlu(ws, sol, q):
    """The workspace's polish of a loop's own point against the SuperLU
    polish of the factor branch: the same keep or reject decision, unless
    the kept candidate's worst residual is strictly below SuperLU's, and
    the same kept x within 1e-12. Says whether the polish was kept."""
    x = sol.v
    got = QpWorkspace._polish(ws, x, sol.z, sol.lam, q)
    ref = polish_reference(ws, x, sol.z, sol.lam, q, solver=superlu_polish_solver)
    kept, ref_kept = got[0] is not x, ref[0] is not x
    if kept != ref_kept:
        assert kept and np.max(got[3]) < ref[4], (np.max(got[3]), ref[4])
    elif kept:
        assert float(np.max(np.abs(got[0] - ref[0]))) <= 1e-12
    return kept


def loop_points(qp, loop, **kwargs):
    """A workspace of ``qp`` on ``loop`` and its loop's own solutions: one
    converged, one stopped early."""
    ws = keep_loop_output(forced_workspace(qp, loop))
    return ws, [ws.solve(qp.q, **kwargs), ws.solve(qp.q, tol=1e-15, max_iters=60)]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), relaxed=st.booleans())
def test_schur_polish_agrees_with_superlu_polish(seed, relaxed):
    # every branch polishes through the Schur complement of the active
    # rows, dense or sparse, and SuperLU's factor of the full polish KKT
    # matrix solves the same regularized system
    if relaxed:
        qp, _ = relaxed_subproblem(seed)
    else:
        qp, _ = random_feasible_qp(np.random.default_rng(seed))
    for loop in ("xspace", "sparse"):
        ws, sols = loop_points(qp, loop, tol=1e-8)
        for sol in sols:
            assert_polish_agrees_with_superlu(ws, sol, qp.q)


@pytest.mark.parametrize("loop", ["xspace", "sparse"])
def test_schur_polish_of_a_duplicated_equality_row(loop):
    # a repeated equality row makes the active constraint rows rank
    # deficient; the delta term keeps their Schur complement definite
    for seed in range(3):
        qp, _ = random_feasible_qp(np.random.default_rng(seed))
        dup = replace(qp, a_eq=sp.vstack([qp.a_eq, qp.a_eq[0]], format="csr"),
                      b_eq=np.concatenate([qp.b_eq, qp.b_eq[:1]]))
        ws, (sol, capped) = loop_points(dup, loop, tol=1e-8)
        assert sol.status == "solved"
        assert ws._schur_solver(ws._is_eq | (np.abs(sol.lam) > 1e-12)) is not None
        assert assert_polish_agrees_with_superlu(ws, sol, dup.q)
        assert_polish_agrees_with_superlu(ws, capped, dup.q)


@pytest.mark.parametrize("loop", ["xspace", "sparse"])
def test_schur_polish_of_a_box_only_active_set(loop):
    # no constraint row is active, so nothing is factored: the box rows
    # alone are eliminated
    rng = np.random.default_rng(3)
    n = 8
    qp = QuadraticProgram(d=rng.uniform(1.0, 2.0, n), q=rng.normal(0.0, 3.0, n),
                          a_in=sp.csr_matrix(np.ones((1, n))), b_in=[n + 1.0],
                          lo=np.zeros(n), hi=np.ones(n))
    ws, (sol, _) = loop_points(qp, loop, tol=1e-8)
    active = ws._is_eq | (np.abs(sol.lam) > 1e-12)
    assert not active[:ws.m_in].any() and active[ws.m_in:].sum() >= 2
    assert assert_polish_agrees_with_superlu(ws, sol, qp.q)


@pytest.mark.parametrize("n, commodities, seed",
                         [(8, None, 1), (8, None, 2), (10, 2, 0), (20, None, 0),
                          (20, None, 1), (20, None, 2), (30, None, 0)])
def test_schur_polish_falls_back_on_the_zero_diagonal_probe(n, commodities, seed,
                                                            monkeypatch):
    # the feasibility probe has no diagonal, so S is definite only through
    # delta, and its redundant conservation rows make it singular to
    # working precision: LAPACK reports it on the dense rows, and on the
    # factor branch (n >= 20) SuperLU meets pivots that are not positive.
    # Either way the loop's point stays, with no warning on the way. Only
    # on n=20, seed 1 does the sparse S factor, and the polish is rejected
    sparse, factors = n >= 20, (n, seed) == (20, 1)
    factored = []
    monkeypatch.setattr(qp_module, "factor_kkt",
                        lambda kkt: factored.append(factor_kkt(kkt)) or factored[-1])
    inst = random_instance(n, 0.5, seed, n_commodities=commodities)
    probe = relaxed_qp(inst, 0.0, np.zeros(inst.dim_total))
    ws = keep_loop_output(QpWorkspace(probe))
    assert (step_operator(ws) == "sparse") == sparse
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = ws.solve(probe.q, tol=1e-6, warm=WarmStart(shortest_path_point(inst)))
        assert sol.status == "solved"
        factored.clear()
        solver = ws._schur_solver(ws._is_eq | (np.abs(sol.lam) > 1e-12))
        assert (solver is not None) == factors
        assert len(factored) == sparse
        if sparse:
            assert (factored[0].U.diagonal() <= 0.0).any() != factors
        assert not assert_polish_agrees_with_superlu(ws, sol, probe.q)


# every value the clip can meet: NaN, signed zeros, infinite bounds and finite
# values, plus equal bounds drawn separately
_CLIP_VALUES = st.sampled_from([np.nan, -0.0, 0.0, -np.inf, np.inf, 1.0, -1.0]) \
    | st.floats(width=64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(triples=st.lists(st.tuples(_CLIP_VALUES, _CLIP_VALUES, _CLIP_VALUES),
                        max_size=70),
       equal=st.booleans(), offset=st.integers(0, 3))
def test_clip_ufunc_is_max_then_min_bit_for_bit(triples, equal, offset):
    # the inner loops clip with one call of the ufunc np.clip runs, into an
    # out that is not the input, often a view into a larger state; it must
    # give the bits of np.maximum then np.minimum (the form it replaced, the
    # second call in place) and of np.clip, at every length
    w, l, u = (np.array(col, dtype=float) for col in zip(*triples)) \
        if triples else np.zeros((3, 0))
    if equal:
        u = l.copy()
    state = np.full(len(w) + 2 * offset, 7.0)
    out = state[offset:offset + len(w)]
    _clip(w, l, u, out)
    two_calls = np.empty(len(w))
    np.maximum(w, l, out=two_calls)
    np.minimum(two_calls, u, out=two_calls)
    for other in (two_calls, np.minimum(np.maximum(w, l), u), np.clip(w, l, u),
                  _clip(w, l, u)):
        assert out.tobytes() == other.tobytes()
    assert np.all(state[:offset] == 7.0) and np.all(state[offset + len(w):] == 7.0)


def assert_plain_step_on_cells(n, commodities, seed, rho, operator, monkeypatch,
                               reference=ReferenceXspaceWorkspace):
    # every subproblem of 12 central steps, solved by the loop and by its
    # plain-expression reference, bit for bit; these runs warm-start, adapt
    # rho and both keep and reject polishes. The unfolded and unfused
    # references round differently, so their solutions agree only within tol
    solves = []

    class Twin(QpWorkspace):
        def __init__(self, qp):
            super().__init__(qp)
            assert step_operator(self) == operator
            self.ref = reference(qp)

        def solve(self, q, tol=1e-6, max_iters=20000, warm=None):
            sol = super().solve(q, tol=tol, max_iters=max_iters, warm=warm)
            ref = self.ref.solve(q, tol=tol, max_iters=max_iters, warm=warm)
            if reference in (UnfoldedXspaceWorkspace, UnfusedXspaceWorkspace,
                             UnfusedFactorWorkspace):
                assert sol.status == ref.status == "solved"
                assert float(np.max(np.abs(sol.v - ref.v))) <= tol
            else:
                assert_same_solution(sol, ref)
                assert self._rho_base == self.ref._rho_base
            solves.append(sol)
            return sol

    monkeypatch.setattr(central, "QpWorkspace", Twin)
    inst = random_instance(n, 0.5, seed=seed, n_commodities=commodities)
    counters = solve_central(inst, SolverConfig(rho=rho, max_iters=12)).counters
    assert len(solves) == counters.solves == 12
    assert counters.refactors and counters.polish_kept and counters.polish_rejected


@pytest.mark.parametrize("seed, rho", [(0, 0.1), (1, 10.0), (4, 0.1)])
def test_xspace_loop_is_its_plain_step_on_n10_cells(seed, rho, monkeypatch):
    # n=10 instances with two commodities run the map V
    assert_plain_step_on_cells(10, 2, seed, rho, "xspace", monkeypatch)


@pytest.mark.parametrize("seed, rho", [(0, 0.1), (1, 10.0), (4, 0.1)])
def test_xspace_loop_agrees_with_its_unfolded_step_on_n10_cells(seed, rho, monkeypatch):
    # the map with V's box-row columns, fed [x; 2p - w; 1], is the slow
    # path the folded map replaced
    assert_plain_step_on_cells(10, 2, seed, rho, "xspace", monkeypatch,
                               reference=UnfoldedXspaceWorkspace)


@pytest.mark.parametrize("seed, rho", [(0, 0.1), (5, 1.0), (1, 10.0)])
def test_xspace_loop_agrees_with_its_unfused_step_on_n10_cells(seed, rho, monkeypatch):
    # the update from one product with the dense constraint rows and
    # separate adds is the slow path the fused kernel call replaced
    assert_plain_step_on_cells(10, 2, seed, rho, "xspace", monkeypatch,
                               reference=UnfusedXspaceWorkspace)


def n10_cell_workspace(seed, rho=1.0):
    inst = random_instance(10, 0.5, seed=seed, n_commodities=2)
    q = np.random.default_rng(seed).normal(size=inst.dim_total)
    ws = QpWorkspace(relaxed_qp(inst, rho, q))
    assert step_operator(ws) == "xspace"
    return ws


@pytest.mark.parametrize("seed", range(3))
def test_step_kernel_adds_onto_its_output_in_place(seed):
    # the map step's one kernel call reads the tail [x; alpha x~; p] of its
    # state and adds B times it into the head [w; x]: scipy's csr_matvec
    # must add each row's terms onto the output in stored order and store
    # each row once, so that the overlap at x reads what a copy would
    ws = n10_cell_workspace(seed)
    n, m_total = ws.n, ws.m_total
    b = ws._step_rows
    state = np.random.default_rng(seed).normal(size=2 * (m_total + n))
    state[::7] = 0.0
    state[3::11] = -0.0
    head, tail = state[:m_total + n].copy(), state[m_total:].copy()
    in_place = state.copy()
    qp_module._sparsetools.csr_matvec(*b.shape, b.indptr, b.indices, b.data,
                                      in_place[m_total:], in_place[:m_total + n])
    copied = head.copy()
    qp_module._sparsetools.csr_matvec(*b.shape, b.indptr, b.indices, b.data,
                                      tail, copied)
    assert in_place[:m_total + n].tobytes() == copied.tobytes()
    assert copied.tobytes() == added_onto(head, b, tail).tobytes()
    # the tail past x is only read
    assert in_place[m_total + n:].tobytes() == state[m_total + n:].tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_step_rows_equal_the_sparse_assembly(seed):
    # B = [[0, A, -alpha I_m], [-alpha I_n, I_n, 0]] is built by index
    # arithmetic, entry for entry and in index order what sp.bmat gives,
    # on the n=10 cells and on small structures with and without the map
    qp, _ = random_feasible_qp(np.random.default_rng(seed))
    for ws in (n10_cell_workspace(seed), xspace_workspace(qp),
               sparse_workspace(qp)):
        assert_same_csc(ws._step_rows, step_rows_reference(ws))


@pytest.mark.parametrize("rho", [0.1, 1.0, 10.0])
def test_folded_map_box_columns_are_its_x_columns(rho):
    # the box rows of A are the identity: eliminating them leaves one
    # reduced KKT system, whose x block of the inverse gives V_x = alpha
    # sigma K_xx and V_box = alpha K_x,box = (rho_b / sigma) V_x, so the
    # folded map keeps V_box and feeds it eps x, eps = sigma / rho_b; it
    # holds at every penalty rho adaptation reaches
    for seed in range(3):
        inst = random_instance(10, 0.5, seed=seed, n_commodities=2)
        q = np.random.default_rng(seed).normal(size=inst.dim_total)
        ws = QpWorkspace(relaxed_qp(inst, rho, q))
        assert step_operator(ws) == "xspace"
        n, m_total = ws.n, ws.m_total
        assert ws._map.shape == (n, m_total + 1)
        bases = []
        for max_iters in (0, 200):
            ws.solve(q, tol=1e-15, max_iters=max_iters)
            bases.append(ws._rho_base)
            v_x = ws.ALPHA * ws.SIGMA * ws._lu.solve(np.eye(n + m_total, n))[:n]
            v_box = ws._map[:, m_total - n:m_total]
            eps = ws.SIGMA / ws._rho_base
            assert np.array_equal(ws._fold, np.repeat([eps, 0.0, 2.0], [n, n, m_total]))
            gap = float(np.max(np.abs(v_x - eps * v_box)))
            assert gap <= 1e-12 * float(np.max(np.abs(v_x))), (seed, bases, gap)
        # the second solve adapted rho at least once
        assert bases[0] != bases[1]


@pytest.mark.parametrize("seed, rho", [(2, 0.1), (3, 1.0)])
def test_sparse_factor_step_is_its_plain_step_on_n20_cells(seed, rho, monkeypatch):
    # n=20 instances step with the sparse factor
    assert_plain_step_on_cells(20, None, seed, rho, "sparse", monkeypatch)


@pytest.mark.parametrize("seed, rho", [(2, 0.1), (3, 1.0)])
def test_sparse_factor_step_agrees_with_its_unfused_step_on_n20_cells(seed, rho,
                                                                     monkeypatch):
    # alpha z~ = alpha (v + nu/rho) from the solve, and separate updates of
    # w and x, are the slow path the map's update replaced
    assert_plain_step_on_cells(20, None, seed, rho, "sparse", monkeypatch,
                               reference=UnfusedFactorWorkspace)
