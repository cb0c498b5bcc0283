"""Shared test fixtures: reference oracles and small deterministic generators."""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from treedesign.central import SubproblemRuntime
from treedesign.distributed import AgentState, init_world
from treedesign.graphs import UndirectedGraph, generate_erdos_renyi, indicator_vector
from treedesign.mcf import Commodity, FeasibilityReport, Instance, half_incident_costs
from treedesign.projection import project_binary, project_tree
from treedesign.qp import QpSolution, QpWorkspace, QuadraticProgram, factor_kkt


def k3():
    return UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])


def k3_instance(costs=(1.0, 2.0, 3.0), commodity=(0, 2), hop=2):
    """K3 with costs assigned per edge tuple: (0,1), (1,2), (0,2)."""
    g = k3()
    by_edge = {(0, 1): costs[0], (1, 2): costs[1], (0, 2): costs[2]}
    ordered = [by_edge[e] for e in g.edges]
    return Instance(g, ordered, [Commodity(*commodity)], hop)


def edge_weights(g, mapping):
    """Weight vector from an {edge tuple: value} mapping."""
    return np.array([mapping[e] for e in g.edges], dtype=float)


def read_csv(path):
    """Header tuple and rows of raw string cells of a CSV the CLI wrote."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = tuple(lines[0].split(","))
    return header, [tuple(line.split(",")) for line in lines[1:]]


def random_connected_graph(rng, n_low=3, n_high=8, p=0.6):
    n = int(rng.integers(n_low, n_high))
    return generate_erdos_renyi(n, p, int(rng.integers(10**6)))


def random_feasible_qp(rng, dim_high=41):
    """Feasible diagonal QP plus its strictly interior certificate point.

    Diagonal entries are at least 1 so the reference step size below is a
    valid (conservative) dual step.
    """
    n = int(rng.integers(5, dim_high))
    d = rng.uniform(1.0, 5.0, n)
    q = rng.normal(0.0, 1.0, n)
    v0 = rng.uniform(0.2, 0.8, n)
    m_eq = int(rng.integers(1, min(8, n)))
    m_in = int(rng.integers(1, 15))
    a_eq = rng.normal(0.0, 1.0, (m_eq, n))
    a_in = rng.normal(0.0, 1.0, (m_in, n))
    qp = QuadraticProgram(
        d=d,
        q=q,
        a_eq=sp.csr_matrix(a_eq),
        b_eq=a_eq @ v0,
        a_in=sp.csr_matrix(a_in),
        b_in=a_in @ v0 + rng.uniform(0.05, 0.5, m_in),
        lo=np.zeros(n),
        hi=np.ones(n),
    )
    return qp, v0


def projected_gradient_qp(qp, steps=10**6, stop_change=1e-15):
    """Long-run projected-gradient reference for diagonal QPs.

    Ascends the dual of the box-constrained Lagrangian: for fixed
    multipliers the inner minimizer is a componentwise clamp, the multiplier
    step is 1/(max d + ||A||^2), and inequality multipliers are projected
    onto the nonnegative orthant. Independent of the operator-splitting
    solver under test.
    """
    d, q = qp.d, qp.q
    a_eq = qp.a_eq.toarray()
    a_in = qp.a_in.toarray()
    b_eq, b_in = qp.b_eq, qp.b_in
    stacked = np.vstack([a_eq, a_in]) if (a_eq.size or a_in.size) \
        else np.zeros((0, qp.n))
    norm = np.linalg.norm(stacked, 2) if stacked.size else 0.0
    step = 1.0 / (float(d.max()) + norm**2)
    lam_eq = np.zeros(len(b_eq))
    lam_in = np.zeros(len(b_in))

    def primal(le, li):
        return np.clip(-(q + a_eq.T @ le + a_in.T @ li) / d, qp.lo, qp.hi)

    for _ in range(steps):
        v = primal(lam_eq, lam_in)
        le_new = lam_eq + step * (a_eq @ v - b_eq)
        li_new = np.maximum(0.0, lam_in + step * (a_in @ v - b_in))
        moved = 0.0
        if len(le_new):
            moved = max(moved, float(np.max(np.abs(le_new - lam_eq))))
        if len(li_new):
            moved = max(moved, float(np.max(np.abs(li_new - lam_in))))
        lam_eq, lam_in = le_new, li_new
        if moved < stop_change:
            break
    return primal(lam_eq, lam_in)


def assert_same_csc(a, b):
    """``a`` and ``b`` store the same arrays, index dtype included."""
    assert a.format == b.format and a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def row_scales_reference(mat):
    """Per-row infinity norms (1.0 for empty rows)."""
    if mat.shape[0] == 0:
        return np.ones(0)
    scales = abs(mat).max(axis=1).toarray().ravel()
    scales[scales == 0.0] = 1.0
    return scales


def workspace_structures_reference(qp, delta=QpWorkspace.POLISH_DELTA):
    """QpWorkspace's structural arrays assembled with ``sp.bmat`` and
    ``sp.vstack``, keyed by attribute name."""
    n, m_eq, m_in = qp.n, qp.a_eq.shape[0], qp.a_in.shape[0]
    scale_eq = row_scales_reference(qp.a_eq)
    scale_in = row_scales_reference(qp.a_in)
    a_rows = sp.vstack(
        [
            sp.diags(1.0 / scale_eq) @ qp.a_eq if m_eq else qp.a_eq,
            sp.diags(1.0 / scale_in) @ qp.a_in if m_in else qp.a_in,
            sp.identity(n, format="csr"),
        ],
        format="csc",
    )
    m_total = m_eq + m_in + n
    template = sp.bmat(
        [
            [sp.diags(qp.d + delta), a_rows.T],
            [a_rows, sp.diags(np.full(m_total, -delta))],
        ],
        format="csc",
    )
    template_cols = np.repeat(np.arange(n + m_total), np.diff(template.indptr))
    eye = sp.identity(n, format="csr")
    a_csr = a_rows.tocsr()
    return {
        "a_csr": a_csr,
        "a_t": a_csr.T.tocsr(),
        "row_scale": np.concatenate([scale_eq, scale_in, np.ones(n)]),
        "_template": template,
        # an entry survives a polish cut when its row and its column do
        "_template_key": np.maximum(template.indices, template_cols),
        "_template_diag": np.flatnonzero(template.indices == template_cols),
        "_report_rows": sp.vstack([qp.a_eq, qp.a_in, eye, -eye], format="csr"),
    }


def flow_rhs(inst, f):
    """Conservation right-hand side for commodity f, one entry per node."""
    rhs = np.zeros(inst.n)
    rhs[inst.commodities[f].origin] = -1.0
    rhs[inst.commodities[f].dest] = 1.0
    return rhs


def constraint_blocks_reference(inst):
    """The relaxed set's (a_eq, b_eq, a_in, b_in), built row by row."""
    n, m, nf = inst.n, inst.m, inst.n_commodities
    arcs = inst.arcs
    total = inst.dim_total

    rows, cols, vals = [], [], []
    b_eq = np.zeros(n * nf)
    for f in range(nf):
        rhs = flow_rhs(inst, f)
        for i in range(n):
            r = f * n + i
            b_eq[r] = rhs[i]
            for a, _ in arcs.in_arcs(i):
                rows.append(r)
                cols.append(inst.u_index(f, a))
                vals.append(1.0)
            for a, _ in arcs.out_arcs(i):
                rows.append(r)
                cols.append(inst.u_index(f, a))
                vals.append(-1.0)
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(n * nf, total))

    rows, cols, vals = [], [], []
    n_coupling = m * nf
    b_in = np.zeros(n_coupling + nf)
    r = 0
    for f in range(nf):
        for e in range(m):
            rows += [r, r, r]
            cols += [inst.u_index(f, e), inst.u_index(f, e + m), e]
            vals += [1.0, 1.0, -1.0]
            r += 1
    for f in range(nf):
        for a in range(inst.n_arcs):
            rows.append(r)
            cols.append(inst.u_index(f, a))
            vals.append(1.0)
        b_in[r] = float(inst.hop_bound)
        r += 1
    a_in = sp.csr_matrix((vals, (rows, cols)), shape=(n_coupling + nf, total))
    return a_eq, b_eq, a_in, b_in


def check_flows_reference(inst, z, y):
    """``mcf.check_flows`` written as loops over commodities, nodes and
    edges, with the same messages in the same order."""
    violations = []
    zv = indicator_vector(z, inst.dim_w)
    yv = np.asarray(y)
    if len(yv) != inst.dim_u:
        raise ValueError("flow vector has wrong length")
    if not np.isin(yv, (0, 1)).all():
        violations.append("flows are not binary")
    yv = yv.astype(np.int64)
    arcs = inst.arcs
    for f in range(inst.n_commodities):
        uf = yv[f * inst.n_arcs:(f + 1) * inst.n_arcs]
        rhs = flow_rhs(inst, f)
        for i in range(inst.n):
            net = sum(int(uf[a]) for a, _ in arcs.in_arcs(i)) \
                - sum(int(uf[a]) for a, _ in arcs.out_arcs(i))
            if net != int(rhs[i]):
                violations.append(
                    f"conservation violated for commodity {f} at node {i}: "
                    f"net {net} != {int(rhs[i])}"
                )
        for e in range(inst.m):
            if uf[e] + uf[e + inst.m] > zv[e]:
                violations.append(
                    f"coupling violated for commodity {f} on edge {e}"
                )
        used = int(uf.sum())
        if used > inst.hop_bound:
            violations.append(
                f"hop bound violated for commodity {f}: {used} > {inst.hop_bound}"
            )
    return FeasibilityReport(not violations, violations)


def iteration_kkt_reference(ws, rho):
    """The iteration's KKT matrix at penalties ``rho``, assembled directly."""
    a = ws.a_csr.tocsc()
    return sp.bmat(
        [
            [sp.diags(ws.qp.d + ws.SIGMA), a.T],
            [a, sp.diags(-1.0 / rho)],
        ],
        format="csc",
    )


def polish_kkt_reference(ws, active):
    """The polish KKT matrix assembled directly from the active rows."""
    a_act = ws.a_csr[active]
    delta = ws.POLISH_DELTA
    return sp.bmat(
        [
            [sp.diags(ws.qp.d + delta), a_act.T],
            [a_act, sp.diags(np.full(a_act.shape[0], -delta))],
        ],
        format="csc",
    )


class PlainResidualsMixin:
    """QpWorkspace's periodic check, residuals, infeasibility test and polish
    as plain expressions, kept as a reference.

    Every sparse product is an ``@``, every norm an ``np.max``, each check
    computes both residuals, and the polish cuts its KKT matrix with
    ``sp.bmat`` and computes every residual of the polished point before it
    decides. Mixed in ahead of QpWorkspace, it must change no bit of any
    solve of any loop.
    """

    def _check(self, it, x, z, lam, q, tol, window, lam_snapshot):
        r_prim, r_dual = self._residuals(x, z, lam, q)
        if r_prim <= tol and r_dual <= tol:
            return "solved"
        window.append(r_prim)
        if len(window) > 12:
            window.pop(0)
        if self._primal_stalled(window, tol) and \
                self._certify_infeasible(lam - lam_snapshot):
            return "infeasible-detected"
        if it % (self.CHECK_EVERY * 4) == 0:
            self._adapt_rho(r_prim, r_dual)
        return None

    def _residuals(self, x, z, lam, q):
        ax = self.a_csr @ x
        r_prim = np.max(np.abs(ax - z) * self.row_scale) if self.m_total else 0.0
        grad = self.qp.d * x + q + self.a_t @ lam
        r_dual = float(np.max(np.abs(grad))) if len(grad) else 0.0
        return float(r_prim), r_dual

    def _certify_infeasible(self, dlam):
        norm = float(np.max(np.abs(dlam))) if len(dlam) else 0.0
        if norm <= 1e-14:
            return False
        if float(np.max(np.abs(self.a_t @ dlam))) > 1e-8 * norm:
            return False
        pos = np.maximum(dlam, 0.0)
        neg = np.minimum(dlam, 0.0)
        lo_inf = np.isinf(self.l)
        hi_inf = np.isinf(self.u)
        if np.any(neg[lo_inf] < -1e-12 * norm) or np.any(pos[hi_inf] > 1e-12 * norm):
            return False
        support = float(
            np.sum(np.where(hi_inf, 0.0, self.u) * pos)
            + np.sum(np.where(lo_inf, 0.0, self.l) * neg)
        )
        return support < -1e-10 * norm

    def _report_residuals(self, x, lam, q):
        m_eq = self.m_eq
        r = self._report_rows @ x
        r -= self._report_rhs
        eq_res = float(np.abs(r[:m_eq]).max()) if m_eq else 0.0
        in_vio = max(float(r[m_eq:].max()), 0.0)
        grad = self.qp.d * x + q + self.a_t @ lam
        stat = float(np.abs(grad).max()) if len(grad) else 0.0
        if self.m_in:
            sl = slice(m_eq, m_eq + self.m_in)
            stat = max(stat, float((-lam[sl] / self.row_scale[sl]).max()))
        return eq_res, in_vio, stat

    def _polish(self, x, z, lam, q):
        old = self._report_residuals(x, lam, q)
        act_low = (lam < -1e-12) & ~self._is_eq
        act_up = (lam > 1e-12) & ~self._is_eq
        active = self._is_eq | act_low | act_up
        if not active.any():
            return x, z, lam, old
        b_act = np.where(act_up[active], self.u[active], self.l[active])
        b_act = np.where(self._is_eq[active], self.u[active], b_act)
        try:
            lu = factor_kkt(polish_kkt_reference(self, active))
        except RuntimeError:
            return x, z, lam, old
        n = self.n
        sol = lu.solve(np.concatenate([-q, b_act]))
        x_p = sol[:n]
        lam_p = np.zeros(self.m_total)
        lam_p[active] = sol[n:]
        res_top = -q - self.qp.d * x_p - self.a_t @ lam_p
        res_bot = b_act - (self.a_csr @ x_p)[active]
        corr = lu.solve(np.concatenate([res_top, res_bot]))
        x_p = x_p + corr[:n]
        lam_p[active] = sol[n:] + corr[n:]
        new = self._report_residuals(x_p, lam_p, q)
        worst = np.max(new)
        if not np.isfinite(worst) or worst >= np.max(old):
            return x, z, lam, old
        z_p = np.clip(self.a_csr @ x_p, self.l, self.u)
        return x_p, z_p, lam_p, new


class ReferenceQpWorkspace(PlainResidualsMixin, QpWorkspace):
    """The straightforward form of QpWorkspace's solve, kept as a reference.

    Assembles every KKT matrix with ``sp.bmat``, allocates fresh arrays on
    every iteration, transposes the constraint matrix on every product and
    recomputes the final residuals after polish. Its infeasibility test is
    the plain one of PlainResidualsMixin. The fast path must produce the
    same bits.
    """

    def _refactor(self, rho_base):
        rho = np.full(self.m_total, rho_base)
        rho[self._is_eq] *= self.EQ_RHO_FACTOR
        self._lu = factor_kkt(iteration_kkt_reference(self, rho))
        self._rho_base, self.rho = rho_base, rho

    def solve(self, q, tol=1e-6, max_iters=20000, warm=None):
        n, m_total = self.n, self.m_total
        q = np.asarray(q, dtype=float)
        a_csr = self.a_csr
        l, u = self.l, self.u
        # start at warm.v (zeros without a warm start), with warm's z and lam
        # when it carries them, else clip(A x) and zeros
        if warm is None:
            x, z, lam = np.zeros(n), None, None
        else:
            x, z, lam = warm.v, warm.z, warm.lam
        expected = {"v": (x, n)}
        if z is not None or lam is not None:
            expected.update(z=(z, m_total), lam=(lam, m_total))
        for name, (a, size) in expected.items():
            if a is None or np.shape(a) != (size,):
                raise ValueError(f"warm start {name} does not fit")
        x = np.array(x, dtype=float)
        if z is None:
            z = np.clip(a_csr @ x, l, u)
            lam = np.zeros(m_total)
        else:
            z = np.array(z, dtype=float)
            lam = np.array(lam, dtype=float)
        rp_window = []
        lam_snapshot = lam.copy()
        status = "max-iters"
        iterations = max_iters
        for it in range(1, max_iters + 1):
            rho = self.rho
            rhs = np.concatenate([self.SIGMA * x - q, z - lam / rho])
            sol = self._lu.solve(rhs)
            xt = sol[:n]
            nu = sol[n:]
            zt = z + (nu - lam) / rho
            x = self.ALPHA * xt + (1.0 - self.ALPHA) * x
            z_pre = self.ALPHA * zt + (1.0 - self.ALPHA) * z
            z_new = np.clip(z_pre + lam / rho, l, u)
            lam = lam + rho * (z_pre - z_new)
            z = z_new
            if it % self.CHECK_EVERY == 0 or it == max_iters:
                r_prim, r_dual = self._residuals(x, z, lam, q)
                if r_prim <= tol and r_dual <= tol:
                    status = "solved"
                    iterations = it
                    break
                rp_window.append(r_prim)
                if len(rp_window) > 12:
                    rp_window.pop(0)
                if self._primal_stalled(rp_window, tol) and \
                        self._certify_infeasible(lam - lam_snapshot):
                    status = "infeasible-detected"
                    iterations = it
                    break
                lam_snapshot = lam.copy()
                if it % (self.CHECK_EVERY * 4) == 0:
                    self._adapt_rho(r_prim, r_dual)
        x, z, lam = self._polish(x, z, lam, q)
        eq_res, in_vio, stat = self._report_residuals(x, lam, q)
        if status == "solved" and max(eq_res, in_vio, stat) > tol:
            status = "max-iters"
        return QpSolution(v=x, eq_residual=eq_res, in_violation=in_vio,
                          stationarity=stat, iterations=iterations,
                          status=status, z=z, lam=lam)

    def _residuals(self, x, z, lam, q):
        ax = self.a_csr @ x
        r_prim = np.max(np.abs(ax - z) * self.row_scale) if self.m_total else 0.0
        grad = self.qp.d * x + q + self.a_csr.T @ lam
        r_dual = float(np.max(np.abs(grad))) if len(grad) else 0.0
        return float(r_prim), r_dual

    def _report_residuals(self, x, lam, q):
        qp = self.qp
        eq_res = float(np.max(np.abs(qp.a_eq @ x - qp.b_eq))) if self.m_eq else 0.0
        in_vio = 0.0
        if self.m_in:
            in_vio = float(np.max(np.maximum(qp.a_in @ x - qp.b_in, 0.0)))
        box_vio = float(np.max(np.maximum.reduce([qp.lo - x, x - qp.hi,
                                                  np.zeros(self.n)])))
        in_vio = max(in_vio, box_vio)
        grad = qp.d * x + q + self.a_csr.T @ lam
        stat = float(np.max(np.abs(grad))) if len(grad) else 0.0
        if self.m_in:
            sl = slice(self.m_eq, self.m_eq + self.m_in)
            lam_in = lam[sl] / self.row_scale[sl]
            stat = max(stat, float(np.max(np.maximum(-lam_in, 0.0))))
        return eq_res, in_vio, stat

    def _polish(self, x, z, lam, q):
        act_low = (lam < -1e-12) & ~self._is_eq
        act_up = (lam > 1e-12) & ~self._is_eq
        active = self._is_eq | act_low | act_up
        if not active.any():
            return x, z, lam
        a_act = self.a_csr[active]
        b_act = np.where(act_up[active], self.u[active], self.l[active])
        b_act = np.where(self._is_eq[active], self.u[active], b_act)
        try:
            lu = factor_kkt(polish_kkt_reference(self, active))
        except RuntimeError:
            return x, z, lam
        rhs = np.concatenate([-q, b_act])
        sol = lu.solve(rhs)
        x_p, nu_p = sol[:self.n], sol[self.n:]
        res_top = -q - self.qp.d * x_p - a_act.T @ nu_p
        res_bot = b_act - a_act @ x_p
        corr = lu.solve(np.concatenate([res_top, res_bot]))
        x_p = x_p + corr[:self.n]
        nu_p = nu_p + corr[self.n:]
        lam_p = np.zeros(self.m_total)
        lam_p[active] = nu_p
        old = max(self._report_residuals(x, lam, q))
        new = max(self._report_residuals(x_p, lam_p, q))
        if not np.isfinite(new) or new >= old:
            return x, z, lam
        z_p = np.clip(self.a_csr @ x_p, self.l, self.u)
        return x_p, z_p, lam_p


# -- un-condensed distributed reference with explicit per-arc averages and duals
#
# With zero-initialized arc duals, alpha + beta and gamma + delta vanish
# identically and the averages collapse to midpoints; dividing the per-agent
# dual aggregates by rho then reproduces the condensed trajectories of
# treedesign.distributed exactly, at any rho.


@dataclass
class FullDualAgentState:
    """Agent copy for the reference implementation; mu/eta are unscaled."""

    u: np.ndarray
    w: np.ndarray
    z: object
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray


class FullDualWorld:
    """Reference state: per-arc averages t/s and duals alpha..delta.

    Arc index a runs over both orientations of every edge; t[a] and alpha[a],
    beta[a] live in flow space, s[a] and gamma[a], delta[a] in edge space.
    """

    def __init__(self, inst, agents, t, s, alpha, beta, gamma, delta, k=0):
        self.inst = inst
        self.arcs = inst.arcs
        self.agents = list(agents)
        self.t = t
        self.s = s
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.delta = delta
        self.k = k


def init_full_dual_world(inst, cfg):
    """Zero arc duals; averages seeded with the (identical) initial primals."""
    base = init_world(inst, cfg).agents[0]
    agents = [
        FullDualAgentState(
            u=base.u.copy(), w=base.w.copy(), z=base.z, y=base.y.copy(),
            mu=np.zeros(inst.dim_w), eta=np.zeros(inst.dim_u),
        )
        for _ in range(inst.n)
    ]
    arcs = inst.arcs
    t = [(agents[i].u + agents[j].u) / 2.0 for (i, j) in arcs.arcs]
    s = [(agents[i].w + agents[j].w) / 2.0 for (i, j) in arcs.arcs]
    alpha = [np.zeros(inst.dim_u) for _ in arcs.arcs]
    beta = [np.zeros(inst.dim_u) for _ in arcs.arcs]
    gamma = [np.zeros(inst.dim_w) for _ in arcs.arcs]
    delta = [np.zeros(inst.dim_w) for _ in arcs.arcs]
    return FullDualWorld(inst, agents, t, s, alpha, beta, gamma, delta)


def full_dual_step(world, cfg, _runtime=None):
    """One synchronous round of the un-condensed updates, written literally.

    Phase 1 minimizes each agent's local Lagrangian with the per-arc linear
    dual terms and (rho/2)-weighted squared distances to the stored averages;
    phase 2 recomputes the averages as midpoints of the fresh primals and
    ascends all duals with their rho-scaled residuals.
    """
    inst = world.inst
    arcs = world.arcs
    rho = cfg.rho
    agents = world.agents
    runtime = _runtime if _runtime is not None else SubproblemRuntime()
    staged = []
    for i, own in enumerate(agents):
        z_vec = indicator_vector(own.z, inst.dim_w).astype(float)
        q_w = half_incident_costs(inst, i) - own.mu - rho * z_vec
        q_u = -own.eta - rho * own.y.astype(float)
        degree2 = 0
        for a, _ in arcs.out_arcs(i):
            q_u = q_u + world.alpha[a] - rho * world.t[a]
            q_w = q_w + world.gamma[a] - rho * world.s[a]
            degree2 += 1
        for a, _ in arcs.in_arcs(i):
            q_u = q_u + world.beta[a] - rho * world.t[a]
            q_w = q_w + world.delta[a] - rho * world.s[a]
            degree2 += 1
        diag = rho * (1.0 + degree2)
        q = np.concatenate([q_w, q_u])
        sol = runtime.solve(i, inst, diag, q, cfg)
        w_next, u_next = inst.split(sol.v)
        w_next, u_next = w_next.copy(), u_next.copy()
        z_next = project_tree(w_next, own.mu / rho, inst.graph)
        y_next = project_binary(u_next - own.eta / rho)
        staged.append((u_next, w_next, z_next, y_next))
    t_next, s_next = [], []
    alpha, beta = [], []
    gamma, delta = [], []
    for a, (i, j) in enumerate(arcs.arcs):
        ui, wi = staged[i][0], staged[i][1]
        uj, wj = staged[j][0], staged[j][1]
        t_next.append((ui + uj) / 2.0)
        s_next.append((wi + wj) / 2.0)
        alpha.append(world.alpha[a] + (rho / 2.0) * (ui - uj))
        beta.append(world.beta[a] + (rho / 2.0) * (uj - ui))
        gamma.append(world.gamma[a] + (rho / 2.0) * (wi - wj))
        delta.append(world.delta[a] + (rho / 2.0) * (wj - wi))
    new_agents = []
    for own, (u_next, w_next, z_next, y_next) in zip(agents, staged):
        new_agents.append(FullDualAgentState(
            u=u_next, w=w_next, z=z_next, y=y_next,
            mu=own.mu + rho * (z_next.vector - w_next),
            eta=own.eta + rho * (y_next - u_next),
        ))
    return FullDualWorld(inst, new_agents, t_next, s_next, alpha, beta,
                         gamma, delta, k=world.k + 1)


def consensus_dual_aggregates(world):
    """Condensed consensus duals recovered from the per-arc duals.

    Agent i aggregates alpha over its outgoing arcs and beta over its
    incoming ones (flow space), likewise gamma/delta in edge space.
    """
    inst = world.inst
    arcs = world.arcs
    nu = [np.zeros(inst.dim_u) for _ in range(inst.n)]
    xi = [np.zeros(inst.dim_w) for _ in range(inst.n)]
    for i in range(inst.n):
        for a, _ in arcs.out_arcs(i):
            nu[i] += world.alpha[a]
            xi[i] += world.gamma[a]
        for a, _ in arcs.in_arcs(i):
            nu[i] += world.beta[a]
            xi[i] += world.delta[a]
    return nu, xi


# -- the distributed driver's per-round arithmetic as whole-vector expressions;
# the in-place driver must give the same bits


def agent_linear_cost_reference(inst, agent, local, neighbor_snapshots, rho):
    """mcf.agent_linear_cost with a fresh array per term."""
    z = indicator_vector(local.z, inst.dim_w).astype(float)
    q_w = (half_incident_costs(inst, agent)
           - rho * (z + np.asarray(local.mu, dtype=float))
           + rho * np.asarray(local.xi, dtype=float))
    q_u = (-rho * (np.asarray(local.y, dtype=float)
                   + np.asarray(local.eta, dtype=float))
           + rho * np.asarray(local.nu, dtype=float))
    w_own = np.asarray(local.w, dtype=float)
    u_own = np.asarray(local.u, dtype=float)
    for snap in neighbor_snapshots:
        q_w = q_w - rho * (w_own + np.asarray(snap.w, dtype=float))
        q_u = q_u - rho * (u_own + np.asarray(snap.u, dtype=float))
    return np.concatenate([q_w, q_u])


def agent_dual_step_reference(own, staged, staged_partners):
    """distributed.agent_dual_step with a fresh array per term."""
    nu = own.nu.copy()
    xi = own.xi.copy()
    for other in staged_partners:
        nu += staged.u - other.u
        xi += staged.w - other.w
    mu = own.mu + (staged.z.vector - staged.w)
    eta = own.eta + (staged.y - staged.u)
    return AgentState(
        u=staged.u, w=staged.w, z=staged.z, y=staged.y,
        mu=mu, eta=eta, nu=nu, xi=xi,
    )


def consensus_gap_reference(world):
    """distributed.consensus_gap with np.linalg.norm."""
    agents = world.agents
    gap = 0.0
    for i in range(len(agents)):
        for j in range(i + 1, len(agents)):
            gap = max(
                gap,
                float(np.linalg.norm(agents[i].w - agents[j].w))
                + float(np.linalg.norm(agents[i].u - agents[j].u)),
            )
    return gap
