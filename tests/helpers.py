"""Shared test fixtures: reference oracles and small deterministic generators."""

import numpy as np
import scipy.sparse as sp

from treedesign.graphs import UndirectedGraph, generate_erdos_renyi
from treedesign.mcf import Commodity, Instance
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


class ReferenceQpWorkspace(QpWorkspace):
    """The straightforward form of QpWorkspace's solve, kept as a reference.

    Assembles every KKT matrix with ``sp.bmat``, allocates fresh arrays on
    every iteration, transposes the constraint matrix on every product and
    recomputes the final residuals after polish. The fast path must produce
    the same bits.
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
        if warm is not None and warm.z is not None and len(warm.v) == n \
                and len(warm.z) == m_total:
            x = warm.v.copy()
            z = warm.z.copy()
            lam = warm.lam.copy()
        else:
            x = np.zeros(n)
            z = np.clip(a_csr @ x, l, u)
            lam = np.zeros(m_total)
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
