"""Diagonal-Hessian quadratic programs over linear constraints and box bounds.

    minimize    (1/2) v' diag(d) v + q' v
    subject to  A_eq v = b_eq,   A_in v <= b_in,   lo <= v <= hi

Solved by an operator-splitting iteration: a linear KKT step on the smooth
part alternates with projection onto the stacked constraint interval. A
QpWorkspace fixes everything except the linear cost: it scales the rows,
assembles the iteration's KKT matrix and factors it once, and each solve
takes a new q (the only thing an outer ADMM iteration changes), optionally
warm-started from an earlier solution's (v, z, lam) or from a bare point v
(a WarmStart). A final active-set polish tightens residuals well below the
iteration tolerance, and the residuals it computes to accept or reject the
polished point are the ones reported. The iteration's KKT matrix is
symmetric quasi-definite, so SuperLU factors it under a symmetric
fill-reducing ordering without pivoting. The polish eliminates the active
box rows exactly and factors the Schur complement of the active constraint
rows, which is positive definite: densely with one Cholesky factor where
the map below holds the constraint rows dense, and sparsely with SuperLU,
again without pivoting, for structures too large for the map.

Each solve runs one inner loop on one step. With rho fixed, the iteration
is an affine map followed by a clip. Put w = z_pre + lam/rho, the point the
clip projects, and p = clip(w, l, u), the new z; the multiplier update lam +
rho (z_pre - p) is then exactly rho (w - p), so lam/rho = w - p at every
step, and the KKT step solves

    K [x~; nu] = [sigma x - q; v],   v = 2p - w,   z~ = v + nu/rho

    x rows:    x <- (1 - alpha) x + alpha x~
    w rows:    w <- w - alpha p + alpha z~

then p <- clip(w, l, u). By K's second block row z~ = A x~, so the step
needs alpha x~ alone, and the rest of it is one sparse product added onto
[w; x]:

    [w; x] += B [x; alpha x~; p],  B = [[0, A, -alpha I_m], [-alpha I_n, I_n, 0]].

Every workspace holds one state [w; x; alpha x~; p] and takes this one
update; the structures differ only in how alpha x~ is formed. With N = n +
m, a structure whose map V has n (N + 1) entries at most 2^16, as the n=8
and n=10 relaxed subproblems do, takes it from one product with V. V is the
affine map of rank n

    alpha x~ = V [x; v; 1],  V = alpha [sigma K_xx, K_xz, -K_xx q],

built from the x rows of K^-1. The box rows of A are the identity and have
penalty rho_b, so eliminating them shows V's box-row columns V_box = alpha
K_x,box to be (rho_b / sigma) V_x exactly, and with eps = sigma / rho_b

    V [x; v; 1] = [V_con, V_box, c_x] [v_con; v_box + eps x; 1],

an n x (m + 1) map. Larger structures solve K once with the cached sparse
factor and scale its x part by alpha. The two are exact algebra on the same
step, so their iterates differ only in rounding.

Constraint rows are normalized to unit infinity-norm before iterating; all
reported residuals refer to the original, unscaled data. Everything here is
deterministic: identical inputs produce identical iterate sequences.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpotrf as _potrf, dpotrs as _potrs
from scipy.sparse import _sparsetools

# _clip(w, l, u[, out]) is the clip ufunc that np.clip runs for float bounds:
# one kernel call, bitwise np.minimum(np.maximum(w, l), u), without np.clip's
# Python dispatch. Its out is never w itself: in place, numpy's paths for a
# single element may break signed-zero ties the other way
from numpy._core.umath import clip as _clip

__all__ = [
    "QuadraticProgram",
    "QpSolution",
    "WarmStart",
    "QpWorkspace",
    "solve_qp",
    "InfeasibleSubproblemError",
]


class InfeasibleSubproblemError(RuntimeError):
    """Raised by callers for whom an infeasible subproblem is fatal."""


def _matvec(a, x, out):
    """``a @ x`` for a CSR matrix ``a``, written into ``out`` and returned.

    Calls the kernel that scipy's own ``a @ x`` runs, on a zeroed output, so
    the bits are those of ``a @ x`` without scipy's Python dispatch around
    it: each row's terms are added in stored order onto +0. The kernel
    checks no length, so this does.
    """
    if x.shape != (a.shape[1],) or out.shape != (a.shape[0],):
        raise ValueError("matvec operands do not match the matrix shape")
    out.fill(0.0)
    _sparsetools.csr_matvec(a.shape[0], a.shape[1], a.indptr, a.indices,
                            a.data, x, out)
    return out


_KKT_ORDERING = "MMD_AT_PLUS_A"
_KKT_PIVOT_THRESH = 0.0
_KKT_OPTIONS = {"SymmetricMode": True}


def factor_kkt(kkt):
    """SuperLU factorization of a symmetric quasi-definite CSC matrix.

    Such a matrix (positive definite leading block, negative definite
    trailing block) has an LDL' factorization under every symmetric
    permutation (Vanderbei 1995). So SuperLU takes a minimum-degree ordering
    of A' + A for rows and columns alike and pivots on the diagonal.
    """
    return spla.splu(kkt, permc_spec=_KKT_ORDERING,
                     diag_pivot_thresh=_KKT_PIVOT_THRESH, options=_KKT_OPTIONS)


@dataclass
class QuadraticProgram:
    """Problem data. Constraint matrices are stored as canonical CSR."""

    d: np.ndarray
    q: np.ndarray
    a_eq: sp.spmatrix | None = None
    b_eq: np.ndarray | None = None
    a_in: sp.spmatrix | None = None
    b_in: np.ndarray | None = None
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        n = len(self.d)
        if n == 0:
            # the residual checks reduce over every variable
            raise ValueError("a QP needs at least one variable, got none")
        if len(self.q) != n:
            raise ValueError("d and q must have the same length")
        if not np.isfinite(self.d).all() or (self.d < 0).any():
            raise ValueError("d must be finite and nonnegative")
        if not np.isfinite(self.q).all():
            raise ValueError("q must be finite")
        for rows, rhs in (("a_eq", "b_eq"), ("a_in", "b_in")):
            a, b = getattr(self, rows), getattr(self, rhs)
            if (a is None) != (b is None):
                raise ValueError(f"{rows} and {rhs} go together, but "
                                 f"{rows if a is None else rhs} is missing")
            a, b = (sp.csr_matrix((0, n)), np.zeros(0)) if a is None else \
                (sp.csr_matrix(a), np.asarray(b, dtype=float))
            if not a.has_canonical_format:  # sum in a copy, not the caller's
                a = a.copy()
                a.sum_duplicates()
            setattr(self, rows, a)
            setattr(self, rhs, b)
        if self.a_eq.shape[1] != n or self.a_in.shape[1] != n:
            raise ValueError("constraint matrices must have n columns")
        if self.a_eq.shape[0] != len(self.b_eq) or self.a_in.shape[0] != len(self.b_in):
            raise ValueError("rhs length must match row count")
        self.lo = np.full(n, -np.inf) if self.lo is None else np.asarray(self.lo, dtype=float)
        self.hi = np.full(n, np.inf) if self.hi is None else np.asarray(self.hi, dtype=float)
        if len(self.lo) != n or len(self.hi) != n:
            raise ValueError("box bounds must have length n")
        # NaN is nowhere allowed, and an infinite entry only where it bounds
        # nothing
        for name, free in (("a_eq", np.nan), ("a_in", np.nan), ("b_eq", np.nan),
                           ("b_in", np.inf), ("lo", -np.inf), ("hi", np.inf)):
            a = getattr(self, name)
            a = a.data if sp.issparse(a) else a
            if not (np.isfinite(a) | (a == free)).all():
                raise ValueError(f"{name} must be finite"
                                 + ("" if np.isnan(free) else f" or {free:+}"))
        if (self.lo > self.hi).any():
            raise ValueError("box bounds must satisfy lo <= hi")

    @property
    def n(self):
        return len(self.d)


@dataclass
class QpSolution:
    """Primal point, KKT residuals on the original data, and solver status.

    ``stationarity`` is the infinity norm of the Lagrangian gradient plus any
    dual-sign violation; when status is "solved" all residuals are at or
    below the requested tolerance. ``z`` and ``lam`` are the splitting state
    kept for warm starts. ``polished`` says whether the active-set polish
    was kept.
    """

    v: np.ndarray
    eq_residual: float
    in_violation: float
    stationarity: float
    iterations: int
    status: str
    z: np.ndarray = field(repr=False, default=None)
    lam: np.ndarray = field(repr=False, default=None)
    polished: bool = False

    @property
    def max_residual(self):
        """The worst residual; NaN if any residual is NaN."""
        return float(np.max((self.eq_residual, self.in_violation,
                             self.stationarity)))


@dataclass(frozen=True)
class WarmStart:
    """A start point for :meth:`QpWorkspace.solve` that is not an earlier
    solution: a primal point ``v`` alone, with no splitting state, so the
    solve starts at z = clip(A v) with zero multipliers."""

    v: np.ndarray
    z = lam = None


def _fitted(name, a, size):
    """Warm-start array ``name`` as a float vector of length ``size``."""
    if a is None or np.shape(a) != (size,):
        got = "is missing" if a is None else f"has shape {np.shape(a)}"
        raise ValueError(f"warm start {name} {got}, expected ({size},)")
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"warm start {name} is not finite")
    return a


class QpWorkspace:
    """Scaled constraint system, KKT matrix and factorization for one
    fixed structure.

    The diagonal, the constraint rows and the box of ``qp`` are fixed for the
    workspace's lifetime; ``qp.q`` is not read. Each :meth:`solve` takes a
    new linear cost. The penalty adapted by one solve carries over to the
    next, so a refactorization happens only when rho adaptation moves it;
    ``refactors`` counts those.

    ``__init__`` pays every structural cost once: it reads the canonical
    constraint rows of ``qp`` once as sorted triplets and scales them, and
    from those builds the scaled rows ``a_csr``, the CSR transpose ``a_t``
    the gradients use, and the iteration's CSC KKT matrix ``_kkt`` =
    ``[[diag(d + sigma), A'], [A, -diag(1/rho)]]`` over all scaled rows, by
    index arithmetic alone. Each factorization writes its ``-1/rho`` into
    that one matrix in place. Every structure is entry for entry what
    assembling it with ``sp.vstack`` and ``sp.bmat`` gives.

    The iteration matrix is factored by :func:`factor_kkt` without
    pivoting. That is safe because it is quasi-definite, with ``d + sigma >
    0`` on its leading diagonal and ``-1/rho < 0`` on its trailing one. The
    polish (``_schur_solver``) solves the regularized system on the active
    rows through the k x k Schur complement of its k active constraint
    rows: one LAPACK Cholesky factor where the workspace holds those rows
    dense, and :func:`factor_kkt` on the sparse complement where it has no
    map (``_map`` None).

    Every structure steps on one state [w; x; alpha x~; p] and ends each
    step with one ``csr_matvec`` call, which adds ``_step_rows`` B = [[0,
    A, -alpha I_m], [-alpha I_n, I_n, 0]] times [x; alpha x~; p] onto [w;
    x], and the clip. B is built once, by index arithmetic, entry for entry
    what ``sp.bmat`` gives. How alpha x~ is formed is chosen once, by size.
    With N = n + m (m counts the box rows too), a structure with n (N + 1)
    <= ``XSPACE_MAX_ENTRIES`` holds the folded map ``_map`` V = [V_con,
    V_box, c_x] of shape (n, m + 1), rebuilt in place at every
    factorization, and the dense constraint rows ``_a_con``, which serve
    only the polish. V comes from the x rows of K^-1, which K's symmetry
    makes its first n columns, and each solve writes c_x = -alpha K_xx q
    from one triangular solve. Its step makes six calls: the multiply by
    ``_fold`` = [eps; 0; 2], eps = sigma / rho_b, forms [eps x; 0; 2p] from
    [x; alpha x~; p]; v = 2p - w; v_box += eps x; alpha x~ = V [v; 1],
    written into the state; the update; and the clip. Every other structure
    (``_map`` None) forms v = 2p - w and sigma x - q, solves K with the
    sparse factor, and writes alpha times the solution's x part into the
    state.

    One loop, :meth:`_iterate`, stops, checks residuals, detects
    infeasibility and adapts rho; :meth:`_steps` only steps.
    """

    SIGMA = 1e-6
    ALPHA = 1.6
    RHO0 = 0.1
    EQ_RHO_FACTOR = 1e3
    CHECK_EVERY = 25
    RHO_MIN, RHO_MAX = 1e-6, 1e3
    POLISH_DELTA = 1e-9
    # the step with V and with the sparse factor cost about the same from
    # about 75k to 130k map entries (n=10 to 16 relaxed subproblems); below
    # 2^16 the product with V is clearly the cheaper
    XSPACE_MAX_ENTRIES = 2**16
    _MAP_BLOCK = 32

    def __init__(self, qp):
        self.qp = qp
        n = qp.n
        m_eq = qp.a_eq.shape[0]
        m_in = qp.a_in.shape[0]
        self.m_eq, self.m_in, self.n = m_eq, m_in, n
        self.m_total = m_total = m_eq + m_in + n
        a_eq, a_in = qp.a_eq, qp.a_in
        rows, cols, vals, scale = _scaled_rows(a_eq, a_in)
        scale_eq, scale_in = scale[:m_eq], scale[m_eq:]
        # A = [A_eq; A_in; I] with scaled constraint rows, row-major; its
        # transpose a_t is the same entries column-major, so each row of a_t
        # lists its constraints in ascending order and a_t @ lam adds the
        # terms in the order a_csr.T @ lam does
        rows = np.concatenate([rows, m_eq + m_in + np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
        vals = np.concatenate([vals, np.ones(n)])
        self.a_csr = sp.csr_matrix((vals, cols, _indptr(rows, m_total)),
                                   shape=(m_total, n))
        by_col = np.argsort(cols, kind="stable")
        self.a_t = sp.csr_matrix((vals[by_col], rows[by_col], _indptr(cols, n)),
                                 shape=(n, m_total))
        self.row_scale = np.concatenate([scale, np.ones(n)])
        self.l = np.concatenate([qp.b_eq / scale_eq, np.full(m_in, -np.inf), qp.lo])
        self.u = np.concatenate([qp.b_eq / scale_eq, qp.b_in / scale_in, qp.hi])
        self._is_eq = np.zeros(m_total, dtype=bool)
        self._is_eq[:m_eq] = True
        self._kkt, self._kkt_diag = self._assemble_kkt()
        # the reported residuals' rows in original units: one product with
        # [A_eq; A_in; I; -I] minus [b_eq; b_in; hi; -lo] gives every slack.
        # The canonical rows are stacked with stored zeros kept, as
        # sp.vstack does
        nnz = a_eq.indptr[-1] + a_in.indptr[-1]
        self._report_rows = sp.csr_matrix(
            (np.concatenate([a_eq.data, a_in.data, np.ones(n), np.full(n, -1.0)]),
             np.concatenate([a_eq.indices, a_in.indices, np.arange(n), np.arange(n)]),
             np.concatenate([a_eq.indptr, a_eq.indptr[-1] + a_in.indptr[1:],
                             nnz + np.arange(1, 2 * n + 1)])),
            shape=(m_eq + m_in + 2 * n, n))
        self._report_rhs = np.concatenate([qp.b_eq, qp.b_in, qp.hi, -qp.lo])
        # buffers of the residual checks: A x, A' lam, the gradient, the
        # reported slacks and the inequality multipliers' sign violation
        self._ax = np.empty(m_total)
        self._atl, self._grad = np.empty((2, n))
        self._slack = np.empty(len(self._report_rhs))
        self._sign = np.empty(m_in)
        self._step_rows = self._assemble_step_rows()
        self._map = None
        if n * (n + m_total + 1) <= self.XSPACE_MAX_ENTRIES:
            self._map = np.empty((n, m_total + 1))
            # the map step's coefficients of [x; alpha x~; p], [eps; 0; 2]
            # with eps = sigma/rho_b, rewritten at every factorization
            self._fold = np.concatenate([np.empty(n), np.zeros(n),
                                         np.full(m_total, 2.0)])
        # the constraint rows of A, dense where the map is built; its box
        # rows are the identity
        self._a_con = self.a_csr[:m_eq + m_in]
        if self._map is not None:
            self._a_con = self._a_con.toarray()
        self.refactors = 0
        self._refactor(self.RHO0)

    def _assemble_kkt(self):
        """The CSC KKT matrix ``[[diag(d + sigma), A'], [A, -diag(1/rho)]]``
        with its trailing diagonal unwritten, and that diagonal's positions.

        Column j < n is row j of ``a_t`` (shifted by n) with the diagonal
        put first, and column n + i is row i of ``a_csr`` with the diagonal
        put last, so every column's rows ascend as in the canonical matrix
        ``sp.bmat`` assembles.
        """
        n, m_total, a_t, a_csr = self.n, self.m_total, self.a_t, self.a_csr
        nnz = a_csr.nnz
        diag = np.concatenate([a_t.indptr[:-1] + np.arange(n),
                               n + nnz + a_csr.indptr[1:] + np.arange(m_total)])
        off = np.ones(n + m_total + 2 * nnz, dtype=bool)
        off[diag] = False
        indices = np.empty(len(off), dtype=np.int64)
        indices[diag] = np.arange(n + m_total)
        indices[off] = np.concatenate([n + a_t.indices, a_csr.indices])
        data = np.empty(len(off))
        data[diag[:n]] = self.qp.d + self.SIGMA
        data[off] = np.concatenate([a_t.data, a_csr.data])
        indptr = np.concatenate([a_t.indptr + np.arange(n + 1),
                                 n + nnz + a_csr.indptr[1:] + np.arange(1, m_total + 1)])
        size = n + m_total
        return sp.csc_matrix((data, indices, indptr), shape=(size, size)), diag[n:]

    def _assemble_step_rows(self):
        """The CSR rows ``B = [[0, A, -alpha I_m], [-alpha I_n, I_n, 0]]``
        of the step's update, over [x; alpha x~; p].

        Row i < m is row i of ``a_csr`` (shifted by n) with the -alpha
        entry put last, and row m + j holds -alpha at column j and 1 at
        column n + j, so every row's columns ascend as in the canonical
        matrix ``sp.bmat`` assembles.
        """
        n, m_total, a_csr = self.n, self.m_total, self.a_csr
        w_nnz = a_csr.nnz + m_total
        last = a_csr.indptr[1:] + np.arange(m_total)
        off = np.ones(w_nnz, dtype=bool)
        off[last] = False
        # B has more columns and entries than A, so a_csr's index dtype need
        # not hold its indices: they start as int64, as the KKT matrix's do,
        # and the constructor stores them as int32 where they fit, as
        # sp.bmat does
        indices = np.empty(w_nnz + 2 * n, dtype=np.int64)
        data = np.empty(len(indices))
        indices[last] = 2 * n + np.arange(m_total)
        indices[:w_nnz][off] = n + a_csr.indices
        data[last] = -self.ALPHA
        data[:w_nnz][off] = a_csr.data
        x_indices, x_data = indices[w_nnz:].reshape(n, 2), data[w_nnz:].reshape(n, 2)
        x_indices.T[:] = np.arange(n), n + np.arange(n)
        x_data[:] = -self.ALPHA, 1.0
        indptr = np.concatenate([a_csr.indptr + np.arange(m_total + 1),
                                 w_nnz + np.arange(2, 2 * n + 1, 2)])
        return sp.csr_matrix((data, indices, indptr),
                             shape=(m_total + n, m_total + 2 * n))

    def _refactor(self, rho_base):
        """Write ``-1/rho`` at ``rho_base`` into ``_kkt``, which SuperLU
        keeps no reference to, and factor (and map) it; the workspace takes
        the new penalty only once that has succeeded."""
        rho = np.full(self.m_total, rho_base)
        rho[self._is_eq] *= self.EQ_RHO_FACTOR
        self._kkt.data[self._kkt_diag] = -1.0 / rho
        lu = factor_kkt(self._kkt)
        if self._map is not None:
            self._build_xspace_map(lu)
            self._fold[:self.n] = self.SIGMA / rho_base
        self._rho_base, self.rho, self._lu = rho_base, rho, lu

    def _build_xspace_map(self, lu):
        """Write every column of V but the last, in place."""
        n, big = self.n, self.n + self.m_total
        # the first n columns of K^-1, 32 at a time: given a hundred or more
        # right-hand sides at once, SuperLU calls threaded BLAS-3, which at
        # these sizes is about 30 times slower and leaves a BLAS thread
        # spinning against this one. K is symmetric, so their transposes
        # are the x rows of K^-1
        for j in range(0, n, self._MAP_BLOCK):
            k = min(j + self._MAP_BLOCK, n)
            np.multiply(lu.solve(np.eye(big, k - j, -j))[n:].T, self.ALPHA,
                        out=self._map[j:k, :-1])

    def _set_map_offset(self, q):
        """Write V's last column, c_x = -alpha K_xx q."""
        rhs = np.zeros(self.n + self.m_total)
        np.negative(q, out=rhs[:self.n])
        np.multiply(self._lu.solve(rhs)[:self.n], self.ALPHA, out=self._map[:, -1])

    # -- main iteration ----------------------------------------------------

    def solve(self, q, tol=1e-6, max_iters=20000, warm=None):
        """Minimize with linear cost ``q``, starting from ``warm``.

        ``warm`` is None, an earlier :class:`QpSolution` of this workspace or
        a :class:`WarmStart`. The start is x = ``warm.v`` (zeros when
        ``warm`` is None) with z = clip(A x) and lam = 0, unless ``warm``
        carries z and lam, which are then taken as they are; so a cold start
        is the start at x = 0. A start array of the wrong length, or z
        without lam (or lam without z), raises ValueError, and so do a
        ``tol`` that is not finite and positive and a ``max_iters`` that is
        not a nonnegative integer, the rule of ``SolverConfig``.
        """
        q = np.asarray(q, dtype=float)
        if q.shape != (self.n,):
            raise ValueError("q must have one entry per variable")
        if not np.isfinite(q).all():
            raise ValueError("q must be finite")
        if not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        if not isinstance(max_iters, numbers.Integral) or max_iters < 0:
            raise ValueError(f"max_iters must be a nonnegative integer, "
                             f"got {max_iters!r}")
        x, z, lam = self._start(warm)
        x_loop, z, lam, status, iterations = self._iterate(q, x, z, lam, tol,
                                                           max_iters)
        # a rejected polish hands back the loop's own arrays
        x, z, lam, (eq_res, in_vio, stat) = self._polish(x_loop, z, lam, q)
        # np.max, unlike Python's max, keeps a NaN in any position
        if status == "solved" and not np.max((eq_res, in_vio, stat)) <= tol:
            # polish never regresses; this can only trip if tolerances are
            # extremely tight relative to conditioning
            status = "max-iters"
        return QpSolution(
            v=x,
            eq_residual=eq_res,
            in_violation=in_vio,
            stationarity=stat,
            iterations=iterations,
            status=status,
            z=z,
            lam=lam,
            polished=x is not x_loop,
        )

    def _start(self, warm):
        """The first (x, z, lam) under the rule :meth:`solve` states."""
        n, m_total = self.n, self.m_total
        x = np.zeros(n) if warm is None else _fitted("v", warm.v, n)
        if warm is None or (warm.z is None and warm.lam is None):
            z = _clip(_matvec(self.a_csr, x, self._ax), self.l, self.u)
            return x, z, np.zeros(m_total)
        return x, _fitted("z", warm.z, m_total), _fitted("lam", warm.lam, m_total)

    def _iterate(self, q, x0, z0, lam, tol, max_iters):
        """The stop policy around the steps. Returns fresh (x, z, lam),
        never views into the state, then the status and count."""
        x, w, p, steps = self._steps(q)
        x[:], p[:], lam = x0, z0, lam.copy()
        rho, it, window, lam_snapshot = None, 0, [], lam
        while it < max_iters:
            if self.rho is not rho:
                # the start, and the re-base once a check adapts rho: lam
                # carries over to the new penalty
                rho = self.rho
                np.add(p, lam / rho, w)
                if self._map is not None:
                    self._set_map_offset(q)
            k = min(self.CHECK_EVERY, max_iters - it)
            steps(k)
            it += k
            lam = rho * (w - p)
            status = self._check(it, x, p, lam, q, tol, window, lam_snapshot)
            if status is not None:
                return x.copy(), p.copy(), lam, status, it
            lam_snapshot = lam
        return x.copy(), p.copy(), lam, "max-iters", it

    def _steps(self, q):
        """The views (x, w, p) into the one state and its ``steps(k)``."""
        n, m_total, l, u, v_map = self.n, self.m_total, self.l, self.u, self._map
        # one state [w; x; alpha x~; p]: a step writes alpha x~ into it, and
        # the product with B over its tail [x; alpha x~; p] adds into its
        # head [w; x]. Row i < m of B reads alpha x~ and p_i and row m + j
        # reads x_j and alpha x~_j alone, and the kernel stores each row's
        # sum once, after reading its terms, so the rows of x it writes are
        # read by no later row
        state = np.zeros(2 * (m_total + n))
        w, x = state[:m_total], state[m_total:m_total + n]
        xt, p = state[m_total + n:m_total + 2 * n], state[m_total + 2 * n:]
        head, tail = state[:m_total + n], state[m_total:]
        b = self._step_rows
        rows, cols, indptr, indices, data = *b.shape, b.indptr, b.indices, b.data
        matvec = _sparsetools.csr_matvec
        if v_map is None:
            # the factor's right-hand side [sigma x - q; v]
            rhs = np.empty(n + m_total)
            r, v = rhs[:n], rhs[n:]
            alpha, sigma = self.ALPHA, self.SIGMA

            def steps(k):
                solve = self._lu.solve
                for _ in range(k):
                    np.multiply(p, 2.0, v)
                    np.subtract(v, w, v)
                    np.multiply(x, sigma, r)
                    np.subtract(r, q, r)
                    np.multiply(solve(rhs)[:n], alpha, xt)
                    matvec(rows, cols, indptr, indices, data, tail, head)
                    _clip(w, l, u, p)

            return x, w, p, steps
        # V's input [v; 1]; its box slice takes v_box + eps x
        y = np.empty(m_total + 1)
        y[-1] = 1.0
        v, v_box = y[:-1], y[m_total - n:-1]
        fold, pe = self._fold, np.empty(m_total + 2 * n)
        eps_x, two_p = pe[:n], pe[2 * n:]

        def steps(k):
            for _ in range(k):
                np.multiply(tail, fold, pe)
                np.subtract(two_p, w, v)
                np.add(v_box, eps_x, v_box)
                np.dot(v_map, y, out=xt)
                # w <- w + A (alpha x~) - alpha p, x <- x - alpha x + alpha x~
                matvec(rows, cols, indptr, indices, data, tail, head)
                _clip(w, l, u, p)

        return x, w, p, steps

    def _check(self, it, x, z, lam, q, tol, window, lam_snapshot):
        """The periodic test of the loop: a status to stop with, or None.

        ``window`` keeps the last 12 primal residuals and ``lam_snapshot``
        is lam at the previous check. Every fourth check may adapt rho. The
        dual residual decides only those two, so it is computed only then.
        """
        r_prim = self._primal_residual(x, z)
        adapt = it % (self.CHECK_EVERY * 4) == 0
        r_dual = self._dual_residual(x, lam, q) if r_prim <= tol or adapt else None
        if r_prim <= tol and r_dual <= tol:
            return "solved"
        window.append(r_prim)
        if len(window) > 12:
            window.pop(0)
        if self._primal_stalled(window, tol) and \
                self._certify_infeasible(lam - lam_snapshot):
            return "infeasible-detected"
        if adapt:
            self._adapt_rho(r_prim, r_dual)
        return None

    # -- diagnostics ---------------------------------------------------------
    #
    # Each residual is the plain expression computed in place: the same
    # operands in the same order, a kernel call for each sparse product and
    # np.maximum.reduce (what np.max runs) for each norm.

    def _primal_residual(self, x, z):
        """Infinity norm of A x - z on the original data: rows were divided
        by their scale, so the residual multiplies it back."""
        r = _matvec(self.a_csr, x, self._ax)
        np.subtract(r, z, out=r)
        np.abs(r, out=r)
        np.multiply(r, self.row_scale, out=r)
        return float(np.maximum.reduce(r)) if self.m_total else 0.0

    def _dual_residual(self, x, lam, q):
        """Infinity norm of the gradient d x + q + A' lam; A_scaled'
        lam_scaled already equals A' lam_original."""
        atl = _matvec(self.a_t, lam, self._atl)
        grad = self._grad
        np.multiply(self.qp.d, x, out=grad)
        np.add(grad, q, out=grad)
        np.add(grad, atl, out=grad)
        np.abs(grad, out=grad)
        return float(np.maximum.reduce(grad)) if self.n else 0.0

    def _sign_violation(self, lam):
        """The largest of -lam / scale over the inequality rows, in original
        units: positive when a multiplier has the wrong sign, for these rows
        only bound from above."""
        sl = slice(self.m_eq, self.m_eq + self.m_in)
        out = self._sign
        np.negative(lam[sl], out=out)
        np.divide(out, self.row_scale[sl], out=out)
        return float(np.maximum.reduce(out))

    def _primal_stalled(self, window, tol):
        if len(window) < 12:
            return False
        recent = min(window[6:])
        older = min(window[:6])
        return recent > 0.999 * older and recent > max(1e3 * tol, 1e-5)

    def _certify_infeasible(self, dlam):
        norm = float(np.max(np.abs(dlam))) if len(dlam) else 0.0
        if norm <= 1e-14:
            return False
        if float(np.max(np.abs(_matvec(self.a_t, dlam, self._atl)))) > 1e-8 * norm:
            return False
        pos = np.maximum(dlam, 0.0)
        neg = np.minimum(dlam, 0.0)
        # rows with an infinite bound must not push in that direction
        lo_inf = np.isinf(self.l)
        hi_inf = np.isinf(self.u)
        if np.any(neg[lo_inf] < -1e-12 * norm) or np.any(pos[hi_inf] > 1e-12 * norm):
            return False
        support = float(
            np.sum(np.where(hi_inf, 0.0, self.u) * pos)
            + np.sum(np.where(lo_inf, 0.0, self.l) * neg)
        )
        return support < -1e-10 * norm

    def _adapt_rho(self, r_prim, r_dual):
        ratio = np.sqrt(max(r_prim, 1e-16) / max(r_dual, 1e-16))
        if 0.2 < ratio < 5.0:
            return
        new_base = float(np.clip(self._rho_base * ratio, self.RHO_MIN, self.RHO_MAX))
        if new_base == self._rho_base:
            return
        self._refactor(new_base)
        self.refactors += 1

    def _report_residuals(self, x, lam, q):
        """(equality residual, inequality and box violation, stationarity)
        of ``(x, lam)`` on the original data."""
        m_eq = self.m_eq
        r = _matvec(self._report_rows, x, self._slack)
        np.subtract(r, self._report_rhs, out=r)
        eq, rest = r[:m_eq], r[m_eq:]
        eq_res = float(np.maximum.reduce(np.abs(eq, out=eq))) if m_eq else 0.0
        in_vio = max(float(np.maximum.reduce(rest)), 0.0)  # a NaN slack stays NaN
        stat = self._dual_residual(x, lam, q)
        # a negative inequality multiplier is a dual-feasibility violation
        # and is folded into stationarity
        if self.m_in:
            stat = max(stat, self._sign_violation(lam))
        return eq_res, in_vio, stat

    # -- polish --------------------------------------------------------------

    def _schur_solver(self, active):
        """A solver of the polish system ``[[D, A_act'], [A_act, -delta I]]``,
        D = diag(d) + delta I, through the Schur complement of the active
        constraint rows; None when its factor finds that complement not
        positive definite.

        The active box rows are the identity and sit last, so each one
        eliminates exactly: its variable's diagonal gains 1/delta and its
        right-hand side r_b/delta, giving D~. What is left is S nu_C =
        A_C D~^-1 r~ - r_C with S = A_C D~^-1 A_C' + delta I over the k
        active constraint rows, which is positive definite. A workspace
        with the map V holds the constraint rows dense and factors S with
        one LAPACK Cholesky; one that solves with the sparse factor (``_map``
        None) holds them sparse and factors a sparse S with
        :func:`factor_kkt`, whose pivots are
        then a Cholesky's squared diagonal, so an exactly singular S or a
        pivot that is not positive stands for LAPACK's ``info``. The box
        multipliers come from their variables' stationarity rows, not from
        (x_j - r_j)/delta, whose difference cancels. The solver takes and
        returns [x; nu] in the system's order.
        """
        n, m_con, delta = self.n, self.m_eq + self.m_in, self.POLISH_DELTA
        box = active[m_con:]
        a_c = self._a_con[active[:m_con]]
        k = a_c.shape[0]
        # the diagonal of D~, then its inverse
        inv = self.qp.d + delta
        d_box = inv[box]
        inv[box] += 1.0 / delta
        np.divide(1.0, inv, out=inv)
        if k and self._map is None:
            s = a_c.multiply(inv) @ a_c.T + delta * sp.identity(k)
            try:
                lu = factor_kkt(s.tocsc())
            except RuntimeError:
                return None
            if not (lu.U.diagonal() > 0.0).all():
                return None
            back = lu.solve
        elif k:
            # the lower triangle of S, read by LAPACK as the upper one of
            # its transpose, with no copy
            s = (a_c * inv) @ a_c.T
            s.flat[::k + 1] += delta
            chol, info = _potrf(s.T, overwrite_a=True, clean=False)
            if info:
                return None

            def back(r):
                return _potrs(chol, r)[0]

        def solve(rhs):
            r_x, r_c = rhs[:n], rhs[n:n + k]
            sol = np.empty(len(rhs))
            x, nu_c, nu_b = sol[:n], sol[n:n + k], sol[n + k:]
            # x holds r~ until it becomes D~^-1 (r~ - A_C' nu_C)
            x[:] = r_x
            x[box] += rhs[n + k:] / delta
            if k:
                np.subtract(a_c @ (x * inv), r_c, out=nu_c)
                nu_c[:] = back(nu_c)
            at_nu = nu_c @ a_c  # zeros when no constraint row is active
            x -= at_nu
            x *= inv
            np.subtract(r_x[box], d_box * x[box] + at_nu[box], out=nu_b)
            return sol

        return solve

    def _polish(self, x, z, lam, q):
        """Solve the KKT system on the detected active set; keep it only if
        the worst residual (on the full constraint data) improves.

        Returns the kept ``(x, z, lam)`` and its reported residuals.
        """
        old = self._report_residuals(x, lam, q)
        # a row is active at its upper bound when its multiplier is positive
        # and at its lower one when it is negative; an equality row is
        # always active, and its bounds are equal
        active = self._is_eq | (np.abs(lam) > 1e-12)
        if not active.any():
            return x, z, lam, old
        b_act = np.where(lam > 1e-12, self.u, self.l)[active]
        solve = self._schur_solver(active)
        if solve is None:
            return x, z, lam, old
        n = self.n
        rhs = np.empty(n + len(b_act))
        np.negative(q, out=rhs[:n])
        rhs[n:] = b_act
        sol = solve(rhs)
        x_p = sol[:n]
        lam_p = np.zeros(self.m_total)
        lam_p[active] = sol[n:]
        # one round of iterative refinement against the unregularized system,
        # with the residual [-q - d x_p - A' lam_p; b_act - A_act x_p]; off
        # the active set lam_p is +0, and adding a signed zero to a sum that
        # starts at +0 changes no bit, so A' lam_p equals A_act' nu
        res_top = rhs[:n]
        np.subtract(res_top, np.multiply(self.qp.d, x_p, out=self._grad), out=res_top)
        np.subtract(res_top, _matvec(self.a_t, lam_p, self._atl), out=res_top)
        np.subtract(b_act, _matvec(self.a_csr, x_p, self._ax)[active], out=rhs[n:])
        corr = solve(rhs)
        x_p = x_p + corr[:n]
        lam_p[active] = sol[n:] + corr[n:]
        # np.max, unlike Python's max, keeps a NaN in any position
        old_worst = np.max(old)
        # the sign violation is a term of the new stationarity, so once it
        # reaches the old worst residual the polished point cannot improve
        if self.m_in and self._sign_violation(lam_p) >= old_worst:
            return x, z, lam, old
        new = self._report_residuals(x_p, lam_p, q)
        worst = np.max(new)
        if not np.isfinite(worst) or worst >= old_worst:
            return x, z, lam, old
        z_p = _clip(_matvec(self.a_csr, x_p, self._ax), self.l, self.u)
        return x_p, z_p, lam_p, new


def _indptr(major, size):
    """Row (or column) pointers of entries sorted by ``major``."""
    indptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(major, minlength=size), out=indptr[1:])
    return indptr


def _scaled_rows(a_eq, a_in):
    """The rows of the canonical matrices [A_eq; A_in] divided by their
    infinity norms, as triplets (rows, cols, vals) sorted row-major, and
    the norms (1.0 for an empty row).

    Bit for bit what ``sp.diags(1 / s) @ A`` gives with ``s`` from
    ``abs(A).max(axis=1)``: every entry is multiplied by 1 / s, and one
    whose product is zero is dropped.
    """
    counts = np.concatenate([np.diff(a_eq.indptr), np.diff(a_in.indptr)])
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = np.concatenate([a_eq.indices, a_in.indices])
    vals = np.concatenate([a_eq.data, a_in.data]).astype(float, copy=False)
    scale = np.zeros(len(counts))
    np.maximum.at(scale, rows, np.abs(vals))
    scale[scale == 0.0] = 1.0
    vals = (1.0 / scale)[rows] * vals
    keep = vals != 0.0
    return rows[keep], cols[keep], vals[keep], scale


def solve_qp(qp, tol=1e-6, max_iters=20000, warm=None):
    """One-shot solve of ``qp`` with its own linear cost.

    Drivers that re-solve one structure with changing costs should hold a
    QpWorkspace instead, so the factorization and warm starts are reused.
    """
    return QpWorkspace(qp).solve(qp.q, tol=tol, max_iters=max_iters, warm=warm)
