"""Centralized ADMM driver for the tree-design application.

Each iteration solves the continuous subproblem over the relaxed set, then
projects onto the tree set (exactly, so every iterate's tree really is a
spanning tree), rounds the flows, and ascends the scaled duals:

    (u, w)  <- constrained quadratic subproblem
    z       <- nearest spanning tree to (w - mu)
    y       <- componentwise rounding of (u - eta)
    mu     +=  z - w
    eta    +=  y - u

The penalty rho appears only inside the subproblem objective; the dual
updates are in scaled form. The driver is single-threaded and owns its state.

That per-copy update is :func:`relaxed_start`, :func:`primal_step` and
:func:`local_duals`, inside :func:`run_outer_loop`; the distributed driver
runs the same update for each agent in the same loop. The drivers differ
only in the subproblem each builds: :func:`centralized_linear_cost` here,
the agents' with their consensus terms in :mod:`distributed`. The loop
owns the run's :class:`SubproblemRuntime` and passes it to every step.
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graphs import (InvalidTreeError, TreeIndicator, indicator_vector,
                     is_spanning_tree)
from .mcf import check_flows, objective, relaxed_qp, route_on_tree
# not called here; the patch table in perfbench/tracing.py looks it up here
from .mcf import check_feasible  # noqa: F401
from .projection import project_binary, project_tree
from .qp import InfeasibleSubproblemError, QpWorkspace
from .report import CentralTraceRow, QpCounters, SolveReport

logger = logging.getLogger(__name__)

__all__ = [
    "SolverConfig",
    "SubproblemRuntime",
    "CentralState",
    "centralized_linear_cost",
    "build_centralized_subproblem",
    "init_state",
    "step",
    "residual_central",
    "solve_central",
]


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the centralized and distributed drivers.

    The penalty ``rho``, the outer tolerance ``tol`` and cap ``max_iters``
    and the inner QP tolerance ``qp_tol``. ``rho``, ``tol`` and ``qp_tol``
    must be finite and positive, ``max_iters`` a nonnegative integer.
    :class:`SubproblemRuntime` fixes the rest of the inner policy.
    """

    rho: float = 1.0
    tol: float = 1e-4
    max_iters: int = 500
    qp_tol: float = 1e-6

    def __post_init__(self):
        for name in ("rho", "tol", "qp_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, "
                                 f"got {value!r}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 0:
            raise ValueError(f"max_iters must be a nonnegative integer, "
                             f"got {self.max_iters!r}")


class SubproblemRuntime:
    """Subproblem QP workspaces, warm starts and the inner-solve policy.

    Holds one fixed-structure QpWorkspace per key: ``None`` for the central
    driver, the agent id for the distributed ones. The first solve under a
    key builds the workspace for :func:`mcf.relaxed_qp` of its instance and
    scalar diagonal; later solves pass only the new linear cost and
    warm-start from that key's previous solution. A key stays bound to that
    instance and diagonal, and reusing it for others raises ValueError
    rather than solving a stale QP.

    An inner solve runs at most ``QP_MAX_ITERS`` iterations. An infeasible
    subproblem raises InfeasibleSubproblemError. A max-iters solve is
    accepted, and logged as degraded, when its residuals are at or below
    ``QP_ACCEPT_RESIDUAL``; a worse or NaN one raises RuntimeError.
    :meth:`counters` totals every solve, including one that raised.
    """

    QP_MAX_ITERS = 20000
    QP_ACCEPT_RESIDUAL = 1e-4

    def __init__(self):
        self.workspaces = {}
        self.last = {}
        self.solves = self.inner_iters = self.polish_kept = 0

    def counters(self):
        """The :class:`report.QpCounters` of every solve so far."""
        return QpCounters(
            solves=self.solves,
            inner_iters=self.inner_iters,
            refactors=sum(ws.refactors for _, _, ws in self.workspaces.values()),
            polish_kept=self.polish_kept,
            polish_rejected=self.solves - self.polish_kept,
        )

    def solve(self, key, inst, diag, q, cfg):
        entry = self.workspaces.get(key)
        if entry is None:
            entry = self.workspaces[key] = (
                inst, diag, QpWorkspace(relaxed_qp(inst, diag, q)))
        elif entry[0] is not inst or entry[1] != diag:
            raise ValueError(f"subproblem key {key!r} is bound to another "
                             f"instance or diagonal")
        sol = entry[2].solve(q, tol=cfg.qp_tol, max_iters=self.QP_MAX_ITERS,
                             warm=self.last.get(key))
        self.solves += 1
        self.inner_iters += sol.iterations
        self.polish_kept += sol.polished
        who = "" if key is None else f"agent {key}: "
        if sol.status == "infeasible-detected":
            raise InfeasibleSubproblemError(
                f"{who}continuous subproblem infeasible: the relaxed "
                f"constraint set is empty"
            )
        if sol.status == "max-iters":
            if not sol.max_residual <= self.QP_ACCEPT_RESIDUAL:
                raise RuntimeError(
                    f"{who}inner solve stalled at residual {sol.max_residual:.3e}"
                )
            logger.warning("%saccepting degraded inner solve (residual %.3e)",
                           who, sol.max_residual)
        self.last[key] = sol
        return sol


@dataclass
class CentralState:
    """One centralized trajectory point: primal blocks, tree, flows, duals.

    ``z`` is the tree as an int8 0/1 vector from iteration 1 onward; the
    initial state carries the all-ones relaxed anchor w0 instead (see
    :func:`relaxed_start`).
    """

    w: np.ndarray
    u: np.ndarray
    z: np.ndarray
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    k: int = 0


class Primals(NamedTuple):
    """One copy's new primals: relaxation (w, u), tree z (an int8 0/1
    vector) and rounded flows y."""

    w: np.ndarray
    u: np.ndarray
    z: np.ndarray
    y: np.ndarray


def relaxed_start(inst):
    """The starting (w, u, z, y, mu, eta) of every copy: w0 = 1, flows and
    duals at zero.

    The first subproblem's tree anchor is w0 itself rather than a projected
    tree: with w0 = 1 every spanning tree ties in the projection, and seeding
    the penalty with an arbitrary tie-broken tree locks moderate-to-large
    penalties onto it. Anchoring at the relaxed vector lets the first
    projection see a cost-graded relaxation; every iterate from k = 1 onward
    is an exact spanning tree.
    """
    return dict(
        w=np.ones(inst.dim_w),
        u=np.zeros(inst.dim_u),
        z=np.ones(inst.dim_w, dtype=np.int8),
        y=np.zeros(inst.dim_u, dtype=np.int8),
        mu=np.zeros(inst.dim_w),
        eta=np.zeros(inst.dim_u),
    )


def centralized_linear_cost(inst, z_k, y_k, mu_k, eta_k, rho):
    """Linear term of the centralized subproblem over stacked (w, u).

    Expansion of  c'w + (rho/2)||z - w + mu||^2 + (rho/2)||y - u + eta||^2.
    """
    z = indicator_vector(z_k, inst.dim_w).astype(float)
    y = np.asarray(y_k, dtype=float)
    mu = np.asarray(mu_k, dtype=float)
    eta = np.asarray(eta_k, dtype=float)
    if len(y) != inst.dim_u or len(eta) != inst.dim_u or len(mu) != inst.dim_w:
        raise ValueError("iterate dimensions do not match the instance")
    q = np.empty(inst.dim_total)
    q[: inst.dim_w] = inst.costs - rho * (z + mu)
    q[inst.dim_w:] = -rho * (y + eta)
    return q


def build_centralized_subproblem(inst, z_k, y_k, mu_k, eta_k, rho):
    """Quadratic subproblem of the centralized method at the current iterate:
    :func:`mcf.relaxed_qp` with diagonal rho and the linear cost from
    :func:`centralized_linear_cost`."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    return relaxed_qp(inst, float(rho),
                      centralized_linear_cost(inst, z_k, y_k, mu_k, eta_k, rho))


def primal_step(runtime, key, inst, diag, q, cfg, mu, eta):
    """One copy's primal update: the subproblem solve under ``key`` in
    ``runtime``, then the tree projection of w against ``mu`` and the
    rounding of u - ``eta``."""
    sol = runtime.solve(key, inst, diag, q, cfg)
    w, u = inst.split(sol.v)
    w, u = w.copy(), u.copy()
    return Primals(w, u, project_tree(w, mu, inst.graph).vector,
                   project_binary(u - eta))


def local_duals(mu, eta, z, w, y, u):
    """The scaled tree and flow duals ascended by the new primals' own
    consensus residuals: mu + (z - w) and eta + (y - u), with the tree z
    as 0/1 entries, for one copy's vectors or for one copy per row."""
    return mu + (z - w), eta + (y - u)


def init_state(inst):
    """The centralized start, :func:`relaxed_start` of ``inst``."""
    return CentralState(**relaxed_start(inst))


def step(state, inst, cfg, runtime):
    """One ADMM iteration, solving the subproblem in ``runtime``; returns
    the next state.

    The projections consume the pre-update duals: z uses mu_k and y uses
    eta_k, then both duals ascend by their new consensus residuals.
    """
    q = centralized_linear_cost(inst, state.z, state.y, state.mu, state.eta,
                                cfg.rho)
    new = primal_step(runtime, None, inst, cfg.rho, q, cfg, state.mu, state.eta)
    mu, eta = local_duals(state.mu, state.eta, new.z, new.w, new.y, new.u)
    return CentralState(*new, mu=mu, eta=eta, k=state.k + 1)


def change_norm(prev, curr, fields):
    """Euclidean norm of the change in the stacked ``fields`` between two
    states along the last axis (one per row); the squared differences are
    summed field by field, in order.

    Each field's term is ``np.sum((curr - prev) ** 2, axis=-1)`` computed in
    place, bit for bit: ``d ** 2`` is ``d * d``, and np.sum runs
    np.add.reduce, which sums each row on its own.
    """
    total = 0.0
    for name in fields:
        d = np.subtract(getattr(curr, name), getattr(prev, name))
        total = total + np.add.reduce(np.multiply(d, d, out=d), axis=-1)
    return np.sqrt(total)


def residual_central(prev, curr):
    """Dual-change norm plus primal-change norm between consecutive states.

    The flow dual joins the tree dual in one stacked block; the primal block
    stacks (u, w).
    """
    return float(change_norm(prev, curr, ("mu", "eta"))
                 + change_norm(prev, curr, ("u", "w")))


def run_outer_loop(inst, cfg, mode, init, advance, record):
    """The outer loop and answer extraction shared by both drivers.

    The loop owns the run's one :class:`SubproblemRuntime` and reports its
    counters. ``init(inst)`` gives the starting state and
    ``advance(state, runtime)`` the next; a state counts its iterations in
    ``k``. A state holds its variable copies' relaxations ``w``, trees ``z``
    and flows ``y`` as one vector each (the central state) or one row per
    copy (a world's agents). After each iteration every row of ``z`` is
    checked to be a spanning tree, then ``record(prev, state, trace,
    runtime)`` appends the iterate's trace rows and returns its residual;
    the run stops once that drops below ``cfg.tol``.

    The answer is the first copy's tree (row 0), as the run's one
    TreeIndicator, with every commodity routed on it: "iterate" when that
    routing equals the copy's flows (feasible binary flows on a spanning
    tree are that routing), "rerouted" otherwise, and no flows when it
    breaks the hop bound.
    """
    t0 = time.perf_counter()
    runtime = SubproblemRuntime()
    state = init(inst)
    trace = []
    trees_validated = 0
    status = "not-run" if cfg.max_iters == 0 else "max-iters"
    residual = math.inf
    for _ in range(cfg.max_iters):
        prev = state
        state = advance(state, runtime)
        for i, z in enumerate(np.atleast_2d(state.z)):
            if not is_spanning_tree(inst.graph, z):
                raise InvalidTreeError(
                    f"iterate {state.k}, copy {i}: not a spanning tree")
            trees_validated += 1
        residual = record(prev, state, trace, runtime)
        if residual < cfg.tol:
            status = "converged"
            break
    w, z, y = (np.atleast_2d(rows)[0] for rows in (state.w, state.z, state.y))
    flows = None
    extraction = "none"
    feasible = False
    if state.k == 0:
        # nothing ran: no tree exists yet, only the relaxed starting point
        tree = None
        final_objective = objective(inst, w)
    else:
        tree = TreeIndicator(z)
        final_objective = objective(inst, z)
        routed = route_on_tree(inst, z)
        if routed.feasible:
            flows, feasible = routed.flows, True
            extraction = ("iterate" if np.array_equal(routed.flows, y)
                          else "rerouted")
        else:
            logger.warning(
                "no feasible extraction: commodities %s exceed the hop "
                "bound on the final tree", routed.over_limit,
            )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return SolveReport(
        mode=mode,
        status=status,
        tree=tree,
        flows=flows,
        objective=final_objective,
        feasible=feasible,
        iterations=state.k,
        residual=residual,
        wall_ms=wall_ms,
        trace=trace,
        extraction=extraction,
        trees_validated=trees_validated,
        counters=runtime.counters(),
    )


def solve_central(inst, cfg):
    """Run the centralized method until the residual drops below tolerance;
    :func:`run_outer_loop` checks each tree and extracts the answer."""

    def record(prev, state, trace, runtime):
        residual = residual_central(prev, state)
        sol = runtime.last[None]
        trace.append(CentralTraceRow(
            k=state.k,
            objective_w=objective(inst, state.w),
            objective_z=objective(inst, state.z),
            residual=residual,
            qp_iters=sol.iterations,
            qp_status=sol.status,
            # the loop checked the tree before recording
            feasible_now=check_flows(inst, state.z, state.y).feasible,
        ))
        return residual

    return run_outer_loop(
        inst, cfg, "central", init_state,
        lambda state, runtime: step(state, inst, cfg, runtime),
        record,
    )
