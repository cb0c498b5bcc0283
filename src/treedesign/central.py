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
"""

from __future__ import annotations

import logging
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .graphs import InvalidTreeError, is_spanning_tree
from .mcf import (
    centralized_linear_cost,
    check_feasible,
    check_flows,
    objective,
    relaxed_qp,
    route_on_tree,
)
# not called here; the patch table in perfbench/tracing.py looks it up here
from .mcf import build_centralized_subproblem  # noqa: F401
from .projection import project_binary, project_tree
from .qp import InfeasibleSubproblemError, QpWorkspace
from .report import CentralTraceRow, SolveReport

logger = logging.getLogger(__name__)

__all__ = [
    "SolverConfig",
    "SubproblemRuntime",
    "CentralState",
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
    """

    QP_MAX_ITERS = 20000
    QP_ACCEPT_RESIDUAL = 1e-4

    def __init__(self):
        self.workspaces = {}
        self.last = {}

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

    ``z`` is a TreeIndicator from iteration 1 onward; the initial state
    carries the relaxed anchor vector w0 instead (see :func:`init_state`).
    """

    w: np.ndarray
    u: np.ndarray
    z: object
    y: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    k: int = 0
    qp_iterations: int = 0
    qp_status: str = "init"


def init_state(inst, cfg):
    """Relaxed start: w0 = 1, flows and duals at zero.

    The first subproblem's tree anchor is w0 itself rather than a projected
    tree: with w0 = 1 every spanning tree ties in the projection, and seeding
    the penalty with an arbitrary tie-broken tree locks moderate-to-large
    penalties onto it. Anchoring at the relaxed vector lets the first
    projection see a cost-graded relaxation; every iterate from k = 1 onward
    is an exact spanning tree.
    """
    return CentralState(
        w=np.ones(inst.dim_w),
        u=np.zeros(inst.dim_u),
        z=np.ones(inst.dim_w),
        y=np.zeros(inst.dim_u, dtype=np.int8),
        mu=np.zeros(inst.dim_w),
        eta=np.zeros(inst.dim_u),
    )


def step(state, inst, cfg, _runtime=None):
    """One ADMM iteration; returns the next state.

    The projections consume the pre-update duals: z uses mu_k and y uses
    eta_k, then both duals ascend by their new consensus residuals.
    """
    runtime = _runtime if _runtime is not None else SubproblemRuntime()
    q = centralized_linear_cost(inst, state.z, state.y, state.mu, state.eta,
                                cfg.rho)
    sol = runtime.solve(None, inst, cfg.rho, q, cfg)
    w_next, u_next = inst.split(sol.v)
    w_next = w_next.copy()
    u_next = u_next.copy()
    z_next = project_tree(w_next, state.mu, inst.graph)
    y_next = project_binary(u_next - state.eta)
    mu_next = state.mu + (z_next.vector - w_next)
    eta_next = state.eta + (y_next - u_next)
    return CentralState(
        w=w_next,
        u=u_next,
        z=z_next,
        y=y_next,
        mu=mu_next,
        eta=eta_next,
        k=state.k + 1,
        qp_iterations=sol.iterations,
        qp_status=sol.status,
    )


def change_norm(prev, curr, fields):
    """Euclidean norm of the change in the stacked ``fields`` between two
    states; the squared differences are summed field by field, in order."""
    total = 0.0
    for name in fields:
        total += float(np.sum((getattr(curr, name) - getattr(prev, name)) ** 2))
    return math.sqrt(total)


def residual_central(prev, curr):
    """Dual-change norm plus primal-change norm between consecutive states.

    The flow dual joins the tree dual in one stacked block; the primal block
    stacks (u, w).
    """
    return change_norm(prev, curr, ("mu", "eta")) + change_norm(prev, curr, ("u", "w"))


def run_outer_loop(inst, cfg, mode, init, advance, copies, record):
    """The outer loop and answer extraction shared by both drivers.

    ``init(inst, cfg)`` gives the starting state and ``advance(state)`` the
    next iterate; a state counts its iterations in ``k``. ``copies(state)``
    lists the variable copies an iterate holds (the central state itself, or
    every agent), each with a tree ``z``, flows ``y`` and relaxation ``w``.
    After each iteration every copy's tree is checked, then
    ``record(prev, state, trace)`` appends the iterate's trace rows and
    returns its residual; the run stops once that drops below ``cfg.tol``.

    The answer comes from the first copy: its (tree, flows) when they pass
    the feasibility check; otherwise the flows are re-derived by routing on
    its tree, and if even that breaks the hop bound the run is reported
    infeasible rather than repaired further.
    """
    t0 = time.perf_counter()
    state = init(inst, cfg)
    trace = []
    trees_validated = 0
    status = "not-run" if cfg.max_iters == 0 else "max-iters"
    residual = math.inf
    for _ in range(cfg.max_iters):
        prev = state
        state = advance(state)
        for i, copy in enumerate(copies(state)):
            if not is_spanning_tree(inst.graph, copy.z):
                raise InvalidTreeError(
                    f"iterate {state.k}, copy {i}: not a spanning tree")
            trees_validated += 1
        residual = record(prev, state, trace)
        if residual < cfg.tol:
            status = "converged"
            break
    reporter = copies(state)[0]
    flows = None
    extraction = "none"
    feasible = False
    if state.k == 0:
        # nothing ran: no tree exists yet, only the relaxed starting point
        tree = None
        final_objective = objective(inst, reporter.w)
    else:
        tree = reporter.z
        final_objective = objective(inst, tree.vector)
        if check_feasible(inst, tree, reporter.y).feasible:
            flows, extraction, feasible = reporter.y, "iterate", True
        else:
            routed = route_on_tree(inst, tree)
            if routed.feasible:
                flows, extraction, feasible = routed.flows, "rerouted", True
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
    )


def solve_central(inst, cfg):
    """Run the centralized method until the residual drops below tolerance;
    :func:`run_outer_loop` checks each tree and extracts the answer."""
    runtime = SubproblemRuntime()

    def record(prev, state, trace):
        residual = residual_central(prev, state)
        trace.append(CentralTraceRow(
            k=state.k,
            objective_w=objective(inst, state.w),
            objective_z=objective(inst, state.z.vector),
            residual=residual,
            qp_iters=state.qp_iterations,
            qp_status=state.qp_status,
            # the loop checked the tree before recording
            feasible_now=check_flows(inst, state.z, state.y).feasible,
        ))
        return residual

    return run_outer_loop(
        inst, cfg, "central", init_state,
        lambda state: step(state, inst, cfg, _runtime=runtime),
        lambda state: (state,), record,
    )
