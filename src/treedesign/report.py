"""Solve reports, the optimality gap, and the CSV trace/summary formats.

Floats are written with repr (shortest round-trip form), so re-running a
deterministic solve re-emits byte-identical files and parsing a file and
re-emitting it reproduces it exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

logger = logging.getLogger(__name__)


class CentralTraceRow(NamedTuple):
    """One centralized iteration; the fields are the trace CSV's columns."""

    k: int
    objective_w: float
    objective_z: float
    residual: float
    qp_iters: int
    qp_status: str
    feasible_now: bool


class DistributedTraceRow(NamedTuple):
    """One agent in one round (``agent`` is -1 on an aggregated row)."""

    k: int
    agent: int
    objective_w: float
    residual_contrib: float
    consensus_gap: float
    qp_iters: int


CENTRAL_TRACE_COLUMNS = CentralTraceRow._fields
DISTRIBUTED_TRACE_COLUMNS = DistributedTraceRow._fields
SUMMARY_COLUMNS = (
    "n", "m", "seed", "rho", "mode", "iters", "objective", "feasible",
    "gap_pct", "oracle_obj", "status", "wall_ms", "trace_path",
)


def format_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(v) for v in row) + "\n")


def compute_gap(heuristic_obj, exact_obj):
    """Optimality gap in percent: (heuristic / exact - 1) * 100.

    Zero means an exact match. A materially negative value for a feasible
    heuristic would contradict the oracle's optimality and is logged as an
    internal error (and still returned, never hidden).
    """
    if exact_obj <= 0:
        raise ValueError("exact objective must be positive")
    gap = (heuristic_obj / exact_obj - 1.0) * 100.0
    if gap < -1e-9:
        logger.error(
            "internal error: feasible heuristic objective %.12g beats the "
            "exact optimum %.12g", heuristic_obj, exact_obj,
        )
    return gap


@dataclass
class SolveReport:
    """Outcome of one solver run.

    ``objective`` is always the cost of the final tree, recomputable from the
    instance; ``flows`` is None when no feasible flow extraction exists.
    ``extraction`` records how the flows were obtained: the raw iterate, a
    re-route on the final tree, or nothing.
    """

    mode: str
    status: str
    tree: object
    flows: object
    objective: float
    feasible: bool
    iterations: int
    residual: float
    wall_ms: float
    trace: list = field(default_factory=list, repr=False)
    extraction: str = "none"
    trees_validated: int = 0
    final_consensus_gap: float | None = None
