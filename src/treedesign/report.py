"""Solve reports and the CSV trace/summary formats.

Floats are written with repr (shortest round-trip form), so re-running a
deterministic solve re-emits byte-identical files and parsing a file and
re-emitting it reproduces it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


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


def read_csv(path):
    """Header tuple and rows of raw string cells."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    header = tuple(lines[0].split(","))
    return header, [tuple(line.split(",")) for line in lines[1:]]


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
