"""Workloads, output checks and metrics of the treedesign benchmark.

Load shape: one process runs one closed loop with a single caller, solve
after solve, with no thread or process pool. Instance seeds are drawn from
the workload seed, and the library receives only the generated instances.
Draws are never filtered: runs that cycle to their cap, degraded inner
solves and distributed runs split into two tree camps are all kept.

A pass works through instances until its time is up, checking the clock
before each cell (an instance build, a solve or an oracle call), so the
last cell may run past the deadline. Every answer is checked. A solve that
raises or fails a check counts as failed; only a failed check makes the
output incorrect.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.sparse.linalg import splu

from treedesign import central, distributed, mcf, oracle
from treedesign.central import SolverConfig
from treedesign.cli import compute_gap
from treedesign.graphs import is_spanning_tree
from treedesign.mcf import check_feasible, route_on_tree
from treedesign.oracle import BudgetExceededError, EnumerationBudget

TOL = 1e-4


@dataclass(frozen=True)
class Workload:
    """Instance family and solver settings; ``budget`` None means no oracle."""

    name: str
    mode: str
    n: int
    p: float
    commodities: int | None
    rhos: tuple
    max_iters: int
    budget: EnumerationBudget | None


WORKLOADS = {w.name: w for w in (
    # the acceptance fixture: rho sweep at tol 1e-4, 500 iterations, with
    # the fixture's oracle budget
    Workload("sweep-n10", "central", 10, 0.5, 2, (0.1, 1.0, 10.0), 500,
             EnumerationBudget(max_edges=34, max_trees=30_000_000)),
    # converged draws need 46-137 rounds; two-camp splits run to the cap
    Workload("dist-n8", "distributed", 8, 0.5, None, (0.1,), 200,
             EnumerationBudget()),
    # one outer step, a cold inner solve plus polish at n=30; runnable but
    # not listed in BENCHMARK.json (see spec.py)
    Workload("scale-n30", "central", 30, 0.5, None, (1.0,), 1, None),
)}


@dataclass
class Solve:
    """One solve as measured and checked; ``iterations`` are outer ones."""

    m: int
    rho: float
    seconds: float
    inner_iters: int
    iterations: int
    status: str
    feasible: bool
    objective: float
    mst_cost: float
    gap_pct: float | None = None
    ref_iter_s: float = math.nan
    failed: bool = False


@dataclass
class Pass:
    """What one pass over a workload did, measured and checked."""

    setup_s: list = field(default_factory=list)
    solves: list = field(default_factory=list)
    oracle_s: list = field(default_factory=list)
    oracle_subsets: int = 0
    oracle_skipped: int = 0
    oracle_failed: int = 0
    problems: list = field(default_factory=list)
    raised: list = field(default_factory=list)
    answers: list = field(default_factory=list)
    cell_s: list = field(default_factory=list)

    def digest(self, solves=None):
        """SHA-256 over the answers of the first ``solves`` solves (default all)."""
        return hashlib.sha256("".join(self.answers[:solves]).encode()).hexdigest()

    @property
    def attempted(self):
        return len(self.solves) + len(self.oracle_s)

    @property
    def failed(self):
        return sum(s.failed for s in self.solves) + self.oracle_failed

    @property
    def solve_wall_s(self):
        return sum(s.seconds for s in self.solves)


class Reference:
    """A fixed reference iteration, timed just before and after every solve.

    On a shared host the CPU speed can change by a factor of two for tens of
    seconds at a time, so each solve's time per inner QP iteration is also
    reported as a multiple of this iteration's time. The loop mirrors one
    inner QP iteration -- a SuperLU triangular solve plus a few short numpy
    vector operations -- on a fixed matrix built with scipy alone, so it
    does not depend on the library under test.
    """

    SIZE = 300
    ITERS = 2000

    def __init__(self):
        rng = np.random.default_rng(20250811)
        a = sp.random(self.SIZE, self.SIZE, density=0.01, random_state=rng) \
            + 4.0 * sp.identity(self.SIZE)
        self.a = a.tocsr()
        self.lu = splu(a.tocsc())

    def iteration_s(self):
        """Mean seconds of one reference iteration (about 0.2 s in all)."""
        x = np.ones(self.SIZE)
        t0 = time.perf_counter()
        for _ in range(self.ITERS):
            y = self.lu.solve(x)
            x = np.clip(0.5 * x + 0.1 * y, -1.0, 1.0)
            float(np.max(np.abs(self.a @ x - y)))
        return (time.perf_counter() - t0) / self.ITERS


def instance_seeds(workload, seed):
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    while True:
        yield int(rng.integers(2**31))


def mst_cost(inst):
    """Cost of an unconstrained minimum spanning tree, a lower bound."""
    g = inst.graph
    rows = [u for u, _ in g.edges]
    cols = [v for _, v in g.edges]
    mat = sp.csr_matrix((inst.costs, (rows, cols)), shape=(g.n, g.n))
    return float(minimum_spanning_tree(mat).sum())


def tree_cost(inst, tree):
    return float(np.dot(inst.costs, tree.vector.astype(float)))


def inner_iterations(report):
    column = 4 if report.mode == "central" else 5
    return sum(row[column] for row in report.trace)


def check_report(inst, rep, lower_bound):
    """Problems with one solver answer; an empty list means it passed."""
    if rep.tree is None or not is_spanning_tree(inst.graph, rep.tree):
        return ["final tree is not a spanning tree"]
    problems = []
    if not math.isclose(rep.objective, tree_cost(inst, rep.tree), rel_tol=1e-12):
        problems.append(f"objective {rep.objective!r} is not the tree's cost")
    if rep.objective < lower_bound * (1 - 1e-12):
        problems.append(f"objective {rep.objective!r} is below the MST bound")
    if rep.feasible and (rep.flows is None
                         or not check_feasible(inst, rep.tree, rep.flows).feasible):
        problems.append("flows reported feasible fail check_feasible")
    return problems


def check_oracle(inst, exact):
    if not exact.feasible:
        return []
    if not is_spanning_tree(inst.graph, exact.tree):
        return ["oracle tree is not a spanning tree"]
    problems = []
    if not route_on_tree(inst, exact.tree).feasible:
        problems.append("oracle tree breaks the hop bound")
    if not math.isclose(exact.objective, tree_cost(inst, exact.tree), rel_tol=1e-12):
        problems.append("oracle objective is not its tree's cost")
    return problems


def _solver(workload):
    # looked up at call time, so a traced pass reaches the installed wrapper
    if workload.mode == "central":
        return central.solve_central
    return distributed.solve_distributed


def run_pass(workload, seed, seconds, tracer=None, cells=None):
    """Work through the workload's instances for ``seconds`` seconds.

    With ``cells`` set, the pass instead stops after exactly that many
    solve and oracle cells, which replays the start of an earlier pass on
    the same seed.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    reference = Reference()
    out = Pass()
    start = time.perf_counter()

    def stop():
        if cells is not None:
            return len(out.cell_s) >= cells
        return len(out.cell_s) > 0 and time.perf_counter() - start >= seconds

    for inst_seed in instance_seeds(workload, seed):
        if stop():
            break
        gc.collect()
        t0 = time.perf_counter()
        with span("bench.setup"):
            inst = mcf.random_instance(workload.n, workload.p, seed=inst_seed,
                                       n_commodities=workload.commodities)
        out.setup_s.append(time.perf_counter() - t0)
        bound = mst_cost(inst)
        answered = []
        for rho in workload.rhos:
            if stop():
                break
            solve = _solve_cell(out, workload, inst, rho, bound, span, reference)
            if solve is not None:
                answered.append(solve)
        if workload.budget is not None and not stop():
            _oracle_cell(out, workload, inst, answered, span)
    return out


def _solve_cell(out, workload, inst, rho, bound, span, reference):
    cfg = SolverConfig(rho=rho, tol=TOL, max_iters=workload.max_iters)
    solve = _solver(workload)
    gc.collect()
    ref_before = reference.iteration_s()
    t0 = time.perf_counter()
    try:
        with span("bench.solve"):
            rep = solve(inst, cfg)
    except Exception as exc:  # a raising solve is a failed operation
        seconds = time.perf_counter() - t0
        out.cell_s.append(seconds)
        out.solves.append(Solve(inst.m, rho, seconds, 0, 0, "raised", False,
                                math.nan, bound, failed=True))
        out.raised.append(f"{inst!r} rho={rho}: {exc!r}")
        out.answers.append(f"raised {type(exc).__name__}\n")
        return None
    seconds = time.perf_counter() - t0
    out.cell_s.append(seconds)
    ref_iter_s = (ref_before + reference.iteration_s()) / 2
    problems = check_report(inst, rep, bound)
    out.problems += [f"{inst!r} rho={rho}: {p}" for p in problems]
    record = Solve(inst.m, rho, seconds, inner_iterations(rep), rep.iterations,
                   rep.status, rep.feasible, rep.objective, bound,
                   ref_iter_s=ref_iter_s, failed=bool(problems))
    out.solves.append(record)
    tree = rep.tree.selected if rep.tree is not None else None
    out.answers.append(f"{tree}|{rep.objective!r}|{rep.status}|{rep.iterations}\n")
    return record, rep


def _oracle_cell(out, workload, inst, answered, span):
    try:
        gc.collect()
        t0 = time.perf_counter()
        with span("bench.oracle"):
            exact = oracle.exact_solve(inst, workload.budget)
    except BudgetExceededError:
        # over the enumeration budget: no exact optimum to score against
        out.oracle_skipped += 1
        return
    out.oracle_s.append(time.perf_counter() - t0)
    out.cell_s.append(out.oracle_s[-1])
    out.oracle_subsets += math.comb(inst.m, inst.n - 1)
    problems = check_oracle(inst, exact)
    if problems:
        out.oracle_failed += 1
        out.problems += [f"{inst!r} oracle: {p}" for p in problems]
        return
    for record, rep in answered:
        if not rep.feasible:
            continue
        if not exact.feasible:
            record.failed = True
            out.problems.append(f"{inst!r}: feasible answer, oracle found none")
            continue
        record.gap_pct = compute_gap(rep.objective, exact.objective)
        if record.gap_pct < -1e-9:
            record.failed = True
            out.problems.append(f"{inst!r}: gap {record.gap_pct!r} below zero")


def replay_cells(p, seconds):
    """Cell count of the longest prefix of ``p`` within ``seconds``, at least 1."""
    total = 0.0
    for count, cell in enumerate(p.cell_s):
        total += cell
        if total > seconds:
            return max(count, 1)
    return len(p.cell_s)


def warm_up():
    """Load every code path once, outside any timed region."""
    inst = mcf.random_instance(6, 0.5, seed=0)
    central.solve_central(inst, SolverConfig(rho=1.0, tol=TOL, max_iters=5))
    distributed.solve_distributed(inst, SolverConfig(rho=0.1, tol=TOL, max_iters=3))
    oracle.exact_solve(inst)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values):
    # 0.0 stands for "no sample", e.g. when every solve of a run raised
    return statistics.median(values) if values else 0.0


def end_to_end(p):
    """Every end-to-end figure of a pass as {name: (value, unit, samples)}."""
    times = [s.seconds for s in p.solves]
    done = [s for s in p.solves if s.status != "raised" and s.inner_iters]
    per_iter = [s.seconds / s.inner_iters for s in done]
    rel_iter = [s.seconds / s.inner_iters / s.ref_iter_s for s in done]
    gaps = [s.gap_pct for s in p.solves if s.gap_pct is not None]
    ratios = [s.objective / s.mst_cost for s in done]
    figures = {
        "setup_s": (statistics.median(p.setup_s), "s", len(p.setup_s)),
        "qp_iter_rel_p50": (_median(rel_iter), "ratio", len(rel_iter)),
        "qp_iter_us_p50": (_median(per_iter) * 1e6, "us", len(per_iter)),
        "solve_wall_s": (p.solve_wall_s, "s", len(times)),
        "solve_s_p50": (_median(times), "s", len(times)),
        "cost_over_mst": (statistics.fmean(ratios) if ratios else 0.0,
                          "ratio", len(ratios)),
        "feasible_frac": (sum(s.feasible for s in p.solves) / len(times),
                          "ratio", len(times)),
        "failed_frac": (p.failed / p.attempted, "ratio", p.attempted),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    if p.oracle_s or p.oracle_skipped:
        figures["oracle_skipped"] = (p.oracle_skipped, "count",
                                     p.oracle_skipped + len(p.oracle_s))
    if p.oracle_s:
        figures["oracle_s"] = (sum(p.oracle_s), "s", len(p.oracle_s))
        figures["oracle_ns_per_subset"] = (
            sum(p.oracle_s) / p.oracle_subsets * 1e9, "ns", p.oracle_subsets)
    if gaps:
        figures["gap_pct_mean"] = (statistics.fmean(gaps), "%", len(gaps))
    return figures
