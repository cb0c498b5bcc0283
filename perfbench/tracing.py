"""In-memory span tracing for the traced benchmark run.

Each wrapper is installed onto the module attribute that the library's own
callers look up (``treedesign.central.project_tree``, the class attribute
``treedesign.qp.QpWorkspace.solve``, ...), so no library file changes and
uninstalling restores the original objects. A wrapped call records a span
only while a span opened by the benchmark itself is open, which keeps the
benchmark's output checks out of the layer figures.

A span is ``(id, parent, root, name, start, end, attrs)``; self time is the
duration minus the summed durations of the span's direct children (calls
nest, and the program is single-threaded, so children never overlap).
"""

from __future__ import annotations

import gzip
import importlib
import math
import statistics
import time
from contextlib import contextmanager

_MARK = "__perfbench_span__"


class Tracer:
    """Span store plus the stack of spans open right now."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 0

    @contextmanager
    def span(self, name):
        """A root span opened by the benchmark around one call into the library."""
        sid = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, t0, time.perf_counter(), None)

    def call(self, name, fn, args, kwargs, on_result=None):
        if not self._stack:
            return fn(*args, **kwargs)
        sid = self._open()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, name, t0, time.perf_counter(), "raised")
            raise
        t1 = time.perf_counter()
        self._close(sid, name, t0, t1,
                    on_result(result, args) if on_result else None)
        return result

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, t0, t1, attrs):
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        # children close before their parent, so a parent lands after them
        self.spans.append((sid, parent, root, name, t0, t1, attrs))

    def write(self, path):
        """Dump every span as gzip-compressed CSV (times in seconds)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,root,name,start,end,attrs\n")
            for sid, parent, root, name, t0, t1, attrs in self.spans:
                parent = "" if parent is None else parent
                attrs = "" if attrs is None else str(attrs).replace(",", ";")
                fh.write(f"{sid},{parent},{root},{name},{t0!r},{t1!r},{attrs}\n")


# -- the patch table -----------------------------------------------------------


def _qp_result(sol, args):
    return (sol.iterations, sol.status)


def _solve_result(rep, args):
    return (rep.iterations, rep.status, rep.final_consensus_gap)


def _oracle_result(exact, args):
    g = args[0].graph
    return (exact.trees_enumerated, math.comb(g.m, g.n - 1))


_CENTRAL = "treedesign.central"
_DIST = "treedesign.distributed"

# (module, attribute path, span name, result hook); one row per name a
# caller looks up
TARGETS = (
    ("treedesign.qp", "QpWorkspace.__init__", "qp.workspace", None),
    ("treedesign.qp", "QpWorkspace.solve", "qp.solve", _qp_result),
    ("treedesign.mcf", "random_instance", "mcf.random_instance", None),
    ("treedesign.mcf", "relaxed_set_nonempty", "mcf.relaxed_set_nonempty", None),
    ("treedesign.mcf", "constraint_blocks", "mcf.constraint_blocks", None),
    ("treedesign.mcf", "generate_erdos_renyi", "graphs.generate_erdos_renyi", None),
    ("treedesign.mcf", "is_spanning_tree", "graphs.is_spanning_tree", None),
    ("treedesign.graphs", "is_spanning_tree", "graphs.is_spanning_tree", None),
    (_CENTRAL, "solve_central", "central.solve_central", _solve_result),
    (_CENTRAL, "step", "central.step", None),
    (_CENTRAL, "residual_central", "central.residual_central", None),
    (_CENTRAL, "build_centralized_subproblem", "mcf.build_subproblem", None),
    (_CENTRAL, "check_feasible", "mcf.check_feasible", None),
    (_CENTRAL, "route_on_tree", "mcf.route_on_tree", None),
    (_CENTRAL, "project_tree", "projection.project_tree", None),
    (_CENTRAL, "project_binary", "projection.project_binary", None),
    (_CENTRAL, "is_spanning_tree", "graphs.is_spanning_tree", None),
    (_DIST, "solve_distributed", "distributed.solve_distributed", _solve_result),
    (_DIST, "sync_round", "distributed.sync_round", None),
    (_DIST, "agent_primal_step", "distributed.agent_primal_step", None),
    (_DIST, "agent_dual_step", "distributed.agent_dual_step", None),
    (_DIST, "consensus_gap", "distributed.consensus_gap", None),
    (_DIST, "residual_distributed", "distributed.residual_distributed", None),
    (_DIST, "build_agent_subproblem", "mcf.build_subproblem", None),
    (_DIST, "check_feasible", "mcf.check_feasible", None),
    (_DIST, "route_on_tree", "mcf.route_on_tree", None),
    (_DIST, "project_tree", "projection.project_tree", None),
    (_DIST, "project_binary", "projection.project_binary", None),
    (_DIST, "is_spanning_tree", "graphs.is_spanning_tree", None),
    ("treedesign.oracle", "exact_solve", "oracle.exact_solve", _oracle_result),
)
# qp.py calls ``spla.splu``; the wrapper replaces its module alias ``spla``
LINALG_TARGET = ("treedesign.qp", "spla")


def _owner(module, path):
    obj = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, attr


def _wrap(tracer, name, fn, on_result):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, on_result)

    wrapper.__wrapped__ = fn
    setattr(wrapper, _MARK, name)
    return wrapper


class _TracedFactor:
    """A SuperLU factor whose triangular solves are spans."""

    def __init__(self, lu, fill, tracer):
        self._lu = lu
        self._fill = lambda result, args: fill
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        return self._tracer.call("qp.lu_solve", self._lu.solve,
                                 (rhs,) + args, kwargs, self._fill)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _TracedLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``treedesign.qp``."""

    def __init__(self, real, tracer):
        setattr(self, _MARK, "qp.splu")
        self._real = real
        self._tracer = tracer

    def splu(self, a, *args, **kwargs):
        fill = [0]

        def on_result(lu, _):
            fill[0] = lu.L.nnz + lu.U.nnz
            return (a.shape[0], fill[0])

        lu = self._tracer.call("qp.splu", self._real.splu, (a,) + args,
                               kwargs, on_result)
        return _TracedFactor(lu, fill[0], self._tracer)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


@contextmanager
def installed(tracer):
    """Install every wrapper for the duration of the block, then restore."""
    saved = []
    try:
        for module, path, name, on_result in TARGETS:
            owner, attr = _owner(module, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, on_result))
        owner, attr = _owner(*LINALG_TARGET)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, _TracedLinalg(original, tracer))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def wrapped_targets():
    """Names of the patch targets that currently hold a wrapper."""
    found = []
    for module, path, _, _ in TARGETS + (LINALG_TARGET + (None, None),):
        owner, attr = _owner(module, path)
        if hasattr(getattr(owner, attr), _MARK):
            found.append(f"{module}.{path}")
    return found


# -- per-layer metrics -------------------------------------------------------


class _Layer:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations = []
        self.attrs = []


def aggregate(spans):
    """Per span name: call count, total time, self time, durations, attrs."""
    child = {}
    for _, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    layers = {}
    for sid, _, _, name, t0, t1, attrs in spans:
        layer = layers.setdefault(name, _Layer())
        layer.calls += 1
        layer.total += t1 - t0
        layer.self_time += (t1 - t0) - child.get(sid, 0.0)
        layer.durations.append(t1 - t0)
        layer.attrs.append(attrs)
    return layers


def _frac(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans):
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    layers = aggregate(spans)

    def get(name):
        return layers.get(name, _Layer())

    out = {}
    qp = get("qp.solve")
    results = [a for a in qp.attrs if a != "raised"]
    inner = sum(it for it, _ in results)
    out["qp.solve.calls"] = qp.calls
    out["qp.solve.self_s"] = qp.self_time
    out["qp.inner_iters"] = inner
    out["qp.inner_iters_per_solve"] = _frac(inner, qp.calls)
    out["qp.solved_frac"] = _frac(sum(s == "solved" for _, s in results), qp.calls)
    out["qp.workspaces"] = get("qp.workspace").calls

    lu = get("qp.lu_solve")
    out["qp.lu_solve.calls"] = lu.calls
    out["qp.lu_solve.s"] = lu.total
    out["qp.lu_solve.flops_computed"] = sum(
        2 * fill for fill in lu.attrs if fill != "raised")
    splu = get("qp.splu")
    out["qp.splu.calls"] = splu.calls
    out["qp.splu.s"] = splu.total
    # a full-size KKT system is the largest one factored under its root span
    roots = {}
    for _, _, root, name, _, _, attrs in spans:
        if name == "qp.splu" and attrs != "raised":
            roots.setdefault(root, []).append(attrs)
    full = []
    for factors in roots.values():
        dim = max(d for d, _ in factors)
        full += [fill for d, fill in factors if d == dim]
    out["qp.kkt_fill_nnz"] = statistics.median(full) if full else 0

    sc = get("central.solve_central")
    done = [a for a in sc.attrs if a != "raised"]
    out["central.outer_iters"] = sum(a[0] for a in done)
    out["central.capped_frac"] = _frac(sum(a[1] == "max-iters" for a in done), sc.calls)
    out["central.converged_frac"] = _frac(sum(a[1] == "converged" for a in done), sc.calls)
    out["central.step.self_s"] = get("central.step").self_time
    out["central.residual_central.self_s"] = get("central.residual_central").self_time
    out["central.solve_central.self_s"] = sc.self_time
    steps = get("central.step").durations
    out["central.outer_iter_s_p50"] = statistics.median(steps) if steps else 0.0

    sd = get("distributed.solve_distributed")
    done = [a for a in sd.attrs if a != "raised"]
    out["distributed.rounds"] = sum(a[0] for a in done)
    out["distributed.capped_frac"] = _frac(sum(a[1] == "max-iters" for a in done), sd.calls)
    out["distributed.agent_solves"] = get("distributed.agent_primal_step").calls
    for name in ("sync_round", "agent_primal_step", "agent_dual_step",
                 "consensus_gap", "residual_distributed", "solve_distributed"):
        out[f"distributed.{name}.self_s"] = get(f"distributed.{name}").self_time
    out["distributed.consensus_gap_final_max"] = max(
        (a[2] for a in done if a[2] is not None), default=0.0)

    out["mcf.random_instance.s"] = get("mcf.random_instance").total
    out["mcf.relaxed_set_nonempty.s"] = get("mcf.relaxed_set_nonempty").total
    out["mcf.constraint_blocks.s"] = get("mcf.constraint_blocks").total
    for name in ("build_subproblem", "check_feasible"):
        out[f"mcf.{name}.calls"] = get(f"mcf.{name}").calls
        out[f"mcf.{name}.self_s"] = get(f"mcf.{name}").self_time
    out["mcf.route_on_tree.calls"] = get("mcf.route_on_tree").calls

    out["projection.project_tree.calls"] = get("projection.project_tree").calls
    out["projection.project_tree.self_s"] = get("projection.project_tree").self_time
    out["projection.project_binary.self_s"] = get("projection.project_binary").self_time

    out["graphs.generate_erdos_renyi.s"] = get("graphs.generate_erdos_renyi").total
    out["graphs.is_spanning_tree.calls"] = get("graphs.is_spanning_tree").calls
    out["graphs.is_spanning_tree.self_s"] = get("graphs.is_spanning_tree").self_time

    ex = get("oracle.exact_solve")
    done = [a for a in ex.attrs if a != "raised"]
    trees = sum(a[0] for a in done)
    subsets = sum(a[1] for a in done)
    out["oracle.exact_solve.s"] = ex.total
    out["oracle.trees_enumerated"] = trees
    out["oracle.subsets_tested"] = subsets
    out["oracle.tree_yield"] = _frac(trees, subsets)
    return out
