"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from treedesign.oracle import EnumerationBudget  # noqa: E402

TINY = (
    bench.Workload("tiny-central", "central", 6, 0.5, None, (1.0,), 20,
                   EnumerationBudget()),
    bench.Workload("tiny-dist", "distributed", 5, 0.6, None, (0.5,), 8,
                   EnumerationBudget()),
)


def _probe_checks(monkeypatch):
    """Record the installed wrappers each time a solver answer is checked."""
    seen = []
    original = bench.check_report

    def probe(*args):
        seen.append(tracing.wrapped_targets())
        return original(*args)

    monkeypatch.setattr(bench, "check_report", probe)
    return seen


def test_untraced_pass_runs_with_no_wrapper_installed(monkeypatch):
    seen = _probe_checks(monkeypatch)
    for workload in TINY:
        out = bench.run_pass(workload, 0, None, cells=2)
        assert out.failed == 0 and not out.problems
    assert seen and all(found == [] for found in seen)


def test_traced_replay_wraps_every_target_and_reproduces_answers(monkeypatch):
    seen = _probe_checks(monkeypatch)
    for workload in TINY:
        untraced = bench.run_pass(workload, 3, None, cells=2)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = bench.run_pass(workload, 3, None, tracer=tracer, cells=2)
        assert traced.digest() == untraced.digest()
        assert tracing.wrapped_targets() == []
        names = {span[3] for span in tracer.spans}
        assert {"qp.solve", "qp.splu", "qp.lu_solve", "oracle.exact_solve",
                "mcf.random_instance"} <= names
        layers = tracing.layer_metrics(tracer.spans)
        expected = {name for name, *_ in spec.PER_LAYER} - {"trace.overhead_s"}
        assert expected <= set(layers)
        solve_roots = {s[0] for s in tracer.spans if s[3] == "bench.solve"}
        in_solves = sum(s[6][0] for s in tracer.spans
                        if s[3] == "qp.solve" and s[2] in solve_roots)
        assert in_solves == sum(s.inner_iters for s in traced.solves)
        # the rest is the feasibility probe of instance set-up
        assert layers["qp.inner_iters"] > in_solves
    targets = len(tracing.TARGETS) + 1
    assert all(found == [] for found in seen[0::2])
    assert seen[1::2] and all(len(found) == targets for found in seen[1::2])


def test_a_raising_solve_is_failed_not_wrong(monkeypatch):
    def broken(inst, cfg):
        raise RuntimeError("inner solve stalled")

    monkeypatch.setattr(bench, "_solver", lambda workload: broken)
    out = bench.run_pass(TINY[0], 0, None, cells=2)
    assert out.failed == 1 and out.attempted == 2
    assert out.raised and not out.problems
    assert bench.end_to_end(out)["failed_frac"][0] == 0.5


def test_self_time_subtracts_direct_children():
    spans = [
        (1, 0, 0, "child", 1.0, 2.0, None),
        (2, 0, 0, "child", 2.5, 3.0, None),
        (0, None, 0, "parent", 0.0, 4.0, None),
    ]
    layers = tracing.aggregate(spans)
    assert layers["parent"].self_time == 2.5
    assert layers["child"].calls == 2 and layers["child"].self_time == 1.5


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text() == spec.benchmark_json()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dist-n8",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
