"""Run one workload of the treedesign benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep-n10 --seed 0 --seconds 35 --trace 0

Run from the repository root; the library is imported from ``src/``. With
``--trace 0`` the run measures the workload untraced and prints the
end-to-end metrics. With ``--trace 1`` it measures an untraced pass of half
the time, then replays, with span wrappers installed, the cells of that
pass that fit in the other half, and prints the per-layer metrics plus the
tracing overhead. Every metric is printed by name, unit and sample count;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that ``BENCHMARK.json`` names. A JSON record of the run (all metrics, the
answer digest and the environment) and, for a traced run, its spans are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import spec


def environment():
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                   "VECLIB_MAXIMUM_THREADS")
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads_env": {k: os.environ.get(k) for k in thread_vars},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "treedesign" / "__init__.py").is_file():
        print(f"perfbench: no treedesign package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench
    import tracing

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    bench.warm_up()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = bench.run_pass(workload, args.seed, budget)
    leaked = tracing.wrapped_targets()
    figures = bench.end_to_end(untraced)
    problems = list(untraced.problems)
    if leaked:
        problems.append(f"wrappers installed in the untraced pass: {leaked}")
    passes = [untraced]
    record = {
        "solves": [dataclasses.asdict(s) for s in untraced.solves],
        "digest": untraced.digest(),
        # the digest after each solve, to compare runs on a common prefix
        "prefix_digests": [untraced.digest(k)
                           for k in range(1, len(untraced.answers) + 1)],
    }

    if args.trace:
        # replay the cells that fit in the other half of the time, traced
        tracer = tracing.Tracer()
        cells = bench.replay_cells(untraced, budget)
        with tracing.installed(tracer):
            traced = bench.run_pass(workload, args.seed, None, tracer=tracer,
                                    cells=cells)
        count = len(traced.solves)
        if traced.digest() != untraced.digest(count):
            problems.append("the traced replay changed the answers")
        problems += traced.problems
        passes.append(traced)
        layers = tracing.layer_metrics(tracer.spans)
        baseline = sum(s.seconds for s in untraced.solves[:count])
        layers["trace.overhead_s"] = traced.solve_wall_s - baseline
        record["trace_overhead_frac"] = layers["trace.overhead_s"] / baseline
        record["replayed_solves"] = count
        record["spans"] = len(tracer.spans)
        shown = {n: (layers[n], u, count) for n, u, _, _ in spec.PER_LAYER}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        shown = {n: figures[n] for n, _, _, _ in spec.END_TO_END}

    for name, (value, unit, samples) in sorted(figures.items()):
        print(f"{args.workload} {name} = {value!r} {unit} (n={samples})")
    if args.trace:
        for name, (value, unit, samples) in shown.items():
            print(f"{args.workload} {name} = {value!r} {unit} (solves={samples})")
    print(f"{args.workload} digest = {record['digest']} over "
          f"{len(untraced.solves)} solves")
    for problem in problems:
        print(f"{args.workload} PROBLEM {problem}")
    for p in passes:
        for error in p.raised:
            print(f"{args.workload} RAISED {error}")

    correct = not problems
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in shown.items()}
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted,
        "failed": failed, "problems": problems,
        "raised": [e for p in passes for e in p.raised],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n}
                       for k, (v, u, n) in figures.items()},
        "metrics": metrics,
        "environment": environment(),
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
