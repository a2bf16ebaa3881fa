#!/usr/bin/env python3
"""Benchmark of hdffm: Monte Carlo grid, DGP forecasts, mortality rolling origin.

Run from the root of a source checkout (the program is imported from
``src/``)::

    python3 perfbench/run.py --workload forecast-dgp --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times in fresh processes (the
median is ``setup_s``), then repeats whole rounds of fixed work for about
``--seconds``, and at least until 100 ops are timed, and prints the
end-to-end metrics.  ``--trace 1`` runs one round untraced at 1 and at 2
workers and one traced round at 1 worker, and prints the per-layer metrics
of ``spans.py``.  Every line but the last is for people; the last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

This host shares its cores with other machines' work: the same computation
takes up to a third longer from one minute to the next, and so did every raw
time of this benchmark, minima included.  So the timed metrics are in units
of ``probe.py``'s fixed reference computation, run on the same core just
before every op: contention slows both alike and cancels in the ratio, while
a change to the program moves only the op.  An op is one replication on
``mc-grid``, one forecast on ``forecast-dgp`` and one rolling-origin forecast
on ``mortality-rolling``; the CLI workloads time their ops at the op
boundary inside the child (``cli_child.py``).

End-to-end metrics, on every workload:

* ``setup_s``: imports, input generation and warm-up in a fresh process,
  in seconds.
* ``round_probes``: median over rounds of the round's wall time divided by
  the mean probe time in that round.  A round includes what the user waits
  for besides the ops (process start and CSV ingest on the CLI workloads),
  and its probes, which add one unit per op.
* ``op_mean_probes``, ``op_tail_probes``: each op's time divided by its own
  probe's; the mean, and p90 (see ``tail``).  The mean stands in for the
  median because the mortality ops fall in two clusters (TNH and CF) of
  equal size, and the median of such a sample sits in the gap between them,
  where a few samples move it by a fifth.
* ``peak_rss_mb``: peak resident memory of the process that runs the ops.
* ``ok_ratio``: 1 - failed ops / attempted ops (an op fails on an exception,
  a nonzero exit or a failed output check).

Printed above the result line for people, not gated: ``op_p50_probes``,
the raw times ``wall_s`` (median round), ``ops_per_s``, ``op_p50_ms``,
``op_tail_ms`` and ``cpu_s_per_op`` (child processes included), which
include the probes, ``probe_p50_ms`` (the host's speed during the run) and
``fail_ratio``.  On ``mc-grid`` the traced pass also checks that the
1-worker and 2-worker runs write byte-identical CSV bodies.

Quality figures repeat exactly for a seed and are printed above the result
line: ``r_exact_ratio`` (share of r-hat = 3) and ``phi_k3_mean`` on
``mc-grid``, ``r_exact_ratio`` and ``msfe_ratio`` (TNH / persistence MSFE at
h=1) on ``forecast-dgp``, ``mafe_tnh`` and ``mafe_cf`` on
``mortality-rolling``.  They are not result metrics: they depend on the
seed's draws far more than the bounds allow (spreads of 0.12-0.28 of the
median across five seeds).

BLAS is pinned to one thread in the environment before numpy loads, and
every child process inherits it.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# numpy is first imported below this line, and child processes inherit this
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
MIN_SAMPLES = 100  # so that 10 samples lie beyond p90
TAIL_PCT = 90

E2E = {
    "setup_s": "s",
    "round_probes": "probe",
    "op_mean_probes": "probe",
    "op_tail_probes": "probe",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def load_program():
    """Import hdffm from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "hdffm", "__init__.py")):
        sys.exit(f"perfbench: no program source at {SRC}/hdffm")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    import hdffm

    if os.path.dirname(os.path.dirname(os.path.abspath(hdffm.__file__))) != SRC:
        sys.exit(f"perfbench: hdffm imported from {hdffm.__file__}, not {SRC}")


def tail(samples):
    """(value, percentile): p90, or the highest whole percentile below it with
    >= 10 samples beyond it.

    The percentile is fixed rather than the highest with 10 samples beyond,
    because the number of rounds, and so of samples, changes with the host's
    speed; every run times at least ``MIN_SAMPLES`` ops, so at least 10 lie
    beyond p90.  With fewer than 11 samples no percentile has 10
    beyond it; the median stands in rather than the maximum of a handful.
    """
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return statistics.median(s), 50
    pct = min(TAIL_PCT, math.floor(100 * (n - 10) / n))
    return s[math.ceil(pct * n / 100) - 1], pct


def manifest(work, args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = git.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "hdffm_threads": getattr(work, "threads", 1),
        "git_commit": commit,
        "workload": args.workload,
        "seeds": work.seeds(),
        "size": args.size,
    }


def measure_setup(args) -> list:
    """Wall times of fresh processes that each run the workload's setup."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--setup-only", args.work]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def end_to_end(work, args):
    setup_times = measure_setup(args)
    work.setup()
    rounds = []
    t0 = time.perf_counter()
    # whole rounds only, and none that would end past --seconds once there are enough samples
    while sum(r.ops for r in rounds) < MIN_SAMPLES or (
            time.perf_counter() - t0 + rounds[-1].wall_s <= args.seconds):
        rounds.append(work.round())
    ops = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    op_s = [x for r in rounds for x in r.op_s]
    tail_s, tail_pct = tail(op_s)
    quality = next((r.quality for r in rounds if r.quality), {})
    # op and round times as multiples of the probe run on the same core just before
    op_cost = [x / p for r in rounds for x, p in zip(r.op_s, r.probe_s)]
    if not op_cost:
        sys.exit("perfbench: no op was timed")
    cost_tail, cost_pct = tail(op_cost)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "round_probes": statistics.median(r.wall_s / statistics.fmean(r.probe_s)
                                          for r in rounds if r.probe_s),
        "op_mean_probes": statistics.fmean(op_cost),
        "op_tail_probes": cost_tail,
        "peak_rss_mb": max(r.rss_mb for r in rounds),
        "ok_ratio": 1.0 - failed / ops,
    }
    info = {
        "op_p50_probes": (statistics.median(op_cost), "probe"),
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "ops_per_s": (ops / sum(r.wall_s for r in rounds), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(op_s), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "cpu_s_per_op": (sum(r.cpu_s for r in rounds) / ops, "s"),
        "probe_p50_ms": (1e3 * statistics.median(p for r in rounds for p in r.probe_s), "ms"),
        "fail_ratio": (failed / ops, "ratio"),
    }
    print(f"setup runs (s): {[round(t, 3) for t in setup_times]}")
    print(f"rounds: {len(rounds)}, round walls (s): {[round(r.wall_s, 3) for r in rounds]}")
    print(f"op latency: {len(op_s)} samples, tail = p{tail_pct} (ms), p{cost_pct} (probes)")
    print(f"{failed} of {ops} ops failed")
    for name, (value, unit) in info.items():
        print(f"info {name} = {value:.6g} {unit}")
    for name, value in quality.items():
        print(f"quality {name} = {value!r}")
    errors = [e for r in rounds for e in r.errors]
    return {k: (v, E2E[k]) for k, v in metrics.items()}, ops, failed, errors


def traced(work, args):
    from spans import Tracer, per_layer_spec

    work.setup()
    untraced_1 = work.in_process_round(1)
    untraced_2 = work.in_process_round(2)
    tracer = Tracer()
    tracer.install(work.op_boundary)
    try:
        traced_1 = work.in_process_round(1)
    finally:
        tracer.uninstall()
    rounds = (untraced_1, untraced_2, traced_1)
    metrics = tracer.metrics()
    metrics["cli.pool.speedup"] = untraced_1.wall_s / untraced_2.wall_s
    metrics["trace.overhead_ratio"] = traced_1.wall_s / untraced_1.wall_s
    metrics["trace.ops"] = tracer.ops
    os.makedirs(STATE, exist_ok=True)
    spans = os.path.join(STATE, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write(spans)
    print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans, ROOT)}")
    print(f"walls (s): untraced 1 worker {untraced_1.wall_s:.3f}, "
          f"untraced 2 workers {untraced_2.wall_s:.3f}, traced 1 worker {traced_1.wall_s:.3f}")
    for name in ("forecast.fit_ar_bic", "kernel.lstsq", "kernel.eigvalsh"):
        per_op = sorted(set(tracer.calls_per_op(name)))
        print(f"{name} calls per op: {per_op}")
    print(f"kernel.eigvalsh calls per select.abc_select_r call: "
          f"{sorted(set(tracer.calls_under('kernel.eigvalsh', 'select.abc_select_r')))}")
    spec = per_layer_spec()
    ops = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    return {k: (metrics[k], spec[k][0]) for k in spec}, ops, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-grid", "forecast-dgp", "mortality-rolling"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: seconds-long inputs for the smoke test")
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.setup_only:
        WORKLOADS[args.workload](args.setup_only, args.seed, args.size).setup()
        return 0
    os.makedirs(STATE, exist_ok=True)
    args.work = os.path.join(STATE, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(args.work)
    try:
        work = WORKLOADS[args.workload](args.work, args.seed, args.size)
        run = traced if args.trace else end_to_end
        metrics, ops, failed, errors = run(work, args)
        print("manifest: " + json.dumps(manifest(work, args), sort_keys=True))
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    for e in errors[:20]:
        print(f"check failed: {e}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
