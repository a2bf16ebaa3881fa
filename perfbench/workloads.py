"""The three benchmark workloads: inputs, rounds, output checks, quality.

Each workload is a closed loop with one client.  A *round* is a fixed unit
of work on inputs drawn from the workload seed; the timed phase repeats
rounds, so every round of a run does the same work and must give the same
outputs.

* ``mc-grid``: one ``hdffm bench`` invocation (a CLI child process with
  ``HDFFM_THREADS=2``) over the grid below.  An op is one replication.
* ``forecast-dgp``: one in-process ``tnh_forecast`` (h=1, tuned r) per
  panel of a pool of DGP1 draws.  An op is one forecast.
* ``mortality-rolling``: ``hdffm forecast --mortality`` on a synthetic
  table, once with ``--method tnh`` and once with ``--method cf`` (two CLI
  child processes).  An op is one rolling-origin forecast.

Timed rounds run ``probe.probe()`` just before every op, on the op's core,
and keep both times: in the CLI children through ``cli_child.py``, which also
runs in the pool's workers.  The traced pass runs the same round in-process
at 1 worker and without probes, where the timing wrappers of ``spans.py`` see
every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import mortality_csv
from probe import probe

CHILD_TIMEOUT_S = 60
CLI_CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")

SIZES = {
    "full": {
        "mc-grid": {"dgps": [1, 2, 3, 4], "N": [50, 100], "T": [100, 200],
                    "k": [1, 2, 3, 4, 5], "replications": 4},
        # 100 panels: one round gives the 100 samples that p90 needs, and the
        # tail spans ten panels rather than the costliest few of the seed
        "forecast-dgp": {"N": 50, "T": 200, "pool": 100},
        "mortality-rolling": {"n_pref": mortality_csv.N_PREF, "n_years": mortality_csv.N_YEARS,
                              "horizon": 5},
    },
    "tiny": {
        "mc-grid": {"dgps": [1], "N": [12], "T": [40], "k": [1, 2, 3], "replications": 25},
        "forecast-dgp": {"N": 10, "T": 40, "pool": 2},
        "mortality-rolling": {"n_pref": 4, "n_years": 26, "horizon": 2},
    },
}

TRUE_R = 3  # factors in every DGP of the simulation design


@dataclass
class Round:
    """What one round did and what it cost."""

    wall_s: float
    ops: int
    failed: int = 0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    op_s: list = field(default_factory=list)  # per-op latency samples
    probe_s: list = field(default_factory=list)  # probe time just before each op
    quality: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    stderr: str = ""
    op_s: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)


def run_cli(argv, threads: int, work: str, op_fn: str, in_process: bool = False) -> Child:
    """Run ``hdffm <argv>`` with ``HDFFM_THREADS=threads``.

    As a child process (the default), CPU time and peak RSS include the
    child's own children, and ``cli_child.py`` times every call of
    ``hdffm.cli.<op_fn>`` after a probe.  In process, the CLI's output lines
    are dropped.
    """
    if in_process:
        from hdffm import cli

        os.environ["HDFFM_THREADS"] = str(threads)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            return Child(code, time.perf_counter() - t0)
    env = dict(os.environ, HDFFM_THREADS=str(threads))
    err_path = os.path.join(work, "child.stderr")
    ops_path = os.path.join(work, "child.ops")
    open(ops_path, "w").close()
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CLI_CHILD, ops_path, op_fn] + argv, env=env,
                                cwd=work, stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path) as fh:
        stderr = fh.read().strip()[-300:]
    with open(ops_path) as fh:
        ops = [[float(x) for x in line.split()] for line in fh]
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, stderr,
                 [op for op, _ in ops], [p for _, p in ops])


def csv_body(path) -> str:
    """A CLI output CSV without its manifest line."""
    with open(path) as fh:
        return "".join(line for line in fh if not line.startswith("#"))


def csv_rows(path) -> list:
    return list(csv.DictReader(io.StringIO(csv_body(path))))


class Workload:
    name = ""
    op_boundary = None  # (module, function) whose every call is one op, for the trace

    def __init__(self, work: str, seed: int, size: str):
        self.work = work
        self.seed = seed
        self.size = SIZES[size][self.name]

    def setup(self) -> None:
        """Imports, input generation and warm-up: everything before timing."""
        raise NotImplementedError

    def round(self) -> Round:
        """One timed round, as a user runs it."""
        raise NotImplementedError

    def in_process_round(self, threads: int) -> Round:
        """One round in this process, for the traced pass."""
        raise NotImplementedError

    def seeds(self) -> dict:
        return {"workload": self.seed}


class McGrid(Workload):
    name = "mc-grid"
    op_boundary = ("hdffm.cli", "_bench_replication")
    threads = 2

    def setup(self):
        import hdffm.cli  # noqa: F401  (warm-up: byte-compiles the CLI's imports)

        s = self.size
        spec = {"dgps": s["dgps"], "N": s["N"], "T": s["T"], "k": s["k"],
                "replications": s["replications"], "seed": self.seed,
                "select": {"method": "abc", "seed": self.seed}}
        self.spec_path = os.path.join(self.work, "spec.json")
        with open(self.spec_path, "w") as fh:
            json.dump(spec, fh)
        self.reps = len(s["dgps"]) * len(s["N"]) * len(s["T"]) * s["replications"]
        self.reference = None

    def seeds(self):
        return {"workload": self.seed, "bench_spec_seed": self.seed, "select_seed": self.seed}

    def _argv(self, out):
        return ["bench", "--spec", self.spec_path, "--out", out]

    def _check(self, out, r: Round) -> Round:
        """Row counts, selection file, and same bodies as every other round."""
        sel = os.path.splitext(out)[0] + ".selection.csv"
        want = self.reps * len(self.size["k"])
        try:
            rows = csv_rows(out)
            sel_rows = csv_rows(sel)
            body = csv_body(out) + csv_body(sel)
            values = [float(row[c]) for row in rows for c in ("delta_sq", "epsilon_sq", "phi")]
        except (OSError, KeyError, ValueError) as exc:
            r.errors.append(f"unreadable output: {exc!r}")
            r.failed = r.ops
            return r
        if len(rows) != want:
            r.errors.append(f"metrics CSV has {len(rows)} rows, expected {want}")
        if len(sel_rows) != self.reps:
            r.errors.append(f"selection CSV has {len(sel_rows)} rows, expected {self.reps}")
        if not all(math.isfinite(v) and v >= 0 for v in values):
            r.errors.append("metrics CSV has a negative or non-finite value")
        if self.reference is None:
            self.reference = body
        elif body != self.reference:
            r.errors.append("CSV bodies differ between invocations of the same spec")
        if r.errors:
            r.failed = r.ops
            return r
        phi3 = [float(row["phi"]) for row in rows if int(row["k"]) == TRUE_R]
        exact = [int(row["r_hat"]) == TRUE_R for row in sel_rows]
        r.quality = {"phi_k3_mean": sum(phi3) / len(phi3),
                     "r_exact_ratio": sum(exact) / len(exact)}
        return r

    def _round(self, threads, in_process, out) -> Round:
        c = run_cli(self._argv(out), threads, self.work, self.op_boundary[1], in_process)
        r = Round(c.wall_s, self.reps, cpu_s=c.cpu_s, rss_mb=c.rss_mb,
                  op_s=c.op_s, probe_s=c.probe_s)
        if c.code != 0:
            r.errors.append(f"bench at {threads} workers: exit {c.code} {c.stderr}")
        elif not in_process and len(c.op_s) != self.reps:
            r.errors.append(f"bench timed {len(c.op_s)} replications, expected {self.reps}")
        if r.errors:
            r.failed = r.ops
            return r
        return self._check(out, r)

    def round(self):
        return self._round(self.threads, False, os.path.join(self.work, "bench.csv"))

    def in_process_round(self, threads):
        """The traced pass runs 1 worker first: later rounds, at 2 workers too,
        must write the same CSV bodies."""
        out = os.path.join(self.work, f"bench_{threads}w_inproc.csv")
        return self._round(threads, True, out)


class ForecastDgp(Workload):
    name = "forecast-dgp"
    op_boundary = ("hdffm.forecast", "tnh_forecast")

    def setup(self):
        from hdffm import DgpConfig, Panel, forecast, gen_dgp

        s = self.size
        self.train, self.actual = [], []
        for rep in range(s["pool"]):
            panel, _ = gen_dgp(DgpConfig(dgp=1, N=s["N"], T=s["T"] + 1,
                                         seed=self.seed * 10_000 + rep))
            self.train.append(Panel(panel.spaces, [c[: s["T"]] for c in panel.coeffs]))
            self.actual.append(np.stack([c[s["T"]] for c in panel.coeffs]))
        self.first = [None] * s["pool"]
        self.forecast = forecast  # resolved per call, so the traced pass sees the wrappers
        forecast.tnh_forecast(self.train[0], self._config(0))  # warm-up

    def seeds(self):
        n = self.size["pool"]
        return {"workload": self.seed, "gen_dgp_seeds": [self.seed * 10_000, self.seed * 10_000 + n - 1],
                "abc_rng_seeds": [0, n - 1]}

    @staticmethod
    def _config(rep):
        from hdffm import ForecastConfig

        return ForecastConfig(horizon=1, rng_seed=rep)

    def _one(self, rep, r: Round, timed: bool) -> None:
        if timed:
            r.probe_s.append(probe())
        t0 = time.perf_counter()
        try:
            result = self.forecast.tnh_forecast(self.train[rep], self._config(rep))
        except Exception as exc:  # a failed op is counted, not fatal
            r.op_s.append(time.perf_counter() - t0)
            r.failed += 1
            r.errors.append(f"panel {rep}: {type(exc).__name__}: {exc}")
            return
        r.op_s.append(time.perf_counter() - t0)
        steps = np.stack(result.steps) if result.steps else np.zeros(0)
        d = self.actual[rep].shape[1]
        if steps.shape != (len(self.actual[rep]), 1, d) or not np.all(np.isfinite(steps)):
            r.failed += 1
            r.errors.append(f"panel {rep}: forecast shape {steps.shape} or non-finite values")
            return
        if self.first[rep] is None:
            pers = np.stack(self.forecast.persistence_forecast(self.train[rep], 1).steps)
            self.first[rep] = (result.r, steps,
                               float(np.sum((steps[:, 0] - self.actual[rep]) ** 2)),
                               float(np.sum((pers[:, 0] - self.actual[rep]) ** 2)))
        elif not np.array_equal(self.first[rep][1], steps):
            r.failed += 1
            r.errors.append(f"panel {rep}: forecast differs from the first pass")

    def round(self, timed: bool = True):
        """Timed rounds run a probe before each op; traced-pass rounds do not."""
        r = Round(0.0, len(self.train))
        cpu0, t0 = time.process_time(), time.perf_counter()
        for rep in range(len(self.train)):
            self._one(rep, r, timed)
        r.wall_s = time.perf_counter() - t0
        r.cpu_s = time.process_time() - cpu0
        r.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        done = [f for f in self.first if f is not None]
        if done:
            r.quality = {
                "r_exact_ratio": sum(f[0] == TRUE_R for f in done) / len(done),
                "msfe_ratio": sum(f[2] for f in done) / sum(f[3] for f in done),
            }
        return r

    def in_process_round(self, threads):
        os.environ["HDFFM_THREADS"] = str(threads)
        return self.round(timed=False)


class MortalityRolling(Workload):
    name = "mortality-rolling"
    op_boundary = ("hdffm.cli", "_forecast_panel")
    methods = ("tnh", "cf")
    p_max = 5  # the CLI default

    def setup(self):
        import hdffm.cli  # noqa: F401  (warm-up: byte-compiles the CLI's imports)

        s = self.size
        self.csv_path = os.path.join(self.work, "mortality.csv")
        mortality_csv.write_csv(self.csv_path, self.seed, s["n_pref"], s["n_years"])
        T = s["n_years"]
        origins = T - max(T - 16, 3 * (self.p_max + 2))  # the CLI's default delta_min
        self.ops_per_method = len(mortality_csv.SEXES) * origins
        self.reference = None

    def _argv(self, method, out):
        return ["forecast", "--mortality", self.csv_path, "--horizon", str(self.size["horizon"]),
                "--method", method, "--out", out]

    def _check(self, outs: dict, r: Round) -> Round:
        tables = {}
        for method, out in outs.items():
            try:
                rows = csv_rows(out)
                vals = [(float(row["mafe"]), float(row["msfe"])) for row in rows]
            except (OSError, KeyError, ValueError) as exc:
                r.errors.append(f"{method}: unreadable table: {exc!r}")
                continue
            want = len(mortality_csv.SEXES) * self.size["horizon"]
            if len(rows) != want:
                r.errors.append(f"{method}: table has {len(rows)} rows, expected {want}")
            if not all(math.isfinite(v) and v > 0 for pair in vals for v in pair):
                r.errors.append(f"{method}: MAFE/MSFE not finite and positive")
            tables[method] = vals
        if len(tables) == 2 and tables["tnh"] == tables["cf"]:
            r.errors.append("TNH and CF tables are identical")
        if self.reference is None:
            self.reference = tables
        elif tables != self.reference:
            r.errors.append("tables differ between rounds on the same input")
        if r.errors:
            r.failed = r.ops
            return r
        r.quality = {f"mafe_{m}": sum(v[0] for v in tables[m]) / len(tables[m])
                     for m in self.methods}
        return r

    def _round(self, threads, in_process) -> Round:
        r = Round(0.0, len(self.methods) * self.ops_per_method)
        outs = {}
        for method in self.methods:
            outs[method] = os.path.join(self.work, f"table_{method}.csv")
            c = run_cli(self._argv(method, outs[method]), threads, self.work,
                        self.op_boundary[1], in_process)
            r.wall_s += c.wall_s
            r.cpu_s += c.cpu_s
            r.rss_mb = max(r.rss_mb, c.rss_mb)
            r.op_s += c.op_s
            r.probe_s += c.probe_s
            if c.code != 0:
                r.errors.append(f"{method}: exit {c.code} {c.stderr}")
            elif not in_process and len(c.op_s) != self.ops_per_method:
                r.errors.append(f"{method}: timed {len(c.op_s)} forecasts, "
                                f"expected {self.ops_per_method}")
        if r.errors:
            r.failed = r.ops
            return r
        return self._check(outs, r)

    def round(self):
        return self._round(1, False)

    def in_process_round(self, threads):
        return self._round(threads, True)


WORKLOADS = {w.name: w for w in (McGrid, ForecastDgp, MortalityRolling)}
