"""Command-line surface: simulate, estimate, select-r, bench, forecast.

Every command is deterministic given its flags and seeds, and embeds a
manifest (command, flags, seeds, package version) in its outputs.  The
``HDFFM_THREADS`` environment variable caps the cores one command uses
(default: the CPUs the process may run on; anything but a positive integer
exits 2).  ``bench`` runs replications in a pool of w = min(cap, jobs)
worker processes, each of which gives the tuned selection cap // w threads;
rows are canonically sorted before writing so the output never depends on
scheduling.  Outputs do not depend on the cap: the forecast manifests
record it, and bench prints its split.

Exit codes: 0 success, 2 validation error, 3 numerical error
(rank-deficient panel), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .estimate import (
    RankDeficientError,
    common_component,
    fit_factors,
    fit_to_dict,
    goodness_of_fit,
)
from .fbasis import AGE_GRID, GROUP_AGE, build_bspline, ingest_mortality, load_mortality_csv
from .forecast import ForecastConfig, _min_length, cf_forecast, rolling_origin_eval, tnh_forecast
from .metrics import LoadingMatrix, delta_nt, epsilon_nt, phi_nt
from .panel import Panel, load_panel, load_scalar_csv, panel_to_dict, save_panel
from .select import IC2A, PENALTY_KINDS, AbcConfig, abc_select_r, select_r_fixed, thread_cap
from .simulate import DgpConfig, gen_dgp

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DGP_KEYS = {f.name for f in fields(DgpConfig)}
BENCH_HEADER = ["dgp", "N", "T", "k", "replication", "delta_sq", "epsilon_sq", "phi"]
# a bench spec sets every DgpConfig field but dgp, which comes from its "dgps" list
BENCH_SPEC_KEYS = {"dgps", "k", "replications", "select"} | DGP_KEYS - {"dgp"}
SELECTION_HEADER = ["dgp", "N", "T", "replication", "r_hat"]
# the select-r flags' defaults, which a bench spec's "select" object shares
SELECT_METHODS = ("abc", "fixed")
SELECT_DEFAULTS = {"method": "abc", "c": 1.0, "kind": IC2A, "k_max": 10, "P": 5, "seed": 0}
# the select settings that one method alone reads
SELECT_METHOD_ONLY = {"c": "fixed", "P": "abc", "seed": "abc"}
# documented defaults of forecast flags whose None default marks them as not given
N_COMPONENTS = 6
EVAL_AGE_MAX = 89
SEED = 0


def _manifest(command: str, args: dict) -> dict:
    return {"command": command, "version": __version__, "args": args}


def _write_csv(path, header, rows, manifest: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _load_panel_arg(path) -> Panel:
    """Panel files are JSON; all-scalar panels may come as N x T CSV."""
    if str(path).lower().endswith(".csv"):
        return load_scalar_csv(path)
    return load_panel(path)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _dgp_config_from_dict(d: dict) -> DgpConfig:
    """Required fields are ints; an optional field, when given, takes its default's type."""
    return DgpConfig(**{
        f.name: (int if f.default is MISSING else type(f.default))(d[f.name])
        for f in fields(DgpConfig) if f.default is MISSING or f.name in d
    })


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg_dict = json.load(fh)
    unknown = sorted(set(cfg_dict) - DGP_KEYS)
    if unknown:
        raise ValueError(f"unknown simulate config keys {unknown}; allowed: {sorted(DGP_KEYS)}")
    cfg = _dgp_config_from_dict(cfg_dict)
    panel, truth = gen_dgp(cfg)
    manifest = _manifest("simulate", cfg_dict)
    save_panel(panel, args.out_panel, manifest=manifest)
    if args.out_truth:
        truth_doc = {
            "manifest": manifest,
            "U": truth.U.tolist(),
            "B_coeffs": truth.B_coeffs.tolist(),
            "a": truth.a.tolist(),
            "chi": panel_to_dict(truth.chi),
        }
        with open(args.out_truth, "w") as fh:
            json.dump(truth_doc, fh)
    print(json.dumps({"seed": cfg.seed, "fixed_design_seed": cfg.fixed_design_seed,
                      "dgp": cfg.dgp, "N": cfg.N, "T": cfg.T}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    panel = _load_panel_arg(args.panel)
    fit = fit_factors(panel, args.k)
    v = goodness_of_fit(panel, args.k)
    manifest = _manifest("estimate", {"panel": str(args.panel), "k": args.k})
    with open(args.out, "w") as fh:
        json.dump({**fit_to_dict(fit, manifest), "V": v}, fh)
    print(f"k={args.k} V={v:.10g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# select-r
# ---------------------------------------------------------------------------


def _select_r(panel, method: str, c: float, kind: str, k_max: int, P: int, seed: int) -> tuple:
    """r-hat and the selection trace: fixed-c criterion (no trace) or tuned ``abc``."""
    if method == "fixed":
        return select_r_fixed(panel, c, kind, k_max), None
    cfg = AbcConfig.for_panel(panel.N, panel.T, rng_seed=seed, k_max=k_max, P=P)
    return abc_select_r(panel, cfg, kind)


def _select_settings(given: dict, name) -> dict:
    """SELECT_DEFAULTS under the ``given`` settings (None: not given), once
    each given setting is checked to apply to the method; ``name(key)`` is
    how a message names a setting."""
    settings = {**SELECT_DEFAULTS, **{k: v for k, v in given.items() if v is not None}}
    method = settings["method"]
    if method not in SELECT_METHODS:
        raise ValueError(f"unknown {name('method')} {method!r}; allowed: {list(SELECT_METHODS)}")
    for key, only in SELECT_METHOD_ONLY.items():
        if given.get(key) is not None and method != only:
            raise ValueError(f"{name(key)} applies only to {name('method')} {only}")
    return settings


def cmd_select_r(args) -> int:
    given = {key: getattr(args, key) for key in SELECT_DEFAULTS}
    vars(args).update(_select_settings(given, lambda key: "--" + key.replace("_", "-")))
    if args.method == "fixed" and (args.trace or args.variance_csv):
        raise ValueError("--trace and --variance-csv need --method abc")
    panel = _load_panel_arg(args.panel)
    r, trace = _select_r(panel, args.method, args.c, args.kind, args.k_max, args.P, args.seed)
    if args.trace:
        manifest = _manifest(
            "select-r",
            {"panel": str(args.panel), "kind": args.kind, "k_max": args.k_max,
             "P": args.P, "seed": args.seed},
        )
        trace.save(args.trace, manifest=manifest)
    if args.variance_csv:
        trace.save_variance_csv(args.variance_csv)
    print(r)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _cap_threads(threads: int) -> None:
    """Bench pool initializer: the selection threads of one worker."""
    os.environ["HDFFM_THREADS"] = str(threads)


def _bench_replication(job: dict) -> tuple:
    """Metrics rows and the selection row (or None) for one (dgp, N, T,
    replication); runs in a worker."""
    panel, truth = gen_dgp(_dgp_config_from_dict({**job, "seed": job["seed"] + job["rep"]}))
    rows = []
    for k in job["k_list"]:
        fit = fit_factors(panel, k)
        d = delta_nt(fit.factors, truth.U)
        e = epsilon_nt(LoadingMatrix.from_fit(fit), LoadingMatrix.from_ground_truth(truth))
        p = phi_nt(common_component(fit), truth.chi)
        rows.append([job["dgp"], job["N"], job["T"], k, job["rep"],
                     repr(d * d), repr(e * e), repr(p)])
    select_row, sel = None, job["select"]
    if sel is not None:
        r_hat, _ = _select_r(panel, sel["method"], float(sel["c"]), sel["kind"], int(sel["k_max"]),
                             int(sel["P"]), int(sel["seed"]) + job["rep"])
        select_row = [job["dgp"], job["N"], job["T"], job["rep"], r_hat]
    return rows, select_row


def cmd_bench(args) -> int:
    with open(args.spec) as fh:
        spec = json.load(fh)
    unknown = sorted(set(spec) - BENCH_SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown bench spec keys {unknown}; allowed: {sorted(BENCH_SPEC_KEYS)}")
    dgps = [int(d) for d in spec["dgps"]]
    n_list = [int(n) for n in spec["N"]]
    t_list = [int(t) for t in spec["T"]]
    k_list = [int(k) for k in spec["k"]]
    reps = int(spec["replications"])
    if not (dgps and n_list and t_list and k_list) or reps < 1:
        raise ValueError("bench spec lists must be nonempty and replications >= 1")
    seed = int(spec.get("seed", 0))
    select = {} if spec.get("select") is None else spec["select"]
    if not isinstance(select, dict):
        raise ValueError(f"bench select must be a JSON object, got {json.dumps(select)}")
    unknown = sorted(set(select) - set(SELECT_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown bench select keys {unknown}; allowed: {sorted(SELECT_DEFAULTS)}")
    select = _select_settings(select, lambda key: "select." + key)

    # a job carries the spec's design keys (n_factors, basis_dim, ...) to gen_dgp
    jobs = [
        {**spec, "dgp": dgp, "N": n, "T": t, "rep": rep, "seed": seed, "k_list": k_list,
         "select": None if spec.get("select") is None else select}
        for dgp in dgps for n in n_list for t in t_list for rep in range(reps)
    ]
    n_factors = _dgp_config_from_dict(jobs[0]).n_factors  # bad design keys fail here
    cap = thread_cap()
    # worker processes x selection threads stay within the cap
    workers = min(cap, len(jobs))
    threads = cap // workers
    if workers == 1:
        results = [_bench_replication(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_cap_threads,
                                 initargs=(threads,)) as pool:
            results = list(pool.map(_bench_replication, jobs, chunksize=4))

    metric_rows = sorted((row for rows, _ in results for row in rows),
                         key=lambda r: (r[0], r[1], r[2], r[4], r[3]))
    select_rows = sorted(row for _, row in results if row is not None)

    manifest = _manifest("bench", spec)
    _write_csv(args.out, BENCH_HEADER, metric_rows, manifest)
    if select_rows:
        sel_path = os.path.splitext(str(args.out))[0] + ".selection.csv"
        _write_csv(sel_path, SELECTION_HEADER, select_rows, manifest)
        under = sum(1 for r in select_rows if r[4] < n_factors)
        over = sum(1 for r in select_rows if r[4] > n_factors)
        print(f"selection: {len(select_rows)} runs, {under} under, {over} over (r={n_factors})")
    print(f"wrote {len(metric_rows)} rows to {args.out} "
          f"({workers} workers x {threads} selection threads)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def _forecast_panel(panel, args, horizon: int, rng_seed: int = 0):
    if args.method == "cf":
        return cf_forecast(panel, horizon, args.n_components, p_max=args.p_max)
    cfg = ForecastConfig(
        horizon=horizon, p_max=args.p_max, fixed_r=args.fixed_r, rng_seed=rng_seed
    )
    return tnh_forecast(panel, cfg)


def _mortality_rolling(args) -> int:
    if not 0 <= args.eval_age_max <= GROUP_AGE:
        raise ValueError(f"--eval-age-max must lie in 0..{GROUP_AGE}, got {args.eval_age_max}")
    records = load_mortality_csv(args.mortality)
    basis = build_bspline((0.0, float(AGE_GRID[-1])), dim=9, order=4)
    data = ingest_mortality(records, basis)
    if args.sex and args.sex not in data:
        raise ValueError(f"no rows for --sex {args.sex!r}; the data has sexes {sorted(data)}")
    design = basis.evaluate(AGE_GRID[: args.eval_age_max + 1])
    table_rows = []
    for sex in [args.sex] if args.sex else sorted(data):
        md = data[sex]
        delta_min = (max(md.panel.T - 16, _min_length(args.p_max)) if args.delta_min is None
                     else args.delta_min)
        # _forecast_panel is looked up per call: one call per origin is one op
        rows = rolling_origin_eval(
            md.panel, md.log_rates[:, :, : args.eval_age_max + 1], design,
            lambda train, steps: _forecast_panel(train, args, steps, rng_seed=args.seed),
            args.horizon, delta_min,
        )
        for h, mafe, msfe in rows:
            table_rows.append([sex, h, args.method, repr(mafe), repr(msfe)])
            print(f"sex={sex} h={h} method={args.method} MAFE={mafe:.6f} MSFE={msfe:.6f}")
    if args.out:
        # every flag that can change the table (delta_min null: the per-sex default)
        manifest = _manifest("forecast", {
            "mortality": str(args.mortality), "sex": args.sex, "method": args.method,
            "horizon": args.horizon, "seed": args.seed, "fixed_r": args.fixed_r,
            "n_components": args.n_components, "p_max": args.p_max,
            "delta_min": args.delta_min, "eval_age_max": args.eval_age_max,
        })
        manifest.update(numpy=np.__version__, threads=thread_cap())
        _write_csv(args.out, ["sex", "h", "method", "mafe", "msfe"], table_rows, manifest)
    return EXIT_OK


def cmd_forecast(args) -> int:
    if args.horizon < 1:
        raise ValueError("horizon must be >= 1")
    if bool(args.mortality) == bool(args.panel):
        raise ValueError("provide exactly one of --panel or --mortality")
    for flag, value, mode, applies in [
            ("--sex", args.sex, "--mortality", args.mortality),
            ("--delta-min", args.delta_min, "--mortality", args.mortality),
            ("--eval-age-max", args.eval_age_max, "--mortality", args.mortality),
            ("--fixed-r", args.fixed_r, "--method tnh", args.method == "tnh"),
            ("--n-components", args.n_components, "--method cf", args.method == "cf"),
            ("--seed", args.seed, "--method tnh", args.method == "tnh")]:
        if value is not None and not applies:
            raise ValueError(f"{flag} applies only to {mode}")
    if args.method == "cf" and args.n_components is None:
        args.n_components = N_COMPONENTS
    if args.method == "tnh" and args.seed is None:
        args.seed = SEED
    if args.mortality and args.eval_age_max is None:
        args.eval_age_max = EVAL_AGE_MAX
    if args.mortality:
        return _mortality_rolling(args)
    panel = _load_panel_arg(args.panel)
    result = _forecast_panel(panel, args, args.horizon, rng_seed=args.seed)
    doc = {
        "manifest": {**_manifest("forecast", {
            "panel": str(args.panel), "method": args.method,
            "horizon": args.horizon, "seed": args.seed, "fixed_r": args.fixed_r,
        }), "threads": thread_cap()},
        "r": result.r,
        "forecasts": [s.tolist() for s in result.steps],
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
    print(f"r={result.r} horizon={args.horizon} method={args.method}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdffm",
        description="Functional factor models: simulation, estimation, "
                    "factor-count selection, benchmarking, forecasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a benchmark panel draw")
    p.add_argument("--config", required=True, help="DGP config JSON")
    p.add_argument("--out-panel", required=True)
    p.add_argument("--out-truth", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="fit k factors to a panel file")
    p.add_argument("--panel", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("select-r", help="select the number of factors")
    p.add_argument("--panel", required=True)
    # None marks a flag as not given; cmd_select_r fills SELECT_DEFAULTS in
    p.add_argument("--method", choices=SELECT_METHODS)
    p.add_argument("--c", type=float, help="tuning constant for --method fixed")
    p.add_argument("--kind", choices=PENALTY_KINDS)
    p.add_argument("--k-max", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--trace", default=None, help="write the selection trace JSON here")
    p.add_argument("--variance-csv", default=None)
    p.set_defaults(func=cmd_select_r)

    p = sub.add_parser("bench", help="run a Monte Carlo benchmark grid")
    p.add_argument("--spec", required=True, help="bench spec JSON")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("forecast", help="forecast a panel or a mortality CSV")
    p.add_argument("--panel", default=None)
    p.add_argument("--mortality", default=None, help="mortality-rate CSV")
    p.add_argument("--sex", default=None, help="one sex's rows (mortality mode; default: all)")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--method", choices=["tnh", "cf"], default="tnh")
    p.add_argument("--fixed-r", type=int, default=None, help="factor count (tnh; default: tuned)")
    p.add_argument("--n-components", type=int, default=None,
                   help=f"score series per curve (cf; default {N_COMPONENTS})")
    p.add_argument("--p-max", type=int, default=5)
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of the tuned selection (tnh; default {SEED})")
    p.add_argument("--delta-min", type=int, default=None,
                   help="first rolling-origin training length (mortality mode)")
    p.add_argument("--eval-age-max", type=int, default=None,
                   help=f"oldest age scored (mortality mode; default {EVAL_AGE_MAX})")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_forecast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        thread_cap()  # a bad HDFFM_THREADS fails every command before it starts
        return args.func(args)
    except RankDeficientError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
