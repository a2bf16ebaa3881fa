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
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, fields, replace

import numpy as np

from . import __version__
from .estimate import (
    RankDeficientError,
    _check_k,
    common_component,
    fit_factors,
    fit_to_dict,
    goodness_of_fit,
)
from .fbasis import AGE_GRID, GROUP_AGE, build_bspline, ingest_mortality, load_mortality_csv
from .forecast import ForecastConfig, _min_length, cf_forecast, rolling_origin_eval, tnh_forecast
from .metrics import LoadingMatrix, delta_nt, epsilon_nt, phi_nt
from .panel import Panel, load_panel, load_scalar_csv, panel_to_dict, save_panel
from .select import (IC2A, PENALTY_KINDS, AbcConfig, _check_k_max, abc_select_r, select_r_fixed,
                     thread_cap)
from .simulate import DgpConfig, gen_dgp

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

BENCH_HEADER = ["dgp", "N", "T", "k", "replication", "delta_sq", "epsilon_sq", "phi"]
SELECTION_HEADER = ["dgp", "N", "T", "replication", "r_hat"]

# A command's settings table maps each flag or JSON key to (default, JSON type,
# mode); MISSING marks a required key.  Types: int, float (a finite number), str,
# [int] (a list of integers) or a tuple of allowed strings.  Mode (key, value)
# limits a setting to where key, an earlier setting or a caller's mode, has that value.
DGP = {f.name: (f.default, int if f.default is MISSING else type(f.default), None)
       for f in fields(DgpConfig)}
# a bench spec lists dgp, N and T as a grid and sets every other DgpConfig field
BENCH = {**{key: (MISSING, [int], None) for key in ("dgps", "N", "T", "k")},
         "replications": (MISSING, int, None), "seed": (0, int, None),
         **{key: v for key, v in DGP.items() if key not in ("dgp", "N", "T", "seed")}}
# select-r's flags, which a bench spec's "select" object shares
SELECT = {"method": ("abc", ("abc", "fixed"), None), "c": (1.0, float, ("method", "fixed")),
          "kind": (IC2A, PENALTY_KINDS, None), "k_max": (10, int, None),
          "P": (5, int, ("method", "abc")), "seed": (0, int, ("method", "abc"))}
FORECAST = {"method": ("tnh", ("tnh", "cf"), None), "p_max": (5, int, None),
            "fixed_r": (None, int, ("method", "tnh")),
            "n_components": (6, int, ("method", "cf")), "seed": (0, int, ("method", "tnh")),
            "sex": (None, str, ("mortality", True)), "delta_min": (None, int, ("mortality", True)),
            "eval_age_max": (89, int, ("mortality", True))}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _is_a(value, kind) -> bool:
    """Whether ``value`` has the JSON type ``kind``; JSON true and false are no numbers."""
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_a(v, kind[0]) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    return kind is not float or math.isfinite(value)


def _settings(given: dict, table: dict, modes: dict, name) -> dict:
    """Every setting of ``table`` under the ``given`` ones (a key left out is not
    given), in table order.  A setting that applies is type-checked, or takes
    its default; one that does not is None, and giving it is an error.
    ``name(key)`` is how a message names a setting."""
    settings = {}
    for key, (default, kind, mode) in table.items():
        if mode is not None and (modes | settings).get(mode[0]) != mode[1]:
            if key in given:
                where = name(mode[0]) + ("" if mode[1] is True else f" {mode[1]}")
                raise ValueError(f"{name(key)} applies only to {where}")
            settings[key] = None
        elif key in given and not _is_a(given[key], kind):
            what = (f"one of {list(kind)}" if isinstance(kind, tuple)
                    else "a list of integers" if isinstance(kind, list) else _TYPE_NAMES[kind])
            raise ValueError(f"{name(key)} must be {what}, got {json.dumps(given[key])}")
        elif key in given or default is not MISSING:
            settings[key] = given.get(key, default)
        else:
            raise KeyError(key)
    return settings


def _json_settings(doc, table: dict, what: str, name=str, extra=()) -> dict:
    """``table``'s settings from the JSON object ``doc``, which may hold no key
    outside the table but the ``extra`` ones."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(doc)}")
    unknown = sorted(set(doc) - set(table) - set(extra))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; allowed: {sorted([*table, *extra])}")
    return _settings(doc, table, {}, name)


def _resolve_flags(args, table: dict, modes: dict) -> None:
    """Replace ``table``'s flags in ``args`` (None: not given) by their settings."""
    given = {key: getattr(args, key) for key in table if getattr(args, key) is not None}
    vars(args).update(_settings(given, table, modes, lambda key: "--" + key.replace("_", "-")))


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


def cmd_simulate(args) -> int:
    with open(args.config) as fh:
        cfg_dict = json.load(fh)
    cfg = DgpConfig(**_json_settings(cfg_dict, DGP, "simulate config"))
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


def cmd_select_r(args) -> int:
    _resolve_flags(args, SELECT, {})
    if args.method == "fixed" and (args.trace or args.variance_csv):
        raise ValueError("--trace and --variance-csv need --method abc")
    panel = _load_panel_arg(args.panel)
    r, trace = _select_r(panel, args.method, args.c, args.kind, args.k_max, args.P, args.seed)
    if args.trace:
        manifest = _manifest("select-r", {"panel": str(args.panel), "kind": args.kind,
                                          "k_max": args.k_max, "P": args.P, "seed": args.seed})
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


def _bench_replication(job: tuple) -> tuple:
    """Metrics rows and the selection row (or None) of one (config, replication,
    k list, select settings) job; runs in a worker."""
    cfg, rep, k_list, select = job
    panel, truth = gen_dgp(cfg)
    rows = []
    for k in k_list:
        fit = fit_factors(panel, k)
        d = delta_nt(fit.factors, truth.U)
        e = epsilon_nt(LoadingMatrix.from_fit(fit), LoadingMatrix.from_ground_truth(truth))
        p = phi_nt(common_component(fit), truth.chi)
        rows.append([cfg.dgp, cfg.N, cfg.T, k, rep, repr(d * d), repr(e * e), repr(p)])
    if select is None:
        return rows, None
    return rows, [cfg.dgp, cfg.N, cfg.T, rep, _select_r(panel, **select)[0]]


def cmd_bench(args) -> int:
    with open(args.spec) as fh:
        spec = json.load(fh)
    grid = _json_settings(spec, BENCH, "bench spec", extra=["select"])
    select = (_json_settings(spec["select"], SELECT, "bench select", lambda key: "select." + key)
              if "select" in spec else None)
    dgps, n_list, t_list, k_list, reps = map(grid.pop, ["dgps", "N", "T", "k", "replications"])
    if not (dgps and n_list and t_list and k_list) or reps < 1:
        raise ValueError("bench spec lists must be nonempty and replications >= 1")
    # the rest of the grid is the seed and the design keys (n_factors, basis_dim, ...);
    # every replication's config is checked here, before any runs
    base = DgpConfig(dgps[0], n_list[0], t_list[0], **grid)
    # replication rep draws its panel, and its tuned selection, from the seeds + rep
    rep_selects = [select if select is None or select["seed"] is None
                   else {**select, "seed": select["seed"] + rep} for rep in range(reps)]
    jobs = [(replace(base, dgp=dgp, N=n, T=t, seed=base.seed + rep), rep, k_list, rep_selects[rep])
            for dgp in dgps for n in n_list for t in t_list for rep in range(reps)]
    # each cell's k range, in the order the replications would check it
    for bound in (min(n * base.basis_dim, t) for n in n_list for t in t_list):
        for k in k_list:
            _check_k(k, bound)
        if select is not None:
            _check_k_max(select["k_max"], bound)
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
        r = base.n_factors
        under, over = sum(row[4] < r for row in select_rows), sum(row[4] > r for row in select_rows)
        print(f"selection: {len(select_rows)} runs, {under} under, {over} over (r={r})")
    print(f"wrote {len(metric_rows)} rows to {args.out} "
          f"({workers} workers x {threads} selection threads)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


def _forecast_panel(panel, args, horizon: int):
    if args.method == "cf":
        return cf_forecast(panel, horizon, args.n_components, p_max=args.p_max)
    return tnh_forecast(panel, ForecastConfig(horizon=horizon, p_max=args.p_max,
                                              fixed_r=args.fixed_r, rng_seed=args.seed))


def _mortality_rolling(args) -> int:
    if not 0 <= args.eval_age_max <= GROUP_AGE:
        raise ValueError(f"--eval-age-max must lie in 0..{GROUP_AGE}, got {args.eval_age_max}")
    records = load_mortality_csv(args.mortality)
    basis = build_bspline((0.0, float(AGE_GRID[-1])), dim=9, order=4)
    data = ingest_mortality(records, basis)
    if args.sex is not None and args.sex not in data:
        raise ValueError(f"no rows for --sex {args.sex!r}; the data has sexes {sorted(data)}")
    design = basis.evaluate(AGE_GRID[: args.eval_age_max + 1])
    table_rows = []
    for sex in sorted(data) if args.sex is None else [args.sex]:
        md = data[sex]
        delta_min = (max(md.panel.T - 16, _min_length(args.p_max)) if args.delta_min is None
                     else args.delta_min)
        # _forecast_panel is looked up per call: one call per origin is one op
        rows = rolling_origin_eval(
            md.panel, md.log_rates[:, :, : args.eval_age_max + 1], design,
            lambda train, steps: _forecast_panel(train, args, steps),
            args.horizon, delta_min,
        )
        for h, mafe, msfe in rows:
            table_rows.append([sex, h, args.method, repr(mafe), repr(msfe)])
            print(f"sex={sex} h={h} method={args.method} MAFE={mafe:.6f} MSFE={msfe:.6f}")
    if args.out:
        # every flag that can change the table (delta_min null: the per-sex default)
        manifest = _manifest("forecast", {"mortality": str(args.mortality), "horizon": args.horizon,
                                          **{key: getattr(args, key) for key in FORECAST}})
        manifest.update(numpy=np.__version__, threads=thread_cap())
        _write_csv(args.out, ["sex", "h", "method", "mafe", "msfe"], table_rows, manifest)
    return EXIT_OK


def cmd_forecast(args) -> int:
    if args.horizon < 1:
        raise ValueError("horizon must be >= 1")
    if (args.mortality is None) == (args.panel is None):
        raise ValueError("provide exactly one of --panel or --mortality")
    _resolve_flags(args, FORECAST, {"mortality": args.mortality is not None})
    if args.mortality is not None:
        return _mortality_rolling(args)
    panel = _load_panel_arg(args.panel)
    result = _forecast_panel(panel, args, args.horizon)
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
    # None marks a flag as not given; cmd_select_r resolves them in SELECT
    p.add_argument("--method", choices=SELECT["method"][1])
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
    # None marks a flag as not given; cmd_forecast resolves them in FORECAST
    p.add_argument("--method", choices=FORECAST["method"][1])
    p.add_argument("--fixed-r", type=int, default=None, help="factor count (tnh; default: tuned)")
    p.add_argument("--n-components", type=int, default=None,
                   help=f"score series per curve (cf; default {FORECAST['n_components'][0]})")
    p.add_argument("--p-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of the tuned selection (tnh; default {FORECAST['seed'][0]})")
    p.add_argument("--delta-min", type=int, default=None,
                   help="first rolling-origin training length (mortality mode)")
    p.add_argument("--eval-age-max", type=int, help="oldest age scored (mortality mode; "
                   f"default {FORECAST['eval_age_max'][0]})")
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
    except (ValueError, KeyError) as exc:  # json.JSONDecodeError is a ValueError
        missing = "missing key " if isinstance(exc, KeyError) else ""
        print(f"validation error: {missing}{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
