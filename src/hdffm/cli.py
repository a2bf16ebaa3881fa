"""Command-line surface: simulate, estimate, select-r, bench, forecast.

Each command reads its flags or JSON input through one settings table, calls
the library, and writes its outputs through ``files``, each with a manifest
(command, flags, seeds, package version); it is deterministic given its flags
and seeds.  ``bench`` runs ``simulate.run_grid`` and ``forecast --mortality``
runs ``forecast.mortality_rolling_eval``, each given this module's op
function as it is at call time.  ``HDFFM_THREADS`` caps the cores one
command uses (default: the CPUs the process may run on; anything but a
positive integer exits 2); outputs do not depend on it.

Exit codes: 0 success, 2 validation error, 3 numerical error
(rank-deficient panel), 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, fields, replace

from .estimate import RankDeficientError, common_component, fit_factors, goodness_of_fit
from .files import (fit_to_dict, json_settings, load_panel_file, manifest, read_json,
                    save_forecast, save_panel, save_trace, save_truth, save_variance_csv,
                    settings, where, write_csv, write_json)
from .forecast import ForecastConfig, cf_forecast, mortality_rolling_eval, tnh_forecast
from .metrics import LoadingMatrix, delta_nt, epsilon_nt, phi_nt
from .select import IC2A, PENALTY_KINDS, AbcConfig, abc_select_r, select_r_fixed, thread_cap
from .simulate import DgpConfig, gen_dgp, run_grid

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

BENCH_HEADER = ["dgp", "N", "T", "k", "replication", "delta_sq", "epsilon_sq", "phi"]
SELECTION_HEADER = ["dgp", "N", "T", "replication", "r_hat"]

# each command's settings table, in the form ``files.settings`` reads
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_flags(parser, table: dict) -> None:
    """One flag per setting of ``table``, with the setting's default and mode as
    its help; its argparse default None is what ``_resolve_flags`` reads as not given."""
    for key, (default, kind, mode) in table.items():
        check = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        only = "" if mode is None else f"; only with {where(mode, _flag)}"
        parser.add_argument(_flag(key), **check, help=f"default {default}{only}")


def _resolve_flags(args, table: dict, modes: dict) -> None:
    """Replace ``table``'s flags in ``args`` by their settings."""
    given = {key: getattr(args, key) for key in table if getattr(args, key) is not None}
    vars(args).update(settings(given, table, modes, _flag))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg_dict = read_json(args.config)
    cfg = DgpConfig(**json_settings(cfg_dict, DGP, "simulate config"))
    panel, truth = gen_dgp(cfg)
    doc_manifest = manifest("simulate", cfg_dict)
    save_panel(panel, args.out_panel, manifest=doc_manifest)
    if args.out_truth:
        save_truth(truth, args.out_truth, doc_manifest)
    print(json.dumps({"seed": cfg.seed, "fixed_design_seed": cfg.fixed_design_seed,
                      "dgp": cfg.dgp, "N": cfg.N, "T": cfg.T}, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def cmd_estimate(args) -> int:
    panel = load_panel_file(args.panel)
    fit = fit_factors(panel, args.k)
    v = goodness_of_fit(panel, args.k)
    doc_manifest = manifest("estimate", {"panel": str(args.panel), "k": args.k})
    write_json(args.out, {**fit_to_dict(fit, doc_manifest), "V": v})
    print(f"k={args.k} V={v:.10g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# select-r
# ---------------------------------------------------------------------------


def _select_r(panel, method: str, c: float, kind: str, k_max: int, P: int, seed: int) -> tuple:
    """r-hat and the selection trace: fixed-c criterion (no trace) or tuned ``abc``."""
    if method == "fixed":
        return select_r_fixed(panel, c, kind, k_max), None
    return abc_select_r(panel, AbcConfig(k_max=k_max, P=P, rng_seed=seed), kind)


def cmd_select_r(args) -> int:
    _resolve_flags(args, SELECT, {})
    if args.method == "fixed" and (args.trace or args.variance_csv):
        raise ValueError("--trace and --variance-csv need --method abc")
    panel = load_panel_file(args.panel)
    r, trace = _select_r(panel, args.method, args.c, args.kind, args.k_max, args.P, args.seed)
    if args.trace:
        save_trace(trace, args.trace, manifest("select-r", {
            "panel": str(args.panel), "kind": args.kind, "k_max": args.k_max, "P": args.P,
            "seed": args.seed}))
    if args.variance_csv:
        save_variance_csv(trace, args.variance_csv)
    print(r)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


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
    spec = read_json(args.spec)
    grid = json_settings(spec, BENCH, "bench spec", extra=["select"])
    select = (json_settings(spec["select"], SELECT, "bench select", lambda key: "select." + key)
              if "select" in spec else None)
    for key in ("dgps", "N", "T", "k"):
        if len(set(grid[key])) < len(grid[key]):
            raise ValueError(f"{key} must not repeat a value, got {json.dumps(grid[key])}")
    dgps, n_list, t_list, k_list, reps = map(grid.pop, ["dgps", "N", "T", "k", "replications"])
    # the rest of the grid is the seed and the design keys (n_factors, basis_dim, ...)
    cells = [DgpConfig(dgp, n, t, **grid) for dgp in dgps for n in n_list for t in t_list]
    # the module's _bench_replication as it is now: the pool pickles it by name
    metric_rows, select_rows, (workers, threads) = run_grid(cells, k_list, reps, select,
                                                            _bench_replication)

    doc_manifest = manifest("bench", spec)
    write_csv(args.out, BENCH_HEADER, metric_rows, doc_manifest)
    if select_rows:
        sel_path = os.path.splitext(str(args.out))[0] + ".selection.csv"
        write_csv(sel_path, SELECTION_HEADER, select_rows, doc_manifest)
        r = grid["n_factors"]
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
    return tnh_forecast(panel, replace(args.config, horizon=horizon))


def _mortality_rolling(args, flags: dict) -> int:
    # _forecast_panel is looked up per call: one call per origin is one op
    rows = mortality_rolling_eval(
        args.mortality, lambda train, steps: _forecast_panel(train, args, steps),
        args.horizon, args.p_max, args.eval_age_max, args.sex, args.delta_min)
    table_rows = []
    for sex, h, mafe, msfe in rows:
        table_rows.append([sex, h, args.method, repr(mafe), repr(msfe)])
        print(f"sex={sex} h={h} method={args.method} MAFE={mafe:.6f} MSFE={msfe:.6f}")
    if args.out:
        # delta_min null: the per-sex default
        write_csv(args.out, ["sex", "h", "method", "mafe", "msfe"], table_rows,
                  manifest("forecast", flags, ("numpy", "threads")))
    return EXIT_OK


def cmd_forecast(args) -> int:
    if (args.mortality is None) == (args.panel is None):
        raise ValueError("provide exactly one of --panel or --mortality")
    _resolve_flags(args, FORECAST, {"mortality": args.mortality is not None})
    # one config checks the horizon, p_max, fixed_r and seed before any file is opened
    args.config = ForecastConfig(args.horizon, args.p_max, args.fixed_r,
                                 0 if args.seed is None else args.seed)
    # the manifest's args: the input file and every flag that can change the
    # output, each FORECAST setting null where it does not apply
    source = "panel" if args.mortality is None else "mortality"
    flags = {source: str(getattr(args, source)), "horizon": args.horizon,
             **{key: getattr(args, key) for key in FORECAST}}
    if args.mortality is not None:
        return _mortality_rolling(args, flags)
    result = _forecast_panel(load_panel_file(args.panel), args, args.horizon)
    if args.out:
        save_forecast(result, args.out, manifest("forecast", flags, ("threads",)))
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
    _add_flags(p, SELECT)
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
    p.add_argument("--horizon", type=int, required=True)
    _add_flags(p, FORECAST)
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
