"""Every document hdffm reads or writes: the settings reader that checks
each CLI flag, config, spec and JSON document against its table
(``settings``, ``json_settings``); the panel JSON and the all-scalar panel
CSV; the fit JSON; and the outputs (selection trace JSON and variance CSV,
simulation truth JSON, panel forecast JSON, CSV tables) with the one
``manifest`` each embeds.  ``fbasis.load_mortality_csv`` shares ``csv_rows``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import MISSING

import numpy as np

from . import __version__
from .estimate import FactorFit
from .panel import FUNCTIONAL, SCALAR, Panel, SpaceSpec, block_offsets, scalar_space, split_stacked
from .select import thread_cap

# A settings table maps each flag or JSON key to (default, JSON type, mode);
# MISSING marks a required key.  Types: int, float (a finite number), str, dict,
# list, [type] (a list of that type) or a tuple of allowed strings.  Mode (key,
# value) limits a setting to where key, an earlier setting or a caller's mode, has that value.
_TYPE_NAMES = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), dict: ("an object", "objects"),
               list: ("a list", "lists")}
_SPACE = {"kind": (MISSING, (SCALAR, FUNCTIONAL), None), "dim": (MISSING, int, None),
          "gram": (None, [[float]], None)}
_PANEL = {"N": (MISSING, int, None), "T": (MISSING, int, None),
          "spaces": (MISSING, list, None), "coeffs": (MISSING, list, None)}
_FIT = {"k": (MISSING, int, None), "T": (None, int, None), "lambda_hat": (MISSING, [float], None),
        "factors": (MISSING, [list], None), "e_hat": (MISSING, [dict], None),
        "trace_F": (MISSING, float, None), "spaces": (MISSING, list, None)}


def _is_a(value, kind) -> bool:
    """Whether ``value`` has the JSON type ``kind``; JSON true and false are no numbers."""
    if isinstance(kind, tuple):
        return value in kind
    if isinstance(kind, list):
        return isinstance(value, list) and all(_is_a(v, kind[0]) for v in value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        return False
    return kind is not float or math.isfinite(value)


def _noun(kind, plural: bool = False) -> str:
    """How a message names the JSON type ``kind``: a list type by its items."""
    if isinstance(kind, list):
        return ("lists" if plural else "a list") + " of " + _noun(kind[0], True)
    return f"one of {list(kind)}" if isinstance(kind, tuple) else _TYPE_NAMES[kind][plural]


def where(mode: tuple, name) -> str:
    """How a message names the mode (key, value) of a setting."""
    return name(mode[0]) + ("" if mode[1] is True else f" {mode[1]}")


def settings(given: dict, table: dict, modes: dict, name) -> dict:
    """Every setting of ``table`` under the ``given`` ones (a key left out is not
    given), in table order.  A setting that applies is type-checked, or takes
    its default; one that does not is None, and giving it is an error.
    ``name(key)`` is how a message names a setting."""
    out = {}
    for key, (default, kind, mode) in table.items():
        if mode is not None and (modes | out).get(mode[0]) != mode[1]:
            if key in given:
                raise ValueError(f"{name(key)} applies only to {where(mode, name)}")
            out[key] = None
        elif key in given and not _is_a(given[key], kind):
            raise ValueError(f"{name(key)} must be {_noun(kind)}, got {json.dumps(given[key])}")
        elif key in given or default is not MISSING:
            out[key] = given.get(key, default)
        else:
            raise KeyError(key)
    return out


def json_settings(doc, table: dict, what: str, name=str, extra=()) -> dict:
    """``table``'s settings from the JSON object ``doc``, which may hold no key
    outside the table but the ``extra`` ones."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {json.dumps(doc)}")
    unknown = sorted(set(doc) - set(table) - set(extra))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; allowed: {sorted([*table, *extra])}")
    return settings(doc, table, {}, name)


def read_json(path):
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark may lead
        return json.load(fh)


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def space_to_dict(spec: SpaceSpec) -> dict:
    out = {"kind": spec.kind, "dim": spec.dim}
    if not spec.is_identity_gram:
        out["gram"] = spec.gram.tolist()
    return out


def space_from_dict(d: dict, name: str) -> SpaceSpec:
    """The space a dict of ``space_to_dict`` describes, read through ``_SPACE``; the
    message of a bad key, or of a ``gram`` that is not dim x dim, calls it ``name``."""
    kind, dim, gram = json_settings(d, _SPACE, name, lambda key: f"{name}.{key}").values()
    if gram is not None and (len(gram) != dim or any(len(row) != dim for row in gram)):
        raise ValueError(f"{name}.gram must be a {dim} x {dim} list of numbers")
    return SpaceSpec(kind, dim, np.eye(dim) if gram is None else np.asarray(gram, dtype=float))


def panel_to_dict(panel: Panel, manifest: dict | None = None) -> dict:
    out = {
        "N": panel.N,
        "T": panel.T,
        "spaces": [space_to_dict(s) for s in panel.spaces],
        "coeffs": [c.tolist() for c in panel.coeffs],
    }
    if manifest is not None:
        out["manifest"] = manifest
    return out


def panel_from_dict(d: dict) -> Panel:
    """The panel a dict of ``panel_to_dict`` describes.  Each coefficient block
    must read as one array of JSON numbers; ``Panel`` checks its shape and values."""
    if not isinstance(d, dict):
        raise ValueError(f"a panel must be a JSON object, got {type(d).__name__}")
    N, T, space_docs, coeffs = json_settings(d, _PANEL, "panel", lambda key: f"panel {key!r}",
                                             ["manifest"]).values()
    for i, s in enumerate(space_docs):
        if not isinstance(s, dict):
            raise ValueError(f"panel spaces[{i}] must be an object, got {type(s).__name__}")
    spaces = [space_from_dict(s, f"spaces[{i}]") for i, s in enumerate(space_docs)]
    blocks = []
    for i, c in enumerate(coeffs):
        try:
            block = np.asarray(c)  # JSON numbers give an integer or float array
            if block.dtype == object:  # integers beyond 64 bits, or null
                block = np.asarray(c, dtype=float)
        except (TypeError, ValueError):  # lists of unequal lengths, or no numbers
            block = None
        if block is None or block.dtype.kind not in "iuf":
            raise ValueError(f"panel coeffs[{i}] must be a list of equal-length lists of "
                             "numbers (not true, false or strings)")
        blocks.append(block)
    panel = Panel(spaces, blocks)
    if panel.N != N or panel.T != T:
        raise ValueError("panel header does not match coefficient arrays")
    return panel


def save_panel(panel: Panel, path, manifest: dict | None = None) -> None:
    write_json(path, panel_to_dict(panel, manifest))


def load_panel(path) -> Panel:
    return panel_from_dict(read_json(path))


def csv_rows(path):
    """(line number, fields) of each data row of a CSV, skipping a leading byte-order
    mark, blank rows and rows whose first field starts with "#"."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        yield from ((reader.line_num, row) for row in reader if row and not row[0].startswith("#"))


def load_scalar_csv(path) -> Panel:
    """Read an all-scalar panel from CSV laid out as N rows x T columns."""
    rows = []
    for line, row in csv_rows(path):
        if rows and len(row) != len(rows[0]):
            raise ValueError(f"line {line}: ragged CSV panel, "
                             f"{len(row)} values where earlier rows have {len(rows[0])}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
    if not rows:
        raise ValueError("empty CSV panel")
    return Panel.from_stacked([scalar_space()] * len(rows), rows)


def load_panel_file(path) -> Panel:
    """Panel files are JSON; all-scalar panels may come as N x T CSV."""
    if str(path).lower().endswith(".csv"):
        return load_scalar_csv(path)
    return load_panel(path)


def fit_to_dict(fit: FactorFit, manifest: dict | None = None) -> dict:
    offsets = block_offsets(fit.spaces)
    e_blocks = [{str(i): b.tolist() for i, b in enumerate(split_stacked(offsets, column))}
                for column in fit.e_hat.T]
    out = {
        "k": fit.k,
        "T": fit.T,
        "lambda_hat": fit.lambda_hat.tolist(),
        "factors": fit.factors.tolist(),
        "e_hat": e_blocks,
        "trace_F": fit.trace_F,
        "spaces": [space_to_dict(s) for s in fit.spaces],
    }
    if manifest is not None:
        out["manifest"] = manifest
    return out


def fit_from_dict(d: dict) -> FactorFit:
    """The fit a dict of ``fit_to_dict`` describes, read through ``_FIT``; before any
    array is built, a key that no fit of ``fit_factors`` holds raises a ``ValueError``
    naming it (``T``, the factors' row length, may be left out unless k is 0)."""
    k, T, lam, rows, e_blocks, trace_F, space_docs = json_settings(
        d, _FIT, "fit", lambda key: "fit " + key, ["manifest", "V"]).values()
    n = len(rows[0]) if rows else T
    for key, ok, must in [
            ("k", k >= 0, "a non-negative integer"),
            ("lambda_hat", len(lam) == k and min(lam, default=1) > 0,
             f"a list of {k} finite values above 0"),
            ("factors", len(rows) == k and len(set(map(len, rows))) < 2,
             f"a list of {k} rows of equal length"),
            ("T", n is not None and n >= 0 and T in (None, n),
             "the factors' row length, and given when k is 0"),
            ("e_hat", len(e_blocks) == k, f"a list of {k} entries")]:
        if not ok:
            raise ValueError(f"fit {key} must be {must}")
    spaces = tuple(space_from_dict(s, f"spaces[{i}]") for i, s in enumerate(space_docs))
    lambda_hat = np.asarray(lam, dtype=float)
    offsets = block_offsets(spaces)
    e_hat = np.zeros((offsets[-1], k))
    for column, blocks in zip(e_hat.T, e_blocks):
        for i, view in enumerate(split_stacked(offsets, column)):
            view[:] = blocks[str(i)]  # a block of the wrong length raises
    factors = np.asarray(rows, dtype=float).reshape(k, n)
    return FactorFit(lambda_hat, factors, e_hat, float(trace_F), spaces)


# what a manifest may record of the environment its command ran in
ENVIRONMENT = {"numpy": lambda: np.__version__, "threads": thread_cap}


def manifest(command: str, args: dict, environment=()) -> dict:
    """What every output of ``command`` embeds: the command, the package version,
    the ``args`` that can change the output and each named ``ENVIRONMENT`` entry."""
    return {"command": command, "version": __version__, "args": args,
            **{key: ENVIRONMENT[key]() for key in environment}}


def write_csv(path, header, rows, manifest: dict) -> None:
    """A CSV table under a ``# manifest:`` line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_trace(trace, path, manifest: dict) -> None:
    """The JSON of a ``SelectionTrace``: everything the tuning sweep computed."""
    write_json(path, {
        "c_grid": trace.c_grid.tolist(),
        "subpanel_sizes": [list(s) for s in trace.subpanel_sizes],
        "permutations": [list(map(int, p)) for p in trace.permutations],
        "r_hat_table": trace.r_hat_table.tolist(),
        "variance_profile": trace.variance_profile.tolist(),
        "plateaus": trace.plateaus,
        "chosen_c_index": trace.chosen_c_index,
        "chosen_c": trace.chosen_c,
        "fallback": trace.fallback,
        "r_hat_per_p": trace.r_hat_per_p,
        "r_hat_final": trace.r_hat_final,
        "manifest": manifest,
    })


def save_variance_csv(trace, path, manifest: dict) -> None:
    """A ``SelectionTrace``'s variance profile as CSV: a row per c, a column per permutation."""
    header = ["c"] + [f"var_p{p + 1}" for p in range(trace.variance_profile.shape[1])]
    write_csv(path, header, ([c, *row] for c, row in zip(trace.c_grid.tolist(),
                                                         trace.variance_profile.tolist())), manifest)


def save_truth(truth, path, manifest: dict) -> None:
    """The JSON of a simulation's ``GroundTruth``; its common component is a panel document."""
    write_json(path, {"manifest": manifest, "U": truth.U.tolist(),
                      "B_coeffs": truth.B_coeffs.tolist(), "a": truth.a.tolist(),
                      "chi": panel_to_dict(truth.chi)})


def save_forecast(result, path, manifest: dict) -> None:
    """The JSON of a panel's ``ForecastResult``: r and the per-series forecasts."""
    write_json(path, {"manifest": manifest, "r": result.r,
                      "forecasts": [s.tolist() for s in result.steps]})
