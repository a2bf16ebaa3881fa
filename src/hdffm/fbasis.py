"""B-spline bases, curve projection, and mortality-table ingestion.

Gridded curves enter the panel machinery here: a curve observed on a grid
is least-squares projected onto a B-spline basis, and the basis Gram matrix
(computed by per-span Gauss-Legendre quadrature, exact for products of
splines) carries the L2 geometry into the coefficient representation.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .panel import FUNCTIONAL, Panel, SpaceSpec


@dataclass(frozen=True, eq=False)
class BSplineBasis:
    """B-spline basis on [a, b] with equally spaced interior knots."""

    domain: tuple
    order: int
    knots: np.ndarray
    dim: int
    gram: np.ndarray

    @property
    def degree(self) -> int:
        return self.order - 1

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Design matrix of all basis functions at the points ``x``."""
        from scipy.interpolate import BSpline  # imported here: ~1 s, and only bases need it
        x = np.asarray(x, dtype=float)
        a, b = self.domain
        if x.min() < a or x.max() > b:
            raise ValueError(f"points outside the basis domain [{a}, {b}]")
        return BSpline.design_matrix(x, self.knots, self.degree).toarray()

    def space(self) -> SpaceSpec:
        return SpaceSpec(FUNCTIONAL, self.dim, self.gram)


def build_bspline(domain: tuple, dim: int, order: int = 4) -> BSplineBasis:
    """Construct a ``dim``-dimensional spline basis of the given order.

    Interior knots are equally spaced (there are ``dim - order`` of them),
    and boundary knots carry full multiplicity so the basis sums to one on
    the whole domain.  The Gram matrix of pairwise L2 inner products is
    assembled by Gauss-Legendre quadrature with ``order`` nodes per knot
    span, which integrates the degree-2(order-1) product polynomials
    exactly.
    """
    from scipy.interpolate import BSpline
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError("domain must satisfy a < b")
    if order < 2:
        raise ValueError("order must be >= 2")
    if dim < order:
        raise ValueError("dim must be >= order")
    n_interior = dim - order
    interior = np.linspace(a, b, n_interior + 2)[1:-1]
    knots = np.concatenate([np.full(order, a), interior, np.full(order, b)])

    nodes, weights = np.polynomial.legendre.leggauss(order)
    gram = np.zeros((dim, dim))
    breaks = np.concatenate([[a], interior, [b]])
    for u0, u1 in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (u1 - u0)
        x = half * nodes + 0.5 * (u0 + u1)
        w = half * weights
        phi = BSpline.design_matrix(x, knots, order - 1).toarray()
        gram += phi.T @ (w[:, None] * phi)
    gram = 0.5 * (gram + gram.T)
    return BSplineBasis(domain=(a, b), order=order, knots=knots, dim=dim, gram=gram)


@dataclass(frozen=True, eq=False)
class GriddedCurve:
    """A curve observed on a strictly increasing grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal length")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def project_curve(basis: BSplineBasis, curve: GriddedCurve) -> np.ndarray:
    """Least-squares coefficients of a gridded curve in the basis."""
    if curve.grid.size < basis.dim:
        raise ValueError(f"need at least {basis.dim} grid points, got {curve.grid.size}")
    design = basis.evaluate(curve.grid)
    coef, _, rank, _ = np.linalg.lstsq(design, curve.values, rcond=None)
    if rank < basis.dim:
        raise ValueError("projection design matrix is rank deficient (grid too coarse)")
    return coef


# ---------------------------------------------------------------------------
# Mortality tables
# ---------------------------------------------------------------------------

GROUP_AGE = 95
AGE_GRID = np.arange(GROUP_AGE + 1, dtype=float)


@dataclass(frozen=True, eq=False)
class MortalityData:
    """One sex's ingested mortality panel plus the preprocessed grid values."""

    panel: Panel
    prefectures: tuple
    years: tuple
    log_rates: np.ndarray  # (N, T, 96) log rates on ages 0..95


def load_mortality_csv(path) -> list:
    """Read records (prefecture_id, year, sex, age, rate-or-None) from CSV.

    Expected columns: prefecture_id, year, sex, age (0..110 or "110+"), rate
    (finite, or empty for missing).  A header row is detected and skipped.
    """
    records = []
    append = records.append
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if not row or row[0].startswith("#"):
                continue
            pref = row[0].strip()
            if pref.lower() in ("prefecture_id", "prefecture"):
                continue
            if len(row) < 5:
                raise ValueError(f"line {reader.line_num}: expected 5 columns "
                                 f"(prefecture_id, year, sex, age, rate), got {len(row)}")
            # int() and float() skip surrounding whitespace themselves
            age, text = row[3].strip(), row[4].strip()
            try:
                year, age = int(row[1]), GROUP_AGE + 16 if age.endswith("+") else int(age)
                rate = float(text) if text else None
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            if rate is not None and not math.isfinite(rate):
                raise ValueError(f"line {reader.line_num}: rate must be finite, got {text!r}")
            append((pref, year, row[2].strip(), age, rate))
    if not records:
        raise ValueError("mortality CSV has no data rows")
    return records


def _log_rate_curves(keys: list, by_key: dict) -> np.ndarray:
    """(curves, 96) log rates on ages 0..95, one row per key: age 95 is the mean
    of all given ages >= 95, and a missing rate takes the previous age's.  The
    first bad curve in ``keys``, at its first bad age, raises."""
    rows = []
    for key in keys:
        rates = by_key.get(key, {})
        old = [v for age, v in rates.items() if age >= GROUP_AGE and v is not None]
        rows.append([*map(rates.get, range(GROUP_AGE)), float(np.mean(old)) if old else None])
    rows = np.array(rows, dtype=object)
    missing = np.equal(rows, None)
    # the 1.0 is never read: age 0 must be given, a later gap takes an earlier age
    raw = np.where(missing, 1.0, rows).astype(float)
    last_given = np.maximum.accumulate(np.where(missing, 0, np.arange(GROUP_AGE + 1)), axis=1)
    filled = np.take_along_axis(raw, last_given, axis=1)
    nonpositive = filled <= 0
    bad = missing[:, 0] | nonpositive.any(axis=1)
    if bad.any():
        key = keys[c := int(np.argmax(bad))]
        if key not in by_key:
            raise ValueError(f"missing curve for {key}")
        if missing[c, 0]:
            raise ValueError(f"{key}: rate at age 0 is missing and cannot be filled")
        age = int(np.argmax(nonpositive[c]))
        raise ValueError(f"{key}: nonpositive rate {float(filled[c, age])} at age {age}")
    return np.log(filled)


def ingest_mortality(records: list, basis: BSplineBasis) -> dict:
    """Build one coefficient panel per sex from mortality-rate records.

    Rates for ages >= 95 are grouped by averaging, missing rates (None) are
    filled with the previous age group's value, the log transform is applied,
    and every (prefecture, year) curve is projected onto ``basis``.  Of
    repeated records for one age, the last wins.
    """
    bad = next((r for r in records if r[4] is not None and not math.isfinite(r[4])), None)
    if bad is not None:
        raise ValueError(f"{bad[2], bad[0], bad[1]}: rate must be finite, got {bad[4]!r} at age {bad[3]}")
    by_key = defaultdict(dict)
    for pref, year, sex, age, rate in records:
        by_key[(sex, pref, year)][age] = rate

    design = basis.evaluate(AGE_GRID)
    space = basis.space()
    out = {}
    for sex in sorted({sex for sex, _, _ in by_key}):
        prefs = sorted({p for s, p, _ in by_key if s == sex})
        years = sorted({y for s, _, y in by_key if s == sex})
        N, T = len(prefs), len(years)
        log_rates = _log_rate_curves([(sex, p, y) for p in prefs for y in years], by_key)
        coeffs = np.empty((N * T, basis.dim))
        # one lstsq per curve: a multi-right-hand-side solve differs at rounding level
        for c, curve in enumerate(log_rates):
            coeffs[c], _, rank, _ = np.linalg.lstsq(design, curve, rcond=None)
            if rank < basis.dim:
                raise ValueError("projection design matrix is rank deficient (grid too coarse)")
        panel = Panel([space] * N, coeffs.reshape(N, T, basis.dim))
        out[sex] = MortalityData(panel, tuple(prefs), tuple(years),
                                 log_rates.reshape(N, T, GROUP_AGE + 1))
    return out
