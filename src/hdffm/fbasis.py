"""B-spline bases, curve projection, and mortality-table ingestion.

Gridded curves enter the panel machinery here: a curve observed on a grid
is least-squares projected onto a B-spline basis, and the basis Gram matrix
(computed by per-span Gauss-Legendre quadrature, exact for products of
splines) carries the L2 geometry into the coefficient representation.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import BSpline

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

    Expected columns: prefecture_id, year, sex, age (0..110 or "110+"),
    rate (empty string for missing).  A header row is detected and skipped.
    """
    records = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            if row[0].strip().lower() in ("prefecture_id", "prefecture"):
                continue
            pref, year, sex, age, rate = (v.strip() for v in row[:5])
            age_val = GROUP_AGE + 16 if age.endswith("+") else int(age)
            records.append(
                (pref, int(year), sex, age_val, float(rate) if rate != "" else None)
            )
    return records


def _preprocess_curve(rates: dict, key) -> np.ndarray:
    """Ages 0..95 (95 = mean of all ages >= 95), forward-filled, log scale."""
    old = [v for age, v in rates.items() if age >= GROUP_AGE and v is not None]
    values = [rates.get(age) for age in range(GROUP_AGE)]
    values.append(float(np.mean(old)) if old else None)
    out = np.empty(GROUP_AGE + 1)
    for age, v in enumerate(values):
        if v is None:
            if age == 0:
                raise ValueError(f"{key}: rate at age 0 is missing and cannot be filled")
            v = out_raw  # previous age's raw value
        if v <= 0:
            raise ValueError(f"{key}: nonpositive rate {v} at age {age}")
        out_raw = v
        out[age] = np.log(v)
    return out


def ingest_mortality(records: list, basis: BSplineBasis) -> dict:
    """Build one coefficient panel per sex from mortality-rate records.

    Rates for ages >= 95 are grouped by averaging, missing rates are filled
    with the previous age group's value, the log transform is applied, and
    every (prefecture, year) curve is projected onto ``basis``.
    """
    by_key = defaultdict(dict)
    for pref, year, sex, age, rate in records:
        by_key[(sex, pref, year)][age] = rate

    sexes = sorted({sex for sex, _, _ in by_key})
    space = basis.space()
    out = {}
    for sex in sexes:
        prefs = sorted({p for s, p, _ in by_key if s == sex})
        years = sorted({y for s, _, y in by_key if s == sex})
        N, T = len(prefs), len(years)
        log_rates = np.empty((N, T, GROUP_AGE + 1))
        coeffs = np.empty((N, T, basis.dim))
        for i, pref in enumerate(prefs):
            for t, year in enumerate(years):
                key = (sex, pref, year)
                if key not in by_key:
                    raise ValueError(f"missing curve for {key}")
                log_rates[i, t] = _preprocess_curve(by_key[key], key)
                coeffs[i, t] = project_curve(
                    basis, GriddedCurve(AGE_GRID, log_rates[i, t])
                )
        panel = Panel([space] * N, list(coeffs))
        out[sex] = MortalityData(
            panel=panel, prefectures=tuple(prefs), years=tuple(years), log_rates=log_rates
        )
    return out
