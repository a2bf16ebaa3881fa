"""B-spline bases, curve projection, and mortality-table ingestion.

Gridded curves enter the panel machinery here: a curve observed on a grid
is least-squares projected onto a B-spline basis, and the basis Gram matrix
(computed by per-span Gauss-Legendre quadrature, exact for products of
splines) carries the L2 geometry into the coefficient representation.
"""

from __future__ import annotations

import csv
import math
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
        x = np.asarray(x, dtype=float)
        a, b = self.domain
        if x.min() < a or x.max() > b:
            raise ValueError(f"points outside the basis domain [{a}, {b}]")
        return _design_matrix(self.knots, self.order, x)

    def space(self) -> SpaceSpec:
        return SpaceSpec(FUNCTIONAL, self.dim, self.gram)


def _design_matrix(knots: np.ndarray, order: int, x: np.ndarray) -> np.ndarray:
    """(len(x), dim) values of the B-splines of ``order`` on ``knots`` (end knots
    of full multiplicity, distinct interior knots) at points ``x`` in the
    domain, by de Boor's recurrence.  The operations run in the order of
    scipy's ``BSpline.design_matrix``, whose values these are bitwise."""
    k, dim = order - 1, knots.size - order
    # the knot span of each point; the right end belongs to the last span
    ell = np.clip(np.searchsorted(knots, x, side="right") - 1, k, dim - 1)
    h = np.zeros((order, x.size))  # the order nonzero splines on each point's span
    h[0] = 1.0
    for j in range(1, order):
        hh = h[:j].copy()
        h[0] = 0.0
        for m in range(1, j + 1):
            right, left = knots[ell + m], knots[ell + m - j]
            w = hh[m - 1] / (right - left)
            h[m - 1] += w * (right - x)
            h[m] = w * (x - left)
    out = np.zeros((x.size, dim))
    out[np.arange(x.size)[:, None], ell[:, None] - k + np.arange(order)] = h.T
    return out


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
        phi = _design_matrix(knots, order, x)
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


def _project(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares coefficients in the columns of the (m, n) ``design`` of
    each curve in the (..., m) ``values``: one thin SVD of the design, rank
    judged by gelsd's rule, and one product by its pseudo-inverse."""
    m, n = design.shape
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s.size < n or s[-1] <= np.finfo(float).eps * max(m, n) * s[0]:
        raise ValueError("projection design matrix is rank deficient (grid too coarse)")
    return values @ ((u / s) @ vt)


def project_curve(basis: BSplineBasis, curve: GriddedCurve) -> np.ndarray:
    """Least-squares coefficients of a gridded curve in the basis."""
    if curve.grid.size < basis.dim:
        raise ValueError(f"need at least {basis.dim} grid points, got {curve.grid.size}")
    return _project(basis.evaluate(curve.grid), curve.values)


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


@dataclass(frozen=True, eq=False)
class MortalityRecords:
    """Mortality-rate records, column by column.

    Record ``i`` is the rate ``rate[i]`` (NaN where it is missing) at age
    ``age[i]`` (``"110+"`` reads as 111) in prefecture
    ``prefectures[pref[i]]``, year ``year[i]``, for sex ``sexes[sex[i]]``.
    The label tuples are sorted.
    """

    prefectures: tuple
    pref: np.ndarray
    year: np.ndarray
    sexes: tuple
    sex: np.ndarray
    age: np.ndarray
    rate: np.ndarray


def _factorize(col: np.ndarray) -> tuple:
    """Sorted distinct values of a column of str or ASCII bytes, as str, and each
    entry's index among them.  Only the first entry of each run of equal
    neighbours is sorted, so a table listed key by key costs little."""
    starts = np.flatnonzero(np.append(True, col[1:] != col[:-1])[: col.size])
    labels, codes = np.unique(col[starts], return_inverse=True)
    labels = tuple(x.decode() if isinstance(x, bytes) else x for x in labels.tolist())
    return labels, np.repeat(codes, np.diff(np.append(starts, col.size)))


def _age(text: str) -> int:
    return GROUP_AGE + 16 if text.endswith("+") else int(text)


def _as_records(rows: list) -> MortalityRecords:
    """Columns of (prefecture_id, year, sex, age, rate-or-None) tuples."""
    bad = next((r for r in rows if r[4] is not None and not math.isfinite(r[4])), None)
    if bad is not None:
        raise ValueError(f"{bad[2], bad[0], bad[1]}: rate must be finite, got {bad[4]!r} at age {bad[3]}")
    pref, year, sex, age, rate = [np.array(c, dtype=object) for c in zip(*rows)] or [
        np.empty(0, dtype=object)] * 5
    try:
        year, age = year.astype(np.int64), age.astype(np.int64)
    except OverflowError as exc:
        raise ValueError(f"year or age out of range: {exc}") from None
    return MortalityRecords(*_factorize(pref), year, *_factorize(sex), age, rate.astype(float))


# The plain shape of a mortality CSV: ASCII letters, digits and ",.+-_" between
# line breaks, and an optional header.  Quotes, "#", blanks and other bytes are
# left to the csv module.
_PLAIN_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ,.+-_\r\n"
_HEADERS = (b"prefecture_id,", b"prefecture,")
_PLAIN_FIELDS = [("pref", "S16"), ("year", "i8"), ("sex", "S8"), ("age", "S8"), ("rate", "S32")]


def _load_plain_csv(path) -> MortalityRecords | None:
    """The records of a CSV in the plain shape with five fields a row, read a
    column at a time; None for any other file, or one the line reader would
    reject (it then reports the line)."""
    with open(path, "rb") as fh:
        data = fh.read()
    low = data.lower()
    header = low.startswith(_HEADERS)
    # any other "prefecture" may be a header row the line reader skips
    if data.translate(None, _PLAIN_BYTES) or low.count(b"prefecture") != header:
        return None
    if not (data.partition(b"\n")[2] if header else data).strip(b"\r\n"):
        return None  # no data rows
    try:
        table = np.loadtxt(path, dtype=_PLAIN_FIELDS, delimiter=",", comments=None,
                           skiprows=int(header), encoding="ascii", ndmin=1)
        pref, year, sex, age, text = (np.ascontiguousarray(table[n]) for n in table.dtype.names)
        fields = (pref, sex, age, text)
        if any(f.view(np.uint8)[f.itemsize - 1 :: f.itemsize].any() for f in fields):
            return None  # a value that fills its field may have been cut short
        ages, age = np.unique(age.view(np.uint64), return_inverse=True)
        age = np.array([_age(a.decode()) for a in ages.view("S8")], dtype=np.int64)[age]
        given = text != b""
        rate = np.full(text.size, np.nan)
        rate[given] = text[given].astype(float)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(rate[given]).all():
        return None
    return MortalityRecords(*_factorize(pref), year, *_factorize(sex), age, rate)


def load_mortality_csv(path) -> MortalityRecords:
    """Read mortality-rate records from CSV.

    Expected columns: prefecture_id, year, sex, age (0..110 or "110+"), rate
    (finite, or empty for missing).  A header row is detected and skipped.
    A plain file is read a column at a time; any other goes line by line,
    which names the line of a malformed row.
    """
    records = _load_plain_csv(path)
    return _as_records(_read_csv_rows(path)) if records is None else records


def _read_csv_rows(path) -> list:
    """(prefecture_id, year, sex, age, rate-or-None) tuples of a CSV, line by line."""
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
            text = row[4].strip()
            try:
                year, age = int(row[1]), _age(row[3].strip())
                rate = float(text) if text else None
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            if rate is not None and not math.isfinite(rate):
                raise ValueError(f"line {reader.line_num}: rate must be finite, got {text!r}")
            append((pref, year, row[2].strip(), age, rate))
    if not records:
        raise ValueError("mortality CSV has no data rows")
    return records


def _log_rate_curves(curve: np.ndarray, age: np.ndarray, rate: np.ndarray, n_curves: int,
                     key) -> np.ndarray:
    """(n_curves, 96) log rates on ages 0..95 from the records (curve index,
    age, rate).  Of repeated records of one age the last wins, also when its
    rate is missing.  Age 95 is the mean of the rates of all given ages >= 95,
    summed in the order those ages first appear, and a missing rate takes the
    previous age's.  The first bad curve, at its first bad age, raises;
    ``key(c)`` names curve ``c``."""
    ages, a = np.unique(age, return_inverse=True)
    slots = curve * ages.size + a  # one per (curve, age)
    first, last = np.full(n_curves * ages.size, curve.size), np.full(n_curves * ages.size, -1)
    np.minimum.at(first, slots, np.arange(curve.size))
    np.maximum.at(last, slots, np.arange(curve.size))
    slots = np.flatnonzero(last >= 0)
    c, a = np.divmod(slots, ages.size)
    value, a = rate[last[slots]], ages[a]
    grid = np.full((n_curves, GROUP_AGE + 1), np.nan)  # NaN: missing
    young = (a >= 0) & (a < GROUP_AGE)
    grid[c[young], a[young]] = value[young]
    old = (a >= GROUP_AGE) & ~np.isnan(value)
    order = np.lexsort((first[slots[old]], c[old]))
    c, value = c[old][order], value[old][order]
    counts = np.bincount(c, minlength=n_curves)
    for n in np.unique(counts[counts > 0]):
        cs = np.flatnonzero(counts == n)
        # a row mean of a fresh (curves, n) array sums like float(np.mean(list))
        grid[cs, GROUP_AGE] = value[np.cumsum(counts)[cs, None] - n + np.arange(n)].mean(axis=1)

    missing = np.isnan(grid)
    last_given = np.maximum.accumulate(np.where(missing, 0, np.arange(GROUP_AGE + 1)), axis=1)
    filled = np.take_along_axis(grid, last_given, axis=1)
    nonpositive = filled <= 0
    bad = missing[:, 0] | nonpositive.any(axis=1)
    if bad.any():
        c = int(np.argmax(bad))
        if c not in curve:
            raise ValueError(f"missing curve for {key(c)}")
        if missing[c, 0]:
            raise ValueError(f"{key(c)}: rate at age 0 is missing and cannot be filled")
        age = int(np.argmax(nonpositive[c]))
        raise ValueError(f"{key(c)}: nonpositive rate {float(filled[c, age])} at age {age}")
    return np.log(filled)


def ingest_mortality(records, basis: BSplineBasis) -> dict:
    """Build one coefficient panel per sex from mortality-rate records.

    ``records`` are ``load_mortality_csv``'s columns or a list of
    (prefecture_id, year, sex, age, rate-or-None) tuples.  Rates for ages
    >= 95 are grouped by averaging, missing rates are filled with the
    previous age group's value, the log transform is applied, and every
    (prefecture, year) curve is projected onto ``basis`` by one factorisation
    of the design.  Of repeated records for one age, the last wins.
    """
    cols = records if isinstance(records, MortalityRecords) else _as_records(records)
    design = basis.evaluate(AGE_GRID)
    space = basis.space()
    out = {}
    for s, sex in enumerate(cols.sexes):
        rows = cols.sex == s
        pref_codes, p = np.unique(cols.pref[rows], return_inverse=True)
        years, y = np.unique(cols.year[rows], return_inverse=True)
        prefs, years = tuple(cols.prefectures[i] for i in pref_codes), tuple(years.tolist())
        N, T = len(prefs), len(years)
        log_rates = _log_rate_curves(p * T + y, cols.age[rows], cols.rate[rows], N * T,
                                     lambda c: (sex, prefs[c // T], years[c % T]))
        panel = Panel([space] * N, _project(design, log_rates).reshape(N, T, basis.dim))
        out[sex] = MortalityData(panel, prefs, years, log_rates.reshape(N, T, GROUP_AGE + 1))
    return out
