"""B-spline bases, curve projection, and mortality-table ingestion.

Gridded curves enter the panel machinery here: ``project_curve``
least-squares projects curves on a grid onto a B-spline basis, and the basis
Gram matrix (computed by per-span Gauss-Legendre quadrature, exact for
products of splines) carries the L2 geometry into the coefficient representation.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .files import cache_arrays, cache_key, cached_arrays, csv_rows
from .panel import _CHUNK_BYTES, Panel, SpaceSpec, functional_space


@dataclass(frozen=True, eq=False)
class BSplineBasis:
    """B-spline basis on [a, b] with equally spaced interior knots."""

    domain: tuple
    order: int
    knots: np.ndarray
    dim: int
    gram: np.ndarray

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Design matrix of all basis functions at the points ``x``."""
        x = np.asarray(x, dtype=float)
        a, b = self.domain
        if x.min() < a or x.max() > b:
            raise ValueError(f"points outside the basis domain [{a}, {b}]")
        return _design_matrix(self.knots, self.order, x)

    def space(self) -> SpaceSpec:
        return functional_space(self.dim, self.gram)


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


def project_curve(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Least-squares coefficients in the columns of the (m, n) ``design``,
    such as ``BSplineBasis.evaluate`` of a grid, of each curve in the (..., m)
    ``values``: one thin SVD of the design, rank judged by gelsd's rule (a
    rank below n raises), and one product by its pseudo-inverse."""
    m, n = design.shape
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s.size < n or s[-1] <= np.finfo(float).eps * max(m, n) * s[0]:
        raise ValueError("projection design matrix is rank deficient (grid too coarse)")
    return values @ ((u / s) @ vt)


# ---------------------------------------------------------------------------
# Mortality tables
# ---------------------------------------------------------------------------

GROUP_AGE = 95
AGE_GRID = np.arange(GROUP_AGE + 1, dtype=float)
_LAST_AGE = 110  # the CSV schema's last single age; "110+" reads as one more


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
    """Sorted distinct values of a column of ints, str or ASCII bytes (as str),
    and each entry's index among them.  Only the first entry of each run of equal
    neighbours is sorted, so a table listed key by key costs little."""
    words = col[:, None]  # fixed-width bytes compare faster as uint64 words, word by word
    if col.dtype.kind == "S" and col.itemsize % 8 == 0:
        words = col.view(np.dtype((np.uint64, col.itemsize // 8)))
    differ = np.logical_or.reduce([words[1:, k] != words[:-1, k] for k in range(words.shape[1])])
    starts = np.flatnonzero(np.append(True, differ)[: col.size])
    labels, codes = np.unique(col[starts], return_inverse=True)
    labels = tuple(x.decode() if isinstance(x, bytes) else x for x in labels.tolist())
    return labels, np.repeat(codes, np.diff(np.append(starts, col.size)))


def _age(text: str) -> int:
    """An age field: an integer in 0..110, or "110+", which reads as 111."""
    if text == f"{_LAST_AGE}+":
        return _LAST_AGE + 1
    age = int(text)
    if not (text.isdigit() and age <= _LAST_AGE):  # no sign, "_" or out of range
        raise ValueError(f"age must be 0..{_LAST_AGE} or '{_LAST_AGE}+', got {text!r}")
    return age


def _year(text: str) -> int:
    """A year field: an integer of ASCII digits, optionally signed."""
    year = int(text)
    if not (text.isascii() and text.lstrip("+-").isdigit()):  # no "_" or other digits
        raise ValueError(f"year must be an integer of ASCII digits, got {text!r}")
    if not -(2**63) <= year < 2**63:  # the records hold years as int64
        raise ValueError(f"year out of range, got {text!r}")
    return year


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
    if (age < 0).any():
        bad = rows[int(np.argmax(age < 0))]
        raise ValueError(f"{bad[2], bad[0], bad[1]}: age must be >= 0, got {bad[3]!r}")
    return MortalityRecords(*_factorize(pref), year, *_factorize(sex), age, rate.astype(float))


# The plain shape of a mortality CSV: ASCII letters, digits and ",.+-_" between
# line breaks, after an optional byte-order mark and header.  Quotes, "#",
# blanks and other bytes are left to the csv module.
_PLAIN_BYTES = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ,.+-_\r\n"
_BOM = "\ufeff".encode()  # UTF-8 byte-order mark: a spreadsheet's "CSV UTF-8" export
_DATA_BYTE = re.compile(rb"[^\r\n]")
_HEADER_WORDS = ("prefecture_id", "prefecture")  # first fields of the rows both readers skip
_HEADERS = tuple(word.encode() + b"," for word in _HEADER_WORDS)
_PLAIN_FIELDS = [("pref", "S16"), ("year", "i8"), ("sex", "S8"), ("age", "S8"), ("rate", "S32")]
_AGE_SPELLINGS = np.array([str(a) for a in range(_LAST_AGE + 1)] + [f"{_LAST_AGE}+"], dtype="S8")


def _plain_header(data: bytes) -> bool | None:
    """Whether a CSV of the bytes ``data`` in the plain shape starts with a
    header row; None for any other file, which goes to the line reader."""
    bom = len(_BOM) if data.startswith(_BOM) else 0  # skipped, as by the line reader
    header = data[bom : bom + max(map(len, _HEADERS))].lower().startswith(_HEADERS)
    if data.translate(None, _PLAIN_BYTES) != data[:bom]:
        return None
    start = (data.find(b"\n") + 1 or len(data)) if header else bom  # after the header
    if not _DATA_BYTE.search(data, start):
        return None  # no data rows: nothing but line breaks after the header
    return header


def _load_plain_csv(path, header: bool) -> MortalityRecords | None:
    """The records of a CSV in the plain shape (``_plain_header``) with five
    fields a row, read a column at a time, in any row order; None for one the
    line reader would reject (it then reports the line)."""
    try:
        table = np.loadtxt(path, dtype=_PLAIN_FIELDS, delimiter=",", comments=None,
                           skiprows=int(header), encoding="utf-8-sig", ndmin=1)
        # the fields are strided views of the table; the records copy what they keep
        rows = table.view(np.uint8).reshape(table.size, table.itemsize)
        fields = table.dtype.fields
        if rows.take([off + dt.itemsize - 1 for dt, off in fields.values() if dt.kind == "S"],
                     axis=1).any():
            return None  # a value that fills its field may have been cut short
        prefectures, pref = _factorize(table["pref"])
        if any(p.lower() in _HEADER_WORDS for p in prefectures):
            return None  # a header row the line reader skips
        # each age's S8 text read as a uint64 key, looked up among the schema's spellings
        spellings, ages = np.unique(_AGE_SPELLINGS.view(np.uint64), return_index=True)
        key = table["age"].view(np.uint64)
        i = np.searchsorted(spellings, key).clip(max=spellings.size - 1)
        age = ages[i]
        miss = np.flatnonzero(spellings[i] != key)  # other spellings, such as "07"
        keys, codes = np.unique(key[miss], return_inverse=True)
        age[miss] = np.array([_age(k.decode()) for k in keys.view("S8")], dtype=np.int64)[codes]
        rate = np.full(table.size, np.nan)
        step = _CHUNK_BYTES // table.dtype["rate"].itemsize  # rows of rate text per slice
        for lo in range(0, table.size, step):
            given = rows[lo : lo + step, fields["rate"][1]] != 0  # an empty field is all NUL
            values = table["rate"][lo : lo + step][given].astype(float)
            if not np.isfinite(values).all():
                return None
            rate[lo : lo + step][given] = values
    except (ValueError, OverflowError):
        return None
    return MortalityRecords(prefectures, pref, table["year"].copy(),
                            *_factorize(table["sex"]), age, rate)


def load_mortality_csv(path) -> MortalityRecords:
    """Read mortality-rate records from CSV.

    Expected columns: prefecture_id, year (an integer of ASCII digits,
    optionally signed), sex, age (0..110 or "110+"), rate (finite, or empty
    for missing).  A header row is detected and skipped.  A plain file is
    read a column at a time, in any row order: each age is looked up among
    the schema's spellings, and only the runs of equal prefectures and sexes
    are sorted, so a table listed key by key costs linear passes.  Any other
    file goes line by line, which names the line of a malformed row.

    The records are cached by content: the entry's key covers the file's
    bytes and this loader's code (``files.cache_key``), so a table loaded
    before is read back from its entry, bitwise the records its parse gave.
    A table the loaders reject is not cached, nor one that changes while it
    is read and parsed.
    """
    with open(path, "rb") as fh:
        stamp = os.fstat(fh.fileno())  # before the read: an edit after it moves the stamp
        data = fh.read()
    key = cache_key(data, __file__)
    records = _records_from_arrays(cached_arrays(key))
    if records is None:
        header = _plain_header(data)
        del data  # the parse below holds the table; the raw bytes are not needed
        records = None if header is None else _load_plain_csv(path, header)
        if records is None:
            records = _as_records(_read_csv_rows(path))
        arrays = _records_to_arrays(records)
        if arrays is not None:
            cache_arrays(key, arrays, path, stamp)
    return records


# A cache entry of records: MortalityRecords' fields, each label tuple as a str array.
_ENTRY = {"prefectures": str, "pref": np.int64, "year": np.int64, "sexes": str,
          "sex": np.int64, "age": np.int64, "rate": np.float64}
_LABELS = {"pref": "prefectures", "sex": "sexes"}  # each code column and its labels


def _records_to_arrays(records: MortalityRecords) -> dict | None:
    """The cache entry of ``records``: int64 codes, years and ages, float64
    rates with NaN for a missing rate, and the label tuples as str arrays;
    None where a label would not read back as itself (a str array drops
    trailing NULs)."""
    arrays = {name: np.asarray(getattr(records, name), dtype=dtype)
              for name, dtype in _ENTRY.items()}
    if any(tuple(arrays[name].tolist()) != getattr(records, name) for name in _LABELS.values()):
        return None
    return arrays


def _records_from_arrays(arrays: dict | None) -> MortalityRecords | None:
    """The records of a cache entry of ``_records_to_arrays``; None for no
    entry or one of another layout, such as another program's file."""
    if arrays is None or set(arrays) != set(_ENTRY):
        return None
    n = arrays["rate"].shape
    for name, dtype in _ENTRY.items():
        a = arrays[name]
        if a.ndim != 1 or (a.dtype.kind != "U" if dtype is str else a.dtype != dtype or a.shape != n):
            return None
    for codes, labels in _LABELS.items():
        if not 0 <= arrays[codes].min(initial=0) <= arrays[codes].max(initial=0) < arrays[labels].size:
            return None
    return MortalityRecords(**{name: tuple(a.tolist()) if a.dtype.kind == "U" else a
                               for name, a in arrays.items()})


def _read_csv_rows(path) -> list:
    """(prefecture_id, year, sex, age, rate-or-None) tuples of a CSV, line by line."""
    records = []
    for line, row in csv_rows(path):
        pref = row[0].strip()
        if pref.lower() in _HEADER_WORDS:
            continue
        if len(row) < 5:
            raise ValueError(f"line {line}: expected 5 columns "
                             f"(prefecture_id, year, sex, age, rate), got {len(row)}")
        text = row[4].strip()
        try:
            year, age = _year(row[1].strip()), _age(row[3].strip())
            rate = float(text) if text else None
        except ValueError as exc:
            raise ValueError(f"line {line}: {exc}") from None
        if rate is not None and not math.isfinite(rate):
            raise ValueError(f"line {line}: rate must be finite, got {text!r}")
        records.append((pref, year, row[2].strip(), age, rate))
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
    ``key(c)`` names curve ``c``.  An age below 95 is its own grid column;
    only the ages >= 95 are sorted."""
    grid = np.full((n_curves, GROUP_AGE + 1), np.nan)  # NaN: missing
    young = np.flatnonzero((age >= 0) & (age < GROUP_AGE))
    last = np.full(grid.size, -1)
    np.maximum.at(last, curve[young] * (GROUP_AGE + 1) + age[young], young)
    slots = np.flatnonzero(last >= 0)
    grid.reshape(-1)[slots] = rate[last[slots]]

    old = np.flatnonzero(age >= GROUP_AGE)
    ages, a = np.unique(age[old], return_inverse=True)
    slots = curve[old] * ages.size + a  # one per (curve, age >= 95)
    first, last = np.full(n_curves * ages.size, curve.size), np.full(n_curves * ages.size, -1)
    np.minimum.at(first, slots, old)
    np.maximum.at(last, slots, old)
    slots = np.flatnonzero(last >= 0)
    slots = slots[~np.isnan(rate[last[slots]])]
    slots = slots[np.lexsort((first[slots], slots // ages.size))]
    c, value = slots // ages.size, rate[last[slots]]
    counts = np.bincount(c, minlength=n_curves)
    # the distinct nonzero counts (NumPy 2.4's np.unique without indices imports numpy.ma)
    for n in np.flatnonzero(np.bincount(counts)[1:]) + 1:
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


def ingest_mortality(records, basis: BSplineBasis, sexes=None) -> dict:
    """Build one coefficient panel per sex from mortality-rate records, for
    every sex or only those in ``sexes``.

    ``records`` are ``load_mortality_csv``'s columns or a list of
    (prefecture_id, year, sex, age, rate-or-None) tuples.  Rates for ages
    >= 95 are grouped by averaging, missing rates are filled with the
    previous age group's value, the log transform is applied, and every
    (prefecture, year) curve of a sex is projected onto ``basis`` by one
    ``project_curve`` call.  Of repeated records for one age, the last wins.
    A negative age in tuple records raises; ages above 110 join the 95+ group.
    Records may come in any order: ages below 95 index the curves directly,
    and only the runs of equal prefectures and years and the records of ages
    >= 95 are sorted.
    """
    cols = records if isinstance(records, MortalityRecords) else _as_records(records)
    design = basis.evaluate(AGE_GRID)
    space = basis.space()
    out = {}
    for s, sex in enumerate(cols.sexes):
        if sexes is not None and sex not in sexes:
            continue
        rows = cols.sex == s
        codes, p = _factorize(cols.pref[rows])
        years, y = _factorize(cols.year[rows])
        prefs = tuple(cols.prefectures[i] for i in codes)
        N, T = len(prefs), len(years)
        log_rates = _log_rate_curves(p * T + y, cols.age[rows], cols.rate[rows], N * T,
                                     lambda c: (sex, prefs[c // T], years[c % T]))
        panel = Panel([space] * N, project_curve(design, log_rates).reshape(N, T, basis.dim))
        out[sex] = MortalityData(panel, prefs, years, log_rates.reshape(N, T, GROUP_AGE + 1))
    return out
