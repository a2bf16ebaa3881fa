import importlib.util
import os
import re
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.interpolate import BSpline
from scipy.optimize import minimize

from hdffm import (
    Panel,
    build_bspline,
    ingest_mortality,
    load_mortality_csv,
    project_curve,
)
from hdffm import fbasis
from hdffm.fbasis import AGE_GRID, GROUP_AGE


@pytest.fixture(scope="module")
def basis9():
    return build_bspline((0.0, 95.0), dim=9, order=4)


class TestBuildBspline:
    def test_reference_layout(self, basis9):
        assert basis9.dim == 9
        assert len(basis9.knots) == 9 + 4  # dim + order
        interior = basis9.knots[4:-4]
        assert len(interior) == 5
        assert np.allclose(np.diff(interior), interior[1] - interior[0])
        eigs = np.linalg.eigvalsh(basis9.gram)
        assert eigs.min() > 0

    def test_partition_of_unity(self, basis9):
        x = np.linspace(0.0, 95.0, 200)
        sums = basis9.evaluate(x).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-10

    def test_gram_matches_dense_quadrature(self, basis9):
        xs = np.linspace(0.0, 95.0, 96001)
        phi = basis9.evaluate(xs)
        for j in range(0, 9, 3):
            for k in range(j, 9, 2):
                dense = simpson(phi[:, j] * phi[:, k], x=xs)
                assert basis9.gram[j, k] == pytest.approx(dense, abs=1e-8, rel=1e-8)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_bspline((0.0, 1.0), dim=3, order=4)
        with pytest.raises(ValueError):
            build_bspline((1.0, 0.0), dim=6, order=4)
        with pytest.raises(ValueError, match="order must be >= 2"):
            build_bspline((0.0, 1.0), dim=6, order=1)

    @pytest.mark.parametrize("x", [[-0.5, 10.0], [95.0, 95.5]], ids=["below", "above"])
    def test_evaluate_outside_domain_rejected(self, basis9, x):
        with pytest.raises(ValueError, match=re.escape("points outside the basis domain [0.0, 95.0]")):
            basis9.evaluate(x)


def scipy_gram(basis):
    """build_bspline's Gram quadrature, on scipy's design matrices."""
    nodes, weights = np.polynomial.legendre.leggauss(basis.order)
    breaks = np.unique(basis.knots)
    gram = np.zeros((basis.dim, basis.dim))
    for u0, u1 in zip(breaks[:-1], breaks[1:]):
        half = 0.5 * (u1 - u0)
        w = half * weights
        phi = BSpline.design_matrix(half * nodes + 0.5 * (u0 + u1), basis.knots,
                                    basis.order - 1).toarray()
        gram += phi.T @ (w[:, None] * phi)
    return 0.5 * (gram + gram.T)


class TestDeBoorMatchesScipy:
    def test_design_and_gram_bitwise(self):
        rng = np.random.default_rng(0)
        points = [AGE_GRID, np.linspace(0.0, 95.0, 1001), np.sort(rng.uniform(0.0, 95.0, 500))]
        for order in range(2, 7):
            for dim in range(order, 16):  # dim == order: no interior knots
                basis = build_bspline((0.0, 95.0), dim=dim, order=order)
                for x in points:
                    want = BSpline.design_matrix(x, basis.knots, order - 1).toarray()
                    assert np.array_equal(basis.evaluate(x), want), (dim, order, x.size)
                assert np.array_equal(basis.gram, scipy_gram(basis)), (dim, order)


class TestProjectCurve:
    def test_constant_curve(self, basis9):
        grid = np.arange(96.0)
        coef = project_curve(basis9.evaluate(grid), np.full(96, 2.7))
        recon = basis9.evaluate(grid) @ coef
        assert np.abs(recon - 2.7).max() < 1e-10

    def test_basis_element(self, basis9):
        grid = np.arange(96.0)
        target = np.zeros(9)
        target[4] = 1.0
        coef = project_curve(basis9.evaluate(grid), basis9.evaluate(grid) @ target)
        assert np.abs(coef - target).max() < 1e-8

    def test_reproduces_splines_from_few_points(self, basis9, rng):
        # grid must cover every knot span for the design to have full rank
        true_coef = rng.standard_normal(9)
        grid = np.linspace(0.0, 95.0, 14) + np.concatenate(
            [[0.0], rng.uniform(-2, 2, 12), [0.0]]
        )
        coef = project_curve(basis9.evaluate(grid), basis9.evaluate(grid) @ true_coef)
        assert np.abs(coef - true_coef).max() < 1e-8

    def test_matches_multistart_optimizer(self, basis9, rng):
        grid = np.arange(96.0)
        smooth = np.sin(grid / 14.0) + 0.02 * grid
        design = basis9.evaluate(grid)
        coef = project_curve(design, smooth)

        def objective(c):
            r = smooth - design @ c
            return float(r @ r)

        best = None
        for _ in range(50):
            res = minimize(objective, rng.standard_normal(9), method="BFGS")
            if best is None or res.fun < best.fun:
                best = res
        assert objective(coef) <= best.fun + 1e-8
        assert np.abs(coef - best.x).max() < 1e-4

    def test_gram_consistency(self, basis9, rng):
        c = rng.standard_normal(9)
        xs = np.linspace(0.0, 95.0, 48001)
        vals = basis9.evaluate(xs) @ c
        dense = simpson(vals**2, x=xs)
        assert float(c @ basis9.gram @ c) == pytest.approx(dense, rel=1e-6)

    def test_too_few_points(self, basis9):
        with pytest.raises(ValueError, match="rank"):
            project_curve(basis9.evaluate(np.arange(5.0)), np.ones(5))

    def test_collinear_design(self, basis9):
        # nine points inside one knot span touch only four basis functions
        grid = np.linspace(1.0, 10.0, 9)
        with pytest.raises(ValueError, match="rank"):
            project_curve(basis9.evaluate(grid), np.ones(9))

    def test_one_curve_and_batched_match_lstsq(self, basis9, rng):
        grid = np.arange(96.0)
        design = basis9.evaluate(grid)
        curves = rng.standard_normal((5, 96)).cumsum(axis=1)
        batched = project_curve(design, curves)
        for curve, row in zip(curves, batched):
            coef = project_curve(design, curve)
            want = np.linalg.lstsq(design, curve, rcond=None)[0]
            scale = np.abs(want).max()
            assert np.abs(coef - want).max() <= 1e-13 * scale
            assert np.abs(row - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_rank_rule_is_gelsd(self, rng, factor):
        # the smallest singular value just under or over gelsd's cut-off
        m, n = 30, 4
        u, _ = np.linalg.qr(rng.standard_normal((m, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.array([1.0, 0.5, 0.25, factor * np.finfo(float).eps * m])
        design = (u * s) @ v.T
        rank = np.linalg.lstsq(design, np.ones(m), rcond=None)[2]
        assert rank == (n if factor > 1 else n - 1)
        if rank < n:
            with pytest.raises(ValueError, match="rank deficient"):
                project_curve(design, np.ones((3, m)))
        else:
            assert project_curve(design, np.ones((3, m))).shape == (3, n)


def synth_records(n_pref=3, years=(2000, 2001, 2002), sexes=("F",), rate_fn=None, missing=()):
    records = []
    for pref in range(n_pref):
        for year in years:
            for sex in sexes:
                for age in list(range(110)) + ["110+"]:
                    a = 110 if age == "110+" else age
                    if (pref, year, sex, a) in missing:
                        rate = None
                    elif rate_fn is not None:
                        rate = rate_fn(pref, year, sex, a)
                    else:
                        rate = 0.001 * np.exp(0.05 * min(a, 100))
                    records.append((str(pref), year, sex, a, rate))
    return records


class TestIngestMortality:
    def test_shapes(self, basis9):
        recs = synth_records(n_pref=4, years=tuple(range(1995, 2005)), sexes=("F", "M"))
        data = ingest_mortality(recs, basis9)
        assert set(data) == {"F", "M"}
        assert data["F"].panel.N == 4 and data["F"].panel.T == 10
        assert data["F"].log_rates.shape == (4, 10, 96)
        assert all(s.dim == 9 for s in data["F"].panel.spaces)

    def test_missing_filled_with_previous_age(self, basis9):
        recs = synth_records(missing={(0, 2000, "F", 40)})
        data = ingest_mortality(recs, basis9)
        lr = data["F"].log_rates
        assert lr[0, 0, 40] == lr[0, 0, 39]

    def test_old_age_grouping(self, basis9):
        m = 0.42
        recs = synth_records(rate_fn=lambda p, y, s, a: m if a >= 95 else 0.001 + 1e-5 * a)
        data = ingest_mortality(recs, basis9)
        assert np.allclose(data["F"].log_rates[:, :, 95], np.log(m))

    def test_missing_age_zero_errors(self, basis9):
        recs = synth_records(missing={(1, 2000, "F", 0)})
        with pytest.raises(ValueError, match="age 0"):
            ingest_mortality(recs, basis9)

    def test_nonpositive_rate_errors(self, basis9):
        recs = synth_records(rate_fn=lambda p, y, s, a: -0.1 if (p, a) == (0, 3) else 0.01)
        with pytest.raises(ValueError, match="nonpositive"):
            ingest_mortality(recs, basis9)

    def test_rank_deficient_design(self):
        # ages 0..95 meet only the first knot spans of a basis on 0..950
        wide = build_bspline((0.0, 950.0), dim=20, order=4)
        with pytest.raises(ValueError, match="rank deficient"):
            ingest_mortality(synth_records(), wide)

    def test_csv_round_trip(self, basis9, tmp_path):
        path = tmp_path / "mort.csv"
        lines = ["prefecture_id,year,sex,age,rate"]
        for pref, year, sex, age, rate in synth_records(missing={(0, 2001, "F", 17)}):
            a = "110+" if age == 110 else str(age)
            lines.append(f"{pref},{year},{sex},{a},{'' if rate is None else rate}")
        path.write_text("\n".join(lines))
        recs = load_mortality_csv(path)
        data = ingest_mortality(recs, basis9)
        assert data["F"].panel.N == 3
        assert data["F"].years == (2000, 2001, 2002)


def _preprocess_curve(rates: dict, key) -> np.ndarray:
    """Per-curve reference: ages 0..95 (95 = mean of all ages >= 95),
    forward-filled, log scale, one value at a time."""
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


def reference_ingest(records, basis) -> dict:
    """(log_rates, coefficients) per sex, one curve and one ``np.linalg.lstsq`` at a time."""
    by_key = defaultdict(dict)
    for pref, year, sex, age, rate in records:
        by_key[(sex, pref, year)][age] = rate
    design = basis.evaluate(AGE_GRID)
    out = {}
    for sex in sorted({sex for sex, _, _ in by_key}):
        prefs = sorted({p for s, p, _ in by_key if s == sex})
        years = sorted({y for s, _, y in by_key if s == sex})
        log_rates = np.empty((len(prefs), len(years), GROUP_AGE + 1))
        coeffs = np.empty((len(prefs), len(years), basis.dim))
        for i, pref in enumerate(prefs):
            for t, year in enumerate(years):
                key = (sex, pref, year)
                log_rates[i, t] = _preprocess_curve(by_key[key], key)
                coeffs[i, t] = np.linalg.lstsq(design, log_rates[i, t], rcond=None)[0]
        out[sex] = log_rates, coeffs
    return out


def assert_ingest_matches(got, want, basis):
    """Log rates bitwise; coefficients bitwise those of one batched projection of
    all the reference log rates, and within 1e-13 of each curve's own lstsq,
    relative to that curve's largest coefficient."""
    assert set(got) == set(want)
    for sex, (log_rates, coeffs) in want.items():
        assert np.array_equal(got[sex].log_rates, log_rates)
        batched = project_curve(basis.evaluate(AGE_GRID), log_rates.reshape(-1, GROUP_AGE + 1))
        stacked = np.stack(got[sex].panel.coeffs)
        assert np.array_equal(stacked, batched.reshape(coeffs.shape))
        scale = np.abs(coeffs).max(axis=-1, keepdims=True)
        assert (np.abs(stacked - coeffs) <= 1e-13 * scale).all()


class TestIngestMatchesPerCurveReference:
    @pytest.fixture(scope="class")
    def records(self):
        rng = np.random.default_rng(7)
        missing = {(p, y, s, a) for p in range(3) for y in (2000, 2001, 2002) for s in ("F", "M")
                   for a in range(1, 111) if rng.random() < 0.05}
        missing |= {(1, 2001, "M", a) for a in range(95, 111)}  # a whole 95+ group
        missing |= {(2, 2000, "F", a) for a in (95, 96, 103, 110)}
        recs = synth_records(
            years=(2000, 2001, 2002), sexes=("F", "M"), missing=missing,
            rate_fn=lambda p, y, s, a: float(np.exp(-7.0 + 0.07 * a + rng.normal(0, 0.1))),
        )
        recs += [("0", 2000, "F", age, 0.5 + 0.01 * age) for age in (112, 115, 120)]
        recs += [("1", 2002, "M", 111, 0.9)]  # the loader's "110+"
        # repeats of a mid-curve age, a 95+ age and one as missing: the later record wins
        recs += [("2", 2001, "F", 40, 0.02), ("0", 2002, "M", 100, 0.7),
                 ("2", 2002, "M", 30, None)]
        return [recs[i] for i in rng.permutation(len(recs))]

    def test_bitwise_equal(self, basis9, records):
        want = reference_ingest(records, basis9)
        got = ingest_mortality(records, basis9)
        assert set(got) == {"F", "M"}
        assert_ingest_matches(got, want, basis9)
        for sex, md in got.items():
            ref = Panel([basis9.space()] * md.panel.N, list(md.panel.coeffs))
            # the layout sets the summation order of every later reduction
            assert md.panel.stacked_coeffs().strides == ref.stacked_coeffs().strides


class TestIngestErrors:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_rate_names_key_and_age(self, basis9, bad):
        recs = synth_records(rate_fn=lambda p, y, s, a: bad if (p, y, a) == (1, 2001, 37) else 0.01)
        with pytest.raises(ValueError, match=r"\('F', '1', 2001\): rate must be finite, "
                                             rf"got {bad!r} at age 37"):
            ingest_mortality(recs, basis9)

    def test_negative_age_names_key(self, basis9):
        # ages above 110 stay valid here (TestIngestMatchesPerCurveReference)
        recs = synth_records() + [("1", 2001, "F", -4, 0.5)]
        with pytest.raises(ValueError, match=re.escape("('F', '1', 2001): age must be >= 0, got -4")):
            ingest_mortality(recs, basis9)

    def test_missing_curve(self, basis9):
        recs = [r for r in synth_records() if (r[0], r[1]) != ("2", 2001)]
        with pytest.raises(ValueError, match=r"missing curve for \('F', '2', 2001\)"):
            ingest_mortality(recs, basis9)

    def test_first_bad_curve_and_age_reported(self, basis9):
        # curve ('F', '0', 2002) sorts before ('F', '1', 2000); its age 0 is missing
        recs = synth_records(missing={(0, 2002, "F", 0)},
                             rate_fn=lambda p, y, s, a: -1.0 if (p, a) == (1, 60) else 0.01)
        with pytest.raises(ValueError, match=r"\('F', '0', 2002\): rate at age 0 is missing"):
            ingest_mortality(recs, basis9)
        recs = synth_records(rate_fn=lambda p, y, s, a: -1.0 if (p, a) in ((1, 60), (1, 70)) else 0.01)
        with pytest.raises(ValueError, match=r"\('F', '1', 2000\): nonpositive rate -1.0 at age 60"):
            ingest_mortality(recs, basis9)


class TestIngestOldAgeMean:
    def test_every_count_of_old_ages(self, basis9):
        # curve p gives p + 1 of the ages 95..111, in shuffled order: the 95+ mean
        # sums them in the order they first appear, for every count
        rng = np.random.default_rng(11)
        recs = []
        for p in range(17):
            for year in (2000, 2001):
                recs += [(str(p), year, "F", age, 0.001 + 1e-4 * age) for age in range(GROUP_AGE)]
                recs += [(str(p), year, "F", int(age), float(rng.uniform(0.1, 0.9)))
                         for age in rng.permutation(np.arange(95, 112))[: p + 1]]
        recs += [("16", 2000, "F", 100, 0.5), ("3", 2001, "F", 111, None)]  # repeats: the last wins
        recs = [recs[i] for i in rng.permutation(len(recs))]
        want = reference_ingest(recs, basis9)
        assert_ingest_matches(ingest_mortality(recs, basis9), want, basis9)


def assert_same_records(a, b):
    assert (a.prefectures, a.sexes) == (b.prefectures, b.sexes)
    for name in ("pref", "year", "sex", "age", "rate"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True), name


def line_loader(path):
    return fbasis._as_records(fbasis._read_csv_rows(path))


HEADER = "prefecture_id,year,sex,age,rate"
# 110+, empty rates, a repeated key (empty, then given) and ids sorting "10" < "9"
ROWS = ["9,1975,F,0,0.0123", "9,1975,F,1,", "9,1975,F,110+,0.5", "9,1975,F,1,4e-3",
        "10,1976,M,0,1E-3", "10,1975,M,2,.25", "01,1975,F,0,0.01"]
LOADER_CORPUS = {  # name: (file text, read a column at a time)
    "header": (HEADER + "\n" + "\n".join(ROWS) + "\n", True),
    "no_header": ("\n".join(ROWS), True),
    "crlf": (HEADER + "\r\n" + "\r\n".join(ROWS) + "\r\n", True),
    "blank_lines": (HEADER + "\n\n" + "\n\n".join(ROWS) + "\n\n", True),
    "comment_rows": ("# note\n" + HEADER + "\n#9,1975,F,3,0.1\n" + "\n".join(ROWS), False),
    "padded_fields": (HEADER + "\n 9 , 1975 ,F, 3 , 0.01 \n" + "\n".join(ROWS), False),
    "quoted_fields": (HEADER + '\n"9","1975","F","3","0.01"\n' + "\n".join(ROWS), False),
    "extra_columns": (HEADER + ",note\n" + "\n".join(r + ",x" for r in ROWS), False),
    "long_prefecture": ("a" * 20 + ",1975,F,0,0.01\n" + "\n".join(ROWS), False),
    # the line reader skips any row whose first field is a header word
    "header_word_row": ("\n".join(ROWS) + "\nPrefecture,1975,F,3,0.5\n", False),
    "signed_years": ("\n".join(ROWS) + "\n9,+1975,F,3,0.5\n9,-1975,F,4,0.5\n", True),
}


class TestPlainLoader:
    @pytest.mark.parametrize("name", sorted(LOADER_CORPUS))
    def test_matches_line_loader(self, tmp_path, name):
        text, plain = LOADER_CORPUS[name]
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        assert (fbasis._load_plain_csv(path) is not None) == plain
        assert_same_records(load_mortality_csv(path), line_loader(path))

    @pytest.mark.parametrize("header", [True, False], ids=["header", "no-header"])
    def test_byte_order_mark_skipped(self, tmp_path, header):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        text = (f"{HEADER}\n" if header else "") + "01,1975,F,0,0.01\n01,1975,M,1,0.02\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert fbasis._load_plain_csv(bom) is not None  # the column reader takes it
        assert_same_records(load_mortality_csv(bom), load_mortality_csv(plain))

    @pytest.mark.parametrize("row, message", [
        ("01,1975,F,0,abc", "line 3: could not convert string to float: 'abc'"),
        ("01,1975,F,0,inf", "line 3: rate must be finite, got 'inf'"),
        ("01,1975,F,0,-inf", "line 3: rate must be finite, got '-inf'"),
        ("01,1975,F,0,nan", "line 3: rate must be finite, got 'nan'"),  # not a missing rate
        ("01,1975,F,0,1e999", "line 3: rate must be finite, got '1e999'"),
        ("01,1975,F,x5,0.01", "line 3: invalid literal for int() with base 10: 'x5'"),
        ("01,19x5,F,0,0.01", "line 3: invalid literal for int() with base 10: '19x5'"),
        ("01,19_75,F,0,0.01", "line 3: year must be an integer of ASCII digits, got '19_75'"),
        ("01,\u0661\u0669\u0667\u0665,F,0,0.01", "line 3: year must be an integer of ASCII digits"),
        ("01,1975,F,0", "line 3: expected 5 columns (prefecture_id, year, sex, age, rate), got 4"),
        ("01,99999999999999999999,F,0,0.01", "year or age out of range"),
        ("01,1975,F,x+,0.01", "line 3: invalid literal for int() with base 10: 'x+'"),
        ("01,1975,F,95+,0.01", "line 3: invalid literal for int() with base 10: '95+'"),
        ("01,1975,F,111,0.01", "line 3: age must be 0..110 or '110+', got '111'"),
        ("01,1975,F,500,0.01", "line 3: age must be 0..110 or '110+', got '500'"),
        ("01,1975,F,-4,0.01", "line 3: age must be 0..110 or '110+', got '-4'"),
        ("01,1975,F,+5,0.01", "line 3: age must be 0..110 or '110+', got '+5'"),
    ])
    def test_bad_field_named_either_way(self, tmp_path, row, message):
        path = tmp_path / "m.csv"
        path.write_text(f"{HEADER}\n01,1975,F,1,0.01\n{row}\n01,1975,F,2,0.01\n")
        assert fbasis._load_plain_csv(path) is None
        for load in (load_mortality_csv, line_loader):
            with pytest.raises(ValueError, match=re.escape(message)):
                load(path)


def load_perfbench_tables():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "mortality_csv.py")
    spec = importlib.util.spec_from_file_location("perfbench_mortality_csv", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfbenchTables:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_loaders_and_ingest_match_references(self, tmp_path, basis9, seed):
        # the benchmark's generator and seeds, 8 of its 47 prefectures
        path = tmp_path / "m.csv"
        load_perfbench_tables().write_csv(path, seed, n_pref=8)
        records = fbasis._load_plain_csv(path)
        rows = fbasis._read_csv_rows(path)
        assert_same_records(records, fbasis._as_records(rows))
        want = reference_ingest(rows, basis9)
        assert_ingest_matches(ingest_mortality(records, basis9), want, basis9)

    def test_shuffled_rows(self, tmp_path, basis9):
        # the loader and ingest take any row order; the 95+ means then sum
        # each curve's ages in their new order of appearance
        path = tmp_path / "m.csv"
        load_perfbench_tables().write_csv(path, 1, n_pref=8)
        header, *lines = path.read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(lines))
        path.write_text("\n".join([header] + [lines[i] for i in order]) + "\n")
        records = fbasis._load_plain_csv(path)
        assert records is not None
        rows = fbasis._read_csv_rows(path)
        assert_same_records(records, fbasis._as_records(rows))
        want = reference_ingest(rows, basis9)
        assert_ingest_matches(ingest_mortality(records, basis9), want, basis9)

    def test_load_memory_is_linear_in_records(self, tmp_path):
        # no whole-table copy of the parsed text outlives its use, and the
        # records own their arrays, so the parsed table is freed on return
        path = tmp_path / "m.csv"
        load_perfbench_tables().write_csv(path, 1, n_pref=8)
        tracemalloc.start()
        try:
            records = load_mortality_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [getattr(records, name) for name in ("pref", "year", "sex", "age", "rate")]
        assert all(a.flags.owndata for a in arrays)
        assert peak <= 4 * sum(a.nbytes for a in arrays)
