import json
import tracemalloc

import numpy as np
import pytest

from hdffm import (
    ForecastConfig,
    Panel,
    SpaceSpec,
    build_bspline,
    center,
    cf_forecast,
    fit_factors,
    functional_space,
    gram_matrix,
    idiosyncratic_residual,
    load_panel,
    load_scalar_csv,
    save_panel,
    scalar_space,
    tnh_forecast,
)
from hdffm.files import panel_from_dict, panel_to_dict
from hdffm.panel import _CHUNK_BYTES, block_offsets, split_stacked, stack_runs, whiten_stacked
from conftest import random_mixed_panel, random_spd


def brute_force_inner(panel, s, t):
    total = 0.0
    for spec, block in zip(panel.spaces, panel.coeffs):
        d = spec.dim
        for j in range(d):
            for k in range(d):
                total += block[s, j] * spec.gram[j, k] * block[t, k]
    return total


class TestSpaceSpec:
    def test_scalar(self):
        s = scalar_space()
        assert s.dim == 1 and s.gram[0, 0] == 1.0

    def test_scalar_requires_unit_gram(self):
        with pytest.raises(ValueError):
            SpaceSpec("scalar", 1, np.array([[2.0]]))

    def test_asymmetric_gram_rejected(self):
        g = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            functional_space(2, g)

    def test_indefinite_gram_rejected(self):
        g = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive definite"):
            functional_space(2, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gram_rejected(self, bad):
        # before the symmetry check, whose subtraction would warn on inf
        g = np.array([[1.0, 0.0], [0.0, bad]])
        with pytest.raises(ValueError, match="gram matrix has a non-finite entry"):
            functional_space(2, g)


class TestGramMatrix:
    def test_zero_panel(self):
        p = Panel([functional_space(2)], [np.zeros((3, 2))])
        assert np.all(gram_matrix(p) == 0.0)

    def test_scalar_outer_product(self):
        p = Panel([scalar_space()], [np.array([[1.0], [2.0]])])
        assert np.allclose(gram_matrix(p), [[1.0, 2.0], [2.0, 4.0]])

    def test_matches_entrywise_brute_force(self, rng):
        p = random_mixed_panel(rng, N=4, T=5)
        F = gram_matrix(p)
        for s in range(p.T):
            for t in range(p.T):
                assert F[s, t] == pytest.approx(
                    brute_force_inner(p, s, t) / p.N, abs=1e-12, rel=1e-11
                )

    def test_psd(self, rng):
        for _ in range(10):
            p = random_mixed_panel(rng, N=5, T=8)
            F = gram_matrix(p)
            assert np.linalg.eigvalsh(F).min() >= -1e-10 * np.trace(F)


class TestCenter:
    def test_already_centered_unchanged(self, rng):
        p = random_mixed_panel(rng, N=3, T=7)
        centered, _ = center(p)
        again, means = center(centered)
        for a, b in zip(centered.coeffs, again.coeffs):
            assert np.allclose(a, b, atol=1e-12)
        assert isinstance(means, tuple) and len(means) == p.N
        for m in means:
            assert np.abs(m).max() < 1e-12

    def test_constant_series(self):
        c = np.full((5, 2), 3.5)
        p = Panel([functional_space(2)], [c])
        centered, means = center(p)
        assert np.abs(centered.coeffs[0]).max() == 0.0
        assert np.allclose(means[0], [3.5, 3.5])

    def test_round_trip(self, rng):
        p = random_mixed_panel(rng, N=4, T=6)
        centered, means = center(p)
        back = Panel.from_stacked(p.spaces, centered.stacked_coeffs() + np.concatenate(means)[:, None])
        for a, b in zip(p.coeffs, back.coeffs):
            assert np.allclose(a, b, atol=1e-14)

    def test_time_average_zero(self, rng):
        p = random_mixed_panel(rng, N=4, T=9)
        centered, _ = center(p)
        for block in centered.coeffs:
            assert np.abs(block.mean(axis=0)).max() < 1e-12


class TestBasisInvariance:
    def test_invertible_change_of_basis(self, rng):
        p = random_mixed_panel(rng, N=4, T=6)
        F = gram_matrix(p)
        spaces, coeffs = [], []
        for spec, block in zip(p.spaces, p.coeffs):
            if spec.kind == "scalar":
                spaces.append(spec)
                coeffs.append(block)
                continue
            M = random_spd(rng, spec.dim) @ (np.eye(spec.dim) + 0.1 * rng.standard_normal((spec.dim, spec.dim)))
            spaces.append(functional_space(spec.dim, M.T @ spec.gram @ M))
            coeffs.append(np.linalg.solve(M, block.T).T)
        q = Panel(spaces, coeffs)
        assert np.allclose(gram_matrix(q), F, atol=1e-10, rtol=1e-8)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Panel([functional_space(2)], [np.zeros((4, 3))])

    def test_short_time(self):
        with pytest.raises(ValueError):
            Panel([scalar_space()], [np.zeros((1, 1))])

    def test_no_series(self):
        with pytest.raises(ValueError, match="at least one series"):
            Panel([], [])

    def test_ragged_time(self):
        with pytest.raises(ValueError):
            Panel(
                [scalar_space(), scalar_space()],
                [np.zeros((4, 1)), np.zeros((5, 1))],
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        coeffs = [np.zeros((5, 1)), np.zeros((5, 3))]
        coeffs[1][3, 2] = bad
        with pytest.raises(ValueError, match="series 1: non-finite coefficient at time 3"):
            Panel([scalar_space(), functional_space(3)], coeffs)


def three_builds(spaces, blocks):
    """The same coefficients through the blocks constructor and through
    ``from_stacked`` of a row-major and of a column-major stacked matrix."""
    X = np.ascontiguousarray(np.concatenate([np.asarray(b).T for b in blocks]))
    return [Panel(spaces, blocks), Panel.from_stacked(spaces, X),
            Panel.from_stacked(spaces, np.asfortranarray(X))]


def same_bits(arrays_a, arrays_b):
    return [a.tobytes() for a in arrays_a] == [b.tobytes() for b in arrays_b]


def peak_bytes(fn, *args):
    """(result, peak bytes allocated while ``fn(*args)`` ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mixed_spaces(rng, kind):
    if kind == "functional":
        return [functional_space(4, random_spd(rng, 4)) for _ in range(6)]
    return [scalar_space(), functional_space(3, random_spd(rng, 3)),
            scalar_space(), functional_space(5), scalar_space()]


class TestStackedLayout:
    @pytest.mark.parametrize("kind", ["functional", "scalar", "mixed"])
    def test_constructors_agree_bitwise(self, rng, kind):
        T = 30
        if kind == "functional":
            spaces = [functional_space(4, random_spd(rng, 4)) for _ in range(6)]
        elif kind == "scalar":
            spaces = [scalar_space()] * 6
        else:
            spaces = [scalar_space(), functional_space(3, random_spd(rng, 3)),
                      scalar_space(), functional_space(5), scalar_space()]
        blocks = [rng.standard_normal((T, s.dim)) + rng.uniform(-3, 3) for s in spaces]
        first, *others = three_builds(spaces, blocks)
        X = first.stacked_coeffs()
        assert X.flags.f_contiguous
        ref_means = center(first)[1]
        ref_spectrum = first.gram_spectrum()
        for panel in others:
            Y = panel.stacked_coeffs()
            assert Y.strides == X.strides and Y.tobytes("A") == X.tobytes("A")
            assert same_bits(center(panel)[1], ref_means)
            assert same_bits(panel.gram_spectrum()[:2], ref_spectrum[:2])
            assert panel.gram_spectrum()[2] == ref_spectrum[2]

    @pytest.mark.parametrize("kind", ["functional", "mixed"])
    def test_derived_panels_keep_values_and_layout(self, rng, kind):
        T = 2000
        spaces = mixed_spaces(rng, kind)
        panel = Panel(spaces, [rng.standard_normal((T, s.dim)) + 2.0 for s in spaces])
        X = panel.stacked_coeffs()
        (centered, _), peak = peak_bytes(center, panel)
        want = Panel.from_stacked(spaces, X - X.mean(axis=1)[:, None]).stacked_coeffs()
        C = centered.stacked_coeffs()
        assert C.strides == want.strides and C.tobytes("A") == want.tobytes("A")
        assert peak < 1.5 * C.nbytes  # the difference itself becomes the panel's matrix
        fit = fit_factors(centered, 2)
        xi = idiosyncratic_residual(centered, fit).stacked_coeffs()
        want = Panel.from_stacked(spaces, C - fit.b_tilde @ fit.factors).stacked_coeffs()
        assert xi.strides == want.strides and xi.tobytes("A") == want.tobytes("A")

    @pytest.mark.parametrize("kind", ["functional", "mixed"])
    def test_fortran_blocks_copied_once(self, rng, kind):
        T = 2000
        spaces = mixed_spaces(rng, kind)
        blocks = [np.asfortranarray(rng.standard_normal((T, s.dim))) for s in spaces]
        panel, peak = peak_bytes(Panel, spaces, blocks)
        X = panel.stacked_coeffs()
        want = Panel(spaces, [np.ascontiguousarray(b) for b in blocks]).stacked_coeffs()
        assert X.strides == want.strides and X.tobytes("A") == want.tobytes("A")
        assert peak < 1.5 * X.nbytes  # the concatenation itself becomes the panel's matrix

    def test_forecasts_agree_bitwise_on_a_mortality_sized_panel(self):
        # 47 series, 40 years, a 9-dim B-spline basis on ages 0..95
        rng = np.random.default_rng(7)
        N, T = 47, 40
        space = build_bspline((0.0, 95.0), dim=9).space()
        level = np.linspace(-8.0, -1.0, 9)
        trend = np.cumsum(rng.standard_normal((T, 9)) * 0.05, axis=0)
        blocks = [level + trend * rng.uniform(0.5, 1.5) + 0.02 * rng.standard_normal((T, 9))
                  for _ in range(N)]
        builds = three_builds([space] * N, blocks)
        tnh = [tnh_forecast(p, ForecastConfig(horizon=3, fixed_r=2)).steps for p in builds]
        cf = [cf_forecast(p, 3, 6).steps for p in builds]
        for steps in tnh[1:]:
            assert same_bits(steps, tnh[0])
        for steps in cf[1:]:
            assert same_bits(steps, cf[0])


def per_series_whiten(spaces, stacked, inverse=False):
    """Reference: one product (solve) per series with a non-identity Gram."""
    out = []
    for spec, block in zip(spaces, split_stacked(block_offsets(spaces), stacked)):
        rows = block.T
        if not spec.is_identity_gram:
            rows = np.linalg.solve(spec.chol.T, rows) if inverse else spec.chol.T @ rows
        out.append(rows)
    return np.concatenate(out, axis=0)


class TestStackRuns:
    def test_runs_of_equal_keys(self):
        assert stack_runs([2, 2, 3, 2, 2, 2], lambda k: 8) == [(0, 2), (2, 3), (3, 6)]
        assert stack_runs([], lambda k: 8) == []

    def test_cut_to_the_byte_budget(self):
        # 3 items of a third of the budget fit; a larger item goes alone
        third = _CHUNK_BYTES // 3
        assert stack_runs(["a"] * 7, lambda k: third) == [(0, 3), (3, 6), (6, 7)]
        assert stack_runs(["a"] * 2, lambda k: 2 * _CHUNK_BYTES) == [(0, 1), (1, 2)]

    def test_items_of_no_bytes(self):
        n = _CHUNK_BYTES + 2
        assert stack_runs(["a"] * n, lambda k: 0) == [(0, _CHUNK_BYTES), (_CHUNK_BYTES, n)]


class TestWhitenRuns:
    def spaces(self, rng):
        """Runs of one Gram broken by another Gram, by identity Grams and by a
        dimension change; the Gram g3 is also held in a distinct equal spec."""
        g3, g3b = random_spd(rng, 3), random_spd(rng, 3)
        a, b = functional_space(3, g3), functional_space(3, g3b)
        return [scalar_space(), scalar_space(), a, a, a, b, a, functional_space(3, g3.copy()), a,
                functional_space(3), functional_space(3), scalar_space(), a,
                functional_space(4, random_spd(rng, 4)), b, b]

    @pytest.mark.parametrize("m", [0, 1, 3, 40])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_per_series(self, rng, m, inverse, order):
        spaces = self.spaces(rng)
        stacked = np.asarray(rng.standard_normal((block_offsets(spaces)[-1], m)), order=order)
        got = whiten_stacked(spaces, stacked, inverse=inverse)
        want = per_series_whiten(spaces, stacked, inverse=inverse)
        assert got.flags.c_contiguous
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_one_solve_per_run(self, rng, monkeypatch):
        # runs: [a a a] [b] [a a(equal, distinct) a] [b b], and the 4-dim series
        spaces = self.spaces(rng)
        solve, calls = np.linalg.solve, []

        def counting(a, b):
            calls.append(b.shape[:-2])
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        whiten_stacked(spaces, rng.standard_normal((block_offsets(spaces)[-1], 5)), inverse=True)
        assert calls == [(3,), (1,), (3,), (1,), (1,), (2,)]

    def test_mixed_panel_whitened_bitwise(self, rng):
        for _ in range(10):
            panel = random_mixed_panel(rng, N=12, T=20, scalar_prob=0.4)
            want = per_series_whiten(panel.spaces, panel.stacked_coeffs())
            assert panel.stacked_white().tobytes() == np.ascontiguousarray(want).tobytes()


class TestPersistence:
    def test_json_round_trip(self, rng, tmp_path):
        p = random_mixed_panel(rng, N=4, T=5)
        path = tmp_path / "panel.json"
        save_panel(p, path, manifest={"note": "test"})
        q = load_panel(path)
        assert q.N == p.N and q.T == p.T
        for a, b in zip(p.coeffs, q.coeffs):
            assert np.allclose(a, b, atol=1e-15)
        for sa, sb in zip(p.spaces, q.spaces):
            assert sa.matches(sb)

    def test_identity_gram_omitted(self, rng):
        p = random_mixed_panel(rng, identity_gram=True)
        doc = panel_to_dict(p)
        assert all("gram" not in s for s in doc["spaces"])
        q = panel_from_dict(doc)
        assert all(s.is_identity_gram for s in q.spaces)

    def test_integer_coefficients_read_as_numbers(self):
        # JSON integers, also beyond 64 bits, are numbers like any other
        doc = {"N": 1, "T": 3, "spaces": [{"kind": "functional", "dim": 2}],
               "coeffs": [[[1, 2], [3, 10**30], [0.5, -2**64]]]}
        q = panel_from_dict(json.loads(json.dumps(doc)))
        assert q.coeffs[0].tolist() == [[1.0, 2.0], [3.0, 1e30], [0.5, -2.0**64]]

    def test_header_mismatch_rejected(self, rng):
        doc = panel_to_dict(random_mixed_panel(rng))
        doc["N"] += 1
        with pytest.raises(ValueError):
            panel_from_dict(doc)

    def test_scalar_csv(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
        p = load_scalar_csv(path)
        assert p.N == 2 and p.T == 3
        assert p.coeffs[1][2, 0] == 6.0
