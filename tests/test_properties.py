"""Property tests: invariances of the panel Gram spectrum, V(k), r-hat and the fit."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hdffm import IC1A, IC2A, Panel, common_component, fit_factors, goodness_of_fit, select_r_fixed
from conftest import ic, random_mixed_panel

panels = st.builds(
    lambda N, T, seed: random_mixed_panel(np.random.default_rng(seed), N=N, T=T),
    st.integers(1, 8), st.integers(2, 12), st.integers(0, 2**32 - 1),
)


def v_all(panel):
    return np.array([goodness_of_fit(panel, k) for k in range(min(panel.total_dim, panel.T) + 1)])


@settings(max_examples=25, deadline=None)
@given(panels, st.data())
def test_series_permutation_invariance(panel, data):
    perm = data.draw(st.permutations(range(panel.N)))
    permuted = Panel([panel.spaces[i] for i in perm], [panel.coeffs[i] for i in perm])
    vals, _, trace = panel.gram_spectrum()
    assert np.allclose(permuted.gram_spectrum()[0], vals, rtol=1e-10, atol=1e-12 * trace)
    assert np.allclose(v_all(permuted), v_all(panel), rtol=1e-10, atol=1e-12 * trace)


@settings(max_examples=25, deadline=None)
@given(panels, st.floats(0.01, 100.0), st.sampled_from([-1.0, 1.0]))
def test_v_scales_quadratically(panel, a, sign):
    a *= sign
    scaled = Panel.from_stacked(panel.spaces, a * panel.stacked_coeffs())
    trace = panel.gram_spectrum()[2]
    assert np.allclose(v_all(scaled), a * a * v_all(panel), rtol=1e-10, atol=1e-12 * a * a * trace)


@settings(max_examples=25, deadline=None)
@given(st.builds(lambda N, T, seed: random_mixed_panel(np.random.default_rng(seed), N=N, T=T),
                 st.integers(2, 8), st.integers(3, 12), st.integers(0, 2**32 - 1)),
       st.floats(0.0, 2.0), st.floats(0.01, 100.0), st.sampled_from([-1.0, 1.0]),
       st.sampled_from([IC1A, IC2A]), st.data())
def test_fixed_selection_invariances(panel, c, a, sign, kind, data):
    # r-hat = argmin_k V(k) + c k g(N, T) survives a series permutation, and
    # scaling the panel by a with c by a^2 (V scales by a^2)
    k_max = min(panel.total_dim, panel.T)
    best, second = np.sort([ic(panel, k, c, kind) for k in range(1, k_max + 1)])[:2]
    assume(second - best > 1e-9 * max(abs(best), abs(second)))
    r_hat = select_r_fixed(panel, c, kind, k_max)
    perm = data.draw(st.permutations(range(panel.N)))
    permuted = Panel([panel.spaces[i] for i in perm], [panel.coeffs[i] for i in perm])
    assert select_r_fixed(permuted, c, kind, k_max) == r_hat
    a *= sign
    scaled = Panel.from_stacked(panel.spaces, a * panel.stacked_coeffs())
    assert select_r_fixed(scaled, a * a * c, kind, k_max) == r_hat


def separated_k(panel, data, gap):
    """A drawn factor count k whose eigenvalues lambda_1..lambda_k stand more than
    ``gap`` x trace apart from each other and from lambda_{k+1}, so that the
    fit's rounding-level moves stay small."""
    vals, _, trace = panel.gram_spectrum()
    k = data.draw(st.integers(1, min(panel.total_dim, panel.T)))
    assume((-np.diff(np.append(vals, 0.0)[: k + 1]) > gap * trace).all())
    return k


def assert_close(got, want, scale, tol):
    assert np.allclose(got, want, rtol=tol, atol=tol * scale)


@settings(max_examples=25, deadline=None)
@given(panels, st.data())
def test_duplicated_panel(panel, data):
    # a panel stacked on a copy of itself has the same Gram <x_s, x_t> / N
    twice = Panel(panel.spaces * 2, list(panel.coeffs) * 2)
    vals, _, trace = panel.gram_spectrum()
    assert_close(twice.gram_spectrum()[0], vals, trace, 1e-10)
    k = separated_k(panel, data, 1e-6)
    fit, fit2 = fit_factors(panel, k), fit_factors(twice, k)
    assert_close(fit2.factors, fit.factors, 1.0, 1e-8)
    D, scale = panel.total_dim, np.abs(panel.stacked_coeffs()).max()
    chi, chi2 = (common_component(f).stacked_coeffs() for f in (fit, fit2))
    for copy in (slice(0, D), slice(D, 2 * D)):
        assert_close(fit2.e_hat[copy], fit.e_hat, np.abs(fit.e_hat).max(), 1e-8)
        assert_close(chi2[copy], chi, scale, 1e-8)
    # the two copies agree with each other to rounding
    assert_close(fit2.e_hat[D:], fit2.e_hat[:D], np.abs(fit2.e_hat).max(), 1e-12)
    assert_close(chi2[D:], chi2[:D], scale, 1e-12)


@settings(max_examples=25, deadline=None)
@given(panels, st.data())
def test_all_zero_series(panel, data):
    # an added all-zero series scales the Gram by N / (N + 1) and adds nothing else
    i = data.draw(st.integers(0, panel.N))
    space = data.draw(st.sampled_from(panel.spaces))
    padded = Panel(panel.spaces[:i] + (space,) + panel.spaces[i:],
                   [*panel.coeffs[:i], np.zeros((panel.T, space.dim)), *panel.coeffs[i:]])
    k = separated_k(panel, data, 1e-3)
    fit, fit0 = fit_factors(panel, k), fit_factors(padded, k)
    zero = slice(padded.offsets[i], padded.offsets[i + 1])
    chi, chi0 = (common_component(f).stacked_coeffs() for f in (fit, fit0))
    assert not fit0.e_hat[zero].any() and not fit0.b_tilde[zero].any()
    assert not chi0[zero].any()
    others = np.delete(chi0, np.arange(zero.start, zero.stop), axis=0)
    assert_close(others, chi, np.abs(panel.stacked_coeffs()).max(), 1e-12)
