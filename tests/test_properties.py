"""Property tests: invariances of the panel Gram spectrum and V(k)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hdffm import Panel, goodness_of_fit
from conftest import random_mixed_panel

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
