"""The panel Gram, V(k) and fixed-c selection against the plain-loop
references of ``reference.py`` on random mixed panels."""

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference
from hdffm import Panel, functional_space, scalar_space, select_r_fixed
from hdffm.estimate import v_profile
from hdffm.panel import gram_matrix
from hdffm.select import C_GRID

# relative tolerance: of the Gram and its eigenvalues to the largest
# eigenvalue, of V(k) and of the IC margins to V(0)
TOL = 1e-12
K_MAX = 10


def mixed_panel(N, T, seed):
    """About 40% scalar series and the rest functional, of dimension 3..7 with
    random SPD Grams, loading 1..4 common factors plus noise."""
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((T, int(rng.integers(1, 5))))
    spaces, coeffs = [], []
    for _ in range(N):
        if rng.random() < 0.4:
            spaces.append(scalar_space())
        else:
            d = int(rng.integers(3, 8))
            A = rng.standard_normal((d, d))
            spaces.append(functional_space(d, A @ A.T / d + np.eye(d)))
        d = spaces[-1].dim
        coeffs.append(U @ rng.standard_normal((U.shape[1], d)) + 0.5 * rng.standard_normal((T, d)))
    return Panel(spaces, coeffs)


@settings(max_examples=30, deadline=None)
@given(st.builds(mixed_panel, st.integers(10, 39), st.integers(30, 119),
                 st.integers(0, 2**32 - 1)))
def test_gram_v_and_fixed_c_selection_match_the_reference(panel):
    F, ref_vals = gram_matrix(panel), reference.eigenvalues(panel)
    assert np.array_equal(F, F.T)  # formed symmetric, with no symmetrising pass
    assert np.abs(F - reference.gram(panel)).max() <= TOL * ref_vals[0]
    vals, _, trace = panel.gram_spectrum()
    assert np.abs(vals[:10] - ref_vals[:10]).max() <= TOL * ref_vals[0]
    ref_v = reference.v_of_k(panel, K_MAX)
    assert np.abs(v_profile(vals, trace, panel.T, K_MAX) - ref_v).max() <= TOL * ref_v[0]

    criteria = reference.ic2a_criteria(panel, C_GRID, K_MAX)
    best_two = np.sort(criteria, axis=1)[:, :2]
    near = C_GRID[best_two[:, 1] - best_two[:, 0] < TOL * ref_v[0]]
    event(f"grid points with an IC margin below the tolerance: {near.size}")
    r_hat = [select_r_fixed(panel, float(c), "IC2a", K_MAX) for c in C_GRID]
    assert r_hat == reference.ic2a_r_hat(criteria).tolist(), (
        f"IC margin below the tolerance at c = {near.tolist()}")
