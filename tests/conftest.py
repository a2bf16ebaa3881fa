import numpy as np
import pytest

from hdffm import Panel, functional_space, goodness_of_fit, penalty, scalar_space
from hdffm.simulate import _ar1_path


def random_spd(rng, d, scale=1.0):
    """Well-conditioned random symmetric positive-definite matrix."""
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T / d + np.eye(d))


def random_mixed_panel(rng, N=3, T=5, max_dim=4, identity_gram=False, scalar_prob=0.3):
    """Panel mixing scalar series and functional series with random Grams."""
    spaces, coeffs = [], []
    for _ in range(N):
        if rng.random() < scalar_prob:
            spaces.append(scalar_space())
        else:
            d = int(rng.integers(2, max_dim + 1))
            gram = None if identity_gram else random_spd(rng, d)
            spaces.append(functional_space(d, gram))
        coeffs.append(rng.standard_normal((T, spaces[-1].dim)))
    return Panel(spaces, coeffs)


def rank_k_panel(rng, N, T, k, dim=4):
    """Noiseless panel x_it = sum_l b_il u_lt in an orthonormal basis."""
    U = rng.standard_normal((k, T))
    B = rng.standard_normal((N, k, dim))
    spaces = [functional_space(dim) for _ in range(N)]
    coeffs = [U.T @ B[i] for i in range(N)]
    return Panel(spaces, coeffs), U, B


def ic(panel, k, c, kind):
    """The tuned criterion IC(c, k) = V(k) + c k g(N, T), term by term: the
    brute-force reference of fixed-c selection."""
    return goodness_of_fit(panel, k) + c * k * penalty(kind, panel.N, panel.T)


def ar_burn_in_draw(a, innov_sd, T, seed):
    """A seeded stationary Gaussian AR(1) path of length T: u_0 from the exact
    stationary law N(0, innov_sd^2 / (1 - a^2)), then u_t = a u_{t-1} + eps_t,
    on the recursion of ``gen_dgp``'s factor paths."""
    if not abs(a) < 1:
        raise ValueError("|a| must be < 1 for a stationary AR(1)")
    z = np.random.default_rng(seed).standard_normal(T)
    return _ar1_path(a, z, innov_sd, z[0] * innov_sd / np.sqrt(1.0 - a * a))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session", autouse=True)
def cache_home(tmp_path_factory):
    """Point XDG_CACHE_HOME, for the session and the processes it starts, at a
    fresh directory: the parsed-table cache starts empty, and no test writes
    the user's ~/.cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache_home")))
        yield
