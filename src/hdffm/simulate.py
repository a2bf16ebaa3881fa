"""Monte Carlo generators for the four benchmark panel designs.

Each panel is built in a 7-dimensional orthonormal basis per series.  Three
scalar factors follow independent Gaussian AR(1) processes with unit
stationary variance, loaded onto the first three basis directions through
per-series coefficient triples of unit Euclidean norm; the idiosyncratic
coefficient vectors are i.i.d. Gaussian with covariance c * E / trace(E).

The four designs differ only in the noise scale c and the orientation of E:

* DGP1: c=1, E = diag(1, 2^-2, ..., 7^-2)   (noise aligned with loadings)
* DGP2: c=1, E reversed                      (noise orthogonal to loadings)
* DGP3: c=7, E as DGP1
* DGP4: c=7, E reversed

Design quantities (AR coefficients, loading triples) depend only on
``fixed_design_seed`` and are shared across replications; factor paths and
noise depend on ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .panel import FUNCTIONAL, Panel, SpaceSpec


@dataclass(frozen=True)
class DgpConfig:
    dgp: int
    N: int
    T: int
    seed: int
    fixed_design_seed: int = 12345
    basis_dim: int = 7
    n_factors: int = 3
    target_opnorm: float = 0.8

    def __post_init__(self):
        if self.dgp not in (1, 2, 3, 4):
            raise ValueError("dgp must be in {1, 2, 3, 4}")
        if self.N < 1 or self.T < 2:
            raise ValueError("need N >= 1 and T >= 2")
        if self.basis_dim < self.n_factors:
            raise ValueError("basis_dim must be >= n_factors")
        if not 0.0 < self.target_opnorm < 1.0:
            raise ValueError("target_opnorm must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """True factors, loading coefficients, and common components of a draw."""

    U: np.ndarray  # (r, T)
    B_coeffs: np.ndarray  # (N, r, basis_dim)
    chi: Panel
    a: np.ndarray  # (r,) AR coefficients after rescaling


def noise_covariance(dgp: int, basis_dim: int = 7) -> tuple:
    """Idiosyncratic scale c and the diagonal of E for a given design."""
    decay = 1.0 / np.arange(1, basis_dim + 1) ** 2
    if dgp == 1:
        return 1.0, decay
    if dgp == 2:
        return 1.0, decay[::-1].copy()
    if dgp == 3:
        return 7.0, decay
    if dgp == 4:
        return 7.0, decay[::-1].copy()
    raise ValueError("dgp must be in {1, 2, 3, 4}")


def _ar1_path(a, z: np.ndarray, innov_sd, u0) -> np.ndarray:
    """AR(1) paths u_0 = ``u0``, u_t = a u_{t-1} + innov_sd * z_t (t >= 1) along the
    last axis of ``z``; ``a``, ``innov_sd`` and ``u0`` broadcast over the others."""
    x = z * np.asarray(innov_sd)[..., None]
    x[..., 0] = u0
    for t in range(1, z.shape[-1]):
        x[..., t] += a * x[..., t - 1]
    return x


def ar_burn_in_draw(a: float, innov_sd: float, T: int, seed: int) -> np.ndarray:
    """Sample a stationary Gaussian AR(1) path of length T.

    The initial value is drawn from the exact stationary law
    N(0, innov_sd^2 / (1 - a^2)); subsequent values follow
    u_t = a u_{t-1} + eps_t.  No pipeline path calls it; it stays public as
    the seeded AR(1) generator that the AR-BIC and forecast tests draw from,
    sharing its recursion with ``gen_dgp``'s factor paths.
    """
    if not abs(a) < 1:
        raise ValueError("|a| must be < 1 for a stationary AR(1)")
    z = np.random.default_rng(seed).standard_normal(T)
    return _ar1_path(a, z, innov_sd, z[0] * innov_sd / np.sqrt(1.0 - a * a))


def design_parameters(cfg: DgpConfig) -> tuple:
    """AR coefficients and loading matrix held fixed across replications.

    Draw order (from ``fixed_design_seed``): r uniforms on (-1, 1) for the
    raw AR coefficients, then N*r uniforms on [0, 1] row-major for the
    loading triples.  The raw AR coefficients are rescaled so that
    max_k |a_k| equals ``target_opnorm`` (the companion matrix of r
    independent AR(1) processes is diagonal, so its operator norm is
    max |a_k|); each loading row is rescaled to unit Euclidean norm.
    """
    rng = np.random.default_rng(cfg.fixed_design_seed)
    a_raw = rng.uniform(-1.0, 1.0, size=cfg.n_factors)
    # divide first so the largest coefficient is exactly +-target_opnorm
    a = (a_raw / np.abs(a_raw).max()) * cfg.target_opnorm
    b_raw = rng.uniform(0.0, 1.0, size=(cfg.N, cfg.n_factors))
    b = b_raw / np.linalg.norm(b_raw, axis=1, keepdims=True)
    return a, b


def gen_dgp(cfg: DgpConfig) -> tuple:
    """Generate one panel draw and its ground truth.

    Draw order (from ``seed``): r*T standard normals for the factor paths
    (row-major by factor), then N*T*basis_dim standard normals for the
    idiosyncratic coefficients.
    """
    a, b = design_parameters(cfg)
    c, E = noise_covariance(cfg.dgp, cfg.basis_dim)
    r, N, T, d = cfg.n_factors, cfg.N, cfg.T, cfg.basis_dim

    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((r, T))
    # innovation sd sqrt(1 - a^2) makes the stationary variance 1, so u_0 = z_0
    U = _ar1_path(a, z, np.sqrt(1.0 - a**2), z[:, 0])

    noise_sd = np.sqrt(c * E / E.sum())
    xi = rng.standard_normal((N, T, d)) * noise_sd

    chi = np.zeros((N, T, d))
    chi[:, :, :r] = b[:, None, :] * U.T[None, :, :]

    spaces = [SpaceSpec(FUNCTIONAL, d, np.eye(d))] * N
    panel = Panel(spaces, list(chi + xi))
    chi_panel = Panel(spaces, list(chi))

    B_coeffs = np.zeros((N, r, d))
    B_coeffs[:, np.arange(r), np.arange(r)] = b

    return panel, GroundTruth(U=U, B_coeffs=B_coeffs, chi=chi_panel, a=a)
