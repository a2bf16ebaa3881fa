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
noise depend on ``seed``.  ``run_grid`` runs a Monte Carlo grid of such
draws on a pool of worker processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .estimate import _check_k
from .panel import FUNCTIONAL, Panel, SpaceSpec
from .select import AbcConfig, _check_selection, thread_cap


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
            raise ValueError(f"dgp must be in {{1, 2, 3, 4}}, got {self.dgp}")
        if self.N < 1 or self.T < 2:
            raise ValueError("need N >= 1 and T >= 2")
        for name in ("seed", "fixed_design_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_factors < 1:
            raise ValueError(f"n_factors must be >= 1, got {self.n_factors}")
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


def _cap_threads(threads: int) -> None:
    """Pool initializer of ``run_grid``: the selection threads of one worker."""
    os.environ["HDFFM_THREADS"] = str(threads)


def run_grid(cells, k_list, reps: int, select, replicate) -> tuple:
    """Run ``reps`` replications of every config in ``cells``.

    Replication rep of a cell draws its panel from the cell's seed + rep and,
    when ``select`` (the settings method, c, kind, k_max, P and seed of a
    selection, or None for none) has a seed, selects from select seed + rep.
    ``replicate((cfg, rep, k_list, select))`` runs one replication; it must be
    picklable by name.  It returns one row per k of ``k_list``, each starting
    (dgp, N, T, k, rep), and the selection row (dgp, N, T, rep, r-hat) or None.

    Before any replication runs, every cell is checked as its replications
    would check it: each k against the rank bound min(N * basis_dim, T), then
    everything the selection checks (``select._check_selection``, with the
    settings' c or ``AbcConfig``); a failure names the cell.  The
    replications run on w = min(cap, jobs) worker processes under the cap
    ``thread_cap()``, each worker's selection on cap // w threads; one worker
    runs them in this process.  Returns the rows sorted by (dgp, N, T,
    rep, k), the sorted selection rows and (w, cap // w).  The rows do not
    depend on the cap.
    """
    if not (cells and k_list) or reps < 1:
        raise ValueError("a grid needs a cell, a k and replications >= 1")
    for cell in cells:
        try:
            for k in k_list:
                _check_k(k, min(cell.N * cell.basis_dim, cell.T))
            if select is not None:
                tuning = select["c"] if select["method"] == "fixed" else AbcConfig(
                    select["k_max"], select["P"], select["seed"])
                _check_selection((cell.basis_dim,) * cell.N, cell.T, select["kind"],
                                 select["k_max"], tuning)
        except ValueError as exc:
            raise ValueError(f"cell dgp={cell.dgp} N={cell.N} T={cell.T}: {exc}") from None
    rep_selects = [select if select is None or select["seed"] is None
                   else {**select, "seed": select["seed"] + rep} for rep in range(reps)]
    jobs = [(replace(cell, seed=cell.seed + rep), rep, k_list, rep_selects[rep])
            for cell in cells for rep in range(reps)]
    cap = thread_cap()
    workers = min(cap, len(jobs))
    threads = cap // workers
    if workers == 1:
        results = [replicate(job) for job in jobs]
    else:
        # imported here: it loads multiprocessing, which nothing else needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_cap_threads,
                                 initargs=(threads,)) as pool:
            results = list(pool.map(replicate, jobs))
    rows = sorted((row for rows, _ in results for row in rows),
                  key=lambda r: (r[0], r[1], r[2], r[4], r[3]))
    return rows, sorted(row for _, row in results if row is not None), (workers, threads)
