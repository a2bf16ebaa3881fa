"""Least-squares estimation of factors, loadings, and common components.

The estimator eigendecomposes the T x T panel Gram matrix F (entries
<x_s, x_t>/N).  With eigenvalues lambda_tilde_1 >= lambda_tilde_2 >= ...
and f_hat_l the eigenvectors rescaled to norm sqrt(T):

* ``lambda_hat_l = lambda_tilde_l / T`` (the eigenvalues of F/T, which
  stay O(1) as N and T grow),
* ``e_hat_l = lambda_hat_l**-0.5 * T**-1 * sum_t (f_hat_l)_t x_t``, which
  has H_N-norm exactly sqrt(N),
* ``b_tilde_l = lambda_hat_l**0.5 * e_hat_l``.

The rank-k fit ``b_tilde @ factors`` is the k-term truncated singular value
decomposition of the panel operator, so the goodness of fit V(k) is
available in closed form from the eigenvalues alone.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from .panel import (
    Panel,
    _json_settings,
    _minus,
    block_offsets,
    space_from_dict,
    space_to_dict,
    spaces_match,
    split_stacked,
    whiten_stacked,
)

RANK_EPS = 1e-12


class RankDeficientError(ValueError):
    """Requested more factors than the panel's numerical rank supports."""

    def __init__(self, level: int):
        self.level = level
        super().__init__(f"eigenvalue {level} of the panel Gram is numerically zero")


def _oriented(vecs: np.ndarray) -> np.ndarray:
    """Copy of ``vecs`` with each column's largest-magnitude coordinate (the
    first of equal ones) positive."""
    lead = vecs[np.abs(vecs).argmax(axis=0), np.arange(vecs.shape[1])]
    return vecs * np.where(lead < 0, -1.0, 1.0)


@dataclass(frozen=True, eq=False)
class FactorFit:
    """Result of fitting ``k`` factors to a panel.

    Attributes
    ----------
    k : int
        Number of fitted factors.
    lambda_hat : ndarray of shape (k,)
        Rescaled eigenvalues, nonincreasing.
    factors : ndarray of shape (k, T)
        Estimated factor values; rows have norm sqrt(T) and are orthogonal.
    e_hat : ndarray of shape (total_dim, k)
        Normalized loading columns in stacked coefficient form
        (H_N-norm sqrt(N) each).
    b_tilde : ndarray of shape (total_dim, k)
        Scaled loading columns ``lambda_hat**0.5 * e_hat``.
    trace_F : float
        Trace of the panel Gram matrix.
    spaces : tuple of SpaceSpec
        Per-series spaces of the fitted panel.
    """

    k: int
    lambda_hat: np.ndarray
    factors: np.ndarray
    e_hat: np.ndarray
    b_tilde: np.ndarray
    trace_F: float
    spaces: tuple

    @property
    def T(self) -> int:
        return self.factors.shape[1]


def _check_k(k: int, bound: int) -> None:
    """Reject a factor count outside 0..bound, the rank bound min(D, T) of a panel."""
    if not 0 <= k <= bound:
        raise ValueError(f"k={k} out of range [0, {bound}]")


def fit_factors(panel: Panel, k: int) -> FactorFit:
    """Fit ``k`` factors by least squares on the panel Gram matrix.

    Reads the panel's cached Gram spectrum, so fits of several orders on
    one panel share a single eigendecomposition.

    Raises
    ------
    RankDeficientError
        If some requested eigenvalue is below ``1e-12 * trace(F)``,
        i.e. the panel has numerical rank < k.
    """
    _check_k(k, min(panel.total_dim, panel.T))
    lam_all, vecs_all, trace_F = panel.gram_spectrum()
    lam_tilde = lam_all[:k]
    vecs = _oriented(vecs_all[:, :k])
    for l in range(k):
        if lam_tilde[l] <= RANK_EPS * trace_F:
            raise RankDeficientError(l + 1)
    T = panel.T
    factors = np.sqrt(T) * vecs.T
    lambda_hat = lam_tilde / T
    Z = panel.stacked_white()
    # e_hat_l = lambda_hat_l**-0.5 / T * sum_t (f_hat_l)_t x_t
    e_white = (Z @ factors.T) / (T * np.sqrt(lambda_hat))
    e_hat = whiten_stacked(panel.spaces, e_white, inverse=True)
    b_tilde = e_hat * np.sqrt(lambda_hat)
    return FactorFit(
        k=k,
        lambda_hat=lambda_hat,
        factors=factors,
        e_hat=e_hat,
        b_tilde=b_tilde,
        trace_F=trace_F,
        spaces=panel.spaces,
    )


def common_component(fit: FactorFit) -> Panel:
    """Panel of fitted common components ``chi_hat = b_tilde @ factors``."""
    return Panel.from_stacked(fit.spaces, fit.b_tilde @ fit.factors)


def idiosyncratic_residual(panel: Panel, fit: FactorFit) -> Panel:
    """Panel minus its fitted common component, entrywise in coefficients."""
    if fit.T != panel.T or not spaces_match(fit.spaces, panel.spaces):
        raise ValueError("fit does not match panel shape")
    return _minus(panel, fit.b_tilde @ fit.factors)


def v_profile(eigenvalues: np.ndarray, trace, T: int, k_max: int) -> np.ndarray:
    """V(k) for k = 0..k_max from Gram eigenvalues (negatives as 0): (trace - sum_{l<=k} lam_l)/T.

    ``eigenvalues`` (..., n) holds descending eigenvalues along its last axis;
    ``trace`` broadcasts against its leading axes.
    """
    eigenvalues = np.asarray(eigenvalues)
    if k_max > eigenvalues.shape[-1]:
        raise ValueError(f"k_max={k_max} exceeds number of eigenvalues {eigenvalues.shape[-1]}")
    csum = np.zeros(eigenvalues.shape[:-1] + (k_max + 1,))
    np.cumsum(np.clip(eigenvalues[..., :k_max], 0.0, None), axis=-1, out=csum[..., 1:])
    return np.clip(np.asarray(trace)[..., None] - csum, 0.0, None) / T


def goodness_of_fit(panel: Panel, k: int) -> float:
    """Minimized average squared residual V(k) after regressing on k factors."""
    _check_k(k, min(panel.total_dim, panel.T))
    vals, _, trace = panel.gram_spectrum()
    return float(v_profile(vals, trace, panel.T, k)[k])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def fit_to_dict(fit: FactorFit, manifest: dict | None = None) -> dict:
    offsets = block_offsets(fit.spaces)
    e_blocks = [{str(i): b.tolist() for i, b in enumerate(split_stacked(offsets, column))}
                for column in fit.e_hat.T]
    out = {
        "k": fit.k,
        "T": fit.T,
        "lambda_hat": fit.lambda_hat.tolist(),
        "factors": fit.factors.tolist(),
        "e_hat": e_blocks,
        "trace_F": fit.trace_F,
        "spaces": [space_to_dict(s) for s in fit.spaces],
    }
    if manifest is not None:
        out["manifest"] = manifest
    return out


_FIT = {"k": (MISSING, int, None), "T": (None, int, None), "lambda_hat": (MISSING, [float], None),
        "factors": (MISSING, [list], None), "e_hat": (MISSING, [dict], None),
        "trace_F": (MISSING, float, None), "spaces": (MISSING, list, None)}


def fit_from_dict(d: dict) -> FactorFit:
    """The fit a dict of ``fit_to_dict`` describes, read through ``_FIT``; before any
    array is built, a key that no fit of ``fit_factors`` holds raises a ``ValueError``
    naming it (``T``, the factors' row length, may be left out unless k is 0)."""
    k, T, lam, rows, e_blocks, trace_F, space_docs = _json_settings(
        d, _FIT, "fit", lambda key: "fit " + key, ["manifest", "V"]).values()
    n = len(rows[0]) if rows else T
    for key, ok, must in [
            ("k", k >= 0, "a non-negative integer"),
            ("lambda_hat", len(lam) == k and min(lam, default=1) > 0,
             f"a list of {k} finite values above 0"),
            ("factors", len(rows) == k and len(set(map(len, rows))) < 2,
             f"a list of {k} rows of equal length"),
            ("T", n is not None and n >= 0 and T in (None, n),
             "the factors' row length, and given when k is 0"),
            ("e_hat", len(e_blocks) == k, f"a list of {k} entries")]:
        if not ok:
            raise ValueError(f"fit {key} must be {must}")
    spaces = tuple(space_from_dict(s, f"spaces[{i}]") for i, s in enumerate(space_docs))
    lambda_hat = np.asarray(lam, dtype=float)
    offsets = block_offsets(spaces)
    e_hat = np.zeros((offsets[-1], k))
    for column, blocks in zip(e_hat.T, e_blocks):
        for i, view in enumerate(split_stacked(offsets, column)):
            view[:] = blocks[str(i)]  # a block of the wrong length raises
    factors = np.asarray(rows, dtype=float).reshape(k, n)
    return FactorFit(k=k, lambda_hat=lambda_hat, factors=factors, e_hat=e_hat,
                     b_tilde=e_hat * np.sqrt(lambda_hat), trace_F=float(trace_F), spaces=spaces)
