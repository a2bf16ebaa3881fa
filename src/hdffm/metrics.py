"""Error functionals for factors, loadings, common components, and forecasts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .panel import Panel, spaces_match, whiten_stacked

if TYPE_CHECKING:  # named in annotations only
    from .estimate import FactorFit
    from .simulate import GroundTruth


@dataclass(frozen=True, eq=False)
class LoadingMatrix:
    """Columns in H_N stacked-coefficient form, with their spaces.

    Used both for true loading operators and for estimated ones (whose
    columns are the normalized loadings of a factor fit).
    """

    spaces: tuple
    columns: np.ndarray  # (total_dim, r)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError("columns must be a (total_dim, r) array")
        D = sum(s.dim for s in self.spaces)
        if cols.shape[0] != D:
            raise ValueError(f"columns have {cols.shape[0]} rows, spaces require {D}")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "spaces", tuple(self.spaces))

    @property
    def r(self) -> int:
        return self.columns.shape[1]

    def whitened(self) -> np.ndarray:
        """Columns in coordinates where the H_N inner product is Euclidean."""
        return whiten_stacked(self.spaces, self.columns)

    @classmethod
    def from_fit(cls, fit: FactorFit) -> "LoadingMatrix":
        return cls(spaces=fit.spaces, columns=fit.e_hat)

    @classmethod
    def from_ground_truth(cls, truth: GroundTruth) -> "LoadingMatrix":
        N, r, d = truth.B_coeffs.shape
        cols = truth.B_coeffs.transpose(0, 2, 1).reshape(N * d, r)
        return cls(spaces=truth.chi.spaces, columns=cols)


def delta_nt(U_est: np.ndarray, U_true: np.ndarray) -> float:
    """Row-space discrepancy min_R ||U_est - R U_true||_F / sqrt(T).

    Computed through the least-squares projection formula
    ||(I - P) U_est'||_F / sqrt(T), where P projects onto the row space of
    U_true (Moore-Penrose projector, so rank-deficient U_true is allowed).
    """
    U_est = np.atleast_2d(np.asarray(U_est, dtype=float))
    U_true = np.atleast_2d(np.asarray(U_true, dtype=float))
    T = U_est.shape[1]
    if U_true.shape[1] != T:
        raise ValueError("U_est and U_true must have the same number of columns")
    proj = U_true.T @ np.linalg.pinv(U_true @ U_true.T) @ U_true
    resid = U_est.T - proj @ U_est.T
    return float(np.linalg.norm(resid) / np.sqrt(T))


def epsilon_nt(B_est: LoadingMatrix, B_true: LoadingMatrix) -> float:
    """Range discrepancy min_R ||B_est - B_true R||_F / sqrt(N).

    All inner products are taken in H_N through the spaces' Gram matrices.
    Raises if the true loading columns are H_N-collinear.
    """
    if not spaces_match(B_est.spaces, B_true.spaces):
        raise ValueError("loading matrices live in different spaces")
    We = B_est.whitened()
    Wt = B_true.whitened()
    M_tt = Wt.T @ Wt
    M_te = Wt.T @ We
    M_ee = We.T @ We
    eigs = np.linalg.eigvalsh(M_tt)
    if eigs[0] <= 1e-12 * max(eigs[-1], 1.0):
        raise ValueError("true loading columns are collinear: B*B is singular")
    R = np.linalg.solve(M_tt, M_te)
    resid_sq = float(np.trace(M_ee) - np.trace(M_te.T @ R))
    N = len(B_est.spaces)
    return float(np.sqrt(max(resid_sq, 0.0) / N))


def phi_nt(chi_est: Panel, chi_true: Panel) -> float:
    """Mean squared H_i-norm error (NT)^-1 sum_{i,t} ||chi_it - chi_hat_it||^2."""
    if chi_est.T != chi_true.T or not spaces_match(chi_est.spaces, chi_true.spaces):
        raise ValueError("panels have mismatched shapes or spaces")
    diff = chi_est.stacked_white() - chi_true.stacked_white()
    return float((diff**2).sum() / (chi_est.N * chi_est.T))


def mafe_msfe(forecasts: np.ndarray, actuals: np.ndarray) -> tuple:
    """Mean absolute and mean squared forecast error over all grid entries.

    Both inputs must share the same shape (series x origins x grid points,
    or any common layout); values are averaged over every entry.
    """
    forecasts = np.asarray(forecasts, dtype=float)
    actuals = np.asarray(actuals, dtype=float)
    if forecasts.shape != actuals.shape:
        raise ValueError(f"shape mismatch {forecasts.shape} vs {actuals.shape}")
    diff = forecasts - actuals
    return float(np.abs(diff).mean()), float((diff**2).mean())
