"""h-step-ahead forecasting of functional panels.

``tnh_forecast`` runs the factor pipeline: center, select the number of
factors, split the panel into common and idiosyncratic parts, forecast the
factor series and the idiosyncratic coefficient series with AR models
chosen by BIC, and recompose.  ``cf_forecast`` is the componentwise
baseline: per-series functional PCA scores forecast independently,
ignoring all cross-sectional structure.  ``rolling_origin_eval`` scores a
forecaster over expanding training windows (Hyndman & Ullah, 2007).

The AR family is AR(p) with intercept, fitted by conditional least squares
on a common effective sample so BIC values are comparable across orders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import RankDeficientError, fit_factors, idiosyncratic_residual
from .metrics import mafe_msfe
from .panel import Panel, center, split_stacked, whiten_stacked
from .select import IC2A, AbcConfig, SelectionTrace, abc_select_r

_RADIUS_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ArModel:
    """AR(p) model with intercept: y_t = intercept + sum_j coef_j y_{t-j} + eps."""

    order: int
    intercept: float
    coefficients: np.ndarray
    innovation_variance: float

    def __post_init__(self):
        coefs = np.asarray(self.coefficients, dtype=float)
        if coefs.shape != (self.order,):
            raise ValueError(f"expected {self.order} coefficients, got shape {coefs.shape}")
        if self.innovation_variance < 0:
            raise ValueError("innovation variance must be >= 0")
        if companion_radius(coefs) >= 1.0 + _RADIUS_TOL:
            raise ValueError("companion-matrix spectral radius exceeds 1 + 1e-8")
        object.__setattr__(self, "coefficients", coefs)


def companion_radius(coefs: np.ndarray) -> float:
    """Spectral radius of the companion matrix of an AR coefficient vector."""
    p = len(coefs)
    if p == 0:
        return 0.0
    comp = np.zeros((p, p))
    comp[0] = coefs
    if p > 1:
        comp[1:, :-1] = np.eye(p - 1)
    return float(np.abs(np.linalg.eigvals(comp)).max())


def fit_ar_bic(series: np.ndarray, p_max: int = 5) -> ArModel:
    """Fit AR(p) with intercept for p = 0..p_max and keep the BIC minimizer.

    All orders are fitted by conditional least squares on the common
    effective sample of the last ``T - p_max`` observations, with
    BIC = T_eff * log(RSS / T_eff) + (p + 2) * log(T_eff).  Ties go to the
    smaller order.  Candidates whose companion matrix is explosive beyond
    the 1e-8 tolerance are discarded; the intercept-only model always
    remains available, so an exactly constant series yields AR(0) with zero
    innovation variance.
    """
    y = np.asarray(series, dtype=float).ravel()
    T = y.size
    if T < 3 * (p_max + 2):
        raise ValueError(f"series of length {T} too short for p_max={p_max}")
    t_eff = T - p_max
    target = y[p_max:]
    # below this, residual sums of squares are pure roundoff (exact fits)
    rss_floor = 1e-24 * t_eff * max(float(np.mean(target**2)), 1e-30)
    best = None
    for p in range(p_max + 1):
        X = np.ones((t_eff, p + 1))
        for j in range(1, p + 1):
            X[:, j] = y[p_max - j : T - j]
        beta, _, _, _ = np.linalg.lstsq(X, target, rcond=None)
        resid = target - X @ beta
        rss = float(resid @ resid)
        if rss <= rss_floor:
            bic, sigma2 = -np.inf, 0.0
        else:
            bic, sigma2 = t_eff * np.log(rss / t_eff) + (p + 2) * np.log(t_eff), rss / t_eff
        coefs = beta[1:]
        if companion_radius(coefs) >= 1.0 + _RADIUS_TOL:
            continue
        if best is None or bic < best[0]:
            best = (bic, p, float(beta[0]), coefs, sigma2)
    _, p, intercept, coefs, sigma2 = best
    return ArModel(order=p, intercept=intercept, coefficients=coefs, innovation_variance=sigma2)


def ar_forecast(model: ArModel, history: np.ndarray, h: int) -> np.ndarray:
    """Iterated plug-in forecasts for steps 1..h."""
    history = np.asarray(history, dtype=float).ravel()
    if history.size < model.order:
        raise ValueError(f"need at least {model.order} past values, got {history.size}")
    if h < 1:
        raise ValueError("h must be >= 1")
    buf = list(history[len(history) - model.order :]) if model.order else []
    out = np.empty(h)
    for step in range(h):
        val = model.intercept
        for j in range(model.order):
            val += model.coefficients[j] * buf[-1 - j]
        out[step] = val
        if model.order:
            buf.append(val)
    return out


@dataclass(frozen=True)
class ForecastConfig:
    """Settings of the factor forecasting pipeline."""

    horizon: int
    p_max: int = 5
    fixed_r: int | None = None
    rng_seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.p_max < 0:
            raise ValueError("p_max must be >= 0")
        if self.fixed_r is not None and self.fixed_r < 1:
            raise ValueError("fixed_r must be >= 1")


@dataclass(frozen=True, eq=False)
class ForecastResult:
    """Per-series forecasts (h, dim_i) plus how the factor count was chosen."""

    steps: tuple  # one (h, dim_i) array per series
    r: int
    trace: SelectionTrace | None


def tnh_forecast(panel: Panel, cfg: ForecastConfig) -> ForecastResult:
    """Factor-model forecast of every series, h steps ahead.

    Pipeline: center, select the factor count on the centered panel (tuned
    IC2a criterion unless ``fixed_r`` is set), fit factors, forecast each
    factor series and each idiosyncratic coefficient series by AR-BIC,
    then recompose mean + loadings @ factor forecasts + idiosyncratic
    forecasts in coefficient form.
    """
    if 3 * (cfg.p_max + 2) > panel.T:
        raise ValueError(f"p_max={cfg.p_max} too large for T={panel.T}")
    centered, means = center(panel)
    r, trace = cfg.fixed_r, None
    if r is None:
        abc = AbcConfig.for_panel(panel.N, panel.T, rng_seed=cfg.rng_seed)
        r, trace = abc_select_r(centered, abc, IC2A)
    try:
        fit = fit_factors(centered, r)
    except RankDeficientError as exc:
        # degenerate training window (e.g. constant panel): fit what is there
        r = exc.level - 1
        fit = fit_factors(centered, r)
    xi = idiosyncratic_residual(centered, fit).stacked_coeffs()

    u_fc = _ar_bic_forecasts(fit.factors, cfg.p_max, cfg.horizon)
    xi_fc = _ar_bic_forecasts(xi, cfg.p_max, cfg.horizon)
    stacked = np.concatenate(means)[:, None] + fit.b_tilde @ u_fc + xi_fc  # (total_dim, h)
    return ForecastResult(steps=split_stacked(panel.offsets, stacked), r=r, trace=trace)


def cf_forecast(panel: Panel, h: int, n_components: int, p_max: int = 5) -> ForecastResult:
    """Componentwise baseline: per-series PCA scores forecast independently.

    Each series is centered, its sample coefficient covariance is
    eigendecomposed in the series' own Hilbert geometry, the leading
    ``n_components`` score series are forecast by AR-BIC, and the curve
    forecast is recomposed from the score forecasts.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if 3 * (p_max + 2) > panel.T:
        raise ValueError(f"p_max={p_max} too large for T={panel.T}")
    if n_components > min(panel.dims):
        raise ValueError(f"n_components={n_components} exceeds series dimension {min(panel.dims)}")
    X = panel.stacked_coeffs()
    mu = X.mean(axis=1)
    white = whiten_stacked(panel.spaces, X - mu[:, None])  # Euclidean geometry
    z_fc = np.empty((panel.total_dim, h))
    for a, b in zip(panel.offsets[:-1], panel.offsets[1:]):
        zw = white[a:b]  # (dim, T)
        _, vecs = np.linalg.eigh(zw @ zw.T / panel.T)
        vecs = vecs[:, ::-1][:, :n_components]
        z_fc[a:b] = vecs @ _ar_bic_forecasts(vecs.T @ zw, p_max, h)
    stacked = mu[:, None] + whiten_stacked(panel.spaces, z_fc, inverse=True)
    return ForecastResult(steps=split_stacked(panel.offsets, stacked), r=n_components, trace=None)


def _ar_bic_forecasts(series: np.ndarray, p_max: int, h: int) -> np.ndarray:
    """(rows, h) AR-BIC forecasts for steps 1..h of every row of ``series``."""
    out = np.empty((len(series), h))
    for j, y in enumerate(series):
        out[j] = ar_forecast(fit_ar_bic(y, p_max), y, h)
    return out


def rolling_origin_eval(panel: Panel, actual: np.ndarray, design: np.ndarray, forecaster,
                        horizon: int, delta_min: int) -> list:
    """Rolling-origin forecast errors, one ``(h, mafe, msfe)`` row per step h.

    Each origin delta = delta_min..T-1 makes one call ``forecaster(train,
    steps)`` on the first delta periods, steps = min(horizon, T - delta), which
    returns a ``ForecastResult``.  Its step-h coefficients, mapped to the grid
    by ``design``, are scored against ``actual[:, delta + h - 1]`` of the
    (N, T, grid) array ``actual``.
    """
    T = panel.T
    if delta_min >= T:
        raise ValueError(f"no rolling origins: delta_min={delta_min} >= T={T}")
    X = panel.stacked_coeffs()
    # step h + 1: (N, grid) forecasts and actuals, in origin order
    fc, act = [[] for _ in range(horizon)], [[] for _ in range(horizon)]
    for delta in range(delta_min, T):
        steps = min(horizon, T - delta)
        result = forecaster(Panel.from_stacked(panel.spaces, X[:, :delta]), steps)
        for h in range(steps):
            fc[h].append(np.stack([design @ s[h] for s in result.steps]))
            act[h].append(actual[:, delta + h])
    return [(h + 1, *mafe_msfe(fc[h], act[h])) for h in range(horizon) if fc[h]]


def persistence_forecast(panel: Panel, h: int) -> ForecastResult:
    """Naive baseline: repeat the last observation at every step."""
    steps = tuple(np.repeat(c[-1][None, :], h, axis=0) for c in panel.coeffs)
    return ForecastResult(steps=steps, r=0, trace=None)
