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
``fit_ar_bic`` defines the fit of one series; the pipelines fit all their
series at once with ``_ar_bic_forecasts``, which gives bitwise the same
orders and forecasts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import RankDeficientError, fit_factors, idiosyncratic_residual
from .metrics import mafe_msfe
from .panel import Panel, center, lstsq_stack, split_stacked, stack_runs, whiten_stacked
from .select import IC2A, AbcConfig, SelectionTrace, abc_select_r

_RADIUS_TOL = 1e-8
# The batched AR-BIC screen (``_screen_orders``) ranks the orders by BIC alone
# and leaves a row to ``fit_ar_bic`` when rounding could overturn its choice:
# an R-diagonal ratio at or below _RANK_RTOL (rank deficient), a rival BIC
# within the rounding of the RSS values (_SCREEN_RTOL, ~1e4 eps per unit of
# conditioning), or an RSS within _FLOOR_MARGIN times the exact-fit floor.
# Explosiveness is checked after the screen, on the exact fit of the pick.
_RANK_RTOL = 1e-8
_SCREEN_RTOL = 1e-12
_FLOOR_MARGIN = 1e3


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
    return float(_companion_radii(np.asarray(coefs, dtype=float).reshape(1, -1))[0])


def _companion_radii(coefs: np.ndarray) -> np.ndarray:
    """Spectral radii of the companion matrices of the rows of a (rows, p) matrix."""
    rows, p = coefs.shape
    if p == 0:
        return np.zeros(rows)
    comp = np.zeros((rows, p, p))
    comp[:, 0] = coefs
    comp[:, 1:, :-1] = np.eye(p - 1)
    return np.abs(np.linalg.eigvals(comp)).max(axis=1)


def _min_length(p_max: int) -> int:
    """Shortest series that AR-BIC fits of orders 0..p_max accept: three
    observations per parameter of the largest model (p_max coefficients,
    intercept, innovation variance)."""
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    return 3 * (p_max + 2)


def _lag_matrices(Y: np.ndarray, p_max: int) -> np.ndarray:
    """(rows, T - p_max, p_max + 2) stack of the augmented lag matrices
    [1, y_{t-1} ... y_{t-p_max} | y_t] of the rows of a (rows, T) matrix, over
    the common effective sample t = p_max..T-1.  Order p regresses the last
    column on the first p + 1."""
    rows, T = Y.shape
    A = np.ones((rows, T - p_max, p_max + 2))
    for j in range(1, p_max + 1):
        A[:, :, j] = Y[:, p_max - j : T - j]
    A[:, :, -1] = Y[:, p_max:]
    return A


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
    if T < _min_length(p_max):
        raise ValueError(f"series of length {T} too short for p_max={p_max}")
    t_eff = T - p_max
    lags = _lag_matrices(y[None], p_max)[0]
    target = lags[:, -1]
    # below this, residual sums of squares are pure roundoff (exact fits)
    rss_floor = 1e-24 * t_eff * max(float(np.mean(target**2)), 1e-30)
    best = None
    for p in range(p_max + 1):
        X = lags[:, : p + 1]
        beta, _, _, _ = np.linalg.lstsq(X, target, rcond=None)
        resid = target - X @ beta
        rss = float(resid @ resid)
        if rss <= rss_floor:
            bic, sigma2 = -np.inf, 0.0
        else:
            bic, sigma2 = t_eff * np.log(rss / t_eff) + (p + 2) * np.log(t_eff), rss / t_eff
        # only a candidate that would win needs the (eigvals) explosiveness check
        if best is not None and not bic < best[0]:
            continue
        coefs = beta[1:]
        if companion_radius(coefs) >= 1.0 + _RADIUS_TOL:
            continue
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
    beta = np.concatenate([[model.intercept], model.coefficients])
    return _iterate_ar(beta[None], history[None, history.size - model.order :], h)[0]


def _iterate_ar(beta: np.ndarray, last: np.ndarray, h: int) -> np.ndarray:
    """Plug-in forecasts for steps 1..h of rows sharing one AR order p: beta
    (rows, p + 1) holds each row's intercept, then its coefficients; last
    (rows, p) its p most recent values, oldest first."""
    rows, p = last.shape
    hist = np.empty((rows, p + h))  # last p values, then the steps
    hist[:, :p] = last
    for step in range(p, p + h):
        val = beta[:, 0].copy()
        for j in range(p):
            val += beta[:, 1 + j] * hist[:, step - 1 - j]
        hist[:, step] = val
    return hist[:, p:]


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
    """Per-series forecasts (h, dim_i), how the factor count was chosen, and
    the BIC-chosen order of every AR series fitted (none for persistence)."""

    steps: tuple  # one (h, dim_i) array per series
    r: int
    trace: SelectionTrace | None
    ar_orders: np.ndarray  # tnh: factors, then idiosyncratic rows; cf: scores, series by series


def tnh_forecast(panel: Panel, cfg: ForecastConfig) -> ForecastResult:
    """Factor-model forecast of every series, h steps ahead.

    Pipeline: center, select the factor count on the centered panel (tuned
    IC2a criterion unless ``fixed_r`` is set), fit factors, forecast each
    factor series and each idiosyncratic coefficient series by AR-BIC,
    then recompose mean + loadings @ factor forecasts + idiosyncratic
    forecasts in coefficient form.
    """
    if _min_length(cfg.p_max) > panel.T:
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

    fc, orders = _ar_bic_forecasts(np.concatenate([fit.factors, xi]), cfg.p_max, cfg.horizon)
    stacked = np.concatenate(means)[:, None] + fit.b_tilde @ fc[:r] + fc[r:]  # (total_dim, h)
    return ForecastResult(steps=split_stacked(panel.offsets, stacked), r=r, trace=trace,
                          ar_orders=orders)


def cf_forecast(panel: Panel, h: int, n_components: int, p_max: int = 5) -> ForecastResult:
    """Componentwise baseline: per-series PCA scores forecast independently.

    Each series is centered, its sample coefficient covariance is
    eigendecomposed in the series' own Hilbert geometry, the leading
    ``n_components`` score series are forecast by AR-BIC, and the curve
    forecast is recomposed from the score forecasts.
    """
    if h < 1:
        raise ValueError("h must be >= 1")
    if _min_length(p_max) > panel.T:
        raise ValueError(f"p_max={p_max} too large for T={panel.T}")
    if not 1 <= n_components <= min(panel.dims):
        raise ValueError(f"n_components={n_components} out of range 1..{min(panel.dims)} "
                         "(the smallest series dimension)")
    centered, means = center(panel)
    white = centered.stacked_white()  # Euclidean geometry
    T, off, dims, nc = panel.T, panel.offsets, panel.dims, n_components
    # each run of equal-dim series is one stack: (n, dim, T) coefficients,
    # (n, dim, nc) leading eigenvectors, (n, nc, T) scores
    runs = stack_runs(dims, lambda d: 8 * d * d)
    bases, scores = [], np.empty((panel.N * nc, T))
    for lo, hi in runs:
        zw = white[off[lo] : off[hi]].reshape(hi - lo, dims[lo], T)
        _, vecs = np.linalg.eigh(zw @ zw.transpose(0, 2, 1) / T)
        vecs = vecs[..., ::-1][..., :nc]
        bases.append(vecs)
        scores[lo * nc : hi * nc] = (vecs.transpose(0, 2, 1) @ zw).reshape(-1, T)
    fc, orders = _ar_bic_forecasts(scores, p_max, h)
    z_fc = np.empty((panel.total_dim, h))
    for (lo, hi), vecs in zip(runs, bases):
        steps = fc[lo * nc : hi * nc].reshape(hi - lo, nc, h)
        z_fc[off[lo] : off[hi]] = (vecs @ steps).reshape(-1, h)
    stacked = np.concatenate(means)[:, None] + whiten_stacked(panel.spaces, z_fc, inverse=True)
    return ForecastResult(steps=split_stacked(panel.offsets, stacked), r=n_components, trace=None,
                          ar_orders=orders)


def _ar_bic_forecasts(series: np.ndarray, p_max: int, h: int) -> tuple:
    """AR-BIC forecasts for steps 1..h of every row of a (rows, T) matrix.

    Returns the (rows, h) forecasts and the (rows,) chosen orders, bitwise
    those of ``fit_ar_bic`` and ``ar_forecast`` row by row.  A QR screen
    (``_screen_orders``) picks each row's order by BIC; the rows of one order
    then get ``fit_ar_bic``'s ``lstsq`` fit of that order from one
    ``lstsq_stack`` call.  Rows the screen cannot settle, and rows whose pick
    is explosive on that exact fit, go through ``fit_ar_bic`` itself.  The
    forecast recursion (``_iterate_ar``, which ``ar_forecast`` runs on one
    row) runs over all rows of one order at once.
    """
    Y = np.asarray(series, dtype=float)
    rows, T = Y.shape
    if T < _min_length(p_max):
        raise ValueError(f"series of length {T} too short for p_max={p_max}")
    orders = np.empty(rows, dtype=int)
    beta = np.zeros((rows, p_max + 1))  # intercept, then coefficients
    for lo, hi in stack_runs([T - p_max] * rows, lambda t_eff: 8 * t_eff * (p_max + 2)):
        A = _lag_matrices(Y[lo:hi], p_max)
        picked = _screen_orders(A)
        for p in np.unique(picked[picked >= 0]):
            group = np.flatnonzero(picked == p)
            b = lstsq_stack(A[group, :, : p + 1], A[group, :, -1])
            beta[lo + group, : p + 1], orders[lo + group] = b, p
            # a non-explosive first BIC minimum over all orders is also
            # fit_ar_bic's first minimum among the non-explosive orders
            picked[group[_companion_radii(b[:, 1:]) >= 1.0 + _RADIUS_TOL]] = -1
        for i in np.flatnonzero(picked < 0) + lo:
            model = fit_ar_bic(Y[i], p_max)
            orders[i] = p = model.order
            beta[i, 0], beta[i, 1 : p + 1] = model.intercept, model.coefficients
    out = np.empty((rows, h))
    for p in np.unique(orders):
        group = orders == p
        out[group] = _iterate_ar(beta[group, : p + 1], Y[group, T - p :], h)
    return out, orders


def _screen_orders(A: np.ndarray) -> np.ndarray:
    """First BIC minimum over all AR orders of every row of a (rows, t_eff,
    p_max + 2) stack of augmented lag matrices, or -1 where rounding could
    make ``fit_ar_bic``'s BIC values rank the orders differently.

    One QR of the stack gives every order at once: order p regresses on the
    first p + 1 columns, so its RSS is the sum of squares of R's last column
    below row p.  A row is left unsettled when its lag matrix is rank
    deficient, an RSS lies near the exact-fit floor (where ``fit_ar_bic``
    switches to -inf BIC), or another order's BIC lies within the rounding
    margin of the winner's.  Explosiveness is not checked here.
    """
    rows, t_eff, k = A.shape
    n_orders = k - 1
    R = np.linalg.qr(A, mode="r")
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))[:, :n_orders]
    dmin, dmax = diag.min(axis=1), diag.max(axis=1)
    rank_deficient = dmin <= _RANK_RTOL * dmax
    cond = dmax / np.maximum(dmin, _RANK_RTOL * dmax)
    tail = np.cumsum(R[:, ::-1, -1] ** 2, axis=1)[:, ::-1]  # tail[:, i] = sum_{l >= i} R[l, -1]^2
    rss = tail[:, 1:]  # (rows, n_orders): order p leaves rows p + 1.. of R's last column
    floor = 1e-24 * np.maximum(tail[:, 0], 1e-30 * t_eff)  # fit_ar_bic's rss_floor
    near_floor = (rss <= _FLOOR_MARGIN * floor[:, None]).any(axis=1)
    rss = np.maximum(rss, floor[:, None])
    bic = t_eff * np.log(rss / t_eff) + np.arange(2, k + 1) * np.log(t_eff)
    norm_a = np.sqrt((R**2).sum(axis=(1, 2)))
    rel = _SCREEN_RTOL * cond[:, None] * (norm_a[:, None] / np.sqrt(rss) + cond[:, None])
    margin = t_eff * rel

    best = np.argmin(bic, axis=1)  # first minimum: ties go to the smaller order
    idx = np.arange(rows)
    rivals = np.abs(bic - bic[idx, best][:, None]) <= margin + margin[idx, best][:, None]
    rivals[idx, best] = False
    unsettled = rank_deficient | near_floor | rivals.any(axis=1)
    return np.where(unsettled, -1, best)


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
    if delta_min < 2:
        raise ValueError(f"delta_min={delta_min} must be >= 2: a training window needs T >= 2")
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
    return ForecastResult(steps=steps, r=0, trace=None, ar_orders=np.zeros(0, dtype=int))
