"""h-step-ahead forecasting of functional panels.

``tnh_forecast`` runs the factor pipeline: center, select the number of
factors, split the panel into common and idiosyncratic parts, forecast the
factor series and the idiosyncratic coefficient series with AR models
chosen by BIC, and recompose.  ``cf_forecast`` is the componentwise
baseline: per-series functional PCA scores forecast independently,
ignoring all cross-sectional structure.  ``rolling_origin_eval`` scores a
forecaster over expanding training windows (Hyndman & Ullah, 2007), and
``mortality_rolling_eval`` does so per sex on a mortality-rate CSV.

The AR family is AR(p) with intercept, fitted by conditional least squares
on a common effective sample so BIC values are comparable across orders.
``fit_ar_bic`` fits every order of a stack of series with one QR of each
series' lag matrix (Golub & Van Loan, section 5.3), and ``ar_forecast``
runs the h-step recursion over the series of one order; the pipelines fit
all their series with ``_ar_bic_forecasts``, one chunk after another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimate import RankDeficientError, fit_factors, idiosyncratic_residual
from .fbasis import AGE_GRID, GROUP_AGE, build_bspline, ingest_mortality, load_mortality_csv
from .metrics import mafe_msfe
from .panel import Panel, center, split_stacked, stack_runs, whiten_stacked
from .select import IC2A, AbcConfig, SelectionTrace, _largest_k_max, abc_select_r

# An AR fit is explosive when its companion radius is at least 1 + _RADIUS_TOL.
# An AR order is rank deficient when, in the QR of its lag matrix, some column's
# diagonal entry of R is at most _RANK_RTOL * t_eff times that column's norm.
# The ratio is the sine of the column's angle to the earlier ones, so the rule
# ignores the data's scale; the cutoff is lstsq's default rcond, eps * max(m, n).
_RADIUS_TOL = 1e-8
_RANK_RTOL = float(np.finfo(float).eps)


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


def fit_ar_bic(Y: np.ndarray, p_max: int = 5) -> tuple:
    """AR(p) fits with intercept, p = 0..p_max chosen by BIC, of the rows of a
    (rows, T) matrix (a single series is a (1, T) matrix): the (rows,) orders,
    the (rows, p_max + 1) intercepts then coefficients (zero past a row's
    order) and the (rows,) innovation variances.

    Every order is fitted by conditional least squares on the common
    effective sample of the last t_eff = T - p_max observations, with
    BIC = t_eff * log(RSS / t_eff) + (p + 2) * log(t_eff).  One QR of the
    stack of augmented lag matrices (``_lag_matrices``) fits every order:
    order p regresses the last column on the first p + 1, so its RSS is the
    sum of squares of R's last column below row p, and its coefficients solve
    R's leading (p + 1) block against that column.  An RSS at most 1e-24
    times the target's sum of squares is an exact fit, with BIC -inf and zero
    variance.  A row takes its first BIC minimum among its full-rank orders
    (``_RANK_RTOL``), so ties go to the smaller order; a pick whose companion
    radius is at least 1 + 1e-8 is dropped for the row's next BIC order.
    AR(0) has full rank and is never explosive, so every row gets an order,
    and an exactly constant row gets AR(0) with zero variance.  A ``Y`` that
    is not 2-D, has a non-finite row or rows shorter than 3 (p_max + 2)
    raises ``ValueError``.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError(f"Y must be a (rows, T) matrix, got shape {Y.shape}")
    if Y.shape[1] < _min_length(p_max):
        raise ValueError(f"series of length {Y.shape[1]} too short for p_max={p_max}")
    finite = np.isfinite(Y).all(axis=1)
    if not finite.all():
        raise ValueError(f"row {int(np.argmin(finite))} of Y has a non-finite value")
    A = _lag_matrices(Y, p_max)
    rows, t_eff, k = A.shape
    R = np.linalg.qr(A, mode="r")
    diag = np.abs(np.diagonal(R, axis1=1, axis2=2))[:, :-1]
    col_norm = np.linalg.norm(R[:, :, :-1], axis=1)  # the norms of A's columns
    full_rank = np.logical_and.accumulate(diag > _RANK_RTOL * t_eff * col_norm, axis=1)
    tail = np.cumsum(R[:, ::-1, -1] ** 2, axis=1)[:, ::-1]  # tail[:, i] = sum_{l >= i} R[l, -1]^2
    rss = tail[:, 1:]  # (rows, p_max + 1): order p leaves rows p + 1.. of R's last column
    floor = 1e-24 * np.maximum(tail[:, :1], 1e-30 * t_eff)
    exact = rss <= floor
    bic = t_eff * np.log(np.maximum(rss, floor) / t_eff) + np.arange(2, k + 1) * np.log(t_eff)
    bic[exact] = -np.inf
    bic[~full_rank] = np.inf
    orders = np.full(rows, -1)
    beta = np.zeros((rows, k - 1))
    todo = np.arange(rows)
    while todo.size:
        picked = np.argmin(bic[todo], axis=1)  # first minimum: ties go to the smaller order
        for p in np.flatnonzero(np.bincount(picked)):  # the orders picked, ascending
            group = todo[picked == p]
            # the right-hand side as (..., p + 1, 1): NumPy 1 and 2 broadcast it alike
            b = np.linalg.solve(R[group, : p + 1, : p + 1], R[group, : p + 1, -1:])[..., 0]
            stable = _companion_radii(b[:, 1:]) < 1.0 + _RADIUS_TOL
            beta[group[stable], : p + 1], orders[group[stable]] = b[stable], p
            bic[group[~stable], p] = np.inf
        todo = np.flatnonzero(orders < 0)
    idx = np.arange(rows)
    sigma2 = np.where(exact[idx, orders], 0.0, rss[idx, orders] / t_eff)
    return orders, beta, sigma2


def ar_forecast(beta: np.ndarray, last: np.ndarray, h: int) -> np.ndarray:
    """(rows, h) plug-in forecasts for steps 1..h of rows sharing one AR
    order p: beta (rows, p + 1) holds each row's intercept, then its
    coefficients, as ``fit_ar_bic`` gives them; last (rows, p) holds each
    row's p most recent values, oldest first."""
    rows, p = np.shape(last)
    if np.shape(beta) != (rows, p + 1):
        raise ValueError(f"beta of shape {np.shape(beta)} does not fit last values of shape "
                         f"{(rows, p)}: need (rows, p + 1) and (rows, p)")
    if h < 1:
        raise ValueError("h must be >= 1")
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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


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
    IC2a criterion unless ``fixed_r`` is set, up to k_max = 10 or the least
    subpanel rank bound below it), fit factors, forecast each
    factor series and each idiosyncratic coefficient series by AR-BIC,
    then recompose mean + loadings @ factor forecasts + idiosyncratic
    forecasts in coefficient form.
    """
    if _min_length(cfg.p_max) > panel.T:
        raise ValueError(f"p_max={cfg.p_max} too large for T={panel.T}")
    centered, means = center(panel)
    r, trace = cfg.fixed_r, None
    if r is None:
        abc = AbcConfig(rng_seed=cfg.rng_seed)
        abc = replace(abc, k_max=_largest_k_max(panel.dims, panel.T, abc))
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
    those of ``fit_ar_bic`` and ``ar_forecast`` row by row: the rows are
    fitted by ``fit_ar_bic`` in chunks cut to the byte budget of
    ``stack_runs``, one after another on the calling thread, so one chunk's
    fit is held at a time; ``ar_forecast`` runs over all rows of one order
    at once.
    """
    Y = np.asarray(series, dtype=float)
    rows, T = Y.shape
    orders = np.empty(rows, dtype=int)
    beta = np.empty((rows, p_max + 1))  # intercept, then coefficients
    # twice a row's lag-matrix bytes: np.linalg.qr copies the stack it factors
    for lo, hi in stack_runs([T - p_max] * rows, lambda t_eff: 16 * t_eff * (p_max + 2)):
        orders[lo:hi], beta[lo:hi], _ = fit_ar_bic(Y[lo:hi], p_max)
    out = np.empty((rows, h))
    for p in np.flatnonzero(np.bincount(orders)):
        group = orders == p
        out[group] = ar_forecast(beta[group, : p + 1], Y[group, T - p :], h)
    return out, orders


def _check_origins(delta_min: int, T: int, shortest: int = 2) -> None:
    """Reject a first origin ``delta_min`` that leaves no origin below T, or
    a first training window shorter than 2 or than ``shortest``."""
    if delta_min < 2:
        raise ValueError(f"delta_min={delta_min} must be >= 2: a training window needs T >= 2")
    if delta_min >= T:
        raise ValueError(f"no rolling origins: delta_min={delta_min} >= T={T}")
    if delta_min < shortest:
        raise ValueError(f"delta_min={delta_min} must be >= {shortest}, the shortest window "
                         "the AR-BIC fits accept")


def rolling_origin_eval(panel: Panel, actual: np.ndarray, design: np.ndarray, forecaster,
                        horizon: int, delta_min: int) -> list:
    """Rolling-origin forecast errors, one ``(h, mafe, msfe)`` row per step h.

    Each origin delta = delta_min..T-1 makes one call ``forecaster(train,
    steps)`` on the first delta periods, steps = min(horizon, T - delta), which
    returns a ``ForecastResult``.  Its step-h coefficients, mapped to the grid
    by ``design``, are scored against ``actual[:, delta + h - 1]`` of the
    (N, T, grid) array ``actual``.  Before the first forecast, it rejects a
    horizon below 1, a ``design`` not of shape (grid, d) for series of
    dimension d, and an ``actual`` not of shape (N, T, grid).
    """
    T = panel.T
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_origins(delta_min, T)
    if np.ndim(design) != 2 or set(panel.dims) != {np.shape(design)[1]}:
        raise ValueError(f"design must be (grid, d) for series of dimension d, got shape "
                         f"{np.shape(design)} for series of dimensions {sorted(set(panel.dims))}")
    if np.shape(actual) != (panel.N, T, len(design)):
        raise ValueError(f"actual must be (N, T, grid)=({panel.N}, {T}, {len(design)}), "
                         f"got shape {np.shape(actual)}")
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


def mortality_rolling_eval(path, forecaster, horizon: int, p_max: int, eval_age_max: int,
                           sex: str | None = None, delta_min: int | None = None) -> list:
    """Rolling-origin errors of ``forecaster`` on the mortality-rate CSV at
    ``path``: one ``(sex, h, mafe, msfe)`` row per sex and step h, for ``sex``
    or every sex of the data in sorted order.

    Each sex's log-rate curves are projected onto the 9-dimensional cubic
    B-spline basis on ages 0..95 (``ingest_mortality``), and
    ``rolling_origin_eval`` scores ``forecaster(train, steps)`` on ages
    0..``eval_age_max`` from the first origin ``delta_min``, by default
    max(T - 16, 3 (p_max + 2)) for a sex of T years.  Before any forecast, it
    rejects an ``eval_age_max`` outside 0..95, a negative ``p_max``, a ``sex``
    the data lacks (only that sex is ingested), and a first origin that
    leaves some sex no origin or gives a window shorter than its AR-BIC fits
    of order up to ``p_max`` accept.
    """
    if not 0 <= eval_age_max <= GROUP_AGE:
        raise ValueError(f"--eval-age-max must lie in 0..{GROUP_AGE}, got {eval_age_max}")
    shortest = _min_length(p_max)
    records = load_mortality_csv(path)
    if sex is not None and sex not in records.sexes:
        raise ValueError(f"no rows for --sex {sex!r}; the data has sexes {sorted(records.sexes)}")
    basis = build_bspline((0.0, float(AGE_GRID[-1])), dim=9, order=4)
    data = ingest_mortality(records, basis, None if sex is None else [sex])
    del records  # the panels hold what the forecasts need
    deltas = {}
    for s, md in sorted(data.items()):
        deltas[s] = max(md.panel.T - 16, shortest) if delta_min is None else delta_min
        _check_origins(deltas[s], md.panel.T, shortest)
    design = basis.evaluate(AGE_GRID[: eval_age_max + 1])
    rows = []
    for s, delta in deltas.items():
        md = data[s]
        rows += [(s, *row) for row in rolling_origin_eval(
            md.panel, md.log_rates[:, :, : eval_age_max + 1], design, forecaster, horizon, delta)]
    return rows


def persistence_forecast(panel: Panel, h: int) -> ForecastResult:
    """Naive baseline: repeat the last observation at every step."""
    if h < 1:
        raise ValueError("h must be >= 1")
    steps = tuple(np.repeat(c[-1][None, :], h, axis=0) for c in panel.coeffs)
    return ForecastResult(steps=steps, r=0, trace=None, ar_orders=np.zeros(0, dtype=int))
