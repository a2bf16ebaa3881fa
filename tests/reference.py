"""Plain-loop references written from the model, for the pipeline's own code.

Each series i of a panel is a curve x_it in its own space, with coefficient
vector x_it and basis Gram G_i, so <x_is, x_it> = x_is' G_i x_it.  The panel
Gram is F[s, t] = (1/N) sum_i <x_is, x_it>; V(k) is the mean squared norm of
what is left after projecting every series on the k leading eigenvectors of
F in time, and the IC2a criterion is IC(c, k) = V(k) + c k g(N, T) with
g = sqrt((N + T)/(NT)) log(min(N, T)); the rank-k fit projects each series
on the same k eigenvectors.  Nothing here stacks or whitens the panel or
reads its cached spectrum: only ``panel.coeffs`` and each space's ``gram``
are used.

The AR part works on one series y at a time.  AR(p) with intercept regresses
y_t on 1, y_{t-1}, ..., y_{t-p} over the common sample t = p_max..T-1 of
t_eff = T - p_max values, by one least-squares solve per order; BIC(p) =
t_eff log(RSS_p / t_eff) + (p + 2) log(t_eff), and AR-BIC takes the first
minimum among the orders whose companion matrix has spectral radius below
1 + 1e-8.  Its h-step forecasts run the fitted recursion forward, each step
standing in for the value not yet observed.
"""

import math

import numpy as np


def gram(panel) -> np.ndarray:
    """The T x T panel Gram, one series at a time in its own geometry."""
    F = np.zeros((panel.T, panel.T))
    for X, space in zip(panel.coeffs, panel.spaces):  # X: (T, dim_i), row t is x_it
        F += X @ space.gram @ X.T  # entry (s, t): x_is' G_i x_it
    return F / panel.N


def eigenvalues(panel) -> np.ndarray:
    """The panel Gram's eigenvalues, descending."""
    return np.linalg.eigvalsh(gram(panel))[::-1]


def v_of_k(panel, k_max: int) -> np.ndarray:
    """V(k), k = 0..k_max: (1/(NT)) sum_i sum_t ||r_it||^2 in series i's
    geometry, where r_i = (I - V_k V_k') x_i is what the k leading
    eigenvectors V_k of the panel Gram leave of series i over time."""
    _, vecs = np.linalg.eigh(gram(panel))
    vecs = vecs[:, ::-1]
    v = []
    for k in range(k_max + 1):
        M = np.eye(panel.T) - vecs[:, :k] @ vecs[:, :k].T
        total = 0.0
        for X, space in zip(panel.coeffs, panel.spaces):
            R = M @ X  # row t is r_it
            total += np.einsum("td,de,te->", R, space.gram, R)  # sum_t r_it' G_i r_it
        v.append(total / (panel.N * panel.T))
    return np.array(v)


def fit(panel, k: int):
    """The rank-k least-squares fit, one series at a time: the factors f_l
    (rows of a (k, T) array) are the k leading eigenvectors of the panel Gram
    scaled to norm sqrt(T), and lambda_hat_l = lambda_l / T.  Per series, in
    its own coefficients: the loading columns e_il = sum_t f_lt x_it /
    (T sqrt(lambda_hat_l)) (a (dim_i, k) array), the common component
    chi_it = sum_l sqrt(lambda_hat_l) e_il f_lt and the residual x_it - chi_it
    (both (T, dim_i), row t for time t).  Returns (factors, lambda_hat,
    loadings, common, residual), the last three as lists over the series."""
    lam, vecs = np.linalg.eigh(gram(panel))
    T = panel.T
    lambda_hat = lam[::-1][:k] / T
    factors = np.sqrt(T) * vecs[:, ::-1][:, :k].T
    loadings, common, residual = [], [], []
    for X in panel.coeffs:
        E = np.column_stack([factors[l] @ X / (T * np.sqrt(lambda_hat[l])) for l in range(k)])
        chi = np.zeros_like(X)
        for l in range(k):
            chi += np.sqrt(lambda_hat[l]) * np.outer(factors[l], E[:, l])
        loadings.append(E)
        common.append(chi)
        residual.append(X - chi)
    return factors, lambda_hat, loadings, common, residual


def ic2a_penalty(N: int, T: int) -> float:
    return math.sqrt((N + T) / (N * T)) * math.log(min(N, T))


def ic2a_criteria(panel, c_grid, k_max: int) -> np.ndarray:
    """IC(c, k) for every c of ``c_grid`` (rows) and k = 1..k_max (columns)."""
    v, g = v_of_k(panel, k_max), ic2a_penalty(panel.N, panel.T)
    return np.array([[v[k] + c * k * g for k in range(1, k_max + 1)] for c in c_grid])


def ic2a_r_hat(criteria: np.ndarray) -> np.ndarray:
    """The smallest k minimizing each row of ``ic2a_criteria``."""
    return np.array([min(range(row.size), key=lambda j: (row[j], j)) + 1 for row in criteria])


def companion_radius(coefs) -> float:
    """Spectral radius of the companion matrix of an AR coefficient vector."""
    p = coefs.size
    if p == 0:
        return 0.0
    comp = np.eye(p, k=-1)
    comp[0] = coefs
    return float(np.abs(np.linalg.eigvals(comp)).max())


def ar_fits(y, p_max: int) -> list:
    """(bic, order, intercept, coefficients, variance, radius) of every AR
    order, written out directly: a fresh lag matrix and lstsq per order."""
    T = y.size
    t_eff, target = T - p_max, y[p_max:]
    rss_floor = 1e-24 * t_eff * max(float(np.mean(target**2)), 1e-30)
    fits = []
    for p in range(p_max + 1):
        X = np.ones((t_eff, p + 1))
        for j in range(1, p + 1):
            X[:, j] = y[p_max - j : T - j]
        beta = np.linalg.lstsq(X, target, rcond=None)[0]
        resid = target - X @ beta
        rss = float(resid @ resid)
        if rss <= rss_floor:
            bic, sigma2 = -np.inf, 0.0
        else:
            bic, sigma2 = t_eff * np.log(rss / t_eff) + (p + 2) * np.log(t_eff), rss / t_eff
        fits.append((bic, p, float(beta[0]), beta[1:], sigma2, companion_radius(beta[1:])))
    return fits


def ar_bic(y, p_max: int) -> tuple:
    """(bic, order, intercept, coefficients, variance) of AR-BIC: the first BIC
    minimum among the orders whose companion radius is below 1 + 1e-8."""
    return min((f[:5] for f in ar_fits(y, p_max) if f[5] < 1.0 + 1e-8), key=lambda c: c[:2])


def ar_steps(intercept: float, coefs, y, h: int) -> np.ndarray:
    """Forecasts of steps 1..h after the series y by the AR recursion
    y_{t+1} = intercept + sum_j coefs[j - 1] y_{t+1-j}, one step at a time."""
    values = list(y)
    for _ in range(h):
        values.append(intercept + sum(a * values[-1 - j] for j, a in enumerate(coefs)))
    return np.array(values[len(y):])
