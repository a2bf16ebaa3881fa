"""Plain-loop references written from the model, for the pipeline's own code.

Each series i of a panel is a curve x_it in its own space, with coefficient
vector x_it and basis Gram G_i, so <x_is, x_it> = x_is' G_i x_it.  The panel
Gram is F[s, t] = (1/N) sum_i <x_is, x_it>; V(k) is the mean squared norm of
what is left after projecting every series on the k leading eigenvectors of
F in time, and the IC2a criterion is IC(c, k) = V(k) + c k g(N, T) with
g = sqrt((N + T)/(NT)) log(min(N, T)).  Nothing here stacks or whitens the
panel or reads its cached spectrum: only ``panel.coeffs`` and each space's
``gram`` are used.
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


def ic2a_penalty(N: int, T: int) -> float:
    return math.sqrt((N + T) / (N * T)) * math.log(min(N, T))


def ic2a_criteria(panel, c_grid, k_max: int) -> np.ndarray:
    """IC(c, k) for every c of ``c_grid`` (rows) and k = 1..k_max (columns)."""
    v, g = v_of_k(panel, k_max), ic2a_penalty(panel.N, panel.T)
    return np.array([[v[k] + c * k * g for k in range(1, k_max + 1)] for c in c_grid])


def ic2a_r_hat(criteria: np.ndarray) -> np.ndarray:
    """The smallest k minimizing each row of ``ic2a_criteria``."""
    return np.array([min(range(row.size), key=lambda j: (row[j], j)) + 1 for row in criteria])
