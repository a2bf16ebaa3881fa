"""Selection of the number of factors.

Provides the two penalty functions adapted to mixed functional panels,
the tuned information criterion IC(c, k) = V(k) + c*k*g(N, T), the plain
argmin selector at fixed c, and the permutation/subpanel tuning procedure
that scans a grid of c values, tracks the variance of the selected count
across nested subpanels, and picks c in the middle of the second
zero-variance plateau of that profile.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .estimate import goodness_of_fit, v_profile
from .panel import Panel

IC1A = "IC1a"
IC2A = "IC2a"
PENALTY_KINDS = (IC1A, IC2A)
# the tuning sweep's grid of c values: 0, 0.05, ..., 10
C_GRID = np.round(np.arange(0.0, 10.0 + 1e-9, 0.05), 10)


def penalty(kind: str, N: int, T: int) -> float:
    """Penalty g(N, T) of the IC1a / IC2a criteria.

    IC1a: sqrt((N+T)/(NT)) * log(NT/(N+T))
    IC2a: sqrt((N+T)/(NT)) * log(min(N, T))
    """
    if kind not in PENALTY_KINDS:
        raise ValueError(f"unknown penalty kind {kind!r}")
    if N < 2 or T < 2:
        raise ValueError("penalty requires N, T >= 2")
    rate = math.sqrt((N + T) / (N * T))
    if kind == IC1A:
        ratio = N * T / (N + T)
        if ratio <= 1.0:
            raise ValueError("IC1a penalty undefined: NT/(N+T) <= 1")
        return rate * math.log(ratio)
    return rate * math.log(min(N, T))


def ic_value(panel: Panel, k: int, c: float, kind: str = IC2A) -> float:
    """Tuned information criterion V(k) + c * k * g(N, T)."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    return goodness_of_fit(panel, k) + c * k * penalty(kind, panel.N, panel.T)


def _r_hat_profile(v: np.ndarray, g: float, c_grid: np.ndarray, k_max: int) -> np.ndarray:
    """argmin_k of V(k) + c*k*g for every c in the grid (ties -> smallest k)."""
    ks = np.arange(1, k_max + 1)
    ic = v[None, 1:] + np.outer(c_grid, ks * g)
    return np.argmin(ic, axis=1) + 1


def _full_panel_profile(panel: Panel, c_grid: np.ndarray, kind: str, k_max: int) -> np.ndarray:
    """argmin_k of IC(c, k) on the full panel for every c in the grid, read
    from the panel's cached Gram spectrum."""
    if not 1 <= k_max <= min(panel.total_dim, panel.T):
        raise ValueError(f"k_max={k_max} out of range for this panel")
    vals, _, trace = panel.gram_spectrum()
    v = v_profile(vals, trace, panel.T, k_max)
    return _r_hat_profile(v, penalty(kind, panel.N, panel.T), c_grid, k_max)


def select_r_fixed(panel: Panel, c: float, kind: str = IC2A, k_max: int = 10) -> int:
    """Smallest k in 1..k_max minimizing IC(c, k) on the full panel."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    return int(_full_panel_profile(panel, np.asarray([c], dtype=float), kind, k_max)[0])


def nested_subpanel_sizes(N: int, T: int, J: int = 10) -> tuple:
    """Nested subpanel sizes N_j = floor(4N/5 + N(j-1)/45), T_j = T.

    The last entry is pinned to (N, T): the formula gives exactly N at j=J
    (4/5 + 9/45 = 1) but floating-point floor must not be trusted there.
    """
    sizes = [(int(math.floor(4 * N / 5 + N * (j - 1) / 45)), T) for j in range(1, J)]
    sizes.append((N, T))
    return tuple(sizes)


@dataclass(frozen=True)
class AbcConfig:
    """Configuration of the permutation/subpanel tuning sweep."""

    k_max: int = 10
    P: int = 5
    subpanel_sizes: tuple = ()
    rng_seed: int = 0

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if self.P < 1:
            raise ValueError("P must be >= 1")
        sizes = tuple((int(n), int(t)) for n, t in self.subpanel_sizes)
        ns = [n for n, _ in sizes]
        if ns and any(b < a for a, b in zip(ns, ns[1:])):
            raise ValueError("subpanel N_j must be nondecreasing")
        object.__setattr__(self, "subpanel_sizes", sizes)

    @classmethod
    def for_panel(cls, N: int, T: int, rng_seed: int = 0, k_max: int = 10, P: int = 5) -> "AbcConfig":
        """The reference configuration for an N x T panel."""
        return cls(k_max=k_max, P=P, subpanel_sizes=nested_subpanel_sizes(N, T), rng_seed=rng_seed)


@dataclass
class SelectionTrace:
    """Everything the tuning sweep computed, for diagnostics and audits."""

    c_grid: np.ndarray
    subpanel_sizes: tuple
    permutations: list
    r_hat_table: np.ndarray  # (I, J, P)
    variance_profile: np.ndarray  # (I, P)
    plateaus: list  # per p: list of (start_idx, end_idx, r_value), inclusive
    chosen_c_index: list  # per p
    fallback: list  # per p: None | "min_variance" | "fixed_c1"
    r_hat_per_p: list
    r_hat_final: int = 0

    @property
    def chosen_c(self) -> list:
        return [None if i is None else float(self.c_grid[i]) for i in self.chosen_c_index]

    def to_dict(self, manifest: dict | None = None) -> dict:
        out = {
            "c_grid": self.c_grid.tolist(),
            "subpanel_sizes": [list(s) for s in self.subpanel_sizes],
            "permutations": [list(map(int, p)) for p in self.permutations],
            "r_hat_table": self.r_hat_table.tolist(),
            "variance_profile": self.variance_profile.tolist(),
            "plateaus": self.plateaus,
            "chosen_c_index": self.chosen_c_index,
            "chosen_c": self.chosen_c,
            "fallback": self.fallback,
            "r_hat_per_p": self.r_hat_per_p,
            "r_hat_final": self.r_hat_final,
        }
        if manifest is not None:
            out["manifest"] = manifest
        return out

    def save(self, path, manifest: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(manifest), fh)

    def save_variance_csv(self, path) -> None:
        P = self.variance_profile.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["c"] + [f"var_p{p + 1}" for p in range(P)])
            for i, c in enumerate(self.c_grid):
                writer.writerow([c] + [repr(v) for v in self.variance_profile[i]])


def _zero_variance_runs(r_common: np.ndarray, zero_var: np.ndarray) -> list:
    """Maximal runs of consecutive grid indices with zero variance across
    subpanels and a constant selected count.  Returns (start, end, value)
    triples with inclusive ends."""
    runs = []
    i, I = 0, zero_var.size
    while i < I:
        if not zero_var[i]:
            i += 1
            continue
        j = i
        while j + 1 < I and zero_var[j + 1] and r_common[j + 1] == r_common[i]:
            j += 1
        runs.append((i, j, int(r_common[i])))
        i = j + 1
    return runs


def _second_plateau(runs: list, k_max: int) -> tuple | None:
    """The plateau to read r off: normally the first run (length >= 2) after
    the run containing c=0, where the criterion degenerates to r = k_max.
    On exact low-rank panels the c=0 run already sits below k_max (V ties are
    broken toward the smallest k); that run then is the stability plateau
    itself.  Returns None if no qualifying plateau exists."""
    run0 = next((r for r in runs if r[0] == 0), None)
    if run0 is not None and run0[2] != k_max and run0[1] - run0[0] + 1 >= 2:
        return run0
    first_end = run0[1] if run0 is not None else -1
    for start, end, value in runs:
        if start > first_end and end - start + 1 >= 2:
            return (start, end, value)
    return None


def abc_select_r(panel: Panel, cfg: AbcConfig, kind: str = IC2A) -> tuple:
    """Tuned selection of the number of factors.

    For each permutation p, selects r on every (c, subpanel) pair (the last
    subpanel, the full panel, is the fixed-c selection on the panel's own
    Gram spectrum for every p), locates the second zero-variance plateau of
    the variance-over-subpanels profile, evaluates r at the plateau's middle
    c on the full panel, and returns the lower median across permutations
    together with the full trace.
    """
    sizes = cfg.subpanel_sizes or nested_subpanel_sizes(panel.N, panel.T)
    if sizes[-1] != (panel.N, panel.T):
        raise ValueError(f"last subpanel size {sizes[-1]} must equal (N, T)=({panel.N}, {panel.T})")
    for n_j, t_j in sizes:
        if not 1 <= n_j <= panel.N or not 2 <= t_j <= panel.T:
            raise ValueError(f"invalid subpanel size {(n_j, t_j)}")
    c_grid = C_GRID.copy()  # the trace keeps its own
    I, J, P, k_max = c_grid.size, len(sizes), cfg.P, cfg.k_max

    Z = panel.stacked_white()
    off = panel.offsets
    dims = np.diff(off)

    r_table = np.zeros((I, J, P), dtype=int)
    # the last subpanel is the full panel whatever the permutation: its
    # column comes from the panel's own spectrum, the one the fit reads
    r_table[:, -1, :] = _full_panel_profile(panel, c_grid, kind, k_max)[:, None]
    permutations = []
    for p in range(P):
        rng = np.random.default_rng(cfg.rng_seed + p)
        perm = rng.permutation(panel.N)
        permutations.append(perm)
        # Nested series sums: S_n = sum_{i in perm[:n]} Z_i' Z_i, checkpointed
        # at each N_j; the T_j x T_j Gram is the leading block of S_n / n.
        S = np.zeros((panel.T, panel.T))
        done = 0
        for j, (n_j, t_j) in enumerate(sizes[:-1]):
            if n_j > done:
                block = np.concatenate([Z[off[i] : off[i + 1]] for i in perm[done:n_j]], axis=0)
                S += block.T @ block
                done = n_j
            D_j = int(dims[perm[:n_j]].sum())
            if k_max > min(D_j, t_j):
                raise ValueError(
                    f"k_max={k_max} exceeds the rank bound min({D_j}, {t_j}) of subpanel {j + 1}"
                )
            F_j = S[:t_j, :t_j] / n_j
            v = v_profile(np.linalg.eigvalsh(F_j)[::-1], float(np.trace(F_j)), t_j, k_max)
            g = penalty(kind, n_j, t_j)
            r_table[:, j, p] = _r_hat_profile(v, g, c_grid, k_max)

    variance = r_table.var(axis=1)  # (I, P)
    plateaus, chosen_idx, fallback, r_per_p = [], [], [], []
    for p in range(P):
        zero_var = np.all(r_table[:, :, p] == r_table[:, :1, p], axis=1)
        r_common = r_table[:, -1, p]
        runs = _zero_variance_runs(r_common, zero_var)
        plateaus.append([list(r) for r in runs if r[1] - r[0] + 1 >= 2])
        second = _second_plateau(runs, k_max)
        if second is not None:
            start, end, _ = second
            idx = (start + end) // 2
            chosen_idx.append(int(idx))
            fallback.append(None)
            r_per_p.append(int(r_table[idx, -1, p]))
        else:
            candidates = np.nonzero(r_table[:, -1, p] < k_max)[0]
            if candidates.size:
                best = candidates[np.argmin(variance[candidates, p])]
                chosen_idx.append(int(best))
                fallback.append("min_variance")
                r_per_p.append(int(r_table[best, -1, p]))
            else:
                chosen_idx.append(None)
                fallback.append("fixed_c1")
                r_per_p.append(select_r_fixed(panel, 1.0, kind, k_max))

    r_sorted = sorted(r_per_p)
    r_final = int(r_sorted[(P - 1) // 2])
    trace = SelectionTrace(
        c_grid=c_grid,
        subpanel_sizes=tuple(sizes),
        permutations=permutations,
        r_hat_table=r_table,
        variance_profile=variance,
        plateaus=plateaus,
        chosen_c_index=chosen_idx,
        fallback=fallback,
        r_hat_per_p=r_per_p,
        r_hat_final=r_final,
    )
    return r_final, trace
