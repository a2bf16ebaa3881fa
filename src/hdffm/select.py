"""Selection of the number of factors.

Provides the two penalty functions adapted to mixed functional panels,
the tuned information criterion IC(c, k) = V(k) + c*k*g(N, T), the plain
argmin selector at fixed c, and the permutation/subpanel tuning procedure
that scans a grid of c values, tracks the variance of the selected count
across nested subpanels, and picks c in the middle of the second
zero-variance plateau of that profile.  The sweep's permutations run on
threads under the one core cap of a command, ``thread_cap()``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .estimate import v_profile
from .panel import _CHUNK_BYTES, Panel, stack_runs

IC1A = "IC1a"
IC2A = "IC2a"
PENALTY_KINDS = (IC1A, IC2A)
# the tuning sweep's grid of c values: 0, 0.05, ..., 10
C_GRID = np.round(np.arange(0.0, 10.0 + 1e-9, 0.05), 10)


def thread_cap() -> int:
    """The cores one command may use: ``HDFFM_THREADS``, read at every call,
    or by default the CPUs this process may run on."""
    value = os.environ.get("HDFFM_THREADS")
    if not value:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"HDFFM_THREADS must be a positive integer, got {value!r}")
    return cap


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


def _r_hat_profile(v: np.ndarray, g, c_grid: np.ndarray, k_max: int) -> np.ndarray:
    """argmin_k of V(k) + c*k*g for every c in the grid (ties -> smallest k).

    ``v`` (..., k_max + 1) and ``g`` broadcast over their leading axes; the
    result (..., len(c_grid)) runs over the grid along its last axis.
    """
    ks = np.arange(1, k_max + 1)
    ic = v[..., None, 1:] + c_grid[:, None] * (ks * np.asarray(g)[..., None, None])
    return np.argmin(ic, axis=-1) + 1


def _check_k_max(k_max: int, bound: int) -> None:
    """Reject a k_max outside 1..bound, the rank bound min(D, T) of a panel."""
    if not 1 <= k_max <= bound:
        raise ValueError(f"k_max={k_max} out of range for this panel")


def _full_panel_profile(panel: Panel, c_grid: np.ndarray, kind: str, k_max: int) -> np.ndarray:
    """argmin_k of IC(c, k) on the full panel for every c in the grid, read
    from the panel's cached Gram spectrum."""
    _check_k_max(k_max, min(panel.total_dim, panel.T))
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
    idx = np.flatnonzero(zero_var)
    if not idx.size:
        return []
    # a run ends before a gap in the indices or a change of the count
    cut = np.flatnonzero((np.diff(idx) != 1) | (np.diff(r_common[idx]) != 0))
    starts, ends = idx[np.concatenate([[0], cut + 1])], idx[np.concatenate([cut, [-1]])]
    return [(int(a), int(b), int(r_common[a])) for a, b in zip(starts, ends)]


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


def _subpanel_spectra(Z: np.ndarray, offsets: np.ndarray, perm: np.ndarray, n_sub: np.ndarray,
                      t_sub: np.ndarray, k_max: int) -> tuple:
    """The k_max largest eigenvalues (descending), (J - 1, k_max), and the
    traces, (J - 1,), of the Grams of the subpanels j: the first n_sub[j]
    series of ``perm`` over the first t_sub[j] periods of the whitened
    (total_dim, T) matrix ``Z`` with series row ``offsets``.

    Nested series sums S_n = sum_{i in perm[:n]} Z_i' Z_i are accumulated
    checkpoint by checkpoint; the Gram is the leading t_j x t_j block of
    S_n / n.  The Grams of consecutive subpanels of one t_j are solved by one
    ``eigvalsh`` on their stack, cut to the byte budget of ``stack_runs``.
    """
    dims = np.diff(offsets)[perm]
    off = np.concatenate([[0], np.cumsum(dims)])  # row offsets of the permuted series
    d_sub = off[n_sub]
    bad = np.flatnonzero(k_max > np.minimum(d_sub, t_sub))
    if bad.size:
        j = bad[0]
        raise ValueError(f"k_max={k_max} exceeds the rank bound min({d_sub[j]}, {t_sub[j]}) "
                         f"of subpanel {j + 1}")
    rows = np.repeat(offsets[:-1][perm] - off[:-1], dims) + np.arange(off[-1])
    S = np.zeros((Z.shape[1], Z.shape[1]))
    done = 0
    top, traces = np.empty((n_sub.size, k_max)), np.empty(n_sub.size)

    def add_series(n):
        """S += Z_i' Z_i over the permuted series done..n - 1."""
        nonlocal done
        if n > done:
            block = Z[rows[off[done] : off[n]]]
            np.add(S, block.T @ block, out=S)
            done = n

    for lo, hi in stack_runs(t_sub.tolist(), lambda t: 8 * t * t):
        t = t_sub[lo]
        # the first checkpoint's block, the largest, is freed before the stack
        # is allocated, and the stack before the next one is
        add_series(n_sub[lo])
        F = np.empty((hi - lo, t, t))
        for j in range(lo, hi):
            add_series(n_sub[j])
            np.divide(S[:t, :t], n_sub[j], out=F[j - lo])
        top[lo:hi] = np.linalg.eigvalsh(F)[:, ::-1][:, :k_max]
        traces[lo:hi] = np.trace(F, axis1=1, axis2=2)
        del F
    return top, traces


def _run_in_order(tasks: list, threads: int) -> list:
    """The results of ``tasks``, in order, on ``threads`` threads of a pool that
    lives for this call (none for one): the first failing task in order raises."""
    if threads == 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(threads) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [future.result() for future in futures]


def abc_select_r(panel: Panel, cfg: AbcConfig, kind: str = IC2A) -> tuple:
    """Tuned selection of the number of factors.

    For each permutation p, selects r on every (c, subpanel) pair (the last
    subpanel, the full panel, is the fixed-c selection on the panel's own
    Gram spectrum for every p), locates the second zero-variance plateau of
    the variance-over-subpanels profile, evaluates r at the plateau's middle
    c on the full panel, and returns the lower median across permutations
    together with the full trace.  The permutations' spectra and the panel's
    own are computed on up to ``thread_cap()`` threads where the Grams are
    large; the results, gathered in order, do not depend on the thread count.
    """
    sizes = cfg.subpanel_sizes or nested_subpanel_sizes(panel.N, panel.T)
    if sizes[-1] != (panel.N, panel.T):
        raise ValueError(f"last subpanel size {sizes[-1]} must equal (N, T)=({panel.N}, {panel.T})")
    for n_j, t_j in sizes:
        if not 1 <= n_j <= panel.N or not 2 <= t_j <= panel.T:
            raise ValueError(f"invalid subpanel size {(n_j, t_j)}")
    c_grid = C_GRID.copy()  # the trace keeps its own
    I, J, P, k_max = c_grid.size, len(sizes), cfg.P, cfg.k_max
    n_sub = np.array([n for n, _ in sizes[:-1]], dtype=int)
    t_sub = np.array([t for _, t in sizes[:-1]], dtype=int)

    # before any task runs, as in the serial order
    _check_k_max(k_max, min(panel.total_dim, panel.T))
    permutations = [np.random.default_rng(cfg.rng_seed + p).permutation(panel.N) for p in range(P)]
    Z = panel.stacked_white()  # materialised once, before the tasks share it
    tasks = [panel.gram_spectrum] + [
        partial(_subpanel_spectra, Z, panel.offsets, perm, n_sub, t_sub, k_max)
        for perm in permutations]
    # threads pay only when one permutation's Grams fill a stack budget: its
    # eigvalsh stacks then hold several Grams, and numpy releases the GIL there
    cap = thread_cap()
    threads = min(cap, P + 1) if 8 * int(np.square(t_sub).sum()) >= _CHUNK_BYTES else 1
    spectra = _run_in_order(tasks, threads)[1:]

    r_table = np.zeros((I, J, P), dtype=int)
    # the last subpanel is the full panel whatever the permutation: its
    # column comes from the panel's own spectrum, the one the fit reads
    r_table[:, -1, :] = _full_panel_profile(panel, c_grid, kind, k_max)[:, None]
    top, traces = (np.stack(a) for a in zip(*spectra))  # (P, J - 1, k_max), (P, J - 1)
    v = v_profile(top, traces, t_sub, k_max)  # (P, J - 1, k_max + 1)
    g = np.array([penalty(kind, n_j, t_j) for n_j, t_j in sizes[:-1]])
    r_table[:, :-1, :] = _r_hat_profile(v, g, c_grid, k_max).T

    variance = r_table.var(axis=1)  # (I, P)
    zero_var = np.all(r_table == r_table[:, :1], axis=1)  # (I, P)
    plateaus, chosen_idx, fallback, r_per_p = [], [], [], []
    for p in range(P):
        r_common = r_table[:, -1, p]
        runs = _zero_variance_runs(r_common, zero_var[:, p])
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
