"""Selection of the number of factors.

Provides the two penalty functions adapted to mixed functional panels,
the tuned information criterion IC(c, k) = V(k) + c*k*g(N, T), the plain
argmin selector at fixed c, and the permutation/subpanel tuning procedure
that scans a grid of c values, tracks the variance of the selected count
across nested subpanels, and picks c in the middle of the first
zero-variance plateau of that profile other than a run at c = 0 that
selects k_max (on an exact low-rank panel c = 0 selects fewer, and that run
is the one read).  The subpanels are a rule of the panel,
``nested_subpanel_sizes(N, T)``: ten nested sets of series, each over all T
periods.  One plain generator loop per permutation
(``_subpanel_spectra``) adds the permutation's series to one running sum
and fills eigensolve stacks of T x T Grams, one per distinct subpanel size,
from it as each task is taken.  Where a stack returns more than 500
eigenvalues, the stacks and the panel's own ``eigh`` run as tasks on up to
``thread_cap()`` threads (``run_in_order``), the only work a command runs
on threads: on t threads a selection holds one running sum (8T^2 bytes)
and at most t stacks, and its outputs are byte-identical at every cap.  The trace JSON
and variance CSV are written by ``files``.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .estimate import v_profile
from .panel import Panel, stack_runs

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


def select_r_fixed(panel: Panel, c: float, kind: str = IC2A, k_max: int = 10) -> int:
    """Smallest k in 1..k_max minimizing IC(c, k) on the panel's Gram spectrum."""
    g = _check_selection(panel.dims, panel.T, kind, k_max, c)[-1]
    vals, _, trace = panel.gram_spectrum()
    v = v_profile(vals, trace, panel.T, k_max)
    return int(_r_hat_profile(v, g[-1], np.asarray([c], dtype=float), k_max)[0])


def nested_subpanel_sizes(N: int, T: int) -> tuple:
    """Nested subpanel sizes N_j = floor(4N/5 + N(j-1)/45), T_j = T, j = 1..10.

    The last entry is pinned to (N, T): the formula gives exactly N at j=10
    (4/5 + 9/45 = 1) but floating-point floor must not be trusted there.
    """
    sizes = [(int(math.floor(4 * N / 5 + N * (j - 1) / 45)), T) for j in range(1, 10)]
    sizes.append((N, T))
    return tuple(sizes)


@dataclass(frozen=True)
class AbcConfig:
    """Configuration of the permutation/subpanel tuning sweep, whose subpanels
    are the panel's ``nested_subpanel_sizes``."""

    k_max: int = 10
    P: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.P < 1:
            raise ValueError("P must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@lru_cache(maxsize=8)
def _permutations(N: int, P: int, rng_seed: int) -> tuple:
    """The P permutations of a tuned selection of N series, drawn from seeds
    rng_seed..rng_seed + P - 1, whatever the panel's T.  Cached: a tuned
    forecast draws them twice (``_largest_k_max``, then ``_check_selection``),
    and every rolling origin of a series draws the same ones."""
    return tuple(np.random.default_rng(rng_seed + p).permutation(N) for p in range(P))


def _tuned_subpanels(dims, T: int, cfg: AbcConfig) -> tuple:
    """The subpanel sizes ``nested_subpanel_sizes(N, T)`` of a tuned selection
    with ``cfg`` on a panel of series of stacked dimensions ``dims`` over T
    periods, checked (N_1 >= 1, which a one-series panel fails), its
    permutations, the N_j of the proper subpanels, (J - 1,), and the row
    offsets of each permutation's series in permuted order, (P, N + 1), so
    ``off[:, n_sub]`` holds the stacked dimensions D_j of its subpanels.
    """
    dims = np.asarray(dims)
    N = dims.size
    sizes = nested_subpanel_sizes(N, T)
    if sizes[0][0] < 1:  # the N_j are nondecreasing
        raise ValueError(f"invalid subpanel size {sizes[0]}")
    permutations = [perm.copy() for perm in _permutations(N, cfg.P, cfg.rng_seed)]
    n_sub = np.array([n_j for n_j, _ in sizes[:-1]])
    off = np.zeros((cfg.P, N + 1), dtype=int)
    np.cumsum(dims[np.array(permutations)], axis=1, out=off[:, 1:])
    return sizes, permutations, n_sub, off


def _largest_k_max(dims, T: int, cfg: AbcConfig) -> int:
    """The largest k_max, up to ``cfg.k_max``, that a tuned selection with
    ``cfg`` accepts on a panel of series of stacked dimensions ``dims`` over
    T periods: the least rank bound min(D_j, T) of the panel and of every
    permutation's subpanels (D_j <= D).  Its subpanel sizes are checked
    first."""
    _, _, n_sub, off = _tuned_subpanels(dims, T, cfg)
    return int(min(cfg.k_max, T, off[:, n_sub].min()))


def _check_selection(dims, T: int, kind: str, k_max: int, tuning) -> tuple:
    """Everything a selection of up to ``k_max`` factors checks, before any
    eigensolve, on a panel of series of stacked dimensions ``dims`` over T
    periods; ``tuning`` is the c of a fixed selection or the ``AbcConfig`` of
    a tuned one (whose k_max is ``k_max``).  In order: a tuned selection's
    subpanel sizes (``_tuned_subpanels``), or a fixed selection's c (finite,
    >= 0); k_max against the panel's rank bound min(D, T); k_max against
    each permutation's subpanel rank bounds min(D_j, T), permutations in
    order; the ``kind`` penalty on the panel, then on each proper subpanel.

    Returns the subpanel sizes (the panel alone for a fixed selection), the
    permutations and their row offsets (none for a fixed selection), the N_j
    of the proper subpanels and the penalty of each size.
    """
    N, D = len(dims), int(sum(dims))
    if isinstance(tuning, AbcConfig):
        sizes, permutations, n_sub, off = _tuned_subpanels(dims, T, tuning)
    else:
        if not (math.isfinite(tuning) and tuning >= 0):
            raise ValueError(f"c must be nonnegative and finite, got {tuning!r}")
        sizes, permutations, n_sub, off = ((N, T),), [], np.zeros(0, int), np.zeros((0, 1), int)
    if not 1 <= k_max <= min(D, T):
        raise ValueError(f"k_max={k_max} out of range 1..{min(D, T)} for this panel")
    over = np.argwhere(k_max > off[:, n_sub])  # (p, j), permutation by permutation; k_max <= T
    if over.size:
        p, j = over[0]
        raise ValueError(f"k_max={k_max} exceeds the rank bound "
                         f"min({off[p, n_sub[j]]}, {T}) of subpanel {j + 1}")
    g_panel = penalty(kind, N, T)
    g = []
    for j, n_j in enumerate(n_sub.tolist()):
        try:
            g.append(penalty(kind, n_j, T))
        except ValueError as exc:
            raise ValueError(f"subpanel {j + 1} ({n_j} series x {T} periods): {exc}") from None
    return sizes, permutations, off, n_sub, np.array(g + [g_panel])


@dataclass
class SelectionTrace:
    """Everything the tuning sweep computed, for diagnostics and audits; a plain
    record, which ``files.save_trace`` and ``files.save_variance_csv`` write."""

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


def _read_c(r_full: np.ndarray, variance: np.ndarray, k_max: int) -> tuple:
    """Where one permutation reads r-hat off the grid, from the full-panel
    r-hat ``r_full`` and the variance over subpanels ``variance``, both (I,).

    The plateaus are the maximal runs of >= 2 consecutive c of zero variance
    and one count, as [start, end, r] with inclusive ends.  The chosen index
    is the middle of the first plateau, skipping the run at c = 0 where it
    selects k_max (there the criterion degenerates; on an exact low-rank
    panel that run lies below k_max and is the plateau itself).  Without one,
    it is the least-variance c where the full panel selects fewer than k_max
    ("min_variance"), and without such a c None ("fixed_c1": every c selects
    k_max).  Returns (plateaus, chosen index, fallback label).
    """
    key = np.where(variance == 0, r_full, 0)  # 0 marks nonzero variance; r >= 1
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    ends = np.append(starts[1:], key.size) - 1
    plateaus = [[int(a), int(b), int(key[a])] for a, b in zip(starts, ends) if key[a] and b > a]
    readable = [(a, b) for a, b, r in plateaus if a > 0 or r != k_max]
    if readable:
        start, end = readable[0]
        return plateaus, (start + end) // 2, None
    below = np.flatnonzero(r_full < k_max)
    if below.size:
        return plateaus, int(below[np.argmin(variance[below])]), "min_variance"
    return plateaus, None, "fixed_c1"


def _subpanel_spectra(Z: np.ndarray, offsets: np.ndarray, perm: np.ndarray, off: np.ndarray,
                      stacks: list, k_max: int):
    """The tasks of one permutation, in the order ``run_in_order`` takes
    them: for each stack of increasing subpanel sizes in ``stacks``, a task
    that returns the k_max largest eigenvalues (descending), (stack, k_max),
    and the traces, (stack,), of the T x T Grams of its subpanels: the first
    n_j series of ``perm``, whose rows start at ``off`` in permuted order, in
    the whitened (total_dim, T) matrix ``Z`` with series row ``offsets``.

    One loop runs as the tasks are taken.  For each stack, it adds each
    checkpoint's new series to the running sum S_n = sum_{i in perm[:n]}
    Z_i' Z_i and drops their rows, allocates the stack once its first
    checkpoint, the largest, is added, writes the Gram S_n / n_j into it,
    and yields a task that solves the stack by one ``eigvalsh``.  Only that
    task then holds the stack, so the next stack's sums can be accumulated
    while this one is solved; the running sum lives until every stack is
    taken.
    """
    rows = np.repeat(offsets[:-1][perm] - off[:-1], np.diff(off)) + np.arange(off[-1])
    T = Z.shape[1]
    S, done = np.zeros((T, T)), 0
    for n_stack in stacks:
        for i, n_j in enumerate(n_stack):  # S += Z_i' Z_i over the permuted series done..n_j - 1
            block = Z[rows[off[done] : off[n_j]]]
            np.add(S, block.T @ block, out=S)
            del block
            done = n_j
            if i == 0:  # once the first checkpoint's block, the largest, is dropped
                F = np.empty((len(n_stack), T, T))
            np.divide(S, n_j, out=F[i])
        yield partial(_stack_spectra, F, k_max)
        del F  # only the task holds the stack: it is freed once solved


def _stack_spectra(F: np.ndarray, k_max: int) -> tuple:
    """The k_max largest eigenvalues (descending) and the traces of a stack
    of Grams."""
    return np.linalg.eigvalsh(F)[:, ::-1][:, :k_max], np.trace(F, axis1=1, axis2=2)


def run_in_order(tasks: Iterable[Callable], threads: int) -> list:
    """The results of ``tasks`` (callables) in the order taken, run on
    ``threads`` threads made for this call (on the calling thread for one).

    Each thread takes the next task under one lock, then runs it outside the
    lock, until no task is left or one has failed.  Tasks are taken one at a
    time, in order, so taking one may use state that taking the one before
    left, such as a generator's running sum.  Once every task taken has
    ended, the first failure in the order taken raises; a take that fails
    counts as the last one.
    """
    tasks, lock = iter(tasks), threading.Lock()
    results, failures = [], {}  # per task taken, its result; by position, what raised

    def work():
        while True:
            with lock:
                if failures:
                    return
                i = len(results)
                try:
                    task = next(tasks)
                except StopIteration:
                    return
                except BaseException as exc:
                    failures[i] = exc
                    return
                results.append(None)
            try:
                results[i] = task()
            except BaseException as exc:
                with lock:
                    failures[i] = exc
            del task  # dropped before the next take: it may hold a stack

    if threads == 1:
        work()
    else:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    if failures:
        raise failures.pop(min(failures))  # popped: the traceback's frames hold the dict
    return results


def abc_select_r(panel: Panel, cfg: AbcConfig, kind: str = IC2A) -> tuple:
    """Tuned selection of the number of factors.

    For each permutation p, selects r on every (c, subpanel) pair (the last
    subpanel, the full panel, is the fixed-c selection on the panel's own
    Gram spectrum for every p), reads r on the full panel at the middle c of
    the first zero-variance plateau of the variance-over-subpanels profile
    other than a run at c = 0 that selects k_max (on an exact low-rank panel,
    that run itself), or at a fallback (``_read_c``), and returns the lower
    median across permutations together with the full trace.  Everything it
    checks is checked first (``_check_selection``).  A permutation solves one
    Gram per distinct proper subpanel size.  Where its first, largest,
    eigensolve stack returns more than 500 values, the panel's own spectrum
    and then every permutation's stacks (``_subpanel_spectra``) run as tasks
    of one iterator on up to ``thread_cap()`` threads: one running sum is
    held at a time, and at most one stack per thread.  The results, gathered
    in order, do not depend on the thread count.
    """
    sizes, perms, off, n_sub, g = _check_selection(panel.dims, panel.T, kind, cfg.k_max, cfg)
    c_grid = C_GRID.copy()  # the trace keeps its own
    P, T, k_max = cfg.P, panel.T, cfg.k_max
    # one Gram per distinct size (N <= 40 repeats them), the full panel's last:
    # subpanel j of each permutation reads its Gram column[j]
    n_gram, column = np.unique(np.append(n_sub, panel.N), return_inverse=True)
    stacks = [n_gram[lo:hi] for lo, hi in stack_runs([T] * (n_gram.size - 1),
                                                      lambda t: 8 * t * t)]

    Z = panel.stacked_white()  # materialised once, before the tasks share it
    tasks = chain([panel.gram_spectrum], chain.from_iterable(
        _subpanel_spectra(Z, panel.offsets, perm, off_p, stacks, k_max)
        for perm, off_p in zip(perms, off)))
    # threads pay only where the stacks' eigvalsh lets go of the GIL, which
    # numpy's does only for a call of more than 500 output values
    threads = min(thread_cap(), P + 1) if len(stacks[0]) * T > 500 else 1
    (vals, _, panel_trace), *spectra = run_in_order(tasks, threads)
    # the full panel is the last subpanel whatever the permutation: its
    # column comes from the panel's own spectrum, the one the fit reads
    top, traces = (np.concatenate(a) for a in zip(*spectra))
    top = np.append(top.reshape(P, -1, k_max), np.tile(vals[:k_max], (P, 1, 1)), axis=1)
    traces = np.append(traces.reshape(P, -1), np.full((P, 1), panel_trace), axis=1)
    v = v_profile(top[:, column], traces[:, column], T, k_max)  # (P, J, k_max + 1)
    r_table = np.ascontiguousarray(_r_hat_profile(v, g, c_grid, k_max).T)  # (I, J, P)
    r_full = r_table[:, -1, 0]

    variance = r_table.var(axis=1)  # (I, P)
    plateaus, chosen_idx, fallback = (list(a) for a in zip(
        *(_read_c(r_full, variance[:, p], k_max) for p in range(P))))
    # "fixed_c1": every c, c = 1 among them, selects k_max on the full panel
    r_per_p = [k_max if i is None else int(r_full[i]) for i in chosen_idx]

    r_final = sorted(r_per_p)[(P - 1) // 2]
    trace = SelectionTrace(
        c_grid=c_grid,
        subpanel_sizes=sizes,
        permutations=perms,
        r_hat_table=r_table,
        variance_profile=variance,
        plateaus=plateaus,
        chosen_c_index=chosen_idx,
        fallback=fallback,
        r_hat_per_p=r_per_p,
        r_hat_final=r_final,
    )
    return r_final, trace
