"""Mixed scalar/functional panels stored as basis coefficients.

Every series lives in its own Hilbert space, described by a basis dimension
and a Gram matrix of basis inner products.  All panel-level quantities
(inner products, the T x T panel Gram matrix, centering) are computed in
coefficient space, so scalar series, orthonormal functional bases and
non-orthonormal bases (e.g. B-splines) are handled uniformly.

A panel is stored as one stacked (total_dim, T) matrix: the rows of series
``i`` are ``offsets[i]:offsets[i + 1]`` and column ``t`` is the panel at time
``t``.  Per-series coefficient blocks are views into it.  The panel's JSON
and CSV files are read and written by ``files``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

SCALAR = "scalar"
FUNCTIONAL = "functional"

_GRAM_SYM_RTOL = 1e-12
# The byte budget of one stacked call: the selection's subpanel Grams, the AR
# fits' lag matrices, the whitening and CF runs are cut into stacks of at
# most this many bytes (``stack_runs``), so batching bounds the extra memory.
# At 1 MiB a stack holds three 200 x 200 Grams.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class SpaceSpec:
    """Description of one series' Hilbert space.

    Parameters
    ----------
    kind : str
        ``"scalar"`` or ``"functional"``.
    dim : int
        Basis dimension (1 for scalar series).
    gram : ndarray of shape (dim, dim)
        Symmetric positive-definite matrix of basis inner products.
        Identity for scalar series and orthonormal functional bases.
    """

    kind: str
    dim: int
    gram: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)
    is_identity_gram: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in (SCALAR, FUNCTIONAL):
            raise ValueError(f"unknown space kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        gram = np.asarray(self.gram, dtype=float)
        if gram.shape != (self.dim, self.dim):
            raise ValueError(f"gram must be {self.dim}x{self.dim}, got {gram.shape}")
        if not np.isfinite(gram).all():
            raise ValueError("gram matrix has a non-finite entry")
        scale = max(1.0, float(np.abs(gram).max()))
        if np.abs(gram - gram.T).max() > _GRAM_SYM_RTOL * scale:
            raise ValueError("gram matrix is not symmetric")
        gram = 0.5 * (gram + gram.T)
        try:
            chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError("gram matrix is not positive definite") from None
        if self.kind == SCALAR:
            if self.dim != 1:
                raise ValueError("scalar series must have dim=1")
            if abs(gram[0, 0] - 1.0) > _GRAM_SYM_RTOL:
                raise ValueError("scalar series must have gram [[1]]")
        gram.flags.writeable = False
        chol.flags.writeable = False
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "chol", chol)
        object.__setattr__(self, "is_identity_gram", bool(np.array_equal(gram, np.eye(self.dim))))

    def matches(self, other: "SpaceSpec") -> bool:
        """Structural equality: same kind, dimension, and Gram matrix."""
        return (
            self.kind == other.kind
            and self.dim == other.dim
            and np.allclose(self.gram, other.gram, rtol=1e-12, atol=1e-12)
        )


def scalar_space() -> SpaceSpec:
    """The space of a scalar time series."""
    return SpaceSpec(SCALAR, 1, np.eye(1))


def functional_space(dim: int, gram: np.ndarray | None = None) -> SpaceSpec:
    """A functional series represented in a ``dim``-dimensional basis."""
    if gram is None:
        gram = np.eye(dim)
    return SpaceSpec(FUNCTIONAL, dim, gram)


def block_offsets(spaces: Sequence[SpaceSpec]) -> np.ndarray:
    """Row offsets of each series' block in the stacked layout (length N + 1)."""
    return np.cumsum([0] + [s.dim for s in spaces])


def split_stacked(offsets: np.ndarray, stacked: np.ndarray) -> tuple:
    """Per-series views ``stacked[offsets[i]:offsets[i + 1]].T`` of a stacked array."""
    return tuple(stacked[a:b].T for a, b in zip(offsets[:-1], offsets[1:]))


def whiten_stacked(spaces: Sequence[SpaceSpec], stacked: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Whiten (or, with ``inverse``, unwhiten) the rows of a stacked (total_dim, m) matrix.

    Series ``i``'s block a becomes L_i' a, where G_i = L_i L_i', so that H_N
    inner products are Euclidean.  Each run of consecutive series with
    bitwise-equal Cholesky factors is one ``matmul`` (``solve``) over an
    (n, dim, m) view, bitwise the per-series products.  When every Gram is the
    identity the input is returned unchanged, without a copy; otherwise the
    result is a new C-ordered array.
    """
    if all(s.is_identity_gram for s in spaces):
        return stacked
    offsets, m = block_offsets(spaces), stacked.shape[1]
    out = np.empty(stacked.shape)
    keys = [(s.dim, s.chol.tobytes()) for s in spaces]
    for lo, hi in stack_runs(keys, lambda key: 8 * key[0] * m):
        spec, a, b = spaces[lo], offsets[lo], offsets[hi]
        rows = stacked[a:b].reshape(hi - lo, spec.dim, m)
        if spec.is_identity_gram:
            out[a:b] = stacked[a:b]
        elif inverse:
            out[a:b] = np.linalg.solve(spec.chol.T, rows).reshape(b - a, m)
        else:
            np.matmul(spec.chol.T, rows, out=out[a:b].reshape(rows.shape))
    return out


def stack_runs(keys: Sequence, nbytes: Callable) -> list:
    """(start, stop) of every run of equal consecutive ``keys``, cut so that a
    stack of its items takes at most ``_CHUNK_BYTES``, ``nbytes(key)`` per item
    (one item at least; items of no bytes are capped as if of one): the pieces
    one stacked LAPACK or BLAS call takes."""
    runs, lo = [], 0
    while lo < len(keys):
        cap = max(1, _CHUNK_BYTES // max(1, nbytes(keys[lo])))
        hi = lo + 1
        while hi < len(keys) and hi - lo < cap and keys[hi] == keys[lo]:
            hi += 1
        runs.append((lo, hi))
        lo = hi
    return runs


class Panel:
    """An N x T panel of coefficient vectors plus the per-series spaces.

    ``coeffs[i]`` is a ``(T, dim_i)`` array whose row ``t`` holds the
    coefficients of series ``i`` at time ``t``; it is a read-only view into
    the stacked (total_dim, T) matrix.  Panels are immutable; all
    operations return new panels.
    """

    def __init__(self, spaces: Sequence[SpaceSpec], coeffs: Sequence[np.ndarray]):
        spaces = tuple(spaces)
        if len(coeffs) != len(spaces):
            raise ValueError("coeffs and spaces length mismatch")
        blocks = []
        for i, (spec, block) in enumerate(zip(spaces, coeffs)):
            block = np.asarray(block, dtype=float)
            if block.ndim == 1:
                block = block[:, None]
            if block.ndim != 2 or block.shape[1] != spec.dim:
                raise ValueError(
                    f"series {i}: coefficient block has shape {block.shape}, "
                    f"expected (T, {spec.dim})"
                )
            if blocks and block.shape[0] != blocks[0].shape[0]:
                raise ValueError(f"series {i}: time length {len(block)} != {len(blocks[0])} of series 0")
            blocks.append(block)
        # the transpose of a C-ordered (T, total_dim) concatenation is the
        # column-major stacked matrix: one copy, whatever the blocks' order
        stacked = np.empty((0, 0))
        if blocks:
            out = np.empty((blocks[0].shape[0], sum(spec.dim for spec in spaces)))
            stacked = np.concatenate(blocks, axis=1, out=out).T
        self._init_stacked(spaces, stacked)

    @classmethod
    def from_stacked(cls, spaces: Sequence[SpaceSpec], stacked: np.ndarray) -> "Panel":
        """Panel over a copy of a (total_dim, T) raw-coefficient matrix."""
        return cls._adopt(spaces, np.array(stacked, dtype=float, order="F"))

    @classmethod
    def _adopt(cls, spaces: Sequence[SpaceSpec], stacked: np.ndarray) -> "Panel":
        """Panel that takes ownership of ``stacked`` (made read-only), without a
        copy when it is a column-major float array; only for arrays the caller
        has just computed and holds no other reference to."""
        panel = cls.__new__(cls)
        panel._init_stacked(tuple(spaces), stacked)
        return panel

    def _init_stacked(self, spaces: tuple, stacked: np.ndarray) -> None:
        """Validate and own ``stacked``, copied only if it is not a column-major
        float array: one layout for every panel, so identical numbers give
        identical sums (means, Grams) whichever constructor ran."""
        if not spaces:
            raise ValueError("panel needs at least one series")
        stacked = np.asarray(stacked, dtype=float, order="F")
        offsets = block_offsets(spaces)
        if stacked.ndim != 2 or stacked.shape[0] != offsets[-1]:
            raise ValueError(f"stacked coefficients have shape {stacked.shape}, "
                             f"expected ({offsets[-1]}, T)")
        if stacked.shape[1] < 2:
            raise ValueError("panel needs T >= 2")
        if not np.isfinite(stacked).all():
            row, t = np.argwhere(~np.isfinite(stacked))[0]
            i = int(np.searchsorted(offsets, row, side="right")) - 1
            raise ValueError(f"series {i}: non-finite coefficient at time {t}")
        stacked.flags.writeable = False
        self.spaces = spaces
        self.offsets = offsets
        self.coeffs = split_stacked(offsets, stacked)
        self.N = len(spaces)
        self.T = stacked.shape[1]
        self.total_dim = stacked.shape[0]
        self._raw = stacked
        self._white = None
        self._spectrum = None

    @property
    def dims(self) -> tuple:
        return tuple(s.dim for s in self.spaces)

    def stacked_coeffs(self) -> np.ndarray:
        """(total_dim, T) read-only matrix of raw coefficients; columns are x_t."""
        return self._raw

    def stacked_white(self) -> np.ndarray:
        """(total_dim, T) read-only matrix of whitened coefficients; columns are x_t.

        In these coordinates the H_N inner product of two time slices is
        the Euclidean inner product of the corresponding columns.  It is the
        raw matrix itself when every Gram is the identity.
        """
        if self._white is None:
            white = whiten_stacked(self.spaces, self._raw)
            white.flags.writeable = False
            self._white = white
        return self._white

    def gram_spectrum(self) -> tuple:
        """Eigenvalues (descending), eigenvectors and trace of ``gram_matrix(self)``.

        The Gram and its eigendecomposition are computed once per panel;
        factor fits of every order, V(k) and fixed-c selection all read it.
        """
        if self._spectrum is None:
            F = gram_matrix(self)
            vals, vecs = np.linalg.eigh(F)
            vals, vecs = vals[::-1], vecs[:, ::-1]
            vals.flags.writeable = False
            vecs.flags.writeable = False
            self._spectrum = (vals, vecs, float(np.trace(F)))
        return self._spectrum

    def __repr__(self):
        return f"Panel(N={self.N}, T={self.T}, dims={self.dims})"


def spaces_match(a: Sequence[SpaceSpec], b: Sequence[SpaceSpec]) -> bool:
    """Structural equality of two space sequences; shared spec objects match at once."""
    return len(a) == len(b) and all(x is y or x.matches(y) for x, y in zip(a, b))


def gram_matrix(panel: Panel) -> np.ndarray:
    """T x T panel Gram matrix with entries <x_s, x_t> / N."""
    Z = panel.stacked_white()
    return (Z.T @ Z) / panel.N  # one symmetric rank-k update, mirrored: exactly symmetric


def center(panel: Panel) -> tuple:
    """Subtract each series' time-average coefficient vector.

    Returns the centered panel and the removed means: a tuple holding one
    (dim_i,) mean vector per series.
    """
    mu = panel.stacked_coeffs().mean(axis=1)
    return _minus(panel, mu[:, None]), split_stacked(panel.offsets, mu)


def _minus(panel: Panel, M: np.ndarray) -> Panel:
    """Panel of ``panel``'s stacked coefficients minus ``M`` (broadcast), which
    adopts the difference it computes in the panel's layout instead of copying it."""
    return Panel._adopt(panel.spaces, np.subtract(panel.stacked_coeffs(), M, order="F"))
