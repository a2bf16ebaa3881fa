"""Mixed scalar/functional panels stored as basis coefficients.

Every series lives in its own Hilbert space, described by a basis dimension
and a Gram matrix of basis inner products.  All panel-level quantities
(inner products, the T x T panel Gram matrix, centering) are computed in
coefficient space, so scalar series, orthonormal functional bases and
non-orthonormal bases (e.g. B-splines) are handled uniformly.

A panel is stored as one stacked (total_dim, T) matrix: the rows of series
``i`` are ``offsets[i]:offsets[i + 1]`` and column ``t`` is the panel at time
``t``.  Per-series coefficient blocks are views into it.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

SCALAR = "scalar"
FUNCTIONAL = "functional"

_GRAM_SYM_RTOL = 1e-12


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


class MeanVector(tuple):
    """Per-series sample means, one coefficient vector per series."""

    @property
    def means(self) -> tuple:
        return tuple(self)


def block_offsets(spaces: Sequence[SpaceSpec]) -> np.ndarray:
    """Row offsets of each series' block in the stacked layout (length N + 1)."""
    return np.cumsum([0] + [s.dim for s in spaces])


def split_stacked(offsets: np.ndarray, stacked: np.ndarray) -> tuple:
    """Per-series views ``stacked[offsets[i]:offsets[i + 1]].T`` of a stacked array."""
    return tuple(stacked[a:b].T for a, b in zip(offsets[:-1], offsets[1:]))


def whiten_stacked(spaces: Sequence[SpaceSpec], stacked: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Whiten (or, with ``inverse``, unwhiten) the rows of a stacked (total_dim, m) matrix.

    Series ``i``'s block a becomes L_i' a, where G_i = L_i L_i', so that H_N
    inner products are Euclidean.  When every Gram is the identity the input
    is returned unchanged, without a copy.
    """
    if all(s.is_identity_gram for s in spaces):
        return stacked
    out = []
    for spec, block in zip(spaces, split_stacked(block_offsets(spaces), stacked)):
        rows = block.T  # (dim, m)
        if not spec.is_identity_gram:
            rows = np.linalg.solve(spec.chol.T, rows) if inverse else spec.chol.T @ rows
        out.append(rows)
    return np.concatenate(out, axis=0)


class Panel:
    """An N x T panel of coefficient vectors plus the per-series spaces.

    ``coeffs[i]`` is a ``(T, dim_i)`` array whose row ``t`` holds the
    coefficients of series ``i`` at time ``t``; it is a read-only view into
    the stacked (total_dim, T) matrix.  Panels are immutable; all
    operations return new panels.
    """

    def __init__(self, spaces: Sequence[SpaceSpec], coeffs: Sequence[np.ndarray]):
        spaces = tuple(spaces)
        if not spaces:
            raise ValueError("panel needs at least one series")
        if len(coeffs) != len(spaces):
            raise ValueError("coeffs and spaces length mismatch")
        rows = []
        for i, (spec, block) in enumerate(zip(spaces, coeffs)):
            block = np.asarray(block, dtype=float)
            if block.ndim == 1:
                block = block[:, None]
            if block.ndim != 2 or block.shape[1] != spec.dim:
                raise ValueError(
                    f"series {i}: coefficient block has shape {block.shape}, "
                    f"expected (T, {spec.dim})"
                )
            if rows and block.shape[0] != rows[0].shape[1]:
                raise ValueError(f"series {i}: time length {block.shape[0]} != {rows[0].shape[1]}")
            rows.append(block.T)
        self._init_stacked(spaces, np.concatenate(rows, axis=0))

    @classmethod
    def from_stacked(cls, spaces: Sequence[SpaceSpec], stacked: np.ndarray) -> "Panel":
        """Panel over a copy of a (total_dim, T) raw-coefficient matrix."""
        panel = cls.__new__(cls)
        panel._init_stacked(tuple(spaces), np.array(stacked, dtype=float))
        return panel

    def _init_stacked(self, spaces: tuple, stacked: np.ndarray) -> None:
        """Validate and adopt ``stacked``, which this panel then owns."""
        if not spaces:
            raise ValueError("panel needs at least one series")
        offsets = block_offsets(spaces)
        if stacked.ndim != 2 or stacked.shape[0] != offsets[-1]:
            raise ValueError(f"stacked coefficients have shape {stacked.shape}, "
                             f"expected ({offsets[-1]}, T)")
        if stacked.shape[1] < 2:
            raise ValueError("panel needs T >= 2")
        bad = np.argwhere(~np.isfinite(stacked))
        if bad.size:
            row, t = bad[0]
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


def inner_product(panel: Panel, s: int, t: int) -> float:
    """H_N inner product <x_s, x_t> = sum_i a_is' G_i a_it (0-based times)."""
    for u in (s, t):
        if not 0 <= u < panel.T:
            raise IndexError(f"time index {u} out of range [0, {panel.T})")
    Z = panel.stacked_white()
    return float(Z[:, s] @ Z[:, t])


def gram_matrix(panel: Panel) -> np.ndarray:
    """T x T panel Gram matrix with entries <x_s, x_t> / N."""
    Z = panel.stacked_white()
    F = (Z.T @ Z) / panel.N
    return 0.5 * (F + F.T)


def center(panel: Panel) -> tuple:
    """Subtract each series' time-average coefficient vector.

    Returns the centered panel and the removed means.
    """
    X = panel.stacked_coeffs()
    mu = X.mean(axis=1)
    return Panel.from_stacked(panel.spaces, X - mu[:, None]), MeanVector(split_stacked(panel.offsets, mu))


def add_means(panel: Panel, means: MeanVector) -> Panel:
    """Add per-series constant vectors back onto a panel."""
    if len(means) != panel.N:
        raise ValueError("means length does not match panel")
    mu = np.concatenate(means.means)
    return Panel.from_stacked(panel.spaces, panel.stacked_coeffs() + mu[:, None])


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def space_to_dict(spec: SpaceSpec) -> dict:
    out = {"kind": spec.kind, "dim": spec.dim}
    if not spec.is_identity_gram:
        out["gram"] = spec.gram.tolist()
    return out


def space_from_dict(d: dict) -> SpaceSpec:
    kind = d["kind"]
    dim = int(d["dim"])
    gram = np.asarray(d["gram"], dtype=float) if "gram" in d else np.eye(dim)
    return SpaceSpec(kind, dim, gram)


def panel_to_dict(panel: Panel, manifest: dict | None = None) -> dict:
    out = {
        "N": panel.N,
        "T": panel.T,
        "spaces": [space_to_dict(s) for s in panel.spaces],
        "coeffs": [c.tolist() for c in panel.coeffs],
    }
    if manifest is not None:
        out["manifest"] = manifest
    return out


def panel_from_dict(d: dict) -> Panel:
    spaces = [space_from_dict(s) for s in d["spaces"]]
    panel = Panel(spaces, [np.asarray(c, dtype=float) for c in d["coeffs"]])
    if panel.N != d["N"] or panel.T != d["T"]:
        raise ValueError("panel header does not match coefficient arrays")
    return panel


def save_panel(panel: Panel, path, manifest: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(panel_to_dict(panel, manifest), fh)


def load_panel(path) -> Panel:
    with open(path) as fh:
        return panel_from_dict(json.load(fh))


def load_scalar_csv(path) -> Panel:
    """Read an all-scalar panel from CSV laid out as N rows x T columns."""
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].startswith("#"):
                continue
            rows.append([float(v) for v in row])
    if not rows:
        raise ValueError("empty CSV panel")
    T = len(rows[0])
    if any(len(r) != T for r in rows):
        raise ValueError("ragged CSV panel")
    return Panel.from_stacked([scalar_space()] * len(rows), rows)
