"""Dense finite-dimensional linear algebra.

Operators, adjoints, certified spectral-norm bounds, generalized inverses
and range projectors.  Vectors are plain 1-D ``numpy`` arrays; most
routines also accept batches shaped ``(..., dim)`` and act along the last
axis.  Every object is immutable after construction and every operation is
pure, so concurrent use needs no synchronization.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ShapeError

__all__ = [
    "DenseMap",
    "PseudoInverse",
    "as_vector",
    "pseudo_inverse_small",
]

_POWER_MAX_ITER = 10_000


def as_vector(x, dim=None):
    """Coerce ``x`` to a finite 1-D float array.

    Raises DimensionError when ``dim`` is given and does not match, and
    ValueError on NaN or infinite entries (extended values never live
    inside a point).
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


class DenseMap:
    """Dense linear operator between Euclidean spaces.

    Maps points of dimension ``cols`` to points of dimension ``rows``.
    Carries a lazily computed upper bound on the operator norm; once set,
    ``norm_bound`` certifies ``||Lx|| <= norm_bound * (1 + 1e-12)`` for all
    unit vectors ``x``.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ShapeError(f"matrix must be 2-D and nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        self.entries = a
        self._norm_bound = None
        self._norm_estimate = None

    @property
    def rows(self):
        return self.entries.shape[0]

    @property
    def cols(self):
        return self.entries.shape[1]

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    def apply(self, x):
        """Matrix-vector product ``Lx``; batched along the last axis."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.cols:
            raise DimensionError(
                f"operator expects dimension {self.cols}, got {x.shape[-1]}"
            )
        return x @ self.entries.T

    def adjoint_apply(self, y):
        """Adjoint product ``L*y = transpose(L) y``; batched."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.rows:
            raise DimensionError(
                f"adjoint expects dimension {self.rows}, got {y.shape[-1]}"
            )
        return y @ self.entries

    def gram_complement_apply(self, y):
        """Return ``y - L(L*y)``, the gradient of the quadratic defect."""
        return np.asarray(y, dtype=float) - self.apply(self.adjoint_apply(y))

    def compose(self, inner):
        """Return the operator ``self o inner``."""
        if inner.rows != self.cols:
            raise DimensionError(
                f"cannot compose {self.rows}x{self.cols} with {inner.rows}x{inner.cols}"
            )
        return DenseMap(self.entries @ inner.entries)

    def operator_norm(self, tol=1e-9):
        """Spectral norm by power iteration on ``L*L``.

        Deterministic all-ones seed; stops when successive Rayleigh
        quotients agree to relative ``tol``.  When the top singular values
        nearly coincide and the iteration exhausts its budget, the norm
        comes from a singular value decomposition instead.  The zero
        operator short-circuits to exactly 0.  Caches
        ``norm_bound = sigma*(1+tol)``.
        """
        if tol <= 0:
            raise ValueError("tol must be positive")
        if not self.entries.any():
            return self._cache_norm(0.0, tol)
        gram = self.entries.T @ self.entries
        n = gram.shape[0]
        v = np.ones(n) / np.sqrt(n)
        rayleigh = float(v @ gram @ v)
        # Restart directions in case the seed is orthogonal to the top
        # eigenspace (then gram @ v can vanish while gram != 0).
        restarts = iter(np.eye(n))
        for it in range(_POWER_MAX_ITER):
            w = gram @ v
            nw = float(np.linalg.norm(w))
            if nw <= 1e-300:
                try:
                    v = next(restarts)
                except StopIteration:
                    break
                rayleigh = float(v @ gram @ v)
                continue
            v = w / nw
            new_rayleigh = float(v @ gram @ v)
            if abs(new_rayleigh - rayleigh) < tol * max(new_rayleigh, 1e-300):
                return self._cache_norm(float(np.sqrt(new_rayleigh)), tol)
            rayleigh = new_rayleigh
        return self._cache_norm(
            float(np.linalg.svd(self.entries, compute_uv=False)[0]), tol
        )

    def _cache_norm(self, sigma, tol):
        self._norm_bound = sigma * (1.0 + tol)
        self._norm_estimate = sigma
        return sigma

    @property
    def norm_bound(self):
        """Certified upper bound on the operator norm (computed on demand)."""
        if self._norm_bound is None:
            self.operator_norm()
        return self._norm_bound

    @property
    def norm_estimate(self):
        """Tight spectral-norm estimate (no certificate inflation)."""
        if self._norm_estimate is None:
            self.operator_norm()
        return self._norm_estimate

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.entries.tolist(),
        }

    @classmethod
    def from_json(cls, obj):
        m = cls(obj["entries"])
        if m.rows != obj.get("rows", m.rows) or m.cols != obj.get("cols", m.cols):
            raise ShapeError(
                "declared rows/cols do not match the entries array"
            )
        return m

    def __repr__(self):
        return f"DenseMap({self.rows}x{self.cols})"


class PseudoInverse(NamedTuple):
    """Generalized inverse of a symmetric PSD matrix plus its range data."""

    map: DenseMap
    range_basis: np.ndarray  # orthonormal columns spanning ran A
    rank: int


def pseudo_inverse_small(a, rank_tol=1e-10):
    """Moore-Penrose inverse of a small symmetric PSD matrix.

    ``a`` may be a DenseMap or an array; it must be square with at most
    32 rows, self-adjoint and monotone (PSD) within ``rank_tol`` relative
    to its largest eigenvalue.  Returns the inverse together with an
    orthonormal basis of the range.
    """
    m = a.entries if isinstance(a, DenseMap) else np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError("pseudo-inverse requires a square matrix")
    if m.shape[0] > 32:
        raise ShapeError("pseudo_inverse_small only handles sizes up to 32")
    scale = float(np.abs(m).max()) or 1.0
    if float(np.abs(m - m.T).max()) > 100 * rank_tol * scale:
        raise ShapeError("matrix is not symmetric within tolerance")
    sym = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    top = float(eigvals.max(initial=0.0))
    if eigvals.min(initial=0.0) < -100 * rank_tol * max(top, 1.0):
        raise ShapeError("matrix is not positive semidefinite within tolerance")
    threshold = rank_tol * max(top, 1e-300)
    keep = eigvals > threshold
    inv_vals = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    pinv = (eigvecs * inv_vals) @ eigvecs.T
    basis = eigvecs[:, keep]
    return PseudoInverse(DenseMap(pinv), basis, int(keep.sum()))
