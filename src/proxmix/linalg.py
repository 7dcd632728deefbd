"""Dense finite-dimensional linear algebra.

Operators, adjoints, certified spectral-norm bounds, generalized inverses
and range projectors.  Vectors are plain 1-D ``numpy`` arrays; most
routines also accept batches shaped ``(..., dim)`` and act along the last
axis.  Every object is immutable after construction and every operation is
pure, so concurrent use needs no synchronization.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ShapeError

__all__ = [
    "DenseMap",
    "PseudoInverse",
    "as_vector",
    "pseudo_inverse_small",
]

_NORM_INFLATION = 1e-9  # norm_bound's relative margin over the SVD's sigma
_PSD_TOL = 1e-10  # relative eigenvalue tolerance of the PSD test and the rank
_RANGE_TOL = 1e-9  # relative residual of a point counted in the range of L*
# fiber_map's rank cutoff on the least singular value over the largest: the
# rounding of ||(X F) L - X|| is at most about eps cond(L) ||X||, which
# stays under _RANGE_TOL ||X|| while cond(L) < 1e6
_FIBER_RCOND = 1e-6


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
    Everything derived from ``entries`` is computed once and kept:

    * the spectral norm, on first use, from one singular value
      decomposition; ``norm_bound`` inflates it by relative 1e-9, which
      certifies ``||Lx|| <= norm_bound`` for all unit vectors ``x`` up to
      the rounding of ``Lx`` itself;
    * ``adjoint_entries``, the transpose of ``entries`` in C order, on
      first use: a product with the transposed view is F-ordered and
      costs up to 4x more on many rows (its bits are the same on two rows
      or more; one-row products can differ in the last bit);
    * ``thin_svd``, on first use: one thin singular value decomposition,
      which ``fiber_map``, ``isometric_factor`` and ``dual_step`` read;
    * ``fiber_map``: the ``cols x rows`` matrix ``F`` with
      ``X @ F = (LL*)^-1 L X`` row by row when ``L*`` is injective, else
      None;
    * ``isometric_factor``: for a tall map of full column rank, the pair
      ``(Q, R)`` with ``Q`` an isometry and ``L R = Q``, else None;
    * ``gram`` (``LL*``) and ``dual_step``, the step constants of the
      cocomposition's dual ascent.
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
        return x @ self.adjoint_entries

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

    def operator_norm(self):
        """Spectral norm: the largest singular value of ``entries``.

        Caches it as ``norm_estimate`` and, inflated by relative
        ``_NORM_INFLATION``, as the certified bound ``norm_bound``.
        """
        sigma = float(np.linalg.svd(self.entries, compute_uv=False)[0])
        self._norm_bound = sigma * (1.0 + _NORM_INFLATION)
        self._norm_estimate = sigma
        return sigma

    @cached_property
    def adjoint_entries(self):
        """The transpose of ``entries`` as a read-only C-ordered array."""
        a = np.ascontiguousarray(self.entries.T)
        a.setflags(write=False)
        return a

    @cached_property
    def thin_svd(self):
        """``(U, s, Vt)`` with ``entries = U diag(s) Vt``, read-only.

        ``s`` is in decreasing order with ``min(rows, cols)`` entries.
        ``operator_norm`` runs its own, values-only SVD, whose top value
        may differ from ``s[0]`` in the last bit.
        """
        parts = np.linalg.svd(self.entries, full_matrices=False)
        for a in parts:
            a.setflags(write=False)
        return parts

    def _full_rank(self):
        """Least singular value above ``_FIBER_RCOND`` times the largest."""
        sv = self.thin_svd[1]
        return bool(sv[-1] > _FIBER_RCOND * sv[0])

    @cached_property
    def fiber_map(self):
        """``F = V S^-1 U^T`` from the thin SVD ``L = U S V^T``, or None.

        Where ``L*`` is injective (full row rank) the adjoint fiber
        ``{y : L* y = x}`` is the single point ``y = x F`` when ``x`` lies
        in the range of ``L*``, and empty otherwise.  None for tall maps
        (``rows > cols``, decided before any SVD) and for maps whose least
        singular value is at most ``_FIBER_RCOND`` times the largest.
        Read-only and C-ordered.
        """
        if self.rows > self.cols or not self._full_rank():
            return None
        u, sv, vh = self.thin_svd
        f = np.ascontiguousarray((vh.T / sv) @ u.T)
        f.setflags(write=False)
        return f

    @cached_property
    def isometric_factor(self):
        """``(Q, R)`` with ``Q = U`` and ``R = V S^-1`` from ``L = U S V^T``, or None.

        Only for tall maps (``rows > cols``) of full column rank, by the
        cutoff of ``fiber_map``.  ``Q`` is a DenseMap with orthonormal
        columns and ``L R = Q``, so ``L* y = x`` exactly when
        ``Q* y = x R``: the adjoint fibers of ``L`` are those of ``Q``,
        reparametrized.  ``R`` is ``cols x cols``, read-only and C-ordered.
        """
        if self.rows <= self.cols or not self._full_rank():
            return None
        u, sv, vh = self.thin_svd
        r = np.ascontiguousarray(vh.T / sv)
        r.setflags(write=False)
        return DenseMap(u), r

    @cached_property
    def gram(self):
        """``LL*`` (``rows x rows``), read-only and C-ordered."""
        g = self.entries @ self.entries.T
        g.setflags(write=False)
        return g

    @cached_property
    def dual_step(self):
        """``(lam, I - (I - LL*)/lam)``, ``lam`` bounding ``||I - LL*||`` from above.

        ``lam = min(1, max(1 - s_min^2, 1e-2) + 1e-9)`` when ``rows <= cols``,
        with ``s_min`` the least singular value, and ``lam = 1`` for tall
        maps (``LL*`` is singular there; decided before any SVD).  For an
        operator of norm at most one, ``||I - LL*|| = 1 - s_min^2``.  At
        ``lam = 1`` the matrix is ``gram`` itself.
        """
        lam = 1.0
        if self.rows <= self.cols:
            s_min = self.thin_svd[1][-1]
            lam = min(1.0, max(1.0 - s_min * s_min, 1e-2) + 1e-9)
        if lam == 1.0:
            return lam, self.gram
        g = np.eye(self.rows) - (np.eye(self.rows) - self.gram) / lam
        g.setflags(write=False)
        return lam, g

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


def _psd_eigh(m):
    """``(sym, eigvals, eigvecs, in_range)`` of a square matrix that is PSD.

    ``sym`` is its symmetric part, ``eigvals`` are clipped at 0, and
    ``in_range`` marks those above ``_PSD_TOL`` relative to the largest.
    ShapeError unless ``m`` is symmetric and PSD within that tolerance.
    """
    scale = float(np.abs(m).max()) or 1.0
    if float(np.abs(m - m.T).max()) > 100 * _PSD_TOL * scale:
        raise ShapeError("matrix is not symmetric within tolerance")
    sym = 0.5 * (m + m.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    top = float(eigvals.max(initial=0.0))
    if eigvals.min(initial=0.0) < -100 * _PSD_TOL * max(top, 1.0):
        raise ShapeError("matrix is not positive semidefinite within tolerance")
    eigvals = np.maximum(eigvals, 0.0)
    return sym, eigvals, eigvecs, eigvals > _PSD_TOL * max(top, 1e-300)


def pseudo_inverse_small(a):
    """Moore-Penrose inverse of a small symmetric PSD matrix.

    ``a`` may be a DenseMap or an array; it must be square with at most
    32 rows, self-adjoint and monotone (PSD) within ``_PSD_TOL`` relative
    to its largest eigenvalue.  Returns the inverse together with an
    orthonormal basis of the range.
    """
    m = a.entries if isinstance(a, DenseMap) else np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError("pseudo-inverse requires a square matrix")
    if m.shape[0] > 32:
        raise ShapeError("pseudo_inverse_small only handles sizes up to 32")
    _, eigvals, eigvecs, keep = _psd_eigh(m)
    inv_vals = np.where(keep, 1.0 / np.where(keep, eigvals, 1.0), 0.0)
    pinv = (eigvecs * inv_vals) @ eigvecs.T
    basis = eigvecs[:, keep]
    return PseudoInverse(DenseMap(pinv), basis, int(keep.sum()))
