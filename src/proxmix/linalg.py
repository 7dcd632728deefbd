"""Dense finite-dimensional linear algebra.

Operators, adjoints, certified spectral-norm bounds, range factors
and the eigen-decomposition of PSD matrices.  Vectors are plain 1-D
``numpy`` arrays; most routines also accept batches shaped ``(..., dim)``
and act along the last axis.  Every object is immutable after
construction and every operation is pure, so concurrent use needs no
synchronization.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .errors import DimensionError, ParameterError, ShapeError

__all__ = [
    "DenseMap",
    "as_vector",
]

_NORM_INFLATION = 1e-9  # norm_bound's relative margin over the SVD's sigma
_PSD_TOL = 1e-10  # relative eigenvalue tolerance of the PSD test and the rank
_RANGE_TOL = 1e-9  # relative residual of a point counted in the range of L*


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
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and v.shape[0] != dim:
        raise DimensionError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


def _json_numbers(value, what):
    """``value`` if it holds only ints and floats (no str or bool); else ParameterError."""

    def numeric(v):
        if isinstance(v, list):  # exact types: a bool is no int here
            kinds = set(map(type, v))
            if kinds == {list}:  # rows: all their entries in one pass
                return numeric(list(chain.from_iterable(v)))
            return kinds <= {int, float} or all(map(numeric, v))
        return type(v) is int or isinstance(v, float)

    if not numeric(value):
        raise ParameterError(f"{what}: expected a number or lists of numbers, got {value!r}")
    return value


@lru_cache(maxsize=None)
def _ones(dim):
    """A read-only vector of ``dim`` ones, built once per dimension."""
    ones = np.ones(dim)
    ones.setflags(write=False)
    return ones


def _row_sum(a):
    """Sum over the last axis of a real array, left to right.

    A row gives the same bits alone or inside a batch, in C or F order,
    at every width: the solvers compare a row solved alone with the same
    row in a many-row solve.  Rows of up to three columns, and one
    contiguous row of up to fifteen, take one product with ones: the BLAS
    sums those in order, at a fraction of the reduction's cost; on more
    rows it sums four columns or more in lanes or blocks.
    ``np.add.reduce`` sums rows of up to seven columns in order in any
    layout, and contiguous rows of eight or more pairwise, so wider rows
    add their columns in a loop.
    """
    width = a.shape[-1]
    if width <= 3 or (a.size == width < 16 and a.strides[-1] == a.itemsize):
        return a.dot(_ones(width))
    if width < 8:
        return np.add.reduce(a, axis=-1)
    total = a[..., 0]
    for j in range(1, width):
        total = total + a[..., j]
    return total


def _rows_product(a, b):
    """``a @ b``, F-ordered when ``a`` holds two rows or more.

    The solvers keep many-row arrays column-major: with ``dim`` of 2 to 5
    columns, an elementwise op or a per-row ``(n, 1)`` broadcast on C-ordered
    rows runs one short inner loop per row.  The product is allocated
    F-ordered; the BLAS computes the transposed product, at the cost and
    with the bits of the C-ordered one.  A one-column ``b``
    multiplies C-ordered rows instead: the BLAS sums F-ordered rows
    against one column in an order that depends on a row's position.  A
    1-D or one-row ``a`` is a plain ``a @ b``: its C-ordered result is
    F-ordered too, and an F-ordered buffer of one row would take another
    BLAS path.
    """
    if a.ndim != 2 or len(a) < 2:
        return a @ b
    if b.shape[-1] == 1:
        return np.ascontiguousarray(a) @ b
    return np.matmul(a, b, order="F")


def _take_rows(a, index):
    """The rows ``index`` of ``a`` (rows along axis 0), F-ordered for 2-D ``a``.

    ``a.take(index, axis=0)`` would return C-ordered rows; taking the
    columns of the transpose keeps column-major arrays column-major and
    makes C-ordered ones so.
    """
    return a.T.take(index, axis=-1).T


class DenseMap:
    """Dense linear operator between Euclidean spaces.

    Maps points of dimension ``cols`` to points of dimension ``rows``.
    Everything derived from ``entries`` is computed once and kept, and
    every spectral quantity comes from one thin singular value
    decomposition ``L = U S V^T``, ``thin_svd``, taken on first use:

    * ``norm_estimate``, the spectral norm ``s[0]``, and ``norm_bound``,
      which inflates it by relative 1e-9 and so certifies
      ``||Lx|| <= norm_bound`` for all unit vectors ``x`` up to the
      rounding of ``Lx`` itself;
    * ``adjoint_entries``, the transpose of ``entries`` in C order, the
      right factor of ``apply``.  Many-row products go into an F-ordered
      buffer (``_rows_product``), where the transposed view would give
      the same bits at the same cost; a one-row product with the view can
      differ in the last bit, so the copy keeps single-point values;
    * ``isometric_factor``: the range factor ``(Q, R)``, ``Q`` with
      orthonormal columns spanning the range of ``L`` and ``L R = Q``, and
      ``range_rows``, with which ``R`` projects onto the range of ``L*``;
    * ``gram`` (``LL*``), ``dual_step`` and ``metric_factor``, the
      constants of the cocomposition's dual ascent and metric path.
    """

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.size == 0:
            raise ShapeError(f"matrix must be 2-D and nonempty, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        a.setflags(write=False)
        self.entries = a

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
        """Matrix-vector product ``Lx``; batched along the last axis.

        Many rows ``(n, cols)`` give F-ordered rows, as ``_rows_product``.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.cols:
            raise DimensionError(
                f"operator expects dimension {self.cols}, got {x.shape[-1]}"
            )
        return _rows_product(x, self.adjoint_entries)

    def adjoint_apply(self, y):
        """Adjoint product ``L*y = transpose(L) y``; batched as ``apply``."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.rows:
            raise DimensionError(
                f"adjoint expects dimension {self.rows}, got {y.shape[-1]}"
            )
        return _rows_product(y, self.entries)

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
        """Spectral norm: the largest singular value of ``entries``."""
        return float(self.thin_svd[1][0])

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
        """
        parts = np.linalg.svd(self.entries, full_matrices=False)
        for a in parts:
            a.setflags(write=False)
        return parts

    @cached_property
    def isometric_factor(self):
        """The range factor ``(Q, R) = (U_r, V_r S_r^-1)`` of ``L = U S V^T`` at its rank ``r``.

        ``r`` counts the singular values above ``eps max(rows, cols) s[0]``,
        the cutoff of ``lstsq(rcond=None)``.  ``Q`` is a DenseMap with
        orthonormal columns and ``L R = Q``, so for ``x`` in the range of
        ``L*`` the fiber ``L* y = x`` is ``Q* y = x R``.  ``R`` is read-only
        and C-ordered.
        """
        u, sv, vh = self.thin_svd
        r = np.count_nonzero(sv > np.finfo(float).eps * max(self.rows, self.cols) * sv[0])
        factor = np.ascontiguousarray(vh[:r].T / sv[:r])
        factor.setflags(write=False)
        return DenseMap(u[:, :r]), factor

    @cached_property
    def range_rows(self):
        """``S_r V_r^T`` at the rank of ``isometric_factor``, read-only:
        ``(x R) S_r V_r^T = x V_r V_r^T`` projects ``x`` onto the range of ``L*``."""
        _, sv, vh = self.thin_svd
        r = self.isometric_factor[1].shape[1]
        rows = vh[:r] * sv[:r, None]
        rows.setflags(write=False)
        return rows

    @cached_property
    def metric_factor(self):
        """``(W, W^T)`` with ``(I - LL*)^-1 = I + W W^T``, or None unless ``s[0] < 1``.

        ``W = U diag(s / sqrt(1 - s^2))``; both read-only and C-ordered.
        """
        u, sv, _ = self.thin_svd
        if not sv[0] < 1.0:
            return None
        w = u * (sv / np.sqrt(1.0 - sv * sv))
        parts = w, np.ascontiguousarray(w.T)
        for a in parts:
            a.setflags(write=False)
        return parts

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

    @cached_property
    def norm_estimate(self):
        """Tight spectral-norm estimate (no certificate inflation)."""
        return self.operator_norm()

    @cached_property
    def norm_bound(self):
        """Certified upper bound on the operator norm."""
        return self.norm_estimate * (1.0 + _NORM_INFLATION)

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": self.entries.tolist(),
        }

    @classmethod
    def from_json(cls, obj):
        m = cls(_json_numbers(obj["entries"], "entries"))
        if m.rows != obj.get("rows", m.rows) or m.cols != obj.get("cols", m.cols):
            raise ShapeError(
                "declared rows/cols do not match the entries array"
            )
        return m

    def __repr__(self):
        return f"DenseMap({self.rows}x{self.cols})"


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

