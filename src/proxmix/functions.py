"""Catalog of proper lsc convex functions with exact first-order oracles.

Each catalog atom knows its value, proximity operator, Legendre conjugate
and recession function in closed form.  The catalog is closed under a
small transform calculus (translation, argument/value scaling, affine and
quadratic perturbation); transforms stack with the outermost one applied
last and every oracle peels them off exactly.

All operations broadcast over batches shaped ``(..., dim)`` and act along
the last axis.  Each public oracle validates once, at the root of the
function tree it is called on: the point's width, and a prox parameter
that must be positive and finite.  The private hooks beneath it work on
validated float arrays and call each other directly.

Extended values are plain floats, with ``inf`` standing for the point
being outside the domain; NaN never appears.  Indicator membership uses
an absolute boundary tolerance of 1e-9 so that projection outputs always
evaluate as feasible despite roundoff.

Function objects are immutable and all methods are pure.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    ShapeError,
    UnsupportedConjugate,
)
from .linalg import _psd_eigh

__all__ = [
    "ConvexFunction",
    "L1Norm",
    "EuclideanNorm",
    "Quadratic",
    "Affine",
    "BallIndicator",
    "SubspaceIndicator",
    "BallDistance",
    "BallSupport",
    "SeparableSum",
    "MoreauEnvelopeFunction",
    "OracleFunction",
    "quadratic_kernel",
    "conjugate_function",
    "function_from_spec",
    "function_to_spec",
]

#: absolute slack for indicator-set membership
BOUNDARY_TOL = 1e-9

#: the smallest normal float, a divisor floor that keeps 0 / 0 out of a prox
_TINY = np.finfo(float).tiny


@lru_cache(maxsize=None)
def _ones(dim):
    """A read-only vector of ``dim`` ones, built once per dimension."""
    ones = np.ones(dim)
    ones.setflags(write=False)
    return ones


def _row_sum(a):
    """Sum over the last axis of a real array as one product with ones.

    Equal to ``np.add.reduce(a, axis=-1)`` bit for bit for up to three
    columns; wider rows can differ in the last bits, since the BLAS sums
    in lanes.  On narrow rows it costs a fraction of the reduction.  The
    ``dot`` method costs about half of what ``@`` does on one row and
    gives the same bits on contiguous rows, which is what the callers
    pass: fresh products.
    """
    return a.dot(_ones(a.shape[-1]))


def _norm(x):
    """``np.linalg.norm(x, axis=-1)`` of a real array, through ``_row_sum``.

    Bit for bit for up to three columns, within a few ulps beyond.
    """
    return np.sqrt(_row_sum(x * x))


def _row_values(param):
    """A per-row parameter column ``(n, 1)`` as its ``n`` values; a float as it is."""
    return param[..., 0] if isinstance(param, np.ndarray) else param


def _all_positive(param):
    """``param > 0`` for a float, or for every row of a per-row column."""
    return (param > 0).all() if isinstance(param, np.ndarray) else param > 0


def _dot(a, b):
    """Row-wise inner product over the last axis."""
    return _row_sum(a * b)


def _scalarize(values):
    """0-d arrays become Python floats, batches stay arrays."""
    arr = np.asarray(values, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


class ConvexFunction:
    """Base class: a function in the catalog, possibly transformed.

    The public oracles (``__call__``, ``prox``, ``conjugate``,
    ``recession``, ``prox_conjugate``) validate their arguments once and
    turn 0-d results into floats once.  Subclasses implement the private
    hooks ``_value``, ``_prox``, ``_conjugate`` and ``_recession`` on
    already-validated input: a float array of shape ``(..., dim)`` and a
    positive finite ``gamma`` (a float or a per-row column ``(n, 1)``).  A
    hook calls the hooks of the functions it is built from directly, so a
    transform stack is validated at its root only.  Subclasses also
    implement ``lipschitz_bound`` and ``has_full_domain``.
    """

    dim = None  # type: int

    # -- contract -----------------------------------------------------
    def __call__(self, x):
        return _scalarize(self._value(self._check_point(x)))

    def prox(self, gamma, x):
        """Unique minimizer of ``f(y) + ||x - y||^2 / (2 gamma)``."""
        _check_gamma(gamma)
        return self._prox(gamma, self._check_point(x))

    def conjugate(self, s):
        """Closed-form value of the Legendre conjugate at ``s``."""
        return _scalarize(self._conjugate(self._check_point(s)))

    def recession(self, x):
        """Asymptotic slope function evaluated at ``x``."""
        return _scalarize(self._recession(self._check_point(x)))

    def lipschitz_bound(self):
        """A global Lipschitz constant, or None when there is none."""
        return None

    def has_full_domain(self):
        """True when the function is finite everywhere."""
        raise NotImplementedError

    def has_fixed_prox_parameter(self):
        """True when the prox is available at one parameter only.

        An ``OracleFunction`` given ``prox_gamma`` anywhere in the
        function's tree; a solver must then call the prox at the parameter
        it was given, not at one of its own.
        """
        return False

    # -- derived operations -------------------------------------------
    def prox_conjugate(self, gamma, x):
        """Prox of ``gamma * f*`` without building the conjugate.

        Moreau decomposition: ``prox_{g f*}(x) = x - g prox_{f/g}(x/g)``
        where ``prox_{f/g}`` is the prox of ``f`` with parameter ``1/g``.
        """
        _check_gamma(gamma)
        return self._prox_conjugate(gamma, self._check_point(x))

    def _prox_conjugate(self, gamma, x):
        return x - gamma * self._prox(1.0 / gamma, x / gamma)

    # -- transform builders --------------------------------------------
    def translate(self, w):
        """``y -> f(y - w)``."""
        return TranslatedFunction(self, w)

    def scale_arg(self, rho):
        """``y -> f(rho y)``."""
        return ArgScaledFunction(self, rho)

    def scale_val(self, rho):
        """``y -> rho f(y)``."""
        return ValueScaledFunction(self, rho)

    def add_affine(self, u, alpha=0.0):
        """``y -> f(y) + <y, u> + alpha``."""
        return AffineAddedFunction(self, u, alpha)

    def add_quad(self, rho):
        """``y -> f(y) + rho ||y||^2 / 2`` with rho >= 0."""
        return QuadAddedFunction(self, rho)

    # -- helpers --------------------------------------------------------
    def _check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise DimensionError(
                f"function expects dimension {self.dim}, got shape {x.shape}"
            )
        return x

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


def _check_gamma(gamma):
    """Reject a prox parameter that is not positive and finite.

    ``gamma`` is a float, or a per-row column; this runs once per prox call.
    """
    if isinstance(gamma, np.ndarray):
        ok = ((gamma > 0) & (gamma < np.inf)).all()
    else:
        ok = 0 < gamma < np.inf
    if not ok:
        raise ParameterError(f"prox parameter must be positive and finite, got {gamma}")


def _check_rho(rho):
    if not rho > 0:
        raise ParameterError(f"scaling factor must be positive, got {rho}")


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


class L1Norm(ConvexFunction):
    """``x -> sum_i |x_i|``; prox is the soft threshold."""

    def __init__(self, dim):
        self.dim = int(dim)

    def _value(self, x):
        return np.sum(np.abs(x), axis=-1)

    # a sublinear function is its own recession function
    _recession = _value

    def _prox(self, gamma, x):
        # x minus its clamp to [-gamma, gamma]; np.clip costs more on one row
        return x - np.minimum(np.maximum(x, -gamma), gamma)

    def _conjugate(self, s):
        slack = BOUNDARY_TOL * (1.0 + _norm(s))
        inside = np.max(np.abs(s), axis=-1) <= 1.0 + slack
        return np.where(inside, 0.0, np.inf)

    def lipschitz_bound(self):
        # Euclidean-norm constant of the l1 norm.
        return float(np.sqrt(self.dim))

    def has_full_domain(self):
        return True


class EuclideanNorm(ConvexFunction):
    """``x -> ||x||``; prox is the block soft threshold."""

    def __init__(self, dim):
        self.dim = int(dim)

    def _value(self, x):
        return _norm(x)

    _recession = _value

    def _prox(self, gamma, x):
        # The factor is exactly 0 once ||x|| <= gamma.  The floor keeps 0 / 0
        # out where a wrapper's rescaled gamma underflows to 0, and adds
        # nothing to a gamma above 1e-292.
        return x * (1.0 - gamma / np.maximum(_norm(x)[..., None], gamma + _TINY))

    def _conjugate(self, s):
        inside = _norm(s) <= 1.0 + BOUNDARY_TOL * (1.0 + _norm(s))
        return np.where(inside, 0.0, np.inf)

    def lipschitz_bound(self):
        return 1.0

    def has_full_domain(self):
        return True


class Quadratic(ConvexFunction):
    """``x -> <x, A x> / 2`` for a symmetric PSD matrix ``A``.

    The conjugate lives on the range of ``A`` and is the quadratic form of
    the generalized inverse there; the recession function indicates the
    kernel.
    """

    def __init__(self, matrix):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ShapeError("quadratic form needs a square matrix")
        a, self._eigvals, self._eigvecs, self._range_mask = _psd_eigh(a)
        self._eigvecs_t = np.ascontiguousarray(self._eigvecs.T)  # C order, see DenseMap
        a.setflags(write=False)
        self.dim = a.shape[0]
        self.matrix = a

    def _value(self, x):
        return 0.5 * _dot(x, x @ self.matrix)

    def _prox(self, gamma, x):
        coef = x @ self._eigvecs
        coef = coef / (1.0 + gamma * self._eigvals)
        return coef @ self._eigvecs_t

    def _conjugate(self, s):
        coef = s @ self._eigvecs
        null = coef[..., ~self._range_mask]
        scale = 1.0 + _norm(s)
        in_range = (
            np.max(np.abs(null), axis=-1, initial=0.0) <= BOUNDARY_TOL * scale
        )
        pos = coef[..., self._range_mask]
        vals = 0.5 * np.sum(pos * pos / self._eigvals[self._range_mask], axis=-1)
        return np.where(in_range, vals, np.inf)

    def _recession(self, x):
        ax = x @ self.matrix
        in_kernel = _norm(ax) <= BOUNDARY_TOL * (1.0 + _norm(x))
        return np.where(in_kernel, 0.0, np.inf)

    def has_full_domain(self):
        return True


def quadratic_kernel(dim):
    """The quadratic kernel ``x -> ||x||^2 / 2``."""
    return Quadratic(np.eye(dim))


class Affine(ConvexFunction):
    """``x -> <x, u> + alpha``."""

    def __init__(self, u, alpha=0.0):
        self.u = np.array(u, dtype=float)
        self.u.setflags(write=False)
        self.alpha = float(alpha)
        self.dim = self.u.shape[0]

    def _value(self, x):
        return _dot(x, self.u) + self.alpha

    def _prox(self, gamma, x):
        return x - gamma * self.u

    def _conjugate(self, s):
        hit = _norm(s - self.u) <= BOUNDARY_TOL * (1.0 + _norm(self.u) + _norm(s))
        return np.where(hit, -self.alpha, np.inf)

    def _recession(self, x):
        return _dot(x, self.u)

    def lipschitz_bound(self):
        return float(np.linalg.norm(self.u))

    def has_full_domain(self):
        return True


class _Ball(ConvexFunction):
    """Base of the ball atoms: functions defined by the ball ``B(center, radius)``."""

    def __init__(self, center, radius):
        if radius < 0:
            raise ParameterError("ball radius must be nonnegative")
        self.center = np.array(center, dtype=float)
        self.center.setflags(write=False)
        self.radius = float(radius)
        self.dim = self.center.shape[0]


class BallIndicator(_Ball):
    """Indicator of the closed ball ``B(center, radius)``."""

    def _value(self, x):
        gap = _norm(x - self.center)
        inside = gap <= self.radius + BOUNDARY_TOL * (1.0 + _norm(x))
        return np.where(inside, 0.0, np.inf)

    def _prox(self, gamma, x):
        # the projection; the factor is exactly 1 inside the ball
        d = x - self.center
        if self.radius == 0.0:
            return self.center + 0.0 * d
        nd = _norm(d)[..., None]
        return self.center + self.radius / np.maximum(nd, self.radius) * d

    def _conjugate(self, s):
        return _dot(s, self.center) + self.radius * _norm(s)

    def _recession(self, x):
        at_zero = _norm(x) <= BOUNDARY_TOL
        return np.where(at_zero, 0.0, np.inf)

    def has_full_domain(self):
        return False


class SubspaceIndicator(ConvexFunction):
    """Indicator of the span of orthonormal basis columns."""

    def __init__(self, basis):
        b = np.array(basis, dtype=float)
        if b.ndim != 2:
            raise ShapeError("basis must be a (dim, k) array of columns")
        gram = b.T @ b
        if float(np.abs(gram - np.eye(b.shape[1])).max(initial=0.0)) > 1e-10:
            raise ShapeError("basis columns must be orthonormal")
        b.setflags(write=False)
        self.basis = b
        self._basis_t = np.ascontiguousarray(b.T)  # C order, see DenseMap
        self.dim = b.shape[0]

    def _project(self, x):
        return (x @ self.basis) @ self._basis_t

    def _value(self, x):
        dist = _norm(x - self._project(x))
        inside = dist <= BOUNDARY_TOL * (1.0 + _norm(x))
        return np.where(inside, 0.0, np.inf)

    _recession = _value

    def _prox(self, gamma, x):
        return self._project(x)

    def _conjugate(self, s):
        tangential = _norm(self._project(s))
        return np.where(tangential <= BOUNDARY_TOL * (1 + _norm(s)), 0.0, np.inf)

    def has_full_domain(self):
        return False


class BallDistance(_Ball):
    """``x -> dist(x, B(center, radius))``; 1-Lipschitz with full domain."""

    def _value(self, x):
        return np.maximum(_norm(x - self.center) - self.radius, 0.0)

    def _prox(self, gamma, x):
        # Move toward the center by the distance to the ball, at most gamma.
        # The move is 0 wherever ||d|| <= radius, so flooring the divisor at
        # the smallest normal float only keeps the center itself finite.
        d = x - self.center
        nd = _norm(d)[..., None]
        move = np.minimum(np.maximum(nd - self.radius, 0.0), gamma)
        return x - move / np.maximum(nd, _TINY) * d

    def _conjugate(self, s):
        # Distance = norm infimal-convolved with the indicator, so the
        # conjugate is the ball support plus the unit-ball indicator.
        inside = _norm(s) <= 1.0 + BOUNDARY_TOL * (1.0 + _norm(s))
        support = _dot(s, self.center) + self.radius * _norm(s)
        return np.where(inside, support, np.inf)

    def _recession(self, x):
        return _norm(x)

    def lipschitz_bound(self):
        return 1.0

    def has_full_domain(self):
        return True


class BallSupport(_Ball):
    """Support function of ``B(center, radius)``: ``x -> <x,c> + r ||x||``."""

    def _value(self, x):
        return _dot(x, self.center) + self.radius * _norm(x)

    _recession = _value

    def _prox(self, gamma, x):
        # the Euclidean-norm prox at index gamma * radius, on the shifted
        # point; that index is 0 at radius 0, which the floor covers
        shifted = x - gamma * self.center
        thresh = gamma * self.radius
        ns = _norm(shifted)[..., None]
        return shifted * (1.0 - thresh / np.maximum(ns, thresh + _TINY))

    def _conjugate(self, s):
        inside = _norm(s - self.center) <= self.radius + BOUNDARY_TOL * (
            1.0 + _norm(s)
        )
        return np.where(inside, 0.0, np.inf)

    def lipschitz_bound(self):
        return float(np.linalg.norm(self.center)) + self.radius

    def has_full_domain(self):
        return True


class SeparableSum(ConvexFunction):
    """Weighted sum of functions acting on disjoint contiguous blocks.

    ``blocks`` is a sequence of ``(weight, fn, start)`` triples; blocks
    must tile ``0..dim`` contiguously.  Every oracle decomposes blockwise,
    e.g. the prox of the term ``w * fn`` uses parameter ``gamma * w``.
    """

    def __init__(self, blocks):
        if not blocks:
            raise ShapeError("separable sum needs at least one block")
        items = []
        offset = 0
        for weight, fn, start in sorted(blocks, key=lambda b: b[2]):
            if start != offset:
                raise ShapeError("separable blocks must tile the space contiguously")
            if not weight > 0:
                raise ParameterError("separable block weights must be positive")
            items.append((float(weight), fn, slice(start, start + fn.dim)))
            offset += fn.dim
        self.blocks = tuple(items)
        self.dim = offset

    def _value(self, x):
        total = 0.0
        for w, fn, sl in self.blocks:
            total = total + w * fn._value(x[..., sl])
        return total

    def _prox(self, gamma, x):
        out = np.empty_like(x)
        for w, fn, sl in self.blocks:
            out[..., sl] = fn._prox(gamma * w, x[..., sl])
        return out

    def _conjugate(self, s):
        total = 0.0
        for w, fn, sl in self.blocks:
            total = total + w * fn._conjugate(s[..., sl] / w)
        return total

    def _recession(self, x):
        total = 0.0
        for w, fn, sl in self.blocks:
            total = total + w * fn._recession(x[..., sl])
        return total

    def lipschitz_bound(self):
        parts = []
        for w, fn, _ in self.blocks:
            beta = fn.lipschitz_bound()
            if beta is None:
                return None
            parts.append((w * beta) ** 2)
        return float(np.sqrt(sum(parts)))

    def has_full_domain(self):
        return all(fn.has_full_domain() for _, fn, _ in self.blocks)

    def has_fixed_prox_parameter(self):
        return any(fn.has_fixed_prox_parameter() for _, fn, _ in self.blocks)


# ---------------------------------------------------------------------------
# transform wrappers (peeled outermost-first by every oracle)
# ---------------------------------------------------------------------------


class _Transform(ConvexFunction):
    """A function built from ``inner`` on the same space, by default on its domain."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def has_full_domain(self):
        return self.inner.has_full_domain()

    def has_fixed_prox_parameter(self):
        return self.inner.has_fixed_prox_parameter()


class TranslatedFunction(_Transform):
    """``x -> f(x - w)``."""

    def __init__(self, inner, w):
        super().__init__(inner)
        self.w = np.array(w, dtype=float)
        self.w.setflags(write=False)
        if self.w.shape[0] != inner.dim:
            raise DimensionError("translation vector dimension mismatch")

    def _value(self, x):
        return self.inner._value(x - self.w)

    def _prox(self, gamma, x):
        return self.w + self.inner._prox(gamma, x - self.w)

    def _conjugate(self, s):
        return self.inner._conjugate(s) + _dot(s, self.w)

    def _recession(self, x):
        return self.inner._recession(x)

    def lipschitz_bound(self):
        return self.inner.lipschitz_bound()


class ArgScaledFunction(_Transform):
    """``x -> f(rho x)`` with rho > 0."""

    def __init__(self, inner, rho):
        _check_rho(rho)
        super().__init__(inner)
        self.rho = float(rho)

    def _value(self, x):
        return self.inner._value(self.rho * x)

    def _prox(self, gamma, x):
        return self.inner._prox(gamma * self.rho**2, self.rho * x) / self.rho

    def _conjugate(self, s):
        return self.inner._conjugate(s / self.rho)

    def _recession(self, x):
        return self.inner._recession(self.rho * x)

    def lipschitz_bound(self):
        beta = self.inner.lipschitz_bound()
        return None if beta is None else beta * self.rho


class ValueScaledFunction(_Transform):
    """``x -> rho f(x)`` with rho > 0."""

    def __init__(self, inner, rho):
        _check_rho(rho)
        super().__init__(inner)
        self.rho = float(rho)

    def _value(self, x):
        return self.rho * self.inner._value(x)

    def _prox(self, gamma, x):
        return self.inner._prox(gamma * self.rho, x)

    def _conjugate(self, s):
        return self.rho * self.inner._conjugate(s / self.rho)

    def _recession(self, x):
        return self.rho * self.inner._recession(x)

    def lipschitz_bound(self):
        beta = self.inner.lipschitz_bound()
        return None if beta is None else beta * self.rho


class AffineAddedFunction(_Transform):
    """``x -> f(x) + <x, u> + alpha``."""

    def __init__(self, inner, u, alpha=0.0):
        super().__init__(inner)
        self.u = np.array(u, dtype=float)
        self.u.setflags(write=False)
        if self.u.shape[0] != inner.dim:
            raise DimensionError("affine term dimension mismatch")
        self.alpha = float(alpha)

    def _value(self, x):
        return self.inner._value(x) + _dot(x, self.u) + self.alpha

    def _prox(self, gamma, x):
        return self.inner._prox(gamma, x - gamma * self.u)

    def _conjugate(self, s):
        return self.inner._conjugate(s - self.u) - self.alpha

    def _recession(self, x):
        return self.inner._recession(x) + _dot(x, self.u)

    def lipschitz_bound(self):
        beta = self.inner.lipschitz_bound()
        return None if beta is None else beta + float(np.linalg.norm(self.u))


class QuadAddedFunction(_Transform):
    """``x -> f(x) + rho ||x||^2 / 2`` with rho >= 0."""

    def __init__(self, inner, rho):
        if rho < 0:
            raise ParameterError("quadratic perturbation weight must be >= 0")
        super().__init__(inner)
        self.rho = float(rho)

    def _value(self, x):
        return self.inner._value(x) + 0.5 * self.rho * _norm(x) ** 2

    def _prox(self, gamma, x):
        if self.rho == 0.0:
            return self.inner._prox(gamma, x)
        shrink = 1.0 + gamma * self.rho
        return self.inner._prox(gamma / shrink, x / shrink)

    def _conjugate(self, s):
        # (f + rho Q)* is the Moreau envelope of f* with index rho.
        if self.rho == 0.0:
            return self.inner._conjugate(s)
        p = self.inner._prox_conjugate(self.rho, s)
        return self.inner._conjugate(p) + 0.5 / self.rho * _norm(s - p) ** 2

    def _recession(self, x):
        if self.rho == 0.0:
            return self.inner._recession(x)
        base = self.inner._recession(np.zeros_like(x))
        at_zero = _norm(x) <= BOUNDARY_TOL
        return np.where(at_zero, base * 0.0, np.inf)

    def lipschitz_bound(self):
        return self.inner.lipschitz_bound() if self.rho == 0.0 else None


# ---------------------------------------------------------------------------
# derived function objects
# ---------------------------------------------------------------------------


class MoreauEnvelopeFunction(_Transform):
    """The Moreau envelope of a catalog function, as a smooth function.

    Exact prox via ``prox_{g env_r f}(x) = x + g/(g+r) (prox_{(g+r)f}(x) - x)``
    and exact conjugate ``f* + r Q``.
    """

    def __init__(self, inner, index):
        _check_rho(index)
        super().__init__(inner)
        self.index = float(index)

    def _value(self, x):
        p = self.inner._prox(self.index, x)
        return self.inner._value(p) + 0.5 / self.index * _norm(x - p) ** 2

    def _prox(self, gamma, x):
        p = self.inner._prox(gamma + self.index, x)
        return x + gamma / (gamma + self.index) * (p - x)

    def _conjugate(self, s):
        return self.inner._conjugate(s) + 0.5 * self.index * _norm(s) ** 2

    def _recession(self, x):
        return self.inner._recession(x)

    def lipschitz_bound(self):
        return self.inner.lipschitz_bound()

    def has_full_domain(self):
        return True


class OracleFunction(ConvexFunction):
    """A convex function given through callables.

    Used to feed numerically realized functions (for instance an already
    composed function whose prox is exact only at one parameter) back into
    the solvers.  ``prox_fn(gamma, x)`` may be restricted to a single
    parameter value via ``prox_gamma``.
    """

    def __init__(
        self,
        dim,
        value_fn,
        prox_fn=None,
        conjugate_fn=None,
        recession_fn=None,
        lipschitz=None,
        prox_gamma=None,
        full_domain=True,
    ):
        self.dim = int(dim)
        self._value_fn = value_fn
        self._prox_fn = prox_fn
        self._conjugate_fn = conjugate_fn
        self._recession_fn = recession_fn
        self._lipschitz = lipschitz
        self._prox_gamma = prox_gamma
        self._full_domain = bool(full_domain)

    # the callables may return lists; a wrapper's hook does arithmetic on them
    def _value(self, x):
        return np.asarray(self._value_fn(x), dtype=float)

    def _prox(self, gamma, x):
        if self._prox_fn is None:
            raise UnsupportedConjugate("oracle function has no prox")
        if self._prox_gamma is not None and not np.isclose(
            gamma, self._prox_gamma, rtol=1e-12, atol=0.0
        ).all():
            raise ParameterError(
                f"oracle prox only available at parameter {self._prox_gamma}"
            )
        return self._prox_fn(gamma, x)

    def _conjugate(self, s):
        if self._conjugate_fn is None:
            raise UnsupportedConjugate("oracle function has no closed conjugate")
        return np.asarray(self._conjugate_fn(s), dtype=float)

    def _recession(self, x):
        if self._recession_fn is None:
            raise UnsupportedConjugate("oracle function has no recession oracle")
        return np.asarray(self._recession_fn(x), dtype=float)

    def lipschitz_bound(self):
        return self._lipschitz

    def has_full_domain(self):
        return self._full_domain

    def has_fixed_prox_parameter(self):
        return self._prox_gamma is not None


# ---------------------------------------------------------------------------
# conjugation as a catalog object
# ---------------------------------------------------------------------------


def conjugate_function(fn):
    """Build the Legendre conjugate of ``fn`` as a catalog function.

    Supported for every atom except the ball distance (whose conjugate is
    a sum of two atoms) and for singular quadratic forms; transforms map
    through the standard conjugate calculus.  Raises UnsupportedConjugate
    otherwise.
    """
    if isinstance(fn, L1Norm):
        ball = lambda: BallIndicator(np.zeros(1), 1.0)  # noqa: E731
        if fn.dim == 1:
            return ball()
        return SeparableSum([(1.0, ball(), i) for i in range(fn.dim)])
    if isinstance(fn, EuclideanNorm):
        return BallIndicator(np.zeros(fn.dim), 1.0)
    if isinstance(fn, Quadratic):
        if not bool(np.all(fn._range_mask)):
            raise UnsupportedConjugate(
                "conjugate of a singular quadratic form is not a single atom"
            )
        return Quadratic((fn._eigvecs / fn._eigvals) @ fn._eigvecs.T)
    if isinstance(fn, Affine):
        point = BallIndicator(fn.u, 0.0)
        return point if fn.alpha == 0 else point.add_affine(np.zeros(fn.dim), -fn.alpha)
    if isinstance(fn, BallIndicator):
        return BallSupport(fn.center, fn.radius)
    if isinstance(fn, BallSupport):
        return BallIndicator(fn.center, fn.radius)
    if isinstance(fn, SubspaceIndicator):
        full, _ = np.linalg.qr(
            np.concatenate([fn.basis, np.eye(fn.dim)], axis=1)
        )
        complement = full[:, fn.basis.shape[1]:]
        return SubspaceIndicator(complement)
    if isinstance(fn, SeparableSum):
        blocks = []
        for w, sub, sl in fn.blocks:
            conj = conjugate_function(sub)
            if w != 1.0:
                conj = conj.scale_arg(1.0 / w).scale_val(w)
            blocks.append((1.0, conj, sl.start))
        return SeparableSum(blocks)
    if isinstance(fn, TranslatedFunction):
        return conjugate_function(fn.inner).add_affine(fn.w)
    if isinstance(fn, ArgScaledFunction):
        return conjugate_function(fn.inner).scale_arg(1.0 / fn.rho)
    if isinstance(fn, ValueScaledFunction):
        return (
            conjugate_function(fn.inner)
            .scale_arg(1.0 / fn.rho)
            .scale_val(fn.rho)
        )
    if isinstance(fn, AffineAddedFunction):
        out = conjugate_function(fn.inner).translate(fn.u)
        if fn.alpha != 0:
            out = out.add_affine(np.zeros(fn.dim), -fn.alpha)
        return out
    if isinstance(fn, QuadAddedFunction):
        inner = conjugate_function(fn.inner)
        return inner if fn.rho == 0 else MoreauEnvelopeFunction(inner, fn.rho)
    if isinstance(fn, MoreauEnvelopeFunction):
        return conjugate_function(fn.inner).add_quad(fn.index)
    raise UnsupportedConjugate(
        f"no catalog form for the conjugate of {type(fn).__name__}"
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

# class -> (JSON name, constructor fields, after ``inner`` for a transform); every
# field is an attribute of the same name, and only ``alpha`` may be left out (0)
_ATOM_SPECS = {
    L1Norm: ("l1_norm", ("dim",)),
    EuclideanNorm: ("euclidean_norm", ("dim",)),
    Quadratic: ("quadratic", ("matrix",)),
    Affine: ("affine", ("u", "alpha")),
    BallIndicator: ("ball_indicator", ("center", "radius")),
    SubspaceIndicator: ("subspace_indicator", ("basis",)),
    BallDistance: ("ball_distance", ("center", "radius")),
    BallSupport: ("ball_support", ("center", "radius")),
}
_TRANSFORM_SPECS = {
    TranslatedFunction: ("translate", ("w",)),
    ArgScaledFunction: ("scale_arg", ("rho",)),
    ValueScaledFunction: ("scale_val", ("rho",)),
    AffineAddedFunction: ("add_affine", ("u", "alpha")),
    QuadAddedFunction: ("add_quad", ("rho",)),
}
_ATOMS_BY_NAME = {name: (c, f) for c, (name, f) in _ATOM_SPECS.items()}
_TRANSFORMS_BY_NAME = {name: (c, f) for c, (name, f) in _TRANSFORM_SPECS.items()}


def _spec_fields(fn, fields):
    """The JSON form of ``fn``'s constructor fields."""
    return {name: np.asarray(getattr(fn, name)).tolist() for name in fields}


def _field_args(obj, fields):
    """Constructor arguments read from a spec object; ``alpha`` defaults to 0."""
    return [obj.get(name, 0.0) if name == "alpha" else obj[name] for name in fields]


def _spec_entry(table, name, what):
    """The ``(class, fields)`` entry of a JSON name; ShapeError when unknown."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise ShapeError(f"unknown {what}: {name!r}") from None


def function_to_spec(fn):
    """Serialize a catalog function to the JSON spec dictionary."""
    transforms = []
    while type(fn) in _TRANSFORM_SPECS:
        kind, fields = _TRANSFORM_SPECS[type(fn)]
        transforms.append({"kind": kind, **_spec_fields(fn, fields)})
        fn = fn.inner
    transforms.reverse()  # stored innermost-first, applied in order
    if type(fn) is SeparableSum:
        atom = "separable_sum"
        params = {
            "blocks": [
                {"weight": w, "fn": function_to_spec(sub), "start": sl.start}
                for w, sub, sl in fn.blocks
            ]
        }
    elif type(fn) in _ATOM_SPECS:
        atom, fields = _ATOM_SPECS[type(fn)]
        params = _spec_fields(fn, fields)
    else:
        raise ShapeError(f"{type(fn).__name__} has no JSON spec form")
    return {"atom": atom, "params": params, "transforms": transforms}


def function_from_spec(obj):
    """Build a catalog function from its JSON spec dictionary.

    A missing field raises KeyError, an unknown atom or transform ShapeError.
    """
    atom = obj.get("atom")
    params = obj.get("params", {})
    if atom == "separable_sum":
        fn = SeparableSum(
            [
                (b["weight"], function_from_spec(b["fn"]), b["start"])
                for b in params["blocks"]
            ]
        )
    else:
        cls, fields = _spec_entry(_ATOMS_BY_NAME, atom, "atom name")
        fn = cls(*_field_args(params, fields))
    for t in obj.get("transforms", []):
        cls, fields = _spec_entry(_TRANSFORMS_BY_NAME, t.get("kind"), "transform kind")
        fn = cls(fn, *_field_args(t, fields))
    return fn
