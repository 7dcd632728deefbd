"""Catalog of proper lsc convex functions with exact first-order oracles.

Each catalog atom knows its value, proximity operator, Legendre conjugate
and recession function in closed form.  The catalog is closed under a
small transform calculus (translation, argument/value scaling, affine and
quadratic perturbation); a stack of them, outermost last, folds into one
``TransformedFunction`` whose oracles are closed forms.  A parameter that
is not finite raises ParameterError where the function is built.

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

import math

import numpy as np

from .errors import (
    DimensionError,
    ParameterError,
    ShapeError,
    UnsupportedConjugate,
)
from .linalg import _json_numbers, _psd_eigh, _row_sum

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


def _norm(x):
    """``np.linalg.norm(x, axis=-1)`` of a real array, through ``_row_sum``.

    Bit for bit for up to seven columns, within a few ulps beyond.
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


def _constant_congruence(C, x):
    """The ``k x k`` matrix ``C`` once per row of ``x``: a read-only view ``(k, k, n)``."""
    return np.broadcast_to(C[:, :, None], C.shape + x.shape[:1])


def _diagonal_congruence(diag, W):
    """``W^T diag(d) W`` for each row ``d`` of ``diag`` ``(n, m)``, by one product: ``(k, k, n)``.

    Row ``i`` of ``W`` contributes ``d_i w_i w_i^T``, so the sum is the
    ``k^2 x m`` table of those outer products times ``diag``.
    """
    m, k = W.shape
    outer = (W[:, :, None] * W[:, None, :]).reshape(m, k * k)
    return (outer.T @ diag.T).reshape(k, k, len(diag))


def _rank_one_congruence(a, b, e, W):
    """``W^T (a I + b e e^T) W`` for unit rows ``e`` ``(n, m)`` and per-row ``a``, ``b``:
    ``(k, k, n)``, each entry an ``n``-vector."""
    eW = W.T @ e.T  # (k, n), C-ordered for the F-ordered rows of the solvers
    return (W.T @ W)[:, :, None] * a + (eW[:, None, :] * eW) * b


def _shrink_jacobian(v, thresh, W):
    """The congruence of the Jacobian of ``v -> v (1 - thresh / max(||v||, thresh))``.

    ``(1 - thresh/||v||) I + (thresh/||v||) e e^T``, ``e = v/||v||``, where
    ``||v|| > thresh``, else 0; with the prox's own divisor floors a zero
    ``thresh`` gives ``I``.
    """
    nv, thresh = _norm(v), _row_values(thresh)
    s = thresh / np.maximum(nv, thresh + _TINY)
    return _rank_one_congruence(1.0 - s, s * (nv > thresh), v / np.maximum(nv, _TINY)[:, None], W)


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

    ``_prox_jacobian(gamma, x, W)`` returns, for rows ``x`` ``(n, dim)``,
    the congruences ``W^T J W`` by a ``(dim, k)`` matrix ``W`` of a
    generalized Jacobian ``J`` of ``prox_{gamma f}`` at each row (symmetric,
    ``0 <= J <= I``, a one-sided derivative at a kink), as ``(k, k, n)``:
    each matrix entry is a vector over the rows, and no ``(n, dim, dim)``
    array is built.  Every catalog function but ``OracleFunction`` has the
    hook; ``has_prox_jacobian`` says whether a whole tree does.
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

    def has_prox_jacobian(self):
        """True when every function in the tree has ``_prox_jacobian``.

        Not so with an ``OracleFunction`` (its prox is a black box) or a
        subclass without the hook anywhere in the tree.
        """
        return hasattr(self, "_prox_jacobian")

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

    # -- transform builders (folded into one TransformedFunction) --------
    def translate(self, w):
        """``y -> f(y - w)``."""
        h, a, b, c, u, alpha, rho, done = _fold_params(self)
        w = _vector(w, self.dim, "translation vector")
        shift = w if b == 1.0 else b * w
        if u is not None:
            alpha -= float(_dot(u, w))
        if rho:
            alpha += 0.5 * rho * float(_dot(w, w))
            u = -rho * w if u is None else u - rho * w
        c = shift if c is None else c + shift
        return _fold(("translate", (w,)), h, a, b, c, u, alpha, rho, done)

    def scale_arg(self, rho):
        """``y -> f(rho y)`` with rho > 0."""
        (h, a, b, c, u, alpha, q, done), rho = _fold_params(self), _check_rho(rho)
        u = None if u is None else u * rho
        return _fold(("scale_arg", (rho,)), h, a, b * rho, c, u, alpha, q * rho * rho, done)

    def scale_val(self, rho):
        """``y -> rho f(y)`` with rho > 0."""
        (h, a, b, c, u, alpha, q, done), rho = _fold_params(self), _check_rho(rho)
        u = None if u is None else u * rho
        return _fold(("scale_val", (rho,)), h, a * rho, b, c, u, alpha * rho, q * rho, done)

    def add_affine(self, u, alpha=0.0):
        """``y -> f(y) + <y, u> + alpha``."""
        h, a, b, c, total, offset, rho, done = _fold_params(self)
        u, alpha = _vector(u, self.dim, "affine term"), float(alpha)
        total = u if total is None else total + u
        return _fold(("add_affine", (u, alpha)), h, a, b, c, total, offset + alpha, rho, done)

    def add_quad(self, rho):
        """``y -> f(y) + rho ||y||^2 / 2`` with rho >= 0."""
        if not 0 <= rho < np.inf:
            raise ParameterError(f"quadratic weight must be finite and >= 0, got {rho}")
        (h, a, b, c, u, alpha, q, done), rho = _fold_params(self), float(rho)
        return _fold(("add_quad", (rho,)), h, a, b, c, u, alpha, q + rho, done)

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
    """``rho`` as a float; ParameterError unless it is positive and finite."""
    if not 0 < rho < np.inf:
        raise ParameterError(f"scaling factor must be positive and finite, got {rho}")
    return float(rho)


def _finite(value, what):
    """``value`` as a float array; ParameterError when an entry is not finite."""
    arr = np.array(value, dtype=float)
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # half the cost of .all()
        raise ParameterError(f"{what} must be finite")
    return arr


def _check_dim(dim, least=1, what="dimension"):
    """``dim`` as an int; ParameterError unless it is an integer >= ``least`` (``2.0`` counts)."""
    real = type(dim) is int or isinstance(dim, (float, np.integer, np.floating))  # not bool
    if not (real and least <= dim < np.inf and dim == int(dim)):
        raise ParameterError(f"{what} must be an integer >= {least}, got {dim!r}")
    return int(dim)


def _vector(value, dim, what):
    """A read-only vector of length ``dim``."""
    arr = np.array(value, dtype=float)
    if arr.shape != (dim,):
        raise DimensionError(f"{what} dimension mismatch")
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------


class L1Norm(ConvexFunction):
    """``x -> sum_i |x_i|``; prox is the soft threshold."""

    def __init__(self, dim):
        self.dim = _check_dim(dim)

    def _value(self, x):
        return np.sum(np.abs(x), axis=-1)

    # a sublinear function is its own recession function
    _recession = _value

    def _prox(self, gamma, x):
        # x minus its clamp to [-gamma, gamma]; np.clip costs more on one row
        return x - np.minimum(np.maximum(x, -gamma), gamma)

    def _prox_jacobian(self, gamma, x, W):
        # diagonal: 1 where the soft threshold passes x_i on, 0 where it clamps
        return _diagonal_congruence(np.abs(x) > gamma, W)

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
        self.dim = _check_dim(dim)

    def _value(self, x):
        return _norm(x)

    _recession = _value

    def _prox(self, gamma, x):
        # The factor is exactly 0 once ||x|| <= gamma.  The floor keeps 0 / 0
        # out where a wrapper's rescaled gamma underflows to 0, and adds
        # nothing to a gamma above 1e-292.
        return x * (1.0 - gamma / np.maximum(_norm(x)[..., None], gamma + _TINY))

    def _prox_jacobian(self, gamma, x, W):
        return _shrink_jacobian(x, gamma, W)

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
        a = _finite(matrix, "quadratic matrix")
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

    def _prox_jacobian(self, gamma, x, W):
        # V diag(1 / (1 + gamma lambda)) V^T, the same for every x
        shrink = np.broadcast_to(1.0 / (1.0 + gamma * self._eigvals), x.shape)
        return _diagonal_congruence(shrink, self._eigvecs_t @ W)

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
        self.u = _finite(u, "affine vector")
        self.u.setflags(write=False)
        self.alpha = float(alpha)
        if not math.isfinite(self.alpha):
            raise ParameterError("affine offset must be finite")
        self.dim = self.u.shape[0]

    def _value(self, x):
        return _dot(x, self.u) + self.alpha

    def _prox(self, gamma, x):
        return x - gamma * self.u

    def _prox_jacobian(self, gamma, x, W):
        return _constant_congruence(W.T @ W, x)

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
        if not 0 <= radius < np.inf:
            raise ParameterError("ball radius must be nonnegative and finite")
        self.center = _finite(center, "ball center")
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

    def _prox_jacobian(self, gamma, x, W):
        # I inside the ball, (r/||d||)(I - e e^T) outside; 0 at radius 0
        d = x - self.center
        nd = _norm(d)
        s = self.radius / np.maximum(nd, self.radius + _TINY)
        e = d / np.maximum(nd, _TINY)[:, None]
        return _rank_one_congruence(s, -s * (nd > self.radius), e, W)

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
        b = _finite(basis, "subspace basis")
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

    def _prox_jacobian(self, gamma, x, W):
        BW = self._basis_t @ W
        return _constant_congruence(BW.T @ BW, x)

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

    def _prox_jacobian(self, gamma, x, W):
        # with f = move/||d||: (1 - f) I, plus e e^T times (f - 1) where the
        # prox projects onto the ball (||d|| - r < gamma), f where it moves gamma
        d, gamma = x - self.center, _row_values(gamma)
        nd = _norm(d)
        floored = np.maximum(nd, _TINY)
        f = np.minimum(np.maximum(nd - self.radius, 0.0), gamma) / floored
        b = (f - (nd - self.radius < gamma)) * (nd > self.radius)
        return _rank_one_congruence(1.0 - f, b, d / floored[:, None], W)

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

    def _prox_jacobian(self, gamma, x, W):
        return _shrink_jacobian(x - gamma * self.center, gamma * self.radius, W)

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
        blocks = [(w, fn, _check_dim(start, 0, "separable block start")) for w, fn, start in blocks]
        for weight, fn, start in sorted(blocks, key=lambda b: b[2]):
            if start != offset:
                raise ShapeError("separable blocks must tile the space contiguously")
            if not 0 < weight < np.inf:
                raise ParameterError("separable block weights must be positive and finite")
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

    def _prox_jacobian(self, gamma, x, W):
        # J is block diagonal, so W^T J W sums the blocks' congruences
        total = 0.0
        for w, fn, sl in self.blocks:
            total = total + fn._prox_jacobian(gamma * w, x[..., sl], W[sl])
        return total

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

    def has_prox_jacobian(self):
        return all(fn.has_prox_jacobian() for _, fn, _ in self.blocks)


# ---------------------------------------------------------------------------
# the transform fold
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

    def has_prox_jacobian(self):
        return self.inner.has_prox_jacobian()


class TransformedFunction(_Transform):
    """``x -> a h(b x - c) + <x, u> + alpha + rho ||x||^2 / 2`` with a, b > 0, rho >= 0.

    The builders fold into one of these, so ``inner`` (``h``) is never one.
    A parameter at its neutral value (``c``, ``u`` None until set, ``a``,
    ``b`` 1, ``alpha``, ``rho`` 0) costs no numpy op, so one transform does
    the arithmetic of its own closed form.  ``transforms`` holds the builder
    calls as ``(kind, args)``, innermost first, for the JSON form.
    """

    def __init__(self, inner, a=1.0, b=1.0, c=None, u=None, alpha=0.0, rho=0.0, transforms=()):
        super().__init__(inner)
        self.a, self.b, self.c, self.u = a, b, c, u
        self.alpha, self.rho, self.transforms = alpha, rho, transforms

    def _value(self, x):
        y = x if self.b == 1.0 else self.b * x
        out = self.inner._value(y if self.c is None else y - self.c)
        if self.a != 1.0:
            out = self.a * out
        if self.u is not None:
            out = out + _dot(x, self.u)
        if self.alpha:
            out = out + self.alpha
        if self.rho:
            out = out + 0.5 * self.rho * _norm(x) ** 2
        return out

    def _prox(self, gamma, x):
        # prox_{gamma f}(x) = (c + prox_{a b^2 g h}(b x' - c)) / b at
        # g = gamma / (1 + gamma rho), x' = (x - gamma u) / (1 + gamma rho)
        if self.rho:
            shrink = 1.0 + gamma * self.rho
            gamma, x = gamma / shrink, x / shrink
        if self.u is not None:
            x = x - gamma * self.u
        if self.b != 1.0:
            x = self.b * x
        if self.c is not None:
            x = x - self.c
        scale = self.a * self.b**2
        p = self.inner._prox(gamma if scale == 1.0 else gamma * scale, x)
        if self.c is not None:
            p = self.c + p
        return p if self.b == 1.0 else p / self.b

    def _prox_jacobian(self, gamma, x, W):
        # the chain rule, J_h / (1 + gamma rho), at the parameter and point
        # where _prox calls the inner prox (neutral steps are exact)
        shrink = 1.0 + gamma * self.rho
        gamma = gamma / shrink
        y = self.b * (x / shrink if self.u is None else x / shrink - gamma * self.u)
        if self.c is not None:
            y = y - self.c
        jac = self.inner._prox_jacobian(gamma * (self.a * self.b**2), y, W)
        return jac / _row_values(shrink) if self.rho else jac

    def _conjugate(self, s):
        if self.rho:
            # (f0 + rho Q)* is the Moreau envelope of f0* with index rho
            f0 = TransformedFunction(self.inner, self.a, self.b, self.c, self.u, self.alpha)
            p = f0._prox_conjugate(self.rho, s)
            return f0._conjugate(p) + 0.5 / self.rho * _norm(s - p) ** 2
        # a h*((s - u) / (ab)) + <s - u, c> / b - alpha
        t = s if self.u is None else s - self.u
        ab = self.a * self.b
        out = self.inner._conjugate(t if ab == 1.0 else t / ab)
        if self.a != 1.0:
            out = self.a * out
        if self.c is not None:
            tc = _dot(t, self.c)
            out = out + (tc if self.b == 1.0 else tc / self.b)
        return out - self.alpha if self.alpha else out

    def _recession(self, x):
        if self.rho:
            # ``iota_{0}``; the inner call keeps an oracle without a recession raising
            base = self.inner._recession(np.zeros_like(x))
            return np.where(_norm(x) <= BOUNDARY_TOL, base * 0.0, np.inf)
        out = self.inner._recession(x if self.b == 1.0 else self.b * x)
        if self.a != 1.0:
            out = self.a * out
        return out if self.u is None else out + _dot(x, self.u)

    def lipschitz_bound(self):
        beta = self.inner.lipschitz_bound()
        if beta is None or self.rho:
            return None
        beta = self.a * self.b * beta
        return beta if self.u is None else beta + float(np.linalg.norm(self.u))

    def __repr__(self):
        return f"{_TRANSFORMS[self.transforms[-1][0]][0]}(dim={self.dim})"


def _fold_params(fn):
    """``(h, a, b, c, u, alpha, rho, transforms)`` of ``fn``; a plain ``fn`` is its own ``h``."""
    if isinstance(fn, TransformedFunction):
        return fn.inner, fn.a, fn.b, fn.c, fn.u, fn.alpha, fn.rho, fn.transforms
    return fn, 1.0, 1.0, None, None, 0.0, 0.0, ()


def _fold(call, h, a, b, c, u, alpha, rho, done):
    """The TransformedFunction of these parameters, ``call = (kind, args)`` recorded last;
    ParameterError unless a, b > 0 and a b^2, rho, alpha, ``c`` and ``u`` are finite."""
    # math.isfinite on the entries as floats: a third of numpy's cost on a short vector
    entries = [e for v in (c, u) if v is not None for e in v.tolist()]
    if not (a > 0 and b > 0 and all(map(math.isfinite, (a * b * b, rho, alpha, *entries)))):
        raise ParameterError(f"{call[0]} makes a folded transform parameter 0 or not finite")
    return TransformedFunction(h, a, b, c, u, alpha, rho, done + (call,))


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

    def _prox_jacobian(self, gamma, x, W):
        # (r I + gamma J_h) / (gamma + r), J_h at index gamma + r
        total = gamma + self.index
        inner = self.inner._prox_jacobian(total, x, W)
        gamma, total = _row_values(gamma), _row_values(total)
        return ((self.index * (W.T @ W))[:, :, None] + gamma * inner) / total

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
    parameter value via ``prox_gamma``.  Its conjugate and recession raise
    UnsupportedConjugate, and it has no Lipschitz bound.
    """

    def __init__(self, dim, value_fn, prox_fn=None, prox_gamma=None, full_domain=True):
        self.dim = _check_dim(dim)
        self._value_fn = value_fn
        self._prox_fn = prox_fn
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
        raise UnsupportedConjugate("oracle function has no closed conjugate")

    def _recession(self, x):
        raise UnsupportedConjugate("oracle function has no recession oracle")

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
    a sum of two atoms) and for singular quadratic forms.  A transformed
    function maps through the conjugate calculus of its folded form in one
    step, with a Moreau envelope for a quadratic term.  Raises
    UnsupportedConjugate otherwise.
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
    if isinstance(fn, TransformedFunction):
        # with rho = 0, f* = a h*((s - u)/(ab)) + <s - u, c>/b - alpha; rho Q
        # turns it into its Moreau envelope with index rho
        out, ab = conjugate_function(fn.inner), fn.a * fn.b
        out = out if ab == 1.0 else out.scale_arg(1.0 / ab)
        out = out if fn.a == 1.0 else out.scale_val(fn.a)
        out = out if fn.u is None else out.translate(fn.u)
        if fn.c is not None or fn.alpha:
            shift = np.zeros(fn.dim) if fn.c is None else fn.c / fn.b
            uc = 0.0 if fn.c is None or fn.u is None else float(_dot(fn.u, fn.c)) / fn.b
            out = out.add_affine(shift, 0.0 - fn.alpha - uc)  # a zero offset stays +0.0
        return MoreauEnvelopeFunction(out, fn.rho) if fn.rho else out
    if isinstance(fn, MoreauEnvelopeFunction):
        return conjugate_function(fn.inner).add_quad(fn.index)
    raise UnsupportedConjugate(
        f"no catalog form for the conjugate of {type(fn).__name__}"
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

# class -> (JSON name, constructor fields); every field is an attribute of the
# same name, and only ``alpha`` may be left out (0)
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
_ATOMS_BY_NAME = {name: (c, f) for c, (name, f) in _ATOM_SPECS.items()}
# transform kind, the builder's name -> (the name ``repr`` shows, its arguments)
_TRANSFORMS = {
    "translate": ("TranslatedFunction", ("w",)),
    "scale_arg": ("ArgScaledFunction", ("rho",)),
    "scale_val": ("ValueScaledFunction", ("rho",)),
    "add_affine": ("AffineAddedFunction", ("u", "alpha")),
    "add_quad": ("QuadAddedFunction", ("rho",)),
}


def _spec_fields(fields, values):
    """The JSON form of named constructor or builder arguments."""
    return {name: np.asarray(v).tolist() for name, v in zip(fields, values)}


def _field_args(obj, fields):
    """Constructor arguments of a spec: ``_json_numbers`` but ``dim``; ``alpha`` 0 if absent."""
    args = [obj.get(name, 0.0) if name == "alpha" else obj[name] for name in fields]
    return [v if name == "dim" else _json_numbers(v, name) for name, v in zip(fields, args)]


def _spec_entry(table, name, what):
    """The table entry of a JSON name; ShapeError when unknown."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: a name that is not hashable
        raise ShapeError(f"unknown {what}: {name!r}") from None


def function_to_spec(fn):
    """Serialize a catalog function to the JSON spec dictionary."""
    transforms = []
    if type(fn) is TransformedFunction:
        transforms = [
            {"kind": kind, **_spec_fields(_TRANSFORMS[kind][1], args)}
            for kind, args in fn.transforms
        ]
        fn = fn.inner
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
        params = _spec_fields(fields, (getattr(fn, name) for name in fields))
    else:
        raise ShapeError(f"{type(fn).__name__} has no JSON spec form")
    return {"atom": atom, "params": params, "transforms": transforms}


def function_from_spec(obj):
    """Build a catalog function from its JSON spec dictionary.

    A missing field raises KeyError, an unknown atom or transform ShapeError.
    The transforms replay through the builders, innermost first.
    """
    atom = obj.get("atom")
    params = obj.get("params", {})
    if atom == "separable_sum":
        fn = SeparableSum(
            [
                (_json_numbers(b["weight"], "weight"), function_from_spec(b["fn"]), b["start"])
                for b in params["blocks"]
            ]
        )
    else:
        cls, fields = _spec_entry(_ATOMS_BY_NAME, atom, "atom name")
        fn = cls(*_field_args(params, fields))
    for t in obj.get("transforms", []):
        kind = t.get("kind")
        _, fields = _spec_entry(_TRANSFORMS, kind, "transform kind")
        fn = getattr(fn, kind)(*_field_args(t, fields))
    return fn
