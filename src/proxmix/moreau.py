"""Moreau envelopes, a numeric conjugate oracle and brute-force grids.

The grid routines exhaustively evaluate problems in ambient dimension at
most 2 and serve as independent ground truth in the test and verification
suites.  The numeric conjugate maximizes the concave map
``x -> <x, s> - f(x)`` on the shared kernel using only the exact prox of ``f``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import ParameterError, UnsupportedConjugate, UnsupportedDimension
from .functions import BOUNDARY_TOL, ConvexFunction, _all_positive, _dot, _norm, _row_values
from .linalg import _take_rows

__all__ = [
    "SolverOpts",
    "SolveReport",
    "DEFAULT_OPTS",
    "envelope",
    "envelope_gradient",
    "conjugate_numeric",
    "minimize_smooth",
    "grid_points",
    "grid_conjugate",
    "grid_envelope",
    "grid_prox",
    "grid_min",
]

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITER = "max_iter"
INVALID = "invalid"  # a batch row with a NaN or infinite entry; never iterated
# the kernel's int8 status codes 0, 1, 2 name these shared objects
_STATUS_BY_CODE = np.array([MAX_ITER, CONVERGED, DIVERGED], dtype=object)

_MAX_GRID_STEPS = 2001


@dataclass(frozen=True)
class SolverOpts:
    """Tolerances shared by the first-order solvers.

    ``tol`` and ``divergence_radius`` must be finite and positive and
    ``max_iter`` an integer of at least 1 (``ParameterError`` otherwise).
    ``divergence_radius`` declares divergence once an iterate's norm
    exceeds it: in ``minimize_smooth`` and both mixture cross-checks, and
    elsewhere only where no certificate exists: the numeric conjugate of
    an ``f`` without a recession oracle, and the composition solvers for a
    restricted ``dom g`` without a catalog conjugate.
    """

    tol: float = 1e-8
    max_iter: int = 100_000
    divergence_radius: float = 1e6

    def __post_init__(self):
        for v in (self.tol, self.divergence_radius):
            if not (isinstance(v, Real) and 0.0 < v < np.inf):
                raise ParameterError("solver tolerances must be finite and positive")
        if not (isinstance(self.max_iter, Integral) and self.max_iter >= 1):
            raise ParameterError("solver max_iter must be an integer >= 1")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        try:
            tol = float(obj.get("tol", cls.tol))
            max_iter = obj.get("max_iter", cls.max_iter)
            max_iter = int(max_iter) if float(max_iter).is_integer() else max_iter
            radius = float(obj.get("divergence_radius", cls.divergence_radius))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParameterError(f"unparsable solver option: {exc}") from None
        return cls(tol=tol, max_iter=max_iter, divergence_radius=radius)


DEFAULT_OPTS = SolverOpts()


@dataclass
class SolveReport:
    """Outcome of an iterative evaluation.

    ``status == 'converged'`` guarantees ``residual <= tol`` of the opts
    used.  Every residual is measured at the momentum point: for the
    cocomposition and the numeric conjugate, the step length from it per
    unit step (the gradient mapping there); for the composition and
    ``minimize_smooth``, the gradient norm there, in the coordinates of the
    isometric factor for a tall ``L`` (an upper bound on the one in
    ``L``'s).  Composition values come from the prox and the value of
    ``g`` at a prox point, never from ``g*``.
    A composition whose adjoint ``L*`` is injective is exact: 0
    iterations, residual 0.0 when 'converged', and ``argpoint`` None.
    ``status == 'diverged'`` forces ``value == inf``.  For the composition
    solvers and the numeric conjugate 'diverged' means a certificate that
    the value is ``+inf``: a recession (Farkas) certificate, or for an
    exact composition an empty fiber or ``g = +inf`` at its one point;
    ``opts.divergence_radius`` is only the fallback where no such
    certificate exists.  The batch solvers mark rows with a non-finite
    entry 'invalid' (value nan, 0 iterations).
    """

    value: float
    argpoint: Optional[np.ndarray]
    iterations: int
    status: str
    residual: float = field(default=np.nan)

    def __post_init__(self):
        if self.status == DIVERGED:
            self.value = np.inf


def _row_report(values, argpoints, status, iters, residuals):
    """Row 0 of a many-row solve's five arrays as a SolveReport; ``argpoints`` may be None."""
    return SolveReport(
        float(values[0]), None if argpoints is None else argpoints[0], int(iters[0]),
        str(status[0]), float(residuals[0]),
    )


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def envelope(fn: ConvexFunction, gamma, x):
    """Moreau envelope value ``min_y f(y) + ||x-y||^2/(2 gamma)``.

    Always finite; computed through the exact prox.  Batched over the
    leading axes of ``x``; ``gamma`` is a float or, for rows ``(n, dim)``,
    a per-row column ``(n, 1)``.
    """
    if not _all_positive(gamma):
        raise ParameterError("envelope index must be positive")
    x = np.asarray(x, dtype=float)
    p = fn.prox(gamma, x)
    gap = _norm(x - p)
    vals = np.asarray(fn(p)) + gap**2 / (2.0 * _row_values(gamma))
    return float(vals) if vals.ndim == 0 else vals


def envelope_gradient(fn: ConvexFunction, gamma, x):
    """Gradient of the envelope: ``(x - prox_gamma(x)) / gamma``.

    ``gamma`` as for ``envelope``.
    """
    if not _all_positive(gamma):
        raise ParameterError("envelope index must be positive")
    x = np.asarray(x, dtype=float)
    return (x - fn.prox(gamma, x)) / gamma


# ---------------------------------------------------------------------------
# numeric conjugate
# ---------------------------------------------------------------------------


def conjugate_numeric(fn: ConvexFunction, xstar, opts: SolverOpts = DEFAULT_OPTS):
    """Numeric Legendre conjugate ``sup_x <x, s> - f(x)`` (SolveReport).

    Accelerated proximal-point ascent ``z <- prox_f(m + s)`` from ``z = 0``
    through the exact prox of ``f``; the residual is the step length from
    the momentum point ``m``.  'diverged' certifies value ``+inf`` by a
    recession certificate, or by the divergence radius where ``f`` has no
    recession oracle.
    """
    s = np.asarray(xstar, dtype=float).reshape(1, -1)

    def step(momentum):
        z_new = fn.prox(1.0, momentum + s)
        return z_new, _norm(z_new - momentum)

    def escaped(z, anchor):
        try:
            return _recession_certified(z - anchor, s, fn.recession)
        except UnsupportedConjugate:
            return _norm(z) > opts.divergence_radius

    z, status, iters, residual = _fista(step, np.zeros_like(s), opts, escaped=escaped)
    values = _dot(z, s) - np.asarray(fn(z), dtype=float)
    return _row_report(values, z, status, iters, residual)


# ---------------------------------------------------------------------------
# accelerated iteration (shared by every solver)
# ---------------------------------------------------------------------------


_BETAS = np.zeros(1)  # momentum weight by age; see below


def _momentum_weights(size):
    """The FISTA weights ``(t_k - 1)/t_{k+1}`` by age ``k``, at least ``size`` of them.

    ``t_0 = 1``, ``t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2`` in the arithmetic of
    the array recurrence (``t*t``; ``t**2`` rounds differently).  The table
    doubles on demand and is rebuilt whole, so entries never change.
    """
    global _BETAS
    if len(_BETAS) < size:
        t, betas = 1.0, []
        for _ in range(max(size, 2 * len(_BETAS))):
            t, t_prev = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * (t * t))), t
            betas.append((t_prev - 1.0) / t)
        _BETAS = np.array(betas)
    return _BETAS


def _gather(per_row, index):
    """The array entries of ``per_row`` at the rows ``index``; other entries as they are."""
    return tuple(_take_rows(c, index) if isinstance(c, np.ndarray) else c for c in per_row)


def _fista(step, z, opts, active=None, escaped=None, per_row=()):
    """Accelerated iteration on the rows of ``z``: (z, status, iters, residual).

    FISTA (Beck & Teboulle 2009) with per-row gradient-scheme restart
    (O'Donoghue & Candes 2015) on the working set ``rows`` of rows still
    iterating.  A row's momentum weight is read from the
    ``_momentum_weights`` table at its ``age``, the iterations since its
    last restart; no per-row ``t`` is carried, and a restart sets the age
    to 0, whose weight is 0.  ``per_row`` holds the oracles' per-row
    constants: an array has one entry per row of ``z`` and is gathered
    with the working set, only when the set shrinks; any other entry (a
    float) is passed as it is.  ``step(momentum, *per_row)`` returns the
    next iterate and a per-row residual, measured at the momentum point; a
    row is 'converged' once its residual is ``<= opts.tol``.  Every 50
    iterations ``escaped(z, anchor, *per_row)``, ``anchor`` being the
    iterate 50 iterations earlier, marks rows 'diverged'.  A row that
    stops is written out and leaves the set; rows outside ``active`` never
    enter it (0 iterations, residual inf), rows left at ``opts.max_iter``
    are 'max_iter'.  Each row's residual is the one of its last step.
    Statuses are int8 codes until exit, where they become the shared
    status objects.  Rows are taken with ``_take_rows``, which keeps the
    column-major (F) layout the many-row callers build (their products go
    through ``_rows_product``): on rows of 2 to 5 columns numpy then runs
    each elementwise op and each ``(k, 1)`` momentum broadcast over whole
    columns, not one short loop per row.  Once every row has stopped the
    loop ends without compacting the set, so a one-row solve never does.
    """
    n = len(z)
    rows = np.arange(n) if active is None else np.flatnonzero(active)
    codes = np.zeros(n, dtype=np.int8)
    iters = np.zeros(n, dtype=int)
    residual = np.full(n, np.inf)
    z_out, z = z.copy(order="K"), _take_rows(z, rows)
    if active is not None:
        per_row = _gather(per_row, rows)
    momentum = anchor = z
    age, res = np.zeros(len(rows), dtype=int), residual[rows]
    betas, tol, it = _BETAS, opts.tol, 0
    while it < opts.max_iter and len(rows):
        if it == len(betas):
            betas = _momentum_weights(it + 1)
        it += 1
        z_new, res = step(momentum, *per_row)
        delta = z_new - z
        restart = _dot(momentum - z_new, delta) > 0.0
        age[restart] = 0
        momentum = z_new + betas[age][:, None] * delta
        z, age = z_new, age + 1
        stop = converged = res <= tol
        if escaped is not None and it % 50 == 0:
            stop = converged | escaped(z, anchor, *per_row)
            anchor = z
        if np.count_nonzero(stop):
            done, keep = np.flatnonzero(stop), np.flatnonzero(~stop)
            out = rows[done]
            codes[out] = 2 - converged[done]  # 1 converged, 2 diverged
            z_out[out], iters[out], residual[out] = _take_rows(z, done), it, res[done]
            if not len(keep):
                break  # every row is written out: no set to compact
            rows, z, momentum, age, anchor, res = (
                _take_rows(a, keep) for a in (rows, z, momentum, age, anchor, res)
            )
            per_row = _gather(per_row, keep)
    else:
        z_out[rows], iters[rows], residual[rows] = z, it, res
    return z_out, _STATUS_BY_CODE.take(codes), iters, residual


def _outside_radius(opts):
    """Escape test for ``_fista``: rows whose norm exceeds the divergence radius."""
    return lambda z, *_: _norm(z) > opts.divergence_radius


def _recession_certified(step, target, slope):
    """Rows whose displacement ``step`` certifies an infinite value.

    With ``d = step / ||step||`` the objective ``<target, .> - f`` grows
    without bound along ``d`` when ``<target, d> > slope(d)``, ``slope``
    being the recession function of ``f`` (Farkas: ``target`` lies outside
    the closure of ``dom f*``).  The margin must beat the catalog's
    boundary slack; zero rows never certify.
    """
    norm = _norm(step)
    d = step / np.where(norm > 0.0, norm, 1.0)[:, None]
    margin = _dot(target, d) - np.asarray(slope(d), dtype=float)
    return margin > BOUNDARY_TOL * (1.0 + _norm(target))


def _minimize_rows(value_fn, grad_fn, X0, lipschitz, opts, per_row=()):
    """Accelerated gradient descent on the rows of ``X0`` with step ``1/lipschitz``.

    ``_fista`` on ``x <- m - grad_fn(m, *per_row) / lipschitz``;
    ``lipschitz`` is a float or a per-row column, and ``per_row`` holds the
    oracles' per-row constants, gathered as in ``_fista``.  The residual is
    ``||grad_fn(m)||``; the escape test is the divergence radius.  Returns
    (values, x, status, iters, residuals), with ``value_fn(x, *per_row)``
    as values and ``+inf`` on 'diverged' rows.
    """

    def advance(momentum, step, *consts):
        grad = grad_fn(momentum, *consts)
        return momentum + step * grad, _norm(grad)

    x, status, iters, residual = _fista(
        advance, X0, opts, escaped=_outside_radius(opts),
        per_row=(-1.0 / lipschitz, *per_row),
    )
    values = np.where(status == DIVERGED, np.inf, value_fn(x, *per_row))
    return values, x, status, iters, residual


def minimize_smooth(value_fn, grad_fn, x0, lipschitz, opts: SolverOpts = DEFAULT_OPTS):
    """Accelerated gradient descent with fixed step ``1/lipschitz``.

    Uses gradient-scheme restart.  'converged' means the gradient norm at
    the momentum point is ``<= opts.tol`` (the report's residual); the
    argpoint is the gradient step taken from there.  An iterate whose norm
    exceeds the divergence radius (tested every 50 iterations) reports
    'diverged', which callers read as a non-coercive objective.  One row
    of ``_minimize_rows``.
    """
    if not lipschitz > 0:
        raise ParameterError("Lipschitz constant must be positive")
    return _row_report(*_minimize_rows(
        lambda x: value_fn(x[0]),
        lambda m: np.reshape(grad_fn(m[0]), (1, -1)),
        np.asarray(x0, dtype=float).reshape(1, -1),
        lipschitz,
        opts,
    ))


# ---------------------------------------------------------------------------
# grid oracles (dimension <= 2)
# ---------------------------------------------------------------------------


def grid_points(lo, hi, steps):
    """Cell-center sample points of the box ``[lo, hi]`` per axis.

    Returns an ``(N, dim)`` array in row-major order (first axis slowest),
    so ``argmin`` tie-breaking picks the lexicographically first point.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape:
        raise ParameterError("grid bounds must have matching shapes")
    dim = lo.shape[0]
    if dim > 2:
        raise UnsupportedDimension("grid oracles only run in dimension <= 2")
    if not 1 <= steps <= _MAX_GRID_STEPS:
        raise ParameterError(f"grid steps must be in 1..{_MAX_GRID_STEPS}")
    axes = [
        lo[i] + (np.arange(steps) + 0.5) * (hi[i] - lo[i]) / steps
        for i in range(dim)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def _call(fn, pts):
    vals = fn(pts)
    return np.asarray(vals, dtype=float).reshape(len(pts))


def grid_conjugate(fn, xstar, lo, hi, steps):
    """Brute-force ``sup_x <x, s> - f(x)`` over the grid."""
    pts = grid_points(lo, hi, steps)
    xstar = np.asarray(xstar, dtype=float)
    vals = pts @ xstar - _call(fn, pts)
    return float(np.max(vals))


def grid_envelope(fn, gamma, x, lo, hi, steps):
    """Brute-force Moreau envelope value at ``x``."""
    if not gamma > 0:
        raise ParameterError("envelope index must be positive")
    pts = grid_points(lo, hi, steps)
    x = np.asarray(x, dtype=float)
    vals = _call(fn, pts) + np.linalg.norm(pts - x, axis=-1) ** 2 / (2 * gamma)
    return float(np.min(vals))


def grid_prox(fn, gamma, x, lo, hi, steps):
    """Brute-force prox point; ties resolve to the first grid point."""
    if not gamma > 0:
        raise ParameterError("prox parameter must be positive")
    pts = grid_points(lo, hi, steps)
    x = np.asarray(x, dtype=float)
    vals = _call(fn, pts) + np.linalg.norm(pts - x, axis=-1) ** 2 / (2 * gamma)
    return pts[int(np.argmin(vals))]


def grid_min(fn, lo, hi, steps):
    """Brute-force unconstrained minimum: ``(value, argmin)``."""
    pts = grid_points(lo, hi, steps)
    vals = _call(fn, pts)
    idx = int(np.argmin(vals))
    return float(vals[idx]), pts[idx]
