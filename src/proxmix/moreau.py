"""Moreau envelopes, a numeric conjugate oracle and brute-force grids.

The grid routines exhaustively evaluate problems in ambient dimension at
most 2 and serve as independent ground truth in the test and verification
suites.  The numeric conjugate maximizes the concave map
``x -> <x, s> - f(x)`` using only the exact prox of ``f``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParameterError, UnsupportedDimension
from .functions import ConvexFunction

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
    "grid_constrained_min",
]

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITER = "max_iter"
INVALID = "invalid"  # a batch row with a NaN or infinite entry; never iterated

_MAX_GRID_STEPS = 2001
_OBJECTIVE_WINDOW = 100  # iterations the objective must keep rising before
                         # an escaped iterate is declared divergent


@dataclass(frozen=True)
class SolverOpts:
    """Tolerances shared by the first-order solvers.

    ``divergence_radius`` declares divergence once an iterate's norm
    exceeds it; the composition solvers use it only where no recession
    certificate is available.
    """

    tol: float = 1e-8
    max_iter: int = 100_000
    divergence_radius: float = 1e6

    def to_json(self):
        return {
            "tol": self.tol,
            "max_iter": self.max_iter,
            "divergence_radius": self.divergence_radius,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            tol=float(obj.get("tol", 1e-8)),
            max_iter=int(obj.get("max_iter", 100_000)),
            divergence_radius=float(obj.get("divergence_radius", 1e6)),
        )


DEFAULT_OPTS = SolverOpts()


@dataclass
class SolveReport:
    """Outcome of an iterative evaluation.

    ``status == 'converged'`` guarantees ``residual <= tol`` of the opts
    used; ``status == 'diverged'`` forces ``value == inf``.  For the
    composition solvers 'diverged' means a recession (Farkas) certificate
    that the value is ``+inf``; ``opts.divergence_radius`` is only the
    fallback where no such certificate exists.  The batch solvers mark
    rows with a non-finite entry 'invalid' (value nan, 0 iterations).
    """

    value: float
    argpoint: Optional[np.ndarray]
    iterations: int
    status: str
    residual: float = field(default=np.nan)

    def __post_init__(self):
        if self.status == DIVERGED:
            self.value = np.inf


def _as_report(value, argpoint, iterations, status, residual):
    return SolveReport(float(value), argpoint, int(iterations), status, float(residual))


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def envelope(fn: ConvexFunction, gamma, x):
    """Moreau envelope value ``min_y f(y) + ||x-y||^2/(2 gamma)``.

    Always finite; computed through the exact prox.  Batched over the
    leading axes of ``x``.
    """
    if not gamma > 0:
        raise ParameterError("envelope index must be positive")
    x = np.asarray(x, dtype=float)
    p = fn.prox(gamma, x)
    gap = np.linalg.norm(x - p, axis=-1)
    vals = np.asarray(fn(p)) + gap**2 / (2.0 * gamma)
    return float(vals) if vals.ndim == 0 else vals


def envelope_gradient(fn: ConvexFunction, gamma, x):
    """Gradient of the envelope: ``(x - prox_gamma(x)) / gamma``."""
    if not gamma > 0:
        raise ParameterError("envelope index must be positive")
    x = np.asarray(x, dtype=float)
    return (x - fn.prox(gamma, x)) / gamma


# ---------------------------------------------------------------------------
# numeric conjugate
# ---------------------------------------------------------------------------


def conjugate_numeric(fn: ConvexFunction, xstar, opts: SolverOpts = DEFAULT_OPTS):
    """Numeric Legendre conjugate ``sup_x <x, s> - f(x)``.

    Proximal-point iteration ``x <- prox_{t f}(x + t s)`` with a
    geometrically growing step (capped), which keeps the iteration
    convergent while letting genuinely unbounded problems reach the
    divergence radius quickly.  Divergence is declared once the iterate
    norm exceeds ``opts.divergence_radius`` while the objective has kept
    increasing over the trailing window, and certifies value ``+inf``.
    """
    xstar = np.asarray(xstar, dtype=float)
    x = np.zeros_like(xstar)
    t = 1.0
    history = []
    best = -np.inf
    for it in range(1, opts.max_iter + 1):
        x_new = fn.prox(t, x + t * xstar)
        step = float(np.linalg.norm(x_new - x))
        value = float(np.dot(x_new, xstar) - np.asarray(fn(x_new)))
        best = max(best, value)
        history.append(value)
        if step <= opts.tol * t:
            return _as_report(value, x_new, it, CONVERGED, step / t)
        if (
            float(np.linalg.norm(x_new)) > opts.divergence_radius
            and len(history) > _OBJECTIVE_WINDOW
            and history[-1] > history[-1 - _OBJECTIVE_WINDOW]
        ):
            return _as_report(np.inf, x_new, it, DIVERGED, step / t)
        x = x_new
        t = min(t * 2.0, 1e12)
    return _as_report(best, x, opts.max_iter, MAX_ITER, step / t)


# ---------------------------------------------------------------------------
# smooth minimization (shared by the argmin routines)
# ---------------------------------------------------------------------------


def minimize_smooth(value_fn, grad_fn, x0, lipschitz, opts: SolverOpts = DEFAULT_OPTS):
    """Accelerated gradient descent with fixed step ``1/lipschitz``.

    Uses gradient-scheme restart; stops when the gradient norm falls below
    ``opts.tol``.  Escaping iterates (norm beyond the divergence radius)
    report 'diverged', which callers read as a non-coercive objective.
    """
    if not lipschitz > 0:
        raise ParameterError("Lipschitz constant must be positive")
    step = 1.0 / lipschitz
    x = np.asarray(x0, dtype=float).copy()
    momentum = x.copy()
    t_acc = 1.0
    grad = np.asarray(grad_fn(x))
    for it in range(1, opts.max_iter + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= opts.tol:
            return _as_report(value_fn(x), x, it, CONVERGED, gnorm)
        if float(np.linalg.norm(x)) > opts.divergence_radius:
            return _as_report(np.inf, x, it, DIVERGED, gnorm)
        x_new = momentum - step * np.asarray(grad_fn(momentum))
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        beta = (t_acc - 1.0) / t_new
        delta = x_new - x
        if float(np.dot(momentum - x_new, delta)) > 0.0:
            # restart the momentum sequence
            t_new, beta = 1.0, 0.0
        momentum = x_new + beta * delta
        x, t_acc = x_new, t_new
        grad = np.asarray(grad_fn(x))
    return _as_report(value_fn(x), x, opts.max_iter, MAX_ITER, float(np.linalg.norm(grad)))


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


def grid_constrained_min(fn, operator, target, lo, hi, steps, constraint_tol):
    """Minimum of ``fn`` over grid points with ``||L* y - target|| <= tol``.

    ``operator`` is the DenseMap ``L`` whose adjoint defines the affine
    constraint.  Returns ``(inf, None)`` when no grid point is feasible.
    """
    pts = grid_points(lo, hi, steps)
    target = np.asarray(target, dtype=float)
    residual = np.linalg.norm(operator.adjoint_apply(pts) - target, axis=-1)
    feasible = residual <= constraint_tol
    if not np.any(feasible):
        return np.inf, None
    vals = np.where(feasible, _call(fn, pts), np.inf)
    idx = int(np.argmin(vals))
    return float(vals[idx]), pts[idx]
