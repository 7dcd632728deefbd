"""Ground truth for the verification suites and the limit reports.

Pseudo-inverses of small PSD matrices, brute-force grids in dimension at
most 2, adjoint-fiber searches, the large-parameter limit targets and the
per-term (defining-sum) evaluations of mixtures.  No solver calls them,
and they share none of the solvers' reductions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError, UnsupportedConjugate, UnsupportedDimension
from .functions import ConvexFunction, _dot, _norm
from .linalg import DenseMap, _RANGE_TOL, _psd_eigh
from .moreau import _fista, _minimize_rows, _recession_certified, _row_report

__all__ = [
    "PseudoInverse",
    "pseudo_inverse_small",
    "grid_points",
    "grid_conjugate",
    "grid_envelope",
    "grid_prox",
    "grid_min",
    "refined_grid_min",
    "pushforward_infimum",
]

_MAX_GRID_STEPS = 2001


class PseudoInverse(NamedTuple):
    """Generalized inverse of a symmetric PSD matrix plus its range data."""

    map: DenseMap
    range_basis: np.ndarray  # orthonormal columns spanning ran A
    rank: int


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
    return np.asarray(fn(pts), dtype=float).reshape(len(pts))


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


def refined_grid_min(objective, lo, hi, steps=801):
    """Two-stage grid minimum: localize coarsely, then refine.

    Cuts the cell-quantization error of a single pass by re-gridding a
    window of two coarse cells around the coarse winner.  Returns
    ``(value, argmin)``.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    _, coarse_pt = grid_min(objective, lo, hi, steps)
    # value ties at kinks can crown a neighboring cell, so refine a window
    # wider than one coarse cell
    h = (hi - lo) / steps
    return grid_min(objective, coarse_pt - 2.5 * h, coarse_pt + 2.5 * h, steps)


def pushforward_infimum(operator, fn, x, halfwidth=10.0, steps=801):
    """Infimum of ``fn`` over the adjoint fiber ``{y : L* y = x}``.

    Exact when the adjoint is injective; otherwise parametrizes the fiber
    by a null-space basis (at most two directions) and runs a refined
    grid search over the coefficients.  Returns ``(value, witness)`` with
    the witness point attaining (approximately) the infimum, ``(inf, None)``
    when the fiber is empty, or ``(-inf, None)`` when ``_recedes`` certifies
    that ``fn`` decreases without bound along the fiber.  It finds the fiber point
    with its own ``lstsq`` and rank test, not through
    ``DenseMap.isometric_factor``, so that it stays an independent oracle
    for the exact composition.
    """
    adj = operator.entries.T  # maps dual (rows) points to base (cols)
    y0, *_ = np.linalg.lstsq(adj, x, rcond=None)
    if np.linalg.norm(adj @ y0 - x) > _RANGE_TOL * (1 + np.linalg.norm(x)):
        return np.inf, None
    rank = np.linalg.matrix_rank(adj, tol=1e-10)
    if rank == operator.rows:
        return float(np.asarray(fn(y0))), y0
    _, _, vh = np.linalg.svd(adj, full_matrices=True)
    null = vh[rank:].T  # orthonormal basis of ker(adjoint)
    if _recedes(fn, null.T):
        return -np.inf, None
    k = null.shape[1]
    value, t = refined_grid_min(
        lambda T: np.asarray(fn(y0[None, :] + T @ null.T)).reshape(len(T)),
        -halfwidth * np.ones(k),
        halfwidth * np.ones(k),
        steps,
    )
    return value, y0 + null @ t


def _recedes(fn, directions):
    """True when a catalog ``fn`` has ``fn_inf(d) < 0`` for a row ``d`` of ``directions`` or ``-d``.

    Then ``fn`` tends to ``-inf`` along ``d`` from every point of its
    domain, so its infimum over an affine set parallel to the rows is
    ``-inf``; the test is ``_recession_certified``'s.  A plain callable,
    or a function without a recession oracle, never recedes.
    """
    if not isinstance(fn, ConvexFunction):
        return False
    both = np.vstack([directions, -directions])
    try:
        return bool(_recession_certified(both, np.zeros_like(both), fn.recession).any())
    except UnsupportedConjugate:
        return False


def _large_gamma_target(operator, fn, x, which, halfwidth):
    """``limit_large_gamma``'s target, on grids of half-width ``halfwidth``: (value, witness).

    The witness is the fiber point of the composition; for ``||L|| < 1``
    the minimizer of ``g``; else the coefficients in an orthonormal basis
    of the range of ``I - LL*`` (none when ``LL* = I``).  The value is
    ``-inf``, with witness None, where ``_recedes`` certifies it: along
    the last proximal-point step for ``||L|| < 1``, else along the
    searched basis.
    """
    if which == "composition":
        return pushforward_infimum(operator, fn, x, halfwidth)
    if operator.norm_bound < 1.0 - 1e-9:
        z, t = np.zeros(fn.dim), 1.0
        for _ in range(300):  # proximal-point descent
            z, z_prev, t = fn.prox(t, z), z, min(t * 1.5, 1e10)
        if _recedes(fn, (z - z_prev)[None]):
            return -np.inf, None
        return float(np.asarray(fn(z))), z
    gram_complement = np.eye(operator.rows) - operator.entries @ operator.entries.T
    basis = pseudo_inverse_small(gram_complement).range_basis
    w = operator.apply(x)
    if basis.shape[1] == 0:
        return float(np.asarray(fn(w))), np.zeros(0)
    if _recedes(fn, basis.T):
        return -np.inf, None
    return refined_grid_min(
        lambda T: np.asarray(fn(w - T @ basis.T)).reshape(len(T)),
        -halfwidth * np.ones(basis.shape[1]),
        halfwidth * np.ones(basis.shape[1]),
    )


def _mixture_direct(spec, x, opts):
    """Defining-sum evaluation of the mixture: ``_minimize_rows`` on the negated dual.

    The dual is ``<z, x> - sum_k alpha_k env_{1/gamma}(g_k*)(L_k z)``, and the
    value its sup minus ``||x||^2/(2 gamma)``.  At the prox points
    ``q_k = prox_{gamma g_k}(gamma L_k z)`` Fenchel-Young holds with
    equality, so each envelope is ``<q_k, L_k z> - g_k(q_k) - ||q_k||^2/(2 gamma)``
    and the gradient is ``x - sum_k alpha_k L_k* q_k``: no ``g_k*``.
    """
    gamma = spec.gamma

    def prox_points(z):
        ws = [t.operator.apply(z) for t in spec.terms]
        return ws, [t.fn.prox(gamma, gamma * w) for t, w in zip(spec.terms, ws)]

    def negated_dual(z):
        ws, qs = prox_points(z)
        h = sum(
            t.alpha * (_dot(q, w) - t.fn._value(q) - _dot(q, q) / (2 * gamma))
            for t, w, q in zip(spec.terms, ws, qs)
        )
        return h - _dot(z, x)

    def gradient(z):
        _, qs = prox_points(z)
        return sum(t.alpha * t.operator.adjoint_apply(q) for t, q in zip(spec.terms, qs)) - x

    lipschitz = max(gamma * sum(t.alpha * t.operator.norm_bound**2 for t in spec.terms), 1e-12)
    values, z, status, iters, residual = _minimize_rows(
        negated_dual, gradient, np.zeros((1, spec.base_dim)), lipschitz, opts
    )
    return _row_report(-values - _dot(x, x) / (2 * gamma), z, status, iters, residual)


def _comixture_direct(spec, x, opts):
    """Defining-sum evaluation of the comixture.

    Proximal-gradient ascent in the weighted dual space, one block ``y_k``
    per term; the block prox is the plain per-term conjugate prox because
    the weighted metric absorbs the weights.  The iteration runs on the
    blocks ``sqrt(alpha_k) y_k``, in which that metric is Euclidean; its
    residual is taken from the momentum point.  Every 50 iterations it
    stops as 'diverged' once an unscaled block has ``||y_k|| > opts.divergence_radius``.

    The value is taken one block step past the last dual: there
    ``y_k' = a_k - p_k/gamma`` with ``p_k = prox_{gamma g_k}(gamma a_k)``
    is a subgradient of ``g_k`` at ``p_k``, so by Fenchel-Young
    ``g_k*(y_k') = <p_k, y_k'> - g_k(p_k)``: no ``g_k*``.
    """
    gamma = spec.gamma
    t_step = 1.0 / gamma
    roots = [np.sqrt(t.alpha) for t in spec.terms]
    ends = np.cumsum([t.fn.dim for t in spec.terms])
    lx = [t.operator.apply(x) for t in spec.terms]

    def blocks(u):
        return [b / r for b, r in zip(np.split(u, ends[:-1]), roots)]

    def combined(vs):
        return sum(t.alpha * t.operator.adjoint_apply(v) for t, v in zip(spec.terms, vs))

    def block_step(u):
        """The next blocks ``sqrt(alpha_k) y_k'`` and the prox points ``p_k``."""
        vs = blocks(u)
        m = combined(vs)
        a = [v + t_step * (w - gamma * (v - t.operator.apply(m)))
             for t, v, w in zip(spec.terms, vs, lx)]
        ps = [t.fn.prox(gamma, gamma * ak) for t, ak in zip(spec.terms, a)]
        return np.concatenate([r * (ak - t_step * p) for r, ak, p in zip(roots, a, ps)]), ps

    def step(momentum):
        u_new = block_step(momentum[0])[0][None]
        return u_new, _norm(u_new - momentum) / t_step

    def escaped(u, _anchor):
        radius = max(np.linalg.norm(b) for b in blocks(u[0]))
        return np.array([radius > opts.divergence_radius])

    u, status, iters, res = _fista(step, np.zeros((1, ends[-1])), opts, escaped=escaped)
    u, ps = block_step(u[0])
    ys = blocks(u)
    m = combined(ys)
    # the weighted defect sum_k alpha_k ||y_k||^2 - ||m||^2 is ||u||^2 - ||m||^2
    defect = 0.5 * (_dot(u, u) - _dot(m, m))
    values = sum(
        t.alpha * (_dot(w - p, y) + t.fn._value(p)) for t, y, w, p in zip(spec.terms, ys, lx, ps)
    ) - gamma * defect
    return _row_report([values], None, status, iters, res)
