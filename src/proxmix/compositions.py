"""Proximal compositions and cocompositions of a function with an operator.

For an operator ``L`` with ``0 < ||L|| <= 1``, a catalog function ``g`` and
a parameter ``gamma > 0`` this module evaluates the two compositions

* composition:      ``comp(x)  = min over {y : L* y = x} of g(y) + Phi(y)/gamma``
* cocomposition:    ``cocomp(x) = sup over y of <Lx, y> - g*(y) - gamma Phi(y)``

where ``Phi(y) = (||y||^2 - ||L* y||^2) / 2`` is the quadratic defect of
the adjoint.  The composition ascends its dual on the range factor of
``L``, except where ``L*`` is injective: its fiber is one point or empty,
so the value is exact.  For ``||L|| < 1`` the cocomposition is a metric
Moreau envelope whose minimizer is one prox away from the root of a map on
``R^k``, found with semismooth Newton steps through the closed-form prox
Jacobians of the catalog; at ``||L|| = 1``, and for a ``g`` without such a
Jacobian (an ``OracleFunction`` or a subclass without the hook in its tree,
which covers a prox that exists at one parameter only), it ascends its
dual from the solution for a multiple ``LL*`` of ``I``.  Both ascents
step by one prox of ``g``, in coordinates scaled by its parameter.  Every spectral quantity comes from
one cached SVD of ``L``; every iterated value is the dual value at the
solver's last prox point (a lower bound, by Fenchel-Young: no ``g*``), the
exact composition's is primal.  Prox, envelope, recession and perspective
come in closed form.

Batch variants evaluate many base points in one iteration; rows leave
the iteration when they stop, and many-row arrays stay column-major from
the batch entry points to the kernel and back.  The figure generator and
the verification suites rely on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, DimensionError, ParameterError, UnsupportedConjugate
from .functions import (
    ConvexFunction,
    MoreauEnvelopeFunction,
    _dot,
    _norm,
    _row_values,
    conjugate_function,
)
from .linalg import (
    DenseMap,
    _RANGE_TOL,
    _json_numbers,
    _rows_product,
    _take_rows,
    as_vector,
)
from .moreau import (
    DEFAULT_OPTS,
    SolverOpts,
    _DIVERGED_CODE,
    _INVALID_CODE,
    _STATUS_BY_CODE,
    _fista,
    _minimize_rows,
    _newton,
    _recession_certified,
    _row_report,
    envelope,
    envelope_gradient,
)
from .oracles import _large_gamma_target

__all__ = [
    "CompositionSpec",
    "admissible",
    "eval_composition",
    "eval_composition_batch",
    "eval_cocomposition",
    "eval_cocomposition_batch",
    "prox_composition",
    "prox_cocomposition",
    "envelope_cocomposition",
    "envelope_cocomposition_batch",
    "subgradient_witness_cocomposition",
    "recession_cocomposition",
    "perspective_cocomposition",
    "gamma_sweep",
    "GammaSweepReport",
    "limit_small_gamma",
    "SmallGammaReport",
    "limit_large_gamma",
    "LargeGammaReport",
    "argmin_cocomposition",
    "argmin_gamma_sequence",
    "MinimizerSequenceReport",
]

ADMISSIBILITY_TOL = 1e-9
_SMALL_GAMMA_SLACK = 1e-6  # limit_small_gamma's slack on each gap bound
_LARGE_GAMMA_HALFWIDTH = 10.0  # grid window of limit_large_gamma's target search
_EPS = float(np.finfo(float).eps)


def admissible(operator: DenseMap):
    """True iff ``0 < ||L|| <= 1 + ADMISSIBILITY_TOL``.

    Gates on the tight spectral estimate; the certified bound would add
    its own inflation on top of the acceptance tolerance and reject exact
    isometries.
    """
    sigma = operator.norm_estimate
    return 0.0 < sigma <= 1.0 + ADMISSIBILITY_TOL


class CompositionSpec:
    """An admissible triple ``(L, g, gamma)``.

    The operator maps the ambient space (dimension ``L.cols``) into the
    space of ``g`` (dimension ``L.rows``); admissibility ``0 < ||L|| <= 1``
    is enforced at construction.
    """

    def __init__(self, operator: DenseMap, fn: ConvexFunction, gamma: float):
        if fn.dim != operator.rows:
            raise ParameterError(
                f"function dimension {fn.dim} does not match operator rows {operator.rows}"
            )
        if not 0 < gamma < np.inf:
            raise ParameterError("gamma must be finite and positive")
        if not admissible(operator):
            raise AdmissibilityError(
                f"operator norm bound {operator.norm_bound:.6g} violates 0 < ||L|| <= 1"
            )
        self.operator = operator
        self.fn = fn
        self.gamma = float(gamma)

    def defect(self, y):
        """Quadratic defect ``Phi(y) = (||y||^2 - ||L* y||^2)/2``; batched."""
        y = np.asarray(y, dtype=float)
        return 0.5 * (_norm(y) ** 2 - _norm(self.operator.adjoint_apply(y)) ** 2)

    def to_json(self):
        from .functions import function_to_spec

        return {
            "L": self.operator.to_json(),
            "g": function_to_spec(self.fn),
            "gamma": self.gamma,
        }

    @classmethod
    def from_json(cls, obj):
        from .functions import function_from_spec

        return cls(
            DenseMap.from_json(obj["L"]),
            function_from_spec(obj["g"]),
            float(_json_numbers(obj["gamma"], "gamma")),
        )

    def __repr__(self):
        return (
            f"CompositionSpec({self.operator!r}, {self.fn!r}, gamma={self.gamma})"
        )


# ---------------------------------------------------------------------------
# batch dual ascent cores
# ---------------------------------------------------------------------------


def _domain_support(g):
    """Support function of ``dom g`` (the recession of ``g*``), or None.

    None when the catalog has no conjugate for ``g``; the cores then fall
    back to the divergence radius.  Only built for restricted domains.
    """
    try:
        return conjugate_function(g).recession
    except UnsupportedConjugate:
        return None


def _flat_directions(L):
    """Orthonormal basis of ``ker(I - LL*)``, where ``Phi`` vanishes.

    Left singular vectors (of ``L.thin_svd``) whose singular value is
    within the admissibility slack of 1, possibly none.
    """
    u, sv, _ = L.thin_svd
    return u[:, sv >= 1.0 - ADMISSIBILITY_TOL]


def _dual_start(L, g, LX, gamma):
    """``(Lx - prox_{gamma mu g}(Lx))/(gamma mu)`` with ``mu = max(1 - ||L||^2, 1e-2)``."""
    index = gamma * max(1.0 - L.thin_svd[1][0] ** 2, 1e-2)
    return (LX - g._prox(index, LX)) / index


def _product(X):
    """The product a solve over the rows ``X`` takes: plain ``@`` for one row.

    Two rows or more take ``_rows_product``, which keeps them F-ordered.
    """
    return _rows_product if len(X) > 1 else np.matmul


def _metric_cocomposition(L, g, LX, gamma, opts, mul):
    """The cocomposition for ``||L|| < 1`` as a root in ``R^k``, by semismooth Newton steps.

    ``min_v g(v) + ||v - Lx||_M^2 / (2 gamma)``, ``M = (I - LL*)^-1 = I +
    W W^T``, is attained at ``v = prox_{gamma g}(Lx - W beta)``, ``beta`` the
    root of ``F(beta) = beta + W^T(Lx - v)``, the gradient of a strongly
    convex function (Becker, Fadili & Ochs 2019) whose generalized Hessians
    ``I + W^T J W``, ``J`` from ``g._prox_jacobian``, have eigenvalues in
    ``[1, 1/(1 - ||L||^2)]``: one prox per step from the root for ``LL* =
    (1 - mu) I``, ``mu = max(1 - s_k^2, 1e-2)``, to ``||F|| <= opts.tol + 4
    eps ||W|| ||Lx||``, its rounding floor.  Returns ``v``, its dual ``(Lx -
    W beta - v)/gamma`` in ``dg(v)``, status codes, iterations and residuals.
    """
    (W, WT), sv = L.metric_factor, L.thin_svd[1]
    omega, index = sv[0] ** 2 / (1.0 - sv[0] ** 2), gamma * max(1.0 - sv[-1] ** 2, 1e-2)
    floor = opts.tol + 4.0 * _EPS * omega**0.5 * _norm(LX)

    def step(beta, LX, gamma):
        F = beta + mul(LX - g._prox(gamma, LX - mul(beta, WT)), W)
        return F, _norm(F)

    def jacobian(beta, LX, gamma):
        return np.identity(len(WT))[:, :, None] + g._prox_jacobian(gamma, LX - mul(beta, WT), W)

    beta, status, iters, residual = _fista(
        step, mul(g._prox(index, LX) - LX, W), opts, per_row=(LX, gamma),
        rule=_newton(jacobian), tol=floor,
    )
    u = LX - mul(beta, WT)
    v = g._prox(gamma, u)
    return v, (u - v) / gamma, status, iters, residual


def _past_radius(opts):
    """Escape test: rows past the radius times their scale, the last per-row constant."""
    return lambda z, _anchor, *consts: _norm(z) > opts.divergence_radius * _row_values(consts[-1])


def _dual_cocomposition(L, g, LX, gamma, opts, mul):
    """Proximal-gradient ascent on the dual of the cocomposition at the rows ``LX``.

    The value is finite unless ``g`` has a restricted domain and ``L`` a
    singular value within the admissibility slack of 1, where ``gamma Phi``
    is flat along ``ker(I - LL*)``: every 50 iterations each row's
    displacement, projected onto it, is tested as a recession certificate
    of ``+inf`` (without a catalog conjugate, ``||y|| > opts.divergence_radius``).

    The step ``1/(gamma lam)``, ``lam`` from ``L.dual_step`` (1 for a ``g``
    with a fixed prox parameter) bounding ``||I - LL*||``, is 1 on ``u =
    gamma lam y``: with ``G = I - (I - LL*)/lam``, ``v = m G + Lx`` and the
    next ``u = v - prox_{gamma lam g}(v)``.  The residual ``||u - m||`` is
    the dual's step length per unit step; the step is nonexpansive, so it
    bounds the returned dual's own.  The start is ``gamma lam`` times
    ``_dual_start``, the maximizer when ``I - LL* = mu I``, except 0 for a
    fixed prox parameter and for the radius fallback (a start of norm about
    ``||Lx||/(0.01 gamma)`` could pass the radius with no certificate).  Returns
    as ``_metric_cocomposition``, at ``p = prox_{gamma lam g}(v)`` one step past.
    """
    flat = None if g.has_full_domain() else _flat_directions(L)
    always_finite = flat is None or flat.shape[1] == 0
    sigma = None if always_finite else _domain_support(g)
    lam, gram = (1.0, L.gram) if g.has_fixed_prox_parameter() else L.dual_step
    cold = g.has_fixed_prox_parameter() or (sigma is None and not always_finite)
    index = gamma * lam

    def step(momentum, LX, index):
        v = mul(momentum, gram) + LX
        u = v - g._prox(index, v)
        return u, _norm(u - momentum)

    def certified(u, anchor, LX, _index):
        return _recession_certified(((u - anchor) @ flat) @ flat.T, LX, sigma)

    u, status, iters, residual = _fista(
        step, np.zeros_like(LX) if cold else index * _dual_start(L, g, LX, gamma), opts,
        escaped=None if always_finite else _past_radius(opts) if sigma is None else certified,
        per_row=(LX, index),
    )
    v = mul(u, gram) + LX
    p = g._prox(index, v)
    return p, (v - p) / index, status, iters, residual


def _dual_value(L, g, LX, p, y, gamma, status):
    """``<Lx - p, y> + g(p) - gamma Phi_L(y)`` per row, ``+inf`` where 'diverged': for ``y``
    in ``dg(p)``, the dual objective at ``y`` by Fenchel-Young, a lower bound."""
    LY, half_gamma = L.adjoint_apply(y), 0.5 * _row_values(gamma)
    values = _dot(LX - p, y) + g._value(p) - half_gamma * (_dot(y, y) - _dot(LY, LY))
    values[status == _DIVERGED_CODE] = np.inf
    return values


def _cocomposition_core(spec, X, opts, gamma=None):
    """The cocomposition at the rows of ``X``: (values, duals, codes, iters, residuals).

    ``gamma`` (default ``spec.gamma``) is a float or a per-row column.
    ``_metric_cocomposition`` where ``||L|| < 1`` by the admissibility slack and
    ``g.has_prox_jacobian()`` (so ``g`` has no fixed prox parameter either),
    else ``_dual_cocomposition``; the value is the ``_dual_value`` of the
    pair it returns.
    """
    L, g = spec.operator, spec.fn
    gamma = spec.gamma if gamma is None else gamma
    LX = L.apply(X)
    metric = g.has_prox_jacobian() and L.norm_bound < 1.0 - ADMISSIBILITY_TOL
    solve = _metric_cocomposition if metric else _dual_cocomposition
    p, y, status, iters, residual = solve(L, g, LX, gamma, opts, _product(X))
    return _dual_value(L, g, LX, p, y, gamma, status), y, status, iters, residual


def _injective_adjoint(L):
    """True where the composition is exact: ``L*`` is injective at the rank of the range factor."""
    return L.isometric_factor[0].cols == L.rows


def _composition_core(spec, X, opts, gamma=None):
    """The composition at the rows of ``X``: (values, duals, codes, iters, residuals).

    Rows off the range of ``L*`` are certified infeasible up front: their
    residual ``||x - x V_r V_r^T||``, taken as ``||x - (x R) S_r V_r^T||``
    (``L.range_rows``), exceeds ``_RANGE_TOL (1 + ||x||)``, a test that
    rounds to about ``eps ||x||`` at any conditioning of ``L``.

    Where ``L*`` is injective (``L`` of rank ``rows``) the range factor
    ``Q`` is unitary, so the fiber ``{y : L* y = x}`` is the single point
    ``y = (x R) Q*`` or empty, and the value ``g(y) + (||y||^2 -
    ||x||^2)/(2 gamma)`` is exact: rows off the range or with ``g(y) =
    +inf`` are 'diverged' (with no other point in the fiber, both
    certify), the rest 'converged' with residual 0, all at 0 iterations,
    and ``duals`` is None.

    Otherwise the rows in the range ascend the smooth dual ``<w, x R> - h(Qw)``,
    ``h`` the Moreau envelope of ``g*`` (index ``1/gamma``), on the range factor
    ``(Q, R)``: the fiber of ``L`` over ``x`` is that of ``Q`` over ``x R``, and
    ``Q``'s orthonormal columns make the step ``1/gamma`` whatever the singular
    values of ``L``.  On ``w' = gamma w``, from ``gamma x R``, the step is 1:
    ``grad = x R - prox_{gamma g}(m Q*) Q`` at the momentum point ``m`` (the
    residual is ``||grad||``), then ``m + grad``; the returned dual is ``(w'/gamma)
    R^T``.  The composition is the cocomposition of ``Q`` at ``x R`` plus
    ``(||x R||^2 - ||x||^2)/(2 gamma)``, so the value is the ``_dual_value`` on
    ``Q`` at ``q = prox_{gamma g}(Qw')`` and ``y = (Qw' - q)/gamma``, plus that
    term.  For a restricted ``dom g`` the displacement ``d`` of each row's ``w'``
    over 25 iterations is tested every 50 iterations as a recession certificate
    ``<d, x R> > sigma_{dom g}(Qd)``, proving ``x`` outside ``L*(dom g)``; rows
    that pass are 'diverged' (without a catalog conjugate of ``g``, ``||w|| >
    opts.divergence_radius``).  ``gamma`` is as for ``_cocomposition_core``.
    """
    L, g = spec.operator, spec.fn
    gamma = spec.gamma if gamma is None else gamma
    (Q, R), mul = L.isometric_factor, _product(X)
    XR = mul(X, R)
    XX = _dot(X, X)
    infeasible = _norm(X - mul(XR, L.range_rows)) > _RANGE_TOL * (1.0 + np.sqrt(XX))
    if _injective_adjoint(L):
        Y = Q.apply(XR)
        values = g._value(Y) + (_dot(Y, Y) - XX) / (2.0 * _row_values(gamma))
        diverged = infeasible | (values == np.inf)
        return (
            np.where(diverged, np.inf, values), None,
            np.add(1, diverged, dtype=np.int8),  # 1 converged, 2 diverged
            np.zeros(len(X), dtype=int), np.where(diverged, np.inf, 0.0),
        )

    def certified(w, anchor, XR, _gamma):
        return _recession_certified(w - anchor, XR, lambda d: sigma(Q.apply(d)))

    escaped = None  # a full-domain row in the range has a finite value
    if not g.has_full_domain():
        sigma = _domain_support(g)
        escaped = _past_radius(opts) if sigma is None else certified

    def step(momentum, XR, gamma):
        grad = XR - mul(g._prox(gamma, mul(momentum, Q.adjoint_entries)), Q.entries)
        return momentum + grad, _norm(grad)

    w, status, iters, residual = _fista(
        step, gamma * XR, opts, active=~infeasible, escaped=escaped, per_row=(XR, gamma),
    )
    status[infeasible] = _DIVERGED_CODE
    Qw = Q.apply(w)
    q = g._prox(gamma, Qw)
    values = _dual_value(Q, g, Q.apply(XR), q, (Qw - q) / gamma, gamma, status)
    values += (_dot(XR, XR) - XX) / (2.0 * _row_values(gamma))
    return values, mul(w / gamma, R.T), status, iters, residual


def _base_rows(spec, X):
    """``X`` as float rows; DimensionError unless 2-D with the operator's columns."""
    X = np.asarray(X, dtype=float)
    cols = spec.operator.cols
    if X.ndim != 2 or X.shape[1] != cols:
        raise DimensionError(f"expected rows of dimension {cols}, got shape {X.shape}")
    return X


def _gamma_column(gammas):
    """Parameters as a per-row column ``(n, 1)``; ParameterError unless finite and > 0."""
    column = np.asarray(gammas, dtype=float).reshape(-1, 1)
    if not (np.isfinite(column).all() and (column > 0).all()):
        raise ParameterError("all parameters must be finite and positive")
    return column


def _batch(core, spec, X, opts, gamma=None):
    """Run ``core`` on the finite rows of ``X``: (values, status, iters).

    The core gets those rows F-ordered (``_take_rows``), whatever the
    layout of ``X``, and keeps them so; its int8 status codes become the
    shared status objects here.  Rows with a NaN or infinite entry never
    enter the iteration; they are 'invalid' with value nan and 0
    iterations.  Raises DimensionError unless ``X`` is 2-D with
    ``spec.operator.cols`` columns and ``gamma``, when given, has one
    value per row.
    """
    X = _base_rows(spec, X)
    if gamma is not None:
        gamma = _gamma_column(gamma)
        if len(gamma) != len(X):
            raise DimensionError(f"expected {len(X)} parameters, got {len(gamma)}")
    valid = np.flatnonzero(np.isfinite(X).all(axis=-1))
    values = np.full(len(X), np.nan)
    codes = np.full(len(X), _INVALID_CODE, dtype=np.int8)
    iters = np.zeros(len(X), dtype=int)
    if len(valid):
        per_row = None if gamma is None else gamma.take(valid, axis=0)
        values[valid], _, codes[valid], iters[valid], _ = core(
            spec, _take_rows(X, valid), opts, per_row
        )
    return values, _STATUS_BY_CODE.take(codes), iters


def _single(core, spec, x, opts):
    return _row_report(*core(spec, as_vector(x, spec.operator.cols)[None, :], opts))


def eval_cocomposition(spec, x, opts: SolverOpts = DEFAULT_OPTS):
    """Value of the cocomposition at ``x`` (SolveReport).

    The report's argpoint is the dual maximizer ``y*``; ``L* y*`` is the
    gradient of the cocomposition at ``x`` where it is differentiable.
    'diverged' certifies ``+inf`` by a recession certificate (possible
    only for restricted ``dom g`` and ``||L|| = 1``); the divergence
    radius of ``opts`` is the fallback when ``g`` has no catalog
    conjugate.
    """
    return _single(_cocomposition_core, spec, x, opts)


def eval_cocomposition_batch(spec, X, opts: SolverOpts = DEFAULT_OPTS, gamma=None):
    """Cocomposition values over rows of ``X``: (values, status, iters).

    Statuses as for ``eval_cocomposition``; rows with a non-finite entry
    are 'invalid' with value nan and 0 iterations.  ``gamma``, one
    parameter per row, replaces ``spec.gamma`` row by row: a parameter
    list is one solve.
    """
    return _batch(_cocomposition_core, spec, X, opts, gamma)


def eval_composition(spec, x, opts: SolverOpts = DEFAULT_OPTS):
    """Value of the composition at ``x`` (SolveReport).

    Where ``L*`` is injective at the numerical rank of ``L`` (``L`` has
    rank ``rows``; no cutoff on its conditioning) the value is exact, from
    the one point of the fiber ``{y : L* y = x}``: 0 iterations, residual
    0.0 and ``argpoint`` None; 'diverged' then means the fiber is empty or
    ``g`` is ``+inf`` at its point.  Otherwise the argpoint is the dual
    iterate, and 'diverged' certifies ``+inf``: the base point lies
    outside ``L*(dom g)``, shown by the range test both paths share (0
    iterations: ``||x - x V_r V_r^T|| > 1e-9 (1 + ||x||)``) or, for a
    restricted ``dom g``, by a recession certificate on the dual
    iterates.  A full-domain row that passes the range test is
    finite, so it ends 'converged' or 'max_iter'.  The divergence radius
    of ``opts`` applies only to a restricted ``dom g`` with no catalog
    conjugate.
    """
    return _single(_composition_core, spec, x, opts)


def eval_composition_batch(spec, X, opts: SolverOpts = DEFAULT_OPTS, gamma=None):
    """Composition values over rows of ``X``: (values, status, iters).

    Statuses as for ``eval_composition``; rows with a non-finite entry
    are 'invalid' with value nan and 0 iterations.  ``gamma`` as for
    ``eval_cocomposition_batch``.
    """
    return _batch(_composition_core, spec, X, opts, gamma)


# ---------------------------------------------------------------------------
# exact operations
# ---------------------------------------------------------------------------


def prox_composition(spec, x):
    """Prox of ``gamma * composition``: ``L* prox_{gamma g}(L x)``; exact."""
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    x = np.asarray(x, dtype=float)
    return L.adjoint_apply(g.prox(gamma, L.apply(x)))


def prox_cocomposition(spec, x):
    """Prox of ``gamma * cocomposition``: ``x - L*(Lx - prox_{gamma g}(Lx))``."""
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    x = np.asarray(x, dtype=float)
    w = L.apply(x)
    return x - L.adjoint_apply(w - g.prox(gamma, w))


def _collapse(L, g):
    """Value and gradient of the smooth collapse ``z -> env_gamma(g)(Lz)``.

    Both act on rows ``z`` and take ``gamma``, a float or a per-row column.
    """
    return (
        lambda z, gamma: envelope(g, gamma, L.apply(z)),
        lambda z, gamma: L.adjoint_apply(envelope_gradient(g, gamma, L.apply(z))),
    )


def envelope_cocomposition(spec, rho, x, opts: SolverOpts = DEFAULT_OPTS):
    """Moreau envelope of the cocomposition at index ``rho``.

    The one-row case of ``envelope_cocomposition_batch``.
    """
    x = as_vector(x, spec.operator.cols)
    return float(envelope_cocomposition_batch(spec, rho, x[None, :], opts)[0])


def envelope_cocomposition_batch(spec, rho, X, opts: SolverOpts = DEFAULT_OPTS):
    """Moreau envelope of the cocomposition at index ``rho`` over rows of ``X``.

    Three regimes, each one call for all rows:
    * ``rho == gamma``: collapses exactly to ``envelope(g, gamma, Lx)``;
    * ``rho < gamma``: equals the cocomposition at parameter
      ``gamma - rho`` of the envelope of ``g`` with index ``rho``;
    * ``rho > gamma``: envelope of the smooth collapse at the remaining
      index ``rho - gamma``, computed by strongly convex minimization
      (value ``+inf`` if it reports 'diverged').
    Rows with a non-finite entry get nan.  Raises DimensionError unless
    ``X`` is 2-D with ``spec.operator.cols`` columns, and ParameterError
    unless ``rho`` is finite and positive.
    """
    if not 0 < rho < np.inf:
        raise ParameterError("envelope index must be finite and positive")
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    X = _base_rows(spec, X)
    valid = np.flatnonzero(np.isfinite(X).all(axis=-1))
    X, values = _take_rows(X, valid), np.full(len(X), np.nan)
    # np.isclose(rho, gamma, rtol=1e-12) without its array set-up
    if abs(rho - gamma) <= 1e-8 + 1e-12 * gamma:
        values[valid] = envelope(g, gamma, L.apply(X))
    elif rho < gamma:
        shifted = CompositionSpec(L, MoreauEnvelopeFunction(g, rho), gamma - rho)
        values[valid] = eval_cocomposition_batch(shifted, X, opts)[0]
    else:
        lam = rho - gamma
        lip = L.norm_bound**2 / gamma + 1.0 / lam
        collapse, collapse_grad = _collapse(L, g)
        values[valid] = _minimize_rows(
            lambda z, x: collapse(z, gamma) + _norm(z - x) ** 2 / (2 * lam),
            lambda z, x: collapse_grad(z, gamma) + (z - x) / lam,
            X,
            lip,
            opts,
            per_row=(X,),
        )[0]
    return values


def subgradient_witness_cocomposition(spec, x):
    """A point/subgradient pair ``(p, s)`` of the cocomposition.

    ``p`` is the prox of the scaled cocomposition at ``x`` and
    ``s = (x - p)/gamma`` belongs to the subdifferential at ``p``.
    """
    x = as_vector(x, spec.operator.cols)
    p = prox_cocomposition(spec, x)
    return p, (x - p) / spec.gamma


def recession_cocomposition(spec, x):
    """Recession function of the cocomposition: the recession of ``g`` at ``Lx``."""
    x = np.asarray(x, dtype=float)
    return spec.fn.recession(spec.operator.apply(x))


def perspective_cocomposition(spec, x, xi, opts: SolverOpts = DEFAULT_OPTS):
    """Perspective value of the cocomposition at ``(x, xi)``.

    Positive ``xi`` scales the value at ``x/xi``; ``xi == 0`` falls back
    to the recession function along ``Lx``; negative ``xi`` is infeasible.
    """
    x = as_vector(x, spec.operator.cols)
    if not np.isfinite(xi):
        raise ParameterError(f"perspective scale xi must be finite, got {xi}")
    if xi < 0:
        return np.inf
    if xi == 0:
        return float(recession_cocomposition(spec, x))
    return float(xi * eval_cocomposition(spec, x / xi, opts).value)


# ---------------------------------------------------------------------------
# parameter sweeps and limits
# ---------------------------------------------------------------------------


def _parameter_rows(operator, fn, x, gammas):
    """A spec of ``(operator, fn)``, the point ``x``, and ``x`` once per parameter.

    The spec's own parameter is a placeholder: the batch solves take the
    parameters row by row; none raises ParameterError.
    """
    if not len(gammas):
        raise ParameterError("need at least one parameter")
    x = as_vector(x, operator.cols)
    return CompositionSpec(operator, fn, 1.0), x, np.tile(x, (len(gammas), 1))


@dataclass
class GammaSweepReport:
    gammas: np.ndarray
    composition: np.ndarray
    cocomposition: np.ndarray
    composition_monotone: bool
    cocomposition_monotone: bool
    slack: float


def gamma_sweep(operator, fn, x, gammas, opts: SolverOpts = DEFAULT_OPTS, slack=1e-7):
    """Evaluate both compositions over an increasing parameter list.

    One batch solve per composition, with one row per parameter.  Flags
    (non-strict) monotone decrease of each value column beyond the stated
    slack.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    spec, _, X = _parameter_rows(operator, fn, x, gammas)
    comp = eval_composition_batch(spec, X, opts, gammas)[0]
    cocomp = eval_cocomposition_batch(spec, X, opts, gammas)[0]

    def monotone(vals):
        finite = vals[np.isfinite(vals)]
        return bool(np.all(np.diff(finite) <= slack))

    return GammaSweepReport(
        gammas, comp, cocomp, monotone(comp), monotone(cocomp), slack
    )


@dataclass
class SmallGammaReport:
    gammas: np.ndarray
    values: np.ndarray
    gaps: np.ndarray          # g(Lx) - cocomposition value, per gamma (0 where equal)
    bounds: Optional[np.ndarray]  # gamma * beta^2 / 2 when g is Lipschitz
    within_bounds: bool
    slack: float


def limit_small_gamma(operator, fn, x, gammas, opts: SolverOpts = DEFAULT_OPTS):
    """Shrinking-parameter behavior of the cocomposition.

    Reports the per-parameter gaps to the plain composed value ``g(Lx)``
    and, when ``g`` carries a Lipschitz bound ``beta``, asserts each gap
    against ``gamma beta^2 / 2`` plus a slack of 1e-6.  One batch solve.
    """
    gammas = np.asarray(sorted(gammas, reverse=True), dtype=float)
    spec, x, X = _parameter_rows(operator, fn, x, gammas)
    target = float(np.asarray(fn(operator.apply(x))))
    vals = eval_cocomposition_batch(spec, X, opts, gammas)[0]
    # equal values (both +inf off dom g) have gap 0, not inf - inf = nan
    gaps = np.subtract(target, vals, out=np.zeros_like(vals), where=vals != target)
    beta = fn.lipschitz_bound()
    bounds = None if beta is None else gammas * beta**2 / 2.0
    ok = bool(np.all(gaps >= -_SMALL_GAMMA_SLACK))
    if bounds is not None:
        ok = ok and bool(np.all(gaps <= bounds + _SMALL_GAMMA_SLACK))
    return SmallGammaReport(gammas, vals, gaps, bounds, ok, _SMALL_GAMMA_SLACK)


@dataclass
class LargeGammaReport:
    gammas: np.ndarray
    values: np.ndarray
    target: float
    final_gap: float


def limit_large_gamma(
    operator,
    fn,
    x,
    gammas,
    which="cocomposition",
    opts: SolverOpts = DEFAULT_OPTS,
    target=None,
):
    """Growing-parameter tail of either composition, with its limit target.

    ``which`` is ``"composition"`` or ``"cocomposition"``.  The tail is one
    batch solve of a non-empty ``gammas``.  Targets come from ``oracles``,
    by grid searches on ``[-10, 10]`` per free direction:

    * composition: the infimum of ``g`` over the affine fiber
      ``{y : L* y = x}`` (unique preimage when the adjoint is injective,
      otherwise a constrained grid search in dimension <= 2);
    * cocomposition with ``||L|| < 1``: the infimum of ``g`` found by
      proximal minimization (``-inf`` when its recession certifies that);
    * cocomposition with ``||L|| = 1``: the infimum of ``g`` over
      ``Lx - V`` with ``V`` the range of the gram complement, searched on
      a grid over the range basis coefficients (``g(Lx)`` when ``LL* = I``).
    """
    if which not in ("composition", "cocomposition"):
        raise ParameterError(f"which must be 'composition' or 'cocomposition': {which!r}")
    gammas = np.asarray(sorted(gammas), dtype=float)
    spec, x, X = _parameter_rows(operator, fn, x, gammas)
    solve = eval_composition_batch if which == "composition" else eval_cocomposition_batch
    vals = solve(spec, X, opts, gammas)[0]
    if target is None:
        target = _large_gamma_target(operator, fn, x, which, _LARGE_GAMMA_HALFWIDTH)[0]
    return LargeGammaReport(gammas, vals, float(target), float(vals[-1] - target))


# ---------------------------------------------------------------------------
# minimization of the cocomposition
# ---------------------------------------------------------------------------


def _argmin_rows(L, g, X0, gamma, opts):
    """The smooth collapse of ``(L, g)`` minimized from the rows ``X0`` (``_minimize_rows``).

    Accelerated gradient descent at the certified step ``gamma / max(||L||^2,
    1e-12)``, ``gamma`` a float or a per-row column; a row past the
    divergence radius at an escape test is 'diverged' (value ``+inf``).
    """
    collapse, collapse_grad = _collapse(L, g)
    lip = max(L.norm_bound**2, 1e-12) / gamma
    return _minimize_rows(collapse, collapse_grad, X0, lip, opts, (gamma,))


def argmin_cocomposition(spec, opts: SolverOpts = DEFAULT_OPTS, x0=None):
    """Minimize the cocomposition (SolveReport).

    Its minimizers coincide with those of the smooth collapse
    ``x -> envelope(g, gamma, Lx)``, whose infimum also equals the
    infimum of the cocomposition: one row of ``_argmin_rows`` from ``x0``
    (default 0).  'converged' means the collapse gradient norm at the
    momentum point is ``<= opts.tol`` (the residual); the argpoint is the
    gradient step taken from there.  A 'diverged' report signals a
    non-coercive objective.
    """
    L = spec.operator
    x0 = np.zeros(L.cols) if x0 is None else as_vector(x0, L.cols)
    return _row_report(*_argmin_rows(L, spec.fn, x0[None, :], spec.gamma, opts))


@dataclass
class MinimizerSequenceReport:
    gammas: np.ndarray
    infima: np.ndarray
    reference: float
    final_gap: float


def argmin_gamma_sequence(operator, fn, gammas, opts: SolverOpts = DEFAULT_OPTS, reference=None):
    """Infima of the cocomposition along a shrinking parameter sequence.

    The infima converge to the minimum of the plain composition
    ``g(Lx)``; the reference defaults to a run at parameter ``2**-20``
    (callers should supply a grid-oracle value in low dimension).  Every
    parameter is one row, from 0, of one ``_argmin_rows`` solve, the rows
    of ``argmin_cocomposition``.  An empty parameter list raises
    ParameterError.
    """
    gammas = np.asarray(sorted(gammas, reverse=True), dtype=float)
    if not len(gammas):
        raise ParameterError("need at least one parameter")
    column = _gamma_column(gammas if reference is not None else [*gammas, 2.0**-20])
    CompositionSpec(operator, fn, 1.0)  # the admissibility check of every entry point
    X0 = np.zeros((len(column), operator.cols))
    infima = _argmin_rows(operator, fn, X0, column, opts)[0]
    if reference is None:
        infima, reference = infima[:-1], infima[-1]
    return MinimizerSequenceReport(gammas, infima, float(reference), float(infima[-1] - reference))
