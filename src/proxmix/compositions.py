"""Proximal compositions and cocompositions of a function with an operator.

For an operator ``L`` with ``0 < ||L|| <= 1``, a catalog function ``g`` and
a parameter ``gamma > 0`` this module evaluates the two compositions

* composition:      ``comp(x)  = min over {y : L* y = x} of g(y) + Phi(y)/gamma``
* cocomposition:    ``cocomp(x) = sup over y of <Lx, y> - g*(y) - gamma Phi(y)``

where ``Phi(y) = (||y||^2 - ||L* y||^2) / 2`` is the quadratic defect of
the adjoint.  Values are computed by first-order ascent with certified
fixed steps, except the composition where ``L*`` is injective: its fiber
is one point or empty, so the value is exact, with no iteration.  Neither
ascent pays for the conditioning of ``L``: a composition with a tall
``L`` of full column rank ascends on its isometric factor, and the
cocomposition's step follows ``||I - LL*||``, both from one cached SVD
of ``L``; the cocomposition's starts at the gradient of the envelope it
equals when ``I - LL*`` is a multiple of ``I``.  Both values come from
the prox and the value of ``g`` at a prox point, where Fenchel-Young
holds with equality; no solver evaluates ``g*``.  Proximity operators,
envelopes, recession and perspective values come out in closed form.

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
    _rows_product,
    _take_rows,
    as_vector,
    pseudo_inverse_small,
)
from .moreau import (
    DEFAULT_OPTS,
    DIVERGED,
    INVALID,
    SolverOpts,
    _STATUS_BY_CODE,
    _fista,
    _minimize_rows,
    _outside_radius,
    _recession_certified,
    _row_report,
    envelope,
    envelope_gradient,
    grid_min,
    minimize_smooth,
)

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
    "pushforward_infimum",
    "refined_grid_min",
    "argmin_cocomposition",
    "argmin_gamma_sequence",
    "MinimizerSequenceReport",
]

ADMISSIBILITY_TOL = 1e-9
_SMALL_GAMMA_SLACK = 1e-6  # limit_small_gamma's slack on each gap bound
_LARGE_GAMMA_HALFWIDTH = 10.0  # grid window of limit_large_gamma's target search


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
            float(obj["gamma"]),
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
    within the admissibility slack of 1; none when the certified norm
    bound stays below that.
    """
    if L.norm_bound < 1.0 - ADMISSIBILITY_TOL:
        return np.zeros((L.rows, 0))
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


def _cocomposition_core(spec, X, opts, gamma=None):
    """Proximal-gradient ascent on the dual of the cocomposition.

    ``X`` has shape (N, cols); ``gamma`` (default ``spec.gamma``) is a
    float or a per-row column ``(N, 1)`` that the step, the shift and the
    value follow row by row.  Returns (values, duals, status, iters,
    residuals).  The value is finite unless ``g`` has a restricted domain
    and ``L`` a singular value within the admissibility slack of 1: only
    then can the penalty ``gamma Phi`` stay flat, along ``ker(I - LL*)``.
    Every 50 iterations each row's displacement, projected onto that
    kernel, is tested as a recession certificate, and 'diverged' rows are
    certified ``+inf``; without a catalog conjugate the test is
    ``||y|| > opts.divergence_radius``.

    The gradient of ``gamma Phi`` is ``gamma ||I - LL*||``-Lipschitz, and
    ``||I - LL*|| = 1 - s_min^2`` when ``L`` has no more rows than
    columns.  So the step is ``1/(gamma lam)`` with ``lam`` from
    ``L.dual_step`` (1 for tall maps and for a ``g`` with a fixed prox
    parameter), and the prox runs at index ``gamma lam``.  With
    ``G = I - (I - LL*)/lam`` the ascent point is ``v = m G + Lx/(gamma lam)``
    and the next dual ``v - prox_{gamma lam g}(gamma lam v)/(gamma lam)``.
    The residual is the step length from the momentum point ``m`` per unit
    step; the step is nonexpansive, so a row stopped at ``opts.tol``
    returns a dual whose own gradient mapping is at most ``opts.tol``.

    When ``I - LL* = mu I`` the cocomposition is ``env_{gamma mu} g(Lx)``,
    whose gradient is the dual maximizer, so ``_dual_start`` starts the
    ascent there, with ``mu`` from ``||L||``.  A ``g`` with a fixed prox
    parameter starts at ``y = 0`` (its prox exists only at ``gamma``), and
    so does the radius fallback: a start of norm about
    ``||Lx||/(0.01 gamma)`` could pass the radius with no certificate.

    The value is taken one step past the final dual: the next dual ``y'``
    is a subgradient of ``g`` at its prox point ``p``, so by Fenchel-Young
    it is ``<Lx - p, y'> + g(p) - gamma Phi(y')``, with no ``+inf`` term as
    ``p`` lies in ``dom g``; ``y'`` is the returned dual.
    """
    L, g = spec.operator, spec.fn
    gamma = spec.gamma if gamma is None else gamma
    flat = None if g.has_full_domain() else _flat_directions(L)
    always_finite = flat is None or flat.shape[1] == 0
    sigma = None if always_finite else _domain_support(g)
    LX = L.apply(X)
    mul = _product(X)
    lam, gram = (1.0, L.gram) if g.has_fixed_prox_parameter() else L.dual_step
    cold = g.has_fixed_prox_parameter() or (sigma is None and not always_finite)
    index = gamma * lam
    t, shift = 1.0 / index, LX / index

    def step(momentum, shift, index, t, t_row, *_):
        v = mul(momentum, gram) + shift
        y_new = v - t * g._prox(index, index * v)
        return y_new, _norm(y_new - momentum) / t_row

    def certified(y, anchor, *consts):
        return _recession_certified(((y - anchor) @ flat) @ flat.T, consts[-1], sigma)

    # only the certificate reads Lx, so only solves that run it gather its rows
    per_row = (shift, index, t, _row_values(t))
    escaped = _outside_radius(opts) if sigma is None else certified
    y, status, iters, residual = _fista(
        step, np.zeros_like(LX) if cold else _dual_start(L, g, LX, gamma), opts,
        escaped=None if always_finite else escaped,
        per_row=per_row if sigma is None else (*per_row, LX),
    )
    v = mul(y, gram) + shift
    p = g._prox(index, index * v)
    y = v - t * p
    values = _dot(LX - p, y) + g._value(p) - _row_values(gamma) * spec.defect(y)
    values = np.where(status == DIVERGED, np.inf, values)
    return values, y, status, iters, residual


def _fiber_composition(spec, X, gamma):
    """The composition where ``L*`` is injective, exactly and without iterating.

    With ``(Q, R)`` the isometric factor of a map with ``rows <= cols``,
    ``Q`` is unitary, so the fiber ``{y : L* y = x}`` is the single point
    ``y = (x R) Q*``, or it is empty; so the value is
    ``g(y) + (||y||^2 - ||x||^2)/(2 gamma)``.  A row is 'diverged' with
    value ``+inf`` when ``||L* y - x|| > _RANGE_TOL (1 + ||x||)`` (``x``
    off the range of ``L*``, the iterative path's range test) or when
    ``g(y) = +inf``; with no other point in the fiber, both certify.
    Every other row is 'converged' with residual 0.  All rows take 0
    iterations, and no dual iterate exists: the second entry of the
    returned (values, None, status, iters, residuals) is None.
    """
    L, mul = spec.operator, _product(X)
    Q, R = L.isometric_factor
    Y = Q.apply(mul(X, R))
    xx = _dot(X, X)
    off_range = _norm(mul(Y, L.entries) - X) > _RANGE_TOL * (1.0 + np.sqrt(xx))
    values = spec.fn._value(Y) + (_dot(Y, Y) - xx) / (2.0 * _row_values(gamma))
    diverged = off_range | (values == np.inf)
    return (
        np.where(diverged, np.inf, values),
        None,
        _STATUS_BY_CODE.take(1 + diverged),  # 1 converged, 2 diverged
        np.zeros(len(X), dtype=int),
        np.where(diverged, np.inf, 0.0),
    )


def _composition_core(spec, X, opts, gamma=None):
    """The composition at the rows of ``X``: (values, duals, status, iters, residuals).

    Where ``L*`` is injective (``rows <= cols`` and ``L.isometric_factor``
    is not None) the value is exact, from the one fiber point, and
    ``duals`` is None: see ``_fiber_composition``.  Otherwise gradient
    ascent maximizes the smooth dual ``<z, x> - h(z)``, with ``h(z)`` the
    Moreau envelope of the conjugate of ``g`` (index ``1/gamma``)
    evaluated at ``w = Lz``; the value of the composition is the attained
    sup minus ``||x||^2/(2 gamma)``.  The gradient of ``h`` at ``z`` is
    ``L* q`` with ``q = prox_{gamma g}(gamma w)``, so a step costs one
    prox between two products.  At ``q``, Fenchel-Young holds with
    equality, so ``h(z) = <q, w> - g(q) - ||q||^2/(2 gamma)``: the value
    needs the prox and the value of ``g``, not its conjugate.
    Base points outside the closed range of the adjoint are certified
    infeasible up front, by an ``lstsq`` range test, when ``g`` has full
    domain; every other row then has a finite value and gets no escape
    test.  For restricted ``dom g`` the displacement ``z_k - z_{k-50}``
    of each row is tested every 50 iterations as a recession certificate
    ``<d, x> > sigma_{dom g}(Ld)``, which proves ``x`` outside ``L*(dom g)``; rows
    that pass are 'diverged' with value ``+inf``.  Without a catalog
    conjugate of ``g`` the test falls back to
    ``||z|| > opts.divergence_radius``.  ``gamma`` is as for
    ``_cocomposition_core``; a per-row column scales each row's product
    with ``L*`` after it is taken.

    For full-domain ``g`` and a tall ``L`` of full column rank the ascent
    runs on the isometric factor ``Q = L R`` of ``L.isometric_factor``,
    from ``x R``: the fiber of ``L`` over ``x`` is that of ``Q`` over
    ``x R``, and ``Q`` has all singular values 1, so the step no longer
    pays for the spread of those of ``L``.  The returned dual is mapped
    back, ``z = w R^T``; the value ``<w, x R> - h(Qw) - ||x||^2/(2 gamma)``
    is the same sup.  The residual is then the gradient norm in ``Q``
    coordinates, an upper bound on the gradient norm of the ``L``
    coordinates since ``||L|| <= 1``.
    """
    L, g = spec.operator, spec.fn
    gamma = spec.gamma if gamma is None else gamma
    factor = L.isometric_factor
    if factor is not None and L.rows <= L.cols:
        return _fiber_composition(spec, X, gamma)
    n = X.shape[0]

    def certified(z, anchor, x, *_):
        return _recession_certified(z - anchor, x, lambda d: sigma(L.apply(d)))

    Q, R, XQ, mul = L, None, X, _product(X)
    if g.has_full_domain():
        # certify infeasible base points through the adjoint range; this
        # lstsq workspace also keeps later batch iterations free of page
        # faults (see CHANGES.md), so it stays where L* is onto.  Every
        # other row has a finite value, so it gets no escape test
        dual_sol, *_ = np.linalg.lstsq(L.entries.T, X.T, rcond=None)
        range_gap = _norm(L.adjoint_apply(dual_sol.T) - X)
        infeasible = range_gap > _RANGE_TOL * (1.0 + _norm(X))
        escaped = None
        if factor is not None:
            Q, R = factor
            XQ = mul(X, R)
    else:
        infeasible = np.zeros(n, dtype=bool)
        sigma = _domain_support(g)
        escaped = _outside_radius(opts) if sigma is None else certified

    nb2 = max(Q.norm_bound**2, 1e-12)
    step_size = 1.0 / (gamma * nb2)
    if np.ndim(gamma):
        adjoint = Q.adjoint_entries
        lift = lambda m, gamma: mul(m, adjoint) * gamma  # noqa: E731
    else:
        scaled_adjoint = gamma * Q.adjoint_entries
        lift = lambda m, _gamma: mul(m, scaled_adjoint)  # noqa: E731

    def step(momentum, x, gamma, step_size):
        grad = x - mul(g._prox(gamma, lift(momentum, gamma)), Q.entries)
        return momentum + step_size * grad, _norm(grad)

    z, status, iters, residual = _fista(
        step, XQ, opts, active=~infeasible, escaped=escaped,
        per_row=(XQ, gamma, step_size),
    )
    status[infeasible] = DIVERGED
    w = Q.apply(z)
    q = g.prox(gamma, gamma * w)
    vals = (
        _dot(z, XQ) - _dot(q, w) + g._value(q)
        + (_dot(q, q) - _dot(X, X)) / (2.0 * _row_values(gamma))
    )
    values = np.where(status == DIVERGED, np.inf, vals)
    return values, z if R is None else mul(z, R.T), status, iters, residual


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
    layout of ``X``, and keeps them so.  Rows with a NaN or infinite entry
    never enter the iteration; they are 'invalid' with value nan and 0
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
    status = np.empty(len(X), dtype=object)
    status.fill(INVALID)  # the shared object; np.full would copy the str per row
    iters = np.zeros(len(X), dtype=int)
    if len(valid):
        per_row = None if gamma is None else gamma.take(valid, axis=0)
        values[valid], _, status[valid], iters[valid], _ = core(
            spec, _take_rows(X, valid), opts, per_row
        )
    return values, status, iters


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

    Where ``L*`` is injective the value is exact, from the one point of
    the fiber ``{y : L* y = x}``: 0 iterations, residual 0.0 and
    ``argpoint`` None; 'diverged' then means the fiber is empty or ``g``
    is ``+inf`` at its point.  Otherwise the argpoint is the dual
    iterate, and 'diverged' certifies ``+inf``: the base point lies
    outside ``L*(dom g)``, shown by the adjoint range test (full-domain
    ``g``) or by a recession certificate on the dual iterates (restricted
    domain).  A full-domain row that passes the range test is finite, so
    it ends 'converged' or 'max_iter'.  The divergence radius of ``opts``
    applies only to a restricted ``dom g`` with no catalog conjugate.
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


def _collapse(spec):
    """Value and gradient of the smooth collapse ``z -> env_gamma(g)(Lz)``.

    Both act on rows ``z`` (or one point) and take ``gamma``, a float or a
    per-row column.
    """
    L, g = spec.operator, spec.fn
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
        collapse, collapse_grad = _collapse(spec)
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
    parameters row by row.
    """
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
    if np.any(gammas <= 0):
        raise ParameterError("all sweep parameters must be positive")
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
    batch solve of a non-empty ``gammas``.  Targets are computed apart
    from the solvers, by grid searches on ``[-10, 10]`` per free direction:

    * composition: the infimum of ``g`` over the affine fiber
      ``{y : L* y = x}`` (unique preimage when the adjoint is injective,
      otherwise a constrained grid search in dimension <= 2);
    * cocomposition with ``||L|| < 1``: the global infimum of ``g`` found
      by proximal minimization;
    * cocomposition with ``||L|| = 1``: the infimum of ``g`` over
      ``Lx - V`` with ``V`` the range of the gram complement, searched on
      a grid over the range basis coefficients.
    """
    if which not in ("composition", "cocomposition"):
        raise ParameterError(f"which must be 'composition' or 'cocomposition': {which!r}")
    gammas = np.asarray(sorted(gammas), dtype=float)
    if not len(gammas):
        raise ParameterError("need at least one parameter")
    spec, x, X = _parameter_rows(operator, fn, x, gammas)
    solve = eval_composition_batch if which == "composition" else eval_cocomposition_batch
    vals = solve(spec, X, opts, gammas)[0]
    if target is None:
        target = _large_gamma_target(operator, fn, x, which)
    return LargeGammaReport(gammas, vals, float(target), float(vals[-1] - target))


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
    the witness point attaining (approximately) the infimum, or
    ``(inf, None)`` when the fiber is empty.  It finds the fiber point
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
    k = null.shape[1]
    value, t = refined_grid_min(
        lambda T: np.asarray(fn(y0[None, :] + T @ null.T)).reshape(len(T)),
        -halfwidth * np.ones(k),
        halfwidth * np.ones(k),
        steps,
    )
    return value, y0 + null @ t


def _large_gamma_target(operator, fn, x, which):
    if which == "composition":
        return pushforward_infimum(operator, fn, x, _LARGE_GAMMA_HALFWIDTH)[0]
    if operator.norm_bound < 1.0 - 1e-9:
        return float(np.asarray(fn(_proximal_argmin(fn))))
    gram_complement = np.eye(operator.rows) - operator.entries @ operator.entries.T
    pinv = pseudo_inverse_small(gram_complement)
    basis = pinv.range_basis
    w = operator.apply(x)
    if basis.shape[1] == 0:
        return float(np.asarray(fn(w)))
    value, _ = refined_grid_min(
        lambda T: np.asarray(fn(w - T @ basis.T)).reshape(len(T)),
        -_LARGE_GAMMA_HALFWIDTH * np.ones(basis.shape[1]),
        _LARGE_GAMMA_HALFWIDTH * np.ones(basis.shape[1]),
    )
    return value


def _proximal_argmin(fn, iters=300):
    """A minimizer of a coercive catalog function by proximal-point descent."""
    z = np.zeros(fn.dim)
    t = 1.0
    for _ in range(iters):
        z = fn.prox(t, z)
        t = min(t * 1.5, 1e10)
    return z


# ---------------------------------------------------------------------------
# minimization of the cocomposition
# ---------------------------------------------------------------------------


def argmin_cocomposition(spec, opts: SolverOpts = DEFAULT_OPTS, x0=None):
    """Minimize the cocomposition.

    Its minimizers coincide with those of the smooth collapse
    ``x -> envelope(g, gamma, Lx)``, whose infimum also equals the
    infimum of the cocomposition; that smooth function is minimized by
    accelerated gradient descent with the certified step.  A 'diverged'
    report signals a non-coercive objective.
    """
    L, gamma = spec.operator, spec.gamma
    x0 = np.zeros(L.cols) if x0 is None else as_vector(x0, L.cols)
    lip = max(L.norm_bound**2, 1e-12) / gamma
    collapse, collapse_grad = _collapse(spec)
    return minimize_smooth(
        lambda z: float(collapse(z, gamma)),
        lambda z: collapse_grad(z, gamma),
        x0,
        lip,
        opts,
    )


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
    parameter is one row of one ``argmin_cocomposition``-style solve.  An
    empty parameter list raises ParameterError.
    """
    gammas = np.asarray(sorted(gammas, reverse=True), dtype=float)
    if not len(gammas):
        raise ParameterError("need at least one parameter")
    column = _gamma_column(gammas if reference is not None else [*gammas, 2.0**-20])
    collapse, collapse_grad = _collapse(CompositionSpec(operator, fn, 1.0))
    lip = max(operator.norm_bound**2, 1e-12) / column
    X0 = np.zeros((len(column), operator.cols))
    infima = _minimize_rows(collapse, collapse_grad, X0, lip, opts, (column,))[0]
    if reference is None:
        infima, reference = infima[:-1], infima[-1]
    return MinimizerSequenceReport(gammas, infima, float(reference), float(infima[-1] - reference))
