"""Proximal compositions and cocompositions of a function with an operator.

For an operator ``L`` with ``0 < ||L|| <= 1``, a catalog function ``g`` and
a parameter ``gamma > 0`` this module evaluates the two compositions

* composition:      ``comp(x)  = min over {y : L* y = x} of g(y) + Phi(y)/gamma``
* cocomposition:    ``cocomp(x) = sup over y of <Lx, y> - g*(y) - gamma Phi(y)``

where ``Phi(y) = (||y||^2 - ||L* y||^2) / 2`` is the quadratic defect of
the adjoint.  Values are computed by first-order ascent with certified
fixed steps; proximity operators, envelopes, recession and perspective
values come out in closed form.

Batch variants evaluate many base points simultaneously with the same
iteration, which the figure generator and the verification suites rely
on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import AdmissibilityError, ParameterError, UnsupportedConjugate
from .functions import (
    BOUNDARY_TOL,
    ConvexFunction,
    MoreauEnvelopeFunction,
    conjugate_function,
)
from .linalg import DenseMap, as_vector, pseudo_inverse_small
from .moreau import (
    CONVERGED,
    DEFAULT_OPTS,
    DIVERGED,
    INVALID,
    MAX_ITER,
    SolveReport,
    SolverOpts,
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
_RANGE_TOL = 1e-9


def admissible(operator: DenseMap, tol=ADMISSIBILITY_TOL):
    """True iff ``0 < ||L|| <= 1 + tol``.

    Gates on the tight spectral estimate; the certified bound would add
    its own inflation on top of the acceptance tolerance and reject exact
    isometries.
    """
    sigma = operator.norm_estimate
    return 0.0 < sigma <= 1.0 + tol


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
        if not gamma > 0:
            raise ParameterError("gamma must be positive")
        if not admissible(operator):
            raise AdmissibilityError(
                f"operator norm bound {operator.norm_bound:.6g} violates 0 < ||L|| <= 1"
            )
        self.operator = operator
        self.fn = fn
        self.gamma = float(gamma)

    # short aliases used throughout the numerics
    @property
    def L(self):
        return self.operator

    @property
    def g(self):
        return self.fn

    def with_gamma(self, gamma):
        return CompositionSpec(self.operator, self.fn, gamma)

    def defect(self, y):
        """Quadratic defect ``Phi(y) = (||y||^2 - ||L* y||^2)/2``; batched."""
        y = np.asarray(y, dtype=float)
        return 0.5 * (
            np.linalg.norm(y, axis=-1) ** 2
            - np.linalg.norm(self.operator.adjoint_apply(y), axis=-1) ** 2
        )

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


def _conjugate_values(fn, y, gamma, opts):
    """Values of the conjugate at the rows of ``y``.

    Falls back to a fixed-parameter proximal-point iteration when no
    closed form is registered (the iteration only ever calls the prox at
    parameter ``gamma``, which oracle-backed functions support).
    """
    try:
        return np.asarray(fn.conjugate(y), dtype=float)
    except UnsupportedConjugate:
        pass
    y2 = np.atleast_2d(y)
    z = np.zeros_like(y2)
    for _ in range(opts.max_iter):
        z_new = fn.prox(gamma, z + gamma * y2)
        if float(np.max(np.linalg.norm(z_new - z, axis=-1))) <= opts.tol * gamma:
            z = z_new
            break
        z = z_new
    vals = np.sum(z * y2, axis=-1) - np.asarray(fn(z), dtype=float)
    return vals.reshape(np.asarray(y).shape[:-1])


def _domain_support(g):
    """Support function of ``dom g`` (the recession of ``g*``), or None.

    None when the catalog has no conjugate for ``g``; the cores then fall
    back to the divergence radius.  Only built for restricted domains.
    """
    try:
        return conjugate_function(g).recession
    except UnsupportedConjugate:
        return None


def _recession_certified(step, target, slope):
    """Rows whose displacement ``step`` certifies an infinite value.

    With ``d = step / ||step||`` the dual objective grows without bound
    along ``d`` when ``<target, d> > slope(d)``, ``slope`` being the
    recession function of the dual penalty (Farkas: the base point lies
    outside the closure of the image of ``dom g``).  The margin must beat
    the catalog's boundary slack; zero rows never certify.
    """
    norm = np.linalg.norm(step, axis=-1)
    d = step / np.where(norm > 0.0, norm, 1.0)[:, None]
    margin = np.sum(target * d, axis=-1) - np.asarray(slope(d), dtype=float)
    return margin > BOUNDARY_TOL * (1.0 + np.linalg.norm(target, axis=-1))


def _flat_directions(L):
    """Orthonormal basis of ``ker(I - LL*)``, where ``Phi`` vanishes.

    Left singular vectors whose singular value is within the admissibility
    slack of 1; none when the certified norm bound stays below that.
    """
    if L.norm_bound < 1.0 - ADMISSIBILITY_TOL:
        return np.zeros((L.rows, 0))
    u, sv, _ = np.linalg.svd(L.entries, full_matrices=False)
    return u[:, sv >= 1.0 - ADMISSIBILITY_TOL]


def _cocomposition_core(spec, X, opts):
    """Proximal-gradient ascent on the dual of the cocomposition.

    ``X`` has shape (N, cols).  Returns (values, duals, status, iters,
    residuals).  The value is finite unless ``g`` has a restricted
    domain and ``L`` has a singular value within the admissibility slack
    of 1: only then can the dual penalty ``gamma Phi`` stay flat, along
    ``ker(I - LL*)``.  Every 50 iterations the displacement of each row,
    projected onto that kernel, is tested as a recession certificate;
    'diverged' rows are certified ``+inf``.  Without a catalog conjugate
    the test falls back to ``||y|| > opts.divergence_radius``.
    """
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    flat = None if g.has_full_domain() else _flat_directions(L)
    always_finite = flat is None or flat.shape[1] == 0
    sigma = None if always_finite else _domain_support(g)
    LX = L.apply(X)
    n = X.shape[0]
    t = 1.0 / gamma
    y = np.zeros((n, L.rows))
    anchor = y
    momentum = y.copy()
    t_acc = np.ones(n)
    active = np.ones(n, dtype=bool)
    status = np.full(n, MAX_ITER, dtype=object)
    iters = np.zeros(n, dtype=int)
    residual = np.full(n, np.inf)
    it = 0
    while it < opts.max_iter and np.any(active):
        it += 1
        grad = LX - gamma * (momentum - L.apply(L.adjoint_apply(momentum)))
        v = momentum + t * grad
        y_new = v - (1.0 / gamma) * g.prox(gamma, gamma * v)
        delta = y_new - y
        step = np.linalg.norm(delta, axis=-1)
        res = step / t
        # accelerated update with per-row gradient-scheme restart
        restart = np.sum((momentum - y_new) * delta, axis=-1) > 0.0
        t_acc = np.where(restart, 1.0, t_acc)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        beta = np.where(restart, 0.0, (t_acc - 1.0) / t_next)
        momentum = np.where(
            active[:, None], y_new + beta[:, None] * delta, momentum
        )
        y = np.where(active[:, None], y_new, y)
        t_acc = np.where(active, t_next, t_acc)
        newly = active & (res <= opts.tol)
        status[newly] = CONVERGED
        residual[newly] = res[newly]
        iters[newly] = it
        active &= ~newly
        if not always_finite and it % 50 == 0:
            if sigma is None:
                escaped = np.linalg.norm(y, axis=-1) > opts.divergence_radius
            else:
                flat_step = ((y - anchor) @ flat) @ flat.T
                escaped = _recession_certified(flat_step, LX, sigma)
                anchor = y
            escaped &= active
            status[escaped] = DIVERGED
            iters[escaped] = it
            active &= ~escaped
    iters[active] = it
    residual[active] = res[active] if it else np.inf
    defect = spec.defect(y)
    gvals = _conjugate_values(g, y, gamma, opts)
    values = np.sum(LX * y, axis=-1) - gvals - gamma * defect
    values = np.where(status == DIVERGED, np.inf, values)
    return values, y, status, iters, residual


def _composition_core(spec, X, opts):
    """Gradient ascent for the composition through its smooth dual.

    Maximizes ``<z, x> - h(z)`` with ``h(z)`` the Moreau envelope of the
    conjugate of ``g`` (index ``1/gamma``) evaluated at ``Lz``; the value
    of the composition is the attained sup minus ``||x||^2/(2 gamma)``.
    Base points outside the closed range of the adjoint are certified
    infeasible up front when ``g`` has full domain.  For restricted
    ``dom g`` the displacement ``z_k - z_{k-50}`` of each row is tested
    every 50 iterations as a recession certificate ``<d, x> >
    sigma_{dom g}(Ld)``, which proves ``x`` outside ``L*(dom g)``; rows
    that pass are 'diverged' with value ``+inf``.  Where no certificate
    exists (full domain, or no catalog conjugate) the test falls back to
    ``||z|| > opts.divergence_radius``.
    """
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    n = X.shape[0]
    values = np.full(n, np.inf)
    status = np.full(n, MAX_ITER, dtype=object)
    iters = np.zeros(n, dtype=int)
    residual = np.full(n, np.inf)

    # certify infeasible base points through the adjoint range
    dual_sol, *_ = np.linalg.lstsq(L.entries.T, X.T, rcond=None)
    range_gap = np.linalg.norm(L.adjoint_apply(dual_sol.T) - X, axis=-1)
    if g.has_full_domain():
        infeasible = range_gap > _RANGE_TOL * (1.0 + np.linalg.norm(X, axis=-1))
        status[infeasible] = DIVERGED
        sigma = None
    else:
        infeasible = np.zeros(n, dtype=bool)
        sigma = _domain_support(g)

    run = ~infeasible
    if not np.any(run):
        return values, None, status, iters, residual

    nb2 = max(spec.operator.norm_bound**2, 1e-12)
    step = 1.0 / (gamma * nb2)
    z = X.copy()
    anchor = z
    momentum = z.copy()
    t_acc = np.ones(n)
    active = run.copy()
    it = 0

    def h_grad(zmat):
        w = L.apply(zmat)
        p = w - (1.0 / gamma) * g.prox(gamma, gamma * w)
        return w, p, gamma * L.adjoint_apply(w - p)

    while it < opts.max_iter and np.any(active):
        it += 1
        _, _, gh = h_grad(momentum)
        grad = X - gh
        z_new = momentum + step * grad
        delta = z_new - z
        gnorm = np.linalg.norm(grad, axis=-1)
        restart = np.sum((momentum - z_new) * delta, axis=-1) > 0.0
        t_acc = np.where(restart, 1.0, t_acc)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        beta = np.where(restart, 0.0, (t_acc - 1.0) / t_next)
        momentum = np.where(
            active[:, None], z_new + beta[:, None] * delta, momentum
        )
        z = np.where(active[:, None], z_new, z)
        t_acc = np.where(active, t_next, t_acc)
        newly = active & (gnorm <= opts.tol)
        status[newly] = CONVERGED
        residual[newly] = gnorm[newly]
        iters[newly] = it
        active &= ~newly
        if it % 50 == 0:
            if sigma is None:
                escaped = np.linalg.norm(z, axis=-1) > opts.divergence_radius
            else:
                escaped = _recession_certified(
                    z - anchor, X, lambda d: sigma(L.apply(d))
                )
                anchor = z
            escaped &= active
            status[escaped] = DIVERGED
            iters[escaped] = it
            active &= ~escaped
    iters[active] = it
    if it:
        residual[active] = gnorm[active]
    w, p, _ = h_grad(z)
    hvals = _conjugate_values(g, p, gamma, opts) + 0.5 * gamma * np.linalg.norm(
        w - p, axis=-1
    ) ** 2
    vals = (
        np.sum(z * X, axis=-1)
        - hvals
        - np.linalg.norm(X, axis=-1) ** 2 / (2.0 * gamma)
    )
    diverged = status == DIVERGED
    values = np.where(diverged, np.inf, vals)
    return values, z, status, iters, residual


def _batch(core, spec, X, opts):
    """Run ``core`` on the finite rows of ``X``: (values, status, iters).

    Rows with a NaN or infinite entry never enter the iteration; they are
    'invalid' with value nan and 0 iterations.
    """
    X = np.asarray(X, dtype=float)
    valid = np.isfinite(X).all(axis=-1)
    values = np.full(len(X), np.nan)
    status = np.full(len(X), INVALID, dtype=object)
    iters = np.zeros(len(X), dtype=int)
    if valid.any():
        values[valid], _, status[valid], iters[valid], _ = core(spec, X[valid], opts)
    return values, status, iters


def _single(core, spec, x, opts):
    x = as_vector(x, spec.operator.cols)
    values, arg, status, iters, residual = core(spec, x[None, :], opts)
    point = None if arg is None else arg[0]
    return SolveReport(
        float(values[0]), point, int(iters[0]), str(status[0]), float(residual[0])
    )


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


def eval_cocomposition_batch(spec, X, opts: SolverOpts = DEFAULT_OPTS):
    """Cocomposition values over rows of ``X``: (values, status, iters).

    Statuses as for ``eval_cocomposition``; rows with a non-finite entry
    are 'invalid' with value nan and 0 iterations.
    """
    return _batch(_cocomposition_core, spec, X, opts)


def eval_composition(spec, x, opts: SolverOpts = DEFAULT_OPTS):
    """Value of the composition at ``x`` (SolveReport).

    'diverged' certifies ``+inf``: the base point lies outside
    ``L*(dom g)``, shown by the adjoint range test (full-domain ``g``) or
    by a recession certificate on the dual iterates (restricted domain).
    The divergence radius of ``opts`` is the fallback when no certificate
    exists (no catalog conjugate of ``g``).
    """
    return _single(_composition_core, spec, x, opts)


def eval_composition_batch(spec, X, opts: SolverOpts = DEFAULT_OPTS):
    """Composition values over rows of ``X``: (values, status, iters).

    Statuses as for ``eval_composition``; rows with a non-finite entry
    are 'invalid' with value nan and 0 iterations.
    """
    return _batch(_composition_core, spec, X, opts)


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


def envelope_cocomposition(spec, rho, x, opts: SolverOpts = DEFAULT_OPTS):
    """Moreau envelope of the cocomposition at index ``rho``.

    Three regimes:
    * ``rho == gamma``: collapses exactly to ``envelope(g, gamma, Lx)``;
    * ``rho < gamma``: equals the cocomposition at parameter
      ``gamma - rho`` of the envelope of ``g`` with index ``rho``;
    * ``rho > gamma``: envelope of the smooth collapse at the remaining
      index ``rho - gamma``, computed by strongly convex minimization.
    """
    if not rho > 0:
        raise ParameterError("envelope index must be positive")
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    x = as_vector(x, L.cols)
    if np.isclose(rho, gamma, rtol=1e-12):
        return float(envelope(g, gamma, L.apply(x)))
    if rho < gamma:
        inner = MoreauEnvelopeFunction(g, rho)
        shifted = CompositionSpec(L, inner, gamma - rho)
        return float(eval_cocomposition(shifted, x, opts).value)
    lam = rho - gamma
    lip = L.norm_bound**2 / gamma + 1.0 / lam

    def value(z):
        return float(envelope(g, gamma, L.apply(z))) + float(
            np.linalg.norm(z - x) ** 2
        ) / (2 * lam)

    def grad(z):
        return L.adjoint_apply(envelope_gradient(g, gamma, L.apply(z))) + (z - x) / lam

    report = minimize_smooth(value, grad, x.copy(), lip, opts)
    return float(report.value)


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
    if xi < 0:
        return np.inf
    if xi == 0:
        return float(recession_cocomposition(spec, x))
    return float(xi * eval_cocomposition(spec, x / xi, opts).value)


# ---------------------------------------------------------------------------
# parameter sweeps and limits
# ---------------------------------------------------------------------------


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

    Flags (non-strict) monotone decrease of each value column beyond the
    stated slack.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    if np.any(gammas <= 0):
        raise ParameterError("all sweep parameters must be positive")
    comp, cocomp = [], []
    for gamma in gammas:
        spec = CompositionSpec(operator, fn, gamma)
        comp.append(eval_composition(spec, x, opts).value)
        cocomp.append(eval_cocomposition(spec, x, opts).value)
    comp = np.asarray(comp)
    cocomp = np.asarray(cocomp)

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
    gaps: np.ndarray          # g(Lx) - cocomposition value, per gamma
    bounds: Optional[np.ndarray]  # gamma * beta^2 / 2 when g is Lipschitz
    within_bounds: bool
    slack: float


def limit_small_gamma(operator, fn, x, gammas, opts: SolverOpts = DEFAULT_OPTS, slack=1e-6):
    """Shrinking-parameter behavior of the cocomposition.

    Reports the per-parameter gaps to the plain composed value ``g(Lx)``
    and, when ``g`` carries a Lipschitz bound ``beta``, asserts each gap
    against ``gamma beta^2 / 2`` plus slack.
    """
    gammas = np.asarray(sorted(gammas, reverse=True), dtype=float)
    x = as_vector(x, operator.cols)
    target = float(np.asarray(fn(operator.apply(x))))
    vals = np.array(
        [
            eval_cocomposition(CompositionSpec(operator, fn, g_), x, opts).value
            for g_ in gammas
        ]
    )
    gaps = target - vals
    beta = fn.lipschitz_bound()
    bounds = None if beta is None else gammas * beta**2 / 2.0
    ok = bool(np.all(gaps >= -slack))
    if bounds is not None:
        ok = ok and bool(np.all(gaps <= bounds + slack))
    return SmallGammaReport(gammas, vals, gaps, bounds, ok, slack)


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
    oracle_halfwidth=10.0,
    oracle_steps=801,
):
    """Growing-parameter tail of either composition, with its limit target.

    Targets are computed independently of the solvers:

    * composition: the infimum of ``g`` over the affine fiber
      ``{y : L* y = x}`` (unique preimage when the adjoint is injective,
      otherwise a constrained grid search in dimension <= 2);
    * cocomposition with ``||L|| < 1``: the global infimum of ``g`` found
      by proximal minimization;
    * cocomposition with ``||L|| = 1``: the infimum of ``g`` over
      ``Lx - V`` with ``V`` the range of the gram complement, searched on
      a grid over the range basis coefficients.
    """
    gammas = np.asarray(sorted(gammas), dtype=float)
    x = as_vector(x, operator.cols)
    vals = []
    for g_ in gammas:
        spec = CompositionSpec(operator, fn, g_)
        if which == "composition":
            vals.append(eval_composition(spec, x, opts).value)
        else:
            vals.append(eval_cocomposition(spec, x, opts).value)
    vals = np.asarray(vals)
    if target is None:
        target = _large_gamma_target(
            operator, fn, x, which, oracle_halfwidth, oracle_steps
        )
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
    ``(inf, None)`` when the fiber is empty.
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


def _large_gamma_target(operator, fn, x, which, halfwidth, steps):
    if which == "composition":
        return pushforward_infimum(operator, fn, x, halfwidth, steps)[0]
    if operator.norm_bound < 1.0 - 1e-9:
        return _proximal_infimum(fn)
    gram_complement = np.eye(operator.rows) - operator.entries @ operator.entries.T
    pinv = pseudo_inverse_small(gram_complement)
    basis = pinv.range_basis
    w = operator.apply(x)
    if basis.shape[1] == 0:
        return float(np.asarray(fn(w)))
    value, _ = refined_grid_min(
        lambda T: np.asarray(fn(w - T @ basis.T)).reshape(len(T)),
        -halfwidth * np.ones(basis.shape[1]),
        halfwidth * np.ones(basis.shape[1]),
        steps,
    )
    return value


def _proximal_infimum(fn, iters=300):
    """Global infimum of a catalog function by proximal-point descent."""
    z = np.zeros(fn.dim)
    t = 1.0
    for _ in range(iters):
        z = fn.prox(t, z)
        t = min(t * 1.5, 1e10)
    return float(np.asarray(fn(z)))


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
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    lip = max(L.norm_bound**2, 1e-12) / gamma
    x0 = np.zeros(L.cols) if x0 is None else as_vector(x0, L.cols)

    def value(z):
        return float(envelope(g, gamma, L.apply(z)))

    def grad(z):
        return L.adjoint_apply(envelope_gradient(g, gamma, L.apply(z)))

    return minimize_smooth(value, grad, x0, lip, opts)


@dataclass
class MinimizerSequenceReport:
    gammas: np.ndarray
    infima: np.ndarray
    reference: float
    final_gap: float


def argmin_gamma_sequence(
    operator, fn, gammas, opts: SolverOpts = DEFAULT_OPTS, reference=None
):
    """Infima of the cocomposition along a shrinking parameter sequence.

    The infima converge to the minimum of the plain composition
    ``g(Lx)``; the reference defaults to a run at parameter ``2**-20``
    (callers should supply a grid-oracle value in low dimension).
    """
    gammas = np.asarray(sorted(gammas, reverse=True), dtype=float)
    infima = np.array(
        [
            argmin_cocomposition(CompositionSpec(operator, fn, g_), opts).value
            for g_ in gammas
        ]
    )
    if reference is None:
        reference = argmin_cocomposition(
            CompositionSpec(operator, fn, 2.0**-20), opts
        ).value
    return MinimizerSequenceReport(
        gammas, infima, float(reference), float(infima[-1] - reference)
    )
