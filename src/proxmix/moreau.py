"""Solver options and reports, the shared kernel, Moreau envelopes and a numeric conjugate.

Every solver runs on the working-set iteration ``_fista`` (FISTA with
restart, or semismooth Newton steps).  The numeric conjugate maximizes the
concave map ``x -> <x, s> - f(x)`` on that kernel using only the exact
prox of ``f``.  Brute-force ground truth lives in ``proxmix.oracles``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .errors import ParameterError, UnsupportedConjugate
from .functions import BOUNDARY_TOL, ConvexFunction, _all_positive, _dot, _norm, _row_values
from .linalg import _solve_spd_rows, _take_rows

__all__ = [
    "SolverOpts",
    "SolveReport",
    "DEFAULT_OPTS",
    "envelope",
    "envelope_gradient",
    "conjugate_numeric",
]

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITER = "max_iter"
INVALID = "invalid"  # a batch row with a NaN or infinite entry; never iterated
_FLOAT_MAX = float(np.finfo(float).max)  # a Python float: compares with any int exactly
# the int8 status codes of the kernel and the cores, and the shared objects they name
_MAX_ITER_CODE, _CONVERGED_CODE, _DIVERGED_CODE, _INVALID_CODE = range(4)
_STATUS_BY_CODE = np.array([MAX_ITER, CONVERGED, DIVERGED, INVALID], dtype=object)


@dataclass(frozen=True)
class SolverOpts:
    """Tolerances shared by the first-order solvers.

    ``tol`` and ``divergence_radius`` must be finite and positive and
    ``max_iter`` an integer of at least 1 (``ParameterError`` otherwise).
    ``divergence_radius`` declares divergence once an iterate's norm
    exceeds it: in ``_minimize_rows`` (the argmins) and the mixture
    cross-checks of ``oracles``, and elsewhere only where no certificate
    exists: the numeric conjugate of an ``OracleFunction``, and the
    composition solvers for a restricted ``dom g`` without a catalog
    conjugate.
    """

    tol: float = 1e-8
    max_iter: int = 100_000
    divergence_radius: float = 1e6

    def __post_init__(self):
        for v in (self.tol, self.divergence_radius):
            if type(v) is bool or not (isinstance(v, Real) and 0.0 < v <= _FLOAT_MAX):
                raise ParameterError("solver tolerances must be finite and positive numbers")
        n = self.max_iter
        if type(n) is bool or not (isinstance(n, Integral) and n >= 1):
            raise ParameterError("solver max_iter must be an integer >= 1")

    def to_json(self):
        return asdict(self)

    @classmethod
    def from_json(cls, obj):
        """Options from JSON numbers; an integral float ``max_iter`` (``500.0``) counts."""
        n = obj.get("max_iter", cls.max_iter)
        n = int(n) if isinstance(n, float) and n.is_integer() else n
        return cls(obj.get("tol", cls.tol), n, obj.get("divergence_radius", cls.divergence_radius))


DEFAULT_OPTS = SolverOpts()

# Free one untouched 4 MiB block (np.empty writes no page) so that glibc
# raises its mmap threshold to that size and its trim threshold to twice it
# (mallopt(3)): a 10,201-row batch iteration frees 2-6 MB, and below those
# thresholds the heap top is trimmed and faulted back in on every iteration.
np.empty(1 << 19)


@dataclass
class SolveReport:
    """Outcome of an iterative evaluation.

    ``status == 'converged'`` guarantees ``residual <= tol`` of the opts
    used, plus ``4 eps ||W|| ||Lx||`` on the cocomposition's metric path
    (``||L|| < 1``), whose residual is ``||F(beta)||`` at its returned root
    estimate.  Every other residual is measured at the momentum point: for
    the cocomposition's dual ascent and the numeric conjugate, the step
    length from it per unit step (the gradient mapping there); for the
    composition (in the coordinates of ``L``'s range factor) and the
    argmins (``_minimize_rows``), the gradient norm there.  Every iterated
    composition value is the Fenchel-Young dual value at the solver's last
    prox point ``p`` and its dual ``y`` in ``dg(p)``, never from ``g*``: a
    lower bound on the true value.  A composition whose adjoint ``L*`` is
    injective at the numerical rank of ``L`` is exact, its value primal: 0
    iterations, residual 0.0 when 'converged', and ``argpoint`` None.
    ``status == 'diverged'`` forces ``value == inf``.
    For the composition solvers and the numeric conjugate 'diverged'
    means a certificate that the value is ``+inf``: a base point off the
    range of ``L*`` (0 iterations, on either composition path), ``g =
    +inf`` at an exact composition's one fiber point, or a recession
    (Farkas) certificate; ``opts.divergence_radius`` is only the fallback
    where no such certificate exists.  The batch solvers mark rows with a non-finite
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


def _row_report(values, argpoints, codes, iters, residuals):
    """Row 0 of a solve's five arrays (int8 codes) as a SolveReport; ``argpoints`` may be None."""
    return SolveReport(
        float(values[0]), None if argpoints is None else argpoints[0], int(iters[0]),
        _STATUS_BY_CODE[codes[0]], float(residuals[0]),
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
    recession certificate, or by the divergence radius where the recession
    of ``f`` raises ``UnsupportedConjugate`` (an ``OracleFunction``).
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

    z, codes, iters, residual = _fista(step, np.zeros_like(s), opts, escaped=escaped)
    values = _dot(z, s) - np.asarray(fn(z), dtype=float)
    return _row_report(values, z, codes, iters, residual)


# ---------------------------------------------------------------------------
# the working-set iteration (shared by every solver)
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


def _momentum(z):
    """FISTA with per-row restart (Beck & Teboulle 2009; O'Donoghue & Candes 2015): (z, m, age)."""
    return _momentum_update, (z, z, np.zeros(len(z), dtype=int)), False


def _momentum_update(state, z_new, _res, it, *_per_row):
    z, momentum, age = state
    delta = z_new - z
    age[_dot(momentum - z_new, delta) > 0.0] = 0  # restart
    betas = _BETAS if it < len(_BETAS) else _momentum_weights(it + 1)
    return z_new, z_new + betas[age][:, None] * delta, age + 1


_ARMIJO = 1e-4  # the Newton rule's sufficient decrease of ||F||, per unit step
_MIN_STEP = 0.5**20  # the Newton rule's step length below which it steps along -F


def _newton(jacobian):
    """Semismooth Newton steps to a root of ``F``, the step's output (Qi & Sun 1993).

    ``jacobian(point, *per_row)`` returns an element ``H`` of the
    generalized Jacobian of ``F`` at each row's point, symmetric positive
    definite, as ``(k, k, n)`` (see ``_solve_spd_rows``).  A measured point
    whose ``||F||`` (the step's residual) is at most ``(1 - 1e-4 t)`` times
    that of the last accepted one (``t`` its step length) is accepted, and
    the next point is ``point - d``, ``H d = F``; every start is.
    Otherwise the step halves: ``base - (t/2) d`` from the last accepted
    ``base``.  Each trial point is one iteration; ``H`` is taken only in an
    iteration where some row accepts.  At a kink of ``F``, ``H`` may come
    from the side the step leaves, and then no halving of ``d`` may
    decrease ``||F||`` enough; so a Newton step halved 20 times turns to
    ``d = F(base) = H d``, ``H`` taken at ``base`` again, at ``t = 1`` and
    halves on.  For ``F`` the gradient of a strongly convex function, whose
    generalized Jacobians are ``>= I``, that step decreases ``||F||`` by
    about ``t ||F||`` once short enough.
    State: (point measured last, next, base, ``||F(base)||``, ``d``,
    ``t``, whether ``d`` is a Newton step).
    """

    def update(state, F, norm, _it, *per_row):
        _, point, base, norm_base, d, t, newton = state
        accept = norm <= (1.0 - _ARMIJO * t) * norm_base
        if accept.all():  # as on most batch iterations: nothing to merge
            d = _solve_spd_rows(jacobian(point, *per_row), F)
            return point, point - d, point, norm, d, np.ones_like(t), accept
        t = np.where(accept, 1.0, 0.5 * t)
        if accept.any():  # a rejected row keeps its step
            keep = accept[:, None]
            solved = _solve_spd_rows(jacobian(point, *per_row), F)
            base, d = np.where(keep, point, base), np.where(keep, solved, d)
            norm_base, newton = np.where(accept, norm, norm_base), newton | accept
        stalled = newton & (t < _MIN_STEP)
        if stalled.any():  # F(base) = H d, H as taken at base
            gradient = np.einsum("ijn,nj->ni", jacobian(base, *per_row), d)
            d, t = np.where(stalled[:, None], gradient, d), np.where(stalled, 1.0, t)
            newton = newton & ~stalled
        return point, base - t[:, None] * d, base, norm_base, d, t, newton

    def start(z):
        # t = 0 and ||F(base)|| = inf: every row accepts its start
        n = len(z)
        return update, (z, z, z, np.full(n, np.inf), z, np.zeros(n), np.zeros(n, dtype=bool)), True

    return start


def _gather(per_row, index):
    """The array entries of ``per_row`` at the rows ``index``; other entries as they are."""
    return tuple(_take_rows(c, index) if isinstance(c, np.ndarray) else c for c in per_row)


def _fista(step, z, opts, active=None, escaped=None, per_row=(), rule=_momentum, tol=None):
    """The working-set iteration on the rows of ``z``: (z, codes, iters, residual).

    ``rule(z)`` (``_momentum``, the default, or ``_newton(jacobian)``)
    returns ``update``, the per-row state (the iterate, the point ``step``
    reads, and the rule's own arrays) and whether a stopping row writes out
    that point (Newton) or the step's output (momentum).  Each iteration on
    the working set ``rows`` of rows still iterating calls ``step(point,
    *per_row)`` for an output and a residual per row, tests the stop, and
    calls ``update(state, output, residual, it, *per_row)`` on the rows
    that go on only: a solve stopping at iteration ``k`` updates ``k - 1``
    times.  ``per_row`` holds the oracles' per-row constants: an array has
    one entry per row of ``z`` and is gathered with the working set, only
    when the set shrinks; any other entry (a float) is passed as it is.  So
    is ``tol`` (default ``opts.tol``): a row is 'converged' once its
    residual is ``<= tol``.  Every 50 iterations
    ``escaped(z, anchor, *per_row)``, ``anchor`` being the iterate 25
    iterations earlier, marks rows 'diverged'.  A row that stops is written
    out and leaves the set; rows outside ``active`` never enter it (0
    iterations, residual inf), rows left at ``max_iter`` are 'max_iter'.
    Each row's residual is the one of its last step.  Statuses are int8
    codes (``_STATUS_BY_CODE``).  ``_take_rows`` keeps the callers' rows
    column-major (F), so numpy runs each elementwise op and ``(k, 1)``
    broadcast on 2 to 5 columns over whole columns, not one short loop per
    row.  Once every row has stopped the set is written out in one step,
    without compacting it, so a one-row solve never does.
    """
    n = len(z)
    rows = np.arange(n) if active is None else active.nonzero()[0]
    codes = np.zeros(n, dtype=np.int8)
    iters = np.zeros(n, dtype=int)
    residual = np.full(n, np.inf)
    tol = opts.tol if tol is None else tol
    z_out = z.copy(order="K")
    whole = len(rows) == n  # every row iterates: nothing to gather
    update, state, measured = rule(z if whole and z.flags.f_contiguous else _take_rows(z, rows))
    if not whole:
        per_row, tol = _gather(per_row, rows), _gather((tol,), rows)[0]
    anchor, res, it = state[0], residual[rows], 0
    while it < opts.max_iter and len(rows):
        it += 1
        output, res = step(state[1], *per_row)
        z = state[1] if measured else output  # the iterate this step gives
        stop = converged = res <= tol
        if escaped is not None and it % 25 == 0:
            if it % 50 == 0:
                stop = converged | escaped(z, anchor, *per_row)
            anchor = z
        done = stop.nonzero()[0]
        if len(done):
            if len(done) == len(rows):  # every row stops: no set to compact
                codes[rows], z_out[rows], iters[rows], residual[rows] = 2 - converged, z, it, res
                break
            keep, out = (~stop).nonzero()[0], rows[done]
            codes[out] = 2 - converged[done]  # 1 converged, 2 diverged
            z_out[out], iters[out], residual[out] = _take_rows(z, done), it, res[done]
            rows, anchor, res, output = (_take_rows(a, keep) for a in (rows, anchor, res, output))
            state = tuple(_take_rows(a, keep) for a in state)
            per_row, tol = _gather(per_row, keep), _gather((tol,), keep)[0]
        state = update(state, output, res, it, *per_row)
    else:
        z_out[rows], iters[rows], residual[rows] = state[0], it, res
    return z_out, codes, iters, residual


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
    (values, x, codes, iters, residuals), with ``value_fn(x, *per_row)``
    as values and ``+inf`` on 'diverged' rows.
    """

    def advance(momentum, step, *consts):
        grad = grad_fn(momentum, *consts)
        return momentum + step * grad, _norm(grad)

    x, codes, iters, residual = _fista(
        advance, X0, opts, escaped=lambda z, *_: _norm(z) > opts.divergence_radius,
        per_row=(-1.0 / lipschitz, *per_row),
    )
    values = np.where(codes == _DIVERGED_CODE, np.inf, value_fn(x, *per_row))
    return values, x, codes, iters, residual

