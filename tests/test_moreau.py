import math

import numpy as np
import pytest

from proxmix import (
    CompositionSpec,
    DenseMap,
    EuclideanNorm,
    L1Norm,
    MoreauEnvelopeFunction,
    SolverOpts,
    conjugate_numeric,
    envelope,
    envelope_gradient,
    eval_cocomposition,
    eval_cocomposition_batch,
    eval_composition_batch,
    grid_conjugate,
    grid_envelope,
    grid_min,
    grid_prox,
    quadratic_kernel,
)
from proxmix import BallDistance, OracleFunction
from proxmix.errors import ParameterError, UnsupportedDimension
from proxmix import moreau
from proxmix.functions import conjugate_function
from proxmix.functions import _norm
from proxmix.moreau import (
    CONVERGED,
    DEFAULT_OPTS,
    DIVERGED,
    INVALID,
    MAX_ITER,
    _CONVERGED_CODE,
    _DIVERGED_CODE,
    _MAX_ITER_CODE,
    _STATUS_BY_CODE,
    _fista,
)
from proxmix.verify import _random_conjugable_fn


def test_envelope_at_minimizer():
    assert envelope(EuclideanNorm(1), 1.0, np.zeros(1)) == 0.0


def test_envelope_linear_branch():
    # oracle: 1-D brute force
    oracle = grid_envelope(EuclideanNorm(1), 1.0, np.array([2.0]), [-6], [6], 2001)
    got = envelope(EuclideanNorm(1), 1.0, np.array([2.0]))
    assert got == pytest.approx(1.5, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-3)


def test_envelope_quadratic_branch():
    oracle = grid_envelope(EuclideanNorm(1), 1.0, np.array([0.5]), [-6], [6], 2001)
    got = envelope(EuclideanNorm(1), 1.0, np.array([0.5]))
    assert got == pytest.approx(0.125, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-3)


def test_envelope_gradient_quadratic():
    assert np.allclose(envelope_gradient(quadratic_kernel(1), 1.0, [2.0]), [1.0])


def test_envelope_gradient_huber_sign_branch():
    got = envelope_gradient(EuclideanNorm(1), 1.0, np.array([2.0]))
    fd = (
        envelope(EuclideanNorm(1), 1.0, np.array([2.0 + 1e-6]))
        - envelope(EuclideanNorm(1), 1.0, np.array([2.0 - 1e-6]))
    ) / 2e-6
    assert np.allclose(got, [1.0])
    assert got[0] == pytest.approx(fd, abs=1e-5)


@pytest.mark.parametrize(
    "fn",
    [
        L1Norm(2),
        EuclideanNorm(2).translate([0.5, -1.0]),
        quadratic_kernel(2).add_quad(0.3),
        BallDistance(np.zeros(2), 1.0),
    ],
    ids=lambda f: repr(f),
)
def test_envelope_gradient_finite_differences(fn):
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(50):
        gamma = rng.uniform(0.3, 2.0)
        x = rng.normal(size=2) * 2
        grad = envelope_gradient(fn, gamma, x)
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (envelope(fn, gamma, x + e) - envelope(fn, gamma, x - e)) / (
                2 * h
            )
        assert np.linalg.norm(grad - fd) <= 1e-5 * (1 + np.linalg.norm(grad))


def test_envelope_requires_positive_index():
    with pytest.raises(ParameterError):
        envelope(L1Norm(1), -1.0, [0.0])


def test_moreau_envelope_sum_identity():
    rng = np.random.default_rng(1)
    for fn in [L1Norm(2), EuclideanNorm(2), quadratic_kernel(2)]:
        conj = conjugate_function(fn)
        for _ in range(100):
            x = rng.normal(size=2) * 2
            total = envelope(fn, 1.0, x) + envelope(conj, 1.0, x)
            assert abs(total - 0.5 * np.dot(x, x)) <= 1e-9


def test_envelope_scaling_identities():
    rng = np.random.default_rng(2)
    fn = L1Norm(2)
    for _ in range(50):
        gamma, rho = rng.uniform(0.2, 3.0, size=2)
        x = rng.normal(size=2)
        assert rho * envelope(fn, gamma, x) == pytest.approx(
            envelope(fn.scale_val(rho), gamma / rho, x), abs=1e-10
        )
        assert envelope(fn, gamma, rho * x) == pytest.approx(
            envelope(fn.scale_arg(rho), gamma / rho**2, x), abs=1e-10
        )


def test_envelope_monotone_as_index_shrinks():
    fn = EuclideanNorm(1)
    x = np.array([1.3])
    values = [envelope(fn, g, x) for g in [4.0, 2.0, 1.0, 0.5, 0.25, 0.125]]
    assert all(np.diff(values) >= -1e-12)
    assert values[-1] <= float(fn(x)) <= values[-1] + 0.125


def test_conjugate_numeric_quadratic():
    rep = conjugate_numeric(quadratic_kernel(1), np.array([3.0]))
    assert rep.status == CONVERGED
    assert rep.value == pytest.approx(4.5, abs=1e-6)


def test_conjugate_numeric_l1_inside_box():
    rep = conjugate_numeric(L1Norm(2), np.array([0.5, -0.9]))
    assert rep.status == CONVERGED
    assert rep.value == pytest.approx(0.0, abs=1e-6)


def test_conjugate_numeric_outside_domain_diverges():
    rep = conjugate_numeric(L1Norm(2), np.array([1.5, 0.0]))
    assert rep.status == DIVERGED
    assert rep.value == np.inf


def test_conjugate_numeric_of_envelope():
    # conjugating an envelope adds the quadratic of its index
    fn = EuclideanNorm(1)
    env = MoreauEnvelopeFunction(fn, 0.7)
    s = np.array([0.6])
    rep = conjugate_numeric(env, s, SolverOpts(tol=1e-10))
    expected = float(np.asarray(conjugate_function(fn)(s))) + 0.35 * s[0] ** 2
    assert rep.value == pytest.approx(expected, abs=1e-5)


def test_conjugate_numeric_measures_its_residual_at_the_momentum_point():
    fn = MoreauEnvelopeFunction(EuclideanNorm(2), 0.7)
    s = np.array([0.6, -0.3])
    steps, prox = [], fn.prox

    def spy(gamma, x):
        steps.append((x - s, prox(gamma, x)))  # the momentum point and the step from it
        return steps[-1][1]

    fn.prox = spy
    rep = conjugate_numeric(fn, s)
    residuals = [float(np.linalg.norm(z - m)) for m, z in steps]
    assert rep.status == CONVERGED and rep.iterations == len(steps) > 3
    # (m + s) - s is m up to one rounding of s
    assert rep.residual == pytest.approx(residuals[-1], rel=0.0, abs=1e-15)
    assert residuals[-1] <= DEFAULT_OPTS.tol < min(residuals[:-1])


def test_conjugate_numeric_matches_closed_form_on_random_catalog():
    rng = np.random.default_rng(11)
    diverged = 0
    for _ in range(100):
        dim = int(rng.integers(1, 3))
        fn = _random_conjugable_fn(rng, dim)
        s = 1.5 * rng.normal(size=dim)
        expected = float(np.asarray(conjugate_function(fn)(s)))
        rep = conjugate_numeric(fn, s)
        if np.isfinite(expected):
            assert rep.status == CONVERGED
            assert rep.value == pytest.approx(expected, rel=0, abs=1e-6)
        else:
            diverged += 1
            assert (rep.status, rep.value) == (DIVERGED, np.inf)
    assert 0 < diverged < 100


def test_conjugate_numeric_without_recession_oracle_uses_radius():
    # L1Norm's conjugate is +inf at 1.5; the catalog atom certifies that by
    # recession, an oracle without one only once the iterate leaves the radius
    s = np.array([1.5])
    atom = L1Norm(1)
    oracle = OracleFunction(1, atom, prox_fn=atom.prox)
    certified = conjugate_numeric(atom, s)
    rep = conjugate_numeric(oracle, s)
    assert (rep.status, rep.value) == (DIVERGED, np.inf)
    assert np.linalg.norm(rep.argpoint) > DEFAULT_OPTS.divergence_radius
    assert rep.iterations > certified.iterations


def test_grid_conjugate_quadratic():
    val = grid_conjugate(quadratic_kernel(1), np.array([3.0]), [-10], [10], 2001)
    assert val == pytest.approx(4.5, abs=1e-4)


def test_grid_prox_dist_ball():
    fn = BallDistance(np.zeros(1), 2.0)
    p = grid_prox(fn, 1.0, np.array([4.0]), [2.0], [4.0], 2001)
    assert p[0] == pytest.approx(3.0, abs=1e-3)


def test_grid_min_returns_first_tie():
    # symmetric double well: lexicographically first grid point wins
    val, pt = grid_min(
        lambda Y: (np.abs(Y[:, 0]) - 1.0) ** 2, [-2.0], [2.0], 1001
    )
    assert pt[0] < 0


def test_grid_rejects_high_dimension():
    with pytest.raises(UnsupportedDimension):
        grid_min(lambda Y: Y[:, 0], [-1, -1, -1], [1, 1, 1], 11)


def test_grid_rejects_too_many_steps():
    with pytest.raises(ParameterError):
        grid_min(lambda Y: Y[:, 0], [-1.0], [1.0], 5001)


def test_solver_opts_json_round_trip():
    opts = SolverOpts(tol=1e-7, max_iter=500, divergence_radius=1e4)
    assert SolverOpts.from_json(opts.to_json()) == opts
    assert SolverOpts.from_json({}) == SolverOpts()
    assert SolverOpts.from_json({"max_iter": 500.0}).max_iter == 500


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": float("nan")},
        {"tol": float("inf")},
        {"tol": "abc"},
        {"divergence_radius": 0.0},
        {"divergence_radius": float("nan")},
        {"max_iter": 0},
        {"max_iter": 2.5},
        {"max_iter": None},
        # bools and numeric strings once passed: True ran 1 iteration or set tol 1.0
        {"max_iter": True},
        {"tol": True},
        {"tol": "1e-3"},
        {"max_iter": "7"},
        {"divergence_radius": 10**400},
    ],
    ids=repr,
)
def test_solver_opts_rejects_invalid_values(kwargs):
    with pytest.raises(ParameterError):
        SolverOpts(**kwargs)


@pytest.mark.parametrize(
    "obj",
    [{"tol": "abc"}, {"tol": None}, {"max_iter": "many"}, {"max_iter": float("inf")},
     {"max_iter": 2.5}, {"divergence_radius": [1.0]}, {"tol": -1}, {"max_iter": 0},
     {"max_iter": True}, {"tol": True}, {"tol": "1e-3"}, {"max_iter": "7"}],
    ids=repr,
)
def test_solver_opts_from_json_rejects_invalid_values(obj):
    with pytest.raises(ParameterError):
        SolverOpts.from_json(obj)


def _minimize_one(value, grad, lipschitz, opts=DEFAULT_OPTS):
    """A one-row ``_minimize_rows`` from the origin of the plane, as a SolveReport."""
    X0 = np.zeros((1, 2))
    return moreau._row_report(*moreau._minimize_rows(value, grad, X0, lipschitz, opts))


def test_minimize_rows_converges_to_quadratic_minimizer():
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, -1.0])
    rep = _minimize_one(
        lambda X: 0.5 * np.sum((X @ a) * X, axis=-1) - X @ b,
        lambda X: X @ a - b,
        float(np.linalg.eigvalsh(a).max()),
    )
    xstar = np.linalg.solve(a, b)
    assert rep.status == CONVERGED
    assert rep.residual <= DEFAULT_OPTS.tol
    assert np.allclose(rep.argpoint, xstar, atol=1e-8)
    assert rep.value == pytest.approx(-0.5 * b @ xstar, abs=1e-12)


def test_minimize_rows_linear_objective_diverges_at_a_check():
    c = np.array([1.0, -2.0])
    opts = SolverOpts(divergence_radius=1e4)
    rep = _minimize_one(lambda X: X @ c, lambda X: np.broadcast_to(c, np.shape(X)), 1.0, opts)
    assert rep.status == DIVERGED and rep.value == np.inf
    assert rep.iterations > 0 and rep.iterations % 50 == 0
    assert np.linalg.norm(rep.argpoint) > opts.divergence_radius


def test_fista_passes_only_iterating_rows_to_the_oracles():
    # row i is a gradient step on rate_i * z^2 / 2 (smaller rates converge
    # later); row 2 drifts and is flagged at the first escape test; rows 3
    # and 6 are masked out.  The per-row constants (the row numbers and the
    # rate column) reach both oracles gathered to the iterating rows; the
    # float passes as it is
    rate = np.array([0.9, 0.05, -0.1, 0.5, 1e-3, 0.3, 0.7])
    active = np.array([True, True, True, False, True, True, False])
    received = []

    def gathered(rows, rates, scale):
        assert np.array_equal(rates, rate[rows, None]) and scale == 1.0
        return rows.copy()

    def step(momentum, rows, rates, scale):
        received.append(gathered(rows, rates, scale))
        z_new = momentum - scale * rates * momentum
        return z_new, np.linalg.norm(z_new - momentum, axis=-1)

    def escaped(z, anchor, *per_row):
        gathered(*per_row)
        return np.linalg.norm(z - anchor, axis=-1) > 10.0

    z0 = np.ones((7, 2))
    z, status, iters, residual = _fista(
        step, z0, SolverOpts(tol=1e-10), active=active, escaped=escaped,
        per_row=(np.arange(7), rate[:, None], 1.0),
    )
    assert sum(len(r) for r in received) == iters.sum()
    assert not np.isin([3, 6], np.concatenate(received)).any()
    converged, diverged, left = _CONVERGED_CODE, _DIVERGED_CODE, _MAX_ITER_CODE
    assert list(status) == [converged, converged, diverged, left, converged, converged, left]
    assert iters[2] == 50 and list(iters[[3, 6]]) == [0, 0]
    assert np.isinf(residual[[3, 6]]).all() and (residual[[0, 1, 4, 5]] <= 1e-10).all()
    # the residual is rate_i ||m||: row 4 stops once ||m|| <= 1e-10 / 1e-3
    assert (z[[3, 6]] == 1.0).all() and np.abs(z[[0, 1, 4, 5]]).max() < 1e-7
    # early- and late-converging rows leave at different iterations
    assert iters[0] < iters[1] < iters[4] and iters[4] > 50


def _scaled_gradient_rows(rng, n):
    """``n`` rows of gradient steps on ``0.5 z'diag(c)z - b'z`` with a per-row step.

    Curvatures span four decades, so rows converge hundreds of iterations
    apart, restart, or run out of iterations; a negative curvature drifts
    and is flagged by the escape test.
    """
    curv = 10.0 ** rng.uniform(-4.0, 0.0, size=(n, 2))
    curv[::9, 1] = -0.05
    b = rng.normal(size=(n, 2))
    scale = rng.uniform(0.5, 1.0, size=(n, 1))  # the per-row column

    def step(momentum, curv, b, scale):
        grad = curv * momentum - b
        return momentum - scale * grad, _norm(grad)

    def escaped(z, _anchor, *_):
        return _norm(z) > 1e8

    return step, escaped, (curv, b, scale)


def test_many_row_fista_equals_one_row_solves():
    rng = np.random.default_rng(9)
    n = 120
    step, escaped, per_row = _scaled_gradient_rows(rng, n)
    z0 = rng.normal(size=(n, 2))
    active = np.arange(n) % 7 != 3
    opts = SolverOpts(tol=1e-9, max_iter=1500)
    z, status, iters, residual = _fista(
        step, z0, opts, active=active, escaped=escaped, per_row=per_row
    )
    assert {_CONVERGED_CODE, _DIVERGED_CODE, _MAX_ITER_CODE} <= set(status)
    assert len(set(iters[status == _CONVERGED_CODE])) > 50  # rows leave at many iterations
    for i in range(n):
        if not active[i]:
            assert (status[i], iters[i], residual[i]) == (_MAX_ITER_CODE, 0, np.inf)
            assert np.array_equal(z[i], z0[i])
            continue
        one = _fista(
            step, z0[i : i + 1], opts, escaped=escaped,
            per_row=tuple(c[i : i + 1] for c in per_row),
        )
        assert (status[i], iters[i], residual[i]) == (one[1][0], one[2][0], one[3][0])
        assert np.array_equal(z[i], one[0][0])


def test_statuses_are_the_shared_module_constants():
    # the kernel returns int8 codes, which name the shared objects
    rng = np.random.default_rng(10)
    step, escaped, per_row = _scaled_gradient_rows(rng, 40)
    shared = (CONVERGED, DIVERGED, MAX_ITER, INVALID)
    _, codes, _, _ = _fista(
        step, np.zeros((40, 2)), SolverOpts(max_iter=300), escaped=escaped,
        per_row=per_row,
    )
    assert codes.dtype == np.int8 and set(codes) == {0, 1, 2}
    assert all(any(s is c for c in shared) for s in _STATUS_BY_CODE.take(codes))
    assert list(_STATUS_BY_CODE) == [MAX_ITER, CONVERGED, DIVERGED, INVALID]
    # a feasible, an infeasible (off the range of L*) and a NaN row
    spec = CompositionSpec(DenseMap([[0.6, 0.0]]), L1Norm(1), 1.0)
    X = np.array([[1.0, 0.0], [1.0, 1.0], [np.nan, 0.0]])
    for solve in (eval_composition_batch, eval_cocomposition_batch):
        for opts in (DEFAULT_OPTS, SolverOpts(max_iter=1)):
            status = solve(spec, X, opts)[1]
            assert status[2] == INVALID
            assert all(any(s is c for c in shared) for s in status)
    assert list(eval_composition_batch(spec, X)[1]) == [CONVERGED, DIVERGED, INVALID]


def test_momentum_weights_match_the_float_recurrence_across_growth(monkeypatch):
    t, expected = np.ones(1), []
    for _ in range(3000):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t**2))
        expected.append(((t - 1.0) / t_next)[0])
        t = t_next
    monkeypatch.setattr(moreau, "_BETAS", np.zeros(1))
    small = moreau._momentum_weights(5)
    grown = moreau._momentum_weights(3000)
    assert len(small) == 5 and len(grown) == 3000 and grown[0] == 0.0
    assert np.array_equal(small, expected[:5])
    assert np.array_equal(grown, expected)
    # a request the table already covers returns it unchanged
    assert moreau._momentum_weights(10) is grown


def _reference_fista(step, z0, tol, max_iter):
    """Row-by-row FISTA with a float ``t`` per row and gradient-scheme restart."""
    z_out, status, iters, restarts = z0.copy(), [], [], []
    for i, z in enumerate(z0):
        momentum, t, count, ended = z, 1.0, 0, MAX_ITER
        for it in range(1, max_iter + 1):
            z_new, res = step(i, momentum)
            delta = z_new - z
            restart = np.sum((momentum - z_new) * delta) > 0.0
            t = 1.0 if restart else t
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * (t * t)))
            beta = 0.0 if restart else (t - 1.0) / t_next
            momentum, z, t = z_new + beta * delta, z_new, t_next
            count += restart
            if res <= tol:
                ended = CONVERGED
                break
        z_out[i] = z
        status.append(ended)
        iters.append(it)
        restarts.append(count)
    return z_out, status, iters, restarts


def test_fista_matches_a_float_t_reference_with_restarts(monkeypatch):
    # gradient steps on 0.5 z'A_i z - b_i'z; the ill-conditioned rows make
    # the momentum overshoot and restart, the last one runs out of iterations
    curv = np.array([[1.0, 0.3], [1.0, 0.01], [1.0, 1e-4]])
    b = np.array([[1.0, -1.0], [0.5, 2.0], [1.0, 1.0]])
    monkeypatch.setattr(moreau, "_BETAS", np.zeros(1))  # grows mid-solve

    def row_step(i, m):
        grad = curv[i] * m - b[i]
        return m - grad, np.sqrt(np.sum(grad * grad))

    def step(momentum, curv, b):
        grad = curv * momentum - b
        return momentum - grad, np.sqrt(np.add.reduce(grad * grad, axis=-1))

    z0 = np.zeros((3, 2))
    opts = SolverOpts(tol=1e-10, max_iter=700)
    z, status, iters, _ = _fista(step, z0, opts, per_row=(curv, b))
    z_ref, status_ref, iters_ref, restarts = _reference_fista(row_step, z0, 1e-10, 700)
    assert restarts[1] > 0 and restarts[2] > 0
    assert list(_STATUS_BY_CODE.take(status)) == status_ref == [CONVERGED, CONVERGED, MAX_ITER]
    assert list(iters) == iters_ref
    assert np.array_equal(z, z_ref)


def _counted(rule, updates):
    """``rule`` with the row count of every call of its update appended to ``updates``."""

    def counted_rule(z):
        update, state, measured = rule(z)

        def counted(state, output, residual, it, *per_row):
            updates.append(len(output))
            return update(state, output, residual, it, *per_row)

        return counted, state, measured

    return counted_rule


def _halving_step(momentum, b):
    """A gradient step on ``||z - b||^2 / 4``, halving the distance to ``b``."""
    grad = 0.5 * (momentum - b)
    return momentum - grad, _norm(grad)


def _root_step(beta, b):
    """``F(beta) = beta - b``, whose root is ``b``, and ``||F||``."""
    F = beta - b
    return F, _norm(F)


def _identity_jacobian(beta, _b):
    """The Jacobian ``I`` of ``_root_step``, once per row: ``(k, k, n)``."""
    k = beta.shape[1]
    return np.broadcast_to(np.identity(k)[:, :, None], (k, k, len(beta)))


@pytest.mark.parametrize(
    "rule, step",
    [(moreau._momentum, _halving_step), (moreau._newton(_identity_jacobian), _root_step)],
    ids=["momentum", "newton"],
)
def test_a_solve_stopping_at_iteration_k_updates_k_minus_1_times(rule, step):
    # the stop is tested on the step's iterate before the update, so the
    # update of a row's last iteration is never made
    b = np.array([[1.0, -2.0]])
    for z0, stopped_at in ((np.zeros((1, 2)), None), (b.copy(), 1)):
        updates = []
        z, codes, iters, residual = _fista(
            step, z0, SolverOpts(tol=1e-10), per_row=(b,), rule=_counted(rule, updates)
        )
        assert codes.dtype == np.int8 and codes.tolist() == [_CONVERGED_CODE]
        assert len(updates) == iters[0] - 1 and residual[0] <= 1e-10
        if stopped_at is None:
            assert iters[0] > 1
        else:  # a one-iteration solve never updates
            assert iters[0] == stopped_at and updates == []
        # momentum writes out the step's output, Newton the point it
        # measured, not F there (0 at the root)
        np.testing.assert_allclose(z, b, rtol=0, atol=1e-9)


def _kinked_step(beta, omega):
    """``F(beta) = beta + 1 + omega max(beta, 0)``, root -1, and ``||F||``.

    ``F`` is the gradient of a strongly convex function with a kink at 0.
    """
    F = beta + 1.0 + omega * np.maximum(beta, 0.0)
    return F, _norm(F)


def _kinked_jacobian(beta, omega):
    """``1 + omega`` where ``beta >= 0``, else 1: ``(1, 1, n)``."""
    return (1.0 + omega * (beta >= 0.0)).T[None]


def test_newton_steps_leave_a_kink_whose_jacobian_is_from_the_far_side():
    # at the kink 0 the Jacobian 1 + omega is the slope of the side a step
    # toward the root leaves: the Newton step 1/(1 + omega) and each of its
    # halvings t cut ||F|| by t/(1 + omega), short of 1e-4 t for omega > 1e4.
    # After 20 halvings the rule steps along -F(0) = -1, onto the root
    omega = np.array([[1e6], [1e3]])
    z, codes, iters, residual = _fista(
        _kinked_step, np.zeros((2, 1)), SolverOpts(max_iter=100), per_row=(omega,),
        rule=moreau._newton(_kinked_jacobian),
    )
    assert codes.tolist() == [_CONVERGED_CODE] * 2
    # start, 20 halvings, the step along -F, the stop; at omega 1e3 the
    # Newton step is accepted and the next lands on the root
    assert iters.tolist() == [23, 3]
    np.testing.assert_allclose(z, -1.0, rtol=0, atol=1e-12)


def test_rows_stopping_together_are_written_out_in_one_step(monkeypatch):
    # the rows are the same problem up to signs and order, so they stop at
    # the same iteration: no row is taken from the set, at set-up or after
    taken = []
    take_rows = moreau._take_rows

    def counted(a, index):
        taken.append(len(index))
        return take_rows(a, index)

    monkeypatch.setattr(moreau, "_take_rows", counted)
    b = np.array([[1.0, -2.0], [-2.0, 1.0], [2.0, 1.0]])
    z, codes, iters, _ = _fista(_halving_step, np.zeros((3, 2), order="F"), DEFAULT_OPTS,
                                per_row=(b,))
    assert taken == [] and len(set(iters)) == 1 and iters[0] > 1
    assert codes.tolist() == [_CONVERGED_CODE] * 3
    np.testing.assert_allclose(z, b, rtol=0, atol=1e-7)
    # a row that stops alone is taken from the set
    z0 = np.array([[1.0, -2.0], [0.0, 0.0], [0.0, 0.0]], order="F")
    _, _, iters, _ = _fista(_halving_step, z0, DEFAULT_OPTS, per_row=(b,))
    assert iters[0] == 1 < iters[1] and taken


def test_found_line_solves_keep_their_iteration_counts():
    # the one-row solves timed in CHANGES.md; counts as before the
    # age-indexed momentum table and the folded steps.  The zero row kept
    # the 2x2 cocomposition's 1/gamma step; it took 16 iterations while
    # the residual was measured from the previous iterate, 15 from the
    # momentum point, 12 from the collapse start, 3 on the metric path with
    # Barzilai-Borwein steps and 2 with Newton steps
    L = DenseMap([[0.5, 0.1], [-0.2, 0.4], [0.0, 0.0]])
    spec = CompositionSpec(L, L1Norm(3), 1.0)
    assert eval_cocomposition(spec, [1.0, -2.0]).iterations == 2
    a, c = np.array([1.0, 0.01]), np.ones(2)
    rep = _minimize_one(
        lambda X: np.sum(0.5 * a * X * X - c * X, axis=-1), lambda X: a * X - c, 1.0
    )
    assert rep.status == CONVERGED and rep.iterations == 139


def test_found_line_cocomposition_at_the_tight_step():
    # the 2x2 case itself: ||I - LL*|| = 1 - s_min^2 set the dual step; 10
    # iterations from y = 0, 9 from the collapse start, 3 on the metric path
    # with Barzilai-Borwein steps, 2 with Newton steps
    spec = CompositionSpec(DenseMap([[0.5, 0.1], [-0.2, 0.4]]), L1Norm(2), 1.0)
    assert eval_cocomposition(spec, [1.0, -2.0]).iterations == 2
