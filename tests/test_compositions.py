import numpy as np
import pytest

from proxmix import (
    CompositionSpec,
    DenseMap,
    BallDistance,
    EuclideanNorm,
    L1Norm,
    admissible,
    argmin_cocomposition,
    argmin_gamma_sequence,
    envelope_cocomposition,
    envelope_cocomposition_batch,
    eval_cocomposition,
    eval_cocomposition_batch,
    envelope,
    eval_composition,
    gamma_sweep,
    limit_large_gamma,
    limit_small_gamma,
    perspective_cocomposition,
    prox_cocomposition,
    prox_composition,
    quadratic_kernel,
    recession_cocomposition,
    subgradient_witness_cocomposition,
)
from proxmix.cli import figure_preset
from proxmix import compositions, moreau
from proxmix.compositions import (
    _cocomposition_core,
    _composition_core,
    eval_composition_batch,
    pushforward_infimum,
)
from proxmix.errors import AdmissibilityError, DimensionError, ParameterError
from proxmix.functions import (
    Affine,
    BallIndicator,
    ConvexFunction,
    MoreauEnvelopeFunction,
    OracleFunction,
    SeparableSum,
    SubspaceIndicator,
)
from proxmix.moreau import (
    CONVERGED,
    DEFAULT_OPTS,
    DIVERGED,
    INVALID,
    MAX_ITER,
    SolverOpts,
    grid_prox,
)
from proxmix.verify import (
    _isometry,
    _random_conjugable_fn,
    _random_fullspace_fn,
    _random_operator,
    _random_spec,
)


def scalar_half_spec(gamma=1.0, fn=None):
    return CompositionSpec(DenseMap([[0.5]]), fn or L1Norm(1), gamma)


def projection_spec(gamma=1.0):
    proj = DenseMap([[1.0, 0.0], [0.0, 0.0]])
    return CompositionSpec(proj, EuclideanNorm(2), gamma)


# -- admissibility -----------------------------------------------------------


def test_admissible_identity():
    assert admissible(DenseMap.identity(2))


def test_admissible_rejects_zero_map():
    assert not admissible(DenseMap(np.zeros((2, 2))))


def test_admissible_rejects_expansion():
    assert not admissible(DenseMap(2.0 * np.eye(2)))


def test_spec_construction_guards():
    with pytest.raises(AdmissibilityError):
        CompositionSpec(DenseMap(2.0 * np.eye(1)), L1Norm(1), 1.0)
    with pytest.raises(ParameterError):
        CompositionSpec(DenseMap.identity(1), L1Norm(1), -1.0)
    with pytest.raises(ParameterError):
        CompositionSpec(DenseMap.identity(2), L1Norm(1), 1.0)


@pytest.mark.parametrize("gamma", [np.inf, np.nan])
def test_spec_rejects_non_finite_gamma(gamma):
    with pytest.raises(ParameterError, match="finite and positive"):
        CompositionSpec(DenseMap.identity(1), L1Norm(1), gamma)


# -- cocomposition values ------------------------------------------------------


def test_cocomposition_identity_operator_at_origin():
    spec = CompositionSpec(DenseMap.identity(1), EuclideanNorm(1), 1.0)
    assert eval_cocomposition(spec, [0.0]).value == pytest.approx(0.0, abs=1e-9)


def test_cocomposition_projection_collapses_to_composed_norm():
    spec = projection_spec(gamma=0.7)
    rep = eval_cocomposition(spec, [3.0, 4.0])
    assert rep.value == pytest.approx(3.0, abs=1e-8)


def test_cocomposition_worked_scalar_value():
    # independent oracle: dense dual grid of the defining sup
    spec = scalar_half_spec()
    y = np.linspace(-1, 1, 200001)
    oracle = float(np.max(0.5 * y - 0.375 * y**2))
    rep = eval_cocomposition(spec, [1.0])
    assert rep.status == CONVERGED
    assert rep.value == pytest.approx(1.0 / 6.0, abs=1e-9)
    assert rep.value == pytest.approx(oracle, abs=1e-8)


# -- composition values --------------------------------------------------------


def test_composition_identity_operator():
    spec = CompositionSpec(DenseMap.identity(1), EuclideanNorm(1), 1.0)
    assert eval_composition(spec, [2.0]).value == pytest.approx(2.0, abs=1e-8)


def test_composition_projection_adds_subspace_indicator():
    spec = projection_spec()
    assert eval_composition(spec, [3.0, 0.0]).value == pytest.approx(3.0, abs=1e-7)
    rep = eval_composition(spec, [3.0, 4.0])
    assert rep.status == DIVERGED
    assert rep.value == np.inf


def test_composition_worked_scalar_value():
    # unique feasible dual point: |1| + 0.375
    spec = scalar_half_spec()
    rep = eval_composition(spec, [0.5])
    assert rep.value == pytest.approx(1.375, abs=1e-9)


# -- certified divergence and invalid rows -------------------------------------

# L* is injective for SQUARE, so its compositions are exact (0 iterations);
# TALL has a three-row L*, whose fibers are lines, so its compositions
# run the dual iteration and its certificates
SQUARE = DenseMap([[0.5, 0.1], [-0.2, 0.4]])
TALL = DenseMap([[0.5, 0.1], [-0.2, 0.4], [0.1, -0.3]])
BALL_POINTS = [[3.0, 1.0], [-1.0, 2.0], [0.0, -1.2]]


@pytest.mark.parametrize("x", BALL_POINTS)
def test_composition_ball_infeasible_certified_at_first_check(x):
    # L*(B(0, 1)) lies in the ball of radius ||L|| < 0.6
    spec = CompositionSpec(TALL, BallIndicator(np.zeros(3), 1.0), 1.0)
    rep = eval_composition(spec, x)
    assert (rep.status, rep.value, rep.iterations) == (DIVERGED, np.inf, 50)


@pytest.mark.parametrize("x", BALL_POINTS)
def test_composition_ball_infeasible_certified_at_0_iterations(x):
    # the one fiber point lies outside the ball
    spec = CompositionSpec(SQUARE, BallIndicator(np.zeros(2), 1.0), 1.0)
    rep = eval_composition(spec, x)
    assert (rep.status, rep.value, rep.iterations) == (DIVERGED, np.inf, 0)
    assert rep.argpoint is None


def _orthogonal_to_first_row(L):
    """A point orthogonal to ``L* e1``, at distance 1.5 from the origin."""
    line = L.adjoint_apply(np.eye(L.rows)[0])
    return 1.5 * np.array([-line[1], line[0]]) / np.linalg.norm(line)


@pytest.mark.parametrize("gamma", [0.8, 1.25])
def test_composition_subspace_infeasible_certified_at_first_check(gamma):
    # g indicates the first axis, so L*(V) is the line through L* e1 and
    # the point is orthogonal to it
    basis = np.array([[1.0], [0.0], [0.0]])
    spec = CompositionSpec(TALL, SubspaceIndicator(basis), gamma)
    rep = eval_composition(spec, _orthogonal_to_first_row(TALL))
    assert (rep.status, rep.value, rep.iterations) == (DIVERGED, np.inf, 50)


@pytest.mark.parametrize("gamma", [0.8, 1.25])
def test_composition_subspace_infeasible_certified_at_0_iterations(gamma):
    basis = np.array([[1.0], [0.0]])
    spec = CompositionSpec(SQUARE, SubspaceIndicator(basis), gamma)
    rep = eval_composition(spec, _orthogonal_to_first_row(SQUARE))
    assert (rep.status, rep.value, rep.iterations) == (DIVERGED, np.inf, 0)


def test_cocomposition_escape_branch_certified():
    # ||L|| = 1 and a restricted domain: sup_y 2y - |y| is unbounded
    spec = CompositionSpec(DenseMap.identity(1), BallIndicator([0.0], 1.0), 1.0)
    rep = eval_cocomposition(spec, [2.0])
    assert rep.status == DIVERGED
    assert rep.value == np.inf
    assert rep.iterations <= 50


def test_cocomposition_escape_branch_boundary_stays_finite():
    # the kernel direction of I - LL* carries margin exactly 0 here
    spec = CompositionSpec(DenseMap.identity(1), BallIndicator([0.0], 1.0), 1.0)
    rep = eval_cocomposition(spec, [1.0])
    assert rep.status == CONVERGED
    assert rep.value == pytest.approx(0.0, abs=1e-9)


def test_cocomposition_certificate_ignores_penalized_directions():
    # ker(I - LL*) is the first axis, where <Lx, d> = 0.5 < sigma(d) = 1;
    # along the second axis the slope 1.9 beats 1 but Phi penalizes it,
    # so the value is finite: sup over y2 of a y2 - c y2^2 / 2 with
    # a = 1.9 - sqrt(3)/2 (y1 = |y|/2 at the optimum), c = 1 - 0.95^2;
    # the third axis carries no slope and y3 = 0.  LL* is singular, so
    # the step is 1/gamma
    spec = CompositionSpec(
        DenseMap([[1.0, 0.0], [0.0, 0.95], [0.0, 0.0]]),
        BallIndicator(np.zeros(3), 1.0),
        1.0,
    )
    rep = eval_cocomposition(spec, [0.5, 2.0])
    a, c = 1.9 - np.sqrt(0.75), 1.0 - 0.95**2
    assert rep.status == CONVERGED
    assert rep.iterations > 50  # the certificate was tested and did not fire
    assert rep.value == pytest.approx(a**2 / (2.0 * c), abs=1e-6)


def test_cocomposition_tight_step_on_penalized_directions():
    # the square map of the same problem: ||I - LL*|| = 1 - 0.95^2, so the
    # step is about 10x longer and the iteration stops before the first
    # certificate test (25 iterations from y = 0, 29 from the collapse start)
    L = DenseMap([[1.0, 0.0], [0.0, 0.95]])
    spec = CompositionSpec(L, BallIndicator(np.zeros(2), 1.0), 1.0)
    rep = eval_cocomposition(spec, [0.5, 2.0])
    a, c = 1.9 - np.sqrt(0.75), 1.0 - 0.95**2
    assert L.dual_step[0] == pytest.approx(c + 1e-9, rel=1e-12)
    assert (rep.status, rep.iterations) == (CONVERGED, 29)
    assert rep.value == pytest.approx(a**2 / (2.0 * c), abs=1e-6)


@pytest.mark.parametrize("angle", [0.3, 2.0, 4.5])
def test_composition_feasible_boundary_points_converge(angle):
    # x = L* y with ||y|| = r: the fiber is the single point y, so the
    # value is Phi(y) / gamma
    radius, gamma = 1.3, 0.9
    spec = CompositionSpec(SQUARE, BallIndicator(np.zeros(2), radius), gamma)
    y = radius * np.array([np.cos(angle), np.sin(angle)])
    rep = eval_composition(spec, SQUARE.adjoint_apply(y))
    assert rep.status == CONVERGED
    assert rep.value == pytest.approx(float(spec.defect(y)) / gamma, abs=1e-6)


def test_composition_feasible_subspace_point_converges():
    basis = np.array([[0.6], [0.8]])
    spec = CompositionSpec(SQUARE, SubspaceIndicator(basis), 1.0)
    y = 2.0 * basis[:, 0]
    rep = eval_composition(spec, SQUARE.adjoint_apply(y))
    assert rep.status == CONVERGED
    assert rep.value == pytest.approx(float(spec.defect(y)), abs=1e-6)


def _mixed_rows(L, inside, boundary):
    """Two points of ``L*(B(0, 1))``, two outside it and a NaN row."""
    return np.array(
        [
            L.adjoint_apply(inside),
            [3.0, 1.0],
            L.adjoint_apply(boundary),
            [np.nan, 1.0],
            [0.0, -1.2],
        ]
    )


def test_composition_batch_mixed_rows():
    spec = CompositionSpec(TALL, BallIndicator(np.zeros(3), 1.0), 1.0)
    X = _mixed_rows(TALL, [0.3, -0.4, 0.0], [0.6, 0.8, 0.0])
    values, status, iters = eval_composition_batch(spec, X)
    assert list(status) == [CONVERGED, DIVERGED, CONVERGED, INVALID, DIVERGED]
    assert list(iters[[1, 3, 4]]) == [50, 0, 50]
    assert np.isinf(values[[1, 4]]).all() and np.isnan(values[3])
    for row in (0, 2):
        single = eval_composition(spec, X[row])
        assert single.status == CONVERGED
        assert single.iterations == iters[row]
        assert values[row] == pytest.approx(single.value, rel=1e-12, abs=1e-12)


def test_composition_batch_mixed_rows_exact():
    # the fiber of x = L* y is {y}, so the value is Phi(y) / gamma
    spec = CompositionSpec(SQUARE, BallIndicator(np.zeros(2), 1.0), 1.0)
    ys = np.array([[0.3, -0.4], [0.6, 0.8]])
    X = _mixed_rows(SQUARE, *ys)
    values, status, iters = eval_composition_batch(spec, X)
    assert list(status) == [CONVERGED, DIVERGED, CONVERGED, INVALID, DIVERGED]
    assert list(iters) == [0, 0, 0, 0, 0]
    assert np.isinf(values[[1, 4]]).all() and np.isnan(values[3])
    np.testing.assert_allclose(values[[0, 2]], spec.defect(ys), rtol=1e-13)
    for row in (0, 2):
        single = eval_composition(spec, X[row])
        assert (single.status, single.iterations, single.residual) == (CONVERGED, 0, 0.0)
        assert single.value == pytest.approx(values[row], rel=1e-12, abs=1e-12)


def _figure_subgrid():
    axis = np.linspace(-4.0, 4.0, 7)
    return np.stack([m.reshape(-1) for m in np.meshgrid(axis, axis, indexing="ij")], -1)


@pytest.mark.parametrize(
    "spec, X, diverged",
    [
        (CompositionSpec(*figure_preset(name), gamma), _figure_subgrid(), 0)
        for name in ("example1", "example2")
        for gamma in (0.5, 8.0)
    ]
    + [
        (
            CompositionSpec(DenseMap.identity(2), BallIndicator(np.zeros(2), 1.0), 1.0),
            np.array([[2.0, 0.0], [0.3, 0.2], [1.5, 1.5], [0.0, -3.0], [-0.6, 0.0]]),
            3,
        )
    ],
    ids=["example1-0.5", "example1-8", "example2-0.5", "example2-8", "escape-branch"],
)
def test_cocomposition_batch_matches_single_calls(spec, X, diverged):
    values, status, iters = eval_cocomposition_batch(spec, X)
    assert list(status).count(DIVERGED) == diverged
    assert len(set(iters)) > 1  # rows stop at different iterations
    for row, x in enumerate(X):
        single = eval_cocomposition(spec, x)
        assert (single.status, single.iterations) == (status[row], iters[row])
        assert values[row] == pytest.approx(single.value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize(
    "solve", [eval_composition_batch, eval_cocomposition_batch]
)
def test_batch_nonfinite_rows_cost_no_iterations(solve):
    spec = CompositionSpec(SQUARE, L1Norm(2), 1.0)
    X = np.array([[np.nan, 1.0], [1.0, 2.0], [np.inf, 0.0], [0.5, -np.inf]])
    values, status, iters = solve(spec, X)
    assert list(status) == [INVALID, CONVERGED, INVALID, INVALID]
    assert list(iters[[0, 2, 3]]) == [0, 0, 0]
    assert np.isnan(values[[0, 2, 3]]).all()
    assert values[1] == pytest.approx(solve(spec, X[1:2])[0][0], rel=1e-12)


@pytest.mark.parametrize(
    "solve", [eval_composition_batch, eval_cocomposition_batch]
)
@pytest.mark.parametrize(
    "X", [np.ones((3, 3)), np.ones((3, 1)), np.ones(2), np.ones((1, 2, 2))],
    ids=["long-rows", "short-rows", "1-D", "3-D"],
)
def test_batch_rejects_wrong_shape(solve, X):
    # a 1-D X of length cols used to broadcast one point's value over its entries
    spec = CompositionSpec(SQUARE, L1Norm(2), 1.0)
    with pytest.raises(DimensionError):
        solve(spec, X)


def test_composition_radius_fallback_without_conjugate():
    # an oracle function has no catalog conjugate, so no certificate:
    # the iterate has to pass the divergence radius
    L = DenseMap([[0.5], [0.0]])
    ball = BallIndicator([0.0, 0.0], 1.0)
    oracle = OracleFunction(2, ball, prox_fn=ball.prox, full_domain=False)
    opts = SolverOpts(divergence_radius=1e4)
    rep = eval_composition(CompositionSpec(L, oracle, 1.0), [2.0], opts)
    assert rep.status == DIVERGED
    assert np.linalg.norm(rep.argpoint) > opts.divergence_radius
    # the catalog ball is certified long before the radius
    rep = eval_composition(CompositionSpec(L, ball, 1.0), [2.0], opts)
    assert (rep.status, rep.iterations) == (DIVERGED, 50)
    assert np.linalg.norm(rep.argpoint) < opts.divergence_radius


@pytest.mark.parametrize(
    "name, gamma", [("example1", 0.5), ("example1", 8.0), ("example2", 8.0)]
)
def test_far_feasible_composition_is_not_diverged(name, gamma):
    # full-domain g: the range test leaves only finite rows, so the dual
    # iterate passing the divergence radius certifies nothing; such a row
    # used to stop 'diverged' with value inf at iteration 50
    spec = CompositionSpec(*figure_preset(name), gamma)
    x = 1e8 * np.array([1.0, -0.7])
    loose = eval_composition(spec, x, SolverOpts(tol=1.0))
    assert loose.status == CONVERGED and loose.iterations <= 3
    rep = eval_composition(spec, x, SolverOpts(max_iter=200))
    assert (rep.status, rep.iterations) == (MAX_ITER, 200)
    assert rep.value == pytest.approx(loose.value, rel=1e-12)
    if (name, gamma) == ("example1", 0.5):
        assert loose.value == pytest.approx(2.627531484038384e16, rel=1e-12)


def test_exact_composition_needs_no_conjugate_or_radius():
    # with an injective L* the fiber point 4 lies outside the ball: the
    # oracle's value certifies +inf without a conjugate or an iterate
    ball = BallIndicator([0.0], 1.0)
    oracle = OracleFunction(1, ball, prox_fn=ball.prox, full_domain=False)
    for fn in (oracle, ball):
        rep = eval_composition(CompositionSpec(DenseMap([[0.5]]), fn, 1.0), [2.0])
        assert (rep.status, rep.value, rep.iterations) == (DIVERGED, np.inf, 0)
        assert rep.argpoint is None


def test_values_without_catalog_conjugate_match_catalog():
    # the values need only the prox and the value of g
    fn = quadratic_kernel(1).translate([0.3])
    oracle = OracleFunction(1, fn, prox_fn=fn.prox)
    for gamma in (0.5, 2.0):
        for x in ([1.0], [-2.5]):
            for solve in (eval_cocomposition, eval_composition):
                got = solve(CompositionSpec(DenseMap([[0.5]]), oracle, gamma), x)
                want = solve(CompositionSpec(DenseMap([[0.5]]), fn, gamma), x)
                assert got.status == CONVERGED
                assert got.value == pytest.approx(want.value, abs=1e-8)


# -- prox formulas --------------------------------------------------------------


def test_prox_composition_reduces_on_identity():
    spec = CompositionSpec(DenseMap.identity(2), L1Norm(2), 1.0)
    x = np.array([2.0, -0.5])
    assert np.allclose(prox_composition(spec, x), L1Norm(2).prox(1.0, x))


def test_prox_composition_scalar_values():
    spec = scalar_half_spec()
    assert np.allclose(prox_composition(spec, [2.0]), [0.0])
    assert np.allclose(prox_composition(spec, [4.0]), [0.5])


def test_prox_composition_grid_oracle():
    # composition evaluated through the unique feasible dual point
    spec = scalar_half_spec()

    def comp(Y):
        u = Y / 0.5
        return np.abs(u).reshape(-1) + 0.75 * (u.reshape(-1)) ** 2 / 2

    oracle = grid_prox(lambda Y: comp(Y), 1.0, np.array([4.0]), [-0.5], [1.5], 2001)
    got = prox_composition(spec, [4.0])
    assert abs(got[0] - oracle[0]) <= 2e-3


def test_prox_cocomposition_scalar_value_and_grid():
    spec = scalar_half_spec()
    got = prox_cocomposition(spec, [2.0])
    assert np.allclose(got, [1.5])
    vals = lambda Y: eval_cocomposition_batch(spec, Y)[0]  # noqa: E731
    oracle = grid_prox(vals, 1.0, np.array([2.0]), [0.5], [2.5], 2001)
    assert abs(got[0] - oracle[0]) <= 2e-3


def test_prox_cocomposition_semiorthogonal_formula():
    # row coisometry scaled by sqrt(rho)
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 1)))
    rho = 0.64
    op = DenseMap(np.sqrt(rho) * q.T)
    fn = EuclideanNorm(1)
    gamma = 0.9
    spec = CompositionSpec(op, fn, gamma)
    x = rng.normal(size=2)
    w = op.apply(x)
    expected = x + op.adjoint_apply(fn.scale_val(rho).prox(gamma, w) - w) / rho
    # the cocomposition of a coisometry-scaled pair collapses to the
    # composed function, whose prox is the expected formula
    got = prox_cocomposition(
        CompositionSpec(DenseMap(q.T), fn.scale_arg(np.sqrt(rho)), gamma), x
    )
    assert np.allclose(got, expected, atol=1e-12)


# -- envelopes, witnesses, recession, perspective -------------------------------


def test_envelope_cocomposition_matched_index():
    spec = scalar_half_spec()
    assert envelope_cocomposition(spec, 1.0, [2.0]) == pytest.approx(0.5, abs=1e-12)


def test_envelope_cocomposition_identity_operator():
    spec = CompositionSpec(DenseMap.identity(1), L1Norm(1), 0.8)
    from proxmix import envelope

    assert envelope_cocomposition(spec, 0.8, [1.7]) == pytest.approx(
        float(envelope(L1Norm(1), 0.8, np.array([1.7]))), abs=1e-12
    )


@pytest.mark.parametrize("rho", [0.4, 1.0, 2.5])
def test_envelope_cocomposition_all_branches_vs_grid(rho):
    spec = scalar_half_spec(gamma=1.0)
    x = np.array([2.0])
    ys = np.linspace(-6.0, 8.0, 1401)[:, None]
    vals, _, _ = eval_cocomposition_batch(spec, ys)
    oracle = float(np.min(vals + (ys[:, 0] - x[0]) ** 2 / (2 * rho)))
    got = envelope_cocomposition(spec, rho, x)
    assert got == pytest.approx(oracle, abs=1e-4)


def test_envelope_cocomposition_rejects_bad_index():
    with pytest.raises(ParameterError):
        envelope_cocomposition(scalar_half_spec(), -0.1, [1.0])


def test_subgradient_witness_values():
    p, s = subgradient_witness_cocomposition(scalar_half_spec(), [2.0])
    assert np.allclose(p, [1.5]) and np.allclose(s, [0.5])


def test_subgradient_witness_inequality_sampled():
    rng = np.random.default_rng(4)
    spec = scalar_half_spec()
    p, s = subgradient_witness_cocomposition(spec, [2.0])
    base = eval_cocomposition(spec, p).value
    zs = p[None, :] + rng.normal(size=(50, 1)) * 2
    vals, _, _ = eval_cocomposition_batch(spec, zs)
    assert np.all(vals >= base + (zs - p) @ s - 1e-6)


def test_recession_cocomposition_values():
    spec = scalar_half_spec(fn=EuclideanNorm(1))
    assert recession_cocomposition(spec, [2.0]) == pytest.approx(1.0)
    ball = CompositionSpec(DenseMap([[0.5]]), BallIndicator(np.zeros(1), 2.0), 1.0)
    assert recession_cocomposition(ball, [1.0]) == np.inf


def test_recession_cocomposition_difference_quotient():
    spec = scalar_half_spec(fn=EuclideanNorm(1))
    t = 1e6
    y0 = np.array([0.3])
    x = np.array([2.0])
    quotient = (
        eval_cocomposition(spec, y0 + t * x).value
        - eval_cocomposition(spec, y0).value
    ) / t
    assert quotient == pytest.approx(1.0, rel=1e-3)


def test_perspective_values():
    spec = scalar_half_spec()
    plain = eval_cocomposition(spec, [2.0]).value
    assert perspective_cocomposition(spec, [2.0], 1.0) == pytest.approx(
        plain, abs=1e-9
    )
    assert perspective_cocomposition(spec, [2.0], 2.0) == pytest.approx(
        1.0 / 3.0, abs=1e-8
    )
    norm_spec = scalar_half_spec(fn=EuclideanNorm(1))
    assert perspective_cocomposition(norm_spec, [2.0], 0.0) == pytest.approx(1.0)
    assert perspective_cocomposition(spec, [2.0], -1.0) == np.inf


@pytest.mark.parametrize("xi", [np.inf, -np.inf, np.nan])
def test_perspective_rejects_non_finite_xi(xi):
    with pytest.raises(ParameterError, match="xi must be finite"):
        perspective_cocomposition(scalar_half_spec(), [2.0], xi)


# -- sweeps and limits -----------------------------------------------------------


def test_gamma_sweep_monotone():
    rep = gamma_sweep(
        DenseMap([[0.5]]), L1Norm(1), [1.0], [0.25, 1.0, 4.0]
    )
    assert rep.cocomposition_monotone and rep.composition_monotone
    assert np.all(np.diff(rep.cocomposition) < 0)


def test_gamma_sweep_isometry_columns_coincide():
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 1)))
    rep = gamma_sweep(
        DenseMap(q), EuclideanNorm(3).translate(np.ones(3)), [0.7],
        [0.5, 1.0, 2.0],
    )
    assert np.allclose(rep.composition, rep.cocomposition, atol=1e-6)


def test_gamma_sweep_quadratic_chain_closed_form():
    # perturbing the zero function by the quadratic kernel: the
    # composition is 1.5 x^2 / beta + x^2 / 2 with beta = gamma/(1+gamma)
    op = DenseMap([[0.5]])
    fn = Affine(np.zeros(1), 0.0).add_quad(1.0)
    x = np.array([1.0])
    gammas = [0.5, 1.0, 2.0, 4.0]
    rep = gamma_sweep(op, fn, x, gammas)
    for gamma, val in zip(rep.gammas, rep.composition):
        beta = gamma / (1 + gamma)
        assert val == pytest.approx(1.5 / beta + 0.5, abs=1e-9)


def test_limit_small_gamma_gap_and_bound():
    rep = limit_small_gamma(
        DenseMap([[0.5]]), L1Norm(1), [1.0], [1.0, 0.25, 1e-3]
    )
    assert rep.within_bounds
    assert rep.gaps[0] == pytest.approx(0.5 - 1.0 / 6.0, abs=1e-8)
    assert rep.gaps[-1] <= 5e-4 + 1e-6


def test_limit_small_gamma_projection_zero_gap():
    proj = DenseMap([[1.0, 0.0], [0.0, 0.0]])
    rep = limit_small_gamma(
        proj, EuclideanNorm(2), [2.0, 1.0], [4.0, 1.0, 0.25]
    )
    assert np.allclose(rep.gaps, 0.0, atol=1e-8)


def test_limit_small_gamma_infinite_values_off_the_ball():
    """``g(Lx)`` and the cocomposition both +inf: gap 0, no warning, no violation."""
    ball = BallIndicator([0.0], 1.0)
    with np.errstate(all="raise"):
        # L = I: Phi vanishes, so the cocomposition is g itself and +inf at 3
        off = limit_small_gamma(DenseMap.identity(1), ball, [3.0], [4.0, 1.0, 0.25])
        # ||L|| < 1: the cocomposition stays finite while g(Lx) is +inf
        finite = limit_small_gamma(DenseMap([[0.5]]), ball, [3.0], [4.0, 1.0, 0.25])
    assert list(off.values) == [np.inf] * 3
    assert list(off.gaps) == [0.0] * 3
    assert off.within_bounds
    assert np.isfinite(finite.values).all()
    assert list(finite.gaps) == [np.inf] * 3
    assert finite.within_bounds


def test_limit_large_gamma_cocomposition_to_infimum():
    rep = limit_large_gamma(
        DenseMap([[0.5]]), L1Norm(1), [1.0], [2.0**k for k in range(0, 11)],
        which="cocomposition",
    )
    assert rep.target == pytest.approx(0.0, abs=1e-9)
    assert abs(rep.final_gap) <= 1e-3


def test_limit_large_gamma_composition_unique_fiber():
    rep = limit_large_gamma(
        DenseMap([[0.5]]), L1Norm(1), [0.5], [2.0**k for k in range(0, 11)],
        which="composition",
    )
    assert rep.target == pytest.approx(1.0, abs=1e-9)
    assert abs(rep.final_gap) <= 1e-3


def test_limit_large_gamma_projection_family():
    proj = DenseMap([[1.0, 0.0], [0.0, 0.0]])
    fn = EuclideanNorm(2).translate([0.0, 1.0])
    rep = limit_large_gamma(
        proj, fn, [0.5, 0.0], [2.0**k for k in range(0, 12)],
        which="cocomposition",
    )
    # infimum over the vertical fiber through (0.5, 0) of ||y - (0,1)||
    assert rep.target == pytest.approx(0.5, abs=1e-4)
    assert abs(rep.final_gap) <= 2e-3


@pytest.mark.parametrize("which", ["compositon", "Composition", None])
def test_limit_large_gamma_rejects_unknown_which(which):
    with pytest.raises(ParameterError, match="which must be"):
        limit_large_gamma(DenseMap.identity(1), L1Norm(1), [1.0], [1.0, 2.0], which=which)


def test_limit_large_gamma_rejects_an_empty_parameter_list():
    with pytest.raises(ParameterError, match="at least one parameter"):
        limit_large_gamma(DenseMap.identity(1), L1Norm(1), [1.0], [], target=0.0)


def test_pushforward_infimum_unique_and_search():
    op = DenseMap([[0.5]])
    val, wit = pushforward_infimum(op, L1Norm(1), np.array([0.5]))
    assert val == pytest.approx(1.0) and np.allclose(wit, [1.0])
    proj = DenseMap([[1.0, 0.0], [0.0, 0.0]])
    val, wit = pushforward_infimum(
        proj, EuclideanNorm(2).translate([0.0, 1.0]), np.array([0.5, 0.0])
    )
    assert val == pytest.approx(0.5, abs=1e-4)
    val_inf, wit_none = pushforward_infimum(proj, EuclideanNorm(2), np.array([0.5, 1.0]))
    assert val_inf == np.inf and wit_none is None


# -- minimization -----------------------------------------------------------------


def test_argmin_quadratic_exact():
    # translated quadratic through an invertible map: unique minimizer
    op = DenseMap([[0.6, 0.1], [0.0, 0.5]])
    target = np.array([0.3, -0.2])
    fn = quadratic_kernel(2).translate(target)
    spec = CompositionSpec(op, fn, 1.0)
    rep = argmin_cocomposition(spec)
    expected = np.linalg.solve(op.entries, target)
    assert rep.status == CONVERGED
    assert np.allclose(rep.argpoint, expected, atol=1e-6)
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_argmin_translated_l1():
    spec = CompositionSpec(DenseMap([[0.5]]), L1Norm(1).translate([1.0]), 0.7)
    rep = argmin_cocomposition(spec)
    assert np.allclose(rep.argpoint, [2.0], atol=1e-6)
    assert rep.value == pytest.approx(0.0, abs=1e-10)


def test_argmin_noncoercive_diverges():
    spec = CompositionSpec(DenseMap([[0.5]]), Affine([1.0], 0.0), 1.0)
    rep = argmin_cocomposition(spec)
    assert rep.status == DIVERGED


def test_argmin_gamma_sequence_reaches_composed_min():
    from proxmix import refined_grid_min

    op = DenseMap([[0.5]])
    fn = L1Norm(1).translate([1.0])
    ref, _ = refined_grid_min(
        lambda Z: np.abs(op.apply(Z).reshape(-1) - 1.0), [-6.0], [6.0], 2001
    )
    rep = argmin_gamma_sequence(op, fn, [2.0**-n for n in range(13)], reference=ref)
    assert abs(rep.infima[-1] - ref) <= 1e-4
    assert abs(rep.final_gap) <= 1e-4


@pytest.mark.parametrize("reference", [0.0, None])
def test_argmin_gamma_sequence_rejects_an_empty_parameter_list(reference):
    with pytest.raises(ParameterError, match="at least one parameter"):
        argmin_gamma_sequence(DenseMap([[0.5]]), L1Norm(1), [], reference=reference)


# -- ordering chain across random instances ----------------------------------------


def test_ordering_chain_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(25):
        rows, cols = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        m = rng.normal(size=(rows, cols))
        op = DenseMap(m * (rng.uniform(0.3, 0.9) / np.linalg.svd(m, compute_uv=False)[0]))
        fn = EuclideanNorm(rows).translate(rng.normal(size=rows))
        spec = CompositionSpec(op, fn, rng.uniform(0.3, 2.0))
        x = rng.normal(size=cols)
        co = eval_cocomposition(spec, x).value
        comp = eval_composition(spec, x).value
        from proxmix import envelope

        w = op.apply(x)
        assert float(envelope(fn, spec.gamma, w)) <= co + 1e-6
        assert co <= float(np.asarray(fn(w))) + 1e-6
        assert co <= comp + 1e-6


def _unfolded_step(core, spec, X):
    """The step of ``core`` as the dual gradient through two applies each.

    The cocomposition steps at ``1/(gamma lam)`` with ``lam`` from
    ``L.dual_step``; the composition of a full-domain ``g`` ascends in the
    coordinates of ``L.isometric_factor`` where there is one.  Both take
    the momentum rows and their row numbers in ``X``.
    """
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    LX, t = L.apply(X), 1.0 / (gamma * L.dual_step[0])
    Q, XQ = L, X
    if g.has_full_domain() and L.isometric_factor is not None:
        Q, R = L.isometric_factor
        XQ = X @ R
    step_size = 1.0 / (gamma * max(Q.norm_bound**2, 1e-12))

    def cocomposition(momentum, rows):
        grad = LX[rows] - gamma * (momentum - L.apply(L.adjoint_apply(momentum)))
        v = momentum + t * grad
        y_new = v - t * g.prox(1.0 / t, v / t)
        return y_new, np.linalg.norm(y_new - momentum, axis=-1) / t

    def composition(momentum, rows):
        w = Q.apply(momentum)
        p = w - (1.0 / gamma) * g.prox(gamma, gamma * w)
        grad = XQ[rows] - gamma * Q.adjoint_apply(w - p)
        return momentum + step_size * grad, np.linalg.norm(grad, axis=-1)

    return cocomposition if core is _cocomposition_core else composition


def _padded(spec):
    """``spec`` with a zero row under ``L`` and a zero block ``Affine([0.0])`` after ``g``.

    The padded adjoint is never injective, so the composition iterates.
    Its fiber is the original one times a free last entry, which only the
    quadratic term weighs, so the optimum sets it to 0: both compositions
    keep their values.
    """
    L, g = spec.operator, spec.fn
    return CompositionSpec(
        DenseMap(np.vstack([L.entries, np.zeros(L.cols)])),
        SeparableSum([(1.0, g, 0), (1.0, Affine([0.0]), g.dim)]),
        spec.gamma,
    )


def _zero_column(spec, X):
    """``spec`` with a zero last column of ``L``, and ``X`` with a zero last entry.

    The fiber of ``(x, 0)`` is that of ``x`` and the defect is unchanged,
    so the composition keeps its value; the padded map has a rank below
    its column count, so it is not a map with an isometric factor.
    """
    L = DenseMap(np.pad(spec.operator.entries, ((0, 0), (0, 1))))
    return CompositionSpec(L, spec.fn, spec.gamma), np.pad(X, ((0, 0), (0, 1)))


def _direct(spec, X):
    """``_padded`` and ``_zero_column`` together.

    The padded map has neither full row nor full column rank, so the
    composition iterates on ``L`` itself and the cocomposition steps at
    ``1/gamma``; both values stay those of ``(spec, X)``.
    """
    spec, X = _zero_column(_padded(spec), X)
    L = spec.operator
    assert L.isometric_factor is None and L.dual_step[0] == 1.0
    return spec, X


def _exact(L):
    """True where the composition of ``L`` is exact: ``L*`` is injective."""
    return L.rows <= L.cols and L.isometric_factor is not None


def _folded_step_specs():
    """Twelve random full-domain specs and twelve with a restricted ``dom g``.

    Every third restricted-domain operator is an isometry, so the
    cocomposition tests its recession certificate.  Four points per spec
    lie in the range of the adjoint, where the composition is finite for
    full-domain ``g``; the fifth is generic.
    """
    rng = np.random.default_rng(2024)
    specs = [_random_spec(rng) for _ in range(12)]
    for i in range(12):
        rows = int(rng.integers(1, 4))
        cols = min(int(rng.integers(1, 3)), rows)
        make = _isometry if i % 3 == 0 else _random_operator
        if i % 2:
            fn = BallIndicator(0.3 * rng.normal(size=rows), rng.uniform(0.5, 2.0))
        else:
            u = rng.normal(size=(rows, 1))
            fn = SubspaceIndicator(u / np.linalg.norm(u))
        specs.append(CompositionSpec(make(rng, rows, cols), fn, rng.uniform(0.25, 4.0)))
    return [
        (spec, np.vstack([
            rng.normal(size=(4, spec.operator.rows)) @ spec.operator.entries,
            2.0 * rng.normal(size=(1, spec.operator.cols)),
        ]))
        for spec in specs
    ]


def _with_row_numbers(wrap):
    """``_fista`` with ``wrap(step)`` as the step and the row numbers as a last constant.

    The row numbers are gathered with the working set like any per-row
    constant, so the wrapped step reads them last; ``escaped`` gets the
    constants without them.
    """
    kernel = moreau._fista

    def run(step, z, opts, active=None, escaped=None, per_row=()):
        test = None if escaped is None else (lambda z, anchor, *c: escaped(z, anchor, *c[:-1]))
        return kernel(wrap(step), z, opts, active, test, (*per_row, np.arange(len(z))))

    return run


def _compare_folded_steps(monkeypatch, core, spec, X, scaled=False):
    """Run ``core`` with its own step checked against ``_unfolded_step`` at every iteration.

    ``scaled`` widens the residuals' absolute tolerance in proportion to
    the momentum's largest entry: a tight step divides ``I - LL*`` by
    ``lam`` (down to 1e-2), and the residual is a difference of iterates,
    so their rounding shows in it.
    """
    reference = _unfolded_step(core, spec, X)
    checked = []

    def both(step):
        def compared(momentum, *per_row):
            *per_row, rows = per_row
            z_new, res = step(momentum, *per_row)
            z_ref, res_ref = reference(momentum, rows)
            res_atol = 1e-12 * (1.0 + np.abs(momentum).max()) if scaled else 1e-12
            np.testing.assert_allclose(z_new, z_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(res, res_ref, rtol=1e-12, atol=res_atol)
            checked.append(len(rows))
            return z_new, res

        return compared

    monkeypatch.setattr(compositions, "_fista", _with_row_numbers(both))
    values, _, status, iters, _ = core(spec, X, DEFAULT_OPTS)
    monkeypatch.setattr(
        compositions, "_fista",
        _with_row_numbers(lambda _step: lambda momentum, *c: reference(momentum, c[-1])),
    )
    ref_values, _, ref_status, ref_iters, _ = core(spec, X, DEFAULT_OPTS)
    monkeypatch.undo()
    assert sum(checked) == iters.sum() > 0
    assert list(status) == list(ref_status)
    assert list(iters) == list(ref_iters)
    np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("core", [_cocomposition_core, _composition_core])
def test_folded_steps_match_the_unfolded_steps(monkeypatch, core):
    # padded so that neither core changes its step or its coordinates
    for spec, X in _folded_step_specs():
        _compare_folded_steps(monkeypatch, core, *_direct(spec, X))


@pytest.mark.parametrize("core", [_cocomposition_core, _composition_core])
def test_tight_and_isometric_steps_match_the_unfolded_steps(monkeypatch, core):
    changed = 0
    for spec, X in _folded_step_specs():
        L = spec.operator
        if core is _cocomposition_core:
            changed += L.dual_step[0] < 1.0
        elif _exact(L):
            continue  # exact: no step to compare
        elif spec.fn.has_full_domain() and L.isometric_factor is not None:
            changed += 1
        _compare_folded_steps(monkeypatch, core, spec, X, scaled=True)
    assert changed >= 4


def _public_prox_calls(monkeypatch):
    """The parameter of every public ``ConvexFunction.prox`` call from now on."""
    public = []
    prox = ConvexFunction.prox

    def counted(self, gamma, x):
        public.append(gamma)
        return prox(self, gamma, x)

    monkeypatch.setattr(ConvexFunction, "prox", counted)
    return public


def test_steps_skip_the_public_prox(monkeypatch):
    # the spec fixes gamma and the dimensions, so iterations call the hook;
    # TALL with a zero column keeps L's own coordinates and the 1/gamma step
    public = _public_prox_calls(monkeypatch)
    spec, X = _zero_column(CompositionSpec(TALL, L1Norm(3), 1.0), np.array([[1.0, -2.0]]))
    reports = [solve(spec, X[0]) for solve in (eval_cocomposition, eval_composition)]
    assert min(r.iterations for r in reports) > 10
    assert len(public) == 1  # the composition's value, after the iteration


def test_isometric_steps_skip_the_public_prox(monkeypatch):
    public = _public_prox_calls(monkeypatch)
    spec = CompositionSpec(TALL, L1Norm(3), 1.0)
    reports = [solve(spec, [1.0, -2.0]) for solve in (eval_cocomposition, eval_composition)]
    assert [r.iterations for r in reports] == [12, 6]  # 12 and 15 on L's coordinates
    assert len(public) == 1


@pytest.mark.parametrize("gamma", [0.7, np.array([[0.7], [1.3], [2.0]])])
def test_composition_lift_reads_the_c_ordered_adjoint(gamma):
    # the first step lifts the start rows X through L.adjoint_entries, the
    # C-ordered transpose (a product with the transposed view costs up to
    # 4x more); a marked copy shows which matrix the core reads.  The zero
    # column keeps the iteration in L's own coordinates
    L, g = DenseMap([[0.5, 0.1, 0.0], [-0.2, 0.4, 0.0], [0.3, 0.0, 0.0]]), L1Norm(3)
    X = np.array([[1.0, -2.0, 0.0], [0.3, 0.5, 0.0], [-1.0, 0.2, 0.0]])
    marked = np.ascontiguousarray(2.0 * L.entries.T)
    L.adjoint_entries = marked
    lifted = []
    g._prox = lambda gamma, y: lifted.append(y) or L1Norm._prox(g, gamma, y)
    _composition_core(CompositionSpec(L, g, 1.0), X, SolverOpts(max_iter=1), gamma)
    assert marked.flags.c_contiguous
    expected = (X @ marked) * gamma if np.ndim(gamma) else X @ (gamma * marked)
    assert np.array_equal(lifted[0], expected)


@pytest.mark.parametrize("gamma", [0.7, np.array([[0.7], [1.3], [2.0]])])
def test_isometric_lift_reads_the_c_ordered_factor(gamma):
    # a tall map of full column rank: the start rows are X R, lifted
    # through the C-ordered transpose of the isometric factor Q
    L, g = DenseMap([[0.5, 0.1], [-0.2, 0.4], [0.3, 0.0]]), L1Norm(3)
    X = np.array([[1.0, -2.0], [0.3, 0.5], [-1.0, 0.2]])
    Q, R = L.isometric_factor
    assert R.flags.c_contiguous and not R.flags.writeable
    marked = np.ascontiguousarray(2.0 * Q.entries.T)
    Q.adjoint_entries = marked
    lifted = []
    g._prox = lambda gamma, y: lifted.append(y) or L1Norm._prox(g, gamma, y)
    _composition_core(CompositionSpec(L, g, 1.0), X, SolverOpts(max_iter=1), gamma)
    XR = X @ R
    expected = (XR @ marked) * gamma if np.ndim(gamma) else XR @ (gamma * marked)
    assert np.array_equal(lifted[0], expected)


def _recorded_prox_layouts(monkeypatch, *atoms):
    """Patch each atom class's ``_prox`` to record ``(rows, F-contiguous)`` of its input."""
    seen = []
    for cls in atoms:

        def recorded(self, gamma, x, hook=cls._prox):
            seen.append((len(x), x.flags.f_contiguous))
            return hook(self, gamma, x)

        monkeypatch.setattr(cls, "_prox", recorded)
    return seen


@pytest.mark.parametrize(
    "solve",
    [
        lambda spec, X: eval_cocomposition_batch(spec, X)[0],
        lambda spec, X: eval_composition_batch(spec, X)[0],
        lambda spec, X: eval_composition_batch(*_zero_column(spec, X))[0],
        lambda spec, X: envelope_cocomposition_batch(spec, 2.0, X),
    ],
    ids=["cocomposition", "composition", "composition-in-L", "envelope-above"],
)
def test_many_row_solves_hand_the_atoms_f_ordered_rows(monkeypatch, kernel_calls, solve):
    # on (n, dim) rows with dim 2..5 an elementwise op or a per-row (n, 1)
    # broadcast costs up to 3x more in C order, and only a slowdown would
    # show a layout that slipped back.  The input rows are C-ordered; the
    # SeparableSum hands its atoms column blocks of its rows.  The zero
    # column keeps the composition in L's own coordinates
    seen = _recorded_prox_layouts(monkeypatch, L1Norm, BallDistance)
    g = SeparableSum([(1.0, L1Norm(1), 0), (0.5, BallDistance([0.3, -0.2], 0.4), 1)])
    X = np.random.default_rng(56).normal(size=(1000, 2))
    assert np.isfinite(solve(CompositionSpec(TALL, g, 0.8), X)).all()
    assert kernel_calls == [1000]
    assert max(rows for rows, _ in seen) == 1000
    assert all(f_ordered for _, f_ordered in seen)


@pytest.mark.parametrize("core", [_cocomposition_core, _composition_core])
def test_folded_batch_rows_equal_single_calls(core):
    for spec, X in _folded_step_specs():
        values, _, status, iters, _ = core(spec, X, DEFAULT_OPTS)
        for row, x in enumerate(X):
            single = core(spec, x[None, :], DEFAULT_OPTS)
            assert (single[2][0], single[3][0]) == (status[row], iters[row])
            assert values[row] == pytest.approx(single[0][0], rel=1e-12, abs=1e-12)


# -- exact compositions where L* is injective -----------------------------------


def _injective_specs(rng, n):
    """``n`` random specs with an injective ``L*`` (rows <= cols).

    Every third has a full-domain ``g``, the others a ball or a subspace
    indicator; every sixth operator is a coisometry (``LL* = I``).
    """
    for k in range(n):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(rows, 4))
        if k % 3 == 0:
            yield _random_spec(rng, rows=rows, cols=cols)
            continue
        if k % 6 == 1:
            L = DenseMap(_isometry(rng, cols, rows).entries.T)
        else:
            L = _random_operator(rng, rows, cols)
        if k % 3 == 1:
            fn = BallIndicator(0.3 * rng.normal(size=rows), rng.uniform(0.5, 2.0))
        else:
            u = rng.normal(size=(rows, 1))
            fn = SubspaceIndicator(u / np.linalg.norm(u))
        yield CompositionSpec(L, fn, 1.0)


def test_exact_composition_matches_the_iteration():
    # the padded spec has the same value but a non-injective adjoint, so
    # the same problem runs through the dual iteration
    rng = np.random.default_rng(41)
    statuses = []
    for spec in _injective_specs(rng, 500):
        L = spec.operator
        assert _exact(L)
        X = np.vstack([
            rng.normal(size=(2, L.rows)) @ L.entries,  # in the range of L*
            rng.normal(size=(2, L.cols)),
        ])
        gamma = rng.uniform(0.25, 4.0, size=(4, 1))
        values, duals, status, iters, residual = _composition_core(spec, X, DEFAULT_OPTS, gamma)
        ref_values, _, ref_status, ref_iters, _ = _composition_core(
            _padded(spec), X, DEFAULT_OPTS, gamma
        )
        assert duals is None and list(iters) == [0, 0, 0, 0]
        assert list(status) == list(ref_status)
        np.testing.assert_allclose(values, ref_values, rtol=1e-10, atol=1e-10)
        assert list(residual) == [0.0 if s == CONVERGED else np.inf for s in status]
        assert ref_iters.sum() > 0
        statuses.extend(status)
    assert statuses.count(CONVERGED) > 500 and statuses.count(DIVERGED) > 500


def test_exact_composition_certifies_empty_fibers_at_0_iterations():
    rng = np.random.default_rng(42)
    L = _random_operator(rng, 2, 3)
    ys = np.array([[0.3, -0.2], [2.0, 1.0], [-0.1, 0.4]])
    on_range = ys @ L.entries
    off_range = on_range + 0.5 * np.cross(L.entries[0], L.entries[1])
    for fn, finite in (
        (L1Norm(2), [True, True, True]),
        (BallIndicator(np.zeros(2), 1.0), [True, False, True]),  # ||y|| > 1
        (SubspaceIndicator(np.array([[1.0], [0.0]])), [False, False, False]),
    ):
        spec = CompositionSpec(L, fn, 0.7)
        X = np.vstack([on_range, off_range])
        values, status, iters = eval_composition_batch(spec, X)
        assert list(iters) == [0] * 6
        assert list(status) == [CONVERGED if f else DIVERGED for f in finite] + [DIVERGED] * 3
        assert np.isinf(values[3:]).all()
        expected = np.asarray(fn(ys)) + spec.defect(ys) / spec.gamma
        np.testing.assert_allclose(values[:3], expected, rtol=1e-12)


@pytest.mark.parametrize("L", [
    TALL,
    DenseMap([[0.3, 0.1, 0.2], [0.6, 0.2, 0.4]]),  # wide, rank 1
], ids=["tall", "wide-rank-1"])
def test_maps_without_an_injective_adjoint_stay_iterative(kernel_calls, L):
    spec = CompositionSpec(L, L1Norm(L.rows), 1.0)
    X = np.random.default_rng(43).normal(size=(3, L.rows)) @ L.entries
    assert not _exact(L)
    values, status, iters = eval_composition_batch(spec, X)
    assert kernel_calls == [3] and iters.min() > 0
    assert list(status) == [CONVERGED] * 3


@pytest.mark.parametrize("ratio, exact", [(2e-6, True), (5e-7, False)])
def test_near_cutoff_maps(kernel_calls, ratio, exact):
    # singular values 0.8 and 0.8 ratio, on each side of the rank cutoff
    # 1e-6: above it the fiber point still passes the range test
    rng = np.random.default_rng(44)
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    L = DenseMap((u * (0.8 * np.array([1.0, ratio]))) @ v.T)
    spec = CompositionSpec(L, L1Norm(2), 1.0)
    ys = rng.normal(size=(3, 2))
    values, status, iters = eval_composition_batch(spec, ys @ L.entries, SolverOpts(max_iter=20))
    assert _exact(L) == exact
    if exact:
        assert kernel_calls == [] and list(iters) == [0, 0, 0]
        assert list(status) == [CONVERGED] * 3
        expected = np.asarray(spec.fn(ys)) + spec.defect(ys)
        np.testing.assert_allclose(values, expected, rtol=1e-8)
    else:
        assert kernel_calls == [3] and list(iters) == [20, 20, 20]


# -- per-row gamma: one solve per parameter list -------------------------------


def _parameter_specs(rng, n):
    """``n`` random specs, every fourth with a ball indicator, and a point each.

    Every eighth ball-indicator spec has an isometric ``L``, so the
    cocomposition runs its recession certificate; odd points are generic,
    even ones lie in the range of the adjoint.
    """
    out = []
    for k in range(n):
        if k % 4 == 3:
            rows = int(rng.integers(1, 4))
            cols = min(int(rng.integers(1, 3)), rows)
            make = _isometry if k % 8 == 3 else _random_operator
            fn = BallIndicator(0.3 * rng.normal(size=rows), rng.uniform(0.5, 2.0))
            spec = CompositionSpec(make(rng, rows, cols), fn, 1.0)
        else:
            spec = _random_spec(rng)
        L = spec.operator
        x = rng.normal(size=L.cols) if k % 2 else rng.normal(size=L.rows) @ L.entries
        out.append((spec, x))
    return out


def test_per_row_gamma_batches_equal_the_per_gamma_loop():
    rng = np.random.default_rng(31)
    rows = 0
    for spec, x in _parameter_specs(rng, 130):
        gammas = np.sort(rng.uniform(0.25, 4.0, size=8))
        X = np.tile(x, (8, 1))
        for batch, single in (
            (eval_composition_batch, eval_composition),
            (eval_cocomposition_batch, eval_cocomposition),
        ):
            values, status, iters = batch(spec, X, DEFAULT_OPTS, gammas)
            for gamma, value, s, k in zip(gammas, values, status, iters):
                rep = single(CompositionSpec(spec.operator, spec.fn, gamma), x)
                assert (s, k) == (rep.status, rep.iterations)
                assert value == pytest.approx(rep.value, rel=1e-12, abs=1e-12)
        rows += len(gammas)
    assert rows >= 1000


def test_per_row_gamma_batch_rejects_bad_parameters():
    spec = scalar_half_spec()
    X = np.ones((3, 1))
    with pytest.raises(DimensionError):
        eval_composition_batch(spec, X, DEFAULT_OPTS, [1.0, 2.0])
    for bad in ([1.0, 0.0, 2.0], [1.0, -1.0, 2.0], [1.0, np.nan, 2.0]):
        with pytest.raises(ParameterError):
            eval_cocomposition_batch(spec, X, DEFAULT_OPTS, bad)


def test_sweep_and_limits_are_one_solve_per_composition(kernel_calls):
    rng = np.random.default_rng(32)
    for spec, x in _parameter_specs(rng, 12):
        if _exact(spec.operator):
            spec = _padded(spec)  # an injective L* would skip the iteration
        L, fn = spec.operator, spec.fn
        gammas = rng.uniform(0.25, 4.0, size=6)
        del kernel_calls[:]
        rep = gamma_sweep(L, fn, x, gammas)
        assert kernel_calls == [6, 6]
        for gamma, comp, cocomp in zip(rep.gammas, rep.composition, rep.cocomposition):
            each = CompositionSpec(L, fn, gamma)
            assert comp == pytest.approx(eval_composition(each, x).value, rel=1e-12, abs=1e-12)
            assert cocomp == pytest.approx(
                eval_cocomposition(each, x).value, rel=1e-12, abs=1e-12
            )
        del kernel_calls[:]
        small = limit_small_gamma(L, fn, x, gammas)
        large = limit_large_gamma(L, fn, x, gammas, which="composition", target=0.0)
        assert kernel_calls == [6, 6]
        assert list(small.values) == list(rep.cocomposition[::-1])
        assert list(large.values) == list(rep.composition)


def test_sweep_and_limits_on_an_injective_adjoint_iterate_once(kernel_calls):
    # the compositions are exact, so the cocompositions make the only solve
    rng = np.random.default_rng(32)
    exact = 0
    for spec, x in _parameter_specs(rng, 12):
        L, fn = spec.operator, spec.fn
        if not _exact(L):
            continue
        gammas = rng.uniform(0.25, 4.0, size=6)
        del kernel_calls[:]
        rep = gamma_sweep(L, fn, x, gammas)
        large = limit_large_gamma(L, fn, x, gammas, which="composition", target=0.0)
        assert kernel_calls == [6]
        assert list(large.values) == list(rep.composition)
        for gamma, comp in zip(rep.gammas, rep.composition):
            each = eval_composition(CompositionSpec(L, fn, gamma), x)
            assert each.iterations == 0
            assert comp == pytest.approx(each.value, rel=1e-12, abs=1e-12)
        exact += 1
    assert exact >= 4


def test_argmin_gamma_sequence_is_one_solve(kernel_calls):
    op, fn = DenseMap([[0.6], [0.0]]), quadratic_kernel(2).translate([0.0, 0.8])
    gammas = [2.0**-n for n in range(0, 13)]
    rep = argmin_gamma_sequence(op, fn, gammas)
    assert kernel_calls == [len(gammas) + 1]  # the 2**-20 reference is one more row
    del kernel_calls[:]
    infima = [argmin_cocomposition(CompositionSpec(op, fn, g)).value for g in rep.gammas]
    reference = argmin_cocomposition(CompositionSpec(op, fn, 2.0**-20)).value
    assert len(kernel_calls) == len(gammas) + 1
    assert list(rep.infima) == pytest.approx(infima, rel=1e-12, abs=1e-12)
    assert rep.reference == pytest.approx(reference, rel=1e-12, abs=1e-12)


def _envelope_above_reference(spec, rho, x):
    """The per-point ``rho > gamma`` envelope: ``minimize_smooth`` on one row."""
    from proxmix import envelope, envelope_gradient, minimize_smooth

    L, g, gamma = spec.operator, spec.fn, spec.gamma
    lam = rho - gamma
    return minimize_smooth(
        lambda z: float(envelope(g, gamma, L.apply(z))) + float(np.linalg.norm(z - x) ** 2)
        / (2 * lam),
        lambda z: L.adjoint_apply(envelope_gradient(g, gamma, L.apply(z))) + (z - x) / lam,
        x.copy(),
        L.norm_bound**2 / gamma + 1.0 / lam,
    )


def test_envelope_batch_equals_the_per_point_loop(monkeypatch, kernel_calls):
    from proxmix import envelope

    minimized = []
    rows_solver = compositions._minimize_rows

    def captured(*args, **kwargs):
        minimized.append(rows_solver(*args, **kwargs))
        return minimized[-1]

    monkeypatch.setattr(compositions, "_minimize_rows", captured)
    rng = np.random.default_rng(33)
    rows = 0
    for k in range(100):
        spec = _random_spec(rng)
        L, g, gamma = spec.operator, spec.fn, spec.gamma
        X = rng.normal(size=(10, L.cols))
        above, below = gamma * rng.uniform(1.2, 4.0), gamma * rng.uniform(0.2, 0.8)
        del kernel_calls[:]
        values = compositions.envelope_cocomposition_batch(spec, above, X)
        _, _, status, iters, residuals = minimized[-1]
        assert kernel_calls == [10]
        for x, value, s, n, res in zip(X, values, status, iters, residuals):
            rep = _envelope_above_reference(spec, above, x)
            assert (s, n) == (rep.status, rep.iterations)
            assert res == pytest.approx(rep.residual, rel=1e-9, abs=1e-15)
            assert value == pytest.approx(rep.value, rel=1e-12, abs=1e-12)
        del kernel_calls[:]
        values = compositions.envelope_cocomposition_batch(spec, below, X)
        assert kernel_calls == [10]
        shifted = CompositionSpec(L, MoreauEnvelopeFunction(g, below), gamma - below)
        for x, value in zip(X, values):
            rep = eval_cocomposition(shifted, x)
            assert value == pytest.approx(rep.value, rel=1e-12, abs=1e-12)
        del kernel_calls[:]
        values = compositions.envelope_cocomposition_batch(spec, gamma, X)
        assert kernel_calls == []
        exact = [float(envelope(g, gamma, L.apply(x))) for x in X]
        assert list(values) == pytest.approx(exact, rel=1e-12, abs=1e-12)
        rows += len(X)
    assert rows >= 1000


def test_envelope_batch_rows_and_shapes(kernel_calls):
    spec = scalar_half_spec(gamma=1.0)
    X = np.array([[2.0], [np.nan], [-1.0], [np.inf]])
    for rho in (0.4, 1.0, 2.5):
        values = compositions.envelope_cocomposition_batch(spec, rho, X)
        assert np.isnan(values[[1, 3]]).all()
        for i in (0, 2):
            assert values[i] == envelope_cocomposition(spec, rho, X[i])
    # both solves take only the two finite rows; each single call is one row
    assert kernel_calls == [2, 1, 1, 2, 1, 1]
    with pytest.raises(DimensionError):
        compositions.envelope_cocomposition_batch(spec, 2.5, np.ones(3))
    with pytest.raises(ParameterError):
        compositions.envelope_cocomposition_batch(spec, 0.0, np.ones((1, 1)))


@pytest.mark.parametrize("rho", [np.inf, np.nan, -np.inf])
def test_envelope_rejects_a_non_finite_index(rho):
    # rho = inf used to return the infimum of the cocomposition (9.2e-19 here)
    spec = CompositionSpec(SQUARE, L1Norm(2), 1.0)
    with pytest.raises(ParameterError, match="finite and positive"):
        envelope_cocomposition(spec, rho, [1.0, -2.0])
    with pytest.raises(ParameterError, match="finite and positive"):
        compositions.envelope_cocomposition_batch(spec, rho, np.array([[1.0, -2.0]]))


# -- conditioning-free dual steps -------------------------------------------------


def test_isometric_composition_matches_the_direct_iteration():
    rng = np.random.default_rng(51)
    iters_iso = iters_direct = 0
    for _ in range(500):
        rows = int(rng.integers(2, 5))
        spec = _random_spec(rng, rows=rows, cols=int(rng.integers(1, rows)))
        L = spec.operator
        X = rng.normal(size=(3, L.cols))
        gamma = rng.uniform(0.25, 4.0, size=(3, 1))
        padded, XP = _zero_column(spec, X)
        assert L.isometric_factor is not None and padded.operator.isometric_factor is None
        values, z, status, iters, residual = _composition_core(spec, X, DEFAULT_OPTS, gamma)
        ref_values, _, ref_status, ref_iters, _ = _composition_core(padded, XP, DEFAULT_OPTS, gamma)
        assert list(status) == list(ref_status) == [CONVERGED] * 3
        np.testing.assert_allclose(values, ref_values, rtol=1e-10, atol=1e-10)
        assert z.shape == X.shape and (residual <= DEFAULT_OPTS.tol).all()
        iters_iso += iters.sum()
        iters_direct += ref_iters.sum()
    assert iters_iso < iters_direct


def test_tall_compositions_keep_the_lstsq_range_test(monkeypatch):
    # L* is onto on a tall map of full column rank, so the range test is
    # vacuous there; its lstsq workspace keeps 10,201-row batch iterations
    # free of page faults (CHANGES.md), which no benchmark metric shows
    calls, lstsq = [], np.linalg.lstsq

    def counted(a, b, *args, **kwargs):
        calls.append(np.shape(b))
        return lstsq(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    X = np.random.default_rng(55).normal(size=(50, 2))
    values, status, _ = eval_composition_batch(CompositionSpec(TALL, L1Norm(3), 1.0), X)
    assert TALL.isometric_factor is not None
    assert calls == [(2, 50)]
    assert list(status) == [CONVERGED] * 50


def test_isometric_composition_dual_is_a_dual_of_l():
    # the mapped-back dual z of L attains the sup: <z, x> - h(Lz) is the
    # value plus ||x||^2 / (2 gamma)
    spec = CompositionSpec(TALL, L1Norm(3).translate([0.2, -0.1, 0.3]), 0.8)
    rep = eval_composition(spec, [1.0, -2.0])
    z, g, gamma = rep.argpoint, spec.fn, spec.gamma
    w = TALL.apply(z)
    p = w - g.prox(gamma, gamma * w) / gamma
    h = g.conjugate(p) + 0.5 * gamma * np.sum((w - p) ** 2)
    assert rep.status == CONVERGED
    assert z @ [1.0, -2.0] - h - 5.0 / (2.0 * gamma) == pytest.approx(rep.value, abs=1e-12)


def _cold_start(monkeypatch):
    """Start every cocomposition dual at 0, as before the collapse start."""
    monkeypatch.setattr(compositions, "_dual_start", lambda L, g, LX, gamma: np.zeros(LX.shape))


def test_tight_cocomposition_matches_the_unit_step(monkeypatch):
    # a zero row under L makes LL* singular, so the padded spec (same value)
    # steps at 1/gamma; both start cold, so only the step differs
    _cold_start(monkeypatch)
    rng = np.random.default_rng(52)
    iters_tight = iters_unit = 0
    statuses = []
    for k in range(300):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(rows, 4))
        if k % 3 == 0:
            fn = BallIndicator(0.3 * rng.normal(size=rows), rng.uniform(0.5, 2.0))
        else:
            fn = _random_conjugable_fn(rng, rows)
        spec = CompositionSpec(_random_operator(rng, rows, cols), fn, 1.0)
        assert spec.operator.dual_step[0] < 1.0
        X = 2.0 * rng.normal(size=(4, cols))
        gamma = rng.uniform(0.25, 4.0, size=(4, 1))
        values, _, status, iters, _ = _cocomposition_core(spec, X, DEFAULT_OPTS, gamma)
        ref_values, _, ref_status, ref_iters, _ = _cocomposition_core(
            _padded(spec), X, DEFAULT_OPTS, gamma
        )
        assert list(status) == list(ref_status)
        np.testing.assert_allclose(values, ref_values, rtol=1e-7, atol=1e-7)
        iters_tight += iters.sum()
        iters_unit += ref_iters.sum()
        statuses.extend(status)
    assert statuses.count(CONVERGED) == len(statuses)
    assert iters_tight < 0.8 * iters_unit


def test_cocomposition_converges_only_at_a_fixed_point():
    # the residual was measured against the previous iterate: a prox that
    # clamped T(m) back onto y read 0, and the solve stopped at iteration 5
    # with 0.6889031483052791 'converged'.  From y = 0 the fixed point took
    # 14 and 26 iterations
    L = DenseMap([[-0.4128, 0.734, 0.0659], [-0.4215, 0.2303, -0.2766]])
    spec = CompositionSpec(L, L1Norm(2).scale_val(0.7704), 1.9951)
    x, opts = [-1.4543, -0.0339, 0.1569], SolverOpts(tol=1e-13)
    for each, iterations in ((spec, 11), (_padded(spec), 21)):  # tight, unit step
        rep = eval_cocomposition(each, x, opts)
        assert (rep.status, rep.iterations) == (CONVERGED, iterations)
        assert rep.value == pytest.approx(0.6889084266611689, rel=1e-14)


def test_converged_cocomposition_rows_are_fixed_points():
    # the step T is nonexpansive and the returned y is T(m), so
    # ||T(y) - y|| <= ||y - m||: the residual bounds the fixed-point residual
    rng = np.random.default_rng(53)
    opts = SolverOpts(tol=1e-10)
    rows_checked = 0
    for k in range(280):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        fn = _random_conjugable_fn(rng, rows)
        if k % 2:
            fn = L1Norm(rows).scale_val(rng.uniform(0.5, 1.5))
        spec = CompositionSpec(_random_operator(rng, rows, cols), fn, 1.0)
        L = spec.operator
        X = 2.0 * rng.normal(size=(8, cols))
        gamma = rng.uniform(0.25, 4.0, size=(8, 1))
        _, Y, status, _, _ = _cocomposition_core(spec, X, opts, gamma)
        t = 1.0 / (gamma * L.dual_step[0])
        v = Y + t * (L.apply(X) - gamma * L.gram_complement_apply(Y))
        fixed = np.linalg.norm(fn.prox_conjugate(t, v) - Y, axis=-1) / t[:, 0]
        converged = status == CONVERGED
        assert (fixed[converged] <= 1.5 * opts.tol).all()
        rows_checked += converged.sum()
    assert rows_checked >= 2000


def test_fixed_prox_parameter_keeps_the_unit_step(monkeypatch):
    # the oracle's prox exists only at gamma, and L is wide with full row
    # rank (a tight step would call it at gamma lam); the padded catalog
    # spec starts cold too, so both run the same iteration
    _cold_start(monkeypatch)
    L = DenseMap([[0.5, 0.1, 0.0], [-0.2, 0.4, 0.3]])
    fn = L1Norm(2).translate([0.3, -0.2])
    gamma = 1.3
    oracle = OracleFunction(2, fn, prox_fn=fn.prox, prox_gamma=gamma)
    assert L.dual_step[0] < 1.0 and oracle.has_fixed_prox_parameter()
    x = [1.0, -2.0, 0.5]
    got = eval_cocomposition(CompositionSpec(L, oracle, gamma), x)
    want = eval_cocomposition(_padded(CompositionSpec(L, fn, gamma)), x)
    assert got.status == CONVERGED
    assert got.iterations == want.iterations
    assert got.value == pytest.approx(want.value, abs=1e-8)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_coisometry_cocomposition_is_the_composed_function(rows):
    # LL* = I: Phi vanishes and the cocomposition is g(Lx)
    rng = np.random.default_rng(54 + rows)
    L = DenseMap(_isometry(rng, 4, rows).entries.T)
    X = rng.normal(size=(6, 4))
    for fn in (
        L1Norm(rows).translate(rng.normal(size=rows)),
        EuclideanNorm(rows).scale_val(0.7),
        BallIndicator(np.zeros(rows), 1.0),
    ):
        values, status, iters = eval_cocomposition_batch(CompositionSpec(L, fn, 0.9), X)
        expected = np.asarray(fn(L.apply(X)))
        finite = np.isfinite(expected)
        assert list(status) == [CONVERGED if f else DIVERGED for f in finite]
        np.testing.assert_allclose(values[finite], expected[finite], rtol=1e-9, atol=1e-9)
        assert np.isinf(values[~finite]).all()
        assert iters[finite].max() <= 3


# -- values from the prox point -----------------------------------------------


def test_far_cocomposition_of_a_ball_distance_is_finite():
    # the dual sat 3.7e-9 above 1, where the closed-form conjugate of the
    # ball distance reads +inf: the value was -inf 'converged' after 2
    # iterations (1 from the collapse start).  Over the scale, the value
    # tends to the recession of g along Lx from below
    L = DenseMap([[0.15811072044809257, 0.9342151336170628]])
    g = BallDistance([-1.1191133547787244], 0.39558690278370245)
    spec = CompositionSpec(L, g, 0.31109419949601347)
    x = np.array([-1.1718818057741571, 0.9426450600299335])
    y0 = np.array([0.1000904131133067, -1.0935513665250671])
    rep = eval_cocomposition(spec, y0 + 1e6 * x)
    assert (rep.status, rep.iterations) == (CONVERGED, 1)
    assert rep.value == pytest.approx(695345.906, abs=1e-3)
    recession = recession_cocomposition(spec, x)
    assert recession == pytest.approx(0.6953462, abs=1e-7)
    assert 0.0 < recession - rep.value / 1e6 < 1e-6


def test_far_cocompositions_stay_above_the_envelope():
    # env_gamma g(Lx) <= cocomposition at points with ||Lx|| from 1e6 to
    # 1e8.  At that scale the residual can stall near eps ||Lx|| / gamma,
    # above tol, so the iteration is capped; the value is finite anyway
    rng = np.random.default_rng(61)
    opts = SolverOpts(max_iter=2000)
    rows = 0
    for k in range(100):
        dim, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        L = _random_operator(rng, dim, cols)
        if k % 2:
            fn = BallIndicator(0.3 * rng.normal(size=dim), rng.uniform(0.5, 2.0))
        else:
            fn = _random_fullspace_fn(rng, dim)
        spec = CompositionSpec(L, fn, rng.uniform(0.25, 4.0))
        D = rng.normal(size=(20, cols))
        scale = 10.0 ** rng.uniform(6.0, 8.0, size=(20, 1))
        X = D * (scale / np.linalg.norm(L.apply(D), axis=-1)[:, None])
        values, _, _ = eval_cocomposition_batch(spec, X, opts)
        env = envelope(fn, spec.gamma, L.apply(X))
        assert np.isfinite(values).all()
        assert (values >= env - 1e-9 * (1.0 + np.abs(env))).all()
        rows += len(X)
    assert rows >= 2000


def test_values_match_the_closed_form_conjugate():
    # the value before values came from the prox point: at the returned
    # duals, <Lx, y> - g*(y) - gamma Phi(y) for the cocomposition and
    # <z, x> - env_{1/gamma}(g*)(Lz) - ||x||^2/(2 gamma) for the composition
    rng = np.random.default_rng(71)
    checked = {_cocomposition_core: 0, _composition_core: 0}
    for k in range(500):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if k % 10 == 0 and rows >= cols:
            L = _isometry(rng, rows, cols)
        else:
            L = _random_operator(rng, rows, cols)
        fn = _random_conjugable_fn(rng, rows)
        spec = CompositionSpec(L, fn, 1.0)
        X = np.vstack([
            rng.normal(size=(2, rows)) @ L.entries,  # in the range of L*
            2.0 * rng.normal(size=(2, cols)),
        ])
        gamma = rng.uniform(0.25, 4.0, size=(4, 1))
        g = gamma[:, 0]
        for core in checked:
            values, duals, status, _, _ = core(spec, X, DEFAULT_OPTS, gamma)
            if duals is None:
                continue  # exact: no dual
            if core is _cocomposition_core:
                old = np.sum(L.apply(X) * duals, -1) - fn.conjugate(duals) - g * spec.defect(duals)
            else:
                w = L.apply(duals)
                p = w - fn.prox(gamma, gamma * w) / gamma
                h = fn.conjugate(p) + 0.5 * g * np.sum((w - p) ** 2, -1)
                old = np.sum(duals * X, -1) - h - np.sum(X * X, -1) / (2 * g)
            finite = np.isfinite(old) & (status != DIVERGED)
            np.testing.assert_allclose(values[finite], old[finite], rtol=1e-12, atol=1e-12)
            checked[core] += finite.sum()
    assert min(checked.values()) >= 500


def test_values_without_a_conjugate_take_one_solve(kernel_calls):
    # no closed-form conjugate, and no numeric one in its place: one solve
    # is one kernel call
    for L, solve in ((TALL, eval_composition), (SQUARE, eval_cocomposition)):
        fn = L1Norm(L.rows).translate(np.full(L.rows, 0.3))
        spec = CompositionSpec(L, OracleFunction(L.rows, fn, prox_fn=fn.prox), 0.8)
        del kernel_calls[:]
        rep = solve(spec, [1.0, -2.0])
        assert rep.status == CONVERGED and rep.iterations > 0
        assert kernel_calls == [1]


# -- the collapse start ---------------------------------------------------------


def _starts(monkeypatch):
    """The start rows of every cocomposition or composition ``_fista`` call."""
    starts, kernel = [], compositions._fista

    def recorded(step, z, *args, **kwargs):
        starts.append(z.copy())
        return kernel(step, z, *args, **kwargs)

    monkeypatch.setattr(compositions, "_fista", recorded)
    return starts


def test_cocomposition_starts_at_the_collapse_gradient(monkeypatch):
    # I - LL* = 0.64 I: the cocomposition is env_{0.64 gamma} g(Lx), and
    # the gradient of that envelope, the start, is the dual maximizer
    starts = _starts(monkeypatch)
    c, s = np.cos(0.7), np.sin(0.7)
    L = DenseMap(0.6 * np.array([[c, -s], [s, c]]))
    fn = L1Norm(2).translate([0.3, -0.2])
    rep = eval_cocomposition(CompositionSpec(L, fn, 1.5), [1.0, -2.0])
    mu, lx = 1.5 * 0.64, L.apply([1.0, -2.0])
    np.testing.assert_allclose(starts[0][0], (lx - fn.prox(mu, lx)) / mu, rtol=1e-12)
    assert (rep.status, rep.iterations) == (CONVERGED, 1)
    assert rep.value == pytest.approx(envelope(fn, mu, lx), rel=1e-12)


def test_fixed_prox_parameter_and_radius_fallback_start_cold(monkeypatch):
    # an oracle prox that exists only at gamma cannot be called at gamma mu;
    # with ||L|| = 1, restricted dom g and no catalog conjugate, a start of
    # norm about ||Lx|| / (0.01 gamma) would near the divergence radius
    # without a certificate.  The catalog ball takes the start
    starts = _starts(monkeypatch)
    L, x = DenseMap([[1.0, 0.0], [0.0, 0.5]]), [0.5, 4.0]
    fn = L1Norm(2).translate([0.3, -0.2])
    ball = BallIndicator([0.0, 0.0], 1.0)
    specs = [
        CompositionSpec(L, OracleFunction(2, fn, prox_fn=fn.prox, prox_gamma=1.3), 1.3),
        CompositionSpec(L, OracleFunction(2, ball, prox_fn=ball.prox, full_domain=False), 1.0),
        CompositionSpec(L, ball, 1.0),
    ]
    reports = [eval_cocomposition(spec, x) for spec in specs]
    assert [r.status for r in reports] == [CONVERGED] * 3
    assert [np.count_nonzero(z) for z in starts] == [0, 0, 2]
    assert reports[1].value == pytest.approx(reports[2].value, abs=1e-8)


def test_collapse_start_keeps_the_cold_values(monkeypatch):
    # the figure presets over the figure grid and random specs at per-row
    # parameters: the same statuses, values within 1e-12 relative, and fewer
    # iterations in all
    ax = np.linspace(-4.0, 4.0, 101)
    grid = np.stack([m.reshape(-1) for m in np.meshgrid(ax, ax, indexing="ij")], axis=-1)
    rng = np.random.default_rng(62)
    cases = [
        (CompositionSpec(*figure_preset(name), gamma), grid, None)
        for name in ("example1", "example2")
        for gamma in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    for _ in range(200):
        spec = _random_spec(rng)
        X = 2.0 * rng.normal(size=(6, spec.operator.cols))
        cases.append((spec, X, rng.uniform(0.25, 4.0, size=(6, 1))))
    warm = [eval_cocomposition_batch(spec, X, gamma=gamma) for spec, X, gamma in cases]
    _cold_start(monkeypatch)
    cold = [eval_cocomposition_batch(spec, X, gamma=gamma) for spec, X, gamma in cases]
    iters = np.zeros(2, dtype=int)
    for (values, status, w_iters), (ref, ref_status, c_iters) in zip(warm, cold):
        assert list(status) == list(ref_status)
        finite = np.isfinite(ref)
        assert np.array_equal(finite, np.isfinite(values))
        scale = np.maximum(np.abs(ref[finite]), 1.0)
        assert (np.abs(values[finite] - ref[finite]) <= 1e-12 * scale).all()
        iters += w_iters.sum(), c_iters.sum()
    assert iters[0] < 0.95 * iters[1]
