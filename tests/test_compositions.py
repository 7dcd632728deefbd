import cProfile
import os
import platform
import pstats
import subprocess
import sys

import numpy as np
import pytest

from proxmix import (
    CompositionSpec,
    DenseMap,
    BallDistance,
    EuclideanNorm,
    L1Norm,
    MixtureSpec,
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
    grid_prox,
    limit_large_gamma,
    limit_small_gamma,
    perspective_cocomposition,
    prox_cocomposition,
    prox_composition,
    pushforward_infimum,
    quadratic_kernel,
    recession_cocomposition,
    subgradient_witness_cocomposition,
)
from proxmix.cli import figure_preset
from proxmix import compositions, linalg, moreau, oracles
from proxmix.compositions import (
    _cocomposition_core,
    _composition_core,
    _injective_adjoint,
    eval_composition_batch,
)
from proxmix.errors import AdmissibilityError, DimensionError, ParameterError
from proxmix.functions import (
    Affine,
    BallIndicator,
    BallSupport,
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
    _CONVERGED_CODE,
    _DIVERGED_CODE,
    _STATUS_BY_CODE,
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
    # the point is orthogonal to it.  In the range factor's coordinates the
    # ascent's component along Q* e1 moves from its start to its limit
    # <Q* e1, x R> / (gamma ||Q* e1||^2), which is not 0, so a displacement
    # from the start has a finite slope sigma(Qd) only once that move is
    # done.  The first check compares with the iterate 25 iterations back,
    # taken after the move: it certifies
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


@pytest.mark.parametrize("solve, L, x", [
    (eval_composition, [[1.0], [0.0]], [2.0]),  # L* not injective: the iterated path
    (eval_cocomposition, [[1.0, 0.0], [0.0, 0.5]], [2.0, 0.0]),  # ||L|| = 1: dual ascent
], ids=["composition", "cocomposition"])
def test_radius_fallback_bounds_the_returned_dual(solve, L, x):
    # both ascents iterate a dual scaled by their prox parameter (gamma, and
    # gamma lam); the radius still bounds the returned dual, so at gamma = 4
    # a row stops at the first multiple of 50 where that dual's norm passes
    # it.  The oracle ball has no conjugate, so no certificate; Lx lies
    # outside the ball along a direction where the defect is flat
    ball = BallIndicator([0.0, 0.0], 1.0)
    oracle = OracleFunction(2, ball, prox_fn=ball.prox, full_domain=False)
    spec, opts = CompositionSpec(DenseMap(L), oracle, 4.0), SolverOpts(divergence_radius=3e3)
    rep = solve(spec, x, opts)
    assert rep.status == DIVERGED and rep.iterations % 50 == 0 and rep.iterations >= 100
    assert np.linalg.norm(rep.argpoint) > opts.divergence_radius
    before = solve(spec, x, SolverOpts(max_iter=rep.iterations - 50, divergence_radius=3e3))
    assert before.status == MAX_ITER
    assert np.linalg.norm(before.argpoint) <= opts.divergence_radius


def test_iterated_composition_takes_no_svd_of_the_range_factor():
    # the unit step needs no norm of Q, which has orthonormal columns: its
    # norm bound took a second SVD per map
    L = DenseMap([[0.5, 0.1, 0.0], [-0.2, 0.4, 0.0], [0.3, 0.0, 0.0]])
    rep = eval_composition(CompositionSpec(L, L1Norm(3), 1.0), [1.0, -2.0, 0.0])
    assert not _injective_adjoint(L) and rep.status == CONVERGED and rep.iterations > 0
    assert "thin_svd" not in L.isometric_factor[0].__dict__


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


def test_limit_large_gamma_identity_gram_targets_the_plain_composition():
    # LL* = I leaves no gram-complement range to search: the target is g(Lx)
    fn = EuclideanNorm(2).translate([0.3, -0.2])
    rep = limit_large_gamma(DenseMap.identity(2), fn, [0.5, 1.0], [1, 4, 64])
    assert rep.target == fn([0.5, 1.0]) == 1.2165525060596438
    assert rep.final_gap == 0.0


@pytest.mark.parametrize(
    "fn, target, final_gap",
    [
        (Affine([1.0], 0.0), -np.inf, np.inf),
        (BallSupport([1.5], 1.0), -np.inf, np.inf),  # support slope 1 < |c| = 1.5
        (L1Norm(2).translate([0.3, -0.2]).add_quad(0.5), 0.03250000000000001,
         0.0005380544354838673),
        (BallDistance([0.4, -1.0], 0.5).add_quad(0.2), 0.03329670385731001,
         0.002712789749314208),
    ],
)
def test_limit_large_gamma_target_of_a_g_unbounded_below(fn, target, final_gap):
    # ||L|| < 1: the target is inf g, -inf once the recession function
    # certifies the last proximal-point step; coercive controls keep the
    # target they had before that test existed, bit for bit
    L = DenseMap([[0.5]]) if fn.dim == 1 else DenseMap([[0.5, 0.0], [0.1, 0.4]])
    x = [1.0] if fn.dim == 1 else [1.0, -0.5]
    rep = limit_large_gamma(L, fn, x, [1, 4, 64])
    assert (rep.target, rep.final_gap) == (target, final_gap)


COLUMN, PROJECTION = DenseMap([[0.6], [0.0]]), DenseMap([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize(
    "L, x, which, fn, target",
    [
        (COLUMN, [0.3], "composition", Affine([0.0, 1.0], 0.0), -np.inf),
        (PROJECTION, [0.3, 0.0], "cocomposition", Affine([0.0, 1.0], 0.0), -np.inf),
        (COLUMN, [0.3], "composition", Affine([1.0, 0.0], 0.0), 0.5),
        (PROJECTION, [0.3, 0.0], "cocomposition", Affine([1.0, 0.0], 0.0), 0.3),
    ],
    ids=["fiber", "gram-complement", "fiber-bounded", "gram-complement-bounded"],
)
def test_limit_large_gamma_grid_targets_of_a_g_unbounded_below(L, x, which, fn, target):
    # the free direction of both searches is e2, where g_inf(-e2) = -1: the
    # grids reported their window's edge, -10.05, as the infimum.  The
    # bounded controls have g_inf(+-e2) = 0 and keep their grid targets
    rep = limit_large_gamma(L, fn, x, [1, 4, 64, 1024], which=which)
    assert rep.target == target
    assert rep.final_gap == (np.inf if target == -np.inf else rep.values[-1] - target)


@pytest.mark.parametrize("which", ["compositon", "Composition", None])
def test_limit_large_gamma_rejects_unknown_which(which):
    with pytest.raises(ParameterError, match="which must be"):
        limit_large_gamma(DenseMap.identity(1), L1Norm(1), [1.0], [1.0, 2.0], which=which)


def test_limit_large_gamma_rejects_an_empty_parameter_list():
    with pytest.raises(ParameterError, match="at least one parameter"):
        limit_large_gamma(DenseMap.identity(1), L1Norm(1), [1.0], [], target=0.0)


def test_gamma_sweep_rejects_an_empty_parameter_list():
    # it used to report both columns monotone over no values
    with pytest.raises(ParameterError, match="at least one parameter"):
        gamma_sweep(DenseMap.identity(1), L1Norm(1), [1.0], [])


def test_limit_small_gamma_rejects_an_empty_parameter_list():
    # it used to report every (absent) gap within its bound
    with pytest.raises(ParameterError, match="at least one parameter"):
        limit_small_gamma(DenseMap.identity(1), L1Norm(1), [1.0], [])


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


def test_argmin_gamma_sequence_rejects_an_inadmissible_operator():
    with pytest.raises(AdmissibilityError):
        argmin_gamma_sequence(DenseMap([[2.0]]), L1Norm(1), [1.0])


@pytest.mark.parametrize(
    "spec, expected",
    [
        (CompositionSpec(TALL, L1Norm(3).translate([1.0, -1.0, 0.5]), 1.0), CONVERGED),
        (CompositionSpec(DenseMap([[0.5]]), L1Norm(1).add_affine([2.0]), 1.0), DIVERGED),
    ],
    ids=["converged", "diverged"],
)
def test_argmin_is_its_row_of_the_gamma_sequence_solve(monkeypatch, spec, expected):
    # one collapse minimizer: argmin_cocomposition is, bit for bit, the row
    # at its parameter of the many-row solve argmin_gamma_sequence runs
    opts = SolverOpts(divergence_radius=1e4)
    solves, argmin_rows = [], compositions._argmin_rows
    monkeypatch.setattr(
        compositions, "_argmin_rows", lambda *a: solves.append(argmin_rows(*a)) or solves[-1]
    )
    seq = argmin_gamma_sequence(spec.operator, spec.fn, [4.0, spec.gamma, 0.25], opts)
    rep = argmin_cocomposition(spec, opts)
    values, x, codes, iters, residuals = solves[0]
    row = (values[1], x[1].tolist(), iters[1], _STATUS_BY_CODE[codes[1]], residuals[1])
    assert (rep.value, rep.argpoint.tolist(), rep.iterations, rep.status, rep.residual) == row
    assert rep.status == expected and rep.iterations > 0 and seq.infima[1] == rep.value


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan], ids=repr)
def test_parameter_lists_share_one_error(bad):
    from proxmix import MixtureTerm, pcm_estimate

    L, fn, gammas = DenseMap([[0.5]]), L1Norm(1), [0.5, bad, 2.0]
    mixture = MixtureSpec([MixtureTerm(1.0, L, fn)], 1.0)
    for solve in (
        lambda: gamma_sweep(L, fn, [1.0], gammas),
        lambda: limit_small_gamma(L, fn, [1.0], gammas),
        lambda: limit_large_gamma(L, fn, [1.0], gammas, target=0.0),
        lambda: argmin_gamma_sequence(L, fn, gammas),
        lambda: pcm_estimate(mixture, [1.0], gammas),
    ):
        with pytest.raises(ParameterError, match="all parameters must be finite and positive"):
            solve()


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

    The cores iterate in coordinates scaled by their prox parameter, where
    the step is 1; this step unscales the momentum rows, takes the dual
    gradient step there and scales the result back.  The cocomposition
    steps at ``t = 1/(gamma lam)`` with ``lam`` from ``L.dual_step`` on
    ``y = t u``; the composition at ``1/gamma`` on ``w = w'/gamma`` in the
    coordinates of the range factor ``L.isometric_factor``.  Both take the
    momentum rows and their row numbers in ``X``.
    """
    L, g, gamma = spec.operator, spec.fn, spec.gamma
    LX, t = L.apply(X), 1.0 / (gamma * L.dual_step[0])
    Q, R = L.isometric_factor
    XQ = X @ R

    def cocomposition(momentum, rows):
        y = t * momentum
        grad = LX[rows] - gamma * (y - L.apply(L.adjoint_apply(y)))
        v = y + t * grad
        y_new = v - t * g.prox(1.0 / t, v / t)
        return y_new / t, np.linalg.norm(y_new - y, axis=-1) / t

    def composition(momentum, rows):
        w = Q.apply(momentum / gamma)
        p = w - (1.0 / gamma) * g.prox(gamma, gamma * w)
        grad = XQ[rows] - gamma * Q.adjoint_apply(w - p)
        return gamma * (momentum / gamma + grad / gamma), np.linalg.norm(grad, axis=-1)

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
    its column count, so its adjoint is not injective.
    """
    L = DenseMap(np.pad(spec.operator.entries, ((0, 0), (0, 1))))
    return CompositionSpec(L, spec.fn, spec.gamma), np.pad(X, ((0, 0), (0, 1)))


def _direct(spec, X):
    """``_padded`` and ``_zero_column`` together.

    The padded map has neither full row nor full column rank, so the
    composition iterates on a range factor of fewer columns than either
    and the cocomposition steps at ``1/gamma``; both values stay those of
    ``(spec, X)``.
    """
    spec, X = _zero_column(_padded(spec), X)
    L = spec.operator
    assert L.isometric_factor[0].cols < min(L.rows, L.cols) and L.dual_step[0] == 1.0
    return spec, X


def _one_term_direct(spec, X, gamma):
    """``oracles._mixture_direct`` on the one-term mixture ``(1, L, g)``, row by row.

    It ascends on ``L`` itself, not on its range factor, so it is a
    reference independent of the composition's iteration.  ``gamma`` is a
    float or a per-row column.  Returns (values, status, iterations).
    """
    gammas = np.broadcast_to(gamma, (len(X), 1))[:, 0]
    reports = [
        oracles._mixture_direct(MixtureSpec([(1.0, spec.operator, spec.fn)], c), x, DEFAULT_OPTS)
        for x, c in zip(X, gammas)
    ]
    return (
        np.array([r.value for r in reports]),
        [r.status for r in reports],
        np.array([r.iterations for r in reports]),
    )


def _with_norm(L, norm):
    """``L`` rescaled to spectral norm ``norm``."""
    return DenseMap(L.entries * (norm / L.norm_estimate))


def _unit_norm(spec):
    """``spec`` with ``L`` scaled to norm 1, where the cocomposition keeps dual ascent.

    Below norm 1 it runs the metric path; scaling keeps the singular
    vectors and the ratios of the singular values, so the tight step
    still differs from the unit step.
    """
    return CompositionSpec(_with_norm(spec.operator, 1.0), spec.fn, spec.gamma)


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

    def run(step, z, opts, active=None, escaped=None, per_row=(), **rule):
        test = None if escaped is None else (lambda z, anchor, *c: escaped(z, anchor, *c[:-1]))
        return kernel(wrap(step), z, opts, active, test, (*per_row, np.arange(len(z))), **rule)

    return run


def _compare_folded_steps(monkeypatch, core, spec, X, scaled=False):
    """Run ``core`` with its own step checked against ``_unfolded_step`` at every iteration.

    ``scaled`` widens the residuals' absolute tolerance in proportion to
    the momentum's largest entry: a tight step divides ``I - LL*`` by
    ``lam`` (down to 1e-2), and the residual is a difference of iterates,
    so their rounding shows in it; the composition's gradient is a
    difference of ``x R`` and a lifted prox point, whose entries grow
    with ``1/s_min``.  The composition's values are also checked against
    the one-term mixture oracle.
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
    if core is _composition_core:
        # the unfolded step shares the range factor; the oracle ascends on L
        finite = status == _CONVERGED_CODE
        direct, direct_status, _ = _one_term_direct(spec, X[finite], spec.gamma)
        assert direct_status == [CONVERGED] * len(direct)
        np.testing.assert_allclose(values[finite], direct, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("core", [_cocomposition_core, _composition_core])
def test_folded_steps_match_the_unfolded_steps(monkeypatch, core):
    # padded so that the cocomposition steps at 1/gamma and the composition
    # ascends on a range factor of lower rank; the cocomposition at norm 1,
    # where it takes dual ascent
    for spec, X in _folded_step_specs():
        if core is _cocomposition_core:
            spec = _unit_norm(spec)
        _compare_folded_steps(
            monkeypatch, core, *_direct(spec, X), scaled=core is _composition_core
        )


@pytest.mark.parametrize("core", [_cocomposition_core, _composition_core])
def test_tight_and_isometric_steps_match_the_unfolded_steps(monkeypatch, core):
    changed = 0
    for spec, X in _folded_step_specs():
        L = spec.operator
        if core is _cocomposition_core:
            spec = _unit_norm(spec)  # dual ascent, where the tight step runs
            changed += spec.operator.dual_step[0] < 1.0
        elif _injective_adjoint(L):
            continue  # exact: no step to compare
        else:
            changed += 1  # on the range factor of L
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
    # TALL with a zero column has a rank-2 range factor for the composition
    # and the 1/gamma step for the cocomposition's dual ascent at norm 1;
    # below norm 1 the metric path calls the hook too
    public = _public_prox_calls(monkeypatch)
    spec, X = _zero_column(CompositionSpec(TALL, L1Norm(3), 1.0), np.array([[1.0, -2.0]]))
    reports = [
        eval_cocomposition(_unit_norm(spec), [2.0, 1.0, 0.0]),  # 1 iteration at X[0]
        eval_composition(spec, X[0]),
        eval_cocomposition(spec, X[0]),
    ]
    assert reports[0].iterations > 10 and min(r.iterations for r in reports[1:]) > 1
    assert public == []  # nor does any value


def test_isometric_steps_skip_the_public_prox(monkeypatch):
    public = _public_prox_calls(monkeypatch)
    spec = CompositionSpec(TALL, L1Norm(3), 1.0)
    reports = [solve(spec, [1.0, -2.0]) for solve in (eval_cocomposition, eval_composition)]
    # the composition: 6 on the range factor; the cocomposition: 2 on the
    # metric path (3 with Barzilai-Borwein steps), 12 by dual ascent
    assert [r.iterations for r in reports] == [2, 6]
    assert public == []


@pytest.mark.parametrize("gamma", [0.7, np.array([[0.7], [1.3], [2.0]])])
def test_composition_lift_reads_the_c_ordered_adjoint(gamma):
    # the first step lifts the start rows gamma X R (the scaled dual) through
    # Q.adjoint_entries, the C-ordered transpose of the range factor (a
    # product with the transposed view costs up to 4x more); a marked copy
    # shows which matrix the core reads.  The zero column makes the factor
    # rank 2 of 3
    L, g = DenseMap([[0.5, 0.1, 0.0], [-0.2, 0.4, 0.0], [0.3, 0.0, 0.0]]), L1Norm(3)
    X = np.array([[1.0, -2.0, 0.0], [0.3, 0.5, 0.0], [-1.0, 0.2, 0.0]])
    Q, R = L.isometric_factor
    assert Q.entries.shape == (3, 2)
    marked = np.ascontiguousarray(2.0 * Q.entries.T)
    Q.adjoint_entries = marked
    lifted = []
    g._prox = lambda gamma, y: lifted.append(y) or L1Norm._prox(g, gamma, y)
    _composition_core(CompositionSpec(L, g, 1.0), X, SolverOpts(max_iter=1), gamma)
    assert marked.flags.c_contiguous
    assert np.array_equal(lifted[0], (gamma * (X @ R)) @ marked)


@pytest.mark.parametrize("gamma", [0.7, np.array([[0.7], [1.3], [2.0]])])
def test_isometric_lift_reads_the_c_ordered_factor(gamma):
    # a tall map of full column rank: the start rows are gamma X R, lifted
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
    assert np.array_equal(lifted[0], (gamma * (X @ R)) @ marked)


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
    # column gives the composition a range factor of lower rank than L's
    # column count
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
        assert _injective_adjoint(L)
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
        assert status.dtype == ref_status.dtype == np.int8
        assert list(status) == list(ref_status)
        np.testing.assert_allclose(values, ref_values, rtol=1e-10, atol=1e-10)
        assert list(residual) == [0.0 if s == _CONVERGED_CODE else np.inf for s in status]
        assert ref_iters.sum() > 0
        statuses.extend(status)
    assert statuses.count(_CONVERGED_CODE) > 500 and statuses.count(_DIVERGED_CODE) > 500


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
    assert not _injective_adjoint(L)
    values, status, iters = eval_composition_batch(spec, X)
    assert kernel_calls == [3] and iters.min() > 0
    assert list(status) == [CONVERGED] * 3


def _check_exact_fiber_values(spec, ys, ratio, kernel_calls):
    """In-range rows ``ys L`` exact within ``100 eps cond(L)``; rows off it 'diverged'.

    Both at 0 iterations, with no kernel call; the off-range rows are the
    in-range ones moved by 1e-6 of their norm along the null space of ``L``.
    Returns the in-range values and the fiber values.
    """
    L = spec.operator
    X = ys @ L.entries
    null = np.linalg.svd(L.entries)[2][-1]
    off = X + 1e-6 * np.linalg.norm(X, axis=1, keepdims=True) * null
    del kernel_calls[:]
    values, status, iters = eval_composition_batch(spec, np.vstack([X, off]))
    n = len(ys)
    assert _injective_adjoint(L) and kernel_calls == [] and list(iters) == [0] * 2 * n
    assert list(status) == [CONVERGED] * n + [DIVERGED] * n
    expected = np.asarray(spec.fn(ys)) + spec.defect(ys) / spec.gamma
    bound = 100 * np.finfo(float).eps / ratio * (1.0 + np.abs(expected))
    assert (np.abs(values[:n] - expected) <= bound).all()
    return values[:n], expected


@pytest.mark.parametrize("ratio", [2e-6, 5e-7, 1e-9, 1e-12])
def test_near_cutoff_maps(kernel_calls, ratio):
    # singular values 0.8 and 0.8 ratio: L* is injective at the numerical
    # rank whatever the ratio, so the fiber is one point, reached without
    # iterating, and the range test rounds at eps ||x|| at any ratio
    rng = np.random.default_rng(44)
    L = _wide_map(rng, ratio)
    values, expected = _check_exact_fiber_values(
        CompositionSpec(L, L1Norm(2), 1.0), rng.normal(size=(3, 2)), ratio, kernel_calls
    )
    if ratio >= 5e-7:  # eps cond(L) <= 4.5e-10: a fixed relative tolerance holds
        np.testing.assert_allclose(values, expected, rtol=1e-8)


def _wide_map(rng, ratio):
    """A random 2x3 map with singular values 0.8 and 0.8 ratio."""
    u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    return DenseMap((u * (0.8 * np.array([1.0, ratio]))) @ v.T)


@pytest.mark.parametrize("ratio", [5e-7, 1e-9, 1e-12])
def test_ill_conditioned_maps_converge_to_the_fiber_value(kernel_calls, ratio):
    # the fiber is the one point y of x = L* y at any conditioning; its
    # value rounds to about eps cond(L), with random full-domain g and gamma
    rng = np.random.default_rng(45)
    for _ in range(20):
        L = _wide_map(rng, ratio)
        spec = CompositionSpec(L, _random_fullspace_fn(rng, 2), rng.uniform(0.25, 4.0))
        _check_exact_fiber_values(spec, rng.normal(size=(3, 2)), ratio, kernel_calls)


def test_restricted_domain_on_a_rank_deficient_map():
    # the rank-1 factor of a wide map: rows off the range of L* are
    # certified at 0 iterations, rows in it agree with the one-term
    # mixture oracle, which ascends on L itself
    L = DenseMap([[0.3, 0.1, 0.2], [0.6, 0.2, 0.4]])
    spec = CompositionSpec(L, BallIndicator([0.2, -0.1], 1.5), 0.8)
    ys = np.random.default_rng(46).normal(size=(4, 2)) / 2.0
    on_range = ys @ L.entries
    X = np.vstack([on_range, on_range + [0.1, -0.3, 0.0]])
    values, status, iters = eval_composition_batch(spec, X)
    assert list(status[4:]) == [DIVERGED] * 4 and list(iters[4:]) == [0] * 4
    direct, direct_status, _ = _one_term_direct(spec, on_range, spec.gamma)
    assert list(status[:4]) == direct_status == [CONVERGED] * 4
    np.testing.assert_allclose(values[:4], direct, rtol=0, atol=1e-8)


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
        if _injective_adjoint(spec.operator):
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
        if not _injective_adjoint(L):
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
    """The per-point ``rho > gamma`` envelope: a one-row ``_minimize_rows``."""
    from proxmix import envelope, envelope_gradient

    L, g, gamma = spec.operator, spec.fn, spec.gamma
    lam = rho - gamma
    return moreau._row_report(*moreau._minimize_rows(
        lambda z: envelope(g, gamma, L.apply(z)) + np.linalg.norm(z - x, axis=-1) ** 2
        / (2 * lam),
        lambda z: L.adjoint_apply(envelope_gradient(g, gamma, L.apply(z))) + (z - x) / lam,
        x[None, :],
        L.norm_bound**2 / gamma + 1.0 / lam,
        DEFAULT_OPTS,
    ))


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
        # a residual is ||grad(m)|| at a row's last momentum point m, and the
        # gradient is lip-Lipschitz.  Products that sum in another order move
        # an iterate by a few eps times its scale, at most 1 + ||x|| + ||z||
        # (z the argpoint), and over n iterations such moves add up at most
        # linearly; so the two residuals differ by about
        # n eps lip (1 + ||x|| + ||z||) at most, and the check allows 8 times that
        lip = L.norm_bound**2 / gamma + 1.0 / (above - gamma)
        for x, value, s, n, res in zip(X, values, status, iters, residuals):
            rep = _envelope_above_reference(spec, above, x)
            assert (_STATUS_BY_CODE[s], n) == (rep.status, rep.iterations)
            scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(rep.argpoint)
            assert abs(res - rep.residual) <= 8 * n * np.finfo(float).eps * lip * scale
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
    # the direct iteration is the one-term mixture oracle, on L itself
    rng = np.random.default_rng(51)
    iters_iso = iters_direct = 0
    for _ in range(500):
        rows = int(rng.integers(2, 5))
        spec = _random_spec(rng, rows=rows, cols=int(rng.integers(1, rows)))
        L = spec.operator
        X = rng.normal(size=(3, L.cols))
        gamma = rng.uniform(0.25, 4.0, size=(3, 1))
        values, z, status, iters, residual = _composition_core(spec, X, DEFAULT_OPTS, gamma)
        ref_values, ref_status, ref_iters = _one_term_direct(spec, X, gamma)
        assert list(status) == [_CONVERGED_CODE] * 3 and ref_status == [CONVERGED] * 3
        np.testing.assert_allclose(values, ref_values, rtol=1e-10, atol=1e-10)
        assert z.shape == X.shape and (residual <= DEFAULT_OPTS.tol).all()
        iters_iso += iters.sum()
        iters_direct += ref_iters.sum()
    assert iters_iso < iters_direct


def _map_of_rank(rng, rows, cols, rank):
    """A random ``rows x cols`` map of norm at most one and exact rank ``rank``."""
    u, _ = np.linalg.qr(rng.normal(size=(rows, rank)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, rank)))
    return DenseMap((u * rng.uniform(0.1, 1.0, size=rank)) @ v.T)


def test_range_test_classifies_rows_as_an_lstsq_residual():
    # the reference solves L* y = x by lstsq and counts x off the range of
    # L* when its residual passes the same tolerance; rows in the range and
    # rows moved off it by 1e-6 relative, at ||x|| from 1 to 1e8, on exact
    # and iterated paths alike: 'diverged' at 0 iterations is the verdict
    rng = np.random.default_rng(55)
    kinds = set()
    for _ in range(200):
        rows, cols = (int(n) for n in rng.integers(1, 5, size=2))
        rank = int(rng.integers(1, min(rows, cols) + 1))
        L = _map_of_rank(rng, rows, cols, rank)
        kinds.add((np.sign(rows - cols), rank < min(rows, cols)))
        X = rng.normal(size=(4, rows)) @ L.entries
        X *= 10.0 ** rng.uniform(0, 8, size=(4, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
        null = np.linalg.svd(L.entries)[2][rank:]  # ker L, orthogonal to the range of L*
        if len(null):
            step = null.T @ rng.normal(size=(len(null), 2))
            step /= np.linalg.norm(step, axis=0)
            X[2:] += 1e-6 * np.linalg.norm(X[2:], axis=1, keepdims=True) * step.T
        y, *_ = np.linalg.lstsq(L.entries.T, X.T, rcond=None)
        residual = np.linalg.norm(L.entries.T @ y - X.T, axis=0)
        reference = residual > linalg._RANGE_TOL * (1.0 + np.linalg.norm(X, axis=1))
        assert list(reference) == [False, False] + [bool(len(null))] * 2
        _, status, iters = eval_composition_batch(
            CompositionSpec(L, L1Norm(rows), 1.0), X, SolverOpts(max_iter=1)
        )
        assert [s == DIVERGED for s in status] == list(reference)
        assert list(iters[reference]) == [0] * reference.sum()
    assert len(kinds) == 6  # wide, tall and square maps, of full rank and deficient


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_figure_batches_reuse_the_heap():
    # a 10,201-row iteration frees 2-6 MB; unless glibc's trim threshold is
    # above that, each iteration returns the heap top and faults it back in
    # (about 1,000 minor faults per batch here without the import's warm-up)
    script = "\n".join([
        "import resource, numpy as np",
        "from proxmix.cli import figure_preset",
        "from proxmix.compositions import CompositionSpec, eval_cocomposition_batch",
        "spec = CompositionSpec(*figure_preset('example2'), 2.0)",
        "t = np.linspace(-4.0, 4.0, 101)",
        "X = np.stack([m.ravel() for m in np.meshgrid(t, t, indexing='ij')], axis=-1)",
        "for _ in range(2):",
        "    eval_cocomposition_batch(spec, X)",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "eval_cocomposition_batch(spec, X)",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
    ])
    src = os.path.dirname(os.path.dirname(compositions.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 100


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
    # steps at 1/gamma; both start cold, so only the step differs.  At norm
    # 1, where the cocomposition takes dual ascent; there the value of a
    # restricted dom g is +inf unless Lx stays near it along ker(I - LL*),
    # so those points have Lx in dom g, at a prox point
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
        spec = _unit_norm(CompositionSpec(_random_operator(rng, rows, cols), fn, 1.0))
        L = spec.operator
        assert L.dual_step[0] < 1.0
        X = 2.0 * rng.normal(size=(4, cols))
        if not fn.has_full_domain():
            X = fn.prox(1.0, L.apply(X)) @ np.linalg.pinv(L.entries).T
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
    assert statuses.count(_CONVERGED_CODE) == len(statuses)
    assert iters_tight < 0.8 * iters_unit


def test_cocomposition_converges_only_at_a_fixed_point():
    # the residual was measured against the previous iterate: a prox that
    # clamped T(m) back onto y read 0, and the solve stopped at iteration 5
    # with 0.6889031483052791 'converged'.  From y = 0 the fixed point took
    # 14 and 26 iterations, from the collapse start 11 (tight step) and 21
    # (unit step); the metric path takes 3 on both maps, which share their
    # singular values (20 with Barzilai-Borwein steps)
    L = DenseMap([[-0.4128, 0.734, 0.0659], [-0.4215, 0.2303, -0.2766]])
    spec = CompositionSpec(L, L1Norm(2).scale_val(0.7704), 1.9951)
    x, opts = [-1.4543, -0.0339, 0.1569], SolverOpts(tol=1e-13)
    for each, iterations in ((spec, 3), (_padded(spec), 3)):
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
        converged = status == _CONVERGED_CODE
        assert (fixed[converged] <= 1.5 * opts.tol).all()
        rows_checked += converged.sum()
    assert rows_checked >= 2000


def test_fixed_prox_parameter_keeps_the_unit_step(monkeypatch):
    # the oracle's prox exists only at gamma, and L is wide with full row
    # rank (a tight step would call it at gamma lam); the padded catalog
    # spec starts cold too, so both run the same iteration.  At norm 1,
    # where the catalog spec takes dual ascent too
    _cold_start(monkeypatch)
    wide = DenseMap([[0.5, 0.1, 0.0], [-0.2, 0.4, 0.3]])
    L = _unit_norm(CompositionSpec(wide, L1Norm(2), 1.0)).operator
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
            finite = np.isfinite(old) & (status != _DIVERGED_CODE)
            np.testing.assert_allclose(values[finite], old[finite], rtol=1e-12, atol=1e-12)
            checked[core] += finite.sum()
    assert min(checked.values()) >= 500


def _package_calls(solve):
    """Python calls made in the package's own files by ``solve()``, its caches warm.

    Deterministic, and independent of numpy's version: a single solve's
    fixed cost, which its wall time on small arrays is mostly made of.
    """
    solve()
    profile = cProfile.Profile()
    profile.runcall(solve)
    package = os.path.dirname(compositions.__file__) + os.sep
    return sum(
        calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if path.startswith(package)
    )


def test_single_solves_keep_their_call_counts():
    # 43, 61 and 78 calls while the kernel updated before its stop test,
    # mapped its codes to status objects, and compacted a fully stopped set
    readme = CompositionSpec(DenseMap([[0.5]]), L1Norm(1), 1.0)
    tall = CompositionSpec(DenseMap([[0.5, 0.1], [-0.2, 0.4], [0.1, 0.3]]), L1Norm(3), 1.0)
    x = np.array([1.0, -2.0])
    assert _package_calls(lambda: eval_cocomposition(readme, [1.0])) <= 36
    assert _package_calls(lambda: eval_cocomposition(tall, x)) <= 54
    assert _package_calls(lambda: eval_composition(tall, x)) <= 65


def test_argmins_keep_their_call_counts():
    # 71 and 225 calls while the argmin wrapped the collapse into point
    # callables for a one-row public minimizer (2 and 9 iterations)
    one = CompositionSpec(DenseMap([[0.5]]), L1Norm(1).translate([1.0]), 1.0)
    L = DenseMap([[0.5, 0.1], [-0.2, 0.4], [0.1, 0.3]])
    tall = CompositionSpec(L, L1Norm(3).translate([1.0, -1.0, 0.5]), 1.0)
    assert [argmin_cocomposition(s).iterations for s in (one, tall)] == [2, 9]
    assert _package_calls(lambda: argmin_cocomposition(one)) <= 65
    assert _package_calls(lambda: argmin_cocomposition(tall)) <= 205


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
    # dual ascent at ||L|| = 1 starts at the gradient of env_{gamma mu} g(Lx)
    # with mu = max(1 - ||L||^2, 1e-2) = 1e-2.  Here L is a rotation, so
    # LL* = I and the cocomposition is g(Lx).  The ascent iterates the dual
    # scaled by its prox parameter gamma lam, so the start is unscaled here
    starts = _starts(monkeypatch)
    c, s = np.cos(0.7), np.sin(0.7)
    L = DenseMap(np.array([[c, -s], [s, c]]))
    fn = L1Norm(2).translate([0.3, -0.2])
    rep = eval_cocomposition(CompositionSpec(L, fn, 1.5), [1.0, -2.0])
    mu, lx = 1.5 * 1e-2, L.apply([1.0, -2.0])
    start = starts[0][0] / (1.5 * L.dual_step[0])
    np.testing.assert_allclose(start, (lx - fn.prox(mu, lx)) / mu, rtol=1e-12)
    assert rep.status == CONVERGED
    assert rep.value == pytest.approx(float(fn(lx)), rel=1e-12)


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
    # iterations in all.  At norm 1, where the cocomposition takes dual ascent
    ax = np.linspace(-4.0, 4.0, 101)
    grid = np.stack([m.reshape(-1) for m in np.meshgrid(ax, ax, indexing="ij")], axis=-1)
    rng = np.random.default_rng(62)
    cases = [
        (_unit_norm(CompositionSpec(*figure_preset(name), gamma)), grid, None)
        for name in ("example1", "example2")
        for gamma in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    for _ in range(200):
        spec = _unit_norm(_random_spec(rng))
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


# -- the composition as the cocomposition of its range factor -----------------------


def _assert_range_factor_identity(spec, X, gamma):
    """``comp_{L,g,gamma}(x) = cocomp_{Q,g,gamma}(x R) + (||x R||^2 - ||x||^2)/(2 gamma)``.

    The composition's iterated values against the cocomposition of the
    range factor ``Q``, solved on its own, within 1e-12 relative and with
    the same finiteness; ``gamma`` is a per-row column.  Returns the
    finite-row mask.
    """
    Q, R = spec.operator.isometric_factor
    values, _, _ = eval_composition_batch(spec, X, gamma=gamma)
    XR = X @ R
    ref = _cocomposition_core(CompositionSpec(Q, spec.fn, spec.gamma), XR, DEFAULT_OPTS, gamma)[0]
    ref = ref + (np.sum(XR * XR, -1) - np.sum(X * X, -1)) / (2.0 * gamma[:, 0])
    finite = np.isfinite(ref)
    assert np.array_equal(finite, np.isfinite(values))
    scale = np.maximum(np.abs(ref[finite]), 1.0)
    assert (np.abs(values[finite] - ref[finite]) <= 1e-12 * scale).all()
    return finite


def test_composition_is_the_cocomposition_of_its_range_factor():
    # tall maps: L* has a kernel, so every row iterates
    rng = np.random.default_rng(11)
    for _ in range(100):
        rows = int(rng.integers(2, 5))
        spec = _random_spec(rng, rows=rows, cols=int(rng.integers(1, rows)))
        assert not _injective_adjoint(spec.operator)
        X = 3.0 * rng.normal(size=(10, spec.operator.cols))
        finite = _assert_range_factor_identity(spec, X, rng.uniform(0.25, 4.0, size=(10, 1)))
        assert finite.all()


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_preset_composition_is_the_cocomposition_of_its_range_factor(name):
    ax = np.linspace(-3.0, 3.0, 41)
    grid = np.stack([m.reshape(-1) for m in np.meshgrid(ax, ax, indexing="ij")], axis=-1)
    spec = CompositionSpec(*figure_preset(name), 1.0)
    for gamma in (0.25, 1.0, 4.0):
        column = np.full((len(grid), 1), gamma)
        assert _assert_range_factor_identity(spec, grid, column).all()


def test_restricted_composition_is_the_cocomposition_of_its_range_factor():
    # rows in L*(dom g) are finite, rows off it +inf on both sides
    rng = np.random.default_rng(3)
    finite = []
    for k in range(60):
        rows = int(rng.integers(2, 5))
        L = _random_operator(rng, rows, int(rng.integers(1, rows)))
        if k % 2:
            fn = BallIndicator(0.3 * rng.normal(size=rows), rng.uniform(0.5, 2.0))
        else:
            u = rng.normal(size=(rows, 1))
            fn = SubspaceIndicator(u / np.linalg.norm(u))
        Y = rng.normal(size=(3, rows))
        inside = 0.5 * (fn.prox(1.0, Y) + fn.prox(1.0, np.zeros_like(Y)))
        X = np.vstack([inside @ L.entries, 3.0 * rng.normal(size=(3, L.cols))])
        spec = CompositionSpec(L, fn, 1.0)
        finite.extend(_assert_range_factor_identity(spec, X, rng.uniform(0.25, 4.0, size=(6, 1))))
    assert 0 < sum(finite) < len(finite)


# -- the metric path: ||L|| < 1 as a root in R^k ----------------------------------


def _dual_ascent(spec, X, gamma=None, opts=DEFAULT_OPTS):
    """The cocomposition at ``X`` by dual ascent, the path it takes at ``||L|| = 1``.

    The five arrays of ``_cocomposition_core``, the value from the same
    ``_dual_value`` at the prox point and dual that dual ascent returns.
    """
    L, g = spec.operator, spec.fn
    gamma = spec.gamma if gamma is None else gamma
    LX = L.apply(X)
    p, y, status, iters, residual = compositions._dual_cocomposition(
        L, g, LX, gamma, opts, compositions._product(X)
    )
    return compositions._dual_value(L, g, LX, p, y, gamma, status), y, status, iters, residual


def _assert_metric_matches_dual_ascent(spec, X, gamma=None):
    """Values within 1e-12 relative, and the same maximizer of the strongly concave dual."""
    values, duals, status, iters, residual = _cocomposition_core(spec, X, DEFAULT_OPTS, gamma)
    ref_values, ref_duals, ref_status, _, _ = _dual_ascent(spec, X, gamma)
    assert list(status) == list(ref_status) == [_CONVERGED_CODE] * len(X)
    assert iters.max() <= 40  # Newton steps: at most 24 in the tests below
    scale = np.maximum(np.abs(ref_values), 1.0)
    assert (np.abs(values - ref_values) <= 1e-12 * scale).all()
    np.testing.assert_allclose(duals, ref_duals, rtol=1e-6, atol=1e-6)
    return residual


@pytest.mark.parametrize("name", ["example1", "example2"])
@pytest.mark.parametrize("gamma", [0.5, 8.0])
def test_metric_path_matches_dual_ascent_on_the_figure_grid(name, gamma):
    ax = np.linspace(-4.0, 4.0, 101)
    grid = np.stack([m.reshape(-1) for m in np.meshgrid(ax, ax, indexing="ij")], axis=-1)
    spec = CompositionSpec(*figure_preset(name), gamma)
    assert spec.operator.norm_bound < 1.0 - compositions.ADMISSIBILITY_TOL
    residual = _assert_metric_matches_dual_ascent(spec, grid)
    L = spec.operator
    floor = 4 * np.finfo(float).eps * np.linalg.norm(L.metric_factor[0], 2)
    assert (residual <= DEFAULT_OPTS.tol + floor * np.linalg.norm(L.apply(grid), axis=-1)).all()


def test_metric_path_matches_dual_ascent_on_per_row_parameters():
    rng = np.random.default_rng(63)
    for _ in range(150):
        spec = _random_spec(rng)
        X = 2.0 * rng.normal(size=(6, spec.operator.cols))
        _assert_metric_matches_dual_ascent(spec, X, rng.uniform(0.25, 4.0, size=(6, 1)))


@pytest.mark.parametrize("norm", [0.9999, 1.0 - 1e-7])
def test_metric_path_matches_dual_ascent_near_norm_1(norm):
    rng = np.random.default_rng(64)
    for _ in range(40):
        base = _random_spec(rng)
        spec = CompositionSpec(_with_norm(base.operator, norm), base.fn, base.gamma)
        assert spec.operator.norm_bound < 1.0 - compositions.ADMISSIBILITY_TOL
        X = 2.0 * rng.normal(size=(5, spec.operator.cols))
        _assert_metric_matches_dual_ascent(spec, X, rng.uniform(0.25, 4.0, size=(5, 1)))


def test_metric_path_stops_every_row_of_the_stress_sample(kernel_calls):
    # 2,000 rows near ||L|| = 1, at far points and extreme parameters, where
    # Barzilai-Borwein steps left rows to dual ascent after 200 steps.  The
    # reference is capped: two far rows (||x|| ~ 7e7-9e7, specs 23 and 195)
    # stall dual ascent just above tol at its rounding floor
    rng = np.random.default_rng(7)
    capped, iterations = SolverOpts(max_iter=100), 0
    for _ in range(200):
        base = _random_spec(rng)
        norm = 1.0 - 10.0 ** rng.uniform(-8.0, -2.0)
        spec = CompositionSpec(_with_norm(base.operator, norm), base.fn, base.gamma)
        gamma = 2.0 ** rng.uniform(-20.0, 10.0, size=(10, 1))
        X = 10.0 ** rng.uniform(-1.0, 8.0, size=(10, 1)) * rng.normal(size=(10, spec.operator.cols))
        del kernel_calls[:]
        values, _, status, iters, _ = _cocomposition_core(spec, X, capped, gamma)
        assert kernel_calls == [10]  # the metric path, whole
        assert list(status) == [_CONVERGED_CODE] * 10
        ref_values = _dual_ascent(spec, X, gamma, SolverOpts(max_iter=2_000))[0]
        assert (np.abs(values - ref_values) <= 1e-9 * np.maximum(1.0, np.abs(ref_values))).all()
        iterations += iters.sum()
    assert iterations <= 5_500  # 4,991 row-iterations on a 2-core x86 host


def test_a_g_without_prox_jacobians_takes_dual_ascent(monkeypatch):
    # a ConvexFunction subclass with a prox but no _prox_jacobian has no
    # Jacobian, alone or transformed, so the cocomposition ascends its dual;
    # its value is the metric path's on the catalog's quadratic kernel
    class Kernel(ConvexFunction):
        dim = 2

        def _value(self, x):
            return 0.5 * np.sum(x * x, axis=-1)

        def _prox(self, gamma, x):
            return x / (1.0 + gamma)

        def has_full_domain(self):
            return True

    assert not Kernel().has_prox_jacobian() and not Kernel().add_quad(1.0).has_prox_jacobian()
    L, x = DenseMap([[0.5, 0.1], [-0.2, 0.4]]), [1.0, -2.0]
    metric = eval_cocomposition(CompositionSpec(L, quadratic_kernel(2), 1.0), x)
    monkeypatch.setattr(compositions, "_metric_cocomposition", None)
    rep = eval_cocomposition(CompositionSpec(L, Kernel(), 1.0), x)
    assert rep.status == metric.status == CONVERGED
    assert rep.value == pytest.approx(metric.value, rel=1e-9)


def test_metric_path_stops_at_the_collapse_start(kernel_calls):
    # a wide map with LL* = 0.36 I: M = I / 0.64, so the cocomposition is
    # env_{0.64 gamma} g(Lx) and the start is the root
    rng = np.random.default_rng(65)
    q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    L = DenseMap(0.6 * q.T)
    fn = L1Norm(2).translate([0.3, -0.2])
    X = 2.0 * rng.normal(size=(20, 3))
    values, status, iters = eval_cocomposition_batch(CompositionSpec(L, fn, 1.5), X)
    assert kernel_calls == [20]
    assert list(status) == [CONVERGED] * 20 and list(iters) == [1] * 20
    expected = envelope(fn, 1.5 * 0.64, L.apply(X))
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


def test_far_metric_row_stops_at_the_rounding_floor():
    # at ||Lx|| = 1e8, F rounds to about eps ||W|| ||Lx|| = 1.5e-8 > tol
    L = DenseMap([[0.5, 0.1], [-0.2, 0.4], [0.3, -0.6]])
    g = L1Norm(3).add_quad(0.5)
    spec = CompositionSpec(L, g, 0.3)
    d = np.array([0.8, -1.1])
    x = d * (1e8 / np.linalg.norm(L.apply(d)))
    rep = eval_cocomposition(spec, x)
    lx = L.apply(x)
    assert rep.status == CONVERGED and rep.iterations < 50
    assert rep.residual > DEFAULT_OPTS.tol
    assert envelope(g, 0.3, lx) <= rep.value <= float(g(lx))


def test_once_stalled_metric_rows_converge_on_the_metric_path(kernel_calls):
    # a ball distance at ||L|| = 1 - 4e-8: at gamma 524, F jumps across the
    # kinks of the prox and Barzilai-Borwein steps cycled (the value read
    # 9748.6 after 100 iterations), so the row ran dual ascent after a
    # 200-step budget.  Newton steps converge on the metric path, in the
    # one kernel call, to dual ascent's value; at gamma 1 as well
    L = DenseMap([
        [0.3582571151842432, -0.11727719997313024],
        [0.42424463555939185, -0.04132258306948208],
        [0.41451448582942, 0.8936540010558511],
    ])
    g = BallDistance([-0.46330758, 0.12726841, -1.18719453], 0.5114331503783803)
    spec = CompositionSpec(L, g, 1.0)
    X = np.tile([-0.7371517881999182, -0.5003908010358499], (2, 1))
    gamma = np.array([[524.51547639], [1.0]])
    values, status, iters = eval_cocomposition_batch(spec, X, gamma=gamma)
    assert kernel_calls == [2]
    # 74 iterations at gamma 524: 12 Newton steps, 61 halvings and the stop
    assert list(status) == [CONVERGED] * 2 and iters.max() < 100
    ref_values, _, ref_status, _, _ = _dual_ascent(spec, X[:1], gamma[:1])
    assert ref_status[0] == _CONVERGED_CODE
    assert values[0] == pytest.approx(ref_values[0], rel=1e-12, abs=0.0)
    assert values[0] == pytest.approx(3.59298e-5, rel=1e-5)


def test_metric_value_is_the_dual_value_of_its_dual():
    # at a loose tol the duality gap shows: the value is <Lx, y> - g*(y) -
    # gamma Phi(y) at the returned dual y, a lower bound on the cocomposition
    # within residual^2 / (2 gamma); the primal value at v sits the gap above
    rng = np.random.default_rng(66)
    gaps = []
    for _ in range(100):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        fn = _random_conjugable_fn(rng, rows)
        spec = CompositionSpec(_random_operator(rng, rows, cols), fn, 1.0)
        X = 2.0 * rng.normal(size=(4, cols))
        gamma = rng.uniform(0.25, 4.0, size=(4, 1))
        values, duals, status, iters, residual = _cocomposition_core(
            spec, X, SolverOpts(tol=1e-3), gamma
        )
        exact = _cocomposition_core(spec, X, SolverOpts(tol=1e-11), gamma)[0]
        g = gamma[:, 0]
        dual_value = (
            np.sum(spec.operator.apply(X) * duals, -1) - fn.conjugate(duals)
            - g * spec.defect(duals)
        )
        assert list(status) == [_CONVERGED_CODE] * 4
        assert iters.max() <= 10  # Newton steps: at most 4 here
        np.testing.assert_allclose(values, dual_value, rtol=1e-9, atol=1e-9)
        assert (values <= exact + 1e-9).all()
        assert (exact - values <= residual**2 / (2.0 * g) + 1e-9).all()
        gaps.extend(exact - values)
    assert max(gaps) > 1e-7  # the loose tol leaves gaps to see (1.3e-7 with Newton steps)
