import numpy as np
import pytest

from proxmix import (
    CompositionSpec,
    DenseMap,
    EuclideanNorm,
    L1Norm,
    admissible,
    argmin_cocomposition,
    argmin_gamma_sequence,
    envelope_cocomposition,
    eval_cocomposition,
    eval_cocomposition_batch,
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
from proxmix.compositions import eval_composition_batch, pushforward_infimum
from proxmix.errors import AdmissibilityError, ParameterError
from proxmix.functions import (
    Affine,
    BallIndicator,
    OracleFunction,
    SubspaceIndicator,
)
from proxmix.moreau import CONVERGED, DIVERGED, INVALID, SolverOpts, grid_prox


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

SQUARE = DenseMap([[0.5, 0.1], [-0.2, 0.4]])


@pytest.mark.parametrize("x", [[3.0, 1.0], [-1.0, 2.0], [0.0, -1.2]])
def test_composition_ball_infeasible_certified_at_first_check(x):
    # L*(B(0, 1)) lies in the ball of radius ||L|| < 0.6
    spec = CompositionSpec(SQUARE, BallIndicator(np.zeros(2), 1.0), 1.0)
    rep = eval_composition(spec, x)
    assert (rep.status, rep.value, rep.iterations) == (DIVERGED, np.inf, 50)


@pytest.mark.parametrize("gamma", [0.8, 1.25])
def test_composition_subspace_infeasible_certified_at_first_check(gamma):
    # g indicates the first axis, so L*(V) is the line through L* e1 and
    # the point is orthogonal to it
    basis = np.array([[1.0], [0.0]])
    spec = CompositionSpec(SQUARE, SubspaceIndicator(basis), gamma)
    line = SQUARE.adjoint_apply(basis[:, 0])
    x = 1.5 * np.array([-line[1], line[0]]) / np.linalg.norm(line)
    rep = eval_composition(spec, x)
    assert (rep.status, rep.value, rep.iterations) == (DIVERGED, np.inf, 50)


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
    # a = 1.9 - sqrt(3)/2 (y1 = |y|/2 at the optimum), c = 1 - 0.95^2
    spec = CompositionSpec(
        DenseMap([[1.0, 0.0], [0.0, 0.95]]), BallIndicator(np.zeros(2), 1.0), 1.0
    )
    rep = eval_cocomposition(spec, [0.5, 2.0])
    a, c = 1.9 - np.sqrt(0.75), 1.0 - 0.95**2
    assert rep.status == CONVERGED
    assert rep.iterations > 50  # the certificate was tested and did not fire
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


def test_composition_batch_mixed_rows():
    spec = CompositionSpec(SQUARE, BallIndicator(np.zeros(2), 1.0), 1.0)
    X = np.array(
        [
            SQUARE.adjoint_apply([0.3, -0.4]),
            [3.0, 1.0],
            SQUARE.adjoint_apply([0.6, 0.8]),
            [np.nan, 1.0],
            [0.0, -1.2],
        ]
    )
    values, status, iters = eval_composition_batch(spec, X)
    assert list(status) == [CONVERGED, DIVERGED, CONVERGED, INVALID, DIVERGED]
    assert list(iters[[1, 3, 4]]) == [50, 0, 50]
    assert np.isinf(values[[1, 4]]).all() and np.isnan(values[3])
    for row in (0, 2):
        single = eval_composition(spec, X[row])
        assert single.status == CONVERGED
        assert single.iterations == iters[row]
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


def test_composition_radius_fallback_without_conjugate():
    # an oracle function has no catalog conjugate, so no certificate:
    # the iterate has to pass the divergence radius
    ball = BallIndicator([0.0], 1.0)
    oracle = OracleFunction(1, ball, prox_fn=ball.prox, full_domain=False)
    opts = SolverOpts(divergence_radius=1e4)
    rep = eval_composition(CompositionSpec(DenseMap([[0.5]]), oracle, 1.0), [2.0], opts)
    assert rep.status == DIVERGED
    assert np.linalg.norm(rep.argpoint) > opts.divergence_radius
    # the catalog ball is certified long before the radius
    rep = eval_composition(CompositionSpec(DenseMap([[0.5]]), ball, 1.0), [2.0], opts)
    assert (rep.status, rep.iterations) == (DIVERGED, 50)
    assert np.linalg.norm(rep.argpoint) < opts.divergence_radius


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
