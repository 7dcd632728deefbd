import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmix import (
    Affine,
    BallDistance,
    BallIndicator,
    BallSupport,
    EuclideanNorm,
    L1Norm,
    Quadratic,
    SeparableSum,
    SubspaceIndicator,
    function_from_spec,
    function_to_spec,
    quadratic_kernel,
)
from proxmix.errors import (
    DimensionError,
    ParameterError,
    ShapeError,
    UnsupportedConjugate,
)
from proxmix.functions import (
    MoreauEnvelopeFunction,
    OracleFunction,
    _norm,
    _ones,
    _row_sum,
    conjugate_function,
)
from proxmix.moreau import envelope, envelope_gradient, grid_prox

RNG = np.random.default_rng(42)


def catalog(dim=2):
    """One representative of every atom, some with transform stacks."""
    basis = np.eye(dim)[:, :1]
    return [
        L1Norm(dim),
        EuclideanNorm(dim),
        Quadratic(np.diag(np.linspace(0.5, 2.0, dim))),
        Affine(np.arange(1.0, dim + 1), -0.3),
        BallIndicator(np.zeros(dim), 2.0),
        SubspaceIndicator(basis),
        BallDistance(np.zeros(dim), 2.0),
        BallSupport(0.3 * np.ones(dim), 0.8),
        SeparableSum([(2.0, L1Norm(1), 0)] + (
            [(1.0, EuclideanNorm(dim - 1), 1)] if dim > 1 else []
        )),
        EuclideanNorm(dim).translate(np.ones(dim)).scale_val(1.5),
        L1Norm(dim).scale_arg(2.0).add_affine(0.1 * np.ones(dim), 0.5),
        quadratic_kernel(dim).add_quad(0.7),
    ]


# -- evaluation -------------------------------------------------------------


def test_eval_l1():
    assert L1Norm(3)([1.0, -2.0, 0.0]) == 3.0


def test_eval_ball_indicator_outside():
    assert BallIndicator([0.0, 0.0], 2.0)([3.0, 0.0]) == np.inf


def test_eval_example1_target_at_zero():
    g = SeparableSum(
        [(1.0, L1Norm(3), 0), (1.0, EuclideanNorm(2).translate([1.0, -2.0]), 3)]
    )
    assert g(np.zeros(5)) == pytest.approx(np.sqrt(5.0), abs=1e-12)


# -- prox -------------------------------------------------------------------


def test_prox_soft_threshold():
    assert np.allclose(L1Norm(2).prox(1.0, [2.0, -0.5]), [1.0, 0.0])


def test_prox_quadratic_kernel():
    assert np.allclose(quadratic_kernel(1).prox(1.0, [2.0]), [1.0])


def test_prox_dist_ball_against_grid():
    fn = BallDistance([0.0], 2.0)
    got = fn.prox(1.0, [4.0])
    oracle = grid_prox(fn, 1.0, np.array([4.0]), [3.0], [5.0], 2001)
    assert abs(got[0] - 3.0) <= 1e-12
    assert abs(got[0] - oracle[0]) <= 1e-3


def test_prox_requires_positive_gamma():
    with pytest.raises(ParameterError):
        L1Norm(1).prox(0.0, [1.0])


@pytest.mark.parametrize("fn", [
    MoreauEnvelopeFunction(L1Norm(1), 1.0),
    L1Norm(1).add_quad(1.0),
    Affine([1.0]),
], ids=repr)
def test_prox_rejects_an_infinite_gamma(fn):
    # each once answered nan, raised a message about nan or returned -inf
    for oracle in (fn.prox, fn.prox_conjugate):
        with pytest.raises(ParameterError, match="positive and finite"):
            oracle(np.inf, [1.0])


@pytest.mark.parametrize("fn", catalog(), ids=lambda f: repr(f))
def test_prox_characterization(fn):
    # the prox point beats any feasible competitor on the prox objective
    rng = np.random.default_rng(7)
    for _ in range(5):
        gamma = rng.uniform(0.3, 2.0)
        x = rng.normal(size=fn.dim) * 2
        p = fn.prox(gamma, x)
        base = np.asarray(fn(p)) + np.linalg.norm(x - p) ** 2 / (2 * gamma)
        for _ in range(20):
            z = fn.prox(1.0, rng.normal(size=fn.dim) * 3)  # a domain point
            val = np.asarray(fn(z)) + np.linalg.norm(x - z) ** 2 / (2 * gamma)
            assert base <= val + 1e-10


@pytest.mark.parametrize("fn", catalog(), ids=lambda f: repr(f))
def test_prox_firmly_nonexpansive(fn):
    rng = np.random.default_rng(8)
    for _ in range(20):
        x, y = rng.normal(size=fn.dim), rng.normal(size=fn.dim)
        px, py = fn.prox(0.7, x), fn.prox(0.7, y)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


# -- conjugates and the Moreau decomposition --------------------------------


def test_prox_conjugate_quadratic_self_conjugate():
    q = quadratic_kernel(1)
    assert np.allclose(q.prox_conjugate(1.0, [2.0]), [1.0])


def test_prox_conjugate_norm_projects_onto_ball():
    got = EuclideanNorm(2).prox_conjugate(1.0, [3.0, 0.0])
    assert np.allclose(got, [1.0, 0.0])


@pytest.mark.parametrize("fn", catalog(), ids=lambda f: repr(f))
def test_moreau_decomposition(fn):
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.normal(size=fn.dim) * 2
        recombined = fn.prox(1.0, x) + fn.prox_conjugate(1.0, x)
        assert np.linalg.norm(recombined - x) <= 1e-9


def test_conjugate_quadratic_kernel_value():
    assert quadratic_kernel(1).conjugate([3.0]) == pytest.approx(4.5)


def test_conjugate_l1_box():
    f = L1Norm(2)
    assert f.conjugate([0.5, -0.9]) == 0.0
    assert f.conjugate([1.2, 0.0]) == np.inf


def test_conjugate_singular_quadratic():
    f = Quadratic(np.diag([2.0, 0.0]))
    assert f.conjugate([2.0, 0.0]) == pytest.approx(1.0)
    assert f.conjugate([0.0, 1.0]) == np.inf


@pytest.mark.parametrize("fn", catalog(), ids=lambda f: repr(f))
def test_fenchel_young_at_witnesses(fn):
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = rng.normal(size=fn.dim) * 2
        p = fn.prox(1.0, x)
        s = x - p  # a subgradient of fn at p
        gap = np.asarray(fn(p)) + np.asarray(fn.conjugate(s)) - np.dot(p, s)
        assert abs(gap) <= 1e-9


# -- recession --------------------------------------------------------------


def test_recession_norm_is_itself():
    f = EuclideanNorm(2)
    x = np.array([3.0, 4.0])
    assert f.recession(x) == pytest.approx(5.0)


def test_recession_bounded_domain():
    f = BallIndicator(np.zeros(2), 2.0)
    assert f.recession(np.zeros(2)) == 0.0
    assert f.recession(np.array([1.0, 0.0])) == np.inf


@pytest.mark.parametrize(
    "fn",
    [
        L1Norm(2),
        EuclideanNorm(2),
        BallDistance(np.ones(2), 1.0),
        BallSupport(0.2 * np.ones(2), 0.5),
        EuclideanNorm(2).translate([1.0, 2.0]).scale_val(0.7),
    ],
    ids=lambda f: repr(f),
)
def test_recession_difference_quotient(fn):
    rng = np.random.default_rng(11)
    y0 = rng.normal(size=2)
    t = 1e6
    for _ in range(10):
        x = rng.normal(size=2)
        quotient = (np.asarray(fn(y0 + t * x)) - np.asarray(fn(y0))) / t
        closed = np.asarray(fn.recession(x))
        assert abs(quotient - closed) <= 1e-4 * (1 + abs(closed))


# -- Lipschitz bounds and domains --------------------------------------------


def test_lipschitz_bounds():
    assert EuclideanNorm(3).lipschitz_bound() == 1.0
    assert BallDistance(np.zeros(2), 1.0).lipschitz_bound() == 1.0
    assert Affine([3.0, 4.0], 1.0).lipschitz_bound() == pytest.approx(5.0)
    assert L1Norm(4).lipschitz_bound() == pytest.approx(2.0)
    assert quadratic_kernel(2).lipschitz_bound() is None
    assert BallIndicator(np.zeros(2), 1.0).lipschitz_bound() is None


def test_whole_space_subspace_conjugate_is_the_origin_indicator():
    # the orthogonal complement of the whole space has an empty basis
    conj = conjugate_function(SubspaceIndicator(np.eye(2)))
    assert conj.basis.shape == (2, 0)
    assert conj(np.zeros(2)) == 0.0 and conj(np.array([1.0, 0.0])) == np.inf
    assert np.array_equal(conj.prox(1.0, np.array([3.0, -1.0])), np.zeros(2))


# -- transform calculus -------------------------------------------------------


def test_scaling_calculus_two_routes():
    rng = np.random.default_rng(12)
    for fn in [EuclideanNorm(2), L1Norm(2), quadratic_kernel(2)]:
        rho = 1.7
        scaled = fn.scale_val(rho)
        for _ in range(25):
            s = rng.normal(size=2)
            via_transform = np.asarray(scaled.conjugate(s))
            direct = rho * np.asarray(fn.conjugate(s / rho))
            if np.isinf(via_transform) or np.isinf(direct):
                assert via_transform == direct
            else:
                assert abs(via_transform - direct) <= 1e-10


def test_transform_stack_order_outermost_last():
    # translate then scale the argument: f(2x - w) vs f(2(x) ... )
    f = EuclideanNorm(1).translate([1.0]).scale_arg(2.0)
    # value at x: ||2x - 1||
    assert f(np.array([1.0])) == pytest.approx(1.0)
    g = EuclideanNorm(1).scale_arg(2.0).translate([1.0])
    # value at x: ||2(x - 1)||
    assert g(np.array([1.0])) == pytest.approx(0.0)


def test_conjugate_function_moreau_identity():
    rng = np.random.default_rng(13)
    for fn in [
        L1Norm(2),
        EuclideanNorm(3).translate(np.ones(3)),
        Quadratic(np.diag([1.0, 2.0])),
        BallIndicator(np.ones(2), 1.5).scale_val(2.0),
    ]:
        conj = conjugate_function(fn)
        for _ in range(20):
            x = rng.normal(size=fn.dim) * 2
            lhs = (
                np.asarray(fn(fn.prox(1.0, x)))
                + np.linalg.norm(x - fn.prox(1.0, x)) ** 2 / 2
            )
            p = conj.prox(1.0, x)
            rhs = np.asarray(conj(p)) + np.linalg.norm(x - p) ** 2 / 2
            assert abs(lhs + rhs - 0.5 * np.dot(x, x)) <= 1e-9


def test_conjugate_function_unsupported():
    with pytest.raises(UnsupportedConjugate):
        conjugate_function(BallDistance(np.zeros(2), 1.0))


def test_oracle_function_prox_gamma_restriction():
    fn = OracleFunction(
        1,
        value_fn=lambda x: np.abs(x).sum(axis=-1),
        prox_fn=lambda g, x: np.sign(x) * np.maximum(np.abs(x) - g, 0),
        prox_gamma=0.5,
    )
    assert np.allclose(fn.prox(0.5, np.array([2.0])), [1.5])
    with pytest.raises(ParameterError):
        fn.prox(1.0, np.array([2.0]))


def test_oracle_function_prox_gamma_column():
    fn = OracleFunction(
        1,
        value_fn=lambda x: np.abs(x).sum(axis=-1),
        prox_fn=lambda g, x: np.sign(x) * np.maximum(np.abs(x) - g, 0),
        prox_gamma=0.5,
    )
    X = np.array([[2.0], [-3.0]])
    assert np.allclose(fn.prox(np.full((2, 1), 0.5), X), [[1.5], [-2.5]])
    for bad in ([[0.5], [1.0]], [[0.5], [-0.5]], [[0.5], [np.nan]]):
        with pytest.raises(ParameterError):
            fn.prox(np.array(bad), X)


# -- batch semantics ----------------------------------------------------------


def per_row_catalog():
    """The catalog plus the wrappers whose prox rescales its parameter."""
    return catalog() + [
        BallDistance(np.ones(2), 0.5).add_quad(0.4),
        BallDistance(np.zeros(2), 1.0).translate([0.5, -1.0]).scale_val(2.0),
        MoreauEnvelopeFunction(L1Norm(2), 0.6),
        conjugate_function(EuclideanNorm(2)).add_quad(1.5),
    ]


@pytest.mark.parametrize("fn", per_row_catalog(), ids=lambda f: repr(f))
def test_prox_with_a_gamma_column_equals_the_per_gamma_loop(fn):
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, fn.dim)) * 3
    gammas = rng.uniform(0.05, 5.0, size=40)
    column = gammas[:, None]
    prox = fn.prox(column, X)
    assert prox.shape == X.shape
    for x, g, p in zip(X, gammas, prox):
        np.testing.assert_allclose(p, fn.prox(g, x), rtol=1e-12, atol=1e-12)
    env, grad = envelope(fn, column, X), envelope_gradient(fn, column, X)
    assert env.shape == (40,) and grad.shape == X.shape
    for x, g, e, d in zip(X, gammas, env, grad):
        assert e == pytest.approx(envelope(fn, g, x), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(d, envelope_gradient(fn, g, x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_gamma_column_with_a_bad_row_raises(bad):
    column = np.array([[0.5], [bad]])
    X = np.ones((2, 2))
    for fn in (BallDistance(np.zeros(2), 1.0), L1Norm(2).add_quad(0.3)):
        with pytest.raises(ParameterError):
            fn.prox(column, X)
        with pytest.raises(ParameterError):
            envelope(fn, column, X)
        with pytest.raises(ParameterError):
            envelope_gradient(fn, column, X)



@pytest.mark.parametrize("fn", catalog(), ids=lambda f: repr(f))
def test_batch_matches_pointwise(fn):
    rng = np.random.default_rng(14)
    X = rng.normal(size=(6, fn.dim)) * 2
    vals = np.asarray(fn(X))
    prox = fn.prox(0.8, X)
    for i, x in enumerate(X):
        assert np.isclose(vals[i], np.asarray(fn(x)), equal_nan=True) or (
            np.isinf(vals[i]) and np.isinf(np.asarray(fn(x)))
        )
        assert np.allclose(prox[i], fn.prox(0.8, x))


# -- JSON specs ---------------------------------------------------------------


@pytest.mark.parametrize("fn", catalog(), ids=lambda f: repr(f))
def test_function_spec_round_trip(fn):
    rng = np.random.default_rng(15)
    again = function_from_spec(function_to_spec(fn))
    for _ in range(10):
        x = rng.normal(size=fn.dim) * 2
        a, b = np.asarray(fn(x)), np.asarray(again(x))
        assert (np.isinf(a) and np.isinf(b)) or abs(a - b) <= 1e-14
        assert np.allclose(fn.prox(0.9, x), again.prox(0.9, x))


def test_function_to_spec_rejects_functions_without_a_spec_form():
    with pytest.raises(ShapeError, match="no JSON spec form"):
        function_to_spec(MoreauEnvelopeFunction(L1Norm(2), 0.5))
    # a transform over such a function fails the same way
    with pytest.raises(ShapeError, match="no JSON spec form"):
        function_to_spec(MoreauEnvelopeFunction(L1Norm(2), 0.5).translate([1.0, 0.0]))


def test_function_from_spec_rejects_unknown_names():
    with pytest.raises(ShapeError, match="unknown atom name"):
        function_from_spec({"atom": "l2_norm", "params": {"dim": 2}})
    with pytest.raises(ShapeError, match="unknown atom name"):
        function_from_spec({"atom": ["l1_norm"], "params": {"dim": 2}})
    with pytest.raises(ShapeError, match="unknown transform kind"):
        function_from_spec(
            {"atom": "l1_norm", "params": {"dim": 2}, "transforms": [{"kind": "shift"}]}
        )


def test_function_from_spec_alpha_defaults_to_zero():
    fn = function_from_spec(
        {"atom": "affine", "params": {"u": [1.0, 2.0]},
         "transforms": [{"kind": "add_affine", "u": [0.5, 0.0]}]}
    )
    assert fn.alpha == 0.0 and fn.inner.alpha == 0.0
    assert fn(np.array([1.0, 1.0])) == 3.5


# -- row sums ------------------------------------------------------------------


def _row_inputs(rng, n, dim):
    """A 1-D vector, contiguous, F-ordered and strided rows of ``dim`` columns."""
    wide = rng.normal(size=(2 * n, 2 * dim)) * 10.0 ** rng.integers(-3, 4, size=(2 * n, 1))
    rows = wide[:n, :dim]
    return [rng.normal(size=dim), rows.copy(), np.asfortranarray(rows), wide[::2, ::2]]


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("n", [0, 1, 7, 10_201])
def test_row_sum_and_norm_match_the_reductions(n, dim):
    rng = np.random.default_rng([n, dim])
    eps = np.finfo(float).eps
    for x in _row_inputs(rng, n, dim):
        total, ref = _row_sum(x), np.add.reduce(x, axis=-1)
        norm, ref_norm = _norm(x), np.linalg.norm(x, axis=-1)
        # the ``dot`` method runs the BLAS product that ``@`` runs, except on
        # strided rows wider than three, where its own loop sums in another order
        if x.data.contiguous or dim <= 3:
            assert np.array_equal(total, x @ _ones(dim))
        assert np.shape(total) == np.shape(ref) == np.shape(norm) == np.shape(ref_norm)
        # the BLAS decides the order of a wider sum: a few ulps of the
        # absolute sum, not bit for bit
        assert np.all(np.abs(total - ref) <= 4 * eps * np.add.reduce(np.abs(x), axis=-1))
        assert np.all(np.abs(norm - ref_norm) <= 4 * eps * ref_norm)
        if dim <= 2:  # one addition rounds the same in any order
            assert np.array_equal(total, ref) and np.array_equal(norm, ref_norm)


def test_ones_are_shared_and_read_only():
    assert _ones(3) is _ones(3) and list(_ones(3)) == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        _ones(3)[0] = 2.0


# -- validation at the root of an oracle tree -----------------------------------


def nested_trees():
    """Transform stacks inside a separable sum, and a Moreau envelope of one."""
    stack = L1Norm(2).translate([0.5, -1.0]).add_quad(0.4).scale_arg(2.0)
    return [
        SeparableSum([
            (2.0, stack, 0),
            (0.5, BallDistance(np.zeros(1), 1.0).scale_val(3.0), 2),
        ]),
        MoreauEnvelopeFunction(stack.add_affine([1.0, 2.0], 0.5), 0.7),
    ]


@pytest.mark.parametrize("fn", nested_trees(), ids=repr)
def test_nested_trees_reject_a_wrong_width_point(fn):
    for bad in (np.ones(fn.dim + 1), np.ones((4, fn.dim - 1))):
        for oracle in (fn, fn.conjugate, fn.recession):
            with pytest.raises(DimensionError):
                oracle(bad)
        for oracle in (fn.prox, fn.prox_conjugate):
            with pytest.raises(DimensionError):
                oracle(1.0, bad)


@pytest.mark.parametrize("fn", nested_trees(), ids=repr)
@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan, np.inf])
def test_nested_trees_reject_a_bad_gamma(fn, gamma):
    X = np.ones((2, fn.dim))
    for bad in (gamma, np.array([[0.5], [gamma]])):
        for oracle in (fn.prox, fn.prox_conjugate):
            with pytest.raises(ParameterError):
                oracle(bad, X)


def test_oracle_prox_gamma_is_checked_inside_a_transform():
    # scale_arg(2) calls the inner prox at gamma * 4, so only 0.125 is allowed
    fn = OracleFunction(
        1,
        value_fn=lambda x: np.abs(x).sum(axis=-1),
        prox_fn=lambda g, x: np.sign(x) * np.maximum(np.abs(x) - g, 0),
        prox_gamma=0.5,
    ).scale_arg(2.0)
    assert np.allclose(fn.prox(0.125, [2.0]), [1.75])  # (4 - 0.5) / 2
    for bad in (0.5, np.array([[0.125], [0.5]])):
        with pytest.raises(ParameterError, match="only available"):
            fn.prox(bad, np.ones((2, 1)))


def test_a_fixed_prox_parameter_is_seen_through_transforms_and_sums():
    oracle = OracleFunction(
        1, value_fn=lambda x: np.abs(x).sum(axis=-1), prox_fn=lambda g, x: x, prox_gamma=0.5
    )
    free = OracleFunction(1, value_fn=lambda x: np.abs(x).sum(axis=-1), prox_fn=lambda g, x: x)
    assert oracle.has_fixed_prox_parameter()
    assert not free.has_fixed_prox_parameter() and not L1Norm(1).has_fixed_prox_parameter()
    wrapped = MoreauEnvelopeFunction(oracle.scale_arg(2.0).translate([1.0]).add_quad(0.5), 1.0)
    assert wrapped.has_fixed_prox_parameter()
    assert SeparableSum([(1.0, L1Norm(1), 0), (2.0, wrapped, 1)]).has_fixed_prox_parameter()
    assert not SeparableSum([(1.0, L1Norm(1), 0), (2.0, free, 1)]).has_fixed_prox_parameter()


# -- atom proxes against their previous closed forms ---------------------------
# The references below are the formulas the atoms used before their proxes were
# rewritten in fewer numpy calls.


def _ref_l1(gamma, x):
    return np.sign(x) * np.maximum(np.abs(x) - gamma, 0.0)


def _ref_euclidean(gamma, x):
    nx = _norm(x)[..., None]
    factor = np.where(nx > gamma, 1.0 - gamma / np.where(nx > 0, nx, 1.0), 0.0)
    return factor * x


def _ref_projection(center, radius, x):
    d = x - center
    nd = _norm(d)
    factor = np.where(nd > radius, radius / np.where(nd > 0, nd, 1.0), 1.0)
    return nd, center + factor[..., None] * d


def _ref_ball_support(center, radius, gamma, x):
    shifted = x - gamma * center
    nx = _norm(shifted)[..., None]
    thresh = gamma * radius
    factor = np.where(nx > thresh, 1.0 - thresh / np.where(nx > 0, nx, 1.0), 0.0)
    return factor * shifted


def _ref_ball_distance(center, radius, gamma, x):
    nd, proj = _ref_projection(center, radius, x)
    dist = np.maximum(nd - radius, 0.0)[..., None]
    safe = np.where(dist > 0, dist, 1.0)
    step = np.where(dist > gamma, gamma / safe, 1.0)
    return x + step * (proj - x)


def _assert_same_bits(got, ref):
    assert got.shape == ref.shape
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(ref).view(np.int64)
    )


# dyadic centers, radii and gammas, so the edge points below are exact
_GAMMAS = np.array([0.25, 0.5, 1.0, 3.0])
_BALLS = [(np.array([0.5, -0.25]), 0.75), (np.array([-1.0, 2.0]), 0.0), (np.zeros(2), 1.5)]


def _edge_rows(center, radius, gamma):
    """The center, then points at distance radius and radius + gamma from it."""
    offsets = [np.zeros(2)]
    for dist in (radius, radius + gamma):
        offsets += [np.array([dist, 0.0]), np.array([0.0, -dist])]
    return center + np.array(offsets)


def _batches(rng, rows_for):
    """(gamma, X) pairs: random rows with a float and with a per-row gamma,
    and edge rows with their own gamma as a per-row column."""
    X = rng.normal(size=(50, 2)) * 10.0 ** rng.integers(-2, 3, size=(50, 1))
    out = [(0.7, X), (rng.uniform(0.05, 5.0, size=(50, 1)), X)]
    edges = [rows_for(g) for g in _GAMMAS]
    column = np.repeat(_GAMMAS, [len(e) for e in edges])[:, None]
    out.append((column, np.concatenate(edges)))
    out += [(float(g), e) for g, e in zip(_GAMMAS, edges)]
    return out


def test_l1_prox_equals_the_sign_formula():
    # equal up to the sign of a zero (== treats 0.0 and -0.0 alike)
    rng = np.random.default_rng(21)
    fn = L1Norm(2)

    def rows(g):
        return np.array([[0.0, -0.0], [g, -g], [2 * g, -0.5 * g], [-3 * g, g]])

    for gamma, X in _batches(rng, rows):
        np.testing.assert_array_equal(fn.prox(gamma, X), _ref_l1(gamma, X))


def test_euclidean_norm_prox_is_bit_for_bit_the_previous_formula():
    rng = np.random.default_rng(22)
    fn = EuclideanNorm(2)
    for gamma, X in _batches(rng, lambda g: _edge_rows(np.zeros(2), 0.0, g)):
        _assert_same_bits(fn.prox(gamma, X), _ref_euclidean(gamma, X))
        if np.ndim(gamma) == 0:
            _assert_same_bits(fn.prox(gamma, X[0]), _ref_euclidean(gamma, X[0]))
    # the inner gamma 1e-600 underflows to 0, which leaves the point in place
    points = np.array([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(fn.scale_arg(1e-200).prox(1e-200, points), points)


@pytest.mark.parametrize("center,radius", _BALLS)
def test_ball_support_prox_is_bit_for_bit_the_previous_formula(center, radius):
    # the edge rows of the shifted point x - gamma * center
    rng = np.random.default_rng(23)
    fn = BallSupport(center, radius)
    for gamma, X in _batches(rng, lambda g: _edge_rows(g * center, g * radius, g)):
        _assert_same_bits(fn.prox(gamma, X), _ref_ball_support(center, radius, gamma, X))
    # gamma * radius underflows to 0 here; the prox of the origin stays 0
    tiny = BallSupport(center, 1e-200)
    np.testing.assert_array_equal(tiny.prox(1e-200, 1e-200 * center), np.zeros(2))


@pytest.mark.parametrize("center,radius", _BALLS)
def test_ball_indicator_prox_is_bit_for_bit_the_previous_projection(center, radius):
    rng = np.random.default_rng(24)
    fn = BallIndicator(center, radius)
    for gamma, X in _batches(rng, lambda g: _edge_rows(center, radius, g)):
        _assert_same_bits(fn.prox(gamma, X), _ref_projection(center, radius, X)[1])


@pytest.mark.parametrize("center,radius", _BALLS)
def test_ball_distance_prox_is_the_previous_formula_to_a_few_ulps(center, radius):
    rng = np.random.default_rng(25)
    fn = BallDistance(center, radius)
    eps = np.finfo(float).eps
    for gamma, X in _batches(rng, lambda g: _edge_rows(center, radius, g)):
        got, ref = fn.prox(gamma, X), _ref_ball_distance(center, radius, gamma, X)
        scale = np.maximum(np.abs(X).max(axis=-1), np.abs(center).max() + radius)
        assert np.all(np.abs(got - ref) <= 4 * eps * scale[:, None])
    # the center itself and the points within the ball do not move
    inside = _edge_rows(center, radius, 1.0)[:3]
    np.testing.assert_array_equal(fn.prox(1.0, inside), inside)


# -- a hypothesis property ----------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=2,
        max_size=2,
    ),
    st.floats(min_value=0.1, max_value=5.0),
)
def test_soft_threshold_is_prox(entries, gamma):
    x = np.asarray(entries)
    f = L1Norm(2)
    p = f.prox(gamma, x)
    base = np.abs(p).sum() + np.linalg.norm(x - p) ** 2 / (2 * gamma)
    for delta in (np.array([1e-3, 0.0]), np.array([0.0, -1e-3]), x / 2 - p):
        z = p + delta
        trial = np.abs(z).sum() + np.linalg.norm(x - z) ** 2 / (2 * gamma)
        assert base <= trial + 1e-9
