import numpy as np
import pytest

from proxmix import DenseMap, Quadratic, SubspaceIndicator, as_vector, pseudo_inverse_small
from proxmix.errors import DimensionError, ShapeError
from proxmix.compositions import _injective_adjoint


def example1_operator():
    return DenseMap(
        [[0.0, 0.5], [-0.5, 0.0], [0.0, -0.5], [0.3, 0.4], [0.1, -0.3]]
    )


def test_apply_identity():
    L = DenseMap.identity(2)
    assert np.allclose(L.apply([3.0, 4.0]), [3.0, 4.0])


def test_apply_scalar_scaling():
    L = DenseMap([[0.5]])
    assert np.allclose(L.apply([2.0]), [1.0])


def test_apply_example1_at_origin():
    L = example1_operator()
    assert np.allclose(L.apply([0.0, 0.0]), np.zeros(5))


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionError):
        DenseMap.identity(2).apply([1.0, 2.0, 3.0])


def test_adjoint_identity_random_pairs():
    rng = np.random.default_rng(0)
    M = DenseMap(rng.normal(size=(3, 2)))
    for _ in range(100):
        x = rng.normal(size=2)
        y = rng.normal(size=3)
        lhs = np.dot(M.apply(x), y)
        rhs = np.dot(x, M.adjoint_apply(y))
        assert abs(lhs - rhs) <= 1e-12 * (
            1 + np.linalg.norm(x) * np.linalg.norm(y)
        )


def test_adjoint_trivial_cases():
    assert np.allclose(DenseMap.identity(2).adjoint_apply([3.0, 4.0]), [3.0, 4.0])
    assert np.allclose(DenseMap([[0.5]]).adjoint_apply([1.0]), [0.5])


def two_by_two_spectral_norm(gram):
    # closed-form largest eigenvalue of a symmetric 2x2 matrix
    tr = gram[0, 0] + gram[1, 1]
    det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
    lam = 0.5 * (tr + np.sqrt(tr * tr - 4 * det))
    return float(np.sqrt(lam))


def test_operator_norm_identity_and_diagonal():
    assert DenseMap.identity(3).operator_norm() == pytest.approx(1.0, abs=1e-9)
    d = DenseMap([[0.5, 0.0], [0.0, 0.3]])
    assert d.operator_norm() == pytest.approx(0.5, abs=1e-9)


def test_operator_norm_example1_vs_quadratic_roots():
    L = example1_operator()
    expected = two_by_two_spectral_norm(L.entries.T @ L.entries)
    assert L.operator_norm() == pytest.approx(expected, rel=1e-9)


def test_operator_norm_zero_matrix():
    assert DenseMap(np.zeros((2, 3))).operator_norm() == 0.0


@pytest.mark.parametrize(
    "entries, top_gap",
    [
        # singular values 0.673919 and 0.673788, within 2e-4 of each other
        (
            [
                [-0.36426265551393977, 0.566966514362111],
                [0.5669440696375728, 0.364133821218282],
            ],
            1.31e-4,
        ),
        (0.7 * np.eye(2), 0.0),  # equal singular values
        (np.outer([0.6, -0.8, 0.0], [0.3, 0.4]), 0.5),  # rank 1
        (np.zeros((2, 3)), 0.0),
    ],
    ids=["near-degenerate", "scaled-identity", "rank-1", "zero"],
)
def test_operator_norm_is_top_singular_value(entries, top_gap):
    L = DenseMap(entries)
    sv = np.linalg.svd(L.entries, full_matrices=False)[1]  # as thin_svd takes it
    assert sv[0] - sv[1] == pytest.approx(top_gap, abs=1e-6)
    assert L.operator_norm() == sv[0]
    assert L.norm_estimate == sv[0]
    assert L.norm_bound == pytest.approx(sv[0], rel=2e-9)


def _c_ordered_constants(rng):
    """``(stored constant, the transposed view it replaces)`` per product site."""
    L = DenseMap(rng.normal(size=(5, 3)))
    q = Quadratic(np.cov(rng.normal(size=(3, 6))))
    s = SubspaceIndicator(np.linalg.qr(rng.normal(size=(3, 2)))[0])
    return {
        "DenseMap.apply": (L.adjoint_entries, L.entries.T),
        "Quadratic._prox": (q._eigvecs_t, q._eigvecs.T),
        "SubspaceIndicator._project": (s._basis_t, s.basis.T),
    }


@pytest.mark.parametrize(
    "site", ["DenseMap.apply", "Quadratic._prox", "SubspaceIndicator._project"]
)
def test_constant_matrices_are_c_ordered_with_the_same_products(site):
    rng = np.random.default_rng(21)
    stored, view = _c_ordered_constants(rng)[site]
    assert stored.flags.c_contiguous and not view.flags.c_contiguous
    assert np.array_equal(stored, view)
    eps = np.finfo(float).eps
    for n in (1, 2, 7, 10_201):
        x = rng.normal(size=(n, view.shape[0]))
        got, ref = x @ stored, x @ view
        if n == 1:  # a matrix-vector product may sum in another order
            assert np.all(np.abs(got - ref) <= 4 * eps * (np.abs(x) @ np.abs(view)))
        else:
            assert np.array_equal(got, ref)


def test_adjoint_entries_are_built_once_and_read_only():
    L = example1_operator()
    assert L.adjoint_entries is L.adjoint_entries
    assert not L.adjoint_entries.flags.writeable


@pytest.mark.parametrize("entries", [
    [[0.5, 0.1], [-0.2, 0.4]],
    [[0.6, 0.0]],
    [[0.3, -0.1, 0.2], [0.0, 0.5, 0.1]],
], ids=["square", "one-row", "wide"])
def test_fiber_map_solves_for_the_fiber_point(entries):
    # x = L* y has the single fiber point y = (x R) Q*, from the isometric factor
    L = DenseMap(entries)
    Q, R = L.isometric_factor
    assert L.isometric_factor[0] is Q and R.shape == (L.cols, L.rows)
    assert Q.entries.shape == (L.rows, L.rows)
    assert R.flags.c_contiguous and not R.flags.writeable
    Y = np.random.default_rng(8).normal(size=(5, L.rows))
    np.testing.assert_allclose(Q.apply(L.adjoint_apply(Y) @ R), Y, rtol=0, atol=1e-14)


@pytest.mark.parametrize("entries", [
    example1_operator().entries,  # tall
    [[0.5], [0.0]],  # tall
    [[0.3, 0.1, 0.2], [0.6, 0.2, 0.4]],  # wide, rank 1
    [[0.0, 0.0, 0.0], [0.0, 0.4, 0.1]],  # wide, a zero row
], ids=["example1", "tall-column", "wide-rank-1", "zero-row"])
def test_fiber_map_is_none_without_an_injective_adjoint(entries):
    # the fiber map x -> (x R) Q* needs rows <= cols and a full-rank factor;
    # without one the range factor still reparametrizes the fiber at rank r
    L = DenseMap(entries)
    assert not _injective_adjoint(L)
    Q, R = L.isometric_factor
    rank = np.linalg.matrix_rank(L.entries)
    assert Q.entries.shape == (L.rows, rank) and R.shape == (L.cols, rank)
    np.testing.assert_allclose(Q.entries.T @ Q.entries, np.eye(rank), atol=1e-14)
    np.testing.assert_allclose(L.entries @ R, Q.entries, atol=1e-14)


def test_one_thin_svd_serves_every_factor(monkeypatch):
    from proxmix.compositions import _flat_directions

    calls, svd = [], np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    wide = DenseMap([[0.6, 0.0, 0.8], [0.0, 1.0, 0.0]])  # a coisometry
    tall = DenseMap(wide.entries.T)
    for L in (wide, tall):
        for _ in range(2):
            _ = (L.operator_norm(), L.norm_bound, L.norm_estimate, L.isometric_factor,
                 L.dual_step, _flat_directions(L))
    # the norm, its bound, both factors and the step constants share one SVD
    assert calls == [True, True]
    assert wide.isometric_factor[0].entries.shape == (2, 2)
    assert tall.isometric_factor[0].entries.shape == (3, 2)
    assert _flat_directions(wide).shape == (2, 2)


def test_isometric_factor_reparametrizes_the_fiber():
    L = example1_operator()  # tall, full column rank
    Q, R = L.isometric_factor
    assert L.isometric_factor[0] is Q and R.shape == (L.cols, L.cols)
    assert R.flags.c_contiguous and not R.flags.writeable
    np.testing.assert_allclose(Q.entries.T @ Q.entries, np.eye(L.cols), atol=1e-14)
    np.testing.assert_allclose(L.entries @ R, Q.entries, atol=1e-14)
    # x = L* y exactly when x R = Q* y
    Y = np.random.default_rng(9).normal(size=(5, L.rows))
    np.testing.assert_allclose(L.adjoint_apply(Y) @ R, Q.adjoint_apply(Y), atol=1e-13)


@pytest.mark.parametrize("entries", [
    [[0.5, 0.1], [-0.2, 0.4], [0.1, -0.3]],  # tall
    [[0.3, 0.1, 0.2], [0.6, 0.2, 0.4]],  # wide, rank 1
    [[0.6, 0.0, 0.8]],  # one row, LL* = I: the floor 1e-2
    [[0.5, 0.1], [-0.2, 0.4]],
], ids=["tall", "wide-rank-1", "coisometry", "square"])
def test_dual_step_bounds_the_gram_complement(entries):
    L = DenseMap(entries)
    lam, G = L.dual_step
    complement = np.eye(L.rows) - L.gram
    assert np.linalg.norm(complement, 2) <= lam <= 1.0
    assert not G.flags.writeable and L.dual_step[1] is G
    if lam == 1.0:
        assert G is L.gram
    else:
        np.testing.assert_allclose(G, np.eye(L.rows) - complement / lam, atol=1e-15)
        assert lam == pytest.approx(max(np.linalg.norm(complement, 2), 1e-2) + 1e-9, rel=1e-12)


def test_norm_certificate_random_unit_vectors():
    rng = np.random.default_rng(1)
    L = DenseMap(rng.normal(size=(4, 3)))
    bound = L.norm_bound
    for _ in range(100):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert np.linalg.norm(L.apply(x)) <= bound * (1 + 1e-12)


def test_gram_complement_coisometry_annihilates():
    q, _ = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 1)))
    co = DenseMap(q.T)  # L L* = identity on the 1-D target
    y = np.array([0.7])
    assert np.allclose(co.gram_complement_apply(y), 0.0, atol=1e-12)


def test_gram_complement_scalar_value():
    L = DenseMap([[0.5]])
    assert np.allclose(L.gram_complement_apply([1.0]), [0.75])


def test_gram_complement_projection_split():
    # for a projection, the complement acts as the opposite projection
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 1)))
    proj = DenseMap(q @ q.T)
    v = q[:, 0]
    w = np.array([-v[1], v[0]])
    assert np.allclose(proj.gram_complement_apply(v), 0.0, atol=1e-12)
    assert np.allclose(proj.gram_complement_apply(w), w, atol=1e-12)


def test_gram_complement_psd_direction():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 2))
    L = DenseMap(m / np.linalg.svd(m, compute_uv=False)[0])
    for _ in range(50):
        y = rng.normal(size=3)
        assert np.dot(y, L.gram_complement_apply(y)) >= -1e-10


def test_pseudo_inverse_identity_and_diagonal():
    pi = pseudo_inverse_small(np.eye(2))
    assert np.allclose(pi.map.entries, np.eye(2))
    pd = pseudo_inverse_small(np.diag([2.0, 0.0]))
    assert np.allclose(pd.map.entries, np.diag([0.5, 0.0]))
    assert pd.rank == 1


def test_pseudo_inverse_penrose_conditions():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(3, 2))
    a = m @ m.T  # rank 2 PSD
    pi = pseudo_inverse_small(a)
    ap = pi.map.entries
    assert np.abs(a @ ap @ a - a).max() <= 1e-9
    assert np.abs(ap @ a @ ap - ap).max() <= 1e-9
    assert np.abs((a @ ap) - (a @ ap).T).max() <= 1e-9
    # range basis spans the range of a
    proj = pi.range_basis @ pi.range_basis.T
    assert np.abs(proj @ a - a).max() <= 1e-9


def test_pseudo_inverse_rejects_asymmetric():
    with pytest.raises(ShapeError):
        pseudo_inverse_small(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_json_round_trip():
    L = example1_operator()
    again = DenseMap.from_json(L.to_json())
    assert np.array_equal(L.entries, again.entries)


def test_json_shape_mismatch():
    with pytest.raises(ShapeError):
        DenseMap.from_json({"rows": 3, "cols": 2, "entries": [[1.0, 2.0]]})


def test_as_vector_validation():
    with pytest.raises(DimensionError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(DimensionError):
        as_vector([1.0, 2.0], dim=3)
