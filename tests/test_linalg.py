import numpy as np
import pytest

from proxmix import DenseMap, as_vector, pseudo_inverse_small
from proxmix.errors import DimensionError, ShapeError


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
    assert DenseMap.identity(3).operator_norm(1e-10) == pytest.approx(1.0, abs=1e-9)
    d = DenseMap([[0.5, 0.0], [0.0, 0.3]])
    assert d.operator_norm(1e-10) == pytest.approx(0.5, abs=1e-9)


def test_operator_norm_example1_vs_quadratic_roots():
    L = example1_operator()
    expected = two_by_two_spectral_norm(L.entries.T @ L.entries)
    assert L.operator_norm(1e-12) == pytest.approx(expected, rel=1e-9)


def test_operator_norm_zero_matrix():
    assert DenseMap(np.zeros((2, 3))).operator_norm() == 0.0


def test_operator_norm_near_degenerate_top_pair():
    # singular values 0.673919 and 0.673788: power iteration runs out of
    # budget, so the norm comes from the singular value decomposition
    L = DenseMap(
        [
            [-0.36426265551393977, 0.566966514362111],
            [0.5669440696375728, 0.364133821218282],
        ]
    )
    sv = np.linalg.svd(L.entries, compute_uv=False)
    assert sv[0] - sv[1] == pytest.approx(1.31e-4, abs=1e-6)
    assert L.operator_norm() == sv[0]
    assert L.norm_estimate == sv[0]
    assert L.norm_bound == pytest.approx(sv[0], rel=2e-9)


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
