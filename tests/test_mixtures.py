import numpy as np
import pytest

from proxmix import (
    Affine,
    BallDistance,
    BallSupport,
    BallIndicator,
    DenseMap,
    EuclideanNorm,
    L1Norm,
    MixtureSpec,
    MixtureTerm,
    OracleFunction,
    argmin_cocomposition,
    argmin_gamma_sequence,
    comixture_argmin,
    comixture_argmin_sequence,
    comixture_envelope,
    comixture_eval,
    comixture_eval_batch,
    comixture_prox,
    comixture_recession,
    embed,
    envelope,
    eval_cocomposition_batch,
    grid_min,
    grid_prox,
    mixture_eval,
    mixture_eval_batch,
    mixture_prox,
    pcm_estimate,
    proximal_average,
    prox_cocomposition,
    prox_composition,
    quadratic_kernel,
    sampled_expectation_prox,
)
from proxmix import oracles
from proxmix.compositions import _injective_adjoint
from proxmix.errors import AdmissibilityError, DimensionError, ParameterError
from proxmix.moreau import CONVERGED, DIVERGED, SolverOpts


def average_spec(gamma=1.0):
    return proximal_average([L1Norm(1), quadratic_kernel(1)], [0.5, 0.5], gamma)


def random_mixture(rng, base=1, p=2):
    terms = []
    raw = rng.uniform(0.3, 1.0, size=p)
    ops = []
    for _ in range(p):
        rows = int(rng.integers(1, 3))
        m = rng.normal(size=(rows, base))
        ops.append(DenseMap(m * (rng.uniform(0.3, 0.9) / np.linalg.svd(m, compute_uv=False)[0])))
    budget = sum(a * op.norm_estimate**2 for a, op in zip(raw, ops))
    alphas = raw / budget * rng.uniform(0.6, 1.0)
    for a, op in zip(alphas, ops):
        fn = EuclideanNorm(op.rows).translate(rng.normal(size=op.rows))
        terms.append(MixtureTerm(float(a), op, fn))
    return MixtureSpec(terms, float(rng.uniform(0.4, 2.0)))


# -- spec validation -----------------------------------------------------------


def test_weight_budget_guard():
    with pytest.raises(AdmissibilityError):
        MixtureSpec(
            [
                MixtureTerm(1.0, DenseMap.identity(1), L1Norm(1)),
                MixtureTerm(1.0, DenseMap.identity(1), L1Norm(1)),
            ],
            1.0,
        )


def test_probability_weights_with_isometries_accepted():
    spec = average_spec()
    assert spec.gamma == 1.0


@pytest.mark.parametrize("gamma", [np.inf, np.nan])
def test_mixture_spec_rejects_non_finite_gamma(gamma):
    with pytest.raises(ParameterError, match="finite and positive"):
        MixtureSpec([MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1))], gamma)


def test_terms_must_share_base_dimension():
    with pytest.raises(ParameterError):
        MixtureSpec(
            [
                MixtureTerm(0.4, DenseMap.identity(1), L1Norm(1)),
                MixtureTerm(0.4, DenseMap.identity(2), L1Norm(2)),
            ],
            1.0,
        )


def test_json_round_trip():
    spec = average_spec(0.7)
    again = MixtureSpec.from_json(spec.to_json())
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=1)
        assert np.allclose(mixture_prox(spec, x), mixture_prox(again, x))


# -- embedding ------------------------------------------------------------------


def test_embed_single_identity_term():
    spec = MixtureSpec([MixtureTerm(1.0, DenseMap.identity(1), L1Norm(1))], 1.0)
    emb = embed(spec)
    assert np.allclose(emb.stacked_map.entries, np.eye(1))
    x = np.array([2.0])
    assert mixture_eval(spec, x).value == pytest.approx(
        float(np.abs(x).sum()), abs=1e-8
    )


def test_embed_two_terms_stacks_scaled_rows():
    emb = embed(average_spec())
    assert np.allclose(emb.stacked_map.entries, [[np.sqrt(0.5)], [np.sqrt(0.5)]])


def test_embed_is_built_once_per_spec():
    rng = np.random.default_rng(4)
    spec = random_mixture(rng, base=2, p=3)
    emb = embed(spec)
    assert embed(spec) is emb
    fresh = embed(MixtureSpec(spec.terms, spec.gamma))
    assert fresh is not emb
    assert np.array_equal(emb.stacked_map.entries, fresh.stacked_map.entries)
    Y = rng.normal(size=(5, emb.stacked_fn.dim))
    assert np.array_equal(emb.stacked_fn(Y), fresh.stacked_fn(Y))
    assert np.array_equal(emb.stacked_fn.prox(0.8, Y), fresh.stacked_fn.prox(0.8, Y))
    assert emb.composition.gamma == fresh.composition.gamma == spec.gamma
    x = rng.normal(size=2)
    assert mixture_eval(spec, x).value == mixture_eval(MixtureSpec(spec.terms, spec.gamma), x).value
    # a new parameter is a new spec with its own embedding
    assert embed(spec.with_gamma(2.0)).composition.gamma == 2.0


def test_spec_attributes_cannot_be_assigned():
    # the embedding is cached on the spec, so a changed gamma or term list
    # would be silently ignored by later calls
    spec = average_spec()
    emb = embed(spec)
    for name, value in (("gamma", 2.0), ("terms", ()), ("base_dim", 3), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(spec, name, value)
    assert spec.gamma == emb.composition.gamma and embed(spec) is emb


def test_embed_norm_inequality():
    rng = np.random.default_rng(1)
    for _ in range(20):
        spec = random_mixture(rng, base=int(rng.integers(1, 3)), p=int(rng.integers(1, 4)))
        emb = embed(spec)
        budget = sum(t.alpha * t.operator.norm_estimate**2 for t in spec.terms)
        assert emb.stacked_map.norm_estimate**2 <= budget + 1e-9


# -- evaluation -------------------------------------------------------------------


def test_proximal_average_mixture_equals_comixture():
    spec = average_spec()
    x = np.array([2.0])
    assert mixture_eval(spec, x).value == pytest.approx(
        comixture_eval(spec, x).value, abs=1e-6
    )


@pytest.mark.parametrize("fns, weights", [
    ([L1Norm(1), L1Norm(1), quadratic_kernel(1)], [0.5, 0.5]),
    ([L1Norm(1)], [0.5, 0.5]),
])
def test_proximal_average_needs_one_weight_per_function(fns, weights):
    with pytest.raises(ParameterError, match="functions but"):
        proximal_average(fns, weights, 1.0)


def test_reduction_consistency_both_paths():
    rng = np.random.default_rng(2)
    for _ in range(25):
        spec = random_mixture(rng)
        x = rng.normal(size=spec.base_dim)
        res = mixture_eval(spec, x)
        if np.isfinite(res.value):
            assert res.paths_gap <= 2e-6
        cres = comixture_eval(spec, x)
        assert cres.paths_gap <= 2e-6


def test_mixture_with_an_injective_stacked_adjoint_is_exact():
    # two one-row terms on a three-dimensional base: the stacked map has
    # full row rank, so the embedding's composition runs no iteration
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(10):
        spec = random_mixture(rng, base=3)
        L = embed(spec).composition.operator
        if not _injective_adjoint(L):
            continue
        ys = rng.normal(size=(4, embed(spec).composition.operator.rows))
        for x in ys @ embed(spec).composition.operator.entries:
            res = mixture_eval(spec, x)
            assert (res.embedding.status, res.embedding.iterations) == (CONVERGED, 0)
            assert res.direct.status == CONVERGED
            assert res.paths_gap <= 1e-9
            checked += 1
    assert checked >= 12


BATCH_FORMS = [(mixture_eval_batch, mixture_eval), (comixture_eval_batch, comixture_eval)]


def assert_batch_matches_single(spec, X):
    for batch, single in BATCH_FORMS:
        values, status, iters = batch(spec, X)
        for row, x in enumerate(X):
            rep = single(spec, x).embedding
            assert (rep.status, rep.iterations) == (status[row], iters[row])
            assert values[row] == pytest.approx(rep.value, rel=0, abs=1e-12)


@pytest.mark.parametrize("p", [2, 3])
def test_batch_forms_match_single_calls(p):
    rng = np.random.default_rng(40 + p)
    for _ in range(4):
        spec = random_mixture(rng, base=2, p=p)
        assert_batch_matches_single(spec, rng.normal(size=(6, 2)))


def test_batch_forms_range_infeasible_row():
    spec = MixtureSpec(
        [
            MixtureTerm(0.5, DenseMap([[1.0, 0.0], [0.0, 0.0]]), EuclideanNorm(2)),
            MixtureTerm(0.5, DenseMap([[0.5, 0.0]]), L1Norm(1)),
        ],
        1.0,
    )
    X = np.array([[1.0, 0.0], [3.0, 4.0], [-2.0, 0.0]])
    values, status, _ = mixture_eval_batch(spec, X)
    assert list(status) == [CONVERGED, DIVERGED, CONVERGED] and values[1] == np.inf
    assert_batch_matches_single(spec, X)


@pytest.mark.parametrize("batch", [mixture_eval_batch, comixture_eval_batch])
@pytest.mark.parametrize("X", [np.ones((3, 1)), np.ones(2)], ids=["short-rows", "1-D"])
def test_batch_forms_reject_wrong_shape(batch, X):
    spec = random_mixture(np.random.default_rng(0), base=2)
    with pytest.raises(DimensionError):
        batch(spec, X)


def count_calls(monkeypatch, name):
    calls = []
    original = getattr(oracles, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracles, name, counted)
    return calls


@pytest.mark.parametrize(
    "evaluate, direct",
    [(mixture_eval, "_mixture_direct"), (comixture_eval, "_comixture_direct")],
)
@pytest.mark.parametrize("first", ["direct", "paths_gap"])
def test_per_term_path_runs_once_when_read(monkeypatch, evaluate, direct, first):
    calls = count_calls(monkeypatch, direct)
    res = evaluate(average_spec(), np.array([2.0]))
    assert res.embedding.status == CONVERGED and calls == []
    getattr(res, first)
    assert len(calls) == 1
    assert res.paths_gap <= 2e-6
    assert res.direct.value == pytest.approx(res.value, abs=2e-6)
    assert len(calls) == 1


def test_paths_gap_of_infeasible_mixture_skips_per_term_path(monkeypatch):
    calls = count_calls(monkeypatch, "_mixture_direct")
    # x lies outside the range of the adjoint, so the mixture is +inf
    spec = MixtureSpec(
        [MixtureTerm(1.0, DenseMap([[1.0, 0.0], [0.0, 0.0]]), EuclideanNorm(2))], 1.0
    )
    res = mixture_eval(spec, np.array([3.0, 4.0]))
    assert res.embedding.status == DIVERGED and res.value == np.inf
    assert res.paths_gap == 0.0
    assert calls == []


@pytest.mark.parametrize("evaluate", [mixture_eval, comixture_eval])
def test_cross_check_uses_the_point_at_evaluation(evaluate):
    spec = average_spec()
    x = np.array([2.0])
    res = evaluate(spec, x)
    x[:] = -7.0  # a caller reusing its buffer before reading the cross-check
    assert res.paths_gap <= 2e-6
    assert res.value == pytest.approx(evaluate(spec, np.array([2.0])).value, abs=1e-12)
    assert abs(res.direct.value - evaluate(spec, x).value) > 1e-3


@pytest.mark.parametrize("evaluate", [mixture_eval, comixture_eval])
def test_cross_check_of_an_oracle_term_needs_no_conjugate(evaluate):
    # an OracleFunction term, which has no conjugate: both cross-checks take
    # their values at prox points, so reading them evaluates no g*
    l1 = L1Norm(2)
    spec = MixtureSpec(
        [
            MixtureTerm(
                0.6, DenseMap([[0.8, 0.1], [-0.2, 0.5]]), OracleFunction(2, l1, prox_fn=l1.prox)
            ),
            MixtureTerm(0.4, DenseMap([[0.3, -0.6]]), EuclideanNorm(1).translate([0.5])),
        ],
        0.7,
    )
    res = evaluate(spec, [0.9, -1.3])
    assert res.direct.status == CONVERGED and np.isfinite(res.direct.value)
    assert res.paths_gap <= 1e-12


def test_comixture_cross_check_escapes_on_unscaled_blocks(monkeypatch):
    # block 1 has weight 0.01, so y_1 = u_1 / sqrt(0.01) = 10 u_1
    spec = MixtureSpec(
        [
            MixtureTerm(0.01, DenseMap([[5.0]]), BallIndicator(np.array([0.0]), 1.0)),
            MixtureTerm(0.5, DenseMap.identity(1), BallIndicator(np.array([0.0]), 1.0)),
        ],
        1.0,
    )
    captured = {}

    def no_iteration(step, z, opts, escaped=None):
        captured["escaped"] = escaped
        return z, np.zeros(1, dtype=np.int8), np.zeros(1, dtype=int), np.ones(1)  # 'max_iter'

    monkeypatch.setattr(oracles, "_fista", no_iteration)
    oracles._comixture_direct(spec, np.array([1.0]), SolverOpts(divergence_radius=10.0))
    escaped = captured["escaped"]
    u = np.array([[2.0, 0.0]])  # ||u|| = 2, but ||y_1|| = 20 > 10
    assert escaped(u, u).tolist() == [True]
    assert escaped(u / 4.0, u).tolist() == [False]  # ||y_1|| = 5


def test_comixture_cross_check_converges_only_at_a_fixed_point():
    # the residual was measured from the previous iterate: the clamping
    # ball-support prox read 0 at iteration 5, and the cross-check stopped
    # 'converged' 2.86e-5 below the embedding's value
    spec = MixtureSpec(
        [
            MixtureTerm(
                1.0508805519048718,
                DenseMap([[0.4014126177406561], [0.6340952663670208]]),
                L1Norm(2).scale_val(0.5218614153394368),
            ),
            MixtureTerm(
                1.4060561577666117,
                DenseMap([[-0.5173235728038459]]),
                BallSupport([-0.33330996748408476], 0.17360096071143016),
            ),
        ],
        2.1288326339719714,
    )
    res = comixture_eval(spec, [0.7492930912049858])
    assert res.embedding.status == res.direct.status == CONVERGED
    assert res.direct.iterations == 13
    assert res.paths_gap <= 1e-12
    assert res.value == pytest.approx(0.641726893020638, rel=1e-12)


def test_two_term_scalar_vs_constrained_grid():
    # independent oracle through the embedding fiber
    spec = MixtureSpec(
        [
            MixtureTerm(0.5, DenseMap([[0.8]]), L1Norm(1)),
            MixtureTerm(0.5, DenseMap([[0.6]]), quadratic_kernel(1)),
        ],
        1.0,
    )
    emb = embed(spec)
    x = np.array([0.4])

    def stacked_obj(Y):
        return np.asarray(emb.stacked_fn(Y)) + emb.composition.defect(Y) / spec.gamma

    # search the one-dimensional fiber of the stacked adjoint
    adj = emb.stacked_map.entries.T
    y0, *_ = np.linalg.lstsq(adj, x, rcond=None)
    _, _, vh = np.linalg.svd(adj, full_matrices=True)
    null = vh[1:].T
    ts = np.linspace(-8, 8, 200001)
    ys = y0[None, :] + ts[:, None] @ null.T
    oracle = float(np.min(stacked_obj(ys)))
    assert mixture_eval(spec, x).value == pytest.approx(oracle, abs=1e-4)


# -- prox decompositions -----------------------------------------------------------


def test_proximal_average_prox_worked_value():
    spec = average_spec()
    assert np.allclose(mixture_prox(spec, [2.0]), [1.0])


def test_prox_sums_match_embedding_exactly():
    rng = np.random.default_rng(3)
    for _ in range(25):
        spec = random_mixture(rng, base=int(rng.integers(1, 3)))
        emb = embed(spec)
        x = rng.normal(size=spec.base_dim) * 2
        assert np.linalg.norm(
            mixture_prox(spec, x) - prox_composition(emb.composition, x)
        ) <= 1e-10
        assert np.linalg.norm(
            comixture_prox(spec, x) - prox_cocomposition(emb.composition, x)
        ) <= 1e-10


def test_comixture_prox_grid_oracle():
    spec = MixtureSpec(
        [
            MixtureTerm(0.5, DenseMap([[0.7]]), L1Norm(1)),
            MixtureTerm(0.5, DenseMap([[0.9]]), EuclideanNorm(1).translate([1.0])),
        ],
        1.0,
    )
    emb = embed(spec)
    x = np.array([1.5])
    got = comixture_prox(spec, x)

    def covals(Y):
        return eval_cocomposition_batch(emb.composition, Y)[0]

    oracle = grid_prox(lambda Y: covals(Y), 1.0, x, [0.0], [3.0], 2001)
    assert abs(got[0] - oracle[0]) <= 3e-3


# -- envelopes, recession, argmin ---------------------------------------------------


def test_comixture_envelope_single_term_reduction():
    spec = MixtureSpec([MixtureTerm(1.0, DenseMap.identity(1), L1Norm(1))], 0.9)
    x = np.array([1.4])
    assert comixture_envelope(spec, x) == pytest.approx(
        float(envelope(L1Norm(1), 0.9, x)), abs=1e-12
    )


def test_comixture_envelope_huber_sum_vs_grid():
    spec = average_spec()
    emb = embed(spec)
    x = np.array([1.2])
    got = comixture_envelope(spec, x)
    assert got == pytest.approx(
        float(envelope(emb.stacked_fn, 1.0, emb.stacked_map.apply(x))), abs=1e-12
    )
    ys = np.linspace(-5, 5, 200001)[:, None]
    vals, _, _ = eval_cocomposition_batch(emb.composition, ys)
    oracle = float(np.min(vals + (ys[:, 0] - x[0]) ** 2 / 2.0))
    assert got == pytest.approx(oracle, abs=1e-4)


def test_comixture_recession_sums():
    spec = MixtureSpec(
        [
            MixtureTerm(0.5, DenseMap([[0.8]]), EuclideanNorm(1)),
            MixtureTerm(0.5, DenseMap([[0.5]]), EuclideanNorm(1)),
        ],
        1.0,
    )
    assert comixture_recession(spec, [2.0]) == pytest.approx(
        0.5 * 1.6 + 0.5 * 1.0
    )


def test_comixture_recession_proximal_average_case():
    spec = average_spec()
    # weighted sum of the recession functions; the quadratic contributes
    # the kernel indicator, so nonzero points blow up
    assert comixture_recession(spec, [1.0]) == np.inf
    assert comixture_recession(spec, [0.0]) == 0.0


def test_comixture_argmin_single_quadratic():
    spec = MixtureSpec(
        [MixtureTerm(1.0, DenseMap.identity(1), quadratic_kernel(1).translate([0.7]))],
        1.0,
    )
    rep = comixture_argmin(spec)
    assert rep.status == CONVERGED
    assert np.allclose(rep.argpoint, [0.7], atol=1e-7)


def test_comixture_argmin_two_kinks():
    terms = [
        MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1).translate([1.0])),
        MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1).translate([-1.0])),
    ]
    spec = MixtureSpec(terms, 1.0)
    rep = comixture_argmin(spec)
    ref, _ = grid_min(
        lambda Z: 0.5 * np.abs(Z - 1.0).reshape(-1) + 0.5 * np.abs(Z + 1.0).reshape(-1),
        [-4.0],
        [4.0],
        2001,
    )
    # the envelope-sum infimum sits within the average-objective minimum
    assert rep.value <= ref + 1e-6
    obj = 0.5 * abs(rep.argpoint[0] - 1) + 0.5 * abs(rep.argpoint[0] + 1)
    assert obj <= ref + 1e-6


def test_comixture_argmin_sequence_reaches_average_min():
    terms = [
        MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1).translate([1.0])),
        MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1).translate([1.0]).scale_val(2.0)),
    ]
    ref = 0.0
    rep = comixture_argmin_sequence(
        terms, [2.0**-n for n in range(13)], reference=ref
    )
    assert abs(rep.infima[-1] - ref) <= 1e-4


def _report_fields(rep):
    return rep.value, rep.argpoint.tolist(), rep.iterations, rep.status, rep.residual


def test_comixture_argmin_is_the_embedding_argmin():
    # the comixture is the cocomposition of its embedding; a budget step
    # sum_k alpha_k ||L_k||^2 / gamma would differ from ||S||^2 / gamma here
    rng = np.random.default_rng(36)
    for base in (2, 2, 3, 3):
        spec = random_mixture(rng, base=base, p=int(rng.integers(2, 4)))
        budget = sum(t.alpha * t.operator.norm_bound**2 for t in spec.terms)
        assert embed(spec).stacked_map.norm_bound**2 < budget - 1e-3
        x0 = rng.normal(size=base)
        for start in (None, x0):
            rep = comixture_argmin(spec, x0=start)
            expected = argmin_cocomposition(embed(spec).composition, x0=start)
            assert _report_fields(rep) == _report_fields(expected)


def test_comixture_argmin_sequence_is_the_embedding_sequence():
    rng = np.random.default_rng(37)
    gammas = [2.0**-n for n in range(0, 9)]
    for base, reference in ((1, 0.0), (2, None), (2, 0.5)):
        spec = random_mixture(rng, base=base, p=3)
        rep = comixture_argmin_sequence(spec.terms, gammas, reference=reference)
        emb = embed(MixtureSpec(spec.terms, 1.0))
        expected = argmin_gamma_sequence(emb.stacked_map, emb.stacked_fn, gammas, reference=reference)
        assert rep.gammas.tolist() == expected.gammas.tolist()
        assert rep.infima.tolist() == expected.infima.tolist()
        assert (rep.reference, rep.final_gap) == (expected.reference, expected.final_gap)


@pytest.mark.parametrize("reference", [0.0, None])
def test_comixture_argmin_sequence_rejects_an_empty_parameter_list(reference):
    with pytest.raises(ParameterError, match="at least one parameter"):
        comixture_argmin_sequence(average_spec().terms, [], reference=reference)


# -- pcm and sampling ---------------------------------------------------------------


def test_pcm_estimate_rejects_an_empty_tail():
    # it used to report a monotone tail of no values
    with pytest.raises(ParameterError, match="at least one parameter"):
        pcm_estimate(average_spec(), [0.5], [])


def test_pcm_single_invertible_term():
    spec = MixtureSpec([MixtureTerm(1.0, DenseMap([[0.5]]), L1Norm(1))], 1.0)
    rep = pcm_estimate(spec, [0.5], [2.0**k for k in range(0, 11, 2)])
    # unique feasible point of the weighted constraint: y = x / 0.5 = 1
    assert rep.oracle == pytest.approx(1.0, abs=1e-9)
    assert rep.monotone
    assert abs(rep.final_gap) <= 1e-3


def test_pcm_oracle_of_a_g_unbounded_below():
    # the fiber of the stacked map is a vertical line, along which
    # g = y2 decreases without bound: the grid reported its edge
    spec = MixtureSpec([MixtureTerm(1.0, DenseMap([[0.6], [0.0]]), Affine([0.0, 1.0]))], 1.0)
    rep = pcm_estimate(spec, [0.3], [1.0, 4.0, 64.0])
    assert (rep.oracle, rep.oracle_witness, rep.final_gap) == (-np.inf, None, np.inf)


def test_pcm_two_term_instance():
    spec = MixtureSpec(
        [
            MixtureTerm(0.6, DenseMap([[0.7]]), EuclideanNorm(1).translate([0.4])),
            MixtureTerm(0.4, DenseMap([[0.5]]), BallDistance([0.2], 0.3)),
        ],
        1.0,
    )
    rep = pcm_estimate(spec, [0.3], [2.0**k for k in range(0, 13, 2)])
    assert rep.monotone
    assert rep.oracle is not None
    assert -1e-3 <= rep.final_gap <= 2e-3


def test_sampled_expectation_degenerate():
    fn = L1Norm(1).translate([0.5])
    est = sampled_expectation_prox(lambda rng: fn, seed=1, n_samples=10,
                                   gamma=1.0, x=np.array([2.0]))
    assert np.allclose(est.mean, fn.prox(1.0, np.array([2.0])))
    assert np.allclose(est.stderr, 0.0)


def test_sampled_expectation_matches_enumeration():
    fns = [L1Norm(1).translate([w]) for w in (-1.0, 0.0, 1.0)]
    x = np.array([0.5])  # the three proxes genuinely differ here
    gamma = 1.0
    exact = mixture_prox(proximal_average(fns, np.ones(3) / 3, gamma), x)
    # enumeration: mean of the three proxes
    manual = np.mean([f.prox(gamma, x) for f in fns], axis=0)
    assert np.allclose(exact, manual, atol=1e-14)

    def draw(rng):
        return fns[int(rng.integers(0, 3))]

    est = sampled_expectation_prox(draw, seed=7, n_samples=10_000, gamma=gamma, x=x)
    assert np.all(np.abs(est.mean - exact) <= 3 * est.stderr + 1e-12)


def test_sampled_expectation_needs_two_samples():
    with pytest.raises(ParameterError):
        sampled_expectation_prox(lambda rng: L1Norm(1), 0, 1, 1.0, np.zeros(1))


@pytest.mark.parametrize("n_samples", [2.5, 2.0, True, "3", None, np.float64(4.0)])
def test_sampled_expectation_needs_an_integer_sample_count(n_samples):
    # 2.5 ended in a TypeError from np.empty; a bool or a float is no count
    with pytest.raises(ParameterError):
        sampled_expectation_prox(lambda rng: L1Norm(1), 0, n_samples, 1.0, np.zeros(1))
    est = sampled_expectation_prox(lambda rng: L1Norm(1), 0, np.int64(3), 1.0, np.ones(1))
    assert est.n_samples == 3 and type(est.n_samples) is int


# -- parameter lists as one solve ---------------------------------------------------


def test_comixture_argmin_sequence_is_one_solve(kernel_calls):
    rng = np.random.default_rng(34)
    gammas = [2.0**-n for n in range(0, 9)]
    for base in (1, 2, 1, 2):
        spec = random_mixture(rng, base=base, p=int(rng.integers(1, 4)))
        del kernel_calls[:]
        rep = comixture_argmin_sequence(spec.terms, gammas, reference=0.0)
        assert kernel_calls == [len(gammas)]
        expected = [comixture_argmin(MixtureSpec(spec.terms, g)).value for g in rep.gammas]
        assert list(rep.infima) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_pcm_estimate_tail_is_one_solve(kernel_calls):
    rng = np.random.default_rng(35)
    tail = [2.0**k for k in range(0, 11)]
    for _ in range(4):
        spec = random_mixture(rng, base=1, p=2)
        x = rng.normal(size=1)
        del kernel_calls[:]
        rep = pcm_estimate(spec, x, tail, oracle_steps=51)
        assert kernel_calls == [len(tail)]
        for gamma, value in zip(rep.gammas, rep.values):
            single = mixture_eval(spec.with_gamma(gamma), x).value
            assert value == pytest.approx(single, rel=1e-12, abs=1e-12)
