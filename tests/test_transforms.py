"""The folded transform wrapper against the nested closed forms it replaces.

Every transform builder folds into one ``TransformedFunction``.  The
reference below keeps the five one-transform wrappers, each peeling its
own closed form off an inner function, so that a stack of ``k`` transforms
is ``k`` nested wrappers.  The fold must give the same oracles on random
stacks, and the same bits for one transform.
"""

import numpy as np
import pytest

from proxmix import (
    Affine,
    BallDistance,
    BallIndicator,
    BallSupport,
    EuclideanNorm,
    L1Norm,
    Quadratic,
    SubspaceIndicator,
)
from proxmix.errors import DimensionError, ParameterError, UnsupportedConjugate
from proxmix.functions import (
    BOUNDARY_TOL,
    MoreauEnvelopeFunction,
    SeparableSum,
    TransformedFunction,
    _dot,
    _norm,
    conjugate_function,
)

# -- the nested reference -------------------------------------------------------


class _Nested:
    """A reference wrapper: ``inner`` under one transform."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def _prox_conjugate(self, gamma, x):
        return x - gamma * self._prox(1.0 / gamma, x / gamma)


class Translated(_Nested):
    """``x -> f(x - w)``."""

    def __init__(self, inner, w):
        super().__init__(inner)
        self.w = np.array(w, dtype=float)

    def _value(self, x):
        return self.inner._value(x - self.w)

    def _prox(self, gamma, x):
        return self.w + self.inner._prox(gamma, x - self.w)

    def _conjugate(self, s):
        return self.inner._conjugate(s) + _dot(s, self.w)

    def _recession(self, x):
        return self.inner._recession(x)

    def lipschitz_bound(self):
        return self.inner.lipschitz_bound()


class ArgScaled(_Nested):
    """``x -> f(rho x)``."""

    def __init__(self, inner, rho):
        super().__init__(inner)
        self.rho = float(rho)

    def _value(self, x):
        return self.inner._value(self.rho * x)

    def _prox(self, gamma, x):
        return self.inner._prox(gamma * self.rho**2, self.rho * x) / self.rho

    def _conjugate(self, s):
        return self.inner._conjugate(s / self.rho)

    def _recession(self, x):
        return self.inner._recession(self.rho * x)

    def lipschitz_bound(self):
        beta = self.inner.lipschitz_bound()
        return None if beta is None else beta * self.rho


class ValueScaled(_Nested):
    """``x -> rho f(x)``."""

    def __init__(self, inner, rho):
        super().__init__(inner)
        self.rho = float(rho)

    def _value(self, x):
        return self.rho * self.inner._value(x)

    def _prox(self, gamma, x):
        return self.inner._prox(gamma * self.rho, x)

    def _conjugate(self, s):
        return self.rho * self.inner._conjugate(s / self.rho)

    def _recession(self, x):
        return self.rho * self.inner._recession(x)

    def lipschitz_bound(self):
        beta = self.inner.lipschitz_bound()
        return None if beta is None else beta * self.rho


class AffineAdded(_Nested):
    """``x -> f(x) + <x, u> + alpha``."""

    def __init__(self, inner, u, alpha=0.0):
        super().__init__(inner)
        self.u = np.array(u, dtype=float)
        self.alpha = float(alpha)

    def _value(self, x):
        return self.inner._value(x) + _dot(x, self.u) + self.alpha

    def _prox(self, gamma, x):
        return self.inner._prox(gamma, x - gamma * self.u)

    def _conjugate(self, s):
        return self.inner._conjugate(s - self.u) - self.alpha

    def _recession(self, x):
        return self.inner._recession(x) + _dot(x, self.u)

    def lipschitz_bound(self):
        beta = self.inner.lipschitz_bound()
        return None if beta is None else beta + float(np.linalg.norm(self.u))


class QuadAdded(_Nested):
    """``x -> f(x) + rho ||x||^2 / 2``."""

    def __init__(self, inner, rho):
        super().__init__(inner)
        self.rho = float(rho)

    def _value(self, x):
        return self.inner._value(x) + 0.5 * self.rho * _norm(x) ** 2

    def _prox(self, gamma, x):
        if self.rho == 0.0:
            return self.inner._prox(gamma, x)
        shrink = 1.0 + gamma * self.rho
        return self.inner._prox(gamma / shrink, x / shrink)

    def _conjugate(self, s):
        if self.rho == 0.0:
            return self.inner._conjugate(s)
        p = self.inner._prox_conjugate(self.rho, s)
        return self.inner._conjugate(p) + 0.5 / self.rho * _norm(s - p) ** 2

    def _recession(self, x):
        if self.rho == 0.0:
            return self.inner._recession(x)
        base = self.inner._recession(np.zeros_like(x))
        at_zero = _norm(x) <= BOUNDARY_TOL
        return np.where(at_zero, base * 0.0, np.inf)

    def lipschitz_bound(self):
        return self.inner.lipschitz_bound() if self.rho == 0.0 else None


NESTED = {
    "translate": Translated,
    "scale_arg": ArgScaled,
    "scale_val": ValueScaled,
    "add_affine": AffineAdded,
    "add_quad": QuadAdded,
}

# -- random stacks ----------------------------------------------------------------

ATOMS = ["l1", "euclidean", "quadratic", "affine", "ball_indicator", "subspace",
         "ball_distance", "ball_support"]


def _atom(rng, kind, dim):
    if kind == "l1":
        return L1Norm(dim)
    if kind == "euclidean":
        return EuclideanNorm(dim)
    if kind == "quadratic":
        m = rng.normal(size=(dim, dim))
        return Quadratic(m @ m.T / dim + 0.2 * np.eye(dim))
    if kind == "affine":
        return Affine(rng.normal(size=dim), rng.normal())
    if kind == "subspace":
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        return SubspaceIndicator(q[:, :1])
    center, radius = rng.normal(size=dim), rng.uniform(0.3, 2.0)
    cls = {"ball_indicator": BallIndicator, "ball_distance": BallDistance,
           "ball_support": BallSupport}[kind]
    return cls(center, radius)


def _transform(rng, kind, dim):
    """``(kind, args)`` of one builder call with random parameters."""
    if kind == "translate":
        return kind, (rng.normal(size=dim),)
    if kind in ("scale_arg", "scale_val"):
        return kind, (float(rng.uniform(0.4, 2.5)),)
    if kind == "add_affine":
        return kind, (rng.normal(size=dim), float(rng.normal()))
    return kind, (float(rng.uniform(0.1, 2.0)),)


def _both(atom, calls):
    """The folded stack and the nested reference of the same builder calls."""
    folded, nested = atom, atom
    for kind, args in calls:
        folded = getattr(folded, kind)(*args)
        nested = NESTED[kind](nested, *args)
    return folded, nested


def _oracles(fn, X, column):
    """Value, prox at a float and a per-row gamma, conjugate and recession."""
    return {
        "value": np.asarray(fn._value(X), dtype=float),
        "prox": fn._prox(0.7, X),
        "prox_column": fn._prox(column, X),
        "conjugate": np.asarray(fn._conjugate(X), dtype=float),
        "recession": np.asarray(fn._recession(X), dtype=float),
    }


def _stack_cases(seed, n, depths):
    rng = np.random.default_rng(seed)
    cases = []
    for atom_kind in ATOMS:
        for _ in range(n):
            dim = int(rng.integers(1, 4))
            depth = int(rng.choice(depths))
            kinds = rng.choice(list(NESTED), size=depth)
            calls = [_transform(rng, k, dim) for k in kinds]
            cases.append((_atom(rng, atom_kind, dim), calls, rng))
    return cases


@pytest.mark.parametrize("atom_kind", ATOMS)
@pytest.mark.parametrize("kind", list(NESTED))
def test_one_transform_is_bit_for_bit_its_closed_form(atom_kind, kind):
    rng = np.random.default_rng([ATOMS.index(atom_kind), list(NESTED).index(kind)])
    for dim in (1, 2, 3):
        atom = _atom(rng, atom_kind, dim)
        folded, nested = _both(atom, [_transform(rng, kind, dim)])
        assert isinstance(folded, TransformedFunction) and folded.inner is atom
        X = rng.normal(size=(30, dim)) * 10.0 ** rng.integers(-2, 3, size=(30, 1))
        column = rng.uniform(0.05, 5.0, size=(30, 1))
        got, ref = _oracles(folded, X, column), _oracles(nested, X, column)
        for name in ref:
            assert got[name].shape == ref[name].shape, name
            np.testing.assert_array_equal(got[name].view(np.int64), ref[name].view(np.int64),
                                          err_msg=name)
        assert folded.lipschitz_bound() == nested.lipschitz_bound()


def _close(got, ref, rtol):
    """Equal infinities, and finite values within ``rtol`` of the larger scale."""
    np.testing.assert_array_equal(np.isinf(got), np.isinf(ref))
    fin = np.isfinite(ref)
    scale = 1.0 + np.maximum(np.abs(got[fin]), np.abs(ref[fin]))
    assert (np.abs(got[fin] - ref[fin]) <= rtol * scale).all()


@pytest.mark.parametrize("seed", range(4))
def test_random_stacks_match_the_nested_closed_forms(seed):
    # up to four transforms; the fold multiplies and adds the parameters in
    # another order than the nested wrappers, so agreement is to rounding
    for atom, calls, rng in _stack_cases(seed, 12, (1, 2, 3, 4)):
        folded, nested = _both(atom, calls)
        assert [k for k, _ in folded.transforms] == [k for k, _ in calls]
        X = rng.normal(size=(8, atom.dim)) * 3.0
        column = rng.uniform(0.05, 5.0, size=(8, 1))
        got, ref = _oracles(folded, X, column), _oracles(nested, X, column)
        for name in ref:
            assert got[name].shape == ref[name].shape, name
            _close(got[name], ref[name], 1e-12)
        beta, beta_ref = folded.lipschitz_bound(), nested.lipschitz_bound()
        assert (beta is None) == (beta_ref is None)
        if beta is None:
            continue
        # the fold adds the linear terms before taking a norm, the nested
        # wrappers add their norms: equal for one term, at most it for more
        if [k for k, _ in calls].count("add_affine") <= 1:
            assert beta == pytest.approx(beta_ref, rel=1e-13)
        else:
            assert beta <= beta_ref * (1 + 1e-13)


@pytest.mark.parametrize("seed", range(2))
def test_the_conjugate_of_a_random_stack_is_its_conjugate_function(seed):
    # the one transform branch of conjugate_function, including the <u, c>
    # term that only a stack with both a shift and a linear term has
    for atom, calls, rng in _stack_cases(100 + seed, 8, (1, 2, 3, 4)):
        fn, _ = _both(atom, calls)
        try:
            conj = conjugate_function(fn)
        except UnsupportedConjugate:
            continue
        S = rng.normal(size=(8, fn.dim)) * 2.0
        _close(np.asarray(conj(S)), np.asarray(fn.conjugate(S)), 1e-9)
        # Moreau: prox_f + prox_{f*} = identity at unit parameter
        np.testing.assert_allclose(fn.prox(1.0, S) + conj.prox(1.0, S), S,
                                   rtol=1e-9, atol=1e-9)


def test_the_fold_keeps_one_layer_and_the_calls_as_given():
    atom = EuclideanNorm(2)
    fn = atom.translate([1.0, -1.0]).scale_arg(2.0).add_quad(0.5).scale_val(3.0)
    fn = fn.add_affine([0.5, 0.25], 1.5)
    assert type(fn) is TransformedFunction and fn.inner is atom
    assert [k for k, _ in fn.transforms] == [
        "translate", "scale_arg", "add_quad", "scale_val", "add_affine"]
    # a h(b x - c) + <u, x> + alpha + rho ||x||^2 / 2
    assert (fn.a, fn.b, fn.rho) == (3.0, 2.0, 1.5)
    np.testing.assert_array_equal(fn.c, [1.0, -1.0])
    np.testing.assert_array_equal(fn.u, [0.5, 0.25])
    assert fn.alpha == 1.5
    x = np.array([0.3, -0.7])
    expected = 3.0 * np.linalg.norm(2.0 * x - [1.0, -1.0]) + x @ [0.5, 0.25] + 1.5
    assert fn(x) == pytest.approx(expected + 0.75 * x @ x, rel=1e-14)
    # a Moreau envelope is not folded into: it stays the inner function
    env = MoreauEnvelopeFunction(atom, 0.5).translate([1.0, 0.0])
    assert type(env.inner) is MoreauEnvelopeFunction


def test_a_translation_after_a_quadratic_moves_the_linear_term():
    # f(x - w) with f = h + rho Q: the fold sets u = -rho w, alpha = rho ||w||^2 / 2
    fn = L1Norm(2).add_quad(2.0).translate([1.0, 3.0])
    np.testing.assert_array_equal(fn.u, [-2.0, -6.0])
    assert fn.alpha == 10.0 and fn.rho == 2.0


BAD_TRANSFORMS = [
    ("translate", ([np.inf, 0.0],)),
    ("translate", ([np.nan, 0.0],)),
    ("scale_arg", (np.inf,)),
    ("scale_arg", (np.nan,)),
    ("scale_arg", (0.0,)),
    ("scale_val", (np.inf,)),
    ("scale_val", (-1.0,)),
    ("add_affine", ([np.nan, 0.0],)),
    ("add_affine", ([0.0, 0.0], np.inf)),
    ("add_quad", (np.inf,)),
    ("add_quad", (np.nan,)),
    ("add_quad", (-0.5,)),
]


@pytest.mark.parametrize("kind, args", BAD_TRANSFORMS, ids=repr)
def test_a_bad_transform_parameter_is_rejected_in_the_fold(kind, args):
    for fn in (L1Norm(2), L1Norm(2).add_quad(1.0).translate([1.0, 2.0])):
        with pytest.raises(ParameterError):
            getattr(fn, kind)(*args)


def test_a_fold_that_overflows_or_underflows_is_rejected():
    # each parameter is finite, but b = 1e400 or a = 1e-400 is not usable:
    # b^2 gamma is inf in the prox, and 0 h = nan outside an indicator's set
    for build in (
        lambda: L1Norm(1).scale_arg(1e200).scale_arg(1e200),
        lambda: L1Norm(1).scale_arg(1e200),  # b^2 overflows
        lambda: BallIndicator([0.0], 1.0).scale_val(1e-200).scale_val(1e-200),
        lambda: L1Norm(1).scale_arg(1e300).translate([1e300]),
    ):
        with pytest.raises(ParameterError, match="0 or not finite"):
            build()
    # a scale whose square underflows is kept: the prox then runs at gamma 0
    tiny = L1Norm(1).scale_arg(1e-200)
    assert tiny.b == 1e-200 and tiny(np.ones(1)) == 1e-200


def test_a_transform_vector_of_the_wrong_length_is_rejected():
    for kind in ("translate", "add_affine"):
        with pytest.raises(DimensionError, match="dimension mismatch"):
            getattr(L1Norm(2), kind)([1.0, 2.0, 3.0])


@pytest.mark.parametrize("build", [
    lambda: Affine([np.nan, 0.0]),
    lambda: Affine([1.0, 0.0], np.inf),
    lambda: BallIndicator([np.inf, 0.0], 1.0),
    lambda: BallDistance([0.0, 0.0], np.nan),
    lambda: BallSupport([0.0, 0.0], np.inf),
    lambda: Quadratic([[np.nan]]),
    lambda: SubspaceIndicator([[np.nan], [0.0]]),
    lambda: SeparableSum([(np.inf, L1Norm(1), 0)]),
    lambda: MoreauEnvelopeFunction(L1Norm(1), np.inf),
], ids=["affine-u", "affine-alpha", "ball-center", "ball-radius-nan", "ball-radius-inf",
        "quadratic", "subspace", "separable-weight", "envelope-index"])
def test_a_non_finite_function_parameter_is_rejected(build):
    with pytest.raises(ParameterError):
        build()
