"""Named, seeded verification suites for every identity in the library.

Each suite exercises one closed-form identity or inequality against an
independent oracle (brute-force grids, finite differences, constrained
enumeration, exact dual formulas) and reports per-case pass/fail at a
stated slack.  Suites are deterministic given ``(suite_id, seed, scale)``.

Suite identifiers follow the registry contract of the acceptance harness
(``prop17``, ``thm45-iv``, ...); granular parts register individually and
family identifiers run every part.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import RegistryError, UnsupportedConjugate
from .compositions import (
    CompositionSpec,
    _cocomposition_core,
    argmin_cocomposition,
    argmin_gamma_sequence,
    eval_cocomposition,
    eval_cocomposition_batch,
    eval_composition,
    eval_composition_batch,
    gamma_sweep,
    limit_small_gamma,
    perspective_cocomposition,
    prox_cocomposition,
    prox_composition,
    recession_cocomposition,
    subgradient_witness_cocomposition,
)
from .functions import (
    Affine,
    BallDistance,
    BallIndicator,
    BallSupport,
    EuclideanNorm,
    L1Norm,
    MoreauEnvelopeFunction,
    OracleFunction,
    Quadratic,
    conjugate_function,
    quadratic_kernel,
)
from .linalg import DenseMap
from .mixtures import (
    MixtureSpec,
    MixtureTerm,
    comixture_argmin,
    comixture_argmin_sequence,
    comixture_envelope,
    comixture_eval,
    comixture_eval_batch,
    comixture_prox,
    comixture_recession,
    embed,
    mixture_eval,
    mixture_prox,
    pcm_estimate,
    proximal_average,
    sampled_expectation_prox,
)
from .moreau import SolverOpts, envelope, envelope_gradient
from .oracles import (
    _large_gamma_target,
    grid_conjugate,
    grid_envelope,
    grid_prox,
    pseudo_inverse_small,
    pushforward_infimum,
    refined_grid_min,
)

__all__ = [
    "Scale",
    "SCALES",
    "SuiteCase",
    "SuiteReport",
    "SUITES",
    "TOP_LEVEL_SUITES",
    "IN_SCOPE_MANIFEST",
    "run_suite",
    "run_all",
    "suite_ids",
]

OPTS = SolverOpts(tol=1e-9, max_iter=60_000)

EQ_SLACK = 1e-6        # solver-backed equalities
EXACT_SLACK = 1e-9     # closed-form identities
TIGHT_SLACK = 1e-10    # identities exact to rounding
INEQ_SLACK = 1e-6      # one-sided inequality slack


@dataclass(frozen=True)
class Scale:
    """Problem sizes for a suite run."""

    n_cases: int
    n_points: int
    grid_steps: int


SCALES = {
    "small": Scale(n_cases=25, n_points=20, grid_steps=201),
    "default": Scale(n_cases=100, n_points=100, grid_steps=801),
    "large": Scale(n_cases=400, n_points=200, grid_steps=2001),
}


@dataclass
class SuiteCase:
    digest: str
    expected: float
    got: float
    slack: float
    passed: bool
    note: str = ""


@dataclass
class SuiteReport:
    suite_id: str
    seed: int
    scale: str
    cases: list
    elapsed: float = 0.0

    @property
    def all_pass(self):
        return all(c.passed for c in self.cases)

    @property
    def n_failed(self):
        return sum(not c.passed for c in self.cases)

    def digest(self):
        """Deterministic fingerprint of the case list (timing excluded)."""
        payload = json.dumps(
            [
                [c.digest, repr(c.expected), repr(c.got), c.slack, c.passed]
                for c in self.cases
            ],
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def summary(self):
        flag = "pass" if self.all_pass else f"FAIL({self.n_failed})"
        return (
            f"{self.suite_id:<12} {flag:<9} cases={len(self.cases):<5} "
            f"elapsed={self.elapsed:6.2f}s"
        )

    def to_json(self):
        return {
            "suite_id": self.suite_id,
            "seed": self.seed,
            "scale": self.scale,
            "all_pass": self.all_pass,
            "n_cases": len(self.cases),
            "n_failed": self.n_failed,
            "digest": self.digest(),
            "elapsed": self.elapsed,
            "cases": [
                {
                    "digest": c.digest,
                    "expected": c.expected,
                    "got": c.got,
                    "slack": c.slack,
                    "pass": c.passed,
                    "note": c.note,
                }
                for c in self.cases
            ],
        }


def _digest(*parts):
    raw = "|".join(str(p) for p in parts)
    return hashlib.sha1(raw.encode()).hexdigest()[:12]


def _eq(tag, expected, got, slack):
    expected = float(expected)
    got = float(got)
    if np.isinf(expected) or np.isinf(got):
        ok = expected == got
    else:
        ok = abs(expected - got) <= slack
    return SuiteCase(_digest(*tag), expected, got, slack, bool(ok), note="eq")


def _le(tag, quantity, bound, slack=0.0):
    quantity = float(quantity)
    bound = float(bound)
    ok = quantity <= bound + slack
    return SuiteCase(_digest(*tag), bound, quantity, slack, bool(ok), note="le")


def _within(tag, quantity, bound, slack):
    """``-slack <= quantity <= bound + slack``; recorded as ``_le`` records its bound."""
    quantity = float(quantity)
    bound = float(bound)
    ok = -slack <= quantity <= bound + slack
    return SuiteCase(_digest(*tag), bound, quantity, slack, bool(ok), note="within")


def _true(tag, flag, note=""):
    return SuiteCase(_digest(*tag), 1.0, float(bool(flag)), 0.0, bool(flag), note)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def _random_operator(rng, rows, cols, lo=0.2, hi=0.95):
    """Random admissible operator with a conditioning floor.

    Singular values are clipped from below at 5% of the largest so the
    first-order solvers face bounded condition numbers.
    """
    m = rng.normal(size=(rows, cols))
    u, sv, vh = np.linalg.svd(m, full_matrices=False)
    sv = np.maximum(sv, 0.05 * sv[0])
    target = rng.uniform(lo, hi)
    return DenseMap((u * (sv * target / sv[0])) @ vh)


def _isometry(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return DenseMap(q[:, :cols])


def _projection_map(rng, n, k=1):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return DenseMap(q @ q.T)


def _random_lipschitz_fn(rng, dim, beta_one=False):
    """A real-valued Lipschitz catalog function (optionally with beta=1)."""
    if beta_one:
        kind = rng.integers(0, 2)
        if kind == 0:
            return EuclideanNorm(dim).translate(rng.normal(size=dim))
        return BallDistance(rng.normal(size=dim), rng.uniform(0.2, 1.5))
    kind = rng.integers(0, 5)
    if kind == 0:
        return L1Norm(dim).scale_val(rng.uniform(0.3, 1.5))
    if kind == 1:
        return EuclideanNorm(dim).translate(rng.normal(size=dim)).scale_val(
            rng.uniform(0.3, 2.0)
        )
    if kind == 2:
        return BallDistance(rng.normal(size=dim), rng.uniform(0.2, 1.5))
    if kind == 3:
        return BallSupport(0.5 * rng.normal(size=dim), rng.uniform(0.1, 1.0))
    return Affine(rng.normal(size=dim), rng.normal())


def _random_fullspace_fn(rng, dim):
    """A full-domain catalog function, possibly non-Lipschitz."""
    if rng.integers(0, 3) == 0:
        m = rng.normal(size=(dim, dim))
        return Quadratic(m @ m.T / dim + 0.1 * np.eye(dim)).translate(
            0.5 * rng.normal(size=dim)
        )
    fn = _random_lipschitz_fn(rng, dim)
    if rng.integers(0, 2) == 0:
        fn = fn.add_quad(rng.uniform(0.0, 1.0))
    return fn


def _random_conjugable_fn(rng, dim):
    """A catalog function whose conjugate is itself a catalog object."""
    kind = rng.integers(0, 4)
    if kind == 0:
        fn = EuclideanNorm(dim)
    elif kind == 1:
        fn = L1Norm(dim)
    elif kind == 2:
        m = rng.normal(size=(dim, dim))
        fn = Quadratic(m @ m.T / dim + 0.2 * np.eye(dim))
    else:
        fn = BallIndicator(0.5 * rng.normal(size=dim), rng.uniform(0.5, 2.0))
    if rng.integers(0, 2) == 0:
        fn = fn.translate(0.5 * rng.normal(size=dim))
    if rng.integers(0, 2) == 0:
        fn = fn.scale_val(rng.uniform(0.5, 1.5))
    return fn


def _fd_gradient(fn, x, h=1e-6):
    """Central finite-difference gradient (valid a.e. for convex fns)."""
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (np.asarray(fn(x + e)) - np.asarray(fn(x - e))) / (2 * h)
    return grad


def _fiber_value(operator, fn, gamma, x, steps=801, halfwidth=8.0):
    """Composition value through the constrained primal form.

    ``min over {y : L* y = x} of fn(y) + defect(y)/gamma``; exact when the
    adjoint is injective, else a grid search along the fiber directions.
    """

    def objective(Y):
        defect = 0.5 * (
            np.linalg.norm(Y, axis=-1) ** 2
            - np.linalg.norm(Y @ operator.entries, axis=-1) ** 2
        )
        return np.asarray(fn(Y)) + defect / gamma

    return pushforward_infimum(operator, objective, x, halfwidth, steps)[0]


def _co_value(spec, x):
    return eval_cocomposition(spec, x, OPTS).value


def _co_values(spec, X):
    vals, _, _ = eval_cocomposition_batch(spec, np.asarray(X, dtype=float), OPTS)
    return vals


def _comp_value(spec, x):
    return eval_composition(spec, x, OPTS).value


def _comp_values(spec, X):
    vals, _, _ = eval_composition_batch(spec, np.asarray(X, dtype=float), OPTS)
    return vals


# ---------------------------------------------------------------------------
# envelope / conjugate calculus suites
# ---------------------------------------------------------------------------


def suite_lemma2(rng, scale):
    """Conjugate scaling rules evaluated two independent ways."""
    cases = []
    for i in range(scale.n_cases):
        dim = int(rng.integers(1, 3))
        fn = _random_conjugable_fn(rng, dim)
        conj = conjugate_function(fn)
        rho = rng.uniform(0.3, 3.0)
        s = rng.normal(size=dim)
        lhs = conjugate_function(fn.scale_val(rho))(s)
        rhs = rho * np.asarray(conj(s / rho))
        cases.append(_eq(("lemma2-i", i), rhs, lhs, TIGHT_SLACK))
        lhs = conjugate_function(fn.scale_arg(rho))(s)
        rhs = conj(s / rho)
        cases.append(_eq(("lemma2-iii", i), rhs, lhs, TIGHT_SLACK))
        # grid cross-check on a handful of finite values
        if i < 10 and dim == 1 and np.isfinite(float(np.asarray(rhs))):
            scaled = fn.scale_arg(rho)
            neg, _ = refined_grid_min(
                lambda Y: -(Y @ s - np.asarray(scaled(Y)).reshape(len(Y))),
                [-14.0],
                [14.0],
                2001,
            )
            cases.append(_eq(("lemma2-grid", i), -neg, lhs, 2e-3))
    return cases


def suite_lemma3(rng, scale):
    """Envelope scaling identities through exact proxes."""
    cases = []
    for i in range(scale.n_cases):
        dim = int(rng.integers(1, 3))
        fn = _random_fullspace_fn(rng, dim)
        gamma = rng.uniform(0.2, 4.0)
        rho = rng.uniform(0.3, 3.0)
        x = rng.normal(size=dim)
        lhs = rho * envelope(fn, gamma, x)
        rhs = envelope(fn.scale_val(rho), gamma / rho, x)
        cases.append(_eq(("lemma3-i", i), rhs, lhs, TIGHT_SLACK))
        lhs = envelope(fn, gamma, rho * x)
        rhs = envelope(fn.scale_arg(rho), gamma / rho**2, x)
        cases.append(_eq(("lemma3-ii", i), rhs, lhs, TIGHT_SLACK))
    return cases


def suite_lemma8(rng, scale):
    """Prox/envelope decomposition identities and envelope gradients."""
    cases = []
    makers = [
        lambda d: L1Norm(d),
        lambda d: EuclideanNorm(d).translate(rng.normal(size=d)),
        lambda d: quadratic_kernel(d),
        lambda d: BallIndicator(rng.normal(size=d), rng.uniform(0.5, 2.0)),
        lambda d: BallDistance(rng.normal(size=d), rng.uniform(0.5, 2.0)),
        lambda d: BallSupport(0.3 * rng.normal(size=d), 0.5),
    ]
    for i in range(scale.n_cases):
        dim = int(rng.integers(1, 4))
        fn = makers[int(rng.integers(0, len(makers)))](dim)
        x = 2.0 * rng.normal(size=dim)
        # prox of f plus prox of f* recovers the identity
        split = fn.prox(1.0, x) + fn.prox_conjugate(1.0, x)
        cases.append(
            _eq(("lemma8-prox", i), 0.0, np.linalg.norm(split - x), EXACT_SLACK)
        )
        # envelopes of f and f* sum to the quadratic kernel
        p = fn.prox_conjugate(1.0, x)
        env_conj = float(np.asarray(fn.conjugate(p))) + 0.5 * np.linalg.norm(
            x - p
        ) ** 2
        lhs = envelope(fn, 1.0, x) + env_conj
        cases.append(_eq(("lemma8-env", i), 0.5 * np.dot(x, x), lhs, EXACT_SLACK))
        # envelope gradient against central differences
        gamma = rng.uniform(0.3, 2.0)
        grad = envelope_gradient(fn, gamma, x)
        fd = _fd_gradient(lambda z: envelope(fn, gamma, z), x)
        cases.append(
            _eq(
                ("lemma8-grad", i),
                0.0,
                np.linalg.norm(grad - fd) / (1 + np.linalg.norm(grad)),
                1e-5,
            )
        )
    return cases


def suite_lemma10(rng, scale):
    """Quadratic-form conjugates through the generalized inverse."""
    cases = []
    for i in range(scale.n_cases):
        dim = int(rng.integers(1, 3))
        m = rng.normal(size=(dim, dim))
        rank = int(rng.integers(1, dim + 1))
        a = m[:, :rank] @ m[:, :rank].T
        fn = Quadratic(a)
        pinv = pseudo_inverse_small(a)
        # Penrose condition
        err = np.abs(a @ pinv.map.entries @ a - a).max()
        cases.append(_eq(("lemma10-penrose", i), 0.0, err, EXACT_SLACK))
        # conjugate at a range point equals the inverse quadratic form
        y = a @ rng.normal(size=dim)
        expected = 0.5 * float(y @ pinv.map.entries @ y)
        cases.append(_eq(("lemma10-range", i), expected, fn.conjugate(y), EXACT_SLACK))
        # off-range points conjugate to +inf
        if rank < dim:
            off = pinv.range_basis @ rng.normal(size=rank) if rank else 0.0
            perp = rng.normal(size=dim)
            perp -= pinv.range_basis @ (pinv.range_basis.T @ perp)
            if np.linalg.norm(perp) > 1e-6:
                cases.append(
                    _true(("lemma10-off", i), np.isinf(fn.conjugate(y + perp)))
                )
        if i < 10:
            gv = grid_conjugate(
                fn, y, -14 * np.ones(dim), 14 * np.ones(dim), scale.grid_steps
            )
            cases.append(_eq(("lemma10-grid", i), expected, gv, 5e-2))
    return cases


# ---------------------------------------------------------------------------
# composition calculus suites
# ---------------------------------------------------------------------------


def _random_spec(rng, rows=None, cols=None, gamma=None, fn=None, hi=0.95):
    rows = rows or int(rng.integers(1, 4))
    cols = cols or int(rng.integers(1, 3))
    op = _random_operator(rng, rows, cols, hi=hi)
    fn = fn if fn is not None else _random_fullspace_fn(rng, rows)
    gamma = gamma or rng.uniform(0.25, 4.0)
    return CompositionSpec(op, fn, gamma)


def suite_prop1(rng, scale):
    """Value/argument scaling calculus of both compositions."""
    cases = []
    n = max(scale.n_cases // 4, 8)
    for i in range(n):
        spec = _random_spec(rng)
        rho = rng.uniform(0.4, 2.5)
        x = rng.normal(size=spec.operator.cols)
        scaled_val = CompositionSpec(
            spec.operator, spec.fn.scale_val(rho), spec.gamma / rho
        )
        scaled_arg = CompositionSpec(
            spec.operator, spec.fn.scale_arg(rho), spec.gamma / rho**2
        )
        pairs = [
            ("vi", rho * _comp_value(spec, x), _comp_value(scaled_val, x)),
            ("vii", _comp_value(spec, rho * x), _comp_value(scaled_arg, x)),
            ("viii", rho * _co_value(spec, x), _co_value(scaled_val, x)),
            ("ix", _co_value(spec, rho * x), _co_value(scaled_arg, x)),
        ]
        for part, lhs, rhs in pairs:
            cases.append(_eq((f"prop1-{part}", i), lhs, rhs, EQ_SLACK))
    return cases


def suite_prop4(rng, scale):
    """Evaluation formulas, domains and the envelope lower bound."""
    cases = []
    n = max(scale.n_cases // 4, 10)
    for i in range(n):
        rows = int(rng.integers(1, 3))
        cols = int(rng.integers(1, 3))
        spec = _random_spec(rng, rows=rows, cols=cols)
        x = rng.normal(size=cols)
        # (i) constrained primal value matches the dual ascent
        exact_fiber = np.linalg.matrix_rank(
            spec.operator.entries.T, tol=1e-10
        ) == spec.operator.rows
        steps = scale.grid_steps
        fiber = _fiber_value(spec.operator, spec.fn, spec.gamma, x, steps=steps)
        solver = _comp_value(spec, x)
        if exact_fiber:
            slack = EQ_SLACK
        else:
            h = 16.0 / steps
            slack = (1.0 + 1.0 / spec.gamma) * h * h + 1e-6
        cases.append(_eq(("prop4-i", i), fiber, solver, slack))
        # (ii) dual grid value of the cocomposition (conjugable targets only)
        try:
            conj = conjugate_function(spec.fn)
        except UnsupportedConjugate:
            conj = None
        if conj is not None:
            steps = 2001 if rows == 1 else scale.grid_steps
            w = spec.operator.apply(x)

            def dual_obj(Y, w=w, conj=conj, spec=spec):
                return -(Y @ w - np.asarray(conj(Y)) - spec.gamma * spec.defect(Y))

            gval, _ = refined_grid_min(
                dual_obj, -10 * np.ones(rows), 10 * np.ones(rows), steps
            )
            if np.isfinite(gval):
                h_fine = 5.0 * (20.0 / steps) / steps
                slack = (spec.gamma + 8.0) * h_fine + 1e-6
                cases.append(
                    _eq(("prop4-ii", i), -gval, _co_value(spec, x), slack)
                )
        # (iv) envelope lower bound
        co = _co_value(spec, x)
        env = envelope(spec.fn, spec.gamma, spec.operator.apply(x))
        cases.append(_le(("prop4-iv", i), env, co, INEQ_SLACK))
    # (iii) domain certification for full-domain functions
    for i in range(10):
        proj = _projection_map(rng, 2)
        spec = CompositionSpec(proj, _random_lipschitz_fn(rng, 2), 1.0)
        basis = proj.entries[:, 0] / np.linalg.norm(proj.entries[:, 0])
        inside = rng.normal() * basis
        outside = inside + rng.uniform(0.5, 2.0) * np.array([-basis[1], basis[0]])
        cases.append(
            _true(("prop4-iii-in", i), np.isfinite(_comp_value(spec, inside)))
        )
        cases.append(
            _true(("prop4-iii-out", i), np.isinf(_comp_value(spec, outside)))
        )
    return cases


def suite_prop5(rng, scale):
    """Quadratic perturbation and translation shift formulas."""
    cases = []
    n = max(scale.n_cases // 2, 10)
    for i in range(n):
        spec = _random_spec(rng)
        L, g, gamma = spec.operator, spec.fn, spec.gamma
        x = rng.normal(size=L.cols)
        u = rng.normal(size=L.cols)
        alpha = rng.normal()
        rho = rng.uniform(0.0, 2.0)
        # (i): perturbing the target function shifts the composition
        perturbed = g.add_quad(rho).add_affine(L.apply(u), alpha)
        beta = gamma / (1 + rho * gamma)
        lhs = _comp_value(CompositionSpec(L, perturbed, gamma), x)
        rhs = (
            _comp_value(CompositionSpec(L, g, beta), x)
            + 0.5 * rho * np.dot(x, x)
            + np.dot(x, u)
            + alpha
        )
        cases.append(_eq(("prop5-i", i), rhs, lhs, EQ_SLACK))
        # (ii): translating by L u translates the cocomposition by u
        translated = g.translate(L.apply(u)).add_affine(
            np.zeros(L.rows), alpha
        )
        lhs = _co_value(CompositionSpec(L, translated, gamma), x)
        rhs = _co_value(spec, x - u) + alpha
        cases.append(_eq(("prop5-ii", i), rhs, lhs, EQ_SLACK))
    return cases


def suite_prop6(rng, scale):
    """Convexity shift of the composition, including operators beyond norm one.

    Evaluated through the exact fiber formula so that inadmissible norms
    are reachable; checks midpoint convexity of the shifted values.
    """
    cases = []
    for i in range(scale.n_cases):
        dim = int(rng.integers(1, 3))
        m = rng.normal(size=(dim, dim)) + 1.5 * np.eye(dim)
        norm = np.linalg.svd(m, compute_uv=False)[0]
        target = rng.uniform(0.4, 1.5)  # deliberately allows ||L|| > 1
        op = DenseMap(m * (target / norm))
        fn = _random_fullspace_fn(rng, dim)
        gamma = rng.uniform(0.3, 3.0)
        beta = (1.0 / target**2 - 1.0) / gamma

        def shifted(x):
            return _fiber_value(op, fn, gamma, x) - 0.5 * beta * np.dot(x, x)

        a = rng.normal(size=dim)
        b = rng.normal(size=dim)
        mid = shifted(0.5 * (a + b))
        cases.append(
            _le(("prop6-mid", i), mid, 0.5 * (shifted(a) + shifted(b)), INEQ_SLACK)
        )
    return cases


def suite_prop7(rng, scale):
    """Convexity of both compositions and the conjugate pairing."""
    cases = []
    n = max(scale.n_cases // 2, 20)
    for i in range(n):
        spec = _random_spec(rng)
        a = rng.normal(size=spec.operator.cols)
        b = rng.normal(size=spec.operator.cols)
        pts = np.stack([a, b, 0.5 * (a + b)])
        co = _co_values(spec, pts)
        cases.append(
            _le(("prop7-co-mid", i), co[2], 0.5 * (co[0] + co[1]), INEQ_SLACK)
        )
        comp = _comp_values(spec, pts)
        if all(np.isfinite(comp)):
            cases.append(
                _le(
                    ("prop7-comp-mid", i),
                    comp[2],
                    0.5 * (comp[0] + comp[1]),
                    INEQ_SLACK,
                )
            )
    # conjugate pairing through Fenchel-Young at prox witnesses
    for i in range(20):
        rows = int(rng.integers(1, 3))
        spec = _random_spec(rng, rows=rows, fn=_random_conjugable_fn(rng, rows))
        x = rng.normal(size=spec.operator.cols)
        p, s = subgradient_witness_cocomposition(spec, x)
        dual_spec = CompositionSpec(
            spec.operator, conjugate_function(spec.fn), 1.0 / spec.gamma
        )
        fy = _co_value(spec, p) + _comp_value(dual_spec, s) - np.dot(p, s)
        cases.append(_eq(("prop7-pairing", i), 0.0, fy, 1e-5))
    return cases


def suite_prop9(rng, scale):
    """Prox-based subgradient witnesses satisfy the defining inequality."""
    cases = []
    n = max(scale.n_cases // 5, 10)
    for i in range(n):
        spec = _random_spec(rng)
        x = rng.normal(size=spec.operator.cols)
        p, s = subgradient_witness_cocomposition(spec, x)
        zs = p[None, :] + rng.normal(size=(50, spec.operator.cols))
        vals = _co_values(spec, zs)
        base = _co_value(spec, p)
        linear = base + (zs - p) @ s
        worst = float(np.max(linear - vals))
        cases.append(_le(("prop9-ineq", i), worst, 0.0, INEQ_SLACK))
    return cases


def _envelope_window(spec, index, x):
    """Grid window of the envelope of the cocomposition at ``index``, around ``x``.

    The envelope's minimizer is the prox of ``index`` times the
    cocomposition, which lies within ``index beta ||L||`` of ``x`` for a
    ``beta``-Lipschitz ``g`` (the cocomposition is ``beta ||L||``-Lipschitz,
    and a prox moves a point by at most its index times that constant).
    The window is ``x +- 6``, widened to that bound plus 1 where it is
    larger.
    """
    bound = index * spec.fn.lipschitz_bound() * spec.operator.norm_bound
    half = max(6.0, bound + 1.0)
    return np.array([x[0] - half]), np.array([x[0] + half])


def suite_prop10(rng, scale, parts=("i", "ii")):
    """Envelope identities of the cocomposition against grid envelopes."""
    cases = []
    n = max(scale.n_cases // 2, 8)
    for i in range(n):
        spec = _random_spec(rng, rows=int(rng.integers(1, 3)), cols=1)
        fn = _random_lipschitz_fn(rng, spec.operator.rows)
        spec = CompositionSpec(spec.operator, fn, spec.gamma)
        x = np.atleast_1d(rng.normal())
        steps = 2001
        if "ii" in parts:
            lo, hi = _envelope_window(spec, spec.gamma, x)
            direct = grid_envelope(
                lambda Z: _co_values(spec, Z), spec.gamma, x, lo, hi, steps
            )
            collapsed = envelope(spec.fn, spec.gamma, spec.operator.apply(x))
            cases.append(_eq(("prop10-ii", i), direct, collapsed, 1e-4))
        if "i" in parts:
            rho = rng.uniform(0.2, 0.8) * spec.gamma
            lo, hi = _envelope_window(spec, rho, x)
            direct = grid_envelope(
                lambda Z: _co_values(spec, Z), rho, x, lo, hi, steps
            )
            shifted = eval_cocomposition(
                CompositionSpec(
                    spec.operator,
                    MoreauEnvelopeFunction(spec.fn, rho),
                    spec.gamma - rho,
                ),
                x,
                OPTS,
            ).value
            cases.append(_eq(("prop10-i", i), direct, shifted, 1e-4))
    return cases


def suite_cor_argmin(rng, scale):
    """Minimizers of the cocomposition coincide with the envelope collapse."""
    cases = []
    n = max(scale.n_cases // 5, 10)
    for i in range(n):
        rows = int(rng.integers(1, 3))
        cols = int(rng.integers(1, 3))
        fn = _random_lipschitz_fn(rng, rows, beta_one=True)
        spec = _random_spec(rng, rows=rows, cols=cols, fn=fn)
        rep = argmin_cocomposition(spec, OPTS)
        if rep.status != "converged":
            cases.append(_true(("cor-argmin-status", i), False, rep.status))
            continue
        xhat = rep.argpoint
        samples = xhat[None, :] + rng.normal(size=(30, cols))
        co_min = _co_value(spec, xhat)
        co_samples = _co_values(spec, samples)
        cases.append(
            _le(("cor-argmin-min", i), co_min, float(np.min(co_samples)), 1e-5)
        )
        cases.append(_le(("cor-argmin-env", i), rep.value, co_min, 1e-6))
    return cases


def suite_cor11(rng, scale):
    """Associativity: composing twice equals composing the product operator."""
    cases = []
    n = max(scale.n_cases // 2, 20)
    for i in range(n):
        dim_mid = int(rng.integers(1, 3))
        rows = int(rng.integers(1, 3))
        L = _random_operator(rng, rows, dim_mid, hi=0.9)
        S = _random_operator(rng, dim_mid, dim_mid, hi=0.9)  # invertible a.s.
        g = _random_conjugable_fn(rng, rows)
        gamma = rng.uniform(0.4, 2.5)
        inner = CompositionSpec(L, g, gamma)
        product = CompositionSpec(L.compose(S), g, gamma)
        x = rng.normal(size=dim_mid)

        # cocomposition route: wrap the inner cocomposition as an oracle
        dual_inner = CompositionSpec(L, conjugate_function(g), 1.0 / gamma)
        wrapped = OracleFunction(
            dim_mid,
            value_fn=lambda Z: _co_values(inner, np.atleast_2d(Z)).reshape(
                np.shape(Z)[:-1]
            ),
            prox_fn=lambda t, Z: prox_cocomposition(inner, Z),
            conjugate_fn=lambda Y: _comp_values(dual_inner, np.atleast_2d(Y)).reshape(
                np.shape(Y)[:-1]
            ),
            prox_gamma=gamma,
        )
        left = eval_cocomposition(CompositionSpec(S, wrapped, gamma), x, OPTS).value
        right = _co_value(product, x)
        cases.append(_eq(("cor11-co", i), right, left, 1e-5))

        # composition route through the unique adjoint fiber point of S
        u = np.linalg.solve(S.entries.T, x)
        phi_s = 0.5 * (np.dot(u, u) - np.dot(S.adjoint_apply(u), S.adjoint_apply(u)))
        left = _comp_value(inner, u) + phi_s / gamma
        right = _comp_value(product, x)
        if np.isfinite(left) or np.isfinite(right):
            cases.append(_eq(("cor11-comp", i), right, left, 1e-5))
        else:
            # infeasible on both routes: the domains agree
            cases.append(_true(("cor11-comp-dom", i), True, "both infinite"))
    return cases


def suite_prop13(rng, scale):
    """Recession of the cocomposition against large-parameter quotients."""
    cases = []
    n = max(scale.n_cases, 30)
    for i in range(n):
        rows = int(rng.integers(1, 3))
        spec = _random_spec(rng, rows=rows, fn=_random_lipschitz_fn(rng, rows))
        x = rng.normal(size=spec.operator.cols)
        closed = recession_cocomposition(spec, x)
        y0 = rng.normal(size=spec.operator.cols)
        t = 1e6
        quotient = (_co_value(spec, y0 + t * x) - _co_value(spec, y0)) / t
        cases.append(
            _eq(
                ("prop13", i),
                closed,
                quotient,
                1e-3 * (1 + abs(closed)),
            )
        )
    return cases


def suite_prop16(rng, scale):
    """Perspective of the cocomposition: scaling law and boundary row."""
    cases = []
    n = max(scale.n_cases // 2, 20)
    for i in range(n):
        spec = _random_spec(rng, rows=1, cols=1, fn=_random_conjugable_fn(rng, 1))
        conj = conjugate_function(spec.fn)
        x = np.atleast_1d(rng.normal() * 2)
        xi = rng.uniform(0.3, 3.0)
        got = perspective_cocomposition(spec, x, xi, OPTS)
        # independent value: refined dual grid of the lifted problem
        w = spec.operator.apply(x)

        def lifted(Y, w=w, conj=conj, xi=xi, spec=spec):
            return -(
                Y @ w
                - xi * np.asarray(conj(Y))
                - xi * spec.gamma * spec.defect(Y)
            )

        neg, _ = refined_grid_min(lifted, [-40.0], [40.0], 1201)
        cases.append(_eq(("prop16-pos", i), -neg, got, 5e-3))
        # positive homogeneity of the lift
        t = rng.uniform(0.5, 2.0)
        scaled = perspective_cocomposition(spec, t * x, t * xi, OPTS)
        cases.append(_eq(("prop16-hom", i), t * got, scaled, 1e-5 * (1 + abs(got))))
        # zero-parameter row equals the recession value
        zero = perspective_cocomposition(spec, x, 0.0)
        cases.append(
            _eq(("prop16-zero", i), recession_cocomposition(spec, x), zero, 1e-9)
        )
        cases.append(_true(("prop16-neg", i), np.isinf(
            perspective_cocomposition(spec, x, -1.0)
        )))
    return cases


def _two_stage_grid_prox(objective, x, halfwidth, fine_halfwidth=1.0):
    """Grid argmin of ``objective(y) + (y-x)^2/2``: localize, then refine.

    The coarse pass covers ``x +- halfwidth``; the fine pass puts 2001
    cells (step about 1e-3) around the coarse winner, wide enough to
    absorb a kink tie landing the coarse winner one cell off.  Returns
    the fine argmin and the fine step.
    """
    coarse = grid_prox(objective, 1.0, x, x - halfwidth, x + halfwidth, 501)
    width = max(fine_halfwidth, 3.0 * 2.0 * halfwidth / 501)
    lo, hi = coarse - width, coarse + width
    fine = grid_prox(objective, 1.0, x, lo, hi, 2001)
    return fine, 2.0 * width / 2001


def suite_prop17(rng, scale, parts=("i", "ii")):
    """Prox formulas against definitional grid argmins on scalar instances."""
    cases = []
    n = max(scale.n_cases, 100)
    for i in range(n):
        c = rng.uniform(0.25, 1.0) * rng.choice([-1.0, 1.0])
        op = DenseMap([[c]])
        fn = _random_lipschitz_fn(rng, 1)
        gamma = rng.uniform(0.4, 1.0)
        spec = CompositionSpec(op, fn, gamma)
        x = np.atleast_1d(rng.normal() * 1.5)
        halfwidth = abs(float(x[0])) + 3.0

        if "i" in parts:
            # composition value on the fiber: g(y/c) + (1-c^2)(y/c)^2/(2 gamma)
            def comp_val(Y):
                u = Y / c
                return np.asarray(fn(u)).reshape(-1) + (1 - c * c) * (
                    np.linalg.norm(np.atleast_2d(u), axis=-1) ** 2
                ) / (2 * gamma)

            target, h = _two_stage_grid_prox(
                lambda Y: gamma * comp_val(Y), x, halfwidth
            )
            got = prox_composition(spec, x)
            cases.append(_eq(("prop17-i", i), target[0], got[0], 2 * h))
        if "ii" in parts:
            target, h = _two_stage_grid_prox(
                lambda Y: gamma * _co_values(spec, Y), x, halfwidth
            )
            got = prox_cocomposition(spec, x)
            cases.append(_eq(("prop17-ii", i), target[0], got[0], 2 * h))
    return cases


def suite_prop18(rng, scale):
    """Gradient smoothness estimate of the cocomposition below norm one."""
    cases = []
    n_specs = max(scale.n_cases // 10, 5)
    pairs = 10
    for i in range(n_specs):
        rows = int(rng.integers(1, 3))
        cols = int(rng.integers(1, 3))
        op = _random_operator(rng, rows, cols, lo=0.3, hi=0.85)
        fn = _random_fullspace_fn(rng, rows)
        gamma = rng.uniform(0.3, 2.0)
        spec = CompositionSpec(op, fn, gamma)
        norm = op.norm_bound
        beta = gamma * (1.0 / norm**2 - 1.0)
        X = rng.normal(size=(2 * pairs, cols))
        _, duals, _, _, _ = _cocomposition_core(spec, X, OPTS)
        grads = op.adjoint_apply(duals)
        for a in range(pairs):
            dx = np.linalg.norm(X[2 * a] - X[2 * a + 1])
            if dx < 1e-8:
                continue
            slope = np.linalg.norm(grads[2 * a] - grads[2 * a + 1]) / dx
            cases.append(_le(("prop18-i", i, a), slope, 1.1 / beta))
    return cases


def suite_cor19(rng, scale):
    """Lipschitz transfer from the target function to the cocomposition."""
    cases = []
    n_specs = max(scale.n_cases // 10, 5)
    pairs = 10
    for i in range(n_specs):
        rows = int(rng.integers(1, 4))
        cols = int(rng.integers(1, 3))
        fn = _random_lipschitz_fn(rng, rows)
        beta = fn.lipschitz_bound()
        op = _random_operator(rng, rows, cols)
        spec = CompositionSpec(op, fn, rng.uniform(0.3, 2.0))
        A = rng.normal(size=(pairs, cols)) * 2
        B = A + rng.normal(size=A.shape)
        va, vb = _co_values(spec, A), _co_values(spec, B)
        bound = beta * op.norm_bound * np.linalg.norm(A - B, axis=-1) + 2e-6
        for a in range(pairs):
            cases.append(
                _le(("cor19", i, a), float(np.abs(va[a] - vb[a])), float(bound[a]))
            )
    return cases


def suite_prop20(rng, scale):
    """Ordering chain of the compositions and the collapse cases."""
    cases = []
    n = max(2 * scale.n_cases, 50)
    for i in range(n):
        rows = int(rng.integers(1, 3))
        cols = int(rng.integers(1, 3))
        spec = _random_spec(rng, rows=rows, cols=cols)
        x = rng.normal(size=cols)
        co = _co_value(spec, x)
        comp = _comp_value(spec, x)
        w = spec.operator.apply(x)
        env = envelope(spec.fn, spec.gamma, w)
        plain = float(np.asarray(spec.fn(w)))
        cases.append(_le(("prop20-ii-lo", i), env, co, INEQ_SLACK))
        cases.append(_le(("prop20-ii-hi", i), co, plain, INEQ_SLACK))
        cases.append(_le(("prop20-iii", i), co, comp, INEQ_SLACK))
        push = _fiber_value(spec.operator, spec.fn, 1e12, x, steps=scale.grid_steps)
        cases.append(_le(("prop20-i", i), push, comp, 1e-3))
    # isometry and coisometry collapses
    for i in range(max(scale.n_cases // 10, 8)):
        iso = _isometry(rng, int(rng.integers(2, 4)), 1)
        fn = _random_lipschitz_fn(rng, iso.rows)
        spec = CompositionSpec(iso, fn, rng.uniform(0.3, 2.0))
        x = np.atleast_1d(rng.normal())
        cases.append(
            _eq(("prop20-iv", i), _comp_value(spec, x), _co_value(spec, x), 1e-6)
        )
        co_iso = _isometry(rng, int(rng.integers(2, 4)), 1)
        coiso = DenseMap(co_iso.entries.T)
        fn2 = _random_lipschitz_fn(rng, 1)
        spec2 = CompositionSpec(coiso, fn2, rng.uniform(0.3, 2.0))
        x2 = rng.normal(size=coiso.cols)
        cases.append(
            _eq(
                ("prop20-v", i),
                float(np.asarray(fn2(coiso.apply(x2)))),
                _co_value(spec2, x2),
                1e-6,
            )
        )
    return cases


def suite_prop25(rng, scale):
    """Composed-value gap bound through a subgradient witness."""
    cases = []
    n = max(scale.n_cases // 2, 20)
    for i in range(n):
        rows = int(rng.integers(1, 3))
        spec = _random_spec(rng, rows=rows, fn=_random_lipschitz_fn(rng, rows))
        x = rng.normal(size=spec.operator.cols)
        w = spec.operator.apply(x)
        ystar = _fd_gradient(spec.fn, w)
        gap = float(np.asarray(spec.fn(w))) - _co_value(spec, x)
        bound = spec.gamma * float(spec.defect(ystar))
        cases.append(_le(("prop25-i-lo", i), -gap, 0.0, INEQ_SLACK))
        cases.append(_le(("prop25-i-hi", i), gap, bound, 1e-4 + INEQ_SLACK))
    # zero-gap family: projections with targets met on the subspace
    for i in range(max(scale.n_cases // 4, 10)):
        proj = _projection_map(rng, 2)
        fn = EuclideanNorm(2)
        spec = CompositionSpec(proj, fn, rng.uniform(0.3, 3.0))
        x = rng.normal(size=2)
        expected = float(np.linalg.norm(proj.apply(x)))
        cases.append(_eq(("prop25-ii", i), expected, _co_value(spec, x), 1e-8))
    return cases


def suite_prop30(rng, scale, parts=("i", "ii")):
    """Gap bounds for Lipschitz targets."""
    cases = []
    if "i" in parts:
        n_specs = 10
        per = max(scale.n_cases * 10 // n_specs, 10)
        for i in range(n_specs):
            rows = int(rng.integers(1, 3))
            cols = int(rng.integers(1, 3))
            fn = _random_lipschitz_fn(rng, rows, beta_one=True)
            op = _random_operator(rng, rows, cols)
            gamma = rng.uniform(0.05, 4.0)
            spec = CompositionSpec(op, fn, gamma)
            X = rng.normal(size=(per, cols)) * 2
            co = _co_values(spec, X)
            plain = np.asarray(fn(op.apply(X)))
            gaps = plain - co
            cases.append(
                _le(("prop30-i-lo", i), float(np.max(-gaps)), 1e-8)
            )
            cases.append(
                _le(("prop30-i-hi", i), float(np.max(gaps)), gamma / 2.0, INEQ_SLACK)
            )
    if "ii" in parts:
        for i in range(max(scale.n_cases // 5, 10)):
            fn = EuclideanNorm(1)
            conj = conjugate_function(fn)
            op = _random_operator(rng, 1, 1)
            gamma = rng.uniform(0.2, 2.0)
            dual_spec = CompositionSpec(op, conj, 1.0 / gamma)
            x = np.atleast_1d(rng.normal() * 0.5)
            mid = _comp_value(dual_spec, x)
            push = _fiber_value(op, conj, 1e12, x, steps=801)
            cases.append(_le(("prop30-ii-lo", i), push, mid, INEQ_SLACK))
            cases.append(
                _le(("prop30-ii-hi", i), mid, push + gamma / 2.0, INEQ_SLACK)
            )
    return cases


def suite_ex_comp(rng, scale):
    """Semi-orthogonal composition prox formula against grid argmins."""
    cases = []
    n = max(scale.n_cases // 4, 10)
    for i in range(n):
        cols = 2
        rho = rng.uniform(0.4, 1.0)
        co_iso = _isometry(rng, cols, 1).entries.T  # 1 x cols, L L* = I
        op = DenseMap(np.sqrt(rho) * co_iso)
        fn = _random_lipschitz_fn(rng, 1)
        gamma = rng.uniform(0.4, 1.5)
        x = rng.normal(size=cols)
        inner = op.apply(x)
        formula = x + op.adjoint_apply(
            fn.scale_val(rho).prox(gamma, inner) - inner
        ) / rho
        beta = fn.lipschitz_bound() or 1.0
        reach = gamma * beta + 0.5
        lo, hi = x - reach, x + reach

        def objective(Y):
            return gamma * np.asarray(fn(op.apply(Y))) + 0.5 * np.linalg.norm(
                Y - x, axis=-1
            ) ** 2

        gval, target = refined_grid_min(objective, lo, hi, 401)
        h_fine = 5 * (2 * reach / 401) / 401
        # the formula point must dominate the exhaustive grid; the
        # 1-strong convexity of the objective then pins the distance
        fval = float(objective(formula[None, :])[0])
        cases.append(_le(("ex-comp-obj", i), fval, gval, 1e-10))
        noise = 2 * (gamma * beta + 1.0) * h_fine
        cases.append(
            _le(
                ("ex-comp-dist", i),
                float(np.linalg.norm(formula - target)),
                np.sqrt(2 * noise) + h_fine,
            )
        )
    return cases


def suite_ex_proj(rng, scale):
    """Projection-operator identities for the Euclidean norm."""
    cases = []
    n = max(scale.n_points // 2, 50)
    for i in range(n):
        dim = int(rng.integers(2, 4))
        k = int(rng.integers(1, dim))
        proj = _projection_map(rng, dim, k)
        fn = EuclideanNorm(dim)
        gamma = rng.uniform(0.2, 3.0)
        spec = CompositionSpec(proj, fn, gamma)
        x = rng.normal(size=dim) * 2
        # cocomposition collapses onto the composed norm
        cases.append(
            _eq(
                ("ex-proj-co", i),
                float(np.linalg.norm(proj.apply(x))),
                _co_value(spec, x),
                1e-8,
            )
        )
        # composition adds the subspace indicator: finite only on the range
        inside = proj.apply(x)
        got_in = _comp_value(spec, inside)
        cases.append(
            _eq(("ex-proj-comp-in", i), float(np.linalg.norm(inside)), got_in, 1e-6)
        )
        off = x - inside
        if np.linalg.norm(off) > 1e-6:
            cases.append(
                _true(
                    ("ex-proj-comp-out", i),
                    np.isinf(_comp_value(spec, inside + off)),
                )
            )
    return cases


def suite_ex_yama(rng, scale):
    """Surjective operators whose gram is a projection behave coisometrically."""
    cases = []
    n = max(scale.n_cases // 4, 10)
    for i in range(n):
        cols = int(rng.integers(2, 4))
        iso = _isometry(rng, cols, 1)
        op = DenseMap(iso.entries.T)  # surjective row, L* L = projection
        fn = _random_lipschitz_fn(rng, 1)
        gamma = rng.uniform(0.3, 2.0)
        spec = CompositionSpec(op, fn, gamma)
        x = rng.normal(size=cols)
        cases.append(
            _eq(
                ("ex-yama-co", i),
                float(np.asarray(fn(op.apply(x)))),
                _co_value(spec, x),
                1e-6,
            )
        )
        # composition equals the fiber infimum of the plain function
        push = _fiber_value(op, fn, 1e12, x, steps=801)
        comp = _comp_value(spec, x)
        cases.append(_eq(("ex-yama-comp", i), push, comp, 1e-3))
    return cases


def suite_thm45(rng, scale, parts=("i", "ii", "iii", "iv", "vi", "vii")):
    """Monotone parameter dependence and all four limits."""
    cases = []
    gammas = [2.0**k for k in range(-8, 9)]
    n = max(scale.n_cases // 10, 6)
    for i in range(n):
        rows = int(rng.integers(1, 3))
        cols = int(rng.integers(1, 3))
        fn = _random_lipschitz_fn(rng, rows, beta_one=True)
        op = _random_operator(rng, rows, cols, lo=0.3, hi=0.7)
        x = rng.normal(size=cols) * 0.5
        if "i" in parts or "ii" in parts:
            rep = gamma_sweep(op, fn, x, gammas, OPTS, slack=1e-7)
            if "i" in parts:
                cases.append(_true(("thm45-i", i), rep.composition_monotone))
            if "ii" in parts:
                cases.append(_true(("thm45-ii", i), rep.cocomposition_monotone))
        if "iii" in parts:
            spec_big = CompositionSpec(op, fn, 2.0**10)
            target, witness = _large_gamma_target(op, fn, x, "composition", 10.0)
            got = _comp_value(spec_big, x)
            if witness is None:
                cases.append(_true(("thm45-iii-dom", i), np.isinf(got)))
            else:
                # the value sits between the fiber infimum and its defect-
                # perturbed evaluation at any near-optimal witness
                bound = float(spec_big.defect(witness)) / 2.0**10 + 1e-4
                cases.append(_le(("thm45-iii-lo", i), target - got, 1e-6))
                cases.append(_le(("thm45-iii-hi", i), got - target, bound))
        if "iv" in parts:
            small = limit_small_gamma(op, fn, x, [2.0**-10], OPTS)
            cases.append(
                _le(("thm45-iv-lo", i), -small.gaps[-1], 0.0, 1e-8)
            )
            cases.append(
                _le(("thm45-iv-hi", i), small.gaps[-1], 2.0**-10 / 2 + 1e-6)
            )
        if "vi" in parts:
            target, zstar = _large_gamma_target(op, fn, x, "cocomposition", 10.0)
            got = _co_value(CompositionSpec(op, fn, 2.0**10), x)
            nb = op.norm_estimate
            # gap bound from the strongly convex defect conjugate
            far = float(np.linalg.norm(op.apply(x) - zstar) ** 2)
            bound = far / (2 * (1 - nb**2) * 2.0**10) + 1e-4
            cases.append(_le(("thm45-vi-lo", i), target - got, 1e-6))
            cases.append(_le(("thm45-vi-hi", i), got - target, bound))
    if "vii" in parts:
        for i in range(max(n // 2, 4)):
            proj = _projection_map(rng, 2)
            fn = EuclideanNorm(2).translate(rng.normal(size=2) * 0.4)
            x = rng.normal(size=2) * 0.5
            target, that = _large_gamma_target(proj, fn, x, "cocomposition", 6.0)
            got = _co_value(CompositionSpec(proj, fn, 2.0**10), x)
            bound = float(np.dot(that, that)) / (2 * 2.0**10) + 1e-4
            cases.append(_le(("thm45-vii-lo", i), target - got, 1e-6))
            cases.append(_le(("thm45-vii-hi", i), got - target, bound))
    return cases


def suite_cor46(rng, scale):
    """Isometry limits of the composition in both parameter directions."""
    cases = []
    n = max(scale.n_cases // 5, 10)
    for i in range(n):
        iso = _isometry(rng, int(rng.integers(2, 4)), 1)
        fn = _random_lipschitz_fn(rng, iso.rows, beta_one=True)
        x = np.atleast_1d(rng.normal() * 0.5)
        comp_small = _comp_value(CompositionSpec(iso, fn, 2.0**-10), x)
        cases.append(
            _eq(
                ("cor46-small", i),
                float(np.asarray(fn(iso.apply(x)))),
                comp_small,
                1e-3,
            )
        )
        spec_big = CompositionSpec(iso, fn, 2.0**10)
        target, witness = pushforward_infimum(iso, fn, x)
        got = _comp_value(spec_big, x)
        bound = float(spec_big.defect(witness)) / 2.0**10 + 1e-4
        cases.append(_le(("cor46-large-lo", i), target - got, 1e-6))
        cases.append(_le(("cor46-large-hi", i), got - target, bound))
    return cases


def suite_prop55(rng, scale):
    """Infima of shrinking-parameter cocompositions reach the composed min."""
    cases = []
    gammas = [2.0**-n for n in range(0, 13)]
    instances = [
        (
            DenseMap([[0.5]]),
            L1Norm(1).translate([1.0]),
            np.array([-6.0]),
            np.array([6.0]),
        ),
        (
            DenseMap([[0.6], [0.0]]),
            quadratic_kernel(2).translate([0.0, 0.8]),
            np.array([-4.0]),
            np.array([4.0]),
        ),
        (
            DenseMap([[0.6], [0.0]]),
            BallDistance([0.0, 2.0], 1.0).scale_val(0.5),
            np.array([-4.0]),
            np.array([4.0]),
        ),
    ]
    for i, (op, fn, lo, hi) in enumerate(instances):
        ref, _ = refined_grid_min(
            lambda Z: np.asarray(fn(op.apply(Z))).reshape(len(Z)), lo, hi, 2001
        )
        rep = argmin_gamma_sequence(op, fn, gammas, OPTS, reference=ref)
        cases.append(_eq(("prop55", i), ref, rep.infima[-1], 1e-4))
        coarse = np.diff(rep.infima)
        cases.append(_le(("prop55-monotone", i), float(np.max(-coarse, initial=0.0)), 1e-7))
    return cases


# ---------------------------------------------------------------------------
# mixture suites
# ---------------------------------------------------------------------------


def _random_mixture(
    rng, base_dim=None, n_terms=None, lipschitz=False, conjugable=False,
    beta_one=False,
):
    base = base_dim or int(rng.integers(1, 3))
    p = n_terms or int(rng.integers(1, 4))
    terms = []
    raw = rng.uniform(0.3, 1.0, size=p)
    ops = []
    for k in range(p):
        rows = int(rng.integers(1, 3))
        ops.append(_random_operator(rng, rows, base))
    budget = sum(a * op.norm_estimate**2 for a, op in zip(raw, ops))
    alphas = raw / budget * rng.uniform(0.5, 1.0)
    for a, op in zip(alphas, ops):
        if beta_one:
            fn = _random_lipschitz_fn(rng, op.rows, beta_one=True)
        elif conjugable:
            fn = _random_conjugable_fn(rng, op.rows)
        elif lipschitz:
            fn = _random_lipschitz_fn(rng, op.rows)
        else:
            fn = _random_fullspace_fn(rng, op.rows)
        terms.append(MixtureTerm(float(a), op, fn))
    return MixtureSpec(terms, float(rng.uniform(0.3, 2.5)))


def suite_prop60(rng, scale):
    """Reduction consistency: direct-sum path vs defining-sum path."""
    cases = []
    n = max(scale.n_cases, 100)
    for i in range(n):
        spec = _random_mixture(rng)
        x = rng.normal(size=spec.base_dim)
        res = mixture_eval(spec, x, OPTS)
        if np.isfinite(res.value):
            cases.append(_eq(("prop60-mix", i), res.direct.value, res.value, 2e-6))
        cres = comixture_eval(spec, x, OPTS)
        cases.append(_eq(("prop60-comix", i), cres.direct.value, cres.value, 2e-6))
        emb = embed(spec)
        budget = sum(t.alpha * t.operator.norm_estimate**2 for t in spec.terms)
        cases.append(
            _le(("prop60-norm", i), emb.stacked_map.norm_estimate**2, budget, 1e-9)
        )
    return cases


def suite_thm65(rng, scale):
    """Mixture prox/envelope/argmin/recession/Lipschitz decompositions."""
    cases = []
    n = max(scale.n_cases // 2, 30)
    for i in range(n):
        spec = _random_mixture(rng)
        x = rng.normal(size=spec.base_dim)
        emb = embed(spec)
        # (v)-(vi): per-term prox sums equal the embedding prox exactly
        d_mix = np.linalg.norm(
            mixture_prox(spec, x) - prox_composition(emb.composition, x)
        )
        d_comix = np.linalg.norm(
            comixture_prox(spec, x) - prox_cocomposition(emb.composition, x)
        )
        cases.append(_eq(("thm65-v", i), 0.0, d_mix, TIGHT_SLACK))
        cases.append(_eq(("thm65-vi", i), 0.0, d_comix, TIGHT_SLACK))
        # (viii): envelope sum equals the embedding envelope collapse
        lhs = comixture_envelope(spec, x)
        rhs = envelope(emb.stacked_fn, spec.gamma, emb.stacked_map.apply(x))
        cases.append(_eq(("thm65-viii", i), rhs, lhs, TIGHT_SLACK))
        # (x): recession sums
        lhs = comixture_recession(spec, x)
        rhs = emb.stacked_fn.recession(emb.stacked_map.apply(x))
        if np.isfinite(lhs) or np.isfinite(rhs):
            cases.append(_eq(("thm65-x", i), float(rhs), float(lhs), 1e-8))
    # (ix): argmin of the comixture matches the envelope-sum argmin
    for i in range(10):
        spec = _random_mixture(rng, lipschitz=True)
        rep = comixture_argmin(spec, OPTS)
        if rep.status != "converged":
            continue
        sample = rep.argpoint[None, :] + rng.normal(size=(20, spec.base_dim))
        vals = comixture_eval_batch(spec, sample, OPTS)[0]
        got = comixture_eval(spec, rep.argpoint, OPTS).value
        cases.append(_le(("thm65-ix", i), got, float(np.min(vals)), 1e-5))
    # (xi): probability weights with Lipschitz terms transfer the constant
    for i in range(10):
        p = int(rng.integers(1, 4))
        fns = [_random_lipschitz_fn(rng, 2, beta_one=True) for _ in range(p)]
        ops = [_isometry(rng, 2, 2) for _ in range(p)]
        raw = rng.uniform(0.2, 1.0, size=p)
        alphas = raw / raw.sum()
        spec = MixtureSpec(
            [MixtureTerm(float(a), op, f) for a, op, f in zip(alphas, ops, fns)],
            rng.uniform(0.3, 2.0),
        )
        A = rng.normal(size=(20, 2))
        B = A + rng.normal(size=A.shape)
        va = comixture_eval_batch(spec, A, OPTS)[0]
        vb = comixture_eval_batch(spec, B, OPTS)[0]
        bound = np.linalg.norm(A - B, axis=-1) + 2e-6
        cases.append(_le(("thm65-xi", i), float(np.max(np.abs(va - vb) - bound)), 0.0))
    # (iii): conjugate pairing at prox witnesses
    for i in range(10):
        spec = _random_mixture(rng, conjugable=True)
        x = rng.normal(size=spec.base_dim)
        p = mixture_prox(spec, x)
        s = (x - p) / spec.gamma
        conj_terms = [
            MixtureTerm(t.alpha, t.operator, conjugate_function(t.fn))
            for t in spec.terms
        ]
        conj_spec = MixtureSpec(conj_terms, 1.0 / spec.gamma)
        fy = (
            mixture_eval(spec, p, OPTS).value
            + comixture_eval(conj_spec, s, OPTS).value
            - float(np.dot(p, s))
        )
        cases.append(_eq(("thm65-iii", i), 0.0, fy, 1e-5))
    return cases


def suite_thm70(rng, scale):
    """Mixture orderings, isometry collapse and both parameter limits."""
    cases = []
    n = max(scale.n_cases // 2, 25)
    for i in range(n):
        spec = _random_mixture(rng, lipschitz=True)
        x = rng.normal(size=spec.base_dim)
        comix = comixture_eval(spec, x, OPTS).value
        mix = mixture_eval(spec, x, OPTS).value
        env_sum = comixture_envelope(spec, x)
        plain = sum(
            t.alpha * float(np.asarray(t.fn(t.operator.apply(x))))
            for t in spec.terms
        )
        cases.append(_le(("thm70-ii-lo", i), env_sum, comix, INEQ_SLACK))
        cases.append(_le(("thm70-ii-hi", i), comix, plain, INEQ_SLACK))
        cases.append(_le(("thm70-iii", i), comix, mix, INEQ_SLACK))
        # (vib): small-parameter limit reaches the weighted plain sum
        # within the weighted envelope-gap bound
        tiny = comixture_eval(spec.with_gamma(2.0**-10), x, OPTS).value
        gap_bound = 2.0**-10 * sum(
            t.alpha * (t.fn.lipschitz_bound() or 1.0) ** 2 for t in spec.terms
        ) / 2.0
        cases.append(_le(("thm70-vib", i), abs(plain - tiny), gap_bound + 1e-5))
    # (iv): probability weights and isometric operators collapse the pair
    for i in range(10):
        p = int(rng.integers(1, 3))
        raw = rng.uniform(0.2, 1.0, size=p)
        alphas = raw / raw.sum()
        terms = [
            MixtureTerm(float(a), _isometry(rng, 2, 1), _random_lipschitz_fn(rng, 2))
            for a in alphas
        ]
        spec = MixtureSpec(terms, rng.uniform(0.3, 2.0))
        x = np.atleast_1d(rng.normal())
        cases.append(
            _eq(
                ("thm70-iv", i),
                mixture_eval(spec, x, OPTS).value,
                comixture_eval(spec, x, OPTS).value,
                1e-6,
            )
        )
    # (via): growing-parameter mixture tail against the constrained infimum
    # (nonnegative targets keep the fiber infimum finite and near zero)
    for i in range(6):
        spec = _random_mixture(rng, base_dim=1, n_terms=2, beta_one=True)
        x = np.atleast_1d(rng.normal() * 0.5)
        rep = pcm_estimate(spec, x, [2.0**10], OPTS)
        if rep.oracle is None or not np.isfinite(rep.values[-1]):
            continue
        defect = float(embed(spec).composition.defect(rep.oracle_witness))
        slope = sum(np.sqrt(t.alpha) for t in spec.terms)
        lo_slack = 4 * slope * (5 * 16.0 / 801 / 801) + 1e-3
        cases.append(_le(("thm70-via-lo", i), rep.oracle - rep.values[-1], lo_slack))
        cases.append(
            _le(
                ("thm70-via-hi", i),
                rep.values[-1] - rep.oracle,
                defect / 2.0**10 + 1e-3,
            )
        )
    return cases


def suite_ex12(rng, scale):
    """Finite-family limits of mixtures (two-term scalar instances)."""
    cases = []
    for i in range(max(scale.n_cases // 10, 6)):
        spec = _random_mixture(rng, base_dim=1, n_terms=2, beta_one=True)
        x = np.atleast_1d(rng.normal() * 0.5)
        rep = pcm_estimate(spec, x, [2.0**k for k in range(0, 11, 2)], OPTS)
        cases.append(_true(("ex12-monotone", i), rep.monotone))
        if rep.oracle is not None and rep.final_gap is not None:
            defect = float(embed(spec).composition.defect(rep.oracle_witness))
            # the oracle overestimates by at most the kink slope of the
            # rescaled blocks times the fine grid step, plus solver slack
            slope = sum(np.sqrt(t.alpha) for t in spec.terms)
            lo_slack = 4 * slope * (5 * 16.0 / 801 / 801) + 1e-3
            cases.append(_le(("ex12-i-lo", i), -rep.final_gap, lo_slack))
            cases.append(
                _le(("ex12-i-hi", i), rep.final_gap, defect / 2.0**10 + 1e-3)
            )
        cases.append(_ex12_ii_case(i, spec, x))
    return cases


def _ex12_ii_case(i, spec, x):
    """Ex. 12 (ii): the comixture at ``gamma = 2**-11`` reaches the weighted sum of values.

    The comixture is the cocomposition of the embedding, whose conjugate
    lives on the ball of radius ``sqrt(sum_k alpha_k beta_k^2)``, where the
    penalty ``gamma Phi(y)`` is at most ``gamma ||y||^2 / 2``.  So the gap
    to the plain sum lies in ``[0, gamma sum_k alpha_k beta_k^2 / 2]``, the
    small-gamma bound of ``limit_small_gamma`` and thm70-vib; the case
    checks both sides with a slack of 1e-3.
    """
    plain = sum(
        t.alpha * float(np.asarray(t.fn(t.operator.apply(x))))
        for t in spec.terms
    )
    gamma = 2.0**-11
    tiny = comixture_eval(spec.with_gamma(gamma), x, OPTS).value
    bound = gamma * sum(t.alpha * t.fn.lipschitz_bound() ** 2 for t in spec.terms) / 2
    return _within(("ex12-ii", i), plain - tiny, bound, 1e-3)


def suite_ex13(rng, scale):
    """Comixture infima converge to the averaged-composition minimum."""
    cases = []
    gammas = [2.0**-n for n in range(0, 13)]
    instances = []
    t1 = [
        MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1).translate([1.0])),
        MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1).translate([1.0]).scale_val(2.0)),
    ]
    instances.append((t1, np.array([-5.0]), np.array([5.0])))
    t2 = [
        MixtureTerm(0.5, DenseMap.identity(1), L1Norm(1).translate([1.0]).scale_val(0.5)),
        MixtureTerm(0.5, DenseMap.identity(1), quadratic_kernel(1).scale_val(0.5)),
    ]
    instances.append((t2, np.array([-5.0]), np.array([5.0])))
    t3 = [
        MixtureTerm(0.6, DenseMap([[0.6]]), BallDistance([1.0], 0.3)),
        MixtureTerm(0.4, DenseMap([[0.5]]), quadratic_kernel(1).translate([0.4])),
    ]
    instances.append((t3, np.array([-6.0]), np.array([6.0])))
    for i, (terms, lo, hi) in enumerate(instances):
        def averaged(Z, terms=terms):
            total = 0.0
            for t in terms:
                total = total + t.alpha * np.asarray(t.fn(t.operator.apply(Z)))
            return total.reshape(len(Z))

        ref, _ = refined_grid_min(averaged, lo, hi, 2001)
        rep = comixture_argmin_sequence(terms, gammas, OPTS, reference=ref)
        cases.append(_eq(("ex13-iii", i), ref, rep.infima[-1], 1e-4))
    return cases


def suite_prop75(rng, scale):
    """Expectation of composed terms equals the comixture (scalar case)."""
    cases = []
    for i in range(max(scale.n_cases // 10, 6)):
        p = int(rng.integers(1, 3))
        raw = rng.uniform(0.3, 1.0, size=p)
        alphas = raw / raw.sum()
        gamma = rng.uniform(0.4, 2.0)
        base_terms = []
        wrapped = []
        for a in alphas:
            op = _random_operator(rng, 1, 1, lo=0.3, hi=0.9)
            fn = _random_conjugable_fn(rng, 1)
            base_terms.append(MixtureTerm(float(a), op, fn))
            inner = CompositionSpec(op, fn, gamma)
            dual = CompositionSpec(op, conjugate_function(fn), 1.0 / gamma)
            wrapped.append(
                MixtureTerm(
                    float(a),
                    DenseMap.identity(1),
                    OracleFunction(
                        1,
                        value_fn=lambda Z, s=inner: _co_values(
                            s, np.atleast_2d(Z)
                        ).reshape(np.shape(Z)[:-1]),
                        prox_fn=lambda t, Z, s=inner: prox_cocomposition(s, Z),
                        conjugate_fn=lambda Y, d=dual: _comp_values(
                            d, np.atleast_2d(Y)
                        ).reshape(np.shape(Y)[:-1]),
                        prox_gamma=gamma,
                    ),
                )
            )
        base = MixtureSpec(base_terms, gamma)
        expectation = MixtureSpec(wrapped, gamma)
        x = np.atleast_1d(rng.normal())
        lhs = comixture_eval(expectation, x, OPTS).embedding.value
        rhs = comixture_eval(base, x, OPTS).value
        cases.append(_eq(("prop75", i), rhs, lhs, 1e-5))
    return cases


def suite_prop79(rng, scale):
    """Proximal expectation identities on finite families."""
    cases = []
    n = max(scale.n_cases // 4, 15)
    for i in range(n):
        dim = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        raw = rng.uniform(0.2, 1.0, size=p)
        alphas = raw / raw.sum()
        fns = [_random_lipschitz_fn(rng, dim) for _ in range(p)]
        gamma = rng.uniform(0.3, 2.0)
        spec = proximal_average(fns, alphas, gamma)
        x = rng.normal(size=dim)
        # (i): mixture equals comixture for identity operators
        cases.append(
            _eq(
                ("prop79-i", i),
                mixture_eval(spec, x, OPTS).value,
                comixture_eval(spec, x, OPTS).value,
                1e-6,
            )
        )
        # (iv): prox decomposes into the weighted prox average
        expected = sum(
            a * f.prox(gamma, x) for a, f in zip(alphas, fns)
        )
        got = mixture_prox(spec, x)
        cases.append(
            _eq(("prop79-iv", i), 0.0, float(np.linalg.norm(got - expected)), TIGHT_SLACK)
        )
        # (vi): envelope averages
        lhs = comixture_envelope(spec, x)
        rhs = sum(a * envelope(f, gamma, x) for a, f in zip(alphas, fns))
        cases.append(_eq(("prop79-vi", i), rhs, lhs, TIGHT_SLACK))
        # (viii): recession averages
        lhs = comixture_recession(spec, x)
        rhs = sum(a * float(np.asarray(f.recession(x))) for a, f in zip(alphas, fns))
        if np.isfinite(rhs):
            cases.append(_eq(("prop79-viii", i), rhs, lhs, 1e-9))
    # (iv) sampled: Monte Carlo estimate brackets the enumerated prox
    for i in range(3):
        dim = 1
        fns = [L1Norm(1).translate([w]) for w in (-1.0, 0.0, 1.0)]
        weights = np.ones(3) / 3
        gamma = rng.uniform(0.4, 1.5)
        x = np.atleast_1d(rng.normal() * 2)
        exact = mixture_prox(proximal_average(fns, weights, gamma), x)

        def draw(r, fns=fns):
            return fns[int(r.integers(0, 3))]

        est = sampled_expectation_prox(draw, int(rng.integers(0, 2**31)), 10_000, gamma, x)
        err = np.abs(est.mean - exact)
        cases.append(
            _true(("prop79-mc", i), bool(np.all(err <= 3 * est.stderr + 1e-12)))
        )
    return cases


def suite_prop80(rng, scale):
    """Expectation sandwich and its two parameter limits."""
    cases = []
    n = max(scale.n_cases // 5, 10)
    for i in range(n):
        p = 2
        raw = rng.uniform(0.3, 1.0, size=p)
        alphas = raw / raw.sum()
        fns = [_random_lipschitz_fn(rng, 1, beta_one=True) for _ in range(p)]
        gamma = rng.uniform(0.3, 2.0)
        spec = proximal_average(fns, alphas, gamma)
        x = np.atleast_1d(rng.normal() * 0.5)
        value = mixture_eval(spec, x, OPTS).value
        plain = sum(a * float(np.asarray(f(x))) for a, f in zip(alphas, fns))
        cases.append(_le(("prop80-ii-hi", i), value, plain, INEQ_SLACK))
        # lower bound: the constrained infimum over mean-constrained pairs
        rep = pcm_estimate(spec, x, [2.0**9], OPTS)
        if rep.oracle is not None:
            cases.append(_le(("prop80-ii-lo", i), rep.oracle, value, 1e-3))
            defect = float(embed(spec).composition.defect(rep.oracle_witness))
            cases.append(_le(("prop80-iiia-lo", i), -rep.final_gap, 1e-3))
            cases.append(
                _le(("prop80-iiia-hi", i), rep.final_gap, defect / 2.0**9 + 1e-3)
            )
        tiny = mixture_eval(spec.with_gamma(2.0**-10), x, OPTS).value
        cases.append(_le(("prop80-iiib", i), abs(plain - tiny), 2.0**-10 / 2 + 1e-5))
    return cases


def suite_remark80(rng, scale):
    """Proximal average: recession sum and Lipschitz preservation."""
    cases = []
    n = max(scale.n_cases // 4, 15)
    for i in range(n):
        dim = int(rng.integers(1, 3))
        p = int(rng.integers(2, 4))
        raw = rng.uniform(0.2, 1.0, size=p)
        alphas = raw / raw.sum()
        fns = [_random_lipschitz_fn(rng, dim, beta_one=True) for _ in range(p)]
        spec = proximal_average(fns, alphas, rng.uniform(0.3, 2.0))
        x = rng.normal(size=dim)
        lhs = comixture_recession(spec, x)
        rhs = sum(a * float(np.asarray(f.recession(x))) for a, f in zip(alphas, fns))
        cases.append(_eq(("remark80-rec", i), rhs, lhs, 1e-9))
        a_pt = rng.normal(size=dim) * 2
        b_pt = a_pt + rng.normal(size=dim)
        va = mixture_eval(spec, a_pt, OPTS).value
        vb = mixture_eval(spec, b_pt, OPTS).value
        cases.append(
            _le(
                ("remark80-lip", i),
                abs(va - vb),
                np.linalg.norm(a_pt - b_pt) + 2e-6,
            )
        )
    return cases


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _parted(fn, parts):
    return lambda rng, scale: fn(rng, scale, parts=parts)


SUITES = {
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma8": suite_lemma8,
    "lemma10": suite_lemma10,
    "prop1": suite_prop1,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "prop6": suite_prop6,
    "prop7": suite_prop7,
    "prop9": suite_prop9,
    "prop10": suite_prop10,
    "prop10-i": _parted(suite_prop10, ("i",)),
    "prop10-ii": _parted(suite_prop10, ("ii",)),
    "cor-argmin": suite_cor_argmin,
    "cor11": suite_cor11,
    "prop13": suite_prop13,
    "prop16": suite_prop16,
    "prop17": suite_prop17,
    "prop17-i": _parted(suite_prop17, ("i",)),
    "prop17-ii": _parted(suite_prop17, ("ii",)),
    "prop18": suite_prop18,
    "cor19": suite_cor19,
    "prop20": suite_prop20,
    "prop25": suite_prop25,
    "prop30": suite_prop30,
    "prop30-i": _parted(suite_prop30, ("i",)),
    "prop30-ii": _parted(suite_prop30, ("ii",)),
    "ex-comp": suite_ex_comp,
    "ex-proj": suite_ex_proj,
    "ex-yama": suite_ex_yama,
    "thm45": suite_thm45,
    "thm45-i": _parted(suite_thm45, ("i",)),
    "thm45-ii": _parted(suite_thm45, ("ii",)),
    "thm45-iii": _parted(suite_thm45, ("iii",)),
    "thm45-iv": _parted(suite_thm45, ("iv",)),
    "thm45-vi": _parted(suite_thm45, ("vi",)),
    "thm45-vii": _parted(suite_thm45, ("vii",)),
    "cor46": suite_cor46,
    "prop55": suite_prop55,
    "prop60": suite_prop60,
    "thm65": suite_thm65,
    "thm70": suite_thm70,
    "ex12": suite_ex12,
    "ex13": suite_ex13,
    "prop75": suite_prop75,
    "prop79": suite_prop79,
    "prop80": suite_prop80,
    "remark80": suite_remark80,
}

#: suites executed by ``run_all``, in registry order: every id but the
#: parts ``<suite>-<part>`` of a registered suite, which would rerun it
TOP_LEVEL_SUITES = [sid for sid in SUITES if sid.rpartition("-")[0] not in SUITES]

#: every in-scope item mapped to at least one registered suite
IN_SCOPE_MANIFEST = {
    "definition-compositions": ["prop4", "prop20"],
    "lemma-scaling-conjugates": ["lemma2"],
    "lemma-envelope-scaling": ["lemma3"],
    "lemma-moreau-identities": ["lemma8"],
    "lemma-quadratic-conjugate": ["lemma10"],
    "scaling-calculus": ["prop1"],
    "evaluation-domains": ["prop4"],
    "perturbation-translation": ["prop5"],
    "convexity-shift": ["prop6"],
    "class-membership": ["prop7"],
    "subdifferentials": ["prop9"],
    "envelopes-of-cocompositions": ["prop10"],
    "argmin-collapse": ["cor-argmin"],
    "associativity": ["cor11"],
    "recession": ["prop13"],
    "perspective": ["prop16"],
    "prox-formulas": ["prop17"],
    "smoothness": ["prop18"],
    "lipschitz-transfer": ["cor19"],
    "ordering-chain": ["prop20"],
    "zero-gap-cases": ["prop25"],
    "gap-bounds": ["prop30"],
    "example-semiorthogonal": ["ex-comp"],
    "example-projection": ["ex-proj"],
    "example-gram-projection": ["ex-yama"],
    "parameter-asymptotics": ["thm45"],
    "isometry-limits": ["cor46"],
    "minimizer-convergence": ["prop55"],
    "mixture-reduction": ["prop60"],
    "mixture-decompositions": ["thm65"],
    "mixture-orderings-limits": ["thm70"],
    "finite-mixture-limits": ["ex12"],
    "mixture-minimizer-convergence": ["ex13"],
    "expectation-of-compositions": ["prop75"],
    "proximal-expectation": ["prop79"],
    "expectation-sandwich": ["prop80"],
    "proximal-average": ["remark80"],
    "sampled-expectation-demo": ["prop79"],
}


def suite_ids():
    return sorted(SUITES)


def run_suite(suite_id, seed=0, scale="default"):
    """Execute one suite deterministically and return its report."""
    if suite_id not in SUITES:
        raise RegistryError(f"unknown suite id: {suite_id!r}")
    if isinstance(scale, str):
        if scale not in SCALES:
            raise RegistryError(f"unknown scale name: {scale!r}")
        scale_name, scale_obj = scale, SCALES[scale]
    else:
        scale_name, scale_obj = "custom", scale
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    cases = SUITES[suite_id](rng, scale_obj)
    elapsed = time.perf_counter() - start
    return SuiteReport(suite_id, int(seed), scale_name, cases, elapsed)


def run_all(seed=0, scale="default", ids=None):
    """Run the requested suites (all top-level ones by default)."""
    ids = list(ids) if ids else list(TOP_LEVEL_SUITES)
    return [run_suite(sid, seed=seed, scale=scale) for sid in ids]
