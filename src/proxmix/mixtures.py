"""Finite proximal mixtures, comixtures, averages and expectations.

A mixture combines weighted pairs ``(alpha_k, L_k, g_k)`` sharing a base
space so that the proximity operator of the combined function splits into
the individual proxes.  Everything reduces to a single composition on a
weighted direct sum: stacking ``sqrt(alpha_k) L_k`` and rescaling the
block functions flattens the weighted inner product into a standard one.
A single-point evaluation result also offers the value computed a second
time, directly from the defining per-term sums by ``oracles``, as an
independent cross-check of the reduction; that second solve is looked up
and run when the result's ``direct`` or ``paths_gap`` is first read.  The
batch forms ``mixture_eval_batch`` and ``comixture_eval_batch`` solve many
points in one embedding solve and run no cross-check, and the comixture's
minimizers are those of the embedding's cocomposition.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import AdmissibilityError, ParameterError, UnsupportedDimension
from .compositions import (
    CompositionSpec,
    argmin_cocomposition,
    argmin_gamma_sequence,
    eval_cocomposition,
    eval_cocomposition_batch,
    eval_composition,
    eval_composition_batch,
)
from .functions import ConvexFunction, SeparableSum
from .linalg import DenseMap, _json_numbers, as_vector
from .moreau import DEFAULT_OPTS, SolveReport, SolverOpts, envelope
from . import oracles

__all__ = [
    "MixtureTerm",
    "MixtureSpec",
    "DirectSumEmbedding",
    "embed",
    "MixtureEvalResult",
    "mixture_eval",
    "comixture_eval",
    "mixture_eval_batch",
    "comixture_eval_batch",
    "mixture_prox",
    "comixture_prox",
    "comixture_envelope",
    "comixture_argmin",
    "comixture_argmin_sequence",
    "comixture_recession",
    "pcm_estimate",
    "PcmReport",
    "sampled_expectation_prox",
    "SampledProxEstimate",
    "proximal_average",
]

WEIGHT_BUDGET_TOL = 1e-9
_PCM_HALFWIDTH = 8.0  # grid window of pcm_estimate's constrained-infimum search
_PCM_SLACK = 1e-6  # pcm_estimate's slack on the monotone decrease of the tail


@dataclass(frozen=True)
class MixtureTerm:
    alpha: float
    operator: DenseMap
    fn: ConvexFunction

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError("mixture weights must be positive")
        if self.fn.dim != self.operator.rows:
            raise ParameterError(
                "term function dimension does not match operator rows"
            )


class MixtureSpec:
    """Weighted family ``(alpha_k, L_k, g_k)`` with parameter ``gamma``.

    Validates the norm budget ``0 < sum alpha_k ||L_k||^2 <= 1`` and that
    every operator shares the same base space.  A spec is immutable:
    assigning an attribute raises AttributeError, and ``with_gamma``
    builds a new spec.  So its direct-sum embedding is built once, on the
    first ``embed``, and shared by every later call.
    """

    def __init__(self, terms: Sequence[MixtureTerm], gamma: float):
        terms = tuple(
            t if isinstance(t, MixtureTerm) else MixtureTerm(*t) for t in terms
        )
        if not terms:
            raise ParameterError("a mixture needs at least one term")
        if not 0 < gamma < np.inf:
            raise ParameterError("gamma must be finite and positive")
        base = terms[0].operator.cols
        if any(t.operator.cols != base for t in terms):
            raise ParameterError("all operators must share the base dimension")
        # The tight estimate avoids double-counting the per-term certificate
        # inflation; the 1e-9 slack below is the acceptance tolerance.
        budget = sum(t.alpha * t.operator.norm_estimate**2 for t in terms)
        if not 0.0 < budget <= 1.0 + WEIGHT_BUDGET_TOL:
            raise AdmissibilityError(
                f"weight budget sum alpha ||L||^2 = {budget:.6g} outside (0, 1]"
            )
        self.__dict__.update(terms=terms, gamma=float(gamma), base_dim=base)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"MixtureSpec is immutable, cannot set {name!r}; use with_gamma for a new parameter"
        )

    def with_gamma(self, gamma):
        return MixtureSpec(self.terms, gamma)

    @cached_property
    def _embedding(self):
        """The direct-sum embedding that ``embed`` returns."""
        rows = []
        blocks = []
        offset = 0
        for t in self.terms:
            root = np.sqrt(t.alpha)
            rows.append(root * t.operator.entries)
            blocks.append((t.alpha, t.fn.scale_arg(1.0 / root), offset))
            offset += t.fn.dim
        stacked_map = DenseMap(np.vstack(rows))
        stacked_fn = SeparableSum(blocks)
        comp = CompositionSpec(stacked_map, stacked_fn, self.gamma)
        return DirectSumEmbedding(stacked_map, stacked_fn, comp)

    def to_json(self):
        from .functions import function_to_spec

        return {
            "gamma": self.gamma,
            "terms": [
                {
                    "alpha": t.alpha,
                    "L": t.operator.to_json(),
                    "g": function_to_spec(t.fn),
                }
                for t in self.terms
            ],
        }

    @classmethod
    def from_json(cls, obj):
        from .functions import function_from_spec

        return cls(
            [
                MixtureTerm(
                    float(_json_numbers(t["alpha"], "alpha")),
                    DenseMap.from_json(t["L"]),
                    function_from_spec(t["g"]),
                )
                for t in obj["terms"]
            ],
            float(_json_numbers(obj["gamma"], "gamma")),
        )


def proximal_average(fns, weights, gamma):
    """Mixture with identity operators and probability weights, one per function."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(fns):
        raise ParameterError(f"{len(fns)} functions but {len(weights)} weights")
    if not np.isclose(weights.sum(), 1.0, atol=1e-12):
        raise ParameterError("proximal average weights must sum to one")
    dim = fns[0].dim
    return MixtureSpec(
        [MixtureTerm(float(w), DenseMap.identity(dim), f) for w, f in zip(weights, fns)],
        gamma,
    )


# ---------------------------------------------------------------------------
# direct-sum reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectSumEmbedding:
    """Single-composition realization of a mixture.

    ``stacked_map`` stacks ``sqrt(alpha_k) L_k``; ``stacked_fn`` is the
    separable sum whose block ``k`` evaluates
    ``alpha_k g_k(. / sqrt(alpha_k))``.  The mixture and comixture of the
    original family equal the composition and cocomposition of this pair.
    """

    stacked_map: DenseMap
    stacked_fn: ConvexFunction
    composition: CompositionSpec


def embed(spec: MixtureSpec) -> DirectSumEmbedding:
    """The weighted direct-sum composition of a mixture.

    Built on the first call for ``spec`` (the stacked map, the separable
    sum and the admissibility check of the composition); the spec is
    immutable, so every later call returns that same object.
    """
    return spec._embedding


# ---------------------------------------------------------------------------
# evaluation (embedding path + defining-sum path)
# ---------------------------------------------------------------------------


@dataclass
class MixtureEvalResult:
    """Value of a mixture or comixture at a point.

    ``value`` comes from the embedding path, reported in ``embedding``.
    The per-term cross-check ``direct`` and its distance ``paths_gap`` to
    ``value`` are computed when first read; ``paths_gap`` is 0.0, without
    solving, when ``value`` is not finite.
    """

    embedding: SolveReport
    value: float
    # not a field: the fields stay plain values that compare and print as such
    solve_direct: InitVar[Callable[[], SolveReport]]

    def __post_init__(self, solve_direct):
        self._solve_direct = solve_direct

    @cached_property
    def direct(self) -> SolveReport:
        return self._solve_direct()

    @cached_property
    def paths_gap(self) -> float:
        if not np.isfinite(self.value):
            return 0.0
        return float(abs(self.value - self.direct.value))


def mixture_eval(spec, x, opts: SolverOpts = DEFAULT_OPTS):
    """Mixture value at ``x``; the per-term cross-check runs when first read."""
    x = as_vector(x, spec.base_dim).copy()
    emb = eval_composition(embed(spec).composition, x, opts)
    return MixtureEvalResult(emb, emb.value, lambda: oracles._mixture_direct(spec, x, opts))


def comixture_eval(spec, x, opts: SolverOpts = DEFAULT_OPTS):
    """Comixture value at ``x``; the per-term cross-check runs when first read."""
    x = as_vector(x, spec.base_dim).copy()
    emb = eval_cocomposition(embed(spec).composition, x, opts)
    return MixtureEvalResult(emb, emb.value, lambda: oracles._comixture_direct(spec, x, opts))


def mixture_eval_batch(spec, X, opts: SolverOpts = DEFAULT_OPTS):
    """Mixture values over rows of ``X``: (values, status, iters); no cross-check."""
    return eval_composition_batch(embed(spec).composition, X, opts)


def comixture_eval_batch(spec, X, opts: SolverOpts = DEFAULT_OPTS):
    """Comixture values over rows of ``X``: (values, status, iters); no cross-check."""
    return eval_cocomposition_batch(embed(spec).composition, X, opts)


# ---------------------------------------------------------------------------
# exact per-term operations
# ---------------------------------------------------------------------------


def mixture_prox(spec, x):
    """Prox of the scaled mixture: ``sum_k alpha_k L_k* prox_{gamma g_k}(L_k x)``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for t in spec.terms:
        w = t.operator.apply(x)
        out = out + t.alpha * t.operator.adjoint_apply(t.fn.prox(spec.gamma, w))
    return out


def comixture_prox(spec, x):
    """Prox of the scaled comixture: identity minus the per-term residuals."""
    x = np.asarray(x, dtype=float)
    out = x.copy()
    for t in spec.terms:
        w = t.operator.apply(x)
        out = out - t.alpha * t.operator.adjoint_apply(
            w - t.fn.prox(spec.gamma, w)
        )
    return out


def _weighted_sum(spec, x, term_value):
    """``sum_k alpha_k term_value(term_k, L_k x)``, batched over ``x``."""
    x = np.asarray(x, dtype=float)
    total = sum(
        t.alpha * np.asarray(term_value(t, t.operator.apply(x))) for t in spec.terms
    )
    return float(total) if np.ndim(total) == 0 else total


def comixture_envelope(spec, x):
    """Envelope of the comixture: ``sum_k alpha_k env_gamma(g_k)(L_k x)``; exact."""
    return _weighted_sum(spec, x, lambda t, w: envelope(t.fn, spec.gamma, w))


def comixture_recession(spec, x):
    """Recession of the comixture: weighted per-term recession sum."""
    return _weighted_sum(spec, x, lambda t, w: t.fn.recession(w))


def comixture_argmin(spec, opts: SolverOpts = DEFAULT_OPTS, x0=None):
    """Minimize the comixture: ``argmin_cocomposition`` on the direct-sum embedding.

    The comixture is the cocomposition of the embedding, so its minimizers
    are those of the smooth collapse ``x -> env_gamma(G)(Sx)``, with ``S``
    the stacked map and ``G`` the stacked function.  The collapse gradient
    is ``S* grad env_gamma(G)(Sx)``, so the step is ``gamma / ||S||^2``;
    ``||S||^2`` never exceeds ``sum_k alpha_k ||L_k||^2``.
    """
    return argmin_cocomposition(embed(spec).composition, opts, x0)


def comixture_argmin_sequence(terms, gammas, opts: SolverOpts = DEFAULT_OPTS, reference=None):
    """Comixture infima along a shrinking parameter sequence.

    ``argmin_gamma_sequence`` on the stacked map and function of the
    direct-sum embedding of ``terms``.  The infima converge to the minimum
    of the averaged plain composition ``sum alpha_k g_k(L_k x)``; a
    tiny-parameter run stands in for the reference when none is supplied.
    """
    emb = embed(MixtureSpec(terms, 1.0))
    return argmin_gamma_sequence(emb.stacked_map, emb.stacked_fn, gammas, opts, reference)


# ---------------------------------------------------------------------------
# large-parameter limit of the mixture
# ---------------------------------------------------------------------------


@dataclass
class PcmReport:
    gammas: np.ndarray
    values: np.ndarray
    oracle: Optional[float]
    oracle_witness: Optional[np.ndarray]  # embedding-space fiber point
    final_gap: Optional[float]
    monotone: bool


def pcm_estimate(
    spec,
    x,
    gamma_tail,
    opts: SolverOpts = DEFAULT_OPTS,
    oracle_steps=801,
):
    """Growing-parameter tail of the mixture with its constrained-inf limit.

    The limit is the constrained infimum of the weighted value sum over
    families ``(y_k)`` with ``sum alpha_k L_k* y_k = x``, computed on the
    direct-sum embedding by searching the adjoint fiber (up to two free
    directions, each gridded on ``[-8, 8]`` with ``oracle_steps`` points).
    The tail is one batch solve on the embedding; ``monotone`` allows rises
    of up to 1e-6.  An empty tail raises ParameterError.
    """
    x = as_vector(x, spec.base_dim)
    gammas = np.asarray(sorted(gamma_tail), dtype=float)
    if not len(gammas):
        raise ParameterError("need at least one parameter")
    emb = embed(spec)
    X = np.tile(x, (len(gammas), 1))
    values = eval_composition_batch(emb.composition, X, opts, gammas)[0]
    oracle = None
    witness = None
    gap = None
    finite = values[np.isfinite(values)]
    try:
        oracle, witness = oracles.pushforward_infimum(
            emb.stacked_map, emb.stacked_fn, x, _PCM_HALFWIDTH, oracle_steps
        )
        gap = float(finite[-1] - oracle) if finite.size else None
    except UnsupportedDimension:
        pass
    monotone = bool(np.all(np.diff(finite) <= _PCM_SLACK))
    return PcmReport(gammas, values, oracle, witness, gap, monotone)


# ---------------------------------------------------------------------------
# sampled proximal expectation
# ---------------------------------------------------------------------------


@dataclass
class SampledProxEstimate:
    """Monte Carlo estimate of an expected prox with its standard error."""

    mean: np.ndarray
    stderr: np.ndarray
    n_samples: int


def sampled_expectation_prox(draw: Callable, seed, n_samples, gamma, x):
    """Monte Carlo prox of a sampled proximal expectation.

    ``draw(rng)`` returns an independent catalog function each call; the
    estimate averages ``prox_{gamma f_i}(x)`` over ``n_samples`` draws
    from a generator seeded with the mandatory ``seed``.  For a finite
    family with explicit weights, ``mixture_prox`` on identity operators
    is the exact counterpart.
    """
    if n_samples < 2:
        raise ParameterError("need at least two samples for an error estimate")
    if not gamma > 0:
        raise ParameterError("gamma must be positive")
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    samples = np.empty((n_samples, x.shape[-1]))
    for i in range(n_samples):
        fn = draw(rng)
        samples[i] = fn.prox(gamma, x)
    mean = samples.mean(axis=0)
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(n_samples)
    return SampledProxEstimate(mean, stderr, int(n_samples))
