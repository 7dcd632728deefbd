"""Seeded inputs, timed operations and output checks of each workload.

Each workload function takes the proxmix package and a seed and returns a
``Workload``: a fixed list of operations (one timed call into the public
API each), one warm-up operation per operation kind, and a list of
checks.  Operations look functions up on the package at call time, so the
tracer's wrappers see them.  Checks run outside the timed region and test
every result against an independent relation (orderings between the two
compositions and the envelope, optimality of a prox point, closed forms,
agreement of the two mixture paths).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# One-sided slack of the verification registry (``verify.INEQ_SLACK``),
# pinned here so a change to the library cannot loosen the checks.
SLACK = 1e-6
PATHS_GAP = 1e-6

GRID_STEPS = 101
GRID_LO, GRID_HI = -4.0, 4.0
FIGURE_GAMMAS = (0.5, 2.0, 8.0)


@dataclass
class Op:
    kind: str
    call: object          # zero-argument callable into the public API
    units: int = 1        # operations this call counts as in ``ops_per_s``
    points: int = 0       # points a CLI job carries


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    # (indices of the ops checked, check(results) -> list of failure messages)
    checks: list = field(default_factory=list)
    op_unit: str = "call"
    latency_unit: str = "call"


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------


def _operator(pm, rng, rows, cols, lo=0.35, hi=0.95, top=None):
    """Dense map with singular values drawn from ``[lo, hi]``.

    ``top``, when given, fixes the largest singular value (the norm) and the
    others are drawn below it.  Consecutive singular values differ by at
    least 5%: the power iteration behind ``DenseMap.norm_bound`` raises
    ConvergenceError when the top two are within about 0.1% of each other
    (the traced run's probe records that case as ``linalg.norm_probe_failed``).
    """
    u, _, vh = np.linalg.svd(rng.normal(size=(rows, cols)), full_matrices=False)
    k = min(rows, cols)
    while True:
        if top is None:
            sv = np.sort(rng.uniform(lo, hi, size=k))[::-1]
        else:
            sv = np.concatenate([[top], np.sort(rng.uniform(lo, 0.95 * top, size=k - 1))[::-1]])
        if np.all(sv[1:] <= 0.95 * sv[:-1]):
            return pm.DenseMap((u * sv) @ vh)


def _stratified(rng, n, lo, hi):
    """``n`` values in ``[lo, hi]``, one in each of ``n`` equal slices, shuffled."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _balanced(rng, n, choices):
    """``n`` picks from ``choices``, each as often as the others, shuffled.

    When ``len(choices)`` does not divide ``n`` the first choices get one
    more; the counts are the same for every seed.
    """
    return [choices[i] for i in rng.permutation(np.arange(n) % len(choices))]


def _plan(rng, n, n_kinds, dims=(1, 2, 3), gamma=(0.4, 2.5), norm=(0.5, 0.95)):
    """Parameters of ``n`` random specs: (rows, cols, kind, gamma, norm).

    Cost per call varies tenfold with the dimensions, the function kind,
    gamma and the norm of the map.  Drawn freely, they would let the seed
    set the cost of a round; here every seed gets the same mix of
    dimensions and kinds, and gamma and the norm one value in each of
    ``n`` equal slices of their ranges.  The seed sets the pairing and
    everything else (directions, translations, lower singular values).
    """
    shapes = _balanced(rng, n, [(r, c) for r in dims for c in dims])
    kinds = _balanced(rng, n, list(range(n_kinds)))
    return list(zip(shapes, kinds, _stratified(rng, n, *gamma), _stratified(rng, n, *norm)))


N_KINDS = 6              # kinds of ``_full_domain_fn``; the first five are >= 0
N_KINDS_BOUNDED = 5


def _full_domain_fn(pm, rng, dim, kind):
    """A full-domain catalog function of kind ``0 <= kind < N_KINDS``."""
    if kind == 0:
        fn = pm.L1Norm(dim).scale_val(rng.uniform(0.5, 1.5))
    elif kind == 1:
        fn = pm.EuclideanNorm(dim).translate(rng.normal(size=dim))
    elif kind == 2:
        fn = pm.BallDistance(rng.normal(size=dim), rng.uniform(0.2, 1.5))
    elif kind == 3:
        m = rng.normal(size=(dim, dim))
        fn = pm.Quadratic(m @ m.T / dim + 0.2 * np.eye(dim)).translate(
            0.5 * rng.normal(size=dim)
        )
    elif kind == 4:
        fn = pm.L1Norm(dim).translate(0.5 * rng.normal(size=dim)).add_quad(
            rng.uniform(0.1, 1.0)
        )
    else:
        fn = pm.BallSupport(0.3 * rng.normal(size=dim), rng.uniform(0.1, 1.0))
    return fn


def _figure_fn(pm, rng, dim, kind):
    """A function like those of the figure presets (norms, ball distances).

    The l1 kinds of ``_full_domain_fn`` are left out: over a whole grid
    their composition needs up to ten times the iterations of the others,
    so one draw would set the cost of a round.  ``0 <= kind < 4``.
    """
    if kind == 0:
        return pm.EuclideanNorm(dim).translate(rng.normal(size=dim))
    if kind == 1:
        return pm.BallDistance(rng.normal(size=dim), rng.uniform(0.5, 2.0))
    if kind == 2:
        return pm.BallSupport(0.3 * rng.normal(size=dim), rng.uniform(0.1, 1.0))
    m = rng.normal(size=(dim, dim))
    return pm.Quadratic(m @ m.T / dim + 0.2 * np.eye(dim)).translate(0.5 * rng.normal(size=dim))


def _spec(pm, rng, params):
    """Composition spec from one entry of ``_plan``."""
    (rows, cols), kind, gamma, norm = params
    return pm.CompositionSpec(
        _operator(pm, rng, rows, cols, top=norm),
        _full_domain_fn(pm, rng, rows, kind),
        gamma,
    )


def _specs(pm, rng, n, bounded_below=False):
    """``n`` composition specs with the stratified mix of ``_plan``."""
    n_kinds = N_KINDS_BOUNDED if bounded_below else N_KINDS
    return [_spec(pm, rng, params) for params in _plan(rng, n, n_kinds)]


def _feasible_point(rng, operator):
    """A point in the range of the adjoint, where the composition is finite."""
    return operator.adjoint_apply(rng.normal(size=operator.rows))


def _infeasible_cases(pm, rng, n_ball, n_subspace):
    """Composition specs with restricted-domain ``g``, each with a point outside it.

    Ball: ``g`` indicates ``B(0, r)`` so the domain ``L*(B(0, r))`` lies in
    the ball of radius ``||L|| r``; the point is placed outside it.
    Subspace: ``g`` indicates a line ``V`` in a space of dimension at least
    two, so ``L*(V)`` is at most a line; the point is orthogonal to it.
    Escape iterations grow with gamma and with the distance of the point,
    so gamma, the distance, the radius and the norm are stratified, and the
    shapes balanced (see ``_plan``).
    """
    n = n_ball + n_subspace
    gammas = _stratified(rng, n, 0.8, 1.25)
    norms = _stratified(rng, n, 0.5, 0.95)
    cases = []
    ball_shapes = _balanced(rng, n_ball, [(r, c) for r in (1, 2, 3) for c in (1, 2, 3)])
    radii = _stratified(rng, n_ball, 0.5, 1.5)
    factors = _stratified(rng, n_ball, 1.8, 2.2)
    for k, (rows, cols) in enumerate(ball_shapes):
        op = _operator(pm, rng, rows, cols, top=norms[k])
        fn = pm.BallIndicator(np.zeros(rows), radii[k])
        d = rng.normal(size=cols)
        x = d / np.linalg.norm(d) * op.norm_estimate * radii[k] * factors[k]
        cases.append((pm.CompositionSpec(op, fn, gammas[k]), x))
    sub_shapes = _balanced(rng, n_subspace, [(r, c) for r in (2, 3) for c in (2, 3)])
    distances = _stratified(rng, n_subspace, 1.4, 1.6)
    for k, (rows, cols) in enumerate(sub_shapes):
        op = _operator(pm, rng, rows, cols, top=norms[n_ball + k])
        v = rng.normal(size=rows)
        v /= np.linalg.norm(v)
        fn = pm.SubspaceIndicator(v[:, None])
        line = op.adjoint_apply(v)
        d = rng.normal(size=cols)
        if np.linalg.norm(line) > 0:
            e = line / np.linalg.norm(line)
            d = d - (d @ e) * e
        x = d / np.linalg.norm(d) * distances[k]
        cases.append((pm.CompositionSpec(op, fn, gammas[n_ball + k]), x))
    return cases


def _mixtures(pm, rng, n, term_counts):
    """``n`` random mixtures whose stacked maps have condition number at most 4.

    Solver iterations grow with that condition number, so capping it keeps
    the cost of one instance within a small factor of another.  Term
    counts, base dimensions and term function kinds come in equal numbers
    and gamma is stratified, as in ``_plan``.
    """
    counts = _balanced(rng, n, list(term_counts))
    bases = _balanced(rng, n, [1, 2, 3])
    kinds = iter(_balanced(rng, sum(counts), list(range(N_KINDS))))
    gammas = _stratified(rng, n, 0.4, 2.5)
    scales = _stratified(rng, n, 0.5, 1.0)
    specs = []
    for n_terms, base, gamma, scale in zip(counts, bases, gammas, scales):
        while True:
            raw = rng.uniform(0.3, 1.0, size=n_terms)
            ops = [_operator(pm, rng, int(rng.integers(1, 3)), base) for _ in range(n_terms)]
            stacked = np.vstack([np.sqrt(a) * op.entries for a, op in zip(raw, ops)])
            sv = np.linalg.svd(stacked, compute_uv=False)
            if sv[-1] >= 0.25 * sv[0]:
                break
        budget = sum(a * op.norm_estimate**2 for a, op in zip(raw, ops))
        alphas = raw / budget * scale
        terms = [
            pm.MixtureTerm(float(a), op, _full_domain_fn(pm, rng, op.rows, next(kinds)))
            for a, op in zip(alphas, ops)
        ]
        specs.append(pm.MixtureSpec(terms, gamma))
    return specs


def _mixture_point(rng, spec):
    """A point in the range of the stacked adjoint (finite mixture value)."""
    return sum(t.alpha * t.operator.adjoint_apply(rng.normal(size=t.operator.rows))
               for t in spec.terms)


# ---------------------------------------------------------------------------
# check helpers
# ---------------------------------------------------------------------------


def _le(fails, tag, a, b, slack=SLACK):
    if not (a <= b + slack):
        fails.append(f"{tag}: {a!r} > {b!r} + {slack}")


def _close(fails, tag, a, b, slack=SLACK):
    if not abs(a - b) <= slack:
        fails.append(f"{tag}: {a!r} != {b!r} within {slack}")


def _status(fails, tag, rep, expected):
    if rep.status != expected:
        fails.append(f"{tag}: status {rep.status!r}, expected {expected!r}")


def _chain_fails(pm, tag, spec, x, comp, cocomp):
    """Prop. 20: env(g, gamma, Lx) <= cocomp(x) <= g(Lx) and cocomp <= comp."""
    fails = []
    lx = spec.operator.apply(x)
    env = float(pm.envelope(spec.fn, spec.gamma, lx))
    _le(fails, tag + " env<=cocomp", env, cocomp)
    _le(fails, tag + " cocomp<=g(Lx)", cocomp, float(np.asarray(spec.fn(lx))))
    _le(fails, tag + " cocomp<=comp", cocomp, comp)
    return fails


def _converged_fails(tag, comp, cocomp):
    fails = []
    _status(fails, tag + " composition", comp, "converged")
    _status(fails, tag + " cocomposition", cocomp, "converged")
    return fails


def _prox_fails(tag, objective, x, p, gamma, directions):
    """``p`` minimizes ``objective(z) + ||x - z||^2 / (2 gamma)``."""
    fails = []

    def total(z):
        return objective(z) + float(np.linalg.norm(x - z) ** 2) / (2.0 * gamma)

    at_p = total(p)
    for k, d in enumerate(directions):
        _le(fails, f"{tag} prox-optimality[{k}]", at_p, total(p + d))
    return fails


# ---------------------------------------------------------------------------
# point-stream
# ---------------------------------------------------------------------------

N_COMP_CASES = 300
N_ENVELOPE_CASES = 80
N_ARGMIN_CASES = 60
N_MIXTURE_CASES = 200
N_BALL_INFEASIBLE = 16
N_SUBSPACE_INFEASIBLE = 8
# prox calls (closed forms, 20-50 us) on every third case only: with one
# per case they would be over a third of all calls, and the latency median
# would fall in the sparse gap between them and the solves
PROX_EVERY = 3


def point_stream(pm, seed):
    """Single-point calls on small random specs (dimensions 1-3)."""
    rng = np.random.default_rng([seed, 101])
    ops, checks = [], []

    def add(kind, call):
        ops.append(Op(kind, call))
        return len(ops) - 1

    # the README's closed-form values
    readme = pm.CompositionSpec(pm.DenseMap([[0.5]]), pm.L1Norm(1), gamma=1.0)
    avg = pm.proximal_average([pm.L1Norm(1), pm.quadratic_kernel(1)], [0.5, 0.5], 1.0)
    i_co = add("eval_cocomposition", lambda: pm.eval_cocomposition(readme, [1.0]))
    i_comp = add("eval_composition", lambda: pm.eval_composition(readme, [0.5]))
    i_prox = add("prox_composition", lambda: pm.prox_composition(readme, [4.0]))
    i_mp = add("mixture_prox", lambda: pm.mixture_prox(avg, [2.0]))

    def check_readme(res):
        fails = []
        _close(fails, "readme cocomposition", res[i_co].value, 1.0 / 6.0)
        _close(fails, "readme composition", res[i_comp].value, 1.375)
        _close(fails, "readme prox_composition", float(res[i_prox][0]), 0.5, 1e-12)
        _close(fails, "readme mixture_prox", float(res[i_mp][0]), 1.0, 1e-12)
        return fails

    checks.append(([i_co, i_comp, i_prox, i_mp], check_readme))

    for c, spec in enumerate(_specs(pm, rng, N_COMP_CASES)):
        x = _feasible_point(rng, spec.operator)
        ic = add("eval_composition", lambda s=spec, x=x: pm.eval_composition(s, x))
        io = add("eval_cocomposition", lambda s=spec, x=x: pm.eval_cocomposition(s, x))
        if c % PROX_EVERY:
            def check(res, c=c, spec=spec, x=x, ic=ic, io=io):
                tag = f"point-stream case {c}"
                fails = _converged_fails(tag, res[ic], res[io])
                return fails + _chain_fails(pm, tag, spec, x, res[ic].value, res[io].value)

            checks.append(([ic, io], check))
            continue
        ip = add("prox_composition", lambda s=spec, x=x: pm.prox_composition(s, x))
        iq = add("prox_cocomposition", lambda s=spec, x=x: pm.prox_cocomposition(s, x))
        dirs_comp = [0.05 * spec.operator.adjoint_apply(rng.normal(size=spec.operator.rows))
                     for _ in range(2)]
        dirs_co = [0.05 * rng.normal(size=spec.operator.cols) for _ in range(2)]

        def check(res, c=c, spec=spec, x=x, ic=ic, io=io, ip=ip, iq=iq,
                  dirs_comp=dirs_comp, dirs_co=dirs_co):
            tag = f"point-stream case {c}"
            fails = _converged_fails(tag, res[ic], res[io])
            fails += _chain_fails(pm, tag, spec, x, res[ic].value, res[io].value)
            fails += _prox_fails(
                tag + " prox_composition",
                lambda z: pm.eval_composition(spec, z).value,
                x, res[ip], spec.gamma, dirs_comp,
            )
            fails += _prox_fails(
                tag + " prox_cocomposition",
                lambda z: pm.eval_cocomposition(spec, z).value,
                x, res[iq], spec.gamma, dirs_co,
            )
            return fails

        checks.append(([ic, io, ip, iq], check))

    for c, spec in enumerate(_specs(pm, rng, N_ENVELOPE_CASES)):
        x = rng.normal(size=spec.operator.cols)
        g = spec.gamma
        rhos = (g * rng.uniform(0.2, 0.8), g, g * rng.uniform(1.5, 4.0))
        idx = [
            add("envelope_cocomposition",
                lambda s=spec, r=r, x=x: pm.envelope_cocomposition(s, r, x))
            for r in rhos
        ]

        def check(res, c=c, spec=spec, x=x, idx=idx):
            tag = f"point-stream envelope {c}"
            below, equal, above = (res[i] for i in idx)
            fails = []
            cocomp = pm.eval_cocomposition(spec, x).value
            # envelopes decrease as the index grows and never exceed the value
            _le(fails, tag + " env(rho<gamma)<=cocomp", below, cocomp)
            _le(fails, tag + " env(rho=gamma)<=env(rho<gamma)", equal, below)
            _le(fails, tag + " env(rho>gamma)<=env(rho=gamma)", above, equal)
            # at rho = gamma the envelope is attained at the closed-form prox
            p = pm.prox_cocomposition(spec, x)
            attained = pm.eval_cocomposition(spec, p).value + float(
                np.linalg.norm(x - p) ** 2
            ) / (2.0 * spec.gamma)
            _close(fails, tag + " env(rho=gamma) at prox", equal, attained)
            return fails

        checks.append((idx, check))

    for c, spec in enumerate(_specs(pm, rng, N_ARGMIN_CASES, bounded_below=True)):
        samples = [rng.normal(size=spec.operator.cols) for _ in range(3)]
        ia = add("argmin_cocomposition", lambda s=spec: pm.argmin_cocomposition(s))

        def check(res, c=c, spec=spec, samples=samples, ia=ia):
            tag = f"point-stream argmin {c}"
            rep = res[ia]
            fails = []
            _status(fails, tag, rep, "converged")
            for k, z in enumerate(samples):
                _le(fails, f"{tag} min<=cocomp[{k}]", rep.value,
                    pm.eval_cocomposition(spec, z).value)
            # every function of the bounded-below family has infimum 0
            _le(fails, tag + " min>=0", 0.0, rep.value)
            return fails

        checks.append(([ia], check))

    for c, spec in enumerate(_mixtures(pm, rng, N_MIXTURE_CASES, (2, 3))):
        x = _mixture_point(rng, spec)
        im = add("mixture_eval", lambda s=spec, x=x: pm.mixture_eval(s, x))
        ico = add("comixture_eval", lambda s=spec, x=x: pm.comixture_eval(s, x))
        ip = None
        if c % PROX_EVERY == 0:
            ip = add("mixture_prox", lambda s=spec, x=x: pm.mixture_prox(s, x))
        emb_map = pm.embed(spec).stacked_map
        dirs = [0.05 * emb_map.adjoint_apply(rng.normal(size=emb_map.rows))
                for _ in range(2)]

        def check(res, c=c, spec=spec, x=x, im=im, ico=ico, ip=ip, dirs=dirs):
            tag = f"point-stream mixture {c}"
            mix, comix = res[im], res[ico]
            fails = []
            _status(fails, tag + " mixture", mix.embedding, "converged")
            _status(fails, tag + " comixture", comix.embedding, "converged")
            _le(fails, tag + " mixture paths_gap", mix.paths_gap, PATHS_GAP, 0.0)
            _le(fails, tag + " comixture paths_gap", comix.paths_gap, PATHS_GAP, 0.0)
            # Prop. 20 on the direct-sum embedding (Thm. 70 orderings)
            env_sum = float(pm.comixture_envelope(spec, x))
            plain = sum(t.alpha * float(np.asarray(t.fn(t.operator.apply(x))))
                        for t in spec.terms)
            _le(fails, tag + " env-sum<=comixture", env_sum, comix.value)
            _le(fails, tag + " comixture<=plain", comix.value, plain)
            _le(fails, tag + " comixture<=mixture", comix.value, mix.value)
            if ip is not None:
                fails += _prox_fails(
                    tag + " mixture_prox",
                    lambda z: pm.mixture_eval(spec, z).value,
                    x, res[ip], spec.gamma, dirs,
                )
            return fails

        checks.append(([im, ico] if ip is None else [im, ico, ip], check))

    infeasible = _infeasible_cases(pm, rng, N_BALL_INFEASIBLE, N_SUBSPACE_INFEASIBLE)
    for c, (spec, x) in enumerate(infeasible):
        ii = add("eval_composition_infeasible",
                 lambda s=spec, x=x: pm.eval_composition(s, x))

        def check(res, c=c, ii=ii):
            tag = f"point-stream infeasible {c}"
            fails = []
            _status(fails, tag, res[ii], "diverged")
            if res[ii].value != np.inf:
                fails.append(f"{tag}: value {res[ii].value!r}, expected inf")
            return fails

        checks.append(([ii], check))

    return Workload("point-stream", ops, _warmup(ops), checks)


def _warmup(ops):
    """First operation of each kind."""
    seen = {}
    for op in ops:
        seen.setdefault(op.kind, op)
    return list(seen.values())


# ---------------------------------------------------------------------------
# grid-batch
# ---------------------------------------------------------------------------

N_RANDOM_GRID_SPECS = 4
PRESET_GAMMAS = (0.5, 1.0, 2.0, 4.0, 8.0)


def figure_grid(steps=GRID_STEPS):
    """The 101 x 101 grid of ``proxmix figure`` (``np.linspace``, row-major)."""
    axes = [np.linspace(GRID_LO, GRID_HI, steps) for _ in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def grid_batch(pm, seed):
    """Batch solvers over the figure grid: presets plus random 2-D specs.

    The two presets get both compositions at ``PRESET_GAMMAS``; the random
    specs get the cocomposition (all ``proxmix figure`` computes) at the
    three figure parameters.  The random calls are the cheapest and the
    preset compositions the dearest, so the latency median falls among the
    preset cocompositions and the 90th percentile among the preset
    compositions: fixed inputs, while the per-spec cost of random draws
    varies by a factor of four.
    """
    from proxmix.cli import figure_preset

    rng = np.random.default_rng([seed, 201])
    grid = figure_grid()
    pairs = [figure_preset("example1"), figure_preset("example2")]
    n = N_RANDOM_GRID_SPECS
    for rows, kind, norm in zip(_balanced(rng, n, [2, 3]), _balanced(rng, n, [0, 1, 2, 3]),
                                _stratified(rng, n, 0.5, 0.9)):
        # rows >= cols = 2 keeps L* onto, so every grid point is feasible
        op = _operator(pm, rng, rows, 2, lo=0.4, top=norm)
        pairs.append((op, _figure_fn(pm, rng, rows, kind)))
    ops, checks = [], []
    for p, (op, fn) in enumerate(pairs):
        with_comp = p < 2
        for gamma in PRESET_GAMMAS if with_comp else FIGURE_GAMMAS:
            spec = pm.CompositionSpec(op, fn, gamma)
            io = len(ops)
            ops.append(Op("eval_cocomposition_batch",
                          lambda s=spec: pm.eval_cocomposition_batch(s, grid),
                          units=len(grid)))
            if with_comp:
                ops.append(Op("eval_composition_batch",
                              lambda s=spec: pm.eval_composition_batch(s, grid),
                              units=len(grid)))

            def check(res, p=p, spec=spec, io=io, with_comp=with_comp):
                tag = f"grid-batch spec {p} gamma {spec.gamma:g}"
                co_vals, co_status, _ = res[io]
                lx = spec.operator.apply(grid)
                env = np.asarray(pm.envelope(spec.fn, spec.gamma, lx))
                statuses = [("cocomposition", co_status)]
                orders = [("env<=cocomp", env, co_vals),
                          ("cocomp<=g(Lx)", co_vals, np.asarray(spec.fn(lx)))]
                if with_comp:
                    comp_vals, comp_status, _ = res[io + 1]
                    statuses.append(("composition", comp_status))
                    orders.append(("cocomp<=comp", co_vals, comp_vals))
                fails = []
                for name, status in statuses:
                    bad = int(np.sum(status != "converged"))
                    if bad:
                        fails.append(f"{tag} {name}: {bad} rows not converged")
                for name, lo, hi in orders:
                    bad = int(np.sum(~(lo <= hi + SLACK)))
                    if bad:
                        fails.append(f"{tag} {name}: {bad} rows violate")
                return fails

            checks.append(([io, io + 1] if with_comp else [io], check))
    warmup = [
        Op(k, lambda k=k, s=pm.CompositionSpec(*pairs[0], 1.0):
           getattr(pm, k)(s, grid[:1]))
        for k in ("eval_cocomposition_batch", "eval_composition_batch")
    ]
    return Workload("grid-batch", ops, warmup, checks,
                    op_unit="row", latency_unit="batch call")


# ---------------------------------------------------------------------------
# cli-jobs
# ---------------------------------------------------------------------------

N_JOB_SETS = 32
N_EVAL_POINTS = 12
N_MIXTURE_POINTS = 6
N_ENVELOPE_POINTS = 4
# every preset at two figure parameters; fixed, since a figure's cost
# depends on them and four jobs are too few to balance
FIGURE_JOBS = tuple((p, g) for p in ("example1", "example2") for g in (0.5, 4.0))


def cli_jobs(pm, seed, workdir):
    """In-process ``proxmix.cli.main`` jobs on generated config files.

    Each of ``N_JOB_SETS`` sets holds, on fresh random specs, ``eval`` of a
    composition, a cocomposition, a mixture and a comixture, two ``prox``
    jobs of each composition (CSV), three ``envelope`` jobs (index below,
    above and below the parameter), ``sweep`` and ``argmin``; after them come the
    one-column ``figure`` jobs of ``FIGURE_JOBS`` (CSV).  Many small jobs
    rather than a few large ones, and the specs of each job kind are
    stratified over the sets (see ``_plan``): the cost of an eval job is
    set by its one random spec.
    """
    rng = np.random.default_rng([seed, 301])
    jobs = []   # (kind, config, points, extra argv)

    def points(n, dim, spec=None):
        if spec is None:
            return rng.normal(size=(n, dim)).tolist()
        # range of the adjoint, where the composition is finite
        return spec.operator.adjoint_apply(rng.normal(size=(n, spec.operator.rows))).tolist()

    csv = ["--format", "csv"]
    n = N_JOB_SETS
    comp, cocomp, sweep = (_specs(pm, rng, n) for _ in range(3))
    prox_comp, prox_cocomp = _specs(pm, rng, 2 * n), _specs(pm, rng, 2 * n)
    envelope = [_specs(pm, rng, n) for _ in range(3)]
    argmin = _specs(pm, rng, n, bounded_below=True)
    mixtures, comixtures = _mixtures(pm, rng, n, (2,)), _mixtures(pm, rng, n, (2,))
    below = _stratified(rng, 2 * n, 0.2, 0.8)
    above = _stratified(rng, n, 1.5, 4.0)
    for n_set in range(n):
        spec = comp[n_set]
        jobs.append(("eval-composition", {
            "command": "eval", "spec": spec.to_json(), "which": "composition",
            "points": points(N_EVAL_POINTS, 0, spec)}, N_EVAL_POINTS, []))
        spec = cocomp[n_set]
        jobs.append(("eval-cocomposition", {
            "command": "eval", "spec": spec.to_json(), "which": "cocomposition",
            "points": points(N_EVAL_POINTS, spec.operator.cols)}, N_EVAL_POINTS, []))
        mix = mixtures[n_set]
        jobs.append(("eval-mixture", {
            "command": "eval", "spec": mix.to_json(), "which": "composition",
            "points": [_mixture_point(rng, mix).tolist() for _ in range(N_MIXTURE_POINTS)]},
            N_MIXTURE_POINTS, []))
        mix = comixtures[n_set]
        jobs.append(("eval-comixture", {
            "command": "eval", "spec": mix.to_json(), "which": "cocomposition",
            "points": points(N_MIXTURE_POINTS, mix.base_dim)}, N_MIXTURE_POINTS, []))
        # five cheap jobs (four prox, one argmin), three envelope jobs and
        # five dear ones per set: the latency median falls mid-envelope
        prox = [("composition", prox_comp[2 * n_set + k]) for k in (0, 1)]
        prox += [("cocomposition", prox_cocomp[2 * n_set + k]) for k in (0, 1)]
        for which, spec in prox:
            jobs.append((f"prox-{which}", {
                "command": "prox", "spec": spec.to_json(), "which": which,
                "points": points(N_EVAL_POINTS, spec.operator.cols)}, N_EVAL_POINTS, csv))
        factors = (below[2 * n_set], above[n_set], below[2 * n_set + 1])
        for factor, specs in zip(factors, envelope):
            spec = specs[n_set]
            jobs.append(("envelope", {
                "command": "envelope", "spec": spec.to_json(), "rho": spec.gamma * factor,
                "points": points(N_ENVELOPE_POINTS, spec.operator.cols)},
                N_ENVELOPE_POINTS, []))
        spec = sweep[n_set]
        jobs.append(("sweep", {
            "command": "sweep", "L": spec.operator.to_json(), "g": spec.to_json()["g"],
            "x": _feasible_point(rng, spec.operator).tolist(),
            "gammas": sorted(rng.uniform(0.25, 4.0, size=4).tolist())}, 1, []))
        spec = argmin[n_set]
        jobs.append(("argmin", {"command": "argmin", "spec": spec.to_json()}, 1, []))
    for preset, gamma in FIGURE_JOBS:
        jobs.append(("figure", {
            "command": "figure", "preset": preset, "gammas": [gamma],
            "grid": {"lo": [GRID_LO, GRID_LO], "hi": [GRID_HI, GRID_HI],
                     "steps": GRID_STEPS}},
            GRID_STEPS**2, csv))

    ops, checks = [], []
    for j, (kind, config, n_points, extra) in enumerate(jobs):
        cfg_path = os.path.join(workdir, f"job{j}.json")
        out_path = os.path.join(workdir, f"out{j}.{'csv' if extra else 'json'}")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh)
        argv = [config["command"], "--config", cfg_path, "--out", out_path, *extra]
        ops.append(Op(kind, lambda argv=argv: pm.cli.main(argv), points=n_points))

        def check(res, j=j, kind=kind, config=config, out_path=out_path, n=n_points):
            return _check_cli_job(pm, f"cli-jobs job {j} ({kind})", config,
                                  res[j], out_path, n)

        checks.append(([j], check))
    return Workload("cli-jobs", ops, _warmup(ops), checks,
                    op_unit="job", latency_unit="job")


def _check_cli_job(pm, tag, config, code, out_path, n_points):
    fails = []
    if code != 0:
        return [f"{tag}: exit code {code!r}, expected 0"]
    with open(out_path) as fh:
        text = fh.read()
    command = config["command"]
    if out_path.endswith(".csv"):
        rows = [line.split(",") for line in text.strip().split("\n")]
        if len(rows) - 1 != n_points:
            fails.append(f"{tag}: {len(rows) - 1} CSV rows, expected {n_points}")
        return fails + _check_cli_csv(pm, tag, config, np.array(rows[1:], dtype=float))
    payload = json.loads(text)
    if command == "eval":
        spec = _parse_spec(pm, config["spec"])
        for k, r in enumerate(payload["results"]):
            x = np.asarray(r["point"])
            if r["status"] != "converged":
                fails.append(f"{tag} point {k}: status {r['status']!r}")
                continue
            if isinstance(spec, pm.MixtureSpec):
                emb = pm.embed(spec).composition
                lx = emb.operator.apply(x)
                plain = float(np.asarray(emb.fn(lx)))
                env = float(pm.envelope(emb.fn, emb.gamma, lx))
            else:
                lx = spec.operator.apply(x)
                plain = float(np.asarray(spec.fn(lx)))
                env = float(pm.envelope(spec.fn, spec.gamma, lx))
            if config["which"] == "cocomposition":
                _le(fails, f"{tag} point {k} env<=cocomp", env, r["value"])
                _le(fails, f"{tag} point {k} cocomp<=g(Lx)", r["value"], plain)
            else:
                # the composition dominates the envelope of g at Lx
                _le(fails, f"{tag} point {k} env<=comp", env, r["value"])
        if len(payload["results"]) != n_points:
            fails.append(f"{tag}: {len(payload['results'])} results, expected {n_points}")
    elif command == "envelope":
        spec = _parse_spec(pm, config["spec"])
        below = config["rho"] < spec.gamma
        for k, r in enumerate(payload["results"]):
            x = np.asarray(r["point"])
            cocomp = pm.eval_cocomposition(spec, x).value
            _le(fails, f"{tag} point {k} env<=cocomp", r["value"], cocomp)
            # envelopes decrease in the index; at index gamma it is env(g, gamma, Lx)
            at_gamma = float(pm.envelope(spec.fn, spec.gamma, spec.operator.apply(x)))
            if below:
                _le(fails, f"{tag} point {k} env(gamma)<=env(rho)", at_gamma, r["value"])
            else:
                _le(fails, f"{tag} point {k} env(rho)<=env(gamma)", r["value"], at_gamma)
    elif command == "sweep":
        if not (payload["composition_monotone"] and payload["cocomposition_monotone"]):
            fails.append(f"{tag}: sweep not monotone")
        for k, (c, co) in enumerate(zip(payload["composition"], payload["cocomposition"])):
            _le(fails, f"{tag} gamma {k} cocomp<=comp", co, c)
    elif command == "argmin":
        if payload["status"] != "converged":
            fails.append(f"{tag}: status {payload['status']!r}")
        spec = _parse_spec(pm, config["spec"])
        _le(fails, f"{tag} min>=0", 0.0, payload["value"])
        _le(fails, f"{tag} min<=cocomp(0)", payload["value"],
            pm.eval_cocomposition(spec, np.zeros(spec.operator.cols)).value)
    return fails


def _check_cli_csv(pm, tag, config, rows):
    fails = []
    command = config["command"]
    if command == "prox":
        spec = _parse_spec(pm, config["spec"])
        dim = spec.operator.cols
        x, p = rows[:, :dim], rows[:, dim:]
        if config["which"] == "composition":
            # the prox of the composition lands in the range of the adjoint
            w = spec.operator.apply(x)
            expected = spec.operator.adjoint_apply(spec.fn.prox(spec.gamma, w))
        else:
            w = spec.operator.apply(x)
            expected = x - spec.operator.adjoint_apply(w - spec.fn.prox(spec.gamma, w))
        err = float(np.max(np.abs(p - expected)))
        _le(fails, f"{tag} prox formula", err, 0.0, 1e-12)
        # firm nonexpansiveness of a prox: <p1 - p2, x1 - x2> >= ||p1 - p2||^2
        dp, dx = p[1:] - p[:-1], x[1:] - x[:-1]
        gap = np.sum(dp * dp, axis=-1) - np.sum(dp * dx, axis=-1)
        _le(fails, f"{tag} firm nonexpansiveness", float(np.max(gap)), 0.0)
    elif command == "figure":
        op, fn = pm.cli.figure_preset(config["preset"])
        pts = rows[:, :2]
        lx = op.apply(pts)
        _le(fails, f"{tag} g_of_Lx", float(np.max(np.abs(rows[:, 2] - np.asarray(fn(lx))))),
            0.0, 1e-12)
        env = np.asarray(pm.envelope(fn, config["gammas"][0], lx))
        bad = int(np.sum(~(env <= rows[:, 3] + SLACK)) + np.sum(~(rows[:, 3] <= rows[:, 2] + SLACK)))
        if bad:
            fails.append(f"{tag}: {bad} grid rows break the Prop. 20 chain")
    return fails


def _parse_spec(pm, obj):
    if "terms" in obj:
        return pm.MixtureSpec.from_json(obj)
    return pm.CompositionSpec.from_json(obj)


WORKLOADS = {
    "point-stream": point_stream,
    "grid-batch": grid_batch,
    "cli-jobs": cli_jobs,
}
