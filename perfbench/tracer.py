"""Spans around the public functions of each proxmix module.

``Tracer.install`` wraps every binding of every public function of the
seven modules (a name imported into another module gets a wrapper of its
own there, so calls through ``proxmix.verify.eval_cocomposition`` are
seen), plus the value/prox/conjugate/recession methods of every catalog
class and the apply/norm methods of ``DenseMap``.  Private solver cores
are not wrapped.  Each span stores its name, its parent span, and its
start and end times in flat arrays kept in memory; ``metrics`` turns
them into per-layer numbers at the end of the run.  A span's self time is
its duration minus the durations of its child spans.  Iteration, row and
status counts come from the values the wrapped calls return.

What each group of metrics should move, and on which workload:

* ``functions.*``: point-stream ``latency_p50_ms`` (per-call overhead) and
  grid-batch ``ops_per_s`` (per-row work).
* ``linalg.apply_*``: grid-batch ``ops_per_s``; ``linalg.norm_*``:
  ``setup_s`` and point-stream, where ``mixture_eval`` builds a fresh
  embedding map on every call.
* ``moreau.*``: the registry pass; ``moreau.minimize_*`` also point-stream
  ``latency_p90_ms`` (argmin, envelopes with rho > gamma).
* ``compositions.diverged_row_iters``: point-stream ``wall_s`` (no change
  predicted on grid-batch); ``compositions.active_row_frac``: grid-batch
  ``ops_per_s`` (stays 1.0 on point-stream); ``compositions.us_per_row_iter``:
  point-stream ``latency_p50_ms``.
* ``mixtures.*``: point-stream ``ops_per_s``; grid-batch does no mixture
  work.
* ``verify.*``: the registry pass of the cli-jobs traced run.
* ``cli.*``: cli-jobs ``latency_p50_ms``.
"""

from __future__ import annotations

import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("functions", "linalg", "moreau", "compositions", "mixtures", "verify", "cli")
CATALOG_METHODS = ("__call__", "prox", "conjugate", "recession")
DENSEMAP_METHODS = ("apply", "adjoint_apply", "gram_complement_apply", "operator_norm")

SOLVES = ("eval_composition", "eval_cocomposition",
          "eval_composition_batch", "eval_cocomposition_batch")
COMPOSITION_EXACT = ("prox_composition", "prox_cocomposition",
                     "subgradient_witness_cocomposition", "recession_cocomposition")
MIXTURE_EVALS = ("mixture_eval", "comixture_eval")
MIXTURE_EXACT = ("mixture_prox", "comixture_prox", "comixture_envelope",
                 "comixture_recession")
STATUSES = ("converged", "diverged", "max_iter")


def _rows(x):
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class Tracer:
    def __init__(self, pm):
        self.pm = pm
        self.enabled = False
        self.names = []           # span name id -> (layer, function name)
        self._patches = []        # (owner, attribute, original)
        self.reset()

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = Counter()   # deterministic counts from returned values

    # -- installation ------------------------------------------------------

    def _wrap(self, layer, fname, fn, extract=None):
        name_id = len(self.names)
        self.names.append((layer, fname))
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(name_id)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if extract is not None:
                extract(tracer.counts, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        pm = self.pm
        modules = {name: getattr(pm, name) for name in MODULES}
        wrappers = {}   # id(original function) -> wrapper
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for fname in names:
                fn = vars(mod).get(fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(layer, fname, fn, _EXTRACT.get(fname))
        for mod in (pm, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patch(mod, attr, wrappers[id(value)])
        functions = modules["functions"]
        for cls in vars(functions).values():
            if inspect.isclass(cls) and issubclass(cls, functions.ConvexFunction):
                for meth in CATALOG_METHODS:
                    if meth in cls.__dict__:
                        kind = "value" if meth == "__call__" else meth
                        extract = _prox_rows if meth == "prox" else None
                        self._patch(cls, meth, self._wrap(
                            "functions", kind, cls.__dict__[meth], extract))
        for meth in DENSEMAP_METHODS:
            dm = modules["linalg"].DenseMap
            self._patch(dm, meth, self._wrap("linalg", meth, dm.__dict__[meth]))

    def snapshot(self):
        """Counters plus span counts per wrapped function name."""
        calls = np.bincount(np.array(self.name, dtype=np.int64), minlength=len(self.names))
        spans = {}
        for i, n in enumerate(calls):
            key = "/".join(self.names[i])
            spans[key] = spans.get(key, 0) + int(n)
        return {"counts": dict(self.counts), "spans": spans}

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- aggregation -------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of the spans recorded since the last reset."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        layer_of = np.array([MODULES.index(layer) for layer, _ in self.names])[name]
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        child_comp = np.zeros(len(dur))
        comp_child = has_parent & (layer_of == MODULES.index("compositions"))
        np.add.at(child_comp, parent[comp_child], dur[comp_child])
        self_time = dur - child

        def ids(layer, fns):
            return [i for i, (lay, f) in enumerate(self.names) if lay == layer and f in fns]

        def select(layer, fns=None):
            if fns is None:
                return layer_of == MODULES.index(layer)
            return np.isin(name, ids(layer, fns))

        c = self.counts
        m = {}
        for kind in ("prox", "value", "conjugate"):
            sel = select("functions", (kind,))
            calls = int(np.sum(sel))
            m[f"functions.{kind}_calls"] = calls
            if kind == "prox":
                m["functions.prox_rows_per_call"] = (
                    c["functions.prox_rows"] / calls if calls else 0.0)
            m[f"functions.{kind}_self_s"] = float(np.sum(self_time[sel]))
        apply = select("linalg", ("apply", "adjoint_apply"))
        norm = select("linalg", ("operator_norm",))
        m["linalg.apply_calls"] = int(np.sum(apply))
        m["linalg.apply_self_s"] = float(np.sum(self_time[apply]))
        m["linalg.norm_calls"] = int(np.sum(norm))
        m["linalg.norm_self_s"] = float(np.sum(self_time[norm]))
        env = select("moreau", ("envelope", "envelope_gradient"))
        mini = select("moreau", ("minimize_smooth",))
        m["moreau.envelope_calls"] = int(np.sum(env))
        m["moreau.envelope_self_s"] = float(np.sum(self_time[env]))
        m["moreau.minimize_calls"] = int(np.sum(mini))
        m["moreau.minimize_iters"] = c["moreau.minimize_iters"]
        m["moreau.minimize_self_s"] = float(np.sum(self_time[mini]))
        solves = select("compositions", SOLVES)
        exact = select("compositions", COMPOSITION_EXACT)
        row_iters = c["compositions.row_iters"]
        m["compositions.solves"] = int(np.sum(solves))
        m["compositions.rows"] = c["compositions.rows"]
        m["compositions.row_iters"] = row_iters
        m["compositions.loop_iters"] = c["compositions.loop_iters"]
        area = c["compositions.loop_iter_rows"]
        m["compositions.active_row_frac"] = row_iters / area if area else 0.0
        for status in STATUSES:
            m[f"compositions.status.{status}"] = c[f"compositions.status.{status}"]
        m["compositions.diverged_row_iters"] = c["compositions.diverged_row_iters"]
        m["compositions.self_s"] = float(np.sum(self_time[select("compositions")]))
        m["compositions.us_per_row_iter"] = (
            1e6 * float(np.sum(dur[solves])) / row_iters if row_iters else 0.0)
        m["compositions.exact_calls"] = int(np.sum(exact))
        m["compositions.exact_self_s"] = float(np.sum(self_time[exact]))
        evals = select("mixtures", MIXTURE_EVALS)
        m["mixtures.eval_calls"] = int(np.sum(evals))
        m["mixtures.embedding_iters"] = c["mixtures.embedding_iters"]
        m["mixtures.direct_iters"] = c["mixtures.direct_iters"]
        m["mixtures.self_s"] = float(np.sum((dur - child_comp)[evals]))
        m["mixtures.exact_calls"] = int(np.sum(select("mixtures", MIXTURE_EXACT)))
        mains = select("cli", ("main",))
        m["cli.jobs"] = int(np.sum(mains))
        m["cli.self_s"] = float(np.sum(self_time[mains]))
        for code in ("0", "2", "3", "other"):
            m[f"cli.exit.{code}"] = c[f"cli.exit.{code}"]
        return m


# -- count extractors: (counts, args, result) -----------------------


def _prox_rows(counts, args, result):
    counts["functions.prox_rows"] += _rows(result)


def _solve_single(counts, args, rep):
    _solve_rows(counts, np.array([rep.iterations]), np.array([rep.status]))


def _solve_batch(counts, args, result):
    _, status, iters = result
    _solve_rows(counts, np.asarray(iters), np.asarray(status))


def _solve_rows(counts, iters, status):
    counts["compositions.rows"] += len(iters)
    counts["compositions.row_iters"] += int(iters.sum())
    loop = int(iters.max()) if len(iters) else 0
    counts["compositions.loop_iters"] += loop
    counts["compositions.loop_iter_rows"] += loop * len(iters)
    for s in STATUSES:
        counts[f"compositions.status.{s}"] += int(np.sum(status == s))
    counts["compositions.diverged_row_iters"] += int(iters[status == "diverged"].sum())


def _mixture_eval(counts, args, res):
    counts["mixtures.embedding_iters"] += res.embedding.iterations
    counts["mixtures.direct_iters"] += res.direct.iterations


def _minimize(counts, args, rep):
    counts["moreau.minimize_iters"] += rep.iterations


def _cli_main(counts, args, code):
    key = str(code) if code in (0, 2, 3) else "other"
    counts[f"cli.exit.{key}"] += 1


_EXTRACT = {
    "eval_composition": _solve_single,
    "eval_cocomposition": _solve_single,
    "eval_composition_batch": _solve_batch,
    "eval_cocomposition_batch": _solve_batch,
    "mixture_eval": _mixture_eval,
    "comixture_eval": _mixture_eval,
    "minimize_smooth": _minimize,
    "main": _cli_main,
}
