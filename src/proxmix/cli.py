"""Command-line front end.

Evaluates functions, compositions and mixtures from JSON job configs,
runs parameter sweeps, emits the 2-D comparison grids of the two built-in
figure presets, minimizes cocompositions and runs verification suites.
``eval``, ``prox`` and ``envelope`` solve all of a job's points in one
batch call, and ``sweep`` all of its parameters; each ``eval`` result
carries the point's status and iteration count.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from functools import cache

import numpy as np

from . import verify
from .compositions import (
    CompositionSpec,
    argmin_cocomposition,
    envelope_cocomposition_batch,
    eval_cocomposition_batch,
    eval_composition_batch,
    gamma_sweep,
    prox_cocomposition,
    prox_composition,
)
from .errors import ConfigError, ParameterError, ProxmixError
from .functions import (
    BallDistance,
    EuclideanNorm,
    L1Norm,
    SeparableSum,
    function_from_spec,
)
from .linalg import DenseMap, _json_numbers
from .mixtures import (
    MixtureSpec,
    comixture_argmin,
    comixture_eval_batch,
    comixture_prox,
    embed,
    mixture_eval_batch,
    mixture_prox,
)
from .moreau import DIVERGED, SolverOpts, envelope
from .oracles import _MAX_GRID_STEPS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_SUITE_FAILED = 4


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------


def figure_preset(name):
    """Built-in operator/function pairs for the 2-D comparison figures.

    ``example1``: a 2-to-5 operator with a separable l1-plus-shifted-norm
    target; ``example2``: a 2-to-3 operator with the distance to a ball of
    radius two.
    """
    if name == "example1":
        op = DenseMap(
            [
                [0.0, 0.5],
                [-0.5, 0.0],
                [0.0, -0.5],
                [0.3, 0.4],
                [0.1, -0.3],
            ]
        )
        fn = SeparableSum(
            [
                (1.0, L1Norm(3), 0),
                (1.0, EuclideanNorm(2).translate([1.0, -2.0]), 3),
            ]
        )
        return op, fn
    if name == "example2":
        op = DenseMap(
            [
                [0.7, 0.1],
                [-0.3, 0.4],
                [0.5, -0.3],
            ]
        )
        fn = BallDistance(np.zeros(3), 2.0)
        return op, fn
    raise ConfigError(f"unknown figure preset: {name!r}")


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _load_config(path):
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError("a job config must be a JSON object")
    return config


def _field(config, name):
    if name not in config:
        raise ConfigError(f"missing config field: {name!r}")
    return config[name]


@contextmanager
def _invalid(what):
    """Report errors raised while building ``what`` as ConfigError."""
    try:
        yield
    except ProxmixError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what} field: {exc}") from exc


def _parse_spec(obj):
    """Dispatch the 'spec' object: composition, mixture, or bare function."""
    if not isinstance(obj, dict):
        raise ConfigError("spec must be a JSON object")
    with _invalid("spec"):
        if "terms" in obj:
            return "mixture", MixtureSpec.from_json(obj)
        if "L" in obj:
            return "composition", CompositionSpec.from_json(obj)
        if "atom" in obj:
            return "function", function_from_spec(obj)
    raise ConfigError("spec must contain 'L', 'terms' or 'atom'")


_SHAPES = {
    (0,): "a finite number",
    (1,): "a non-empty list of finite numbers",
    (1, 2): "finite numbers in a non-empty vector or a list of equal-length vectors",
}


def _numbers(value, name, ndims):
    """``value`` as finite JSON numbers of a dimension in ``ndims`` (0: a float)."""
    try:
        arr = np.asarray(_json_numbers(value, name), dtype=float)
    except (OverflowError, ParameterError, ValueError):
        arr = None
    if arr is None or arr.ndim not in ndims or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be {_SHAPES[ndims]}")
    return arr if arr.ndim else float(arr)


def _parse_points(config):
    return np.atleast_2d(_numbers(_field(config, "points"), "points", (1, 2)))


def _which(config, default, composition, cocomposition):
    """The operation of the two that the job's 'which' field names."""
    which = config.get("which", default)
    if which not in ("composition", "cocomposition"):
        raise ConfigError("which must be 'composition' or 'cocomposition'")
    return composition if which == "composition" else cocomposition


def _solver_opts(config):
    opts = config.get("opts", {})
    if not isinstance(opts, dict):
        raise ConfigError("opts must be a JSON object")
    return SolverOpts.from_json(opts)


def _check_command(config, expected):
    declared = config.get("command")
    if declared is not None and declared != expected:
        raise ConfigError(
            f"config command {declared!r} does not match subcommand {expected!r}"
        )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write(text, out):
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def _write_json(payload, out):
    """One line with sorted keys: no ``indent``, so the C encoder runs."""
    _write(json.dumps(payload, sort_keys=True) + "\n", out)


def _write_csv(header, rows, out, axes=None):
    """Locale-independent decimal literals with 17 significant digits.

    One format call writes the whole table.  ``axes``, when given, are the
    two axes of a grid, each formatted once: their literals lead the rows
    (the remaining columns) in ``meshgrid(..., indexing="ij")`` order.
    """
    rows = np.asarray(rows, dtype=float)
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    if axes is None:
        template = row * len(rows)
    else:
        x1, x2 = (["%.17g," % v for v in axis.tolist()] for axis in axes)
        # block i is "a b_j <row>" for each j, with no string built per row
        template = "".join([a + (row + a).join(x2) + row for a in x1])
    _write(",".join(header) + "\n" + template % tuple(rows.ravel().tolist()), out)


def _emit(payload, header_rows, args):
    if args.format == "json":
        _write_json(payload, args.out)
    elif header_rows is None:
        raise ConfigError("this command has no CSV form; use --format json")
    else:
        _write_csv(*header_rows, args.out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(config, args):
    _check_command(config, "eval")
    kind, spec = _parse_spec(_field(config, "spec"))
    points = _parse_points(config)
    opts = _solver_opts(config)
    mixture = kind == "mixture"
    solve = _which(
        config, "cocomposition",
        mixture_eval_batch if mixture else eval_composition_batch,
        comixture_eval_batch if mixture else eval_cocomposition_batch,
    )
    n = len(points)
    if kind == "function":
        values, status = np.asarray(spec(points), dtype=float).reshape(n), ["exact"] * n
        iters = np.zeros(n, dtype=int)
    else:
        values, status, iters = solve(spec, points, opts)
    results = [
        {"point": p, "value": v, "status": s, "iterations": k}
        for p, v, s, k in zip(points.tolist(), values.tolist(), status, iters.tolist())
    ]
    rows = np.column_stack([points, values])
    dim = points.shape[1]
    header = [f"x{i+1}" for i in range(dim)] + ["value"]
    _emit({"command": "eval", "results": results}, (header, rows), args)
    return EXIT_DIVERGED if DIVERGED in status else EXIT_OK


def cmd_prox(config, args):
    _check_command(config, "prox")
    kind, spec = _parse_spec(_field(config, "spec"))
    points = _parse_points(config)
    prox = _which(
        config, "composition",
        mixture_prox if kind == "mixture" else prox_composition,
        comixture_prox if kind == "mixture" else prox_cocomposition,
    )
    if kind == "function":
        out = spec.prox(_numbers(_field(config, "gamma"), "gamma", (0,)), points)
    else:
        out = prox(spec, points)
    results = [{"point": p, "prox": q} for p, q in zip(points.tolist(), out.tolist())]
    dim = points.shape[1]
    header = [f"x{i+1}" for i in range(dim)] + [f"p{i+1}" for i in range(dim)]
    rows = np.column_stack([points, out])
    _emit({"command": "prox", "results": results}, (header, rows), args)
    return EXIT_OK


def cmd_envelope(config, args):
    _check_command(config, "envelope")
    kind, spec = _parse_spec(_field(config, "spec"))
    points = _parse_points(config)
    opts = _solver_opts(config)
    if kind == "function":
        gamma = _numbers(_field(config, "gamma"), "gamma", (0,))
        values = envelope(spec, gamma, points)
    else:  # a comixture is the cocomposition of the mixture's embedding
        spec = embed(spec).composition if kind == "mixture" else spec
        rho = _numbers(config.get("rho", spec.gamma), "rho", (0,))
        values = envelope_cocomposition_batch(spec, rho, points, opts)
    values = np.asarray(values, dtype=float).reshape(len(points))
    results = [
        {"point": p, "value": v} for p, v in zip(points.tolist(), values.tolist())
    ]
    dim = points.shape[1]
    header = [f"x{i+1}" for i in range(dim)] + ["value"]
    rows = np.column_stack([points, values])
    _emit({"command": "envelope", "results": results}, (header, rows), args)
    return EXIT_OK


def cmd_sweep(config, args):
    _check_command(config, "sweep")
    L, g = _field(config, "L"), _field(config, "g")
    with _invalid("'L' or 'g'"):
        operator, fn = DenseMap.from_json(L), function_from_spec(g)
    x = _numbers(_field(config, "x"), "x", (1,))
    gammas = _numbers(_field(config, "gammas"), "gammas", (1,)).tolist()
    opts = _solver_opts(config)
    rep = gamma_sweep(operator, fn, x, gammas, opts)
    payload = {
        "command": "sweep",
        "gammas": rep.gammas.tolist(),
        "composition": rep.composition.tolist(),
        "cocomposition": rep.cocomposition.tolist(),
        "composition_monotone": rep.composition_monotone,
        "cocomposition_monotone": rep.cocomposition_monotone,
    }
    header = ["gamma", "composition", "cocomposition"]
    rows = list(zip(rep.gammas, rep.composition, rep.cocomposition))
    _emit(payload, (header, rows), args)
    ok = rep.composition_monotone and rep.cocomposition_monotone
    return EXIT_OK if ok else EXIT_DIVERGED


def cmd_argmin(config, args):
    _check_command(config, "argmin")
    kind, spec = _parse_spec(_field(config, "spec"))
    opts = _solver_opts(config)
    if kind == "mixture":
        rep = comixture_argmin(spec, opts)
    elif kind == "composition":
        rep = argmin_cocomposition(spec, opts)
    else:
        raise ConfigError("argmin needs a composition or mixture spec")
    payload = {
        "command": "argmin",
        "value": rep.value,
        "argpoint": None if rep.argpoint is None else rep.argpoint.tolist(),
        "status": rep.status,
        "iterations": rep.iterations,
    }
    _emit(payload, None, args)
    return EXIT_OK if rep.status != DIVERGED else EXIT_DIVERGED


def cmd_figure(config, args):
    _check_command(config, "figure")
    preset = config.get("preset")
    if preset is not None:
        operator, fn = figure_preset(preset)
    else:
        L, g = _field(config, "L"), _field(config, "g")
        with _invalid("'L' or 'g'"):
            operator, fn = DenseMap.from_json(L), function_from_spec(g)
    if operator.cols != 2:
        raise ConfigError("figure grids need a 2-D base space")
    gammas = _numbers(config.get("gammas", [0.5, 2.0, 8.0]), "gammas", (1,)).tolist()
    grid = config.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid must be a JSON object")
    lo = _numbers(grid.get("lo", [-4.0, -4.0]), "grid.lo", (1,))
    hi = _numbers(grid.get("hi", [4.0, 4.0]), "grid.hi", (1,))
    if lo.shape != (2,) or hi.shape != (2,):
        raise ConfigError("grid.lo and grid.hi must have two entries")
    steps = _numbers(grid.get("steps", 101), "grid.steps", (0,))
    if not (steps.is_integer() and 1 <= steps <= _MAX_GRID_STEPS):
        raise ConfigError(f"grid.steps must be an integer in 1..{_MAX_GRID_STEPS}")
    opts = _solver_opts(config)

    axes = [np.linspace(lo[i], hi[i], int(steps)) for i in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    columns = [np.asarray(fn(operator.apply(points)))]
    header = ["x1", "x2", "g_of_Lx"]
    for gamma in gammas:
        spec = CompositionSpec(operator, fn, gamma)
        vals, _, _ = eval_cocomposition_batch(spec, points, opts)
        columns.append(vals)
        header.append(f"cocomposition_gamma_{gamma:g}")
    values = np.stack(columns, axis=-1)
    if args.format == "csv":
        _write_csv(header, values, args.out, axes)
    else:
        rows = np.column_stack([points, values]).tolist()
        _write_json({"command": "figure", "header": header, "rows": rows}, args.out)
    return EXIT_OK


def cmd_verify(config, args):
    _check_command(config, "verify")
    requested = config.get("suites", "all")
    if requested == "all" or requested == ["all"]:
        ids = None
    elif isinstance(requested, list) and requested and all(isinstance(i, str) for i in requested):
        ids = requested
    else:
        raise ConfigError(f'suites must be "all" or a non-empty list of suite ids, got {requested!r}')
    unknown = [i for i in ids or () if i not in verify.SUITES]
    if unknown:
        raise ConfigError(f"unknown suite ids: {unknown}")
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    scale = config.get("scale", "default")
    if not isinstance(scale, str) or scale not in verify.SCALES:
        raise ConfigError(f"scale must be one of {sorted(verify.SCALES)}, got {scale!r}")
    reports = verify.run_all(seed=seed, scale=scale, ids=ids)
    for rep in reports:
        sys.stderr.write(rep.summary() + "\n")
    payload = {
        "command": "verify",
        "seed": seed,
        "scale": scale,
        "all_pass": all(r.all_pass for r in reports),
        "suites": [r.to_json() for r in reports],
    }
    _emit(payload, None, args)
    return EXIT_OK if payload["all_pass"] else EXIT_SUITE_FAILED


_COMMANDS = {
    "eval": cmd_eval,
    "prox": cmd_prox,
    "envelope": cmd_envelope,
    "sweep": cmd_sweep,
    "figure": cmd_figure,
    "argmin": cmd_argmin,
    "verify": cmd_verify,
}


@cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="proxmix",
        description=(
            "Evaluate proximal compositions and mixtures, reproduce the "
            "comparison figures, and run verification suites."
        ),
    )
    parser.add_argument("subcommand", choices=list(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON job config")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return _COMMANDS[args.subcommand](config, args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except ProxmixError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
