"""Command-line front end.

Evaluates functions, compositions and mixtures from JSON job configs,
runs parameter sweeps, emits the 2-D comparison grids of the two built-in
figure presets, minimizes cocompositions and runs verification suites.

Exit codes: 0 success, 2 configuration error, 3 numerical divergence,
4 verification-suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import verify
from .compositions import (
    CompositionSpec,
    argmin_cocomposition,
    envelope_cocomposition,
    eval_cocomposition,
    eval_cocomposition_batch,
    eval_composition,
    gamma_sweep,
    prox_cocomposition,
    prox_composition,
)
from .errors import ConfigError, ProxmixError
from .functions import (
    BallDistance,
    EuclideanNorm,
    L1Norm,
    SeparableSum,
    function_from_spec,
)
from .linalg import DenseMap
from .mixtures import (
    MixtureSpec,
    comixture_argmin,
    comixture_eval,
    comixture_prox,
    mixture_eval,
    mixture_prox,
)
from .moreau import DIVERGED, SolverOpts, envelope

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_SUITE_FAILED = 4


def _fmt(x):
    """Locale-independent decimal literal with 17 significant digits."""
    return format(float(x), ".17g")


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
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _field(config, name, required=True, default=None):
    if name in config:
        return config[name]
    if required:
        raise ConfigError(f"missing config field: {name!r}")
    return default


def _parse_spec(obj):
    """Dispatch the 'spec' object: composition, mixture, or bare function."""
    if not isinstance(obj, dict):
        raise ConfigError("spec must be a JSON object")
    try:
        if "terms" in obj:
            return "mixture", MixtureSpec.from_json(obj)
        if "L" in obj:
            return "composition", CompositionSpec.from_json(obj)
        if "atom" in obj:
            return "function", function_from_spec(obj)
    except ProxmixError as exc:
        raise ConfigError(f"invalid spec: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid spec field: {exc}") from exc
    raise ConfigError("spec must contain 'L', 'terms' or 'atom'")


def _parse_points(config):
    pts = _field(config, "points")
    try:
        arr = np.asarray(pts, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            "points must be numbers in a vector or a list of equal-length vectors"
        ) from exc
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ConfigError("points must be a vector or a list of vectors")
    if not np.all(np.isfinite(arr)):
        raise ConfigError("points must have finite entries")
    return arr

def _solver_opts(config):
    return SolverOpts.from_json(config.get("opts", {}))


def _check_command(config, expected):
    declared = config.get("command")
    if declared is not None and declared != expected:
        raise ConfigError(
            f"config command {declared!r} does not match subcommand {expected!r}"
        )


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_json(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text + "\n")


def _write_csv(header, rows, out):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)


def _emit(payload, header_rows, args):
    if args.format == "csv":
        if header_rows is None:
            raise ConfigError("this command has no CSV form; use --format json")
        _write_csv(header_rows[0], header_rows[1], args.out)
    else:
        _write_json(payload, args.out)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_eval(config, args):
    _check_command(config, "eval")
    kind, spec = _parse_spec(_field(config, "spec"))
    points = _parse_points(config)
    opts = _solver_opts(config)
    which = config.get("which", "cocomposition")
    results = []
    exit_code = EXIT_OK
    for p in points:
        if kind == "function":
            val, status = float(np.asarray(spec(p))), "exact"
        elif kind == "mixture":
            res = mixture_eval(spec, p, opts) if which == "composition" else (
                comixture_eval(spec, p, opts)
            )
            val, status = res.value, res.embedding.status
        else:
            rep = (
                eval_composition(spec, p, opts)
                if which == "composition"
                else eval_cocomposition(spec, p, opts)
            )
            val, status = rep.value, rep.status
        if status == DIVERGED:
            exit_code = EXIT_DIVERGED
        results.append({"point": p.tolist(), "value": val, "status": status})
    rows = [[*r["point"], r["value"]] for r in results]
    dim = points.shape[1]
    header = [f"x{i+1}" for i in range(dim)] + ["value"]
    _emit({"command": "eval", "results": results}, (header, rows), args)
    return exit_code


def cmd_prox(config, args):
    _check_command(config, "prox")
    kind, spec = _parse_spec(_field(config, "spec"))
    points = _parse_points(config)
    which = config.get("which", "composition")
    results = []
    for p in points:
        if kind == "function":
            gamma = float(_field(config, "gamma"))
            out = spec.prox(gamma, p)
        elif kind == "mixture":
            out = (
                mixture_prox(spec, p)
                if which == "composition"
                else comixture_prox(spec, p)
            )
        else:
            out = (
                prox_composition(spec, p)
                if which == "composition"
                else prox_cocomposition(spec, p)
            )
        results.append({"point": p.tolist(), "prox": np.asarray(out).tolist()})
    dim = points.shape[1]
    header = [f"x{i+1}" for i in range(dim)] + [f"p{i+1}" for i in range(dim)]
    rows = [[*r["point"], *r["prox"]] for r in results]
    _emit({"command": "prox", "results": results}, (header, rows), args)
    return EXIT_OK


def cmd_envelope(config, args):
    _check_command(config, "envelope")
    kind, spec = _parse_spec(_field(config, "spec"))
    points = _parse_points(config)
    opts = _solver_opts(config)
    results = []
    for p in points:
        if kind == "function":
            gamma = float(_field(config, "gamma"))
            val = float(envelope(spec, gamma, p))
        elif kind == "composition":
            rho = float(config.get("rho", spec.gamma))
            val = envelope_cocomposition(spec, rho, p, opts)
        else:
            from .mixtures import comixture_envelope

            val = float(comixture_envelope(spec, p))
        results.append({"point": p.tolist(), "value": val})
    dim = points.shape[1]
    header = [f"x{i+1}" for i in range(dim)] + ["value"]
    rows = [[*r["point"], r["value"]] for r in results]
    _emit({"command": "envelope", "results": results}, (header, rows), args)
    return EXIT_OK


def cmd_sweep(config, args):
    _check_command(config, "sweep")
    operator = DenseMap.from_json(_field(config, "L"))
    fn = function_from_spec(_field(config, "g"))
    x = np.asarray(_field(config, "x"), dtype=float)
    gammas = [float(g) for g in _field(config, "gammas")]
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
        operator = DenseMap.from_json(_field(config, "L"))
        fn = function_from_spec(_field(config, "g"))
    if operator.cols != 2:
        raise ConfigError("figure grids need a 2-D base space")
    gammas = [float(g) for g in config.get("gammas", [0.5, 2.0, 8.0])]
    grid = config.get("grid", {})
    lo = np.asarray(grid.get("lo", [-4.0, -4.0]), dtype=float)
    hi = np.asarray(grid.get("hi", [4.0, 4.0]), dtype=float)
    steps = int(grid.get("steps", 101))
    opts = _solver_opts(config)

    axes = [np.linspace(lo[i], hi[i], steps) for i in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    composed = np.asarray(fn(operator.apply(points)))
    columns = [points[:, 0], points[:, 1], composed]
    header = ["x1", "x2", "g_of_Lx"]
    for gamma in gammas:
        spec = CompositionSpec(operator, fn, gamma)
        vals, _, _ = eval_cocomposition_batch(spec, points, opts)
        columns.append(vals)
        header.append(f"cocomposition_gamma_{gamma:g}")
    rows = np.stack(columns, axis=-1)
    _emit(
        {
            "command": "figure",
            "header": header,
            "rows": rows.tolist(),
        },
        (header, rows),
        args,
    )
    return EXIT_OK


def cmd_verify(config, args):
    _check_command(config, "verify")
    requested = config.get("suites", "all")
    if requested == "all" or requested == ["all"]:
        ids = None
    else:
        ids = list(requested)
    seed = int(config.get("seed", args.seed))
    scale = config.get("scale", args.scale)
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
    _write_json(payload, args.out)
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


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="proxmix",
        description=(
            "Evaluate proximal compositions and mixtures, reproduce the "
            "comparison figures, and run verification suites."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON job config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--scale", choices=["small", "default", "large"], default="default"
        )
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
