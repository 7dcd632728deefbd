import json

import numpy as np
import pytest

import proxmix as pm
from proxmix.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    _build_parser,
    _write_csv,
    figure_preset,
    main,
)


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def scalar_composition_spec():
    return {
        "L": {"rows": 1, "cols": 1, "entries": [[0.5]]},
        "g": {"atom": "l1_norm", "params": {"dim": 1}},
        "gamma": 1.0,
    }


def test_prox_command_worked_value(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "spec": scalar_composition_spec(),
            "points": [[4.0]],
            "which": "composition",
        },
    )
    out = tmp_path / "out.json"
    assert main(["prox", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["results"][0]["prox"] == [pytest.approx(0.5)]


def test_eval_command_both_compositions(tmp_path):
    cfg = write_config(
        tmp_path,
        {"spec": scalar_composition_spec(), "points": [[1.0]]},
    )
    out = tmp_path / "out.json"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["results"][0]["value"] == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_eval_divergence_exit_code(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "spec": {
                "L": {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]},
                "g": {"atom": "euclidean_norm", "params": {"dim": 2}},
                "gamma": 1.0,
            },
            "points": [[3.0, 4.0]],
            "which": "composition",
        },
    )
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "o.json")]) == (
        EXIT_DIVERGED
    )


def test_envelope_command_function(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "spec": {"atom": "euclidean_norm", "params": {"dim": 1}},
            "points": [[2.0]],
            "gamma": 1.0,
        },
    )
    out = tmp_path / "env.json"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["results"][0]["value"] == pytest.approx(1.5)


def test_sweep_command_monotone_flags(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "L": {"rows": 1, "cols": 1, "entries": [[0.5]]},
            "g": {"atom": "l1_norm", "params": {"dim": 1}},
            "x": [1.0],
            "gammas": [0.25, 1.0, 4.0],
        },
    )
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["composition_monotone"] and payload["cocomposition_monotone"]


def test_argmin_command(tmp_path):
    spec = scalar_composition_spec()
    spec["g"] = {
        "atom": "l1_norm",
        "params": {"dim": 1},
        "transforms": [{"kind": "translate", "w": [1.0]}],
    }
    cfg = write_config(tmp_path, {"spec": spec})
    out = tmp_path / "argmin.json"
    assert main(["argmin", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["argpoint"] == [pytest.approx(2.0, abs=1e-5)]


def test_figure_preset_example2_flags(tmp_path):
    cfg = write_config(
        tmp_path,
        {"preset": "example2", "gammas": [0.5, 2.0], "grid": {"steps": 21}},
    )
    out = tmp_path / "fig.csv"
    assert main(
        ["figure", "--config", cfg, "--out", str(out), "--format", "csv"]
    ) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x1,x2,g_of_Lx,cocomposition_gamma_0.5")
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    assert data.shape == (21 * 21, 5)
    assert np.all(data[:, 3] <= data[:, 2] + 1e-6)
    assert np.all(data[:, 4] <= data[:, 3] + 1e-6)
    # value at the origin of the composed column is zero for this preset
    origin = data[np.all(np.abs(data[:, :2]) < 1e-9, axis=1)]
    assert origin[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert origin[0, 3] == pytest.approx(0.0, abs=1e-8)


def test_figure_example1_origin_value(tmp_path):
    cfg = write_config(
        tmp_path, {"preset": "example1", "gammas": [1.0], "grid": {"steps": 5}}
    )
    out = tmp_path / "fig1.csv"
    assert main(
        ["figure", "--config", cfg, "--out", str(out), "--format", "csv"]
    ) == EXIT_OK
    lines = out.read_text().splitlines()
    data = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
    origin = data[np.all(np.abs(data[:, :2]) < 1e-9, axis=1)]
    assert origin[0, 2] == pytest.approx(np.sqrt(5.0), abs=1e-6)


def test_figure_rejects_non_2d(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "L": {"rows": 1, "cols": 1, "entries": [[0.5]]},
            "g": {"atom": "l1_norm", "params": {"dim": 1}},
        },
    )
    assert main(["figure", "--config", cfg]) == EXIT_CONFIG


def test_csv_format_is_locale_independent(tmp_path):
    cfg = write_config(
        tmp_path,
        {"spec": scalar_composition_spec(), "points": [[1.0 / 3.0]]},
    )
    out = tmp_path / "vals.csv"
    main(["eval", "--config", cfg, "--out", str(out), "--format", "csv"])
    raw = out.read_bytes().decode()
    assert "\r" not in raw
    value_cell = raw.splitlines()[1].split(",")[0]
    assert value_cell == format(1.0 / 3.0, ".17g")
    assert "," not in value_cell and "." in value_cell


def test_csv_bytes_of_special_values(tmp_path, capsys):
    rows = np.array([
        [np.inf, -np.inf, np.nan],
        [-0.0, 5e-324, 1.0 / 3.0],
        [-1e300, 0.0, 2.0],
    ])
    expected = (
        "a,b,c\n"
        "inf,-inf,nan\n"
        "-0,4.9406564584124654e-324,0.33333333333333331\n"
        "-1.0000000000000001e+300,0,2\n"
    )
    out = tmp_path / "special.csv"
    _write_csv(["a", "b", "c"], rows, str(out))
    assert out.read_bytes() == expected.encode()
    _write_csv(["a", "b", "c"], rows, None)
    assert capsys.readouterr().out == expected
    _write_csv(["a", "b"], np.empty((0, 2)), str(out))
    assert out.read_bytes() == b"a,b\n"


def test_malformed_json_exit_and_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"spec": [}')
    assert main(["eval", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 1" in err


def test_nonfinite_point_exit_and_diagnostics(tmp_path, capsys):
    # JSON has no NaN literal, but Python's reader accepts one
    path = tmp_path / "nan.json"
    path.write_text(
        json.dumps({"spec": scalar_composition_spec(), "points": [[float("nan")]]})
    )
    assert main(["eval", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert err.count("\n") == 1


def test_ragged_points_exit_and_diagnostics(tmp_path, capsys):
    spec = {
        "L": {"rows": 2, "cols": 2, "entries": [[0.5, 0.0], [0.0, 0.5]]},
        "g": {"atom": "l1_norm", "params": {"dim": 2}},
        "gamma": 1.0,
    }
    cfg = write_config(tmp_path, {"spec": spec, "points": [[1.0, 2.0], [3.0]]})
    assert main(["prox", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "equal-length" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "opts",
    [{"tol": -1}, {"tol": float("nan")}, {"max_iter": 0}, {"tol": "abc"}, [1, 2],
     {"max_iter": True}, {"tol": "1e-3"}],
    ids=repr,
)
def test_malformed_solver_opts_exit(tmp_path, capsys, opts):
    # Python's JSON reader accepts the NaN literal
    path = tmp_path / "opts.json"
    path.write_text(
        json.dumps({"spec": scalar_composition_spec(), "points": [[1.0]], "opts": opts})
    )
    assert main(["eval", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1


def test_missing_field_exit(tmp_path):
    cfg = write_config(tmp_path, {"spec": scalar_composition_spec()})
    assert main(["eval", "--config", cfg]) == EXIT_CONFIG


def test_mismatched_command_field(tmp_path):
    cfg = write_config(
        tmp_path,
        {"command": "prox", "spec": scalar_composition_spec(), "points": [[1.0]]},
    )
    assert main(["eval", "--config", cfg]) == EXIT_CONFIG


def test_verify_command_subset(tmp_path):
    cfg = write_config(
        tmp_path, {"suites": ["lemma2", "lemma3"], "seed": 7, "scale": "small"}
    )
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["all_pass"]
    assert [s["suite_id"] for s in payload["suites"]] == ["lemma2", "lemma3"]


def test_figure_preset_catalog():
    op1, fn1 = figure_preset("example1")
    assert (op1.rows, op1.cols, fn1.dim) == (5, 2, 5)
    op2, fn2 = figure_preset("example2")
    assert (op2.rows, op2.cols, fn2.dim) == (3, 2, 3)
    assert op1.norm_bound <= 1.0 and op2.norm_bound <= 1.0


SCALAR_L1 = {"atom": "l1_norm", "params": {"dim": 1}}
PLANE_MAP = {"rows": 1, "cols": 2, "entries": [[0.5, 0.0]]}
SWEEP = {"L": {"rows": 1, "cols": 1, "entries": [[0.5]]}, "g": SCALAR_L1}
ONE_POINT = {"spec": scalar_composition_spec(), "points": [[1.0]]}
VERIFY = {"suites": ["lemma2"], "seed": 7, "scale": "small"}
# seed 1.7 and true once ran seed 1, "suites": [] every suite, and
# "lemma3" was split into characters; the rest raised tracebacks
VERIFY_MALFORMED = {
    "verify-seed-text": {"seed": "abc"},
    "verify-seed-list": {"seed": [1]},
    "verify-seed-fractional": {"seed": 1.7},
    "verify-seed-bool": {"seed": True},
    "verify-seed-negative": {"seed": -1},
    "verify-scale-number": {"scale": 5},
    "verify-scale-unknown": {"scale": "huge"},
    "verify-suites-number": {"suites": 5},
    "verify-suites-string": {"suites": "lemma3"},
    "verify-suites-empty": {"suites": []},
    "verify-suites-unknown": {"suites": ["lemma2", "bogus"]},
}

BALL = {"atom": "ball_indicator", "params": {"center": [0.0, 0.0], "radius": 1.0}}
PLANE_POINTS = {"points": [[1.0, 2.0]]}


def _one_term_mixture(**term):
    L = {"rows": 1, "cols": 1, "entries": [[0.5]]}
    return {"spec": {"gamma": 1.0, "terms": [{"alpha": 0.5, "L": L, "g": SCALAR_L1, **term}]},
            "points": [[1.0]]}


def _with_spec(**fields):
    return {**ONE_POINT, "spec": {**ONE_POINT["spec"], **fields}}


# where a number is due, a float cast once read strings and bools: each of
# these jobs printed a value and exited 0
NOT_NUMBERS = {
    "eval-gamma-text": ("eval", _with_spec(gamma="2")),
    "eval-gamma-bool": ("eval", _with_spec(gamma=True)),
    "eval-entries-text": ("eval", _with_spec(L={"rows": 1, "cols": 1, "entries": [["0.5"]]})),
    "eval-points-bool": ("eval", {**ONE_POINT, "points": [[True]]}),
    "eval-points-text": ("eval", {**ONE_POINT, "points": [["1"]]}),
    "eval-weight-bool": ("eval", {**PLANE_POINTS, "spec": {"atom": "separable_sum", "params": {
        "blocks": [{"weight": True, "fn": SCALAR_L1, "start": 0},
                   {"weight": 1.0, "fn": SCALAR_L1, "start": 1}]}}}),
    "eval-mixture-alpha-text": ("eval", _one_term_mixture(alpha="0.5")),
    "eval-mixture-gamma-text": ("eval", {**_one_term_mixture(), "spec": {
        **_one_term_mixture()["spec"], "gamma": "1"}}),
    "eval-transform-rho-bool": ("eval", _with_spec(g={
        **SCALAR_L1, "transforms": [{"kind": "scale_arg", "rho": True}]})),
    "envelope-rho-bool": ("envelope", {**ONE_POINT, "rho": True}),
    "prox-function-gamma-text": ("prox", {"spec": SCALAR_L1, "points": [[1.0]], "gamma": "0.5"}),
    "eval-center-text": ("eval", {**PLANE_POINTS, "spec": {
        **BALL, "params": {**BALL["params"], "center": ["0", 0]}}}),
    "eval-radius-bool": ("eval", {**PLANE_POINTS, "spec": {
        **BALL, "params": {**BALL["params"], "radius": True}}}),
    "figure-steps-bool": ("figure", {"preset": "example1", "grid": {"steps": True}}),
}


@pytest.mark.parametrize(
    "command, payload",
    [
        ("prox", {"spec": SCALAR_L1, "points": [[1.0]], "gamma": "abc"}),
        ("envelope", {"spec": SCALAR_L1, "points": [[1.0]], "gamma": "abc"}),
        ("envelope", {**ONE_POINT, "rho": "abc"}),
        ("sweep", {**SWEEP, "x": [1.0], "gammas": [1.0, "abc"]}),
        ("sweep", {**SWEEP, "x": [1.0], "gammas": []}),
        ("sweep", {**SWEEP, "x": ["abc"], "gammas": [1.0]}),
        ("sweep", {**SWEEP, "g": {"atom": "l1_norm"}, "x": [1.0], "gammas": [1.0]}),
        ("sweep", {**SWEEP, "L": {"rows": 1}, "x": [1.0], "gammas": [1.0]}),
        ("figure", {"L": PLANE_MAP, "g": {"atom": "l1_norm"}}),
        ("figure", {"preset": "example1", "grid": {"steps": "abc"}}),
        ("figure", {"preset": "example1", "grid": {"steps": 10**6}}),
        ("figure", {"preset": "example1", "grid": {"steps": 2.5}}),
        ("figure", {"preset": "example1", "grid": {"lo": ["abc", 0.0]}}),
        ("figure", {"preset": "example1", "grid": {"hi": "abc"}}),
        ("figure", {"preset": "example1", "grid": {"lo": [-4.0]}}),
        ("figure", {"preset": "example1", "grid": [101]}),
        ("figure", {"preset": "example1", "gammas": ["abc"]}),
        ("eval", {**ONE_POINT, "which": "bogus"}),
        ("prox", {**ONE_POINT, "which": "bogus"}),
        ("argmin", {"spec": SCALAR_L1}),
        ("figure", {"preset": "bogus"}),
        ("eval", {"spec": [0.5, 1.0], "points": [[1.0]]}),
        ("eval", {"spec": {"gamma": 1.0}, "points": [[1.0]]}),
        ("eval", {**ONE_POINT, "spec": {**ONE_POINT["spec"], "gamma": float("inf")}}),
        ("eval", {**ONE_POINT, "spec": {**ONE_POINT["spec"],
                                        "g": {"atom": "l2_norm", "params": {"dim": 1}}}}),
        ("eval", {**ONE_POINT, "spec": {**ONE_POINT["spec"], "g": {
            "atom": "l1_norm", "params": {"dim": 1}, "transforms": [{"kind": "shift"}]}}}),
        ("eval", {**ONE_POINT, "spec": {**ONE_POINT["spec"], "g": {
            "atom": "l1_norm", "params": {"dim": float("inf")}}}}),
        *(("verify", {**VERIFY, **field}) for field in VERIFY_MALFORMED.values()),
        # a top level other than an object once raised AttributeError (exit 1)
        *((command, [1, 2]) for command in ("eval", "verify")), ("eval", 5), ("eval", "x"),
        *(
            ("eval", {"spec": {"atom": atom, "params": {"dim": dim}}, "points": [[1.0, 2.0]]})
            for atom in ("l1_norm", "euclidean_norm")
            for dim in (2.5, 0, -1, "2")
        ),
        ("figure", {"preset": "example1", "gammas": []}),
        *((command, payload) for command, payload in NOT_NUMBERS.values()),
    ],
    ids=[
        "prox-gamma", "envelope-gamma", "envelope-rho", "sweep-gammas",
        "sweep-gammas-empty", "sweep-x",
        "sweep-g-incomplete", "sweep-L-incomplete", "figure-g-incomplete",
        "figure-steps-text", "figure-steps-huge", "figure-steps-fractional",
        "figure-lo", "figure-hi", "figure-lo-length", "figure-grid-not-object",
        "figure-gammas", "eval-which", "prox-which", "argmin-function",
        "figure-preset-unknown", "spec-not-object", "spec-no-kind",
        "eval-gamma-infinite", "eval-atom-unknown", "eval-transform-unknown",
        "eval-dim-infinite",
        *VERIFY_MALFORMED,
        "eval-config-list", "verify-config-list", "eval-config-number", "eval-config-string",
        *(
            f"eval-{atom}-dim-{dim}"
            for atom in ("l1", "euclidean")
            for dim in ("fractional", "zero", "negative", "text")
        ),
        "figure-gammas-empty",
        *NOT_NUMBERS,
    ],
)
def test_malformed_field_exit(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_separable_block_start_is_an_integer(tmp_path, capsys):
    # "start": 1.0 once built the sum and then raised a TypeError traceback
    blocks = [{"weight": 1.0, "fn": SCALAR_L1, "start": 0},
              {"weight": 2.0, "fn": SCALAR_L1, "start": 1.0}]
    payload = {"spec": {"atom": "separable_sum", "params": {"blocks": blocks}},
               "points": [[1.0, -2.0]]}
    out = tmp_path / "out.json"
    assert main(["eval", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"][0]["value"] == 5.0
    blocks[1]["start"] = 1.5
    assert main(["eval", "--config", write_config(tmp_path, payload)]) == EXIT_CONFIG
    assert "integer >= 0" in capsys.readouterr().err


def test_seed_and_scale_come_from_the_config_only(tmp_path, capsys):
    cfg = write_config(tmp_path, {"suites": ["lemma2"]})
    for flag in ("--seed", "--scale"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", cfg, flag, "1"])
        assert exc.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert (payload["seed"], payload["scale"]) == (0, "default")


def test_atom_dimension_is_an_integer(tmp_path, capsys):
    # int(2.5) once built a 2-D l1 norm: this job printed 3.0 and exited 0
    payload = {"spec": {"atom": "l1_norm", "params": {"dim": 2.5}}, "points": [[1.0, 2.0]]}
    assert main(["eval", "--config", write_config(tmp_path, payload)]) == EXIT_CONFIG
    assert "integer >= 1" in capsys.readouterr().err
    payload["spec"]["params"]["dim"] = 2.0  # an integral JSON float is a dimension
    assert main(["eval", "--config", write_config(tmp_path, payload)]) == 0


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "g",
    [
        {**SCALAR_L1, "transforms": [{"kind": "add_quad", "rho": INF}]},
        {**SCALAR_L1, "transforms": [{"kind": "scale_arg", "rho": INF}]},
        {**SCALAR_L1, "transforms": [{"kind": "translate", "w": [INF]}]},
        {**SCALAR_L1, "transforms": [{"kind": "add_affine", "u": [NAN]}]},
        {**SCALAR_L1, "transforms": [{"kind": "add_quad", "rho": NAN}]},
        {"atom": "affine", "params": {"u": [NAN]}},
        {"atom": "ball_indicator", "params": {"center": [INF], "radius": 1.0}},
        {"atom": "quadratic", "params": {"matrix": [[NAN]]}},
        {"atom": "separable_sum",
         "params": {"blocks": [{"weight": INF, "fn": SCALAR_L1, "start": 0}]}},
    ],
    ids=["add_quad-inf", "scale_arg-inf", "translate-inf", "add_affine-nan",
         "add_quad-nan", "affine-nan", "ball_indicator-inf", "quadratic-nan",
         "separable_sum-weight-inf"],
)
def test_non_finite_function_parameter_exits_2(tmp_path, capsys, g):
    # Python's JSON reader takes 1e999 as inf and the NaN literal as nan;
    # each of these once ran 100,000 iterations or returned NaN with exit 0
    cfg = write_config(tmp_path, {**ONE_POINT, "spec": {**ONE_POINT["spec"], "g": g}})
    assert main(["eval", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert "Traceback" not in err and err.count("\n") == 1


# -- batch jobs: one solve per job, same answers as one call per point ----------


PLANE_L = {"rows": 3, "cols": 2, "entries": [[0.5, 0.1], [-0.2, 0.4], [0.3, -0.3]]}
PLANE_G = {"atom": "euclidean_norm", "params": {"dim": 3},
           "transforms": [{"kind": "translate", "w": [1.0, -0.5, 0.2]}]}
PLANE_COMPOSITION = {"L": PLANE_L, "g": PLANE_G, "gamma": 0.7}
PLANE_MIXTURE = {
    "gamma": 1.3,
    "terms": [
        {"alpha": 0.6, "L": PLANE_L, "g": PLANE_G},
        {"alpha": 0.5, "L": {"rows": 2, "cols": 2, "entries": [[0.6, 0.0], [0.2, 0.5]]},
         "g": {"atom": "l1_norm", "params": {"dim": 2}}},
    ],
}
PLANE_FUNCTION = {"atom": "l1_norm", "params": {"dim": 2},
                  "transforms": [{"kind": "translate", "w": [0.5, -1.0]}]}
# kind -> (spec, which, single-point value call, single-point prox call)
JOB_KINDS = {
    "composition": (PLANE_COMPOSITION, "composition",
                    pm.eval_composition, pm.prox_composition),
    "cocomposition": (PLANE_COMPOSITION, "cocomposition",
                      pm.eval_cocomposition, pm.prox_cocomposition),
    "mixture": (PLANE_MIXTURE, "composition",
                lambda s, x: pm.mixture_eval(s, x).embedding, pm.mixture_prox),
    "comixture": (PLANE_MIXTURE, "cocomposition",
                  lambda s, x: pm.comixture_eval(s, x).embedding, pm.comixture_prox),
    "function": (PLANE_FUNCTION, "cocomposition", None, lambda f, x: f.prox(0.8, x)),
}


def parse_spec(obj):
    if "terms" in obj:
        return pm.MixtureSpec.from_json(obj)
    if "L" in obj:
        return pm.CompositionSpec.from_json(obj)
    return pm.function_from_spec(obj)


@pytest.mark.parametrize("kind", list(JOB_KINDS))
def test_eval_and_prox_jobs_match_single_calls(tmp_path, kind):
    spec_json, which, single_eval, single_prox = JOB_KINDS[kind]
    spec = parse_spec(spec_json)
    points = np.random.default_rng(5).normal(size=(20, 2))
    cfg = write_config(tmp_path, {"spec": spec_json, "which": which, "gamma": 0.8,
                                  "points": points.tolist()})
    out, csv_out = tmp_path / "eval.json", tmp_path / "eval.csv"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert main(["eval", "--config", cfg, "--out", str(csv_out), "--format", "csv"]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    for x, r in zip(points, results):
        if single_eval is None:
            expected = (float(spec(x)), "exact", 0)
        else:
            rep = single_eval(spec, x)
            expected = (rep.value, rep.status, rep.iterations)
        assert r["point"] == x.tolist()
        assert r["value"] == pytest.approx(expected[0], rel=0, abs=1e-12)
        assert (r["status"], r["iterations"]) == expected[1:]
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "x1,x2,value"
    assert [float(l.split(",")[2]) for l in lines[1:]] == [r["value"] for r in results]

    out = tmp_path / "prox.json"
    assert main(["prox", "--config", cfg, "--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    for x, r in zip(points, results):
        assert r["prox"] == pytest.approx(single_prox(spec, x), rel=0, abs=1e-12)


@pytest.mark.parametrize("kind", list(JOB_KINDS))
def test_eval_wrong_dimension_points_exit(tmp_path, capsys, kind):
    spec_json, which, _, _ = JOB_KINDS[kind]
    cfg = write_config(tmp_path, {"spec": spec_json, "which": which,
                                  "points": [[1.0, 2.0, 3.0], [0.0, 1.0, 0.5]]})
    assert main(["eval", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dimension" in err and err.count("\n") == 1


def test_eval_job_with_diverged_rows_exits_3(tmp_path):
    spec = {
        "L": {"rows": 2, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]},
        "g": {"atom": "euclidean_norm", "params": {"dim": 2}},
        "gamma": 1.0,
    }
    cfg = write_config(tmp_path, {"spec": spec, "which": "composition",
                                  "points": [[1.0, 0.0], [3.0, 4.0], [-2.0, 0.0]]})
    out = tmp_path / "o.json"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == EXIT_DIVERGED
    results = json.loads(out.read_text())["results"]
    assert [r["status"] for r in results] == ["converged", "diverged", "converged"]
    assert results[1]["value"] == np.inf and results[1]["iterations"] == 0


def test_eval_job_of_a_far_feasible_point_exits_0(tmp_path):
    # full-domain g and a base point in the range of L*: a finite value
    # that ends 'max_iter', not a 'diverged' row and exit 3
    spec = pm.CompositionSpec(*figure_preset("example1"), 0.5).to_json()
    cfg = write_config(tmp_path, {"spec": spec, "points": [[1e8, -0.7e8]],
                                  "which": "composition", "opts": {"max_iter": 200}})
    out = tmp_path / "o.json"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == EXIT_OK
    (result,) = json.loads(out.read_text())["results"]
    assert (result["status"], result["iterations"]) == ("max_iter", 200)
    assert result["value"] == pytest.approx(2.627531484038384e16, rel=1e-12)


def test_cached_parser_carries_no_state_between_calls(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    cfg = write_config(tmp_path, {"spec": scalar_composition_spec(), "points": [[1.0], [2.0]]})
    out = tmp_path / "a.csv"
    assert main(["prox", "--config", cfg, "--format", "csv", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith("x1,p1\n")
    capsys.readouterr()
    # neither --format csv nor --out carries over: JSON goes to stdout
    assert main(["eval", "--config", cfg]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [r["status"] for r in payload["results"]] == ["converged", "converged"]
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", cfg])
    assert exc.value.code == 2
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "b.json")]) == EXIT_OK


def test_unreadable_config_path_exit(tmp_path, capsys):
    assert main(["eval", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and err.count("\n") == 1


def test_argmin_refuses_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, {"spec": scalar_composition_spec()})
    assert main(["argmin", "--config", cfg, "--format", "csv"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "no CSV form" in err and err.count("\n") == 1


@pytest.mark.parametrize("rho", [None, 0.3, 1.6], ids=["rho-is-gamma", "rho-below", "rho-above"])
def test_envelope_job_composition_spec(tmp_path, rho):
    spec = pm.CompositionSpec.from_json(PLANE_COMPOSITION)
    points = np.random.default_rng(6).normal(size=(3, 2))
    job = {"spec": PLANE_COMPOSITION, "points": points.tolist()}
    if rho is not None:
        job["rho"] = rho
    out = tmp_path / "env.json"
    assert main(["envelope", "--config", write_config(tmp_path, job), "--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    expected = [pm.envelope_cocomposition(spec, rho or spec.gamma, x) for x in points]
    assert [r["value"] for r in results] == pytest.approx(expected, rel=0, abs=1e-12)


def test_envelope_job_mixture_spec(tmp_path):
    spec = pm.MixtureSpec.from_json(PLANE_MIXTURE)
    points = np.random.default_rng(7).normal(size=(3, 2))
    cfg = write_config(tmp_path, {"spec": PLANE_MIXTURE, "points": points.tolist()})
    out = tmp_path / "env.json"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    expected = [pm.comixture_envelope(spec, x) for x in points]
    assert [r["value"] for r in results] == pytest.approx(expected, rel=0, abs=1e-12)


def test_envelope_job_mixture_spec_reads_rho(tmp_path):
    # "rho" was ignored for mixture specs: this job printed 0.2125, the
    # value at rho = gamma = 1
    L = {"rows": 2, "cols": 2, "entries": [[0.5, 0.1], [-0.2, 0.4]]}
    g = {"atom": "l1_norm", "params": {"dim": 2}}
    spec = {"gamma": 1.0, "terms": [{"alpha": 0.5, "L": L, "g": g}]}
    out = tmp_path / "env.json"
    values = []
    for rho in (1.0, 3.0):
        cfg = write_config(tmp_path, {"spec": spec, "rho": rho, "points": [[1.0, 2.0]]})
        assert main(["envelope", "--config", cfg, "--out", str(out)]) == EXIT_OK
        values.append(json.loads(out.read_text())["results"][0]["value"])
    assert values[0] == pytest.approx(0.2125, rel=0, abs=1e-12)
    assert values[1] == pytest.approx(0.180986, rel=0, abs=1e-6)
    mixture = pm.MixtureSpec.from_json(spec)
    assert values[1] == pytest.approx(
        pm.envelope_cocomposition(pm.embed(mixture).composition, 3.0, [1.0, 2.0]), rel=0, abs=1e-12
    )


def test_argmin_job_mixture_spec(tmp_path):
    spec = pm.MixtureSpec.from_json(PLANE_MIXTURE)
    out = tmp_path / "argmin.json"
    cfg = write_config(tmp_path, {"spec": PLANE_MIXTURE})
    assert main(["argmin", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    rep = pm.comixture_argmin(spec)
    assert payload["value"] == pytest.approx(rep.value, rel=0, abs=1e-12)
    assert payload["argpoint"] == pytest.approx(rep.argpoint.tolist(), rel=0, abs=1e-12)
    assert (payload["status"], payload["iterations"]) == (rep.status, rep.iterations)


def test_figure_json_output(tmp_path):
    cfg = write_config(tmp_path, {"preset": "example2", "gammas": [0.5], "grid": {"steps": 3}})
    out = tmp_path / "fig.json"
    assert main(["figure", "--config", cfg, "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["header"] == ["x1", "x2", "g_of_Lx", "cocomposition_gamma_0.5"]
    rows = np.array(payload["rows"])
    assert rows.shape == (9, 4)
    assert np.all(rows[:, 3] <= rows[:, 2] + 1e-6)


ENVELOPE_JOBS = {
    # kind -> (spec, extra fields, the batched call, the per-point reference)
    "function": (PLANE_FUNCTION, {"gamma": 0.7}, "envelope",
                 lambda s, x: pm.envelope(s, 0.7, x)),
    "composition-rho-above": (
        PLANE_COMPOSITION, {"rho": 1.9}, "envelope_cocomposition_batch",
        lambda s, x: pm.envelope_cocomposition(s, 1.9, x),
    ),
    "composition-rho-below": (
        PLANE_COMPOSITION, {"rho": 0.3}, "envelope_cocomposition_batch",
        lambda s, x: pm.envelope_cocomposition(s, 0.3, x),
    ),
    # a comixture is the cocomposition of the mixture's embedding
    "mixture": (PLANE_MIXTURE, {}, "envelope_cocomposition_batch", pm.comixture_envelope),
}


@pytest.mark.parametrize("kind", list(ENVELOPE_JOBS))
def test_envelope_job_is_one_batch_call(tmp_path, monkeypatch, kind):
    from proxmix import cli

    spec_json, extra, batched, single = ENVELOPE_JOBS[kind]
    calls = []
    original = getattr(cli, batched)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, batched, counted)
    spec = parse_spec(spec_json)
    points = np.random.default_rng(8).normal(size=(12, 2))
    cfg = write_config(tmp_path, {"spec": spec_json, "points": points.tolist(), **extra})
    out, csv_out = tmp_path / "env.json", tmp_path / "env.csv"
    assert main(["envelope", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert len(calls) == 1
    csv_args = ["--out", str(csv_out), "--format", "csv"]
    assert main(["envelope", "--config", cfg, *csv_args]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert [r["point"] for r in results] == points.tolist()
    expected = [float(single(spec, x)) for x in points]
    assert [r["value"] for r in results] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "x1,x2,value"
    assert [float(l.split(",")[2]) for l in lines[1:]] == [r["value"] for r in results]
