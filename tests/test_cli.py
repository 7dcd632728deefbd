import json

import numpy as np
import pytest

from proxmix.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
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
