"""Command-line interface: exit codes, file outputs, and determinism.

Everything goes through cli.main(argv) so argparse wiring is covered
too.  File outputs land in tmp_path, either by chdir or through the
COCONTACT_OUT_DIR environment variable.
"""

import json

import numpy as np
import pytest

from cocontact import cli
from cocontact.dynamics import RESIDUAL_CHANNELS, LadderLost, NonInvertibleLegendre, StepFailure
from cocontact.jets import JetDomainError
from cocontact.pontryagin import InfeasiblePoint, NumericalBreakdown

HEADER_1D = "t,q1,v1,p1,s,res_holonomy,res_sdot,res_herglotz,res_constraint"
CHAIN = "q4*(v1 - q2) + q5*(v2 - q3) + v3^2/2 + q6*q1"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# -- constraints --------------------------------------------------------


def test_constraints_preset_report(capsys):
    rc, out, _ = run(capsys, ["constraints", "--preset", "duffing"])
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "Closed"
    assert report["system"] == "duffing"
    assert report["rank"] == 1
    assert report["undetermined_dim"] == 0
    assert len(report["generations"]) == 1
    assert len(report["generations"][0]) == 1  # n = 1 primary constraint
    assert abs(report["generations"][0][0]["value_at_probe"]) < 1e-12


def test_constraints_report_to_file(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    rc, out, _ = run(capsys, ["constraints", "--preset", "duffing",
                              "--out", "ladder.json"])
    assert rc == 0
    assert out == ""
    report = json.loads((tmp_path / "ladder.json").read_text())
    assert report["status"] == "Closed"


def test_constraints_singular_preset_generations(capsys, tmp_path):
    cfg = write_config(tmp_path, {"system": "charged"})
    rc, out, _ = run(capsys, ["constraints", "--config", cfg])
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "Closed"
    sizes = [len(g) for g in report["generations"]]
    assert sizes == [4, 1, 1, 1, 1]
    # every constraint holds at the projected probe
    for gen in report["generations"]:
        for c in gen:
            assert abs(c["value_at_probe"]) < 1e-9


def test_constraints_incompatible_exit_code(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"n": 1, "lagrangian": "q1"},
        "initial": {"q": [1.0], "v": [0.0]},
    })
    rc, out, _ = run(capsys, ["constraints", "--config", cfg])
    assert rc == 2
    assert json.loads(out)["status"] == "Incompatible"


def test_constraints_generation_cap_exit_code(capsys, tmp_path):
    # a chain of multiplier coordinates whose ladder is still open when
    # the generation cap is reached
    cfg = write_config(tmp_path, {
        "system": {"n": 6, "lagrangian": CHAIN},
        "initial": {"q": [0.0] * 6, "v": [0.0] * 6},
    })
    rc, out, err = run(capsys, ["constraints", "--config", cfg])
    assert rc == 3
    assert err == ""
    assert json.loads(out)["status"] == "MaxIterations"


def test_constraints_degenerate_closes_with_undetermined_direction(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"n": 1, "lagrangian": "v1*s"},
        "initial": {"q": [0.5], "v": [0.25], "s": 1.0},
    })
    rc, out, _ = run(capsys, ["constraints", "--config", cfg])
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "Closed"
    assert report["undetermined_dim"] == 1


# -- configuration errors -----------------------------------------------


def test_config_and_preset_are_exclusive(capsys, tmp_path):
    cfg = write_config(tmp_path, {"system": "duffing"})
    rc, _, err = run(capsys, ["constraints", "--config", cfg,
                              "--preset", "duffing"])
    assert rc == 1
    assert "not both" in err


def test_missing_config_and_preset(capsys):
    rc, _, err = run(capsys, ["constraints"])
    assert rc == 1
    assert "required" in err


def test_unreadable_config(capsys, tmp_path):
    rc, _, err = run(capsys, ["constraints", "--config",
                              str(tmp_path / "nope.json")])
    assert rc == 1
    assert "cannot read config" in err


def test_malformed_json_config(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, ["constraints", "--config", str(path)])
    assert rc == 1
    assert "not valid JSON" in err


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ({"system": "no_such_system"}, "no_such_system"),
        ({"system": 7}, "system"),
        ({"system": {"n": 1}, "initial": {"q": [0.0], "v": [0.0]}},
         "inline system needs"),
        ({"system": {"n": 1, "lagrangian": "v1^2/2 + bogus("},
          "initial": {"q": [0.0], "v": [0.0]}}, "bad inline Lagrangian"),
        ({"system": {"n": 1, "lagrangian": "v1^2/2"}}, "initial block"),
        ({"system": {"n": 1, "lagrangian": "v1^2/2"},
          "initial": {"q": [0.0, 1.0], "v": [0.0]}}, "length n = 1"),
        ({"system": {"n": 1, "lagrangian": "v1^2/2"}, "params": {"a": 1},
          "initial": {"q": [0.0], "v": [0.0]}}, "inside the system block"),
        ({"system": "duffing", "integrator": {"stepsize": 0.1}},
         "unknown integrator fields"),
        ({"system": "duffing", "integrator": {"method": "euler"}},
         "bad integrator block"),
        ({"system": "duffing", "outputs": {"channels": ["bogus"]}},
         "unknown residual channels"),
        ({"system": {"n": 1, "lagrangian": "alpha*v1^2"},
          "initial": {"q": [0.0], "v": [0.0]}}, "bad inline Lagrangian"),
        # blocks of the wrong JSON type
        ([{"system": "duffing"}], "config must be a JSON object, got list"),
        ({"system": "duffing", "initial": [0.0, 1.0]}, "initial must be a JSON object"),
        ({"system": "duffing", "integrator": [1]}, "integrator must be a JSON object"),
        ({"system": "duffing", "outputs": [1]}, "outputs must be a JSON object"),
        ({"system": "duffing", "params": [1]}, "params must be a JSON object"),
        ({"system": {"n": 1, "lagrangian": "v1^2/2", "params": "a=1"},
          "initial": {"q": [0.0], "v": [0.0]}}, "params must be a JSON object, got str"),
        ({"system": {"n": [1], "lagrangian": "v1^2/2"},
          "initial": {"q": [0.0], "v": [0.0]}}, "bad inline system n"),
        ({"system": {"n": 1, "lagrangian": 5},
          "initial": {"q": [0.0], "v": [0.0]}}, "lagrangian must be a string"),
        ({"system": "duffing", "outputs": {"channels": "holonomy"}},
         "channels must be a list of channel names"),
        # int() would truncate 1.5 to 1 and take true as 1
        ({"system": {"n": 1.5, "lagrangian": "v1^2/2"},
          "initial": {"q": [0.0], "v": [0.0]}}, "bad inline system n"),
        ({"system": {"n": True, "lagrangian": "v1^2/2"},
          "initial": {"q": [0.0], "v": [0.0]}}, "bad inline system n"),
        # a non-empty string is truthy and would turn reprojection on
        ({"system": "duffing", "integrator": {"reproject": "no"}},
         "bad integrator block: reproject must be true or false"),
    ],
)
def test_bad_configs_exit_one(capsys, tmp_path, doc, fragment):
    cfg = write_config(tmp_path, doc)
    rc, _, err = run(capsys, ["simulate", "--config", cfg,
                              "--step", "0.1", "--t-end", "0.2"])
    assert rc == 1
    assert fragment in err
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc, fragment", [
    ({"system": "duffing", "sweep": [1]}, "sweep must be a JSON object, got list"),
    ({"system": "duffing", "params": 2.0,
      "sweep": {"param": "alpha", "values": [1.0]}}, "params must be a JSON object"),
    ({"system": "duffing", "sweep": {"param": ["alpha"], "values": [1.0]}},
     "sweep needs a parameter name"),
])
def test_bad_sweep_configs_exit_one(capsys, tmp_path, monkeypatch, doc, fragment):
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, doc)
    rc, out, err = run(capsys, ["sweep", "--config", cfg, "--step", "0.1", "--t-end", "0.2"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ConfigError: ") and err.count("\n") == 1
    assert fragment in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("integrator, fragment", [
    ({"t_end": float("inf")}, "t_end must be finite"),
    ({"method": "rk45", "t_end": float("inf")}, "t_end must be finite"),
    ({"t_end": float("nan")}, "t_end must be finite"),
    ({"step": float("inf")}, "step must be finite and positive"),
    ({"step": float("nan")}, "step must be finite and positive"),
    ({"method": "rk45", "abs_tol": float("inf")}, "tolerances must be finite and positive"),
    ({"method": "rk45", "rel_tol": float("nan")}, "tolerances must be finite and positive"),
])
def test_non_finite_integrator_settings_exit_one(capsys, tmp_path, monkeypatch,
                                                 integrator, fragment):
    # json.load accepts NaN and Infinity; the integrator block must refuse them
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, {"system": "duffing", "integrator": integrator})
    rc, out, err = run(capsys, ["simulate", "--config", cfg])
    assert rc == 1
    assert out == ""
    assert err == f"error: ConfigError: bad integrator block: {fragment}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


@pytest.mark.parametrize("initial", [
    {"t0": float("nan"), "q": [0.3], "v": [0.0]},
    {"q": [float("nan")], "v": [0.0]},
    {"q": [0.3], "v": [float("inf")]},
    {"q": [0.3], "v": [0.0], "s": float("-inf")},
])
def test_non_finite_initial_data_rejected_before_running(capsys, tmp_path, monkeypatch,
                                                         initial):
    # json.load accepts NaN and Infinity; nothing may run on them
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, {"system": "duffing", "initial": initial})
    rc, out, err = run(capsys, ["simulate", "--config", cfg,
                                "--step", "0.1", "--t-end", "0.2"])
    assert rc == 1
    assert out == ""
    assert err == "error: ConfigError: initial t0, q, v and s must be finite\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


# -- simulate -----------------------------------------------------------


def test_simulate_writes_csv_and_json(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "system": "duffing",
        "integrator": {"step": 1e-2, "t_end": 0.5},
        "outputs": {"csv": str(tmp_path / "run.csv"),
                    "json": str(tmp_path / "run.json")},
    })
    rc, out, _ = run(capsys, ["simulate", "--config", cfg])
    assert rc == 0
    summary = json.loads(out)
    assert summary["system"] == "duffing"
    assert summary["space"] == "unified"
    assert summary["samples"] == 51
    assert summary["t_final"] == 0.5
    assert set(summary["residuals"]) == set(RESIDUAL_CHANNELS)
    for rep in summary["residuals"].values():
        assert set(rep) == {"max", "rms"}

    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == HEADER_1D
    assert len(lines) == 52

    # CSV must round-trip the JSON samples bit-exactly
    doc = json.loads((tmp_path / "run.json").read_text())
    table = np.loadtxt(tmp_path / "run.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], np.asarray(doc["times"]))
    assert np.array_equal(table[:, 1:5], np.asarray(doc["lifted"])[:, 1:])
    res = np.column_stack([doc["residuals"][k] for k in RESIDUAL_CHANNELS])
    assert np.array_equal(table[:, 5:], res)


def test_simulate_default_output_name(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, {"system": "duffing"})
    rc, out, _ = run(capsys, ["simulate", "--config", cfg,
                              "--step", "0.05", "--t-end", "0.2",
                              "--space", "lagrangian"])
    assert rc == 0
    assert (tmp_path / "duffing_lagrangian.csv").exists()
    assert json.loads(out)["files"] == [str(tmp_path / "duffing_lagrangian.csv")]


def test_simulate_spaces_agree(capsys, tmp_path):
    # same system, three descriptions: exported samples must coincide
    tables = {}
    for space in ("unified", "lagrangian", "hamiltonian"):
        out_file = tmp_path / f"{space}.csv"
        cfg = write_config(tmp_path, {
            "system": "duffing",
            "integrator": {"step": 1e-2, "t_end": 0.5},
        }, name=f"{space}.json")
        rc, _, _ = run(capsys, ["simulate", "--config", cfg,
                                "--space", space, "--out", str(out_file)])
        assert rc == 0
        tables[space] = np.loadtxt(out_file, delimiter=",", skiprows=1)
    for space in ("lagrangian", "hamiltonian"):
        dev = np.max(np.abs(tables[space] - tables["unified"]))
        assert dev <= 1e-8, (space, dev)


def test_simulate_custom_initial_state(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "system": "duffing",
        "initial": {"t0": 1.0, "q": [0.3], "v": [-0.2], "s": 0.1},
        "outputs": {"csv": str(tmp_path / "c.csv")},
    })
    rc, out, _ = run(capsys, ["simulate", "--config", cfg,
                              "--step", "0.05", "--t-end", "1.4"])
    assert rc == 0
    table = np.loadtxt(tmp_path / "c.csv", delimiter=",", skiprows=1)
    assert table[0, 0] == 1.0
    assert table[0, 1] == 0.3
    assert table[0, 2] == -0.2
    assert table[0, 4] == 0.1
    assert json.loads(out)["t_final"] == pytest.approx(1.4)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_overflowing_state_exits_four(capsys, tmp_path, monkeypatch):
    # the first step leaves the floating-point range: a named error at the
    # first non-finite state, not a traceback from the residual pass
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, {"system": "duffing",
                                  "initial": {"q": [1e308], "v": [1e308]}})
    rc, out, err = run(capsys, ["simulate", "--config", cfg,
                                "--step", "0.01", "--t-end", "0.1"])
    assert rc == 4
    assert out == ""
    assert err == "error: StepFailure: non-finite state at t = 0.01\n"


def test_simulate_over_the_step_cap_exits_one_before_any_evaluation(capsys, tmp_path,
                                                                   monkeypatch):
    # step 1e-300 over [0, 1] would be 1e300 rk4 steps: refused before the
    # field is evaluated, in one line
    from cocontact.dynamics import FIELDS, MAX_STEPS

    def refuse(self, state):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(FIELDS["unified"], "eval", refuse)
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, {"system": "duffing",
                                  "integrator": {"step": 1e-300, "t_end": 1}})
    rc, out, err = run(capsys, ["simulate", "--config", cfg])
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ValueError: ")
    assert f"more than MAX_STEPS = {MAX_STEPS}" in err
    assert list(tmp_path.glob("*.csv")) == []


def test_simulate_incompatible_system_exit_two(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"n": 1, "lagrangian": "q1"},
        "initial": {"q": [1.0], "v": [0.0]},
    })
    rc, _, err = run(capsys, ["simulate", "--config", cfg])
    assert rc == 2
    assert "Incompatible" in err


def test_simulate_singular_momentum_space_exit_four(capsys, tmp_path):
    # the charged system has a degenerate velocity metric: no momentum
    # description exists, and asking for one is an integrator failure
    cfg = write_config(tmp_path, {"system": "charged"})
    rc, _, err = run(capsys, ["simulate", "--config", cfg,
                              "--space", "hamiltonian",
                              "--step", "0.01", "--t-end", "0.1"])
    assert rc == 4
    assert "NonInvertibleLegendre" in err


def test_simulate_constraint_drift_exit_four(capsys, tmp_path):
    # feasible system, but a step size far too coarse to hold the
    # constraint set without reprojection
    cfg = write_config(tmp_path, {
        "system": "variable_mass_drag",
        "outputs": {"csv": str(tmp_path / "d.csv")},
    })
    rc, _, err = run(capsys, ["simulate", "--config", cfg,
                              "--step", "0.5", "--t-end", "6.0"])
    assert rc == 4
    assert "LadderLost" in err


def test_simulate_reprojection_failure_exits_four_naming_its_time(capsys, tmp_path):
    # the reprojection stalls mid-run: the message names the step's time
    # and the reprojection, not the initial point
    cfg = write_config(tmp_path, {
        "system": {"n": 3, "lagrangian": "0.5*cos(q2)*v1^2 + v2^2/2 + q3*(q1 - t)"},
        "initial": {"q": [0.0, 1.0, 0.0], "v": [1.0, 1.0, 0.0]},
        "integrator": {"method": "rk4", "step": 0.01, "t_end": 0.7, "reproject": True},
        "outputs": {"csv": str(tmp_path / "r.csv")},
    })
    rc, out, err = run(capsys, ["simulate", "--config", cfg])
    assert rc == 4
    assert out == ""
    assert err.startswith("error: InfeasiblePoint: reprojection failed at t = 0.6")
    assert "initial point" not in err
    assert err.count("\n") == 1


# -- verify -------------------------------------------------------------


def test_verify_passes_and_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, ["verify", "--preset", "duffing", "--seed", "5"])
    rc2, out2, _ = run(capsys, ["verify", "--preset", "duffing", "--seed", "5"])
    assert rc1 == rc2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines[:4])
    assert lines[-1] == "4/4 checks passed"


def test_verify_tight_tolerance_fails(capsys):
    rc, out, _ = run(capsys, ["verify", "--preset", "duffing",
                              "--tol", "1e-15"])
    assert rc == 1
    lines = out.strip().splitlines()
    assert any(line.startswith("FAIL") for line in lines)
    assert lines[-1].endswith("/4 checks passed")
    assert not lines[-1].startswith("4/")


def test_verify_rejects_inline_systems(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"n": 1, "lagrangian": "v1^2/2"},
        "initial": {"q": [0.0], "v": [1.0]},
    })
    rc, _, err = run(capsys, ["verify", "--config", cfg])
    assert rc == 1
    assert "preset" in err


# -- sweep --------------------------------------------------------------


def test_sweep_runs_every_value(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    rc, out, _ = run(capsys, ["sweep", "--preset", "duffing",
                              "--param", "alpha", "--values", "0.5,1.0,2.0",
                              "--step", "0.01", "--t-end", "0.3"])
    assert rc == 0
    summary = json.loads(out)
    assert summary["param"] == "alpha"
    assert [r["value"] for r in summary["runs"]] == [0.5, 1.0, 2.0]
    for row in summary["runs"]:
        path = tmp_path / f"duffing_alpha_{row['value']:g}.csv"
        assert path.exists()
        assert row["file"] == str(path)
        assert row["t_final"] == pytest.approx(0.3)
        assert row["residual_max"]["constraint"] < 1e-9
    # stiffer spring, larger restoring coefficient: runs really differ
    finals = [r["final_state"][1] for r in summary["runs"]]
    assert len(set(finals)) == 3


def test_sweep_config_block(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, {
        "system": "duffing",
        "integrator": {"step": 0.01, "t_end": 0.2},
        "sweep": {"param": "delta", "values": [0.0, 0.1]},
    })
    rc, out, _ = run(capsys, ["sweep", "--config", cfg])
    assert rc == 0
    assert len(json.loads(out)["runs"]) == 2


def test_sweep_honours_initial_block(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    cfg = write_config(tmp_path, {
        "system": "duffing",
        "initial": {"t0": 0.5, "q": [0.3], "v": [-0.2], "s": 0.1},
        "integrator": {"step": 0.05, "t_end": 0.7},
        "sweep": {"param": "alpha", "values": [1.0, 2.0]},
    })
    rc, out, _ = run(capsys, ["sweep", "--config", cfg])
    assert rc == 0
    for row in json.loads(out)["runs"]:
        table = np.loadtxt(row["file"], delimiter=",", skiprows=1)
        np.testing.assert_array_equal(table[0, [0, 1, 2, 4]], [0.5, 0.3, -0.2, 0.1])
        assert row["t_final"] == pytest.approx(0.7)


def test_sweep_missing_param_exit_one(capsys):
    rc, _, err = run(capsys, ["sweep", "--preset", "duffing",
                              "--values", "1.0"])
    assert rc == 1
    assert "parameter name" in err


def test_sweep_unknown_param_exit_one(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    rc, _, err = run(capsys, ["sweep", "--preset", "duffing",
                              "--param", "nope", "--values", "1.0",
                              "--step", "0.01", "--t-end", "0.1"])
    assert rc == 1
    assert "nope" in err


def test_sweep_rejects_unparsable_values(capsys):
    rc, _, err = run(capsys, ["sweep", "--preset", "duffing", "--param", "alpha",
                              "--values", "a,b"])
    assert rc == 1
    assert err.startswith("error: ConfigError: bad sweep values")


def test_sweep_refuses_values_with_one_file_name(capsys, tmp_path, monkeypatch):
    # both values print as 0.1 under %g, so both runs would write
    # duffing_alpha_0.1.csv; nothing may run
    monkeypatch.setenv("COCONTACT_OUT_DIR", str(tmp_path))
    rc, out, err = run(capsys, ["sweep", "--preset", "duffing", "--param", "alpha",
                                "--values", "0.1000001,0.1000002",
                                "--step", "0.01", "--t-end", "0.1"])
    assert rc == 1
    assert out == ""
    assert "share output file names: 0.1" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_inline_systems(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "system": {"n": 1, "lagrangian": "v1^2/2"},
        "initial": {"q": [0.0], "v": [1.0]},
    })
    rc, _, err = run(capsys, ["sweep", "--config", cfg, "--param", "a",
                              "--values", "1.0"])
    assert rc == 1
    assert "preset" in err


# -- library errors -----------------------------------------------------


SQRT_AT_ZERO = {
    "system": {"n": 1, "lagrangian": "v1^2/2 - sqrt(q1)"},
    "initial": {"q": [0.0], "v": [1.0]},
}


@pytest.mark.parametrize("command", ["constraints", "simulate"])
def test_domain_error_in_lagrangian_exits_four(capsys, tmp_path, command):
    cfg = write_config(tmp_path, SQRT_AT_ZERO)
    rc, _, err = run(capsys, [command, "--config", cfg])
    assert rc == 4
    assert err.startswith("error: JetDomainError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("exc, code", [
    (cli.ConfigError("bad block"), 1),
    (InfeasiblePoint("projection stalled"), 4),
    (ValueError("t_end lies before t0"), 1),
    (StepFailure("step size underflow"), 4),
    (LadderLost("constraint drift"), 4),
    (NonInvertibleLegendre("velocity Hessian is singular"), 4),
    (JetDomainError("sqrt of a negative value"), 4),
    (NumericalBreakdown("frozen pivot collapsed"), 4),
    (OverflowError("math range error"), 4),
])
@pytest.mark.parametrize("argv", [
    ["constraints", "--preset", "duffing"],
    ["simulate", "--preset", "duffing"],
    ["sweep", "--preset", "duffing", "--param", "alpha", "--values", "1.0"],
])
def test_library_errors_map_to_one_line_and_exit_code(capsys, monkeypatch, argv,
                                                       exc, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_constraint_algorithm", fail)
    rc, out, err = run(capsys, argv)
    assert rc == code
    assert out == ""
    assert err == f"error: {type(exc).__name__}: {exc}\n"


def test_unmapped_errors_propagate(monkeypatch):
    def fail(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a user error")

    monkeypatch.setattr(cli, "run_constraint_algorithm", fail)
    with pytest.raises(ZeroDivisionError):
        cli.main(["constraints", "--preset", "duffing"])


# -- plumbing -----------------------------------------------------------


def test_ladder_exit_mapping():
    assert cli._ladder_exit("Closed") == 0
    assert cli._ladder_exit("Incompatible") == 2
    assert cli._ladder_exit("MaxIterations") == 3


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["constraints", "--preset", "duffing", "--seed", "3"],
    ["simulate", "--preset", "duffing", "--seed", "3"],
    ["sweep", "--preset", "duffing", "--seed", "3"],
    ["verify", "--preset", "duffing", "--out", "x"],
    ["sweep", "--preset", "duffing", "--out", "x"],
])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
