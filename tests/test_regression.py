"""Behaviour oracle: the package's outputs on a fixed matrix of runs, checked
against a golden file.

The matrix: duffing and drag in all three descriptions, the charged
particle in the mixed and velocity descriptions (its momentum description
must raise NonInvertibleLegendre), each with rk4 and rk45 and with
reprojection on and off; plus every preset's ladder report, the field
coefficients at its probe point and its `verify` verdicts.

Tolerances:
  rk4 runs, ladder reports, Z   1e-13, relative to the largest entry of
                                the compared array (or 1)
  rk45 runs                     RK45_FACTOR * (abs_tol + rel_tol * |x|):
                                rounding-level changes in the field move
                                the adaptive step grid, so these runs agree
                                to the step control's tolerance, not bit
                                for bit
  sample counts, ladder shapes, labels and verdicts   exact

Regenerate the golden file with

    PYTHONPATH=src python tests/test_regression.py --write

only when a change is meant to move these outputs, and then name every
entry that moved, by how much and why, in CHANGES.md.  Never widen a
tolerance to pass.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from cocontact.checks import run_all_checks
from cocontact.dynamics import FIELDS, IntegratorConfig, NonInvertibleLegendre, integrate
from cocontact.pontryagin import AlgorithmOptions, run_constraint_algorithm
from cocontact.systems import PRESET_NAMES, preset_by_name

GOLDEN = Path(__file__).resolve().parent / "regression_golden.json"

RTOL = 1e-13
RK45_FACTOR = 100.0

# (preset, descriptions); the charged particle's fibre map is singular
SYSTEMS = {
    "duffing": ("unified", "lagrangian", "hamiltonian"),
    "variable_mass_drag": ("unified", "lagrangian", "hamiltonian"),
    "charged_particle": ("unified", "lagrangian"),
}
# per preset: (step, t_end); the charged particle's five-generation ladder
# makes its steps about ten times dearer
SPANS = {
    "duffing": (1e-2, 0.3),
    "variable_mass_drag": (1e-2, 0.3),
    "charged_particle": (1e-2, 0.1),
}
TOLS = {"abs_tol": 1e-9, "rel_tol": 1e-9}

RUNS = [
    (name, space, method, reproject)
    for name, spaces in SYSTEMS.items()
    for space in spaces
    for method in ("rk4", "rk45")
    for reproject in (False, True)
]


def run_id(name, space, method, reproject):
    return f"{name}-{space}-{method}-{'reproject' if reproject else 'monitor'}"


_LADDERS: dict = {}


def ladder_of(name):
    if name not in _LADDERS:
        _LADDERS[name] = run_constraint_algorithm(preset_by_name(name).system,
                                                  preset_by_name(name).initial,
                                                  AlgorithmOptions())
    return _LADDERS[name]


def run_record(name, space, method, reproject) -> dict:
    pre = preset_by_name(name)
    ladder, _ = ladder_of(name)
    step, t_end = SPANS[name]
    cfg = IntegratorConfig(method=method, step=step, t_end=t_end, reproject=reproject, **TOLS)
    field = FIELDS[space](pre.system, ladder, AlgorithmOptions())
    traj = integrate(field, field.drop(ladder.probe), cfg)
    N = len(traj)
    picks = sorted({0, N // 2, N - 1})
    return {
        "samples": N,
        "final_time": float(traj.times[-1]),
        "final_state": traj.states[-1].tolist(),
        "channel_max": {k: traj.channel_max(k) for k in sorted(traj.residuals)},
        "picks": picks,
        "coeffs": traj.coeffs[picks].tolist(),
        "lifted": traj.lifted[picks].tolist(),
    }


def ladder_record(name) -> dict:
    ladder, Z = ladder_of(name)
    report = ladder.report()
    return {
        "status": report["status"],
        "labels": [[c["label"] for c in gen] for gen in report["generations"]],
        "generation_numbers": [[c["generation"] for c in gen] for gen in report["generations"]],
        "values_at_probe": [c["value_at_probe"] for gen in report["generations"] for c in gen],
        "rank": report["rank"],
        "undetermined_dim": report["undetermined_dim"],
        "tolerance": report["tolerance"],
        "probe": ladder.probe.tolist(),
        "Z": Z.coeffs.tolist(),
        "Z_undetermined_shape": list(Z.undetermined.shape),
        "Z_constraint_values": Z.constraint_values.tolist(),
    }


def verify_record(name) -> list:
    return [{"name": r.name, "passed": bool(r.passed), "worst": float(r.worst), "tol": float(r.tol)}
            for r in run_all_checks(name)]


def build_golden() -> dict:
    return {
        "runs": {run_id(*key): run_record(*key) for key in RUNS},
        "ladders": {name: ladder_record(name) for name in PRESET_NAMES},
        "verify": {name: verify_record(name) for name in PRESET_NAMES},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def close(got, want, bound, what):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape, what
    dev = np.abs(got - want)
    assert np.all(dev <= bound), f"{what}: worst deviation {float(np.max(dev)):.3e}"


def test_golden_covers_the_matrix(golden):
    assert sorted(golden["runs"]) == sorted(run_id(*key) for key in RUNS)
    assert len(golden["runs"]) == 32
    assert sorted(golden["ladders"]) == sorted(golden["verify"]) == sorted(PRESET_NAMES)


@pytest.mark.parametrize("key", RUNS, ids=[run_id(*key) for key in RUNS])
def test_run_matches_golden(golden, key):
    name, space, method, reproject = key
    want = golden["runs"][run_id(*key)]
    got = run_record(*key)
    assert got["samples"] == want["samples"]
    assert got["picks"] == want["picks"]
    assert got["final_time"] == want["final_time"]
    assert sorted(got["channel_max"]) == sorted(want["channel_max"])
    if method == "rk4":
        def bound(ref):
            return RTOL * max(1.0, float(np.max(np.abs(ref))))
    else:
        def bound(ref):
            return RK45_FACTOR * (TOLS["abs_tol"] + TOLS["rel_tol"] * np.abs(np.asarray(ref)))
    for what in ("final_state", "coeffs", "lifted"):
        close(got[what], want[what], bound(want[what]), what)
    for channel, ref in want["channel_max"].items():
        # the channels are integration errors; hold them to the same bound
        # as the states, at the scale of the states
        scale = np.max(np.abs(want["final_state"]))
        tol = (RTOL * max(1.0, scale) if method == "rk4"
               else RK45_FACTOR * (TOLS["abs_tol"] + TOLS["rel_tol"] * scale))
        close(got["channel_max"][channel], ref, tol, channel)


def test_charged_momentum_description_is_refused():
    pre = preset_by_name("charged_particle")
    ladder, _ = ladder_of("charged_particle")
    field = FIELDS["hamiltonian"](pre.system, ladder, AlgorithmOptions())
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.05)
    with pytest.raises(NonInvertibleLegendre):
        integrate(field, field.drop(ladder.probe), cfg)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_ladder_report_and_probe_field_match_golden(golden, name):
    want = golden["ladders"][name]
    got = ladder_record(name)
    for key in ("status", "labels", "generation_numbers", "rank", "undetermined_dim",
                "tolerance", "Z_undetermined_shape"):
        assert got[key] == want[key], key
    for key in ("values_at_probe", "probe", "Z", "Z_constraint_values"):
        ref = want[key]
        scale = max(1.0, float(np.max(np.abs(ref)))) if ref else 1.0
        close(got[key], ref, RTOL * scale, key)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_verify_verdicts_match_golden(golden, name):
    want = golden["verify"][name]
    got = verify_record(name)
    assert [(r["name"], r["passed"], r["tol"]) for r in got] == \
        [(r["name"], r["passed"], r["tol"]) for r in want]
    for g, w in zip(got, want):
        # worst is a ratio or a deviation measured against tol
        assert abs(g["worst"] - w["worst"]) <= 1e-6 * max(w["tol"], abs(w["worst"])), g["name"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_regression.py --write")
    GOLDEN.write_text(json.dumps(build_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
