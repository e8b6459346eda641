"""The integrator's float loop against the array integrator it replaced.

integrate steps on lists of Python floats, in numpy's order of operations;
tests/integrator_reference.py holds the integrator that stepped on float64
arrays.  On every preset, in every description it supports, with rk4 and
rk45, reprojection on and off, and an rk4 run that ends on a remainder
step, the two give the same times, states, lifts, coefficients and
residual channels, bit for bit.  The loop keeps calling each description's
own eval and drift entries, as bench/tracer.py wraps them, checks its step
count before the field is evaluated, and replays the tapes each run's
prepare resolved.
"""

import numpy as np
import pytest

import integrator_reference
from cocontact.dynamics import FIELDS, MAX_STEPS, IntegratorConfig, integrate
from cocontact.pontryagin import AlgorithmOptions, run_constraint_algorithm
from cocontact.systems import preset_by_name

OPTS = AlgorithmOptions()
KINDS = {
    "duffing": ("unified", "lagrangian", "hamiltonian"),
    "variable_mass_drag": ("unified", "lagrangian", "hamiltonian"),
    "charged_particle": ("unified", "lagrangian"),
}
CASES = [(name, kind) for name, kinds in KINDS.items() for kind in kinds]


def _runs(name, kind, cfg):
    pre = preset_by_name(name)
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial, OPTS)
    out = []
    for run in (integrate, integrator_reference.integrate):
        fld = FIELDS[kind](pre.system, ladder, OPTS)
        out.append(run(fld, fld.drop(ladder.probe), cfg))
    return out


def assert_same_bits(got, want):
    for attr in ("times", "states", "lifted", "coeffs"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), attr
    assert list(got.residuals) == list(want.residuals)
    for channel, values in want.residuals.items():
        assert got.residuals[channel].tobytes() == values.tobytes(), channel


@pytest.mark.parametrize("reproject", [False, True])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("name, kind", CASES)
def test_the_float_loop_gives_the_array_integrators_bits(name, kind, method, reproject):
    cfg = IntegratorConfig(method=method, step=1e-2, t_end=0.1, reproject=reproject,
                           abs_tol=1e-10, rel_tol=1e-10)
    got, want = _runs(name, kind, cfg)
    assert len(got) >= 5
    assert_same_bits(got, want)


@pytest.mark.parametrize("name, kind", CASES)
def test_a_remainder_step_gives_the_array_integrators_bits(name, kind):
    # three steps of 0.03, then one of 0.01 to t_end
    got, want = _runs(name, kind, IntegratorConfig(step=0.03, t_end=0.1))
    assert len(got) == 5 and got.times[-1] == 0.1
    assert_same_bits(got, want)


# -- the names bench/tracer.py wraps ----------------------------------------


def test_every_description_has_its_own_eval_and_drift():
    # the tracer wraps each class's own entries, read from its __dict__
    for cls in FIELDS.values():
        assert "eval" in cls.__dict__ and "drift" in cls.__dict__, cls.__name__


@pytest.mark.parametrize("name, kind", CASES)
def test_a_monitored_rk4_run_calls_eval_and_drift_as_the_tracer_counts(name, kind, monkeypatch):
    # 4 evaluations per step plus 1 per run, and 1 drift check per step
    pre = preset_by_name(name)
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial, OPTS)
    cls = FIELDS[kind]
    calls = {"eval": 0, "drift": 0}
    for entry in calls:
        original = cls.__dict__[entry]

        def counting(self, arg, original=original, entry=entry):
            calls[entry] += 1
            return original(self, arg)

        monkeypatch.setattr(cls, entry, counting)
    fld = cls(pre.system, ladder, OPTS)
    traj = integrate(fld, fld.drop(ladder.probe), IntegratorConfig(step=1e-2, t_end=0.07))
    k = len(traj) - 1
    assert k == 7
    assert calls == {"eval": 4 * k + 1, "drift": k}


# -- the step-count cap ----------------------------------------------------


@pytest.mark.parametrize("step, t_end", [(1e-300, 1.0), (1.0 / MAX_STEPS, 1.5)])
def test_a_run_over_the_step_cap_raises_before_any_evaluation(step, t_end, monkeypatch):
    pre = preset_by_name("duffing")
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial, OPTS)
    cls = FIELDS["unified"]

    def refuse(self, state):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr(cls, "eval", refuse)
    fld = cls(pre.system, ladder, OPTS)
    with pytest.raises(ValueError, match=f"more than MAX_STEPS = {MAX_STEPS}"):
        integrate(fld, ladder.probe, IntegratorConfig(step=step, t_end=t_end))


# -- a run resolves its tape once -------------------------------------------


@pytest.mark.parametrize("kind", KINDS["duffing"])
def test_a_parameter_change_between_runs_records_the_tape_anew(kind):
    # a field replays the tape its prepare resolved; the next run's
    # prepare sees the changed parameter, as a fresh field does
    pre = preset_by_name("duffing")
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    cfg = IntegratorConfig(step=1e-2, t_end=0.05)
    fld = FIELDS[kind](L, ladder, OPTS)
    before = integrate(fld, fld.drop(ladder.probe), cfg)
    L.params["beta"] = 0.5 * L.params["beta"]
    after = integrate(fld, fld.drop(ladder.probe), cfg)
    fresh = FIELDS[kind](L, ladder, OPTS)
    assert not np.array_equal(before.states, after.states)
    assert_same_bits(after, integrate(fresh, fresh.drop(ladder.probe), cfg))
