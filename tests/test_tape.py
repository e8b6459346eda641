"""Taped evaluation against the live engine.

A closed ladder's Taylor work and L's expansions are recorded once
(jets.Tape) and replayed after that.  The live results here come from
internal entry points: the engine run directly on floats (expand, the
workspace reads), or whole runs with every recording refused.
"""

import math

import numpy as np
import pytest

from cocontact import dsl
from cocontact.dynamics import FIELDS, IntegratorConfig, LadderLost, integrate
from cocontact.jets import (
    CoordinateSpace,
    JetDomainError,
    Tape,
    Taylor,
    cos,
    exp,
    expand,
    guard,
    sin,
)
from cocontact.mechanics import LagrangianSystem
from cocontact.pontryagin import (
    AlgorithmOptions,
    NumericalBreakdown,
    _field,
    _reads,
    _unpack,
    _Workspace,
    assemble_Z,
    run_constraint_algorithm,
)
from cocontact.systems import (
    PRESET_NAMES,
    NonpositiveMassError,
    charged_particle,
    preset_by_name,
    variable_mass_drag,
)

OPTS = AlgorithmOptions()
DESCRIPTIONS = {
    "duffing": ("unified", "lagrangian", "hamiltonian"),
    "variable_mass_drag": ("unified", "lagrangian", "hamiltonian"),
    "charged_particle": ("unified", "lagrangian"),
}
# the reprojection-stall system of tests/test_dynamics.py: its velocity
# metric cos(q2) degenerates at q2 = pi/2
STALLING_L = "0.5*cos(q2)*v1^2 + v2^2/2 + q3*(q1 - t)"
STALLING_START = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def refuse_recording(monkeypatch):
    """From here on every recording is refused: everything runs live."""
    monkeypatch.setattr(Tape, "record", classmethod(lambda cls, build, n: None))


def live_taylor(L, space, x, order):
    return expand(L._on(space), np.asarray(x, dtype=float), order)


def live_Z(L, w, ladder, expansion=None):
    active = ladder.active()
    space = CoordinateSpace.unified(L.n)
    order = 1 + max(c.generation for c in active)
    if expansion is None:
        expansion = live_taylor(L, space, w, order)
    ws = _Workspace(L, w, active, 1, expansion.truncated(order))
    return _field(w, *_unpack(space, _reads(ws, active), len(active)), OPTS)[0]


def assert_same_taylor(got, want):
    assert got.order == want.order
    assert list(got.terms) == list(want.terms)
    assert np.array_equal(list(got.terms.values()), list(want.terms.values()))


def assert_same_Z(got, want):
    for name in ("A", "B", "C", "D", "E", "undetermined", "constraint_values", "L_data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def stalling_system():
    L = LagrangianSystem.from_expr(dsl.parse(STALLING_L, 3))
    ladder, _ = run_constraint_algorithm(L, STALLING_START, OPTS)
    assert ladder.status == "Closed"
    return L, ladder


# -- taped equals live ---------------------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_taped_evaluation_equals_live_at_every_sample(name):
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    n = L.n
    deepest = max(c.generation for c in ladder.active())
    unified = CoordinateSpace.unified(n)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.1)
    for kind in DESCRIPTIONS[name]:
        fld = FIELDS[kind](L, ladder, OPTS)
        traj = integrate(fld, fld.drop(ladder.probe), cfg)
        for w in traj.lifted:
            assert_same_Z(assemble_Z(L, w, ladder), live_Z(L, w, ladder))
            for order in (2, 1 + deepest):
                assert_same_taylor(L.taylor_on(unified, w, order),
                                   live_taylor(L, unified, w, order))
            x = np.concatenate((w[: 1 + 2 * n], w[-1:]))
            for order in (1, 2, 3):
                assert_same_taylor(L.taylor(x, order), live_taylor(L, L.space, x, order))
            # the velocity lift's expansion, taken at p = 0, serves too
            w0 = w.copy()
            w0[1 + 2 * n : 1 + 3 * n] = 0.0
            lifted = L.taylor_on(unified, w0, 1 + deepest)
            assert_same_Z(assemble_Z(L, w, ladder, expansion=lifted),
                          live_Z(L, w, ladder, lifted))
    assert ladder._tape[2] is not None
    assert all(tape is not None for _, tape in L._tapes.values())


def _runs(name, kind):
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    fld = FIELDS[kind](L, ladder, OPTS)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.1, reproject=kind == "unified")
    return integrate(fld, fld.drop(ladder.probe), cfg)


@pytest.mark.parametrize("name, kind",
                         [(name, kind) for name, kinds in DESCRIPTIONS.items() for kind in kinds])
def test_taped_run_equals_live_run(name, kind, monkeypatch):
    taped = _runs(name, kind)
    refuse_recording(monkeypatch)
    live = _runs(name, kind)
    for field in ("times", "states", "lifted", "coeffs"):
        assert np.array_equal(getattr(taped, field), getattr(live, field)), field
    for channel, values in live.residuals.items():
        assert np.array_equal(taped.residuals[channel], values), channel


# -- guards raise what the live engine raises ------------------------------


def _raised(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


def test_radius_guard_fires_on_replay():
    pre = charged_particle()
    L = pre.system
    space = CoordinateSpace.unified(L.n)
    w = pre.sample_feasible(np.random.default_rng(1))
    L.taylor_on(space, w, 3)  # records
    w[1:4] = [1e-7, 0.0, 0.0]
    got = _raised(lambda: L.taylor_on(space, w, 3))
    assert got == _raised(lambda: live_taylor(L, space, w, 3))
    assert got == (JetDomainError, "radius below guard 1e-06")


def test_mass_guard_fires_on_replay():
    pre = variable_mass_drag(m_expr="1 - t")
    L = pre.system
    space = CoordinateSpace.unified(L.n)
    L.taylor_on(space, [0.5, 0.1, 0.2, 0.0, 0.0], 2)  # records at m = 0.5
    w = [2.0, 0.1, 0.2, 0.0, 0.0]
    got = _raised(lambda: L.taylor_on(space, w, 2))
    assert got == _raised(lambda: live_taylor(L, space, w, 2))
    assert got == (NonpositiveMassError, "m(t) = -1.0 is nonpositive")


def test_pivot_guard_fires_on_replay():
    L, ladder = stalling_system()
    assemble_Z(L, ladder.probe, ladder)  # records
    assert ladder._tape[2] is not None
    w = ladder.probe.copy()
    w[2] = math.pi / 2  # q2: the frozen pivot cos(q2) vanishes
    got = _raised(lambda: assemble_Z(L, w, ladder))
    assert got == _raised(lambda: live_Z(L, w, ladder))
    assert got[0] is NumericalBreakdown
    assert got[1].startswith("frozen pivot ") and got[1].endswith("closure pattern lost")


def _drift_failure():
    L, ladder = stalling_system()
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=1.2)
    return _raised(lambda: integrate(FIELDS["unified"](L, ladder, OPTS), ladder.probe, cfg))


def test_drift_failure_is_the_live_one(monkeypatch):
    taped = _drift_failure()
    refuse_recording(monkeypatch)
    assert taped == _drift_failure()
    assert taped[0] is LadderLost
    assert "at t = 1.05 " in taped[1]


# -- refusal and re-recording ---------------------------------------------


def _counting_records(monkeypatch):
    calls = []
    record = Tape.record.__func__

    def counting(cls, build, n):
        calls.append(n)
        return record(cls, build, n)

    monkeypatch.setattr(Tape, "record", classmethod(counting))
    return calls


def test_an_fn_that_branches_on_a_value_is_refused_once(monkeypatch):
    def fn(t, q, v, s, par):
        x = q[0]
        stiff = 2.0 if (x.value if isinstance(x, Taylor) else x) > 0.0 else 1.0
        return 0.5 * v[0] * v[0] - 0.5 * stiff * x * x

    L = LagrangianSystem(1, fn)
    space = CoordinateSpace.unified(1)
    calls = _counting_records(monkeypatch)
    for q in (0.5, -0.5, 0.25):
        w = np.array([0.0, q, 0.3, 0.0, 0.0])
        assert_same_taylor(L.taylor_on(space, w, 2), live_taylor(L, space, w, 2))
    assert len(calls) == 1
    assert L._tapes[(space.dim, 2)][1] is None
    # the refused fn still drives a field; the ladder's own work tapes
    ladder, _ = run_constraint_algorithm(L, np.array([0.0, 0.5, 0.3, 0.0, 0.0]), OPTS)
    for q in (0.5, -0.5):
        w = np.array([0.0, q, 0.3, 0.3, 0.0])
        assert_same_Z(assemble_Z(L, w, ladder), live_Z(L, w, ladder))


def test_a_guarded_fn_is_taped():
    def fn(t, q, v, s, par):
        guard(q[0].value, lambda x: x < -1.0, lambda x: ValueError(f"q1 = {x} below -1"))
        return 0.5 * v[0] * v[0] - 0.5 * q[0] * q[0]

    L = LagrangianSystem(1, fn)
    space = CoordinateSpace.unified(1)
    w = np.array([0.0, 0.5, 0.3, 0.0, 0.0])
    assert_same_taylor(L.taylor_on(space, w, 2), live_taylor(L, space, w, 2))
    assert L._tapes[(space.dim, 2)][1] is not None
    w[1] = -2.0
    assert _raised(lambda: L.taylor_on(space, w, 2)) == (ValueError, "q1 = -2.0 below -1")


def test_a_parameter_change_records_anew_and_keeps_one_tape(monkeypatch):
    pre = preset_by_name("duffing")
    L = pre.system
    space = CoordinateSpace.unified(1)
    w = np.array([0.3, 1.1, -0.4, 0.0, 0.2])
    calls = _counting_records(monkeypatch)
    before = L.taylor_on(space, w, 2)
    L.taylor_on(space, w, 2)
    assert len(calls) == 1
    L.params["beta"] = 0.0
    after = L.taylor_on(space, w, 2)
    assert len(calls) == 2
    assert_same_taylor(after, live_taylor(L, space, w, 2))
    assert after.value != before.value
    assert list(L._tapes) == [(space.dim, 2)]


# -- the tape itself -------------------------------------------------------


def test_tape_replays_the_recorded_operations():
    def build(x):
        u, v = x
        return [u * v + u, (u - 2.0) / v, -u, u * 1.0, v ** -3, 1.5]

    tape = Tape.record(build, 2)
    for u, v in ((0.3, -0.7), (2.0, 5.0)):
        assert tape([u, v]) == tuple(build([u, v]))


def test_tape_refuses_a_value_test():
    assert Tape.record(lambda x: [x[0] if x[0] > 0.0 else -x[0]], 1) is None
    assert Tape.record(lambda x: [float(x[0])], 1) is None
    assert Tape.record(lambda x: [x[0] * 2.0 if x[0] else 0.0], 1) is None
    assert Tape.record(lambda x: [abs(x[0])], 1) is None
    assert Tape.record(lambda x: [x[0] * 2.0 if x[0] == x[1] else 0.0], 2) is None


def test_structural_zeros_keep_their_keys():
    assert Taylor.constant(2, 0.0).terms == {0: 0.0}
    assert list(Taylor.variable(2, 1, 0.0).terms) == [0, 10]
    zero = Taylor.variable(2, 0, 0.0)
    assert list(sin(zero).terms) == list(sin(Taylor.variable(2, 0, 0.4)).terms)
    assert list(exp(zero).terms) == list(exp(Taylor.variable(2, 0, 0.4)).terms)
    assert list(cos(zero * zero).terms) == list(cos(Taylor.variable(2, 0, 0.4) ** 2).terms)
