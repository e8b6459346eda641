"""Taped evaluation against the live engine.

A closed ladder's Taylor work is recorded once (jets.Tape) and replayed
after that, one point at a time or a batch at once; L's own expansions are
recorded for stacks only, and a single point runs live.  The live results
here come from internal entry points: the engine run directly on floats
(expand, the workspace reads), or whole runs with every recording refused.
"""

import math
import warnings

import numpy as np
import pytest

from cocontact import dsl, jets
from cocontact.checks import _domain_point
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
    stack,
)
from cocontact.mechanics import LagrangianSystem
from cocontact.pontryagin import (
    AlgorithmOptions,
    NumericalBreakdown,
    _field,
    _ladder_reads,
    _layout,
    _reads,
    _solve,
    _Workspace,
    assemble_Z,
    lagrangian_part,
    run_constraint_algorithm,
)
from cocontact.systems import (
    PRESET_NAMES,
    NonpositiveMassError,
    charged_particle,
    preset_by_name,
    variable_mass_drag,
)
from field_reference import reference_field

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


def live_reads(L, w, ladder):
    # solved, as a ladder of full rank records them
    active = ladder.active()
    order = 1 + max(c.generation for c in active)
    expansion = live_taylor(L, CoordinateSpace.unified(L.n), w, order)
    reads = _reads(_Workspace(L, w, active, 1, expansion), active)
    return np.array(_solve(reads, len(active), L.n) if ladder.rank == L.n else reads)


def live_Z(L, w, ladder):
    return _field(live_reads(L, w, ladder), len(ladder.active()), L.n, OPTS)[0]


def assert_same_taylor(got, want):
    assert got.order == want.order
    assert list(got.terms) == list(want.terms)
    assert np.array_equal(list(got.terms.values()), list(want.terms.values()))


def assert_same_Z(got, want):
    for name in ("coeffs", "undetermined", "constraint_values", "L_data"):
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
        W = integrate(fld, fld.drop(ladder.probe), cfg).lifted
        X = np.concatenate((W[:, : 1 + 2 * n], W[:, -1:]), axis=1)
        for w, x in zip(W, X):
            assert_same_Z(assemble_Z(L, w, ladder), live_Z(L, w, ladder))
            if kind == "lagrangian":
                # the velocity side's tape fills in the momenta the lift holds
                assert np.array_equal(ladder._reads[True](x), live_reads(L, w, ladder))
        for order in (2, 1 + deepest):
            assert_same_stack(L.taylor_on(unified, W, order),
                              [live_taylor(L, unified, w, order) for w in W])
        for order in (1, 2, 3):
            assert_same_stack(L.taylor(X, order), [live_taylor(L, L.space, x, order) for x in X])
    assert all(reads.tape is not None for reads in ladder._reads.values())
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


# -- a stack equals its points ---------------------------------------------


def _used_layouts(pre, monkeypatch):
    """Every (layout, order) at which the pointwise checks and an
    integration in each description expand L, and the ladder."""
    from cocontact.checks import check_ad_vs_fd, check_ladder

    seen = {}
    taylor_on = LagrangianSystem.taylor_on

    def spy(self, space, x, order):
        seen[(space.dim, order)] = space
        return taylor_on(self, space, x, order)

    monkeypatch.setattr(LagrangianSystem, "taylor_on", spy)
    check_ad_vs_fd(pre, points=2)
    check_ladder(pre, points=2)
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial, OPTS)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.05)
    lifted = []
    for kind in DESCRIPTIONS[pre.label]:
        fld = FIELDS[kind](pre.system, ladder, OPTS)
        lifted.extend(integrate(fld, fld.drop(ladder.probe), cfg).lifted)
    monkeypatch.setattr(LagrangianSystem, "taylor_on", taylor_on)
    return seen, ladder, np.array(lifted)


def assert_same_stack(got, points):
    """got, a stacked polynomial, holds the polynomials `points`, bit for
    bit and key for key."""
    assert_same_taylor(got, stack(points))
    for c in got.terms.values():
        assert isinstance(c, np.ndarray) and c.shape == (len(points),)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_stack_equals_its_points_wherever_the_pipeline_expands(name, monkeypatch):
    pre = preset_by_name(name)
    L = pre.system
    n = L.n
    layouts, ladder, W = _used_layouts(pre, monkeypatch)
    X = np.concatenate((W[:, : 1 + 2 * n], W[:, -1:]), axis=1)
    assert {order for dim, order in layouts if dim == L.space.dim} == {1, 2, 3}
    for (dim, order), space in layouts.items():
        P = W if dim == W.shape[1] else X
        assert_same_stack(L.taylor_on(space, P, order), [L.taylor_on(space, p, order) for p in P])
    for order in (1, 2, 3):
        jets = L.jet(X, order)
        for b, x in enumerate(X):
            one = L.jet(x, order)
            for part in ("value", "grad", "hess", "third"):
                want = getattr(one, part)
                if want is None:
                    assert getattr(jets, part) is None
                else:
                    assert np.array_equal(getattr(jets, part)[b], want), part
    Zs = assemble_Z(L, W, ladder)
    assert len(Zs) == len(W)
    for Z, w in zip(Zs, W):
        assert_same_Z(Z, assemble_Z(L, w, ladder))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_stack_of_one_is_the_single_point(name):
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    w = ladder.probe
    order = 1 + max(c.generation for c in ladder.active())
    unified = CoordinateSpace.unified(L.n)
    assert_same_stack(L.taylor_on(unified, w[None], order), [L.taylor_on(unified, w, order)])
    (Z,) = assemble_Z(L, w[None], ladder)
    assert_same_Z(Z, assemble_Z(L, w, ladder))
    x = np.concatenate((w[: 1 + 2 * L.n], w[-1:]))
    one, stacked = L.jet(x, 3), L.jet(x[None], 3)
    for part in ("value", "grad", "hess", "third"):
        assert np.array_equal(getattr(stacked, part)[0], getattr(one, part)), part


# -- guards raise what the live engine raises ------------------------------


def _raised(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


def test_radius_guard_fires_on_replay():
    # the ladder's tape expands L itself, so it holds L's guards
    pre = charged_particle()
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    w = pre.sample_feasible(np.random.default_rng(1))
    assemble_Z(L, w, ladder)  # records
    assert ladder._reads[False].tape is not None
    w[1:4] = [1e-7, 0.0, 0.0]
    got = _raised(lambda: assemble_Z(L, w, ladder))
    assert got == _raised(lambda: live_Z(L, w, ladder))
    assert got == (JetDomainError, "radius below guard 1e-06")


def test_mass_guard_fires_on_replay():
    L = variable_mass_drag(m_expr="1 - t").system
    ladder, _ = run_constraint_algorithm(L, np.array([0.5, 0.1, 0.2, 0.0, 0.0]), OPTS)
    assemble_Z(L, ladder.probe, ladder)  # records at m = 0.5
    assert ladder._reads[False].tape is not None
    w = np.array([2.0, 0.1, 0.2, 0.0, 0.0])
    got = _raised(lambda: assemble_Z(L, w, ladder))
    assert got == _raised(lambda: live_Z(L, w, ladder))
    assert got == (NonpositiveMassError, "m(t) = -1.0 is nonpositive")


def test_pivot_guard_fires_on_replay():
    L, ladder = stalling_system()
    assemble_Z(L, ladder.probe, ladder)  # records
    assert ladder._reads[False].tape is not None
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


# -- a stack raises what its first failing point raises --------------------


def _stack_raises_as_the_point(call, W, point):
    """call(W) on a stack and call(point) on its failing point raise the
    same, and the stack warns nothing on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _raised(lambda: call(W))
    assert got == _raised(lambda: call(point))
    return got


def test_a_stack_with_a_point_below_the_radius_guard():
    pre = charged_particle()
    L = pre.system
    space = CoordinateSpace.unified(L.n)
    rng = np.random.default_rng(1)
    W = np.array([pre.sample_feasible(rng) for _ in range(4)])
    W[2, 1:4] = [1e-7, 0.0, 0.0]
    got = _stack_raises_as_the_point(lambda w: L.taylor_on(space, w, 3), W, W[2])
    assert got == (JetDomainError, "radius below guard 1e-06")
    # the ladder's tape expands L itself, so it holds the same guard
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    got = _stack_raises_as_the_point(lambda w: assemble_Z(L, w, ladder), W, W[2])
    assert got == _raised(lambda: live_Z(L, W[2], ladder))
    assert got == (JetDomainError, "radius below guard 1e-06")
    assert ladder._reads[False].tape is not None


def test_a_stack_with_a_nonpositive_mass():
    L = variable_mass_drag(m_expr="1 - t").system
    space = CoordinateSpace.unified(L.n)
    W = np.array([[t, 0.1, 0.2, 0.0, 0.0] for t in (0.5, 0.0, 2.0, 3.0)])
    got = _stack_raises_as_the_point(lambda w: L.taylor_on(space, w, 2), W, W[2])
    assert got == (NonpositiveMassError, "m(t) = -1.0 is nonpositive")


def test_a_stack_with_a_lost_pivot():
    L, ladder = stalling_system()
    W = np.array([ladder.probe] * 3)
    W[1, 2] = math.pi / 2  # q2: the frozen pivot cos(q2) vanishes
    got = _stack_raises_as_the_point(lambda w: assemble_Z(L, w, ladder), W, W[1])
    assert got[0] is NumericalBreakdown
    assert got[1].startswith("frozen pivot ") and got[1].endswith("closure pattern lost")


def test_a_batch_with_a_float_exception_is_replayed_point_by_point():
    tape = Tape.record(lambda x: [x[0] / x[1], x[0] * x[1], x[0] - 1.0], 2)
    ok = np.array([[1.0, 0.3, 1e200], [2.0, -4.0, 1e200]])  # the last overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = tape(ok)
    for b, x in enumerate(ok.T.tolist()):
        assert [c[b] for c in got] == list(tape(x))
    assert got[1][2] == math.inf
    nan = np.array([[1.0, 0.0], [2.0, 0.0]])  # 0/0
    got = _stack_raises_as_the_point(tape, nan, [0.0, 0.0])
    assert got == _raised(lambda: 0.0 / 0.0)


# -- refusal and re-recording ---------------------------------------------


def _counting_records(monkeypatch):
    calls = []
    record = Tape.record.__func__

    def counting(cls, build, n):
        calls.append(n)
        return record(cls, build, n)

    monkeypatch.setattr(Tape, "record", classmethod(counting))
    return calls


@pytest.mark.parametrize("reproject", [False, True])
@pytest.mark.parametrize("name, kind", [("duffing", "unified"), ("duffing", "lagrangian"),
                                        ("duffing", "hamiltonian"),
                                        ("charged_particle", "unified"),
                                        ("charged_particle", "lagrangian")])
def test_a_run_records_one_tape(name, kind, reproject, monkeypatch):
    # evaluations and projections share one tape per run: the velocity
    # side's projections start from its own tape's reads, and the
    # mixed-space tape would be recorded only once Gauss-Newton moves
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    calls = _counting_records(monkeypatch)
    fld = FIELDS[kind](L, ladder, OPTS)
    integrate(fld, fld.drop(ladder.probe), IntegratorConfig(step=1e-2, t_end=0.05, reproject=reproject))
    assert calls == [(2 if kind == "lagrangian" else 3) * L.n + 2]


def test_an_fn_that_branches_on_a_value_is_refused_once(monkeypatch):
    def fn(t, q, v, s, par):
        x = q[0]
        stiff = 2.0 if (x.value if isinstance(x, Taylor) else x) > 0.0 else 1.0
        return 0.5 * v[0] * v[0] - 0.5 * stiff * x * x

    L = LagrangianSystem(1, fn)
    space = CoordinateSpace.unified(1)
    calls = _counting_records(monkeypatch)
    W = np.array([[0.0, q, 0.3, 0.0, 0.0] for q in (0.5, -0.5, 0.25)])
    # a stack runs its points live and stacks them, the first one after
    # its recording is refused, and the next without another attempt
    for _ in range(2):
        assert_same_stack(L.taylor_on(space, W, 2), [live_taylor(L, space, w, 2) for w in W])
    assert len(calls) == 1
    assert L._tapes[(space.dim, 2)][1] is None
    # the refused fn still drives a field: the ladder's recording, which
    # runs fn too, is refused as well, once, and its reads run live
    ladder, _ = run_constraint_algorithm(L, np.array([0.0, 0.5, 0.3, 0.0, 0.0]), OPTS)
    for q in (0.5, -0.5):
        w = np.array([0.0, q, 0.3, 0.3, 0.0])
        assert_same_Z(assemble_Z(L, w, ladder), live_Z(L, w, ladder))
    assert len(calls) == 2
    assert ladder._reads[False].tape is None


def _frozen_stiffness(t, q, v, s, par):
    """A regular L whose fn calls float() on a coefficient: its stiffness
    is the value of tanh at the point, a constant to the derivatives."""
    x = q[0]
    k = 1.0 + 0.1 * math.tanh(float(x.value if isinstance(x, Taylor) else x))
    return 0.5 * v[0] * v[0] - 0.5 * k * x * x - 0.05 * s


@pytest.mark.parametrize("kind", ["unified", "lagrangian", "hamiltonian"])
def test_an_fn_that_calls_float_runs_live_in_every_description(kind):
    L = LagrangianSystem(1, _frozen_stiffness)
    ladder, _ = run_constraint_algorithm(L, np.array([0.0, 0.5, 0.3, 0.0, 0.0]), OPTS)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.1)
    runs = []
    for make in (FIELDS[kind], reference_field(kind)):
        fld = make(L, ladder, OPTS)
        runs.append(integrate(fld, fld.drop(ladder.probe), cfg))
    got, want = runs
    for field in ("times", "states", "lifted", "coeffs"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    for channel, values in want.residuals.items():
        assert np.array_equal(got.residuals[channel], values), channel
    # every recording made was refused; a velocity run whose projection
    # does not move makes none on the mixed space
    held = [reads for reads in (L._momentum_reads, *ladder._reads.values()) if reads is not None]
    assert all(reads.tape is None for reads in held)
    assert any(reads.params == () for reads in held)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_velocity_lift_momenta_are_the_deep_expansions(name):
    # the lift reads p = dL/dv off L's order-1 expansion; at 1 + the
    # deepest generation the gradient is the same, bit for bit
    pre = preset_by_name(name)
    L = pre.system
    n = L.n
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    deepest = max(c.generation for c in ladder.active())
    fld = FIELDS["lagrangian"](L, ladder, OPTS)
    unified = CoordinateSpace.unified(n)
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = pre.sample_feasible(rng)
        w[1 + 2 * n : 1 + 3 * n] = 0.0
        deep = L.taylor_on(unified, w, 1 + deepest).gradient(1 + 2 * n)[1 + n :]
        assert np.array_equal(fld.lift(fld.drop(w))[1 + 2 * n : 1 + 3 * n], deep)


def test_a_guarded_fn_is_taped():
    def fn(t, q, v, s, par):
        guard(q[0].value, lambda x: x < -1.0, lambda x: ValueError(f"q1 = {x} below -1"))
        return 0.5 * v[0] * v[0] - 0.5 * q[0] * q[0]

    L = LagrangianSystem(1, fn)
    space = CoordinateSpace.unified(1)
    W = np.array([[0.0, q, 0.3, 0.0, 0.0] for q in (0.5, -0.5)])
    assert_same_stack(L.taylor_on(space, W, 2), [live_taylor(L, space, w, 2) for w in W])
    assert L._tapes[(space.dim, 2)][1] is not None
    W[1, 1] = -2.0
    got = _stack_raises_as_the_point(lambda w: L.taylor_on(space, w, 2), W, W[1])
    assert got == (ValueError, "q1 = -2.0 below -1")


def test_a_parameter_change_records_anew_and_keeps_one_tape(monkeypatch):
    pre = preset_by_name("duffing")
    L = pre.system
    space = CoordinateSpace.unified(1)
    W = np.array([[0.3, 1.1, -0.4, 0.0, 0.2], [0.1, -0.7, 0.5, 0.0, 0.0]])
    calls = _counting_records(monkeypatch)
    before = L.taylor_on(space, W, 2)
    L.taylor_on(space, W, 2)
    assert len(calls) == 1
    L.params["beta"] = 0.0
    after = L.taylor_on(space, W, 2)
    assert len(calls) == 2
    assert_same_stack(after, [live_taylor(L, space, w, 2) for w in W])
    assert not np.array_equal(after.value, before.value)
    assert list(L._tapes) == [(space.dim, 2)]


def test_a_parameter_change_records_the_ladder_anew():
    pre = charged_particle()
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    w = pre.sample_feasible(np.random.default_rng(5))
    before = assemble_Z(L, w, ladder)
    tape = ladder._reads[False].tape
    assert tape is not None
    L.params["gamma"] = 0.5 * L.params["gamma"]
    after = assemble_Z(L, w, ladder)
    assert ladder._reads[False].tape is not None and ladder._reads[False].tape is not tape
    assert np.array_equal(ladder._reads[False](w), live_reads(L, w, ladder))
    assert_same_Z(after, live_Z(L, w, ladder))
    assert not np.array_equal(after.coeffs, before.coeffs)


def test_a_single_point_never_records_and_a_stack_records_at_once(monkeypatch):
    L = preset_by_name("charged").system
    space = CoordinateSpace.unified(L.n)
    W = np.random.default_rng(3).uniform(1.0, 2.0, (20, space.dim))
    calls = _counting_records(monkeypatch)
    for w in W:
        assert_same_taylor(L.taylor_on(space, w, 4), live_taylor(L, space, w, 4))
    assert calls == [] and L._tapes == {}
    L.taylor_on(space, W, 4)
    assert len(calls) == 1 and L._tapes[(space.dim, 4)][1] is not None
    # a changed parameter records the stack's tape again, at the next stack
    L.params["gamma"] = 0.5
    L.taylor_on(space, W[0], 4)
    assert len(calls) == 1
    assert_same_stack(L.taylor_on(space, W, 4), [live_taylor(L, space, w, 4) for w in W])
    assert len(calls) == 2 and list(L._tapes) == [(space.dim, 4)]


@pytest.mark.parametrize("name, statements", [("duffing", 41), ("variable_mass_drag", 56)])
def test_only_the_momentum_constraints_tape_carries_newtons_step(name, statements, monkeypatch):
    # a one-generation ladder's mixed-space tape is the momentum
    # constraints', whose Newton column legendre_invert reads; the
    # velocity side's tape solves for C alone, and is that much shorter.
    # A source compiled before (by another test) comes from the code
    # cache, so the cache is emptied before each recording
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(jets, "compile", spy, raising=False)
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    n = L.n
    counts = {}
    for lift in (False, True):
        sources.clear()
        jets._code.cache_clear()
        reads = _ladder_reads(L, ladder, lift=lift)
        raw = reads(lagrangian_part(ladder.probe, n) if lift else ladder.probe)
        # the replay's statements, less the inputs' unpacking and the return
        counts[lift] = sum(line.startswith(" " * 8) for line in sources[-1].splitlines()) - 2
        assert len(raw) == _layout(n, n)[3].stop + (0 if lift else n)
    assert counts == {False: statements, True: statements - (2 if name == "duffing" else 3)}


# -- L's value on stacks ----------------------------------------------------

# an inline expression-language L with every elementary function, a real
# power and a division
INLINE_L = ("0.5*v1^2 + 0.25*exp(-q1)*v2^2 - sin(q2)*q1^3 + s*cos(t)"
            " - q1/(2 + q2^2) + sqrt(1 + v1^2) + ln(2 + q2^2)^1.5")


def _value_stacks(rng, count=40):
    """(L, a stack of its points) for every preset and the inline L."""
    for name in PRESET_NAMES:
        pre = preset_by_name(name)
        yield pre.system, np.array([_domain_point(pre, rng) for _ in range(count)])
    L = LagrangianSystem.from_expr(dsl.parse(INLINE_L, 2))
    yield L, rng.uniform(-1.5, 1.5, (count, L.space.dim))


def _point_values(L, X) -> np.ndarray:
    return np.array([L.value(x) for x in X])


def test_a_stacked_value_is_its_points_bit_for_bit():
    for L, X in _value_stacks(np.random.default_rng(11)):
        got = L.value(X)
        assert got.shape == (len(X),)
        assert np.array_equal(got.view(np.int64), _point_values(L, X).view(np.int64)), L.label
        assert L._tapes["value"][1] is not None


def test_a_refused_fn_values_a_stack_point_by_point(monkeypatch):
    L = LagrangianSystem(1, _frozen_stiffness)
    X = np.random.default_rng(2).uniform(-1.0, 1.0, (6, 4))
    calls = _counting_records(monkeypatch)
    for _ in range(2):
        assert np.array_equal(L.value(X), _point_values(L, X))
    assert len(calls) == 1 and L._tapes["value"][1] is None


def test_a_stacked_value_with_a_float_exception_runs_point_by_point():
    # 0.5*v*v overflows in the last point: numpy raises on the batch, the
    # points run one at a time and give inf, as a point call does
    L = preset_by_name("duffing").system
    X = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 1.0, 1e200, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = L.value(X)
    assert np.array_equal(got, _point_values(L, X)) and got[1] == math.inf
    # a division by a zero coordinate raises, on the stack, what the
    # expression language raises at that point
    L = LagrangianSystem.from_expr(dsl.parse("v1^2/2 - 1/q1", 1))
    X = np.array([[0.0, 0.5, 0.2, 0.0], [0.0, 0.0, 0.2, 0.0]])
    got = _stack_raises_as_the_point(L.value, X, X[1])
    assert got == (JetDomainError, "division by zero")


def test_a_parameter_change_records_the_value_tape_anew(monkeypatch):
    L = preset_by_name("duffing").system
    X = np.array([[0.3, 1.1, -0.4, 0.2], [0.1, -0.7, 0.5, 0.0]])
    calls = _counting_records(monkeypatch)
    before = L.value(X)
    L.value(X)
    assert len(calls) == 1
    L.params["beta"] = 0.0
    after = L.value(X)
    assert len(calls) == 2
    assert np.array_equal(after, _point_values(L, X))
    assert not np.array_equal(after, before)
    assert list(L._tapes) == ["value"]


# -- one compile per tape source --------------------------------------------


def _counting_compiles(monkeypatch):
    """The sources that reach builtin compile from here on, the code cache
    emptied first."""
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(jets, "compile", spy, raising=False)
    jets._code.cache_clear()
    return sources


def test_a_repeated_source_is_compiled_once_and_bound_per_tape(monkeypatch):
    sources = _counting_compiles(monkeypatch)
    # the constants differ, the operations do not: one source
    tapes = [Tape.record(lambda x, c=c: [x[0] * c + x[1]], 2) for c in (3.0, 5.0)]
    assert len(sources) == 1
    assert tapes[0]._point.__code__ is tapes[1]._point.__code__
    assert tapes[0]([2.0, 1.0]) == [7.0] and tapes[1]([2.0, 1.0]) == [11.0]


def test_two_charged_ladders_share_one_code_object(monkeypatch):
    sources = _counting_compiles(monkeypatch)
    held = []
    for k in (2e-4, 5e-4):
        pre = charged_particle(k=k)
        L = pre.system
        ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
        reads = _ladder_reads(L, ladder)
        w = pre.sample_feasible(np.random.default_rng(4))
        assert np.array_equal(reads(w), live_reads(L, w, ladder))
        held.append((reads.tape, reads(w)))
    (a, raw_a), (b, raw_b) = held
    assert a._point.__code__ is b._point.__code__
    assert not np.array_equal(raw_a, raw_b)
    # the ladder's source reached compile once, for the first ladder
    assert len(sources) == len(set(sources))


def test_the_code_cache_stays_within_its_bound(monkeypatch):
    sources = _counting_compiles(monkeypatch)
    size = jets._code.cache_info().maxsize
    # sources of 1 to size + 5 additions, all different
    builds = [lambda x, m=m: [sum([x[0]] * m, x[1])] for m in range(1, size + 6)]
    for build in builds:
        assert Tape.record(build, 2)([1.0, 0.5]) == [len(sources) + 0.5]
    assert len(sources) == size + 5
    assert jets._code.cache_info().currsize == size
    # the oldest source left the cache: it is compiled again, the newest not
    Tape.record(builds[-1], 2)
    assert len(sources) == size + 5
    Tape.record(builds[0], 2)
    assert len(sources) == size + 6


# -- the tape itself -------------------------------------------------------


def test_tape_replays_the_recorded_operations():
    def build(x):
        u, v = x
        return [u * v + u, (u - 2.0) / v, -u, u * 1.0, v ** -3, 1.5]

    tape = Tape.record(build, 2)
    points = ((0.3, -0.7), (2.0, 5.0))
    for u, v in points:
        # a list, not a tuple: CPython 3.11 keeps every freed 20-item tuple
        # on a free list it never takes one back from
        assert tape([u, v]) == build([u, v])
    # and as one batch, the constant output broadcast
    batch = tape(np.array(points).T)
    assert [tuple(c.tolist()) for c in batch] == list(zip(*(build(list(p)) for p in points)))


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
