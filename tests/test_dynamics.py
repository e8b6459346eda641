"""Integration and residual-channel tests.

Oracles: closed-form motions (free particle, harmonic oscillator), an
independently coded RK4 on the textbook Duffing ODE, and the generic
momentum-side evolution equations applied to the induced Hamiltonian.
"""

import json
import math
import warnings

import numpy as np
import pytest

import cocontact.dynamics
from cocontact.mechanics import LagrangianSystem
from cocontact import dsl
from cocontact.pontryagin import (
    AlgorithmOptions,
    InfeasiblePoint,
    NumericalBreakdown,
    _ClosedReads,
    assemble_Z,
    constraint_values,
    hamiltonian_part,
    lagrangian_part,
    project_onto,
    run_constraint_algorithm,
)
from cocontact.dynamics import (
    EquivalenceReport,
    IntegratorConfig,
    LadderLost,
    NonInvertibleLegendre,
    StepFailure,
    Trajectory,
    _fd_weights,
    cross_check_equivalence,
    hamiltonian_field,
    integrate,
    lagrangian_field,
    legendre_invert,
    residual_channels,
    residual_report,
    trajectory_to_csv,
    trajectory_to_json,
    unified_field,
)
from cocontact.systems import PRESET_NAMES, preset_by_name
import field_reference
from hamiltonian_reference import cocontact_hamiltonian_field, hamiltonian_from_lagrangian

OPTS = AlgorithmOptions()


def closed_ladder(L, w0):
    ladder, Z = run_constraint_algorithm(L, w0, OPTS)
    assert ladder.status == "Closed"
    return ladder


# -- config validation --------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1e-9)
    cfg = IntegratorConfig()
    assert cfg.method == "rk4" and cfg.step == 1e-3 and not cfg.reproject


@pytest.mark.parametrize("field, value", [
    ("t_end", math.inf), ("t_end", -math.inf), ("t_end", math.nan),
    ("step", math.inf), ("step", math.nan),
    ("abs_tol", math.inf), ("abs_tol", math.nan),
    ("rel_tol", math.inf), ("rel_tol", math.nan),
])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match="finite"):
        IntegratorConfig(**{field: value})


@pytest.mark.parametrize("value", ["no", "yes", 0, 1, None])
def test_config_rejects_non_boolean_reproject(value):
    # "no" is truthy and would turn reprojection on
    with pytest.raises(ValueError, match="reproject must be true or false"):
        IntegratorConfig(reproject=value)
    assert IntegratorConfig(reproject=True).reproject is True


# -- closed-form motions ------------------------------------------------


def test_free_particle_exact():
    # L = v^2/2: q(t) = q0 + v0 t, s(t) = s0 + t v0^2/2
    free = LagrangianSystem(1, lambda t, q, v, s, P: 0.5 * v[0] * v[0])
    ladder = closed_ladder(free, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_end=1.0)
    traj = integrate(unified_field(free, ladder, OPTS), ladder.probe, cfg)
    t, q, v, p, s = traj.states[-1]
    assert abs(q - 1.0) < 1e-10
    assert abs(s - 0.5) < 1e-10
    assert abs(v - 1.0) < 1e-12 and abs(p - 1.0) < 1e-12


def test_harmonic_oscillator_closed_form():
    # L = v^2/2 - alpha q^2/2 started at rest: q(t) = q0 cos(sqrt(alpha) t)
    alpha = 2.0
    q0 = 0.7
    osc = LagrangianSystem(1, lambda t, q, v, s, P: 0.5 * v[0] * v[0] - 0.5 * alpha * q[0] * q[0])
    ladder = closed_ladder(osc, np.array([0.0, q0, 0.0, 0.0, 0.0]))
    T = 1.3
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_end=T)
    traj = integrate(unified_field(osc, ladder, OPTS), ladder.probe, cfg)
    want = q0 * math.cos(math.sqrt(alpha) * T)
    assert abs(traj.states[-1][1] - want) < 1e-9


def test_duffing_velocity_run_vs_reference_ode():
    # independently coded RK4 on the textbook equation
    #   qdd + delta qd + alpha q + beta q^3 = gamma cos(omega t)
    # with the action rate sdot = L
    pre = preset_by_name("duffing")
    L = pre.system
    P = pre.params
    al, be, ga, de, om = (P[k] for k in ("alpha", "beta", "gamma", "delta", "omega"))

    def rhs(y):
        t, q, v, s = y
        lag = 0.5 * v * v - 0.5 * al * q * q - 0.25 * be * q ** 4 + ga * math.cos(om * t) * q - de * s
        return np.array([1.0, v, -al * q - be * q ** 3 + ga * math.cos(om * t) - de * v, lag])

    def step(y, h):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        return y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    ladder = closed_ladder(L, pre.initial)
    x0 = lagrangian_part(ladder.probe, 1)
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_end=2.0)
    traj = integrate(lagrangian_field(L, ladder, OPTS), x0, cfg)
    y = x0.copy()
    dev = 0.0
    for k in range(len(traj) - 1):
        y = step(y, traj.times[k + 1] - traj.times[k])
        dev = max(dev, float(np.max(np.abs(y - traj.states[k + 1]))))
    assert dev < 1e-11


# -- induced momentum-side description ----------------------------------


def test_momentum_field_matches_generic_evolution_equations():
    # the field's (tdot, qdot, pdot, sdot) must agree with the generic
    # momentum-side equations applied to the induced Hamiltonian
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    fld = hamiltonian_field(L, ladder, OPTS)
    H = hamiltonian_from_lagrangian(L)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        y = np.array([
            rng.uniform(-1, 1), rng.uniform(-1.5, 1.5),
            rng.uniform(-2, 2), rng.uniform(-1, 1),
        ])
        deriv = fld.eval(y)[0]
        ref = cocontact_hamiltonian_field(H, y)
        worst = max(worst, float(np.max(np.abs(deriv - ref))))
    assert worst < 1e-10


def test_envelope_hamiltonian_value_and_gradient():
    # H = p v - L at the recovered velocity; dH/dp = v
    pre = preset_by_name("drag")
    L = pre.system
    H = hamiltonian_from_lagrangian(L)
    y = np.array([0.4, 1.1, 0.9, 0.2])
    v, _ = legendre_invert(L, y)
    lag = np.array([y[0], y[1], v[0], y[3]])
    assert abs(H.value(y) - (y[2] * v[0] - L.value(lag))) < 1e-12
    jet = H.jet(y, 1)
    assert abs(jet.grad[2] - v[0]) < 1e-12
    lj = L.jet(lag, 1)
    assert abs(jet.grad[0] + lj.grad[0]) < 1e-12
    assert abs(jet.grad[-1] + lj.grad[-1]) < 1e-12
    with pytest.raises(ValueError):
        H.jet(y, 2)


def test_legendre_invert_recovers_velocities():
    # drag: p = m(t) v exactly, one Newton step since the map is affine
    pre = preset_by_name("drag")
    L = pre.system
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = np.array([rng.uniform(0, 2), rng.uniform(-2, 2), rng.uniform(-3, 3), rng.uniform(-1, 1)])
        p = L.jet(x, 1).grad[2:3]
        y = np.array([x[0], x[1], p[0], x[3]])
        v, _ = legendre_invert(L, y)
        assert abs(v[0] - x[2]) < 1e-10


def test_legendre_invert_rejects_singular_fibre_map():
    # L = v1 s has dL/dv = s, independent of v
    degen = LagrangianSystem(1, lambda t, q, v, s, P: v[0] * s)
    with pytest.raises(NonInvertibleLegendre):
        legendre_invert(degen, np.array([0.0, 0.0, 0.5, 1.0]))


REGULAR = ("duffing", "variable_mass_drag")


@pytest.mark.parametrize("name", REGULAR)
def test_legendre_invert_factors_nothing_in_numpy(name, monkeypatch):
    # each Newton step and the singularity test come from the momentum
    # tape's QR: no SVD, solve or lstsq runs, whatever the seed
    pre = preset_by_name(name)
    L, n = pre.system, pre.n
    rng = np.random.default_rng(5)
    W = [pre.sample_feasible(rng) for _ in range(50)]

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for fn in ("svd", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, fn, refuse)
    for w in W:
        v, _ = legendre_invert(L, hamiltonian_part(w, n), v0=w[1 + n : 1 + 2 * n] + 1e-3)
        assert np.max(np.abs(v - w[1 + n : 1 + 2 * n])) <= 1e-12 * max(1.0, np.max(np.abs(v)))


@pytest.mark.parametrize("name", REGULAR)
def test_legendre_invert_agrees_with_the_svd_newton_iteration(name):
    pre = preset_by_name(name)
    L, n = pre.system, pre.n
    rng = np.random.default_rng(6)
    for _ in range(200):
        y = hamiltonian_part(pre.sample_feasible(rng), n)
        v, _ = legendre_invert(L, y)
        ref, _ = field_reference.legendre_invert(L, y)
        assert np.max(np.abs(v - ref)) <= 1e-14 * np.max(np.abs(ref))


def _coupled(q1):
    # d2L/dv dv = [[1, q1], [q1, 1]] loses rank at q1 = 1, where the
    # second pivot margin, (1 - q1^2) / (1 + q1^2), is 0: the boundary
    # tests/test_pontryagin.py pins for the field
    L = LagrangianSystem.from_expr(dsl.parse("0.5*v1^2 + 0.5*v2^2 + q1*v1*v2", 2))
    v = np.array([0.5, 0.2])
    return L, np.array([0.0, q1, 0.0, v[0] + q1 * v[1], v[1] + q1 * v[0], 0.0]), v


def test_legendre_invert_tests_the_pivot_margin_the_field_tests():
    L, y, v = _coupled(1.0 - 1e-6)
    got, _ = legendre_invert(L, y)
    assert np.max(np.abs(got - v)) <= 1e-8
    L, y, _ = _coupled(1.0)
    with pytest.raises(NonInvertibleLegendre, match=r"velocity Hessian pivot margin 0\.000e\+00 "
                                                    r"at or below rank_tol 1\.0e-09"):
        legendre_invert(L, y)


def test_a_uniformly_small_velocity_hessian_is_inverted():
    # d2L/dv dv = 1e-13 is regular: the margin test is scale-free, where
    # an absolute floor on the smallest singular value refused it
    L = LagrangianSystem(1, lambda t, q, v, s, P: 0.5e-13 * v[0] * v[0])
    v, _ = legendre_invert(L, np.array([0.0, 0.0, 1e-11, 0.0]))
    assert abs(v[0] - 100.0) <= 1e-12


def test_legendre_invert_converges_relative_to_the_momenta():
    # at |p| = 1e6, p - dL/dv rounds at about 1e-10, which an absolute
    # test at 1e-12 never passed in 60 iterations; the test is relative to
    # max(1, |p|).  dL/dv = m(t) v - 2 gamma s, m(t) = (1 + exp(-t)) / 2
    L = preset_by_name("variable_mass_drag").system
    y = np.array([0.3, 0.7, 1e6, 0.1])
    v, raw = legendre_invert(L, y)
    assert abs(raw[0]) <= 1e-12 * 1e6
    want = (y[2] + 2.0 * L.params["gamma"] * y[3]) / (0.5 * (1.0 + math.exp(-y[0])))
    assert abs(v[0] - want) <= 1e-15 * want


@pytest.mark.parametrize("v0", [np.zeros(2), np.zeros(0), np.zeros((1, 1))])
def test_legendre_invert_refuses_a_wrong_shape_seed_before_any_replay(v0, monkeypatch):
    L = preset_by_name("drag").system
    replays = []
    _counting_replays(monkeypatch, replays)
    with pytest.raises(ValueError, match=r"velocity seed v0 of length 1, got shape"):
        legendre_invert(L, np.array([0.4, 1.1, 0.9, 0.2]), v0=v0)
    assert replays == []


def test_momentum_description_unavailable_for_singular_system():
    pre = preset_by_name("charged")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    y0 = hamiltonian_part(ladder.probe, 4)
    with pytest.raises(NonInvertibleLegendre):
        hamiltonian_field(L, ladder, OPTS).prepare(y0)


# -- trajectory structure ----------------------------------------------


def test_fixed_step_times_are_exact():
    free = LagrangianSystem(1, lambda t, q, v, s, P: 0.5 * v[0] * v[0])
    ladder = closed_ladder(free, np.array([0.0, 0.0, 1.0, 0.0, 0.0]))
    h = 1.0 / 1024.0
    cfg = IntegratorConfig(method="rk4", step=h, t_end=1.0)
    traj = integrate(unified_field(free, ladder, OPTS), ladder.probe, cfg)
    assert len(traj) == 1025
    for k in range(len(traj)):
        assert traj.times[k] == k * h  # bit-exact
    # a decimal step still lands every full step on t0 + k h exactly
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_end=0.25)
    traj = integrate(unified_field(free, ladder, OPTS), ladder.probe, cfg)
    for k in range(len(traj) - 1):
        assert traj.times[k] == k * 1e-3
    assert abs(traj.times[-1] - 0.25) < 1e-12


def test_trajectory_shape_and_samples():
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.1)
    traj = integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)
    assert traj.kind == "unified"
    assert traj.n == 1
    assert np.array_equal(traj.states[0], ladder.probe)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.states.shape == (len(traj), 5)
    assert traj.lifted.shape == (len(traj), 5)
    assert traj.coeffs.shape == (len(traj), 5)
    assert traj.lifted[3][0] == traj.times[3]
    assert traj.coeffs[3][0] == 1.0
    np.testing.assert_allclose(traj.coeffs[3][1:2], traj.lifted[3][2:3], atol=1e-14)
    for name in ("holonomy", "sdot", "herglotz", "constraint"):
        assert traj.residuals[name].shape == (len(traj),)
        assert traj.channel_max(name) >= 0.0
    with pytest.raises(ValueError):
        Trajectory("unified", 1, np.array([0.0, 0.0]), traj.states[:2],
                   traj.lifted[:2], traj.coeffs[:2], traj.residuals)


def test_projection_helpers_drop_the_right_block():
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    Z = assemble_Z(L, ladder.probe, ladder, OPTS)
    lag = lagrangian_part(Z.coeffs, L.n)
    ham = hamiltonian_part(Z.coeffs, L.n)
    np.testing.assert_array_equal(lag, np.concatenate(([Z.A], Z.B, Z.C, [Z.E])))
    np.testing.assert_array_equal(ham, np.concatenate(([Z.A], Z.B, Z.D, [Z.E])))


# the momentum description does not exist for the singular charged particle
DESCRIPTIONS = [
    (name, make)
    for name in PRESET_NAMES
    for make in (unified_field, lagrangian_field, hamiltonian_field)
    if (name, make) != ("charged_particle", hamiltonian_field)
]


@pytest.mark.parametrize("name, make", DESCRIPTIONS)
def test_description_field_is_drop_of_unified_field(name, make):
    # at a point w of the constraint set, each description's field at
    # drop(w) is the drop of the unified field at w
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    w = ladder.probe
    fld = make(L, ladder, OPTS)
    got = fld(fld.drop(w))
    want = fld.drop(unified_field(L, ladder, OPTS)(w))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


# -- one evaluation per accepted state ----------------------------------


@pytest.mark.parametrize("name, make", DESCRIPTIONS)
def test_drift_reads_the_evaluation_eval_returned(name, make, monkeypatch):
    # one evaluation per accepted state: the drift check reads the
    # constraint values of the evaluation the next step starts from, and
    # replays and expands nothing of its own
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    # a state away from the probe point, off the constraint set where the
    # description allows it
    y = make(L, ladder, OPTS).drop(ladder.probe)
    y[1:] += 1e-3 * np.linspace(1.0, 2.0, len(y) - 1)
    # every description evaluates by replaying reads (the ladder's, or on
    # the momentum side the momentum constraints' at each Newton iterate)
    work = []
    _counting_replays(monkeypatch, work)
    _counting_taylor_on(monkeypatch, work)
    fld = make(L, ladder, OPTS)
    evaluation = fld.eval(y)
    assert work
    work.clear()
    drift = fld.drift(evaluation)
    assert work == [], f"drift evaluated again: {work}"
    monkeypatch.undo()
    want = constraint_values(L, evaluation[1], ladder.active())
    # the reads start with the constraint values
    np.testing.assert_allclose(evaluation[2][: len(want)], want, rtol=0, atol=1e-14)
    assert abs(drift - float(np.max(np.abs(want)))) <= 1e-14


@pytest.mark.parametrize("name, make", DESCRIPTIONS)
def test_constraint_channel_reads_the_field_evaluations(name, make):
    # integrate hands residual_channels the values its evaluations
    # returned; they equal the channel's own recomputation, one stacked
    # replay of the ladder's tape, bit for bit
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    fld = make(L, ladder, OPTS)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.05)
    traj = integrate(fld, fld.drop(ladder.probe), cfg)
    want = residual_channels(L, traj.times, traj.lifted, ladder)["constraint"]
    np.testing.assert_array_equal(traj.residuals["constraint"], want)


@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("name, make", DESCRIPTIONS)
def test_integrated_channels_match_recomputation(name, make, method):
    # the channels integrate computes from its evaluations' L data equal
    # the ones recomputed from the raw arrays, bit for bit: one stacked
    # replay of the ladder's tape, or without a ladder of the momentum
    # constraints' (L's order-2 data is the same in both)
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    fld = make(L, ladder, OPTS)
    cfg = IntegratorConfig(method=method, step=1e-2, t_end=0.065, abs_tol=1e-12, rel_tol=1e-12)
    traj = integrate(fld, fld.drop(ladder.probe), cfg)
    assert len(traj) >= 5
    for want in (residual_channels(L, traj.times, traj.lifted, ladder),
                 residual_channels(L, traj.times, traj.lifted)):
        for channel in ("holonomy", "sdot", "herglotz"):
            np.testing.assert_array_equal(traj.residuals[channel], want[channel], err_msg=channel)


def _counting_taylor_on(monkeypatch, orders, active=lambda: True):
    expand = LagrangianSystem.taylor_on

    def counting(self, space, x, order):
        if active():
            orders.append(order)
        return expand(self, space, x, order)

    monkeypatch.setattr(LagrangianSystem, "taylor_on", counting)


def _counting_replays(monkeypatch, points):
    """Record the point of every replay of a closed set of constraints'
    reads at one point: a ladder's (evaluations, projections, the velocity
    side's evaluations), and legendre_invert's momentum constraints'.  All
    replay what _ClosedReads.resolve returns, fields what it returned when
    they were made or prepared: count a field made after this."""
    resolve = _ClosedReads.resolve

    def counting_resolve(self):
        replay = resolve(self)

        def counted(x):
            points.append(np.array(x))
            return replay(x)

        return counted

    monkeypatch.setattr(_ClosedReads, "resolve", counting_resolve)


@pytest.mark.parametrize("name, make", DESCRIPTIONS)
def test_residual_pass_in_integrate_expands_nothing(name, make, monkeypatch):
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    inside = []
    orders = []
    channels = cocontact.dynamics.residual_channels

    def watched(*args, **kwargs):
        inside.append(True)
        try:
            return channels(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(cocontact.dynamics, "residual_channels", watched)
    _counting_taylor_on(monkeypatch, orders, active=lambda: bool(inside))
    fld = make(L, ladder, OPTS)
    traj = integrate(fld, fld.drop(ladder.probe), IntegratorConfig(step=1e-2, t_end=0.05))
    assert len(traj) == 6
    assert orders == []


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_velocity_eval_expands_L_once_on_the_mixed_space(name, monkeypatch):
    # the evaluation is one replay of the ladder's velocity-side tape,
    # which expands L on the mixed space and fills in the momenta from it;
    # nothing calls taylor_on
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    x = lagrangian_field(L, ladder, OPTS).drop(ladder.probe)  # records
    x[1:] += 1e-3 * np.linspace(1.0, 2.0, len(x) - 1)
    orders, points = [], []
    _counting_taylor_on(monkeypatch, orders)
    _counting_replays(monkeypatch, points)
    deriv, lifted, raw = lagrangian_field(L, ladder, OPTS).eval(x)
    monkeypatch.undo()
    assert orders == [] and len(points) == 1 and np.array_equal(points[0], x)
    # the lifted momenta are the fibre derivative at x
    p = L.jet(x, 1).grad[1 + L.n : 1 + 2 * L.n]
    np.testing.assert_array_equal(lifted[1 + 2 * L.n : 1 + 3 * L.n], p)


@pytest.mark.parametrize("reproject", [False, True])
@pytest.mark.parametrize("name, make", DESCRIPTIONS)
def test_no_velocity_side_expansion_in_integrate(name, make, reproject, monkeypatch):
    # prepare (inside integrate), reproject and every evaluation replay the
    # ladder's tapes: once a ladder has closed, a run makes no taylor_on
    # call at a single point, on any side
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    orders = []
    _counting_taylor_on(monkeypatch, orders)
    fld = make(L, ladder, OPTS)
    y0 = fld.drop(ladder.probe)
    fld.reproject(y0)
    cfg = IntegratorConfig(step=1e-2, t_end=0.03, reproject=reproject)
    integrate(fld, y0, cfg)
    assert orders == []


@pytest.mark.parametrize("kind", ["unified", "lagrangian"])
@pytest.mark.parametrize("name", ["duffing", "charged_particle"])
def test_a_reprojected_state_is_evaluated_once(name, kind, monkeypatch):
    # the evaluation at an accepted state, reprojected or not, is the next
    # step's first stage: a run evaluates the field 4 times per step plus
    # once, each accepted state once.  A reprojected run's projections
    # replay the ladder's tapes besides, and neither run calls taylor_on
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    make = cocontact.dynamics.FIELDS[kind]
    evaluated, orders, points = [], [], []
    evaluate = make.eval

    def counting(self, state):
        evaluated.append(np.asarray(state, dtype=float).tobytes())
        return evaluate(self, state)

    monkeypatch.setattr(make, "eval", counting)
    _counting_taylor_on(monkeypatch, orders)
    _counting_replays(monkeypatch, points)
    replays = {}
    for reproject in (True, False):
        evaluated.clear()
        points.clear()
        fld = make(L, ladder, OPTS)
        traj = integrate(fld, fld.drop(ladder.probe),
                         IntegratorConfig(step=1e-2, t_end=0.1, reproject=reproject))
        assert len(evaluated) == 41 and len(traj) == 11
        for state in traj.states:
            assert evaluated.count(state.tobytes()) == 1
        replays[reproject] = len(points)
    assert orders == []
    assert replays[True] > replays[False] >= 41


@pytest.mark.parametrize("name, kind", [("duffing", "unified"), ("duffing", "lagrangian"),
                                        ("duffing", "hamiltonian"),
                                        ("charged_particle", "unified"),
                                        ("charged_particle", "lagrangian")])
def test_a_state_is_read_twice_only_right_after_a_projection(name, kind, monkeypatch):
    # no replay repeats the one before it, but for the evaluation at a
    # projected state (prepare's, every reprojected step's), which reads
    # afresh where the projection's last read was of the same tape
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    calls = []
    resolve = _ClosedReads.resolve

    def counting_resolve(self):
        replay = resolve(self)

        def counted(x):
            calls.append((id(self), np.asarray(x).tobytes()))
            return replay(x)

        return counted

    monkeypatch.setattr(_ClosedReads, "resolve", counting_resolve)
    for reproject in (True, False):
        calls.clear()
        fld = cocontact.dynamics.FIELDS[kind](L, ladder, OPTS)
        integrate(fld, fld.drop(ladder.probe),
                  IntegratorConfig(step=1e-2, t_end=0.1, reproject=reproject))
        assert len(calls) >= 41
        assert sum(a == b for a, b in zip(calls, calls[1:])) <= (11 if reproject else 1)


@pytest.mark.parametrize("name, kind", [("duffing", "unified"), ("duffing", "lagrangian"),
                                        ("duffing", "hamiltonian"),
                                        ("charged_particle", "unified"),
                                        ("charged_particle", "lagrangian")])
def test_the_evaluation_at_a_projected_state_is_a_fresh_one(name, kind, monkeypatch):
    # off the charged particle's constraint set Gauss-Newton moves; on
    # Duffing it does not (p = dL/dv is the whole ladder).  Either way the
    # evaluation at the projected state reads there once (on the momentum
    # side, once per Newton iterate) and gives a fresh field's bits
    pre = preset_by_name(name)
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    make = cocontact.dynamics.FIELDS[kind]
    points = []
    _counting_replays(monkeypatch, points)
    fld = make(L, ladder, OPTS)
    n = L.n
    state = fld.drop(ladder.probe).copy()
    state[2 * n] += 1e-4  # the last velocity
    out = fld.reproject(state)
    moved = not np.array_equal(out[1 + n : 1 + 2 * n], state[1 + n : 1 + 2 * n])  # v
    assert moved == (name == "charged_particle")
    points.clear()
    got = fld.eval(out)
    assert len(points) == 1 or kind == "hamiltonian"
    fresh = make(L, ladder, OPTS).eval(out)
    for a, b in zip(got, fresh):
        assert np.array_equal(a, b)


def test_momentum_eval_expands_once_per_newton_iterate(monkeypatch):
    # every Newton iterate is one replay of the momentum constraints'
    # reads; the evaluation reads the ones the lift converged with, and
    # nothing expands L
    quartic = LagrangianSystem(
        1, lambda t, q, v, s, P: v[0] ** 4 / 12.0 + 0.5 * v[0] * v[0] - 0.5 * q[0] * q[0]
    )
    drag = preset_by_name("drag")
    y = np.array([0.2, 0.3, 1.7, 0.1])
    # p = v^3/3 + v is not affine in v: count Newton's iterates from v = 0;
    # the last expansion tests convergence.  p = m(t) v is affine: one
    # step, then the test
    v, quartic_iterates = 0.0, 1
    while abs(v ** 3 / 3 + v - y[2]) > 1e-12 * max(1.0, abs(y[2])):
        v -= (v ** 3 / 3 + v - y[2]) / (v * v + 1)
        quartic_iterates += 1
    assert quartic_iterates > 3
    cases = [
        (quartic, np.array([0.0, 0.3, 0.5, 0.0, 0.0]), quartic_iterates),
        (drag.system, drag.initial, 2),
    ]
    for L, w0, iterates in cases:
        ladder = closed_ladder(L, w0)
        hamiltonian_field(L, ladder, OPTS)  # records
        orders, points = [], []
        _counting_taylor_on(monkeypatch, orders)
        _counting_replays(monkeypatch, points)
        hamiltonian_field(L, ladder, OPTS).eval(y)
        monkeypatch.undo()
        assert len(points) == iterates and orders == []


def _fornberg_reference(z, nodes, m):
    """The classic scalar recursion on Python floats (Fornberg 1988)."""
    nnodes = len(nodes)
    c = [[0.0] * (m + 1) for _ in range(nnodes)]
    c1 = 1.0
    c4 = nodes[0] - z
    c[0][0] = 1.0
    for i in range(1, nnodes):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i][k] = c1 * (k * c[i - 1][k - 1] - c5 * c[i - 1][k]) / c2
                c[i][0] = -c1 * c5 * c[i - 1][0] / c2
            for k in range(mn, 0, -1):
                c[j][k] = (c4 * c[j][k] - k * c[j][k - 1]) / c3
            c[j][0] = c4 * c[j][0] / c3
        c1 = c2
    return np.array(c)


def test_batched_fd_weights_match_scalar_recursion():
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    adaptive = integrate(unified_field(L, ladder, OPTS), ladder.probe,
                         IntegratorConfig(method="rk45", step=1e-2, t_end=0.5))
    assert np.ptp(np.diff(adaptive.times)) > 0  # a non-uniform grid
    rng = np.random.default_rng(11)
    grids = [adaptive.times] + [np.cumsum(rng.uniform(0.1, 1.0, N)) for N in (2, 3, 4)]
    for times in grids:
        N = len(times)
        width = min(N, 5)
        windows = np.clip(np.arange(N) - 2, 0, N - width)[:, None] + np.arange(width)
        for m in (1, 2):
            got = _fd_weights(times, times[windows], m)
            assert got.shape == (N, width, m + 1)
            for k in range(N):
                want = _fornberg_reference(times[k], times[windows[k]].tolist(), m)
                assert np.array_equal(got[k], want), (N, m, k)
                assert np.array_equal(_fd_weights(times[k], times[windows[k]], m), want)


# -- residual channels --------------------------------------------------


def test_channels_flag_injected_faults():
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.3)
    traj = integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)

    # momentum bump shows up in the constraint channel at the bumped sample
    bad = traj.lifted.copy()
    bad[10, 3] += 0.1
    ch = residual_channels(L, traj.times, bad, ladder)
    assert ch["constraint"][10] > 0.09
    assert ch["constraint"][0] < 1e-6

    # velocity bump shows up in holonomy (and pollutes the whole window)
    bad = traj.lifted.copy()
    bad[10, 2] += 0.1
    ch = residual_channels(L, traj.times, bad, ladder)
    assert ch["holonomy"][10] > 0.05
    assert np.max(ch["holonomy"][:5]) < 1e-6

    # action bump shows up in the sdot channel near the bumped sample
    bad = traj.lifted.copy()
    bad[10, 4] += 0.1
    ch = residual_channels(L, traj.times, bad, ladder)
    assert np.max(ch["sdot"][8:13]) > 1.0
    assert np.max(ch["sdot"][:5]) < 1e-4


def test_channels_shrink_at_fourth_order():
    # halving the step must cut every nonvacuous channel by about 2^4
    pre = preset_by_name("drag")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    maxima = {}
    for h in (1e-2, 5e-3):
        cfg = IntegratorConfig(method="rk4", step=h, t_end=2.5)
        traj = integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)
        maxima[h] = {k: traj.channel_max(k) for k in traj.residuals}
    for name in ("holonomy", "sdot", "herglotz", "constraint"):
        ratio = maxima[1e-2][name] / maxima[5e-3][name]
        assert 10.0 < ratio < 24.0, (name, ratio)


def test_residual_report_structure():
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.2)
    traj = integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)
    rep = residual_report(L, traj)
    assert set(rep) == {"holonomy", "sdot", "herglotz", "constraint"}
    for d in rep.values():
        assert 0.0 <= d["rms"] <= d["max"] < 1e-5


# -- drift handling -----------------------------------------------------


def test_monitor_mode_raises_when_ladder_lost():
    pre = preset_by_name("drag")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    cfg = IntegratorConfig(method="rk4", step=0.25, t_end=6.0)
    with pytest.raises(LadderLost):
        integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)


def test_reprojection_keeps_the_same_coarse_run_alive():
    pre = preset_by_name("drag")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    cfg = IntegratorConfig(method="rk4", step=0.25, t_end=6.0, reproject=True)
    traj = integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)
    assert traj.channel_max("constraint") < 1e-9


# a five-generation ladder whose reprojection stalls between t = 0.6 and
# 0.7 at step 1e-2 (the velocity metric cos(q2) degenerates at q2 = pi/2)
STALLING_L = "0.5*cos(q2)*v1^2 + v2^2/2 + q3*(q1 - t)"
STALLING_START = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def test_reprojection_failure_names_its_time():
    L = LagrangianSystem.from_expr(dsl.parse(STALLING_L, 3))
    ladder = closed_ladder(L, STALLING_START)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.7, reproject=True)
    with pytest.raises(InfeasiblePoint) as exc:
        integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)
    message = str(exc.value)
    assert message.startswith("reprojection failed at t = 0.6")
    assert "projection stalled at |" in message
    # the start was projected long ago: no advice on initial points
    assert "initial point" not in message


# L is linear in v2 and v4, and dL/ds = -0.5 v3: the generation-2
# constraints rate(p2 - dL/dv2) and rate(p4 - dL/dv4) have v-rows
# -0.5 p2 and -0.5 p4 on v3, and the generation-3 constraint divides by the
# first, a frozen pivot that vanishes at p = 0 (on the constraint set
# p2 = dL/dv2 = 2)
P_PIVOT_L = "0.5*v1^2 + 2*v2 - 0.5*s*v3 + 1.5*v4 + q2*q4"
P_PIVOT_START = np.array([0.0, 0.3, 0.2, -0.1, 0.4, 0.5, 0.1, 0.2, -0.3, 0, 0, 0, 0, 0.2])


def test_a_velocity_projection_reads_nothing_before_the_momenta():
    L = LagrangianSystem.from_expr(dsl.parse(P_PIVOT_L, 4))
    ladder = closed_ladder(L, P_PIVOT_START)
    assert [len(gen) for gen in ladder.generations] == [4, 3, 1]
    x = lagrangian_part(ladder.probe, L.n)
    at_zero_p = np.concatenate((x[:-1], np.zeros(L.n), x[-1:]))
    with pytest.raises(NumericalBreakdown):
        assemble_Z(L, at_zero_p, ladder)
    # both sides start where project_onto does, from p = dL/dv
    fld = lagrangian_field(L, ladder, OPTS)
    want = project_onto(L, at_zero_p, ladder.active(), OPTS)
    assert np.array_equal(fld.reproject(x), lagrangian_part(want, L.n))
    assert np.array_equal(unified_field(L, ladder, OPTS).reproject(at_zero_p), want)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.05, reproject=True)
    traj = integrate(fld, x, cfg)
    assert len(traj) == 6 and traj.channel_max("constraint") < 1e-9


def test_adaptive_step_failure_at_finite_time_blowup():
    # qdd = 2 q^3 from q = v = 1 follows q(t) = 1/(1 - t); no step size
    # survives the t -> 1 singularity
    blow = LagrangianSystem(1, lambda t, q, v, s, P: 0.5 * v[0] * v[0] + 0.5 * q[0] ** 4)
    ladder = closed_ladder(blow, np.array([0.0, 1.0, 1.0, 0.0, 0.0]))
    cfg = IntegratorConfig(method="rk45", step=1e-2, t_end=1.5,
                           abs_tol=1e-6, rel_tol=1e-6, reproject=True)
    with pytest.raises(StepFailure):
        integrate(unified_field(blow, ladder, OPTS), ladder.probe, cfg)


def test_adaptive_run_matches_fixed_step():
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    fixed = integrate(unified_field(L, ladder, OPTS), ladder.probe,
                      IntegratorConfig(method="rk4", step=1e-3, t_end=2.0))
    adaptive = integrate(unified_field(L, ladder, OPTS), ladder.probe,
                         IntegratorConfig(method="rk45", step=1e-2, t_end=2.0,
                                          abs_tol=1e-10, rel_tol=1e-10))
    assert len(adaptive) < len(fixed)
    assert abs(adaptive.times[-1] - 2.0) < 1e-12
    assert np.max(np.abs(adaptive.states[-1] - fixed.states[-1])) < 1e-7


# -- cross-description equivalence --------------------------------------


def test_cross_check_requires_fixed_step():
    pre = preset_by_name("duffing")
    with pytest.raises(ValueError):
        cross_check_equivalence(pre.system, pre.initial,
                                IntegratorConfig(method="rk45"))


def test_cross_check_exponential_mass_drag():
    # m(t) = m0 exp(-r t): all three descriptions agree on one grid
    pre = preset_by_name("drag", {"m_expr": "0.8*exp(-0.25*t)"})
    L = pre.system
    cfg = IntegratorConfig(method="rk4", step=1e-3, t_end=1.0)
    eq = cross_check_equivalence(L, pre.initial, cfg)
    assert isinstance(eq, EquivalenceReport)
    assert eq.dev_lagrangian < 1e-10
    assert eq.dev_hamiltonian < 1e-10
    assert eq.dev_legendre < 1e-10
    assert eq.max_deviation == max(eq.as_dict().values())
    assert len(eq.unified) == len(eq.lagrangian) == len(eq.hamiltonian)


def test_cross_check_singular_fibre_map_compares_two_descriptions():
    # the charged particle has no momentum description: the report carries
    # the mixed-vs-velocity deviation alone
    pre = preset_by_name("charged")
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.05)
    eq = cross_check_equivalence(pre.system, pre.initial, cfg)
    assert eq.hamiltonian is None
    assert eq.dev_hamiltonian is None and eq.dev_legendre is None
    assert eq.max_deviation == eq.dev_lagrangian < 1e-10
    assert len(eq.unified) == len(eq.lagrangian) == 6


# -- export -------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.2)
    traj = integrate(unified_field(L, ladder, OPTS), ladder.probe, cfg)
    path = tmp_path / "run.csv"
    trajectory_to_csv(traj, path)
    text = path.read_text().strip().split("\n")
    assert text[0] == "t,q1,v1,p1,s,res_holonomy,res_sdot,res_herglotz,res_constraint"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(traj), 9)
    # %.17g round-trips doubles bit-exactly
    np.testing.assert_array_equal(data[:, 0], traj.times)
    np.testing.assert_array_equal(data[:, 1:5], traj.lifted[:, 1:])
    np.testing.assert_array_equal(data[:, 5], traj.residuals["holonomy"])
    np.testing.assert_array_equal(data[:, 8], traj.residuals["constraint"])


def test_json_export(tmp_path):
    pre = preset_by_name("duffing")
    L = pre.system
    ladder = closed_ladder(L, pre.initial)
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.1)
    traj = integrate(lagrangian_field(L, ladder, OPTS), lagrangian_part(ladder.probe, 1), cfg)
    path = tmp_path / "run.json"
    doc = trajectory_to_json(traj, path)
    loaded = json.loads(path.read_text())
    assert loaded == doc
    assert doc["kind"] == "lagrangian"
    assert len(doc["times"]) == len(traj)
    assert len(doc["states"][0]) == 4
    assert len(doc["lifted"][0]) == 5
    assert set(doc["residuals"]) == {"holonomy", "sdot", "herglotz", "constraint"}


@pytest.mark.parametrize("bad", ["y", "v0"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_legendre_invert_refuses_a_non_finite_input_before_any_replay(bad, value, monkeypatch):
    L = preset_by_name("drag").system
    y, v0 = np.array([0.4, 1.1, 0.9, 0.2]), np.array([0.5])
    (y if bad == "y" else v0)[-1] = value
    replays = []
    _counting_replays(monkeypatch, replays)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonInvertibleLegendre, match=f"non-finite .* {bad}$"):
            legendre_invert(L, y, v0=v0)
    assert replays == []
