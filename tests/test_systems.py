"""Preset regression tests.

The closed-form expected coefficients shipped with each preset are
themselves recomputed here from scratch (hand formulas for the Coulomb
derivatives, explicit mass-law derivatives), so that the presets can in
turn serve as oracles for the constraint algorithm.
"""

import dataclasses
import math

import numpy as np
import pytest

from cocontact import systems
from cocontact.checks import CheckResult, check_ladder
from cocontact.dsl import DslError, parse
from cocontact.jets import JetDomainError, eval_jet
from cocontact.systems import (
    PRESET_NAMES,
    SOURCE_CHARGE,
    NonpositiveMassError,
    charged_particle,
    duffing,
    preset_by_name,
    variable_mass_drag,
)


def unified(t, q, v, p, s):
    return np.concatenate(([t], q, v, p, [s]))


def random_unified(rng, n):
    return rng.uniform(-1.5, 1.5, 3 * n + 2)


# -- hand Coulomb derivatives (independent of the jet engine) -----------

def coulomb_grad(x):
    r = math.sqrt(x @ x)
    return -SOURCE_CHARGE * x / r**3


def coulomb_hess(x):
    r = math.sqrt(x @ x)
    return SOURCE_CHARGE * (3 * np.outer(x, x) / r**5 - np.eye(3) / r**3)


def coulomb_third(x):
    r = math.sqrt(x @ x)
    out = np.empty((3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                sym = (
                    (a == c) * x[b] + (b == c) * x[a] + (a == b) * x[c]
                ) / r**5
                out[a, b, c] = SOURCE_CHARGE * (3 * sym - 15 * x[a] * x[b] * x[c] / r**7)
    return out


def test_coulomb_formulas_match_jets():
    # validates both the hand formulas above and the Taylor layer on 1/r
    pre = charged_particle()
    rng = np.random.default_rng(11)
    phi = lambda X: SOURCE_CHARGE / math.sqrt(X @ X)  # noqa: E731
    for _ in range(25):
        x = rng.uniform(0.5, 2.5, 3) * rng.choice([-1.0, 1.0], 3)
        lag = np.concatenate(([0.0], x, [0.0], np.zeros(4), [0.0]))
        j = pre.system.jet(lag, 3)
        # dL/dq_a = -k phi_a for the potential part (lambda = 0 here)
        k = pre.params["k"]
        np.testing.assert_allclose(j.grad[1:4], -k * coulomb_grad(x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            j.hess[1:4, 1:4], -k * coulomb_hess(x), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            j.third[1:4, 1:4, 1:4], -k * coulomb_third(x), rtol=0, atol=1e-11
        )


# -- duffing ------------------------------------------------------------

def test_duffing_defaults():
    pre = duffing()
    assert pre.n == 1
    assert pre.params["alpha"] == 1.0
    assert pre.params["beta"] == 5.0
    assert pre.params["gamma"] == 8.0
    assert pre.params["delta"] == 0.02
    assert pre.params["omega"] == 0.5
    np.testing.assert_array_equal(pre.initial, [0.0, 1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_preset_and_its_lagrangian_share_one_parameter_table(name):
    pre = preset_by_name(name)
    assert pre.system.params is pre.params
    # a changed value reaches the closed forms and L alike
    key = next(iter(pre.params))
    pre.params[key] *= 1.5
    assert check_ladder(pre, points=5).passed


def test_duffing_expected_coefficients():
    pre = duffing(alpha=0.7, beta=2.0, gamma=1.5, delta=0.3, omega=2.0)
    rng = np.random.default_rng(0)
    for _ in range(30):
        w = random_unified(rng, 1)
        t, x, v, p = w[0], w[1], w[2], w[3]
        want_C = -0.7 * x - 2.0 * x**3 - 0.3 * v + 1.5 * math.cos(2.0 * t)
        want_D = -0.7 * x - 2.0 * x**3 - 0.3 * p + 1.5 * math.cos(2.0 * t)
        assert abs(pre.expected_C(w)[0] - want_C) < 1e-12
        assert abs(pre.expected_D(w)[0] - want_D) < 1e-12


def test_duffing_dsl_matches_native():
    pre = duffing()
    expr = parse(pre.dsl_text, n=1)
    field = __import__("cocontact.dsl", fromlist=["as_field"]).as_field(expr, pre.params)
    rng = np.random.default_rng(1)
    for _ in range(30):
        x = rng.uniform(-2, 2, 4)
        native = pre.system.jet(x, 2)
        via_dsl = field.jet(x, 2)
        assert abs(native.value - via_dsl.value) < 1e-12
        np.testing.assert_allclose(native.grad, via_dsl.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(native.hess, via_dsl.hess, rtol=0, atol=1e-12)


def test_duffing_feasible_sampler_sits_on_primaries():
    pre = duffing()
    rng = np.random.default_rng(2)
    for _ in range(10):
        w = pre.sample_feasible(rng)
        t, x, v, p, s = w
        lag = np.array([t, x, v, s])
        assert abs(p - pre.system.jet(lag, 1).grad[2]) < 1e-14


# -- variable-mass drag -------------------------------------------------

def test_drag_defaults_and_mass_law():
    pre = variable_mass_drag()
    assert pre.params["gamma"] == 0.2
    assert pre.params["F"] == 12.0
    assert pre.params["g"] == 9.8
    # m(0) = 1, decaying toward 1/2
    w0 = pre.sample_feasible(np.random.default_rng(3))
    assert pre.system.value(np.array([0.0, 0.0, 0.0, 0.0])) == pytest.approx(
        0.0 + 12.0 / 0.4, abs=1e-12
    )


def test_drag_gamma_zero_rejected():
    with pytest.raises(ValueError):
        variable_mass_drag(gamma=0.0)


def test_drag_nonpositive_mass_raises():
    pre = variable_mass_drag(m_expr="t - 1")
    with pytest.raises(NonpositiveMassError):
        pre.system.value(np.array([0.0, 0.0, 1.0, 0.0]))


def test_drag_expected_C_default_law():
    # independent recomputation: m = (1 + e^-t)/2, mdot = -e^-t/2
    pre = variable_mass_drag()
    rng = np.random.default_rng(4)
    for _ in range(30):
        w = np.array(
            [rng.uniform(0, 3), rng.uniform(-1, 1), rng.uniform(-3, 3), 0.0, rng.uniform(-1, 1)]
        )
        t, y, v = w[0], w[1], w[2]
        m = 0.5 * (1 + math.exp(-t))
        mdot = -0.5 * math.exp(-t)
        want = 12.0 / m - 0.2 * v * v - (mdot / m) * v - 9.8
        assert abs(pre.expected_C(w)[0] - want) < 1e-10


def test_drag_reciprocal_mass_oracle():
    # with m = 1/(1+t) and no thrust or gravity the acceleration law is
    # vdot = -gamma v^2 + v/(1+t)
    pre = variable_mass_drag(m_expr="1/(1 + t)", F=0.0, g=0.0, gamma=0.35)
    rng = np.random.default_rng(5)
    for _ in range(30):
        t = rng.uniform(0, 4)
        v = rng.uniform(-3, 3)
        w = np.array([t, 0.0, v, 0.0, 0.0])
        want = -0.35 * v * v + v / (1 + t)
        assert abs(pre.expected_C(w)[0] - want) < 1e-10


def test_drag_dsl_matches_native():
    pre = variable_mass_drag()
    expr = parse(pre.dsl_text, n=1)
    from cocontact.dsl import as_field

    field = as_field(expr, pre.params)
    rng = np.random.default_rng(6)
    for _ in range(30):
        x = np.array(
            [rng.uniform(0, 3), rng.uniform(-1, 1), rng.uniform(-3, 3), rng.uniform(-1, 1)]
        )
        native = pre.system.jet(x, 2)
        via_dsl = field.jet(x, 2)
        assert abs(native.value - via_dsl.value) < 1e-12
        np.testing.assert_allclose(native.grad, via_dsl.grad, rtol=0, atol=1e-11)
        np.testing.assert_allclose(native.hess, via_dsl.hess, rtol=0, atol=1e-11)


def test_drag_feasible_sampler():
    pre = variable_mass_drag()
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = pre.sample_feasible(rng)
        t, y, v, p, s = w
        m = 0.5 * (1 + math.exp(-t))
        assert abs(p - (m * v - 0.4 * s)) < 1e-12


# -- charged particle ---------------------------------------------------

def test_charged_defaults():
    pre = charged_particle()
    assert pre.n == 4
    assert pre.params["m"] == 1.0
    assert pre.params["k"] == 2e-4
    assert pre.params["gamma"] == 0.3
    np.testing.assert_array_equal(pre.initial[1:5], [2.0, 0.0, 0.0, 0.0])  # q
    np.testing.assert_array_equal(pre.initial[5:9], [0.0, 10.0, 0.0, 0.0])  # v
    assert len(pre.ladder_closures) == 4
    assert len(pre.ladder_labels) == 4


def test_charged_nonpositive_mass():
    with pytest.raises(NonpositiveMassError):
        charged_particle(m=-2.0)


def test_charged_guard_near_origin():
    pre = charged_particle()
    with pytest.raises(JetDomainError):
        pre.system.value(np.array([0.0, 1e-9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))


def test_charged_lagrangian_value():
    pre = charged_particle()
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        lam = rng.uniform(-1, 1)
        v = rng.uniform(-2, 2, 4)
        t, s = rng.uniform(-1, 1, 2)
        lag = np.concatenate(([t], x, [lam], v, [s]))
        r = math.sqrt(x @ x)
        want = (
            0.5 * (v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
            - 2e-4 * (SOURCE_CHARGE / r)
            + lam * (x[2] - t)
            - 0.3 * s
        )
        assert abs(pre.system.value(lag) - want) < 1e-12


def test_charged_dsl_matches_native():
    pre = charged_particle()
    expr = parse(pre.dsl_text, n=4)
    from cocontact.dsl import as_field

    field = as_field(expr, pre.params)
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = np.empty(10)
        x[0] = rng.uniform(-1, 1)
        x[1:4] = rng.uniform(0.5, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        x[4] = rng.uniform(-1, 1)
        x[5:9] = rng.uniform(-2, 2, 4)
        x[9] = rng.uniform(-1, 1)
        native = pre.system.jet(x, 2)
        via_dsl = field.jet(x, 2)
        assert abs(native.value - via_dsl.value) < 1e-12
        np.testing.assert_allclose(native.grad, via_dsl.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(native.hess, via_dsl.hess, rtol=0, atol=1e-12)


def test_charged_feasible_sampler_structure():
    pre = charged_particle()
    rng = np.random.default_rng(10)
    for _ in range(15):
        w = pre.sample_feasible(rng)
        t, q, v, p, s = w[0], w[1:5], w[5:9], w[9:13], w[13]
        assert q[2] == t  # on the moving plane
        assert v[2] == 1.0  # plane speed
        assert p[3] == 0.0
        np.testing.assert_allclose(p[:3], v[:3], rtol=0, atol=1e-15)  # m = 1
        # multiplier balances potential gradient and friction
        want_lam = 2e-4 * (-SOURCE_CHARGE * q[2] / (q[:3] @ q[:3]) ** 1.5) + 0.3
        assert abs(q[3] - want_lam) < 1e-12
        # coupled-velocity relation for v4
        H = coulomb_hess(q[:3])
        want_vlam = 2e-4 * (H[0, 2] * v[0] + H[1, 2] * v[1] + H[2, 2] * 1.0)
        assert abs(v[3] - want_vlam) < 1e-12


def test_charged_closures_vanish_at_feasible_points():
    pre = charged_particle()
    rng = np.random.default_rng(11)
    for _ in range(25):
        w = pre.sample_feasible(rng)
        for xi in pre.ladder_closures:
            assert abs(xi(w)) < 1e-12


def test_charged_closures_nonzero_away_from_ladder():
    pre = charged_particle()
    rng = np.random.default_rng(12)
    hits = 0
    for _ in range(25):
        w = random_unified(rng, 4)
        w[1] = rng.uniform(1.0, 2.0)  # keep off the guard radius
        hits += sum(abs(xi(w)) > 1e-3 for xi in pre.ladder_closures)
    assert hits > 60  # generic points violate nearly all closures


def test_charged_expected_D_independent():
    pre = charged_particle()
    rng = np.random.default_rng(13)
    for _ in range(20):
        w = random_unified(rng, 4)
        w[1] = rng.uniform(1.0, 2.0)
        t, q, v, p = w[0], w[1:5], w[5:9], w[9:13]
        want = np.empty(4)
        want[:3] = q[3] * np.array([0.0, 0.0, 1.0]) - 2e-4 * coulomb_grad(q[:3]) - 0.3 * p[:3]
        want[3] = (q[2] - t) - 0.3 * p[3]
        np.testing.assert_allclose(pre.expected_D(w), want, rtol=0, atol=1e-12)


def test_charged_expected_C_independent_at_feasible():
    pre = charged_particle()
    rng = np.random.default_rng(14)
    for _ in range(20):
        w = pre.sample_feasible(rng)
        t, q, v, p = w[0], w[1:5], w[5:9], w[9:13]
        grad = coulomb_grad(q[:3])
        hess = coulomb_hess(q[:3])
        third = coulomb_third(q[:3])
        want = np.empty(4)
        want[:3] = (-2e-4 * grad - 0.3 * p[:3]) / 1.0
        want[2] = (q[3] - 2e-4 * grad[2] - 0.3 * p[2]) / 1.0
        want[3] = 2e-4 * (v[:3] @ third[:, :, 2] @ v[:3] + hess[:, 2] @ want[:3])
        np.testing.assert_allclose(pre.expected_C(w), want, rtol=0, atol=1e-12)


def test_phi_order3_jet_holds_the_lower_order_jets():
    # the charged preset's closed forms share one order-3 jet of phi per
    # point; its lower-order entries must be the lower-order jets' bits
    phi = lambda X: systems._default_phi(*X)  # noqa: E731
    rng = np.random.default_rng(16)
    for _ in range(200):
        x = rng.uniform(1.0, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
        j1, j2, j3 = (eval_jet(phi, x, k) for k in (1, 2, 3))
        assert j1.value == j2.value == j3.value
        assert np.array_equal(j1.grad, j3.grad) and np.array_equal(j2.grad, j3.grad)
        assert np.array_equal(j2.hess, j3.hess)


@pytest.mark.parametrize("seed, worst", [(42, 6.938893903907228e-16), (7, 6.661338147750939e-16)])
def test_charged_closed_forms_share_one_phi_jet_per_point(monkeypatch, seed, worst):
    # sample_feasible expands phi once per point and the closed forms once
    # more (expected_D adds one jet of f): three jets per point, not seven;
    # the result is the one each closed form expanding phi itself gave
    calls = []
    real = systems.eval_jet
    monkeypatch.setattr(systems, "eval_jet", lambda *a: calls.append(1) or real(*a))
    got = check_ladder(charged_particle(), seed, 80)
    assert len(calls) <= 3 * 80
    assert got == CheckResult("ladder[charged_particle]", True, worst, 1e-10,
                              "5 generations, 80 feasible points")


def test_charged_phi_jet_follows_the_parameter_table():
    # a custom phi may read the table: a changed value expands afresh
    phi = "gamma*(q1^2 + q2^2 + q3^2)"
    pre = charged_particle(phi_expr=phi)
    w = pre.initial.copy()
    w[2] = 0.5
    before = pre.expected_D(w)
    pre.params["gamma"] = 0.5
    after = pre.expected_D(w)
    assert np.array_equal(after, charged_particle(phi_expr=phi, gamma=0.5).expected_D(w))
    assert not np.array_equal(after, before)


def test_charged_custom_potential_keeps_ladder():
    # harmonic potential instead of Coulomb; f stays z - t so the hand
    # ladder still applies, now built on the custom phi
    pre = charged_particle(phi_expr="0.5*(q1^2 + q2^2 + q3^2)")
    assert len(pre.ladder_closures) == 4
    rng = np.random.default_rng(15)
    for _ in range(10):
        w = pre.sample_feasible(rng)
        for xi in pre.ladder_closures:
            assert abs(xi(w)) < 1e-12
    lag = np.array([0.3, 1.0, 2.0, 0.3, 0.5, 0.1, 0.2, 1.0, 0.0, 0.25])
    want = (
        0.5 * (0.1**2 + 0.2**2 + 1.0**2)
        - 2e-4 * 0.5 * (1.0 + 4.0 + 0.09)
        + 0.5 * (0.3 - 0.3)
        - 0.3 * 0.25
    )
    assert abs(pre.system.value(lag) - want) < 1e-14


def test_charged_custom_surface_drops_hand_ladder():
    pre = charged_particle(f_expr="q3 - 2*t")
    assert pre.ladder_closures == ()
    assert pre.expected_C is None
    # D still generic: f enters D4
    w = np.zeros(14)
    w[0] = 0.5
    w[1] = 2.0
    assert abs(pre.expected_D(w)[3] - (0.0 - 2 * 0.5)) < 1e-14


def test_charged_bad_custom_expression():
    with pytest.raises(DslError):
        charged_particle(phi_expr="q1 +")


# -- registry -----------------------------------------------------------

def test_preset_names_resolve():
    for name in PRESET_NAMES:
        pre = preset_by_name(name)
        assert pre.label == name


def test_preset_initial_is_a_read_only_mixed_space_start():
    for name in PRESET_NAMES:
        pre = preset_by_name(name)
        n = pre.n
        assert pre.initial.shape == (3 * n + 2,)
        assert pre.initial.dtype == float
        np.testing.assert_array_equal(pre.initial[1 + 2 * n : 1 + 3 * n], np.zeros(n))  # p
        assert not pre.initial.flags.writeable
        with pytest.raises(ValueError):
            pre.initial[0] = 1.0
    pre = duffing()
    w = pre.initial.copy()
    w[1] = 0.5
    again = dataclasses.replace(pre, initial=w)
    assert not again.initial.flags.writeable
    w[1] = 0.7  # the preset holds its own copy
    assert again.initial[1] == 0.5
    with pytest.raises(ValueError, match="length 5"):
        dataclasses.replace(pre, initial=[0.0, 1.0, 0.0, 0.0])


def test_preset_aliases():
    assert preset_by_name("drag").label == "variable_mass_drag"
    assert preset_by_name("charged").label == "charged_particle"


def test_preset_overrides_split():
    pre = preset_by_name("duffing", {"alpha": 3.0, "delta": 0.5})
    assert pre.params["alpha"] == 3.0
    assert pre.params["delta"] == 0.5
    w = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    # C reflects overridden parameters: -3*1 - 5*1 + 8*cos 0 = 0
    assert abs(pre.expected_C(w)[0] - 0.0) < 1e-12


def test_preset_factory_kwarg_override():
    pre = preset_by_name("charged", {"gamma": 0.5, "m": 2.0})
    assert pre.params["gamma"] == 0.5
    assert pre.params["m"] == 2.0


def test_preset_unknown_name():
    with pytest.raises(KeyError):
        preset_by_name("pendulum")


def test_preset_unknown_override():
    with pytest.raises(KeyError):
        preset_by_name("duffing", {"zeta": 1.0})
