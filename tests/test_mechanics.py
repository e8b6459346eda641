"""Mechanics layer: energy, fibre derivative, regularity, evolution fields."""

import math

import numpy as np
import pytest

from cocontact import dsl
from cocontact.jets import CoordinateSpace, cos, exp
from cocontact.mechanics import LagrangianSystem, herglotz_defect, herglotz_residual, read_order2
from hamiltonian_reference import HamiltonianSystem, cocontact_hamiltonian_field
from lagrangian_reference import lagrangian_energy, legendre_map, order2_reference, regularity

ALPHA, BETA, GAMMA, DELTA, OMEGA = 1.0, 5.0, 8.0, 0.02, 0.5


def _duffing_fn(t, q, v, s, par):
    x = q[0]
    return (
        0.5 * v[0] * v[0]
        - 0.5 * par["alpha"] * x * x
        - 0.25 * par["beta"] * x**4
        - par["delta"] * s
        + par["gamma"] * x * cos(par["omega"] * t)
    )


def _duffing():
    return LagrangianSystem(
        1,
        _duffing_fn,
        {"alpha": ALPHA, "beta": BETA, "gamma": GAMMA, "delta": DELTA, "omega": OMEGA},
        label="duffing",
    )


def test_energy_closed_form():
    L = _duffing()
    rng = np.random.default_rng(0)
    for _ in range(30):
        t, x, v, s = rng.uniform(-2, 2, size=4)
        pt = np.array([t, x, v, s])
        expect = (
            0.5 * v * v
            + 0.5 * ALPHA * x * x
            + 0.25 * BETA * x**4
            + DELTA * s
            - GAMMA * x * math.cos(OMEGA * t)
        )
        assert abs(lagrangian_energy(L, pt) - expect) <= 1e-12 * max(1.0, abs(expect))


def test_energy_quadratic_kinetic_rule():
    # L = 0.5 v^T M v + b(t,q,s).v + c(t,q,s)  ->  E_L = 0.5 v^T M v - c
    M = np.array([[2.0, 0.3], [0.3, 1.5]])

    def fn(t, q, v, s, par):
        quad = 0.5 * sum(M[i][j] * v[i] * v[j] for i in range(2) for j in range(2))
        b_dot_v = (q[0] + s) * v[0] + (t * q[1]) * v[1]
        c = q[0] * q[1] - 2.0 * s + t
        return quad + b_dot_v + c

    L = LagrangianSystem(2, fn)
    rng = np.random.default_rng(1)
    for _ in range(20):
        vec = rng.uniform(-1.5, 1.5, size=6)
        t, q, v, s = vec[0], vec[1:3], vec[3:5], vec[5]
        c = q[0] * q[1] - 2.0 * s + t
        expect = 0.5 * v @ M @ v - c
        assert abs(lagrangian_energy(L, vec) - expect) <= 1e-12 * max(1.0, abs(expect))


def test_legendre_map():
    L = _duffing()
    pt = np.array([0.3, 1.2, -0.7, 0.5])
    y = legendre_map(L, pt)  # (t, q, p, s)
    assert y.shape == (4,)
    assert y[0] == pt[0] and y[-1] == pt[-1]
    assert y[1] == pt[1]
    assert abs(y[2] - (-0.7)) <= 1e-15  # p = v for unit mass

    # with an s-dependent kinetic coupling: p = m v - 2 gamma s
    m0, g_ = 1.4, 0.3

    def fn(t, q, v, s, par):
        return 0.5 * m0 * v[0] ** 2 - 2 * g_ * v[0] * s

    L2 = LagrangianSystem(1, fn)
    y = legendre_map(L2, [0.0, 0.1, 2.0, 0.7])
    assert abs(y[2] - (m0 * 2.0 - 2 * g_ * 0.7)) <= 1e-14


def test_velocity_side_vectors_must_have_length_2n_plus_2():
    L = _duffing()
    for call in (lagrangian_energy, legendre_map, regularity):
        with pytest.raises(ValueError, match="length 4"):
            call(L, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="length 4"):
        herglotz_residual(L, np.zeros(5), [0.0], 0.0)


def test_regularity_regular():
    L = _duffing()
    rep = regularity(L, [0.0, 1.0, 0.0, 0.0])
    assert rep.verdict == "Regular"
    assert rep.rank == 1
    assert rep.nullspace.shape == (1, 0)


def test_regularity_singular_block():
    # W = [[1,1,0],[1,1,0],[0,0,1]]: rank 2, kernel along (1,-1,0)/sqrt(2)
    def fn(t, q, v, s, par):
        return 0.5 * (v[0] + v[1]) ** 2 + 0.5 * v[2] ** 2

    L = LagrangianSystem(3, fn)
    rep = regularity(L, np.zeros(8))
    assert rep.verdict == "Singular"
    assert rep.rank == 2
    assert rep.nullspace.shape == (3, 1)
    u = rep.nullspace[:, 0]
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    W = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1.0]])
    assert np.linalg.norm(W @ u) <= rep.tolerance * np.linalg.norm(W)
    assert abs(abs(u[0]) - 1 / math.sqrt(2)) <= 1e-12
    assert abs(u[2]) <= 1e-12


def test_regularity_multiplier_coordinate():
    # a coordinate entering without velocity gives a kernel direction
    def fn(t, q, v, s, par):
        return 0.5 * (v[0] ** 2 + v[1] ** 2 + v[2] ** 2) + q[3] * (q[2] - t)

    L = LagrangianSystem(4, fn)
    rep = regularity(L, np.zeros(10))
    assert rep.verdict == "Singular"
    assert rep.rank == 3
    u = rep.nullspace[:, 0]
    assert abs(abs(u[3]) - 1.0) <= 1e-12


def test_herglotz_residual_duffing():
    L = _duffing()
    rng = np.random.default_rng(2)
    for _ in range(25):
        t, x, v, s = rng.uniform(-1.5, 1.5, size=4)
        pt = np.array([t, x, v, s])
        exact_a = (
            -ALPHA * x - BETA * x**3 - DELTA * v + GAMMA * math.cos(OMEGA * t)
        )
        vec, scal = herglotz_residual(L, pt, [exact_a], sdot=L.value(pt))
        assert abs(vec[0]) <= 1e-12
        assert abs(scal) <= 1e-12
        # an acceleration offset shows up verbatim (unit mass)
        vec, _ = herglotz_residual(L, pt, [exact_a + 0.125], sdot=L.value(pt))
        assert abs(vec[0] - 0.125) <= 1e-12


def test_herglotz_residual_time_dependent_mass():
    # L = 0.5 m(t) v^2 with m(t) = 2 + sin t: residual = m a + mdot v
    def fn(t, q, v, s, par):
        from cocontact.jets import sin

        return 0.5 * (2.0 + sin(t)) * v[0] ** 2

    L = LagrangianSystem(1, fn)
    t, x, v, s = 0.4, 0.8, 1.3, 0.0
    a = -0.9
    vec, _ = herglotz_residual(L, [t, x, v, s], [a], sdot=0.0)
    expect = (2.0 + math.sin(t)) * a + math.cos(t) * v
    assert abs(vec[0] - expect) <= 1e-13


def test_read_order2_is_the_dense_jet_on_either_space():
    # the lookups on the velocity side and on the mixed space (any p: L
    # does not read it) give the dense jet's numbers bit for bit
    L = _duffing()
    rng = np.random.default_rng(6)
    mixed = CoordinateSpace.unified(1)
    for _ in range(5):
        x = rng.uniform(-1.5, 1.5, 4)
        w = np.array([x[0], x[1], x[2], rng.uniform(-1.0, 1.0), x[3]])
        jet = L.jet(x, 2)
        want = order2_reference(L, x)
        for space, point in ((L.space, x), (mixed, w)):
            data = read_order2(L.taylor_on(space, point, 2), space)
            np.testing.assert_array_equal(data[1:5], jet.grad)
            np.testing.assert_array_equal(data[5:], jet.hess[:, 2])
            np.testing.assert_array_equal(data, want)


def test_batched_herglotz_defect_is_the_pointwise_residual():
    # the batched formula over N points equals herglotz_residual at each
    L = _duffing()
    rng = np.random.default_rng(4)
    x = rng.uniform(-1.5, 1.5, size=(7, 4))
    accel = rng.uniform(-2.0, 2.0, size=(7, 1))
    sdot = rng.uniform(-2.0, 2.0, size=7)
    order2 = np.array([order2_reference(L, xk) for xk in x])
    vector, scalar = herglotz_defect(x, order2, accel, sdot)
    assert vector.shape == (7, 1) and scalar.shape == (7,)
    for k in range(7):
        vec, scal = herglotz_residual(L, x[k], accel[k], sdot[k])
        np.testing.assert_allclose(vector[k], vec, rtol=0, atol=1e-14)
        assert abs(scalar[k] - scal) <= 1e-14


def _duffing_hamiltonian():
    def fn(t, q, p, s, par):
        x = q[0]
        return (
            0.5 * p[0] * p[0]
            + 0.5 * par["alpha"] * x * x
            + 0.25 * par["beta"] * x**4
            + par["delta"] * s
            - par["gamma"] * x * cos(par["omega"] * t)
        )

    return HamiltonianSystem(
        1,
        fn,
        {"alpha": ALPHA, "beta": BETA, "gamma": GAMMA, "delta": DELTA, "omega": OMEGA},
    )


def test_cocontact_field_duffing():
    H = _duffing_hamiltonian()
    rng = np.random.default_rng(3)
    for _ in range(25):
        t, x, p, s = rng.uniform(-1.5, 1.5, size=4)
        y = np.array([t, x, p, s])
        out = cocontact_hamiltonian_field(H, y)
        assert out[0] == 1.0
        assert abs(out[1] - p) <= 1e-14
        pdot = -(ALPHA * x + BETA * x**3 - GAMMA * math.cos(OMEGA * t) + p * DELTA)
        assert abs(out[2] - pdot) <= 1e-12
        Hval = H.value(y)
        assert abs(out[3] - (p * p - Hval)) <= 1e-12


def test_sdot_sign_convention():
    # for H = p^2/2 + V: sdot = p dH/dp - H = p^2/2 - V, the Lagrangian value
    def fn(t, q, p, s, par):
        return 0.5 * p[0] ** 2 + 3.0 * q[0]

    H = HamiltonianSystem(1, fn)
    y = np.array([0.0, 2.0, 1.5, 0.0])
    out = cocontact_hamiltonian_field(H, y)
    assert abs(out[-1] - (0.5 * 1.5**2 - 6.0)) <= 1e-14


def test_dsl_system_matches_native():
    text = (
        "0.5*v1^2 - 0.5*alpha*q1^2 - 0.25*beta*q1^4 - delta*s"
        " + gamma*q1*cos(omega*t)"
    )
    e = dsl.parse(text, n=1)
    params = {"alpha": ALPHA, "beta": BETA, "gamma": GAMMA, "delta": DELTA, "omega": OMEGA}
    L_dsl = LagrangianSystem.from_expr(e, params, label="duffing-dsl")
    L_nat = _duffing()
    rng = np.random.default_rng(4)
    for _ in range(40):
        vec = rng.uniform(-2, 2, size=4)
        a = L_dsl.value(vec)
        b = L_nat.value(vec)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        ja = L_dsl.jet(vec, 2)
        jb = L_nat.jet(vec, 2)
        assert np.max(np.abs(ja.grad - jb.grad)) <= 1e-12 * max(1.0, np.max(np.abs(jb.grad)))
        assert np.max(np.abs(ja.hess - jb.hess)) <= 1e-12 * max(1.0, np.max(np.abs(jb.hess)))


def test_unified_layout_evaluation():
    # the Lagrangian must evaluate on (t, q, v, p, s) ignoring the p block
    from cocontact.jets import CoordinateSpace

    L = _duffing()
    uni = CoordinateSpace.unified(1)
    w = np.array([0.3, 1.1, -0.4, 99.0, 0.2])  # p arbitrary
    lag_vec = np.array([0.3, 1.1, -0.4, 0.2])
    tay = L.taylor_on(uni, w, 2)
    assert abs(tay.value - L.value(lag_vec)) <= 1e-14
    g = tay.gradient(uni.dim)
    jl = L.jet(lag_vec, 1)
    assert abs(g[1] - jl.grad[1]) <= 1e-14  # dL/dq
    assert abs(g[2] - jl.grad[2]) <= 1e-14  # dL/dv
    assert g[3] == 0.0  # no p dependence
    assert abs(g[4] - jl.grad[3]) <= 1e-14  # dL/ds


def test_late_bound_parameters():
    L = _duffing()
    v0 = L.value([0.0, 1.0, 0.0, 0.0])
    L.params["beta"] = 0.0
    v1 = L.value([0.0, 1.0, 0.0, 0.0])
    assert abs((v0 - v1) + 0.25 * BETA) <= 1e-14
