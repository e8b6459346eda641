"""Jets: exactness on polynomials, finite-difference cross checks, domains."""

import math

import numpy as np
import pytest

from cocontact.jets import (
    CoordinateSpace,
    DimensionMismatch,
    Jet,
    JetDomainError,
    ScalarField,
    Taylor,
    cos,
    eval_jet,
    exp,
    ln,
    powf,
    sin,
    sqrt,
)


def test_square_at_three():
    j = eval_jet(lambda X: X[0] ** 2, [3.0], 2)
    assert j.value == 9.0
    assert j.grad[0] == 6.0
    assert j.hess[0, 0] == 2.0


def test_velocity_times_cosine():
    # f(t, v) = v cos t at (0, 2)
    j = eval_jet(lambda X: X[1] * cos(X[0]), [0.0, 2.0], 2)
    assert j.value == 2.0
    assert j.grad[0] == 0.0  # -v sin t
    assert j.grad[1] == 1.0  # cos t
    assert j.hess[0, 0] == -2.0
    assert j.hess[0, 1] == 0.0


def _poly(X):
    x, y, z = X
    return 2 * x**3 * y - 3 * x * z + 5 * y**2 * z**2 - 7


def _poly_oracle(x, y, z):
    grad = np.array([6 * x**2 * y - 3 * z, 2 * x**3 + 10 * y * z**2, -3 * x + 10 * y**2 * z])
    hess = np.array(
        [
            [12 * x * y, 6 * x**2, -3.0],
            [6 * x**2, 10 * z**2, 20 * y * z],
            [-3.0, 20 * y * z, 10 * y**2],
        ]
    )
    third = np.zeros((3, 3, 3))

    def put(i, j, k, val):
        from itertools import permutations

        for p in set(permutations((i, j, k))):
            third[p] = val

    put(0, 0, 0, 12 * y)
    put(0, 0, 1, 12 * x)
    put(1, 1, 2, 20 * z)
    put(1, 2, 2, 20 * y)
    return grad, hess, third


def test_polynomial_exactness():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x, y, z = rng.uniform(-2, 2, size=3)
        j = eval_jet(_poly, [x, y, z], 3)
        grad, hess, third = _poly_oracle(x, y, z)
        assert abs(j.value - (2 * x**3 * y - 3 * x * z + 5 * y**2 * z**2 - 7)) <= 1e-12
        assert np.max(np.abs(j.grad - grad)) <= 1e-12
        assert np.max(np.abs(j.hess - hess)) <= 1e-12
        assert np.max(np.abs(j.third - third)) <= 1e-12


def _transcendental(X):
    x, y, z = X
    return (
        sin(x * y)
        + exp(0.3 * z) * cos(x)
        + sqrt(2 + y**2)
        + ln(2 + sin(z))
        + (x**2 * y - z**3) / (3 + x**2)
        + powf(2 + y**2, 0.7)
    )


def test_finite_difference_cross_check():
    # order 1 vs values (step 1e-5, tol 1e-6), order 2 vs analytic gradients
    # (step 1e-4, tol 1e-5), order 3 vs analytic Hessians (step 1e-3, tol 1e-4)
    rng = np.random.default_rng(42)
    dim = 3
    for _ in range(100):
        x = rng.uniform(-1.5, 1.5, size=dim)
        j1 = eval_jet(_transcendental, x, 1)
        j2 = eval_jet(_transcendental, x, 2)
        j3 = eval_jet(_transcendental, x, 3)

        h = 1e-5
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd = (
                eval_jet(_transcendental, x + e, 1).value
                - eval_jet(_transcendental, x - e, 1).value
            ) / (2 * h)
            assert abs(j1.grad[i] - fd) <= 1e-6 * (1 + abs(fd))

        h = 1e-4
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd = (eval_jet(_transcendental, x + e, 1).grad - eval_jet(_transcendental, x - e, 1).grad) / (2 * h)
            assert np.max(np.abs(j2.hess[i] - fd)) <= 1e-5 * (1 + np.max(np.abs(fd)))

        h = 1e-3
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            fd = (eval_jet(_transcendental, x + e, 2).hess - eval_jet(_transcendental, x - e, 2).hess) / (2 * h)
            assert np.max(np.abs(j3.third[i] - fd)) <= 1e-4 * (1 + np.max(np.abs(fd)))


def test_symmetry_is_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-1.2, 1.2, size=3)
        j = eval_jet(_transcendental, x, 3)
        assert np.array_equal(j.hess, j.hess.T)
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
            assert np.array_equal(j.third, np.transpose(j.third, perm))


def test_function_identities():
    rng = np.random.default_rng(11)
    for _ in range(20):
        (x,) = rng.uniform(0.2, 2.0, size=1)
        j = eval_jet(lambda X: sin(X[0]) ** 2 + cos(X[0]) ** 2, [x], 3)
        assert abs(j.value - 1.0) <= 1e-14
        assert abs(j.grad[0]) <= 1e-14
        assert abs(j.hess[0, 0]) <= 1e-13
        j = eval_jet(lambda X: exp(ln(X[0])) - X[0], [x], 3)
        assert abs(j.value) <= 1e-14
        assert abs(j.grad[0]) <= 1e-13
        j = eval_jet(lambda X: sqrt(X[0]) ** 2 - X[0], [x], 3)
        assert abs(j.value) <= 1e-14
        assert abs(j.grad[0]) <= 1e-13
        # x^e via exp/ln against direct powers
        j = eval_jet(lambda X: powf(X[0], 2.5) - X[0] ** 2 * sqrt(X[0]), [x], 2)
        assert abs(j.value) <= 1e-13
        assert abs(j.grad[0]) <= 1e-12


def test_domain_errors():
    with pytest.raises(JetDomainError):
        eval_jet(lambda X: ln(X[0]), [-1.0], 1)
    with pytest.raises(JetDomainError):
        eval_jet(lambda X: sqrt(X[0]), [-0.5], 1)
    with pytest.raises(JetDomainError):
        eval_jet(lambda X: 1.0 / X[0], [0.0], 1)
    with pytest.raises(JetDomainError):
        eval_jet(lambda X: powf(X[0], 0.5), [-2.0], 1)


def test_eval_jet_validation():
    with pytest.raises(ValueError):
        eval_jet(lambda X: X[0], [1.0], 4)
    with pytest.raises(ValueError):
        eval_jet(lambda X: X[0], [1.0], 0)
    with pytest.raises(ValueError):
        eval_jet(lambda X: X[0], [float("nan")], 1)


def test_jet_arrays_read_only():
    j = eval_jet(_poly, [1.0, 2.0, 3.0], 3)
    for arr in (j.grad, j.hess, j.third):
        with pytest.raises(ValueError):
            arr[0] = 0.0  # type: ignore[index]


def test_order_one_has_no_hessian():
    j = eval_jet(_poly, [1.0, 1.0, 1.0], 1)
    assert j.hess is None and j.third is None
    j = eval_jet(_poly, [1.0, 1.0, 1.0], 2)
    assert j.hess is not None and j.third is None


def test_internal_high_order_coefficients():
    # order-6 coefficient of sin: -sin(x0)/6!
    t = sin(Taylor.variable(6, 0, 0.5))
    assert abs(t.terms[6] - (-math.sin(0.5) / 720)) <= 1e-15
    # separable product: coeff of x^3 y^2 in exp(x) sin(y)
    x = Taylor.variable(6, 0, 0.4)
    y = Taylor.variable(6, 1, 0.9)
    t = exp(x) * sin(y)
    expect = (math.exp(0.4) / 6.0) * (-math.sin(0.9) / 2.0)
    assert abs(t.terms[3 + 2 * 10] - expect) <= 1e-15


def test_partial_and_truncation():
    x = Taylor.variable(3, 0, 1.5)
    y = Taylor.variable(3, 1, 2.0)
    p = (x**2 * y).partial(0)  # 2xy at order 2
    assert p.value == 6.0
    assert np.array_equal(p.gradient(2), [4.0, 3.0])
    t = (x + y) ** 3
    low = t.truncated(1)
    assert low.order == 1
    assert abs(low.value - 3.5**3) <= 1e-12
    with pytest.raises(ValueError):
        low.truncated(3)


def test_reciprocal_series():
    # 1/(2+x): k-th Taylor coefficient is (-1)^k / 2^(k+1)
    x = Taylor.variable(5, 0, 0.0)
    r = 1.0 / (2.0 + x)
    for k in range(6):
        assert abs(r.terms.get(k, 0.0) - (-1.0) ** k / 2.0 ** (k + 1)) <= 1e-15


def test_mixed_order_arithmetic_rejected():
    a = Taylor.variable(2, 0, 1.0)
    b = Taylor.variable(3, 0, 1.0)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_order_cap():
    with pytest.raises(ValueError):
        Taylor.variable(10, 0, 1.0)


def test_negative_integer_powers():
    j = eval_jet(lambda X: X[0] ** -2, [2.0], 2)
    assert abs(j.value - 0.25) <= 1e-15
    assert abs(j.grad[0] + 2 / 8) <= 1e-15
    assert abs(j.hess[0, 0] - 6 / 16) <= 1e-15


def test_scalar_field_wrapper():
    f = ScalarField(lambda X: X[0] * X[1] ** 2, dim=2, label="xy2")
    assert f([3.0, 2.0]) == 12.0
    j = f.jet([3.0, 2.0], 2)
    assert j.grad[0] == 4.0 and j.grad[1] == 12.0
    with pytest.raises(DimensionMismatch):
        f.jet([1.0], 1)


def test_coordinate_space_layouts():
    for n in (1, 2, 4):
        lag = CoordinateSpace.lagrangian(n)
        uni = CoordinateSpace.unified(n)
        assert lag.dim == 2 * n + 2 and uni.dim == 3 * n + 2
        for space in (lag, uni):
            assert len(set(space.names)) == space.dim
            assert space.s_index == space.dim - 1
        assert lag.names[0] == "t" and lag.names[-1] == "s"
        assert lag.names[2 * n] == f"v{n}"
        assert uni.names[1 + 2 * n] == "p1"
        assert uni.names[1 + n] == "v1"
