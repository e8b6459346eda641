"""Jets: exactness on polynomials, finite-difference cross checks, domains."""

import math

import numpy as np
import pytest

from cocontact.dsl import evaluate, parse
from cocontact.jets import (
    ORDER_CAP,
    CoordinateSpace,
    DimensionMismatch,
    Jet,
    JetDomainError,
    ScalarField,
    Taylor,
    cos,
    eval_jet,
    exp,
    jet_from_taylor,
    ln,
    powf,
    sin,
    sqrt,
)
from cocontact.systems import SOURCE_CHARGE, _default_phi, charged_particle


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


@pytest.mark.parametrize("base", [0.0, -1.0])
def test_real_power_of_nonpositive_base_names_the_power(base):
    message = "real power of nonpositive base"
    x = Taylor.variable(2, 0, base)
    for call in (lambda: x**2.5, lambda: powf(x, 2.5), lambda: powf(base, 2.5)):
        with pytest.raises(JetDomainError, match=message):
            call()
    # the expression language reaches the same two paths
    e = parse("q1^2.5", 1)
    point = [0.0, base, 0.0, 0.0]
    for order in (0, 1):
        with pytest.raises(JetDomainError, match=message):
            evaluate(e, point, order=order)


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
    p = (x**2 * y).partials(2)[0]  # 2xy at order 2
    assert p.value == 6.0
    assert np.array_equal(p.gradient(2), [4.0, 3.0])
    t = (x + y) ** 3
    low = t.truncated(1)
    assert low.order == 1
    assert abs(low.value - 3.5**3) <= 1e-12
    with pytest.raises(ValueError):
        low.truncated(3)


def test_hessian_block_matches_jet_hessian():
    x = [Taylor.variable(3, i, c) for i, c in enumerate((0.3, -1.2, 0.7, 2.0))]
    f = sin(x[0] * x[1]) + x[2] ** 2 * x[3] + exp(x[1]) * x[3] ** 2
    hess = jet_from_taylor(f, 4, 2).hess
    rows, cols = [0, 1, 3], [1, 2, 3]
    assert np.array_equal(f.hessian_block(rows, cols), hess[np.ix_(rows, cols)])
    with pytest.raises(ValueError):
        f.truncated(1).hessian_block(rows, cols)


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


# -- one pass per elementary function -------------------------------------
#
# Reference: Horner composition, w = sum_k coeffs[k] * (x - x.value)**k with
# the function's Taylor coefficients at x.value, a construction independent
# of the coefficient recurrences, in plain Python.


def _horner(x, coeffs):
    u = Taylor(x.order, {k: c for k, c in x.terms.items() if k != 0})
    acc = Taylor.constant(x.order, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * u
        if c != 0.0:
            acc = acc + c
    return acc


def _horner_derivs(x, derivs):
    return _horner(x, [derivs(k, x.value) / math.factorial(k) for k in range(x.order + 1)])


def _horner_sin(x):
    cyc = (math.sin, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))
    return _horner_derivs(x, lambda k, v: cyc[k % 4](v))


def _horner_cos(x):
    cyc = (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), math.sin)
    return _horner_derivs(x, lambda k, v: cyc[k % 4](v))


def _horner_exp(x):
    e0 = math.exp(x.value)
    return _horner(x, [e0 / math.factorial(k) for k in range(x.order + 1)])


def _horner_ln(x):
    u0 = x.value
    coeffs = [math.log(u0)]
    for k in range(1, x.order + 1):
        coeffs.append((-1.0) ** (k + 1) / (k * u0**k))
    return _horner(x, coeffs)


def _horner_sqrt(x):
    u0 = x.value
    c = math.sqrt(u0)
    coeffs = [c]
    for k in range(1, x.order + 1):
        c = c * (0.5 - (k - 1)) / (k * u0)
        coeffs.append(c)
    return _horner(x, coeffs)


def _horner_reciprocal(x):
    inv = 1.0 / x.value
    coeffs = [inv]
    for _ in range(x.order):
        coeffs.append(-coeffs[-1] * inv)
    return _horner(x, coeffs)


def _horner_power(x, a):
    return _horner_exp(_horner_ln(x) * a)


_AGAINST_HORNER = {
    "sin": (sin, _horner_sin),
    "cos": (cos, _horner_cos),
    "exp": (exp, _horner_exp),
    "ln": (ln, _horner_ln),
    "sqrt": (sqrt, _horner_sqrt),
    "reciprocal": (lambda x: 1.0 / x, _horner_reciprocal),
    "power 0.7": (lambda x: x**0.7, lambda x: _horner_power(x, 0.7)),
    "power -2.5": (lambda x: powf(x, -2.5), lambda x: _horner_power(x, -2.5)),
}


def _assert_coefficients_close(got, want, rtol=1e-13):
    scale = max(abs(c) for c in want.terms.values())
    for k in set(got.terms) | set(want.terms):
        assert abs(got.terms.get(k, 0.0) - want.terms.get(k, 0.0)) <= rtol * scale, k


def _dense_argument(order, dim, rng):
    """A polynomial with a term in every monomial up to `order`: value in
    [1, 2], the other coefficients summing to at most half of it."""
    seeds = [Taylor.variable(order, i, 0.0) for i in range(dim)]
    every = (1.0 + sum(seeds)) ** order
    terms = {k: rng.uniform(-1.0, 1.0) for k in every.terms if k != 0}
    total = sum(abs(c) for c in terms.values())
    value = rng.uniform(1.0, 2.0)
    terms = {k: 0.5 * value * c / total for k, c in terms.items()}
    terms[0] = value
    return Taylor(order, terms)


@pytest.mark.parametrize("order", range(1, ORDER_CAP + 1))
def test_recurrences_match_horner_composition(order):
    rng = np.random.default_rng(order)
    for dim in (1, 3):
        x = _dense_argument(order, dim, rng)
        for name, (fn, reference) in _AGAINST_HORNER.items():
            got = fn(x)
            assert got.order == order, name
            _assert_coefficients_close(got, reference(x))


def test_charged_potential_matches_horner_composition():
    pre = charged_particle()
    w = pre.sample_feasible(np.random.default_rng(5))
    assert len(w) == 14  # the unified space of the 4-dof charged particle
    X = [Taylor.variable(6, i, c) for i, c in enumerate(w)]
    q = X[1:4]
    r2 = q[0] * q[0] + q[1] * q[1] + q[2] * q[2]
    want = _horner_reciprocal(_horner_sqrt(r2)) * SOURCE_CHARGE
    _assert_coefficients_close(_default_phi(*q), want)


def test_elementary_functions_form_no_products(monkeypatch):
    x = _dense_argument(6, 3, np.random.default_rng(2))
    calls = []
    mul = Taylor.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Taylor, "__mul__", counting)
    monkeypatch.setattr(Taylor, "__rmul__", counting)
    for fn in (
        sin, cos, exp, ln, sqrt,
        lambda x: 1.0 / x,
        lambda x: x**-1,
        lambda x: x**-3,
        lambda x: x**2.5,
        lambda x: powf(x, 0.7),
    ):
        fn(x)
    assert calls == []
    x * x  # the counter sees products
    assert calls == [1]
