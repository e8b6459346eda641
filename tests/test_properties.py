"""Property tests: exact CSV round trips, batched stencil weights, the
Taylor engine's ring laws, function identities and partials, and the
expression language's print-parse round trip."""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from cocontact.dsl import FUNCTIONS, BinOp, Call, Const, Expr, Neg, Param, parse, to_text  # noqa: E402
from cocontact.dynamics import Trajectory, _fd_weights, trajectory_to_csv  # noqa: E402
from cocontact.jets import Taylor, cos, exp, ln, powf, sin, sqrt  # noqa: E402

CHANNELS = ("holonomy", "sdot", "herglotz", "constraint")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trajectories(draw):
    n = draw(st.integers(1, 3))
    N = draw(st.integers(1, 6))
    start = draw(st.floats(-1e6, 1e6))
    gaps = draw(hnp.arrays(float, N - 1, elements=st.floats(1e-6, 1e3)))
    times = start + np.concatenate(([0.0], np.cumsum(gaps)))
    assume(np.all(np.diff(times) > 0))
    lifted = draw(hnp.arrays(float, (N, 3 * n + 2), elements=finite))
    lifted[:, 0] = times
    residuals = {
        name: draw(hnp.arrays(float, N, elements=st.floats(0.0, allow_infinity=False)))
        for name in CHANNELS
    }
    return Trajectory("unified", n, times, lifted, lifted, lifted, residuals)


@given(trajectories())
def test_csv_rows_read_back_bit_for_bit(traj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.csv")
        trajectory_to_csv(traj, path)
        with open(path) as fh:
            lines = fh.read().splitlines()
    assert len(lines) == 1 + len(traj)
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    width = traj.lifted.shape[1]
    assert rows[:, :width].tobytes() == traj.lifted.tobytes()
    for k, name in enumerate(CHANNELS):
        assert rows[:, width + k].tobytes() == traj.residuals[name].tobytes()


@st.composite
def windows(draw):
    B = draw(st.integers(1, 8))
    start = draw(hnp.arrays(float, B, elements=st.floats(-100.0, 100.0)))
    gaps = draw(hnp.arrays(float, (B, 4), elements=st.floats(1e-3, 10.0)))
    nodes = start[:, None] + np.concatenate((np.zeros((B, 1)), np.cumsum(gaps, axis=1)), axis=1)
    at = draw(hnp.arrays(np.intp, B, elements=st.integers(0, 4)))
    return nodes[np.arange(B), at], nodes


@given(windows(), st.integers(1, 3))
def test_batched_weights_equal_scalar_ones(window, m):
    z, nodes = window
    assert np.all(np.diff(nodes, axis=1) > 0)
    batched = _fd_weights(z, nodes, m)
    for k in range(len(z)):
        assert np.array_equal(batched[k], _fd_weights(z[k], nodes[k], m))


# -- Taylor engine ------------------------------------------------------


@st.composite
def polynomials(draw, count):
    """`count` expansions of random polynomials at a random point, of one
    random order and dimension, with a term in every monomial.  Such an
    expansion is a random coefficient set, so it is drawn directly: the
    value in [1, 2], every other coefficient in [-1, 1]."""
    order = draw(st.integers(1, 9))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = [Taylor.variable(order, i, 0.0) for i in range(dim)]
    keys = list(((1.0 + sum(seeds)) ** order).terms)
    out = []
    for _ in range(count):
        terms = {k: rng.uniform(-1.0, 1.0) for k in keys}
        terms[0] = rng.uniform(1.0, 2.0)
        out.append(Taylor(order, terms))
    return out


def _magnitude(x):
    return Taylor(x.order, {k: abs(c) for k, c in x.terms.items()})


def _assert_close(got, want, scale, tol=1e-12):
    """Coefficient by coefficient, to tol * scale."""
    for k in set(got.terms) | set(want.terms):
        assert abs(got.terms.get(k, 0.0) - want.terms.get(k, 0.0)) <= tol * scale, k


def _largest(x):
    return max(abs(c) for c in x.terms.values())


@settings(max_examples=40, deadline=None)
@given(polynomials(3))
def test_taylor_ring_laws(polys):
    a, b, c = polys
    # every partial sum is bounded by the product of the magnitudes
    scale = _largest(_magnitude(a) * _magnitude(b) * _magnitude(c))
    _assert_close(a * b, b * a, scale)
    _assert_close((a * b) * c, a * (b * c), scale)
    _assert_close(a * (b + c), a * b + a * c, scale)


def _well_conditioned(x):
    """x with its value kept and its other coefficients scaled so their
    absolute sum is at most half the value."""
    rest = {k: c for k, c in x.terms.items() if k != 0}
    factor = 0.5 * x.value / sum(abs(c) for c in rest.values()) if rest else 0.0
    return x.value + Taylor(x.order, {k: factor * c for k, c in rest.items()})


@settings(max_examples=40, deadline=None)
@given(polynomials(1), st.floats(-2.5, 2.5), st.floats(-2.5, 2.5))
def test_taylor_function_identities(polys, a, b):
    x = _well_conditioned(polys[0])
    scale = max(1.0, _largest(x))
    one = Taylor.constant(x.order, 1.0)
    _assert_close(exp(ln(x)), x, scale)
    _assert_close(sqrt(x) * sqrt(x), x, scale)
    _assert_close(x * (1 / x), one, scale)
    _assert_close(sin(x) * sin(x) + cos(x) * cos(x), one, scale)
    _assert_close(x**a * x**b, x ** (a + b), max(1.0, _largest(x ** (a + b))))
    # the value of every result is the float evaluation, bit for bit
    for fn in (sin, cos, exp, ln, sqrt, lambda y: 1 / y):
        assert fn(x).value == fn(x.value)
    if not a.is_integer():  # integer powers multiply out
        assert powf(x, a).value == powf(x.value, a)


def _partial(x, index):
    """Oracle: the per-index partial derivative the engine had before
    `Taylor.partials`, one pass over the terms per coordinate."""
    s = 10**index
    out = {}
    for k, c in x.terms.items():
        e = (k // s) % 10
        if e:
            out[k - s] = c * e
    return Taylor(x.order - 1, out)


@st.composite
def sparse_polynomials(draw):
    """A polynomial of random order 1..9 with a few random monomials in up
    to 14 variables, built from seeds at 0 so every key is registered."""
    order = draw(st.integers(1, 9))
    nvars = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = [Taylor.variable(order, i, 0.0) for i in range(nvars)]
    out = Taylor.constant(order, 0.0)
    for _ in range(draw(st.integers(0, 12))):
        mono = Taylor.constant(order, rng.uniform(-1.0, 1.0))
        for i in rng.integers(0, nvars, size=rng.integers(0, order + 1)):
            mono = mono * seeds[i]
        out = out + mono
    return out


@settings(max_examples=100, deadline=None)
@given(sparse_polynomials(), st.integers(1, 14))
def test_partials_equal_per_index_partials_bit_for_bit(x, dim):
    got = x.partials(dim)
    assert len(got) == dim
    for i, p in enumerate(got):
        want = _partial(x, i)
        assert p.order == want.order == x.order - 1
        assert list(p.terms) == list(want.terms)
        values = [np.array(list(t.terms.values()), dtype=float) for t in (p, want)]
        assert values[0].tobytes() == values[1].tobytes()


# -- expression language ------------------------------------------------

PARAM_NAMES = ("a", "kk", "mass", "_g0", "e", "E2")


@st.composite
def expressions(draw):
    """A random syntax tree over n = 1..3 degrees of freedom, with or
    without momenta: non-negative finite constants (the parser never makes
    a negative one), coordinates, parameters, every operator including
    non-constant exponents, and the five functions."""
    n = draw(st.integers(1, 3))
    allow_p = draw(st.booleans())
    blocks = "qvp" if allow_p else "qv"
    coords = ["t", "s"] + [f"{b}{k}" for b in blocks for k in range(1, n + 1)]
    leaves = st.one_of(
        st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Const),
        st.sampled_from(coords).map(lambda name: parse(name, n, allow_p).node),
        st.sampled_from(PARAM_NAMES).map(Param),
    )
    tree = st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Neg),
            st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
            st.builds(Call, st.sampled_from(FUNCTIONS), kids),
        ),
        max_leaves=12,
    )
    return Expr(draw(tree), n, allow_p)


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_printed_expression_parses_to_the_same_tree(e):
    assert parse(to_text(e), e.n, e.allow_p).node == e.node
