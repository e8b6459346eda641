"""Expression language: parsing, precedence, offsets, evaluation, fuzz."""

import math
import random

import numpy as np
import pytest

from cocontact import dsl
from cocontact.dsl import (
    DslError,
    ParamTable,
    UnknownParameterError,
    as_field,
    evaluate,
    parse,
    to_text,
)
from cocontact.jets import JetDomainError


def test_basic_evaluation():
    e = parse("q1^2 + alpha*v1", n=1)
    # layout (t, q1, v1, s)
    pt = [0.5, 3.0, 2.0, 0.1]
    assert evaluate(e, pt, {"alpha": 4.0}) == 9.0 + 8.0
    j = evaluate(e, pt, {"alpha": 4.0}, order=2)
    assert j.grad[1] == 6.0  # d/dq1
    assert j.grad[2] == 4.0  # d/dv1
    assert j.hess[1, 1] == 2.0


@pytest.mark.parametrize(
    "text,value",
    [
        ("2*3+4", 10.0),
        ("2+3*4", 14.0),
        ("2^3^2", 512.0),
        ("-2^2", -4.0),
        ("(-2)^2", 4.0),
        ("2^-2", 0.25),
        ("6/3/2", 1.0),
        ("1-2-3", -4.0),
        ("2*-3", -6.0),
        ("--4", 4.0),
        (".5e1", 5.0),
        ("2.", 2.0),
        ("1e-2", 0.01),
    ],
)
def test_precedence_and_numbers(text, value):
    e = parse(text, n=1)
    assert evaluate(e, [0.0, 0.0, 0.0, 0.0]) == value


@pytest.mark.parametrize(
    "text,offset",
    [
        ("q1 + ", 4),
        ("q1 ++ v1", 4),
        ("(q1", 3),
        ("sin", 3),
        ("sin(q1, t)", 6),
        ("q1 $ 2", 3),
        ("q1 q1", 3),
        ("", 0),
        ("   ", 0),
        ("2..", 2),
    ],
)
def test_error_offsets(text, offset):
    with pytest.raises(DslError) as err:
        parse(text, n=1)
    assert err.value.offset == offset


def test_coordinate_validation():
    with pytest.raises(DslError):
        parse("q3", n=2)
    with pytest.raises(DslError):
        parse("v0", n=2)
    with pytest.raises(DslError):
        parse("p1", n=2, allow_p=False)
    e = parse("p2", n=2, allow_p=True)
    # layout (t, q1, q2, v1, v2, p1, p2, s)
    pt = [0.0, 0, 0, 0, 0, 0, 7.0, 0]
    assert evaluate(e, pt) == 7.0
    # q17 is a coordinate reference, not a parameter
    with pytest.raises(DslError):
        parse("q17", n=2)


def test_unknown_function():
    with pytest.raises(DslError) as err:
        parse("foo(q1)", n=1)
    assert "unknown function" in err.value.message
    assert err.value.offset == 0


def test_parameters():
    e = parse("a*q1 + b", n=1)
    assert e.parameters == frozenset({"a", "b"})
    with pytest.raises(UnknownParameterError):
        evaluate(e, [0, 1.0, 0, 0], {"a": 2.0})
    assert evaluate(e, [0, 1.0, 0, 0], ParamTable(a=2.0, b=5.0)) == 7.0


def test_wrong_point_dimension():
    e = parse("q1", n=1)
    with pytest.raises(Exception):
        evaluate(e, [0.0, 1.0])


def test_against_native_jets():
    text = "0.5*m*v1^2 - k*q1^2/2 - g*s + A*cos(omega*t)*q1 + sqrt(1 + q1^2)"
    params = {"m": 1.3, "k": 0.7, "g": 0.2, "A": 1.1, "omega": 2.0}

    def native(t, q, v, s):
        return (
            0.5 * 1.3 * v**2
            - 0.7 * q**2 / 2
            - 0.2 * s
            + 1.1 * math.cos(2.0 * t) * q
            + math.sqrt(1 + q**2)
        )

    def native_grad(t, q, v, s):
        return np.array(
            [
                -1.1 * 2.0 * math.sin(2.0 * t) * q,
                -0.7 * q + 1.1 * math.cos(2.0 * t) + q / math.sqrt(1 + q**2),
                1.3 * v,
                -0.2,
            ]
        )

    e = parse(text, n=1)
    rng = np.random.default_rng(5)
    for _ in range(50):
        t, q, v, s = rng.uniform(-2, 2, size=4)
        val = evaluate(e, [t, q, v, s], params)
        ref = native(t, q, v, s)
        assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref))
        j = evaluate(e, [t, q, v, s], params, order=1)
        g = native_grad(t, q, v, s)
        assert np.max(np.abs(j.grad - g)) <= 1e-12 * max(1.0, np.max(np.abs(g)))


def test_as_field():
    e = parse("q1*v1 + c", n=1)
    f = as_field(e, {"c": 1.0}, label="test")
    assert f([0.0, 2.0, 3.0, 0.0]) == 7.0
    j = f.jet([0.0, 2.0, 3.0, 0.0], 1)
    assert j.grad[1] == 3.0
    with pytest.raises(UnknownParameterError):
        as_field(e, {})


ROUND_TRIP_CASES = [
    "q1 + v1*t - s",
    "-q1^2",
    "(q1 + v1)^2",
    "2^3^2",
    "a - (b - c)",
    "a/(b*c)",
    "sin(cos(exp(q1)))",
    "-(q1 + v1)",
    "1 - 2 - 3",
    "q1^-2",
    "sqrt(1 + v1^2)/ln(2 + q1^2)",
    "t*-3",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_round_trip(text):
    e = parse(text, n=1)
    printed = to_text(e)
    again = parse(printed, n=1)
    assert again.node == e.node
    assert to_text(again) == printed


def _random_tree(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["t", "q1", "v1", "s", "kk", "1.5", "2", "0.25"])
    kind = rng.random()
    if kind < 0.5:
        op = rng.choice("+-*/")
        return f"({_random_tree(rng, depth - 1)} {op} {_random_tree(rng, depth - 1)})"
    if kind < 0.7:
        return f"(-{_random_tree(rng, depth - 1)})"
    if kind < 0.85:
        return f"({_random_tree(rng, depth - 1)} ^ {rng.choice(['2', '3', '0.5'])})"
    fn = rng.choice(["sin", "cos", "exp", "ln", "sqrt"])
    return f"{fn}({_random_tree(rng, depth - 1)})"


def test_valid_expression_fuzz():
    rng = random.Random(42)
    pt = [0.3, 0.7, 1.1, 0.2]
    for _ in range(300):
        text = _random_tree(rng, 4)
        e = parse(text, n=1)
        again = parse(to_text(e), n=1)
        assert again.node == e.node
        try:
            v = evaluate(e, pt, {"kk": 0.8})
            j = evaluate(e, pt, {"kk": 0.8}, order=2)
            if math.isfinite(v):
                assert abs(j.value - v) <= 1e-9 * max(1.0, abs(v))
        except (JetDomainError, OverflowError):
            pass


def test_garbage_fuzz_never_crashes():
    alphabet = "q1v2p3ts+-*/^()sincoexplqrt0123456789. ,_$#"
    rng = random.Random(1234)
    ok = 0
    for _ in range(10_000):
        length = rng.randrange(0, 40)
        text = "".join(rng.choice(alphabet) for _ in range(length))
        try:
            parse(text, n=3, allow_p=rng.random() < 0.5)
            ok += 1
        except DslError:
            pass
    # sanity: the alphabet does produce some valid expressions
    assert ok > 0


@pytest.mark.parametrize("text, offset", [
    ("(" * 3000 + "q1" + ")" * 3000, dsl.MAX_NESTING),
    ("-" * 3000 + "q1", dsl.MAX_NESTING),
    ("sin(" * 3000 + "q1" + ")" * 3000, 4 * dsl.MAX_NESTING),
    ("q1" + "^q1" * 3000, 3 * dsl.MAX_NESTING),
    # a chain nests in the tree alone: the operator that makes it too deep
    ("q1" + " + q1" * 3000, 5 * dsl.MAX_NESTING - 2),
    ("q1" + "*q1" * dsl.MAX_NESTING, 3 * dsl.MAX_NESTING - 1),
])
def test_nesting_past_the_limit_is_a_dsl_error(text, offset):
    # parsing, evaluating and printing recurse once per level: past the
    # limit the text is refused, with an offset, before anything recurses
    with pytest.raises(DslError, match=f"nested deeper than {dsl.MAX_NESTING} levels") as err:
        parse(text, n=1)
    assert err.value.offset == offset


def test_nesting_at_the_limit_parses_evaluates_and_prints():
    point = [0.1, 0.5, 0.2, 0.0]
    for text in ("(" * (dsl.MAX_NESTING - 1) + "q1" + ")" * (dsl.MAX_NESTING - 1),
                 "q1" + "*q1" * (dsl.MAX_NESTING - 1), "-" * (dsl.MAX_NESTING - 1) + "q1"):
        e = parse(text, n=1)
        assert parse(to_text(e), n=1).node == e.node
        assert evaluate(e, point, order=2).value == evaluate(e, point)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "2", True, None, [1.0]])
def test_a_parameter_value_must_be_a_finite_number(value):
    with pytest.raises(ValueError) as err:
        ParamTable({"b": 2, "a": value})
    assert str(err.value) == f"parameter a must be a finite number, got {value!r}"
    assert ParamTable(a=1e300, b=-3) == {"a": 1e300, "b": -3}
