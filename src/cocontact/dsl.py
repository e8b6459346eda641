"""Small expression language for entering Lagrangians and Hamiltonians.

Grammar (EBNF, terminals quoted):

    expr     = term , { ( "+" | "-" ) , term } ;
    term     = factor , { ( "*" | "/" ) , factor } ;
    factor   = "-" , factor | power ;
    power    = atom , [ "^" , factor ] ;
    atom     = number | name | name , "(" , expr , ")" | "(" , expr , ")" ;
    number   = digits , [ "." , [ digits ] ] , [ exponent ]
             | "." , digits , [ exponent ] ;
    exponent = ( "e" | "E" ) , [ "+" | "-" ] , digits ;
    name     = ( letter | "_" ) , { letter | "_" | digit } ;

"^" is right-associative and binds tighter than unary minus, so -q1^2
means -(q1^2) and 2^3^2 means 2^(3^2).  A name is resolved at parse time:
"t" and "s" are the time and action coordinates, "q<k>"/"v<k>" (and
"p<k>" when momenta are admitted) refer to coordinate k in 1..n, the five
function names sin, cos, exp, ln, sqrt must be followed by a
parenthesised argument, and every other name is a free parameter bound
from a ParamTable at evaluation time.

All reported error offsets are 0-based character positions into the input
string; errors raised while parsing are always DslError, never anything
internal.  Parsing, evaluation and printing recurse once per level, so an
expression nests at most MAX_NESTING levels, in its text and its tree.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Sequence

from . import jets
from .jets import ScalarField, Taylor, jet_from_taylor

__all__ = [
    "DslError",
    "UnknownParameterError",
    "ParamTable",
    "Expr",
    "parse",
    "evaluate",
    "to_text",
    "as_field",
]

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")
MAX_NESTING = 100


class DslError(ValueError):
    """Parse or arity failure, carrying the character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


class UnknownParameterError(ValueError):
    """An expression references a parameter absent from the table."""


class ParamTable(dict):
    """Mapping of parameter names to finite real values, fixed when it is
    made: a system's constants hold for its life, so its recordings do
    too.  Lookups are a dict's; every write raises TypeError."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name, x in self.items():
            if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
                raise ValueError(f"parameter {name} must be a finite number, got {x!r}")

    def _fixed(self, *args, **kwargs):
        raise TypeError("a parameter table is fixed when its system is built")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _fixed


# -- syntax tree --------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str
    index: int


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Const | Var | Param | Neg | BinOp | Call


@dataclass(frozen=True)
class Expr:
    """A parsed expression bound to a coordinate layout.

    With allow_p the layout is (t, q1..qn, v1..vn, p1..pn, s), otherwise
    (t, q1..qn, v1..vn, s).
    """

    node: Node
    n: int
    allow_p: bool

    @property
    def dim(self) -> int:
        return (3 * self.n + 2) if self.allow_p else (2 * self.n + 2)

    @property
    def parameters(self) -> frozenset[str]:
        names: set[str] = set()

        def walk(nd: Node) -> None:
            if isinstance(nd, Param):
                names.add(nd.name)
            elif isinstance(nd, Neg):
                walk(nd.arg)
            elif isinstance(nd, BinOp):
                walk(nd.left)
                walk(nd.right)
            elif isinstance(nd, Call):
                walk(nd.arg)

        walk(self.node)
        return frozenset(names)


# -- tokenizer ----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)

_COORD_RE = re.compile(r"([qvp])([0-9]+)\Z")


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | op | end
    text: str
    start: int
    end: int


def _tokenize(text: str) -> list[_Token]:
    out: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", pos)
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append(_Token(kind, m.group(), m.start(), m.end()))
    tail = out[-1].end if out else 0
    out.append(_Token("end", "", tail, tail))
    return out


# -- parser -------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[_Token], n: int, allow_p: bool):
        self.tokens = tokens
        self.i = 0
        self.n = n
        self.allow_p = allow_p
        self.level = 0  # factors open on the parser's own stack
        self.depth = 0  # tree depth of the node a method last returned

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def _fail_here(self, message: str) -> DslError:
        tok = self.cur
        # at end of input, point just past the last real token
        return DslError(message, tok.start)

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def _node(self, tok: _Token, node: Node, *depths: int) -> Node:
        """node, built at tok over subtrees `depths` deep."""
        self.depth = 1 + max(depths)
        if self.depth > MAX_NESTING:
            raise DslError(f"expression nested deeper than {MAX_NESTING} levels", tok.start)
        return node

    def expect_op(self, op: str, what: str) -> None:
        if self.cur.kind == "op" and self.cur.text == op:
            self.advance()
            return
        raise self._fail_here(f"expected {what}")

    def parse(self) -> Node:
        node = self.expr()
        if self.cur.kind != "end":
            raise self._fail_here(f"unexpected trailing input {self.cur.text!r}")
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op, left = self.advance(), self.depth
            node = self._node(op, BinOp(op.text, node, self.term()), left, self.depth)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op, left = self.advance(), self.depth
            node = self._node(op, BinOp(op.text, node, self.factor()), left, self.depth)
        return node

    def factor(self) -> Node:
        # every nesting in the text passes here: stop before the stack runs out
        self.level += 1
        if self.level > MAX_NESTING:
            raise self._fail_here(f"expression nested deeper than {MAX_NESTING} levels")
        if self.cur.kind == "op" and self.cur.text == "-":
            tok = self.advance()
            node = self._node(tok, Neg(self.factor()), self.depth)
        else:
            node = self.power()
        self.level -= 1
        return node

    def power(self) -> Node:
        node = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
            op, left = self.advance(), self.depth
            node = self._node(op, BinOp("^", node, self.factor()), left, self.depth)
        return node

    def atom(self) -> Node:
        tok = self.cur
        self.depth = 1
        if tok.kind == "number":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            return self.resolve_name(tok)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")", "')'")
            return node
        raise self._fail_here("expected a number, name or '('")

    def resolve_name(self, tok: _Token) -> Node:
        name = tok.text
        if name in FUNCTIONS:
            if not (self.cur.kind == "op" and self.cur.text == "("):
                raise self._fail_here(f"function {name!r} needs a parenthesised argument")
            self.advance()
            arg = self.expr()
            if self.cur.kind == "op" and self.cur.text == ",":
                raise DslError(f"function {name!r} takes exactly one argument", self.cur.start)
            self.expect_op(")", "')'")
            return self._node(tok, Call(name, arg), self.depth)
        if name == "t":
            return Var("t", 0)
        if name == "s":
            return Var("s", (3 * self.n + 1) if self.allow_p else (2 * self.n + 1))
        m = _COORD_RE.fullmatch(name)
        if m is not None:
            block, num = m.group(1), int(m.group(2))
            if not 1 <= num <= self.n:
                raise DslError(f"coordinate {name!r} out of range for n={self.n}", tok.start)
            if block == "q":
                return Var(name, num)
            if block == "v":
                return Var(name, self.n + num)
            if not self.allow_p:
                raise DslError(f"momentum {name!r} not admitted here", tok.start)
            return Var(name, 2 * self.n + num)
        if self.cur.kind == "op" and self.cur.text == "(":
            raise DslError(f"unknown function {name!r}", tok.start)
        return Param(name)


def parse(text: str, n: int, allow_p: bool = False) -> Expr:
    """Parse an expression over (t, q, v[, p], s) with n degrees of freedom.

    Raises DslError with a character offset on any malformed input, and on
    nesting deeper than MAX_NESTING.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected expression text, got {text!r}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    tokens = _tokenize(text)
    if tokens[0].kind == "end":
        raise DslError("empty expression", 0)
    return Expr(_Parser(tokens, n, allow_p).parse(), n, allow_p)


# -- evaluation ---------------------------------------------------------


def _is_const_taylor(x) -> bool:
    return isinstance(x, Taylor) and all(k == 0 for k in x.terms)


def _apply_pow(base, expo):
    if isinstance(expo, Taylor):
        if _is_const_taylor(expo):
            expo = expo.value
        else:
            return jets.exp(jets.ln(base) * expo)
    if isinstance(base, Taylor):
        return base**expo
    return jets.powf(base, expo)


_FN_IMPL = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp, "ln": jets.ln, "sqrt": jets.sqrt}


def _eval_node(nd: Node, seeds: Sequence, params: dict):
    if isinstance(nd, Const):
        return nd.value
    if isinstance(nd, Var):
        return seeds[nd.index]
    if isinstance(nd, Param):
        try:
            return float(params[nd.name])
        except KeyError:
            raise UnknownParameterError(f"parameter {nd.name!r} has no value") from None
    if isinstance(nd, Neg):
        return -_eval_node(nd.arg, seeds, params)
    if isinstance(nd, Call):
        return _FN_IMPL[nd.fn](_eval_node(nd.arg, seeds, params))
    a = _eval_node(nd.left, seeds, params)
    b = _eval_node(nd.right, seeds, params)
    if nd.op == "+":
        return a + b
    if nd.op == "-":
        return a - b
    if nd.op == "*":
        return a * b
    if nd.op == "/":
        if not isinstance(b, Taylor):  # a Taylor divisor tests itself
            jets.guard(b, jets._is_zero, jets._division_by_zero)
        return a / b
    return _apply_pow(a, b)


def evaluate(e: Expr, point: Sequence[float], params: dict | None = None, order: int = 0):
    """Evaluate an expression at a point.

    order 0 returns a float; orders 1..3 return a Jet over the
    expression's coordinate layout.
    """
    params = params or {}
    if len(point) != e.dim:
        raise jets.DimensionMismatch(f"point has length {len(point)}, expected {e.dim}")
    if order == 0:
        return float(_eval_node(e.node, [float(v) for v in point], params))
    if order not in (1, 2, 3):
        raise ValueError(f"order must be 0..3, got {order}")
    out = jets.expand(lambda seeds: _eval_node(e.node, seeds, params), point, order)
    return jet_from_taylor(out, e.dim, order)


def _require_params(e: Expr, params: dict) -> None:
    """Raise UnknownParameterError unless params binds every parameter of e."""
    missing = e.parameters - set(params)
    if missing:
        raise UnknownParameterError(f"parameters with no value: {sorted(missing)}")


def as_field(e: Expr, params: dict | None = None, label: str = "") -> ScalarField:
    """Wrap an expression (with bound parameters) as a ScalarField."""
    params = dict(params or {})
    _require_params(e, params)
    return ScalarField(lambda seeds: _eval_node(e.node, seeds, params), e.dim, label)


# -- pretty printing ----------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt(nd: Node) -> tuple[str, int]:
    if isinstance(nd, Const):
        return repr(nd.value), _PREC["atom"]
    if isinstance(nd, (Var, Param)):
        return nd.name, _PREC["atom"]
    if isinstance(nd, Call):
        inner, _ = _fmt(nd.arg)
        return f"{nd.fn}({inner})", _PREC["atom"]
    if isinstance(nd, Neg):
        inner, prec = _fmt(nd.arg)
        if prec < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}", _PREC["neg"]
    lhs, lp = _fmt(nd.left)
    rhs, rp = _fmt(nd.right)
    prec = _PREC[nd.op]
    if nd.op == "^":
        # right-associative, and a '-' on either side needs parens
        if lp <= prec:
            lhs = f"({lhs})"
        if rp < prec:
            rhs = f"({rhs})"
    else:
        if lp < prec:
            lhs = f"({lhs})"
        # left-associative: a right operand of equal precedence needs parens
        # to reproduce the same tree
        if rp <= prec:
            rhs = f"({rhs})"
    return f"{lhs} {nd.op} {rhs}", prec


def to_text(e: Expr) -> str:
    """Render an expression; parsing the result reproduces the same tree."""
    return _fmt(e.node)[0]
