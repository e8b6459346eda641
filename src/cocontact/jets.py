"""Truncated Taylor arithmetic and jets of scalar fields.

Forward-mode propagation of derivatives through arithmetic and a fixed set
of elementary functions (sin, cos, exp, ln, sqrt, powers).  All derivatives
are exact to machine precision; nothing is finite-differenced.

The public `Jet` type exposes value/gradient/Hessian/third-order data (order
1 to 3), which covers every tangency computation the constraint algorithm
performs at a single generation.  Internally the arithmetic works at any
truncation order up to 9: differentiating constraint closures of deep
singular ladders pulls in derivatives of the Lagrangian of order
(generation + 1), so the engine cannot stop at 3.

Representation: a polynomial is a sparse dict mapping a packed exponent key
to a Taylor coefficient.  Exponents are packed in base 10 (one decimal digit
per variable), so multiplying monomials is integer addition of keys; the
total-degree filter applied before every product guarantees digits never
carry.  Global caches store the total degree and the decoded digits of
every key ever formed.  Which keys a polynomial holds depends on the
expression alone, never on the point: a coefficient that happens to be zero
keeps its key.

Elementary functions of a polynomial u are built one homogeneous degree at
a time from the classical Taylor-coefficient recurrences (Griewank and
Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13), so each costs
about one truncated product, whatever the order.

Recording: because the keys do not depend on the point, the same
expression at another point repeats the same float operations on its
coefficients.  `Tape.record` runs the engine once on placeholder
coefficients that log each operation (Griewank and Walther, ch. 6, on the
tapes of operator-overloading AD), and generates from the log one
straight-line Python function that replays it on new inputs.  The engine
tests a coefficient's value only through `guard`, which a tape records and
makes again at every replay; any other test of a recorded coefficient (a
branch, a comparison, float()) refuses the recording, and that computation
runs live instead.  A replay performs the operations of a live evaluation in
the same order, so its results are the same bits.

Batches: a tape also replays B points at once, each register a (B,)
array, so one call of the same generated code serves them all.  The
arithmetic runs on whole rows; recorded calls (math.exp and the like),
powers and guards run one element at a time with the recorded Python
callables, since numpy's own elementary functions may round otherwise.
Any exception on the batch, a floating-point one included (0/0 or an
overflow, raised by np.errstate), replays it point by point, so a batch
returns or raises exactly what its points do one at a time.  A polynomial
whose coefficients are (B,) arrays (`stack`) carries a batch through the
Taylor layer's readers; `jet_from_taylor` gives it a leading batch axis.
"""

from __future__ import annotations

import functools
import math
import operator
import types
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Jet",
    "CoordinateSpace",
    "Taylor",
    "Tape",
    "ScalarField",
    "expand",
    "eval_jet",
    "guard",
    "sin",
    "cos",
    "exp",
    "ln",
    "sqrt",
    "powf",
    "JetDomainError",
    "DimensionMismatch",
    "ORDER_CAP",
]

_BASE = 10
ORDER_CAP = _BASE - 1

# Total degree of every packed key ever created.  Shared across dimensions
# (the packing does not depend on how many variables exist, only on which
# digits are nonzero).
_DEG: dict[int, int] = {0: 0}

# The nonzero digits of every key decoded so far, as (index, exponent)
# pairs by increasing index, and the same as a flat index tuple with each
# index repeated exponent times.
_DIGITS: dict[int, tuple[tuple[int, int], ...]] = {}
_INDICES: dict[int, tuple[int, ...]] = {}

_STRIDES: list[int] = [1]


def _strides(dim: int) -> list[int]:
    while len(_STRIDES) < dim:
        _STRIDES.append(_STRIDES[-1] * _BASE)
    return _STRIDES


def _digits(key: int) -> tuple[tuple[int, int], ...]:
    out = _DIGITS.get(key)
    if out is None:
        pairs = []
        i = 0
        k = key
        while k:
            k, e = divmod(k, _BASE)
            if e:
                pairs.append((i, e))
            i += 1
        out = _DIGITS[key] = tuple(pairs)
        _INDICES[key] = tuple(i for i, e in pairs for _ in range(e))
    return out


class JetDomainError(ArithmeticError):
    """An elementary function left its domain during evaluation
    (ln or sqrt of a nonpositive value, a real power of a nonpositive
    base, division by zero)."""


class DimensionMismatch(ValueError):
    """A point, gradient, or coefficient vector has the wrong length."""


# -- value guards ---------------------------------------------------------


def guard(value, fails: Callable[[float], bool], error: Callable[[float], Exception]) -> None:
    """Raise error(value) when fails(value) holds.

    The one way for the engine, a preset or an `fn` to test a coefficient's
    value: on a coefficient a tape is recording, the test is recorded and
    made again at every replay, with the replayed value.  A plain `if`,
    comparison or float() on such a coefficient refuses the recording."""
    if isinstance(value, _Coef):
        value.tape.guard(value, fails, error)
    elif fails(value):
        raise error(value)


def _is_zero(v) -> bool:
    return v == 0.0


def _nonpositive(v) -> bool:
    return v <= 0.0


def _division_by_zero(v) -> JetDomainError:
    return JetDomainError("division by zero")


def _math(fn: Callable[[float], float], x):
    """fn(x) for a function of one float (math.exp, say), recorded on a
    recorded x."""
    return x.tape.call(fn, x) if isinstance(x, _Coef) else fn(x)


class Taylor:
    """Multivariate polynomial truncated at total degree `order`.

    Coefficients are Taylor coefficients: the coefficient of the monomial
    with multi-index a equals (partial^a f) / a!.  Instances are treated as
    immutable; every operation allocates a fresh term dict.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: int, terms: dict[int, float]):
        self.order = order
        self.terms = terms

    # -- constructors -------------------------------------------------

    @staticmethod
    def constant(order: int, value: float) -> "Taylor":
        return Taylor(order, {0: value if isinstance(value, _Coef) else float(value)})

    @staticmethod
    def variable(order: int, index: int, value: float) -> "Taylor":
        if order > ORDER_CAP:
            raise ValueError(f"truncation order {order} exceeds cap {ORDER_CAP}")
        terms = {0: value if isinstance(value, _Coef) else float(value)}
        if order >= 1:
            s = _strides(index + 1)[index]
            terms[s] = 1.0
            if s not in _DEG:
                _DEG[s] = 1
        return Taylor(order, terms)

    # -- helpers ------------------------------------------------------

    @property
    def value(self) -> float:
        return self.terms.get(0, 0.0)

    def _check(self, other: "Taylor") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mixed truncation orders {self.order} and {other.order}"
            )

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor):
            self._check(other)
            out = dict(self.terms)
            get = out.get
            for k, c in other.terms.items():
                prev = get(k)
                out[k] = c if prev is None else prev + c
            return Taylor(self.order, out)
        if isinstance(other, _SCALARS):
            out = dict(self.terms)
            out[0] = out.get(0, 0.0) + other
            return Taylor(self.order, out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Taylor(self.order, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Taylor):
            self._check(other)
            out = dict(self.terms)
            get = out.get
            for k, c in other.terms.items():
                prev = get(k)
                out[k] = -c if prev is None else prev - c
            return Taylor(self.order, out)
        if isinstance(other, _SCALARS):
            out = dict(self.terms)
            out[0] = out.get(0, 0.0) - other
            return Taylor(self.order, out)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            out = {k: -c for k, c in self.terms.items()}
            out[0] = out.get(0, 0.0) + other
            return Taylor(self.order, out)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Taylor):
            self._check(other)
            order = self.order
            deg = _DEG
            a, b = self.terms, other.terms
            if len(a) > len(b):
                a, b = b, a
            bl = [(kb, cb, deg[kb]) for kb, cb in b.items()]
            out: dict[int, float] = {}
            get = out.get
            for ka, ca in a.items():
                da = deg[ka]
                lim = order - da
                for kb, cb, db in bl:
                    if db <= lim:
                        k = ka + kb
                        prev = get(k)
                        if prev is None:
                            out[k] = ca * cb
                            if k not in deg:
                                deg[k] = da + db
                        else:
                            out[k] = prev + ca * cb
            return Taylor(order, out)
        if isinstance(other, _SCALARS):
            c = other if isinstance(other, _Coef) else float(other)
            return Taylor(self.order, {k: v * c for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor):
            return self * other._reciprocal()
        if isinstance(other, _SCALARS):
            guard(other, _is_zero, _division_by_zero)
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal(other if isinstance(other, _Coef) else float(other))
        return NotImplemented

    def __pow__(self, e):
        if isinstance(e, float) and e.is_integer():
            e = int(e)
        if isinstance(e, int) and e >= 0:
            result = Taylor.constant(self.order, 1.0)
            b = self
            k = e
            while k:
                if k & 1:
                    result = result * b
                k >>= 1
                if k:
                    b = b * b
            return result
        u0 = self.value
        if isinstance(e, int):
            guard(u0, _is_zero, _division_by_zero)
            return _power(self, float(e), u0**e)
        e = float(e)
        guard(u0, _nonpositive, lambda v: JetDomainError(f"real power of nonpositive base {v}"))
        return _power(self, e, _math(math.exp, e * _math(math.log, u0)))

    def _reciprocal(self, scale: float = 1.0) -> "Taylor":
        """scale / self."""
        u0 = self.value
        guard(u0, _is_zero, _division_by_zero)
        return _power(self, -1.0, scale / u0)

    # -- calculus ------------------------------------------------------

    def partials(self, dim: int) -> list["Taylor"]:
        """Partial derivatives with respect to coordinates 0..dim-1, from
        one pass over the terms.

        The results are truncated one order lower (the top-degree
        coefficients of a truncated polynomial do not determine the
        derivative's top degree).
        """
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 polynomial")
        strides = _strides(dim)
        deg = _DEG
        digits = _DIGITS
        outs: list[dict[int, float]] = [{} for _ in range(dim)]
        for k, c in self.terms.items():
            pairs = digits.get(k)
            if pairs is None:
                pairs = _digits(k)
            for i, e in pairs:
                if i >= dim:
                    break
                nk = k - strides[i]
                outs[i][nk] = c * e
                if nk not in deg:
                    deg[nk] = deg[k] - 1
        return [Taylor(self.order - 1, out) for out in outs]

    def truncated(self, order: int) -> "Taylor":
        """Drop terms of total degree above `order`."""
        if order >= self.order:
            if order == self.order:
                return self
            raise ValueError("cannot raise truncation order")
        deg = _DEG
        return Taylor(order, {k: c for k, c in self.terms.items() if deg[k] <= order})

    def gradient(self, dim: int) -> np.ndarray:
        strides = _strides(dim)
        t = self.terms
        return np.array([t.get(strides[i], 0.0) for i in range(dim)])


# -- Taylor-coefficient recurrences -------------------------------------
#
# Write u = sum_j u_j and w = f(u) = sum_k w_k by homogeneous degree.  From
# u * w' = a * u' * w (w = u**a), w' = u' * w (exp), u * w' = u' (ln) and
# the sin/cos pair, degree k of the result is a weighted sum of the products
# u_j * w_{k-j}, j = 1..k, all of exact degree k, so no truncation test is
# needed and each w_k is final once formed.  A weight that vanishes for
# every u (the exponent's term in a power, j = k in ln) is None, so which
# products are formed depends on the expression only.


def _by_degree(x: Taylor) -> list[list[tuple[int, float]]]:
    """The (key, coefficient) pairs of x, listed by total degree."""
    out: list[list[tuple[int, float]]] = [[] for _ in range(x.order + 1)]
    deg = _DEG
    for k, c in x.terms.items():
        out[deg[k]].append((k, c))
    return out


def _convolve(u, w, k: int, weight: Callable[[int, int], float | None]) -> dict[int, float]:
    """Degree k of sum_{j=1..k} weight(k, j) * u_j * w_{k-j}."""
    out: dict[int, float] = {}
    get = out.get
    deg = _DEG
    for j in range(1, k + 1):
        ua, wb = u[j], w[k - j]
        if not ua or not wb:
            continue
        f = weight(k, j)
        if f is None:
            continue
        for ka, ca in ua:
            ca *= f
            for kb, cb in wb:
                key = ka + kb
                prev = get(key)
                if prev is None:
                    out[key] = ca * cb
                    if key not in deg:
                        deg[key] = k
                else:
                    out[key] = prev + ca * cb
    return out


def _recurrence(
    x: Taylor, w0: float, weight: Callable[[int, int], float | None], lin: float | None = None
) -> Taylor:
    """The polynomial w with w_0 = w0 and, for k >= 1,
    w_k = lin * u_k + sum_{j=1..k} weight(k, j) * u_j * w_{k-j}."""
    u = _by_degree(x)
    terms = {0: w0}
    w = [list(terms.items())]
    for k in range(1, x.order + 1):
        wk = _convolve(u, w, k, weight)
        if lin is not None:
            for key, c in u[k]:
                prev = wk.get(key)
                wk[key] = lin * c if prev is None else prev + lin * c
        terms.update(wk)
        w.append(list(wk.items()))
    return Taylor(x.order, terms)


def _power(x: Taylor, a: float, w0: float) -> Taylor:
    """w0 * (x / x.value)**a: k u0 w_k = sum_j (a j - (k - j)) u_j w_{k-j}."""
    u0 = x.value

    def weight(k, j):
        num = a * j - (k - j)
        return num / (k * u0) if num else None

    return _recurrence(x, w0, weight)


def _j_over_k(k: int, j: int) -> float:
    return j / k


def _minus_j_over_k(k: int, j: int) -> float:
    return -j / k


def _sincos(x: Taylor, want_sin: bool) -> Taylor:
    """sin x or cos x: k s_k = sum_j j u_j c_{k-j}, k c_k = -sum_j j u_j s_{k-j}.
    The top degree of the unwanted partner is never needed."""
    u = _by_degree(x)
    n = x.order
    s_terms = {0: _math(math.sin, x.value)}
    c_terms = {0: _math(math.cos, x.value)}
    s, c = [list(s_terms.items())], [list(c_terms.items())]
    for k in range(1, n + 1):
        if want_sin or k < n:
            sk = _convolve(u, c, k, _j_over_k)
            s_terms.update(sk)
            s.append(list(sk.items()))
        if not want_sin or k < n:
            ck = _convolve(u, s, k, _minus_j_over_k)
            c_terms.update(ck)
            c.append(list(ck.items()))
    return Taylor(n, s_terms if want_sin else c_terms)


# -- elementary functions (float / Taylor dispatch) ---------------------


def sin(x):
    if isinstance(x, Taylor):
        return _sincos(x, True)
    return _math(math.sin, x)


def cos(x):
    if isinstance(x, Taylor):
        return _sincos(x, False)
    return _math(math.cos, x)


def exp(x):
    if isinstance(x, Taylor):
        return _recurrence(x, _math(math.exp, x.value), _j_over_k)
    return _math(math.exp, x)


def ln(x):
    if isinstance(x, Taylor):
        u0 = x.value
        guard(u0, _nonpositive, lambda v: JetDomainError(f"ln of nonpositive value {v}"))

        # k u0 w_k = k u_k - sum_{j<k} (k - j) u_j w_{k-j}
        def weight(k, j):
            return -(k - j) / (k * u0) if j != k else None

        return _recurrence(x, _math(math.log, u0), weight, 1.0 / u0)
    guard(x, _nonpositive, lambda v: JetDomainError(f"ln of nonpositive value {v}"))
    return _math(math.log, x)


def sqrt(x):
    if isinstance(x, Taylor):
        u0 = x.value
        guard(u0, _nonpositive, lambda v: JetDomainError(f"sqrt of nonpositive value {v}"))
        return _power(x, 0.5, _math(math.sqrt, u0))
    guard(x, lambda v: v < 0.0, lambda v: JetDomainError(f"sqrt of negative value {v}"))
    return _math(math.sqrt, x)


def powf(x, e):
    """x**e with a real exponent; integer exponents stay polynomial."""
    if isinstance(e, float) and e.is_integer():
        e = int(e)
    if isinstance(x, Taylor):
        return x**e
    if isinstance(e, int):
        return (x if isinstance(x, _Coef) else float(x)) ** e
    guard(x, _nonpositive, lambda v: JetDomainError(f"real power of nonpositive base {v}"))
    return _math(math.exp, e * _math(math.log, x))


# -- recording and replay -----------------------------------------------


class _Refused(BaseException):
    """A recording met a test of a recorded coefficient's value.  Not an
    Exception, so that an fn's own `except Exception` cannot swallow it and
    record the branch it took."""


# instruction kinds
_MUL, _ADD, _SUB, _DIV, _NEG, _CALL, _POW, _GUARD = range(8)
_BINARY = frozenset((_MUL, _ADD, _SUB, _DIV, _POW))
_COMMUTATIVE = frozenset((_MUL, _ADD))
# kinds that may raise: kept even when nothing reads their result, since a
# live evaluation raises there too
_RAISING = frozenset((_DIV, _CALL, _POW, _GUARD))
_SYMBOL = {_MUL: "*", _ADD: "+", _SUB: "-", _DIV: "/"}


class _Coef:
    """A coefficient a tape is recording: register `i` of `tape`."""

    __slots__ = ("tape", "i")

    def __init__(self, tape: "Tape", i: int):
        self.tape = tape
        self.i = i

    def __add__(self, other):
        return self.tape.binary(_ADD, self, other)

    def __radd__(self, other):
        return self.tape.binary(_ADD, other, self)

    def __sub__(self, other):
        return self.tape.binary(_SUB, self, other)

    def __rsub__(self, other):
        return self.tape.binary(_SUB, other, self)

    def __mul__(self, other):
        return self.tape.binary(_MUL, self, other)

    def __rmul__(self, other):
        return self.tape.binary(_MUL, other, self)

    def __truediv__(self, other):
        return self.tape.binary(_DIV, self, other)

    def __rtruediv__(self, other):
        return self.tape.binary(_DIV, other, self)

    def __pow__(self, other):
        return self.tape.binary(_POW, self, other)

    def __neg__(self):
        return self.tape._emit(_NEG, self.i, None)

    def _refuse(self, *args):
        raise _Refused("a recorded coefficient's value was tested")

    # the tests that would otherwise pass silently; the rest (int(),
    # abs(), ...) raise TypeError, which refuses the recording too
    __bool__ = __float__ = __format__ = _refuse
    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = _refuse


# what the engine accepts as a scalar operand
_SCALARS = (int, float, _Coef)


def _each(fn: Callable[[float], float]) -> Callable:
    """fn on each element of a (B,) array: a numpy ufunc may round
    differently from the math module."""
    return lambda xs: np.array([fn(x) for x in xs.tolist()], dtype=float)


def _power_each(a, b) -> np.ndarray:
    xs, ys = np.broadcast_arrays(a, b)
    return np.array([x ** y for x, y in zip(xs.tolist(), ys.tolist())], dtype=float)


def _any(fails: Callable[[float], bool]) -> Callable:
    return lambda xs: any(map(fails, xs.tolist()))


# The most tape sources that stay compiled in a process, the least
# recently used going first.  Tapes with equal sources (one ladder
# discovered from two points, parameters that differ in value alone)
# share one code object.
_CODE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_CODE_CACHE_SIZE)
def _code(source: str) -> types.CodeType:
    """A tape's generated source, compiled."""
    return compile(source, "<tape>", "exec")


class Tape:
    """The float operations of one computation, recorded once, replayed as
    often as needed.

    `Tape.record(build, n)` calls build on n recorded input coefficients;
    build runs the engine and returns the list of coefficients it wants
    (recorded ones, or plain numbers).  Calling the tape on n floats
    returns those outputs as computed from them.  A recording that meets a
    value test, or fails in any way, gives None: the caller runs live.

    Recording keeps every operation in the order the engine made it,
    shares repeated ones, and folds x*1 to x.  The replay program drops
    what nothing reads (except the kinds that may raise, so a replay
    raises where a live evaluation would) and is generated as one
    straight-line Python function: a statement per operation in recording
    order, the registers its locals.  Its source holds generated names and
    operator symbols only, and is compiled once per process while it stays
    among the last 32 sources used.  Constants and the recorded callables
    are bound to their names per tape, twice: as they are, for single
    points, and as element-by-element wrappers, for stacks.
    """

    def __init__(self):
        self._code: list[tuple] = []  # (kind, out, a, b) in recording order
        self._n = 0  # registers allocated
        self._const: dict[int, object] = {}  # register -> constant
        self._const_of: dict[tuple, int] = {}
        self._memo: dict[tuple, _Coef] = {}
        self._inputs: list[int] = []

    @classmethod
    def record(cls, build: Callable[[list], Sequence], n: int) -> "Tape | None":
        tape = cls()
        try:
            inputs = [tape._new() for _ in range(n)]
            tape._inputs = [x.i for x in inputs]
            tape._compile(build(inputs))
        # besides a refusal, an fn may fail only on placeholders (a numpy
        # call on a coefficient, say); the live run that follows raises
        # whatever a float evaluation raises
        except (_Refused, Exception):
            return None
        return tape

    # -- recording -----------------------------------------------------

    def _new(self) -> _Coef:
        self._n += 1
        return _Coef(self, self._n - 1)

    def _reg(self, x) -> int | None:
        if type(x) is _Coef:
            if x.tape is not self:
                raise _Refused("a coefficient of another recording")
            return x.i
        if isinstance(x, (int, float)):
            # by value, but 0.0 and -0.0 are equal and differ in bits
            key = (type(x), x) if x else (type(x), repr(x))
            r = self._const_of.get(key)
            if r is None:
                r = self._const_of[key] = self._new().i
                self._const[r] = x
            return r
        return None

    def _emit(self, kind: int, a: int, b) -> _Coef:
        """The result of kind on registers a and b (b: a register, the
        function of a call, or None), shared with an earlier identical
        operation."""
        key = (kind, a, b)
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = _Coef(self, self._n)
            self._n += 1
            self._code.append((kind, out.i, a, b))
        return out

    def binary(self, kind: int, x, y):
        # most operands are this recording's coefficients: read them inline
        a = x.i if type(x) is _Coef and x.tape is self else self._reg(x)
        b = y.i if type(y) is _Coef and y.tape is self else self._reg(y)
        if a is None or b is None:
            return NotImplemented
        if kind == _MUL:
            # x*1 is x bit for bit; partials and the seeds' unit slopes
            # make many
            if self._const.get(b) == 1:
                return x
            if self._const.get(a) == 1:
                return y
        if b < a and kind in _COMMUTATIVE:
            a, b = b, a  # one record for both orders
        return self._emit(kind, a, b)

    def call(self, fn: Callable[[float], float], x) -> _Coef:
        return self._emit(_CALL, self._reg(x), fn)

    def guard(self, x, fails, error) -> None:
        self._code.append((_GUARD, None, self._reg(x), (fails, error)))

    # -- the replay program --------------------------------------------

    def _compile(self, outputs: Sequence) -> None:
        outs = [self._reg(o) for o in outputs]
        if None in outs:
            raise _Refused("an output is not a coefficient")
        # one backward pass: keep what an output or a raising instruction reads
        read = set(outs)
        kept = []
        for ins in reversed(self._code):
            kind, o, a, b = ins
            if o in read or kind in _RAISING:
                kept.append(ins)
                read.add(a)
                if kind in _BINARY:
                    read.add(b)
        kept.reverse()

        # register i is the local r<i>; a recorded callable is named by its
        # first use
        calls: dict[Callable, int] = {}
        guards: dict[tuple, int] = {}
        body = []
        for kind, o, a, b in kept:
            if kind == _GUARD:
                j = guards.setdefault(b, len(guards))
                body.append(f"if g{j}(r{a}): raise e{j}(r{a})")
            elif kind == _CALL:
                body.append(f"r{o} = f{calls.setdefault(b, len(calls))}(r{a})")
            elif kind == _POW:
                body.append(f"r{o} = power(r{a}, r{b})")
            elif kind == _NEG:
                body.append(f"r{o} = -r{a}")
            else:
                body.append(f"r{o} = r{a} {_SYMBOL[kind]} r{b}")
        # what the names hold: (name, for single points, for stacks).  A
        # stack's error is never seen: whatever the batch raises, it is
        # replayed point by point
        bound = [(f"r{r}", c, c) for r, c in self._const.items() if r in read]
        bound.append(("power", operator.pow, _power_each))
        bound += [(f"f{j}", fn, _each(fn)) for fn, j in calls.items()]
        for (fails, error), j in guards.items():
            bound += [(f"g{j}", fails, _any(fails)), (f"e{j}", error, error)]
        lines = [
            "def bind(k):",
            f"    [{', '.join(name for name, _, _ in bound)}] = k",
            "    def replay(x):",
            f"        [{', '.join(f'r{i}' for i in self._inputs)}] = x",
            *("        " + line for line in body),
            f"        return [{', '.join(f'r{r}' for r in outs)}]",
            "    return replay",
        ]
        namespace: dict = {"__builtins__": {}}
        exec(_code("\n".join(lines)), namespace)
        bind = namespace["bind"]
        self._point = bind([value for _, value, _ in bound])
        self._stack = bind([value for _, _, value in bound])
        self._width = len(self._inputs)
        del self._code, self._memo, self._const_of, self._const

    def __call__(self, inputs) -> list:
        """The outputs at these inputs.

        n Python floats give a list of floats.  An (n, B) float64 array,
        B points as its columns, gives a list of (B,) arrays, bit for bit
        the outputs of B calls on the columns: the arithmetic runs on
        whole rows, the recorded calls, powers and guards one element at a
        time, and anything that raises on the batch (a guard, a floating
        point exception) replays it point by point instead, which raises
        what the first failing point raises."""
        if len(inputs) != self._width:
            raise DimensionMismatch(f"tape expects {self._width} inputs, got {len(inputs)}")
        if not isinstance(inputs, np.ndarray) or inputs.ndim != 2:
            return self._point(inputs)
        inputs = np.ascontiguousarray(inputs, dtype=float)
        try:
            # an exception that a float operation would not raise (0/0,
            # overflow) leaves the batch; underflow rounds alike in both
            with np.errstate(all="raise", under="ignore"):
                out = self._stack(inputs)
        except Exception:
            points = [self._point(x) for x in inputs.T.tolist()]
            return [np.array(col, dtype=float) for col in zip(*points)]
        B = inputs.shape[1]
        return [o if isinstance(o, np.ndarray) else np.full(B, float(o)) for o in out]


def taped_expansion(fn: Callable, dim: int, order: int) -> Callable[[np.ndarray], Taylor] | None:
    """expand(fn, ., order) as a replayed tape: a function of a (dim, B)
    array of B points giving the polynomial whose coefficients are (B,)
    arrays, each the one a live expand gives at its point, key for key and
    bit for bit.  None when fn refuses to be recorded."""
    keys: list[int] = []

    def build(seeds):
        out = expand(fn, seeds, order)
        keys.extend(out.terms)
        return list(out.terms.values())

    tape = Tape.record(build, dim)
    if tape is None:
        return None
    return lambda x: Taylor(order, dict(zip(keys, tape(x))))


def stack(polys: Sequence[Taylor]) -> Taylor:
    """One polynomial whose coefficients are (B,) arrays, from B
    polynomials of one order: a key one of them lacks reads 0 there."""
    keys = dict.fromkeys(k for t in polys for k in t.terms)
    return Taylor(polys[0].order,
                  {k: np.array([t.terms.get(k, 0.0) for t in polys], dtype=float) for k in keys})


# -- coordinate spaces --------------------------------------------------


@dataclass(frozen=True)
class CoordinateSpace:
    """Named, ordered coordinates of the velocity and the mixed phase space.

    lagrangian  (t, q1..qn, v1..vn, s)            dim 2n + 2
    unified     (t, q1..qn, v1..vn, p1..pn, s)    dim 3n + 2
    """

    kind: str
    n: int
    names: tuple[str, ...]

    @staticmethod
    def lagrangian(n: int) -> "CoordinateSpace":
        names = ("t", *(f"q{i+1}" for i in range(n)), *(f"v{i+1}" for i in range(n)), "s")
        return CoordinateSpace("lagrangian", n, names)

    @staticmethod
    @functools.cache  # built once per n: every lift and workspace asks for it
    def unified(n: int) -> "CoordinateSpace":
        names = (
            "t",
            *(f"q{i+1}" for i in range(n)),
            *(f"v{i+1}" for i in range(n)),
            *(f"p{i+1}" for i in range(n)),
            "s",
        )
        return CoordinateSpace("unified", n, names)

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def s_index(self) -> int:
        return self.dim - 1


# -- jets ---------------------------------------------------------------


@dataclass(frozen=True)
class Jet:
    """Derivative data of a scalar field at one point, or at B points with
    a leading batch axis on the value and on every array.

    grad[i] = df/dx_i; hess[i,j] = d2f/dx_i dx_j (order >= 2);
    third[i,j,k] = d3f/dx_i dx_j dx_k (order 3).  Arrays are read-only.
    """

    order: int
    value: float
    grad: np.ndarray
    hess: np.ndarray | None = None
    third: np.ndarray | None = None


def jet_from_taylor(t: Taylor, dim: int, order: int) -> Jet:
    """Extract value/grad/hess/third (order capped at 3) from a polynomial.
    A stacked polynomial ((B,) coefficients) gives a jet whose value and
    arrays carry a leading batch axis of length B."""
    order = min(order, t.order)
    value = t.terms.get(0, 0.0)
    # the batch axis goes last while filling, so that one index serves both
    batch = np.shape(value)
    grad = np.zeros((dim, *batch))
    hess = np.zeros((dim, dim, *batch)) if order >= 2 else None
    third = np.zeros((dim, dim, dim, *batch)) if order >= 3 else None
    indices = _INDICES
    for key, c in t.terms.items():
        if key == 0:
            continue
        idx = indices.get(key)
        if idx is None:
            _digits(key)
            idx = indices[key]
        d = len(idx)
        if d == 1:
            grad[idx[0]] = c
        elif d == 2 and hess is not None:
            a, b = idx
            if a == b:
                hess[a, a] = 2.0 * c
            else:
                hess[a, b] = c
                hess[b, a] = c
        elif d == 3 and third is not None:
            a, b, e = idx
            if a == b == e:
                third[a, a, a] = 6.0 * c
            elif a == b or b == e or a == e:
                val = 2.0 * c
                third[a, b, e] = val
                third[a, e, b] = val
                third[b, a, e] = val
                third[b, e, a] = val
                third[e, a, b] = val
                third[e, b, a] = val
            else:
                for perm in ((a, b, e), (a, e, b), (b, a, e), (b, e, a), (e, a, b), (e, b, a)):
                    third[perm] = c
    if batch:
        grad, hess, third = (None if x is None else np.moveaxis(x, -1, 0) for x in (grad, hess, third))
    grad.flags.writeable = False
    if hess is not None:
        hess.flags.writeable = False
    if third is not None:
        third.flags.writeable = False
    return Jet(order=order, value=value, grad=grad, hess=hess, third=third)


def expand(fn: Callable, x: Sequence[float], order: int) -> Taylor:
    """Taylor polynomial of fn at x: fn receives one seed per coordinate,
    and a constant result is lifted to a polynomial of the same order."""
    out = fn([Taylor.variable(order, i, x[i]) for i in range(len(x))])
    return out if isinstance(out, Taylor) else Taylor.constant(order, out)


@dataclass(frozen=True)
class ScalarField:
    """A scalar function of one coordinate space, evaluable on floats or
    Taylor seeds.  `fn` receives the coordinate values as a list."""

    fn: Callable
    dim: int
    label: str = ""

    def taylor(self, x: Sequence[float], order: int) -> Taylor:
        if len(x) != self.dim:
            raise DimensionMismatch(
                f"field {self.label or '?'} expects dimension {self.dim}, got {len(x)}"
            )
        return expand(self.fn, x, order)

    def jet(self, x: Sequence[float], order: int) -> Jet:
        return jet_from_taylor(self.taylor(x, order), self.dim, order)

    def __call__(self, x: Sequence[float]) -> float:
        out = self.fn([float(v) for v in x])
        return out.value if isinstance(out, Taylor) else float(out)


def eval_jet(f, x: Sequence[float], order: int) -> Jet:
    """Jet of a scalar field at a point.

    `f` is either a ScalarField or a plain callable receiving the list of
    coordinate values (floats or Taylor seeds).  `order` must be 1, 2 or 3.
    """
    if order not in (1, 2, 3):
        raise ValueError(f"jet order must be 1, 2 or 3, got {order}")
    x = [float(v) for v in x]
    if not all(math.isfinite(v) for v in x):
        raise ValueError("evaluation point has non-finite entries")
    if isinstance(f, ScalarField):
        return f.jet(x, order)
    return jet_from_taylor(expand(f, x, order), len(x), order)

