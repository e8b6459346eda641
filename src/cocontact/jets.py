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
carry.  A global cache stores the total degree of every key ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Jet",
    "CoordinateSpace",
    "Taylor",
    "ScalarField",
    "eval_jet",
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
# digits are nonzero).  CPython dict writes are atomic, so concurrent reuse
# from several threads is safe.
_DEG: dict[int, int] = {0: 0}

_STRIDES: list[int] = [1]


def _strides(dim: int) -> list[int]:
    while len(_STRIDES) < dim:
        _STRIDES.append(_STRIDES[-1] * _BASE)
    return _STRIDES


class JetDomainError(ArithmeticError):
    """An elementary function left its domain during evaluation
    (ln or sqrt of a nonpositive value, division by zero)."""


class DimensionMismatch(ValueError):
    """A point, gradient, or coefficient vector has the wrong length."""


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
        v = float(value)
        return Taylor(order, {0: v} if v != 0.0 else {})

    @staticmethod
    def variable(order: int, index: int, value: float) -> "Taylor":
        if order > ORDER_CAP:
            raise ValueError(f"truncation order {order} exceeds cap {ORDER_CAP}")
        terms: dict[int, float] = {}
        v = float(value)
        if v != 0.0:
            terms[0] = v
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
            for k, c in other.terms.items():
                out[k] = out.get(k, 0.0) + c
            return Taylor(self.order, out)
        if isinstance(other, (int, float)):
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
            for k, c in other.terms.items():
                out[k] = out.get(k, 0.0) - c
            return Taylor(self.order, out)
        if isinstance(other, (int, float)):
            out = dict(self.terms)
            out[0] = out.get(0, 0.0) - other
            return Taylor(self.order, out)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
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
        if isinstance(other, (int, float)):
            c = float(other)
            return Taylor(self.order, {k: v * c for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor):
            return self * other._reciprocal()
        if isinstance(other, (int, float)):
            if other == 0:
                raise JetDomainError("division by zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, e):
        if isinstance(e, float) and e.is_integer():
            e = int(e)
        if isinstance(e, int):
            if e < 0:
                return (self ** (-e))._reciprocal()
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
        return exp(ln(self) * float(e))

    # -- composition with univariate series ---------------------------

    def _nilpotent(self) -> "Taylor":
        t = dict(self.terms)
        t.pop(0, None)
        return Taylor(self.order, t)

    def compose_series(self, coeffs: Sequence[float]) -> "Taylor":
        """Horner evaluation of sum_k coeffs[k] * (self - value)^k."""
        u = self._nilpotent()
        acc = Taylor.constant(self.order, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc * u
            if c != 0.0:
                acc = acc + c
        return acc

    def _reciprocal(self) -> "Taylor":
        u0 = self.value
        if u0 == 0.0:
            raise JetDomainError("division by zero")
        inv = 1.0 / u0
        coeffs = [inv]
        for _ in range(self.order):
            coeffs.append(-coeffs[-1] * inv)
        return self.compose_series(coeffs)

    # -- calculus ------------------------------------------------------

    def partial(self, index: int) -> "Taylor":
        """Partial derivative with respect to coordinate `index`.

        The result is truncated one order lower (the top-degree
        coefficients of a truncated polynomial do not determine the
        derivative's top degree).
        """
        if self.order == 0:
            raise ValueError("cannot differentiate an order-0 polynomial")
        s = _strides(index + 1)[index]
        deg = _DEG
        out: dict[int, float] = {}
        for k, c in self.terms.items():
            e = (k // s) % _BASE
            if e:
                nk = k - s
                out[nk] = c * e
                if nk not in deg:
                    deg[nk] = deg[k] - 1
        return Taylor(self.order - 1, out)

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

    def hessian_block(self, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
        """Second partials d2f/dx_i dx_j for i in rows, j in cols, read off
        the degree-2 coefficients (order >= 2)."""
        if self.order < 2:
            raise ValueError("a Hessian needs truncation order >= 2")
        strides = _strides(max(max(rows), max(cols)) + 1)
        t = self.terms
        out = np.empty((len(rows), len(cols)))
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                c = t.get(strides[i] + strides[j], 0.0)
                out[a, b] = 2.0 * c if i == j else c
        return out


# -- elementary functions (float / Taylor dispatch) ---------------------


def _series(x: Taylor, derivs: Callable[[int, float], float]) -> Taylor:
    u0 = x.value
    coeffs = [derivs(k, u0) / math.factorial(k) for k in range(x.order + 1)]
    return x.compose_series(coeffs)


def sin(x):
    if isinstance(x, Taylor):
        cyc = (math.sin, math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v))
        return _series(x, lambda k, v: cyc[k % 4](v))
    return math.sin(x)


def cos(x):
    if isinstance(x, Taylor):
        cyc = (math.cos, lambda v: -math.sin(v), lambda v: -math.cos(v), math.sin)
        return _series(x, lambda k, v: cyc[k % 4](v))
    return math.cos(x)


def exp(x):
    if isinstance(x, Taylor):
        e0 = math.exp(x.value)
        coeffs = [e0 / math.factorial(k) for k in range(x.order + 1)]
        return x.compose_series(coeffs)
    return math.exp(x)


def ln(x):
    if isinstance(x, Taylor):
        u0 = x.value
        if u0 <= 0.0:
            raise JetDomainError(f"ln of nonpositive value {u0}")
        coeffs = [math.log(u0)]
        for k in range(1, x.order + 1):
            coeffs.append((-1.0) ** (k + 1) / (k * u0**k))
        return x.compose_series(coeffs)
    if x <= 0.0:
        raise JetDomainError(f"ln of nonpositive value {x}")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Taylor):
        u0 = x.value
        if u0 <= 0.0:
            raise JetDomainError(f"sqrt of nonpositive value {u0}")
        c = math.sqrt(u0)
        coeffs = [c]
        for k in range(1, x.order + 1):
            c = c * (0.5 - (k - 1)) / (k * u0)
            coeffs.append(c)
        return x.compose_series(coeffs)
    if x < 0.0:
        raise JetDomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def powf(x, e):
    """x**e with a real exponent; integer exponents stay polynomial."""
    if isinstance(e, float) and e.is_integer():
        e = int(e)
    if isinstance(x, Taylor):
        return x**e
    if isinstance(e, int):
        return float(x) ** e
    if x <= 0.0:
        raise JetDomainError(f"real power of nonpositive base {x}")
    return math.exp(e * math.log(x))


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
    """Derivative data of a scalar field at one point.

    grad[i] = df/dx_i; hess[i,j] = d2f/dx_i dx_j (order >= 2);
    third[i,j,k] = d3f/dx_i dx_j dx_k (order 3).  Arrays are read-only.
    """

    order: int
    value: float
    grad: np.ndarray
    hess: np.ndarray | None = None
    third: np.ndarray | None = None


def jet_from_taylor(t: Taylor, dim: int, order: int) -> Jet:
    """Extract value/grad/hess/third (order capped at 3) from a polynomial."""
    order = min(order, t.order)
    grad = np.zeros(dim)
    hess = np.zeros((dim, dim)) if order >= 2 else None
    third = np.zeros((dim, dim, dim)) if order >= 3 else None
    value = 0.0
    for key, c in t.terms.items():
        if key == 0:
            value = c
            continue
        idx: list[int] = []
        k = key
        i = 0
        while k:
            k, e = divmod(k, _BASE)
            idx.extend([i] * e)
            i += 1
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
    grad.flags.writeable = False
    if hess is not None:
        hess.flags.writeable = False
    if third is not None:
        third.flags.writeable = False
    return Jet(order=order, value=value, grad=grad, hess=hess, third=third)


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
        seeds = [Taylor.variable(order, i, x[i]) for i in range(self.dim)]
        out = self.fn(seeds)
        if isinstance(out, Taylor):
            return out
        return Taylor.constant(order, out)

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
    dim = len(x)
    seeds = [Taylor.variable(order, i, x[i]) for i in range(dim)]
    out = f(seeds)
    if not isinstance(out, Taylor):
        out = Taylor.constant(order, out)
    return jet_from_taylor(out, dim, order)

