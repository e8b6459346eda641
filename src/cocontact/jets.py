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

Elementary functions of a polynomial u are built one homogeneous degree at
a time from the classical Taylor-coefficient recurrences (Griewank and
Walther, Evaluating Derivatives, 2nd ed., SIAM 2008, ch. 13), so each costs
about one truncated product, whatever the order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Jet",
    "CoordinateSpace",
    "Taylor",
    "ScalarField",
    "expand",
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
# digits are nonzero).
_DEG: dict[int, int] = {0: 0}

_STRIDES: list[int] = [1]


def _strides(dim: int) -> list[int]:
    while len(_STRIDES) < dim:
        _STRIDES.append(_STRIDES[-1] * _BASE)
    return _STRIDES


class JetDomainError(ArithmeticError):
    """An elementary function left its domain during evaluation
    (ln or sqrt of a nonpositive value, a real power of a nonpositive
    base, division by zero)."""


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
            return self._reciprocal(float(other))
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
            if u0 == 0.0:
                raise JetDomainError("division by zero")
            return _power(self, float(e), u0**e)
        e = float(e)
        if u0 <= 0.0:
            raise JetDomainError(f"real power of nonpositive base {u0}")
        return _power(self, e, math.exp(e * math.log(u0)))

    def _reciprocal(self, scale: float = 1.0) -> "Taylor":
        """scale / self."""
        u0 = self.value
        if u0 == 0.0:
            raise JetDomainError("division by zero")
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
        outs: list[dict[int, float]] = [{} for _ in range(dim)]
        for k, c in self.terms.items():
            rest = k
            for s, out in zip(strides, outs):
                if not rest:
                    break
                rest, e = divmod(rest, _BASE)
                if e:
                    nk = k - s
                    out[nk] = c * e
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


# -- Taylor-coefficient recurrences -------------------------------------
#
# Write u = sum_j u_j and w = f(u) = sum_k w_k by homogeneous degree.  From
# u * w' = a * u' * w (w = u**a), w' = u' * w (exp), u * w' = u' (ln) and
# the sin/cos pair, degree k of the result is a weighted sum of the products
# u_j * w_{k-j}, j = 1..k, all of exact degree k, so no truncation test is
# needed and each w_k is final once formed.


def _by_degree(x: Taylor) -> list[list[tuple[int, float]]]:
    """The (key, coefficient) pairs of x, listed by total degree."""
    out: list[list[tuple[int, float]]] = [[] for _ in range(x.order + 1)]
    deg = _DEG
    for k, c in x.terms.items():
        out[deg[k]].append((k, c))
    return out


def _convolve(u, w, k: int, weight: Callable[[int, int], float]) -> dict[int, float]:
    """Degree k of sum_{j=1..k} weight(k, j) * u_j * w_{k-j}."""
    out: dict[int, float] = {}
    get = out.get
    deg = _DEG
    for j in range(1, k + 1):
        ua, wb = u[j], w[k - j]
        if not ua or not wb:
            continue
        f = weight(k, j)
        if not f:
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
    x: Taylor, w0: float, weight: Callable[[int, int], float], lin: float = 0.0
) -> Taylor:
    """The polynomial w with w_0 = w0 and, for k >= 1,
    w_k = lin * u_k + sum_{j=1..k} weight(k, j) * u_j * w_{k-j}."""
    u = _by_degree(x)
    terms = {0: w0} if w0 != 0.0 else {}
    w = [list(terms.items())]
    for k in range(1, x.order + 1):
        wk = _convolve(u, w, k, weight)
        if lin:
            for key, c in u[k]:
                wk[key] = wk.get(key, 0.0) + lin * c
        terms.update(wk)
        w.append(list(wk.items()))
    return Taylor(x.order, terms)


def _power(x: Taylor, a: float, w0: float) -> Taylor:
    """w0 * (x / x.value)**a: k u0 w_k = sum_j (a j - (k - j)) u_j w_{k-j}."""
    u0 = x.value
    return _recurrence(x, w0, lambda k, j: (a * j - (k - j)) / (k * u0))


def _j_over_k(k: int, j: int) -> float:
    return j / k


def _minus_j_over_k(k: int, j: int) -> float:
    return -j / k


def _sincos(x: Taylor, want_sin: bool) -> Taylor:
    """sin x or cos x: k s_k = sum_j j u_j c_{k-j}, k c_k = -sum_j j u_j s_{k-j}.
    The top degree of the unwanted partner is never needed."""
    u = _by_degree(x)
    n = x.order
    s0, c0 = math.sin(x.value), math.cos(x.value)
    s_terms = {0: s0} if s0 != 0.0 else {}
    c_terms = {0: c0} if c0 != 0.0 else {}
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
    return math.sin(x)


def cos(x):
    if isinstance(x, Taylor):
        return _sincos(x, False)
    return math.cos(x)


def exp(x):
    if isinstance(x, Taylor):
        return _recurrence(x, math.exp(x.value), _j_over_k)
    return math.exp(x)


def ln(x):
    if isinstance(x, Taylor):
        u0 = x.value
        if u0 <= 0.0:
            raise JetDomainError(f"ln of nonpositive value {u0}")
        # k u0 w_k = k u_k - sum_{j<k} (k - j) u_j w_{k-j}
        return _recurrence(x, math.log(u0), lambda k, j: -(k - j) / (k * u0), 1.0 / u0)
    if x <= 0.0:
        raise JetDomainError(f"ln of nonpositive value {x}")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Taylor):
        u0 = x.value
        if u0 <= 0.0:
            raise JetDomainError(f"sqrt of nonpositive value {u0}")
        return _power(x, 0.5, math.sqrt(u0))
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

