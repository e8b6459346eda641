"""Single-system mechanics, all derived from one Lagrangian.

A Lagrangian here depends on time, position, velocity and the action-level
coordinate s, so dissipative and explicitly time-dependent systems are
first-class: L(t, q, v, s).  The equations of motion replace the classical
Euler-Lagrange equations by

    d/dt (dL/dv_i) - dL/dq_i = (dL/ds) (dL/dv_i),       sdot = L.

The momentum side (t, q, p, s) is not a second input: its points are the
image of the fibre derivative p = dL/dv (legendre_map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dsl as _dsl
from .jets import CoordinateSpace, Jet, Taylor, jet_from_taylor

__all__ = [
    "LagrangianSystem",
    "LagrangianPoint",
    "HamiltonianPoint",
    "RegularityReport",
    "lagrangian_energy",
    "legendre_map",
    "regularity",
    "herglotz_residual",
]

DEFAULT_RANK_TOL = 1e-9


def _vectorize(name: str, arr, n: int) -> np.ndarray:
    out = np.asarray(arr, dtype=float).reshape(-1)
    if out.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} has non-finite entries")
    return out


@dataclass(frozen=True)
class LagrangianPoint:
    """A state (t, q, v, s) of the velocity phase space."""

    t: float
    q: np.ndarray
    v: np.ndarray
    s: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(-1))
        object.__setattr__(self, "v", _vectorize("v", self.v, len(self.q)))
        object.__setattr__(self, "q", _vectorize("q", self.q, len(self.q)))
        if not (np.isfinite(self.t) and np.isfinite(self.s)):
            raise ValueError("t and s must be finite")

    @property
    def n(self) -> int:
        return len(self.q)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.t], self.q, self.v, [self.s]))

    @staticmethod
    def from_vector(n: int, vec: Sequence[float]) -> "LagrangianPoint":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (2 * n + 2,):
            raise ValueError(f"expected length {2 * n + 2}, got {vec.shape}")
        return LagrangianPoint(vec[0], vec[1 : 1 + n], vec[1 + n : 1 + 2 * n], vec[-1])


@dataclass(frozen=True)
class HamiltonianPoint:
    """A state (t, q, p, s) of the momentum phase space."""

    t: float
    q: np.ndarray
    p: np.ndarray
    s: float

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(-1))
        object.__setattr__(self, "p", _vectorize("p", self.p, len(self.q)))
        object.__setattr__(self, "q", _vectorize("q", self.q, len(self.q)))
        if not (np.isfinite(self.t) and np.isfinite(self.s)):
            raise ValueError("t and s must be finite")

    @property
    def n(self) -> int:
        return len(self.q)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.t], self.q, self.p, [self.s]))

    @staticmethod
    def from_vector(n: int, vec: Sequence[float]) -> "HamiltonianPoint":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (2 * n + 2,):
            raise ValueError(f"expected length {2 * n + 2}, got {vec.shape}")
        return HamiltonianPoint(vec[0], vec[1 : 1 + n], vec[1 + n : 1 + 2 * n], vec[-1])


class LagrangianSystem:
    """A Lagrangian L(t, q, v, s) with n degrees of freedom.

    `fn(t, q, v, s, params)` receives floats or Taylor seeds; q and v are
    sequences of length n.  All derivative information is produced by
    evaluating `fn` on Taylor seeds, so `fn` must stay inside the
    arithmetic the jet layer provides.
    """

    def __init__(self, n: int, fn: Callable, params: dict | None = None, label: str = ""):
        self.n = int(n)
        if self.n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.fn = fn
        self.params = _dsl.ParamTable(params or {})
        self.label = label
        self.space = CoordinateSpace.lagrangian(n)

    def taylor_on(self, space: CoordinateSpace, x: Sequence[float], order: int) -> Taylor:
        """Evaluate on any layout whose leading slots are (t, q, v) with s
        last; this covers both the Lagrangian and the unified space."""
        if len(x) != space.dim:
            raise ValueError(f"point has length {len(x)}, expected {space.dim}")
        n = self.n
        seeds = [Taylor.variable(order, i, x[i]) for i in range(space.dim)]
        q = seeds[1 : 1 + n]
        v = seeds[1 + n : 1 + 2 * n]
        out = self.fn(seeds[0], q, v, seeds[space.s_index], self.params)
        if not isinstance(out, Taylor):
            out = Taylor.constant(order, out)
        return out

    def taylor(self, x: Sequence[float], order: int) -> Taylor:
        return self.taylor_on(self.space, x, order)

    def jet(self, x: Sequence[float], order: int) -> Jet:
        return jet_from_taylor(self.taylor(x, order), self.space.dim, order)

    def value(self, x: Sequence[float]) -> float:
        n = self.n
        q = [float(c) for c in x[1 : 1 + n]]
        v = [float(c) for c in x[1 + n : 1 + 2 * n]]
        out = self.fn(float(x[0]), q, v, float(x[len(x) - 1]), self.params)
        return out.value if isinstance(out, Taylor) else float(out)

    @staticmethod
    def from_expr(expr, params: dict | None = None, label: str = "") -> "LagrangianSystem":
        """Build a system from a parsed (t, q, v, s) expression.

        Every parameter of the expression needs a value in `params`
        (UnknownParameterError otherwise).  Parameters stay late-bound: the
        system's own table is consulted at every evaluation, so updates to
        it take effect immediately.
        """
        if isinstance(expr, str):
            raise TypeError("pass a parsed expression; use dsl.parse first")
        if expr.allow_p:
            raise ValueError("a Lagrangian expression must not reference momenta")
        _dsl._require_params(expr, params or {})

        def fn(t, q, v, s, par):
            return _dsl._eval_node(expr.node, [t, *q, *v, s], par)

        sys = LagrangianSystem(expr.n, fn, params, label)
        sys.expr = expr
        return sys


@dataclass(frozen=True)
class RegularityReport:
    """Rank analysis of the velocity Hessian W = d2L/dv dv at a point.

    nullspace columns are orthonormal and satisfy |W u| <= tol * |W|.
    """

    verdict: str  # "Regular" | "Singular"
    rank: int
    nullspace: np.ndarray  # shape (n, n - rank)
    tolerance: float
    singular_values: np.ndarray

    @property
    def is_regular(self) -> bool:
        return self.verdict == "Regular"


def _as_lvec(L: LagrangianSystem, x) -> np.ndarray:
    if isinstance(x, LagrangianPoint):
        return x.as_vector()
    vec = np.asarray(x, dtype=float)
    if vec.shape != (2 * L.n + 2,):
        raise ValueError(f"expected a point of length {2 * L.n + 2}")
    return vec


def lagrangian_energy(L: LagrangianSystem, x) -> float:
    """E_L = v . dL/dv - L."""
    vec = _as_lvec(L, x)
    jet = L.jet(vec, 1)
    n = L.n
    v = vec[1 + n : 1 + 2 * n]
    return float(v @ jet.grad[1 + n : 1 + 2 * n] - jet.value)


def legendre_map(L: LagrangianSystem, x) -> HamiltonianPoint:
    """Fibre derivative (t, q, v, s) -> (t, q, dL/dv, s); defined for any L."""
    vec = _as_lvec(L, x)
    jet = L.jet(vec, 1)
    n = L.n
    return HamiltonianPoint(vec[0], vec[1 : 1 + n], jet.grad[1 + n : 1 + 2 * n], vec[-1])


def regularity(L: LagrangianSystem, x, tol: float = DEFAULT_RANK_TOL) -> RegularityReport:
    """Classify L at a point by the rank of W = d2L/dv dv.

    The rank threshold is relative: singular values below tol * sigma_max
    count as zero.
    """
    vec = _as_lvec(L, x)
    jet = L.jet(vec, 2)
    n = L.n
    sl = slice(1 + n, 1 + 2 * n)
    W = np.array(jet.hess[sl, sl])
    U, sigma, Vt = np.linalg.svd(W)
    smax = sigma[0] if len(sigma) else 0.0
    rank = int(np.sum(sigma > tol * smax)) if smax > 0 else 0
    nullspace = Vt[rank:].T.copy()
    verdict = "Regular" if rank == n else "Singular"
    return RegularityReport(verdict, rank, nullspace, tol, sigma)


def herglotz_residual(L: LagrangianSystem, x, accel, sdot: float) -> tuple[np.ndarray, float]:
    """Defect of a candidate motion against the damped Euler-Lagrange
    equations.

    Given a state x, an acceleration vector and a rate sdot for the action
    coordinate, returns the n-vector

        d/dt(dL/dv_i) - dL/dq_i - (dL/ds)(dL/dv_i)

    with the total time derivative expanded along (1, v, accel, sdot), and
    the scalar sdot - L.  Both vanish along true motions.
    """
    vec = _as_lvec(L, x)
    n = L.n
    accel = _vectorize("accel", accel, n)
    jet = L.jet(vec, 2)
    qs = slice(1, 1 + n)
    vs = slice(1 + n, 1 + 2 * n)
    v = vec[vs]
    dt_dv = jet.hess[0, vs]
    dq_dv = jet.hess[qs, vs]
    dv_dv = jet.hess[vs, vs]
    ds_dv = jet.hess[-1, vs]
    total = dt_dv + v @ dq_dv + accel @ dv_dv + sdot * ds_dv
    vector = total - jet.grad[qs] - jet.grad[-1] * jet.grad[vs]
    return vector, float(sdot - jet.value)
