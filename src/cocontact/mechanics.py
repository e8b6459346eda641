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
from .jets import CoordinateSpace, Jet, Taylor, expand, jet_from_taylor

__all__ = [
    "LagrangianSystem",
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
        return expand(lambda z: self.fn(z[0], z[1 : 1 + n], z[1 + n : 1 + 2 * n],
                                        z[space.s_index], self.params), x, order)

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


def _as_lvec(L: LagrangianSystem, x) -> np.ndarray:
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


def legendre_map(L: LagrangianSystem, x) -> np.ndarray:
    """Fibre derivative (t, q, v, s) -> (t, q, dL/dv, s); defined for any L."""
    vec = _as_lvec(L, x)
    n = L.n
    p = L.jet(vec, 1).grad[1 + n : 1 + 2 * n]
    return np.concatenate((vec[: 1 + n], p, vec[-1:]))


def regularity(L: LagrangianSystem, x, tol: float = DEFAULT_RANK_TOL) -> RegularityReport:
    """Classify L at a point by the rank of W = d2L/dv dv.

    The rank threshold is relative: singular values below tol * sigma_max
    count as zero.
    """
    vec = _as_lvec(L, x)
    sl = slice(1 + L.n, 1 + 2 * L.n)
    return classify_velocity_hessian(L.jet(vec, 2).hess[sl, sl], tol)


def classify_velocity_hessian(W: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> RegularityReport:
    """The regularity report of a velocity Hessian W already in hand."""
    U, sigma, Vt = np.linalg.svd(np.array(W))
    smax = sigma[0] if len(sigma) else 0.0
    rank = int(np.sum(sigma > tol * smax)) if smax > 0 else 0
    nullspace = Vt[rank:].T.copy()
    verdict = "Regular" if rank == len(W) else "Singular"
    return RegularityReport(verdict, rank, nullspace, tol, sigma)


def pack_order2(value: float, grad: np.ndarray, hess_xv: np.ndarray) -> np.ndarray:
    """L's order-2 data at a velocity-side point x = (t, q, v, s), packed
    flat as [L, dL/dx (2n+2), d2L/dx dv ((2n+2) x n, row-major)]: all the
    Herglotz defect reads."""
    return np.concatenate(([value], grad, np.ravel(hess_xv)))


def order2_of_jet(jet: Jet) -> np.ndarray:
    """pack_order2 of an order-2 jet on the velocity-side space."""
    n = (len(jet.grad) - 2) // 2
    return pack_order2(jet.value, jet.grad, jet.hess[:, 1 + n : 1 + 2 * n])


def herglotz_defect(x, order2, accel, sdot) -> tuple[np.ndarray, np.ndarray]:
    """The Herglotz defect, batched over any leading axes.

    x (..., 2n+2) are velocity-side points, order2 L's packed data there
    (pack_order2), accel (..., n) and sdot (...) the candidate rates.
    Returns the (..., n) vector

        d/dt(dL/dv_i) - dL/dq_i - (dL/ds)(dL/dv_i)

    with the total time derivative expanded along (1, v, accel, sdot), and
    the (...) scalar sdot - L.  Both vanish along true motions.
    """
    x = np.asarray(x, dtype=float)
    order2 = np.asarray(order2, dtype=float)
    m = x.shape[-1]
    n = (m - 2) // 2
    qs = slice(1, 1 + n)
    vs = slice(1 + n, 1 + 2 * n)
    grad = order2[..., 1 : 1 + m]
    H = order2[..., 1 + m :].reshape(order2.shape[:-1] + (m, n))  # d2L/dx dv
    sdot = np.asarray(sdot, dtype=float)
    # row-vector products: (..., 1, n) @ (..., n, n)
    total = (
        H[..., 0, :]
        + (x[..., None, vs] @ H[..., qs, :])[..., 0, :]
        + (np.asarray(accel, dtype=float)[..., None, :] @ H[..., vs, :])[..., 0, :]
        + sdot[..., None] * H[..., -1, :]
    )
    vector = total - grad[..., qs] - grad[..., -1:] * grad[..., vs]
    return vector, sdot - order2[..., 0]


def herglotz_residual(L: LagrangianSystem, x, accel, sdot: float) -> tuple[np.ndarray, float]:
    """Defect of a candidate motion against the damped Euler-Lagrange
    equations at one state: herglotz_defect from one order-2 jet of L."""
    vec = _as_lvec(L, x)
    accel = _vectorize("accel", accel, L.n)
    vector, scalar = herglotz_defect(vec, order2_of_jet(L.jet(vec, 2)), accel, sdot)
    return vector, float(scalar)
