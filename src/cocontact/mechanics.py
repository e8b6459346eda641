"""Single-system mechanics, all derived from one Lagrangian.

A Lagrangian here depends on time, position, velocity and the action-level
coordinate s, so dissipative and explicitly time-dependent systems are
first-class: L(t, q, v, s).  The equations of motion replace the classical
Euler-Lagrange equations by

    d/dt (dL/dv_i) - dL/dq_i = (dL/ds) (dL/dv_i),       sdot = L.

The momentum side (t, q, p, s) is not a second input: its points are the
image of the fibre derivative p = dL/dv.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from . import dsl as _dsl
from .jets import (CoordinateSpace, Jet, Tape, Taylor, _strides, expand, jet_from_taylor,
                   taped_expansion)

__all__ = [
    "LagrangianSystem",
    "herglotz_residual",
]

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
        # fixed when built, so a recording of fn holds for the system's
        # life; a table handed in is kept: a preset's params is its L's
        self.params = params if isinstance(params, _dsl.ParamTable) else _dsl.ParamTable(params or {})
        self.label = label
        self.space = CoordinateSpace.lagrangian(n)
        # recorded once, replayed after: (dim, order) -> a stack's expansion,
        # "value" -> fn's tape, "momentum" -> pontryagin.momentum_reads(L)
        self._tapes: dict = {}

    def taylor_on(self, space: CoordinateSpace, x, order: int) -> Taylor:
        """Evaluate on any layout whose leading slots are (t, q, v) with s
        last; this covers both the Lagrangian and the unified space.

        x is one point, or a (B, dim) stack of points: a stack gives the
        polynomial whose coefficients are (B,) arrays, each the one a
        single point gives, bit for bit.

        A single point runs live: the pointwise work on a closed ladder
        replays the ladder's own tape (pontryagin._ClosedReads).  The first
        stack per (layout, order) records the engine's work
        (jets.taped_expansion), and later ones replay it; an fn that
        refuses recording runs live, point by point."""
        dim = space.dim
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != dim:
            raise ValueError(f"point has shape {x.shape}, expected ({dim},) or (B, {dim})")
        if x.ndim == 1:
            return expand(self._on(space), x, order)
        return self._held((dim, order), lambda: taped_expansion(self._on(space), dim, order))(x.T)

    def _held(self, key, make: Callable):
        """What make() gives, made at the first call per key and held."""
        if key not in self._tapes:
            self._tapes[key] = make()
        return self._tapes[key]

    def _on(self, space: CoordinateSpace) -> Callable:
        """fn as a function of one point of `space`."""
        n = self.n
        return lambda z: self.fn(z[0], z[1 : 1 + n], z[1 + n : 1 + 2 * n],
                                 z[space.s_index], self.params)

    def taylor(self, x, order: int) -> Taylor:
        return self.taylor_on(self.space, x, order)

    def jet(self, x, order: int) -> Jet:
        """L's jet at a point, or at a (B, dim) stack (a leading batch
        axis on every entry)."""
        return jet_from_taylor(self.taylor(x, order), self.space.dim, order)

    def value(self, x: Sequence[float]) -> float | np.ndarray:
        """L at a point (t, q, v, s), a float from fn on floats; or at a
        (B, dim) stack of points, a (B,) array, each entry the point's bit
        for bit.  A stack replays a recording of fn (jets.Tape), the float
        operations a point performs; a replay that raises on the stack
        replays point by point, so a stack raises what its first failing
        point raises.  An fn that refuses recording runs live point by
        point."""
        on = self._on(self.space)
        if np.ndim(x) == 2:
            X = np.asarray(x, dtype=float)
            dim = self.space.dim
            if X.shape[1] != dim:
                raise ValueError(f"points have shape {X.shape}, expected (B, {dim})")
            return self._held("value", lambda: Tape.record(lambda z: [on(z)], dim))(X.T)[0]
        out = on([float(c) for c in x])
        return out.value if isinstance(out, Taylor) else float(out)

    @staticmethod
    def from_expr(expr, params: dict | None = None, label: str = "") -> "LagrangianSystem":
        """Build a system from a parsed (t, q, v, s) expression.

        Every parameter of the expression needs a value in `params`
        (UnknownParameterError otherwise).  The system reads them from its
        own table, fixed from then on.
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


def _as_lvec(L: LagrangianSystem, x) -> np.ndarray:
    vec = np.asarray(x, dtype=float)
    if vec.shape != (2 * L.n + 2,):
        raise ValueError(f"expected a point of length {2 * L.n + 2}")
    return vec


@functools.cache
def order2_gather(space: CoordinateSpace) -> tuple[tuple[int, ...], np.ndarray]:
    """Where L's flat order-2 data sits in an expansion on `space`, the
    velocity side or the mixed space: the keys of [L, dL/dx, d2L/dx dv] at
    x = (t, q, v, s), the block row-major, and the factor that turns each
    coefficient into its derivative (2 on a diagonal second partial
    d2L/dv_i dv_i, 1 elsewhere)."""
    n = space.n
    strides = _strides(space.dim)
    x = [*range(1 + 2 * n), space.s_index]
    v = range(1 + n, 1 + 2 * n)
    keys = (0, *(strides[i] for i in x), *(strides[i] + strides[j] for i in x for j in v))
    scale = np.array([1.0] * (3 + 2 * n) + [2.0 if i == j else 1.0 for i in x for j in v])
    scale.flags.writeable = False  # shared by every caller
    return keys, scale


def read_order2(expansion: Taylor, space: CoordinateSpace) -> np.ndarray:
    """L's order-2 data, read off its expansion (order >= 2) on `space`, the
    velocity side or the mixed space, flat as the Herglotz defect reads it:
    [L, dL/dx, d2L/dx dv] at the velocity side x = (t, q, v, s), the
    (2n+2, n) block row-major.  One gathered array: a coefficient lookup
    per entry, scaled by order2_gather's factors."""
    if expansion.order < 2:
        raise ValueError("a Hessian needs truncation order >= 2")
    keys, scale = order2_gather(space)
    t = expansion.terms
    return np.array([t.get(k, 0.0) for k in keys]) * scale


def order2_parts(order2: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """dL/dx, shape (..., 2n+2), and d2L/dx dv, shape (..., 2n+2, n), in
    read_order2's flat data, batched over any leading axes."""
    m = 2 * n + 2
    return order2[..., 1 : 1 + m], order2[..., 1 + m :].reshape(order2.shape[:-1] + (m, n))


def herglotz_defect(x, order2, accel, sdot) -> tuple[np.ndarray, np.ndarray]:
    """The Herglotz defect, batched over any leading axes.

    x (..., 2n+2) are velocity-side points, order2 L's flat data there
    (read_order2), accel (..., n) and sdot (...) the candidate rates.
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
    grad, H = order2_parts(order2, n)
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
    equations at one state: herglotz_defect from one order-2 expansion of L."""
    vec = _as_lvec(L, x)
    accel = _vectorize("accel", accel, L.n)
    order2 = read_order2(L.taylor(vec, 2), L.space)
    vector, scalar = herglotz_defect(vec, order2, accel, sdot)
    return vector, float(scalar)
