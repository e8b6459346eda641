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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dsl as _dsl
from .jets import (CoordinateSpace, Jet, Tape, Taylor, _strides, expand, jet_from_taylor, stack,
                   taped_expansion)

__all__ = [
    "LagrangianSystem",
    "RegularityReport",
    "herglotz_residual",
]

# relative rank threshold: classify_velocity_hessian's, AlgorithmOptions.rank_tol's
# default and the pivot-margin floor of legendre_invert's Newton iteration
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
        # a table handed in is kept, not copied: a preset's closed forms
        # and its Lagrangian read the same values
        self.params = params if isinstance(params, _dsl.ParamTable) else _dsl.ParamTable(params or {})
        self.label = label
        self.space = CoordinateSpace.lagrangian(n)
        # (dim, order), or "value" for fn itself, -> (params when recorded,
        # the replay or None)
        self._tapes: dict = {}
        # the reads of the momentum constraints alone, which legendre_invert
        # and a one-generation ladder replay (pontryagin.momentum_reads)
        self._momentum_reads = None

    def taylor_on(self, space: CoordinateSpace, x, order: int) -> Taylor:
        """Evaluate on any layout whose leading slots are (t, q, v) with s
        last; this covers both the Lagrangian and the unified space.

        x is one point, or a (B, dim) stack of points: a stack gives the
        polynomial whose coefficients are (B,) arrays, each the one a
        single point gives, bit for bit.

        A single point runs live: the pointwise work on a closed ladder
        replays the ladder's own tape (pontryagin._ClosedReads).  The first
        stack per (layout, order) records the engine's work (jets.Tape), and
        later ones replay it.  A tape is stamped with the parameter values
        it was recorded with and recorded afresh after any of them changes,
        so one is held per (layout, order).  An fn that refuses recording
        runs live, point by point."""
        dim = space.dim
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != dim:
            raise ValueError(f"point has shape {x.shape}, expected ({dim},) or (B, {dim})")
        if x.ndim == 1:
            return expand(self._on(space), x, order)
        taped = self._held((dim, order), lambda: taped_expansion(self._on(space), dim, order))
        if taped is None:
            return stack([expand(self._on(space), xb, order) for xb in x])
        return taped(x.T)

    def _held(self, key, record: Callable):
        """The replay held under key, or None for a refused recording;
        record() makes it afresh when L's parameter values differ from
        those it was made with."""
        params = tuple(self.params.items())
        held = self._tapes.get(key)
        if held is None or held[0] != params:
            held = self._tapes[key] = (params, record())
        return held[1]

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
        operations a point performs, stamped and recorded afresh as
        taylor_on's tapes are.  An fn that refuses recording, or a stack
        whose replay raises, runs live point by point, so a stack raises
        what its first failing point raises."""
        if np.ndim(x) == 2:
            X = np.asarray(x, dtype=float)
            dim = self.space.dim
            if X.shape[1] != dim:
                raise ValueError(f"points have shape {X.shape}, expected (B, {dim})")
            on = self._on(self.space)
            tape = self._held("value", lambda: Tape.record(lambda z: [on(z)], dim))
            if tape is not None:
                try:
                    return tape(X.T)[0]
                except Exception:
                    pass  # the live run below raises what a point raises
            return np.array([self.value(xb) for xb in X], dtype=float)
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


def classify_velocity_hessian(W: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> RegularityReport:
    """The regularity report of a velocity Hessian W already in hand."""
    U, sigma, Vt = np.linalg.svd(np.array(W))
    smax = sigma[0] if len(sigma) else 0.0
    rank = int(np.sum(sigma > tol * smax)) if smax > 0 else 0
    nullspace = Vt[rank:].T.copy()
    verdict = "Regular" if rank == len(W) else "Singular"
    return RegularityReport(verdict, rank, nullspace, tol, sigma)


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
