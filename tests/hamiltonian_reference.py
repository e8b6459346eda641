"""Independent momentum-side reference for the tests.

The package derives its momentum description from the Lagrangian through
the fibre map (dynamics.HamiltonianField).  The tests check it against the
generic contact Hamiltonian equations on (t, q, p, s),

    tdot = 1,  qdot_i = dH/dp_i,  pdot_i = -(dH/dq_i + p_i dH/ds),
    sdot = p . dH/dp - H,

applied either to a hand-written Hamiltonian (HamiltonianSystem) or to the
one a Lagrangian induces (hamiltonian_from_lagrangian).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from cocontact.dynamics import legendre_invert
from cocontact.jets import Jet, Taylor, expand, jet_from_taylor
from cocontact.mechanics import LagrangianSystem


class HamiltonianSystem:
    """A Hamiltonian H(t, q, p, s) with n degrees of freedom.

    `fn(t, q, p, s, params)` follows the same seed-based evaluation
    contract as LagrangianSystem.fn.
    """

    def __init__(self, n: int, fn: Callable, params: dict | None = None, label: str = ""):
        self.n = int(n)
        if self.n < 1:
            raise ValueError(f"n must be positive, got {n}")
        self.fn = fn
        self.params = dict(params or {})
        self.label = label
        self.dim = 2 * self.n + 2

    def taylor(self, x: Sequence[float], order: int) -> Taylor:
        n = self.n
        if len(x) != self.dim:
            raise ValueError(f"point has length {len(x)}, expected {self.dim}")
        return expand(lambda z: self.fn(z[0], z[1 : 1 + n], z[1 + n : 1 + 2 * n], z[-1],
                                        self.params), x, order)

    def jet(self, x: Sequence[float], order: int) -> Jet:
        return jet_from_taylor(self.taylor(x, order), self.dim, order)

    def value(self, x: Sequence[float]) -> float:
        n = self.n
        out = self.fn(
            float(x[0]),
            [float(c) for c in x[1 : 1 + n]],
            [float(c) for c in x[1 + n : 1 + 2 * n]],
            float(x[-1]),
            self.params,
        )
        return out.value if isinstance(out, Taylor) else float(out)


def cocontact_hamiltonian_field(H, y) -> np.ndarray:
    """Evolution coefficients (tdot, qdot, pdot, sdot) at a momentum-space
    point, laid out like the point itself."""
    vec = np.asarray(y, dtype=float)
    n = H.n
    jet = H.jet(vec, 1)
    p = vec[1 + n : 1 + 2 * n]
    dH_dq = jet.grad[1 : 1 + n]
    dH_dp = jet.grad[1 + n : 1 + 2 * n]
    dH_ds = jet.grad[-1]
    out = np.empty(2 * n + 2)
    out[0] = 1.0
    out[1 : 1 + n] = dH_dp
    out[1 + n : 1 + 2 * n] = -(dH_dq + p * dH_ds)
    out[-1] = p @ dH_dp - jet.value
    return out


class _EnvelopeHamiltonian:
    """H(t, q, p, s) = p . v* - L at the recovered velocity v*.

    First derivatives come from the stationarity of p . v - L in v:
    dH/dp = v*, and dH/d(t, q, s) = -dL/d(t, q, s) at v*.  Only value and
    order-1 jets are supported; that is all the momentum-side evolution
    equations need.
    """

    def __init__(self, L: LagrangianSystem):
        self.L = L
        self.n = L.n
        self.label = f"legendre-dual({L.label})" if L.label else "legendre-dual"
        self._last_v: np.ndarray | None = None

    def _lift(self, yvec: np.ndarray) -> np.ndarray:
        v, _ = legendre_invert(self.L, yvec, v0=self._last_v)
        self._last_v = v
        n = self.n
        return np.concatenate((yvec[: 1 + n], v, yvec[-1:]))

    def value(self, y) -> float:
        yvec = np.asarray(y, dtype=float)
        lag = self._lift(yvec)
        n = self.n
        p = yvec[1 + n : 1 + 2 * n]
        return float(p @ lag[1 + n : 1 + 2 * n] - self.L.value(lag))

    def jet(self, y, order: int) -> Jet:
        if order != 1:
            raise ValueError("the dual Hamiltonian supports order-1 jets only")
        yvec = np.asarray(y, dtype=float)
        lag = self._lift(yvec)
        n = self.n
        v = lag[1 + n : 1 + 2 * n]
        p = yvec[1 + n : 1 + 2 * n]
        lj = self.L.jet(lag, 1)
        grad = np.empty(2 * n + 2)
        grad[0] = -lj.grad[0]
        grad[1 : 1 + n] = -lj.grad[1 : 1 + n]
        grad[1 + n : 1 + 2 * n] = v
        grad[-1] = -lj.grad[-1]
        return Jet(1, float(p @ v - lj.value), grad, None, None)


def hamiltonian_from_lagrangian(L: LagrangianSystem) -> _EnvelopeHamiltonian:
    """Momentum-side description induced by a (regular) Lagrangian."""
    return _EnvelopeHamiltonian(L)
