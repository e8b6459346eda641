"""Velocity-side helpers that only the tests use.

The energy, the fibre map and the regularity verdict of a Lagrangian at a
velocity-side point x = (t, q, v, s), each from one jet of L.  The package
itself reads these quantities off the expansions its pipeline already
makes; the tests use the helpers as independent references.  The
regularity verdict comes from an SVD of the velocity Hessian
(classify_velocity_hessian), which the package once ran per projection
to find the multiplier-like coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cocontact.mechanics import LagrangianSystem, _as_lvec
from cocontact.pontryagin import RANK_TOL


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


def classify_velocity_hessian(W: np.ndarray, tol: float = RANK_TOL) -> RegularityReport:
    """The regularity report of a velocity Hessian W already in hand."""
    U, sigma, Vt = np.linalg.svd(np.array(W))
    smax = sigma[0] if len(sigma) else 0.0
    rank = int(np.sum(sigma > tol * smax)) if smax > 0 else 0
    nullspace = Vt[rank:].T.copy()
    verdict = "Regular" if rank == len(W) else "Singular"
    return RegularityReport(verdict, rank, nullspace, tol, sigma)


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


def regularity(L: LagrangianSystem, x, tol: float = RANK_TOL) -> RegularityReport:
    """Classify L at a point by the rank of W = d2L/dv dv.

    The rank threshold is relative: singular values below tol * sigma_max
    count as zero.
    """
    vec = _as_lvec(L, x)
    sl = slice(1 + L.n, 1 + 2 * L.n)
    return classify_velocity_hessian(L.jet(vec, 2).hess[sl, sl], tol)


def order2_reference(L: LagrangianSystem, x) -> np.ndarray:
    """L's flat order-2 data [L, dL/dx, d2L/dx dv] at x, built from a dense
    order-2 jet rather than by coefficient lookups (mechanics.read_order2)."""
    vec = _as_lvec(L, x)
    jet = L.jet(vec, 2)
    vs = slice(1 + L.n, 1 + 2 * L.n)
    return np.concatenate(([jet.value], jet.grad, jet.hess[:, vs].ravel()))
