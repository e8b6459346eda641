"""The closed field's numpy tail as it was written before the tapes emitted
its reads in their final layout: a reference for the tests.

`pontryagin._reads` returned L's order-2 coefficients and each
constraint's value and gradient; `unpack` and `order2_from` re-laid them
out as arrays, and `field` formed D, the coefficient template, the SVD
and C, and concatenated the coefficient vector.  The momentum side's
Newton lift read L's order-2 data by `Taylor.gradient`, `hessian_block`
and `read_order2`, and the velocity lift took the momenta from L's
expansion at 1 + the deepest generation.  Here all of it runs live,
point by point, on a fresh workspace.  The tests assert that the package
gives the same arrays, bit for bit.

`implicit_C` is the momentum side's own formula for C from before every
description shared the tail: an independent check of the tail's C there.

`pick_columns` and `kernel_q_indices` are the two SVD-based choices that
discovery and the projection made before one column-pivoted Gram-Schmidt
(pontryagin._pivots) made both: the greedy column subset that maximises
the smallest singular value, one SVD per candidate, and the
configuration coordinates paired with the SVD nullspace of d2L/dv dv.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from cocontact.dynamics import FIELDS, NonInvertibleLegendre
from cocontact.jets import CoordinateSpace, Taylor, _strides
from cocontact.pontryagin import RANK_TOL, ZCoefficients, _Workspace
from lagrangian_reference import classify_velocity_hessian


def hessian_block(t: Taylor, rows: Sequence[int], cols: Sequence[int]) -> np.ndarray:
    """Second partials d2f/dx_i dx_j of t for i in rows, j in cols, read
    off the degree-2 coefficients (order >= 2)."""
    if t.order < 2:
        raise ValueError("a Hessian needs truncation order >= 2")
    strides = _strides(max(max(rows), max(cols)) + 1)
    out = np.empty((len(rows), len(cols)))
    for a, i in enumerate(rows):
        for b, j in enumerate(cols):
            c = t.terms.get(strides[i] + strides[j], 0.0)
            out[a, b] = 2.0 * c if i == j else c
    return out


def order2_keys(space: CoordinateSpace) -> tuple[int, ...]:
    """The value, the gradient on `space`, then the block d2L/dx dv at
    x = (t, q, v, s), row-major, as keys."""
    n = space.n
    strides = _strides(space.dim)
    x = [*range(1 + 2 * n), space.s_index]
    return (0, *strides[: space.dim],
            *(strides[i] + strides[j] for i in x for j in range(1 + n, 1 + 2 * n)))


def order2_from(raw, space: CoordinateSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gradient on `space`, d2L/dx dv of shape (2n+2, n), flat data)."""
    n = space.n
    raw = np.asarray(raw, dtype=float)
    grad = raw[1 : 1 + space.dim]
    hess = raw[1 + space.dim :].reshape(2 * n + 2, n).copy()
    # a diagonal second partial is twice its Taylor coefficient
    diag = np.arange(n)
    hess[1 + n + diag, diag] *= 2.0
    x = [*range(1 + 2 * n), space.s_index]
    return grad, hess, np.concatenate((raw[:1], grad[x], hess.ravel()))


def read_order2(expansion, space: CoordinateSpace):
    t = expansion.terms
    return order2_from([t.get(k, 0.0) for k in order2_keys(space)], space)


def reads(ws: _Workspace, constraints) -> list:
    """L's order-2 coefficients, then each constraint's value and gradient."""
    dim = ws.space.dim
    L2 = ws.L_taylor(2).terms
    out = [L2.get(k, 0.0) for k in order2_keys(ws.space)]
    keys = (0, *_strides(dim)[:dim])
    for c in constraints:
        t = ws.xi_taylor(c, 1).terms
        out += [t.get(k, 0.0) for k in keys]
    return out


def unpack(space: CoordinateSpace, raw, R: int):
    K = len(order2_keys(space))
    L_grad, _, L_data = order2_from(raw[:K], space)
    xi = np.array(raw[K:], dtype=float).reshape(R, space.dim + 1)
    return xi[:, 0].copy(), xi[:, 1:].copy(), L_grad, L_data


def field(w, values, grads, L_grad, L_data) -> ZCoefficients:
    n = (len(w) - 2) // 3
    D = L_grad[1 : 1 + n] + w[1 + 2 * n : 1 + 3 * n] * L_grad[-1]
    E = float(L_data[0])
    M = grads[:, 1 + n : 1 + 2 * n]
    g = grads @ np.concatenate(([1.0], w[1 + n : 1 + 2 * n], np.zeros(n), D, [E]))
    U, sigma, Vt = np.linalg.svd(M, full_matrices=True)
    smax = sigma[0] if len(sigma) else 0.0
    rank = int(np.sum(sigma > RANK_TOL * smax)) if smax > 0 else 0
    C = -Vt[:rank].T @ ((U[:, :rank].T @ g) / sigma[:rank])
    coeffs = np.concatenate(([1.0], w[1 + n : 1 + 2 * n].copy(), C, D, [E]))
    return ZCoefficients(coeffs, Vt[rank:].T.copy(), values, L_data)


def reference_Z(L, w, ladder) -> ZCoefficients:
    """assemble_Z at one point, its reads live on a fresh workspace."""
    active = ladder.active()
    space = CoordinateSpace.unified(L.n)
    order = 1 + max(c.generation for c in active)
    ws = _Workspace(L, w, active, 1, L.taylor_on(space, w, order))
    return field(w, *unpack(space, reads(ws, active), len(active)))


def legendre_invert(L, y, v0=None, tol: float = 1e-12, max_iter: int = 60):
    n = L.n
    yvec = np.asarray(y, dtype=float)
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    w = np.concatenate((yvec[: 1 + n], v, yvec[1 + n :]))
    space = CoordinateSpace.unified(n)
    vs = slice(1 + n, 1 + 2 * n)
    vi = range(1 + n, 1 + 2 * n)
    p = w[1 + 2 * n : 1 + 3 * n]
    for _ in range(max_iter):
        expansion = L.taylor_on(space, w, 2)
        F = expansion.gradient(1 + 2 * n)[vs] - p
        if np.max(np.abs(F)) <= tol:
            return w[vs].copy(), expansion
        U, sigma, Vt = np.linalg.svd(hessian_block(expansion, vi, vi))
        if sigma[-1] <= 1e-12 * max(sigma[0], 1.0):
            raise NonInvertibleLegendre(
                f"velocity Hessian is singular (sigma_min = {sigma[-1]:.2e})"
            )
        w[vs] -= Vt.T @ ((U.T @ F) / sigma)
    raise NonInvertibleLegendre(
        f"velocity recovery did not converge within {max_iter} iterations"
    )


def implicit_C(L, w) -> np.ndarray:
    """C at a momentum-side lift w, from implicit differentiation of
    dL/dv = p along the lifted curve: d2L/dv dv C = D - d2L/dv dx . x' for
    x = (t, q, s), x' = (1, v, E)."""
    n = L.n
    space = CoordinateSpace.unified(n)
    v, p = w[1 + n : 1 + 2 * n], w[1 + 2 * n : 1 + 3 * n]
    qs, vs = slice(1, 1 + n), slice(1 + n, 1 + 2 * n)
    grad, H, L_data = read_order2(L.taylor_on(space, w, 2), space)
    D = grad[qs] + p * grad[-1]
    rhs = D - (H[0] + v @ H[qs] + L_data[0] * H[-1])
    return np.linalg.solve(H[vs], rhs)


def reference_field(kind: str):
    """The description's field class with the tail above, each evaluation
    expanding L afresh; the velocity lift takes the momenta from L's
    expansion at 1 + the deepest generation, the momentum lift is the
    Newton iteration above.  Projections are the package's."""

    class Reference(FIELDS[kind]):
        def lift(self, state):
            n = self.L.n
            if kind == "unified":
                return state
            if kind == "hamiltonian":
                v, _ = legendre_invert(self.L, state, v0=self._last_v)
                self._last_v = v
                return np.concatenate((state[: 1 + n], v, state[1 + n : 1 + 2 * n], state[-1:]))
            w = np.concatenate((state[: 1 + 2 * n], np.zeros(n), state[-1:]))
            order = 1 + max(c.generation for c in self.ladder.active())
            expansion = self.L.taylor_on(CoordinateSpace.unified(n), w, order)
            w[1 + 2 * n : 1 + 3 * n] = expansion.gradient(1 + 2 * n)[1 + n :]
            return w

        def eval(self, state):
            # the reads in the tail's layout, as far as an integrator reads
            # them: constraint values, coefficient vector and L data
            w = self.lift(np.asarray(state, dtype=float))
            Z = reference_Z(self.L, w, self.ladder)
            xi = Z.constraint_values.tolist()
            raw = [*xi, *[0.0] * (len(xi) * len(w)), *Z.coeffs.tolist(), *Z.L_data.tolist()]
            return self._drop(Z.coeffs.tolist()), w.tolist(), raw

    return Reference


def pick_columns(A: np.ndarray) -> list[int]:
    """Greedy well-conditioned column subset making A[:, cols] square."""
    m, n = A.shape
    cols: list[int] = []
    for _ in range(m):
        best, best_sv = None, -1.0
        for j in range(n):
            if j in cols:
                continue
            sv = np.linalg.svd(A[:, cols + [j]], compute_uv=False)[-1]
            if sv > best_sv:
                best, best_sv = j, sv
        cols.append(best)
    return cols


def kernel_q_indices(W: np.ndarray) -> list[int]:
    """Configuration coordinates paired with the kernel of the velocity
    Hessian W = d2L/dv dv: for each nullspace vector, its largest entry."""
    nullspace = classify_velocity_hessian(W).nullspace
    return sorted({int(np.argmax(np.abs(nullspace[:, k]))) for k in range(nullspace.shape[1])})
