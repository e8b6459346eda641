"""Constraint algorithm on the mixed velocity-momentum phase space.

States live on the bundle with coordinates (t, q, v, p, s): velocities and
momenta are independent until constraints tie them together.  The dynamical
field has the form

    Z = d/dt + B_i d/dq_i + C_i d/dv_i + D_i d/dp_i + E d/ds

with A = 1 fixed, B = v (second-order condition, exact by construction),
D_i = dL/dq_i + p_i dL/ds and E = L.  The C coefficients are whatever makes
Z tangent to the constraint submanifold, and the algorithm discovers that
submanifold generation by generation:

  generation 1: xi_j = p_j - dL/dv_j  (momenta match the fibre derivative)
  generation k+1: for every active constraint, the rate of change along Z
      splits into a part fixed by the state and a part depending linearly
      on C.  Rows of that linear system which are dependent on earlier rows
      leave a scalar obstruction; each obstruction that does not already
      vanish on the constraint set is a new constraint.

A new constraint is represented exactly, not by symbolic algebra but by a
recipe: subtract from its source row's rate the combination of earlier
basis rows' rates that reproduced the source row, with the combination
coefficients re-solved at every evaluation point through a pivot pattern
frozen when the constraint was born.  This keeps each constraint a smooth
scalar field near its birth point, evaluable to any jet order the Taylor
layer supports.  Evaluating a generation-g constraint to order k consumes
the Lagrangian to order g + k, which is why the Taylor layer does not stop
at order 3.

An obstruction counts as new when its value at the probe point exceeds the
tolerance, or, failing that, when its gradient has a component transverse
to the span of the active constraints' gradients.  The second clause
matters at special points that happen to satisfy a constraint before it is
discovered; the first clause alone would close the ladder early there.  An
obstruction with a significant value but a vanishing gradient cannot be
satisfied anywhere nearby: the system is reported Incompatible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .jets import ORDER_CAP, CoordinateSpace, Jet, Taylor, jet_from_taylor
from .mechanics import LagrangianSystem, regularity

__all__ = [
    "PontryaginPoint",
    "lagrangian_part",
    "hamiltonian_part",
    "ZCoefficients",
    "ConstraintFn",
    "ConstraintLadder",
    "AlgorithmOptions",
    "InfeasiblePoint",
    "NumericalBreakdown",
    "LadderNotClosed",
    "primary_constraints",
    "constraint_values",
    "project_onto",
    "assemble_Z",
    "run_constraint_algorithm",
]


class InfeasiblePoint(ValueError):
    """The point does not lie on (and cannot be projected onto) the
    constraint submanifold."""


class NumericalBreakdown(ArithmeticError):
    """A linear solve inside the algorithm lost all conditioning."""


class LadderNotClosed(RuntimeError):
    """An operation needed a closed ladder but the algorithm stopped with
    Incompatible or MaxIterations."""


@dataclass(frozen=True)
class PontryaginPoint:
    """A state (t, q, v, p, s) of the mixed phase space."""

    t: float
    q: np.ndarray
    v: np.ndarray
    p: np.ndarray
    s: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(-1)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        p = np.asarray(self.p, dtype=float).reshape(-1)
        if not (len(q) == len(v) == len(p)):
            raise ValueError("q, v, p must have equal lengths")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "p", p)
        vec = self.as_vector()
        if not np.all(np.isfinite(vec)):
            raise ValueError("point has non-finite entries")

    @property
    def n(self) -> int:
        return len(self.q)

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.t], self.q, self.v, self.p, [self.s]))

    @staticmethod
    def from_vector(n: int, vec: Sequence[float]) -> "PontryaginPoint":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (3 * n + 2,):
            raise ValueError(f"expected length {3 * n + 2}, got {vec.shape}")
        return PontryaginPoint(
            vec[0], vec[1 : 1 + n], vec[1 + n : 1 + 2 * n], vec[1 + 2 * n : 1 + 3 * n], vec[-1]
        )


def lagrangian_part(w: np.ndarray, n: int) -> np.ndarray:
    """Drop the momentum block: (t, q, v, s), or coefficients (A, B, C, E)."""
    return np.concatenate((w[: 1 + 2 * n], w[-1:]))


def hamiltonian_part(w: np.ndarray, n: int) -> np.ndarray:
    """Drop the velocity block: (t, q, p, s), or coefficients (A, B, D, E)."""
    return np.concatenate((w[: 1 + n], w[1 + 2 * n : 1 + 3 * n], w[-1:]))


@dataclass(frozen=True)
class ZCoefficients:
    """Coefficients of the dynamical field at one point.

    undetermined holds an orthonormal basis (columns) of the C-directions
    the tangency conditions leave free; C itself carries the minimum-norm
    choice, i.e. zero component along those directions.  constraint_values
    holds the value of every ladder constraint at the point, in
    ladder.active() order: the assembly expands each one anyway, so
    callers need not evaluate them again.
    """

    A: float
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: float
    undetermined: np.ndarray  # shape (n, k), k >= 0
    constraint_values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.A], self.B, self.C, self.D, [self.E]))


def _as_wvec(n: int, w) -> np.ndarray:
    if isinstance(w, PontryaginPoint):
        return w.as_vector()
    vec = np.asarray(w, dtype=float)
    if vec.shape != (3 * n + 2,):
        raise ValueError(f"expected a unified-space point of length {3 * n + 2}")
    return vec


# -- evaluation workspace ----------------------------------------------


class _Workspace:
    """Per-point cache of Taylor expansions shared by every constraint.

    Evaluating a deep ladder revisits the same polynomials at several
    orders.  Expansions are cached per object, and a request at order k is
    served by truncating any cached expansion of order >= k (exact, since
    both expand the same function at the same point)."""

    def __init__(self, L: LagrangianSystem, wvec: np.ndarray):
        self.L = L
        self.n = L.n
        self.w = np.asarray(wvec, dtype=float)
        self.space = CoordinateSpace.unified(L.n)
        self._seeds: dict[int, list[Taylor]] = {}
        self._L: dict[int, Taylor] = {}
        # keyed by the constraint object itself: keeps it alive for the
        # workspace lifetime, so recycled object ids cannot alias entries
        self._xi: dict["ConstraintFn", dict[int, Taylor]] = {}
        self._D: dict[tuple[int, int], Taylor] = {}

    def seeds(self, order: int) -> list[Taylor]:
        out = self._seeds.get(order)
        if out is None:
            out = [Taylor.variable(order, i, self.w[i]) for i in range(self.space.dim)]
            self._seeds[order] = out
        return out

    @staticmethod
    def _from_cache(cache: dict[int, Taylor], order: int) -> Taylor | None:
        hit = cache.get(order)
        if hit is not None:
            return hit
        higher = [k for k in cache if k > order]
        if higher:
            out = cache[min(higher)].truncated(order)
            cache[order] = out
            return out
        return None

    def L_taylor(self, order: int) -> Taylor:
        out = self._from_cache(self._L, order)
        if out is None:
            out = self.L.taylor_on(self.space, self.w, order)
            self._L[order] = out
        return out

    def xi_taylor(self, c: "ConstraintFn", order: int) -> Taylor:
        cache = self._xi.setdefault(c, {})
        out = self._from_cache(cache, order)
        if out is None:
            out = c._taylor(self, order)
            cache[order] = out
        return out

    def D_taylor(self, i: int, order: int) -> Taylor:
        """Momentum coefficient D_i = dL/dq_i + p_i dL/ds as a polynomial."""
        key = (i, order)
        out = self._D.get(key)
        if out is None:
            Lt = self.L_taylor(order + 1)
            p_i = self.seeds(order)[1 + 2 * self.n + i]
            out = Lt.partial(1 + i) + p_i * Lt.partial(self.space.s_index)
            self._D[key] = out
        return out


class ConstraintFn:
    """A scalar constraint on the mixed phase space.

    generation 1 instances are the momentum constraints p_j - dL/dv_j;
    later generations are tangency obstructions built from their parents.
    """

    def __init__(self, L: LagrangianSystem, generation: int, label: str):
        self.L = L
        self.generation = generation
        self.label = label

    def _taylor(self, ws: _Workspace, order: int) -> Taylor:
        raise NotImplementedError

    def taylor(self, ws: _Workspace, order: int) -> Taylor:
        return ws.xi_taylor(self, order)

    def __call__(self, w) -> float:
        ws = _Workspace(self.L, _as_wvec(self.L.n, w))
        return self.taylor(ws, 0).value

    def jet(self, w, order: int) -> Jet:
        ws = _Workspace(self.L, _as_wvec(self.L.n, w))
        return jet_from_taylor(self.taylor(ws, order), ws.space.dim, order)


class _PrimaryConstraint(ConstraintFn):
    def __init__(self, L: LagrangianSystem, j: int):
        super().__init__(L, 1, f"p{j + 1} - dL/dv{j + 1}")
        self.j = j

    def _taylor(self, ws: _Workspace, order: int) -> Taylor:
        p_j = ws.seeds(order)[1 + 2 * ws.n + self.j]
        return p_j - ws.L_taylor(order + 1).partial(1 + ws.n + self.j)


def _rate_taylor(ws: _Workspace, c: ConstraintFn, order: int) -> Taylor:
    """Known part of the rate of c along Z: every term of grad(c) . Z except
    the C d/dv block, as a polynomial of the requested order."""
    n = ws.n
    xt = ws.xi_taylor(c, order + 1)
    seeds = ws.seeds(order)
    out = xt.partial(0)
    for i in range(n):
        dxi_dqi = xt.partial(1 + i)
        if dxi_dqi.terms:
            out = out + seeds[1 + n + i] * dxi_dqi
    for i in range(n):
        dxi_dpi = xt.partial(1 + 2 * n + i)
        if dxi_dpi.terms:
            out = out + ws.D_taylor(i, order) * dxi_dpi
    dxi_ds = xt.partial(ws.space.s_index)
    if dxi_ds.terms:
        out = out + ws.L_taylor(order) * dxi_ds
    return out


def _v_row_taylor(ws: _Workspace, c: ConstraintFn, order: int) -> list[Taylor]:
    """The C-facing row of c's tangency condition: [dc/dv_1 .. dc/dv_n]."""
    xt = ws.xi_taylor(c, order + 1)
    return [xt.partial(1 + ws.n + i) for i in range(ws.n)]


def _elimination_order(G: np.ndarray) -> list[int]:
    """Row pivot sequence of Gauss-Jordan elimination on square G, chosen
    by partial pivoting at these (birth) values."""
    G = G.astype(float).copy()
    m = len(G)
    remaining = list(range(m))
    orderseq: list[int] = []
    for col in range(m):
        pick = max(remaining, key=lambda r: abs(G[r, col]))
        if G[pick, col] == 0.0:
            raise NumericalBreakdown("pivot collapsed while freezing a closure")
        orderseq.append(pick)
        remaining.remove(pick)
        for r in range(m):
            if r != pick and G[r, col] != 0.0:
                f = G[r, col] / G[pick, col]
                G[r, col:] -= f * G[pick, col:]
    return orderseq


def _solve_frozen(G_rows: list[list], rhs: list, orderseq: list[int], tiny: float):
    """Solve G x = rhs by Gauss-Jordan with a fixed pivot sequence.

    Entries may be Taylor polynomials or floats; divisions go through the
    Taylor reciprocal.  A pivot whose value falls below `tiny` means the
    frozen pattern stopped being valid at this point.
    """
    m = len(rhs)
    G = [list(row) for row in G_rows]
    b = list(rhs)
    for col, prow in enumerate(orderseq):
        piv = G[prow][col]
        pval = piv.value if isinstance(piv, Taylor) else piv
        if abs(pval) < tiny:
            raise NumericalBreakdown(
                f"frozen pivot {pval:.3e} below {tiny:.1e}; closure pattern lost"
            )
        inv = 1.0 / piv
        G[prow] = [g * inv for g in G[prow]]
        b[prow] = b[prow] * inv
        for r in range(m):
            if r != prow:
                f = G[r][col]
                nonzero = bool(f.terms) if isinstance(f, Taylor) else (f != 0.0)
                if nonzero:
                    G[r] = [gr - f * gp for gr, gp in zip(G[r], G[prow])]
                    b[r] = b[r] - f * b[prow]
    x = [None] * m
    for col, prow in enumerate(orderseq):
        x[col] = b[prow]
    return x


class _DerivedConstraint(ConstraintFn):
    """Obstruction scalar of a dependent tangency row.

    At birth, row `source` was (numerically) a combination of the rows of
    `basis`; the obstruction is

        rate(source) - sum_i c_i rate(basis_i)

    with c re-solved at every evaluation point from the recorded pivot
    columns.  Wherever the dependence persists, this equals the rate of
    change of `source` along any field satisfying the earlier tangency
    conditions, so it must vanish on the final submanifold.
    """

    def __init__(
        self,
        L: LagrangianSystem,
        generation: int,
        source: ConstraintFn,
        basis: list[ConstraintFn],
        pivot_cols: list[int],
        orderseq: list[int],
        pivot_tiny: float,
    ):
        label = f"rate({source.label})"
        if basis:
            label += f" mod {len(basis)} rows"
        super().__init__(L, generation, label)
        self.source = source
        self.basis = basis
        self.pivot_cols = pivot_cols
        self.orderseq = orderseq
        self.pivot_tiny = pivot_tiny

    def _taylor(self, ws: _Workspace, order: int) -> Taylor:
        g_src = _rate_taylor(ws, self.source, order)
        if not self.basis:
            return g_src
        rows = [_v_row_taylor(ws, c, order) for c in self.basis]
        src_row = _v_row_taylor(ws, self.source, order)
        G = [[rows[i][j] for i in range(len(self.basis))] for j in self.pivot_cols]
        rhs = [src_row[j] for j in self.pivot_cols]
        coeffs = _solve_frozen(G, rhs, self.orderseq, self.pivot_tiny)
        out = g_src
        for c_i, parent in zip(coeffs, self.basis):
            out = out - c_i * _rate_taylor(ws, parent, order)
        return out


# -- constraint values --------------------------------------------------


def primary_constraints(L: LagrangianSystem, w) -> np.ndarray:
    """Values of the momentum constraints p_j - dL/dv_j at a point."""
    wvec = _as_wvec(L.n, w)
    ws = _Workspace(L, wvec)
    return np.array([_PrimaryConstraint(L, j).taylor(ws, 0).value for j in range(L.n)])


def constraint_values(L: LagrangianSystem, w, constraints: Sequence[ConstraintFn]) -> np.ndarray:
    """Values of several constraints at one point, sharing one expansion
    cache (much cheaper than calling each constraint separately)."""
    wvec = _as_wvec(L.n, w)
    ws = _Workspace(L, wvec)
    return np.array([c.taylor(ws, 0).value for c in constraints])


# -- the algorithm ------------------------------------------------------


@dataclass(frozen=True)
class AlgorithmOptions:
    # pass k of the algorithm expands L to order k + 2, so no more than
    # ORDER_CAP - 2 passes can run
    max_generations: int = ORDER_CAP - 2
    tol: float = 1e-8  # feasibility and new-constraint value detection
    grad_tol: float = 1e-6  # transversality threshold, relative
    rank_tol: float = 1e-9  # relative rank threshold for rows and SVD
    cond_cap: float = 1e12
    project: bool = True
    project_tol: float = 1e-11
    max_project_iter: int = 40


@dataclass
class ConstraintLadder:
    """Everything the algorithm discovered at (a projection of) one point."""

    generations: list[list[ConstraintFn]]
    status: str  # "Closed" | "Incompatible" | "MaxIterations"
    probe: np.ndarray
    rank: int
    undetermined_dim: int
    tolerance: float

    def active(self) -> list[ConstraintFn]:
        return [c for gen in self.generations for c in gen]

    @property
    def n_generations(self) -> int:
        return len(self.generations)

    def report(self) -> dict:
        """JSON-serializable summary with values at the probe point."""
        n = (len(self.probe) - 2) // 3
        gens = []
        for gen in self.generations:
            gens.append(
                [
                    {
                        "generation": c.generation,
                        "label": c.label,
                        "value_at_probe": c(self.probe),
                    }
                    for c in gen
                ]
            )
        return {
            "status": self.status,
            "generations": gens,
            "rank": self.rank,
            "undetermined_dim": self.undetermined_dim,
            "tolerance": self.tolerance,
            "probe": {
                "t": self.probe[0],
                "q": list(self.probe[1 : 1 + n]),
                "v": list(self.probe[1 + n : 1 + 2 * n]),
                "p": list(self.probe[1 + 2 * n : 1 + 3 * n]),
                "s": self.probe[-1],
            },
        }


@dataclass(frozen=True)
class _TangencyData:
    C: np.ndarray
    kernel: np.ndarray
    rank: int
    values: np.ndarray  # the constraints at the point, in input order
    new_constraints: list[ConstraintFn]
    incompatible: "ConstraintFn | None"


def _span_residual(vec: np.ndarray, basis: np.ndarray) -> float:
    """Norm of vec after removing its component in the column span of basis."""
    if basis.size == 0:
        return float(np.linalg.norm(vec))
    coef, *_ = np.linalg.lstsq(basis, vec, rcond=None)
    return float(np.linalg.norm(vec - basis @ coef))


def _tangency(
    ws: _Workspace,
    constraints: list[ConstraintFn],
    opts: AlgorithmOptions,
    discover: bool,
) -> _TangencyData:
    n = ws.n
    dim = ws.space.dim
    R = len(constraints)
    M = np.empty((R, n))
    g = np.empty(R)
    values = np.empty(R)
    grads = np.empty((R, dim))
    # expand L once at the deepest order any active constraint needs;
    # every later request is then served by truncation
    ws.L_taylor(1 + max(c.generation for c in constraints))
    Lj = jet_from_taylor(ws.L_taylor(1), dim, 1)
    D = Lj.grad[1 : 1 + n] + ws.w[1 + 2 * n : 1 + 3 * n] * Lj.grad[-1]
    for r, c in enumerate(constraints):
        xt = ws.xi_taylor(c, 1)
        values[r] = xt.value
        grads[r] = xt.gradient(dim)
        M[r] = grads[r][1 + n : 1 + 2 * n]
        g[r] = (
            grads[r][0]
            + ws.w[1 + n : 1 + 2 * n] @ grads[r][1 : 1 + n]
            + D @ grads[r][1 + 2 * n : 1 + 3 * n]
            + Lj.value * grads[r][-1]
        )

    row_scale = max(float(np.max(np.linalg.norm(M, axis=1))) if R else 0.0, 1e-300)
    thresh = opts.rank_tol * row_scale

    new_constraints: list[ConstraintFn] = []
    incompatible: ConstraintFn | None = None
    if discover:
        basis_idx: list[int] = []
        ortho: list[np.ndarray] = []
        generation = max(c.generation for c in constraints) + 1
        span = grads.T  # active gradients as columns, for transversality
        for r in range(R):
            row = M[r].copy()
            for u in ortho:
                row -= (row @ u) * u
            norm = np.linalg.norm(row)
            if norm > thresh:
                basis_idx.append(r)
                ortho.append(row / norm)
                continue
            # dependent row: build the obstruction scalar
            basis_rows = [constraints[i] for i in basis_idx]
            if basis_idx:
                A = M[basis_idx]
                cols = _pick_columns(A)
                G = A[:, cols].T  # G[j][i] = A[i, cols[j]]
                orderseq = _elimination_order(G)
            else:
                cols, orderseq = [], []
            cand = _DerivedConstraint(
                ws.L, generation, constraints[r], basis_rows, cols, orderseq,
                opts.rank_tol * row_scale,
            )
            ct = cand.taylor(ws, 1)
            value = ct.value
            cgrad = ct.gradient(dim)
            gnorm = float(np.linalg.norm(cgrad))
            if abs(value) > opts.tol:
                if gnorm <= opts.rank_tol * max(1.0, abs(value)):
                    incompatible = cand
                    break
                new_constraints.append(cand)
                continue
            if _span_residual(cgrad, span) > opts.grad_tol * max(1.0, gnorm):
                new_constraints.append(cand)

    U, sigma, Vt = np.linalg.svd(M, full_matrices=True)
    smax = sigma[0] if len(sigma) else 0.0
    rank = int(np.sum(sigma > opts.rank_tol * smax)) if smax > 0 else 0
    if rank and smax / sigma[rank - 1] > opts.cond_cap:
        raise NumericalBreakdown(
            f"tangency system condition {smax / sigma[rank - 1]:.2e} beyond cap"
        )
    C, *_ = np.linalg.lstsq(M, -g, rcond=opts.rank_tol)
    kernel = Vt[rank:].T.copy()
    return _TangencyData(C, kernel, rank, values, new_constraints, incompatible)


def _pick_columns(A: np.ndarray) -> list[int]:
    """Greedy well-conditioned column subset making A[:, cols] square."""
    m, n = A.shape
    cols: list[int] = []
    for _ in range(m):
        best, best_sv = None, -1.0
        for j in range(n):
            if j in cols:
                continue
            sub = A[:, cols + [j]]
            sv = np.linalg.svd(sub, compute_uv=False)[-1]
            if sv > best_sv:
                best, best_sv = j, sv
        cols.append(best)
    return cols


def _kernel_q_indices(L: LagrangianSystem, wvec: np.ndarray) -> list[int]:
    """Configuration coordinates paired with the kernel of d2L/dv dv;
    these act as multipliers and may be adjusted during projection."""
    rep = regularity(L, lagrangian_part(wvec, L.n))
    out = []
    for k in range(rep.nullspace.shape[1]):
        u = np.abs(rep.nullspace[:, k])
        out.append(int(np.argmax(u)))
    return sorted(set(out))


def project_onto(
    L: LagrangianSystem,
    w,
    constraints: Sequence[ConstraintFn],
    opts: AlgorithmOptions | None = None,
) -> np.ndarray:
    """Move a point onto the zero set of the given constraints.

    Adjustable directions: all velocities, all momenta, and the
    configuration coordinates paired with the degenerate directions of
    d2L/dv dv (multiplier-like coordinates).  Time, the remaining
    configuration coordinates and s are never touched.  Damped
    Gauss-Newton; raises InfeasiblePoint when it cannot reach the
    constraint set, which signals an initial condition off the admissible
    submanifold.
    """
    opts = opts or AlgorithmOptions()
    n = L.n
    wvec = _as_wvec(n, w).copy()

    # momenta first: the primary constraints are solved exactly by the
    # fibre derivative
    Lj = L.jet(lagrangian_part(wvec, n), 1)
    wvec[1 + 2 * n : 1 + 3 * n] = Lj.grad[1 + n : 1 + 2 * n]

    constraints = list(constraints)
    if not constraints:
        return wvec
    dirs = sorted(
        set(range(1 + n, 1 + 3 * n)) | {1 + j for j in _kernel_q_indices(L, wvec)}
    )

    def residuals(vec):
        ws = _Workspace(L, vec)
        vals = np.empty(len(constraints))
        grads = np.empty((len(constraints), len(dirs)))
        for i, c in enumerate(constraints):
            ct = c.taylor(ws, 1)
            vals[i] = ct.value
            grads[i] = ct.gradient(ws.space.dim)[dirs]
        return vals, grads

    vals, grads = residuals(wvec)
    for _ in range(opts.max_project_iter):
        worst = float(np.max(np.abs(vals)))
        if worst <= opts.project_tol:
            return wvec
        step, *_ = np.linalg.lstsq(grads, -vals, rcond=None)
        lam = 1.0
        for _ in range(9):
            trial = wvec.copy()
            trial[dirs] += lam * step
            tvals, tgrads = residuals(trial)
            if np.max(np.abs(tvals)) < worst:
                wvec, vals, grads = trial, tvals, tgrads
                break
            lam *= 0.5
        else:
            break
    if float(np.max(np.abs(vals))) <= opts.project_tol:
        return wvec
    worst_i = int(np.argmax(np.abs(vals)))
    raise InfeasiblePoint(
        f"projection stalled at |{constraints[worst_i].label}| = "
        f"{abs(vals[worst_i]):.3e} (needs <= {opts.project_tol:.1e}); "
        "the initial point is off the admissible set in a direction the "
        "projection may not adjust"
    )


def run_constraint_algorithm(
    L: LagrangianSystem, w, opts: AlgorithmOptions | None = None
) -> tuple[ConstraintLadder, ZCoefficients | None]:
    """Discover the full constraint ladder starting from a point.

    With opts.project (default) the point is moved onto each new
    generation as it appears, mirroring how initial conditions are
    prepared for integration; with project=False the input must already
    satisfy every constraint that arises, or InfeasiblePoint is raised.

    Returns the ladder and, when it closes, the field coefficients at the
    final (projected) point; otherwise the second element is None.  At
    most min(opts.max_generations, ORDER_CAP - 2) passes run; a ladder
    still open after them ends MaxIterations.
    """
    opts = opts or AlgorithmOptions()
    n = L.n
    wvec = _as_wvec(n, w).copy()

    primaries: list[ConstraintFn] = [_PrimaryConstraint(L, j) for j in range(n)]
    generations: list[list[ConstraintFn]] = [primaries]
    if opts.project:
        wvec = project_onto(L, wvec, primaries, opts)
    else:
        vals = primary_constraints(L, wvec)
        if np.max(np.abs(vals)) > opts.tol:
            raise InfeasiblePoint(
                f"momentum constraints violated by {np.max(np.abs(vals)):.3e}"
            )

    status = "MaxIterations"
    last = None
    active = list(primaries)
    ws = _Workspace(L, wvec)
    for _ in range(min(opts.max_generations, ORDER_CAP - 2)):
        last = _tangency(ws, active, opts, discover=True)
        if last.incompatible is not None:
            status = "Incompatible"
            generations.append(last.new_constraints + [last.incompatible])
            break
        if not last.new_constraints:
            status = "Closed"
            break
        generations.append(last.new_constraints)
        active = active + last.new_constraints
        if opts.project:
            moved = project_onto(L, wvec, active, opts)
            if not np.array_equal(moved, wvec):
                wvec = moved
                ws = _Workspace(L, wvec)
        else:
            worst = max(abs(c.taylor(ws, 0).value) for c in last.new_constraints)
            if worst > opts.tol:
                raise InfeasiblePoint(
                    f"new generation violated by {worst:.3e} and projection is off"
                )

    if status == "Closed":
        ladder = ConstraintLadder(
            generations, status, wvec, last.rank, last.kernel.shape[1], opts.tol
        )
        B = wvec[1 + n : 1 + 2 * n]
        Lj = jet_from_taylor(ws.L_taylor(1), ws.space.dim, 1)
        D = Lj.grad[1 : 1 + n] + wvec[1 + 2 * n : 1 + 3 * n] * Lj.grad[-1]
        Z = ZCoefficients(1.0, B.copy(), last.C, D, float(Lj.value), last.kernel,
                          last.values)
        return ladder, Z
    rank = last.rank if last is not None else 0
    kdim = last.kernel.shape[1] if last is not None else 0
    return ConstraintLadder(generations, status, wvec, rank, kdim, opts.tol), None


def assemble_Z(
    L: LagrangianSystem,
    w,
    ladder: ConstraintLadder,
    opts: AlgorithmOptions | None = None,
    gauge=None,
) -> ZCoefficients:
    """Field coefficients at a point, given an already-closed ladder.

    No feasibility check is performed here: integrator stages evaluate the
    field slightly off the submanifold by design, and the coefficients
    extend smoothly.  `gauge(w, kernel) -> vector` may supply a C-component
    along the undetermined directions; the default is the minimum-norm
    choice (zero along the kernel).
    """
    if ladder.status != "Closed":
        raise LadderNotClosed(f"ladder status is {ladder.status}")
    opts = opts or AlgorithmOptions(tol=ladder.tolerance)
    n = L.n
    wvec = _as_wvec(n, w)
    ws = _Workspace(L, wvec)
    data = _tangency(ws, ladder.active(), opts, discover=False)
    C = data.C
    if gauge is not None and data.kernel.shape[1]:
        extra = np.asarray(gauge(wvec, data.kernel), dtype=float)
        C = C + data.kernel @ extra
    B = wvec[1 + n : 1 + 2 * n]
    Lj = jet_from_taylor(ws.L_taylor(1), ws.space.dim, 1)
    D = Lj.grad[1 : 1 + n] + wvec[1 + 2 * n : 1 + 3 * n] * Lj.grad[-1]
    return ZCoefficients(1.0, B.copy(), C, D, float(Lj.value), data.kernel, data.values)
