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
from .mechanics import LagrangianSystem, classify_velocity_hessian, pack_order2

__all__ = [
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
    ladder.active() order, and L_data L's order-2 data at the point's
    velocity side (t, q, v, s), packed by mechanics.pack_order2: the
    assembly expands both anyway, so callers need not expand them again.
    """

    A: float
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: float
    undetermined: np.ndarray  # shape (n, k), k >= 0
    constraint_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    L_data: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def as_vector(self) -> np.ndarray:
        return np.concatenate(([self.A], self.B, self.C, self.D, [self.E]))


def _as_wvec(n: int, w) -> np.ndarray:
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
    both expand the same function at the same point).  A generation-g
    constraint at order k consumes L to order g + k, so the constructor
    expands L once at `order` plus the deepest generation of the
    constraints it serves; their requests then all truncate that one.
    L's partials, D and each constraint's tangency row are built once per
    order and cached too: the ladder's derived constraints share them."""

    def __init__(self, L: LagrangianSystem, wvec: np.ndarray,
                 constraints: Sequence["ConstraintFn"] = (), order: int = 0):
        self.L = L
        self.n = L.n
        self.w = np.asarray(wvec, dtype=float)
        self.space = CoordinateSpace.unified(L.n)
        self._seeds: dict[int, list[Taylor]] = {}
        self._L: dict[int, Taylor] = {}
        # keyed by the constraint object itself: keeps it alive for the
        # workspace lifetime, so recycled object ids cannot alias entries
        self._xi: dict["ConstraintFn", dict[int, Taylor]] = {}
        self._rows: dict[tuple["ConstraintFn", int], tuple[Taylor, list[Taylor]]] = {}
        self._dL: dict[int, list[Taylor]] = {}
        self._D: dict[int, list[Taylor]] = {}
        if constraints:
            self.L_taylor(order + max(c.generation for c in constraints))

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

    def dL(self, order: int) -> list[Taylor]:
        """Every first partial of L, as polynomials of the given order."""
        out = self._dL.get(order)
        if out is None:
            out = self._dL[order] = self.L_taylor(order + 1).partials(self.space.dim)
        return out

    def D(self, order: int) -> list[Taylor]:
        """Momentum coefficients D_i = dL/dq_i + p_i dL/ds as polynomials."""
        out = self._D.get(order)
        if out is None:
            n = self.n
            dL = self.dL(order)
            p = self.seeds(order)[1 + 2 * n : 1 + 3 * n]
            out = self._D[order] = [dL[1 + i] + p_i * dL[-1] for i, p_i in enumerate(p)]
        return out

    def row(self, c: "ConstraintFn", order: int) -> tuple[Taylor, list[Taylor]]:
        """c's tangency condition grad(c) . Z = 0 at the given order, as
        (rate, [dc/dv_1 .. dc/dv_n]): the rate is every term of grad(c) . Z
        except the C d/dv block, the list is the row C multiplies.  Both come
        from one partials pass over c."""
        key = (c, order)
        out = self._rows.get(key)
        if out is None:
            n = self.n
            d = self.xi_taylor(c, order + 1).partials(self.space.dim)
            rate = d[0]
            for v_i, d_i in zip(self.seeds(order)[1 + n : 1 + 2 * n], d[1 : 1 + n]):
                if d_i.terms:
                    rate = rate + v_i * d_i
            for D_i, d_i in zip(self.D(order), d[1 + 2 * n : 1 + 3 * n]):
                if d_i.terms:
                    rate = rate + D_i * d_i
            if d[-1].terms:
                rate = rate + self.L_taylor(order) * d[-1]
            out = self._rows[key] = (rate, d[1 + n : 1 + 2 * n])
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
        return float(constraint_values(self.L, w, [self])[0])

    def jet(self, w, order: int) -> Jet:
        ws = _Workspace(self.L, _as_wvec(self.L.n, w), [self], order)
        return jet_from_taylor(self.taylor(ws, order), ws.space.dim, order)


class _PrimaryConstraint(ConstraintFn):
    def __init__(self, L: LagrangianSystem, j: int):
        super().__init__(L, 1, f"p{j + 1} - dL/dv{j + 1}")
        self.j = j

    def _taylor(self, ws: _Workspace, order: int) -> Taylor:
        p_j = ws.seeds(order)[1 + 2 * ws.n + self.j]
        return p_j - ws.dL(order)[1 + ws.n + self.j]


def _solve_frozen(G_rows: list[list], rhs: list, orderseq: list[int] | None, tiny: float):
    """Solve G x = rhs by Gauss-Jordan elimination; return x and the row
    pivot sequence.

    Entries are Taylor polynomials; divisions go through the Taylor
    reciprocal.  Without `orderseq` the pivots are chosen by partial
    pivoting on the entries' values (a constraint's first evaluation, at
    its birth point); with it they follow that frozen sequence.  A pivot
    whose value falls below `tiny` means the pattern is not valid at this
    point.
    """
    m = len(rhs)
    G = [list(row) for row in G_rows]
    b = list(rhs)
    seq: list[int] = []
    for col in range(m):
        if orderseq is None:
            prow = max((r for r in range(m) if r not in seq), key=lambda r: abs(G[r][col].value))
        else:
            prow = orderseq[col]
        seq.append(prow)
        piv = G[prow][col]
        pval = piv.value
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
                if f.terms:
                    G[r] = [gr - f * gp for gr, gp in zip(G[r], G[prow])]
                    b[r] = b[r] - f * b[prow]
    return [b[prow] for prow in seq], seq


class _DerivedConstraint(ConstraintFn):
    """Obstruction scalar of a dependent tangency row.

    At birth, row `source` was (numerically) a combination of the rows of
    `basis`; the obstruction is

        rate(source) - sum_i c_i rate(basis_i)

    with c re-solved at every evaluation point from the recorded pivot
    columns.  The row pivot sequence is picked at the first evaluation,
    which the algorithm makes at the birth point, and then frozen.
    Wherever the dependence persists, this equals the rate of change of
    `source` along any field satisfying the earlier tangency conditions,
    so it must vanish on the final submanifold.
    """

    def __init__(
        self,
        L: LagrangianSystem,
        generation: int,
        source: ConstraintFn,
        basis: list[ConstraintFn],
        pivot_cols: list[int],
        pivot_tiny: float,
    ):
        label = f"rate({source.label})"
        if basis:
            label += f" mod {len(basis)} rows"
        super().__init__(L, generation, label)
        self.source = source
        self.basis = basis
        self.pivot_cols = pivot_cols
        self.orderseq: list[int] | None = None
        self.pivot_tiny = pivot_tiny

    def _taylor(self, ws: _Workspace, order: int) -> Taylor:
        out, src_row = ws.row(self.source, order)
        rows = [ws.row(c, order) for c in self.basis]
        G = [[v_row[j] for _, v_row in rows] for j in self.pivot_cols]
        rhs = [src_row[j] for j in self.pivot_cols]
        coeffs, self.orderseq = _solve_frozen(G, rhs, self.orderseq, self.pivot_tiny)
        for c_i, (rate, _) in zip(coeffs, rows):
            out = out - c_i * rate
        return out


# -- constraint values --------------------------------------------------


def primary_constraints(L: LagrangianSystem, w) -> np.ndarray:
    """Values of the momentum constraints p_j - dL/dv_j at a point."""
    return constraint_values(L, w, [_PrimaryConstraint(L, j) for j in range(L.n)])


def constraint_values(L: LagrangianSystem, w, constraints: Sequence[ConstraintFn]) -> np.ndarray:
    """Values of several constraints at one point, sharing one workspace
    (much cheaper than calling each constraint separately)."""
    ws = _Workspace(L, _as_wvec(L.n, w), constraints, 0)
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
        active = self.active()
        values = iter(constraint_values(active[0].L, self.probe, active).tolist())
        gens = [
            [
                {"generation": c.generation, "label": c.label, "value_at_probe": next(values)}
                for c in gen
            ]
            for gen in self.generations
        ]
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
) -> tuple[ZCoefficients, int, list[ConstraintFn], ConstraintFn | None]:
    """The field at the workspace's point, fixed by the tangency conditions
    of `constraints`, and the rank of their C-system.  With `discover`,
    also the obstructions that are new constraints and the incompatible
    one, if any (else an empty list and None)."""
    n = ws.n
    dim = ws.space.dim
    w = ws.w
    Lt = ws.L_taylor(1)
    L_grad = Lt.gradient(dim)
    D = L_grad[1 : 1 + n] + w[1 + 2 * n : 1 + 3 * n] * L_grad[-1]
    E = float(Lt.value)
    xts = [ws.xi_taylor(c, 1) for c in constraints]
    values = np.array([xt.value for xt in xts])
    grads = np.array([xt.gradient(dim) for xt in xts])
    # row r: grad(xi_r) . Z = g[r] + M[r] . C
    M = grads[:, 1 + n : 1 + 2 * n]
    g = grads @ np.concatenate(([1.0], w[1 + n : 1 + 2 * n], np.zeros(n), D, [E]))

    row_scale = max(float(np.max(np.linalg.norm(M, axis=1))), 1e-300)
    thresh = opts.rank_tol * row_scale

    new_constraints: list[ConstraintFn] = []
    incompatible: ConstraintFn | None = None
    if discover:
        basis_idx: list[int] = []
        ortho: list[np.ndarray] = []
        generation = max(c.generation for c in constraints) + 1
        span = grads.T  # active gradients as columns, for transversality
        for r in range(len(M)):
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
            cols = _pick_columns(M[basis_idx]) if basis_idx else []
            cand = _DerivedConstraint(
                ws.L, generation, constraints[r], basis_rows, cols, opts.rank_tol * row_scale
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
    # minimum-norm solution of M C = -g, dropping lstsq's rcond=rank_tol set
    C = -Vt[:rank].T @ ((U[:, :rank].T @ g) / sigma[:rank])
    # L's order-2 data on the velocity side: lookups in the expansion the
    # momentum constraints already consumed
    lag = [*range(1 + 2 * n), dim - 1]
    L_data = pack_order2(E, L_grad[lag], ws.L_taylor(2).hessian_block(lag, range(1 + n, 1 + 2 * n)))
    Z = ZCoefficients(1.0, w[1 + n : 1 + 2 * n].copy(), C, D, E, Vt[rank:].T.copy(), values,
                      L_data)
    return Z, rank, new_constraints, incompatible


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


def _kernel_q_indices(W: np.ndarray) -> list[int]:
    """Configuration coordinates paired with the kernel of the velocity
    Hessian W = d2L/dv dv; these act as multipliers and may be adjusted
    during projection."""
    rep = classify_velocity_hessian(W)
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
    # fibre derivative; the same jet's velocity Hessian names the
    # multiplier-like coordinates
    Lj = L.jet(lagrangian_part(wvec, n), 2)
    vs = slice(1 + n, 1 + 2 * n)
    wvec[1 + 2 * n : 1 + 3 * n] = Lj.grad[vs]

    constraints = list(constraints)
    if not constraints:
        return wvec
    dirs = sorted(
        set(range(1 + n, 1 + 3 * n)) | {1 + j for j in _kernel_q_indices(Lj.hess[vs, vs])}
    )

    def residuals(vec):
        ws = _Workspace(L, vec, constraints, 1)
        cts = [c.taylor(ws, 1) for c in constraints]
        return (np.array([ct.value for ct in cts]),
                np.array([ct.gradient(ws.space.dim)[dirs] for ct in cts]))

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
    Z, rank = None, 0
    active = list(primaries)
    ws = _Workspace(L, wvec, active, 1)
    for _ in range(min(opts.max_generations, ORDER_CAP - 2)):
        Z, rank, new, incompatible = _tangency(ws, active, opts, discover=True)
        if incompatible is not None:
            status = "Incompatible"
            generations.append(new + [incompatible])
            break
        if not new:
            status = "Closed"
            break
        generations.append(new)
        active = active + new
        if opts.project:
            moved = project_onto(L, wvec, active, opts)
            if not np.array_equal(moved, wvec):
                wvec = moved
                ws = _Workspace(L, wvec, active, 1)
        else:
            worst = max(abs(c.taylor(ws, 0).value) for c in new)
            if worst > opts.tol:
                raise InfeasiblePoint(
                    f"new generation violated by {worst:.3e} and projection is off"
                )

    kdim = Z.undetermined.shape[1] if Z is not None else 0
    ladder = ConstraintLadder(generations, status, wvec, rank, kdim, opts.tol)
    return ladder, Z if status == "Closed" else None


def assemble_Z(
    L: LagrangianSystem,
    w,
    ladder: ConstraintLadder,
    opts: AlgorithmOptions | None = None,
) -> ZCoefficients:
    """Field coefficients at a point, given an already-closed ladder.

    No feasibility check is performed here: integrator stages evaluate the
    field slightly off the submanifold by design, and the coefficients
    extend smoothly.  C is the minimum-norm choice (zero along the
    undetermined directions).
    """
    if ladder.status != "Closed":
        raise LadderNotClosed(f"ladder status is {ladder.status}")
    opts = opts or AlgorithmOptions(tol=ladder.tolerance)
    active = ladder.active()
    ws = _Workspace(L, _as_wvec(L.n, w), active, 1)
    return _tangency(ws, active, opts, discover=False)[0]
