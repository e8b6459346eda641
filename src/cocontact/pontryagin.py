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

Discovery and project_onto run the Taylor engine live.  Once a ladder has
closed, its evaluations and projections all perform the same Taylor work:
the first call records it (L's expansion, then every recipe with its
frozen pivots, down to the order-1 values and gradients and L's order-2
data the tangency conditions read) on one jets.Tape whose only input is
the point, and later calls replay it, skipping every coefficient of L that
no read needs.  The frozen-pivot test is a guard, so a replay raises
NumericalBreakdown where a live evaluation would.  The tape of a ladder
that closed with full rank (rank n, no undetermined direction: every
preset's) then solves the tangency conditions for C by plain float
arithmetic too (a QR factorisation by modified Gram-Schmidt), and emits
the pivot margins; the numpy tail is slices and a test of the smallest
margin against RANK_TOL, so a rank change raises NumericalBreakdown.
One column-pivoted Gram-Schmidt (_pivots) picks each recipe's pivot
columns and, once per ladder, the coordinates its projections move.  An
SVD runs only where the rank is not known: discovery's rank decision, and
ladders with undetermined directions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .jets import (ORDER_CAP, CoordinateSpace, Jet, Tape, Taylor, _math, _strides, expand, guard,
                   jet_from_taylor)
from .mechanics import LagrangianSystem, order2_gather, order2_parts, read_order2

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
    "constraint_values",
    "project_onto",
    "assemble_Z",
    "run_constraint_algorithm",
]


class InfeasiblePoint(ValueError):
    """The point does not lie on (and cannot be projected onto) the
    constraint submanifold.  When project_onto raises it, `stall` says
    where the projection stopped, without the advice on initial points."""

    stall: str = ""


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

    coeffs is the coefficient vector (A, B, C, D, E) on the mixed space;
    A, B, C, D and E read it.  undetermined holds an orthonormal basis
    (columns) of the C-directions the tangency conditions leave free; C
    itself carries the minimum-norm choice, i.e. zero component along
    those directions.  On a ladder closed with full rank there are none
    (shape (n, 0)) and C is the least-squares solution of the tangency
    conditions, from a QR factorisation (_solve); elsewhere C comes from
    an SVD.  constraint_values holds the value of every ladder
    constraint at the point, in ladder.active() order, and L_data L's
    order-2 data at the point's velocity side (t, q, v, s), flat as
    mechanics.read_order2 returns it: the assembly expands both anyway, so
    callers need not expand them again.
    """

    coeffs: np.ndarray  # shape (3n + 2,)
    undetermined: np.ndarray  # shape (n, k), k >= 0
    constraint_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    L_data: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def _n(self) -> int:
        return (len(self.coeffs) - 2) // 3

    @property
    def A(self) -> float:
        return float(self.coeffs[0])

    @property
    def B(self) -> np.ndarray:
        return self.coeffs[1 : 1 + self._n]

    @property
    def C(self) -> np.ndarray:
        n = self._n
        return self.coeffs[1 + n : 1 + 2 * n]

    @property
    def D(self) -> np.ndarray:
        n = self._n
        return self.coeffs[1 + 2 * n : 1 + 3 * n]

    @property
    def E(self) -> float:
        return float(self.coeffs[-1])


def _as_wvec(n: int, w, stacked: bool = False) -> np.ndarray:
    """w as a unified-space point, or, if `stacked` allows, a (B, dim)
    stack of them."""
    vec = np.asarray(w, dtype=float)
    if vec.shape != (3 * n + 2,) and not (stacked and vec.ndim == 2 and vec.shape[1] == 3 * n + 2):
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
    A mixed-space expansion of L at the point's (t, q, v, s) that the
    caller holds (`expansion`) serves instead when its order suffices: L
    does not read p, and truncating changes no coefficient.  L's partials,
    D and each constraint's tangency row are built once per order and
    cached too: the ladder's derived constraints share them."""

    def __init__(self, L: LagrangianSystem, wvec: Sequence[float],
                 constraints: Sequence["ConstraintFn"] = (), order: int = 0,
                 expansion: Taylor | None = None):
        self.L = L
        self.n = L.n
        # Python floats, as a tape's are: inf * 0.0 is then a silent NaN,
        # as it is on a tape, not a numpy warning
        self.w = wvec.tolist() if isinstance(wvec, np.ndarray) else wvec
        self.space = CoordinateSpace.unified(L.n)
        self._seeds: dict[int, list[Taylor]] = {}
        self._L: dict[int, Taylor] = {}
        # keyed by the constraint object itself: keeps it alive for the
        # workspace lifetime, so recycled object ids cannot alias entries
        self._xi: dict["ConstraintFn", dict[int, Taylor]] = {}
        self._rows: dict[tuple["ConstraintFn", int], tuple[Taylor, list[Taylor]]] = {}
        self._dL: dict[int, list[Taylor]] = {}
        self._D: dict[int, list[Taylor]] = {}
        if expansion is not None:
            self._L[expansion.order] = expansion
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
    its birth point, which runs live); with it they follow that frozen
    sequence, and the only value test is the guard on the pivot's size.  A
    pivot whose value falls below `tiny` means the pattern is not valid at
    this point.
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
        guard(piv.value, lambda v: abs(v) < tiny, lambda v: NumericalBreakdown(
            f"frozen pivot {v:.3e} below {tiny:.1e}; closure pattern lost"))
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


def constraint_values(L: LagrangianSystem, w, constraints: Sequence[ConstraintFn]) -> np.ndarray:
    """Values of several constraints at one point, sharing one workspace
    (much cheaper than calling each constraint separately)."""
    ws = _Workspace(L, _as_wvec(L.n, w), constraints, 0)
    return np.array([c.taylor(ws, 0).value for c in constraints])


# -- the algorithm ------------------------------------------------------


TOL = 1e-8  # feasibility and new-constraint value detection, absolute
GRAD_TOL = 1e-6  # discovery's transversality threshold, relative
PROJECT_TOL = 1e-11  # a projection ends once every constraint is this small
MAX_PROJECT_ITER = 40  # or raises InfeasiblePoint after this many steps
# pass k of the algorithm expands L to order k + 2, so no more than
# ORDER_CAP - 2 passes can run; a ladder still open after them ends
# MaxIterations
MAX_GENERATIONS = ORDER_CAP - 2
# relative rank threshold: for discovery's rows, its SVD (which keeps the
# singular values sigma > RANK_TOL * sigma_max, so their condition stays
# below 1 / RANK_TOL) and the derived constraints' frozen pivots; for the
# Gram-Schmidt of d2L/dv dv that picks the projection's directions; and
# for a full-rank solve, whose field raises NumericalBreakdown once the
# smallest pivot margin (_solve) is at or below it, as legendre_invert
# raises NonInvertibleLegendre.  A margin is at least sigma_min /
# sigma_max, so the solve refuses no point where the SVD keeps rank n
RANK_TOL = 1e-9


@dataclass(frozen=True)
class AlgorithmOptions:
    """No settings: the algorithm's thresholds are the module constants.
    It is kept, without fields, only for callers that still pass one to
    run_constraint_algorithm or dynamics.unified_field, which ignore it."""


@dataclass
class ConstraintLadder:
    """Everything the algorithm discovered at (a projection of) one point."""

    generations: list[list[ConstraintFn]]
    status: str  # "Closed" | "Incompatible" | "MaxIterations"
    probe: np.ndarray
    rank: int
    undetermined_dim: int
    tolerance: float  # TOL, for the report and integrate's drift cap (10x)
    directions: list[int]  # the coordinates every projection moves (_directions)
    _reads: dict = field(default_factory=dict, init=False, repr=False, compare=False)  # by lift

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


def _reads(ws: _Workspace, constraints: Sequence[ConstraintFn]) -> list:
    """Every number the tangency tail reads, flat, in the layout _field
    slices: the R constraint values; their gradients at order 1, row-major
    (R x dim); the coefficient template z = (1, v, 0, D, E), with
    D_i = dL/dq_i + p_i dL/ds and E = L; then L's flat order-2 data at
    the velocity side, diagonal doubled (mechanics.read_order2).  Lookups,
    and for D and the doubling the float operations numpy makes
    elementwise, in its order: a tape returns them as they are, and the
    bits do not depend on which side computes them."""
    n, dim = ws.n, ws.space.dim
    grad_keys = _strides(dim)[:dim]
    xis = [ws.xi_taylor(c, 1).terms for c in constraints]
    out = [t.get(0, 0.0) for t in xis]
    for t in xis:
        out += [t.get(k, 0.0) for k in grad_keys]
    L2 = ws.L_taylor(2).terms
    dL_ds = L2.get(grad_keys[-1], 0.0)
    out += [1.0, *ws.w[1 + n : 1 + 2 * n], *[0.0] * n]
    out += [L2.get(grad_keys[1 + i], 0.0) + p_i * dL_ds
            for i, p_i in enumerate(ws.w[1 + 2 * n : 1 + 3 * n])]
    out.append(L2.get(0, 0.0))
    keys, scale = order2_gather(ws.space)
    out += [L2.get(k, 0.0) * f for k, f in zip(keys, scale.tolist())]
    return out


@functools.cache
def _layout(R: int, n: int) -> tuple[slice, slice, slice, slice, slice]:
    """Where _reads puts the R constraints' gradients, the coefficient
    template and L's order-2 data, after the R values; and where _solve
    appends the n pivot margins, squared, then Newton's step (if asked)."""
    z = R + R * (3 * n + 2)
    data = z + 3 * n + 2
    margins = data + 1 + (2 * n + 2) * (n + 1)
    return (slice(R, z), slice(z, data), slice(data, margins), slice(margins, margins + n),
            slice(margins + n, None))


def _pinv(x: float) -> float:
    """A scalar's pseudo-inverse: 1/x, and 0 for 0."""
    return 1.0 / x if x != 0.0 else 0.0


def _solve(reads: list, R: int, n: int, newton: bool = False) -> list:
    """_reads' list with C in the template's zero block and the n pivot
    margins appended, then, with `newton` (R == n), Newton's step.

    C solves the tangency conditions M C = -g in the least-squares sense,
    with g = grads . z and M the gradients' velocity block, by modified
    Gram-Schmidt without normalisation: M = V U, V's columns v_k
    orthogonal and U unit upper triangular, with g carried along as a last
    column (h_k = v_k . g / |v_k|^2), then U C = -h by back substitution.
    That is the QR factorisation M = QR with R's diagonal moved into Q, so
    no square root is taken; for full column rank it gives the C an SVD
    gives, to within cond(M) times the rounding unit (normal equations
    would square cond(M)).  With `newton` the momentum constraints' system
    (M = -d2L/dv dv) carries their values xi as one more column: dv with
    M dv = -xi is the Newton step of dL/dv = p (legendre_invert).  Plain
    float operations, written once: a full-rank ladder's tape records
    them after the reads, and discovery runs them on floats, so both give
    the same bits.  Pivot k's margin is |v_k| = R_kk over the norm of M's
    column k, 1 for orthogonal columns and 0 for a column in the span of
    the earlier ones; the list holds the margins squared.  Each division
    is by a pseudo-inverse (_pinv), so nothing here raises."""
    dim = 3 * n + 2
    t = R + R * dim  # where the template z starts
    out = list(reads)
    z = out[t : t + dim]
    rows = [out[R + r * dim : R + r * dim + dim] for r in range(R)]
    # g = grads . z; the C block of z is zero and stays out of it
    fixed = [*range(1, 1 + n), *range(1 + 2 * n, dim)]
    g = []
    for row in rows:
        acc = row[0] * z[0]
        for j in fixed:
            acc = acc + row[j] * z[j]
        g.append(acc)
    cols = [[row[j] for row in rows] for j in range(1 + n, 1 + 2 * n)]
    cols += [g, out[:R]] if newton else [g]

    def dot(a, b):
        acc = a[0] * b[0]
        for r in range(1, R):
            acc = acc + a[r] * b[r]
        return acc

    def minus(a, f, q):  # a - f q
        return [x - f * y for x, y in zip(a, q)]

    norms = [dot(c, c) for c in cols[:n]]  # squared
    upper, margins = [], []
    for k in range(n):
        v = cols[k]  # orthogonal to the earlier v's
        vv = dot(v, v)  # R_kk squared
        margins.append(vv * _math(_pinv, norms[k]))
        inv = _math(_pinv, vv)
        row = [dot(v, cols[j]) * inv for j in range(k + 1, len(cols))]  # U's row, then h_k
        for j, f in enumerate(row, k + 1):
            cols[j] = minus(cols[j], f, v)
        upper.append(row)
    C, *step = [[0.0] * n for _ in cols[n:]]
    for c, x in enumerate([C, *step], n):
        for k in reversed(range(n)):
            acc = -upper[k][c - k - 1]
            for j, f in enumerate(upper[k][: n - k - 1], k + 1):
                acc = acc - f * x[j]
            x[k] = acc
    out[t + 1 + n : t + 1 + 2 * n] = C
    return out + margins + [d for x in step for d in x]


def _test_margins(squared: list, error: type, what: str, lost: str) -> None:
    """Raise error naming the smallest pivot margin (_solve lists them
    squared, >= 0) unless it is above RANK_TOL; a NaN one, anywhere, is not."""
    total = sum(squared)  # NaN just when a margin is: inf + inf is inf
    margin = math.sqrt(min(squared)) if total == total else math.nan
    if not margin > RANK_TOL:
        raise error(f"{what} pivot margin {margin:.3e} at or below rank_tol {RANK_TOL:.1e}; {lost}")


def _finite(M: np.ndarray, what: str) -> np.ndarray:
    """M, once it is finite: LAPACK's SVD (np.linalg.svd, lstsq) may hang on inf."""
    if not np.isfinite(M).all():
        raise NumericalBreakdown(f"non-finite {what}")
    return M


def _field(raw: np.ndarray, R: int, n: int) -> tuple[ZCoefficients, int]:
    """The field fixed by the tangency conditions of R constraints, and the
    rank of their C-system, from _reads' numbers as one float array.

    A read that carries the pivot margins is _solve's (the tape of a
    ladder that closed with full rank, or discovery's closing pass): C is
    in the template, which makes the template the coefficient vector, and
    the field is slices once the smallest margin is above RANK_TOL; at or
    below it the C-system is losing rank, and NumericalBreakdown names the
    margin.  Otherwise, where the rank is not known, one matrix-vector
    product and one SVD: the rank and the minimum-norm C."""
    grads_at, template, data, margins, _ = _layout(R, n)
    coeffs = raw[template]
    if len(raw) > margins.start:
        _test_margins(raw[margins].tolist(), NumericalBreakdown, "C-system",
                      "the tangency conditions lost rank")
        return ZCoefficients(coeffs, np.zeros((n, 0)), raw[:R], raw[data]), n
    grads = raw[grads_at].reshape(R, 3 * n + 2)
    # row r: grad(xi_r) . Z = g[r] + M[r] . C
    g = grads @ coeffs
    U, sigma, Vt = np.linalg.svd(_finite(grads[:, 1 + n : 1 + 2 * n], "C-system"),
                                 full_matrices=True)
    smax = sigma[0] if len(sigma) else 0.0
    rank = int(np.count_nonzero(sigma > RANK_TOL * smax)) if smax > 0 else 0
    # minimum-norm solution of M C = -g, dropping lstsq's rcond=RANK_TOL set
    coeffs[1 + n : 1 + 2 * n] = -Vt[:rank].T @ ((U[:, :rank].T @ g) / sigma[:rank])
    Z = ZCoefficients(coeffs, Vt[rank:].T.copy(), raw[:R], raw[data])
    return Z, rank


def _tangency(
    ws: _Workspace,
    constraints: list[ConstraintFn],
) -> tuple[ZCoefficients, int, list[ConstraintFn], ConstraintFn | None]:
    """One pass of discovery at the workspace's point: the field fixed by
    the tangency conditions of `constraints`, the rank of their C-system,
    the obstructions that are new constraints and the incompatible one, if
    any (else an empty list and None).  The rank comes from an SVD; a pass
    that closes the ladder with full rank takes C from _solve on the same
    reads, as the closed ladder's tape does."""
    n = ws.n
    dim = ws.space.dim
    R = len(constraints)
    reads = _reads(ws, constraints)
    raw = np.array(reads, dtype=float)
    grads = _finite(raw[_layout(R, n)[0]].reshape(R, dim), "constraint gradients")
    M = grads[:, 1 + n : 1 + 2 * n]
    row_scale = max(float(np.max(np.linalg.norm(M, axis=1))), 1e-300)
    thresh = RANK_TOL * row_scale

    new_constraints: list[ConstraintFn] = []
    incompatible: ConstraintFn | None = None
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
        cols = _pivots(M[basis_idx])[0]
        cand = _DerivedConstraint(
            ws.L, generation, constraints[r], basis_rows, cols, thresh
        )
        ct = cand.taylor(ws, 1)
        value = ct.value
        cgrad = ct.gradient(dim)
        gnorm = float(np.linalg.norm(cgrad))
        if abs(value) > TOL:
            if gnorm <= RANK_TOL * max(1.0, abs(value)):
                incompatible = cand
                break
            new_constraints.append(cand)
            continue
        if _span_residual(cgrad, span) > GRAD_TOL * max(1.0, gnorm):
            new_constraints.append(cand)

    Z, rank = _field(raw, R, n)
    if rank == n and not new_constraints and incompatible is None:
        Z = _field(np.array(_solve(reads, R, n)), R, n)[0]
    return Z, rank, new_constraints, incompatible


def _pivots(A: np.ndarray, tol: float = 0.0) -> tuple[list[int], list[int]]:
    """Column-pivoted modified Gram-Schmidt on A's columns, on floats
    (Businger & Golub, Numer. Math. 7, 1965; Golub & Van Loan, 5.4.2): the
    pivots in order, each the column of largest remaining norm (the lowest
    index on a tie), and the columns not taken, in index order.  It stops
    at one pivot per row, or once that norm is at or below tol times A's
    largest column norm."""
    cols = dict(enumerate(np.asarray(A, dtype=float).T.tolist()))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    floor = tol * tol * max((dot(c, c) for c in cols.values()), default=0.0)
    pivots: list[int] = []
    while len(pivots) < len(A) and cols:
        norms = {j: dot(c, c) for j, c in cols.items()}  # squared
        k = max(norms, key=norms.get)
        if norms[k] <= floor:
            break
        pivots.append(k)
        v = cols.pop(k)
        for j, c in cols.items():
            f = dot(v, c) / norms[k]
            cols[j] = [x - f * y for x, y in zip(c, v)]
    return pivots, sorted(cols)


def _directions(L_data: np.ndarray, n: int) -> list[int]:
    """The coordinates a projection moves, from L's flat order-2 data: the
    q's paired with the columns of d2L/dv dv that _pivots leaves
    (multiplier-like coordinates), then every velocity and momentum."""
    H = order2_parts(L_data, n)[1][1 + n : 1 + 2 * n]  # d2L/dv dv
    rest = _pivots(_finite(H, "velocity Hessian"), RANK_TOL)[1]
    return [1 + j for j in rest] + list(range(1 + n, 1 + 3 * n))


def project_onto(L: LagrangianSystem, w, constraints: Sequence[ConstraintFn]) -> np.ndarray:
    """Move a point onto the zero set of the given constraints.

    Adjustable directions (_directions, from d2L/dv dv at the point): all
    velocities, all momenta, and the configuration coordinates paired with
    the degenerate directions of d2L/dv dv (multiplier-like coordinates).
    Time, the remaining configuration coordinates and s are never touched.
    Damped Gauss-Newton; raises InfeasiblePoint when it cannot reach the
    constraint set, which signals an initial condition off the admissible
    submanifold.
    It runs live, from one expansion of L for the momenta p = dL/dv and
    the first residuals; an integrator's replays the ladder's tape.
    """
    constraints = list(constraints)
    reads = _LiveReads(L, constraints, _as_wvec(L.n, w))
    directions = _directions(reads.raw[_layout(len(constraints), L.n)[2]], L.n)
    return _project(reads, reads.w, reads.raw, constraints, directions)[0]


class _LiveReads:
    """_reads of some constraints, live, on a fresh workspace per point,
    starting from `w` with its momenta p = dL/dv filled in and the reads
    there, `raw`: L does not read p, so one expansion (or the caller's)
    serves both, p going in first.  `ws` is the last workspace."""

    def __init__(self, L: LagrangianSystem, constraints: list[ConstraintFn], w,
                 expansion: Taylor | None = None):
        n, self.L, self.constraints = L.n, L, constraints
        self.ws = _Workspace(L, np.asarray(w, dtype=float), constraints, 1, expansion)
        # p into the list of floats the workspace reads
        self.ws.w[1 + 2 * n : 1 + 3 * n] = self.ws.L_taylor(1).gradient(1 + 2 * n)[1 + n :].tolist()
        self.w = np.array(self.ws.w)
        self.raw = np.array(_reads(self.ws, constraints), dtype=float)

    def __call__(self, w: np.ndarray) -> np.ndarray:
        self.ws = _Workspace(self.L, w, self.constraints, 1)
        return np.array(_reads(self.ws, self.constraints), dtype=float)


def _project(reads, w: np.ndarray, raw: np.ndarray, constraints: list[ConstraintFn],
             dirs: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """project_onto's point, from w, whose p is dL/dv, and raw, the _reads
    of `constraints` there, moving the coordinates `dirs` (_directions);
    reads gives them elsewhere (live, or a tape).  Returns the point and
    the reads there: raw itself when Gauss-Newton did not move."""
    w = np.array(w, dtype=float)
    n, R = (len(w) - 2) // 3, len(constraints)
    if not constraints:
        return w, raw
    grads_at = _layout(R, n)[0]

    def residuals(raw):
        return raw[:R], raw[grads_at].reshape(R, 3 * n + 2)[:, dirs]

    vals, grads = residuals(raw)
    for _ in range(MAX_PROJECT_ITER):
        worst = float(np.max(np.abs(vals)))
        if worst <= PROJECT_TOL:
            return w, raw
        step, *_ = np.linalg.lstsq(_finite(grads, "constraint gradients"), -vals, rcond=None)
        lam = 1.0
        for _ in range(9):
            trial = w.copy()
            trial[dirs] += lam * step
            traw = reads(trial)
            tvals, tgrads = residuals(traw)
            if np.max(np.abs(tvals)) < worst:
                w, raw, vals, grads = trial, traw, tvals, tgrads
                break
            lam *= 0.5
        else:
            break
    if float(np.max(np.abs(vals))) <= PROJECT_TOL:
        return w, raw
    worst_i = int(np.argmax(np.abs(vals)))
    stall = (f"projection stalled at |{constraints[worst_i].label}| = "
             f"{abs(vals[worst_i]):.3e} (needs <= {PROJECT_TOL:.1e})")
    exc = InfeasiblePoint(f"{stall}; the initial point is off the admissible set in a "
                          "direction the projection may not adjust")
    exc.stall = stall
    raise exc


def run_constraint_algorithm(
    L: LagrangianSystem, w, opts: AlgorithmOptions | None = None
) -> tuple[ConstraintLadder, ZCoefficients | None]:
    """Discover the full constraint ladder starting from a point.

    The point is moved onto the momentum constraints and then onto each
    new generation as it appears, mirroring how initial conditions are
    prepared for integration (project_onto); a point it cannot move there
    raises InfeasiblePoint.

    Returns the ladder and, when it closes, the field coefficients at the
    final (projected) point; otherwise the second element is None.  At
    most MAX_GENERATIONS passes run; a ladder still open after them ends
    MaxIterations.  opts is ignored (AlgorithmOptions has no fields).
    """
    n = L.n
    wvec = _as_wvec(n, w).copy()

    primaries: list[ConstraintFn] = [_PrimaryConstraint(L, j) for j in range(n)]
    generations: list[list[ConstraintFn]] = [primaries]
    active = list(primaries)

    def project(expansion):
        # the point, and the projection's last workspace: at that point
        reads = _LiveReads(L, active, wvec, expansion)
        return _project(reads, reads.w, reads.raw, active, directions)[0], reads.ws

    ws = _Workspace(L, wvec, active, 1)
    # every projection's directions, from the start; L reads no p, so the
    # expansion serves the first projection too
    directions = _directions(read_order2(ws.L_taylor(2), ws.space), n)
    wvec, ws = project(ws.L_taylor(2))

    status = "MaxIterations"
    Z, rank = None, 0
    for _ in range(MAX_GENERATIONS):
        Z, rank, new, incompatible = _tangency(ws, active)
        if incompatible is not None:
            status = "Incompatible"
            generations.append(new + [incompatible])
            break
        if not new:
            status = "Closed"
            break
        generations.append(new)
        active = active + new
        # the last workspace is at wvec, its expansion of L deep enough
        wvec, ws = project(ws.L_taylor(1 + len(generations)))

    kdim = Z.undetermined.shape[1] if Z is not None else 0
    ladder = ConstraintLadder(generations, status, wvec, rank, kdim, TOL, directions)
    return ladder, Z if status == "Closed" else None


class _ClosedReads:
    """_reads of a closed set of constraints as a function of one point
    alone, at one point or at a (B, dim) stack (one row of reads per
    point): of the mixed-space point, or with `lift` of the velocity side
    (t, q, v, s), whose momenta p = dL/dv it fills in from its own
    expansion of L before the reads.  With `solve` (constraints that
    closed with full rank) the reads come solved (_solve): C in the
    template, the pivot margins after L's data, then Newton's step (_solve).

    One recording (jets.Tape), made at the first read, runs L's expansion,
    to 1 plus the deepest generation, the reads and the solve, so the
    replay program drops every coefficient of L that nothing reads.  L's
    parameter values, fixed with L, are constants in it.  `point` is the
    replay at one point, a list of floats in and out; a refused recording
    runs live."""

    def __init__(self, L: LagrangianSystem, active: list[ConstraintFn], lift: bool = False,
                 solve: bool = True):
        self.L, self.active, self.lift, self.solve = L, active, lift, solve

    @functools.cached_property
    def tape(self) -> Tape:
        return Tape.record(self._build, (2 if self.lift else 3) * self.L.n + 2)

    @property
    def point(self) -> Callable[[list], list]:
        return self.tape.point

    def _build(self, x) -> list:
        L, active, n = self.L, self.active, self.L.n
        order = 1 + max(c.generation for c in active)
        unified = CoordinateSpace.unified(n)
        w = [*x[: 1 + 2 * n], *[0.0] * n, x[-1]] if self.lift else x
        expansion = expand(L._on(unified), w, order)
        if self.lift:
            # L does not read p: its expansion at p = 0 serves the lifted point
            w[1 + 2 * n : 1 + 3 * n] = [expansion.terms.get(k, 0.0)
                                        for k in _strides(unified.dim)[1 + n : 1 + 2 * n]]
        reads = _reads(_Workspace(L, w, active, 1, expansion), active)
        newton = len(active) == n and not self.lift  # the momentum constraints' (legendre_invert)
        return _solve(reads, len(active), n, newton) if self.solve else reads

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return np.array(self.point(x.tolist()), dtype=float)
        return np.stack(self.tape(x.T), axis=1)


def momentum_reads(L: LagrangianSystem) -> _ClosedReads:
    """The _ClosedReads of L's momentum constraints alone, the whole ladder
    of a regular L, held on L: legendre_invert replays it at every Newton
    iterate, and a one-generation ladder of full rank replays it as its
    own.  It solves for C: the momentum constraints of a regular L have
    full rank."""
    return L._held("momentum",
                   lambda: _ClosedReads(L, [_PrimaryConstraint(L, j) for j in range(L.n)]))


def _ladder_reads(L: LagrangianSystem, ladder: ConstraintLadder, lift: bool = False):
    """The closed ladder's _ClosedReads (with `lift`, of the velocity side),
    solving for C if it closed with full rank; a one-generation ladder's
    of full rank is momentum_reads(L)."""
    if ladder.status != "Closed":
        raise LadderNotClosed(f"ladder status is {ladder.status}")
    reads = ladder._reads.get(lift)
    if reads is None or reads.L is not L:
        full = ladder.rank == L.n
        one = ladder.n_generations == 1 and not lift and full
        reads = momentum_reads(L) if one else _ClosedReads(L, ladder.active(), lift, full)
        ladder._reads[lift] = reads
    return reads


def assemble_Z(L: LagrangianSystem, w,
               ladder: ConstraintLadder) -> ZCoefficients | list[ZCoefficients]:
    """Field coefficients at a point, given an already-closed ladder; at a
    (B, dim) stack of points, the list of the B points' coefficients.

    No feasibility check is performed here: integrator stages evaluate the
    field slightly off the submanifold by design, and the coefficients
    extend smoothly.  The ladder's Taylor work, L's expansion included, is
    recorded at the first call and replayed after it, once for a whole
    stack (_ClosedReads); the numpy tail (_field) is the one discovery
    runs, once per point.  On a ladder closed with full rank the tape
    solves for C as well (_solve), the tail is slices, and a point where
    the C-system has lost rank raises NumericalBreakdown naming the pivot
    margin; otherwise C is the minimum-norm choice from an SVD (zero along
    the undetermined directions).
    """
    reads = _ladder_reads(L, ladder)
    wvec = _as_wvec(L.n, w, stacked=True)
    Zs = [_field(rb, len(reads.active), L.n)[0]
          for rb in np.atleast_2d(reads(wvec))]
    return Zs[0] if wvec.ndim == 1 else Zs
