"""Trajectories in the three descriptions, with residual instrumentation.

One dynamical field on the mixed phase space drives three pictures of the
same motion:

  unified      state (t, q, v, p, s), field coefficients (1, B, C, D, E)
  lagrangian   state (t, q, v, s): drop the momentum block; the lift
               recovers momenta from the fibre derivative p = dL/dv
  hamiltonian  state (t, q, p, s): drop the velocity block; the lift
               recovers velocities by inverting the fibre derivative
               (regular case)

Every trajectory, whichever description produced it, is stored together
with its lift to the mixed space, so all four residual channels are
defined uniformly:

  holonomy     max_i |qdot_i - v_i|      (finite-differenced q against v)
  sdot         |sdot - L|                (action rate against the value)
  herglotz     max-norm of the damped evolution-equation defect
  constraint   max_i |xi_i|              (drift off the admissible set)

Time derivatives entering the channels come from 5-point finite-difference
stencils on the sample grid (exact-order weights on arbitrary node
spacing), so the channels measure integrator error only and shrink at the
integrator's order as the step decreases.

Fixed-step runs assign each sample time as t0 + k * step exactly; the time
coordinate never accumulates roundoff.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .jets import CoordinateSpace, JetDomainError
from .mechanics import LagrangianSystem, herglotz_defect
from .pontryagin import (
    AlgorithmOptions,
    ConstraintLadder,
    InfeasiblePoint,
    NumericalBreakdown,
    _field,
    _ladder_reads,
    _layout,
    _project,
    _test_margins,
    hamiltonian_part,
    lagrangian_part,
    momentum_reads,
    run_constraint_algorithm,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "NonInvertibleLegendre",
    "StepFailure",
    "LadderLost",
    "legendre_invert",
    "unified_field",
    "lagrangian_field",
    "hamiltonian_field",
    "integrate",
    "residual_channels",
    "residual_report",
    "cross_check_equivalence",
    "EquivalenceReport",
    "trajectory_to_csv",
    "trajectory_to_json",
]

RESIDUAL_CHANNELS = ("holonomy", "sdot", "herglotz", "constraint")


class NonInvertibleLegendre(ArithmeticError):
    """Velocity recovery from momenta failed: the fibre derivative is not
    invertible at this point (singular Lagrangian or bad seed)."""


class StepFailure(RuntimeError):
    """The integrator cannot go on: the adaptive step size fell below the
    resolvable minimum without meeting its error target, or a step
    produced a non-finite state."""


class LadderLost(RuntimeError):
    """Constraint drift exceeded 10x the feasibility tolerance while
    reprojection was off."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Integration settings.

    method "rk4" is fixed-step, at most MAX_STEPS steps; "rk45" adapts
    from `step`.  reproject pulls the state back onto the constraint set
    after every accepted step; with it off, drift is only monitored.
    """

    method: str = "rk4"
    step: float = 1e-3
    t_end: float = 10.0
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    reproject: bool = False

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("step", "t_end", "abs_tol", "rel_tol"):
            x = getattr(self, name)
            # bool is an int subclass: "step": true would run at step 1.0
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"{name} must be a finite number, got {x!r}")
        if not math.isfinite(self.t_end):
            raise ValueError("t_end must be finite")
        if not 0 < self.step < math.inf:
            raise ValueError("step must be finite and positive")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and positive")
        # a string such as "no" is truthy: it would turn reprojection on
        if not isinstance(self.reproject, bool):
            raise ValueError(f"reproject must be true or false, got {self.reproject!r}")


# -- velocity <-> momentum conversions ----------------------------------


def _floats(x, length: int, what: str) -> list:
    """x as a list of `length` floats; a list of that length passes as it is."""
    if type(x) is list and len(x) == length:
        return x
    if np.shape(x) != (length,):
        raise ValueError(f"expected {what} of length {length}, got shape {np.shape(x)}")
    return np.asarray(x, dtype=float).tolist()


def _max_abs(xs) -> float:
    """max |x| as numpy's max gives it: NaN if any x is NaN; 0 for none."""
    a = list(map(abs, xs))
    total = sum(a)  # NaN exactly when some |x| is: inf + inf is inf
    return max(a, default=0.0) if total == total else math.nan


LEGENDRE_TOL = 1e-12  # legendre_invert's convergence threshold, relative
LEGENDRE_MAX_ITER = 60


def legendre_invert(L: LagrangianSystem, y, v0=None,
                    replay: Callable[[list], list] | None = None) -> tuple[list, list]:
    """Solve dL/dv(t, q, v, s) = p for v by Newton iteration, on floats.

    y is a momentum-space point (t, q, p, s).  v0 seeds the iteration
    (zeros by default); for Lagrangians whose fibre derivative is affine in
    v one step is exact.  Each iterate is one replay of the momentum
    constraints' reads at (t, q, v, p, s) (pontryagin.momentum_reads, or a
    run's `replay` of them): its QR solve of M = -d2L/dv dv gives the step
    M dv = -(p - dL/dv) and the pivot margins, tested against
    pontryagin.RANK_TOL (NonInvertibleLegendre).  Converged once
    max |p - dL/dv| <= LEGENDRE_TOL * max(1, max |p|).  Returns v and the
    reads the convergence test read, as lists of floats.
    """
    n = L.n
    y = _floats(y, 2 * n + 2, "a momentum-space point")
    v = [0.0] * n if v0 is None else _floats(v0, n, "a velocity seed v0")
    w = y[: 1 + n] + v + y[1 + n :]
    # Newton cannot converge from a non-finite point; it would spend every iteration
    if not all(map(math.isfinite, w)):
        bad = "velocity seed v0" if all(map(math.isfinite, y)) else "momentum-space point y"
        raise NonInvertibleLegendre(f"non-finite {bad}")
    replay = replay or momentum_reads(L).point
    within = (LEGENDRE_TOL * max(1.0, *map(abs, y[1 + n : 1 + 2 * n]))).__ge__  # False for NaN
    vs, (margins, step) = slice(1 + n, 1 + 2 * n), _layout(n, n)[3:]
    for _ in range(LEGENDRE_MAX_ITER):
        raw = replay(w)
        if all(map(within, map(abs, raw[:n]))):
            return w[vs], raw
        _test_margins(raw[margins], NonInvertibleLegendre, "velocity Hessian",
                      "the fibre derivative is not invertible")
        w[vs] = map(operator.add, w[vs], raw[step])
    raise NonInvertibleLegendre(
        f"velocity recovery did not converge within {LEGENDRE_MAX_ITER} iterations"
    )


# -- evaluable fields in the three descriptions -------------------------


@dataclass
class UnifiedField:
    """The dynamical field on the mixed space, states (t, q, v, p, s).

    Each description reads its states its own way: _read takes a state, a
    list of floats, to its lift w to the mixed space and the ladder's
    reads there (pontryagin._reads' layout), both lists; here one replay
    of the ladder's tape.  _drop takes a mixed-space list back to the
    description's layout.  eval(state) is _read, then the tail discovery
    and assemble_Z run (pontryagin._field): a ladder closed with full rank
    reads C already (pontryagin._solve), and its pivot margins are tested
    against pontryagin.RANK_TOL (NumericalBreakdown); otherwise an SVD
    writes C into the reads' template.  It returns (derivative, w,
    reads), lists: the coefficient vector, constraint values and L's
    order-2 data are slices of the reads (pontryagin._layout).  drift(evaluation) is max
    |xi| over an evaluation's constraint values.  The tape a field reads
    is recorded when the field is made.  One instance drives one
    trajectory at a time.
    """

    L: LagrangianSystem
    ladder: ConstraintLadder
    _replay: Callable = field(default=None, init=False, repr=False, compare=False)
    kind = "unified"

    def __post_init__(self):
        n, self._R = self.L.n, len(self.ladder.active())
        _, self._template, data, self._margins, _ = _layout(self._R, n)
        self._p = slice(data.start + 2 + n, data.start + 2 + 2 * n)  # dL/dv in L's data
        self._replay = self._reads().point

    def _reads(self):
        return _ladder_reads(self.L, self.ladder)

    def _read(self, state: list) -> tuple[list, list]:
        return state, self._replay(state)

    def _drop(self, w: list) -> list:
        return w

    def lift(self, state) -> np.ndarray:
        return np.asarray(state, dtype=float)

    def drop(self, w) -> np.ndarray:
        return np.array(self._drop(np.asarray(w, dtype=float).tolist()))

    def __call__(self, state) -> np.ndarray:
        return np.array(self.eval(state)[0])

    def eval(self, state) -> tuple[list, list, list]:
        if type(state) is not list:
            state = np.asarray(state, dtype=float).tolist()
        w, raw = self._read(state)
        if len(raw) > self._margins.start:
            _test_margins(raw[self._margins], NumericalBreakdown, "C-system",
                          "the tangency conditions lost rank")
        else:
            solved = np.array(raw, dtype=float)
            _field(solved, self._R, self.L.n)
            raw = solved.tolist()
        return self._drop(raw[self._template]), w, raw

    def drift(self, evaluation: tuple) -> float:
        return _max_abs(evaluation[2][: self._R])

    def reproject(self, state) -> np.ndarray:
        """Project a state onto the constraint set: a run's initial state,
        and each step's with reprojection on.  It starts, as project_onto
        does, at the lift with p = dL/dv: a state with a p of its own is
        read again once it is filled in, or, where its own p breaks the
        reads down, read on the velocity side.  The mixed-space tape is
        recorded when Gauss-Newton first moves."""
        n, reads = self.L.n, _ladder_reads(self.L, self.ladder)
        try:
            w, raw = self._read(np.asarray(state, dtype=float).tolist())
        except (NumericalBreakdown, JetDomainError):
            x = lagrangian_part(self.lift(state), n).tolist()
            w, raw = LagrangianField(self.L, self.ladder)._read(x)
        w, raw = np.array(w, dtype=float), np.array(raw, dtype=float)
        p = raw[self._p]
        if p.tobytes() != w[1 + 2 * n : 1 + 3 * n].tobytes():
            w = np.concatenate((w[: 1 + 2 * n], p, w[1 + 3 * n :]))
            raw = reads(w)
        return self.drop(_project(reads, w, raw, reads.active, self.ladder.directions)[0])


def _lift_by_read(self, state) -> np.ndarray:
    """The w the description's read gives: a replay, a new array each call."""
    return np.array(self._read(np.asarray(state, dtype=float).tolist())[0])


class LagrangianField(UnifiedField):
    """Velocity-side description: states (t, q, v, s).  Its reads replay
    the ladder's velocity-side tape, which fills in the momenta p = dL/dv
    before the constraints read the point; the lift reads them back."""

    kind = "lagrangian"
    lift = _lift_by_read

    def _reads(self):
        return _ladder_reads(self.L, self.ladder, lift=True)

    def _read(self, x: list) -> tuple[list, list]:
        raw = self._replay(x)
        return x[:-1] + raw[self._p] + x[-1:], raw

    def _drop(self, w: list) -> list:
        return w[: 1 + 2 * self.L.n] + w[-1:]

    # entries of their own: bench/tracer.py wraps eval and drift per class __dict__
    eval = UnifiedField.eval
    drift = UnifiedField.drift


@dataclass
class HamiltonianField(UnifiedField):
    """Momentum-side description: states (t, q, p, s); the lift recovers
    the velocities by inverting the fibre derivative (regular Lagrangians
    only), warm-started from the previous lift.  A regular ladder is the
    momentum constraints alone: the reads Newton converged with are the
    ladder's at the lift, and the tail reads them."""

    kind = "hamiltonian"
    _last_v: list | None = field(default=None, init=False, repr=False)
    lift = _lift_by_read

    def _reads(self):
        return momentum_reads(self.L)

    def _read(self, y: list) -> tuple[list, list]:
        n = self.L.n
        v, raw = legendre_invert(self.L, y, self._last_v, replay=self._replay)
        self._last_v = v
        return y[: 1 + n] + v + y[1 + n :], raw

    def _drop(self, w: list) -> list:
        n = self.L.n
        return w[: 1 + n] + w[1 + 2 * n : 1 + 3 * n] + w[-1:]

    # entries of their own: bench/tracer.py wraps eval and drift per class __dict__
    eval = UnifiedField.eval
    drift = UnifiedField.drift


def unified_field(L: LagrangianSystem, ladder: ConstraintLadder,
                  opts: AlgorithmOptions | None = None) -> UnifiedField:
    """UnifiedField(L, ladder); opts is ignored (AlgorithmOptions has no fields)."""
    return UnifiedField(L, ladder)


lagrangian_field = LagrangianField
hamiltonian_field = HamiltonianField

# description name -> field class, as in Trajectory.kind
FIELDS = {cls.kind: cls for cls in (UnifiedField, LagrangianField, HamiltonianField)}


# -- trajectories -------------------------------------------------------


@dataclass(frozen=True)
class Trajectory:
    """An integrated curve plus its lift to the mixed phase space.

    states holds the native description ((t,q,v,p,s), (t,q,v,s) or
    (t,q,p,s) depending on kind); lifted always holds mixed-space vectors;
    coeffs holds the field coefficient vector (1, B, C, D, E) at each
    sample.  residuals maps channel name to a per-sample array.  The
    undetermined-directions basis is not retained per sample (re-assemble
    the field at a sample if it is needed).
    """

    kind: str
    n: int
    times: np.ndarray
    states: np.ndarray
    lifted: np.ndarray
    coeffs: np.ndarray
    residuals: dict[str, np.ndarray]

    def __post_init__(self):
        if len(self.times) < 1:
            raise ValueError("empty trajectory")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must increase strictly")

    def __len__(self) -> int:
        return len(self.times)

    def channel_max(self, name: str) -> float:
        return float(np.max(self.residuals[name]))


# -- finite-difference weights (arbitrary nodes, exact order) -----------


def _fd_weights(z, nodes, m: int) -> np.ndarray:
    """Weights of the derivatives up to order m at z from the given nodes
    (Fornberg's recursion), shape (len(nodes), m + 1).  z and nodes may
    carry leading batch axes, z (...) and nodes (..., K): one stencil per
    batch entry, shape (..., K, m + 1), each entry bit-identical to its
    own unbatched call."""
    z = np.asarray(z, dtype=float)
    nodes = np.asarray(nodes, dtype=float)
    nnodes = nodes.shape[-1]
    c = np.zeros(np.broadcast_shapes(z.shape, nodes.shape[:-1]) + (nnodes, m + 1))
    c1 = 1.0
    c4 = nodes[..., 0] - z
    c[..., 0, 0] = 1.0
    for i in range(1, nnodes):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[..., i] - z
        for j in range(i):
            c3 = nodes[..., i] - nodes[..., j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[..., i, k] = c1 * (k * c[..., i - 1, k - 1] - c5 * c[..., i - 1, k]) / c2
                c[..., i, 0] = -c1 * c5 * c[..., i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[..., j, k] = (c4 * c[..., j, k] - k * c[..., j, k - 1]) / c3
            c[..., j, 0] = c4 * c[..., j, 0] / c3
        c1 = c2
    return c


def residual_channels(
    L: LagrangianSystem,
    times: np.ndarray,
    lifted: np.ndarray,
    ladder: ConstraintLadder | None = None,
    xi: np.ndarray | None = None,
    L_data: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """The four per-sample residual channels of a (lifted) trajectory.

    Works on raw arrays so that deliberately perturbed data can be fed
    through the same instrumentation as real runs.  integrate passes what
    the field's evaluation returned at each sample: xi, shape (N, R), the
    constraint values, and L_data, shape (N, ...), L's flat order-2 data
    (mechanics.read_order2).  Whichever is missing comes from one replay
    of the lifted samples as a stack: the ladder's tape, or the momentum
    constraints' (pontryagin.momentum_reads) when no ladder is given.
    Everything else is one batched pass too.
    """
    times = np.asarray(times, dtype=float)
    lifted = np.asarray(lifted, dtype=float)
    N = len(times)
    n = (lifted.shape[1] - 2) // 3
    if N < 2:
        raise ValueError("need at least two samples for residual channels")
    qs = slice(1, 1 + n)
    vs = slice(1 + n, 1 + 2 * n)
    lag = np.concatenate((lifted[:, : 1 + 2 * n], lifted[:, -1:]), axis=1)

    # 5-node window per sample, shifted one-sided at the ends so every
    # sample keeps a 4th-order stencil
    width = min(N, 5)
    windows = np.clip(np.arange(N) - 2, 0, N - width)[:, None] + np.arange(width)
    wgt = _fd_weights(times, times[windows], 1)[..., 1]
    # d/dt of (t, q, v, s) at each sample: (N, 1, width) @ (N, width, 2n+2)
    rates = np.matmul(wgt[:, None, :], lag[windows])[:, 0]

    if xi is None or L_data is None:
        reads = _ladder_reads(L, ladder) if ladder is not None else momentum_reads(L)
        R = len(reads.active)
        raw = reads(lifted)
        xi = raw[:, :R] if xi is None else xi
        L_data = raw[:, _layout(R, n)[2]] if L_data is None else L_data
    vector, sdot_defect = herglotz_defect(lag, L_data, rates[:, vs], rates[:, -1])
    return {
        "holonomy": np.max(np.abs(rates[:, qs] - lag[:, vs]), axis=1),
        "sdot": np.abs(sdot_defect),
        "herglotz": np.max(np.abs(vector), axis=1),
        "constraint": np.max(np.abs(np.asarray(xi, dtype=float)), axis=1),
    }


# -- integrators --------------------------------------------------------

MAX_STEPS = 1_000_000  # the most steps an rk4 run may take

# Fehlberg 4(5) tableau
_RKF_A = (
    (),
    (0.25,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)


def _combine(y: list, h: float, coefs: tuple, ks: list) -> list:
    """y + h * (a_1 k_1 + a_2 k_2 + ...) per component, summed from 0 in
    the tableau's order."""
    return [yi + h * functools.reduce(operator.add, map(operator.mul, coefs, col), 0)
            for yi, *col in zip(y, *ks)]


def _rk4_steps(t0: float, cfg: IntegratorConfig) -> Iterator[tuple[float, float]]:
    """(step, exact time after it): the full steps, then the remainder, one
    at a time once their count is checked against MAX_STEPS."""
    h, span = cfg.step, cfg.t_end - t0
    if not span / h <= MAX_STEPS:
        raise ValueError(f"step {h:.3g} over [{t0:.6g}, {cfg.t_end:.6g}] would take "
                         f"{span / h:.3g} steps, more than MAX_STEPS = {MAX_STEPS}")
    n_full = math.floor(span / h + 1e-12)
    rem = span - n_full * h
    steps = ((h, t0 + (k + 1) * h) for k in range(n_full))
    if rem > 1e-12 * max(1.0, abs(cfg.t_end)):
        return itertools.chain(steps, [(rem, cfg.t_end)])
    return steps


def integrate(field: UnifiedField, x0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a field from an initial state, projected onto the
    admissible set first.  For fixed-step runs each sample time is assigned
    exactly as t0 + k * step, and a run of more than MAX_STEPS steps
    raises ValueError before the field is evaluated.  With cfg.reproject
    the state is pulled back onto the constraint set after every accepted
    step, and a stalled reprojection raises InfeasiblePoint naming the
    step's time; otherwise drift beyond 10x the feasibility tolerance
    raises LadderLost.  A non-finite accepted state raises StepFailure.

    The steps run on lists of Python floats, in numpy's order of
    operations: the bits of array arithmetic.  Each stage is one
    field.eval; an accepted state's eval serves its drift check and the
    next step's first stage.  The accepted states' lifts and reads become
    arrays once, at the end, and the residual pass reads the constraint
    values and L's order-2 data there, so it expands nothing.
    """
    y = field.reproject(x0).tolist()
    t0 = y[0]
    if not cfg.t_end > t0:
        raise ValueError(f"t_end = {cfg.t_end} does not lie beyond t0 = {t0}")
    steps = _rk4_steps(t0, cfg) if cfg.method == "rk4" else None
    drift_cap = 10.0 * field.ladder.tolerance
    evaluate = field.eval
    times, states, evals = [t0], [y], []

    def accept(y: list, t_exact: float) -> tuple:
        y[0] = t_exact
        if not all(map(math.isfinite, y)):
            raise StepFailure(f"non-finite state at t = {t_exact:.6g}")
        if cfg.reproject:
            try:
                y = field.reproject(y).tolist()
            except InfeasiblePoint as exc:
                # the advice on initial points would mislead mid-run
                raise InfeasiblePoint(f"reprojection failed at t = {t_exact:.6g}: "
                                      f"{exc.stall or exc} (reduce the step)") from exc
            y[0] = t_exact
        ev = evaluate(y)
        d = 0.0 if cfg.reproject else field.drift(ev)
        if d > drift_cap:
            raise LadderLost(f"constraint drift {d:.3e} exceeds {drift_cap:.1e} at t = "
                             f"{t_exact:.6g} (enable reprojection or reduce the step)")
        times.append(t_exact)
        states.append(y)
        evals.append(ev)
        return y, ev

    # numpy runs at the edges only (projections, an SVD tail); an
    # overflowing step reaches them with inf and nan, and accept names the
    # failure, so numpy's warnings on the way there are noise
    with np.errstate(over="ignore", invalid="ignore"):
        ev = evaluate(y)
        evals.append(ev)
        if steps is not None:
            for h, t_exact in steps:
                k1, c = ev[0], 0.5 * h
                k2 = evaluate([a + c * b for a, b in zip(y, k1)])[0]
                k3 = evaluate([a + c * b for a, b in zip(y, k2)])[0]
                k4 = evaluate([a + h * b for a, b in zip(y, k3)])[0]
                c = h / 6.0
                y, ev = accept([a + c * (b + 2.0 * d2 + 2.0 * d3 + d4)
                                for a, b, d2, d3, d4 in zip(y, k1, k2, k3, k4)], t_exact)
        else:
            h, t = cfg.step, t0
            while t < cfg.t_end - 1e-12 * max(1.0, abs(cfg.t_end)):
                h = min(h, cfg.t_end - t)
                if h < 1e-13 * max(1.0, abs(t)):
                    raise StepFailure(f"step size underflow at t = {t:.6g}")
                ks = [ev[0]]
                for row in _RKF_A[1:]:
                    ks.append(evaluate(_combine(y, h, row, ks))[0])
                y5 = _combine(y, h, _RKF_B5, ks)
                ratio = _max_abs([abs(a - b) / (cfg.abs_tol + cfg.rel_tol * max(abs(c), abs(a)))
                                  for a, b, c in zip(y5, _combine(y, h, _RKF_B4, ks), y)])
                if ratio <= 1.0:
                    t = t + h
                    y, ev = accept(y5, t)
                    h = h * max(0.2, 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2))
                else:
                    h = h * max(0.2, 0.9 * ratio ** -0.2)

    times_arr, lifted = np.array(times), np.array([ev[1] for ev in evals], dtype=float)
    R, n = len(field.ladder.active()), field.L.n
    rows = np.array([ev[2] for ev in evals], dtype=float)
    coeffs, L_data, xi = (np.ascontiguousarray(rows[:, c]) for c in (*_layout(R, n)[1:3], slice(R)))
    residuals = residual_channels(field.L, times_arr, lifted, field.ladder, xi, L_data)
    return Trajectory(field.kind, n, times_arr, np.array(states), lifted, coeffs, residuals)


def residual_report(L: LagrangianSystem, traj: Trajectory) -> dict[str, dict[str, float]]:
    """Per-channel max and RMS over a trajectory."""
    out = {}
    for name in RESIDUAL_CHANNELS:
        arr = traj.residuals[name]
        out[name] = {
            "max": float(np.max(arr)),
            "rms": float(np.sqrt(np.mean(arr * arr))),
        }
    return out


# -- cross-description consistency --------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Maximum deviations between the three descriptions of one motion.

    lagrangian: velocity-side projection of the mixed run vs the native
    velocity-side run; hamiltonian: same on the momentum side; legendre:
    fibre-derivative image of the velocity-side run vs the momentum-side
    run.  On a singular fibre map the momentum description is undefined:
    dev_hamiltonian, dev_legendre and the hamiltonian run are None.
    """

    dev_lagrangian: float
    dev_hamiltonian: float | None
    dev_legendre: float | None
    unified: Trajectory
    lagrangian: Trajectory
    hamiltonian: Trajectory | None

    def as_dict(self) -> dict:
        return {
            "dev_lagrangian": self.dev_lagrangian,
            "dev_hamiltonian": self.dev_hamiltonian,
            "dev_legendre": self.dev_legendre,
        }

    @property
    def max_deviation(self) -> float:
        return max(d for d in self.as_dict().values() if d is not None)


def cross_check_equivalence(
    L: LagrangianSystem,
    x0,
    cfg: IntegratorConfig,
) -> EquivalenceReport:
    """Run the same motion in all three descriptions and compare.

    x0 is a mixed-space initial state (projected onto the constraint set
    before anything runs); the velocity- and momentum-side runs start from
    its projections.  Requires the fixed-step method so all three runs
    share one time grid.  When the momentum run raises
    NonInvertibleLegendre (a singular fibre map), only the mixed and
    velocity descriptions are compared.
    """
    if cfg.method != "rk4":
        raise ValueError("cross-checking needs a shared fixed-step grid; use rk4")
    ladder, _ = run_constraint_algorithm(L, x0)
    n = L.n
    w0 = ladder.probe

    # the momentum side first: a singular fibre map fails its lift before
    # the other two runs are spent
    try:
        traj_y = integrate(HamiltonianField(L, ladder), hamiltonian_part(w0, n), cfg)
    except NonInvertibleLegendre:
        traj_y = None
    traj_z = integrate(UnifiedField(L, ladder), w0, cfg)
    traj_x = integrate(LagrangianField(L, ladder), lagrangian_part(w0, n), cfg)

    if len({len(t) for t in (traj_z, traj_x, traj_y) if t is not None}) != 1:
        raise RuntimeError("description runs produced different grids")

    def dev(lifted, states, part):
        return max(0.0, *(float(np.max(np.abs(part(w, n) - x))) for w, x in zip(lifted, states)))

    dev_lag = dev(traj_z.lifted, traj_x.states, lagrangian_part)
    if traj_y is None:
        return EquivalenceReport(dev_lag, None, None, traj_z, traj_x, None)
    dev_ham = dev(traj_z.lifted, traj_y.states, hamiltonian_part)
    dev_leg = dev(traj_x.lifted, traj_y.states, hamiltonian_part)
    return EquivalenceReport(dev_lag, dev_ham, dev_leg, traj_z, traj_x, traj_y)


# -- export -------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """One row per sample: t, q1..qn, v1..vn, p1..pn, s, then the four
    residual channels.  %.17g preserves every float bit-exactly."""
    header = [*CoordinateSpace.unified(traj.n).names, *(f"res_{c}" for c in RESIDUAL_CHANNELS)]
    rows = [",".join(header)]
    for k in range(len(traj)):
        vals = [*traj.lifted[k], *(traj.residuals[c][k] for c in RESIDUAL_CHANNELS)]
        rows.append(",".join(f"{x:.17g}" for x in vals))
    with open(path, "w") as fh:
        fh.write("\n".join(rows) + "\n")


def trajectory_to_json(traj: Trajectory, path=None) -> dict:
    """JSON view of a trajectory.

    schema: kind, n, times[], states[][], lifted[][], coeffs[][],
    residuals{channel: []}.  Returns the dict; writes it when a path is
    given.
    """
    doc = {
        "kind": traj.kind,
        "n": traj.n,
        "times": traj.times.tolist(),
        "states": traj.states.tolist(),
        "lifted": traj.lifted.tolist(),
        "coeffs": traj.coeffs.tolist(),
        "residuals": {k: v.tolist() for k, v in traj.residuals.items()},
    }
    if path is not None:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
    return doc
