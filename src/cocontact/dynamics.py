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

import json
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import CoordinateSpace, JetDomainError
from .mechanics import LagrangianSystem, herglotz_defect, order2_parts
from .pontryagin import (
    AlgorithmOptions,
    ConstraintLadder,
    InfeasiblePoint,
    NumericalBreakdown,
    _field,
    _ladder_reads,
    _layout,
    _project,
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

    method "rk4" is fixed-step; "rk45" is adaptive with `step` as the
    initial trial.  reproject pulls the state back onto the constraint set
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


def legendre_invert(
    L: LagrangianSystem,
    y,
    v0=None,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve dL/dv(t, q, v, s) = p for v by Newton iteration.

    y is a momentum-space point (t, q, p, s).  v0 seeds the iteration
    (zeros by default); for Lagrangians whose fibre derivative is affine in
    v one step is exact.  Each iterate is one replay of the momentum
    constraints' reads at the mixed-space point (t, q, v, p, s)
    (pontryagin.momentum_reads) and takes dL/dv and d2L/dv dv from L's
    order-2 data in them.  Returns v and the reads at the converged point,
    the ones the convergence test read.
    """
    n = L.n
    yvec = np.asarray(y, dtype=float)
    if yvec.shape != (2 * n + 2,):
        raise ValueError(f"expected a momentum-space point of length {2 * n + 2}")
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    w = np.concatenate((yvec[: 1 + n], v, yvec[1 + n :]))
    # Newton cannot converge from a non-finite point; it would spend every iteration
    if not all(map(math.isfinite, w.tolist())):
        finite_y = all(map(math.isfinite, yvec.tolist()))
        raise NonInvertibleLegendre(
            f"non-finite {'velocity seed v0' if finite_y else 'momentum-space point y'}"
        )
    vs = slice(1 + n, 1 + 2 * n)
    p = w[1 + 2 * n : 1 + 3 * n]
    reads, L_data = momentum_reads(L), _layout(n, n)[2]
    for _ in range(max_iter):
        raw = reads(w)
        grad, H = order2_parts(raw[L_data], n)
        F = grad[vs] - p
        if np.abs(F).max() <= tol:
            return w[vs].copy(), raw
        # one factorisation serves the singularity test and the step
        U, sigma, Vt = np.linalg.svd(H[vs])
        if sigma[-1] <= 1e-12 * max(sigma[0], 1.0):
            raise NonInvertibleLegendre(
                f"velocity Hessian is singular (sigma_min = {sigma[-1]:.2e})"
            )
        w[vs] -= Vt.T @ ((U.T @ F) / sigma)
    raise NonInvertibleLegendre(
        f"velocity recovery did not converge within {max_iter} iterations"
    )


# -- evaluable fields in the three descriptions -------------------------


@dataclass
class UnifiedField:
    """The dynamical field on the mixed space, states (t, q, v, p, s).

    Each description supplies two maps between its own states and the
    mixed space: lift(state) -> w, the mixed-space point, and
    drop(w) -> state; here both are the identity.  prepare, reproject,
    eval and drift are written once in terms of them and of _read: here
    one replay of the ladder's tape, L's expansion included.  Every
    description evaluates as _read, then the numpy tail pontryagin._field,
    the one assemble_Z and discovery run.  On a ladder closed with full
    rank the read carries C already (pontryagin._solve) and the tail is
    slices; a state where the C-system has lost rank raises
    NumericalBreakdown naming the pivot margin, compared against
    opts.rank_tol.

    eval(state) -> (derivative, coefficient vector on the mixed space,
    lifted mixed-space state, constraint values at the lift in
    ladder.active() order, L's order-2 data at the lift's velocity side as
    mechanics.read_order2 returns it).  The constraint values and the L
    data come out of the evaluation itself, never from a second pass.  The
    last evaluation is kept, keyed by the state's bytes, and drift reads
    it too: the drift check at an accepted state and the eval that follows
    share one evaluation.  A reprojection leaves its own there when the
    eval that follows would replay its last read.  Callers must not modify
    the returned arrays in place.  One instance drives one trajectory at a
    time.
    """

    L: LagrangianSystem
    ladder: ConstraintLadder
    opts: AlgorithmOptions = field(default_factory=AlgorithmOptions)
    _last: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    kind = "unified"
    # whether eval reads the mixed-space tape, as a projection that moved
    # did last; where it does not, reproject keeps its evaluation only if
    # Gauss-Newton did not move, its last read being eval's own
    _reads_mixed_space = True

    def lift(self, state: np.ndarray) -> np.ndarray:
        return state

    def drop(self, w: np.ndarray) -> np.ndarray:
        return w

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return self.eval(state)[0]

    def _read(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lift of a state and the ladder's reads there (pontryagin._reads)."""
        w = self.lift(state)
        return w, _ladder_reads(self.L, self.ladder)(w)

    def _tail(self, w: np.ndarray, raw: np.ndarray) -> tuple:
        # exact: the reads' template sets A = 1.0 and B = v
        Z = _field(raw, len(self.ladder.active()), self.L.n, self.opts)[0]
        return self.drop(Z.coeffs), Z.coeffs, w, Z.constraint_values, Z.L_data

    def _evaluate(self, state: np.ndarray):
        return self._tail(*self._read(state))

    def _evaluation(self, state) -> tuple:
        state = np.asarray(state, dtype=float)
        key = state.tobytes()
        if self._last[0] != key:
            self._last = (key, self._evaluate(state))
        return self._last[1]

    def eval(self, state):
        return self._evaluation(state)

    def prepare(self, x0) -> np.ndarray:
        """Project an initial state onto the constraint set."""
        return self.reproject(np.asarray(x0, dtype=float))

    def reproject(self, state: np.ndarray) -> np.ndarray:
        """Project a state back onto the constraint set after a step,
        starting, as project_onto does, at the lift with p = dL/dv: a state
        with a p of its own is read again once it is filled in, or, where
        its own p breaks the reads down, read on the velocity side.  The
        mixed-space tape is recorded when Gauss-Newton first moves.  Where
        the eval at the projected state would replay the projection's last
        read, that read's evaluation is kept for it."""
        n, reads = self.L.n, _ladder_reads(self.L, self.ladder)
        try:
            w, raw = self._read(state)
        except (NumericalBreakdown, JetDomainError):
            w, raw = LagrangianField._read(self, lagrangian_part(self.lift(state), n))
        p = raw[_layout(len(reads.active), n)[2]][2 + n : 2 + 2 * n]  # dL/dv in L's data
        if p.tobytes() != w[1 + 2 * n : 1 + 3 * n].tobytes():
            w = np.concatenate((w[: 1 + 2 * n], p, w[1 + 3 * n :]))
            raw = reads(w)
        w, last = _project(reads, w, raw, reads.active, self.opts)
        out = self.drop(w)
        if self._reads_mixed_space or last is raw:
            self._last = (out.tobytes(), self._tail(w, last))
        return out

    def drift(self, state: np.ndarray) -> float:
        vals = self._evaluation(state)[3]
        return float(np.max(np.abs(vals))) if len(vals) else 0.0


class LagrangianField(UnifiedField):
    """Velocity-side description: states (t, q, v, s).  Its reads replay
    the ladder's velocity-side tape, which fills in the momenta p = dL/dv
    before the constraints read the point; the lift reads them back."""

    kind = "lagrangian"
    _reads_mixed_space = False

    def lift(self, x: np.ndarray) -> np.ndarray:
        """(t, q, v, dL/dv, s): one replay of the velocity-side tape."""
        return self._read(x)[0]

    def drop(self, w: np.ndarray) -> np.ndarray:
        return lagrangian_part(w, self.L.n)

    def _read(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.L.n
        raw = _ladder_reads(self.L, self.ladder, lift=True)(x)
        p = raw[_layout(len(self.ladder.active()), n)[2]][2 + n : 2 + 2 * n]
        return np.concatenate((x[: 1 + 2 * n], p, x[-1:])), raw

    # entries of their own: bench/tracer.py wraps eval and drift per class __dict__
    eval = UnifiedField.eval
    drift = UnifiedField.drift


@dataclass
class HamiltonianField(UnifiedField):
    """Momentum-side description: states (t, q, p, s); the lift recovers
    the velocities by inverting the fibre derivative (regular Lagrangians
    only), warm-started from the previous lift.  A regular ladder is the
    momentum constraints p - dL/dv alone, so the reads the Newton
    iteration converged with are the ladder's reads at the lift, and the
    evaluation is the other descriptions' tail (pontryagin._field) on
    them.  Where a projection does not move, its last read is where the
    next lift converges at once."""

    kind = "hamiltonian"
    _reads_mixed_space = False
    _last_v: np.ndarray | None = field(default=None, init=False, repr=False)

    def _read(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The lift of y and legendre_invert's reads there: a regular L's
        ladder is the momentum constraints alone, so they are its reads."""
        n = self.L.n
        v, raw = legendre_invert(self.L, y, v0=self._last_v)
        self._last_v = v
        return np.concatenate((y[: 1 + n], v, y[1 + n : 1 + 2 * n], y[-1:])), raw

    def lift(self, y: np.ndarray) -> np.ndarray:
        return self._read(y)[0]

    def drop(self, w: np.ndarray) -> np.ndarray:
        return hamiltonian_part(w, self.L.n)

    # entries of their own: bench/tracer.py wraps eval and drift per class __dict__
    eval = UnifiedField.eval
    drift = UnifiedField.drift


unified_field = UnifiedField
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


def _rk4_step(f: Callable, y: np.ndarray, h: float, k1: np.ndarray) -> np.ndarray:
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _rkf45_step(f: Callable, y: np.ndarray, h: float, k1: np.ndarray):
    ks = [k1]
    for row in _RKF_A[1:]:
        yk = y + h * sum(a * k for a, k in zip(row, ks))
        ks.append(f(yk))
    y5 = y + h * sum(b * k for b, k in zip(_RKF_B5, ks))
    y4 = y + h * sum(b * k for b, k in zip(_RKF_B4, ks))
    return y5, np.abs(y5 - y4)


def integrate(field: UnifiedField, x0, cfg: IntegratorConfig) -> Trajectory:
    """Integrate a field from an initial state.

    The initial state is projected onto the admissible set first.  For
    fixed-step runs each sample time is assigned exactly as t0 + k * step.
    With cfg.reproject the state is pulled back onto the constraint set
    after every accepted step, and a reprojection that stalls raises
    InfeasiblePoint naming the step's time; otherwise drift is monitored
    and exceeding 10x the feasibility tolerance raises LadderLost.  A
    non-finite accepted state raises StepFailure; numpy's floating-point
    warnings from the steps that led there are silenced.  The residual
    pass reads the constraint values and L's order-2 data each accepted
    state's evaluation returned, so it expands nothing.
    """
    y = field.prepare(x0)
    t0 = float(y[0])
    if cfg.t_end <= t0:
        raise ValueError(f"t_end = {cfg.t_end} does not lie beyond t0 = {t0}")

    drift_cap = 10.0 * field.opts.tol
    times = [t0]
    states = [y.copy()]
    # (coeffs, lifted, constraint values, L data) at each accepted state,
    # packed as one row: the evaluation's arrays are views of the buffer
    # its reads came in, which holds the constraint gradients too
    samples = []

    def accept(ynew, t_exact):
        ynew[0] = t_exact
        if not np.isfinite(ynew).all():
            raise StepFailure(f"non-finite state at t = {t_exact:.6g}")
        if cfg.reproject:
            try:
                ynew = field.reproject(ynew)
            except InfeasiblePoint as exc:
                # the advice on initial points would mislead mid-run
                raise InfeasiblePoint(f"reprojection failed at t = {t_exact:.6g}: "
                                      f"{exc.stall or exc} (reduce the step)") from exc
            ynew[0] = t_exact
        else:
            # evaluates the field at ynew; the eval that follows reuses it
            d = field.drift(ynew)
            if d > drift_cap:
                raise LadderLost(
                    f"constraint drift {d:.3e} exceeds {drift_cap:.1e} "
                    f"at t = {t_exact:.6g} (enable reprojection or reduce the step)"
                )
        times.append(t_exact)
        states.append(ynew)
        return ynew

    # an overflowing step fills its stage states with inf and nan; accept
    # names the failure, so numpy's warnings on the way there are noise
    with np.errstate(over="ignore", invalid="ignore"):
        deriv, *sample = field.eval(y)
        if cfg.method == "rk4":
            h = cfg.step
            span = cfg.t_end - t0
            n_full = int(np.floor(span / h + 1e-12))
            rem = span - n_full * h
            # (step, exact time after it): the full steps, then the remainder
            steps = [(h, t0 + (k + 1) * h) for k in range(n_full)]
            if rem > 1e-12 * max(1.0, abs(cfg.t_end)):
                steps.append((rem, cfg.t_end))
            for dt, t_exact in steps:
                samples.append(np.concatenate(sample))
                y = _rk4_step(field, y, dt, deriv)
                y = accept(y, t_exact)
                deriv, *sample = field.eval(y)
        else:
            h = cfg.step
            t = t0
            while t < cfg.t_end - 1e-12 * max(1.0, abs(cfg.t_end)):
                h = min(h, cfg.t_end - t)
                if h < 1e-13 * max(1.0, abs(t)):
                    raise StepFailure(f"step size underflow at t = {t:.6g}")
                y5, err = _rkf45_step(field, y, h, deriv)
                scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
                ratio = float(np.max(err / scale))
                if ratio <= 1.0:
                    samples.append(np.concatenate(sample))
                    t = t + h
                    y = accept(y5, t)
                    deriv, *sample = field.eval(y)
                    growth = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2)
                    h = h * max(0.2, growth)
                else:
                    h = h * max(0.2, 0.9 * ratio ** -0.2)

    # field data at the final accepted sample
    samples.append(np.concatenate(sample))

    times_arr = np.array(times)
    states_arr = np.vstack(states)
    cuts = np.cumsum([len(part) for part in sample[:3]])
    coeffs_arr, lifted_arr, xi_arr, L_data = (np.ascontiguousarray(col)
                                              for col in np.split(np.vstack(samples), cuts, axis=1))
    residuals = residual_channels(field.L, times_arr, lifted_arr, field.ladder, xi_arr, L_data)
    return Trajectory(
        field.kind, field.L.n, times_arr, states_arr, lifted_arr, coeffs_arr, residuals
    )


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
    opts: AlgorithmOptions | None = None,
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
    opts = opts or AlgorithmOptions()
    ladder, _ = run_constraint_algorithm(L, x0, opts)
    n = L.n
    w0 = ladder.probe

    # the momentum side first: a singular fibre map fails its lift before
    # the other two runs are spent
    try:
        traj_y = integrate(HamiltonianField(L, ladder, opts), hamiltonian_part(w0, n), cfg)
    except NonInvertibleLegendre:
        traj_y = None
    traj_z = integrate(UnifiedField(L, ladder, opts), w0, cfg)
    traj_x = integrate(LagrangianField(L, ladder, opts), lagrangian_part(w0, n), cfg)

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
