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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .mechanics import HamiltonianPoint, LagrangianSystem, herglotz_residual
from .pontryagin import (
    AlgorithmOptions,
    ConstraintLadder,
    PontryaginPoint,
    ZCoefficients,
    assemble_Z,
    constraint_values,
    hamiltonian_part,
    lagrangian_part,
    primary_constraints,
    project_onto,
    run_constraint_algorithm,
)

__all__ = [
    "IntegratorConfig",
    "Trajectory",
    "NonInvertibleLegendre",
    "StepFailure",
    "LadderLost",
    "legendre_invert",
    "hamiltonian_from_lagrangian",
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
    """The adaptive integrator drove the step size below the resolvable
    minimum without meeting its error target."""


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
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")


# -- velocity <-> momentum conversions ----------------------------------


def legendre_invert(
    L: LagrangianSystem,
    y,
    v0=None,
    tol: float = 1e-12,
    max_iter: int = 60,
) -> np.ndarray:
    """Solve dL/dv(t, q, v, s) = p for v by Newton iteration.

    y is a momentum-space point (t, q, p, s).  v0 seeds the iteration
    (zeros by default); for Lagrangians whose fibre derivative is affine in
    v one step is exact.
    """
    n = L.n
    yvec = y.as_vector() if isinstance(y, HamiltonianPoint) else np.asarray(y, dtype=float)
    if yvec.shape != (2 * n + 2,):
        raise ValueError(f"expected a momentum-space point of length {2 * n + 2}")
    v = np.zeros(n) if v0 is None else np.asarray(v0, dtype=float)
    w = np.concatenate((yvec[: 1 + n], v, yvec[1 + n :]))
    vs = slice(1 + n, 1 + 2 * n)
    p = w[1 + 2 * n : 1 + 3 * n]
    for _ in range(max_iter):
        jet = L.jet(lagrangian_part(w, n), 2)
        F = jet.grad[vs] - p
        if np.max(np.abs(F)) <= tol:
            return w[vs].copy()
        W = jet.hess[vs, vs]
        sigma = np.linalg.svd(W, compute_uv=False)
        if sigma[-1] <= 1e-12 * max(sigma[0], 1.0):
            raise NonInvertibleLegendre(
                f"velocity Hessian is singular (sigma_min = {sigma[-1]:.2e})"
            )
        w[vs] -= np.linalg.solve(W, F)
    raise NonInvertibleLegendre(
        f"velocity recovery did not converge within {max_iter} iterations"
    )


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
        v = legendre_invert(self.L, yvec, v0=self._last_v)
        self._last_v = v
        n = self.n
        return np.concatenate((yvec[: 1 + n], v, yvec[-1:]))

    def value(self, y) -> float:
        yvec = y.as_vector() if isinstance(y, HamiltonianPoint) else np.asarray(y, dtype=float)
        lag = self._lift(yvec)
        n = self.n
        p = yvec[1 + n : 1 + 2 * n]
        return float(p @ lag[1 + n : 1 + 2 * n] - self.L.value(lag))

    def jet(self, y, order: int):
        if order != 1:
            raise ValueError("the dual Hamiltonian supports order-1 jets only")
        yvec = y.as_vector() if isinstance(y, HamiltonianPoint) else np.asarray(y, dtype=float)
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
        from .jets import Jet

        return Jet(1, float(p @ v - lj.value), grad, None, None)


def hamiltonian_from_lagrangian(L: LagrangianSystem) -> _EnvelopeHamiltonian:
    """Momentum-side description induced by a (regular) Lagrangian."""
    return _EnvelopeHamiltonian(L)


# -- evaluable fields in the three descriptions -------------------------


@dataclass
class UnifiedField:
    """The dynamical field on the mixed space, states (t, q, v, p, s).

    Each description is a pair of maps between its own states and the
    mixed space, lift(state) -> w and drop(w) -> state; here both are the
    identity.  prepare, reproject and drift are written once in terms of
    them, so the other two descriptions supply only lift, drop and eval.

    eval(state) -> (derivative, coefficient vector on the mixed space,
    lifted mixed-space state).  One instance drives one trajectory at a
    time: the momentum-side lift keeps a velocity warm start.
    """

    L: LagrangianSystem
    ladder: ConstraintLadder
    opts: AlgorithmOptions = field(default_factory=AlgorithmOptions)
    kind = "unified"

    def lift(self, state: np.ndarray) -> np.ndarray:
        return state

    def drop(self, w: np.ndarray) -> np.ndarray:
        return w

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return self.eval(state)[0]

    def eval(self, state):
        vec = assemble_Z(self.L, state, self.ladder, self.opts).as_vector()
        return vec, vec, state

    def prepare(self, x0) -> np.ndarray:
        """Project an initial state onto the constraint set."""
        return self.reproject(x0.as_vector() if hasattr(x0, "as_vector")
                              else np.asarray(x0, dtype=float))

    def reproject(self, state: np.ndarray) -> np.ndarray:
        w = project_onto(self.L, self.lift(state), self.ladder.active(), self.opts)
        return self.drop(w)

    def drift(self, state: np.ndarray) -> float:
        vals = constraint_values(self.L, self.lift(state), self.ladder.active())
        return float(np.max(np.abs(vals))) if len(vals) else 0.0


class LagrangianField(UnifiedField):
    """Velocity-side description: states (t, q, v, s); the lift fills in
    the momenta from the fibre derivative p = dL/dv."""

    kind = "lagrangian"

    def lift(self, x: np.ndarray) -> np.ndarray:
        n = self.L.n
        p = self.L.jet(x, 1).grad[1 + n : 1 + 2 * n]
        return np.concatenate((x[: 1 + 2 * n], p, x[-1:]))

    def drop(self, w: np.ndarray) -> np.ndarray:
        return lagrangian_part(w, self.L.n)

    def eval(self, state):
        w = self.lift(state)
        coeffs = assemble_Z(self.L, w, self.ladder, self.opts).as_vector()
        # exact: assemble_Z sets A = 1.0 and B = v
        return self.drop(coeffs), coeffs, w

    # an entry of its own: bench/tracer.py wraps drift per class __dict__
    drift = UnifiedField.drift


@dataclass
class HamiltonianField(UnifiedField):
    """Momentum-side description: states (t, q, p, s); the lift recovers
    the velocities by inverting the fibre derivative (regular Lagrangians
    only), warm-started from the previous lift."""

    kind = "hamiltonian"
    _last_v: np.ndarray | None = field(default=None, init=False, repr=False)

    def lift(self, y: np.ndarray) -> np.ndarray:
        n = self.L.n
        v = legendre_invert(self.L, y, v0=self._last_v)
        self._last_v = v
        return np.concatenate((y[: 1 + n], v, y[1 + n : 1 + 2 * n], y[-1:]))

    def drop(self, w: np.ndarray) -> np.ndarray:
        return hamiltonian_part(w, self.L.n)

    def eval(self, state):
        n = self.L.n
        w = self.lift(state)
        jet = self.L.jet(lagrangian_part(w, n), 2)
        v = w[1 + n : 1 + 2 * n]
        p = w[1 + 2 * n : 1 + 3 * n]
        qs, vs = slice(1, 1 + n), slice(1 + n, 1 + 2 * n)
        D = jet.grad[qs] + p * jet.grad[-1]
        E = jet.value
        # velocity rate along the lifted curve, from implicit
        # differentiation of dL/dv = p
        rhs = D - (jet.hess[0, vs] + v @ jet.hess[qs, vs] + E * jet.hess[-1, vs])
        try:
            C = np.linalg.solve(jet.hess[vs, vs], rhs)
        except np.linalg.LinAlgError as exc:
            raise NonInvertibleLegendre("velocity Hessian is singular") from exc
        coeffs = np.concatenate(([1.0], v, C, D, [E]))
        return self.drop(coeffs), coeffs, w

    # an entry of its own: bench/tracer.py wraps drift per class __dict__
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
    sample.  residuals maps channel name to a per-sample array.

    The samples view reconstructs (point, coefficients) pairs; the
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

    @property
    def samples(self) -> list[tuple[PontryaginPoint, ZCoefficients]]:
        n = self.n
        out = []
        for w, c in zip(self.lifted, self.coeffs):
            point = PontryaginPoint.from_vector(n, w)
            Z = ZCoefficients(
                c[0], c[1 : 1 + n], c[1 + n : 1 + 2 * n], c[1 + 2 * n : 1 + 3 * n],
                c[-1], np.zeros((n, 0)),
            )
            out.append((point, Z))
        return out

    def channel_max(self, name: str) -> float:
        return float(np.max(self.residuals[name]))


# -- finite-difference weights (arbitrary nodes, exact order) -----------


def _fd_weights(z: float, nodes: np.ndarray, m: int) -> np.ndarray:
    """Weights of the m-th derivative at z from the given nodes (classic
    recursive construction; returns shape (len(nodes), m + 1))."""
    nnodes = len(nodes)
    c = np.zeros((nnodes, m + 1))
    c1 = 1.0
    c4 = nodes[0] - z
    c[0, 0] = 1.0
    for i in range(1, nnodes):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = nodes[i] - z
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


def residual_channels(
    L: LagrangianSystem,
    times: np.ndarray,
    lifted: np.ndarray,
    ladder: ConstraintLadder | None = None,
) -> dict[str, np.ndarray]:
    """The four per-sample residual channels of a (lifted) trajectory.

    Works on raw arrays so that deliberately perturbed data can be fed
    through the same instrumentation as real runs.
    """
    times = np.asarray(times, dtype=float)
    lifted = np.asarray(lifted, dtype=float)
    N = len(times)
    n = (lifted.shape[1] - 2) // 3
    if N < 2:
        raise ValueError("need at least two samples for residual channels")
    qs = slice(1, 1 + n)
    vs = slice(1 + n, 1 + 2 * n)

    holonomy = np.empty(N)
    sdot_ch = np.empty(N)
    herglotz = np.empty(N)
    constraint = np.empty(N)
    active = ladder.active() if ladder is not None else None

    for k in range(N):
        # 5-node window, shifted one-sided at the ends so every sample
        # keeps a 4th-order stencil
        if N >= 5:
            lo = min(max(0, k - 2), N - 5)
            hi = lo + 5
        else:
            lo, hi = 0, N
        wgt = _fd_weights(times[k], times[lo:hi], 1)[:, 1]
        window = lifted[lo:hi]
        qdot = wgt @ window[:, qs]
        vdot = wgt @ window[:, vs]
        sdot = float(wgt @ window[:, -1])
        wk = lifted[k]
        lag = lagrangian_part(wk, n)
        holonomy[k] = float(np.max(np.abs(qdot - wk[vs])))
        sdot_ch[k] = abs(sdot - L.value(lag))
        vec, _ = herglotz_residual(L, lag, vdot, sdot)
        herglotz[k] = float(np.max(np.abs(vec)))
        if active:
            constraint[k] = float(np.max(np.abs(constraint_values(L, wk, active))))
        else:
            constraint[k] = float(np.max(np.abs(primary_constraints(L, wk))))
    return {
        "holonomy": holonomy,
        "sdot": sdot_ch,
        "herglotz": herglotz,
        "constraint": constraint,
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
    after every accepted step; otherwise drift is monitored and exceeding
    10x the feasibility tolerance raises LadderLost.
    """
    y = field.prepare(x0)
    t0 = float(y[0])
    if cfg.t_end <= t0:
        raise ValueError(f"t_end = {cfg.t_end} does not lie beyond t0 = {t0}")

    drift_cap = 10.0 * field.opts.tol
    times = [t0]
    states = [y.copy()]
    coeffs = []
    lifts = []

    def accept(ynew, t_exact):
        ynew[0] = t_exact
        if cfg.reproject:
            ynew = field.reproject(ynew)
            ynew[0] = t_exact
        else:
            d = field.drift(ynew)
            if d > drift_cap:
                raise LadderLost(
                    f"constraint drift {d:.3e} exceeds {drift_cap:.1e} "
                    f"at t = {t_exact:.6g} (enable reprojection or reduce the step)"
                )
        times.append(t_exact)
        states.append(ynew)
        return ynew

    deriv, cvec, wlift = field.eval(y)
    if cfg.method == "rk4":
        h = cfg.step
        span = cfg.t_end - t0
        n_full = int(np.floor(span / h + 1e-12))
        rem = span - n_full * h
        for k in range(n_full):
            coeffs.append(cvec)
            lifts.append(wlift)
            y = _rk4_step(field, y, h, deriv)
            y = accept(y, t0 + (k + 1) * h)
            deriv, cvec, wlift = field.eval(y)
        if rem > 1e-12 * max(1.0, abs(cfg.t_end)):
            coeffs.append(cvec)
            lifts.append(wlift)
            y = _rk4_step(field, y, rem, deriv)
            y = accept(y, cfg.t_end)
            deriv, cvec, wlift = field.eval(y)
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
                coeffs.append(cvec)
                lifts.append(wlift)
                t = t + h
                y = accept(y5, t)
                deriv, cvec, wlift = field.eval(y)
                growth = 5.0 if ratio == 0.0 else min(5.0, 0.9 * ratio ** -0.2)
                h = h * max(0.2, growth)
            else:
                h = h * max(0.2, 0.9 * ratio ** -0.2)

    # field data at the final accepted sample
    coeffs.append(cvec)
    lifts.append(wlift)

    times_arr = np.array(times)
    states_arr = np.vstack(states)
    lifted_arr = np.vstack(lifts)
    coeffs_arr = np.vstack(coeffs)
    residuals = residual_channels(field.L, times_arr, lifted_arr, field.ladder)
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
    run.
    """

    dev_lagrangian: float
    dev_hamiltonian: float
    dev_legendre: float
    unified: Trajectory
    lagrangian: Trajectory
    hamiltonian: Trajectory

    def as_dict(self) -> dict:
        return {
            "dev_lagrangian": self.dev_lagrangian,
            "dev_hamiltonian": self.dev_hamiltonian,
            "dev_legendre": self.dev_legendre,
        }

    @property
    def max_deviation(self) -> float:
        return max(self.dev_lagrangian, self.dev_hamiltonian, self.dev_legendre)


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
    share one time grid.
    """
    if cfg.method != "rk4":
        raise ValueError("cross-checking needs a shared fixed-step grid; use rk4")
    opts = opts or AlgorithmOptions()
    ladder, _ = run_constraint_algorithm(L, x0, opts)
    n = L.n
    w0 = ladder.probe

    traj_z = integrate(UnifiedField(L, ladder, opts), w0, cfg)
    traj_x = integrate(LagrangianField(L, ladder, opts), lagrangian_part(w0, n), cfg)
    traj_y = integrate(HamiltonianField(L, ladder, opts), hamiltonian_part(w0, n), cfg)

    if not (len(traj_z) == len(traj_x) == len(traj_y)):
        raise RuntimeError("description runs produced different grids")

    dev_lag = 0.0
    dev_ham = 0.0
    dev_leg = 0.0
    for wz, xx, yy, wx in zip(traj_z.lifted, traj_x.states, traj_y.states, traj_x.lifted):
        dev_lag = max(dev_lag, float(np.max(np.abs(lagrangian_part(wz, n) - xx))))
        dev_ham = max(dev_ham, float(np.max(np.abs(hamiltonian_part(wz, n) - yy))))
        dev_leg = max(dev_leg, float(np.max(np.abs(hamiltonian_part(wx, n) - yy))))
    return EquivalenceReport(dev_lag, dev_ham, dev_leg, traj_z, traj_x, traj_y)


# -- export -------------------------------------------------------------


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """One row per sample: t, q1..qn, v1..vn, p1..pn, s, then the four
    residual channels.  %.17g preserves every float bit-exactly."""
    n = traj.n
    header = (
        ["t"]
        + [f"q{i + 1}" for i in range(n)]
        + [f"v{i + 1}" for i in range(n)]
        + [f"p{i + 1}" for i in range(n)]
        + ["s", "res_holonomy", "res_sdot", "res_herglotz", "res_constraint"]
    )
    rows = [",".join(header)]
    for k in range(len(traj)):
        w = traj.lifted[k]
        vals = list(w) + [
            traj.residuals["holonomy"][k],
            traj.residuals["sdot"][k],
            traj.residuals["herglotz"][k],
            traj.residuals["constraint"][k],
        ]
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
