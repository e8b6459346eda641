"""The integrator as it stepped on numpy arrays: a reference for the tests.

`integrate` below is the package's integrate as it was before it stepped on
lists of Python floats: rk4 and Fehlberg's rk45 on float64 arrays, every
step list built before the first step, the drift check and the eval that
follows sharing one evaluation by the state's bytes, and each accepted
state's coefficients, lift, constraint values and L data packed as one
row.  `ArrayField` gives a field that interface: the lift and the reads
as the fields read them then, the reads as arrays from a call of the
ladder's `_ClosedReads` (its numpy entry), and the tail as
`pontryagin._field`.  Projections are the field's own.  The tests assert
that the package's runs give the same arrays, bit for bit.
"""

from __future__ import annotations

import numpy as np

from cocontact.dynamics import (LadderLost, StepFailure, Trajectory, legendre_invert,
                                residual_channels)
from cocontact.pontryagin import InfeasiblePoint, _field, _ladder_reads, _layout


class ArrayField:
    """A package field seen through float64 arrays."""

    def __init__(self, field):
        self.field, self.L, self.ladder, self.opts = field, field.L, field.ladder, field.opts
        self.kind = field.kind
        self._last = (None, None)

    def _read(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        L, n = self.L, self.L.n
        if self.kind == "unified":
            return state, _ladder_reads(L, self.ladder)(state)
        if self.kind == "lagrangian":
            raw = _ladder_reads(L, self.ladder, lift=True)(state)
            p = raw[_layout(len(self.ladder.active()), n)[2]][2 + n : 2 + 2 * n]
            return np.concatenate((state[: 1 + 2 * n], p, state[-1:])), raw
        # the momentum side's warm start is the field's: its projections lift too
        v, raw = legendre_invert(L, state, v0=self.field._last_v)
        self.field._last_v = v
        return np.concatenate((state[: 1 + n], v, state[1 + n :])), np.array(raw)

    def eval(self, state):
        state = np.asarray(state, dtype=float)
        key = state.tobytes()
        if self._last[0] != key:
            w, raw = self._read(state)
            Z = _field(raw, len(self.ladder.active()), self.L.n, self.opts)[0]
            deriv = self.field.drop(Z.coeffs)
            self._last = (key, (deriv, Z.coeffs, w, Z.constraint_values, Z.L_data))
        return self._last[1]

    def __call__(self, state):
        return self.eval(state)[0]

    def prepare(self, x0):
        return self.field.prepare(x0)

    def reproject(self, state):
        return self.field.reproject(state)

    def drift(self, state) -> float:
        vals = self.eval(state)[3]
        return float(np.max(np.abs(vals))) if len(vals) else 0.0


def _rk4_step(f, y, h, k1):
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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


def _rkf45_step(f, y, h, k1):
    ks = [k1]
    for row in _RKF_A[1:]:
        yk = y + h * sum(a * k for a, k in zip(row, ks))
        ks.append(f(yk))
    y5 = y + h * sum(b * k for b, k in zip(_RKF_B5, ks))
    y4 = y + h * sum(b * k for b, k in zip(_RKF_B4, ks))
    return y5, np.abs(y5 - y4)


def integrate(package_field, x0, cfg) -> Trajectory:
    field = ArrayField(package_field)
    y = field.prepare(x0)
    t0 = float(y[0])
    if cfg.t_end <= t0:
        raise ValueError(f"t_end = {cfg.t_end} does not lie beyond t0 = {t0}")

    drift_cap = 10.0 * field.opts.tol
    times = [t0]
    states = [y.copy()]
    samples = []

    def accept(ynew, t_exact):
        ynew[0] = t_exact
        if not np.isfinite(ynew).all():
            raise StepFailure(f"non-finite state at t = {t_exact:.6g}")
        if cfg.reproject:
            try:
                ynew = field.reproject(ynew)
            except InfeasiblePoint as exc:
                raise InfeasiblePoint(f"reprojection failed at t = {t_exact:.6g}: "
                                      f"{exc.stall or exc} (reduce the step)") from exc
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

    with np.errstate(over="ignore", invalid="ignore"):
        deriv, *sample = field.eval(y)
        if cfg.method == "rk4":
            h = cfg.step
            span = cfg.t_end - t0
            n_full = int(np.floor(span / h + 1e-12))
            rem = span - n_full * h
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
