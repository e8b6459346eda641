"""Built-in system presets with closed-form expected dynamics.

Three families:

  duffing             n=1, damped forced oscillator with cubic stiffness,
                      damping entering through the action-level coordinate.
  variable_mass_drag  n=1, vertical motion with time-dependent mass,
                      quadratic drag and a constant thrust F.
  charged_particle    n=4 (x, y, z, lambda), a particle in a scalar
                      potential phi with linear friction, constrained to
                      the moving surface f(t, x, y, z) = 0 by the
                      multiplier coordinate lambda.  The Lagrangian is
                      degenerate: lambda has no velocity term, so the
                      constraint algorithm has real work to do.

Each preset records the closed-form coefficients the assembled dynamical
field must reproduce, a sampler of points already lying on the final
constraint submanifold, and a DSL rendering of its Lagrangian for
cross-checking the expression layer against the native implementation.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dsl as _dsl
from .jets import JetDomainError, ScalarField, Taylor, eval_jet, exp, guard, sqrt
from .mechanics import LagrangianSystem

__all__ = [
    "SystemPreset",
    "NonpositiveMassError",
    "duffing",
    "variable_mass_drag",
    "charged_particle",
    "preset_by_name",
    "PRESET_NAMES",
]


class NonpositiveMassError(JetDomainError):
    """The mass law m(t) evaluated to a nonpositive value: a point outside L's domain."""


@dataclass(frozen=True)
class SystemPreset:
    """A named system plus everything needed to regression-test it.

    expected_C / expected_D map a unified-space point (on the final
    constraint submanifold) to the closed-form coefficient vectors of the
    dynamical field.  ladder_closures are exact expressions for the
    constraint functions each generation of the algorithm must produce
    (beyond the primary p = dL/dv generation); they are valid at arbitrary
    points of the unified space, not just feasible ones.  initial is the
    default start on the mixed space, (t, q, v, p = 0, s), read-only.
    """

    label: str
    system: LagrangianSystem
    params: _dsl.ParamTable
    initial: np.ndarray
    expected_C: Callable[[np.ndarray], np.ndarray] | None
    expected_D: Callable[[np.ndarray], np.ndarray] | None
    sample_feasible: Callable[[np.random.Generator], np.ndarray]
    dsl_text: str | None = None
    ladder_labels: tuple[str, ...] = ()
    ladder_closures: tuple[Callable[[np.ndarray], float], ...] = ()
    notes: str = ""

    def __post_init__(self):
        w = np.array(self.initial, dtype=float)
        if w.shape != (3 * self.n + 2,):
            raise ValueError(f"initial must have length {3 * self.n + 2}, got shape {w.shape}")
        w.flags.writeable = False
        object.__setattr__(self, "initial", w)

    @property
    def n(self) -> int:
        return self.system.n


def _unified_parts(w: np.ndarray, n: int):
    w = np.asarray(w, dtype=float)
    return w[0], w[1 : 1 + n], w[1 + n : 1 + 2 * n], w[1 + 2 * n : 1 + 3 * n], w[-1]


# -- Duffing ------------------------------------------------------------


def duffing(
    alpha: float = 1.0,
    beta: float = 5.0,
    gamma: float = 8.0,
    delta: float = 0.02,
    omega: float = 0.5,
) -> SystemPreset:
    """Damped forced Duffing oscillator.

    L = v^2/2 - alpha x^2/2 - beta x^4/4 - delta s + gamma x cos(omega t),
    whose motions satisfy xddot + delta xdot + alpha x + beta x^3 =
    gamma cos(omega t).  gamma is the forcing amplitude, delta the damping.
    """
    params = _dsl.ParamTable(alpha=alpha, beta=beta, gamma=gamma, delta=delta, omega=omega)

    def fn(t, q, v, s, par):
        from .jets import cos

        x = q[0]
        return (
            0.5 * v[0] * v[0]
            - 0.5 * par["alpha"] * x * x
            - 0.25 * par["beta"] * x**4
            - par["delta"] * s
            + par["gamma"] * x * cos(par["omega"] * t)
        )

    system = LagrangianSystem(1, fn, params, label="duffing")

    def expected_C(w):
        t, q, v, p, s = _unified_parts(w, 1)
        return np.array([-alpha * q[0] - beta * q[0] ** 3 - delta * v[0]
                         + gamma * math.cos(omega * t)])

    def expected_D(w):
        t, q, v, p, s = _unified_parts(w, 1)
        return np.array([-alpha * q[0] - beta * q[0] ** 3 - delta * p[0]
                         + gamma * math.cos(omega * t)])

    def sample_feasible(rng: np.random.Generator) -> np.ndarray:
        t, x, v, s = rng.uniform(-2, 2, size=4)
        return np.array([t, x, v, v, s])  # p = v

    text = (
        "0.5*v1^2 - 0.5*alpha*q1^2 - 0.25*beta*q1^4 - delta*s"
        " + gamma*q1*cos(omega*t)"
    )
    return SystemPreset(
        label="duffing",
        system=system,
        params=params,
        initial=[0.0, 1.0, 0.0, 0.0, 0.0],  # (t, x, v, p, s)
        expected_C=expected_C,
        expected_D=expected_D,
        sample_feasible=sample_feasible,
        dsl_text=text,
        notes="regular; with beta=gamma=delta=0 this is the harmonic oscillator",
    )


# -- variable-mass drag -------------------------------------------------

DEFAULT_MASS_LAW = "0.5*(1 + exp(-t))"


def variable_mass_drag(
    m_expr: str | _dsl.Expr = DEFAULT_MASS_LAW,
    gamma: float = 0.2,
    F: float = 12.0,
    g: float = 9.8,
) -> SystemPreset:
    """Vertical ascent with mass law m(t), quadratic drag and thrust F.

    L = m(t) v^2/2 + (m(t) g / 2 gamma)(e^{-2 gamma y} - 1) - 2 gamma v s
        + F / (2 gamma),

    which encodes mdot v + m vdot = F - m g - gamma m v^2.  The momentum is
    p = m(t) v - 2 gamma s.  gamma must be nonzero; m(t) must stay positive
    on the run interval (checked at every evaluation).
    """
    if gamma == 0:
        raise ValueError("gamma must be nonzero for the drag preset")
    m_ast = m_expr if isinstance(m_expr, _dsl.Expr) else _dsl.parse(m_expr, n=1)
    m_text = m_expr if isinstance(m_expr, str) else _dsl.to_text(m_ast)
    params = _dsl.ParamTable(gamma=gamma, F=F, g=g)

    def mass(t, par):
        m = _dsl._eval_node(m_ast.node, [t, 0.0, 0.0, 0.0], par)
        guard(m.value if isinstance(m, Taylor) else m, lambda v: v <= 0.0,
              lambda v: NonpositiveMassError(f"m(t) = {v} is nonpositive"))
        return m

    def mass_rate(t: float, par) -> float:
        seed = [Taylor.variable(1, 0, t), 0.0, 0.0, 0.0]
        m = _dsl._eval_node(m_ast.node, seed, par)
        return m.gradient(1)[0] if isinstance(m, Taylor) else 0.0

    def fn(t, q, v, s, par):
        gam = par["gamma"]
        m = mass(t, par)
        return (
            0.5 * m * v[0] * v[0]
            + (m * par["g"] / (2 * gam)) * (exp(-2 * gam * q[0]) - 1)
            - 2 * gam * v[0] * s
            + par["F"] / (2 * gam)
        )

    system = LagrangianSystem(1, fn, params, label="variable_mass_drag")

    def _mval(t: float) -> float:
        m = mass(t, params)
        return m.value if isinstance(m, Taylor) else float(m)

    def expected_C(w):
        t, q, v, p, s = _unified_parts(w, 1)
        m = _mval(t)
        mdot = mass_rate(t, params)
        return np.array([F / m - gamma * v[0] ** 2 - (mdot / m) * v[0] - g])

    def expected_D(w):
        t, q, v, p, s = _unified_parts(w, 1)
        m = _mval(t)
        return np.array([-m * g * math.exp(-2 * gamma * q[0]) - 2 * gamma * v[0] * p[0]])

    def sample_feasible(rng: np.random.Generator) -> np.ndarray:
        t = rng.uniform(0, 3)
        y = rng.uniform(-1, 1)
        v = rng.uniform(-3, 3)
        s = rng.uniform(-1, 1)
        p = _mval(t) * v - 2 * gamma * s
        return np.array([t, y, v, p, s])

    text = (
        f"0.5*({m_text})*v1^2 + (({m_text})*g/(2*gamma))*(exp(-2*gamma*q1) - 1)"
        " - 2*gamma*v1*s + F/(2*gamma)"
    )
    return SystemPreset(
        label="variable_mass_drag",
        system=system,
        params=params,
        initial=[0.0, 0.0, 0.0, 0.0, 0.0],  # (t, x, v, p, s)
        expected_C=expected_C,
        expected_D=expected_D,
        sample_feasible=sample_feasible,
        dsl_text=text,
        notes=f"regular while m(t) > 0; mass law m(t) = {m_text}",
    )


# -- charged particle on a moving surface -------------------------------

SOURCE_CHARGE = -2e-4
R_MIN = 1e-6


def _default_phi(x, y, z):
    r2 = x * x + y * y + z * z
    guard(r2.value if isinstance(r2, Taylor) else r2, lambda v: v < R_MIN * R_MIN,
          lambda v: JetDomainError(f"radius below guard {R_MIN}"))
    return SOURCE_CHARGE / sqrt(r2)


def charged_particle(
    phi_expr: str | _dsl.Expr | None = None,
    f_expr: str | _dsl.Expr | None = None,
    m: float = 1.0,
    k: float = 2e-4,
    gamma: float = 0.3,
) -> SystemPreset:
    """Charged particle of mass m and charge k in a potential phi, with
    linear friction gamma, constrained to f(t, x, y, z) = 0 by the
    multiplier coordinate lambda = q4.

    L = m (vx^2 + vy^2 + vz^2)/2 - k phi + lambda f - gamma s.

    Defaults follow the reference scenario: phi is the Coulomb potential
    of a point charge -2e-4 at the origin (guarded below r = 1e-6) and
    f = z - t, a plane moving upward at unit speed.
    """
    params = _dsl.ParamTable(m=m, k=k, gamma=gamma)
    if not m > 0:
        raise ValueError(f"mass {m} must be positive")

    custom_f = f_expr is not None
    if phi_expr is None:
        phi_eval = _default_phi
        phi_text = f"({SOURCE_CHARGE!r}/sqrt(q1^2 + q2^2 + q3^2))"
    else:
        phi_ast = phi_expr if isinstance(phi_expr, _dsl.Expr) else _dsl.parse(phi_expr, n=3)
        phi_text = f"({_dsl.to_text(phi_ast)})"

        def phi_eval(x, y, z):
            return _dsl._eval_node(phi_ast.node, [0.0, x, y, z, 0.0, 0.0, 0.0, 0.0], params)

    if f_expr is None:
        f_eval = lambda t, x, y, z: z - t  # noqa: E731
        f_text = "(q3 - t)"
    else:
        f_ast = f_expr if isinstance(f_expr, _dsl.Expr) else _dsl.parse(f_expr, n=3)
        f_text = f"({_dsl.to_text(f_ast)})"

        def f_eval(t, x, y, z):
            return _dsl._eval_node(f_ast.node, [t, x, y, z, 0.0, 0.0, 0.0, 0.0], params)

    def fn(t, q, v, s, par):
        kin = 0.5 * par["m"] * (v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
        return kin - par["k"] * phi_eval(q[0], q[1], q[2]) + q[3] * f_eval(t, q[0], q[1], q[2]) - par["gamma"] * s

    system = LagrangianSystem(4, fn, params, label="charged_particle")

    phi_field = ScalarField(lambda X: phi_eval(X[0], X[1], X[2]), 3, "phi")
    f_field = ScalarField(lambda X: f_eval(X[0], X[1], X[2], X[3]), 4, "f")

    # One order-3 jet of phi per point serves every closed form there
    # (check_ladder asks five times per point): its lower-order entries are
    # the lower-order jets', bit for bit.  Jets are read-only.
    phi_memo: list = [None, None]

    def _phi_jets(q):
        key = np.asarray(q[:3], dtype=float).tobytes()
        if phi_memo[0] != key:
            phi_memo[:] = key, eval_jet(phi_field, q[:3], 3)
        return phi_memo[1]

    def expected_D(w):
        t, q, v, p, s = _unified_parts(w, 4)
        pj = _phi_jets(q)
        fj = eval_jet(f_field, [t, q[0], q[1], q[2]], 1)
        out = np.empty(4)
        out[:3] = q[3] * fj.grad[1:] - k * pj.grad - gamma * p[:3]
        out[3] = fj.value - gamma * p[3]
        return out

    expected_C = None
    ladder_labels: tuple[str, ...] = ()
    ladder_closures: tuple[Callable, ...] = ()

    if not custom_f:
        # f = z - t.  Closed forms derived by pushing the tangency
        # conditions through by hand; each closure below is the exact
        # constraint function of one generation, valid at any point of the
        # unified space.  D_z and D_lam are shorthands for the momentum
        # coefficients whose vanishing the earlier generations enforce.
        def _dz(t, q, v, p):
            pj = _phi_jets(q)
            return q[3] - k * pj.grad[2] - gamma * p[2]

        def _dlam(t, q, p):
            return (q[2] - t) - gamma * p[3]

        def xi2(w):
            t, q, v, p, s = _unified_parts(w, 4)
            return _dlam(t, q, p)

        def xi3(w):
            t, q, v, p, s = _unified_parts(w, 4)
            return v[2] - 1.0 - gamma * _dlam(t, q, p)

        def xi4(w):
            t, q, v, p, s = _unified_parts(w, 4)
            return gamma * (1.0 - v[2]) + gamma**2 * _dlam(t, q, p) + _dz(t, q, v, p) / m

        def xi5(w):
            t, q, v, p, s = _unified_parts(w, 4)
            pj = _phi_jets(q)
            coupled = v[3] - k * (
                pj.hess[0, 2] * v[0] + pj.hess[1, 2] * v[1] + pj.hess[2, 2] * v[2]
            )
            return (
                -(gamma**2) * (1.0 - v[2])
                + coupled / m
                - (2 * gamma / m) * _dz(t, q, v, p)
                - gamma**3 * _dlam(t, q, p)
            )

        ladder_labels = (
            "f - gamma*p4",
            "v3 - 1 (up to enforced parents)",
            "lambda - k*dphi/dz - gamma*m (up to enforced parents)",
            "v4 - k*(d2phi/dxdz*v1 + d2phi/dydz*v2 + d2phi/dz2*v3) (up to enforced parents)",
        )
        ladder_closures = (xi2, xi3, xi4, xi5)

        def expected_C(w):  # noqa: F811 - deliberate rebind for default f
            t, q, v, p, s = _unified_parts(w, 4)
            pj = _phi_jets(q)
            out = np.empty(4)
            out[:3] = (-k * pj.grad - gamma * p[:3]) / m
            out[2] = (q[3] - k * pj.grad[2] - gamma * p[2]) / m
            # rate of the coupled-velocity relation along the flow:
            # third derivatives of phi plus curvature feedback
            third = pj.third[:, :, 2]
            out[3] = k * (v[:3] @ third @ v[:3] + pj.hess[:, 2] @ out[:3])
            return out

    def sample_feasible(rng: np.random.Generator) -> np.ndarray:
        t = rng.uniform(-1, 1)
        x, y = rng.uniform(1.0, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
        z = t
        vx, vy = rng.uniform(-3, 3, size=2)
        s = rng.uniform(-1, 1)
        q = np.array([x, y, z, 0.0])
        pj = _phi_jets(q)
        q[3] = k * pj.grad[2] + gamma * m
        v = np.array([vx, vy, 1.0, k * (pj.hess[0, 2] * vx + pj.hess[1, 2] * vy + pj.hess[2, 2])])
        p = np.concatenate((m * v[:3], [0.0]))
        return np.concatenate(([t], q, v, p, [s]))

    text = (
        f"0.5*m*(v1^2 + v2^2 + v3^2) - k*{phi_text} + q4*{f_text} - gamma*s"
    )
    notes = (
        "singular: rank 3, kernel along the multiplier direction q4. "
        "The coupled-velocity relation for v4 is derived from the tangency "
        "conditions themselves; its mixed second-derivative form differs "
        "from some published variants (see README)."
    )
    return SystemPreset(
        label="charged_particle",
        system=system,
        params=params,
        initial=np.concatenate(([0.0], [2.0, 0.0, 0.0, 0.0], [0.0, 10.0, 0.0, 0.0],  # t, q, v
                                np.zeros(4), [0.0])),  # p, s
        expected_C=expected_C,
        expected_D=expected_D,
        sample_feasible=sample_feasible,
        dsl_text=text,
        ladder_labels=ladder_labels,
        ladder_closures=ladder_closures,
        notes=notes,
    )


# -- registry -----------------------------------------------------------

_FACTORIES: dict[str, Callable[..., SystemPreset]] = {
    "duffing": duffing,
    "variable_mass_drag": variable_mass_drag,
    "drag": variable_mass_drag,
    "charged_particle": charged_particle,
    "charged": charged_particle,
}

PRESET_NAMES = ("duffing", "variable_mass_drag", "charged_particle")


def preset_by_name(name: str, overrides: dict | None = None) -> SystemPreset:
    """Look up a preset factory by name and call it with keyword overrides
    (e.g. alpha, m_expr): every preset parameter is a factory keyword."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        ) from None
    overrides = overrides or {}
    unknown = set(overrides) - set(inspect.signature(factory).parameters)
    if unknown:
        raise KeyError(f"unknown parameters for {name!r}: {sorted(unknown)}")
    return factory(**overrides)
