"""Named verification checks, shared by the CLI and the test suite.

Each check runs one family of identities for one system preset and
returns a CheckResult; the CLI `verify` subcommand prints one line per
result and exits nonzero if any failed.  Checks take the preset object
(not just a name) so tests can inject deliberately broken oracles and
watch the right check fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import IntegratorConfig, cross_check_equivalence, integrate, unified_field
from .pontryagin import AlgorithmOptions, assemble_Z, run_constraint_algorithm
from .systems import SystemPreset, preset_by_name

__all__ = [
    "CheckResult",
    "check_ad_vs_fd",
    "check_ladder",
    "check_equivalence",
    "check_residual_order",
    "run_all_checks",
    "CHECK_NAMES",
]

# first/second/third partials vs central differences: step and relative
# tolerance per derivative order
FD_STEPS = {1: 1e-5, 2: 1e-4, 3: 1e-3}
FD_TOLS = {1: 1e-6, 2: 1e-5, 3: 1e-4}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        out = f"{verdict}  {self.name}  worst {self.worst:.3e} (tol {self.tol:.1e})"
        if self.detail:
            out += f"  [{self.detail}]"
        return out


def _domain_point(pre: SystemPreset, rng: np.random.Generator) -> np.ndarray:
    """A random smooth-domain point of the Lagrangian's (t, q, v, s) space."""
    n = pre.n
    x = rng.uniform(-1.5, 1.5, 2 * n + 2)
    x[0] = rng.uniform(0.0, 2.0)
    if pre.label == "charged_particle":
        # keep clear of the potential's singularity at the origin
        x[1] = rng.uniform(1.2, 2.2)
    return x


def check_ad_vs_fd(
    pre: SystemPreset,
    seed: int = 42,
    points: int = 100,
    tol: float | None = None,
) -> CheckResult:
    """All partials to order 3 against central finite differences.

    Each order-k block of the jet is differenced against the order-(k-1)
    block, per-order steps and tolerances as above.  `worst` is the
    largest deviation/tolerance ratio, so the pass condition is worst <= 1
    regardless of the per-order tolerances (a `tol` override replaces all
    three per-order tolerances).
    """
    L = pre.system
    rng = np.random.default_rng(seed)
    dim = 2 * pre.n + 2
    tols = {k: (tol if tol is not None else FD_TOLS[k]) for k in (1, 2, 3)}
    X = np.array([_domain_point(pre, rng) for _ in range(points)]).reshape(points, dim)

    def differences(k: int, evaluate) -> list[np.ndarray]:
        """Per coordinate i, the central difference quotient of evaluate at
        step FD_STEPS[k] along i, from one call on a stack of all the
        shifted points: X + e_i, then X - e_i, for each i in turn."""
        shifts = FD_STEPS[k] * np.eye(dim)
        rows = np.split(evaluate(np.concatenate([Y for e in shifts for Y in (X + e, X - e)])), 2 * dim)
        return [(rows[2 * i] - rows[2 * i + 1]) / (2 * FD_STEPS[k]) for i in range(dim)]

    # each order's differences from one batched call, the largest (order
    # 3's, Hessians at 2 dim points points) while nothing else is held.
    # Order 1's come from L's float evaluations (a replay of fn, bit for
    # bit L.value's): a replayed expansion's value may differ from them in
    # the last bit, and at this step the difference quotient would show it
    fd3 = differences(3, lambda S: L.jet(S, 2).hess)
    fd2 = differences(2, lambda S: L.jet(S, 1).grad)
    fd1 = differences(1, L.value)
    j3 = L.jet(X, 3)
    info = {1: 0.0, 2: 0.0, 3: 0.0}
    for i in range(dim):
        _fold(info, 1, np.abs(j3.grad[:, i] - fd1[i]) / (1 + np.abs(fd1[i])))
        _fold(info, 2, _deviation(j3.hess[:, i], fd2[i]))
        _fold(info, 3, _deviation(j3.third[:, i], fd3[i]))
    worst = max(info[k] / tols[k] for k in (1, 2, 3))
    detail = ", ".join(f"order {k}: {info[k]:.1e} vs {tols[k]:.0e}" for k in (1, 2, 3))
    return CheckResult(f"ad-vs-fd[{pre.label}]", worst <= 1.0, worst, 1.0, detail)


def _deviation(exact: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """Per point (leading axis): max |exact - fd| / (1 + max |fd|)."""
    axes = tuple(range(1, fd.ndim))
    return np.max(np.abs(exact - fd), axis=axes) / (1 + np.max(np.abs(fd), axis=axes))


def _fold(info: dict, k: int, d: np.ndarray) -> None:
    """info[k] = max(info[k], *d), skipping NaN as a running max() does."""
    info[k] = float(np.fmax.reduce(d, initial=info[k]))


def check_ladder(
    pre: SystemPreset,
    seed: int = 42,
    points: int = 100,
    tol: float | None = None,
) -> CheckResult:
    """Constraint-algorithm regression against the preset's closed forms.

    Checks closure status, generation sizes, constraint values at random
    feasible points, and the assembled field coefficients against
    expected_C / expected_D.
    """
    tol = 1e-10 if tol is None else tol
    name = f"ladder[{pre.label}]"
    opts = AlgorithmOptions()
    ladder, Z = run_constraint_algorithm(pre.system, pre.initial, opts)
    if ladder.status != "Closed":
        return CheckResult(name, False, float("inf"), tol, f"status {ladder.status}")
    sizes = [len(g) for g in ladder.generations]
    want_sizes = [pre.n] + [1] * len(pre.ladder_closures)
    if sizes != want_sizes:
        return CheckResult(
            name, False, float("inf"), tol, f"generations {sizes}, expected {want_sizes}"
        )

    rng = np.random.default_rng(seed)
    # each point's closed forms right after it is drawn, while the
    # preset's memo of its last point's work (the charged particle's phi
    # jet) still holds it
    W, closed = [], []
    for _ in range(points):
        w = pre.sample_feasible(rng)
        W.append(w)
        closed.append(([want(w) for want in pre.ladder_closures],
                       None if pre.expected_C is None else pre.expected_C(w),
                       None if pre.expected_D is None else pre.expected_D(w)))
    W = np.array(W).reshape(points, 3 * pre.n + 2)
    worst = 0.0
    for Zw, (closures, C, D) in zip(assemble_Z(pre.system, W, ladder, opts), closed):
        vals = Zw.constraint_values
        worst = max(worst, float(np.max(np.abs(vals))))
        for got, want in zip(vals[pre.n :], closures):
            worst = max(worst, abs(got - want))
        if C is not None:
            worst = max(worst, float(np.max(np.abs(Zw.C - C))))
        if D is not None:
            worst = max(worst, float(np.max(np.abs(Zw.D - D))))
    detail = f"{len(sizes)} generations, {points} feasible points"
    return CheckResult(name, worst <= tol, worst, tol, detail)


def check_equivalence(
    pre: SystemPreset,
    seed: int = 42,
    step: float = 1e-2,
    t_end: float = 1.0,
    tol: float | None = None,
) -> CheckResult:
    """Short cross-description run; all projections must agree.

    For singular systems the momentum description is undefined, so only
    the mixed-vs-velocity comparison runs.
    """
    tol = 1e-6 if tol is None else tol
    name = f"equivalence[{pre.label}]"
    cfg = IntegratorConfig(method="rk4", step=step, t_end=t_end)
    eq = cross_check_equivalence(pre.system, pre.initial, cfg, AlgorithmOptions())
    if eq.hamiltonian is None:
        detail = ("momentum description undefined (singular fibre map); "
                  f"mixed-vs-velocity only, T={t_end}")
    else:
        detail = f"three descriptions, T={t_end}"
    return CheckResult(name, eq.max_deviation <= tol, eq.max_deviation, tol, detail)


def check_residual_order(
    pre: SystemPreset,
    t_end: float = 2.5,
    band: tuple[float, float] = (12.0, 20.0),
) -> CheckResult:
    """Halving the step must cut every residual channel by about 2^4.

    Channels that are exactly zero at both steps (structurally preserved
    quantities) are vacuous and skipped.  Deep singular ladders are
    skipped outright: their per-step cost at these step sizes is out of
    scale for a verify run.
    """
    name = f"residual-order[{pre.label}]"
    opts = AlgorithmOptions()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial, opts)
    if ladder.n_generations > 1:
        return CheckResult(name, True, 0.0, 0.0,
                           "skipped: deep ladder, cost out of scale for verify")
    maxima = {}
    for h in (1e-2, 5e-3):
        cfg = IntegratorConfig(method="rk4", step=h, t_end=t_end)
        traj = integrate(unified_field(pre.system, ladder, opts), ladder.probe, cfg)
        maxima[h] = {k: traj.channel_max(k) for k in traj.residuals}
    ratios = {}
    for ch in maxima[1e-2]:
        hi, lo = maxima[1e-2][ch], maxima[5e-3][ch]
        if hi == 0.0 and lo == 0.0:
            continue
        ratios[ch] = hi / lo if lo else float("inf")
    ok = all(band[0] <= r <= band[1] for r in ratios.values())
    worst = max(
        (max(band[0] / r, r / band[1]) for r in ratios.values()), default=0.0
    )
    detail = ", ".join(f"{ch} x{r:.1f}" for ch, r in sorted(ratios.items()))
    return CheckResult(name, ok, worst, 1.0, detail or "all channels vacuous")


CHECK_NAMES = ("ad-vs-fd", "ladder", "equivalence", "residual-order")


def run_all_checks(
    pre: SystemPreset | str,
    seed: int = 42,
    tol: float | None = None,
    subset: tuple[str, ...] | None = None,
) -> list[CheckResult]:
    if isinstance(pre, str):
        pre = preset_by_name(pre)
    subset = subset or CHECK_NAMES
    out = []
    if "ad-vs-fd" in subset:
        out.append(check_ad_vs_fd(pre, seed=seed, tol=tol))
    if "ladder" in subset:
        out.append(check_ladder(pre, seed=seed, tol=tol))
    if "equivalence" in subset:
        out.append(check_equivalence(pre, seed=seed, tol=tol))
    if "residual-order" in subset:
        out.append(check_residual_order(pre))
    return out
