"""The pointwise checks, one point at a time: a reference for the tests.

`cocontact.checks` runs check_ad_vs_fd and check_ladder on stacks of
points: one stacked replay of L's value and one batched expansion per jet
order over all shifted points, and one batched assemble_Z.  These are the
same checks written as a loop over the points, each point evaluated on
its own, in the order the batched checks draw them.  The tests
assert that both give equal CheckResults.
"""

from __future__ import annotations

import numpy as np

from cocontact.checks import FD_STEPS, FD_TOLS, CheckResult, _domain_point
from cocontact.pontryagin import AlgorithmOptions, assemble_Z, run_constraint_algorithm
from cocontact.systems import SystemPreset


def check_ad_vs_fd_pointwise(pre: SystemPreset, seed: int = 42, points: int = 100,
                             tol: float | None = None) -> CheckResult:
    L = pre.system
    rng = np.random.default_rng(seed)
    dim = 2 * pre.n + 2
    tols = {k: (tol if tol is not None else FD_TOLS[k]) for k in (1, 2, 3)}
    info = {1: 0.0, 2: 0.0, 3: 0.0}
    for _ in range(points):
        x = _domain_point(pre, rng)
        j3 = L.jet(x, 3)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = FD_STEPS[1]
            fd = (L.value(x + e) - L.value(x - e)) / (2 * FD_STEPS[1])
            d = abs(j3.grad[i] - fd) / (1 + abs(fd))
            info[1] = max(info[1], d)
            e[i] = FD_STEPS[2]
            fd = (L.jet(x + e, 1).grad - L.jet(x - e, 1).grad) / (2 * FD_STEPS[2])
            d2 = float(np.max(np.abs(j3.hess[i] - fd)) / (1 + np.max(np.abs(fd))))
            info[2] = max(info[2], d2)
            e[i] = FD_STEPS[3]
            fd = (L.jet(x + e, 2).hess - L.jet(x - e, 2).hess) / (2 * FD_STEPS[3])
            d3 = float(np.max(np.abs(j3.third[i] - fd)) / (1 + np.max(np.abs(fd))))
            info[3] = max(info[3], d3)
    worst = max(info[k] / tols[k] for k in (1, 2, 3))
    detail = ", ".join(f"order {k}: {info[k]:.1e} vs {tols[k]:.0e}" for k in (1, 2, 3))
    return CheckResult(f"ad-vs-fd[{pre.label}]", worst <= 1.0, worst, 1.0, detail)


def check_ladder_pointwise(pre: SystemPreset, seed: int = 42, points: int = 100,
                           tol: float | None = None) -> CheckResult:
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
    worst = 0.0
    for _ in range(points):
        w = pre.sample_feasible(rng)
        Zw = assemble_Z(pre.system, w, ladder, opts)
        vals = Zw.constraint_values
        worst = max(worst, float(np.max(np.abs(vals))))
        for got, want in zip(vals[pre.n :], pre.ladder_closures):
            worst = max(worst, abs(got - want(w)))
        if pre.expected_C is not None:
            worst = max(worst, float(np.max(np.abs(Zw.C - pre.expected_C(w)))))
        if pre.expected_D is not None:
            worst = max(worst, float(np.max(np.abs(Zw.D - pre.expected_D(w)))))
    detail = f"{len(sizes)} generations, {points} feasible points"
    return CheckResult(name, worst <= tol, worst, tol, detail)
