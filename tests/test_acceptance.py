"""Acceptance suite: the numbered end-to-end requirements of the package.

Each test runs one criterion at its stated tolerance and prints a single
PASS/FAIL line (visible with pytest -s; the test verdicts themselves carry
the same information).  Criteria:

  1  regular ladders close at generation 1; assembled fibre coefficients
     match closed forms at 100 on-manifold points (1e-10, under 1 s)
  2  singular ladder discovers exactly the known constraint generations
     and closes; values match direct formulas at 100 feasible points
     (1e-10, under 5 s)
  3  projected velocity-space run matches an independently coded RK4 on
     the equivalent second-order ODE (T=20, step 1e-3, 1e-6)
  4  harmonic limit reproduces x0*cos(sqrt(alpha) t) (T=2*pi, 1e-6)
  5  the three descriptions of one motion agree under projection and
     under the fibre map (T=10, step 1e-3, 1e-6)
  6  all four residual channels shrink at fourth order under step halving
     (ratio within [12, 20])
  7  charged-particle scenario: plane confinement to 1e-8, planar
     equations to 1e-6, bounded; the final-radius clause is asserted as
     stated and fails for physical reasons (see its docstring), and a
     separate run with a binding coupling shows the inward spiral
  8  automatic derivatives match finite differences through order 3
  9  expression-language systems match native builders on order-3 jets
     to 1e-12; 10^4-input parser fuzz runs without a crash
"""

import random
import time

import numpy as np
import pytest

from cocontact.checks import check_ad_vs_fd
from cocontact.dsl import DslError, as_field, parse
from cocontact.dynamics import (
    IntegratorConfig,
    _fd_weights,
    cross_check_equivalence,
    integrate,
    lagrangian_field,
    unified_field,
)
from cocontact.pontryagin import (
    assemble_Z,
    run_constraint_algorithm,
)
from cocontact.systems import SOURCE_CHARGE, charged_particle, duffing, preset_by_name


def _verdict(num, label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}  ({detail})")
    return ok


# -- 1: regular systems -------------------------------------------------


def test_criterion_1_regular_ladders_close_in_one_step():
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("duffing", "variable_mass_drag"):
        pre = preset_by_name(name)
        ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
        assert ladder.status == "Closed"
        assert ladder.n_generations == 1, name
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = pre.sample_feasible(rng)
            Z = assemble_Z(pre.system, w, ladder)
            worst = max(worst, float(np.max(np.abs(Z.C - pre.expected_C(w)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    assert _verdict(1, "regular ladders close in one step",
                    ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 1.0


# -- 2: singular ladder -------------------------------------------------


def _coulomb_grad(q):
    r2 = q[0] ** 2 + q[1] ** 2 + q[2] ** 2
    return -SOURCE_CHARGE * q[:3] / r2**1.5


def _coulomb_hess(q):
    r2 = q[0] ** 2 + q[1] ** 2 + q[2] ** 2
    return SOURCE_CHARGE * (3 * np.outer(q[:3], q[:3]) / r2 - np.eye(3)) / r2**1.5


def test_criterion_2_singular_ladder_generations_and_closure():
    t0 = time.perf_counter()
    pre = preset_by_name("charged_particle")
    par = pre.params
    k, gam, m = par["k"], par["gamma"], par["m"]

    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    # four momentum primaries, then one new constraint per generation,
    # then closure with nothing further
    assert ladder.status == "Closed"
    assert [len(g) for g in ladder.generations] == [4, 1, 1, 1, 1]
    derived = [gen[0] for gen in ladder.generations[1:]]

    # direct formulas for the discovered constraints; the last one is the
    # coupled-velocity relation in its dimensionally consistent form
    direct = (
        lambda w: w[3] - w[0],                                  # plane offset
        lambda w: w[7] - 1.0,                                   # plane speed
        lambda w: w[4] - k * _coulomb_grad(w[1:5])[2] - gam * m,
        lambda w: w[8] - k * (_coulomb_hess(w[1:5])[:, 2] @ w[5:8]),
    )

    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        w = pre.sample_feasible(rng)
        # feasible points: every discovered constraint and every direct
        # formula vanishes, and they vanish together
        for d, f in zip(derived, direct):
            worst = max(worst, abs(d(w)), abs(f(w)), abs(d(w) - f(w)))
        # single-coordinate perturbations isolate each generation: the
        # discovered function must track its formula off the manifold too
        for gen, idx in ((0, 3), (1, 7), (2, 4), (3, 8)):
            w2 = w.copy()
            w2[idx] += rng.uniform(-0.3, 0.3)
            worst = max(worst, abs(derived[gen](w2) - direct[gen](w2)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    assert _verdict(2, "singular ladder generations",
                    ok, f"worst {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


# -- 3: independent ODE oracle ------------------------------------------


def test_criterion_3_duffing_against_direct_ode():
    pre = preset_by_name("duffing")
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    traj = integrate(
        lagrangian_field(pre.system, ladder),
        np.concatenate((ladder.probe[:3], ladder.probe[-1:])),
        IntegratorConfig(step=1e-3, t_end=20.0),
    )

    al, be, ga, de, om = (pre.params[key]
                          for key in ("alpha", "beta", "gamma", "delta", "omega"))

    def f(t, y):
        x, v = y
        return np.array([v, ga * np.cos(om * t) - de * v - al * x - be * x**3])

    h = 1e-3
    y = traj.states[0][1:3].copy()
    t = traj.times[0]
    ref = np.empty((len(traj), 2))
    ref[0] = y
    for i in range(1, len(traj)):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h / 2 * k1)
        k3 = f(t + h / 2, y + h / 2 * k2)
        k4 = f(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        ref[i] = y
    dev = float(np.max(np.abs(traj.states[:, 1:3] - ref)))
    assert _verdict(3, "forced oscillator vs direct ODE", dev <= 1e-6,
                    f"dev {dev:.2e}")
    assert dev <= 1e-6


# -- 4: harmonic limit --------------------------------------------------


def test_criterion_4_harmonic_limit_closed_form():
    alpha = 2.0
    pre = duffing(alpha=alpha, beta=0.0, gamma=0.0, delta=0.0)
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    traj = integrate(
        lagrangian_field(pre.system, ladder),
        np.concatenate((ladder.probe[:3], ladder.probe[-1:])),
        IntegratorConfig(step=1e-3, t_end=2 * np.pi),
    )
    x0 = pre.initial[1]  # q
    dev = float(np.max(np.abs(traj.states[:, 1] - x0 * np.cos(np.sqrt(alpha) * traj.times))))
    assert _verdict(4, "harmonic limit", dev <= 1e-6, f"dev {dev:.2e}")
    assert dev <= 1e-6


# -- 5: three descriptions of one motion --------------------------------


def test_criterion_5_three_descriptions_agree():
    cfg = IntegratorConfig(step=1e-3, t_end=10.0)
    worst = 0.0
    for name in ("duffing", "variable_mass_drag"):
        pre = preset_by_name(name)
        eq = cross_check_equivalence(pre.system, pre.initial, cfg)
        worst = max(worst, eq.max_deviation)
    assert _verdict(5, "projections and fibre map agree", worst <= 1e-6,
                    f"worst {worst:.2e}")
    assert worst <= 1e-6


# -- 6: fourth-order residual channels ----------------------------------


def test_criterion_6_residual_channels_fourth_order():
    ratios = {}
    for name in ("duffing", "variable_mass_drag"):
        pre = preset_by_name(name)
        ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
        maxima = {}
        for h in (1e-2, 5e-3):
            traj = integrate(unified_field(pre.system, ladder),
                             ladder.probe, IntegratorConfig(step=h, t_end=5.0))
            maxima[h] = {ch: traj.channel_max(ch) for ch in traj.residuals}
        for ch, hi in maxima[1e-2].items():
            lo = maxima[5e-3][ch]
            if hi == 0.0 and lo == 0.0:
                # structurally preserved quantity; only the quadratic
                # kinetic term makes the momentum constraint exact
                assert name == "duffing" and ch == "constraint"
                continue
            ratios[f"{name}/{ch}"] = hi / lo
    ok = all(12.0 <= r <= 20.0 for r in ratios.values())
    assert _verdict(6, "residual channels O(step^4)", ok,
                    ", ".join(f"{k} x{r:.1f}" for k, r in sorted(ratios.items())))
    for key, r in ratios.items():
        assert 12.0 <= r <= 20.0, (key, r)


# -- 7: charged-particle scenario ---------------------------------------


@pytest.fixture(scope="module")
def charged_run():
    pre = preset_by_name("charged_particle")
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    traj = integrate(unified_field(pre.system, ladder), ladder.probe,
                     IntegratorConfig(step=1e-2, t_end=10.0))
    return pre, traj


def test_criterion_7_plane_confinement_and_planar_equations(charged_run):
    pre, traj = charged_run
    par = pre.params
    k, gam, m = par["k"], par["gamma"], par["m"]

    plane = float(np.max(np.abs(traj.lifted[:, 3] - traj.lifted[:, 0])))

    # planar equations of motion, checked against finite-difference
    # accelerations of the recorded samples
    N = len(traj)
    acc = np.empty((N, 2))
    for i in range(N):
        lo = min(max(0, i - 2), N - 5)
        wts = _fd_weights(traj.times[i], traj.times[lo:lo + 5], 1)[:, 1]
        acc[i] = wts @ traj.lifted[lo:lo + 5, 5:7]
    q = traj.lifted[:, 1:4]
    r3 = np.sum(q * q, axis=1) ** 1.5
    grad_xy = -SOURCE_CHARGE * q[:, :2] / r3[:, None]
    res = float(np.max(np.abs(m * acc + k * grad_xy + gam * m * traj.lifted[:, 5:7])))

    radius = np.hypot(q[:, 0], q[:, 1])
    bounded = bool(np.all(np.isfinite(traj.lifted)) and np.max(radius) < 50.0)

    ok = plane <= 1e-8 and res <= 1e-6 and bounded
    assert _verdict(7, "plane confinement and planar equations", ok,
                    f"|z-t| {plane:.2e}, residual {res:.2e}, "
                    f"max radius {np.max(radius):.1f}")
    assert plane <= 1e-8
    assert res <= 1e-6
    assert bounded


def test_criterion_7_final_radius_decreases(charged_run):
    """Asserted as stated; fails, and must fail, for physical reasons.

    With coupling 2e-4 against source 2e-4 the in-plane attraction at
    radius 2 is ~1e-8, while the drag term damps the launch speed 10 on a
    1/0.3 timescale: the motion is a damped free flight that settles near
    radius v0/gamma ~ 33, far outside the start.  No coupling rescales
    this into a pass: angular momentum decays exactly like e^(-gamma t),
    so a coupling strong enough to bind the orbit collapses it to an
    unresolvable frequency well before t = 10.  The companion test below
    shows the inward spiral with a binding coupling over a resolvable
    window.
    """
    pre, traj = charged_run
    radius = np.hypot(traj.lifted[:, 1], traj.lifted[:, 2])
    ok = radius[-1] < radius[0]
    _verdict(7, "final planar radius below initial", ok,
             f"initial {radius[0]:.2f}, final {radius[-1]:.2f}")
    assert radius[-1] < radius[0], (
        f"final planar radius {radius[-1]:.2f} exceeds initial {radius[0]:.2f}; "
        "see docstring: unreachable with the stated parameters"
    )


def test_criterion_7_inward_spiral_with_binding_coupling():
    # same scenario, but the source strength carries the SI Coulomb
    # constant and the plane is held fixed, so the orbit binds and the
    # drag winds it inward; run length chosen so the spiral stays
    # resolvable at this step
    kc = 8.9875517923e9
    pre = charged_particle(
        phi_expr=f"({kc * SOURCE_CHARGE!r}/sqrt(q1^2 + q2^2 + q3^2))",
        f_expr="q3",
    )
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    assert ladder.status == "Closed"
    assert [len(g) for g in ladder.generations] == [4, 1, 1, 1, 1]
    traj = integrate(unified_field(pre.system, ladder), ladder.probe,
                     IntegratorConfig(step=1e-3, t_end=1.5, reproject=True))
    q = traj.lifted[:, 1:4]
    radius = np.hypot(q[:, 0], q[:, 1])
    confined = float(np.max(np.abs(q[:, 2])))
    ok = radius[-1] < 0.8 * radius[0] and np.max(radius) <= radius[0] + 1e-9 \
        and confined <= 1e-8
    assert _verdict(7, "inward spiral with binding coupling", ok,
                    f"radius {radius[0]:.2f} -> {radius[-1]:.2f}, "
                    f"|z| {confined:.1e}")
    assert radius[-1] < 0.8 * radius[0]
    assert np.max(radius) <= radius[0] + 1e-9
    assert confined <= 1e-8


# -- 8: derivative correctness ------------------------------------------


def test_criterion_8_derivatives_match_finite_differences():
    details = []
    ok = True
    for name in ("duffing", "variable_mass_drag", "charged_particle"):
        result = check_ad_vs_fd(preset_by_name(name), seed=42, points=100)
        ok = ok and result.passed
        details.append(f"{name} worst {result.worst:.1e} of budget")
    assert _verdict(8, "derivatives vs finite differences", ok,
                    ", ".join(details))
    assert ok


# -- 9: expression-language fidelity ------------------------------------


def test_criterion_9_expression_language_fidelity_and_fuzz():
    worst = 0.0
    for name in ("duffing", "variable_mass_drag", "charged_particle"):
        pre = preset_by_name(name)
        n = pre.n
        field = as_field(parse(pre.dsl_text, n=n), pre.params)
        rng = np.random.default_rng(17)
        for _ in range(100):
            x = np.empty(2 * n + 2)
            x[0] = rng.uniform(-1, 1)
            x[1:1 + n] = rng.uniform(0.6, 2.0, n) * rng.choice([-1.0, 1.0], n)
            x[1 + n:1 + 2 * n] = rng.uniform(-2, 2, n)
            x[-1] = rng.uniform(-1, 1)
            a = pre.system.jet(x, 3)
            b = field.jet(x, 3)
            worst = max(worst,
                        abs(a.value - b.value),
                        float(np.max(np.abs(a.grad - b.grad))),
                        float(np.max(np.abs(a.hess - b.hess))),
                        float(np.max(np.abs(a.third - b.third))))

    alphabet = "q1v2p3ts+-*/^()sincoexplqrt0123456789. ,_$#"
    rng = random.Random(99)
    parsed = 0
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randrange(0, 48)))
        try:
            parse(text, n=2, allow_p=rng.random() < 0.5)
            parsed += 1
        except DslError:
            pass  # rejection with a located error is the contract
    ok = worst <= 1e-12 and parsed > 0
    assert _verdict(9, "expression language fidelity and fuzz", ok,
                    f"worst {worst:.2e}, {parsed} fuzz inputs parsed")
    assert worst <= 1e-12
    assert parsed > 0
