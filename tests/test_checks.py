"""Identity-check layer: named pass/fail results over the presets.

The interesting cases here are the negative ones: an injected wrong
closed form must fail exactly the check that consumes it, and a
tolerance override must propagate into every value comparison.
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from cocontact.checks import (
    CHECK_NAMES,
    PCG64,
    CheckResult,
    _domain_point,
    check_ad_vs_fd,
    check_equivalence,
    check_ladder,
    check_residual_order,
    run_all_checks,
)
from cocontact.systems import PRESET_NAMES, preset_by_name
from checks_reference import check_ad_vs_fd_pointwise, check_ladder_pointwise


def test_check_result_line_format():
    ok = CheckResult("ladder[duffing]", True, 3.2e-12, 1e-10)
    assert ok.line().startswith("PASS  ladder[duffing]")
    assert "worst 3.200e-12" in ok.line()
    assert "(tol 1.0e-10)" in ok.line()

    bad = CheckResult("equivalence[x]", False, 0.5, 1e-6, detail="diverged")
    assert bad.line().startswith("FAIL  equivalence[x]")
    assert bad.line().endswith("[diverged]")


@pytest.mark.parametrize("points", (80, 100))
@pytest.mark.parametrize("seed", (42, 7))
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batched_checks_equal_the_pointwise_loops(name, seed, points):
    # each side on its own preset, so neither replays the other's tapes
    assert (check_ad_vs_fd(preset_by_name(name), seed, points)
            == check_ad_vs_fd_pointwise(preset_by_name(name), seed, points))
    assert (check_ladder(preset_by_name(name), seed, points)
            == check_ladder_pointwise(preset_by_name(name), seed, points))


def test_ad_vs_fd_evaluates_each_order_once(monkeypatch):
    # one stack of all shifts per order, the largest first (L's jets at
    # orders 2 and 1, then the values for order 1's differences), then
    # the point stack's jet
    pre = preset_by_name("charged")
    L = pre.system
    values, orders = [], []
    value, taylor_on = L.value, L.taylor_on
    monkeypatch.setattr(L, "value", lambda x: values.append(np.shape(x)) or value(x))
    monkeypatch.setattr(L, "taylor_on",
                        lambda space, x, order: orders.append((order, len(x))) or taylor_on(space, x, order))
    dim = 2 * pre.n + 2
    assert check_ad_vs_fd(pre, points=7).passed
    assert values == [(2 * dim * 7, dim)]
    assert orders == [(2, 2 * dim * 7), (1, 2 * dim * 7), (3, 7)]


def test_ladder_check_builds_one_phi_jet_per_point(monkeypatch):
    # each point's closed forms run right after it is drawn, so all six
    # read the phi jet its sampler built
    from cocontact import systems

    phi = []
    eval_jet = systems.eval_jet

    def counting(f, x, order):
        if f.label == "phi":
            phi.append(order)
        return eval_jet(f, x, order)

    monkeypatch.setattr(systems, "eval_jet", counting)
    pre = preset_by_name("charged")
    assert check_ladder(pre, points=12).passed
    assert phi == [3] * 12


def test_run_all_checks_duffing_passes():
    results = run_all_checks("duffing", seed=42)
    assert [r.name.split("[")[0] for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results), [r.line() for r in results]
    # every comparison actually measured something
    assert all(np.isfinite(r.worst) for r in results)


def test_injected_wrong_expected_c_fails_ladder_check():
    # fault injection: flip the sign of the closed-form fibre coefficients
    pre = preset_by_name("duffing")
    broken = dataclasses.replace(pre, expected_C=lambda w: -pre.expected_C(w))
    result = check_ladder(broken)
    assert not result.passed
    assert result.name == "ladder[duffing]"
    assert result.worst > result.tol


def test_injected_wrong_expected_d_fails_ladder_check():
    pre = preset_by_name("variable_mass_drag")
    broken = dataclasses.replace(
        pre, expected_D=lambda w: pre.expected_D(w) + 0.1
    )
    result = check_ladder(broken)
    assert not result.passed
    assert result.worst == pytest.approx(0.1, rel=1e-6)


def test_tolerance_override_reaches_every_check():
    pre = preset_by_name("duffing")
    # absurdly tight: roundoff alone cannot meet it
    assert not check_ad_vs_fd(pre, tol=1e-18).passed
    assert not check_ladder(pre, tol=1e-18).passed
    # duffing's three descriptions agree bit-exactly (p = v there), so
    # use the variable-mass system, whose lift has nontrivial roundoff
    assert not check_equivalence(preset_by_name("drag"), tol=1e-18).passed


def test_equivalence_fallback_on_singular_fibre_map():
    # degenerate velocity metric: no momentum description exists, the
    # check must still compare the mixed and velocity descriptions
    pre = preset_by_name("charged")
    result = check_equivalence(pre)
    assert result.passed
    assert "singular" in result.detail


def test_equivalence_fallback_integrates_each_description_once(monkeypatch):
    # the momentum run goes first and fails in its lift, so the fallback
    # adds only the mixed and velocity runs: three integrate calls in all,
    # on the one ladder cross_check_equivalence discovers
    from cocontact import checks, dynamics

    calls = []
    integrate = dynamics.integrate
    discover = dynamics.run_constraint_algorithm
    ladders = []

    def counting(field, x0, cfg):
        calls.append(field.kind)
        return integrate(field, x0, cfg)

    def counting_discover(*args, **kwargs):
        ladders.append(args)
        return discover(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate", counting)
    monkeypatch.setattr(checks, "integrate", counting)
    monkeypatch.setattr(dynamics, "run_constraint_algorithm", counting_discover)
    monkeypatch.setattr(checks, "run_constraint_algorithm", counting_discover)
    result = check_equivalence(preset_by_name("charged"))
    assert result.passed
    assert calls == ["hamiltonian", "unified", "lagrangian"]
    assert len(ladders) == 1


def test_residual_order_skips_deep_ladders():
    result = check_residual_order(preset_by_name("charged"))
    assert result.passed
    assert "skip" in result.detail


def test_residual_order_measures_fourth_order_band():
    result = check_residual_order(preset_by_name("variable_mass_drag"))
    assert result.passed
    assert result.worst <= 1.0
    assert "herglotz" in result.detail


# -- the checks' points --------------------------------------------------

STREAM_SEEDS = [*range(296), 2**32, 2**64 + 1, 10**30, 2**128 + 7]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_the_point_stream_is_numpys_default_rng(seed):
    ours, numpys = PCG64(seed), np.random.default_rng(seed)
    for _ in range(3):
        got, want = ours.uniform(-1.5, 1.5), numpys.uniform(-1.5, 1.5)
        assert type(got) is float and got == want
        assert np.array_equal(ours.uniform(0.0, 2.0, 5), numpys.uniform(0.0, 2.0, 5))
        assert np.array_equal(ours.choice([-1.0, 1.0], size=2), numpys.choice([-1.0, 1.0], size=2))
    # an odd count of 32-bit draws leaves half a word for the next
    for size in (1, 3, 1, 2):
        assert np.array_equal(ours.choice([0.5, 2.0], size), numpys.choice([0.5, 2.0], size))
        assert ours.uniform(0.0, 1.0) == numpys.uniform(0.0, 1.0)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_the_presets_points_from_the_stream_are_numpys(name):
    pre = preset_by_name(name)
    for seed in STREAM_SEEDS[::10]:
        ours, numpys = PCG64(seed), np.random.default_rng(seed)
        for _ in range(2):
            assert np.array_equal(pre.sample_feasible(ours), pre.sample_feasible(numpys))
            assert np.array_equal(_domain_point(pre, ours), _domain_point(pre, numpys))


def test_the_point_stream_is_pinned():
    # the first draws, as literals: the checks' points stay where they are
    # whatever a later numpy does to its own stream
    for seed, first, pair, signs in (
        (0, 0.6369616873214543, [-0.6906398587083891, -1.3770794281914158], [-1.0, -1.0]),
        (42, 0.7739560485559633, [-0.18336468074384316, 1.0757937597341476], [-1.0, 1.0]),
    ):
        rng = PCG64(seed)
        assert rng.uniform(0.0, 1.0) == first
        assert rng.uniform(-1.5, 1.5, 2).tolist() == pair
        assert rng.choice([-1.0, 1.0], 2).tolist() == signs


def test_a_negative_seed_raises_as_numpys_does():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        PCG64(-1)


def test_the_stream_chooses_from_two_items_only():
    with pytest.raises(ValueError, match="two items"):
        PCG64(0).choice([1.0, 2.0, 3.0], 2)


def test_the_checks_and_verify_never_import_numpy_random():
    script = textwrap.dedent("""
        import sys
        from cocontact import checks, cli
        from cocontact.systems import PRESET_NAMES, preset_by_name
        for name in PRESET_NAMES:
            pre = preset_by_name(name)
            assert checks.check_ad_vs_fd(pre).passed
            assert checks.check_ladder(pre).passed
        assert cli.main(["verify", "--preset", "charged_particle"]) == 0
        print(sorted({"numpy.random", "_hashlib"} & set(sys.modules)))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # numpy 1.x imports numpy.random (and _hashlib behind it) with numpy
    # itself; from numpy 2 on it is loaded only when first used
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert out.stdout.splitlines()[-1] == "[]"
