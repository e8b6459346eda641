"""Identity-check layer: named pass/fail results over the presets.

The interesting cases here are the negative ones: an injected wrong
closed form must fail exactly the check that consumes it, and a
tolerance override must propagate into every value comparison.
"""

import dataclasses

import numpy as np
import pytest

from cocontact.checks import (
    CHECK_NAMES,
    CheckResult,
    check_ad_vs_fd,
    check_equivalence,
    check_ladder,
    check_residual_order,
    run_all_checks,
)
from cocontact.systems import preset_by_name


def test_check_result_line_format():
    ok = CheckResult("ladder[duffing]", True, 3.2e-12, 1e-10)
    assert ok.line().startswith("PASS  ladder[duffing]")
    assert "worst 3.200e-12" in ok.line()
    assert "(tol 1.0e-10)" in ok.line()

    bad = CheckResult("equivalence[x]", False, 0.5, 1e-6, detail="diverged")
    assert bad.line().startswith("FAIL  equivalence[x]")
    assert bad.line().endswith("[diverged]")


def test_run_all_checks_duffing_passes():
    results = run_all_checks("duffing", seed=42)
    assert [r.name.split("[")[0] for r in results] == list(CHECK_NAMES)
    assert all(r.passed for r in results), [r.line() for r in results]
    # every comparison actually measured something
    assert all(np.isfinite(r.worst) for r in results)


def test_subset_selection():
    results = run_all_checks("duffing", subset=("ladder",))
    assert len(results) == 1
    assert results[0].name == "ladder[duffing]"
    assert results[0].passed


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
    result = check_equivalence(pre, step=1e-2, t_end=0.3)
    assert result.passed
    assert "singular" in result.detail


def test_equivalence_fallback_integrates_each_description_once(monkeypatch):
    # the momentum run goes first and fails in its lift, so the fallback
    # adds only the mixed and velocity runs: three integrate calls in all
    from cocontact import checks, dynamics

    calls = []
    integrate = dynamics.integrate

    def counting(field, x0, cfg):
        calls.append(field.kind)
        return integrate(field, x0, cfg)

    monkeypatch.setattr(dynamics, "integrate", counting)
    monkeypatch.setattr(checks, "integrate", counting)
    result = check_equivalence(preset_by_name("charged"), step=1e-2, t_end=0.1)
    assert result.passed
    assert calls == ["hamiltonian", "unified", "lagrangian"]


def test_residual_order_skips_deep_ladders():
    result = check_residual_order(preset_by_name("charged"))
    assert result.passed
    assert "skip" in result.detail


def test_residual_order_measures_fourth_order_band():
    result = check_residual_order(preset_by_name("variable_mass_drag"))
    assert result.passed
    assert result.worst <= 1.0
    assert "herglotz" in result.detail
