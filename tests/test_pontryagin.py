"""Constraint algorithm tests.

Oracles: the presets' closed-form coefficient and closure functions
(themselves independently verified in test_systems) plus direct finite
differences on the discovered constraint functions.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from cocontact import dsl, pontryagin
from cocontact.dynamics import (IntegratorConfig, LagrangianField, UnifiedField, integrate,
                                unified_field)
from cocontact.jets import ORDER_CAP, Taylor
from cocontact.mechanics import LagrangianSystem
from cocontact.pontryagin import (
    MAX_GENERATIONS,
    RANK_TOL,
    AlgorithmOptions,
    InfeasiblePoint,
    LadderNotClosed,
    NumericalBreakdown,
    ZCoefficients,
    _ClosedReads,
    _PrimaryConstraint,
    _layout,
    _pivots,
    _solve_frozen,
    _test_margins,
    _Workspace,
    assemble_Z,
    constraint_values,
    lagrangian_part,
    project_onto,
    run_constraint_algorithm,
)
from cocontact.systems import (
    PRESET_NAMES,
    SOURCE_CHARGE,
    charged_particle,
    duffing,
    preset_by_name,
    variable_mass_drag,
)
from field_reference import kernel_q_indices, pick_columns
from lagrangian_reference import order2_reference


# a ladder whose generation-2 constraint q1 - t the projection cannot
# move (it may not adjust q1); tests/test_dynamics.py integrates it into
# its reprojection stall
STALLING_L = "0.5*cos(q2)*v1^2 + v2^2/2 + q3*(q1 - t)"
STALLING_START = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def primary_constraints(L, w):
    """Values of the momentum constraints p_j - dL/dv_j at a point."""
    return constraint_values(L, w, [_PrimaryConstraint(L, j) for j in range(L.n)])


def coulomb_hess(x):
    r = math.sqrt(x @ x)
    return SOURCE_CHARGE * (3 * np.outer(x, x) / r**5 - np.eye(3) / r**3)


# -- simple observables --------------------------------------

def test_primary_constraint_values():
    pre = duffing()
    w = np.array([0.2, 1.1, -0.7, 0.4, 0.9])
    # p - dL/dv = p - v for this kinetic term
    assert abs(primary_constraints(pre.system, w)[0] - (0.4 - (-0.7))) < 1e-14

    ch = charged_particle()
    w = ch.initial
    vals = primary_constraints(ch.system, w)
    np.testing.assert_allclose(vals, [0.0, -10.0, 0.0, 0.0], atol=1e-14)


def test_mixed_space_vectors_must_have_length_3n_plus_2():
    pre = charged_particle()
    for bad in (np.zeros(13), np.zeros(15), np.zeros((2, 7))):
        with pytest.raises(ValueError, match="length 14"):
            primary_constraints(pre.system, bad)


def test_z_coefficients_vector_layout():
    Z = ZCoefficients(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.zeros((1, 0)))
    assert (Z.A, Z.B.tolist(), Z.C.tolist(), Z.D.tolist(), Z.E) == (1.0, [2.0], [3.0], [4.0], 5.0)
    assert isinstance(Z.A, float) and isinstance(Z.E, float)
    assert Z.constraint_values.shape == (0,)


# -- regular systems: one-generation closure ----------------------------

def test_duffing_closes_in_one_generation():
    pre = duffing()
    ladder, Z = run_constraint_algorithm(pre.system, pre.initial)
    assert ladder.status == "Closed"
    assert ladder.n_generations == 1
    assert ladder.rank == 1
    assert ladder.undetermined_dim == 0
    w = ladder.probe
    assert Z.A == 1.0
    np.testing.assert_array_equal(Z.B, w[2:3])  # B is literally v
    np.testing.assert_allclose(Z.C, pre.expected_C(w), rtol=0, atol=1e-12)
    np.testing.assert_allclose(Z.D, pre.expected_D(w), rtol=0, atol=1e-12)
    assert abs(Z.E - pre.system.value(np.array([w[0], w[1], w[2], w[4]]))) < 1e-14


def test_regular_closure_at_random_feasible_points():
    # a feasible start is where discovery's projections leave it, bit for
    # bit, so the closed forms are checked at that exact point
    rng = np.random.default_rng(1)
    for pre in (duffing(), variable_mass_drag()):
        for _ in range(30):
            w = pre.sample_feasible(rng)
            ladder, Z = run_constraint_algorithm(pre.system, w)
            assert ladder.probe.tobytes() == w.tobytes()
            assert ladder.status == "Closed" and ladder.n_generations == 1
            np.testing.assert_allclose(Z.C, pre.expected_C(w), rtol=0, atol=1e-10)
            np.testing.assert_allclose(Z.D, pre.expected_D(w), rtol=0, atol=1e-10)


def test_duffing_C_equals_D_on_constraint_set():
    # with p = dL/dv = v the two formulas coincide pointwise
    pre = duffing()
    rng = np.random.default_rng(2)
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    for _ in range(20):
        w = pre.sample_feasible(rng)
        Z = assemble_Z(pre.system, w, ladder)
        np.testing.assert_allclose(Z.C, Z.D, rtol=0, atol=1e-12)


# -- the singular ladder ------------------------------------------------

def test_charged_ladder_from_reference_start():
    # the reference initial condition sits on the moving plane already
    # (z = t = 0), so several obstructions vanish there by accident; the
    # transversality clause must still find all five generations
    pre = charged_particle()
    ladder, Z = run_constraint_algorithm(pre.system, pre.initial)
    assert ladder.status == "Closed"
    assert ladder.n_generations == 5
    assert [len(g) for g in ladder.generations] == [4, 1, 1, 1, 1]
    assert ladder.rank == 4
    assert ladder.undetermined_dim == 0

    w = ladder.probe
    t, q, v, p = w[0], w[1:5], w[5:9], w[9:13]
    assert abs(q[2] - t) < 1e-11  # on the plane
    assert abs(v[2] - 1.0) < 1e-11  # moving with it
    assert abs(p[3]) < 1e-11
    # multiplier balances field and friction at the projected state
    r = math.sqrt(q[:3] @ q[:3])
    phi_z = -SOURCE_CHARGE * q[2] / r**3
    assert abs(q[3] - (2e-4 * phi_z + 0.3)) < 1e-10
    # coupled-velocity relation
    H = coulomb_hess(q[:3])
    want_vlam = 2e-4 * (H[0, 2] * v[0] + H[1, 2] * v[1] + H[2, 2] * v[2])
    assert abs(v[3] - want_vlam) < 1e-10

    np.testing.assert_allclose(Z.C, pre.expected_C(w), rtol=0, atol=1e-10)
    np.testing.assert_allclose(Z.D, pre.expected_D(w), rtol=0, atol=1e-10)


def test_charged_ladder_at_generic_feasible_points():
    pre = charged_particle()
    rng = np.random.default_rng(4)
    for _ in range(15):
        w = pre.sample_feasible(rng)
        ladder, Z = run_constraint_algorithm(pre.system, w)
        assert ladder.probe.tobytes() == w.tobytes()
        assert ladder.status == "Closed"
        assert ladder.n_generations == 5
        np.testing.assert_allclose(Z.C, pre.expected_C(w), rtol=0, atol=1e-10)
        for gen in ladder.generations:
            for c in gen:
                assert abs(c(w)) < 1e-10


def test_discovered_constraints_equal_hand_closures_everywhere():
    # the recipes built by the algorithm agree with the hand-derived
    # closed forms at arbitrary points, not only feasible ones
    pre = charged_particle()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    derived = [gen[0] for gen in ladder.generations[1:]]
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.uniform(-1.5, 1.5, 14)
        w[1] = rng.uniform(1.0, 2.0)
        for got, want in zip(derived, pre.ladder_closures):
            assert abs(got(w) - want(w)) < 1e-10


def test_derived_constraint_jets_match_finite_differences():
    pre = charged_particle()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    rng = np.random.default_rng(6)
    w = rng.uniform(-1.2, 1.2, 14)
    w[1] = 1.7
    h = 1e-6
    for gen in ladder.generations[1:]:
        c = gen[0]
        grad = c.jet(w, 1).grad
        for i in range(14):
            e = np.zeros(14)
            e[i] = h
            fd = (c(w + e) - c(w - e)) / (2 * h)
            assert abs(grad[i] - fd) < 2e-5, (c.label, i)


def test_field_is_tangent_to_every_constraint():
    # grad(xi) . Z = 0 at feasible points, for the whole ladder
    pre = charged_particle()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = pre.sample_feasible(rng)
        Z = assemble_Z(pre.system, w, ladder)
        zvec = Z.coeffs
        for c in ladder.active():
            assert abs(c.jet(w, 1).grad @ zvec) < 1e-9, c.label


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_field_C_matches_the_row_by_row_least_squares_solve(name):
    # reference: the tangency rows built one constraint at a time from its
    # jet, grad(c) . Z with the C block left out, solved by lstsq under the
    # same rank rule; the assembly forms all rows at once and reuses its SVD
    pre = preset_by_name(name)
    L, n = pre.system, pre.n
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    rng = np.random.default_rng(12)
    for _ in range(5):
        w = pre.sample_feasible(rng)
        Z = assemble_Z(L, w, ladder)
        known = Z.coeffs.copy()
        known[1 + n : 1 + 2 * n] = 0.0
        M, g = [], []
        for c in ladder.active():
            grad = c.jet(w, 1).grad
            M.append(grad[1 + n : 1 + 2 * n])
            g.append(sum(float(a * b) for a, b in zip(grad, known)))
        C, *_ = np.linalg.lstsq(np.array(M), -np.array(g), rcond=RANK_TOL)
        np.testing.assert_allclose(Z.C, C, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_taped_C_is_the_least_squares_C(name):
    # every preset's ladder closes with full rank, and its tape solves the
    # tangency conditions by QR: on and off the constraint set, their C is
    # lstsq's to rounding
    pre = preset_by_name(name)
    L, n = pre.system, pre.n
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    assert ladder.rank == n
    rng = np.random.default_rng(2)
    W = np.array([pre.sample_feasible(rng) for _ in range(200)])
    W = np.concatenate((W, W + 1e-6 * rng.uniform(-1.0, 1.0, W.shape)))
    R = len(ladder.active())
    grads_at, template, *_ = _layout(R, n)
    for raw, Z in zip(_ClosedReads(L, ladder.active())(W), assemble_Z(L, W, ladder)):
        grads = raw[grads_at].reshape(R, 3 * n + 2)
        z = raw[template].copy()
        z[1 + n : 1 + 2 * n] = 0.0
        g = grads @ z
        C, *_ = np.linalg.lstsq(grads[:, 1 + n : 1 + 2 * n], -g, rcond=None)
        assert Z.undetermined.shape == (n, 0)
        assert np.max(np.abs(Z.C - C)) <= 1e-14 * np.max(np.abs(Z.coeffs))


def _rank_one_ladder():
    # p = q1 v1: the C-system's one entry is -q1, so the rank drops at q1 = 0
    L = LagrangianSystem.from_expr(dsl.parse("0.5*q1*v1^2", 1))
    ladder, _ = run_constraint_algorithm(L, np.array([0.0, 1.0, 0.5, 0.0, 0.0]))
    assert (ladder.status, ladder.rank, ladder.undetermined_dim) == ("Closed", 1, 0)
    return L, ladder


@pytest.mark.parametrize("squared", [[math.nan, 1.0], [1.0, math.nan], [4.0, math.nan, 1.0]])
def test_a_nan_pivot_margin_fails_wherever_it_is_listed(squared):
    # min() keeps its first argument against a NaN: a NaN after the first
    # margin once passed the test
    with pytest.raises(NumericalBreakdown, match=r"C-system pivot margin nan at or below"):
        _test_margins(squared, NumericalBreakdown, "C-system", "lost")
    _test_margins([4.0, 1.0], NumericalBreakdown, "C-system", "lost")


def test_a_rank_drop_raises_where_it_was_silent():
    # an SVD counted rank 0 here and returned C = 0 with a free direction;
    # the full-rank solve's margin test names the margin instead, and no
    # division meets the zero pivot
    L, ladder = _rank_one_ladder()
    w = ladder.probe.copy()
    w[1] = 0.0
    message = re.escape("C-system pivot margin 0.000e+00 at or below rank_tol 1.0e-09")
    with pytest.raises(NumericalBreakdown, match=message):
        assemble_Z(L, w, ladder)
    with pytest.raises(NumericalBreakdown, match=message):
        assemble_Z(L, np.array([ladder.probe, w]), ladder)
    fld = UnifiedField(L, ladder)
    fld.eval(ladder.probe)
    with pytest.raises(NumericalBreakdown, match=message):
        fld.eval(w)


def _near_singular(q1):
    # d2L/dv dv = [[1, q1], [q1, 1]] loses rank at q1 = 1: the C-system's
    # condition is (1 + q1) / (1 - q1) and its second pivot margin, the
    # sine between M's columns, (1 - q1^2) / (1 + q1^2)
    L = LagrangianSystem.from_expr(dsl.parse("0.5*v1^2 + 0.5*v2^2 + q1*v1*v2", 2))
    ladder, Z = run_constraint_algorithm(L, np.array([0.0, q1, 0.0, 0.5, 0.2, 0, 0, 0.0]))
    return L, ladder, Z


@pytest.mark.parametrize("q1", [0.9999, 1.0 - 1e-6])
def test_discovery_closes_with_full_rank_wherever_the_svd_keeps_it(q1):
    # the SVD keeps rank 2 up to condition 1 / rank_tol; the solve's margin
    # test refuses none of it, and its C is lstsq's to cond(M) * eps
    L, ladder, Z = _near_singular(q1)
    assert (ladder.status, ladder.n_generations, ladder.rank) == ("Closed", 1, 2)
    assert np.array_equal(assemble_Z(L, ladder.probe, ladder).coeffs, Z.coeffs)
    raw = _ClosedReads(L, ladder.active(), solve=False)(ladder.probe)
    grads_at, template, *_ = _layout(2, 2)
    grads = raw[grads_at].reshape(2, 8)
    M = grads[:, 3:5]
    C, *_ = np.linalg.lstsq(M, -grads @ raw[template], rcond=None)
    cond = np.linalg.cond(M)
    assert cond > 1e4
    assert np.max(np.abs(Z.C - C)) <= cond * 1e-15 * np.max(np.abs(C))


def test_the_pivot_margin_is_tested_against_rank_tol():
    # the second margin is (1 - q1^2) / (1 + q1^2), about 1 - q1 near q1 = 1
    L, ladder, _ = _near_singular(0.3)
    w = ladder.probe.copy()
    w[1] = 1.0 - 2e-9
    assert np.all(np.isfinite(assemble_Z(L, w, ladder).coeffs))
    w[1] = 1.0 - 2.5e-10
    with pytest.raises(NumericalBreakdown, match=r"margin 2\.500e-10 at or below rank_tol 1\.0e-09"):
        assemble_Z(L, w, ladder)
    w[1] = 1.0
    with pytest.raises(NumericalBreakdown, match=r"margin \S+ at or below rank_tol 1\.0e-09"):
        assemble_Z(L, w, ladder)


def test_assembled_field_carries_the_constraint_values():
    # assemble_Z expands every constraint to order 1 anyway; the values it
    # returns are those constraint_values computes, on and off the set
    pre = charged_particle()
    ladder, Z0 = run_constraint_algorithm(pre.system, pre.initial)
    active = ladder.active()
    np.testing.assert_allclose(
        Z0.constraint_values, constraint_values(pre.system, ladder.probe, active),
        rtol=0, atol=1e-13)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = pre.sample_feasible(rng)
        off = w + 1e-2 * rng.uniform(-1.0, 1.0, len(w))
        for point in (w, off):
            got = assemble_Z(pre.system, point, ladder).constraint_values
            want = constraint_values(pre.system, point, active)
            assert got.shape == (len(active),)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_ladder_report_serializes():
    pre = charged_particle()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    rep = ladder.report()
    blob = json.dumps(rep)
    back = json.loads(blob)
    assert back["status"] == "Closed"
    assert back["rank"] == 4
    assert len(back["generations"]) == 5
    assert back["generations"][0][0]["generation"] == 1
    assert all(
        abs(entry["value_at_probe"]) < 1e-9
        for gen in back["generations"]
        for entry in gen
    )


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_closed_ladder_field_is_the_assembled_field(name):
    # run_constraint_algorithm and assemble_Z build Z in one place, so the
    # field the ladder closes with is the field assemble_Z gives at the probe
    pre = preset_by_name(name)
    ladder, Z = run_constraint_algorithm(pre.system, pre.initial)
    again = assemble_Z(pre.system, ladder.probe, ladder)
    for f in ("A", "B", "C", "D", "E", "undetermined", "constraint_values"):
        assert np.array_equal(getattr(Z, f), getattr(again, f)), f


def test_ladder_report_values_are_constraint_values():
    pre = charged_particle()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    got = [e["value_at_probe"] for gen in ladder.report()["generations"] for e in gen]
    want = constraint_values(pre.system, ladder.probe, ladder.active())
    assert got == want.tolist()


def test_workspace_expands_L_once_per_point(monkeypatch):
    # every constraint of the charged ladder is served from one expansion
    # of L: at the deepest generation for values, one order more for the
    # order-1 residuals of the projection.  Discovery runs each pass on the
    # workspace its projection ended on: 8 expansions, where handing only
    # the projection's expansion on made 12
    pre = charged_particle()
    L = pre.system
    unified_dim = 3 * L.n + 2
    orders = []
    taylor_on = LagrangianSystem.taylor_on

    def counting(self, space, x, order):
        if space.dim == unified_dim:
            orders.append(order)
        return taylor_on(self, space, x, order)

    monkeypatch.setattr(LagrangianSystem, "taylor_on", counting)
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    assert orders == [2, 3, 4, 4, 5, 5, 6, 6]
    orders.clear()
    active = ladder.active()
    deepest = max(c.generation for c in active)
    rng = np.random.default_rng(9)
    w = pre.sample_feasible(rng) + 1e-3 * rng.uniform(-1.0, 1.0, unified_dim)
    constraint_values(L, w, active)
    assert orders == [deepest]
    orders.clear()
    # at the probe the projection stops after its first residual evaluation
    project_onto(L, ladder.probe, active)
    assert orders == [1 + deepest]


def test_assemble_Z_builds_each_tangency_row_once(monkeypatch):
    # the derived constraints of the charged ladder share their parents'
    # rows at several orders; each (constraint, order) row comes from one
    # partials pass, and L's partials from one pass per order
    pre = charged_particle()
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    requested, differentiated = [], []
    row, partials = _Workspace.row, Taylor.partials

    def counting_row(self, c, order):
        requested.append((c, order))
        return row(self, c, order)

    def counting_partials(self, dim):
        differentiated.append(self)
        return partials(self, dim)

    monkeypatch.setattr(_Workspace, "row", counting_row)
    monkeypatch.setattr(Taylor, "partials", counting_partials)
    assemble_Z(L, pre.sample_feasible(np.random.default_rng(10)), ladder)
    rows = set(requested)
    assert len(requested) > len(rows)  # repeated requests are served from the cache
    assert len({id(x) for x in differentiated}) == len(differentiated)
    deepest = max(c.generation for c in ladder.active())
    # rows at orders 1..deepest - 1, L's partials at orders 1..deepest
    assert {order for _, order in rows} == set(range(1, deepest))
    assert len(differentiated) == len(rows) + deepest


def test_charged_ladder_pivots_are_frozen_at_birth():
    # each derived constraint eliminates three basis rows; the pivot
    # sequence partial pivoting picked at the birth point is kept for
    # every later evaluation
    pre = charged_particle()
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    derived = [c for gen in ladder.generations[1:] for c in gen]
    assert len(derived) == 4
    for c in derived:
        assert c.pivot_cols == c.orderseq == [0, 1, 2]
    rng = np.random.default_rng(11)
    constraint_values(pre.system, pre.sample_feasible(rng), ladder.active())
    for c in derived:
        assert c.orderseq == [0, 1, 2]


def test_solve_frozen_picks_then_follows_the_pivot_sequence():
    def const(x):
        return Taylor.constant(1, x)

    G = [[const(1.0), const(2.0)], [const(3.0), const(4.0)]]
    rhs = [const(5.0), const(6.0)]
    x, seq = _solve_frozen(G, rhs, None, 1e-12)
    assert seq == [1, 0]  # column 0's largest entry is in row 1
    np.testing.assert_allclose([xi.value for xi in x], [-4.0, 4.5], rtol=1e-15)
    y, same = _solve_frozen(G, rhs, [0, 1], 1e-12)
    assert same == [0, 1]
    np.testing.assert_allclose([yi.value for yi in y], [-4.0, 4.5], rtol=1e-15)
    # a frozen pivot below the floor means the pattern no longer holds here
    with pytest.raises(NumericalBreakdown):
        _solve_frozen(G, rhs, [0, 1], 2.0)


# -- the pivoted Gram-Schmidt behind the recipes' columns and the projection's directions


def test_pivots_of_a_full_row_rank_matrix_are_one_per_row():
    A = np.random.default_rng(3).uniform(-1.0, 1.0, (3, 5))
    pivots, rest = _pivots(A)
    assert len(pivots) == 3 and sorted(pivots + rest) == list(range(5))
    assert rest == sorted(rest)
    assert pivots[0] == int(np.argmax(np.linalg.norm(A, axis=0)))
    assert abs(np.linalg.det(A[:, pivots])) > 0.0


def test_pivots_stop_at_the_rank():
    # rank 1: after the largest column the others leave rounding, at or
    # below tol times the largest column norm
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    assert _pivots(A, RANK_TOL) == ([2], [0, 1])
    assert _pivots(np.zeros((2, 3))) == ([], [0, 1, 2])
    assert _pivots(np.zeros((2, 3)), RANK_TOL) == ([], [0, 1, 2])
    assert _pivots(np.zeros((0, 3))) == ([], [0, 1, 2])
    # the charged particle's d2L/dv dv: the multiplier's column is left
    assert _pivots(np.diag([2.0, 2.0, 2.0, 0.0]), RANK_TOL) == ([0, 1, 2], [3])


def test_pivots_break_a_tie_towards_the_lowest_index():
    assert _pivots(np.eye(3)) == ([0, 1, 2], [])
    assert _pivots(np.array([[1.0, 0.0, -1.0]])) == ([0], [1, 2])
    assert _pivots(np.array([[0.0, 3.0, 4.0], [0.0, 4.0, -3.0]])) == ([1, 2], [0])


def _infinite_L():
    return LagrangianSystem(1, lambda t, q, v, s, par: math.inf * v[0] * v[0], label="inf")


def test_a_non_finite_velocity_hessian_breaks_a_projection_down():
    L, w = _infinite_L(), np.array([0.0, 0.5, 0.2, 0.0, 0.0])
    for project in (lambda: project_onto(L, w, [pontryagin._PrimaryConstraint(L, 0)]),
                    lambda: run_constraint_algorithm(L, w)):
        # p = dL/dv is infinite too: the reads meet inf * 0 before the test,
        # on Python floats, with no numpy warning
        with pytest.raises(NumericalBreakdown, match="non-finite velocity Hessian"):
            project()
    with pytest.raises(NumericalBreakdown, match="non-finite velocity Hessian"):
        pontryagin._directions(np.full(1 + 4 * 2, np.nan), 1)


def _inline(text, n):
    return LagrangianSystem.from_expr(dsl.parse(text, n))


# the systems of this file: presets, inline Lagrangians and the stalling L
CHOICE_SYSTEMS = {
    **{name: (lambda name=name: (preset_by_name(name).system, preset_by_name(name).initial))
       for name in PRESET_NAMES},
    "rank-one": lambda: (_inline("0.5*q1*v1^2", 1), np.array([0.0, 1.0, 0.5, 0.0, 0.0])),
    **{f"near-singular-{q1}": (lambda q1=q1: (_inline("0.5*v1^2 + 0.5*v2^2 + q1*v1*v2", 2),
                                              np.array([0.0, q1, 0.0, 0.5, 0.2, 0, 0, 0.0])))
       for q1 in (0.3, 0.9999, 1.0 - 1e-6)},
    "v s": lambda: (LagrangianSystem(1, lambda t, q, v, s, par: v[0] * s, label="vs"),
                    np.array([0.3, 0.7, 1.2, 0.0, 0.4])),
    "q": lambda: (LagrangianSystem(1, lambda t, q, v, s, par: q[0], label="q"),
                  np.array([0.0, 0.5, 0.2, 0.0, 0.0])),
    "chain": lambda: (LagrangianSystem(6, _multiplier_chain, label="chain"), np.zeros(20)),
    "stalling": lambda: (_inline(STALLING_L, 3), STALLING_START),
}


@pytest.mark.parametrize("name", CHOICE_SYSTEMS)
def test_pivots_make_the_choices_the_svds_made(name, monkeypatch):
    # the recipes' pivot columns are the greedy SVD pick on the basis rows
    # at birth, and the ladder's directions the q's of the SVD nullspace of
    # d2L/dv dv at the start, then every v and p; that nullspace is the
    # same at the probe, where the last projection started
    L, w = CHOICE_SYSTEMS[name]()
    calls = []
    pivots = pontryagin._pivots

    def spy(A, tol=0.0):
        out = pivots(A, tol)
        calls.append((np.array(A), tol, out))
        return out

    monkeypatch.setattr(pontryagin, "_pivots", spy)
    ladder, _ = run_constraint_algorithm(L, w)
    monkeypatch.undo()
    n = L.n
    (H, tol, (_, rest)), *picks = calls
    assert tol == RANK_TOL and rest == kernel_q_indices(H)
    assert ladder.directions == [1 + j for j in rest] + list(range(1 + n, 1 + 3 * n))
    vs = slice(1 + n, 1 + 2 * n)
    at_probe = L.jet(lagrangian_part(ladder.probe, n), 2).hess[vs, vs]
    assert kernel_q_indices(at_probe) == rest
    for A, tol, (cols, _) in picks:
        assert tol == 0.0 and cols == pick_columns(A)
    derived = [c for gen in ladder.generations[1:] for c in gen]
    assert all(any(c.pivot_cols is cols for _, _, (cols, _) in picks) for c in derived)
    assert len(picks) >= len(derived)


@pytest.mark.parametrize("name", ["duffing", "charged_particle"])
def test_a_reprojected_run_factors_nothing_after_discovery(name, monkeypatch):
    # the directions are the ladder's, so a reprojected step runs no SVD;
    # choosing them per projection took one per step
    pre = preset_by_name(name)
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    fld = UnifiedField(pre.system, ladder)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    traj = integrate(fld, ladder.probe, IntegratorConfig(method="rk4", step=1e-2, t_end=1.0,
                                                         reproject=True))
    assert len(traj) == 101 and calls == []


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_projection_expands_L_on_the_mixed_space_once_per_residual_evaluation(name, monkeypatch):
    # project_onto evaluates its residuals on live workspaces, one per
    # point, each expanding L on the mixed space at 1 + the deepest
    # generation; the first one's expansion also fills in the momenta
    # before any constraint reads the point.  Nothing is expanded on the
    # velocity side
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    active = ladder.active()
    deepest = max(c.generation for c in active)
    calls, points = [], []
    taylor_on, init = LagrangianSystem.taylor_on, _Workspace.__init__

    def counting(self, space, x, order):
        calls.append((space.dim, order))
        return taylor_on(self, space, x, order)

    def counting_init(self, L, w, *args, **kwargs):
        points.append(lagrangian_part(w, L.n).tobytes())
        init(self, L, w, *args, **kwargs)

    monkeypatch.setattr(LagrangianSystem, "taylor_on", counting)
    monkeypatch.setattr(_Workspace, "__init__", counting_init)
    mixed = (3 * L.n + 2, 1 + deepest)
    # at the probe the projection stops after its first residual evaluation
    project_onto(L, ladder.probe, active)
    assert calls == [mixed] and len(points) == 1
    calls.clear()
    points.clear()
    # off the constraint set a deep ladder takes Gauss-Newton steps
    w = ladder.probe.copy()
    w[1 + L.n : 1 + 2 * L.n] += 1e-3
    project_onto(L, w, active)
    assert len(points) >= (2 if deepest > 1 else 1)
    assert calls == [mixed] * len(points)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_taped_projection_equals_the_live_one(name):
    # an integrator's projection replays the ladder's tapes, project_onto
    # runs live: they move a point alike, bit for bit, in the unified and
    # velocity descriptions
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    active = ladder.active()
    unified, velocity = UnifiedField(L, ladder), LagrangianField(L, ladder)
    rng = np.random.default_rng(12)
    for k in range(4):
        # velocities and momenta only: the projection may not move t, z or s
        w = ladder.probe.copy()
        w[1 + L.n : 1 + 3 * L.n] += (0.0 if k == 0 else 1e-3) * rng.uniform(-1.0, 1.0, 2 * L.n)
        want = project_onto(L, w, active)
        assert np.array_equal(unified.reproject(w), want)
        assert np.array_equal(velocity.reproject(lagrangian_part(w, L.n)), lagrangian_part(want, L.n))
    assert ladder._reads[False].tape is not None


def test_taped_and_live_projections_stall_alike():
    L = LagrangianSystem.from_expr(dsl.parse(STALLING_L, 3))
    ladder, _ = run_constraint_algorithm(L, STALLING_START)
    active = ladder.active()
    w = ladder.probe.copy()
    w[1] += 1e-6  # q1 - t moves off zero, and q1 is not adjustable
    stalls = []
    for project in (lambda: UnifiedField(L, ladder).reproject(w),
                    lambda: LagrangianField(L, ladder).reproject(lagrangian_part(w, L.n)),
                    lambda: project_onto(L, w, active)):
        with pytest.raises(InfeasiblePoint) as exc:
            project()
        stalls.append(exc.value.stall)
    assert stalls[0] == stalls[1] == stalls[2]
    assert stalls[0].startswith("projection stalled at |rate(p3 - dL/dv3) mod 2 rows| = ")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_assembled_field_carries_L_order2_data(name):
    # Z.L_data is L's order-2 data at the velocity side, read off the
    # workspace's expansion: it equals a fresh jet of L there
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    rng = np.random.default_rng(5)
    dim = 3 * L.n + 2
    for k in range(6):
        w = ladder.probe + (0.0 if k == 0 else 1e-2) * rng.uniform(-1.0, 1.0, dim)
        lag = np.concatenate((w[: 1 + 2 * L.n], w[-1:]))
        want = order2_reference(L, lag)
        got = assemble_Z(L, w, ladder).L_data
        assert got.shape == want.shape == (1 + (2 * L.n + 2) * (1 + L.n),)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


# -- degenerate but closing, and failure modes --------------------------

def test_degenerate_lagrangian_keeps_free_direction():
    # L = v s: the momentum constraint p = s has no v-row, and its
    # obstruction v (p - s) already vanishes on the constraint set, so the
    # ladder closes immediately with one undetermined C-direction
    L = LagrangianSystem(1, lambda t, q, v, s, par: v[0] * s, {}, label="vs")
    ladder, Z = run_constraint_algorithm(L, np.array([0.3, 0.7, 1.2, 0.0, 0.4]))
    assert ladder.status == "Closed"
    assert ladder.n_generations == 1
    assert ladder.rank == 0
    assert ladder.undetermined_dim == 1
    np.testing.assert_array_equal(Z.C, [0.0])  # minimum-norm pick
    assert abs(ladder.probe[3] - ladder.probe[4]) < 1e-15  # p = s


def test_incompatible_system_detected():
    # L = q: the obstruction is the constant 1, nowhere zero
    L = LagrangianSystem(1, lambda t, q, v, s, par: q[0], {}, label="q")
    ladder, Z = run_constraint_algorithm(L, np.array([0.0, 0.5, 0.2, 0.0, 0.0]))
    assert ladder.status == "Incompatible"
    assert Z is None
    assert ladder.n_generations == 2
    with pytest.raises(LadderNotClosed):
        assemble_Z(L, ladder.probe, ladder)


def test_an_options_argument_is_ignored_and_settings_are_refused():
    # bench/workloads.py still passes AlgorithmOptions() to these two calls;
    # it has no fields, so a caller's old setting fails loudly
    assert dataclasses.fields(AlgorithmOptions) == ()
    with pytest.raises(TypeError):
        AlgorithmOptions(rank_tol=1e-5)
    pre = charged_particle()
    cfg = IntegratorConfig(method="rk4", step=1e-2, t_end=0.05)
    runs = []
    for extra in ((), (AlgorithmOptions(),)):
        ladder, _ = run_constraint_algorithm(pre.system, pre.initial, *extra)
        traj = integrate(unified_field(pre.system, ladder, *extra), ladder.probe, cfg)
        runs.append((json.dumps(ladder.report()), traj.states.tobytes(), traj.coeffs.tobytes()))
    assert runs[0] == runs[1]


def _multiplier_chain(t, q, v, s, par):
    return q[3] * (v[0] - q[1]) + q[4] * (v[1] - q[2]) + 0.5 * v[2] * v[2] + q[5] * q[0]


def test_generation_cap_stops_before_the_order_cap():
    # q4, q5 and q6 carry no velocity, and this chain's ladder is still open
    # after ORDER_CAP - 2 passes; pass k expands L to order k + 2, so one
    # more pass would exceed the jet layer's order cap
    assert MAX_GENERATIONS == ORDER_CAP - 2
    L = LagrangianSystem(6, _multiplier_chain, label="chain")
    ladder, Z = run_constraint_algorithm(L, np.zeros(3 * 6 + 2))
    assert ladder.status == "MaxIterations"
    assert Z is None
    assert ladder.n_generations == 1 + (ORDER_CAP - 2)


def test_infeasible_start_off_the_surface():
    # starting with z != t: no adjustment of v, p or the multiplier can
    # reach the moving plane, since z and t are frozen
    pre = charged_particle()
    w = pre.initial.copy()
    w[3] = 0.5  # z
    with pytest.raises(InfeasiblePoint):
        run_constraint_algorithm(pre.system, w)


def test_projection_solves_momenta_exactly():
    pre = duffing()
    w = np.array([0.4, 1.3, -0.6, 9.9, 0.2])
    out = project_onto(pre.system, w, [])
    assert out[3] == out[2]  # p := dL/dv = v, bit-exact
    np.testing.assert_array_equal(out[[0, 1, 2, 4]], w[[0, 1, 2, 4]])
