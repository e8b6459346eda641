"""The closed field's tail against the reference in field_reference.py.

The tapes emit the tail's reads in its final layout, D and the doubled
diagonal of L's second partials included, and the momentum side gathers
L's order-2 data in one array.  Neither may move a bit: at every sample of
every preset's runs in every description, rk4 and rk45, with reprojection
on and off, at discovery's probe and at the points check_ladder
assembles, the field's lift, A, B, D, E, constraint values, L data and
undetermined directions equal the reference's exactly.  C does not: every
preset's ladder closes with full rank, and the package solves for C by a
QR factorisation of the tangency conditions where the reference runs an
SVD, so the two agree to rounding, within 1e-14 of the largest
coefficient; and so do the package's runs and the reference's runs, which
part in the last bits from the first step on.  Every description
evaluates through one tail, assemble_Z's;
on the momentum side its C agrees with implicit differentiation of
dL/dv = p to rounding.
"""

import numpy as np
import pytest

from cocontact import dsl
from cocontact.dynamics import FIELDS, IntegratorConfig, integrate
from cocontact.jets import Taylor, exp, jet_from_taylor, sin
from cocontact.mechanics import LagrangianSystem
from cocontact.pontryagin import assemble_Z, run_constraint_algorithm
from cocontact.systems import PRESET_NAMES, preset_by_name
from field_reference import hessian_block, implicit_C, reference_field, reference_Z

KINDS = {
    "duffing": ("unified", "lagrangian", "hamiltonian"),
    "variable_mass_drag": ("unified", "lagrangian", "hamiltonian"),
    "charged_particle": ("unified", "lagrangian"),
}
# a three-degree-of-freedom [3, 1, 1, 1, 1] ladder (tests/test_tape.py)
STALLING_L = "0.5*cos(q2)*v1^2 + v2^2/2 + q3*(q1 - t)"
STALLING_START = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def assert_same_coeffs(got, want):
    """Equal bit for bit but C, which agrees within 1e-14 of the largest
    coefficient."""
    n = (len(want) - 2) // 3
    C = np.zeros(len(want), dtype=bool)
    C[1 + n : 1 + 2 * n] = True
    assert np.array_equal(got[~C], want[~C])
    assert np.max(np.abs(got[C] - want[C])) <= 1e-14 * np.max(np.abs(want))


def assert_same_Z(got, want):
    assert_same_coeffs(got.coeffs, want.coeffs)
    for name in ("undetermined", "constraint_values", "L_data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def run(name, kind, method, reproject, make=None):
    pre = preset_by_name(name)
    ladder, _ = run_constraint_algorithm(pre.system, pre.initial)
    fld = (make or FIELDS[kind])(pre.system, ladder)
    cfg = IntegratorConfig(method=method, step=1e-2, t_end=0.05, reproject=reproject)
    return pre.system, ladder, integrate(fld, fld.drop(ladder.probe), cfg)


def assert_close(got, want, tol):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= tol


@pytest.mark.parametrize("reproject", [False, True])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("name, kind",
                         [(name, kind) for name, kinds in KINDS.items() for kind in kinds])
def test_every_sample_equals_the_reference(name, kind, method, reproject):
    L, ladder, traj = run(name, kind, method, reproject)
    # the reference's own run, its lift and rk45's step control included
    want = run(name, kind, method, reproject, reference_field(kind))[2]
    for attr in ("times", "states", "lifted", "coeffs"):
        expected = getattr(want, attr)
        assert_close(getattr(traj, attr), expected, 1e-12 * np.max(np.abs(expected)))
    for channel, values in want.residuals.items():
        # finite-difference defects at step 1e-2: a rounding-level move of
        # the states moves them by a few 1e-15
        assert_close(traj.residuals[channel], values, 1e-13)
    # at the package's own samples: C moves at rounding level
    ref = reference_field(kind)(L, ladder)
    for state, w, coeffs in zip(traj.states, traj.lifted, traj.coeffs):
        if kind == "hamiltonian":
            ref._last_v = w[1 + L.n : 1 + 2 * L.n]  # a lift that has converged
        assert np.array_equal(ref.lift(state), w)
        want = reference_Z(L, w, ladder)
        assert_same_coeffs(coeffs, want.coeffs)
        assert_same_Z(assemble_Z(L, w, ladder), want)


@pytest.mark.parametrize("name", [*PRESET_NAMES, "stalling"])
def test_discovery_field_equals_the_reference_at_the_probe(name):
    if name == "stalling":
        L, start = LagrangianSystem.from_expr(dsl.parse(STALLING_L, 3)), STALLING_START
    else:
        pre = preset_by_name(name)
        L, start = pre.system, pre.initial
    ladder, Z = run_constraint_algorithm(L, start)
    assert ladder.status == "Closed"
    assert_same_Z(Z, reference_Z(L, ladder.probe, ladder))
    # discovery's closing pass solves as the tape does
    taped = assemble_Z(L, ladder.probe, ladder)
    for name in ("coeffs", "undetermined", "constraint_values", "L_data"):
        assert np.array_equal(getattr(taped, name), getattr(Z, name)), name


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batched_assemble_equals_the_reference(name, seed):
    # the stack check_ladder assembles, one row of reads per point
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial)
    rng = np.random.default_rng(seed)
    W = np.array([pre.sample_feasible(rng) for _ in range(80)])
    batch = assemble_Z(L, W, ladder)
    assert len(batch) == len(W)
    for w, Z in zip(W, batch):
        assert_same_Z(Z, reference_Z(L, w, ladder))


@pytest.mark.parametrize("reproject", [False, True])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("name, kind",
                         [(name, kind) for name, kinds in KINDS.items() for kind in kinds])
def test_every_description_evaluates_through_the_one_tail(name, kind, method, reproject):
    L, ladder, traj = run(name, kind, method, reproject)
    for w, coeffs in zip(traj.lifted, traj.coeffs):
        assert np.array_equal(coeffs, assemble_Z(L, w, ladder).coeffs)


@pytest.mark.parametrize("reproject", [False, True])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("name", [name for name, kinds in KINDS.items() if "hamiltonian" in kinds])
def test_momentum_side_C_is_the_implicit_derivative_of_the_fibre_map(name, method, reproject):
    L, _, traj = run(name, "hamiltonian", method, reproject)
    n = L.n
    for w, coeffs in zip(traj.lifted, traj.coeffs):
        C = coeffs[1 + n : 1 + 2 * n]
        assert np.max(np.abs(C - implicit_C(L, w))) <= 1e-14 * np.max(np.abs(coeffs))


def test_hessian_block_matches_jet_hessian():
    x = [Taylor.variable(3, i, c) for i, c in enumerate((0.3, -1.2, 0.7, 2.0))]
    f = sin(x[0] * x[1]) + x[2] ** 2 * x[3] + exp(x[1]) * x[3] ** 2
    hess = jet_from_taylor(f, 4, 2).hess
    rows, cols = [0, 1, 3], [1, 2, 3]
    assert np.array_equal(hessian_block(f, rows, cols), hess[np.ix_(rows, cols)])
    with pytest.raises(ValueError):
        hessian_block(f.truncated(1), rows, cols)
