"""The closed field's tail against the reference in field_reference.py.

The tapes emit the tail's reads in its final layout, D and the doubled
diagonal of L's second partials included, and the momentum side gathers
L's order-2 data in one array.  Neither may move a bit: every sample of
every preset's runs in every description, rk4 and rk45, with reprojection
on and off, discovery's field at the probe and the batched assemble_Z of
check_ladder all equal the reference's arrays exactly.
"""

import numpy as np
import pytest

from cocontact import dsl
from cocontact.dynamics import FIELDS, IntegratorConfig, integrate
from cocontact.mechanics import LagrangianSystem
from cocontact.pontryagin import AlgorithmOptions, assemble_Z, run_constraint_algorithm
from cocontact.systems import PRESET_NAMES, preset_by_name
from field_reference import reference_field, reference_Z

OPTS = AlgorithmOptions()
KINDS = {
    "duffing": ("unified", "lagrangian", "hamiltonian"),
    "variable_mass_drag": ("unified", "lagrangian", "hamiltonian"),
    "charged_particle": ("unified", "lagrangian"),
}
# a three-degree-of-freedom [3, 1, 1, 1, 1] ladder (tests/test_tape.py)
STALLING_L = "0.5*cos(q2)*v1^2 + v2^2/2 + q3*(q1 - t)"
STALLING_START = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def assert_same_Z(got, want):
    for name in ("coeffs", "undetermined", "constraint_values", "L_data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("reproject", [False, True])
@pytest.mark.parametrize("method", ["rk4", "rk45"])
@pytest.mark.parametrize("name, kind",
                         [(name, kind) for name, kinds in KINDS.items() for kind in kinds])
def test_every_sample_equals_the_reference(name, kind, method, reproject):
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    cfg = IntegratorConfig(method=method, step=1e-2, t_end=0.05, reproject=reproject)
    runs = []
    for make in (FIELDS[kind], reference_field(kind)):
        fld = make(L, ladder, OPTS)
        runs.append(integrate(fld, fld.drop(ladder.probe), cfg))
    got, want = runs
    for attr in ("times", "states", "lifted", "coeffs"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    for channel, values in want.residuals.items():
        assert np.array_equal(got.residuals[channel], values), channel
    for w in got.lifted:
        assert_same_Z(assemble_Z(L, w, ladder, OPTS), reference_Z(L, w, ladder, OPTS))


@pytest.mark.parametrize("name", [*PRESET_NAMES, "stalling"])
def test_discovery_field_equals_the_reference_at_the_probe(name):
    if name == "stalling":
        L, start = LagrangianSystem.from_expr(dsl.parse(STALLING_L, 3)), STALLING_START
    else:
        pre = preset_by_name(name)
        L, start = pre.system, pre.initial
    ladder, Z = run_constraint_algorithm(L, start, OPTS)
    assert ladder.status == "Closed"
    assert_same_Z(Z, reference_Z(L, ladder.probe, ladder, OPTS))
    assert_same_Z(assemble_Z(L, ladder.probe, ladder, OPTS), Z)


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batched_assemble_equals_the_reference(name, seed):
    # the stack check_ladder assembles, one row of reads per point
    pre = preset_by_name(name)
    L = pre.system
    ladder, _ = run_constraint_algorithm(L, pre.initial, OPTS)
    rng = np.random.default_rng(seed)
    W = np.array([pre.sample_feasible(rng) for _ in range(80)])
    batch = assemble_Z(L, W, ladder, OPTS)
    assert len(batch) == len(W)
    for w, Z in zip(W, batch):
        assert_same_Z(Z, reference_Z(L, w, ladder, OPTS))
