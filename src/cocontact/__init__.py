"""Unified Lagrangian-Hamiltonian dynamics for time-dependent contact systems.

From a Lagrangian L(t, q, v, s) the package runs the constraint algorithm
on the mixed velocity-momentum phase space, assembles the dynamical vector
field, integrates trajectories in any of the three descriptions
(Lagrangian, Hamiltonian, unified), and verifies the geometric identities
numerically.
"""

__version__ = "0.1.0"

from .jets import (  # noqa: F401
    CoordinateSpace,
    Jet,
    JetDomainError,
    DimensionMismatch,
    ScalarField,
    Taylor,
    eval_jet,
)
from .dsl import (  # noqa: F401
    DslError,
    Expr,
    UnknownParameterError,
    as_field,
    evaluate,
    parse,
    to_text,
)
from .mechanics import (  # noqa: F401
    LagrangianSystem,
    herglotz_residual,
)
from .pontryagin import (  # noqa: F401
    AlgorithmOptions,
    ConstraintFn,
    ConstraintLadder,
    InfeasiblePoint,
    LadderNotClosed,
    NumericalBreakdown,
    ZCoefficients,
    assemble_Z,
    constraint_values,
    project_onto,
    run_constraint_algorithm,
)
from .dynamics import (  # noqa: F401
    EquivalenceReport,
    IntegratorConfig,
    LadderLost,
    NonInvertibleLegendre,
    StepFailure,
    Trajectory,
    cross_check_equivalence,
    hamiltonian_field,
    integrate,
    lagrangian_field,
    legendre_invert,
    residual_channels,
    residual_report,
    trajectory_to_csv,
    trajectory_to_json,
    unified_field,
)
from .systems import (  # noqa: F401
    PRESET_NAMES,
    NonpositiveMassError,
    SystemPreset,
    charged_particle,
    duffing,
    preset_by_name,
    variable_mass_drag,
)
from .checks import CheckResult, run_all_checks  # noqa: F401
