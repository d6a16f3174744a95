"""Differentiable FEM flow solver with coefficient-field inversion.

The package records a finite-element simulation of steady incompressible
flow (plus optional heat transport and passive particles) on a
reverse-mode autodiff tape, so observation losses can be differentiated
through the nonlinear solver and minimized over neural or pointwise
coefficient-field models.
"""

from .config import ConfigBundle, load_config
from .errors import (
    ConfigError,
    ContractError,
    DivergedParameterizationError,
    FlowgradError,
    GraphError,
    LineSearchError,
    NewtonDivergedError,
    NumericError,
    SingularMatrixError,
)
from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    InverseProblem,
    ObservationSet,
    RunReport,
    add_noise,
    build_problem,
    compute_loss,
    make_observations,
    reference_field,
    relative_mse,
    run_experiment,
)
from .grid import StructuredGrid, read_field_csv, write_field_csv
from .models import eval_field_on_grid, init_params
from .optimize import OptimizeResult, OptimizerConfig, lbfgs_optimize
from .solver import (
    FlowSetup,
    HeatSetup,
    NewtonConfig,
    NSState,
    ParticleState,
    PhysicsConstants,
    default_cavity_bcs,
    heat_solve,
    newton_solve,
    ns_jacobian,
    ns_residual,
    transport_integrate,
)
from .sparse import LinearSolveCounts
from .tape import Tape, finite_difference_check, register_op

__version__ = "0.1.0"

__all__ = [
    "ConfigBundle",
    "ConfigError",
    "ContractError",
    "DivergedParameterizationError",
    "EXPERIMENTS",
    "ExperimentConfig",
    "FlowSetup",
    "FlowgradError",
    "GraphError",
    "HeatSetup",
    "InverseProblem",
    "LineSearchError",
    "LinearSolveCounts",
    "NSState",
    "NewtonConfig",
    "NewtonDivergedError",
    "NumericError",
    "ObservationSet",
    "OptimizeResult",
    "OptimizerConfig",
    "ParticleState",
    "PhysicsConstants",
    "RunReport",
    "SingularMatrixError",
    "StructuredGrid",
    "Tape",
    "add_noise",
    "build_problem",
    "compute_loss",
    "default_cavity_bcs",
    "eval_field_on_grid",
    "finite_difference_check",
    "heat_solve",
    "init_params",
    "lbfgs_optimize",
    "load_config",
    "make_observations",
    "newton_solve",
    "ns_jacobian",
    "ns_residual",
    "read_field_csv",
    "reference_field",
    "register_op",
    "relative_mse",
    "run_experiment",
    "transport_integrate",
    "write_field_csv",
]
