"""Divergence-conforming B-spline discretizations of incompressible flow.

Velocity and pressure are tensor-product B-spline spaces chosen so that the
discrete velocity is exactly divergence-free. Tangential coupling across
element interfaces is stabilized by penalizing jumps of high-order normal
derivatives on the mesh skeleton, scaled so that the penalty acts like an
eddy viscosity in under-resolved regimes and vanishes at the optimal rate
under refinement.
"""

__version__ = "0.1.0"

from .bspline import (
    KnotVector,
    basis_integrals,
    collocation_matrix,
    eval_nonzero_basis,
    make_open_uniform,
    open_knots,
)
from .mesh import CartesianMesh, build_mesh, gauss_rule
from .space import (
    DivConformingPair,
    StateVector,
    TensorSpace,
    build_pair,
    classify_boundary_dofs,
    divergence_coefficients,
    eval_velocity,
    pressure_mean_vector,
    zero_state,
)
from .forms import (
    StabParams,
    assemble_convection,
    assemble_divergence,
    assemble_load,
    assemble_skeleton,
    assemble_strain,
    assemble_velocity_mass,
    assemble_viscous_nitsche,
    nitsche_load,
)
from .solver import (
    ConvergenceError,
    FlowProblem,
    LadderStep,
    NewtonConfig,
    NewtonResult,
    SingularSystemError,
    TimeConfig,
    TimeStepper,
    newton_steady,
    solve_steady,
)
from .cases import (
    CavityCase,
    ManufacturedCase,
    energy_and_dissipation,
    error_norms,
    max_divergence,
    run_cavity,
    run_convergence_study,
    run_pressure_robustness,
    run_reynolds_robustness,
    run_taylor_green_2d,
    streamfunction,
    taylor_green_pair,
    unit_square_pair,
)

__all__ = [
    "KnotVector",
    "basis_integrals",
    "collocation_matrix",
    "eval_nonzero_basis",
    "make_open_uniform",
    "open_knots",
    "CartesianMesh",
    "build_mesh",
    "gauss_rule",
    "DivConformingPair",
    "StateVector",
    "TensorSpace",
    "build_pair",
    "classify_boundary_dofs",
    "divergence_coefficients",
    "eval_velocity",
    "pressure_mean_vector",
    "zero_state",
    "StabParams",
    "assemble_convection",
    "assemble_divergence",
    "assemble_load",
    "assemble_skeleton",
    "assemble_strain",
    "assemble_velocity_mass",
    "assemble_viscous_nitsche",
    "nitsche_load",
    "ConvergenceError",
    "FlowProblem",
    "LadderStep",
    "NewtonConfig",
    "NewtonResult",
    "SingularSystemError",
    "TimeConfig",
    "TimeStepper",
    "newton_steady",
    "solve_steady",
    "CavityCase",
    "ManufacturedCase",
    "energy_and_dissipation",
    "error_norms",
    "max_divergence",
    "run_cavity",
    "run_convergence_study",
    "run_pressure_robustness",
    "run_reynolds_robustness",
    "run_taylor_green_2d",
    "streamfunction",
    "taylor_green_pair",
    "unit_square_pair",
]
