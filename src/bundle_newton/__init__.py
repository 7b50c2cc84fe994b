"""Damped Newton solver for variational equations on embedded manifolds."""

from .fem1d import (
    BandedMatrix,
    Grid,
    NodalCurve,
    SingularSystem,
)
from .geometry import (
    DegenerateUpdate,
    SingularConstraint,
    constrained_hessian_apply,
    normal_multiplier,
    retract_sphere,
    tangent_basis,
    tangent_project,
    tangent_project_deriv,
    unit_vector,
)
from .newton import (
    NewtonConfig,
    NewtonIteration,
    NewtonTrace,
    ProblemInterface,
    Termination,
    ZeroStep,
    compute_theta,
    damped_newton,
    simplified_rhs,
    update_alpha,
)
from . import problems

__all__ = [
    "BandedMatrix",
    "Grid",
    "NodalCurve",
    "SingularSystem",
    "DegenerateUpdate",
    "SingularConstraint",
    "constrained_hessian_apply",
    "normal_multiplier",
    "retract_sphere",
    "tangent_basis",
    "tangent_project",
    "tangent_project_deriv",
    "unit_vector",
    "NewtonConfig",
    "NewtonIteration",
    "NewtonTrace",
    "ProblemInterface",
    "Termination",
    "ZeroStep",
    "compute_theta",
    "damped_newton",
    "simplified_rhs",
    "update_alpha",
    "problems",
]
