"""Damped Newton solver for variational equations on embedded manifolds."""

from .fem1d import (
    BandedMatrix,
    Grid,
    NodalCurve,
    SingularSystem,
)
from .geometry import (
    DegenerateUpdate,
    retract_sphere,
    tangent_basis,
    tangent_project,
    unit_vector,
)
from .newton import (
    Continuation,
    NewtonConfig,
    NewtonIteration,
    ProblemInterface,
    Stage,
    Termination,
    damped_newton,
    grid_ladder,
    nested_iteration,
    update_alpha,
)
from . import problems

__all__ = [
    "BandedMatrix",
    "Grid",
    "NodalCurve",
    "SingularSystem",
    "DegenerateUpdate",
    "retract_sphere",
    "tangent_basis",
    "tangent_project",
    "unit_vector",
    "Continuation",
    "NewtonConfig",
    "NewtonIteration",
    "ProblemInterface",
    "Stage",
    "Termination",
    "damped_newton",
    "grid_ladder",
    "nested_iteration",
    "update_alpha",
    "problems",
]
