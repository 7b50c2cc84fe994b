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
    NewtonConfig,
    NewtonIteration,
    NewtonTrace,
    ProblemInterface,
    Termination,
    damped_newton,
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
    "NewtonConfig",
    "NewtonIteration",
    "NewtonTrace",
    "ProblemInterface",
    "Termination",
    "damped_newton",
    "update_alpha",
    "problems",
]
