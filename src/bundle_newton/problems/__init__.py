"""Built-in benchmark problems for the damped Newton driver."""

from .curve import SphereCurveProblem
from .geodesic import (
    GeodesicForceProblem,
    PoleSingularity,
    winding_force,
    winding_force_jacobian,
)
from .obstacle import (
    Continuation,
    ObstacleProblem,
    Stage,
    grid_ladder,
    nested_iteration,
    newton_stage,
    obstacle_path_follow,
    penalty_activation,
    penalty_activation_slope,
)
from .rod import RodProblem, RodState, rod_initial_guess

__all__ = [
    "SphereCurveProblem",
    "GeodesicForceProblem",
    "PoleSingularity",
    "winding_force",
    "winding_force_jacobian",
    "Continuation",
    "ObstacleProblem",
    "Stage",
    "grid_ladder",
    "nested_iteration",
    "newton_stage",
    "obstacle_path_follow",
    "penalty_activation",
    "penalty_activation_slope",
    "RodProblem",
    "RodState",
    "rod_initial_guess",
]
