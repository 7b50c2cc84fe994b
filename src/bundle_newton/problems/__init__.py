"""Built-in benchmark problems for the damped Newton driver."""

from .curve import SphereCurveProblem
from .geodesic import GeodesicForceProblem, PoleSingularity, winding_force
from .obstacle import (
    ObstacleProblem,
    obstacle_path_follow,
    penalty_activation,
    penalty_activation_slope,
)
from .rod import RodProblem, RodState, rod_initial_guess

# the command line's problem names, in its help order
PROBLEMS = {"geodesic-force": GeodesicForceProblem, "obstacle": ObstacleProblem, "rod": RodProblem}

__all__ = [
    "PROBLEMS",
    "SphereCurveProblem",
    "GeodesicForceProblem",
    "PoleSingularity",
    "winding_force",
    "ObstacleProblem",
    "obstacle_path_follow",
    "penalty_activation",
    "penalty_activation_slope",
    "RodProblem",
    "RodState",
    "rod_initial_guess",
]
