"""Obstacle-avoiding geodesics via a quadratic (Moreau-Yosida) penalty, and
the two continuation loops around the damped Newton driver.

The curve must stay below the polar cap ``y3 <= 1 - h_ref``.  Violations
are penalized quadratically; the resulting stationarity condition is only
Newton-differentiable, and the penalty weight is driven up by a simple
path-following loop with warm starts (:func:`obstacle_path_follow`).

:func:`nested_iteration` solves the geodesic-force and rod problems on a
ladder of grids, coarse to fine, each level started from the previous
level's solution moved to its grid by ``prolong``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..fem1d import Grid, NodalCurve
from ..newton import NewtonConfig, NewtonTrace, Termination, damped_newton
from .curve import SphereCurveProblem

# feasible defaults whose connecting geodesic crosses the default caps
DEFAULT_GAMMA0 = (0.8, 0.0, 0.6)
DEFAULT_GAMMAT = (-0.8 * np.cos(0.2), 0.8 * np.sin(0.2), 0.6)

MAX_STAGES = 500

# grid ladder of the nested iteration: each coarse level has 1/COARSENING of
# the next level's interior nodes, and none has fewer than COARSEST_N
COARSENING = 10
COARSEST_N = 10

_E3 = np.array([0.0, 0.0, 1.0])
_E33 = np.outer(_E3, _E3)


def penalty_activation(x):
    """``max(0, x)`` elementwise, the penalty kernel."""
    return np.where(x > 0.0, x, 0.0)


def penalty_activation_slope(x):
    """Newton-derivative of ``max(0, x)`` elementwise; the kink value is fixed to 0."""
    return np.where(x > 0.0, 1.0, 0.0)


class ObstacleProblem(SphereCurveProblem):
    """Penalized geodesic problem below the polar cap ``y3 <= 1 - h_ref``."""

    def __init__(
        self,
        grid: Grid,
        gamma0=None,
        gammaT=None,
        h_ref: float = 0.1,
        p: float = 1.0,
        p_growth: float = 1.2,
        violation_tol: float = 1e-3,
    ):
        super().__init__(
            grid,
            DEFAULT_GAMMA0 if gamma0 is None else gamma0,
            DEFAULT_GAMMAT if gammaT is None else gammaT,
        )
        if not 0.0 < h_ref < 1.0:
            raise ValueError(f"h_ref must lie in (0, 1), got {h_ref!r}")
        if not 0.0 < p < np.inf:
            raise ValueError(f"penalty weight must be positive and finite, got {p!r}")
        if not 1.0 < p_growth < np.inf:
            raise ValueError(f"penalty growth factor must exceed 1 and be finite, got {p_growth!r}")
        if not 0.0 <= violation_tol < np.inf:
            raise ValueError(
                f"violation tolerance must be nonnegative and finite, got {violation_tol!r}"
            )
        self.h_ref = float(h_ref)
        self.p = float(p)
        self.p_growth = float(p_growth)
        self.violation_tol = float(violation_tol)

    def gap(self, y):
        """Constraint values ``y3 - 1 + h_ref`` per point; positive above the cap."""
        return np.asarray(y)[..., 2] - 1.0 + self.h_ref

    def with_penalty(self, p: float) -> "ObstacleProblem":
        """This problem with penalty weight ``p``; ``p = 0`` is the penalty-free
        stage 0 of the path, which the constructor's positive weight excludes."""
        stage = copy.copy(self)
        stage.p = float(p)
        return stage

    def violation(self, curve: NodalCurve) -> float:
        """Largest nodal cap violation ``max_i max(0, gap(y_i))``."""
        return float(np.max(penalty_activation(self.gap(curve.points))))

    # -- force interface -----------------------------------------------------

    def force_at(self, y) -> np.ndarray:
        return self.p * penalty_activation(self.gap(y))[..., None] * _E3

    def force_jacobian_at(self, y) -> np.ndarray:
        return self.p * penalty_activation_slope(self.gap(y))[..., None, None] * _E33


@dataclass(frozen=True)
class PenaltyStage:
    penalty: float
    violation: float
    trace: NewtonTrace


@dataclass
class PathFollowResult:
    curve: NodalCurve
    stages: list = field(default_factory=list)
    terminated: Termination = Termination.MAX_ITERATIONS
    message: str = ""


def obstacle_path_follow(problem: ObstacleProblem,
                         cfg: NewtonConfig = NewtonConfig()) -> PathFollowResult:
    """Penalty path following for the obstacle problem.

    Stage 0 solves the penalty-free geodesic; while the solution still violates
    the cap by more than ``problem.violation_tol``, the penalized problem is
    re-solved with the weight grown by ``problem.p_growth`` per stage, warm
    started from the previous stage.  A failed stage aborts with the curve of
    the last successful stage, the failed stage's termination and a diagnostic
    message; running out of ``MAX_STAGES`` ends with ``Termination.MAX_ITERATIONS``.
    """
    curve = problem.initial_state()
    stages = []
    p = 0.0
    while not stages or stages[-1].violation > problem.violation_tol:
        if len(stages) > MAX_STAGES:
            return PathFollowResult(
                curve,
                stages,
                Termination.MAX_ITERATIONS,
                f"no convergence within {MAX_STAGES} penalty stages",
            )
        new_curve, trace = damped_newton(problem.with_penalty(p), curve, cfg)
        stages.append(PenaltyStage(p, problem.violation(new_curve), trace))
        if trace.terminated is not Termination.CONVERGED:
            message = (
                f"penalty-free geodesic solve failed: {trace.message}" if len(stages) == 1
                else f"stage with penalty {p:g} failed ({trace.terminated.value}): {trace.message}"
            )
            return PathFollowResult(curve, stages, trace.terminated, message)
        curve = new_curve
        p = problem.p if len(stages) == 1 else p * problem.p_growth

    return PathFollowResult(curve, stages, Termination.CONVERGED, "")


@dataclass(frozen=True)
class GridLevel:
    n: int  # interior nodes
    trace: NewtonTrace


def grid_ladder(n: int) -> list:
    """Interior node counts of the nested iteration on ``n`` nodes, coarsest
    first: ``n // COARSENING**k`` for every ``k`` that leaves at least
    ``COARSEST_N`` nodes.  Below ``COARSENING * COARSEST_N`` it is ``[n]``."""
    ladder = [n]
    while ladder[0] // COARSENING >= COARSEST_N:
        ladder.insert(0, ladder[0] // COARSENING)
    return ladder


def nested_iteration(problem, cfg: NewtonConfig = NewtonConfig()) -> tuple:
    """Damped Newton on the grids of :func:`grid_ladder`, ending on ``problem.grid``.

    The coarsest level starts from ``initial_state()`` of the problem on its
    grid, every finer one from the previous solution prolonged to its grid
    (Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch. 8).  The
    iteration counts are mesh independent, so the damped phase runs on the
    coarsest grid and the finer levels start in the fast local phase.
    ``cfg`` applies to each level.  A level that does not converge ends the
    ladder.  Returns ``(state, levels)``: the last level's final state and
    one :class:`GridLevel` per level run.
    """
    t_end = problem.grid.t_end
    state, levels = None, []
    for n in grid_ladder(problem.grid.n_interior):
        grid = Grid(t_end, n)
        level = problem.with_grid(grid)
        start = level.initial_state() if state is None else state.prolong(grid)
        state, trace = damped_newton(level, start, cfg)
        levels.append(GridLevel(n, trace))
        if trace.terminated is not Termination.CONVERGED:
            break
    return state, levels
