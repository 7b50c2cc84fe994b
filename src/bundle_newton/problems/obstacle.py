"""Obstacle-avoiding geodesics via a quadratic (Moreau-Yosida) penalty, and
the continuation loops around the damped Newton driver.

The curve must stay below the polar cap ``y3 <= 1 - h_ref``.  Violations
are penalized quadratically; the resulting stationarity condition is only
Newton-differentiable, and :func:`obstacle_path_follow` drives the penalty
weight up along a path of warm-started stages.  The growth factor per stage
is step-controlled in ``log p``: it shrinks after a stage that needed
damping, grows back to its cap ``p_growth`` after an easy one, and a stage
that fails or lets the violation rise is retried from the last accepted
curve with a smaller factor.

:func:`nested_iteration` solves every problem on a ladder of grids, coarse
to fine, each level started from the previous level's solution moved to its
grid by ``prolong``.  A level is solved by :func:`newton_stage` or, for the
obstacle, by the penalty path.  Every loop returns a :class:`Continuation`
of :class:`Stage` solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..fem1d import Grid, NodalCurve
from ..newton import NewtonConfig, NewtonTrace, Termination, damped_newton
from .curve import SphereCurveProblem

# feasible defaults whose connecting geodesic crosses the default caps
DEFAULT_GAMMA0 = (0.8, 0.0, 0.6)
DEFAULT_GAMMAT = (-0.8 * np.cos(0.2), 0.8 * np.sin(0.2), 0.6)

# penalty path: at most MAX_STAGES stage solves; the step in log p doubles
# after a stage of at most FAST_STAGE_STEPS full Newton steps, and the path
# fails once rejections shrink the per-stage factor below MIN_GROWTH
MAX_STAGES = 500
FAST_STAGE_STEPS = 4
MIN_GROWTH = 1.001

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
        gamma0=DEFAULT_GAMMA0,
        gammaT=DEFAULT_GAMMAT,
        h_ref: float = 0.1,
        p: float = 1.0,
        p_growth: float = 4.0,
        violation_tol: float = 1e-3,
    ):
        super().__init__(grid, gamma0, gammaT)
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

    def violation(self, curve: NodalCurve) -> float:
        """Largest nodal cap violation ``max_i max(0, gap(y_i))``."""
        return float(np.max(penalty_activation(self.gap(curve.points))))

    # -- force interface -----------------------------------------------------

    def force_at(self, y) -> np.ndarray:
        return self.p * penalty_activation(self.gap(y))[..., None] * _E3

    def force_jacobian_at(self, y) -> np.ndarray:
        return self.p * penalty_activation_slope(self.gap(y))[..., None, None] * _E33


@dataclass
class Continuation:
    """Result of a continuation loop around :func:`damped_newton`: the final
    state, every stage solve in order, and how the loop ended."""

    state: object
    attempts: list = field(default_factory=list)
    terminated: Termination = Termination.MAX_ITERATIONS
    message: str = ""

    @property
    def stages(self) -> list:
        """The accepted stage solves, in order: the run's outer iterations."""
        return [stage for stage in self.attempts if stage.accepted]


@dataclass(frozen=True)
class Stage:
    """One Newton solve of a continuation: the problem it solved, with its grid
    and the obstacle's ``p``, and its trace.  A rejected penalty stage has
    ``accepted`` False; ``violation`` is the obstacle's cap violation."""

    problem: object
    trace: NewtonTrace
    accepted: bool = True
    violation: float | None = None


def newton_stage(problem, cfg: NewtonConfig = NewtonConfig(), start=None) -> Continuation:
    """One :func:`damped_newton` solve of ``problem`` from ``start`` (by default
    ``problem.initial_state()``), as a one-stage :class:`Continuation`."""
    start = problem.initial_state() if start is None else start
    state, trace = damped_newton(problem, start, cfg)
    return Continuation(state, [Stage(problem, trace)], trace.terminated, trace.message)


def obstacle_path_follow(problem: ObstacleProblem, cfg: NewtonConfig = NewtonConfig(),
                         start=None) -> Continuation:
    """Penalty path following for the obstacle problem, with the per-stage
    growth of the penalty weight under step-size control.

    The path starts from ``start``, by default the connecting geodesic
    ``problem.initial_state()``, the penalty-free solution, and its first
    stage solves the penalized problem at ``problem.p``.  While the last
    accepted curve still violates the cap by more than
    ``problem.violation_tol``, the next stage's weight is the last accepted
    one times a factor ``growth``, warm started from its curve.  The factor
    starts at its cap ``problem.p_growth``.  Its logarithm, the step in
    ``log p``, halves after a stage that needed a damped Newton step and
    doubles, up to the cap, after one that converged in at most
    ``FAST_STAGE_STEPS`` full steps (continuation step-size control,
    Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch. 5).

    An attempt is rejected when its Newton solve does not converge or its
    violation exceeds the last accepted (or the start) curve's: the warm
    start jumped to another branch.  It is retried from the last accepted
    curve with half the step.  A rejected first stage ends the path with its
    termination (``DAMPING_FAILED`` for a rising violation); a factor below
    ``MIN_GROWTH`` ends it as ``DAMPING_FAILED``; ``MAX_STAGES`` stage
    solves, rejected ones included, end it as ``MAX_ITERATIONS``.  The
    result's state is the last accepted curve.
    """
    result = Continuation(problem.initial_state() if start is None else start)
    growth, p = problem.p_growth, 0.0
    violation = problem.violation(result.state)
    while not result.stages or violation > problem.violation_tol:
        if len(result.attempts) == MAX_STAGES:
            result.terminated = Termination.MAX_ITERATIONS
            result.message = (
                f"no convergence within {MAX_STAGES} penalty stage solves "
                f"({len(result.attempts) - len(result.stages)} rejected)"
            )
            return result
        trial = problem.replace(p=p * growth if p > 0.0 else problem.p)
        curve, trace = damped_newton(trial, result.state, cfg)
        trial_violation = problem.violation(curve)
        converged = trace.terminated is Termination.CONVERGED
        accepted = converged and trial_violation <= violation
        result.attempts.append(Stage(trial, trace, accepted, trial_violation))
        if accepted:
            result.state, p, violation = curve, trial.p, trial_violation
            alphas = [it.accepted_alpha for it in trace.iterations if it.inner_trials]
            if min(alphas, default=1.0) < 1.0:
                growth = math.sqrt(growth)
            elif len(alphas) <= FAST_STAGE_STEPS:
                growth = min(growth * growth, problem.p_growth)
            continue
        growth = math.sqrt(growth)
        if p > 0.0 and growth >= MIN_GROWTH:
            continue
        # no smaller step left: the path ends here
        reason = (
            f"violation rose from {violation:.3g} to {trial_violation:.3g}" if converged
            else f"{trace.terminated.value}: {trace.message}"
        )
        if p > 0.0:
            result.terminated = Termination.DAMPING_FAILED
            result.message = (
                f"penalty growth fell below {MIN_GROWTH:g} after "
                f"{len(result.attempts) - len(result.stages)} rejected attempts: "
                f"last accepted penalty {p:g}, attempted {trial.p:g} ({reason})"
            )
        else:  # the first stage has the fixed penalty problem.p
            result.terminated = Termination.DAMPING_FAILED if converged else trace.terminated
            result.message = f"stage with penalty {trial.p:g} failed ({reason})"
        return result
    result.terminated = Termination.CONVERGED
    return result


def grid_ladder(n: int) -> list:
    """Interior node counts of the nested iteration on ``n`` nodes, coarsest
    first: ``n // COARSENING**k`` for every ``k`` that leaves at least
    ``COARSEST_N`` nodes.  Below ``COARSENING * COARSEST_N`` it is ``[n]``."""
    ladder = [n]
    while ladder[0] // COARSENING >= COARSEST_N:
        ladder.insert(0, ladder[0] // COARSENING)
    return ladder


def nested_iteration(problem, cfg: NewtonConfig = NewtonConfig(),
                     solve=newton_stage) -> Continuation:
    """``solve(level, cfg, start)`` on the grids of :func:`grid_ladder`, ending
    on ``problem.grid`` (Deuflhard, *Newton Methods for Nonlinear Problems*,
    2004, ch. 8).  The coarsest level is ``problem`` on its grid, started
    from its ``initial_state()`` (``start`` None); each finer one is the
    problem of the last accepted stage, so the obstacle keeps its last
    penalty, started from the previous state prolonged to its grid.  The
    damped phase runs on the coarsest grid.  A level that does not converge
    ends the ladder with its termination; on a coarse level its message is
    prefixed ``level n=<its n>: ``.  The result holds the last level's state
    and every level's attempts.
    """
    fine = problem.grid
    result = Continuation(None)
    for n in grid_ladder(fine.n_interior):
        grid = Grid(fine.t_end, n)
        level = (result.stages[-1].problem if result.stages else problem).replace(grid=grid)
        start = None if result.state is None else result.state.prolong(grid)
        solved = solve(level, cfg, start)
        result.state = solved.state
        result.attempts += solved.attempts
        prefix = "" if n == fine.n_interior else f"level n={n}: "
        result.terminated, result.message = solved.terminated, prefix + solved.message
        if solved.terminated is not Termination.CONVERGED:
            break
    return result
