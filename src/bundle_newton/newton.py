"""Damped Newton driver for root problems whose residual lives in a moving
dual fibre, and the continuation loop around it.

The driver only talks to a problem through evaluations and coefficient
vectors: it evaluates each state it visits once, residuals and Jacobians are
assembled from an evaluation with respect to per-iterate bases, trial
residuals are back-transported onto the bases of the current iterate, and
the step-size control is driven by norm ratios of coefficient vectors.
Scaling residual and Jacobian jointly therefore leaves the whole iteration
unchanged (affine covariance).

Every solve is one :class:`Stage`, and every continuation loop returns a
:class:`Continuation` of them.  :func:`nested_iteration` solves a problem on
a ladder of grids, coarse to fine, by each level problem's own ``solve``.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .fem1d import CONDITION_LIMIT, BandedMatrix, Grid, SingularSystem
from .geometry import DegenerateUpdate


@dataclass(frozen=True)
class NewtonConfig:
    """Parameters of the damped Newton iteration that a run may vary.

    ``alpha0`` damps only a cold start, from ``initial_state()``; a warm-started
    solve runs with ``warm``, this config at ``alpha0 = 1``.  ``theta_acc = inf``
    accepts every trial step whose ``theta`` is not NaN and freezes the damping
    factor at its start, which is plain Newton for ``alpha0 = 1``.
    """

    tol: float = 1e-10
    theta_acc: float = 0.9
    alpha0: float = 1.0
    max_outer: int = 50

    def __post_init__(self):
        if not THETA_DES < self.theta_acc:
            raise ValueError(f"need theta_acc > {THETA_DES:g}, got {self.theta_acc!r}")
        if not ALPHA_FAIL < self.alpha0 <= 1.0:
            raise ValueError(f"need {ALPHA_FAIL:g} < alpha0 <= 1, got {self.alpha0!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
        if self.max_outer < 1:
            raise ValueError(f"need max_outer >= 1, got {self.max_outer!r}")
        # built once here, not per solve; not a field, so no run parameter
        object.__setattr__(self, "warm", self if self.alpha0 == 1.0 else replace(self, alpha0=1.0))


class Termination(Enum):
    CONVERGED = "converged"
    DAMPING_FAILED = "damping_failed"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class NewtonIteration:
    """Record of one accepted outer iteration; ``norm_dx`` and ``residual_inf``
    are the problem's ``norm_inf`` of the Newton step and the residual.  A
    convergence row that ends the solve on the simplified step's estimate
    holds that step and the transported trial residual instead."""

    norm_dx: float
    accepted_alpha: float
    thetas: tuple
    residual_inf: float

    @property
    def inner_trials(self) -> int:
        """Trial steps tried, one theta each; 0 on the convergence row, be it
        the simplified step's estimate or the factorized check."""
        return len(self.thetas)

    @property
    def theta_final(self) -> float:
        return self.thetas[-1] if self.thetas else 0.0


@dataclass
class Stage:
    """One damped Newton solve: the problem it solved, with its grid and the
    obstacle's ``p``, its outer iterations, how it ended and the ``state`` it
    ended at.  The penalty path marks a rejected attempt ``accepted`` False."""

    problem: object
    iterations: list = field(default_factory=list)
    terminated: Termination = Termination.MAX_ITERATIONS
    message: str = ""
    accepted: bool = True
    state: object = None


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


class ProblemInterface(ABC):
    """Operations a problem supplies to the Newton driver.

    ``evaluate(state)`` computes the nodal data of ``state`` that its residual
    and its Jacobian share, such as its residual covectors, and returns them as
    the value ``at`` that :meth:`assemble_residual` and
    :meth:`assemble_jacobian` take; by default that is ``state`` itself.  The
    driver evaluates each state it visits once and drops the evaluation when
    it no longer needs it.

    Coefficient vectors refer to the per-node tangent frames of the state
    they were assembled at.  ``assemble_residual(at, frames)`` is the residual
    at ``at``'s state against the test frames of the state ``frames``,
    projected onto the tangent planes at ``at``'s state (the vector
    transport), so that a trial's residual is comparable with the iterate's
    ``assemble_residual(at)``; at coincident states the two agree up to
    round-off.
    """

    def evaluate(self, state):
        """The value that the assembly at ``state`` takes: ``state`` itself."""
        return state

    @abstractmethod
    def assemble_residual(self, at, frames=None) -> np.ndarray: ...

    @abstractmethod
    def assemble_jacobian(self, at) -> BandedMatrix: ...

    @abstractmethod
    def retract(self, state, xi, alpha: float): ...

    @abstractmethod
    def norm_inf(self, xi) -> float: ...

    def replace(self, **changes):
        """A copy of this problem with the attributes ``changes`` set, such as
        ``grid`` or the obstacle's ``p``; no constructor check runs on them."""
        problem = copy.copy(self)
        vars(problem).update(changes)
        return problem

    def solve(self, cfg: NewtonConfig, start) -> Continuation:
        """The level solve of :func:`nested_iteration`: one :func:`damped_newton`
        solve from ``start``, as a one-stage :class:`Continuation`."""
        state, stage = damped_newton(self, start, cfg)
        return Continuation(state, [stage], stage.terminated, stage.message)

    def stage_row(self, stage: Stage) -> dict:
        """The ``stages.csv`` columns of ``stage``, by name."""
        return {"n": stage.problem.grid.n_interior, "outer_iterations": len(stage.iterations),
                "inner_trials": sum(it.inner_trials for it in stage.iterations),
                "termination": stage.terminated.value}

    def results(self, continuation: Continuation) -> dict:
        """Summary numbers of a run of this problem, by name; none by default."""
        return {}


def update_alpha(alpha: float, theta: float, theta_des: float) -> float:
    """Step-size update ``min(1, alpha * theta_des / theta)``, 1 at ``theta = 0``.

    A non-finite ``theta`` halves ``alpha``, its value at ``theta = 2 theta_des``.
    """
    if theta == 0.0:
        return 1.0
    if not math.isfinite(theta):
        return 0.5 * alpha
    return min(1.0, alpha * theta_des / theta)


# no run parameters: no value of either one helps all three problems
THETA_DES = 0.5  # the contraction the step-size update aims at
ALPHA_FAIL = 1e-8  # the step size below which a solve gives up
# largest contraction of a full step whose simplified step may stop the solve:
# then |x_plus - x*| <= |dx_bar| / (1 - theta) <= 2 |dx_bar|
THETA_STOP = 0.5


def _converged(stage: Stage, norm_dx: float, residual_inf: float):
    """End ``stage`` as converged at its state with the convergence row."""
    stage.iterations.append(NewtonIteration(norm_dx, 1.0, (), residual_inf))
    stage.terminated = Termination.CONVERGED
    stage.message = "stationary within tolerance"
    return stage.state, stage


def _failed(stage: Stage, terminated: Termination, message: str, at=None):
    """End ``stage`` unconverged at its state; ``at`` is that state's
    evaluation, if the caller still holds it.  The Newton matrix there is
    assembled again and its condition estimated, and the message names a
    matrix that is singular or whose estimate is not below
    ``CONDITION_LIMIT``: near such a matrix the damping has no step left."""
    stage.terminated = terminated
    stage.message = message
    if at is None:
        at = stage.problem.evaluate(stage.state)
    try:
        cond, unknown = stage.problem.assemble_jacobian(at).condition()
    except SingularSystem as exc:  # a zero pivot
        stage.message += f" (Newton matrix: {exc})"
    else:
        if not cond < CONDITION_LIMIT:  # also inf and NaN
            stage.message += (f" (Newton matrix condition estimate {cond:.2e}, "
                              f"largest at unknown {unknown})")
    return stage.state, stage


def damped_newton(problem: ProblemInterface, x0, cfg: NewtonConfig = NewtonConfig(),
                  stops_early: Callable[[object, float], bool] | None = None):
    """Affine covariant damped Newton iteration.

    Per outer iteration the Newton system is assembled and factorized once,
    after the last iteration's LU is dropped, so one band-sized matrix is
    alive at a time; every inner trial re-solves only the right-hand side of
    the simplified Newton equation with the stored factorization.  Each state
    is evaluated once, ``x0`` and every trial point: the iterate's evaluation
    is dropped once its residual and Jacobian are assembled, before the LU,
    and the accepted trial's serves the next iteration.  A trial step of
    damping ``alpha`` is accepted when the contraction estimate ``theta``
    stays below ``cfg.theta_acc``; ``alpha`` is adapted towards
    ``THETA_DES``.  No cap counts the trials: each rejected one shrinks
    ``alpha`` by a factor of at most ``max(1/2, THETA_DES / theta_acc)``,
    until ``alpha < ALPHA_FAIL``.

    Returns ``(state, stage)``, with ``stage.state`` the same state.  The
    solve converges at the accepted trial point of a full step with ``theta <=
    THETA_STOP`` whose simplified Newton step, the estimate of the next Newton
    step, is within ``cfg.tol`` (NLEQ-ERR, Deuflhard, *Newton Methods for
    Nonlinear Problems*, 2004, ch. 3); otherwise at the start of an outer
    iteration once the Newton step drops below ``cfg.tol`` (a zero step occurs
    exactly at a root).  Both tests may also pass at a larger step:
    ``stops_early(x, norm)``, if given, is asked whenever the step norm
    ``norm`` at the point ``x`` (the trial point for the estimate) exceeds
    ``cfg.tol``, and a true answer ends the solve there as converged too; this
    lets the tolerance depend on the iterate, as the obstacle's penalty path
    does for a stage it will follow with another one.  Damping failures and
    iteration limits are reported through ``stage.terminated`` rather than
    raised; the message of either one names the Newton matrix at the state
    the solve ends at when its condition estimate is not below
    ``CONDITION_LIMIT`` or its LU meets a zero pivot.  A trial point that raises
    :class:`~bundle_newton.geometry.DegenerateUpdate`, in the retraction, its
    evaluation or the trial residual, counts as a non-finite ``theta``; with
    ``alpha`` pinned (``theta_acc = inf``) the exception propagates, as do
    exceptions at the iterate itself, and a NaN ``theta`` fails the solve.
    """
    def within_tol(x, norm: float) -> bool:
        return norm <= cfg.tol or (stops_early is not None and stops_early(x, norm))

    x = x0
    at = problem.evaluate(x0)
    alpha = cfg.alpha0
    pin_alpha = math.isinf(cfg.theta_acc)
    stage = Stage(problem, state=x0)

    for _ in range(cfg.max_outer):
        b = problem.assemble_residual(at)
        residual_inf = problem.norm_inf(b)
        matrix = problem.assemble_jacobian(at)
        at = None  # assembled: the LU and the trial residuals need only x's frames
        fact, dx = matrix.factorize(-b)
        norm_dx = problem.norm_inf(dx)

        if within_tol(x, norm_dx):
            return _converged(stage, norm_dx, residual_inf)

        thetas = []
        while True:
            try:
                x_plus = problem.retract(x, dx, alpha)
                at = problem.evaluate(x_plus)
                r_bar = problem.assemble_residual(at, x)
            except DegenerateUpdate:
                if pin_alpha:  # no damping to fall back on
                    raise
                theta = math.inf
            else:
                # simplified Newton step: its right-hand side vanishes along the exact Newton path
                norm_dx_bar = problem.norm_inf(fact.solve((1.0 - alpha) * b - r_bar))
                theta = norm_dx_bar / problem.norm_inf(alpha * dx)
            thetas.append(theta)
            alpha_used = alpha
            if not pin_alpha:
                alpha = update_alpha(alpha, theta, THETA_DES)
                if alpha < ALPHA_FAIL:
                    return _failed(stage, Termination.DAMPING_FAILED,
                                   f"step size collapsed below {ALPHA_FAIL:g} "
                                   f"after {len(thetas)} trials (last theta {theta:.3g})")
            if theta <= cfg.theta_acc:
                break
            if pin_alpha:  # a NaN theta: the same trial would come back
                return _failed(stage, Termination.DAMPING_FAILED,
                               f"plain Newton step rejected (theta {theta:.3g})")

        x = stage.state = x_plus  # and at is its evaluation
        stage.iterations.append(NewtonIteration(norm_dx, alpha_used, tuple(thetas), residual_inf))
        # a NaN or infinite theta fails the comparison, so no stale norm_dx_bar or r_bar is read
        if alpha_used == 1.0 and theta <= THETA_STOP and within_tol(x, norm_dx_bar):
            return _converged(stage, norm_dx_bar, problem.norm_inf(r_bar))
        del fact  # before the next Newton matrix is assembled

    return _failed(stage, Termination.MAX_ITERATIONS,
                   f"no convergence within {cfg.max_outer} outer iterations", at)


# grid ladder of the nested iteration: each coarse level has 1/COARSENING of
# the next level's interior nodes, and none has fewer than COARSEST_N
COARSENING = 10
COARSEST_N = 10


def grid_ladder(n: int) -> list:
    """Interior node counts of the nested iteration on ``n`` nodes, coarsest
    first: ``n // COARSENING**k`` for every ``k`` that leaves at least
    ``COARSEST_N`` nodes.  Below ``COARSENING * COARSEST_N`` it is ``[n]``."""
    ladder = [n]
    while ladder[0] // COARSENING >= COARSEST_N:
        ladder.insert(0, ladder[0] // COARSENING)
    return ladder


def nested_iteration(problem, cfg: NewtonConfig = NewtonConfig()) -> Continuation:
    """``level.solve(cfg, start)`` on the grids of :func:`grid_ladder`, ending
    on ``problem.grid`` (Deuflhard, *Newton Methods for Nonlinear Problems*,
    2004, ch. 8).  The coarsest level is ``problem`` on its grid,
    started from its ``initial_state()``; each finer one is the problem of the
    last accepted stage, so the obstacle keeps its last penalty, started from
    the previous state prolonged to its grid, with ``cfg.warm``.  The damped
    phase runs on the coarsest grid.  A level that does not converge ends the
    ladder with its termination; on a coarse level its message is prefixed
    ``level n=<its n>: ``.  The result holds the last level's state and every
    level's attempts.
    """
    fine = problem.grid
    result = Continuation(None)
    for n in grid_ladder(fine.n_interior):
        grid = Grid(fine.t_end, n)
        level = (result.stages[-1].problem if result.stages else problem).replace(grid=grid)
        start = level.initial_state() if result.state is None else result.state.prolong(grid)
        solved = level.solve(cfg if result.state is None else cfg.warm, start)
        result.state = solved.state
        result.attempts += solved.attempts
        prefix = "" if n == fine.n_interior else f"level n={n}: "
        result.terminated, result.message = solved.terminated, prefix + solved.message
        if solved.terminated is not Termination.CONVERGED:
            break
    return result
