"""Damped Newton driver for root problems whose residual lives in a moving
dual fibre.

The driver only talks to a problem through coefficient vectors: residuals
and Jacobians are assembled with respect to per-iterate bases, trial
residuals are back-transported onto the bases of the current iterate, and
the step-size control is driven by norm ratios of coefficient vectors.
Scaling residual and Jacobian jointly therefore leaves the whole iteration
unchanged (affine covariance).
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .fem1d import BandedMatrix


@dataclass(frozen=True)
class NewtonConfig:
    """Parameters of the damped Newton iteration.

    ``theta_acc = math.inf`` accepts every trial step and freezes the
    damping factor at ``alpha0``, which recovers the plain (undamped)
    Newton method for ``alpha0 = 1``.
    """

    tol: float = 1e-10
    theta_des: float = 0.5
    theta_acc: float = 0.9
    alpha0: float = 1.0
    alpha_fail: float = 1e-8
    max_outer: int = 50
    max_inner: int = 20

    def __post_init__(self):
        if not 0.0 < self.theta_des < self.theta_acc:
            raise ValueError("need 0 < theta_des < theta_acc")
        if not 0.0 < self.alpha_fail < self.alpha0 <= 1.0:
            raise ValueError("need 0 < alpha_fail < alpha0 <= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
        if self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("invalid iteration limits")


class Termination(Enum):
    CONVERGED = "converged"
    DAMPING_FAILED = "damping_failed"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class NewtonIteration:
    """Record of one accepted outer iteration."""

    norm_dx: float
    accepted_alpha: float
    thetas: tuple
    inner_trials: int
    residual_inf: float

    @property
    def theta_final(self) -> float:
        return self.thetas[-1] if self.thetas else 0.0


@dataclass
class NewtonTrace:
    iterations: list = field(default_factory=list)
    terminated: Termination = Termination.MAX_ITERATIONS
    message: str = ""


class ProblemInterface(ABC):
    """Operations a problem supplies to the Newton driver.

    Coefficient vectors refer to the per-node tangent frames of the state
    they were assembled at.  ``assemble_residual(state, trial)`` evaluates the
    residual at ``trial`` against the test frames of ``state``, projected
    onto the tangent planes at ``trial`` (the vector transport), so that its
    output is comparable with ``assemble_residual(state)``; at coincident
    states the two agree up to round-off.
    """

    @abstractmethod
    def assemble_residual(self, state, trial=None) -> np.ndarray: ...

    @abstractmethod
    def assemble_jacobian(self, state) -> BandedMatrix: ...

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


def update_alpha(alpha: float, theta: float, theta_des: float) -> float:
    """Step-size update ``min(1, alpha * theta_des / theta)``, 1 at ``theta = 0``.

    A non-finite ``theta`` halves ``alpha``, its value at ``theta = 2 theta_des``.
    """
    if theta == 0.0:
        return 1.0
    if not math.isfinite(theta):
        return 0.5 * alpha
    return min(1.0, alpha * theta_des / theta)


def damped_newton(problem: ProblemInterface, x0, cfg: NewtonConfig = NewtonConfig()):
    """Affine covariant damped Newton iteration.

    Per outer iteration the Newton system is assembled and factorized once;
    every inner trial re-solves only the right-hand side of the simplified
    Newton equation with the stored factorization.  A trial step of damping
    ``alpha`` is accepted when the contraction estimate ``theta`` stays below
    ``cfg.theta_acc``; ``alpha`` is adapted towards ``cfg.theta_des``.

    Returns ``(state, trace)``.  Convergence is certified at the start of an
    outer iteration once the Newton step drops below ``cfg.tol`` (a zero step
    occurs exactly at a root); damping failures and iteration limits are
    reported through ``trace.terminated`` rather than raised.
    """
    x = x0
    alpha = cfg.alpha0
    pin_alpha = math.isinf(cfg.theta_acc)
    trace = NewtonTrace()

    for _ in range(cfg.max_outer):
        b = problem.assemble_residual(x)
        residual_inf = float(np.max(np.abs(b)))
        fact, dx = problem.assemble_jacobian(x).factorize(-b)
        norm_dx = problem.norm_inf(dx)

        if norm_dx <= cfg.tol:
            trace.iterations.append(NewtonIteration(norm_dx, 1.0, (), 0, residual_inf))
            trace.terminated = Termination.CONVERGED
            trace.message = "stationary within tolerance"
            return x, trace

        thetas = []
        for _trial in range(cfg.max_inner):
            x_plus = problem.retract(x, dx, alpha)
            r_bar = problem.assemble_residual(x, x_plus)
            # simplified Newton step: its right-hand side vanishes along the exact Newton path
            dx_bar = fact.solve((1.0 - alpha) * b - r_bar)
            theta = problem.norm_inf(dx_bar) / problem.norm_inf(alpha * dx)
            thetas.append(theta)
            alpha_used = alpha
            if not pin_alpha:
                alpha = update_alpha(alpha, theta, cfg.theta_des)
                if alpha < cfg.alpha_fail:
                    trace.terminated = Termination.DAMPING_FAILED
                    trace.message = (
                        f"step size collapsed below {cfg.alpha_fail:g} "
                        f"after {len(thetas)} trials (last theta {theta:.3g})"
                    )
                    return x, trace
            if theta <= cfg.theta_acc:
                break
        else:
            trace.terminated = Termination.DAMPING_FAILED
            trace.message = (
                f"no acceptable step within {cfg.max_inner} trials "
                f"(last theta {theta:.3g}, alpha {alpha:.3g})"
            )
            return x, trace

        x = x_plus
        trace.iterations.append(
            NewtonIteration(norm_dx, alpha_used, tuple(thetas), len(thetas), residual_inf)
        )

    trace.terminated = Termination.MAX_ITERATIONS
    trace.message = f"no convergence within {cfg.max_outer} outer iterations"
    return x, trace
