"""Obstacle-avoiding geodesics via a quadratic (Moreau-Yosida) penalty.

The curve must stay below the polar cap ``y3 <= 1 - h_ref``.  Violations
are penalized quadratically; the resulting stationarity condition is only
Newton-differentiable, and :func:`obstacle_path_follow` drives the penalty
weight up from ``P0`` along a path of warm-started stages.  The growth
factor per stage is step-controlled in ``log p``: it shrinks after a stage
that needed damping, grows back to its cap ``MAX_GROWTH`` after an easy one,
and a stage that fails or lets the violation rise is retried from the last
accepted curve with a smaller factor.  The path is the obstacle's level
solve in :func:`~bundle_newton.newton.nested_iteration`.
"""

from __future__ import annotations

import math

import numpy as np

from ..fem1d import Grid, NodalCurve
from ..newton import Continuation, NewtonConfig, Termination, damped_newton
from .curve import SphereCurveProblem

# feasible defaults whose connecting geodesic crosses the default caps
DEFAULT_GAMMA0 = (0.8, 0.0, 0.6)
DEFAULT_GAMMAT = (-0.8 * np.cos(0.2), 0.8 * np.sin(0.2), 0.6)

# penalty path: the first stage's penalty is P0; the per-stage factor starts at
# its cap MAX_GROWTH (of 2, 4, 8 and 16 the fewest outer iterations on the
# sweep), its log doubles after a stage of at most FAST_STAGE_STEPS full Newton
# steps, and the path fails below MIN_GROWTH; at most MAX_STAGES stage solves
P0 = 1.0
MAX_GROWTH = 4.0
MAX_STAGES = 500
FAST_STAGE_STEPS = 4
MIN_GROWTH = 1.001
# a stage whose curve is still above the band only warm starts the next one,
# so it stops at a step of STAGE_TOL_FACTOR * violation_tol: by NLEQ-ERR's
# bound 2 |dx_bar| its curve is then within violation_tol / 5 of its solution
STAGE_TOL_FACTOR = 0.1

_E3 = np.array([0.0, 0.0, 1.0])


def penalty_activation(x):
    """``max(0, x)`` elementwise, the penalty kernel."""
    return np.where(x > 0.0, x, 0.0)


def penalty_activation_slope(x):
    """Newton-derivative of ``max(0, x)`` elementwise; the kink value is fixed to 0."""
    return np.greater(x, 0.0).astype(float)


class ObstacleProblem(SphereCurveProblem):
    """Penalized geodesic problem below the polar cap ``y3 <= 1 - h_ref``.

    Its penalty weight ``p`` is ``P0``; ``replace(p=...)`` sets another.  End
    points above the cap by more than ``violation_tol`` are refused
    (``ValueError``).  The band ``violation_tol`` also sets the looser step
    tolerance of the penalty path's stages (:func:`obstacle_path_follow`); a
    direct :func:`~bundle_newton.newton.damped_newton` solve stops at ``cfg.tol``.
    """

    def __init__(
        self,
        grid: Grid,
        gamma0=DEFAULT_GAMMA0,
        gammaT=DEFAULT_GAMMAT,
        h_ref: float = 0.1,
        violation_tol: float = 1e-3,
    ):
        super().__init__(grid, gamma0, gammaT)
        if not 0.0 < h_ref < 1.0:
            raise ValueError(f"h_ref must lie in (0, 1), got {h_ref!r}")
        if not 0.0 <= violation_tol < np.inf:
            raise ValueError(
                f"violation tolerance must be nonnegative and finite, got {violation_tol!r}"
            )
        self.h_ref = float(h_ref)
        self.p = P0
        self.violation_tol = float(violation_tol)
        # no penalty moves a fixed end point, so the path could never reach the band
        if max(self.gap(self.gamma0), self.gap(self.gammaT)) > self.violation_tol:
            raise ValueError(f"a boundary point lies above the cap z <= {1 - self.h_ref:g} "
                             f"by more than violation_tol = {self.violation_tol:g}")

    def gap(self, y):
        """Constraint values ``y3 - 1 + h_ref`` per point; positive above the cap."""
        return np.asarray(y)[..., 2] - 1.0 + self.h_ref

    def violation(self, curve: NodalCurve) -> float:
        """Largest nodal cap violation ``max_i max(0, gap(y_i))``, the gap of the
        highest node: rounding is monotone, so no node has a larger one."""
        return max(0.0, float(curve.points[:, 2].max()) - 1.0 + self.h_ref)

    # -- force interface -----------------------------------------------------

    def force_at(self, y) -> np.ndarray:
        return self.p * penalty_activation(self.gap(y))[..., None] * _E3

    def force_blocks(self, y, rows) -> np.ndarray:
        # V^T (h p slope e3 e3^T) V bit for bit: (w_i m) w_j, with the frames'
        # third rows w and m = h (p slope), which is slope (h p) bit for bit
        # as slope is 0 or 1
        w = rows[2]  # (2, n): both columns
        m = penalty_activation_slope(self.gap(y)) * (self.grid.h * self.p)
        return ((w * m)[:, None, :] * w[None, :, :]).transpose(2, 0, 1)

    def solve(self, cfg: NewtonConfig, start) -> Continuation:
        """The level solve of the nested iteration: the penalty path from ``start``."""
        return obstacle_path_follow(self, cfg, start)

    def stage_row(self, stage) -> dict:
        """The solve's columns with penalty and violation after ``n``, acceptance last."""
        row = super().stage_row(stage)
        return {"n": row.pop("n"), "penalty": stage.problem.p,
                "violation": self.violation(stage.state), **row, "accepted": int(stage.accepted)}

    def results(self, continuation: Continuation) -> dict:
        stages = continuation.stages
        out = {"stage_count": len(stages)}
        if stages:  # empty only when the first stage failed
            out.update(final_p=stages[-1].problem.p, violation=self.violation(stages[-1].state))
        out["rejected_stages"] = len(continuation.attempts) - len(stages)
        return out


def obstacle_path_follow(problem: ObstacleProblem, cfg: NewtonConfig = NewtonConfig(),
                         start=None) -> Continuation:
    """Penalty path following for the obstacle problem, with the per-stage
    growth of the penalty weight under step-size control.

    The path starts from ``start``, by default the connecting geodesic
    ``problem.initial_state()``, the penalty-free solution, and its first
    stage solves the penalized problem at ``problem.p`` with ``cfg``.  While
    the last accepted curve still violates the cap by more than
    ``problem.violation_tol``, the next stage's weight is the last accepted
    one times a factor ``growth``, warm started from its curve with
    ``cfg.warm``.  The factor starts at its cap ``MAX_GROWTH``.  Its log, the
    step in ``log p``, halves after a stage that needed a damped Newton step
    and doubles, up to the cap, after one that converged in at most
    ``FAST_STAGE_STEPS`` full steps (continuation step-size control,
    Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch. 5).

    An attempt is rejected when its Newton solve does not converge or its
    violation exceeds the last accepted (or the start) curve's: the warm
    start jumped to another branch.  It is retried from the last accepted
    curve with half the step.  A rejected first stage ends the path with its
    termination (``DAMPING_FAILED`` for a rising violation).  These end it as
    ``DAMPING_FAILED`` too: a factor below ``MIN_GROWTH``, shrunk by a
    rejection or by an accepted stage that needed damping; and an accepted
    stage after the path's first that leaves the violation, still above the
    band, exactly where the last one did, so that the penalty no longer
    moves the curve.  ``MAX_STAGES`` stage solves, rejected ones included,
    end it as ``MAX_ITERATIONS``.  Each attempt is its solve's ``Stage``
    with ``accepted`` set; the result's state is the last accepted curve.

    The stages are solved inexactly (Hintermüller and Kunisch, SIAM J.
    Optim. 17, 2006): a stage stops at a step of ``max(cfg.tol,
    STAGE_TOL_FACTOR * problem.violation_tol)`` at a curve still above the
    band, which always makes the path run another stage, and at ``cfg.tol``
    inside it.  So a converged path ends on a curve solved to ``cfg.tol``; a
    path that ends otherwise may end on one solved to the looser tolerance.
    """
    result = Continuation(problem.initial_state() if start is None else start)
    growth = MAX_GROWTH
    stage_tol = max(cfg.tol, STAGE_TOL_FACTOR * problem.violation_tol)

    def above_band(curve, norm: float) -> bool:
        return norm <= stage_tol and problem.violation(curve) > problem.violation_tol

    def end(terminated: Termination, message: str = "") -> Continuation:
        result.terminated, result.message = terminated, message
        return result

    violation = problem.violation(result.state)
    last, rejected = None, 0  # the last accepted penalty, the rejected attempts

    while last is None or violation > problem.violation_tol:
        if len(result.attempts) == MAX_STAGES:
            return end(Termination.MAX_ITERATIONS,
                       f"no convergence within {MAX_STAGES} penalty stage solves ({rejected} rejected)")
        p = problem.p if last is None else last * growth
        stage_cfg = cfg.warm if result.attempts else cfg
        curve, stage = damped_newton(problem.replace(p=p), result.state, stage_cfg, above_band)
        reached = problem.violation(curve)
        converged = stage.terminated is Termination.CONVERGED
        stage.accepted = converged and reached <= violation
        result.attempts.append(stage)
        rejected += not stage.accepted
        if stage.accepted:
            result.state = curve
            # after the first stage, a larger penalty that left the violation where it was
            if reached == violation > problem.violation_tol and last is not None:
                return end(Termination.DAMPING_FAILED,
                           f"penalty {p:g} no longer moves the curve: violation {reached:.3g} "
                           f"stays above violation_tol = {problem.violation_tol:g}")
            violation, last = reached, p
            alphas = [it.accepted_alpha for it in stage.iterations if it.inner_trials]
            if min(alphas, default=1.0) == 1.0:
                if len(alphas) <= FAST_STAGE_STEPS:
                    growth = min(growth * growth, MAX_GROWTH)
                continue
        growth = math.sqrt(growth)
        if last is not None and growth >= MIN_GROWTH:
            continue
        # no smaller step left: the path ends here
        if stage.accepted:
            return end(Termination.DAMPING_FAILED,
                       f"penalty growth fell below {MIN_GROWTH:g} through damped stages: "
                       f"last accepted penalty {last:g}")
        reason = (f"violation rose from {violation:.3g} to {reached:.3g}" if converged
                  else f"{stage.terminated.value}: {stage.message}")
        if last is None:  # the first stage has the fixed penalty problem.p
            return end(Termination.DAMPING_FAILED if converged else stage.terminated,
                       f"stage with penalty {p:g} failed ({reason})")
        return end(Termination.DAMPING_FAILED,
                   f"penalty growth fell below {MIN_GROWTH:g} after {rejected} rejected attempts: "
                   f"last accepted penalty {last:g}, attempted {p:g} ({reason})")
    return end(Termination.CONVERGED)
