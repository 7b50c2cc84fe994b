"""Shared machinery of the sphere-curve problems.

A curve problem looks for a piecewise-linear curve of unit vectors whose
Dirichlet term balances a nodal force covector field.  Subclasses only
provide the force field and its Euclidean Jacobian, evaluated on stacked
``(n, 3)`` node arrays.  Per interior node the residual contracts the
covector ``slope[:-1] - slope[1:] + h f(y)`` with the node's tangent frame
(projected onto the trial's tangent plane for a trial residual), and the
Jacobian is :func:`fem1d.sphere_field_blocks`.
"""

from __future__ import annotations

import numpy as np

from ..fem1d import (
    Grid,
    NodalCurve,
    assemble_intervals,
    assemble_intervals_vector,
    p1_covectors,
    sphere_field_blocks,
)
from ..geometry import arc_angle, check_not_antipodal, unit_vector
from ..newton import ProblemInterface


def connecting_geodesic_points(grid: Grid, a, b) -> np.ndarray:
    """Great-circle arc from ``a`` to ``b``, not antipodal, sampled at the grid nodes."""
    a = unit_vector(a)
    b = unit_vector(b)
    omega = arc_angle(a, b)
    s = grid.nodes / grid.t_end
    if np.sin(omega) <= 1e-12:  # coincident end points
        pts = np.tile(a, (grid.n_nodes, 1))
    else:
        pts = (
            np.outer(np.sin((1.0 - s) * omega), a) + np.outer(np.sin(s * omega), b)
        ) / np.sin(omega)
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[0] = a
    pts[-1] = b
    return pts


class SphereCurveProblem(ProblemInterface):
    """Base class implementing the Newton driver contract for curve problems.

    A curve's evaluated nodal data are its residual covectors, computed once
    per curve (:meth:`~bundle_newton.newton.ProblemInterface._evaluated`).
    """

    def __init__(self, grid: Grid, gamma0, gammaT):
        self.grid = grid
        self.gamma0 = unit_vector(gamma0)
        self.gammaT = unit_vector(gammaT)
        check_not_antipodal(self.gamma0, self.gammaT, "boundary points")

    # -- force interface, provided by subclasses ---------------------------

    def force_at(self, y) -> np.ndarray:
        """Coefficients of the force covectors at the points ``y`` (``(..., 3)``)."""
        raise NotImplementedError

    def force_jacobian_at(self, y) -> np.ndarray:
        """``(..., 3, 3)`` Euclidean Jacobians of the force covector field at ``y``."""
        raise NotImplementedError

    # -- states and nodal covectors -------------------------------------------

    def initial_state(self) -> NodalCurve:
        """Connecting geodesic between the boundary points."""
        return NodalCurve(self.grid, connecting_geodesic_points(self.grid, self.gamma0, self.gammaT))

    def columns(self, curve: NodalCurve) -> dict:
        """The ``curve.csv`` columns after ``t``: the nodal points."""
        return dict(zip("xyz", curve.points.T))

    def _evaluate(self, curve: NodalCurve) -> tuple:
        return (p1_covectors(curve.points, self.grid.h, self.force_at(curve.interior)),)

    def _covectors(self, curve: NodalCurve) -> np.ndarray:
        """Euclidean residual covectors at the interior nodes, read-only."""
        return self._evaluated(curve)[0]

    # -- driver contract ----------------------------------------------------

    def assemble_residual(self, curve: NodalCurve, trial: NodalCurve | None = None) -> np.ndarray:
        at, y = (curve, None) if trial is None else (trial, trial.interior)
        return assemble_intervals_vector(curve.basis, self._covectors(at), y)

    def assemble_jacobian(self, curve: NodalCurve):
        h, y = self.grid.h, curve.interior
        nodal = h * self.force_jacobian_at(y)
        blocks = sphere_field_blocks(y, curve.basis, self._covectors(curve), h, nodal=nodal)
        return assemble_intervals(*blocks)

    def retract(self, curve: NodalCurve, xi, alpha: float) -> NodalCurve:
        return curve.retract(xi, alpha)

    def norm_inf(self, xi) -> float:
        # sqrt of the largest x1^2 + x2^2: np.linalg.norm's bits, with one sqrt
        sq = np.square(np.asarray(xi, dtype=float)).reshape(self.grid.n_interior, 2).T
        return float(np.sqrt(np.max(sq[0] + sq[1])))
