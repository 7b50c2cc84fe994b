"""Shared machinery of the sphere-curve problems.

A curve problem looks for a piecewise-linear curve of unit vectors whose
Dirichlet term balances a nodal force covector field.  Subclasses only
provide the force field, evaluated on stacked ``(n, 3)`` node arrays, and
its nodal Jacobian term ``h V^T J V`` in the nodes' tangent frames ``V``,
as ``(n, 2, 2)`` blocks computed from the frames' components as contiguous
rows.  A curve's evaluation is the curve and its covectors ``slope[:-1] -
slope[1:] + h f(y)`` per interior node.  The residual
contracts them with the node's tangent frame (for a trial residual, they
are projected onto the curve's tangent plane and contracted with another
curve's frame), and the Jacobian is :func:`fem1d.sphere_field_blocks` with
those blocks.
"""

from __future__ import annotations

import math

import numpy as np

from ..fem1d import (
    Grid,
    NodalCurve,
    assemble_intervals,
    assemble_intervals_vector,
    p1_covectors,
    sphere_field_blocks,
)
from ..geometry import arc_angle, check_not_antipodal, frame_rows, unit_vector
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

    :meth:`evaluate` returns ``(curve, g)``, the curve and its Euclidean
    residual covectors ``g`` at the interior nodes, which its residual, its
    Jacobian and its trial residual share.
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

    def force_blocks(self, y, rows):
        """``(n, 2, 2)`` blocks ``h V^T J V`` of the Euclidean Jacobian ``J`` of the
        force covector field at the points ``y`` (``(n, 3)``) in their frames
        ``V``, given as their ``(3, 2, n)`` :func:`~bundle_newton.geometry.frame_rows`
        ``rows``; None for a field that is identically zero."""
        raise NotImplementedError

    # -- states -----------------------------------------------------------------

    def initial_state(self) -> NodalCurve:
        """Connecting geodesic between the boundary points."""
        return NodalCurve(self.grid, connecting_geodesic_points(self.grid, self.gamma0, self.gammaT))

    def columns(self, curve: NodalCurve) -> dict:
        """The ``curve.csv`` columns after ``t``: the nodal points."""
        return dict(zip("xyz", curve.points.T))

    # -- driver contract ----------------------------------------------------

    def evaluate(self, curve: NodalCurve) -> tuple:
        return curve, p1_covectors(curve.points, self.grid.h, self.force_at(curve.interior))

    def assemble_residual(self, at: tuple, frames: NodalCurve | None = None) -> np.ndarray:
        curve, g = at
        V, y = (curve.basis, None) if frames is None else (frames.basis, curve.interior)
        return assemble_intervals_vector(V, g, y)

    def assemble_jacobian(self, at: tuple):
        curve, g = at
        y, rows = curve.interior, frame_rows(curve.basis)  # one copy for both block sets
        nodal = self.force_blocks(y, rows)
        blocks = sphere_field_blocks(y, rows, g, self.grid.h, nodal)
        return assemble_intervals(*blocks)

    def retract(self, curve: NodalCurve, xi, alpha: float) -> NodalCurve:
        return curve.retract(xi, alpha)

    def norm_inf(self, xi) -> float:
        # sqrt of the largest x1^2 + x2^2: np.linalg.norm's bits, with one sqrt;
        # the array method and math.sqrt skip np.max's and np.sqrt's wrappers,
        # which cost more than the arithmetic on a coarse grid
        sq = np.square(xi).reshape(self.grid.n_interior, 2).T
        return math.sqrt((sq[0] + sq[1]).max())
