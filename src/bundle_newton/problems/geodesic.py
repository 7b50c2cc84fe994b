"""Elastic geodesics on the sphere in a winding force field.

The force field circulates around the polar axis with a strength that grows
towards the poles; it is non-conservative, so the problem has no energy
formulation and the assembled Newton matrix is asymmetric.
"""

from __future__ import annotations

import numpy as np

from ..fem1d import Grid
from ..geometry import DegenerateUpdate, arc_angle
from .curve import SphereCurveProblem

POLE_MARGIN = 1e-12

# boundary points used when none are given: almost antipodal, slightly
# off-axis so the connecting geodesic is unique
DEFAULT_GAMMA0 = (np.sin(0.3), 0.0, -np.cos(0.3))
DEFAULT_GAMMAT = (
    -np.sin(0.3) * np.cos(0.2),
    np.sin(0.3) * np.sin(0.2),
    np.cos(0.3),
)


class PoleSingularity(DegenerateUpdate):
    """Winding force evaluated too close to a pole."""


def _prefactor(y, scale: float):
    """``scale * y3 / (y1^2 + y2^2)`` and ``y1^2 + y2^2`` per point; rejects the poles."""
    y = np.asarray(y, dtype=float)
    rho2 = y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1]
    if np.any(rho2 <= POLE_MARGIN):
        raise PoleSingularity(f"winding force undefined at |y1^2+y2^2| = {rho2.min():.2e}")
    return scale * y[..., 2] / rho2, rho2


def winding_force(y, scale: float = 3.0) -> np.ndarray:
    """Coefficients of the winding force covector at each point ``y``.

    ``scale * y3 / (y1^2 + y2^2)`` times the azimuthal direction
    ``(-y2, y1, 0)``; annihilates the radial direction by construction.
    """
    prefactor, _ = _prefactor(y, scale)
    y = np.asarray(y, dtype=float)
    # one product per component, stacked once: faster than the (..., 3) product
    return np.stack((prefactor * -y[..., 1], prefactor * y[..., 0], prefactor * 0.0), axis=-1)


def winding_force_blocks(y, rows, scale: float, h: float) -> np.ndarray:
    """``(n, 2, 2)`` blocks ``h V^T J V`` of the winding force's Euclidean
    Jacobian ``J`` at the points ``y`` in the frames ``V``, given as their
    ``(3, 2, n)`` :func:`~bundle_newton.geometry.frame_rows` ``rows``.

    With ``pi = scale * y3 / rho^2`` and ``a = (-y2, y1, 0)``, ``J = a grad(pi)^T
    + pi R`` with the constant ``R`` for which ``R y = a``; entry ``(i, j)``
    is ``h [(v_i . a)(v_j . grad(pi)) + pi (v_i2 v_j1 - v_i1 v_j2)]`` for the
    frame columns ``v_i``, whatever their orientation.
    """
    prefactor, rho2 = _prefactor(y, scale)
    # components as contiguous (n,) rows: numpy is several times slower on
    # the strided columns of (n, 3) and (n, 3, 2) arrays
    y1, y2 = np.ascontiguousarray(y[:, :2].T)
    v1, v2, v3 = rows  # (2, n): both columns
    along = y1 * v2 - y2 * v1  # v_i . a
    # v_j . grad(pi), by grad(pi) = (scale e3 - 2 pi (y1, y2, 0)) / rho^2
    climb = (scale * v3 - 2.0 * prefactor * (y1 * v1 + y2 * v2)) / rho2
    blocks = along[:, None, :] * climb[None, :, :]
    turn = prefactor * (v2[0] * v1[1] - v1[0] * v2[1])
    blocks[0, 1] += turn
    blocks[1, 0] -= turn
    return (h * blocks).transpose(2, 0, 1)


def arc_point_nearest_pole(a, b) -> np.ndarray:
    """The point of the great-circle arc from ``a`` to ``b`` (unit vectors, not
    antipodal) with the largest ``|y3|``, the one nearest a pole."""
    omega = arc_angle(a, b)
    if np.sin(omega) <= 1e-12:  # coincident end points
        return a
    # the arc is cos(t) a + sin(t) u for 0 <= t <= omega, and its height
    # a3 cos(t) + u3 sin(t) peaks in absolute value at t = atan2(u3, a3) mod pi,
    # or past the arc's end, where the end point is the candidate
    u = (b - np.cos(omega) * a) / np.sin(omega)
    peak = np.arctan2(u[2], a[2]) % np.pi
    points = [np.cos(t) * a + np.sin(t) * u for t in (0.0, omega, min(peak, omega))]
    return max(points, key=lambda y: abs(y[2]))


class GeodesicForceProblem(SphereCurveProblem):
    """Elastic geodesic between two boundary points in the winding field.

    ``force_scale = 0`` turns the force off entirely (plain geodesic), in
    which case curves may pass through the poles.  Otherwise boundary points
    whose connecting great-circle arc comes within ``y1^2 + y2^2 <=
    POLE_MARGIN`` of a pole, where the force is undefined, are refused
    (``ValueError``): the arc is the start of every solve.
    """

    def __init__(self, grid: Grid, gamma0=DEFAULT_GAMMA0, gammaT=DEFAULT_GAMMAT,
                 force_scale: float = 3.0):
        super().__init__(grid, gamma0, gammaT)
        if not np.isfinite(force_scale):
            raise ValueError(f"force scale must be finite, got {force_scale!r}")
        self.force_scale = float(force_scale)
        if self.force_scale != 0.0:
            y = arc_point_nearest_pole(self.gamma0, self.gammaT)
            rho2 = y[0] * y[0] + y[1] * y[1]
            if rho2 <= POLE_MARGIN:
                pole = "north pole (0, 0, 1)" if y[2] > 0.0 else "south pole (0, 0, -1)"
                raise ValueError(
                    f"the great-circle arc between the boundary points comes within "
                    f"y1^2+y2^2 = {rho2:.2e} of the {pole}, where the winding force is undefined"
                )

    def force_at(self, y) -> np.ndarray:
        if self.force_scale == 0.0:
            return np.zeros(np.shape(y))
        return winding_force(y, self.force_scale)

    def force_blocks(self, y, rows):
        if self.force_scale == 0.0:
            return None
        return winding_force_blocks(y, rows, self.force_scale, self.grid.h)
