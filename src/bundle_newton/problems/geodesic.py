"""Elastic geodesics on the sphere in a winding force field.

The force field circulates around the polar axis with a strength that grows
towards the poles; it is non-conservative, so the problem has no energy
formulation and the assembled Newton matrix is asymmetric.
"""

from __future__ import annotations

import numpy as np

from ..fem1d import Grid
from ..geometry import DegenerateUpdate
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


def _azimuthal(y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.stack((-y[..., 1], y[..., 0], np.zeros_like(y[..., 0])), axis=-1)


def winding_force(y, scale: float = 3.0) -> np.ndarray:
    """Coefficients of the winding force covector at each point ``y``.

    ``scale * y3 / (y1^2 + y2^2)`` times the azimuthal direction
    ``(-y2, y1, 0)``; annihilates the radial direction by construction.
    """
    prefactor, _ = _prefactor(y, scale)
    return prefactor[..., None] * _azimuthal(y)


def winding_force_jacobian(y, scale: float = 3.0) -> np.ndarray:
    """Euclidean ``(..., 3, 3)`` Jacobians of the winding force coefficients at ``y``."""
    y = np.asarray(y, dtype=float)
    prefactor, rho2 = _prefactor(y, scale)
    grad_prefactor = scale * np.stack(
        (
            -2.0 * y[..., 0] * y[..., 2] / rho2**2,
            -2.0 * y[..., 1] * y[..., 2] / rho2**2,
            1.0 / rho2,
        ),
        axis=-1,
    )
    d_azimuthal = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    outer = _azimuthal(y)[..., :, None] * grad_prefactor[..., None, :]
    return outer + prefactor[..., None, None] * d_azimuthal


class GeodesicForceProblem(SphereCurveProblem):
    """Elastic geodesic between two boundary points in the winding field.

    ``force_scale = 0`` turns the force off entirely (plain geodesic), in
    which case curves may pass through the poles.
    """

    def __init__(self, grid: Grid, gamma0=DEFAULT_GAMMA0, gammaT=DEFAULT_GAMMAT,
                 force_scale: float = 3.0):
        super().__init__(grid, gamma0, gammaT)
        if not np.isfinite(force_scale):
            raise ValueError(f"force scale must be finite, got {force_scale!r}")
        self.force_scale = float(force_scale)

    def force_at(self, y) -> np.ndarray:
        if self.force_scale == 0.0:
            return np.zeros(np.shape(y))
        return winding_force(y, self.force_scale)

    def force_jacobian_at(self, y) -> np.ndarray:
        if self.force_scale == 0.0:
            return np.zeros(np.shape(y) + (3,))
        return winding_force_jacobian(y, self.force_scale)
