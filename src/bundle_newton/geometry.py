"""Geometric primitives for the unit sphere embedded in R^3.

Array-first: points, tangent vectors and covectors are numpy arrays of
shape ``(..., 3)``, tangent frames ``(..., 3, 2)``, and every function acts
row by row on the leading axes, so a single ``(3,)`` point is just the
one-node case of a stacked ``(n, 3)`` array of nodes.  Covectors are
represented by their coefficient arrays with respect to the Euclidean
pairing.  All functions are pure and carry no state, so values can be
shared freely across threads.
"""

from __future__ import annotations

import numpy as np

UNIT_NORM_TOL = 1e-12
DEGENERATE_NORM = 1e-12


class DegenerateUpdate(Exception):
    """A point the problem cannot be evaluated at, such as a point update that
    collapses to (nearly) the zero vector."""


def dot(a, b) -> np.ndarray:
    """Row-wise Euclidean pairing of ``(..., 3)`` arrays, keeping a trailing axis."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def unit_vector(coords) -> np.ndarray:
    """Return ``coords`` as a validated unit vector of shape (3,)."""
    y = np.asarray(coords, dtype=float).reshape(3)
    nrm = np.linalg.norm(y)
    if not abs(nrm - 1.0) <= UNIT_NORM_TOL:  # also rejects NaN
        raise ValueError(
            f"not a unit vector: {y.tolist()} (norm deviates by {abs(nrm - 1.0):.2e})"
        )
    return y


def normalized(vec) -> np.ndarray:
    """Normalize each row of ``vec``, raising :class:`DegenerateUpdate` near zero."""
    v = np.asarray(vec, dtype=float)
    nrm = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(nrm <= DEGENERATE_NORM):
        i = np.argmin(nrm)
        raise DegenerateUpdate(f"cannot normalize a vector of norm {nrm.flat[i]:.2e} at row {i}")
    return v / nrm


def arc_angle(a, b) -> float:
    """Angle between the unit vectors ``a`` and ``b``."""
    return float(np.arccos(np.clip(a @ b, -1.0, 1.0)))


def check_not_antipodal(a, b, what: str) -> None:
    """Raise ``ValueError`` naming the unit vectors ``a`` and ``b`` (the
    ``what`` of a problem) if they are (nearly) antipodal: no unique great
    circle arc joins them."""
    omega = arc_angle(a, b)
    if omega > np.pi / 2 and np.sin(omega) <= 1e-12:
        raise ValueError(
            f"{what} {a.tolist()} and {b.tolist()} are (nearly) antipodal "
            "and have no unique connecting geodesic"
        )


def tangent_project(y, h) -> np.ndarray:
    """Orthogonal projection of ``h`` onto the tangent plane at ``y``."""
    y = np.asarray(y, dtype=float)
    h = np.asarray(h, dtype=float)
    return h - y * dot(y, h)


def retract_sphere(y, d) -> np.ndarray:
    """Move from ``y`` along ``d`` and renormalize back onto the sphere."""
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
    if y.shape != d.shape:
        y, d = np.broadcast_arrays(y, d)
    moved = d.any(axis=-1, keepdims=True)
    w = y + d
    nrm = np.sqrt(dot(w, w))
    if (moved & (nrm <= DEGENERATE_NORM)).any():
        i = np.argmin(np.where(moved, nrm, np.inf))
        raise DegenerateUpdate(
            f"update direction collapses the point to norm {nrm.flat[i]:.2e} at row {i}"
        )
    # retraction at a zero step is the exact identity
    return np.where(moved, w / nrm, y)


def tangent_basis(y) -> np.ndarray:
    """Deterministic orthonormal tangent frames at each unit vector ``y``.

    Returns ``(..., 3, 2)`` frames ``V`` with columns ``v1, v2``; ``V @ c`` is
    the tangent vector of coefficients ``c``.  The frame is the closed-form
    basis of Duff et al., "Building an Orthonormal Basis, Revisited", JCGT
    6(1), 2017: with ``s = copysign(1, y3)`` and ``a = -1 / (s + y3)``,

        v1 = (1 + s a y1^2, s a y1 y2, -s y1),   v2 = (a y1 y2, s + a y2^2, -y2),

    so ``(v1, v2, y)`` is right handed.  ``s + y3`` is at least 1 in size, so
    no base point is singular; ``y3 = -0.0`` takes the ``s = -1`` branch.  No
    continuity across nearby base points is promised, or needed.
    """
    y = np.asarray(y, dtype=float)
    y1, y2, y3 = y[..., 0], y[..., 1], y[..., 2]
    s = np.copysign(1.0, y3)
    a = -1.0 / (s + y3)
    b = y1 * y2 * a
    V = np.empty(y.shape + (2,))
    V[..., 0, 0] = 1.0 + s * y1 * y1 * a
    V[..., 1, 0] = s * b
    V[..., 2, 0] = -s * y1
    V[..., 0, 1] = b
    V[..., 1, 1] = s + y2 * y2 * a
    V[..., 2, 1] = -y2
    return V
