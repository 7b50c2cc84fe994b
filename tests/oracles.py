"""Reference formulas of constrained differential geometry, numpy only.

The tests check the package's sphere-field assembly and the acceptance
criterion on the constrained Hessian against these general formulas, and
the winding force's frame blocks against its Euclidean Jacobian.  Two
plain numpy forms, :func:`sphere_field_blocks` and :func:`winding_force`,
pin the bytes of the package's faster ones.  They stay independent of the
code they check: nothing here imports ``bundle_newton`` (``test_geometry.py``
guards this).
"""

import numpy as np

CONDITION_LIMIT = 1e14


class SingularConstraint(Exception):
    """Raised when a constraint Jacobian is rank deficient."""


def _dot(a, b) -> np.ndarray:
    """Row-wise Euclidean pairing of ``(..., 3)`` arrays, keeping a trailing axis."""
    return np.einsum("...i,...i->...", a, b)[..., None]


def tangent_project_deriv(y, v, u) -> np.ndarray:
    """Derivative of the tangent projection at ``y`` along ``v``, applied to ``u``.

    Evaluates ``-y <v, u> - v <y, u>`` for arbitrary ``v`` and ``u``; for a
    pair of tangent vectors the second term vanishes and the result is
    radial.
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(v, dtype=float)
    u = np.asarray(u, dtype=float)
    return -y * _dot(v, u) - v * _dot(y, u)


def normal_multiplier(fp, cp) -> np.ndarray:
    """Multiplier ``lam`` for which ``fp + lam @ cp`` vanishes on the normal space.

    ``fp`` is the gradient covector of the objective, ``cp`` the constraint
    Jacobian (one row per constraint).  Solves the Gram system
    ``(cp cp^T) lam = -cp fp``.
    """
    cp = np.atleast_2d(np.asarray(cp, dtype=float))
    fp = np.asarray(fp, dtype=float)
    gram = cp @ cp.T
    if np.linalg.cond(gram) > CONDITION_LIMIT:
        raise SingularConstraint("constraint Jacobian is (near) rank deficient")
    return -np.linalg.solve(gram, cp @ fp)


def constrained_hessian_apply(fpp, cp, cpp, lam, dx) -> np.ndarray:
    """Covariant Hessian action ``fpp @ dx + sum_k lam[k] * cpp[k] @ dx``.

    Parameters
    ----------
    fpp : (n, n) array
        Second derivative of the objective.
    cp : (l, n) array
        Constraint Jacobian rows; must have full row rank.
    cpp : (l, n, n) array
        Second derivatives of the constraint components.
    lam : (l,) array
        Multiplier covector solving the normal-space stationarity system,
        see :func:`normal_multiplier`.
    dx : (n,) array
        Direction tangent to the constraint set (``cp @ dx`` vanishes).

    Returns
    -------
    (n,) array
        Coefficients of the output covector.  Restricted to the kernel of
        ``cp`` it agrees with the projection-based covariant derivative of
        the constrained gradient.
    """
    fpp = np.asarray(fpp, dtype=float)
    cp = np.atleast_2d(np.asarray(cp, dtype=float))
    cpp = np.asarray(cpp, dtype=float)
    if cpp.ndim == 2:
        cpp = cpp[None, :, :]
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    dx = np.asarray(dx, dtype=float)
    if np.linalg.matrix_rank(cp) < cp.shape[0]:
        raise SingularConstraint(
            "constraint Jacobian is rank deficient; the multiplier is not unique"
        )
    tangency = np.max(np.abs(cp @ dx))
    if tangency > 1e-10 * (1.0 + np.max(np.abs(dx))):
        raise ValueError(
            f"dx is not tangent to the constraint set: |c'(y) dx| = {tangency:.2e}"
        )
    return fpp @ dx + np.einsum("k,kij,j->i", lam, cpp, dx)


def winding_force_jacobian(y, scale: float = 3.0) -> np.ndarray:
    """Euclidean ``(..., 3, 3)`` Jacobians of the winding force coefficients
    ``scale * y3 / (y1^2 + y2^2) * (-y2, y1, 0)`` at the points ``y``: the
    azimuthal direction times the prefactor's gradient, plus the prefactor
    times the azimuthal direction's constant Jacobian.  Not finite at a pole."""
    y = np.asarray(y, dtype=float)
    rho2 = y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1]
    prefactor = scale * y[..., 2] / rho2
    grad_prefactor = scale * np.stack(
        (
            -2.0 * y[..., 0] * y[..., 2] / rho2**2,
            -2.0 * y[..., 1] * y[..., 2] / rho2**2,
            1.0 / rho2,
        ),
        axis=-1,
    )
    azimuthal = np.stack((-y[..., 1], y[..., 0], np.zeros_like(y[..., 0])), axis=-1)
    d_azimuthal = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    outer = azimuthal[..., :, None] * grad_prefactor[..., None, :]
    return outer + prefactor[..., None, None] * d_azimuthal


def sphere_field_blocks(y, V, g, h: float, nodal=None):
    """The ``(n, 2, 2)`` diagonal and ``(n - 1, 2, 2)`` upper blocks of a P1
    unit-vector field, the diagonal ones as ``scalar * I`` with ``scalar = 2 /
    h - <g, y>``: their off-diagonal zeros carry the sign of ``scalar``."""
    VT = np.swapaxes(V, -1, -2)
    scalar = 2 / h - np.einsum("...i,...i->...", g, y)
    diag = scalar[:, None, None] * np.eye(2)
    if nodal is not None:
        diag += nodal
    return diag, -(1 / h) * (VT[:-1] @ V[1:])


def winding_force(y, scale: float = 3.0) -> np.ndarray:
    """The winding force coefficients ``scale * y3 / (y1^2 + y2^2) * (-y2,
    y1, 0)``, as one product of the prefactor and the stacked ``(..., 3)``
    azimuthal direction."""
    y = np.asarray(y, dtype=float)
    rho2 = y[..., 0] * y[..., 0] + y[..., 1] * y[..., 1]
    prefactor = scale * y[..., 2] / rho2
    azimuthal = np.stack((-y[..., 1], y[..., 0], np.zeros_like(y[..., 0])), axis=-1)
    return prefactor[..., None] * azimuthal
