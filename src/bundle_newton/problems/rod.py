"""Inextensible elastic rod as a saddle-point system.

Unknowns are the rod position ``y`` (P1 in R^3), its unit direction field
``v`` (P1 on the sphere) and the multiplier ``mu`` (P0 per interval) of the
constraint ``y' = v``, at unit flexural rigidity (see :class:`RodProblem`).
Boundary values of ``y`` and ``v`` are prescribed.  Per interior node the
dofs are interleaved as ``(y_i, v_i, mu_i)`` behind a leading ``mu_0`` group,
which keeps the assembled Newton matrix banded with bandwidths 9/9
independent of the grid.  The group of node ``i`` occupies entries
``8 i - 5 .. 8 i + 2``, so that ``mu_j`` starts at entry ``8 j`` for every
interval ``j``.  Every block of the Jacobian therefore repeats from node to
node with stride 8, and the Jacobian is assembled as block runs of
:meth:`~bundle_newton.fem1d.BandedMatrix.add_blocks`: 7 runs, and the
diagonals of the 4 runs of constant ``I`` and ``-I`` blocks.

The directions are a :class:`~bundle_newton.fem1d.NodalCurve` as in the curve
problems, framed and retracted by it, and their rows are assembled by
:mod:`fem1d` as there: a unit-vector field loaded by the multiplier.  ``y``
and ``mu`` retract linearly.  A state's evaluation, as in the curve
problems, holds its direction covectors and constraint rows, all of the
residual but the frame contraction; the driver evaluates each state once,
and the evaluation serves its trial residual, its residual and its Jacobian.
:meth:`RodState.prolong` moves a state to a finer grid for nested
iteration: ``y`` and ``v`` as P1 interpolants, ``mu`` between interval
midpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..fem1d import (
    BandedMatrix,
    Grid,
    NodalCurve,
    assemble_intervals_vector,
    interpolate_rows,
    p1_covectors,
    sphere_field_blocks,
)
from ..geometry import check_not_antipodal, normalized, unit_vector
from ..newton import ProblemInterface

BANDWIDTH = 9

# reference boundary data: slightly incompatible chord (length 0.8 for a
# unit-length rod) with upward pointing end directions
DEFAULT_Y0 = (0.0, 0.0, 0.0)
DEFAULT_Y1 = (0.8, 0.0, 0.0)
DEFAULT_V0 = (1.0 / np.sqrt(5.0), 0.0, 2.0 / np.sqrt(5.0))
DEFAULT_V1 = (1.0 / np.sqrt(1.64), 0.0, 0.8 / np.sqrt(1.64))


@dataclass(frozen=True)
class RodState:
    """Nodal rod configuration: positions, unit directions, multipliers.  The
    directions are a :class:`NodalCurve`, with the frames and the state's grid."""

    y: np.ndarray  # (n_nodes, 3)
    v: NodalCurve
    lam: np.ndarray  # (n_intervals, 3), the multiplier mu at unit rigidity

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "lam", lam)
        if y.shape != (self.grid.n_nodes, 3):
            raise ValueError("y must hold one 3-vector per node")
        if lam.shape != (self.grid.n_intervals, 3):
            raise ValueError("lam must hold one 3-vector per interval")

    @property
    def grid(self) -> Grid:
        return self.v.grid

    def prolong(self, grid: Grid) -> "RodState":
        """The state on ``grid``, a grid of the same interval: P1 interpolants of
        ``y`` (end points kept bit for bit) and of ``v`` (by
        :meth:`NodalCurve.prolong`), and ``lam`` interpolated between the
        interval midpoints."""
        v = self.v.prolong(grid)
        y = interpolate_rows(grid.nodes, self.grid.nodes, self.y)
        y[0], y[-1] = self.y[0], self.y[-1]
        mid = grid.nodes[:-1] + 0.5 * grid.h
        lam = interpolate_rows(mid, self.grid.nodes[:-1] + 0.5 * self.grid.h, self.lam)
        return RodState(y, v, lam)

    def constraint_residuals(self) -> np.ndarray:
        """Per-interval values of ``(y_{i+1} - y_i)/h - (v_i + v_{i+1})/2``."""
        v = self.v.points
        return np.diff(self.y, axis=0) / self.grid.h - 0.5 * (v[:-1] + v[1:])


def rod_initial_guess(grid: Grid, y0, y1, v0, v1) -> RodState:
    """Affine positions, nodewise-normalized affine directions, zero multiplier."""
    y0 = np.asarray(y0, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    v0 = unit_vector(v0)
    v1 = unit_vector(v1)
    s = (grid.nodes / grid.t_end)[:, None]
    y = (1.0 - s) * y0 + s * y1
    v = normalized((1.0 - s) * v0 + s * v1)
    v[0], v[-1] = v0, v1
    lam = np.zeros((grid.n_intervals, 3))
    return RodState(y, NodalCurve(grid, v), lam)


class RodProblem(ProblemInterface):
    """Equilibrium system of the inextensible rod for the Newton driver.

    ``sigma`` is the flexural rigidity; unloaded, it only scales the multiplier,
    so the system is that of ``sigma = 1`` and ``sigma * lam`` the multiplier.
    A grid needs at least 2 interior nodes (``ValueError`` otherwise): with one,
    the 6 constraint rows outnumber the 5 primal unknowns and every Newton
    matrix is singular.
    """

    def __init__(self, grid: Grid, y0=DEFAULT_Y0, y1=DEFAULT_Y1, v0=DEFAULT_V0, v1=DEFAULT_V1,
                 sigma: float = 1.0):
        if grid.n_interior < 2:
            raise ValueError(
                f"the rod needs at least 2 interior nodes, got {grid.n_interior}: with one, "
                f"its 6 constraint rows outnumber its 5 primal unknowns"
            )
        self.grid = grid
        self.y0 = np.asarray(y0, dtype=float)
        self.y1 = np.asarray(y1, dtype=float)
        if not np.all(np.isfinite([self.y0, self.y1])):
            raise ValueError(
                f"end positions must be finite, got {self.y0.tolist()} and {self.y1.tolist()}"
            )
        self.v0 = unit_vector(v0)
        self.v1 = unit_vector(v1)
        check_not_antipodal(self.v0, self.v1, "end directions")
        if not 0.0 < sigma < np.inf:
            raise ValueError(f"flexural rigidity must be positive and finite, got {sigma!r}")
        self.sigma = float(sigma)

    # -- dof layout ----------------------------------------------------------

    @property
    def dof_count(self) -> int:
        return 8 * self.grid.n_interior + 3

    def _split(self, xi):
        """``(y, v, lam)`` parts of a coefficient vector: ``(n, 3)``, ``(n, 2)``, ``(n + 1, 3)``."""
        xi = np.asarray(xi, dtype=float)
        groups = xi[3:].reshape(self.grid.n_interior, 8)
        return groups[:, :3], groups[:, 3:5], np.vstack((xi[:3], groups[:, 5:]))

    def initial_state(self) -> RodState:
        return rod_initial_guess(self.grid, self.y0, self.y1, self.v0, self.v1)

    def columns(self, state: RodState) -> dict:
        """The ``curve.csv`` columns after ``t``; the P0 multiplier, scaled to
        ``sigma``, is repeated at its interval's right node and at node 0."""
        lam_at_nodes = self.sigma * np.vstack([state.lam[:1], state.lam])
        names = ("x", "y", "z", "vx", "vy", "vz", "lx", "ly", "lz")
        return dict(zip(names, np.hstack([state.y, state.v.points, lam_at_nodes]).T))

    def results(self, continuation) -> dict:
        return {"constraint_inf": np.abs(continuation.state.constraint_residuals()).max()}

    # -- driver contract -------------------------------------------------------

    def evaluate(self, state: RodState) -> tuple:
        """``(state, g, r_lam)``: the direction covectors ``g`` and the
        constraint rows ``r_lam = h (y' - v)`` per interval, all of the
        residual but the frame contraction."""
        load = -0.5 * (state.lam[:-1] + state.lam[1:])
        h = self.grid.h
        return state, p1_covectors(state.v.points, h, load), h * state.constraint_residuals()

    def assemble_residual(self, at: tuple, frames: RodState | None = None) -> np.ndarray:
        # position and multiplier tests live in fixed linear spaces; only the
        # direction tests follow another state's frames, by projection onto
        # this state's tangents
        state, g, r_lam = at
        V, v = (state.v.basis, None) if frames is None else (frames.v.basis, state.v.interior)
        r = np.empty(self.dof_count)
        r[:3] = r_lam[0]
        groups = r[3:].reshape(-1, 8)
        np.subtract(state.lam[:-1], state.lam[1:], out=groups[:, :3])
        groups[:, 3:5] = assemble_intervals_vector(V, g, v).reshape(-1, 2)
        groups[:, 5:] = r_lam[1:]
        return r

    def assemble_jacobian(self, at: tuple) -> BandedMatrix:
        state, g, _ = at
        n = self.grid.n_interior
        h = self.grid.h
        A = BandedMatrix(self.dof_count, BANDWIDTH, BANDWIDTH)
        V = state.v.basis  # (n, 3, 2)
        one = np.ones((n, 1, 1))

        def add(row0, col0, blocks):
            A.add_blocks(row0, col0, blocks, 8)

        def add_eye3(row0, col0, sign):
            # a run of constant sign * I blocks: its 3 diagonals alone, as
            # no other block writes to its off-diagonal zeros
            for a in range(3):
                add(row0 + a, col0 + a, sign)

        # first dofs of the node-1 groups: multipliers left and right of the
        # node, position, direction
        lam_left, y, v, lam_right = 0, 3, 6, 8

        # position rows: multiplier difference
        add_eye3(y, lam_left, one)
        add_eye3(y, lam_right, -one)

        # direction rows: the unit-vector field's blocks, multiplier
        diag, upper = sphere_field_blocks(state.v.interior, V, g, h)
        add(v, v, diag)
        add(v, v + 8, upper)
        add(v + 8, v, upper.transpose(0, 2, 1))
        mean_VT = -0.5 * h * V.transpose(0, 2, 1)
        add(v, lam_left, mean_VT)
        add(v, lam_right, mean_VT)

        # constraint rows: position difference minus interval mean direction
        mean_V = -0.5 * h * V
        add_eye3(lam_right, y, -one)
        add(lam_right, v, mean_V)
        add_eye3(lam_left, y, one)
        add(lam_left, v, mean_V)
        return A

    def retract(self, state: RodState, xi, alpha: float) -> RodState:
        dy, dv, dlam = self._split(xi)
        y = state.y.copy()
        y[1:-1] += alpha * dy
        return RodState(y, state.v.retract(dv, alpha), state.lam + alpha * dlam)

    def norm_inf(self, xi) -> float:
        # largest nodal length of y, v or lam; squares summed in np.linalg.norm's
        # order, one row per dof kind, with the leading multiplier group in a
        # last column (y and v have none there, and a zero never wins the max)
        sq = np.square(np.asarray(xi, dtype=float))
        g = sq[3:].reshape(self.grid.n_interior, 8).T
        lengths2 = np.empty((3, self.grid.n_interior + 1))
        y, v, lam = lengths2[:, :-1]
        np.add(np.add(g[0], g[1], out=y), g[2], out=y)
        np.add(g[3], g[4], out=v)
        np.add(np.add(g[5], g[6], out=lam), g[7], out=lam)
        lengths2[:, -1] = 0.0, 0.0, sq[0] + sq[1] + sq[2]
        return math.sqrt(lengths2.max())
