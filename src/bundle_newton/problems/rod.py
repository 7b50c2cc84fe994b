"""Inextensible elastic rod as a saddle-point system.

Unknowns are the rod position ``y`` (P1 in R^3), its unit direction field
``v`` (P1 on the sphere) and the multiplier ``mu`` (P0 per interval) of the
constraint ``y' = v``, at unit flexural rigidity (see :class:`RodProblem`).
Boundary values of ``y`` and ``v`` are prescribed.  The Newton step holds
``8 n + 3`` entries in three blocks, ``[v (2 n) | y (3 n) | mu (3 (n +
1))]``: the directions' frame coefficients and the positions per interior
node, then the multiplier per interval; the residual holds their rows in the
same blocks, the direction rows ``f_v``, the position rows ``f_y`` and the
constraint rows ``f_c`` of each interval.  :func:`blocks` gives their views
and is the one place that knows this order.

No matrix of that size is formed.  The position rows say ``dmu_{i-1} -
dmu_i = f_y,i`` and the constraint rows ``dy_{j+1} - dy_j - (h / 2) (V_j
dv_j + V_{j+1} dv_{j+1}) = f_c,j``, so with ``P_i = sum_{k <= i} f_y,k``
the Newton system is (:class:`RodNewtonMatrix`):

- position rows: ``dmu_i = dmu_0 - P_i``;
- the constraint rows summed, the closure rows: ``-h W^T dv = sum_j f_c,j``;
- direction rows: ``A dv - h W dmu_0 = f_v - (h / 2) V_i^T (P_{i-1} + P_i)``,

where ``A`` is the curve problems' Jacobian of the direction field, loaded
by the multiplier (:func:`~bundle_newton.fem1d.sphere_field_blocks`, 2n
unknowns, bandwidths 3/3), and ``W`` stacks the frames ``V_i^T``.  Once
``dv`` is known, ``dy`` is a prefix sum of the constraint rows.

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
    BandedFactorization,
    Grid,
    NodalCurve,
    SingularSystem,
    assemble_intervals,
    assemble_intervals_vector,
    condition_estimate,
    interpolate_rows,
    p1_covectors,
    sphere_field_blocks,
)
from ..geometry import check_not_antipodal, frame_rows, normalized, unit_vector
from ..newton import ProblemInterface

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
        y, v = self.y, self.v.points
        return (y[1:] - y[:-1]) / self.grid.h - 0.5 * (v[:-1] + v[1:])


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


def blocks(x: np.ndarray, n: int) -> tuple:
    """Views ``(y, v, mu)`` of the positions ``(n, 3, ...)``, the directions'
    frame coefficients ``(n, 2, ...)`` and the multipliers ``(n + 1, 3, ...)``
    in ``x``, a residual or step of ``8 n + 3`` entries, or ``8 n + 3`` rows
    of right-hand sides, stored as ``[v | y | mu]``."""
    rest = x.shape[1:]
    return (x[2 * n : 5 * n].reshape(n, 3, *rest), x[: 2 * n].reshape(n, 2, *rest),
            x[5 * n :].reshape(n + 1, 3, *rest))


class RodNewtonMatrix:
    """The rod's Newton matrix ``J`` at a state, symmetric: the Jacobian ``A``
    of its direction field and the border ``-h W``, with ``W`` the ``(2n,
    3)`` stack of the frames ``V_i^T`` (see the module docstring).

    Used once, as a :class:`~bundle_newton.fem1d.BandedMatrix` is:
    :meth:`factorize` and :meth:`condition` factorize ``A`` in place and keep
    the block elimination, the LU of ``A``, ``Z = A^-1 W`` and the inverse of
    the 3x3 Schur complement ``W^T Z``, by which :meth:`solve` solves.  A zero
    pivot of either raises :class:`SingularSystem`.
    """

    def __init__(self, v: NodalCurve, g, h: float):
        self.V, self.h = v.basis, h
        self.W = self.V.swapaxes(1, 2).reshape(-1, 3)
        self.A = assemble_intervals(*sphere_field_blocks(v.interior, frame_rows(self.V), g, h))

    def factorize(self, rhs) -> tuple["RodNewtonMatrix", np.ndarray]:
        """The matrix, now its own factorization, and the solution ``x`` of
        ``J x = rhs``: one LU of ``A``, solved for the reduced direction rows
        and ``W`` at once.  Raises :class:`SingularSystem` also when ``x`` is
        not finite, naming the first such unknown."""
        with np.errstate(over="ignore", invalid="ignore"):  # as LAPACK's arithmetic
            g, P, C = self._reduce(rhs)
            self.lu = BandedFactorization(self.A)
            X = self.lu.solve(np.column_stack([g, self.W]))
            self._eliminate(X[:, -3:])
            x = self._back_substitute(X[:, :-3], P, C, np.shape(rhs))
        if not np.isfinite(x).all():
            j = int(np.isfinite(x).reshape(len(x), -1).all(axis=1).argmin())
            raise SingularSystem(f"rod Newton step is not finite: {x[j]} at unknown {j}")
        return self, x

    def solve(self, rhs) -> np.ndarray:
        """Solve ``J x = rhs`` for ``rhs`` of shape ``(8 n + 3,)`` or ``(8 n + 3,
        k)``, in the blocks of :func:`blocks`, with the factorization: one
        ``gbtrs`` solve and prefix sums."""
        g, P, C = self._reduce(rhs)
        return self._back_substitute(self.lu.solve(g), P, C, np.shape(rhs))

    def condition(self) -> tuple[float, int]:
        """:func:`~bundle_newton.fem1d.condition_estimate` of the ``8 n + 3``
        matrix ``J``, with its row sums ``|J| e`` from ``A`` and the frames;
        ``J`` is symmetric, so its transposed solve is its solve."""
        n, h, abs_V = len(self.V), self.h, np.abs(self.V)
        d = np.empty(8 * n + 3)
        position, direction, constraint = blocks(d, n)
        position[:] = 2.0  # the multipliers' I and -I
        np.add(self.A.abs_row_sums().reshape(n, 2), h * abs_V.sum(axis=1), out=direction)
        # constraint row j: -I at y_j and I at y_{j+1}, -h V / 2 at v_j and v_{j+1}
        frames = np.zeros((n + 2, 3))
        frames[1:-1] = 0.5 * h * abs_V.sum(axis=2)
        np.add(frames[:-1] + frames[1:], 2.0, out=constraint)
        constraint[[0, -1]] -= 1.0
        self.lu = BandedFactorization(self.A)
        self._eliminate(self.lu.solve(self.W))
        return condition_estimate(d, self.solve, self.solve)

    def _eliminate(self, Z) -> None:
        self.Z = Z
        try:
            self.S_inv = np.linalg.inv(self.W.T @ Z)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"zero pivot in the 3x3 Schur complement ({exc})") from None

    def _reduce(self, rhs) -> tuple:
        """The reduced direction rows ``f_v - (h / 2) V_i^T (P_{i-1} + P_i)``,
        ``(2n, k)``, and the prefix sums ``P_0 = 0, ..., P_n`` of the position
        rows and ``C_0, ..., C_n`` of the constraint rows, each ``(n + 1, 3,
        k)``, of the right-hand sides ``rhs``."""
        n = len(self.V)
        r = np.asarray(rhs).reshape(8 * n + 3, -1)
        position, direction, constraint = blocks(r, n)
        P = np.add.accumulate(np.concatenate([np.zeros((1, 3, r.shape[1])), position]))
        C = np.add.accumulate(constraint)
        g = direction - (0.5 * self.h) * (self.W.reshape(n, 2, 3) @ (P[:-1] + P[1:]))
        return g.reshape(2 * n, -1), P, C

    def _back_substitute(self, Ag, P, C, shape) -> np.ndarray:
        """The solution of shape ``shape`` from ``Ag = A^-1 g`` and the prefix
        sums of :meth:`_reduce`: ``h dmu_0`` from the closure rows, then ``dv``,
        by the constraint rows ``dy``, and ``dmu``."""
        n, k, h = len(self.V), Ag.shape[1], self.h
        # W^T dv = -C_n / h, with dv = Ag + Z (h dmu_0)
        h_dmu0 = self.S_inv @ -(C[-1] / h + self.W.T @ Ag)
        x = np.empty((8 * n + 3, k))
        dy, dv, dmu = blocks(x, n)
        np.add(Ag, self.Z @ h_dmu0, out=dv.reshape(2 * n, k))
        u = np.zeros((n + 1, 3, k))  # V_i dv_i, behind a zero row
        np.matmul(self.V, dv, out=u[1:])
        np.add(C[:-1], (0.5 * h) * np.add.accumulate(u[:-1] + u[1:]), out=dy)
        dmu[0] = h_dmu0 / h
        np.subtract(dmu[0], P[1:], out=dmu[1:])
        return x.reshape(shape)


class RodProblem(ProblemInterface):
    """Equilibrium system of the inextensible rod for the Newton driver.

    ``sigma`` is the flexural rigidity; unloaded, it only scales the multiplier,
    so the system is that of ``sigma = 1`` and ``sigma * lam`` the multiplier.
    A grid needs at least 2 interior nodes (``ValueError`` otherwise): with one,
    the 6 constraint rows outnumber the 5 primal unknowns and every Newton
    matrix is singular.  A chord ``|y1 - y0|`` longer than the rod is a
    ``ValueError`` as well: no discrete rod joins its end positions.
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
        # the constraint rows sum to y1 - y0 = h sum_j (v_j + v_{j+1}) / 2, a sum
        # of n + 1 vectors no longer than h: no rod joins a longer chord
        chord = float(np.linalg.norm(self.y1 - self.y0))
        if chord > grid.t_end:
            raise ValueError(
                f"the chord |y1 - y0| = {chord!r} exceeds the rod's length {grid.t_end!r}"
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
        position, direction, constraint = blocks(r, self.grid.n_interior)
        np.subtract(state.lam[:-1], state.lam[1:], out=position)
        direction[:] = assemble_intervals_vector(V, g, v).reshape(-1, 2)
        constraint[:] = r_lam
        return r

    def assemble_jacobian(self, at: tuple) -> RodNewtonMatrix:
        state, g, _ = at
        return RodNewtonMatrix(state.v, g, self.grid.h)

    def retract(self, state: RodState, xi, alpha: float) -> RodState:
        dy, dv, dmu = blocks(np.asarray(xi, dtype=float), self.grid.n_interior)
        y = state.y.copy()
        y[1:-1] += alpha * dy
        lam = np.multiply(alpha, dmu)  # alpha times the multiplier step, plus state.lam
        lam += state.lam
        return RodState(y, state.v.retract(dv, alpha), lam)

    def norm_inf(self, xi) -> float:
        # largest nodal length of y, v or mu, each one's squares summed in
        # np.linalg.norm's order into one buffer
        n = self.grid.n_interior
        y, v, mu = blocks(np.square(xi), n)
        lengths2 = np.empty(3 * n + 1)
        y2, v2, mu2 = lengths2[:n], lengths2[n : 2 * n], lengths2[2 * n :]
        np.add(np.add(y[:, 0], y[:, 1], out=y2), y[:, 2], out=y2)
        np.add(v[:, 0], v[:, 1], out=v2)
        np.add(np.add(mu[:, 0], mu[:, 1], out=mu2), mu[:, 2], out=mu2)
        return math.sqrt(lengths2.max())
