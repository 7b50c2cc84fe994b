"""One-dimensional P1/P0 discretization layer.

Uniform grids, nodal curves on the sphere, one banded matrix type with its
LU solver (LAPACK ``gbtrf``/``gbtrs``), and the P1 assembly of unit-vector
fields shared by the curve and rod problems.

Array-first: nodal data are stacked ``(n, ...)`` arrays.  The Jacobian of a
unit-vector field, :func:`sphere_field_blocks` assembled by
:func:`assemble_intervals`, is a block tridiagonal :class:`BandedMatrix` of
2x2 blocks, filled by :meth:`BandedMatrix.add_blocks` (three runs of
equally spaced dense blocks, one strided band slice per block entry) and
factorized in its own column-major storage by the banded LU with partial
pivoting.  It is a curve problem's Newton matrix, and the rod's Newton
matrix is it plus a 3-column border, eliminated by prefix sums (see
:mod:`~bundle_newton.problems.rod`).  :func:`condition_estimate` explains a
failed solve by either matrix's Skeel condition number.

Nested iteration moves a solution to a finer grid of the same interval:
:func:`interpolate_rows` is the piecewise-linear interpolation it is made
of, and :meth:`NodalCurve.prolong` adds the step back onto the sphere.

The two LAPACK routines the solver calls, ``dgbtrf`` and ``dgbtrs``, come
from scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded
without ``scipy.linalg``'s package, whose import would cost more than most
runs; where scipy's layout differs they come from ``scipy.linalg.lapack``.
No BLAS module is loaded.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .geometry import UNIT_NORM_TOL, dot, normalized, retract_sphere, tangent_basis, tangent_project

CONDITION_LIMIT = 1e14


def _load_scipy_linalg_extension(name: str):
    """scipy's compiled module ``scipy.linalg.<name>``, loaded without running
    the ``__init__`` of ``scipy`` or ``scipy.linalg``; None when it cannot be
    found or loaded.  It is registered in ``sys.modules`` under its real
    name, so a later ``import scipy.linalg`` reuses it."""
    qualname = f"scipy.linalg.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    path = [os.path.join(location, "linalg") for location in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(qualname, path)
    if spec is None or spec.loader is None:
        return None
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[qualname] = module
        spec.loader.exec_module(module)
    except ImportError:
        sys.modules.pop(qualname, None)
        return None
    return module


def _band_routines():
    """LAPACK ``dgbtrf``/``dgbtrs``, the same objects that
    ``scipy.linalg.lapack`` exports."""
    flapack = _load_scipy_linalg_extension("_flapack")
    try:
        return flapack.dgbtrf, flapack.dgbtrs
    except AttributeError:  # a module that was not loaded is None
        from scipy.linalg.lapack import dgbtrf, dgbtrs

        return dgbtrf, dgbtrs


dgbtrf, dgbtrs = _band_routines()


class SingularSystem(Exception):
    """Raised when a direct solver meets a (near) singular matrix."""


# ---------------------------------------------------------------------------
# grids and nodal curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform grid on ``[0, t_end]`` with ``n_interior`` interior nodes."""

    t_end: float
    n_interior: int

    def __post_init__(self):
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end!r}")
        if self.n_interior < 1:
            raise ValueError("need at least one interior node")

    @property
    def h(self) -> float:
        return self.t_end / (self.n_interior + 1)

    @property
    def n_intervals(self) -> int:
        return self.n_interior + 1

    @property
    def n_nodes(self) -> int:
        return self.n_interior + 2

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_nodes)


def interpolate_rows(t, t_data, data) -> np.ndarray:
    """Rows at the points ``t`` of the piecewise-linear interpolant of the rows
    of ``data`` given at the increasing points ``t_data``; constant beyond
    the first and last of them.  A constant column stays constant bit for bit."""
    return np.column_stack([np.interp(t, t_data, column) for column in np.asarray(data).T])


@dataclass(frozen=True)
class NodalCurve:
    """Piecewise-linear interpolant of unit vectors at the grid nodes.

    The sphere-valued unknown of every problem (a curve problem's curve, the
    rod's directions): fixed end points, framed and retracted interior nodes.
    """

    grid: Grid
    points: np.ndarray  # (n_nodes, 3)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        object.__setattr__(self, "points", pts)
        if pts.shape != (self.grid.n_nodes, 3):
            raise ValueError(
                f"expected {self.grid.n_nodes} nodal points, got shape {pts.shape}"
            )
        err = np.abs(np.sqrt(dot(pts, pts)) - 1.0).max()
        if not err <= UNIT_NORM_TOL:  # also rejects NaN
            raise ValueError(f"nodal points leave the sphere by {err:.2e}")

    @property
    def interior(self) -> np.ndarray:
        return self.points[1:-1]

    @cached_property
    def basis(self) -> np.ndarray:
        """``(n, 3, 2)`` tangent frames at the interior nodes, computed once per curve."""
        return tangent_basis(self.interior)

    def retract(self, xi, alpha: float) -> "NodalCurve":
        """The curve moved by ``alpha`` times the tangent step of frame
        coefficients ``xi`` (two per interior node); the end points stay fixed."""
        step = np.einsum("nij,nj->ni", self.basis, np.asarray(xi).reshape(-1, 2))
        points = self.points.copy()
        points[1:-1] = retract_sphere(self.interior, alpha * step)
        return NodalCurve(self.grid, points)

    def prolong(self, grid: Grid) -> "NodalCurve":
        """The curve on ``grid``, a grid of the same interval: the P1 interpolant
        at its nodes, normalized back onto the sphere, with the end points
        copied bit for bit."""
        if grid.t_end != self.grid.t_end:
            raise ValueError(f"cannot prolong from [0, {self.grid.t_end}] to [0, {grid.t_end}]")
        points = normalized(interpolate_rows(grid.nodes, self.grid.nodes, self.points))
        points[0], points[-1] = self.points[0], self.points[-1]
        return NodalCurve(grid, points)


# ---------------------------------------------------------------------------
# banded matrices (LAPACK storage) and banded LU
# ---------------------------------------------------------------------------


class BandedMatrix:
    """General banded matrix in LAPACK band storage, used once.

    Column ``j`` of the matrix lives in column ``j`` of the column-major
    storage array, with entry ``A[i, j]`` at row ``lower_bw + upper_bw + i -
    j``: LAPACK's band layout exactly, so ``gbtrf`` factorizes the storage in
    place, with no copy.  The leading ``lower_bw`` storage rows stay zero
    until then; partial pivoting may grow the upper bandwidth into them.
    Entries outside the band are identically zero by construction; writing
    one is an error.  A matrix is factorized once, by :meth:`factorize` or
    :meth:`condition`; after that its storage is its LU, and any further use
    raises ``ValueError``.
    """

    def __init__(self, dim: int, lower_bw: int, upper_bw: int):
        if dim < 1 or lower_bw < 0 or upper_bw < 0:
            raise ValueError("invalid banded matrix shape")
        self.dim = dim
        self.lower_bw = lower_bw
        self.upper_bw = upper_bw
        self._ab = np.zeros((2 * lower_bw + upper_bw + 1, dim), order="F")

    def _band(self) -> np.ndarray:
        """The band storage; ``ValueError`` once the matrix was factorized."""
        if self._ab is None:
            raise ValueError("the banded matrix was factorized in place; its storage is its LU")
        return self._ab

    def add_blocks(self, row0: int, col0: int, blocks: np.ndarray, stride: int) -> None:
        """Add the ``(K, p, q)`` array ``blocks``, block ``k`` at rows
        ``row0 + k stride + [0, p)`` and columns ``col0 + k stride + [0, q)``.

        Entry ``(a, b)`` of every block lies on one band diagonal, in every
        ``stride``-th column, so it is one strided slice of the storage.
        Adding in place sums overlapping blocks in block order (rows are
        written last first), as a scatter of the blocks one by one would.
        Nothing is written unless the whole run lies in the matrix and in
        the band.
        """
        if blocks.size == 0:
            return
        K, p, q = blocks.shape
        if stride < 1:
            raise ValueError(f"stride must be positive, got {stride}")
        span = (K - 1) * stride
        if row0 < 0 or col0 < 0 or max(row0 + p, col0 + q) + span > self.dim:
            raise IndexError(
                f"{K} blocks of shape {p}x{q} at ({row0}, {col0}) + k * {stride} "
                f"leave the {self.dim}x{self.dim} matrix"
            )
        if row0 - col0 + p - 1 > self.lower_bw or col0 - row0 + q - 1 > self.upper_bw:
            raise ValueError(
                f"blocks of shape {p}x{q} at ({row0}, {col0}) leave the stored band "
                f"(bandwidths {self.lower_bw}/{self.upper_bw})"
            )
        ab = self._band()
        mid = self.lower_bw + self.upper_bw + row0 - col0  # storage row of entry (0, 0)
        stop = col0 + span + 1
        for a in range(p - 1, -1, -1):
            for b in range(q):
                band = ab[mid + a - b, col0 + b : stop + b : stride]
                band += blocks[:, a, b]  # entry (a, b) of every block

    def factorize(self, rhs) -> tuple["BandedFactorization", np.ndarray]:
        """The banded LU of the matrix, computed in its storage, and the
        solution ``x`` of ``A x = rhs``; the matrix cannot be used again.
        Raises :class:`SingularSystem` at a zero pivot, or when ``x`` is not
        finite, naming the first unknown (0-based) with such a value and its
        value, or its row of values for several right-hand sides.  How
        well conditioned the matrix is goes unchecked here: the damping
        rejects the long, non-contracting steps of a near-singular matrix,
        and :meth:`condition` explains a solve that fails."""
        fact = BandedFactorization(self)
        x = fact.solve(rhs)
        if not np.isfinite(x).all():  # inf from overflow, NaN from a NaN or inf entry
            j = int(np.isfinite(x).reshape(len(x), -1).all(axis=1).argmin())
            raise SingularSystem(f"banded LU solution is not finite: {x[j]} at unknown {j}")
        return fact, x

    def abs_row_sums(self) -> np.ndarray:
        """The row sums ``|A| e``, one band diagonal at a time, so each row in
        column order."""
        n, kl, ku = self.dim, self.lower_bw, self.upper_bw
        ab = np.abs(self._band()[kl:])  # the band, without the rows the LU fills
        d = np.zeros(n)
        for k in range(-min(kl, n - 1), min(ku, n - 1) + 1):  # the entries A[i, i + k]
            d[max(0, -k) : n - max(0, k)] += ab[ku - k, max(0, k) : n + min(0, k)]
        return d

    def condition(self) -> tuple[float, int]:
        """:func:`condition_estimate` of the matrix, from its :meth:`abs_row_sums`
        and its LU.  Factorizes the matrix in place, as :meth:`factorize` does,
        so the matrix cannot be used again; a zero pivot raises
        :class:`SingularSystem`."""
        d = self.abs_row_sums()
        fact = BandedFactorization(self)
        return condition_estimate(d, fact.solve, partial(fact.solve, trans=1))


def condition_estimate(d, solve, solve_transposed) -> tuple[float, int]:
    """Lower estimate of Skeel's condition number ``|| |J^-1| |J| ||_inf`` of a
    matrix ``J`` (Skeel, J. ACM 26, 1979), which no row scaling of the system
    changes, and the 0-based unknown at which the estimate's last forward
    solve ``z`` peaks.  ``d`` holds the row sums ``|J| e``; ``solve(b)`` and
    ``solve_transposed(b)`` return ``J^-1 b`` and ``J^-T b``, for ``b`` of
    one or two columns, and do not write to ``b``.

    The condition number is ``||D J^-T||_1`` with ``D = diag(d)``.  It is
    estimated as LAPACK's ``dla_gbrcond`` does: the ``dlacn2`` iteration of
    Hager, SIAM J. Sci. Stat. Comput. 5 (1984), with Higham's alternating-sign
    safeguard, ACM TOMS 14 (1988); 3 to 10 solves, so the work is linear in
    ``n`` for a banded ``J``.  Overflow gives ``inf``.  Near a singular matrix
    ``z`` approximates a null vector, so its peak typically names one of the
    nearly dependent columns.  Signs are kept as masks ``y >= 0``; the unit
    vectors are written into one buffer that every step reuses."""
    n = len(d)
    neg_d = -d
    b = np.empty((2, n))  # b.T: the two columns of the first solve
    b[0] = 1.0 / n
    b[1] = 1.0 + np.arange(n) / max(n - 1, 1)
    b[1, 1::2] *= -1.0  # Higham's alternating-sign vector
    e = np.zeros(n)  # the unit vector e_j of each transposed solve
    with np.errstate(over="ignore", invalid="ignore"):
        y = solve_transposed(b.T)
        y *= d[:, None]
        alt_est = 2.0 * np.abs(y[:, 1]).sum() / (3.0 * n)
        est = np.abs(y[:, 0]).sum()
        positive = y[:, 0] >= 0.0
        z = solve(np.where(positive, d, neg_d))  # D sign(y)
        j = int(np.abs(z).argmax())
        for _ in range(4):  # at most 4 unit-vector solves, as in dlacn2 (ITMAX = 5)
            e[j] = 1.0
            y = solve_transposed(e)
            e[j] = 0.0
            y *= d
            est_old, est = est, np.abs(y).sum()
            new_positive = y >= 0.0
            if est <= est_old or (new_positive == positive).all():
                break
            positive = new_positive
            z = solve(np.where(positive, d, neg_d))
            j_last, j = j, int(np.abs(z).argmax())
            if z[j_last] == abs(z[j]):  # Hager's test ||z||_inf <= z^T e_j
                break
    return float(alt_est if alt_est > est else est), j


class BandedFactorization:
    """Banded LU with partial pivoting (LAPACK ``gbtrf``/``gbtrs``), computed
    in the storage of the matrix it factorizes, which it takes over."""

    def __init__(self, A: BandedMatrix):
        kl, ku = A.lower_bw, A.upper_bw
        ab = A._band()
        A._ab = None
        self._lu, self._ipiv, info = dgbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise SingularSystem(f"zero pivot at column {info} in banded LU")
        if info < 0:
            raise ValueError(f"illegal argument {-info} passed to gbtrf")
        self._kl, self._ku = kl, ku

    def solve(self, rhs, trans: int = 0) -> np.ndarray:
        """Solve ``A x = rhs``, or ``A^T x = rhs`` for ``trans=1``, using the
        stored factorization; ``x`` has the shape of ``rhs``."""
        x, info = dgbtrs(self._lu, self._kl, self._ku, rhs, self._ipiv, trans=trans)
        if info != 0:
            raise SingularSystem(f"banded back substitution failed (info={info})")
        return x


# ---------------------------------------------------------------------------
# P1 assembly for nodal curve problems
# ---------------------------------------------------------------------------


def p1_covectors(u, h: float, load) -> np.ndarray:
    """Covectors of ``int u'.w' + load.w`` at the ``n`` interior nodes.

    ``u`` holds all ``n + 2`` nodal values, ``load`` the interior ones of the
    load (trapezoidal rule).
    """
    u = np.asarray(u, dtype=float)
    flux = (u[1:] - u[:-1]) / h  # np.diff's subtraction, without its wrapper
    return flux[:-1] - flux[1:] + h * np.asarray(load, dtype=float)


def sphere_field_blocks(y, rows, g, h: float, nodal=None):
    """Jacobian blocks of a P1 unit-vector field ``y`` in its tangent frames,
    given as their :func:`~bundle_newton.geometry.frame_rows` ``rows``.

    The residual pairs the ``(n, 3)`` covectors ``g`` of :func:`p1_covectors`
    with test vectors that follow ``y`` by projection.  Its covariant
    derivative is the projected Euclidean Jacobian (``2 / h`` and ``-1 / h``)
    plus the Weingarten term ``-<g, y> I``.  Returns the ``(n, 2, 2)``
    diagonal blocks, ``2 / h - <g, y>`` times the identity plus the optional
    ``(n, 2, 2)`` blocks ``nodal`` of nodal terms, already projected (``V^T J
    V`` for a nodal Euclidean Jacobian ``J``), and the ``(n - 1, 2, 2)``
    upper blocks ``-(1 / h) V_i^T V_{i+1}``, each entry a sum over the three
    components in order, on the contiguous rows; the lower blocks are their
    transposes.
    """
    diag = np.zeros((len(y), 2, 2))
    diag[:, 0, 0] = diag[:, 1, 1] = 2 / h - dot(g, y)[:, 0]
    if nodal is not None:
        diag += nodal
    upper = np.einsum("kan,kbn->abn", rows[:, :, :-1], rows[:, :, 1:])
    upper *= -(1 / h)
    return diag, upper.transpose(2, 0, 1)


def assemble_intervals_vector(V, g, y=None) -> np.ndarray:
    """Residual vector ``V[p]^T g[p]`` of the ``(n, d)`` nodal covectors ``g``.

    ``V`` holds ``(n, d, m)`` test frames.  Given trial points ``y``, the
    covectors are first projected onto the tangent planes at ``y``, and the
    frames are not: ``V^T (P_y g)`` equals the transported residual ``(P_y
    V)^T g`` because the projection is symmetric, and projects one ``(n,
    3)`` array in place of both frame columns.
    """
    if y is not None:
        g = tangent_project(y, g)
    return np.einsum("kmd,kd->km", V.swapaxes(-1, -2), g).ravel()


def assemble_intervals(diag, upper) -> BandedMatrix:
    """Band storage of the block tridiagonal matrix of :func:`sphere_field_blocks`.

    Three block runs of stride ``m``: diagonal, upper and transposed upper.
    Adding onto the zero storage turns ``-0.0`` entries into ``+0.0``.
    """
    n, m, _ = diag.shape
    A = BandedMatrix(n * m, 2 * m - 1, 2 * m - 1)
    A.add_blocks(0, 0, diag, m)
    A.add_blocks(0, m, upper, m)
    A.add_blocks(m, 0, upper.transpose(0, 2, 1), m)
    return A
