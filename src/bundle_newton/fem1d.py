"""One-dimensional P1/P0 discretization layer.

Uniform grids, nodal curves on the sphere, one banded matrix type with its
LU solver (LAPACK ``gbtrf``/``gbtrs``), and the P1 assembly of unit-vector
fields shared by the curve and rod problems.

Array-first: nodal data are stacked ``(n, ...)`` arrays.  Every Newton
matrix of the package, a block-tridiagonal curve Jacobian as much as the
rod's saddle-point matrix, is a :class:`BandedMatrix`, filled by
:meth:`BandedMatrix.add_blocks` (runs of equally spaced dense blocks, one
strided band slice per block entry) and factorized by the same banded LU
with partial pivoting.

Nested iteration moves a solution to a finer grid of the same interval:
:func:`interpolate_rows` is the piecewise-linear interpolation it is made
of, and :meth:`NodalCurve.prolong` adds the step back onto the sphere.

The three BLAS/LAPACK routines the solver calls, ``dgbtrf``, ``dgbtrs`` and
``dgbmv``, come from scipy's compiled LAPACK and BLAS modules
(``scipy.linalg._flapack``/``_fblas``), loaded without ``scipy.linalg``'s
package, whose import would cost more than most runs; where scipy's layout
differs they come from ``scipy.linalg.lapack``/``blas``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import UNIT_NORM_TOL, dot, normalized, retract_sphere, tangent_basis, tangent_project

CONDITION_LIMIT = 1e14
# at or below this dimension the check computes Skeel's number exactly: one solve
# of n + 1 right-hand sides costs less than the estimate's 2 to 10 sequential solves
# (timeit minimum, one thread: dim 20: 22 against 55 us, dim 40: 31 against 36,
# dim 50: 44 against 38, dim 83: 122 against 64)
EXACT_CONDITION_DIM = 40


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
    """LAPACK ``dgbtrf``/``dgbtrs`` and BLAS ``dgbmv``, the same objects that
    ``scipy.linalg.lapack``/``blas`` export."""
    flapack = _load_scipy_linalg_extension("_flapack")
    fblas = _load_scipy_linalg_extension("_fblas")
    try:
        return flapack.dgbtrf, flapack.dgbtrs, fblas.dgbmv
    except AttributeError:  # a module that was not loaded is None
        from scipy.linalg.blas import dgbmv
        from scipy.linalg.lapack import dgbtrf, dgbtrs

        return dgbtrf, dgbtrs, dgbmv


dgbtrf, dgbtrs, dgbmv = _band_routines()


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
        step = np.einsum("nij,nj->ni", self.basis, np.reshape(xi, (-1, 2)))
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
    """General banded matrix in LAPACK band storage.

    Column ``j`` of the matrix lives in column ``j`` of the storage array,
    with entry ``A[i, j]`` at row ``lower_bw + upper_bw + i - j``.  The
    leading ``lower_bw`` storage rows stay zero until factorization, where
    partial pivoting may grow the upper bandwidth into them.  Entries outside
    the band are identically zero by construction; writing one is an error.
    """

    def __init__(self, dim: int, lower_bw: int, upper_bw: int):
        if dim < 1 or lower_bw < 0 or upper_bw < 0:
            raise ValueError("invalid banded matrix shape")
        self.dim = dim
        self.lower_bw = lower_bw
        self.upper_bw = upper_bw
        self._ab = np.zeros((2 * lower_bw + upper_bw + 1, dim))

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
        ab = self._ab
        entries = blocks.transpose(1, 2, 0)  # entries[a, b]: entry (a, b) of every block
        mid = self.lower_bw + self.upper_bw + row0 - col0  # storage row of entry (0, 0)
        stop = col0 + span + 1
        for a in range(p - 1, -1, -1):
            for b in range(q):
                band = ab[mid + a - b, col0 + b : stop + b : stride]
                band += entries[a, b]

    def factorize(self, rhs) -> tuple["BandedFactorization", np.ndarray]:
        """The banded LU of the matrix and the solution ``x`` of ``A x = rhs``.
        Raises :class:`SingularSystem` at a zero pivot, or when Skeel's
        condition number is not below ``CONDITION_LIMIT``; no row scaling of
        the system changes it.  Up to ``EXACT_CONDITION_DIM`` unknowns the
        number is exact (:meth:`BandedFactorization.exact_condition`), above
        that its lower estimate (:meth:`BandedFactorization.condition`), so a
        small system is checked at least as strictly.  Either way ``x`` is
        the same to the bit, and the error's message says which of the two
        it checked ("condition number" or "condition estimate")."""
        fact = BandedFactorization(self)
        exact = self.dim <= EXACT_CONDITION_DIM
        cond, x, peak = (fact.exact_condition if exact else fact.condition)(rhs)
        if not cond < CONDITION_LIMIT:  # also rejects inf and NaN
            raise SingularSystem(
                f"banded LU is near singular (condition {'number' if exact else 'estimate'} "
                f"{cond:.2e}, largest at unknown {peak})"
            )
        return fact, x


class BandedFactorization:
    """Banded LU with partial pivoting (LAPACK ``gbtrf``/``gbtrs``)."""

    def __init__(self, A: BandedMatrix):
        n, kl, ku = A.dim, A.lower_bw, A.upper_bw
        # |A| e in the LU's buffer: dgbmv reads its kl zero rows as more upper band,
        # and scipy asks for at least len(ab) result rows, those past n being 0
        ab = np.abs(A._ab, order="F")
        self._row_sums = dgbmv(max(n, len(ab)), n, kl, kl + ku, 1.0, ab, np.ones(n))[:n]
        np.copyto(ab, A._ab)
        self._lu, self._ipiv, info = dgbtrf(ab, kl, ku, overwrite_ab=True)
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

    def exact_condition(self, rhs) -> tuple[float, np.ndarray, int]:
        """Skeel's condition number ``max(|A^-1| (|A| e))``, the solution ``x`` of
        ``A x = rhs`` and the 0-based unknown, the row of ``A^-1``, of the maximum.

        One ``gbtrs`` call, O(n^2) work, solves the stacked right-hand side
        ``[I | rhs]``; it treats each column on its own, so ``x`` is bitwise
        that of a solve of ``rhs`` alone.  Near a singular matrix the largest
        rows of ``A^-1`` are those of a null vector's large entries, typically
        the nearly dependent columns.  Overflow gives ``inf``."""
        d = self._row_sums
        n = d.size
        b = np.zeros((n + 1, n))  # b.T: the columns of I, then rhs
        b[:n].flat[:: n + 1] = 1.0
        b[n] = rhs
        with np.errstate(over="ignore", invalid="ignore"):
            sol = self.solve(b.T)
            rows = np.abs(sol[:, :n]) @ d
        j = int(rows.argmax())
        return float(rows[j]), sol[:, n], j

    def condition(self, rhs) -> tuple[float, np.ndarray, int]:
        """Lower estimate of Skeel's condition number ``|| |A^-1| |A| ||_inf``
        (Skeel, J. ACM 26, 1979), the solution ``x`` of ``A x = rhs`` and the
        0-based unknown at which the estimate's last forward solve ``z`` peaks.

        The condition number is ``||D A^-T||_1`` with ``D = diag(|A| e)``, estimated
        as LAPACK's ``dla_gbrcond`` does: the ``dlacn2`` iteration of Hager, SIAM J.
        Sci. Stat. Comput. 5 (1984), with Higham's alternating-sign safeguard, ACM
        TOMS 14 (1988).  ``rhs`` rides in the first forward solve; overflow gives
        ``inf``.  Near a singular matrix ``z`` approximates a null vector, so its
        peak typically names one of the nearly dependent columns.  Signs are
        kept as masks ``y >= 0``; the stacked right-hand sides and the unit
        vectors are written into two buffers that every step reuses."""
        d = self._row_sums
        n = d.size
        neg_d = -d
        b = np.empty((2, n))  # b.T: the two columns of the first solves
        b[0] = 1.0 / n
        b[1] = 1.0 + np.arange(n) / max(n - 1, 1)
        b[1, 1::2] *= -1.0  # Higham's alternating-sign vector
        e = np.zeros(n)  # the unit vector e_j of each transposed solve
        with np.errstate(over="ignore", invalid="ignore"):
            y = self.solve(b.T, trans=1)
            y *= d[:, None]
            alt_est = 2.0 * np.abs(y[:, 1]).sum() / (3.0 * n)
            est = np.abs(y[:, 0]).sum()
            positive = y[:, 0] >= 0.0
            b[0] = np.where(positive, d, neg_d)  # d * sign(y)
            b[1] = rhs
            z, x = self.solve(b.T).T
            j = int(np.abs(z).argmax())
            for _ in range(4):  # at most 4 unit-vector solves, as in dlacn2 (ITMAX = 5)
                e[j] = 1.0
                y = self.solve(e, trans=1)
                e[j] = 0.0
                y *= d
                est_old, est = est, np.abs(y).sum()
                new_positive = y >= 0.0
                if est <= est_old or (new_positive == positive).all():
                    break
                positive = new_positive
                z = self.solve(np.where(positive, d, neg_d))
                j_last, j = j, int(np.abs(z).argmax())
                if z[j_last] == abs(z[j]):  # Hager's test ||z||_inf <= z^T e_j
                    break
        return float(alt_est if alt_est > est else est), x, j


# ---------------------------------------------------------------------------
# P1 assembly for nodal curve problems
# ---------------------------------------------------------------------------


def p1_covectors(u, h: float, load) -> np.ndarray:
    """Covectors of ``int u'.w' + load.w`` at the ``n`` interior nodes.

    ``u`` holds all ``n + 2`` nodal values, ``load`` the interior ones of the
    load (trapezoidal rule).
    """
    flux = np.diff(np.asarray(u, dtype=float), axis=0) / h
    return flux[:-1] - flux[1:] + h * np.asarray(load, dtype=float)


def sphere_field_blocks(y, V, g, h: float, nodal=None):
    """Jacobian blocks of a P1 unit-vector field ``y`` in its tangent frames ``V``.

    The residual pairs the ``(n, 3)`` covectors ``g`` of :func:`p1_covectors`
    with test vectors that follow ``y`` by projection.  Its covariant
    derivative is the projected Euclidean Jacobian (``2 / h``, ``-1 / h`` and
    the optional ``(n, 3, 3)`` Jacobian ``nodal`` of nodal terms) plus the
    Weingarten term ``-<g, y> I``.  Returns the ``(n, 2, 2)`` diagonal and
    ``(n - 1, 2, 2)`` upper blocks; the lower blocks are their transposes.
    """
    VT = np.swapaxes(V, -1, -2)
    scalar = 2 / h - dot(g, y)[:, 0]
    diag = scalar[:, None, None] * np.eye(2)
    if nodal is not None:
        diag = diag + VT @ nodal @ V
    upper = -(1 / h) * (VT[:-1] @ V[1:])
    return diag, upper


def assemble_intervals_vector(V, g, y=None) -> np.ndarray:
    """Residual vector ``V[p]^T g[p]`` of the ``(n, d)`` nodal covectors ``g``.

    ``V`` holds ``(n, d, m)`` test frames.  Given trial points ``y``, the frame
    columns are first projected onto the tangent planes at ``y`` (vector transport).
    """
    contract = np.swapaxes(V, -1, -2)
    if y is not None:
        contract = tangent_project(y[:, None], contract)
    return np.einsum("kmd,kd->km", contract, g).ravel()


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
