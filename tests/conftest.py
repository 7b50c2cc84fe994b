"""Shared helpers for the test suite: random points, states, FD oracles, the
reference scatter and dense view of band matrices, and the full reference
of the rod's Newton matrix; and the ``--frame-seeds`` option of acceptance
criterion 11."""

import copy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bundle_newton
from bundle_newton import BandedMatrix, Grid, NodalCurve
from bundle_newton.fem1d import sphere_field_blocks
from bundle_newton.geometry import frame_rows
from bundle_newton.problems import RodState
from bundle_newton.problems.rod import RodNewtonMatrix, blocks


def pytest_addoption(parser):
    parser.addoption(
        "--frame-seeds", default="11", metavar="SEEDS",
        help="rotation seeds of the per-node frames in acceptance criterion 11: "
             "seeds and ranges, comma separated, such as 0-39 (default: 11)",
    )


def _frame_seeds(config) -> list:
    """The seeds of ``--frame-seeds``, ranges expanded, in order."""
    seeds = []
    for part in config.getoption("--frame-seeds").split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def pytest_generate_tests(metafunc):
    # several seeds run one test per seed; one seed keeps the plain test ids
    if "frame_seed" in metafunc.fixturenames:
        seeds = _frame_seeds(metafunc.config)
        if len(seeds) > 1:
            metafunc.parametrize("frame_seed", seeds, ids=[f"seed{seed}" for seed in seeds])


@pytest.fixture
def frame_seed(request) -> int:
    """The rotation seed of criterion 11's frames, when ``--frame-seeds`` names one."""
    return _frame_seeds(request.config)[0]


def run_isolated_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh ``python -I`` interpreter, with the source tree
    of the tested ``bundle_newton`` first on ``sys.path`` and ``args`` in
    ``sys.argv[1:]``."""
    src = str(Path(bundle_newton.__file__).resolve().parents[1])
    prelude = f"import sys; sys.path.insert(0, {src!r})\n"
    return subprocess.run([sys.executable, "-I", "-c", prelude + code, *args],
                          capture_output=True, text=True, timeout=120)


def _first_entry(i, j, flagged) -> str:
    """``"(i, j)"`` of the first entry set in ``flagged``, for error messages."""
    i, j, flagged = np.broadcast_arrays(i, j, flagged)
    k = np.argmax(flagged)
    return f"({i.flat[k]}, {j.flat[k]})"


def band_add(A, i, j, value) -> None:
    """Add ``value`` to the entries ``(i, j)`` of the ``BandedMatrix`` ``A``.

    The reference scatter: the index arrays are broadcast against each other
    and ``value`` against their shape, and repeated index pairs accumulate
    (``np.add.at``).  Nothing is written if an entry lies outside the matrix
    (``IndexError``) or outside the stored band (``ValueError``).
    """
    i, j = np.asarray(i), np.asarray(j)
    row = A.lower_bw + A.upper_bw + i - j
    if row.size == 0:
        return
    if min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= A.dim:
        outside = (i < 0) | (i >= A.dim) | (j < 0) | (j >= A.dim)
        raise IndexError(f"entry {_first_entry(i, j, outside)} outside the matrix")
    row_hi = 2 * A.lower_bw + A.upper_bw
    if row.min() < A.lower_bw or row.max() > row_hi:
        off_band = (row < A.lower_bw) | (row > row_hi)
        raise ValueError(f"entry {_first_entry(i, j, off_band)} lies outside the stored band")
    np.add.at(A._band(), (row, j), value)


def band_positions(n: int) -> np.ndarray:
    """Entry ``k`` is the row and column of the rod's unknown ``k`` (numbered
    as in its residual and its step, :func:`~bundle_newton.problems.rod.blocks`)
    in the reference band, which interleaves the unknowns as ``mu_0``, then
    ``(y_i, v_i, mu_i)`` per interior node, so that the matrix has
    bandwidths 9/9."""
    positions = np.empty(8 * n + 3, dtype=int)
    y, v, mu = blocks(positions, n)
    groups = 3 + np.arange(8 * n).reshape(n, 8)
    mu[0], y[:], v[:], mu[1:] = np.arange(3), groups[:, :3], groups[:, 3:5], groups[:, 5:]
    return positions


def in_rod_order(dense) -> np.ndarray:
    """The dense reference band ``dense`` of a rod, rows and columns in the
    order of its residual and its step."""
    k = band_positions((len(dense) - 3) // 8)
    return dense[np.ix_(k, k)]


def add_scatter_jacobian(V, h: float, diag, upper) -> BandedMatrix:
    """Reference assembly of the rod's Newton matrix: the full ``8 n + 3``
    matrix in the reference band's order (:func:`band_positions`), at
    bandwidths 9/9, as 11 ``band_add`` scatters over per-node dof index
    arrays, from the frames ``V``, the mesh size ``h`` and the direction
    field's ``(n, 2, 2)`` diagonal and ``(n - 1, 2, 2)`` upper blocks."""
    n = len(V)
    A = BandedMatrix(8 * n + 3, 9, 9)
    VT = np.swapaxes(V, -1, -2)
    eye3 = np.eye(3)
    y, v, lam = blocks(band_positions(n), n)
    lam_left, lam_right = lam[:-1], lam[1:]

    def add(rows, cols, blocks):
        band_add(A, rows[..., :, None], cols[..., None, :], blocks)

    add(y, lam_left, eye3)
    add(y, lam_right, -eye3)
    add(v, v, diag)
    add(v[:-1], v[1:], upper)
    add(v[1:], v[:-1], np.swapaxes(upper, -1, -2))
    add(v, lam_left, -0.5 * h * VT)
    add(v, lam_right, -0.5 * h * VT)
    add(lam_right, y, -eye3)
    add(lam_right, v, -0.5 * h * V)
    add(lam_left, y, eye3)
    add(lam_left, v, -0.5 * h * V)
    return A


def rod_reference(problem, state) -> BandedMatrix:
    """:func:`add_scatter_jacobian` of ``problem``, a rod, at ``state``, with
    the direction blocks computed from the state."""
    V, h = state.v.basis, problem.grid.h
    blocks = sphere_field_blocks(state.v.interior, frame_rows(V), problem.evaluate(state)[1], h)
    return add_scatter_jacobian(V, h, *blocks)


def as_banded(A) -> BandedMatrix:
    """The ``BandedMatrix`` ``A`` itself; a rod's Newton matrix as
    :func:`add_scatter_jacobian` of its parts: its frames, its ``h`` and the
    blocks of its direction Jacobian ``A.A``, which stays unfactorized."""
    if not isinstance(A, RodNewtonMatrix):
        return A
    n = len(A.V)
    blocks = to_dense(A.A).reshape(n, 2, n, 2)
    k = np.arange(n)
    return add_scatter_jacobian(A.V, A.h, blocks[k, :, k], blocks[k[:-1], :, k[1:]])


def to_dense(A) -> np.ndarray:
    """The ``BandedMatrix`` ``A``, or a rod's Newton matrix by
    :func:`as_banded` and :func:`in_rod_order`, as a dense ``(dim, dim)``
    array."""
    if isinstance(A, RodNewtonMatrix):
        return in_rod_order(to_dense(as_banded(A)))
    i, j = np.indices((A.dim, A.dim))
    row = A.lower_bw + A.upper_bw + i - j
    in_band = (row >= A.lower_bw) & (row <= 2 * A.lower_bw + A.upper_bw)
    ab = A._band()
    return np.where(in_band, ab[np.clip(row, 0, len(ab) - 1), j], 0.0)


def random_unit(rng, z_margin=None):
    """Random unit vector; optionally bounded away from the poles."""
    while True:
        v = rng.standard_normal(3)
        nrm = np.linalg.norm(v)
        if nrm < 0.1:
            continue
        v = v / nrm
        if z_margin is None or abs(v[2]) <= 1.0 - z_margin:
            return v


def random_tangent(rng, y, scale=1.0):
    u = rng.standard_normal(3)
    u = u - y * (y @ u)
    return scale * u


def random_sphere_curve(grid, rng, z_margin=None):
    """Random admissible nodal curve, optionally away from the poles."""
    pts = np.array([random_unit(rng, z_margin) for _ in range(grid.n_nodes)])
    return NodalCurve(grid, pts)


def random_obstacle_curve(grid, rng, problem, kink_margin=1e-4):
    """Random curve with every node at least ``kink_margin`` from the cap.

    The central difference step of the consistency oracles crosses margins
    comparable to the step size, so states are generated clear of the kink.
    """
    pts = []
    for _ in range(grid.n_nodes):
        while True:
            y = random_unit(rng)
            if abs(problem.gap(y)) >= kink_margin:
                pts.append(y)
                break
    return NodalCurve(grid, np.array(pts))


def random_rod_state(grid, rng, base=None):
    base = base if base is not None else _straight_rod(grid)
    y = base.y + 0.2 * rng.standard_normal(base.y.shape)
    v = base.v.points + 0.3 * rng.standard_normal(base.v.points.shape)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    lam = 0.5 * rng.standard_normal(base.lam.shape)
    y[0], y[-1] = base.y[0], base.y[-1]
    v[0], v[-1] = base.v.points[0], base.v.points[-1]
    return RodState(y, NodalCurve(grid, v), lam)


def _straight_rod(grid):
    from bundle_newton.problems import rod_initial_guess

    return rod_initial_guess(grid, (0.0, 0.0, 0.0), (0.8, 0.0, 0.0),
                             (1 / np.sqrt(5), 0, 2 / np.sqrt(5)),
                             (1 / np.sqrt(1.64), 0, 0.8 / np.sqrt(1.64)))


def residual_at(problem, state, frames=None):
    """``problem``'s residual at ``state``, from its evaluation: against the
    test frames of the state ``frames`` if given (a trial residual)."""
    return problem.assemble_residual(problem.evaluate(state), frames)


def jacobian_at(problem, state):
    """``problem``'s Newton matrix at ``state``, from its evaluation."""
    return problem.assemble_jacobian(problem.evaluate(state))


def jacobian_fd_error(problem, state, rng, n_directions=5, step=1e-5):
    """Worst relative error of the Jacobian action against a central
    difference of the transported residual along random directions."""
    dense = to_dense(jacobian_at(problem, state))
    worst = 0.0
    for _ in range(n_directions):
        xi = rng.standard_normal(len(dense))
        xi /= np.abs(xi).max()
        jxi = dense @ xi
        plus = residual_at(problem, problem.retract(state, xi, step), state)
        minus = residual_at(problem, problem.retract(state, xi, -step), state)
        fd = (plus - minus) / (2.0 * step)
        worst = max(worst, np.abs(jxi - fd).max() / (1.0 + np.abs(jxi).max()))
    return worst


def block_tridiag(diag, lower, upper):
    """Band storage of the block tridiagonal matrix with the given
    ``(n, m, m)`` diagonal and ``(n - 1, m, m)`` off-diagonal blocks."""
    n, m, _ = diag.shape
    A = BandedMatrix(n * m, 2 * m - 1, 2 * m - 1)
    dofs = np.arange(n * m).reshape(n, m)
    band_add(A, dofs[:, :, None], dofs[:, None, :], diag)
    band_add(A, dofs[:-1, :, None], dofs[1:, None, :], upper)
    band_add(A, dofs[1:, :, None], dofs[:-1, None, :], lower)
    return A


def skeel_condition(dense) -> float:
    """Skeel's condition number ``|| |A^-1| |A| ||_inf`` of the dense matrix ``A``."""
    dense = np.asarray(dense, dtype=float)
    return float(np.max(np.abs(np.linalg.inv(dense)) @ np.abs(dense).sum(axis=1)))


def spy_factorize(monkeypatch) -> list:
    """Record every Newton matrix factorized, in order: each matrix that
    ``BandedMatrix.factorize`` (a curve problem's) or
    ``RodNewtonMatrix.factorize`` (the rod's, which factorizes its ``A``
    without the former) is called on."""
    matrices = []
    for cls in (BandedMatrix, RodNewtonMatrix):

        def spy(A, *args, factorize=cls.factorize):
            matrices.append(A)
            return factorize(A, *args)

        monkeypatch.setattr(cls, "factorize", spy)
    return matrices


def banded_from_dense(dense, lower_bw=None, upper_bw=None):
    """The square matrix ``dense`` in band storage, with full bandwidths unless
    given; entries outside the band must be zero."""
    dense = np.asarray(dense, dtype=float)
    n = len(dense)
    kl = n - 1 if lower_bw is None else lower_bw
    ku = n - 1 if upper_bw is None else upper_bw
    A = BandedMatrix(n, kl, ku)
    i, j = np.indices(dense.shape)
    in_band = (i - j <= kl) & (j - i <= ku)
    assert not dense[~in_band].any(), "nonzero entry outside the band"
    band_add(A, i[in_band], j[in_band], dense[in_band])
    return A


def random_block_tridiag(rng, n_blocks, m):
    """Well conditioned random block tridiagonal matrix (diagonally boosted)."""
    diag = rng.standard_normal((n_blocks, m, m))
    lower = rng.standard_normal((max(n_blocks - 1, 0), m, m))
    upper = rng.standard_normal((max(n_blocks - 1, 0), m, m))
    return block_tridiag(diag + 4.0 * m * np.eye(m), lower, upper)


def random_banded(rng, dim, kl, ku):
    """Random banded matrix, diagonally boosted; entries drawn column by column."""
    A = BandedMatrix(dim, kl, ku)
    j, i = np.indices((dim, dim))  # row-major order runs j-major, i-minor
    in_band = (i - j <= kl) & (j - i <= ku)
    band_add(A, i[in_band], j[in_band], rng.standard_normal(np.count_nonzero(in_band)))
    band_add(A, np.arange(dim), np.arange(dim), 4.0 * (kl + ku + 1))
    return A


def reference_condition(A) -> tuple[float, int]:
    """``BandedMatrix.condition``'s estimate and unknown as first written: the
    same Hager/Higham iteration with a fresh sign array, a fresh unit vector
    and stacked right-hand sides in every step, on ``|A| e`` summed along the
    band diagonals in column order.  The oracle of the estimator's
    bit-for-bit behaviour; it factorizes a copy, so ``A`` stays usable."""
    from bundle_newton.fem1d import BandedFactorization

    A = copy.deepcopy(A)
    n, kl, ku = A.dim, A.lower_bw, A.upper_bw
    d = np.zeros(n)
    for k in range(-kl, ku + 1):  # entries A[i, i + k], column order in each row
        rows = np.arange(max(0, -k), min(n, n - k))
        d[rows] += np.abs(A._ab[kl + ku - k, rows + k])
    fact = BandedFactorization(A)
    alt = 1.0 + np.arange(n) / max(n - 1, 1)
    alt[1::2] *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        y = fact.solve(np.array([np.full(n, 1.0 / n), alt]).T, trans=1)
        y *= d[:, None]
        alt_est = 2.0 * np.abs(y[:, 1]).sum() / (3.0 * n)
        est = np.abs(y[:, 0]).sum()
        sign = np.where(y[:, 0] >= 0.0, 1.0, -1.0)
        z = fact.solve(d * sign)
        j = int(np.argmax(np.abs(z)))
        for _ in range(4):
            y = fact.solve(np.eye(1, n, j)[0], trans=1)
            y *= d
            est_old, est = est, np.abs(y).sum()
            new_sign = np.where(y >= 0.0, 1.0, -1.0)
            if np.array_equal(new_sign, sign) or est <= est_old:
                break
            sign = new_sign
            z = fact.solve(d * sign)
            j_last, j = j, int(np.argmax(np.abs(z)))
            if z[j_last] == abs(z[j]):
                break
    return float(alt_est if alt_est > est else est), j
