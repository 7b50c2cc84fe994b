import numpy as np
import pytest

from bundle_newton import (
    DegenerateUpdate,
    Grid,
    NewtonConfig,
    NodalCurve,
    SingularSystem,
    Termination,
    damped_newton,
)
from bundle_newton.problems import RodProblem, RodState, rod, rod_initial_guess
import oracles
from conftest import (
    as_banded,
    band_positions,
    in_rod_order,
    jacobian_at,
    jacobian_fd_error,
    random_rod_state,
    residual_at,
    rod_reference,
    skeel_condition,
    to_dense,
)

SQRT5 = np.sqrt(5.0)


def dofs(n):
    """Dof indices of a rod of ``n`` interior nodes, as views ``(y, v, mu)``
    of its numbering (:func:`rod.blocks`)."""
    return rod.blocks(np.arange(8 * n + 3), n)


def y_dofs(n, i):
    """Dof indices of the positions at interior node(s) ``i``, shape ``(..., 3)``."""
    return dofs(n)[0][np.asarray(i) - 1]


def v_dofs(n, i):
    """Dof indices of the direction at interior node(s) ``i``, shape ``(..., 2)``."""
    return dofs(n)[1][np.asarray(i) - 1]


def lam_dofs(n, j):
    """Dof indices of the multiplier on interval(s) ``j``, shape ``(..., 3)``."""
    return dofs(n)[2][j]


def straight_rod_problem(grid):
    e1 = np.array([1.0, 0.0, 0.0])
    return RodProblem(grid, y0=(0, 0, 0), y1=(1, 0, 0), v0=e1, v1=e1)


# -- dof layout ------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 10])
def test_blocks_partition_the_unknowns(n):
    # every entry of a residual or step, or row of right-hand sides, lies in
    # exactly one of the views, which write through to it
    problem = RodProblem(Grid(1.0, n))
    for shape in ((problem.dof_count,), (problem.dof_count, 2)):
        counts = np.zeros(shape, dtype=int)
        y, v, mu = rod.blocks(counts, n)
        rest = shape[1:]
        assert (y.shape, v.shape, mu.shape) == ((n, 3, *rest), (n, 2, *rest), (n + 1, 3, *rest))
        for view in (y, v, mu):
            view += 1
        assert (counts == 1).all()


# -- initial guess -----------------------------------------------------------------


def test_initial_guess_reference_boundary_data():
    grid = Grid(1.0, 10)
    problem = RodProblem(grid)
    state = problem.initial_state()
    assert np.abs(np.linalg.norm(state.v.points, axis=1) - 1.0).max() < 1e-12
    assert np.array_equal(state.lam, np.zeros((grid.n_intervals, 3)))
    assert np.allclose(state.y[0], [0, 0, 0]) and np.allclose(state.y[-1], [0.8, 0, 0])
    assert np.allclose(state.v.points[0], [1 / SQRT5, 0, 2 / SQRT5])


def test_initial_guess_constant_directions():
    grid = Grid(1.0, 5)
    v = np.array([0.0, 0.6, 0.8])
    state = rod_initial_guess(grid, (0, 0, 0), (0, 0.6, 0.8), v, v)
    assert np.abs(state.v.points - v).max() < 1e-15


def test_initial_guess_single_interior_node():
    grid = Grid(1.0, 1)
    v0 = np.array([1.0, 0.0, 0.0])
    v1 = np.array([0.0, 1.0, 0.0])
    state = rod_initial_guess(grid, (0, 0, 0), (1, 0, 0), v0, v1)
    mid = 0.5 * (v0 + v1)
    assert np.allclose(state.v.points[1], mid / np.linalg.norm(mid))


def test_initial_guess_antipodal_directions_degenerate():
    grid = Grid(1.0, 3)
    with pytest.raises(DegenerateUpdate):
        rod_initial_guess(grid, (0, 0, 0), (1, 0, 0), (1, 0, 0), (-1, 0, 0))


def test_rod_rejects_antipodal_end_directions():
    # the initial guess would pass through the origin: no unique interpolant
    with pytest.raises(ValueError, match=r"\[1.0, 0.0, 0.0\] and \[-1.0, 0.0, 0.0\] are"):
        RodProblem(Grid(1.0, 4), v0=(1.0, 0.0, 0.0), v1=(-1.0, 0.0, 0.0))


def test_rod_needs_two_interior_nodes():
    # one node: 5 primal unknowns, 6 constraint rows, a singular Newton matrix
    with pytest.raises(ValueError, match="at least 2 interior nodes, got 1"):
        RodProblem(Grid(1.0, 1))
    problem = RodProblem(Grid(1.0, 2))
    _, stage = damped_newton(problem, problem.initial_state())
    assert stage.terminated is Termination.CONVERGED


def test_rod_refuses_a_chord_longer_than_the_rod():
    # the constraint rows sum to y1 - y0 = h sum_j (v_j + v_{j+1}) / 2, a sum of
    # vectors no longer than h: no discrete rod joins a longer chord
    for t_end, y1, chord in ((1.0, (2.0, 0.0, 0.0), "2.0"), (1.0, (1.0001, 0.0, 0.0), "1.0001"),
                             (0.5, (0.0, 0.6, 0.8), "1.0")):
        message = rf"the chord \|y1 - y0\| = {chord} exceeds the rod's length {t_end}$"
        with pytest.raises(ValueError, match=message):
            RodProblem(Grid(t_end, 4), y1=y1)
    # a chord as long as the rod is allowed: the straight rod's
    for problem in (straight_rod_problem(Grid(1.0, 4)), RodProblem(Grid(0.5, 4), y1=(0, 0.3, 0.4))):
        assert np.linalg.norm(problem.y1 - problem.y0) == problem.grid.t_end


def test_rod_state_validates_shapes_and_unit_directions():
    grid = Grid(1.0, 1)
    y = np.zeros((3, 3))
    v = np.tile([1.0, 0.0, 0.0], (3, 1))
    lam = np.zeros((2, 3))
    RodState(y, NodalCurve(grid, v), lam)
    with pytest.raises(ValueError):
        RodState(y[:2], NodalCurve(grid, v), lam)
    with pytest.raises(ValueError):
        RodState(y, NodalCurve(grid, v), lam[:1])
    for bad_row in ([0.0, 2.0, 0.0], [np.nan, np.nan, np.nan]):
        bad = v.copy()
        bad[1] = bad_row
        with pytest.raises(ValueError):
            RodState(y, NodalCurve(grid, bad), lam)


# -- residual ------------------------------------------------------------------------


def test_straight_rod_is_stationary():
    grid = Grid(1.0, 12)
    problem = straight_rod_problem(grid)
    state = problem.initial_state()
    assert np.abs(residual_at(problem, state)).max() < 1e-12


def test_constraint_rows_formula():
    rng = np.random.default_rng(0)
    grid = Grid(1.0, 6)
    problem = RodProblem(grid)
    state = random_rod_state(grid, rng)
    b = residual_at(problem, state)
    h, v = grid.h, state.v.points
    for j in range(grid.n_intervals):
        expected = h * ((state.y[j + 1] - state.y[j]) / h - 0.5 * (v[j] + v[j + 1]))
        assert np.abs(b[lam_dofs(grid.n_interior, j)] - expected).max() < 1e-14


def test_constraint_residuals_bytes_match_the_np_diff_form():
    # the position differences are y[1:] - y[:-1], np.diff's subtraction
    # without its wrapper: signed zeros, infinities and NaNs byte for byte
    rng = np.random.default_rng(38)
    grid = Grid(1.0, 9)
    state = random_rod_state(grid, rng)
    y = state.y.copy()
    y[::3] = -0.0
    y[1] = 0.0  # +0.0 between -0.0 rows: differences of either sign of zero
    y[5] = y[4]  # equal rows: zero differences of nonzero values
    y[2, 0], y[7, 1], y[8, 2] = np.inf, -np.inf, np.nan
    v = state.v.points.copy()
    v[3] = [-0.0, -0.0, -1.0]  # a unit direction with signed zeros
    v[6] = [0.0, -0.0, 1.0]
    for ys in (state.y, y):
        probe = RodState(ys, NodalCurve(grid, v), state.lam)
        reference = oracles.constraint_residuals(ys, v, grid.h)
        assert probe.constraint_residuals().tobytes() == reference.tobytes()


def test_multiplier_enters_linearly():
    rng = np.random.default_rng(1)
    grid = Grid(1.0, 5)
    problem = RodProblem(grid)
    state = random_rod_state(grid, rng)
    dlam = rng.standard_normal(state.lam.shape)
    shifted = RodState(state.y, state.v, state.lam + dlam)
    zero_lam = RodState(state.y, state.v, np.zeros_like(state.lam))
    only_dlam = RodState(state.y, state.v, dlam)
    diff = residual_at(problem, shifted) - residual_at(problem, state)
    linear_part = residual_at(problem, only_dlam) - residual_at(problem, zero_lam)
    assert np.abs(diff - linear_part).max() < 1e-12
    # constraint rows do not depend on the multiplier
    for j in range(grid.n_intervals):
        assert np.abs(diff[lam_dofs(grid.n_interior, j)]).max() == 0.0


def test_a_solve_evaluates_each_state_once(monkeypatch):
    # the start and every trial point are new states; the residual and the
    # Jacobian at an iterate share its covectors and constraint rows, and an
    # accepted trial's are the next iterate's.  The damped solve rejects trials
    calls = {"covectors": 0, "constraints": 0}
    p1_covectors, constraint_residuals = rod.p1_covectors, RodState.constraint_residuals

    def counted_covectors(*args):
        calls["covectors"] += 1
        return p1_covectors(*args)

    def counted_constraints(state):
        calls["constraints"] += 1
        return constraint_residuals(state)

    monkeypatch.setattr(rod, "p1_covectors", counted_covectors)
    monkeypatch.setattr(RodState, "constraint_residuals", counted_constraints)
    problem = RodProblem(Grid(1.0, 25))
    _, stage = damped_newton(problem, problem.initial_state())
    assert stage.terminated is Termination.CONVERGED
    trials = sum(it.inner_trials for it in stage.iterations)
    assert trials > sum(1 for it in stage.iterations if it.inner_trials)
    assert calls == {"covectors": 1 + trials, "constraints": 1 + trials}


def test_a_replaced_problem_starts_without_the_original_evaluation(monkeypatch):
    grid = Grid(1.0, 10)
    problem = RodProblem(grid)
    state = random_rod_state(grid, np.random.default_rng(9))
    at = problem.evaluate(state)
    before = problem.assemble_residual(at)
    calls = []
    p1_covectors = rod.p1_covectors
    monkeypatch.setattr(rod, "p1_covectors", lambda *args: calls.append(args) or p1_covectors(*args))
    stage = problem.replace(grid=Grid(1.0, 10))
    at_stage = stage.evaluate(state)
    got = stage.assemble_residual(at_stage)
    stage.assemble_jacobian(at_stage)
    assert len(calls) == 1 and got.tobytes() == before.tobytes()
    # the original's evaluation serves it still; a grid of another length gives other values
    problem.assemble_jacobian(at)
    assert len(calls) == 1
    longer = problem.replace(grid=Grid(2.0, 10))
    assert not np.array_equal(residual_at(longer, state), before)
    assert len(calls) == 2


# -- Jacobian -------------------------------------------------------------------------


def test_jacobian_position_block_vanishes_without_force():
    rng = np.random.default_rng(2)
    grid = Grid(1.0, 5)
    problem = RodProblem(grid)
    state = random_rod_state(grid, rng)
    dense = to_dense(jacobian_at(problem, state))
    for i in range(1, grid.n_interior + 1):
        for j in range(1, grid.n_interior + 1):
            block = dense[np.ix_(y_dofs(grid.n_interior, i), y_dofs(grid.n_interior, j))]
            assert np.abs(block).max() == 0.0


def test_jacobian_direction_block_is_pure_stiffness_at_straight_state():
    grid = Grid(1.0, 6)
    problem = straight_rod_problem(grid)
    state = problem.initial_state()  # constant v, zero multiplier
    dense = to_dense(jacobian_at(problem, state))
    h = grid.h
    from bundle_newton import tangent_basis

    vmats = [tangent_basis(p) for p in state.v.interior]
    for i in range(1, grid.n_interior + 1):
        diag = dense[np.ix_(v_dofs(grid.n_interior, i), v_dofs(grid.n_interior, i))]
        assert np.abs(diag - (2.0 / h) * np.eye(2)).max() < 1e-12 / h
        if i + 1 <= grid.n_interior:
            off = dense[np.ix_(v_dofs(grid.n_interior, i), v_dofs(grid.n_interior, i + 1))]
            expected = -(1.0 / h) * vmats[i - 1].T @ vmats[i]
            assert np.abs(off - expected).max() < 1e-12 / h


def test_jacobian_matches_fd_of_transported_residual():
    rng = np.random.default_rng(3)
    grid = Grid(1.0, 7)
    for sigma in (1.0, 2.5):
        problem = RodProblem(grid, sigma=sigma)
        for _ in range(3):
            state = random_rod_state(grid, rng)
            assert jacobian_fd_error(problem, state, rng) < 1e-6


def test_jacobian_respects_declared_bandwidth():
    rng = np.random.default_rng(4)
    grid = Grid(1.0, 6)
    problem = RodProblem(grid)
    state = random_rod_state(grid, rng)
    # with its unknowns in the reference band's order, interleaved per node
    dense = to_dense(jacobian_at(problem, state))
    k = band_positions(grid.n_interior)
    interleaved = np.empty_like(dense)
    interleaved[np.ix_(k, k)] = dense
    i, j = np.indices(dense.shape)
    assert not interleaved[np.abs(i - j) > 9].any()


def x_z_plane_rod_state(grid, rng):
    """A random rod state whose interior directions lie in the x-z plane, at
    angles from pi / 4 to above pi / 2.  Their frames hold exact zeros of
    either sign, so the mean frames ``-0.5 h V`` hold ``-0.0`` entries."""
    state = random_rod_state(grid, rng)
    angle = np.pi / 4 + np.pi * np.arange(grid.n_interior) / grid.n_interior
    v = state.v.points.copy()
    v[1:-1] = np.column_stack([np.cos(angle), np.zeros_like(angle), np.sin(angle)])
    return RodState(state.y, NodalCurve(grid, v), state.lam)


def test_jacobian_block_runs_equal_add_scatter_bitwise():
    # the reference adds onto zero storage, which turns every -0.0 into +0.0;
    # the rod's matrix, read through its parts, is the reference at the state
    rng = np.random.default_rng(5)
    for n in (2, 3, 10):
        grid = Grid(1.0, n)
        plane = x_z_plane_rod_state(grid, rng)
        mean_V = -0.5 * grid.h * plane.v.basis
        assert np.signbit(mean_V[mean_V == 0.0]).any()
        for sigma in (1.0, 2.5):
            problem = RodProblem(grid, sigma=sigma)
            for state in (random_rod_state(grid, rng), plane):
                assert np.abs(state.lam).min() > 0.0
                A = as_banded(jacobian_at(problem, state))
                B = rod_reference(problem, state)
                assert (A.dim, A.lower_bw, A.upper_bw) == (B.dim, B.lower_bw, B.upper_bw)
                assert A._ab.tobytes() == B._ab.tobytes(), (n, sigma)


def test_newton_matrix_solves_and_estimates_as_the_dense_reference():
    # block elimination against np.linalg.solve on the full 8n + 3 reference,
    # for one and two right-hand sides; the condition estimate is a lower
    # estimate of the reference's Skeel condition number
    rng = np.random.default_rng(24)
    for n in (2, 3, 10, 100):
        grid = Grid(1.0, n)
        problem = RodProblem(grid)
        for state in (problem.initial_state(), random_rod_state(grid, rng),
                      random_rod_state(grid, rng)):
            dense = in_rod_order(to_dense(rod_reference(problem, state)))
            for shape in ((problem.dof_count,), (problem.dof_count, 1), (problem.dof_count, 2)):
                rhs, again = rng.standard_normal(shape), rng.standard_normal(shape)
                fact, x = jacobian_at(problem, state).factorize(rhs)
                for b, got in ((rhs, x), (again, fact.solve(again))):
                    want = np.linalg.solve(dense, b)
                    assert got.shape == b.shape
                    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), (n, shape)
            estimate, unknown = jacobian_at(problem, state).condition()
            exact = skeel_condition(dense)
            assert 0.3 * exact <= estimate <= exact * (1.0 + 1e-10), (n, estimate / exact)
            assert 0 <= unknown < problem.dof_count


def test_a_non_finite_newton_step_raises_naming_its_unknown():
    # the constraint rows' sum overflows: the step is not finite from the
    # leading multiplier group on, and no overflow warning is raised
    problem = RodProblem(Grid(1.0, 5))
    rhs = np.zeros(problem.dof_count)
    rhs[lam_dofs(5, np.arange(6))] = 1e308
    with pytest.raises(SingularSystem, match=r"rod Newton step is not finite: \S+ at unknown 0$"):
        jacobian_at(problem, problem.initial_state()).factorize(rhs)


@pytest.mark.parametrize(
    "row", [y_dofs(5, 1)[1], v_dofs(5, 5)[0], y_dofs(5, 5)[1], v_dofs(5, 2)[1]])
def test_a_nan_position_or_direction_row_is_named_as_a_rod_unknown(row):
    # such a row reaches the band LU's right-hand side, yet the message is
    # the rod's, in the numbering of the 8n + 3 step, not the band's
    problem = RodProblem(Grid(1.0, 5))
    rhs = np.zeros(problem.dof_count)
    rhs[row] = np.nan
    matrix = jacobian_at(problem, problem.initial_state())
    with pytest.raises(SingularSystem, match=r"^rod Newton step is not finite: \S+ at unknown \d+$"):
        matrix.factorize(rhs)


# -- retraction -----------------------------------------------------------------------


def test_retract_keeps_boundary_fixed():
    rng = np.random.default_rng(6)
    grid = Grid(1.0, 5)
    problem = RodProblem(grid)
    state = random_rod_state(grid, rng)
    new = problem.retract(state, rng.standard_normal(problem.dof_count), 0.7)
    for before, after in ((state.y, new.y), (state.v.points, new.v.points)):
        assert after[[0, -1]].tobytes() == before[[0, -1]].tobytes()
        assert not np.array_equal(after[1:-1], before[1:-1])
    # a zero step is the exact identity
    same = problem.retract(state, np.zeros(problem.dof_count), 0.7)
    for before, after in ((state.y, same.y), (state.v.points, same.v.points),
                          (state.lam, same.lam)):
        assert after.tobytes() == before.tobytes()


# -- prolongation ---------------------------------------------------------------------


def test_prolong_reproduces_affine_positions_and_keeps_the_ends():
    rng = np.random.default_rng(8)
    coarse, fine = Grid(1.3, 7), Grid(1.3, 50)
    state = random_rod_state(coarse, rng)
    new = state.prolong(fine)
    assert new.grid == fine
    for before, after in ((state.y, new.y), (state.v.points, new.v.points)):
        assert after[[0, -1]].tobytes() == before[[0, -1]].tobytes()
    assert np.abs(np.linalg.norm(new.v.points, axis=1) - 1.0).max() <= 1e-15
    y0, slope = rng.standard_normal(3), rng.standard_normal(3)
    affine = RodState(y0 + np.outer(coarse.nodes, slope), state.v, state.lam)
    y = affine.prolong(fine).y
    assert np.abs(y - (y0 + np.outer(fine.nodes, slope))).max() <= 1e-14


def test_prolong_interpolates_the_multiplier_between_interval_midpoints():
    rng = np.random.default_rng(9)
    coarse, fine = Grid(1.0, 4), Grid(1.0, 49)
    state = random_rod_state(coarse, rng)
    constant = np.tile(rng.standard_normal(3), (coarse.n_intervals, 1))
    lam = RodState(state.y, state.v, constant).prolong(fine).lam
    assert lam.shape == (fine.n_intervals, 3)
    assert lam.tobytes() == np.tile(constant[0], (fine.n_intervals, 1)).tobytes()
    # affine in t between the first and last coarse midpoints, constant beyond
    mid_c, mid_f = coarse.nodes[:-1] + 0.5 * coarse.h, fine.nodes[:-1] + 0.5 * fine.h
    affine = np.outer(mid_c, [1.0, -2.0, 0.5])
    lam = RodState(state.y, state.v, affine).prolong(fine).lam
    inside = (mid_f >= mid_c[0]) & (mid_f <= mid_c[-1])
    assert np.abs(lam[inside] - np.outer(mid_f[inside], [1.0, -2.0, 0.5])).max() <= 1e-14
    assert np.array_equal(lam[mid_f < mid_c[0]], np.tile(affine[0], (5, 1)))
    assert np.array_equal(lam[mid_f > mid_c[-1]], np.tile(affine[-1], (5, 1)))


# -- solve ----------------------------------------------------------------------------


def test_rod_converges_with_damping():
    grid = Grid(1.0, 25)
    problem = RodProblem(grid)
    state, trace = damped_newton(problem, problem.initial_state(), NewtonConfig())
    assert trace.terminated is Termination.CONVERGED
    assert trace.iterations[0].accepted_alpha < 1.0
    assert np.abs(state.constraint_residuals()).max() <= 1e-8
    assert np.abs(np.linalg.norm(state.v.points, axis=1) - 1.0).max() <= 1e-12
    # the converged positions trace the directions: |y'| = 1 up to the scheme
    slopes = np.diff(state.y, axis=0) / grid.h
    assert np.abs(np.linalg.norm(slopes, axis=1) - 1.0).max() < 0.01


def test_rod_solution_mesh_convergence_second_order():
    solutions = {}
    for n in (24, 49, 99):
        grid = Grid(1.0, n)
        problem = RodProblem(grid)
        state, trace = damped_newton(problem, problem.initial_state(), NewtonConfig())
        assert trace.terminated is Termination.CONVERGED
        solutions[n] = state
    dy1 = np.linalg.norm(solutions[24].y - solutions[49].y[::2], axis=1).max()
    dy2 = np.linalg.norm(solutions[49].y - solutions[99].y[::2], axis=1).max()
    dv1 = np.linalg.norm(solutions[24].v.points - solutions[49].v.points[::2], axis=1).max()
    dv2 = np.linalg.norm(solutions[49].v.points - solutions[99].v.points[::2], axis=1).max()
    assert 3.2 <= dy1 / dy2 <= 4.8
    assert 3.2 <= dv1 / dv2 <= 4.8


def group_maxima_norm_inf(problem, xi) -> float:
    """The rod's nodal norm as the largest of its three blocks' maxima."""
    y, v, mu = rod.blocks(np.square(np.asarray(xi, dtype=float)), problem.grid.n_interior)
    lengths2 = (y[:, 0] + y[:, 1] + y[:, 2], v[:, 0] + v[:, 1], mu[:, 0] + mu[:, 1] + mu[:, 2])
    return float(np.sqrt(np.max([part.max() for part in lengths2])))


def test_norm_inf_equals_the_group_maxima_bitwise():
    rng = np.random.default_rng(10)
    for n in (2, 10, 100):
        problem = RodProblem(Grid(1.0, n))
        for scale in 10.0 ** np.arange(-12, 4):
            node = rng.integers(1, n + 1)
            # the largest group in each dof kind, the leading multiplier group
            # included: its length is above 2, every other one below sqrt(3)
            for largest in (y_dofs(n, node), v_dofs(n, node), lam_dofs(n, node), lam_dofs(n, 0)):
                xi = scale * rng.uniform(-1.0, 1.0, problem.dof_count)
                size = len(largest)
                xi[largest] = scale * rng.choice((-1.0, 1.0), size) * rng.uniform(1.5, 2.5, size)
                got = problem.norm_inf(xi)
                assert got.hex() == group_maxima_norm_inf(problem, xi).hex(), (n, scale, largest)
                assert got == pytest.approx(np.linalg.norm(xi[largest]), rel=1e-15)
        assert problem.norm_inf(np.zeros(problem.dof_count)).hex() == "0x0.0p+0"
        for special in (np.inf, np.nan):
            xi = rng.standard_normal(problem.dof_count)
            xi[lam_dofs(n, 0)[1]] = special
            assert repr(problem.norm_inf(xi)) == repr(special)


def test_rod_norm_groups():
    grid = Grid(1.0, 4)
    problem = RodProblem(grid)
    xi = np.zeros(problem.dof_count)
    xi[v_dofs(4, 2)] = [3.0, 4.0]
    assert problem.norm_inf(xi) == pytest.approx(5.0)
    xi[lam_dofs(4, 0)] = [0.0, 0.0, 7.0]
    assert problem.norm_inf(xi) == pytest.approx(7.0)
