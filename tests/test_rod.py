import numpy as np
import pytest

from bundle_newton import (
    BandedMatrix,
    DegenerateUpdate,
    Grid,
    NewtonConfig,
    NodalCurve,
    Termination,
    damped_newton,
)
from bundle_newton.fem1d import sphere_field_blocks
from bundle_newton.problems import RodProblem, RodState, rod, rod_initial_guess
from conftest import (
    band_add,
    jacobian_at,
    jacobian_fd_error,
    random_rod_state,
    residual_at,
    to_dense,
)

SQRT5 = np.sqrt(5.0)


def y_dofs(i):
    """Dof indices of the positions at interior node(s) ``i``, shape ``(..., 3)``."""
    return 8 * np.asarray(i)[..., None] - 5 + np.arange(3)


def v_dofs(i):
    """Dof indices of the direction at interior node(s) ``i``, shape ``(..., 2)``."""
    return 8 * np.asarray(i)[..., None] - 2 + np.arange(2)


def lam_dofs(j):
    """Dof indices of the multiplier on interval(s) ``j``, shape ``(..., 3)``."""
    return 8 * np.asarray(j)[..., None] + np.arange(3)


def straight_rod_problem(grid):
    e1 = np.array([1.0, 0.0, 0.0])
    return RodProblem(grid, y0=(0, 0, 0), y1=(1, 0, 0), v0=e1, v1=e1)


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
        assert np.abs(b[lam_dofs(j)] - expected).max() < 1e-14


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
        assert np.abs(diff[lam_dofs(j)]).max() == 0.0


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
            block = dense[np.ix_(y_dofs(i), y_dofs(j))]
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
        diag = dense[np.ix_(v_dofs(i), v_dofs(i))]
        assert np.abs(diag - (2.0 / h) * np.eye(2)).max() < 1e-12 / h
        if i + 1 <= grid.n_interior:
            off = dense[np.ix_(v_dofs(i), v_dofs(i + 1))]
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
    dense = to_dense(jacobian_at(problem, state))
    n = problem.dof_count
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 9:
                assert dense[i, j] == 0.0


def add_scatter_jacobian(problem, state):
    """Reference assembly: the rod Jacobian as 11 ``band_add`` scatters
    over per-node dof index arrays."""
    n, h = problem.grid.n_interior, problem.grid.h
    A = BandedMatrix(problem.dof_count, 9, 9)
    V = state.v.basis
    VT = np.swapaxes(V, -1, -2)
    eye3 = np.eye(3)
    nodes = np.arange(1, n + 1)
    y, v = y_dofs(nodes), v_dofs(nodes)
    lam_left, lam_right = lam_dofs(nodes - 1), lam_dofs(nodes)

    def add(rows, cols, blocks):
        band_add(A, rows[..., :, None], cols[..., None, :], blocks)

    add(y, lam_left, eye3)
    add(y, lam_right, -eye3)
    diag, upper = sphere_field_blocks(state.v.interior, V, problem.evaluate(state)[1], h)
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


def test_jacobian_block_runs_equal_add_scatter_bitwise():
    rng = np.random.default_rng(5)
    for n in (2, 7):
        grid = Grid(1.0, n)
        for sigma in (1.0, 2.5):
            problem = RodProblem(grid, sigma=sigma)
            state = random_rod_state(grid, rng)
            assert np.abs(state.lam).min() > 0.0
            A = jacobian_at(problem, state)
            B = add_scatter_jacobian(problem, state)
            assert (A.dim, A.lower_bw, A.upper_bw) == (B.dim, B.lower_bw, B.upper_bw)
            assert A._ab.tobytes() == B._ab.tobytes(), (n, sigma)


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
    """The rod's nodal norm as the largest of four group maxima."""
    sq = np.square(np.asarray(xi, dtype=float))
    g = sq[3:].reshape(problem.grid.n_interior, 8).T
    lengths2 = (g[0] + g[1] + g[2], g[3] + g[4], sq[:1] + sq[1] + sq[2], g[5] + g[6] + g[7])
    return float(np.sqrt(np.max([part.max() for part in lengths2])))


def test_norm_inf_equals_the_group_maxima_bitwise():
    rng = np.random.default_rng(10)
    for n in (2, 10, 100):
        problem = RodProblem(Grid(1.0, n))
        for scale in 10.0 ** np.arange(-12, 4):
            node = rng.integers(1, n + 1)
            # the largest group in each dof kind, the leading multiplier group
            # included: its length is above 2, every other one below sqrt(3)
            for largest in (y_dofs(node), v_dofs(node), lam_dofs(node), lam_dofs(0)):
                xi = scale * rng.uniform(-1.0, 1.0, problem.dof_count)
                size = len(largest)
                xi[largest] = scale * rng.choice((-1.0, 1.0), size) * rng.uniform(1.5, 2.5, size)
                got = problem.norm_inf(xi)
                assert got.hex() == group_maxima_norm_inf(problem, xi).hex(), (n, scale, largest)
                assert got == pytest.approx(np.linalg.norm(xi[largest]), rel=1e-15)
        assert problem.norm_inf(np.zeros(problem.dof_count)).hex() == "0x0.0p+0"
        for special in (np.inf, np.nan):
            xi = rng.standard_normal(problem.dof_count)
            xi[lam_dofs(0)[1]] = special
            assert repr(problem.norm_inf(xi)) == repr(special)


def test_rod_norm_groups():
    grid = Grid(1.0, 4)
    problem = RodProblem(grid)
    xi = np.zeros(problem.dof_count)
    xi[v_dofs(2)] = [3.0, 4.0]
    assert problem.norm_inf(xi) == pytest.approx(5.0)
    xi[lam_dofs(0)] = [0.0, 0.0, 7.0]
    assert problem.norm_inf(xi) == pytest.approx(7.0)
