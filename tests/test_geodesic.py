import re

import numpy as np
import pytest

from bundle_newton import Grid, NodalCurve, retract_sphere, tangent_basis
from bundle_newton.fem1d import assemble_intervals, sphere_field_blocks
from bundle_newton.problems import GeodesicForceProblem, PoleSingularity, winding_force
from bundle_newton.problems.curve import connecting_geodesic_points
from bundle_newton.problems.geodesic import arc_point_nearest_pole
from conftest import (
    jacobian_at,
    jacobian_fd_error,
    random_sphere_curve,
    random_tangent,
    random_unit,
    residual_at,
    to_dense,
)
import oracles
from oracles import winding_force_jacobian


def great_circle_curve(grid, axis_angle=0.0, arc=2.0):
    """Equally spaced nodes on a great circle in a tilted plane."""
    thetas = np.linspace(0.2, 0.2 + arc, grid.n_nodes)
    c, s = np.cos(axis_angle), np.sin(axis_angle)
    pts = np.stack(
        [np.cos(thetas), c * np.sin(thetas), s * np.sin(thetas)], axis=1
    )
    return NodalCurve(grid, pts)


def residual_quadrature_oracle(problem, curve):
    """Direct evaluation of the residual, one full quadrature sum per basis
    function, without the element-loop shortcut."""
    grid = problem.grid
    h = grid.h
    pts = curve.points
    n = grid.n_interior
    out = np.zeros(2 * n)
    for i in range(1, n + 1):
        for j, v in enumerate(tangent_basis(pts[i]).T):
            dy = np.zeros_like(pts)
            dy[i] = v
            total = 0.0
            for k in range(grid.n_intervals):
                slope_y = (pts[k + 1] - pts[k]) / h
                slope_d = (dy[k + 1] - dy[k]) / h
                w_left = problem.force_at(pts[k]) @ dy[k] if k >= 1 else 0.0
                w_right = (
                    problem.force_at(pts[k + 1]) @ dy[k + 1] if k + 1 <= n else 0.0
                )
                total += h * (slope_y @ slope_d + 0.5 * (w_left + w_right))
            out[2 * (i - 1) + j] = total
    return out


# -- winding force ---------------------------------------------------------------


def test_winding_force_vanishes_on_equator():
    assert np.allclose(winding_force([1.0, 0.0, 0.0]), 0.0)


def test_winding_force_midlatitude_value():
    y = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(winding_force(y), [0.0, 3.0, 0.0], atol=1e-14)


def test_winding_force_annihilates_radial():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        y = random_unit(rng, z_margin=0.01)
        assert abs(winding_force(y) @ y) < 1e-12


def test_winding_force_pole_singularity():
    with pytest.raises(PoleSingularity):
        winding_force([0.0, 0.0, 1.0])
    y = np.array([[0.0, 0.0, -1.0]])
    with pytest.raises(PoleSingularity):
        GeodesicForceProblem(Grid(1.0, 1)).force_blocks(y, tangent_basis(y))
    # where the Jacobian the blocks project is not finite
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(winding_force_jacobian(y)).all()


def test_winding_force_stacked_points_match_one_node_calls():
    rng = np.random.default_rng(3)
    problem = GeodesicForceProblem(Grid(1.0, 20))
    y = np.array([random_unit(rng, z_margin=0.05) for _ in range(20)])
    V = tangent_basis(y)
    forces, blocks = winding_force(y), problem.force_blocks(y, V)
    for k in range(len(y)):
        assert np.array_equal(forces[k], winding_force(y[k]))
        assert np.array_equal(blocks[k], problem.force_blocks(y[k : k + 1], V[k : k + 1])[0])
    y[5] = [0.0, 0.0, 1.0]
    with pytest.raises(PoleSingularity):
        winding_force(y)
    with pytest.raises(PoleSingularity):
        problem.force_blocks(y, V)


def test_winding_force_bytes_match_the_azimuthal_product():
    # one product per component changes no rounding: the same products in the
    # same order, and prefactor * 0.0 is -0.0 where the prefactor is negative
    rng = np.random.default_rng(37)
    y = np.array([random_unit(rng, z_margin=0.05) for _ in range(40)] + [[0.6, 0.8, -0.0]])
    expected = oracles.winding_force(y)
    assert np.signbit(expected[:, 2]).any() and not np.signbit(expected[:, 2]).all()
    for points in (y, *y[[0, 1, -1]]):
        force = winding_force(points)
        assert force.shape == points.shape
        assert force.tobytes() == oracles.winding_force(points).tobytes()


def test_winding_force_deriv_matches_fd():
    rng = np.random.default_rng(1)
    step = 1e-5
    for _ in range(20):
        y = random_unit(rng, z_margin=0.1)
        dy = random_tangent(rng, y)
        u = random_tangent(rng, y)
        plus = winding_force(retract_sphere(y, step * dy)) @ u
        minus = winding_force(retract_sphere(y, -step * dy)) @ u
        fd = (plus - minus) / (2 * step)
        exact = winding_force_jacobian(y) @ dy @ u
        assert abs(fd - exact) < 1e-5 * (1.0 + abs(exact))


def test_winding_force_deriv_on_equator():
    # the prefactor is linear in y3, so on the equator only dy3 contributes
    phi = 0.7
    y = np.array([np.cos(phi), np.sin(phi), 0.0])
    dy_flat = np.array([-np.sin(phi), np.cos(phi), 0.0])
    assert np.allclose(winding_force_jacobian(y) @ dy_flat, 0.0, atol=1e-14)
    dy_up = np.array([0.0, 0.0, 1.0])
    expected = 3.0 * np.array([-y[1], y[0], 0.0])
    assert np.allclose(winding_force_jacobian(y) @ dy_up, expected, atol=1e-12)


def turned_frames(frames, rng):
    """``frames`` composed with a seeded rotation or reflection per node, as
    acceptance criterion 11 composes them."""
    phi = rng.uniform(0.0, 2.0 * np.pi, len(frames))
    flip = rng.choice([-1.0, 1.0], len(frames))
    c, s = np.cos(phi), np.sin(phi)
    return frames @ np.stack([np.stack([c, -flip * s], -1), np.stack([s, flip * c], -1)], -2)


@pytest.mark.parametrize("turn", [False, True], ids=["tangent_basis", "turned"])
def test_force_blocks_are_the_projected_euclidean_jacobian(turn):
    # h V^T J V in closed form, for frames of either orientation
    rng = np.random.default_rng(12)
    for n in (1, 7, 60):
        grid = Grid(1.0, n)
        for scale in (3.0, -0.7, 40.0):
            y = random_sphere_curve(grid, rng, z_margin=0.02).interior
            V = tangent_basis(y)
            if turn:
                V = turned_frames(V, rng)
            blocks = GeodesicForceProblem(grid, force_scale=scale).force_blocks(y, V)
            oracle = np.swapaxes(V, -1, -2) @ (grid.h * winding_force_jacobian(y, scale)) @ V
            assert blocks.shape == (n, 2, 2)
            assert np.abs(blocks - oracle).max() <= 1e-14 * np.abs(oracle).max()


def test_force_free_problem_adds_no_nodal_term():
    # force_scale = 0 passes no blocks, even at a pole, where the field is undefined
    rng = np.random.default_rng(13)
    grid = Grid(1.0, 9)
    problem = GeodesicForceProblem(grid, force_scale=0.0)
    points = random_sphere_curve(grid, rng).points
    points[4] = [0.0, 0.0, 1.0]
    curve = NodalCurve(grid, points)
    assert problem.force_blocks(curve.interior, curve.basis) is None
    blocks = sphere_field_blocks(curve.interior, curve.basis, problem.evaluate(curve)[1], grid.h)
    expected = assemble_intervals(*blocks)
    assert jacobian_at(problem, curve)._ab.tobytes() == expected._ab.tobytes()


# -- residual ---------------------------------------------------------------------


def test_residual_zero_on_discrete_great_circle():
    grid = Grid(1.0, 15)
    problem = GeodesicForceProblem(grid, force_scale=0.0)
    curve = great_circle_curve(grid, axis_angle=0.4)
    b = residual_at(problem, curve)
    assert np.abs(b).max() < 1e-12


def test_residual_zero_on_constant_curve():
    grid = Grid(1.0, 8)
    y = random_unit(np.random.default_rng(2))
    problem = GeodesicForceProblem(grid, gamma0=y, gammaT=y, force_scale=0.0)
    curve = NodalCurve(grid, np.tile(y, (grid.n_nodes, 1)))
    assert np.abs(residual_at(problem, curve)).max() == 0.0


def test_residual_matches_quadrature_oracle():
    rng = np.random.default_rng(3)
    grid = Grid(1.0, 7)
    problem = GeodesicForceProblem(grid)
    for _ in range(5):
        curve = random_sphere_curve(grid, rng, z_margin=0.05)
        b = residual_at(problem, curve)
        oracle = residual_quadrature_oracle(problem, curve)
        assert np.abs(b - oracle).max() < 1e-12 * (1.0 + np.abs(oracle).max())


# -- Jacobian ---------------------------------------------------------------------


def test_jacobian_symmetric_without_force():
    rng = np.random.default_rng(4)
    grid = Grid(1.0, 10)
    problem = GeodesicForceProblem(grid, force_scale=0.0)
    curve = random_sphere_curve(grid, rng)
    A = to_dense(jacobian_at(problem, curve))
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()


def test_jacobian_asymmetric_with_winding_force():
    rng = np.random.default_rng(5)
    grid = Grid(1.0, 10)
    problem = GeodesicForceProblem(grid, force_scale=3.0)
    curve = random_sphere_curve(grid, rng, z_margin=0.1)
    A = to_dense(jacobian_at(problem, curve))
    assert np.abs(A - A.T).max() > 1e-8 * np.abs(A).max()


def test_jacobian_stiffness_only_on_constant_curve():
    # with zero curve velocity and zero force only the P1 stiffness remains
    grid = Grid(1.0, 6)
    y = random_unit(np.random.default_rng(6))
    problem = GeodesicForceProblem(grid, gamma0=y, gammaT=y, force_scale=0.0)
    curve = NodalCurve(grid, np.tile(y, (grid.n_nodes, 1)))
    A = to_dense(jacobian_at(problem, curve))
    h = grid.h
    V = tangent_basis(y)
    for i in range(grid.n_interior):
        diag = A[2 * i : 2 * i + 2, 2 * i : 2 * i + 2]
        assert np.abs(diag - (2.0 / h) * np.eye(2)).max() < 1e-12 / h
    for i in range(grid.n_interior - 1):
        upper = A[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4]
        assert np.abs(upper - (-(1.0 / h) * V.T @ V)).max() < 1e-12 / h


def test_jacobian_single_interior_node_formula():
    # one interior node: a single 2x2 block, stiffness plus the radial
    # correction from the projected second difference
    grid = Grid(1.0, 1)
    rng = np.random.default_rng(7)
    problem = GeodesicForceProblem(grid, force_scale=0.0)
    pts = np.array([random_unit(rng), random_unit(rng), random_unit(rng)])
    curve = NodalCurve(grid, pts)
    A = jacobian_at(problem, curve)
    h = grid.h
    second_diff = pts[2] - 2.0 * pts[1] + pts[0]
    expected = (2.0 / h + (second_diff / h) @ pts[1]) * np.eye(2)
    assert np.abs(to_dense(A) - expected).max() < 1e-12 / h
    assert jacobian_fd_error(problem, curve, rng) < 1e-6


def test_jacobian_matches_fd_of_transported_residual():
    rng = np.random.default_rng(8)
    grid = Grid(1.0, 9)
    problem = GeodesicForceProblem(grid)
    for _ in range(3):
        curve = random_sphere_curve(grid, rng, z_margin=0.1)
        assert jacobian_fd_error(problem, curve, rng) < 1e-6


def test_jacobian_is_exactly_block_tridiagonal():
    # basis functions with disjoint supports never couple
    rng = np.random.default_rng(9)
    grid = Grid(1.0, 8)
    problem = GeodesicForceProblem(grid)
    curve = random_sphere_curve(grid, rng, z_margin=0.1)
    dense = to_dense(jacobian_at(problem, curve))
    n, m = grid.n_interior, 2
    for bi in range(n):
        for bj in range(n):
            if abs(bi - bj) > 1:
                block = dense[bi * m : (bi + 1) * m, bj * m : (bj + 1) * m]
                assert np.all(block == 0.0)


# -- problem plumbing ----------------------------------------------------------------


def test_initial_state_hits_boundary_data():
    grid = Grid(1.0, 12)
    problem = GeodesicForceProblem(grid)
    curve = problem.initial_state()
    assert np.array_equal(curve.points[0], problem.gamma0)
    assert np.array_equal(curve.points[-1], problem.gammaT)
    assert np.abs(np.linalg.norm(curve.points, axis=1) - 1.0).max() < 1e-12


def test_retract_keeps_boundary_fixed():
    rng = np.random.default_rng(10)
    grid = Grid(1.0, 5)
    problem = GeodesicForceProblem(grid)
    curve = problem.initial_state()
    xi = rng.standard_normal(2 * grid.n_interior)
    new = problem.retract(curve, xi, 0.7)
    assert np.array_equal(new.points[0], curve.points[0])
    assert np.array_equal(new.points[-1], curve.points[-1])


def test_rejects_antipodal_boundary():
    grid = Grid(1.0, 4)
    with pytest.raises(ValueError):
        GeodesicForceProblem(grid, gamma0=[1, 0, 0], gammaT=[-1, 0, 0])


def test_arc_point_nearest_pole_is_the_highest_of_a_dense_sample():
    rng = np.random.default_rng(6)
    grid = Grid(1.0, 9999)
    for _ in range(50):
        a, b = random_unit(rng), random_unit(rng)
        y = arc_point_nearest_pole(a, b)
        sample = connecting_geodesic_points(grid, a, b)
        assert abs(np.linalg.norm(y) - 1.0) <= 1e-14
        # on the arc: in the plane of a and b, between them
        assert abs(np.cross(a, b) @ y) <= 1e-14
        assert np.linalg.norm(sample - y, axis=1).min() <= np.pi / grid.n_intervals
        assert np.abs(sample[:, 2]).max() <= abs(y[2]) + 1e-14
        assert abs(y[2]) - np.abs(sample[:, 2]).max() <= (np.pi / grid.n_intervals) ** 2


@pytest.mark.parametrize(
    "gamma0, gammaT, pole",
    [((0.6, 0.0, 0.8), (-0.6, 0.0, 0.8), "north pole (0, 0, 1)"),
     ((0.0, 0.6, -0.8), (0.0, -0.6, -0.8), "south pole (0, 0, -1)"),
     ((0.0, 0.0, 1.0), (0.6, 0.0, -0.8), "north pole (0, 0, 1)")],
)
def test_rejects_boundary_points_joined_across_a_pole(gamma0, gammaT, pole):
    grid = Grid(1.0, 4)
    with pytest.raises(ValueError, match=rf"of the {re.escape(pole)}, where the winding"):
        GeodesicForceProblem(grid, gamma0=gamma0, gammaT=gammaT)
    plain = GeodesicForceProblem(grid, gamma0=gamma0, gammaT=gammaT, force_scale=0.0)
    # a plain geodesic may pass the pole; an arc near it, but off it, is kept
    assert np.abs(plain.initial_state().points[:, 2]).max() > 0.99
    normal = np.cross(gamma0, gammaT)
    tilted = np.array(gamma0) + 1e-5 * normal / np.linalg.norm(normal)
    GeodesicForceProblem(grid, gamma0=tilted / np.linalg.norm(tilted), gammaT=gammaT)


def test_solution_mesh_convergence_second_order():
    # nested grids (h, h/2, h/4) share nodes; nodal differences drop ~4x
    from bundle_newton import NewtonConfig, damped_newton

    solutions = {}
    for n in (24, 49, 99):
        grid = Grid(1.0, n)
        problem = GeodesicForceProblem(grid)
        solution, trace = damped_newton(problem, problem.initial_state(), NewtonConfig())
        assert trace.terminated.value == "converged"
        solutions[n] = solution.points
    d1 = np.linalg.norm(solutions[24] - solutions[49][::2], axis=1).max()
    d2 = np.linalg.norm(solutions[49] - solutions[99][::2], axis=1).max()
    assert 3.2 <= d1 / d2 <= 4.8
