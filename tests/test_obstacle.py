import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_newton import Grid, NewtonConfig, NodalCurve, Termination, tangent_basis
from bundle_newton.problems import (
    GeodesicForceProblem,
    ObstacleProblem,
    obstacle_path_follow,
    penalty_activation,
    penalty_activation_slope,
)
from bundle_newton.problems import obstacle
from conftest import jacobian_fd_error, random_obstacle_curve, random_unit, to_dense


def low_curve(grid, z_top=-0.2, seed=0):
    """Random curve staying below the given height."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(grid.n_nodes):
        while True:
            y = random_unit(rng)
            if y[2] < z_top:
                pts.append(y)
                break
    return NodalCurve(grid, np.array(pts))


# -- penalty kernel ---------------------------------------------------------------


@settings(max_examples=200)
@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_penalty_activation_product_identity(x):
    # m(x) * m'(x) = m(x), including the kink with the zero Newton-derivative
    m, mp = penalty_activation(x), penalty_activation_slope(x)
    assert m * mp == m


def test_penalty_slope_at_kink_is_zero():
    assert penalty_activation_slope(0.0) == 0.0
    assert penalty_activation(0.0) == 0.0


# -- residual ----------------------------------------------------------------------


def test_inactive_curve_reduces_to_geodesic():
    grid = Grid(1.0, 8)
    obs = ObstacleProblem(grid, h_ref=0.1, p=7.0)
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    curve = low_curve(grid, z_top=0.5)
    assert obs.violation(curve) == 0.0
    assert np.array_equal(obs.assemble_residual(curve), geo.assemble_residual(curve))
    A_obs = to_dense(obs.assemble_jacobian(curve))
    A_geo = to_dense(geo.assemble_jacobian(curve))
    assert np.array_equal(A_obs, A_geo)


def test_single_violating_node_penalty_contribution():
    grid = Grid(1.0, 6)
    p = 3.5
    obs = ObstacleProblem(grid, h_ref=0.3, p=p)
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    pts = low_curve(grid, z_top=0.2, seed=1).points.copy()
    delta = 0.04
    lifted = np.array([0.0, 0.0, 1.0]) * (1.0 - obs.h_ref + delta)
    lifted[0] = np.sqrt(1.0 - lifted[2] ** 2)
    node = 3
    pts[node] = lifted
    curve = NodalCurve(grid, pts)
    diff = obs.assemble_residual(curve) - geo.assemble_residual(curve)
    V = tangent_basis(pts[node])
    expected = np.zeros_like(diff)
    expected[2 * (node - 1)] = grid.h * p * delta * V[2, 0]
    expected[2 * (node - 1) + 1] = grid.h * p * delta * V[2, 1]
    assert np.abs(diff - expected).max() < 1e-13


def test_penalty_part_linear_in_p():
    grid = Grid(1.0, 8)
    rng_curve = random_obstacle_curve(grid, np.random.default_rng(2), ObstacleProblem(grid, h_ref=0.4))
    obs1 = ObstacleProblem(grid, h_ref=0.4, p=1.3)
    obs2 = obs1.with_penalty(2.6)
    geo = GeodesicForceProblem(grid, gamma0=obs1.gamma0, gammaT=obs1.gammaT, force_scale=0.0)
    pen1 = obs1.assemble_residual(rng_curve) - geo.assemble_residual(rng_curve)
    pen2 = obs2.assemble_residual(rng_curve) - geo.assemble_residual(rng_curve)
    assert np.abs(pen2 - 2.0 * pen1).max() < 1e-14 * (1 + np.abs(pen1).max())


# -- Jacobian ----------------------------------------------------------------------


def test_fully_active_jacobian_difference():
    # every node above the cap: the difference to the force-free Jacobian is
    # the nodal penalty stiffness plus the penalty part of the connection term
    grid = Grid(1.0, 5)
    p = 2.0
    obs = ObstacleProblem(grid, h_ref=0.95, p=p)  # cap at z = 0.05
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    rng = np.random.default_rng(3)
    pts = []
    for _ in range(grid.n_nodes):
        while True:
            y = random_unit(rng)
            if y[2] > 0.3:
                pts.append(y)
                break
    curve = NodalCurve(grid, np.array(pts))
    h = grid.h
    diff = to_dense(obs.assemble_jacobian(curve)) - to_dense(geo.assemble_jacobian(curve))
    e3 = np.array([0.0, 0.0, 1.0])
    for i in range(1, grid.n_interior + 1):
        y = curve.points[i]
        V = tangent_basis(y)
        w = p * penalty_activation(obs.gap(y)) * e3
        euclid = h * p * np.outer(e3, e3)
        connection = -(h * w @ y) * np.eye(3) - np.outer(y, h * w)
        expected = V.T @ (euclid + connection) @ V
        block = diff[2 * (i - 1) : 2 * i, 2 * (i - 1) : 2 * i]
        assert np.abs(block - expected).max() < 1e-13
    # off-diagonal blocks are untouched by the penalty
    mask = np.ones_like(diff, dtype=bool)
    for i in range(grid.n_interior):
        mask[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = False
    assert np.abs(diff[mask]).max() == 0.0


def test_node_exactly_on_cap_uses_zero_slope():
    grid = Grid(1.0, 4)
    obs = ObstacleProblem(grid, h_ref=0.5, p=10.0)
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    pts = low_curve(grid, z_top=0.1, seed=4).points.copy()
    z = 1.0 - obs.h_ref
    pts[2] = np.array([np.sqrt(1 - z * z), 0.0, z])  # gap exactly zero
    curve = NodalCurve(grid, pts)
    assert obs.gap(pts[2]) == 0.0
    assert np.array_equal(
        to_dense(obs.assemble_jacobian(curve)), to_dense(geo.assemble_jacobian(curve))
    )


def test_jacobian_fd_consistency_away_from_kink():
    rng = np.random.default_rng(5)
    grid = Grid(1.0, 8)
    obs = ObstacleProblem(grid, h_ref=0.3, p=2.5)
    for _ in range(3):
        curve = random_obstacle_curve(grid, rng, obs)
        assert jacobian_fd_error(obs, curve, rng) < 1e-6


# -- path following -----------------------------------------------------------------


def test_path_following_trivial_when_cap_unreachable():
    # both boundary points in the southern hemisphere: the geodesic never
    # gets close to the cap and no penalty stage is needed
    grid = Grid(1.0, 20)
    obs = ObstacleProblem(
        grid, gamma0=(0.6, 0.0, -0.8), gammaT=(0.0, 0.6, -0.8), h_ref=0.5
    )
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.CONVERGED
    assert all(stage.penalty == 0.0 for stage in result.stages)
    assert result.stages[-1].violation == 0.0
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    assert np.abs(geo.assemble_residual(result.curve)).max() < 1e-10


def test_path_following_reaches_cap_band():
    grid = Grid(1.0, 40)
    obs = ObstacleProblem(grid, h_ref=0.2)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.CONVERGED
    cap = 1.0 - obs.h_ref
    zmax = result.curve.points[:, 2].max()
    assert zmax <= cap + obs.violation_tol
    # endpoints untouched
    assert np.array_equal(result.curve.points[0], obs.gamma0)
    assert np.array_equal(result.curve.points[-1], obs.gammaT)
    # all stages converged, violations never increase
    assert all(s.trace.terminated is Termination.CONVERGED for s in result.stages)
    viols = [s.violation for s in result.stages]
    assert all(b <= a + 1e-15 for a, b in zip(viols, viols[1:]))
    # the penalty grows by the configured factor per stage
    ps = [s.penalty for s in result.stages[1:]]
    for a, b in zip(ps, ps[1:]):
        assert b == pytest.approx(a * obs.p_growth, rel=1e-12)


def test_path_following_warm_start_cheaper_than_cold():
    grid = Grid(1.0, 30)
    obs = ObstacleProblem(grid, h_ref=0.2)
    result = obstacle_path_follow(obs, NewtonConfig())
    # warm-started penalty stages settle in a few iterations each
    late = [len(s.trace.iterations) for s in result.stages[5:]]
    assert max(late) <= 6


def test_path_following_stage_limit_is_iteration_limit(monkeypatch):
    # the default cap needs dozens of stages; two are not enough, and the
    # result must say so instead of reporting the last stage's success
    monkeypatch.setattr(obstacle, "MAX_STAGES", 2)
    obs = ObstacleProblem(Grid(1.0, 20), h_ref=0.1)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.MAX_ITERATIONS
    assert result.stages[-1].violation > obs.violation_tol


@pytest.mark.parametrize("p_growth", [1.0, 0.5])
def test_penalty_growth_must_exceed_one(p_growth):
    with pytest.raises(ValueError, match="growth"):
        ObstacleProblem(Grid(1.0, 5), p_growth=p_growth)
