import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_newton import (
    Grid, NewtonConfig, NodalCurve, Stage, Termination, damped_newton, nested_iteration,
    tangent_basis,
)
from bundle_newton.cli import EXIT_DAMPING_FAILED, EXIT_OK, main
from bundle_newton.fem1d import assemble_intervals, sphere_field_blocks
from bundle_newton.problems import (
    GeodesicForceProblem,
    ObstacleProblem,
    obstacle_path_follow,
    penalty_activation,
    penalty_activation_slope,
)
from bundle_newton.problems import obstacle
from conftest import (
    jacobian_at,
    jacobian_fd_error,
    random_obstacle_curve,
    random_unit,
    residual_at,
    to_dense,
)


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
    obs = ObstacleProblem(grid, h_ref=0.1).replace(p=7.0)
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    curve = low_curve(grid, z_top=0.5)
    assert obs.violation(curve) == 0.0
    assert np.array_equal(residual_at(obs, curve), residual_at(geo, curve))
    A_obs = to_dense(jacobian_at(obs, curve))
    A_geo = to_dense(jacobian_at(geo, curve))
    assert np.array_equal(A_obs, A_geo)


def test_single_violating_node_penalty_contribution():
    grid = Grid(1.0, 6)
    p = 3.5
    obs = ObstacleProblem(grid, h_ref=0.3).replace(p=p)
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    pts = low_curve(grid, z_top=0.2, seed=1).points.copy()
    delta = 0.04
    lifted = np.array([0.0, 0.0, 1.0]) * (1.0 - obs.h_ref + delta)
    lifted[0] = np.sqrt(1.0 - lifted[2] ** 2)
    node = 3
    pts[node] = lifted
    curve = NodalCurve(grid, pts)
    diff = residual_at(obs, curve) - residual_at(geo, curve)
    V = tangent_basis(pts[node])
    expected = np.zeros_like(diff)
    expected[2 * (node - 1)] = grid.h * p * delta * V[2, 0]
    expected[2 * (node - 1) + 1] = grid.h * p * delta * V[2, 1]
    assert np.abs(diff - expected).max() < 1e-13


def test_penalty_part_linear_in_p():
    grid = Grid(1.0, 8)
    rng_curve = random_obstacle_curve(grid, np.random.default_rng(2), ObstacleProblem(grid, h_ref=0.4))
    obs1 = ObstacleProblem(grid, h_ref=0.4).replace(p=1.3)
    obs2 = obs1.replace(p=2.6)
    geo = GeodesicForceProblem(grid, gamma0=obs1.gamma0, gammaT=obs1.gammaT, force_scale=0.0)
    pen1 = residual_at(obs1, rng_curve) - residual_at(geo, rng_curve)
    pen2 = residual_at(obs2, rng_curve) - residual_at(geo, rng_curve)
    assert np.abs(pen2 - 2.0 * pen1).max() < 1e-14 * (1 + np.abs(pen1).max())


def test_replace_copies_without_the_constructor_checks():
    # p = 0 is refused by the constructor but not by replace
    obs = ObstacleProblem(Grid(1.0, 8))
    stage = obs.replace(p=0.0)
    assert stage.p == 0.0 and obs.p == 1.0
    assert not stage.force_at(np.array([0.0, 0.0, 1.0])).any()
    coarse = obs.replace(grid=Grid(1.0, 10))
    assert coarse.grid == Grid(1.0, 10) and obs.grid == Grid(1.0, 8)
    assert coarse.h_ref == obs.h_ref and coarse.gamma0 is obs.gamma0


@pytest.mark.parametrize("p", [obstacle.P0, 1e6])
def test_a_solve_evaluates_the_covectors_once_per_state(monkeypatch, p):
    # the start and every trial point are new states; the residual and the
    # Jacobian at an iterate share its covectors, and an accepted trial's are
    # the next iterate's.  At p = 1e6 the solve rejects trials
    calls = []
    force_at = ObstacleProblem.force_at

    def counted(problem, y):
        calls.append(y)
        return force_at(problem, y)

    monkeypatch.setattr(ObstacleProblem, "force_at", counted)
    problem = ObstacleProblem(Grid(1.0, 10)).replace(p=p)
    _, stage = damped_newton(problem, problem.initial_state())
    trials = sum(it.inner_trials for it in stage.iterations)
    rejected = trials - sum(1 for it in stage.iterations if it.inner_trials)
    assert trials >= 2 and (rejected > 0) == (p > obstacle.P0)
    assert len(calls) == 1 + trials


def test_a_replaced_problem_reads_none_of_the_original_covectors():
    grid = Grid(1.0, 10)
    obs = ObstacleProblem(grid, h_ref=0.4)
    curve = random_obstacle_curve(grid, np.random.default_rng(3), obs)
    assert obs.violation(curve) > 0.0
    before = residual_at(obs, curve)
    stage = obs.replace(p=4 * obs.p)
    fresh = NodalCurve(grid, curve.points.copy())
    got = residual_at(stage, curve)
    assert got.tobytes() == residual_at(stage, fresh).tobytes()
    assert not np.array_equal(got, before)
    assert (jacobian_at(stage, curve)._ab.tobytes()
            == jacobian_at(stage, fresh)._ab.tobytes())


def test_constructor_refuses_end_points_above_the_band():
    # no penalty moves a fixed end point, so none could bring it into the band
    # z <= 1 - h_ref + violation_tol; the default end points lie at z = 0.6
    grid = Grid(1.0, 8)
    for h_ref in (0.45, 0.95):
        with pytest.raises(ValueError, match=f"above the cap z <= {1 - h_ref:g} "):
            ObstacleProblem(grid, h_ref=h_ref)
    with pytest.raises(ValueError, match="by more than violation_tol = 0.001"):
        ObstacleProblem(grid, (0.8, 0.0, -0.6), (0.0, 0.0, 1.0))  # the second end point
    # on the cap, or above it by at most violation_tol, is inside the band
    ObstacleProblem(grid, h_ref=0.4)
    ObstacleProblem(grid, h_ref=0.45, violation_tol=0.06)


def reference_violation(problem, curve) -> float:
    """The violation as first written: the largest penalty activation of the
    nodal gaps."""
    return float(np.max(penalty_activation(problem.gap(curve.points))))


def point_at_height(z, phi=0.0):
    """The unit vector at height ``z`` and azimuth ``phi``."""
    r = np.sqrt(1.0 - z * z)
    return np.array([r * np.cos(phi), r * np.sin(phi), z])


@pytest.mark.parametrize("h_ref", [0.05, 0.1, 0.2, 0.25, 0.3, 0.4])
def test_violation_is_bitwise_the_largest_activation(h_ref):
    # the gap of the highest node, bit for bit and sign of zero included
    grid = Grid(1.0, 20)
    obs = ObstacleProblem(grid, h_ref=h_ref)
    cap = 1.0 - h_ref
    rng = np.random.default_rng(31)

    def same(curve) -> float:
        got, want = obs.violation(curve), reference_violation(obs, curve)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
        return got

    for _ in range(300):  # nodes spread over the sphere, or crowded about the cap
        spread = 10.0 ** rng.uniform(-16.0, 0.0)
        z = np.clip(cap + spread * rng.standard_normal(grid.n_nodes), -1.0, 1.0)
        phi = rng.uniform(0.0, 2 * np.pi, z.size)
        same(NodalCurve(grid, [point_at_height(*node) for node in zip(z, phi)]))
    below = low_curve(grid, z_top=cap - 0.01)
    assert np.float64(same(below)).tobytes() == np.float64(0.0).tobytes()  # +0.0
    on_cap = below.points.copy()
    on_cap[7] = point_at_height(cap)
    same(NodalCurve(grid, on_cap))
    # end points above the cap, inside the band the constructor accepts
    ends = (point_at_height(cap + 0.6 * obs.violation_tol),
            point_at_height(cap + 0.9 * obs.violation_tol, 1.0))
    ObstacleProblem(grid, *ends, h_ref=h_ref)
    lifted = below.points.copy()
    lifted[0], lifted[-1] = ends
    assert same(NodalCurve(grid, lifted)) > 0.0


# -- Jacobian ----------------------------------------------------------------------

# end points on the equator, below every cap; the Jacobian does not read them
EQUATOR = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))


def test_fully_active_jacobian_difference():
    # every node above the cap: the difference to the force-free Jacobian is
    # the nodal penalty stiffness plus the penalty part of the connection term
    grid = Grid(1.0, 5)
    p = 2.0
    # cap at z = 0.05, equatorial end points below it
    obs = ObstacleProblem(grid, *EQUATOR, h_ref=0.95).replace(p=p)
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
    diff = to_dense(jacobian_at(obs, curve)) - to_dense(jacobian_at(geo, curve))
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
    obs = ObstacleProblem(grid, *EQUATOR, h_ref=0.5).replace(p=10.0)
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    pts = low_curve(grid, z_top=0.1, seed=4).points.copy()
    z = 1.0 - obs.h_ref
    pts[2] = np.array([np.sqrt(1 - z * z), 0.0, z])  # gap exactly zero
    curve = NodalCurve(grid, pts)
    assert obs.gap(pts[2]) == 0.0
    assert np.array_equal(
        to_dense(jacobian_at(obs, curve)), to_dense(jacobian_at(geo, curve))
    )


def mixed_cap_curve(grid, rng, problem):
    """Random curve whose nodes lie above the cap, below it, or on its
    height ``1 - h_ref`` (a gap of exactly 0 wherever that float has one)."""
    cap = 1.0 - problem.h_ref
    z = np.choose(rng.integers(0, 3, grid.n_nodes),
                  [rng.uniform(cap, 1.0, grid.n_nodes), rng.uniform(-1.0, cap, grid.n_nodes),
                   np.full(grid.n_nodes, cap)])
    phi = rng.uniform(0.0, 2.0 * np.pi, grid.n_nodes)
    r = np.sqrt(1.0 - z * z)
    return NodalCurve(grid, np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1))


@pytest.mark.parametrize("h_ref", [0.1, 0.25, 0.5, 0.95])
def test_jacobian_band_is_bytewise_the_projected_penalty_stiffness(h_ref):
    # the rank-one frame blocks give the band of the projected Euclidean
    # penalty stiffness V^T (h p slope e3 e3^T) V bit for bit
    rng = np.random.default_rng(14)
    e33 = np.outer([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    gaps = []
    for n in (1, 10, 77):
        grid = Grid(1.0, n)
        base = ObstacleProblem(grid, *EQUATOR, h_ref=h_ref)
        for p in (1.0, 3.7, 1e4, 1e7):
            problem = base.replace(p=p)
            curve = mixed_cap_curve(grid, rng, problem)
            y, V, h = curve.interior, curve.basis, grid.h
            gaps.append(problem.gap(y))
            slope = penalty_activation_slope(gaps[-1])
            nodal = h * (p * slope[:, None, None] * e33)
            diag, upper = sphere_field_blocks(y, V, problem.evaluate(curve)[1], h)
            reference = assemble_intervals(diag + np.swapaxes(V, -1, -2) @ nodal @ V, upper)
            assert jacobian_at(problem, curve)._ab.tobytes() == reference._ab.tobytes()
    gaps = np.concatenate(gaps)
    assert (gaps > 0.0).any() and (gaps < 0.0).any()
    # at h_ref = 0.1 the height 1 - h_ref has a gap of 2.8e-17, not 0: its nodes are active
    assert (gaps == 0.0).any() == (h_ref != 0.1)


def test_jacobian_fd_consistency_away_from_kink():
    rng = np.random.default_rng(5)
    grid = Grid(1.0, 8)
    obs = ObstacleProblem(grid, h_ref=0.3).replace(p=2.5)
    for _ in range(3):
        curve = random_obstacle_curve(grid, rng, obs)
        assert jacobian_fd_error(obs, curve, rng) < 1e-6


# -- path following -----------------------------------------------------------------


def stage_violation(stage):
    """The cap violation of the state a stage solve ended at."""
    return stage.problem.violation(stage.state)


def test_path_following_trivial_when_cap_unreachable():
    # both boundary points in the southern hemisphere: the geodesic never
    # gets close to the cap, so the first stage is stationary at its start
    grid = Grid(1.0, 20)
    obs = ObstacleProblem(
        grid, gamma0=(0.6, 0.0, -0.8), gammaT=(0.0, 0.6, -0.8), h_ref=0.5
    )
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.CONVERGED
    assert all(stage.problem.p == obs.p for stage in result.stages)
    assert stage_violation(result.stages[-1]) == 0.0
    assert [len(stage.iterations) for stage in result.attempts] == [1]
    assert np.array_equal(result.state.points, obs.initial_state().points)
    geo = GeodesicForceProblem(grid, gamma0=obs.gamma0, gammaT=obs.gammaT, force_scale=0.0)
    assert np.abs(residual_at(geo, result.state)).max() < 1e-10


def test_path_following_reaches_cap_band():
    grid = Grid(1.0, 40)
    obs = ObstacleProblem(grid, h_ref=0.2)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.CONVERGED
    cap = 1.0 - obs.h_ref
    zmax = result.state.points[:, 2].max()
    assert zmax <= cap + obs.violation_tol
    # endpoints untouched
    assert np.array_equal(result.state.points[0], obs.gamma0)
    assert np.array_equal(result.state.points[-1], obs.gammaT)
    # all stages converged, violations never increase
    assert all(s.terminated is Termination.CONVERGED for s in result.stages)
    viols = [stage_violation(s) for s in result.stages]
    assert all(b <= a + 1e-15 for a, b in zip(viols, viols[1:]))
    # the penalty starts at P0 and grows by at most the cap per stage
    ps = [s.problem.p for s in result.stages]
    assert ps[0] == obs.p == obstacle.P0
    for a, b in zip(ps, ps[1:]):
        assert 1.0 < b / a <= obstacle.MAX_GROWTH


def test_path_following_warm_start_cheaper_than_cold():
    grid = Grid(1.0, 30)
    obs = ObstacleProblem(grid, h_ref=0.2)
    result = obstacle_path_follow(obs, NewtonConfig())
    # warm-started penalty stages settle in a few iterations each
    late = [len(s.iterations) for s in result.stages[5:]]
    assert max(late) <= 6


def test_path_following_stage_limit_is_iteration_limit(monkeypatch):
    # the default cap needs about ten stages; two are not enough, and the
    # result must say so instead of reporting the last stage's success
    monkeypatch.setattr(obstacle, "MAX_STAGES", 2)
    solves = record_solves(monkeypatch)
    obs = ObstacleProblem(Grid(1.0, 20), h_ref=0.1)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.MAX_ITERATIONS
    assert solves == [1.0, 4.0]
    assert len(result.attempts) == 2
    assert result.message == "no convergence within 2 penalty stage solves (0 rejected)"
    assert stage_violation(result.stages[-1]) > obs.violation_tol


@pytest.mark.parametrize("h_ref", [0.1, 0.2])
@pytest.mark.parametrize("n", [50, 100, 200])
def test_path_following_takes_few_stages(n, h_ref):
    obs = ObstacleProblem(Grid(1.0, n), h_ref=h_ref)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.CONVERGED
    assert len(result.stages) <= 15
    assert sum(len(s.iterations) for s in result.stages) <= 60
    zmax = result.state.points[:, 2].max()
    assert 1.0 - h_ref - 1e-3 <= zmax <= 1.0 - h_ref + 1e-3
    viols = [stage_violation(s) for s in result.stages]
    assert all(b <= a + 1e-15 for a, b in zip(viols, viols[1:]))


@pytest.mark.parametrize("h_ref", [0.1, 0.2])
def test_only_a_stage_that_ends_above_the_band_stops_early(h_ref):
    # a stage stops at the looser step tolerance only at a curve above the
    # band, which the path always follows with another stage
    cfg = NewtonConfig()
    problem = ObstacleProblem(Grid(1.0, 100), h_ref=h_ref)
    result = nested_iteration(problem, cfg)
    assert result.terminated is Termination.CONVERGED
    loose_tol = obstacle.STAGE_TOL_FACTOR * problem.violation_tol
    early = [stage for stage in result.attempts if stage.iterations[-1].norm_dx > cfg.tol]
    assert early
    for stage in early:
        assert stage_violation(stage) > problem.violation_tol
        assert stage.iterations[-1].norm_dx <= loose_tol
    inside = [stage for stage in result.attempts if stage_violation(stage) <= problem.violation_tol]
    assert inside and all(stage.iterations[-1].norm_dx <= cfg.tol for stage in inside)
    assert result.stages[-1] in inside


def outer_rows(result):
    return [it for stage in result.attempts for it in stage.iterations]


@pytest.mark.parametrize("h_ref, final_p, exact_final_p", [(0.1, 32768, 32768), (0.2, 32768, 16384)])
def test_inexact_stages_end_on_a_curve_solved_to_the_tolerance(
    monkeypatch, h_ref, final_p, exact_final_p
):
    cfg = NewtonConfig()
    problem = ObstacleProblem(Grid(1.0, 100), h_ref=h_ref)
    inexact = nested_iteration(problem, cfg)
    # a new solve of the final stage's problem from its curve stops at once
    _, again = obstacle.damped_newton(inexact.stages[-1].problem, inexact.state, cfg)
    assert [it.norm_dx <= cfg.tol for it in again.iterations] == [True]
    monkeypatch.setattr(obstacle, "STAGE_TOL_FACTOR", 0.0)  # every stage solved to cfg.tol
    exact = nested_iteration(problem, cfg)
    assert inexact.terminated is exact.terminated is Termination.CONVERGED
    assert len(inexact.stages) == len(exact.stages)
    assert len(outer_rows(inexact)) < len(outer_rows(exact))
    # at h_ref 0.2 the p = 128 stage takes 3 full steps instead of 5, so the
    # step in log p doubles there and the path enters the band at twice the
    # exact path's final penalty; at h_ref 0.1 both take the same penalties
    assert (inexact.stages[-1].problem.p, exact.stages[-1].problem.p) == (final_p, exact_final_p)
    if final_p == exact_final_p:
        assert np.abs(inexact.state.points - exact.state.points).max() <= 1e-12


def test_without_a_band_every_stage_is_solved_to_the_tolerance(monkeypatch):
    # violation_tol = 0 leaves no room for a looser stage: the rows of the exact path
    monkeypatch.setattr(obstacle, "MAX_STAGES", 20)
    cfg = NewtonConfig()
    problem = ObstacleProblem(Grid(1.0, 20), h_ref=0.1, violation_tol=0.0)
    inexact = obstacle_path_follow(problem, cfg)
    monkeypatch.setattr(obstacle, "STAGE_TOL_FACTOR", 0.0)
    exact = obstacle_path_follow(problem, cfg)
    assert inexact.terminated is exact.terminated is Termination.MAX_ITERATIONS
    assert outer_rows(inexact) == outer_rows(exact)
    assert all(stage.iterations[-1].norm_dx <= cfg.tol for stage in inexact.attempts)
    assert np.array_equal(inexact.state.points, exact.state.points)


def read_table(path):
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_rising_violation_is_retried_with_a_smaller_factor(tmp_path):
    # on the coarse level, at p = 64 the warm start jumps to a curve that violates
    # the cap more than the p = 16 stage did; the attempt is rejected and retried at p = 32
    out = tmp_path / "o"
    argv = ["obstacle", "--n", "100", "--h-ref", "0.3"]
    assert main([*argv, "--out-dir", str(out)]) == EXIT_OK
    rows = read_table(out / "stages.csv")
    rejected = [row for row in rows if row["accepted"] == "0"]
    assert rejected and all(row["termination"] == "converged" for row in rejected)
    accepted = [row for row in rows if row["accepted"] == "1"]
    meta = dict(line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines())
    assert int(meta["result_rejected_stages"]) == len(rejected)
    assert int(meta["result_stage_count"]) == len(accepted)
    # iterates.csv holds the rows of the accepted stages only
    iterates = (out / "iterates.csv").read_text().splitlines()[1:]
    assert len(iterates) == sum(int(row["outer_iterations"]) for row in accepted)
    z = [float(line.split(",")[3]) for line in (out / "curve.csv").read_text().splitlines()[1:]]
    assert 0.7 - 1e-3 <= max(z) <= 0.7 + 1e-3

    problem = ObstacleProblem(Grid(1.0, 100), h_ref=0.3)
    result = nested_iteration(problem, NewtonConfig())
    assert all(s.accepted for s in result.stages)
    assert len(result.attempts) - len(result.stages) == len(rejected)
    assert [(s.problem.grid.n_interior, s.problem.p) for s in result.stages] == [
        (int(row["n"]), float(row["penalty"])) for row in accepted
    ]


def record_solves(monkeypatch, fail_above=np.inf, failures=np.inf):
    """Record the penalty of every stage solve; the first ``failures`` solves
    above ``fail_above`` end as damping failures without iterating."""
    solves, damped_newton = [], obstacle.damped_newton

    def solve(problem, x0, cfg, stops_early=None):
        solves.append(problem.p)
        if problem.p > fail_above and sum(p > fail_above for p in solves) <= failures:
            return x0, Stage(problem, [], Termination.DAMPING_FAILED, "forced failure", state=x0)
        return damped_newton(problem, x0, cfg, stops_early)

    monkeypatch.setattr(obstacle, "damped_newton", solve)
    return solves


def test_failed_stage_is_retried_with_a_smaller_factor(monkeypatch):
    solves = record_solves(monkeypatch, fail_above=16.0, failures=1)
    obs = ObstacleProblem(Grid(1.0, 40), h_ref=0.2)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.CONVERGED
    # the step in log p halves: factor 2 instead of 4 from the accepted p = 16
    assert solves[:5] == [1.0, 4.0, 16.0, 64.0, 32.0]
    rejected = [s for s in result.attempts if not s.accepted]
    assert [s.problem.p for s in rejected] == [64.0]
    assert rejected[0].terminated is Termination.DAMPING_FAILED
    assert all(s.accepted for s in result.stages)
    assert stage_violation(result.stages[-1]) <= obs.violation_tol


def test_step_floor_ends_the_path_as_damping_failed(monkeypatch):
    solves = record_solves(monkeypatch, fail_above=16.0)
    obs = ObstacleProblem(Grid(1.0, 40), h_ref=0.2)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.DAMPING_FAILED
    assert result.stages[-1].problem.p == 16.0
    # every retry takes the square root of the last factor, until the next
    # one would drop below the floor
    tried = solves[3:]
    factors = [p / 16.0 for p in tried]
    assert factors[0] == 4.0
    for a, b in zip(factors, factors[1:]):
        assert b == pytest.approx(np.sqrt(a), rel=1e-14)
    assert factors[-1] >= obstacle.MIN_GROWTH > np.sqrt(factors[-1])
    assert len(result.attempts) - len(result.stages) == len(tried)
    assert result.message == (
        f"penalty growth fell below {obstacle.MIN_GROWTH:g} after {len(tried)} rejected "
        f"attempts: last accepted penalty 16, attempted {tried[-1]:g} "
        "(damping_failed: forced failure)"
    )


def report_every_stage_damped(monkeypatch):
    """Solve every stage for real, but report its first row as a damped step."""
    damped_newton = obstacle.damped_newton

    def solve(problem, x0, cfg, stops_early=None):
        state, stage = damped_newton(problem, x0, cfg, stops_early)
        first, *rest = stage.iterations
        stage.iterations = [dataclasses.replace(first, accepted_alpha=0.5), *rest]
        return state, stage

    monkeypatch.setattr(obstacle, "damped_newton", solve)


def test_growth_collapsing_through_damped_stages_ends_the_path(monkeypatch):
    # every accepted stage reads as damped, so each one halves the step in
    # log p, and after the 11th the factor is below the floor.  Every stage is
    # solved to cfg.tol here, so each one moves the curve; at the default stage
    # tolerance the 7th stops at its start instead
    # (test_a_penalty_that_no_longer_moves_the_curve_ends_the_path)
    report_every_stage_damped(monkeypatch)
    monkeypatch.setattr(obstacle, "STAGE_TOL_FACTOR", 0.0)
    obs = ObstacleProblem(Grid(1.0, 10))
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.DAMPING_FAILED
    assert len(result.attempts) == len(result.stages) == 11
    ps = [s.problem.p for s in result.stages]
    factors = [b / a for a, b in zip(ps, ps[1:])]
    assert factors[0] == 2.0
    for a, b in zip(factors, factors[1:]):
        assert b == pytest.approx(np.sqrt(a), rel=1e-12)
    assert factors[-1] >= obstacle.MIN_GROWTH > np.sqrt(factors[-1])
    assert result.state is result.stages[-1].state
    assert stage_violation(result.stages[-1]) > obs.violation_tol
    assert result.message == (f"penalty growth fell below {obstacle.MIN_GROWTH:g} through "
                              f"damped stages: last accepted penalty {ps[-1]:g}")


def test_a_penalty_that_no_longer_moves_the_curve_ends_the_path(tmp_path, monkeypatch):
    # with no band, from the 22nd stage (p = 2.2e12) on, the Newton step at
    # the warm start is within tol: the curve, and its violation, stay where
    # the 21st stage left them, however large p grows
    out = tmp_path / "o"
    argv = ["obstacle", "--n", "20", "--h-ref", "0.1", "--violation-tol", "0"]
    assert main([*argv, "--out-dir", str(out)]) == EXIT_DAMPING_FAILED
    rows = read_table(out / "stages.csv")
    assert len(rows) == 22 and all(row["accepted"] == "1" for row in rows)
    assert rows[-1]["violation"] == rows[-2]["violation"] != rows[-3]["violation"]
    assert rows[-1]["outer_iterations"] == "1" and float(rows[-1]["violation"]) > 0.0
    message = ("penalty 2.19902e+12 no longer moves the curve: violation 3.19e-11 stays "
               "above violation_tol = 0")
    assert f"result_message = {message}\n" in (out / "meta.txt").read_text()
    # a step in log p shrunk by stages that read as damped: the 7th stops at
    # its start, at the stage tolerance
    report_every_stage_damped(monkeypatch)
    obs = ObstacleProblem(Grid(1.0, 10))
    result = obstacle_path_follow(obs, NewtonConfig())
    assert result.terminated is Termination.DAMPING_FAILED
    assert [len(s.iterations) for s in result.attempts] == [2, 2, 2, 2, 2, 2, 1]
    last, before = result.stages[-1], result.stages[-2]
    assert stage_violation(last) == stage_violation(before) > obs.violation_tol
    assert result.message == (
        f"penalty {last.problem.p:g} no longer moves the curve: violation "
        f"{stage_violation(last):.3g} stays above violation_tol = 0.001"
    )


# the length of the polyline through the nodes of the curve that the default
# path (growth cap 4) ends on, at n = 100 and h_ref = 0.2
CAP_4_LENGTH = 2.04194


@pytest.mark.parametrize("max_growth", [4.0, 1000.0, 100.0])
def test_a_larger_growth_cap_ends_off_the_cap_4_curve_only_as_a_failure(monkeypatch, max_growth):
    # with caps of 1000 and 100 the path once exited 0 on the long great-circle
    # arc and on a curve winding round the cap; on the ladder they end as
    # damping_failed and max_iterations, though by accident of the step
    # control rather than by a rule that detects a wrong branch
    monkeypatch.setattr(obstacle, "MAX_GROWTH", max_growth)
    result = nested_iteration(ObstacleProblem(Grid(1.0, 100), h_ref=0.2))
    length = np.linalg.norm(np.diff(result.state.points, axis=0), axis=1).sum()
    if max_growth == 4.0:
        assert result.terminated is Termination.CONVERGED
        assert length == pytest.approx(CAP_4_LENGTH, abs=1e-5)
    assert result.terminated is not Termination.CONVERGED or abs(length - CAP_4_LENGTH) <= 1e-3


def test_failed_first_stage_ends_the_path(monkeypatch, tmp_path):
    # the first stage has the fixed penalty P0, so there is no step to shrink
    record_solves(monkeypatch, fail_above=0.5, failures=1)
    out = tmp_path / "o"
    assert main(["obstacle", "--n", "10", "--out-dir", str(out)]) == EXIT_DAMPING_FAILED
    meta = (out / "meta.txt").read_text()
    message = "stage with penalty 1 failed (damping_failed: forced failure)"
    assert f"result_message = {message}\n" in meta
    rows = read_table(out / "stages.csv")
    assert rows[-1]["accepted"] == "0" and rows[-1]["termination"] == "damping_failed"
    accepted = [row for row in rows if row["accepted"] == "1"]
    assert f"result_stage_count = {len(accepted)}\n" in meta
    assert ("result_final_p = " in meta) == bool(accepted)
    iterates = (out / "iterates.csv").read_text().splitlines()[1:]
    assert len(iterates) == sum(int(row["outer_iterations"]) for row in accepted)


def test_first_stage_raising_the_violation_ends_the_path(monkeypatch):
    # a first stage that converges to a curve violating the cap more than
    # the connecting geodesic is rejected, and its penalty is fixed
    obs = ObstacleProblem(Grid(1.0, 20), h_ref=0.1)
    start = obs.initial_state()
    points = start.points.copy()
    points[1:-1, 2] += 0.05
    points[1:-1] /= np.linalg.norm(points[1:-1], axis=1, keepdims=True)
    higher = NodalCurve(start.grid, points)
    solves = []

    def solve(problem, x0, cfg, stops_early=None):
        solves.append(problem.p)
        return higher, Stage(problem, [], Termination.CONVERGED, "forced", state=higher)

    monkeypatch.setattr(obstacle, "damped_newton", solve)
    result = obstacle_path_follow(obs, NewtonConfig())
    assert solves == [obs.p]
    assert result.terminated is Termination.DAMPING_FAILED
    assert result.stages == [] and not result.attempts[0].accepted
    assert np.array_equal(result.state.points, start.points)
    assert obs.violation(higher) > obs.violation(start)
    assert result.message == (
        f"stage with penalty 1 failed (violation rose from {obs.violation(start):.3g} "
        f"to {obs.violation(higher):.3g})"
    )

