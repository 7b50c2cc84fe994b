"""Nested iteration: the grid ladder, the nested solve against the direct
one, and the artifacts the command line writes for its levels."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from bundle_newton import (
    Grid, NewtonConfig, Termination, cli, damped_newton, fem1d, grid_ladder,
    nested_iteration, newton,
)
from bundle_newton.cli import EXIT_DAMPING_FAILED, EXIT_INTERNAL, EXIT_OK, main
from bundle_newton.problems import (
    GeodesicForceProblem,
    ObstacleProblem,
    RodProblem,
    obstacle,
    obstacle_path_follow,
)
from conftest import jacobian_at, skeel_condition, spy_factorize, to_dense


def read_rows(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(x) for x in line.split(",")] for line in lines])


def flat(state):
    if hasattr(state, "lam"):
        return np.concatenate([state.y.ravel(), state.v.points.ravel(), state.lam.ravel()])
    return state.points.ravel()


def test_ladder_divides_by_ten_while_ten_nodes_are_left():
    assert grid_ladder(5) == [5]
    assert grid_ladder(99) == [99]
    assert grid_ladder(100) == [10, 100]
    assert grid_ladder(1000) == [10, 100, 1000]
    assert grid_ladder(1999) == [19, 199, 1999]
    assert grid_ladder(10000) == [10, 100, 1000, 10000]


@pytest.mark.parametrize("make", [GeodesicForceProblem, RodProblem], ids=["geodesic-force", "rod"])
def test_nested_solution_matches_the_direct_one(make):
    cfg = NewtonConfig()
    problem = make(Grid(1.0, 1000))
    direct, trace = damped_newton(problem, problem.initial_state(), cfg)
    result = nested_iteration(problem, cfg)
    nested, levels = result.state, result.attempts
    assert trace.terminated is Termination.CONVERGED
    assert [level.problem.grid.n_interior for level in levels] == [10, 100, 1000]
    assert all(level.terminated is Termination.CONVERGED for level in levels)
    assert nested.grid == problem.grid
    assert np.abs(flat(nested) - flat(direct)).max() <= 10 * cfg.tol
    # the fine level starts in the fast local phase: few full steps
    fine = levels[-1].iterations
    assert len(fine) <= 4
    assert all(it.accepted_alpha == 1.0 for it in fine)


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic-force", "--n", "30"],
        ["rod", "--n", "20"],
        ["obstacle", "--n", "50", "--h-ref", "0.1"],
    ],
    ids=["geodesic-force", "rod", "obstacle"],
)
def test_one_level_ladder_writes_the_direct_run(tmp_path, monkeypatch, argv):
    assert main([*argv, "--out-dir", str(tmp_path / "nested")]) == EXIT_OK

    def direct_run(problem, cfg):
        return problem.solve(cfg, problem.initial_state())

    monkeypatch.setattr(cli, "nested_iteration", direct_run)
    assert main([*argv, "--out-dir", str(tmp_path / "direct")]) == EXIT_OK
    nested, direct = tmp_path / "nested", tmp_path / "direct"
    for name in ("iterates.csv", "curve.csv"):
        assert (nested / name).read_bytes() == (direct / name).read_bytes()
    assert f"result_levels = {argv[2]}\n" in (nested / "meta.txt").read_text()


@pytest.mark.parametrize("h_ref", [0.1, 0.2])
def test_obstacle_ladder_resumes_the_penalty_path_on_each_finer_grid(tmp_path, h_ref):
    cfg = NewtonConfig()
    problem = ObstacleProblem(Grid(1.0, 100), h_ref=h_ref)
    direct = obstacle_path_follow(problem, cfg)
    result = nested_iteration(problem, cfg)
    assert result.terminated is Termination.CONVERGED
    grids = [stage.problem.grid.n_interior for stage in result.attempts]
    assert grids == sorted(grids) and set(grids) == {10, 100}
    last = result.stages[-1]
    assert last.problem.violation(last.state) <= problem.violation_tol
    # the coarse path ends at the direct path's penalty; the fine grid only finishes it
    assert result.stages[-1].problem.p == direct.stages[-1].problem.p
    assert result.state.grid == problem.grid
    assert np.abs(result.state.points - direct.state.points).max() <= 1e-10

    out = tmp_path / "o"
    argv = ["obstacle", "--n", "100", "--h-ref", str(h_ref), "--out-dir", str(out)]
    assert main(argv) == EXIT_OK
    assert "result_levels = 10,100\n" in (out / "meta.txt").read_text()
    header, *rows = (out / "stages.csv").read_text().splitlines()
    assert header.startswith("n,penalty,")
    assert [int(row.split(",")[0]) for row in rows] == grids


def test_levels_concatenate_their_rows_and_round_trip(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["rod", "--n", "100", "--out-dir", str(out1)]) == EXIT_OK
    assert main(["rod", "--config", str(out1 / "meta.txt"), "--out-dir", str(out2)]) == EXIT_OK
    for name in ("iterates.csv", "curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    levels = nested_iteration(RodProblem(Grid(1.0, 100))).attempts
    norms = [it.norm_dx for level in levels for it in level.iterations]
    rows = read_rows(out1 / "iterates.csv")
    assert np.array_equal(rows[:, 0], np.arange(1, len(norms) + 1))
    assert np.array_equal(rows[:, 1], norms)
    meta = (out1 / "meta.txt").read_text()
    assert "result_levels = 10,100\n" in meta
    assert f"result_outer_iterations = {len(norms)}\n" in meta
    # stages.csv: one row per level with its trace's counts
    rows = [
        f"{level.problem.grid.n_interior},{len(level.iterations)},"
        f"{sum(it.inner_trials for it in level.iterations)},converged"
        for level in levels
    ]
    stages = (out1 / "stages.csv").read_text().splitlines()
    assert stages == ["n,outer_iterations,inner_trials,termination", *rows]


def test_a_failed_coarse_level_ends_the_run_on_its_grid(tmp_path, capsys):
    out = tmp_path / "f"
    argv = ["geodesic-force", "--n", "1000", "--force-scale", "10", "--out-dir", str(out)]
    assert main(argv) == EXIT_DAMPING_FAILED
    assert "(level n=10: step size collapsed" in capsys.readouterr().out
    meta = (out / "meta.txt").read_text()
    assert "result_levels = 10\n" in meta
    assert "result_message = level n=10: " in meta
    assert np.array_equal(read_rows(out / "curve.csv")[:, 0], Grid(1.0, 10).nodes)


@pytest.mark.parametrize("n, levels, prefix", [(1000, [10], "level n=10: "), (50, [50], "")])
def test_a_failed_level_ends_the_continuation_with_its_termination(n, levels, prefix):
    # only a coarse level's message names the level; a one-level ladder is the direct solve
    result = nested_iteration(GeodesicForceProblem(Grid(1.0, n), force_scale=10.0))
    assert result.terminated is Termination.DAMPING_FAILED
    assert [level.problem.grid.n_interior for level in result.attempts] == levels
    assert result.stages == result.attempts  # a failing level keeps its rows
    assert result.message.startswith(prefix + "step size collapsed")
    assert result.state.grid == Grid(1.0, levels[0])


@pytest.mark.parametrize(
    "argv, factorizations, rows",
    [
        (["geodesic-force", "--n", "10000"], 8, 12),
        (["obstacle", "--n", "100", "--h-ref", "0.1"], 24, 34),
        (["rod", "--n", "1000"], 20, 23),
    ],
    ids=["geodesic-n10000", "obstacle-href0.1", "rod-n1000"],
)
def test_bench_runs_factorize_once_per_row_but_the_convergence_rows(
    tmp_path, monkeypatch, argv, factorizations, rows
):
    # the benchmark's runs: each of their 4, 10 and 3 solves ends on its last
    # full step's simplified step, so its convergence row costs no factorization
    matrices = spy_factorize(monkeypatch)
    assert main([*argv, "--out-dir", str(tmp_path)]) == EXIT_OK
    assert len(read_rows(tmp_path / "iterates.csv")) == rows
    assert len(matrices) == factorizations


def test_a_rod_solve_holds_less_than_two_band_matrices():
    # an outer iteration drops the last LU before it assembles its matrix,
    # whose storage then becomes its LU: rod n = 1000 (8003 unknowns,
    # bandwidths 9/9) peaks at about 1.5 bands of traced memory
    problem = RodProblem(Grid(1.0, 1000))
    band = jacobian_at(problem, problem.initial_state())._ab.nbytes
    nested_iteration(RodProblem(Grid(1.0, 100)))  # a first run's one-time allocations
    tracemalloc.start()
    try:
        result = nested_iteration(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.terminated is Termination.CONVERGED
    assert peak < 2 * band, peak / band


DIAGNOSIS = re.compile(r" \(Newton matrix condition estimate (\S+), largest at unknown \d+\)$")


def test_plain_newton_on_the_rod_ladder_ends_at_a_genuinely_singular_matrix():
    # rod --n 100 --theta-acc inf: the undamped steps grow to 1e9-3e10, and the
    # coarsest level runs out of iterations at a matrix that no row scaling
    # makes well conditioned; the message says so
    result = nested_iteration(RodProblem(Grid(1.0, 100)), NewtonConfig(theta_acc=math.inf))
    assert result.terminated is Termination.MAX_ITERATIONS
    assert result.message.startswith("level n=10: no convergence within 50 outer iterations (")
    assert float(DIAGNOSIS.search(result.message)[1]) >= 1e14
    level = result.attempts[-1].problem
    assert level.grid == Grid(1.0, 10)
    assert skeel_condition(to_dense(jacobian_at(level, result.state))) >= 1e14


def test_a_damping_failure_at_a_near_singular_matrix_exits_2_with_its_diagnosis(tmp_path):
    # sweep rod case 15: the coarsest level's step size collapses next to a
    # matrix past CONDITION_LIMIT; the run ends as a damping failure, writes
    # its artifacts and names the matrix in its message
    argv = ["rod", "--n", "100",
            "--y1", "-0.0016276324413633035,0.9344134998567042,-0.24583110124946037",
            "--v0", "-0.6491654454001294,0.2387984542764557,0.7221907800115058",
            "--v1", "0.3172946085666753,0.9430395232758364,0.10000294452766682",
            "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_DAMPING_FAILED
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "curve.csv", "iterates.csv", "meta.txt", "stages.csv"]
    meta = (tmp_path / "meta.txt").read_text()
    message = re.search(r"^result_message = (.*)$", meta, re.MULTILINE)[1]
    assert float(DIAGNOSIS.search(message)[1]) >= 1e14


def test_alpha0_damps_only_the_cold_start(monkeypatch):
    # the coarsest level's first solve starts from initial_state() at alpha0;
    # finer levels and later penalty stages are warm started with the one
    # config cfg.warm, at alpha0 = 1
    configs = []

    def solve(problem, x0, cfg, stops_early=None):
        configs.append(cfg)
        return damped_newton(problem, x0, cfg, stops_early)

    monkeypatch.setattr(newton, "damped_newton", solve)
    monkeypatch.setattr(obstacle, "damped_newton", solve)
    cfg = NewtonConfig(alpha0=0.5)
    assert cfg.warm == NewtonConfig() and cfg.warm.warm is cfg.warm
    for problem in (GeodesicForceProblem(Grid(1.0, 100)), ObstacleProblem(Grid(1.0, 100))):
        configs.clear()
        assert nested_iteration(problem, cfg).terminated is Termination.CONVERGED
        assert configs[0] is cfg and configs[1:] and all(c is cfg.warm for c in configs[1:])


def test_a_raising_run_writes_a_replayable_meta(tmp_path, capsys, monkeypatch):
    # a run whose LU meets a zero pivot: it exits 1 and writes only meta.txt,
    # which names the exception and reproduces the failure
    dgbtrf = fem1d.dgbtrf

    def zero_pivot(*args, **kwargs):
        lu, ipiv, _ = dgbtrf(*args, **kwargs)
        return lu, ipiv, 1

    monkeypatch.setattr(fem1d, "dgbtrf", zero_pivot)
    out, replay = tmp_path / "a", tmp_path / "b"
    argv = ["rod", "--n", "100", "--out-dir", str(out)]
    assert main(argv) == EXIT_INTERNAL
    assert "run failed (SingularSystem): " in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["meta.txt"]
    meta = (out / "meta.txt").read_text()
    assert "result_status = error\n" in meta
    assert "result_message = SingularSystem: " in meta
    argv = ["rod", "--config", str(out / "meta.txt"), "--out-dir", str(replay)]
    assert main(argv) == EXIT_INTERNAL
