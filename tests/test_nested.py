"""Nested iteration: the grid ladder, the nested solve against the direct
one, and the artifacts the command line writes for its levels."""

import numpy as np
import pytest

from bundle_newton import Grid, NewtonConfig, Termination, cli, damped_newton
from bundle_newton.cli import EXIT_DAMPING_FAILED, EXIT_OK, main
from bundle_newton.problems import (
    Continuation,
    GeodesicForceProblem,
    GridLevel,
    RodProblem,
    grid_ladder,
    nested_iteration,
)


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
    assert [level.n for level in levels] == [10, 100, 1000]
    assert all(level.trace.terminated is Termination.CONVERGED for level in levels)
    assert nested.grid == problem.grid
    assert np.abs(flat(nested) - flat(direct)).max() <= 10 * cfg.tol
    # the fine level starts in the fast local phase: few full steps
    fine = levels[-1].trace.iterations
    assert len(fine) <= 4
    assert all(it.accepted_alpha == 1.0 for it in fine)


@pytest.mark.parametrize(
    "argv", [["geodesic-force", "--n", "30"], ["rod", "--n", "20"]], ids=["geodesic-force", "rod"]
)
def test_one_level_ladder_writes_the_direct_run(tmp_path, monkeypatch, argv):
    assert main([*argv, "--out-dir", str(tmp_path / "nested")]) == EXIT_OK

    def direct_run(problem, cfg):
        state, trace = damped_newton(problem, problem.initial_state(), cfg)
        return Continuation(state, [GridLevel(problem.grid.n_interior, trace)],
                            trace.terminated, trace.message)

    monkeypatch.setattr(cli, "nested_iteration", direct_run)
    assert main([*argv, "--out-dir", str(tmp_path / "direct")]) == EXIT_OK
    nested, direct = tmp_path / "nested", tmp_path / "direct"
    for name in ("iterates.csv", "curve.csv"):
        assert (nested / name).read_bytes() == (direct / name).read_bytes()
    assert f"result_levels = {argv[2]}\n" in (nested / "meta.txt").read_text()


def test_levels_concatenate_their_rows_and_round_trip(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["rod", "--n", "100", "--out-dir", str(out1)]) == EXIT_OK
    assert main(["rod", "--config", str(out1 / "meta.txt"), "--out-dir", str(out2)]) == EXIT_OK
    for name in ("iterates.csv", "curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    levels = nested_iteration(RodProblem(Grid(1.0, 100))).attempts
    norms = [it.norm_dx for level in levels for it in level.trace.iterations]
    rows = read_rows(out1 / "iterates.csv")
    assert np.array_equal(rows[:, 0], np.arange(1, len(norms) + 1))
    assert np.array_equal(rows[:, 1], norms)
    meta = (out1 / "meta.txt").read_text()
    assert "result_levels = 10,100\n" in meta
    assert f"result_outer_iterations = {len(norms)}\n" in meta
    # stages.csv: one row per level with its trace's counts
    rows = [
        f"{level.n},{len(level.trace.iterations)},"
        f"{sum(it.inner_trials for it in level.trace.iterations)},converged"
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
    assert [level.n for level in result.attempts] == levels
    assert result.stages == result.attempts  # a failing level keeps its rows
    assert result.message.startswith(prefix + "step size collapsed")
    assert result.state.grid == Grid(1.0, levels[0])
