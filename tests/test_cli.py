import ast
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bundle_newton
from bundle_newton import Grid, NewtonConfig, cli, nested_iteration, problems
from bundle_newton.cli import (
    EXIT_CONFIG,
    EXIT_MAX_ITERATIONS,
    EXIT_OK,
    _write_csv,
    build_parser,
    config_from_args,
    main,
    parameters,
    parse_config_file,
)
from conftest import run_isolated_python


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def test_geodesic_run_artifacts(tmp_path):
    out = tmp_path / "g"
    code = main(["geodesic-force", "--n", "30", "--out-dir", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out / "iterates.csv")
    assert header == [
        "outer_iter",
        "norm_dx_inf",
        "accepted_alpha",
        "inner_trials",
        "theta_final",
        "residual_inf",
    ]
    assert rows[-1, 1] <= 1e-10  # final norm_dx_inf
    curve_header, curve = read_csv(out / "curve.csv")
    assert curve_header == ["t", "x", "y", "z"]
    assert curve.shape == (32, 4)
    assert np.abs(np.linalg.norm(curve[:, 1:], axis=1) - 1.0).max() < 1e-12
    meta = (out / "meta.txt").read_text()
    assert "result_status = converged" in meta
    assert "\r" not in meta and "\r" not in (out / "iterates.csv").read_text()


def test_geodesic_reference_run_full_steps(tmp_path):
    # the documented reference run: converges with full steps in few rows
    out = tmp_path / "g100"
    assert main(["geodesic-force", "--n", "100", "--out-dir", str(out)]) == EXIT_OK
    _, rows = read_csv(out / "iterates.csv")
    assert rows.shape[0] <= 8
    assert rows[-1, 1] <= 1e-10
    assert np.all(rows[:, 2] == 1.0)  # accepted_alpha


@pytest.mark.parametrize(
    "argv",
    [
        ["geodesic-force", "--n", "25"],
        ["rod", "--n", "20"],
        ["obstacle", "--n", "25", "--h-ref", "0.2"],
    ],
    ids=["geodesic-force", "rod", "obstacle"],
)
def test_geodesic_run_deterministic(tmp_path, argv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([*argv, "--out-dir", str(out1)]) == EXIT_OK
    assert main([*argv, "--out-dir", str(out2)]) == EXIT_OK
    for name in ("iterates.csv", "curve.csv", "stages.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_meta_round_trip_reproduces_trace(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["obstacle", "--n", "25", "--h-ref", "0.2", "--out-dir", str(out1)]) == EXIT_OK
    assert (
        main(["obstacle", "--config", str(out1 / "meta.txt"), "--out-dir", str(out2)])
        == EXIT_OK
    )
    assert (out1 / "iterates.csv").read_text() == (out2 / "iterates.csv").read_text()
    assert (out1 / "curve.csv").read_text() == (out2 / "curve.csv").read_text()


@pytest.mark.parametrize("problem", problems.PROBLEMS)
def test_meta_alone_replays_the_run(tmp_path, problem):
    # meta.txt names the problem, so --config needs no positional argument
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main([problem, "--n", "20", "--out-dir", str(out1)]) == EXIT_OK
    assert main(["--config", str(out1 / "meta.txt"), "--out-dir", str(out2)]) == EXIT_OK
    for name in ("iterates.csv", "curve.csv", "stages.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_the_problem_comes_from_the_command_line_or_the_config_file(tmp_path, capsys):
    config = tmp_path / "c.txt"
    config.write_text("n = 8\n")
    for argv in ([], ["--config", str(config)]):
        assert main([*argv, "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
        assert "on the command line or in a --config file's problem line" in (
            capsys.readouterr().err
        )
    config.write_text("problem = rod\nn = 8\n")
    argv = ["geodesic-force", "--config", str(config), "--out-dir", str(tmp_path / "o")]
    assert main(argv) == EXIT_CONFIG
    assert "config file names problem 'rod', command line says 'geodesic-force'" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "o").exists()


def test_numbers_round_trip_losslessly(tmp_path):
    # curve.csv at n = 20 is 88 values, the one-shot % format; at n = 1000
    # 4008, the numpy writer
    for n in ("20", "1000"):
        out = tmp_path / n
        assert main(["geodesic-force", "--n", n, "--out-dir", str(out)]) == EXIT_OK
        # 17 significant digits: parsing and re-formatting is the identity
        for name in ("curve.csv", "iterates.csv"):
            lines = (out / name).read_text().splitlines()[1:]
            assert lines, name
            for line in lines:
                for token in line.split(","):
                    assert format(float(token), ".17g") == token


def per_value_csv(header, rows):
    """The CSV text of one ``format(float(v), ".17g")`` call per value."""
    lines = [header, *(",".join(format(float(v), ".17g") for v in row) for row in rows)]
    return "\n".join(lines) + "\n"


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
            1.0, 3.0, 199.0, 2.0**53, 0.1, 1 / 3, 2.2250738585072014e-308]


def _scattered_specials():
    rng = np.random.default_rng(29)
    block = rng.standard_normal((1500, 4)) * 10.0 ** rng.integers(-9, 19, (1500, 4))
    block.ravel()[rng.choice(block.size, 200, replace=False)] = rng.choice(_SPECIAL, 200)
    return block


def _near_boundaries():
    # ties of the 17th digit, powers of ten and the numpy writer's range ends, +- 1 ulp
    exact = [1234567890123456.25, 1234567890123456.75, 123456789012345.625,
             123456789012345.875, 1e-6, 1e16, *(10.0**k for k in range(-8, 19))]
    values = np.array(exact + [-v for v in exact])
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, np.inf)])
    return np.resize(values, (200, 3))


def _planar_rod_columns():
    t = np.linspace(0.0, 1.0, 300)
    return np.column_stack([t, np.zeros_like(t), np.full_like(t, -0.0), -t])


def _rows(count):
    # three columns: a pass takes CSV_CHUNK_VALUES // 3 whole rows, not all its values
    return np.random.default_rng(count).standard_normal((count, 3))


@pytest.mark.parametrize(
    "block",
    [
        np.array(_SPECIAL).reshape(-1, 4),
        np.random.default_rng(8).standard_normal((50, 3)) * 10.0 ** np.arange(-6, 9, 7),
        np.array([_SPECIAL[:6]]),  # a single row
        np.empty((0, 6)),  # no rows: the header alone
        # above CSV_VECTOR_MIN_VALUES, so written by the numpy writer
        _scattered_specials(),
        _near_boundaries(),
        _planar_rod_columns(),
        _rows(cli.CSV_CHUNK_VALUES // 3 - 1),
        _rows(cli.CSV_CHUNK_VALUES // 3),
        _rows(cli.CSV_CHUNK_VALUES // 3 + 1),
    ],
    ids=["special", "random", "one-row", "no-rows", "scattered-specials", "near-boundaries",
         "zero-columns", "chunk-minus-1", "one-chunk", "chunk-plus-1"],
)
def test_write_csv_matches_per_value_format(tmp_path, block):
    header = ",".join(f"c{k}" for k in range(block.shape[1]))
    _write_csv(tmp_path / "t.csv", header, block)
    assert (tmp_path / "t.csv").read_bytes() == per_value_csv(header, block).encode()


def test_the_numpy_writer_is_exact_on_a_million_values(tmp_path):
    # random bit patterns (every exponent, NaNs and infinities included) and
    # log-uniform magnitudes over 1e-8..1e18, against one "%.17g" per value
    rng = np.random.default_rng(17)
    on_numpy_path = 0
    while on_numpy_path < 10**6:
        bits = rng.integers(0, 2**64, 2**15, dtype=np.uint64).view(np.float64)
        scales = 10.0 ** rng.uniform(-8.0, 18.0, 2**17) * rng.choice([-1.0, 1.0], 2**17)
        block = np.concatenate([bits, scales]).reshape(-1, 4)
        _write_csv(tmp_path / "t.csv", "h", block)
        row = "%.17g,%.17g,%.17g,%.17g\n"
        expected = "h\n" + (row * len(block)) % tuple(block.ravel().tolist())
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()
        magnitude = np.abs(block)
        on_numpy_path += np.count_nonzero((magnitude > 1e-6) & (magnitude < 1e16))


def test_the_numpy_writer_holds_one_pass_of_slots(tmp_path):
    # a curve.csv as geodesic n = 10000 writes it: a pass of 8192 values peaks
    # at about 1.15 MiB of traced memory (140 bytes a value), and the bound
    # leaves 30% over that; 16384 values a pass would hold about 2.2 MiB
    rng = np.random.default_rng(10)
    unit = rng.standard_normal((10002, 3))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    table = np.column_stack([np.linspace(0.0, 1.0, 10002), unit])
    _write_csv(tmp_path / "t.csv", "t,x,y,z", table[:200])  # builds the lookup tables
    tracemalloc.start()
    try:
        _write_csv(tmp_path / "t.csv", "t,x,y,z", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20, peak / 2**20


def test_obstacle_meta_records_penalty(tmp_path):
    out = tmp_path / "o"
    assert main(["obstacle", "--n", "20", "--h-ref", "0.2", "--out-dir", str(out)]) == EXIT_OK
    meta = dict(
        line.split(" = ", 1) for line in (out / "meta.txt").read_text().splitlines()
    )
    assert float(meta["result_final_p"]) > 1.0
    assert float(meta["result_violation"]) <= float(meta["violation_tol"])
    assert int(meta["result_stage_count"]) >= 1


def test_rod_curve_columns(tmp_path):
    out = tmp_path / "r"
    assert main(["rod", "--n", "15", "--out-dir", str(out)]) == EXIT_OK
    header, rows = read_csv(out / "curve.csv")
    assert header == ["t", "x", "y", "z", "vx", "vy", "vz", "lx", "ly", "lz"]
    assert rows.shape == (17, 10)
    # the multiplier of the first interval is repeated at node zero
    assert np.array_equal(rows[0, 7:], rows[1, 7:])
    # alpha column: damped early, full step at the end
    _, iters = read_csv(out / "iterates.csv")
    alphas = iters[:, 2]
    assert alphas[0] < 1.0 and alphas[-1] == 1.0


# the parameter keys of meta.txt that every problem writes, in order
_RUN_KEYS = ["problem", "n", "t_end", "tol", "theta_acc", "alpha0", "max_outer"]

# per problem at --n 20: the stages.csv header, the curve.csv header, the
# result_* keys of meta.txt in order (a converged path writes no message) and
# its parameter keys in order
_LAYOUTS = {
    "geodesic-force": (
        "n,outer_iterations,inner_trials,termination",
        "t,x,y,z",
        ["levels", "status", "outer_iterations", "final_norm_dx", "final_residual_inf",
         "message"],
        [*_RUN_KEYS, "gamma0", "gammaT", "force_scale", "out_dir"],
    ),
    "obstacle": (
        "n,penalty,violation,outer_iterations,inner_trials,termination,accepted",
        "t,x,y,z",
        ["levels", "stage_count", "final_p", "violation", "rejected_stages", "status",
         "outer_iterations", "final_norm_dx", "final_residual_inf"],
        [*_RUN_KEYS, "gamma0", "gammaT", "h_ref", "violation_tol", "out_dir"],
    ),
    "rod": (
        "n,outer_iterations,inner_trials,termination",
        "t,x,y,z,vx,vy,vz,lx,ly,lz",
        ["levels", "constraint_inf", "status", "outer_iterations", "final_norm_dx",
         "final_residual_inf", "message"],
        [*_RUN_KEYS, "y0", "y1", "v0", "v1", "sigma", "out_dir"],
    ),
}


@pytest.mark.parametrize("problem", sorted(_LAYOUTS))
def test_artifact_layout_per_problem(tmp_path, problem):
    stages_header, curve_header, result_keys, parameter_keys = _LAYOUTS[problem]
    assert main([problem, "--n", "20", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert (tmp_path / "stages.csv").read_text().splitlines()[0] == stages_header
    assert (tmp_path / "curve.csv").read_text().splitlines()[0] == curve_header
    keys = [line.split(" = ", 1)[0] for line in (tmp_path / "meta.txt").read_text().splitlines()]
    assert [key[len("result_"):] for key in keys if key.startswith("result_")] == result_keys
    assert [key for key in keys if not key.startswith("result_")] == parameter_keys


def test_rod_sigma_only_scales_the_written_multiplier(tmp_path):
    # with no external load the rigidity scales the multiplier and nothing
    # else: the Newton iterates are those of sigma = 1 whatever sigma is
    def run_rod(sigma):
        out = tmp_path / f"rod_{sigma!r}"
        assert main(["rod", "--n", "100", "--sigma", repr(sigma), "--out-dir", str(out)]) == EXIT_OK
        return out

    ref = run_rod(1.0)
    _, ref_curve = read_csv(ref / "curve.csv")
    for sigma in (0.01, 100.0, 1e4, 1e6):
        out = run_rod(sigma)
        for name in ("iterates.csv", "stages.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (sigma, name)
        _, curve = read_csv(out / "curve.csv")
        assert curve[:, :7].tobytes() == ref_curve[:, :7].tobytes(), sigma
        assert curve[:, 7:].tobytes() == (sigma * ref_curve[:, 7:]).tobytes(), sigma


def test_unknown_problem_is_config_error(tmp_path, capsys):
    # argparse rejects an unknown positional, a config file's problem line is checked
    config = tmp_path / "c.txt"
    config.write_text("problem = nonsense\n")
    assert main(["--config", str(config), "--out-dir", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "unknown problem 'nonsense'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_a_parameter_the_problem_does_not_take_is_refused(tmp_path, capsys):
    config = tmp_path / "c.txt"
    config.write_text("problem = rod\nn = 20\ngamma0 = 0.8,0,0.6\n")
    out = tmp_path / "o"
    for argv, message in [
        (["geodesic-force", "--n", "20", "--sigma", "-1"], "geodesic-force takes no sigma"),
        (["rod", "--n", "20", "--h-ref", "0.2"], "rod takes no h_ref"),
        (["--config", str(config)], "rod takes no gamma0"),
    ]:
        assert main([*argv, "--out-dir", str(out)]) == EXIT_CONFIG, argv
        assert message in capsys.readouterr().err, argv
        assert not out.exists(), argv


@pytest.mark.parametrize("n", [5, 10, 200])
def test_boundary_points_joined_across_a_pole_are_refused(tmp_path, capsys, n):
    # the connecting arc, every solve's start, passes the north pole, where
    # the winding force is undefined; without the force the run is a plain geodesic
    argv = ["geodesic-force", "--n", str(n), "--gamma0", "0.6,0,0.8", "--gammaT=-0.6,0,0.8"]
    out = tmp_path / "o"
    assert main([*argv, "--out-dir", str(out)]) == EXIT_CONFIG
    assert "of the north pole (0, 0, 1)" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--force-scale", "0", "--out-dir", str(out)]) == EXIT_OK


def test_bad_flag_value_exits_with_config_code(tmp_path, capsys):
    assert main(["geodesic-force", "--n", "0", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert main(["obstacle", "--h-ref", "1.5", "--out-dir", str(tmp_path)]) == EXIT_CONFIG
    assert (
        main(["geodesic-force", "--gamma0", "1,2", "--out-dir", str(tmp_path)])
        == EXIT_CONFIG
    )
    # (argv, the bad value as the error message must name it)
    cases = [
        (["geodesic-force", "--gamma0", "1,2,3"], "[1.0, 2.0, 3.0]"),
        (["geodesic-force", "--gamma0", "0,0,1", "--gammaT", "0,0,-1"], "[0.0, 0.0, -1.0]"),
        # nearly antipodal: a @ b rounds to -1, no unique connecting geodesic
        (["geodesic-force", "--n", "5", "--gamma0", "1,0,0", "--gammaT=-1,1e-10,0"],
         "[-1.0, 1e-10, 0.0]"),
        (["obstacle", "--n", "5", "--gamma0", "1,0,0", "--gammaT=-1,1e-10,0"],
         "[-1.0, 1e-10, 0.0]"),
        (["rod", "--v0", "1,1,0"], "[1.0, 1.0, 0.0]"),
        # antipodal end directions, at both parities of the node count
        (["rod", "--n", "4", "--v0", "1,0,0", "--v1=-1,0,0"],
         "[1.0, 0.0, 0.0] and [-1.0, 0.0, 0.0]"),
        (["rod", "--n", "5", "--v0", "1,0,0", "--v1=-1,0,0"],
         "[1.0, 0.0, 0.0] and [-1.0, 0.0, 0.0]"),
        # one interior node: more constraint rows than primal unknowns
        (["rod", "--n", "1"], "the rod needs at least 2 interior nodes, got 1"),
        # the default end points (z = 0.6) above the band: no penalty reaches it
        (["obstacle", "--n", "50", "--h-ref", "0.45"], "cap z <= 0.55 "),
        (["obstacle", "--n", "100", "--h-ref", "0.5"], "cap z <= 0.5 "),
        (["geodesic-force", "--n", "abc"], "'abc'"),
        # NaN and inf fail every range check
        (["obstacle", "--n", "10", "--violation-tol", "nan"], "nan"),
        (["geodesic-force", "--t-end", "nan"], "nan"),
        (["rod", "--sigma", "nan"], "nan"),
        (["geodesic-force", "--force-scale", "nan"], "nan"),
        (["geodesic-force", "--force-scale", "inf"], "inf"),
        (["obstacle", "--h-ref", "nan"], "nan"),
        (["geodesic-force", "--tol", "nan"], "nan"),
        (["geodesic-force", "--n", "5", "--tol", "inf"], "inf"),
        (["geodesic-force", "--n", "5", "--max-outer", "0"], "need max_outer >= 1, got 0"),
        # the damping's bounds name the constants THETA_DES and ALPHA_FAIL
        (["geodesic-force", "--n", "5", "--theta-acc", "0.5"], "need theta_acc > 0.5, got 0.5"),
        (["geodesic-force", "--n", "5", "--alpha0", "1e-9"],
         "need 1e-08 < alpha0 <= 1, got 1e-09"),
        (["geodesic-force", "--n", "5", "--alpha0", "1.5"], "need 1e-08 < alpha0 <= 1, got 1.5"),
        (["geodesic-force", "--n", "10", "--gamma0", "nan,0,1"], "'nan,0,1'"),
        (["rod", "--n", "10", "--y0", "nan,0,0"], "'nan,0,0'"),
        (["rod", "--n", "10", "--y1", "inf,0,0"], "[inf, 0.0, 0.0]"),
        # NaN is refused for every field, also one the problem does not read
        (["rod", "--force-scale", "nan"], "nan"),
        (["rod", "--h-ref", "nan"], "nan"),
        (["obstacle", "--sigma", "nan"], "nan"),
    ]
    capsys.readouterr()
    for argv, bad in cases:
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG, argv
        assert bad in capsys.readouterr().err, argv
    # end points on the cap are inside the band
    assert main(["obstacle", "--n", "20", "--h-ref", "0.4", "--out-dir", str(tmp_path)]) == EXIT_OK
    assert main(["rod", "--n", "2", "--out-dir", str(tmp_path)]) == EXIT_OK


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 10\nwibble = 3\n")
    assert main(["geodesic-force", "--config", str(cfg)]) == EXIT_CONFIG
    # bad values in a file, unknown flags (--seed was removed), no file
    (tmp_path / "frac.cfg").write_text("n = 12.5\n")
    (tmp_path / "word.cfg").write_text("tol = abc\n")
    (tmp_path / "nan.cfg").write_text("sigma = nan\n")
    # max_inner is no parameter: ALPHA_FAIL alone bounds the trial steps;
    # theta_des and alpha_fail are the constants THETA_DES and ALPHA_FAIL
    (tmp_path / "inner.cfg").write_text("max_inner = 20\n")
    (tmp_path / "des.cfg").write_text("theta_des = 0.5\n")
    (tmp_path / "fail.cfg").write_text("alpha_fail = 1e-8\n")
    cases = [
        (["--config", str(tmp_path / "frac.cfg")], "'12.5'"),
        (["--config", str(tmp_path / "word.cfg")], "'abc'"),
        (["--config", str(tmp_path / "nan.cfg")], "'nan'"),
        (["--wibble", "3"], "--wibble"),
        (["--seed", "3"], "--seed"),
        (["--max-inner", "7"], "--max-inner"),
        (["--config", str(tmp_path / "inner.cfg")], "'max_inner'"),
        (["--theta-des", "0.3"], "--theta-des"),
        (["--alpha-fail", "1e-3"], "--alpha-fail"),
        (["--config", str(tmp_path / "des.cfg")], "'theta_des'"),
        (["--config", str(tmp_path / "fail.cfg")], "'alpha_fail'"),
        (["--config", str(tmp_path / "missing.cfg")], "missing.cfg"),
    ]
    capsys.readouterr()
    for argv, bad in cases:
        assert main(["geodesic-force", *argv, "--out-dir", str(tmp_path)]) == EXIT_CONFIG, argv
        assert bad in capsys.readouterr().err, argv
    # p0 and p_growth are the penalty path's constants P0 and MAX_GROWTH
    (tmp_path / "p0.cfg").write_text("p0 = 2\n")
    (tmp_path / "growth.cfg").write_text("p_growth = 4\n")
    for argv, bad in [
        (["--p0", "2"], "--p0"),
        (["--p-growth", "4"], "--p-growth"),
        (["--config", str(tmp_path / "p0.cfg")], "'p0'"),
        (["--config", str(tmp_path / "growth.cfg")], "'p_growth'"),
    ]:
        assert main(["obstacle", *argv, "--out-dir", str(tmp_path)]) == EXIT_CONFIG, argv
        assert bad in capsys.readouterr().err, argv


# per problem, one non-default value for each constructor keyword
_OWN_VALUES = {
    "geodesic-force": {"gamma0": (0.6, 0.0, -0.8), "gammaT": (0.0, 0.6, -0.8),
                       "force_scale": 2.5},
    "obstacle": {"gamma0": (0.0, 0.8, 0.6), "gammaT": (0.0, -0.8, 0.6), "h_ref": 0.3,
                 "violation_tol": 1e-4},
    "rod": {"y0": (0.1, 0.2, 0.30000000000000004), "y1": (1.0, 0.0, 0.5), "v0": (0.0, 1.0, 0.0),
            "v1": (0.0, 0.0, 1.0), "sigma": 0.10000000000000002},
}


@pytest.mark.parametrize("problem", problems.PROBLEMS)
def test_every_field_round_trips_through_flags_and_meta(tmp_path, problem):
    # one non-default value per parameter of the problem, some needing all 17
    # digits; a parameter missing from the flags, the parsers or meta.txt
    # breaks the round trip
    values = {
        "n": 7, "t_end": 2.5000000000000004, "tol": 3e-9, "theta_acc": 0.95, "alpha0": 0.75,
        "max_outer": 1,
        **_OWN_VALUES[problem], "out_dir": str(tmp_path / "out"),
    }
    expected = {"problem": problem, **values}
    default = parameters(problem)
    assert list(expected) == list(default)
    assert all(value != default[name] for name, value in values.items())
    argv = [problem]
    for name, value in values.items():
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        argv.append(f"--{name.replace('_', '-')}={text}")
    assert config_from_args(build_parser().parse_args(argv)) == expected
    assert main(argv) == EXIT_MAX_ITERATIONS  # max_outer = 1
    assert list(parse_config_file(tmp_path / "out" / "meta.txt").items()) == list(expected.items())


@pytest.mark.parametrize("problem", problems.PROBLEMS)
def test_a_flagless_run_solves_the_library_defaults(tmp_path, problem):
    # the command line with no flags but --n solves the problem its class
    # builds with no keywords, under the default NewtonConfig
    assert main([problem, "--n", "20", "--out-dir", str(tmp_path)]) == EXIT_OK
    result = nested_iteration(problems.PROBLEMS[problem](Grid(1.0, 20)), NewtonConfig())
    rows = [(k, it.norm_dx, it.accepted_alpha, it.inner_trials, it.theta_final, it.residual_inf)
            for k, it in enumerate((it for stage in result.stages for it in stage.iterations),
                                   start=1)]
    header = "outer_iter,norm_dx_inf,accepted_alpha,inner_trials,theta_final,residual_inf"
    assert (tmp_path / "iterates.csv").read_text() == per_value_csv(header, rows)


def test_negative_triples_parse_after_a_space(tmp_path):
    # argparse reads "-0.6,0,-0.8" and "-1e-3" as flags; after a flag they are its value
    for space, equals in [
        (["geodesic-force", "--n", "20", "--gamma0", "-0.6,0,-0.8"],
         ["geodesic-force", "--n", "20", "--gamma0=-0.6,0,-0.8"]),
        (["rod", "--n", "20", "--y1", "-0.8,0,0",
          "--v0", "-0.4472135954999579,0,0.8944271909999159",
          "--v1", "-0.6246950475544243,0,0.7808688094430304"],
         ["rod", "--n", "20", "--y1=-0.8,0,0", "--v0=-0.4472135954999579,0,0.8944271909999159",
          "--v1=-0.6246950475544243,0,0.7808688094430304"]),
        (["geodesic-force", "--n", "20", "--force-scale", "-1e-3"],
         ["geodesic-force", "--n", "20", "--force-scale=-1e-3"]),
    ]:
        assert (config_from_args(build_parser().parse_args(space))
                == config_from_args(build_parser().parse_args(equals)))
        outs = [tmp_path / space[0] / form for form in ("space", "equals")]
        for argv, out in zip((space, equals), outs):
            assert main([*argv, "--out-dir", str(out)]) == EXIT_OK, argv
        for name in ("iterates.csv", "curve.csv", "stages.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (space, name)
        meta = [(out / "meta.txt").read_text() for out in outs]
        assert meta[0].replace(str(outs[0]), str(outs[1])) == meta[1]


def test_two_runs_build_one_parser(tmp_path, monkeypatch):
    # the parser is built on the first call of main and kept for the process
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for k in range(2):
        assert main(["geodesic-force", "--n", "5", "--out-dir", str(tmp_path / str(k))]) == EXIT_OK
    assert len(built) == 1


# the problem constructors' keywords: run parameters that only the problems name
_PROBLEM_KEYWORDS = {name for cls in problems.PROBLEMS.values()
                     for name in inspect.signature(cls).parameters} - {"grid"}


def _problem_branches(source: str) -> list:
    """The lines of ``source`` that know a problem class: an import from
    ``.problems`` other than ``PROBLEMS``, a problem class or ``DEFAULT_*``
    name, an ``isinstance`` call, a ``.problem`` compared with a string, or an
    identifier, keyword argument or string other than a docstring that equals
    a problem constructor keyword."""
    tree = ast.parse(source)
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("problems"):
            names = [alias.name for alias in node.names]
            if node.module != "problems" or names != ["PROBLEMS"]:
                found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            if "problems" in [alias.name for alias in node.names]:
                found.append(node.lineno)
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name in ("GeodesicForceProblem", "ObstacleProblem", "RodProblem", "isinstance") or (
            name or ""
        ).startswith("DEFAULT_"):
            found.append(node.lineno)
        # Name, Attribute, function argument, keyword argument, definition
        identifier = name or getattr(node, "arg", None) or getattr(node, "name", None)
        if isinstance(node, ast.Constant) and id(node) not in docstrings:
            identifier = node.value
        if isinstance(identifier, str) and identifier in _PROBLEM_KEYWORDS:
            found.append(node.lineno)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            literals = [c for o in operands for c in [o, *getattr(o, "elts", [])]
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            if literals and any(getattr(o, "attr", None) == "problem" for o in operands):
                found.append(node.lineno)
    return found


def test_the_command_line_knows_no_problem_class():
    # the command line reaches the problems through problems.PROBLEMS alone
    assert _problem_branches(Path(inspect.getfile(bundle_newton.cli)).read_text()) == []
    assert _PROBLEM_KEYWORDS >= {"gamma0", "force_scale", "h_ref", "sigma", "v1"}
    # and the check sees each kind of branch
    for source in (
        "from .problems import PROBLEMS, RodProblem",
        "from .problems.rod import DEFAULT_Y0",
        "from . import problems",
        "problem = problems.ObstacleProblem(grid)",
        "obstacle = isinstance(problem, type(problem))",
        "defaults = rod.DEFAULT_Y0",
        "rod = cfg.problem == 'rod'",
        "curve = cfg.problem in ('geodesic-force', 'obstacle')",
        "scale = cfg.force_scale",
        "sigma = 1.0",
        "problem = cls(grid, h_ref=0.2)",
        "def build(grid, gamma0): pass",
        "value = cfg['h_ref']",
    ):
        assert _problem_branches(source) == [1], source
    # a docstring may name a keyword
    assert _problem_branches('"""Reads sigma."""\ndef f():\n    """gammaT"""') == []


def test_the_readme_names_exactly_the_flags_of_the_command_line():
    # a flag the parser drops must leave README's "Command line" section, and a new one enter it
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    options = {flag for flag in build_parser()._option_string_actions if flag.startswith("--")}
    assert {"--help", "--config", "--gammaT", "--violation-tol"} <= options
    assert named == options


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "n = 12\n"
        "tol = 1e-9\n"
        "gamma0 = 0.8,0,0.6\n"
        "result_status = converged\n"  # result keys are ignored
    )
    values = parse_config_file(cfg)
    assert values == {"n": 12, "tol": 1e-9, "gamma0": (0.8, 0.0, 0.6)}


def test_meta_replays_an_out_dir_containing_a_hash(tmp_path, monkeypatch):
    # only a line that starts with "#" is a comment, so the replay of
    # "out_dir = rt#x" writes into rt#x again, not into rt
    monkeypatch.chdir(tmp_path)
    assert main(["geodesic-force", "--n", "8", "--out-dir", "rt#x"]) == EXIT_OK
    meta = (tmp_path / "rt#x" / "meta.txt").read_text()
    assert "out_dir = rt#x\n" in meta
    assert main(["geodesic-force", "--config", "rt#x/meta.txt"]) == EXIT_OK
    assert not (tmp_path / "rt").exists()
    assert (tmp_path / "rt#x" / "meta.txt").read_text() == meta


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 12\n")
    out = tmp_path / "out"
    assert (
        main(
            [
                "geodesic-force",
                "--config",
                str(cfg),
                "--n",
                "8",
                "--out-dir",
                str(out),
            ]
        )
        == EXIT_OK
    )
    meta = (out / "meta.txt").read_text()
    assert "n = 8" in meta.splitlines()[1]


def test_exports_resolve_and_the_module_entry_point_runs():
    for package in (bundle_newton, problems):
        assert len(package.__all__) == len(set(package.__all__)), package.__name__
        for name in package.__all__:
            assert hasattr(package, name), f"{package.__name__}.{name}"
    src = str(Path(bundle_newton.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "bundle_newton.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: bundle-newton")


def test_a_run_leaves_scipy_linalg_unimported(tmp_path):
    # fem1d loads its LAPACK/BLAS routines without scipy.linalg's package, and
    # registers their modules so that a later import of it reuses them
    code = """
from bundle_newton import cli, fem1d
assert cli.main(["geodesic-force", "--n", "20", "--out-dir", sys.argv[1]]) == 0
loaded = sorted(name for name in sys.modules if name.startswith("scipy"))
assert "scipy.linalg" not in sys.modules and "scipy" not in sys.modules, loaded
import scipy.linalg.lapack
assert fem1d.dgbtrf is scipy.linalg.lapack.dgbtrf
assert scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"]
"""
    done = run_isolated_python(code, str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "run" / "iterates.csv").is_file()


def test_a_repeated_run_faults_in_no_fresh_heap_pages(tmp_path):
    # main keeps freed heap pages mapped, so a second identical run reuses the
    # first one's instead of faulting in its band matrix, LU and temporaries
    # (rod n = 1000: about 1800 minor faults on the second call without the policy, 0 with it)
    pytest.importorskip("resource")
    if cli._mallopt() is None:
        pytest.skip("the C library has no mallopt")
    code = """
import contextlib, io, resource
from bundle_newton import cli
argv = ["rod", "--n", "1000", "--out-dir", sys.argv[1]]
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""
    done = run_isolated_python(code, str(tmp_path / "run"))
    assert done.returncode == 0, done.stderr
    first, second = map(int, done.stdout.split())
    assert second < 200, (first, second)


def test_the_allocator_policy_is_optional_and_set_once(tmp_path, monkeypatch):
    outs = [tmp_path / "kept", tmp_path / "plain"]
    assert main(["rod", "--n", "100", "--out-dir", str(outs[0])]) == EXIT_OK
    calls = []
    try:
        # a C library without mallopt: the run is the same, byte for byte
        monkeypatch.setattr(cli, "_mallopt", lambda: None)
        cli.keep_freed_pages.cache_clear()
        assert main(["rod", "--n", "100", "--out-dir", str(outs[1])]) == EXIT_OK
        for name in ("iterates.csv", "curve.csv", "stages.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        meta = [(out / "meta.txt").read_text() for out in outs]
        assert meta[0].replace(str(outs[0]), str(outs[1])) == meta[1]
        # with mallopt, the first call of main sets both thresholds and a second sets none
        monkeypatch.setattr(cli, "_mallopt", lambda: lambda *args: calls.append(args) or 1)
        cli.keep_freed_pages.cache_clear()
        for k in range(2):
            assert main(["rod", "--n", "10", "--out-dir", str(tmp_path / str(k))]) == EXIT_OK
    finally:
        cli.keep_freed_pages.cache_clear()
    assert calls == [(cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD),
                     (cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD)]
