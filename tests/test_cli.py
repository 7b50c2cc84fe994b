import inspect
from dataclasses import fields

import numpy as np
import pytest

from bundle_newton import NewtonConfig
from bundle_newton.cli import (
    EXIT_CONFIG,
    EXIT_MAX_ITERATIONS,
    EXIT_OK,
    ConfigError,
    RunConfig,
    _with_default_boundary,
    _write_csv,
    build_parser,
    config_from_args,
    main,
    parse_config_file,
    run,
)
from bundle_newton.problems import GeodesicForceProblem, ObstacleProblem, RodProblem


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


def test_numbers_round_trip_losslessly(tmp_path):
    out = tmp_path / "g"
    assert main(["geodesic-force", "--n", "20", "--out-dir", str(out)]) == EXIT_OK
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


@pytest.mark.parametrize(
    "block",
    [
        np.array(_SPECIAL).reshape(-1, 4),
        np.random.default_rng(8).standard_normal((50, 3)) * 10.0 ** np.arange(-6, 9, 7),
        np.array([_SPECIAL[:6]]),  # a single row
        np.empty((0, 6)),  # no rows: the header alone
    ],
    ids=["special", "random", "one-row", "no-rows"],
)
def test_write_csv_matches_per_value_format(tmp_path, block):
    header = ",".join(f"c{k}" for k in range(block.shape[1]))
    _write_csv(tmp_path / "t.csv", header, block)
    assert (tmp_path / "t.csv").read_bytes() == per_value_csv(header, block).encode()


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


def test_unknown_problem_is_config_error(capsys):
    # argparse rejects the positional before our validation, so call run()
    with pytest.raises(ConfigError):
        run(RunConfig(problem="nonsense"))


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
        (["obstacle", "--p0", "-1"], "-1.0"),
        # a zero weight would never grow along the penalty path
        (["obstacle", "--n", "20", "--p0", "0"], "0.0"),
        (["obstacle", "--p-growth", "1.0"], "1.0"),
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
        (["obstacle", "--p0", "nan"], "nan"),
        (["obstacle", "--p0", "inf"], "inf"),
        (["obstacle", "--p-growth", "nan"], "nan"),
        (["obstacle", "--h-ref", "nan"], "nan"),
        (["geodesic-force", "--tol", "nan"], "nan"),
        (["geodesic-force", "--n", "5", "--tol", "inf"], "inf"),
        (["geodesic-force", "--n", "10", "--gamma0", "nan,0,1"], "'nan,0,1'"),
        (["rod", "--n", "10", "--y0", "nan,0,0"], "'nan,0,0'"),
        (["rod", "--n", "10", "--y1", "inf,0,0"], "[inf, 0.0, 0.0]"),
        # NaN is refused for every field, also one the problem does not read
        (["rod", "--force-scale", "nan"], "nan"),
        (["rod", "--p-growth", "nan"], "nan"),
        (["obstacle", "--sigma", "nan"], "nan"),
    ]
    capsys.readouterr()
    for argv, bad in cases:
        assert main(argv + ["--out-dir", str(tmp_path)]) == EXIT_CONFIG, argv
        assert bad in capsys.readouterr().err, argv
    # end points on the cap are inside the band
    assert main(["obstacle", "--n", "20", "--h-ref", "0.4", "--out-dir", str(tmp_path)]) == EXIT_OK


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 10\nwibble = 3\n")
    assert main(["geodesic-force", "--config", str(cfg)]) == EXIT_CONFIG
    # bad values in a file, unknown flags (--seed was removed), no file
    (tmp_path / "frac.cfg").write_text("n = 12.5\n")
    (tmp_path / "word.cfg").write_text("tol = abc\n")
    (tmp_path / "nan.cfg").write_text("sigma = nan\n")
    cases = [
        (["--config", str(tmp_path / "frac.cfg")], "'12.5'"),
        (["--config", str(tmp_path / "word.cfg")], "'abc'"),
        (["--config", str(tmp_path / "nan.cfg")], "'nan'"),
        (["--wibble", "3"], "--wibble"),
        (["--seed", "3"], "--seed"),
        (["--config", str(tmp_path / "missing.cfg")], "missing.cfg"),
    ]
    capsys.readouterr()
    for argv, bad in cases:
        assert main(["geodesic-force", *argv, "--out-dir", str(tmp_path)]) == EXIT_CONFIG, argv
        assert bad in capsys.readouterr().err, argv


def test_every_field_round_trips_through_flags_and_meta(tmp_path):
    # one non-default value per RunConfig field, some needing all 17 digits;
    # a field missing from the flags, the converters or meta.txt breaks the
    # round trip
    values = {
        "n": 7, "max_outer": 1, "max_inner": 7, "t_end": 2.5000000000000004, "tol": 3e-9,
        "theta_des": 0.375, "theta_acc": 0.95, "alpha0": 0.75, "alpha_fail": 1e-7,
        "force_scale": 2.5, "h_ref": 0.3, "p0": 2.0, "p_growth": 1.5,
        "violation_tol": 1e-4, "sigma": 0.10000000000000002, "gamma0": (0.6, 0.0, -0.8),
        "gammaT": (0.0, 0.6, -0.8), "y0": (0.1, 0.2, 0.30000000000000004),
        "y1": (1.0, 0.0, 0.5), "v0": (0.0, 1.0, 0.0), "v1": (0.0, 0.0, 1.0),
        "out_dir": str(tmp_path / "out"),
    }
    assert set(values) == {f.name for f in fields(RunConfig)} - {"problem"}
    expected = RunConfig(problem="geodesic-force", **values)
    default = RunConfig()
    assert all(getattr(expected, name) != getattr(default, name) for name in values)
    argv = ["geodesic-force"]
    for name, value in values.items():
        text = ",".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        argv.append(f"--{name.replace('_', '-')}={text}")
    assert config_from_args(build_parser().parse_args(argv)) == expected
    assert main(argv) == EXIT_MAX_ITERATIONS  # max_outer = 1
    assert RunConfig(**parse_config_file(tmp_path / "out" / "meta.txt")) == expected


def keyword_defaults(cls) -> dict:
    return {name: param.default for name, param in inspect.signature(cls).parameters.items()
            if param.default is not inspect.Parameter.empty}


def test_run_config_defaults_are_the_library_defaults():
    # the command line with no flags solves the problems the constructors
    # build with no keywords, under the default NewtonConfig
    cfg = RunConfig()
    newton = NewtonConfig()
    for f in fields(NewtonConfig):
        assert getattr(cfg, f.name) == getattr(newton, f.name), f.name
    geodesic = keyword_defaults(GeodesicForceProblem)
    obstacle = keyword_defaults(ObstacleProblem)
    rod = keyword_defaults(RodProblem)
    assert cfg.force_scale == geodesic["force_scale"]
    assert (cfg.h_ref, cfg.p0, cfg.p_growth, cfg.violation_tol) == (
        obstacle["h_ref"], obstacle["p"], obstacle["p_growth"], obstacle["violation_tol"]
    )
    assert cfg.sigma == rod["sigma"]
    for problem, defaults in [("geodesic-force", geodesic), ("obstacle", obstacle), ("rod", rod)]:
        filled = _with_default_boundary(RunConfig(problem=problem))
        names = ("y0", "y1", "v0", "v1") if problem == "rod" else ("gamma0", "gammaT")
        for name in names:
            assert getattr(filled, name) == defaults[name], (problem, name)


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
