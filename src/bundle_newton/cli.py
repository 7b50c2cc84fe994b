"""Command line front end.

Runs one of the named benchmark problems with the damped Newton driver and
writes four artifacts into the output directory:

- ``iterates.csv``: one row per outer iteration, the rows of the accepted
  stage solves concatenated,
- ``curve.csv``: the final nodal data, on the grid of the final state,
- ``stages.csv``: one row per stage solve, rejected penalty stages included,
  with the columns of the problem's ``stage_row``,
- ``meta.txt``: every resolved parameter plus ``result_*`` summary keys; the
  file doubles as a ``--config`` input that reproduces the run, and its
  ``problem`` line stands in for the positional argument.  A run that
  raises writes only ``meta.txt``, with ``result_status = error`` and the
  exception as ``result_message``.

Every problem is solved by nested iteration on the grid ladder ``n //
10**k``, coarsest first, for every ``k`` that leaves at least 10 interior
nodes (``newton.grid_ladder``): ``--n 1000`` solves on 10, 100 and 1000
nodes, and any ``n`` below 100 is the single direct solve.  A level is the
problem's own ``solve``: one damped Newton solve or, for the obstacle, its
penalty path (:func:`~bundle_newton.problems.obstacle_path_follow`), resumed
at the last penalty on each finer level.  ``meta.txt`` records the levels
run as ``result_levels``.
A level that does not converge ends the run; on a coarse level its message
is prefixed ``level n=<its n>:`` and ``curve.csv`` holds that level's state.

The problem's constructor and ``NewtonConfig`` are the one list of run
parameters: :func:`parameters` gives those of a problem at their defaults,
in ``meta.txt`` order (the problem, the grid's ``n`` and ``t_end``, the
``NewtonConfig`` fields, the keywords of the problem's class and
``out_dir``).  Each parameter is a flag (``t_end`` is ``--t-end``), a ``key =
value`` line of a ``--config`` file and a line of ``meta.txt``, parsed and
formatted by the type of its default; the flags are those of all problems,
and one the run's problem does not take is a configuration error.  This
module knows no problem class: ``problems.PROBLEMS`` names it, it is built
from the grid and its keywords, and it names its ``curve.csv`` columns
after ``t``, its ``stages.csv`` row and ``result_*`` numbers.

Exit codes: 0 converged, 2 damping failed, 3 iteration limit (also the
obstacle's penalty stage limit), 4 configuration or usage error (bad flag or
file values, unknown flags or keys, invalid boundary data, an obstacle end
point above the cap), 1 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .fem1d import Grid
from .newton import NewtonConfig, Termination, nested_iteration
from .problems import PROBLEMS

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_DAMPING_FAILED = 2
EXIT_MAX_ITERATIONS = 3
EXIT_CONFIG = 4

_EXIT_BY_TERMINATION = {
    Termination.CONVERGED: EXIT_OK,
    Termination.DAMPING_FAILED: EXIT_DAMPING_FAILED,
    Termination.MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
}


class ConfigError(Exception):
    pass


def _fmt(value) -> str:
    """A number in 17 significant digits, which round-trip; text as it is."""
    return format(float(value), ".17g") if hasattr(value, "__float__") else value


def number(text: str) -> float:
    """Parse a float that is not NaN; ``inf`` parses (``theta_acc = inf`` is plain Newton).

    argparse names this function in its errors ("invalid number value").
    """
    value = float(text)
    if np.isnan(value):
        raise ValueError(f"NaN is not a valid value, got {text!r}")
    return value


def triple(text: str) -> tuple:
    """Parse three comma separated numbers, optionally in parentheses.

    argparse names this function in its errors ("invalid triple value").
    """
    parts = [p for p in text.replace("(", "").replace(")", "").split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError(f"expected three comma separated numbers, got {text!r}")
    return tuple(number(p) for p in parts)


@functools.cache  # a signature is read on every call of main
def _keyword_defaults(cls) -> dict:
    return {name: param.default for name, param in inspect.signature(cls).parameters.items()
            if param.default is not param.empty}


def parameters(problem: str) -> dict:
    """Every run parameter of ``problem`` at its default, in ``meta.txt`` order."""
    if problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {problem!r}; expected one of {tuple(PROBLEMS)}")
    return {"problem": problem, "n": 100, "t_end": 1.0,
            **{f.name: f.default for f in fields(NewtonConfig)},
            **_keyword_defaults(PROBLEMS[problem]), "out_dir": "out"}


# the type of a parameter's default -> (parse, format); the parsers reject NaN
# for every parameter, whichever problem reads it
_CODECS = {
    str: (str, str),
    int: (int, str),
    float: (number, _fmt),
    tuple: (triple, lambda value: ",".join(_fmt(c) for c in value)),
}
# the parameters of all problems, each with its codec: the flags and --config keys
_KEYS = {key: _CODECS[type(default)]
         for name in PROBLEMS for key, default in parameters(name).items()}


def parse_config_file(path) -> dict:
    """Parse a flat ``key = value`` file; a line starting with ``#`` is a comment
    (a later ``#`` is part of the value), and ``result_*`` keys are ignored."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("result_"):
            continue
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            out[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value {value!r} for {key}") from exc
    return out


def _write_csv(path, header: str, rows) -> None:
    """Write the 2-D float array ``rows`` below ``header`` in one C-level ``%``
    format: ``"%.17g" % v`` is ``_fmt(v)`` for every double, so numbers
    round-trip and small integers print exactly."""
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    Path(path).write_text(header + "\n" + (row * len(rows)) % tuple(rows.ravel().tolist()))


def _write_meta(path, cfg: dict, results: dict) -> None:
    lines = [f"{key} = {_KEYS[key][1](value)}" for key, value in cfg.items()]
    lines.extend(f"result_{key} = {_fmt(value)}" for key, value in results.items())
    Path(path).write_text("\n".join(lines) + "\n")


def run(cfg: dict) -> int:
    """Execute the run of ``cfg``, a :func:`parameters` dict, and write the
    output artifacts; a constructor's ``ValueError`` is a configuration error."""
    cls = PROBLEMS[cfg["problem"]]
    try:
        grid = Grid(cfg["t_end"], cfg["n"])
        newton_cfg = NewtonConfig(**{f.name: cfg[f.name] for f in fields(NewtonConfig)})
        problem = cls(grid, **{name: cfg[name] for name in _keyword_defaults(cls)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = Path(cfg["out_dir"])
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {cfg['out_dir']!r} is not writable: {exc}") from exc

    try:
        result = nested_iteration(problem, newton_cfg)
        # every level solve records at least one stage, so there is a first row
        rows = [problem.stage_row(stage) for stage in result.attempts]
        levels = dict.fromkeys(str(stage.problem.grid.n_interior) for stage in result.attempts)
        results = {"levels": ",".join(levels), **problem.results(result)}
        columns = {"t": result.state.grid.nodes, **problem.columns(result.state)}
    except Exception as exc:
        _write_meta(out_dir / "meta.txt", cfg,
                    {"status": "error", "message": f"{type(exc).__name__}: {exc}"})
        raise
    iterations = [it for stage in result.stages for it in stage.iterations]
    results["status"] = result.terminated.value
    results["outer_iterations"] = len(iterations)
    if iterations:
        results["final_norm_dx"] = iterations[-1].norm_dx
        results["final_residual_inf"] = iterations[-1].residual_inf
    if result.message:
        results["message"] = result.message

    _write_csv(
        out_dir / "iterates.csv",
        "outer_iter,norm_dx_inf,accepted_alpha,inner_trials,theta_final,residual_inf",
        np.array(
            [(k, it.norm_dx, it.accepted_alpha, it.inner_trials, it.theta_final, it.residual_inf)
             for k, it in enumerate(iterations, start=1)],
            dtype=float,
        ).reshape(-1, 6),
    )
    _write_csv(out_dir / "curve.csv", ",".join(columns), np.column_stack(list(columns.values())))
    lines = [",".join(rows[0]), *(",".join(map(_fmt, row.values())) for row in rows)]
    (out_dir / "stages.csv").write_text("\n".join(lines) + "\n")
    _write_meta(out_dir / "meta.txt", cfg, results)

    print(
        f"{cfg['problem']}: {result.terminated.value} after {len(iterations)} outer iterations"
        + (f" ({result.message})" if result.message else "")
    )
    print(f"artifacts written to {out_dir}")
    return _EXIT_BY_TERMINATION[result.terminated]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as :class:`ConfigError`.
    Every flag but ``--help`` takes a value, so a flag without ``=`` takes a
    following ``-1e-3`` or ``-0.6,0,-0.8``, where argparse sees a flag."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            flag = joined[-1] if joined else ""
            if (flag[:2] == "--" and "=" not in flag and flag != "--help"
                    and arg[:1] == "-" and arg[:2] != "--"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        raise ConfigError(message)


@functools.cache  # built on the first call of main, and once per process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bundle-newton",
        description="Damped Newton solver for the built-in manifold variational problems.",
    )
    parser.add_argument("problem", nargs="?", choices=PROBLEMS,
                        help="default: the --config file's problem line")
    parser.add_argument("--config", help="flat key=value file; flags override it")
    defaults = [parameters(name) for name in PROBLEMS]
    for key, (parse, fmt) in _KEYS.items():
        if key == "problem":
            continue
        # a problem-only flag names the problems that take it
        taken = {params["problem"]: fmt(params[key]) for params in defaults if key in params}
        if len(taken) == len(PROBLEMS):
            text = f"default: {taken.popitem()[1]}"
        else:
            text = ", ".join(f"{name} (default: {value})" for name, value in taken.items())
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=text)
    return parser


def config_from_args(args) -> dict:
    """The problem's parameters, updated by the ``--config`` file, then by the
    flags; a parameter the problem does not take is a :class:`ConfigError`."""
    values = parse_config_file(args.config) if args.config is not None else {}
    if args.problem is None:
        if "problem" not in values:
            raise ConfigError("no problem given: name it on the command line "
                              "or in a --config file's problem line")
    elif values.get("problem", args.problem) != args.problem:
        raise ConfigError(
            f"config file names problem {values['problem']!r}, "
            f"command line says {args.problem!r}"
        )
    values.update((k, v) for k, v in vars(args).items() if k in _KEYS and v is not None)
    cfg = parameters(values["problem"])
    foreign = [key for key in values if key not in cfg]
    if foreign:
        raise ConfigError(f"{cfg['problem']} takes no {', '.join(foreign)}")
    cfg.update(values)
    return cfg


def main(argv=None) -> int:
    try:
        return run(config_from_args(build_parser().parse_args(argv)))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # solver-level failures: singular systems etc.
        print(f"run failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
