"""Command line front end.

Runs one of the named benchmark problems with the damped Newton driver and
writes four artifacts into the output directory:

- ``iterates.csv``: one row per outer iteration, the rows of the accepted
  stage solves concatenated,
- ``curve.csv``: the final nodal data, on the grid of the final state,
- ``stages.csv``: one row per stage solve, rejected penalty stages included,
  with its grid size, the obstacle's penalty and violation, its Newton
  counts and termination, and the obstacle's acceptance,
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

The fields of :class:`RunConfig` are the one list of run parameters: each
field is a flag (``t_end`` is ``--t-end``), a ``key = value`` line of a
``--config`` file and, in declaration order, a line of ``meta.txt``.  The
Newton parameters are the fields that share a name with ``NewtonConfig``.
This module knows no problem class: ``problems.PROBLEMS`` names it, it is
built from the grid and the same-named fields as keywords, and it names its
``curve.csv`` columns after ``t``, its ``stages.csv`` row and ``result_*`` numbers.

Exit codes: 0 converged, 2 damping failed, 3 iteration limit (also the
obstacle's penalty stage limit), 4 configuration or usage error (bad flag or
file values, unknown flags or keys, invalid boundary data, an obstacle end
point above the cap), 1 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import dataclass, field, fields, replace
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


@dataclass
class RunConfig:
    """Run parameters in ``meta.txt`` order; a ``None`` triple takes the problem default."""

    problem: str = ""
    n: int = 100
    max_outer: int = 50
    max_inner: int = 20
    t_end: float = 1.0
    tol: float = 1e-10
    theta_des: float = 0.5
    theta_acc: float = 0.9
    alpha0: float = 1.0
    alpha_fail: float = 1e-8
    force_scale: float = 3.0
    h_ref: float = 0.1
    p0: float = 1.0
    p_growth: float = field(
        default=4.0, metadata={"help": "cap on the obstacle's per-stage penalty factor"}
    )
    violation_tol: float = 1e-3
    sigma: float = 1.0
    gamma0: tuple | None = None
    gammaT: tuple | None = None
    y0: tuple | None = None
    y1: tuple | None = None
    v0: tuple | None = None
    v1: tuple | None = None
    out_dir: str = "out"


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


# field annotation (a string under the __future__ import) -> (parse, format);
# the parsers reject NaN for every field, whichever problem reads it
_CODECS = {
    "str": (str, str),
    "int": (int, str),
    "float": (number, _fmt),
    "tuple | None": (triple, lambda value: ",".join(_fmt(c) for c in value)),
}
_FIELDS = {f.name: _CODECS[f.type] for f in fields(RunConfig)}
_TRIPLE_FLAGS = {"--" + name.replace("_", "-") for name, (parse, _) in _FIELDS.items()
                 if parse is triple}


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
        if key not in _FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown configuration key {key!r}")
        try:
            out[key] = _FIELDS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: invalid value {value!r} for {key}") from exc
    return out


def _keyword_defaults(cls) -> dict:
    return {name: param.default for name, param in inspect.signature(cls).parameters.items()
            if param.default is not param.empty}


def _write_csv(path, header: str, rows) -> None:
    """Write the 2-D float array ``rows`` below ``header`` in one C-level ``%``
    format: ``"%.17g" % v`` is ``_fmt(v)`` for every double, so numbers
    round-trip and small integers print exactly."""
    row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    Path(path).write_text(header + "\n" + (row * len(rows)) % tuple(rows.ravel().tolist()))


def _write_meta(path, cfg: RunConfig, results: dict) -> None:
    lines = [f"{name} = {fmt(getattr(cfg, name))}" for name, (_, fmt) in _FIELDS.items()]
    lines.extend(f"result_{key} = {_fmt(value)}" for key, value in results.items())
    Path(path).write_text("\n".join(lines) + "\n")


def _build(cfg: RunConfig) -> tuple:
    """``cfg`` with its unset triples filled, its Newton parameters and its
    problem; a constructor's ``ValueError`` is a configuration error.

    An unset triple takes the default of the run's problem or, for one it does
    not take, of the last problem in ``PROBLEMS`` that does.
    """
    if cfg.problem not in PROBLEMS:
        raise ConfigError(f"unknown problem {cfg.problem!r}; expected one of {tuple(PROBLEMS)}")
    cls = PROBLEMS[cfg.problem]
    defaults = {}
    for other in (*PROBLEMS.values(), cls):
        defaults.update(_keyword_defaults(other))
    cfg = replace(cfg, **{k: v for k, v in defaults.items() if getattr(cfg, k) is None})
    try:
        grid = Grid(cfg.t_end, cfg.n)
        newton_cfg = NewtonConfig(**{f.name: getattr(cfg, f.name) for f in fields(NewtonConfig)})
        problem = cls(grid, **{name: getattr(cfg, name) for name in _keyword_defaults(cls)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg, newton_cfg, problem


def run(cfg: RunConfig) -> int:
    """Execute one configured solver run and write the output artifacts."""
    cfg, newton_cfg, problem = _build(cfg)
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {cfg.out_dir!r} is not writable: {exc}") from exc

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
        f"{cfg.problem}: {result.terminated.value} after {len(iterations)} outer iterations"
        + (f" ({result.message})" if result.message else "")
    )
    print(f"artifacts written to {out_dir}")
    return _EXIT_BY_TERMINATION[result.terminated]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as :class:`ConfigError`; a
    triple flag takes ``-0.6,0,-0.8`` as its value, where argparse sees a flag."""

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and joined[-1] in _TRIPLE_FLAGS and arg[:1] == "-" and arg[:2] != "--":
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bundle-newton",
        description="Damped Newton solver for the built-in manifold variational problems.",
    )
    parser.add_argument("problem", nargs="?", choices=PROBLEMS,
                        help="default: the --config file's problem line")
    parser.add_argument("--config", help="flat key=value file; flags override it")
    for f in fields(RunConfig):
        if f.name != "problem":
            default = "per problem" if f.default is None else f.default
            parser.add_argument(
                "--" + f.name.replace("_", "-"), dest=f.name, type=_FIELDS[f.name][0],
                help="; ".join([*f.metadata.values(), f"default: {default}"]),
            )
    return parser


def config_from_args(args) -> RunConfig:
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
    values.update((k, v) for k, v in vars(args).items() if k in _FIELDS and v is not None)
    return RunConfig(**values)


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
