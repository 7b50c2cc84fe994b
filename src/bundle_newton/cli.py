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
  file doubles as a ``--config`` input that reproduces the run.

Every problem is solved by nested iteration on the grid ladder ``n //
10**k``, coarsest first, for every ``k`` that leaves at least 10 interior
nodes (``problems.grid_ladder``): ``--n 1000`` solves on 10, 100 and 1000
nodes, and any ``n`` below 100 is the single direct solve.  A level is one
damped Newton solve or, for the obstacle, its penalty path
(``problems.obstacle_path_follow``): from the connecting geodesic at
``--p0`` on the coarsest level, resumed at the last penalty on each finer
one; ``--p-growth`` caps the per-stage factor of the penalty weight, which
the path adapts.  ``meta.txt`` records the levels run as ``result_levels``.
A level that does not converge ends the run; on a coarse level its message
is prefixed ``level n=<its n>:`` and ``curve.csv`` holds that level's state.

The fields of :class:`RunConfig` are the one list of run parameters: each
field is a flag (``t_end`` is ``--t-end``), a ``key = value`` line of a
``--config`` file and, in declaration order, a line of ``meta.txt``.  The
Newton parameters are the fields that share a name with ``NewtonConfig``.

Exit codes: 0 converged, 2 damping failed, 3 iteration limit (also the
obstacle's penalty stage limit), 4 configuration or usage error (bad flag or
file values, unknown flags or keys, invalid boundary data, an obstacle end
point above the cap), 1 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .fem1d import Grid
from .newton import NewtonConfig, Termination
from .problems import (
    GeodesicForceProblem,
    ObstacleProblem,
    RodProblem,
    nested_iteration,
    newton_stage,
    obstacle_path_follow,
)
from .problems import geodesic as _geodesic_defaults
from .problems import obstacle as _obstacle_defaults
from .problems import rod as _rod_defaults

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

PROBLEMS = ("geodesic-force", "obstacle", "rod")


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

    def validate(self):
        """Checks that no constructor of :func:`_build` makes."""
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}; expected one of {PROBLEMS}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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


def _with_default_boundary(cfg: RunConfig) -> RunConfig:
    """``cfg`` with every unset boundary triple replaced by its default."""
    curve = _geodesic_defaults if cfg.problem == "geodesic-force" else _obstacle_defaults
    defaults = {
        "gamma0": curve.DEFAULT_GAMMA0,
        "gammaT": curve.DEFAULT_GAMMAT,
        "y0": _rod_defaults.DEFAULT_Y0,
        "y1": _rod_defaults.DEFAULT_Y1,
        "v0": _rod_defaults.DEFAULT_V0,
        "v1": _rod_defaults.DEFAULT_V1,
    }
    return replace(cfg, **{k: v for k, v in defaults.items() if getattr(cfg, k) is None})


def _write_csv(path, header: str, rows, row: str | None = None) -> None:
    """Write ``rows`` below ``header``, each through the ``%`` format ``row``.

    ``rows`` is a 2-D float array, written with ``"%.17g"`` per column, or
    a list of tuples with their own ``row`` format.  The whole table is one
    C-level ``%`` format: ``"%.17g" % v`` is ``_fmt(v)`` for every double,
    so numbers round-trip and small integers print exactly.
    """
    if row is None:
        row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        values = tuple(rows.ravel().tolist())
    else:
        values = tuple(value for r in rows for value in r)
    Path(path).write_text(header + "\n" + (row * len(rows)) % values)


def _write_meta(path, cfg: RunConfig, results: dict) -> None:
    lines = [f"{name} = {fmt(getattr(cfg, name))}" for name, (_, fmt) in _FIELDS.items()]
    lines.extend(f"result_{key} = {value}" for key, value in results.items())
    Path(path).write_text("\n".join(lines) + "\n")


def _build(cfg: RunConfig) -> tuple:
    """Newton parameters and problem of ``cfg``.

    The constructors check their arguments, and a fixed obstacle end point
    above the band is refused; a ``ValueError`` is a configuration error.
    """
    try:
        grid = Grid(cfg.t_end, cfg.n)
        newton_cfg = NewtonConfig(**{f.name: getattr(cfg, f.name) for f in fields(NewtonConfig)})
        if cfg.problem == "geodesic-force":
            problem = GeodesicForceProblem(
                grid, cfg.gamma0, cfg.gammaT, force_scale=cfg.force_scale
            )
        elif cfg.problem == "obstacle":
            problem = ObstacleProblem(
                grid, cfg.gamma0, cfg.gammaT, h_ref=cfg.h_ref, p=cfg.p0,
                p_growth=cfg.p_growth, violation_tol=cfg.violation_tol,
            )
            if max(problem.gap(problem.gamma0), problem.gap(problem.gammaT)) > cfg.violation_tol:
                raise ValueError(f"a boundary point lies above the cap z <= {1 - cfg.h_ref:g} "
                                 f"by more than violation_tol = {cfg.violation_tol:g}")
        else:
            problem = RodProblem(grid, cfg.y0, cfg.y1, cfg.v0, cfg.v1, sigma=cfg.sigma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return newton_cfg, problem


# ``stages.csv`` of the obstacle's penalty stages and of the other problems'
# Newton solves: (header, row format); every row starts with its grid size
_PATH_STAGES = ("n,penalty,violation,outer_iterations,inner_trials,termination,accepted",
                "%d,%.17g,%.17g,%d,%d,%s,%d\n")
_GRID_LEVELS = ("n,outer_iterations,inner_trials,termination", "%d,%d,%d,%s\n")


def _solve(problem, newton_cfg: NewtonConfig) -> tuple:
    """``(continuation, extra results, stage table, curve columns)`` of the
    nested iteration.  The stage table is ``(header, row format, rows)``, and
    the curve columns start with ``t``, the nodes of the final state's grid."""
    obstacle = isinstance(problem, ObstacleProblem)
    solve = obstacle_path_follow if obstacle else newton_stage
    result = nested_iteration(problem, newton_cfg, solve)
    stages, rows = result.stages, []
    for s in result.attempts:
        n, trials = s.problem.grid.n_interior, sum(it.inner_trials for it in s.trace.iterations)
        counts = (len(s.trace.iterations), trials, s.trace.terminated.value)
        rows.append((n, s.problem.p, s.violation, *counts, int(s.accepted)) if obstacle
                    else (n, *counts))
    extra = {"levels": ",".join(dict.fromkeys(str(row[0]) for row in rows))}
    if obstacle:
        extra["stage_count"] = str(len(stages))
        if stages:  # empty only when the first stage failed
            extra.update(final_p=_fmt(stages[-1].problem.p), violation=_fmt(stages[-1].violation))
        extra["rejected_stages"] = str(len(result.attempts) - len(stages))
    table = (*(_PATH_STAGES if obstacle else _GRID_LEVELS), rows)
    state = result.state
    if isinstance(problem, RodProblem):
        # the P0 multiplier, scaled from unit rigidity to sigma, is repeated at
        # the right node of its interval; node 0 repeats the first interval
        lam_at_nodes = problem.sigma * np.vstack([state.lam[:1], state.lam])
        names = ("x", "y", "z", "vx", "vy", "vz", "lx", "ly", "lz")
        columns = dict(zip(names, np.hstack([state.y, state.v.points, lam_at_nodes]).T))
        extra["constraint_inf"] = _fmt(np.abs(state.constraint_residuals()).max())
    else:
        columns = dict(zip("xyz", state.points.T))
    return result, extra, table, {"t": state.grid.nodes, **columns}


def run(cfg: RunConfig) -> int:
    """Execute one configured solver run and write the output artifacts."""
    cfg.validate()
    cfg = _with_default_boundary(cfg)
    newton_cfg, problem = _build(cfg)
    out_dir = Path(cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {cfg.out_dir!r} is not writable: {exc}") from exc

    result, results, stages, columns = _solve(problem, newton_cfg)
    iterations = [it for stage in result.stages for it in stage.trace.iterations]
    results["status"] = result.terminated.value
    results["outer_iterations"] = str(len(iterations))
    if iterations:
        results["final_norm_dx"] = _fmt(iterations[-1].norm_dx)
        results["final_residual_inf"] = _fmt(iterations[-1].residual_inf)
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
    header, row, table = stages
    _write_csv(out_dir / "stages.csv", header, table, row)
    _write_meta(out_dir / "meta.txt", cfg, results)

    print(
        f"{cfg.problem}: {result.terminated.value} after {len(iterations)} outer iterations"
        + (f" ({result.message})" if result.message else "")
    )
    print(f"artifacts written to {out_dir}")
    return _EXIT_BY_TERMINATION[result.terminated]


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as :class:`ConfigError`."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bundle-newton",
        description="Damped Newton solver for the built-in manifold variational problems.",
    )
    parser.add_argument("problem", choices=PROBLEMS)
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
    if values.get("problem", args.problem) != args.problem:
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
