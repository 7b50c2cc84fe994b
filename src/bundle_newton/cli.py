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

Every number in them is the text of ``"%.17g" % v``; an ``iterates.csv`` or
``curve.csv`` table of ``CSV_VECTOR_MIN_VALUES`` values or more is written
by a numpy kernel with the same bytes, ``CSV_CHUNK_VALUES`` values a pass
(:func:`_write_csv`).

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
point above the cap), 1 unexpected runtime failure (a bug, a zero pivot, a
non-finite Newton step).  A near-singular Newton matrix ends a run as 2 or 3,
with its condition estimate in the message.

The first call of :func:`main` in a process sets glibc's allocator policy
(:func:`keep_freed_pages`): arrays up to ``MMAP_THRESHOLD`` (32 MiB) come
from the heap, and freed heap pages stay mapped until more than
``TRIM_THRESHOLD`` (64 MiB) is free at its top.  Every Newton iteration
assembles, factorizes in place and drops a band matrix, 1.53 MiB at
geodesic n = 10000 and 0.15 MiB at rod n = 1000, which glibc may otherwise
map afresh and trim again, so that each iteration pays a minor page fault
per 4 KiB page.  Minor faults per repeated call in one process, glibc's
default policy -> this one (calls 3-60 of each process): geodesic n =
10000 1164-1166 -> 0-2, rod n = 1000 295-452 -> 0-51 (median 360-412 -> 0
in each of six processes), obstacle n = 100 (small arrays) 0-1 -> 0-2.
The rod's call times, 11-18 ms on a noisy 2-CPU host, did not separate the
two policies.  A one-shot process saves
only the re-faults, as its first call still maps every page once
(geodesic n = 10000: 2622 -> 1728 faults).  The cost is
freed memory kept mapped until the process exits; the bench's peak
resident size moved by 0.2 MiB at most.  No arithmetic changes, and a C
library without ``mallopt`` keeps its own policy.
"""

from __future__ import annotations

import argparse
import ctypes
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


# A table of fewer values is one C-level ``%`` format of all its values, a
# larger one the numpy writer, whose tables take about 1.1 ms to build once per
# process.  _write_csv once they exist, timeit minimum, 2-CPU host, numpy
# against ``%``: 200 values 185/150 us, 300 185/187, 400 196/228, 600
# 235/313, 1000 265/480; so the obstacle's 408-value curve.csv stays where one
# run would not win back the build.
CSV_VECTOR_MIN_VALUES = 500
# values per numpy pass, in whole rows.  :func:`_g17_text` over geodesic n =
# 10000's curve.csv (40008 values) and rod n = 1000's (10020), timeit minimum,
# 2-CPU host, and its tracemalloc peak:
#
#   values a pass   1024   2048   4096   8192  16384
#   geodesic ms      5.3    4.0    3.4    3.2    3.2
#   rod ms           1.6    1.3    1.1    1.1    1.0
#   peak MiB        0.17   0.34   0.61   1.14   2.22
#
# Each cut at 8192 values, geodesic ms / peak MiB:
#
#   2048 values a pass, uint32 digit groups                 5.1 / 0.58
#   8192 values a pass, every index np.intp                 3.7 / 2.57
#   kept digits from per-group tables, no np.where          3.4 / 2.48
#   shifted digits read through a view, not copied          3.3 / 2.23
#   the float and layout temporaries freed per function     3.2 / 1.14
#
# _write_csv takes 4.0 ms on geodesic and 1.4 on rod; the ``%`` format 16.9 ms
# and 2.32 MiB, and 3.3 ms and 0.54 MiB.
CSV_CHUNK_VALUES = 8192

# A value's text is laid out in a 32-byte slot and NUL marks a byte not
# written: the sign in column 1, the "0." and zeros of 0.000ddd in columns 2-6,
# the 17 digits from column 7 (one column further right behind a point), the
# "e-0X" of e-notation in columns 25-28 and the separator in column 29.
_SLOT = 32


@functools.cache  # built on the first large table, so an import builds nothing
def _g17_tables() -> tuple:
    """The tables of :func:`_g17_text`: ``10**k`` for ``k <= 22`` (exact
    doubles) with their Veltkamp halves, the four ASCII digits of 0..9999 as
    one ``uint32`` each, per group ``j = 0..3`` behind the lead digit the
    digits kept up to the group's last nonzero digit (``4 j + 1`` plus its
    length without trailing zeros, 1 for ``0000``), and per class (the sign,
    the decimal exponent -6..15, the digits kept 1..17; row ``((negative *
    22) + exponent + 6) * 17 + kept - 1``) the slot's kept unshifted and
    shifted digit columns (``0xff`` bytes) and its constant characters.  A
    class in fixed notation keeps at least the ``exponent + 1`` digits before
    its point."""
    pow10 = np.array([float(10**k) for k in range(23)])
    group = np.arange(10000, dtype=np.uint16)
    digits = (group[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8)
    length = 4 - sum(group % 10**k == 0 for k in range(1, 5)).astype(np.uint8)
    kept = np.where(length, 4 * np.arange(4, dtype=np.uint8)[:, None] + 1 + length, 1)
    # int8 grids and uint8 characters keep the class tables' temporaries small
    sign, e, keep, col = np.ix_(*(np.arange(lo, hi, dtype=np.int8)
                                  for lo, hi in ((0, 2), (-6, 16), (1, 18), (0, _SLOT))))
    keep = np.maximum(keep, e + 1)
    fixed, sci = (e >= -4) & (e < 0), e < -4
    point = np.where(sci, 0, np.where(fixed, 16, e))  # the digit the point follows
    dot = keep > point + 1
    low = (col >= 7) & (col < 8 + np.minimum(point, keep - 1))
    high = dot & (col >= 9 + point) & (col < 8 + keep)
    chars = [(sign.astype(bool) & (col == 1), "-"), (dot & (col == 8 + point), "."),
             (fixed & ((col == 6 + e) | (col >= 8 + e) & (col <= 6)), "0"),
             (fixed & (col == 7 + e), "."), (sci & (col == 25), "e"), (sci & (col == 26), "-"),
             (sci & (col == 27), "0")]
    const = (sum(np.uint8(ord(char)) * mask for mask, char in chars)
             + (sci & (col == 28)) * (ord("0") - e).astype(np.uint8))

    def slots(table):
        return np.broadcast_to(table, const.shape).astype(np.uint8).reshape(-1, _SLOT)

    return (pow10, *_split(pow10), (digits + ord("0")).view(np.uint32).ravel(), kept,
            *(slots(t).view(np.uint64) for t in (np.uint8(255) * low, np.uint8(255) * high, const)))


def _split(a):
    """Veltkamp's split of ``a`` into two halves of 26 bits, ``a = hi + lo``."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _g17_decimal(a):
    """The decimal exponent ``e`` of each ``1e-6 < a < 1e16`` and its 17
    digits as the integer ``D = a 10**(16 - e)``, rounded half to even, both
    ``np.intp`` (numpy casts any other index array on every lookup).

    The product ``a 10**(16 - e)``, exact as ``hi + lo`` (Dekker's
    two-product), rounds to ``D = hi + rint(lo)`` (``hi >= 2**53`` is an even
    integer, so ties go to even).  ``e`` starts as the floor of ``log10 a``,
    which can miss by one, and moves until ``1e16 <= hi + lo < 1e17``; no
    double in the range lies within half a unit of the 17th digit below a
    power of ten, so ``D`` never carries to ``10**17``."""
    pow10, pow10_hi, pow10_lo = _g17_tables()[:3]
    e = np.clip(np.floor(np.log10(a)).astype(np.intp), -6, 15)
    a_hi, a_lo = _split(a)
    while True:
        k = 16 - e
        p_hi, p_lo = pow10_hi[k], pow10_lo[k]
        hi = a * pow10[k]
        lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
        up = (hi > 1e17) | (hi == 1e17) & (lo >= 0)
        down = (hi < 1e16) | (hi == 1e16) & (lo < 0)
        if not (up.any() or down.any()):
            return e, hi.astype(np.intp) + np.rint(lo).astype(np.intp)
        e += up
        e -= down


def _g17_slots(e, d, negative):
    """The ``(n, 4)`` ``uint64`` slots (see ``_SLOT``) of the values ``D
    10**(e - 16)`` of :func:`_g17_decimal`, negative where ``negative``: their
    digits written by 4-digit groups behind the lead digit, trailing zeros
    dropped, in fixed notation for ``-4 <= e < 17``, else as ``d.ddde-0X``."""
    _, _, _, groups, kept, low, high, const = _g17_tables()
    lead = d // 10**16
    d = d - lead * 10**16
    g = []
    for power in (10**12, 10**8, 10**4):
        g.append(d // power)
        d = d - g[-1] * power
    g.append(d)
    cls = (negative * 22 + e + 6) * 17 - 1
    cls += functools.reduce(np.maximum, (kept[j][gj] for j, gj in enumerate(g)))

    # the digits in place, and through a view one byte back one column on, for
    # those behind a point; no mask keeps a byte that is not written here
    buffer = np.empty(len(e) * _SLOT + 8, np.uint8)
    placed = buffer[8:].view(np.uint64).reshape(-1, _SLOT // 8)
    for column, group in enumerate(g, start=2):
        placed.view(np.uint32)[:, column] = groups[group]
    placed.view(np.uint8)[:, 7] = lead + ord("0")
    del g, lead  # unused below, where a pass peaks
    out = np.take(const, cls, axis=0)
    kept_digits = np.empty_like(out)
    for mask, digits in ((low, placed), (high, buffer[7:-1].view(np.uint64).reshape(placed.shape))):
        np.take(mask, cls, axis=0, out=kept_digits, mode="clip")  # in range: const took cls
        kept_digits &= digits
        out |= kept_digits
    return out


def _g17_text(rows) -> bytes:
    """The CSV text of the 2-D float array ``rows``, byte for byte that of
    ``"%.17g" % v`` for each value.

    A value ``1e-6 < |x| < 1e16`` takes the numpy path: its 17 digits are
    :func:`_g17_decimal`'s and :func:`_g17_slots` lays them out.  ``±0`` is
    ``0`` or ``-0``; any other value (NaN, ±inf, ``|x| <= 1e-6`` or ``>=
    1e16``) is its own ``b"%.17g" % v``."""
    x = rows.ravel()
    a = np.abs(x)
    main = (a > 1e-6) & (a < 1e16)
    a[~main] = 1.0
    slots = _g17_slots(*_g17_decimal(a), x < 0).view(np.uint8)
    if not main.all():
        zero = x == 0
        slots[zero] = 0
        slots[zero, 0] = np.where(np.signbit(x[zero]), ord("-"), 0)
        slots[zero, 1] = ord("0")
        for i in np.flatnonzero(~main & ~zero):
            text = b"%.17g" % x[i]
            slots[i] = 0
            slots[i, :len(text)] = np.frombuffer(text, np.uint8)
    slots[:, 29] = ord(",")
    slots.reshape(len(rows), -1)[:, -3] = ord("\n")
    return slots.tobytes().translate(None, b"\0")


def _write_csv(path, header: str, rows) -> None:
    """Write the 2-D float array ``rows`` below ``header``, each value as
    ``"%.17g" % v``, which is ``_fmt(v)`` for every double, so numbers
    round-trip and small integers print exactly: a table of fewer than
    ``CSV_VECTOR_MIN_VALUES`` values in one C-level ``%`` format, a larger
    one by :func:`_g17_text`, ``CSV_CHUNK_VALUES`` values at a time."""
    if rows.size < CSV_VECTOR_MIN_VALUES:
        row = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        Path(path).write_text(header + "\n" + (row * len(rows)) % tuple(rows.ravel().tolist()))
        return
    step = max(1, CSV_CHUNK_VALUES // rows.shape[1])
    with open(path, "wb") as file:
        file.write(header.encode() + b"\n")
        for start in range(0, len(rows), step):
            file.write(_g17_text(rows[start:start + step]))


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


# glibc's mallopt parameters (malloc.h) and the values main sets.  Setting
# both matters: setting either one switches off glibc's dynamic adjustment of
# the other, and the trim threshold alone left 2348 faults per rod n = 1000
# call, the mmap threshold alone 687.  32 MiB is glibc's largest mmap
# threshold on 64-bit hosts; a larger array is still mapped and unmapped.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
TRIM_THRESHOLD = 64 << 20
MMAP_THRESHOLD = 32 << 20


def _mallopt():
    """The C library's ``mallopt``, or ``None`` where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no dlopen(NULL)
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


@functools.cache  # the allocator is the process's, so once per process
def keep_freed_pages() -> None:
    """Keep freed heap pages mapped for the rest of the process: glibc's
    allocator then serves an array of up to ``MMAP_THRESHOLD`` bytes from
    its heap and gives the heap's free top back to the kernel only when it
    exceeds ``TRIM_THRESHOLD`` bytes, so the next Newton iteration, level
    and run reuse the pages of the last one's band matrix, whose storage
    became its LU, and temporaries instead of faulting in fresh ones.  A C
    library without ``mallopt`` is left as it is."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def main(argv=None) -> int:
    keep_freed_pages()
    try:
        return run(config_from_args(build_parser().parse_args(argv)))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # bugs, a zero pivot, a non-finite Newton step
        print(f"run failed ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
