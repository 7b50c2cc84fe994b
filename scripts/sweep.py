#!/usr/bin/env python3
"""Seeded robustness sweep over random boundary data, checked by the oracle.

    python scripts/sweep.py [--record FILE]
    python scripts/sweep.py --compare OLD NEW

Runs ``bundle_newton.cli.main`` on ``CASES`` random cases per problem and
prints, per problem, the count of each exit code, the outer iterations of
all runs (the sum of ``stages.csv``'s ``outer_iterations``, rejected
attempts included, so a change to a path or a ladder shows its cost) and
the runs' messages grouped, with every number masked as ``#``.  Every run
that exits 0 is checked by ``bench/oracle.py::check_run``; a failed check
and a run that exits 1 (an unexpected runtime failure) are listed with
their arguments.
Exits 1 if any exit-0 run fails the oracle, else 0.

``--record FILE`` also writes one CSV row per case: the problem, the case
index, the exit code, the outer iterations, the masked message, the SHA-256
digest of the case's ``iterates.csv`` and ``curve.csv`` (empty for a run
that wrote neither), the rows of its ``iterates.csv`` (the lines below the
header; empty for a run that wrote none), the levels it ran, ``meta.txt``'s
``result_levels`` (empty for a run that recorded none), its termination,
``meta.txt``'s ``result_status`` (empty without a ``meta.txt``), the Newton
matrices it factorized (the outermost calls of ``BandedMatrix.factorize``
and ``RodNewtonMatrix.factorize``, counted in the process) and the
obstacle's final penalty, ``meta.txt``'s ``result_final_p`` (empty for the
other problems and for a run that recorded none).
``--compare OLD NEW`` runs nothing, so it needs no ``bundle_newton`` on the
path: it reads two such records and prints,
per problem, the cases whose exit code changed, the cases whose digest
changed, and the outer iterations summed over the cases that exit 0 in
both; it exits 1 if an exit code or a digest changed, else 0.  Equal tables
can hide cases that flip both ways; the comparison shows them, and the
digests show a change that leaves every number of the tables as it was.
The rows and levels are for reading.  So are the cases whose masked message
changed while their exit code did not, the cases whose termination or final
penalty changed and the factorizations summed over the cases that exit 0 in
both, which the comparison prints last.  A file whose header is
not a record's is refused: ``--compare`` names its columns and exits 2.
To record another version of the solver, run this script with that
version's ``src`` on ``PYTHONPATH``.

Each problem draws its cases from its own ``numpy.random.default_rng(1)``,
the values of a case in the order below, so the first cases of a stream do
not depend on how many are drawn.  A point "at height z" is ``z ~ U(lo,
hi)``, then an azimuth ``~ U(0, 2 pi)``; a direction is a normalized
standard normal 3-vector.

- geodesic-force: ``gamma0`` and ``gammaT`` at heights in (-0.95, 0.95),
  ``force_scale`` from {0.5, 1, 3, 10, 30}, ``n`` from {100, 1000};
- rod: a length ``L ~ U(0.05, 0.99)``, the directions ``d``, ``v0`` and
  ``v1``, ``y0 = 0``, ``y1 = L d``, ``n`` from {100, 1000};
- obstacle: ``h_ref`` from {0.05, 0.1, 0.2, 0.3, 0.4}, ``gamma0`` and
  ``gammaT`` at heights in (-0.3, 0.99 - h_ref), ``n`` from {50, 100, 200}.

Keep the sampler and the seed fixed, so that the counts compare from one
version of the solver to the next.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import csv
import hashlib
import importlib.util
import io
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

# bench/oracle.py, which imports nothing of bundle_newton, loaded by its path
_spec = importlib.util.spec_from_file_location(
    "oracle", Path(__file__).resolve().parent.parent / "bench" / "oracle.py")
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

SEED = 1
CASES = 150
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")
RECORD_FIELDS = ("problem", "case", "exit_code", "outer_iterations", "message", "digest",
                 "rows", "levels", "termination", "factorizations", "final_p")


def _point(rng, z_low: float, z_high: float) -> tuple:
    """A unit vector at height ``z ~ U(z_low, z_high)`` and a uniform azimuth."""
    z = rng.uniform(z_low, z_high)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(phi), r * math.sin(phi), z)


def _direction(rng) -> np.ndarray:
    d = rng.standard_normal(3)
    return d / np.linalg.norm(d)


def _geodesic_force(rng) -> dict:
    return {"gamma0": _point(rng, -0.95, 0.95), "gammaT": _point(rng, -0.95, 0.95),
            "force_scale": float(rng.choice([0.5, 1.0, 3.0, 10.0, 30.0])),
            "n": int(rng.choice([100, 1000]))}


def _rod(rng) -> dict:
    length = rng.uniform(0.05, 0.99)
    d, v0, v1 = _direction(rng), _direction(rng), _direction(rng)
    return {"y0": (0.0, 0.0, 0.0), "y1": tuple((length * d).tolist()),
            "v0": tuple(v0.tolist()), "v1": tuple(v1.tolist()),
            "n": int(rng.choice([100, 1000]))}


def _obstacle(rng) -> dict:
    h_ref = float(rng.choice([0.05, 0.1, 0.2, 0.3, 0.4]))
    return {"h_ref": h_ref, "gamma0": _point(rng, -0.3, 0.99 - h_ref),
            "gammaT": _point(rng, -0.3, 0.99 - h_ref), "n": int(rng.choice([50, 100, 200]))}


SAMPLERS = {"geodesic-force": _geodesic_force, "rod": _rod, "obstacle": _obstacle}


def cases(problem: str, count: int) -> list:
    """The first ``count`` cases of ``problem``'s stream, each the dict of
    the run parameters it sets."""
    rng = np.random.default_rng(SEED)
    return [{"problem": problem, **SAMPLERS[problem](rng)} for _ in range(count)]


def argv(case: dict) -> list:
    """The command line of ``case``; a triple is its comma-joined ``repr``s
    after a space."""
    args = [case["problem"]]
    for key, value in case.items():
        if key != "problem":
            text = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
            args += ["--" + key.replace("_", "-"), text]
    return args


@contextlib.contextmanager
def counting_factorizations():
    """A one-item list that counts the Newton matrices factorized inside the
    ``with`` block: the calls of ``BandedMatrix.factorize`` (a curve
    problem's matrix) and ``RodNewtonMatrix.factorize`` (the rod's) made
    outside another such call, so a rod matrix counts once whether or not
    it factorizes its band by the former."""
    from bundle_newton.fem1d import BandedMatrix
    from bundle_newton.problems.rod import RodNewtonMatrix

    originals = {cls: cls.factorize for cls in (BandedMatrix, RodNewtonMatrix)}
    count, depth = [0], [0]

    def counting(factorize):
        def counted(matrix, rhs):
            count[0] += depth[0] == 0
            depth[0] += 1
            try:
                return factorize(matrix, rhs)
            finally:
                depth[0] -= 1

        return counted

    for cls, factorize in originals.items():
        cls.factorize = counting(factorize)
    try:
        yield count
    finally:
        for cls, factorize in originals.items():
            cls.factorize = factorize


def run_case(case: dict, out_dir) -> dict:
    """Run ``case`` into ``out_dir``: its outcome, a dict of the
    ``RECORD_FIELDS`` from ``exit_code`` on and the oracle ``error``.

    The message is the run's termination message or error line, unmasked;
    the oracle error is ``None`` unless the run exited 0 and failed
    ``check_run``; the outer iterations are summed over the rows of
    ``stages.csv``, rejected attempts included, and are 0 for a run that
    wrote none; the digest is the SHA-256 of ``iterates.csv`` then
    ``curve.csv``, empty for a run that wrote neither; the rows are the
    lines of ``iterates.csv`` below its header and the levels
    ``meta.txt``'s ``result_levels``, each empty for a run that wrote none;
    the termination and the final penalty are ``meta.txt``'s
    ``result_status`` and ``result_final_p``, each empty for a run that
    recorded none, and the factorizations those of
    :func:`counting_factorizations` during the run.
    """
    from bundle_newton.cli import main  # here, so that --compare runs without it

    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          counting_factorizations() as factorizations):
        code = main([*argv(case), "--out-dir", str(out_dir)])
    lines = (stdout.getvalue() + stderr.getvalue()).splitlines()
    message = lines[0] if lines else ""
    error = None
    if code == 0:
        try:
            oracle.check_run(out_dir, case)
        except oracle.OracleError as exc:
            error = str(exc)
    outer = 0
    stages = Path(out_dir) / "stages.csv"
    if stages.exists():
        with stages.open(newline="") as file:
            outer = sum(int(row["outer_iterations"]) for row in csv.DictReader(file))
    paths = [Path(out_dir) / name for name in ("iterates.csv", "curve.csv")]
    texts = {path.name: path.read_bytes() for path in paths if path.exists()}
    digest = hashlib.sha256(b"".join(texts.values())).hexdigest() if texts else ""
    rows = texts["iterates.csv"].count(b"\n") - 1 if "iterates.csv" in texts else ""
    meta = Path(out_dir) / "meta.txt"
    lines = meta.read_text().splitlines() if meta.exists() else []
    results = dict(line.split(" = ", 1) for line in lines if line.startswith("result_"))
    return {"exit_code": code, "outer_iterations": outer, "message": message, "digest": digest,
            "rows": rows, "levels": results.get("result_levels", ""),
            "termination": results.get("result_status", ""),
            "factorizations": factorizations[0], "final_p": results.get("result_final_p", ""),
            "error": error}


def report(problem: str, runs: list, outcomes: list) -> list:
    """The sweep's lines for the cases ``runs`` of ``problem`` and their
    :func:`run_case` outcomes."""
    codes, messages, defects = collections.Counter(), collections.Counter(), []
    for k, (case, outcome) in enumerate(zip(runs, outcomes)):
        code, error = outcome["exit_code"], outcome["error"]
        codes[code] += 1
        messages[code, NUMBER.sub("#", outcome["message"])] += 1
        if code == 1 or error is not None:
            defects.append(f"  defect, case {k}: exit {code}"
                           + (f", oracle: {error}" if error else "")
                           + f": {' '.join(argv(case))}")
    lines = [f"{problem}: {len(runs)} runs, exit codes "
             + ", ".join(f"{code}: {codes[code]}" for code in range(5)),
             "  outer iterations over all attempts: "
             f"{sum(outcome['outer_iterations'] for outcome in outcomes)}"]
    for (code, message), n in sorted(messages.items(), key=lambda item: -item[1]):
        lines.append(f"  {n:4d} x exit {code}: {message}")
    return lines + defects


def record_rows(problem: str, outcomes: list) -> list:
    """The per-case record rows of ``problem``'s :func:`run_case` outcomes,
    each message masked."""
    return [{"problem": problem, "case": k,
             **{field: outcome[field] for field in RECORD_FIELDS[2:]},
             "message": NUMBER.sub("#", outcome["message"])}
            for k, outcome in enumerate(outcomes)]


def write_record(path, rows: list) -> None:
    """Write the rows of :func:`record_rows` as the CSV record of ``--record``."""
    with open(path, "w", newline="") as file:
        writer = csv.DictWriter(file, RECORD_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def read_record(path) -> dict:
    """A record written by ``--record``: its rows by ``(problem, case)``.
    Raises ``ValueError``, naming the columns, for a file whose header is not
    ``RECORD_FIELDS``."""
    with open(path, newline="") as file:
        reader = csv.DictReader(file)
        if tuple(reader.fieldnames or ()) != RECORD_FIELDS:
            raise ValueError(f"{path} is not a sweep record: its columns are "
                             f"{','.join(reader.fieldnames or ())}, not {','.join(RECORD_FIELDS)}")
        return {(row["problem"], int(row["case"])): row for row in reader}


def compare(old: dict, new: dict) -> tuple:
    """``(lines, changed)`` for two records from :func:`read_record`: per
    problem, the cases whose exit code changed, the cases whose digest
    changed, then the outer iterations summed over the cases that exit 0 in
    both; ``changed`` counts the cases of the first two lists.  The cases
    whose message changed with the same exit code, those whose termination or
    final penalty changed and the factorizations summed over the cases that
    exit 0 in both follow, for reading: they count in no ``changed``."""
    lines, changed_total = [], 0
    for problem in dict.fromkeys(problem for problem, _ in [*old, *new]):
        keys = sorted(key for key in old.keys() & new.keys() if key[0] == problem)
        changed = [key for key in keys if old[key]["exit_code"] != new[key]["exit_code"]]
        moved = [key for key in keys if old[key]["digest"] != new[key]["digest"]]
        both = [key for key in keys if old[key]["exit_code"] == new[key]["exit_code"] == "0"]
        changed_total += len(set(changed) | set(moved))
        lines.append(f"{problem}: {len(keys)} cases in both records, "
                     f"{len(changed)} changed exit code, {len(moved)} changed digest")
        for key in changed:
            a, b = old[key], new[key]
            lines.append(f"  case {key[1]}: exit {a['exit_code']} -> {b['exit_code']}: "
                         f"{a['message']} -> {b['message']}")
        lines.extend(f"  case {key[1]}: digest changed, exit {new[key]['exit_code']}"
                     for key in moved if key not in changed)
        outer = [sum(int(record[key]["outer_iterations"]) for key in both) for record in (old, new)]
        lines.append(f"  outer iterations over the {len(both)} cases converged in both: "
                     f"{outer[0]} -> {outer[1]}")
        for key in keys:
            # a changed exit code lists its messages above already
            fields = ("termination", "final_p") if key in changed else (
                "message", "termination", "final_p")
            lines.extend(f"  case {key[1]}: {field} {old[key][field]} -> {new[key][field]}"
                         for field in fields if old[key][field] != new[key][field])
        counts = [sum(int(record[key]["factorizations"]) for key in both) for record in (old, new)]
        lines.append(f"  factorizations over the {len(both)} cases converged in both: "
                     f"{counts[0]} -> {counts[1]}")
    return lines, changed_total


def sweep(count: int, record=None) -> bool:
    """Run and report the sweep, and write its per-case record to ``record``
    if given; True when every exit-0 run passed the oracle."""
    passed, rows = True, []
    with tempfile.TemporaryDirectory(prefix="sweep-") as tmp:
        for problem in SAMPLERS:
            runs = cases(problem, count)
            outcomes = [run_case(case, Path(tmp) / f"{problem}-{k}") for k, case in enumerate(runs)]
            print("\n".join(report(problem, runs, outcomes)))
            passed = passed and all(outcome["error"] is None for outcome in outcomes)
            rows += record_rows(problem, outcomes)
    if record is not None:
        write_record(record, rows)
    return passed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", metavar="FILE", help="write the per-case record to FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two records instead of running the sweep")
    args = parser.parse_args()
    if args.compare:
        try:
            records = [read_record(path) for path in args.compare]
        except ValueError as exc:
            print(exc, file=sys.stderr)
            sys.exit(2)
        lines, changed = compare(*records)
        print("\n".join(lines))
        sys.exit(1 if changed else 0)
    sys.exit(0 if sweep(CASES, args.record) else 1)
