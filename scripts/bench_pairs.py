#!/usr/bin/env python3
"""Alternating pairs of benchmark runs of two checkouts, and their summary.

    python scripts/bench_pairs.py --base PATH --change PATH --workload W
        [--seed S] [--pairs N] [--seconds T | --calls K]
    python scripts/bench_pairs.py --base PATH --control --workload W ...

Each pair runs ``python3 bench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, from that checkout's directory and with
its own ``bench/run.py``; the base runs first in odd-numbered pairs and the
change in even-numbered ones, so a drift of the machine's speed falls on
both sides alike.  ``--control`` pairs the base with a byte-identical copy
of itself in a temporary directory (an A/A run): any difference it shows is
the machine's noise and that of where the files lie, not a change.

``--calls K`` runs each side's ``bench/run.py`` as above, imported into a
fresh interpreter in the checkout's directory, but with exactly ``K`` timed
calls after its warm-up in place of as many as fit in ``T`` seconds; it
reads the peak resident memory after them, so ``peak_rss_mb``, which grows
with the number of calls, compares equal work on both sides.

For every end-to-end metric of the base's ``BENCHMARK.json`` it prints the
median and quartiles of each side's runs, in how many pairs the change was
better (by the metric's ``better`` direction), and the difference of the
medians against the spread between the base's quartiles; the difference
is resolved when it exceeds that spread.  The last line of output is one
JSON object with the same summary and every run's metrics.

Exits 1 if a run fails (no result line, or a non-zero exit), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("base", "change")
# what a copy of a checkout leaves out: version control, caches and outputs
NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".bench_work", ".hypothesis",
                                    ".pytest_cache", "out")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the checkout measured against")
    parser.add_argument("--change", type=Path, help="the checkout measured")
    parser.add_argument("--control", action="store_true",
                        help="pair the base with a byte-identical copy of itself")
    parser.add_argument("--workload", required=True, help="a workload of bench/run.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=5)
    length = parser.add_mutually_exclusive_group()
    length.add_argument("--seconds", type=float, default=5.0, help="--seconds of each run")
    length.add_argument("--calls", type=int,
                        help="make exactly this many timed calls per run instead of --seconds")
    args = parser.parse_args(argv)
    if (args.change is None) == (not args.control):
        parser.error("give either --change PATH or --control")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.calls is not None and args.calls < 1:
        parser.error("--calls must be at least 1")
    return args


# A --calls run: bench/run.py itself, with exactly K timed calls in place of
# as many as fit in its --seconds
FIXED_CALLS = """
import sys
sys.path.insert(0, "bench")
import run
calls = int(sys.argv[1])
run.run_for = lambda seconds, min_calls, step: [step() for _ in range(calls)]
sys.exit(run.main(sys.argv[2:]))
"""


def run_bench(checkout: Path, args) -> dict:
    """The result line of one run in ``checkout``, of its ``bench/run.py`` or,
    with ``--calls``, of :data:`FIXED_CALLS`; raises ``RuntimeError`` with the
    run's error output when it has none."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    bench = ["--workload", args.workload, "--seed", str(args.seed), "--seconds",
             repr(args.seconds), "--trace", "0"]
    if args.calls is None:
        command = [sys.executable, "bench/run.py", *bench]
    else:
        command = [sys.executable, "-c", FIXED_CALLS, str(args.calls), *bench]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: the run exited {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list, metrics: dict) -> dict:
    """Per metric of ``metrics`` (name -> better), the quartiles of each
    side, the pairs the change won, and the difference of the medians
    against the base's spread between its quartiles."""
    summary = {}
    for name, better in metrics.items():
        values = {side: [run[side][name] for run in runs] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        sign = -1.0 if better == "lower" else 1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(values["base"], values["change"]))
        difference = stats["change"]["median"] - stats["base"]["median"]
        spread = stats["base"]["q3"] - stats["base"]["q1"]
        summary[name] = {**stats, "better": better, "change_wins": wins, "pairs": len(runs),
                         "median_difference": difference, "base_quartile_spread": spread,
                         "resolved": abs(difference) > spread}
    return summary


def report(summary: dict) -> list:
    lines = [f"{'metric':<14}{'base median [q1, q3]':>36}{'change median [q1, q3]':>36}"
             f"{'wins':>8}{'difference':>13}{'base spread':>13}  resolved"]
    for name, s in summary.items():
        base = f"{s['base']['median']:.6g} [{s['base']['q1']:.6g}, {s['base']['q3']:.6g}]"
        change = f"{s['change']['median']:.6g} [{s['change']['q1']:.6g}, {s['change']['q3']:.6g}]"
        lines.append(f"{name:<14}{base:>36}{change:>36}{s['change_wins']:>4}/{s['pairs']:<3}"
                     f"{s['median_difference']:>+13.4g}{s['base_quartile_spread']:>13.4g}  "
                     f"{'yes' if s['resolved'] else 'no'}")
    return lines


def measure(args, checkouts: dict) -> int:
    spec = json.loads((checkouts["base"] / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    runs = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"pair": k + 1, "first": order[0]}
        for side in order:
            try:
                pair[side] = run_bench(checkouts[side], args)
            except RuntimeError as exc:
                print(f"pair {k + 1}, {side}: {exc}", file=sys.stderr)
                return 1
        runs.append(pair)
        print(f"pair {k + 1} ({order[0]} first): " + "; ".join(
            f"{side} " + " ".join(f"{name} {pair[side][name]:.6g}" for name in metrics)
            for side in SIDES), flush=True)
    summary = summarize(runs, metrics)
    print("\n".join(report(summary)))
    seconds = None if args.calls else args.seconds
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": seconds,
                      "calls": args.calls, "control": args.control,
                      "checkouts": {side: str(path) for side, path in checkouts.items()},
                      "summary": summary, "pairs": runs}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    base = args.base.resolve()
    if args.control:
        with tempfile.TemporaryDirectory(prefix="bench-control-") as tmp:
            copy = Path(tmp) / base.name
            shutil.copytree(base, copy, ignore=NOT_COPIED)
            return measure(args, {"base": base, "change": copy})
    return measure(args, {"base": base, "change": args.change.resolve()})


if __name__ == "__main__":
    sys.exit(main())
