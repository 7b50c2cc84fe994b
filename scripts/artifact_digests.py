#!/usr/bin/env python3
"""SHA-256 digests of the benchmark workloads' artifacts.

    python scripts/artifact_digests.py [--src PATH] [--workload NAME]... [--seed K]...

Runs ``bundle_newton.cli.main`` once per workload of ``bench/run.py`` and
seed, with the bench's own arguments (its ``WORKLOADS``, ``boundary_data``
and ``cli_argv``), in a temporary output directory, and prints the exit
code and the digest of each of ``iterates.csv``, ``curve.csv``,
``stages.csv`` and ``meta.txt``, one line each::

    <workload> <seed> exit <code>
    <workload> <seed> <artifact> <sha256, or "missing">

``meta.txt`` is hashed without its ``out_dir`` line, which names the
temporary directory.  By default every workload runs at seeds 0-3 with the
package of this checkout's ``src``; ``--src`` imports the package from
another checkout's ``src``.  Two versions of the solver give byte-identical
answers on the benchmark when their outputs are identical:

    python scripts/artifact_digests.py > new.txt
    python scripts/artifact_digests.py --src ../parent/src > old.txt
    cmp old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from run import WORKLOADS, boundary_data, cli_argv  # noqa: E402

ARTIFACTS = ("iterates.csv", "curve.csv", "stages.csv", "meta.txt")


def digest(path: Path) -> str:
    if not path.is_file():
        return "missing"
    data = path.read_bytes()
    if path.name == "meta.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"out_dir = "))
    return hashlib.sha256(data).hexdigest()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the bundle_newton package (default: this checkout's)")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="a workload to run, repeatable (default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help="a seed to run, repeatable (default: 0 to 3)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = args.src.resolve()
    if not (src / "bundle_newton" / "cli.py").is_file():
        print(f"error: {src} holds no bundle_newton package", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bundle_newton.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported {cli.__file__}, not the package in {src}", file=sys.stderr)
        return 2
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        for seed in args.seed or range(4):
            with tempfile.TemporaryDirectory() as tmp:
                out_dir = Path(tmp) / "out"
                argv = cli_argv(workload, boundary_data(workload, seed), out_dir)
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli.main(argv)
                print(f"{name} {seed} exit {code}")
                for artifact in ARTIFACTS:
                    print(f"{name} {seed} {artifact} {digest(out_dir / artifact)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
