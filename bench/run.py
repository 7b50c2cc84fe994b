#!/usr/bin/env python3
"""Benchmark of the bundle-newton command line.

Run from the root of a source checkout:

    python3 bench/run.py --workload geodesic-n10000 --seed 0 --seconds 30 --trace 0

Each run drives the program the way its users do, through in-process
``bundle_newton.cli.main([...])`` calls (the call the ``scripts/run_*.py``
experiments make), with artifacts written under ``.bench_work/`` in the
checkout and removed at exit.  Every call's artifacts are checked by an
independent oracle (``oracle.py``) and must be byte-identical to those of
the run's first call.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it record the environment and the per-call timings.

``--trace 0`` reports the end-to-end metrics, with no tracing installed:

- ``run_s``: median seconds of one ``cli.main`` call;
- ``setup_s``: median seconds to import ``bundle_newton.cli`` (with numpy
  and scipy) in a fresh interpreter, over ``SETUP_SAMPLES`` interpreters;
- ``peak_rss_mb``: peak resident memory of the benchmark process;
- ``success_rate``: calls that exited 0 and passed the oracle and the byte
  comparison, divided by calls attempted.

Both are wall seconds scaled to a nominal machine speed by the probe in
``speed.py``; the report lines before the result give the raw wall times
and the measured speeds.

``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``tracer.py`` (counts per call and median self
seconds per call) plus the tracing overhead.

The benchmark pins BLAS to one thread.  The program's dense work is made of
2x2 to 3x3 blocks and narrow bands, where OpenBLAS threads only spin; on a
small shared machine they compete with the solver for the same cores and
double the spread between runs.

Exits 2 without a result line when the checkout has no ``src/bundle_newton``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
import tracer
from speed import SpeedProbe

SRC = Path("src")
PACKAGE_DIR = SRC / "bundle_newton"
WORK_ROOT = Path(".bench_work")
ARTIFACTS = ("iterates.csv", "curve.csv", "meta.txt")
SETUP_SAMPLES = 5
MIN_CALLS = 3  # a true median, and repeats for the byte comparison
CLI_DEFAULT_TOL = 1e-10

# Boundary data at seed 0: the defaults of the CLI, written out here so
# that the inputs belong to the benchmark.
GEODESIC_BOUNDARY = {
    "gamma0": (math.sin(0.3), 0.0, -math.cos(0.3)),
    "gammaT": (-math.sin(0.3) * math.cos(0.2), math.sin(0.3) * math.sin(0.2), math.cos(0.3)),
}
OBSTACLE_BOUNDARY = {
    "gamma0": (0.8, 0.0, 0.6),
    "gammaT": (-0.8 * math.cos(0.2), 0.8 * math.sin(0.2), 0.6),
}
ROD_BOUNDARY = {
    "y0": (0.0, 0.0, 0.0),
    "y1": (0.8, 0.0, 0.0),
    "v0": (1.0 / math.sqrt(5.0), 0.0, 2.0 / math.sqrt(5.0)),
    "v1": (1.0 / math.sqrt(1.64), 0.0, 0.8 / math.sqrt(1.64)),
}


@dataclass(frozen=True)
class Workload:
    problem: str
    params: dict  # CLI flag name (underscored) -> value
    boundary: dict
    warmup_n: int  # grid size of the untimed warm-up call


# Why each workload is in the set is recorded in BENCHMARK.json.
WORKLOADS = {
    "geodesic-n10000": Workload("geodesic-force", {"n": 10000}, GEODESIC_BOUNDARY, 100),
    "obstacle-href0.1": Workload("obstacle", {"n": 100, "h_ref": 0.1}, OBSTACLE_BOUNDARY, 10),
    "rod-n1000": Workload("rod", {"n": 1000}, ROD_BOUNDARY, 50),
}


def rotation(problem: str, seed: int) -> np.ndarray:
    """Symmetry rotation of the boundary data picked by ``seed``.

    Curve problems rotate about the z axis, which maps the winding field
    and the polar cap onto themselves; the force-free rod takes any
    rotation.  Seed 0 is the identity.
    """
    if seed == 0:
        return np.eye(3)
    rng = np.random.default_rng(seed)
    if problem == "rod":
        q = rng.standard_normal(4)
        w, x, y, z = q / np.linalg.norm(q)
        return np.array([
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ])
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def boundary_data(workload: Workload, seed: int) -> dict:
    rot = rotation(workload.problem, seed)
    return {key: tuple(float(c) for c in rot @ np.array(vec)) for key, vec in workload.boundary.items()}


def cli_argv(workload: Workload, boundary: dict, out_dir: Path, n: int | None = None) -> list:
    argv = [workload.problem]
    for key, value in workload.params.items():
        if key == "n" and n is not None:
            value = n
        argv += [f"--{key.replace('_', '-')}", repr(value)]
    for key, vec in boundary.items():
        # "--key=value": argparse reads a value such as "-0.3,0,1" as a flag
        argv.append(f"--{key}=" + ",".join(repr(c) for c in vec))
    return argv + ["--out-dir", str(out_dir)]


def expected_meta(workload: Workload, boundary: dict) -> dict:
    return {"problem": workload.problem, "tol": CLI_DEFAULT_TOL, **workload.params, **boundary}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS, asked through its C API."""
    out = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules[pkg]
        libs_dir = os.path.dirname(os.path.dirname(mod.__file__))
        for path in sorted(glob.glob(os.path.join(libs_dir, f"{pkg}.libs", "*openblas*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[os.path.basename(path)] = fn()
                    break
    return out


def _git_sha() -> str | None:
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = Path(".git") / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_seconds() -> list:
    """Import times of ``bundle_newton.cli`` in fresh interpreters, in
    seconds at nominal machine speed.

    One untimed import first writes the bytecode caches, which a user pays
    once per installation, not per run.  Each child samples the machine's
    speed right after its import.
    """
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:3]; t = time.perf_counter(); "
        "import bundle_newton.cli; t = time.perf_counter() - t; "
        "import speed; print(repr(t), repr(speed.current_speed()))"
    )
    cmd = [sys.executable, "-I", "-c", code, str(SRC.resolve()), str(Path(__file__).resolve().parent)]
    walls, speeds = [], []
    for k in range(SETUP_SAMPLES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        if k:
            wall, speed = (float(x) for x in done.stdout.split())
            walls.append(wall)
            speeds.append(speed)
    print(f"setup wall s: {[round(t, 4) for t in walls]}")
    print(f"setup machine speed: {[round(v, 4) for v in speeds]}")
    return [t * v for t, v in zip(walls, speeds)]


class Runner:
    """Runs CLI calls of one workload and checks every call's artifacts."""

    def __init__(self, cli, workload: Workload, seed: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.boundary = boundary_data(workload, seed)
        self.out_dir = out_dir
        self.argv = cli_argv(workload, self.boundary, out_dir)
        self.expected = expected_meta(workload, self.boundary)
        self.reference = None
        self.attempted = 0
        self.failures = []
        self.artifact_bytes = 0
        self.walls = []  # wall seconds of each timed call
        self.speeds = []  # machine speed during each timed call

    def _call(self, argv) -> tuple:
        for name in ARTIFACTS:
            (self.out_dir / name).unlink(missing_ok=True)
        gc.collect()
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), SpeedProbe() as probe:
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            elapsed = time.perf_counter() - start
        return code, elapsed, probe.speed(), sink.getvalue()

    def warm_up(self) -> None:
        """One small untimed call: first-call imports and lookups."""
        self._call(cli_argv(self.workload, self.boundary, self.out_dir, n=self.workload.warmup_n))

    def timed_call(self) -> float:
        """Run one call, check it, and return its seconds at nominal speed."""
        self.attempted += 1
        code, elapsed, speed, output = self._call(self.argv)
        self.walls.append(elapsed)
        self.speeds.append(speed)
        try:
            if code != 0:
                raise oracle.OracleError(f"exit code {code}: {output.strip()}")
            oracle.check_run(self.out_dir, self.expected)
            blobs = tuple((self.out_dir / name).read_bytes() for name in ARTIFACTS)
            if self.reference is None:
                self.reference = blobs
                self.artifact_bytes = sum(len(b) for b in blobs)
            else:
                for name, got, want in zip(ARTIFACTS, blobs, self.reference):
                    if got != want:
                        raise oracle.OracleError(f"{name} differs from the first call's bytes")
        except (oracle.OracleError, OSError, KeyError, IndexError, ValueError) as exc:
            self.failures.append(f"call {self.attempted}: {exc}")
        return elapsed * speed

    def report(self, label: str) -> None:
        print(f"{label} wall s: {[round(t, 4) for t in self.walls]}")
        print(f"{label} machine speed: {[round(v, 4) for v in self.speeds]}")


def run_for(seconds: float, min_calls: int, step) -> list:
    """Results of ``step()``, called at least ``min_calls`` times and while
    the next call, at the median duration so far, still ends within
    ``seconds``."""
    results, durations = [], []
    start = time.perf_counter()
    while len(results) < min_calls or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        began = time.perf_counter()
        results.append(step())
        durations.append(time.perf_counter() - began)
    return results


def end_to_end(runner: Runner, seconds: float) -> dict:
    setup = setup_seconds()
    runner.warm_up()
    times = run_for(seconds, MIN_CALLS, runner.timed_call)
    print(f"setup_s samples (nominal s): {[round(s, 4) for s in setup]}")
    print(f"run_s samples (nominal s): {[round(t, 4) for t in times]}")
    runner.report("calls")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = runner.attempted - len(runner.failures)
    return {
        "run_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MiB"),
        "success_rate": (ok / runner.attempted, "ratio"),
    }


def per_layer(runner: Runner, seconds: float) -> dict:
    trace = tracer.Tracer()
    runner.warm_up()

    def pair() -> tuple:
        untraced = runner.timed_call()
        trace.install()
        trace.reset()
        try:
            traced = runner.timed_call()
            return untraced, traced, trace.metrics(runner.speeds[-1]), trace.absent()
        finally:
            trace.uninstall()

    untraced, traced, samples, absent = zip(*run_for(seconds, 1, pair))
    print(f"untraced run_s samples (nominal s): {[round(t, 4) for t in untraced]}")
    print(f"traced run_s samples (nominal s): {[round(t, 4) for t in traced]}")
    runner.report("untraced and traced calls, alternating,")
    if absent[-1]:
        print(f"absent (no such function to wrap; reported as 0): {absent[-1]}")
    metrics = {
        name: (statistics.median_low(s[name] for s in samples), unit)
        for name, unit in tracer.metric_units().items()
    }
    metrics["cli.artifact_bytes"] = (runner.artifact_bytes, "bytes")
    metrics["trace.untraced_run_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_run_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_cli():
    """Import ``bundle_newton.cli`` from this checkout's ``src``, or exit 2."""
    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"error: {PACKAGE_DIR}/cli.py not found; run from the root of a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC.resolve()))
    import bundle_newton.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {cli.__file__}, not the checkout's copy", file=sys.stderr)
        sys.exit(2)
    return cli


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    print("env: " + json.dumps(environment(), sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        out_dir = work / "out"
        out_dir.mkdir()
        runner = Runner(cli, workload, args.seed, out_dir)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()
    for failure in runner.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
