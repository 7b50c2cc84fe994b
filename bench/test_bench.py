"""Tests of the benchmark's own parts: oracle, seeded inputs, byte check,
tracer and speed probe.

Run from the root of a source checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import bundle_newton.cli as cli  # noqa: E402
import bundle_newton.fem1d as fem1d  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = {"geodesic-n10000": 40, "obstacle-href0.1": 20, "rod-n1000": 40}


def small_runner(name, seed, out_dir):
    workload = run.WORKLOADS[name]
    workload = replace(workload, params={**workload.params, "n": SMALL[name]})
    out_dir.mkdir(exist_ok=True)
    return run.Runner(cli, workload, seed, out_dir)


@pytest.fixture(scope="module", params=sorted(SMALL))
def finished_run(request, tmp_path_factory):
    out_dir = tmp_path_factory.mktemp(request.param)
    runner = small_runner(request.param, 3, out_dir)
    runner.timed_call()
    assert runner.failures == []
    return runner


def rewrite_curve(out_dir, change):
    path = out_dir / "curve.csv"
    lines = path.read_text().splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    change(rows)
    body = [",".join(format(x, ".17g") for x in row) for row in rows]
    path.write_text("\n".join([lines[0]] + body) + "\n")


def rotate_node(rows, k, cols, angle):
    """Turn node ``k`` within the sphere by ``angle``, keeping its norm."""
    y = rows[k, cols].copy()
    u = np.cross(y, [0.3, -0.5, 0.8])
    u /= np.linalg.norm(u)
    rows[k, cols] = np.cos(angle) * y + np.sin(angle) * u


def unit_cols(runner):
    return slice(4, 7) if runner.workload.problem == "rod" else slice(1, 4)


def test_oracle_accepts_the_run(finished_run):
    oracle.check_run(finished_run.out_dir, finished_run.expected)


def test_oracle_rejects_a_node_moved_along_the_sphere(finished_run, tmp_path):
    out = tmp_path / "copy"
    out.mkdir()
    for name in run.ARTIFACTS:
        (out / name).write_bytes((finished_run.out_dir / name).read_bytes())
    rewrite_curve(out, lambda rows: rotate_node(rows, 5, unit_cols(finished_run), 1e-6))
    with pytest.raises(oracle.OracleError, match="residual"):
        oracle.check_run(out, finished_run.expected)


def test_oracle_rejects_a_node_off_the_sphere(finished_run, tmp_path):
    out = tmp_path / "copy"
    out.mkdir()
    for name in run.ARTIFACTS:
        (out / name).write_bytes((finished_run.out_dir / name).read_bytes())

    def stretch(rows):
        rows[5, unit_cols(finished_run)] *= 1.0 + 1e-9

    rewrite_curve(out, stretch)
    with pytest.raises(oracle.OracleError, match="unit sphere"):
        oracle.check_run(out, finished_run.expected)


def test_oracle_rejects_a_moved_endpoint(finished_run, tmp_path):
    out = tmp_path / "copy"
    out.mkdir()
    for name in run.ARTIFACTS:
        (out / name).write_bytes((finished_run.out_dir / name).read_bytes())
    rewrite_curve(out, lambda rows: rotate_node(rows, 0, unit_cols(finished_run), 1e-12))
    with pytest.raises(oracle.OracleError, match="endpoint"):
        oracle.check_run(out, finished_run.expected)


def test_oracle_rejects_a_curve_above_the_cap(tmp_path):
    runner = small_runner("obstacle-href0.1", 0, tmp_path / "o")
    runner.timed_call()
    assert runner.failures == []

    def lift(rows):
        k = int(np.argmax(rows[:, 3]))
        rows[k, 1:4] = [np.sqrt(1.0 - 0.92**2), 0.0, 0.92]

    rewrite_curve(runner.out_dir, lift)
    with pytest.raises(oracle.OracleError, match="cap"):
        oracle.check_run(runner.out_dir, runner.expected)


def test_oracle_rejects_an_unconverged_run(tmp_path):
    runner = small_runner("rod-n1000", 0, tmp_path / "r")
    argv = runner.argv + ["--max-outer", "3"]
    assert cli.main(argv) != 0
    with pytest.raises(oracle.OracleError, match="result_status"):
        oracle.check_run(runner.out_dir, runner.expected)


def test_byte_mismatch_counts_as_failure(tmp_path):
    runner = small_runner("geodesic-n10000", 1, tmp_path / "g")
    runner.timed_call()
    runner.timed_call()
    assert runner.failures == []
    runner.reference = (runner.reference[0] + b"\n",) + runner.reference[1:]
    runner.timed_call()
    assert runner.attempted == 3
    assert len(runner.failures) == 1 and "iterates.csv differs" in runner.failures[0]


def test_seed_zero_is_the_default_data():
    for workload in run.WORKLOADS.values():
        assert run.boundary_data(workload, 0) == workload.boundary


@pytest.mark.parametrize("name", sorted(SMALL))
def test_seeded_rotation_is_a_symmetry(name):
    workload = run.WORKLOADS[name]
    a, b = run.boundary_data(workload, 7), run.boundary_data(workload, 7)
    assert a == b
    assert a != run.boundary_data(workload, 8)
    rot = run.rotation(workload.problem, 7)
    assert np.allclose(rot.T @ rot, np.eye(3), atol=1e-15)
    assert np.isclose(np.linalg.det(rot), 1.0)
    if workload.problem != "rod":
        assert np.array_equal(rot[2], [0.0, 0.0, 1.0])  # about the z axis


def test_tracer_counts_and_restores(tmp_path):
    runner = small_runner("rod-n1000", 0, tmp_path / "r")
    originals = (fem1d.BandedMatrix.add, cli.damped_newton, cli.main)
    trace = tracer.Tracer()
    trace.install()
    trace.reset()
    try:
        runner.timed_call()
        metrics = trace.metrics()
        assert trace.absent() == []
    finally:
        trace.uninstall()
    assert (fem1d.BandedMatrix.add, cli.damped_newton, cli.main) == originals
    assert runner.failures == []
    assert list(metrics) == list(tracer.metric_units())
    assert metrics["newton.solves"] == 1
    assert metrics["newton.outer"] == metrics["problems.assemble_jacobian.calls"]
    assert metrics["newton.trials"] == metrics["problems.retract.calls"]
    assert metrics["fem1d.factorize.calls"] == metrics["newton.outer"]
    assert metrics["fem1d.banded_add.calls"] > 0
    assert metrics["fem1d.assemble_intervals.calls"] == 0
    assert metrics["geometry.tangent_basis.calls"] > 0
    assert all(metrics[f"{layer}.self_s"] >= 0.0 for layer in tracer.CALLS_AND_SELF)


def test_tracer_reports_a_missing_function_as_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(fem1d, "assemble_intervals_vector")
    monkeypatch.delattr(fem1d.BandedMatrix, "add")
    trace = tracer.Tracer()
    trace.install()
    try:
        absent = trace.absent()
    finally:
        trace.uninstall()
    assert absent == [
        "fem1d.assemble_intervals_vector.calls",
        "fem1d.assemble_intervals_vector.self_s",
        "fem1d.banded_add.calls",
    ]


def test_speed_probe_samples_while_busy_and_restores_the_handler():
    import signal

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5  # entry, exit and the timer ticks
    assert probe.speed() > 0.0


def test_benchmark_json_names_what_the_runner_reports():
    import json

    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb", "success_rate"}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, unit in tracer.metric_units().items():
        assert layers.pop(name) == unit
    assert set(layers) == {
        "cli.artifact_bytes", "trace.untraced_run_s", "trace.traced_run_s", "trace.overhead_ratio"
    }
