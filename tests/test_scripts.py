"""Smoke test of the experiment scripts: each runs in-process from a fresh
working directory, exits 0 and leaves the four artifacts of every case."""

import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ARTIFACTS = {"iterates.csv", "curve.csv", "stages.csv", "meta.txt"}


@pytest.mark.parametrize(
    "script, cases",
    [
        ("run_geodesic_force.py",
         ["geodesic_force_n100", "geodesic_force_n1000", "geodesic_force_n10000"]),
        ("run_obstacle.py", ["obstacle_href0.1", "obstacle_href0.2"]),
        ("run_rod.py", ["rod_n100"]),
    ],
)
def test_experiment_script_writes_every_case(tmp_path, monkeypatch, script, cases):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert exit_info.value.code == 0
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == sorted(cases)
    for case in cases:
        assert {path.name for path in (tmp_path / "out" / case).iterdir()} == ARTIFACTS


# the first cases of each problem's sweep stream, fixed before their outcomes were seen
SWEEP_SUBSET = 10


@pytest.mark.parametrize("problem, settings, converged", [
    pytest.param("geodesic-force", {}, 1, id="geodesic-force"),
    pytest.param("rod", {}, 1, id="rod"),
    pytest.param("obstacle", {}, 1, id="obstacle"),
    # alpha0 damps only the cold start, so no warm-started stage shrinks the path's step
    pytest.param("obstacle", {"alpha0": 0.5}, SWEEP_SUBSET, id="obstacle-alpha0-0.5"),
])
def test_every_converged_sweep_run_passes_the_oracle(tmp_path, problem, settings, converged):
    sweep = runpy.run_path(str(SCRIPTS / "sweep.py"))
    runs = [{**case, **settings} for case in sweep["cases"](problem, SWEEP_SUBSET)]
    outcomes = [sweep["run_case"](case, tmp_path / str(k)) for k, case in enumerate(runs)]
    # the sampler draws valid boundary data, so no run is a configuration error
    assert all(code != 4 for code, *_ in outcomes)
    # at least ``converged`` of the runs exit 0
    assert sum(code == 0 for code, *_ in outcomes) >= converged
    assert [error for code, _, error, *_ in outcomes if code == 0 and error is not None] == []
    # the cost line sums stages.csv's outer_iterations over every run, rejected attempts included
    outer = 0
    for k in range(SWEEP_SUBSET):
        if (tmp_path / str(k) / "stages.csv").exists():
            header, *rows = (tmp_path / str(k) / "stages.csv").read_text().splitlines()
            column = header.split(",").index("outer_iterations")
            outer += sum(int(row.split(",")[column]) for row in rows)
    assert outer == sum(outcome[3] for outcome in outcomes) > 0
    lines = sweep["report"](problem, runs, outcomes)
    assert lines[1] == f"  outer iterations over all attempts: {outer}"
    # the digest is that of the run's iterates.csv then curve.csv, the rows those
    # of its iterates.csv and the levels its meta.txt's result_levels; the
    # termination and the final penalty are meta.txt's result_status and result_final_p
    for k, outcome in enumerate(outcomes):
        files = [tmp_path / str(k) / name for name in ("iterates.csv", "curve.csv")]
        meta_path = tmp_path / str(k) / "meta.txt"
        meta = (dict(line.split(" = ", 1) for line in meta_path.read_text().splitlines())
                if meta_path.exists() else {})
        assert outcome[7] == meta.get("result_status", "")
        assert outcome[9] == meta.get("result_final_p", "")
        if problem != "obstacle":
            assert outcome[9] == ""
        elif outcome[0] == 0:
            assert float(outcome[9]) >= 1.0  # obstacle.P0
        if files[0].exists():
            text = b"".join(path.read_bytes() for path in files)
            assert outcome[4] == hashlib.sha256(text).hexdigest()
            assert outcome[5] == len(files[0].read_text().splitlines()) - 1
            assert outcome[6] == meta["result_levels"] != ""
            assert outcome[7] != ""
            # each of a stage's outer iterations factorized once, but for a last
            # one that converged on its trial's step, and a failed stage's last
            # iteration factorized without a row
            stages = len((tmp_path / str(k) / "stages.csv").read_text().splitlines()) - 1
            assert outcome[3] - stages <= outcome[8] <= outcome[3] + stages
        else:
            assert outcome[4:7] == ("", "", "")


def test_sweep_compare_lists_changed_exit_codes_and_sums_cost_over_cases_converged_in_both(
        tmp_path):
    sweep = runpy.run_path(str(SCRIPTS / "sweep.py"))
    header = "problem,case,exit_code,outer_iterations,message\n"
    old = tmp_path / "old.csv"
    new = tmp_path / "new.csv"
    old.write_text(header + "rod,0,0,10,converged\n" + "rod,1,2,30,damping failed (#)\n"
                   + "rod,2,0,5,converged\n" + "obstacle,0,0,7,converged\n")
    new.write_text(header + "rod,0,0,12,converged\n" + "rod,1,0,20,converged\n"
                   + "rod,2,1,4,\"run failed, at #\"\n" + "obstacle,0,0,7,converged\n")
    lines, changed = sweep["compare"](sweep["read_record"](old), sweep["read_record"](new))
    assert changed == 2
    assert lines == [
        "rod: 3 cases in both records, 2 changed exit code",
        "  case 1: exit 2 -> 0: damping failed (#) -> converged",
        "  case 2: exit 0 -> 1: converged -> run failed, at #",
        "  outer iterations over the 1 cases converged in both: 10 -> 12",
        "obstacle: 1 cases in both records, 0 changed exit code",
        "  outer iterations over the 1 cases converged in both: 7 -> 7",
    ]
    # the sweep writes what compare reads: one row per case, numbers masked
    outcomes = [(0, "converged after 3 steps", None, 3, "ab", 3, "10,100"),
                (2, "theta 1.5e3, at 0.2", None, 40, "", "", "")]
    sweep["write_record"](tmp_path / "sweep.csv", sweep["record_rows"]("rod", outcomes))
    record = sweep["read_record"](tmp_path / "sweep.csv")
    assert [(key, row["exit_code"], row["outer_iterations"], row["message"], row["digest"],
             row["rows"], row["levels"]) for key, row in record.items()] == [
        (("rod", 0), "0", "3", "converged after # steps", "ab", "3", "10,100"),
        (("rod", 1), "2", "40", "theta #, at #", "", "", ""),
    ]
    assert sweep["compare"](record, record)[1] == 0
    # with digests in both records, compare also lists the cases whose artifacts changed
    outcomes = [(0, "converged after 3 steps", None, 3, "cd", 3, "10,100"),
                (0, "converged", None, 9, "ef", 9, "10,100")]
    sweep["write_record"](tmp_path / "new.csv", sweep["record_rows"]("rod", outcomes))
    lines, changed = sweep["compare"](record, sweep["read_record"](tmp_path / "new.csv"))
    assert changed == 2
    assert lines == [
        "rod: 2 cases in both records, 1 changed exit code, 2 changed digest",
        "  case 1: exit 2 -> 0: theta #, at # -> converged",
        "  case 0: digest changed, exit 0",
        "  outer iterations over the 1 cases converged in both: 3 -> 3",
    ]
    # a record without the digest column compares on exit codes alone
    assert sweep["compare"](sweep["read_record"](old), record) == ([
        "rod: 2 cases in both records, 0 changed exit code",
        "  outer iterations over the 1 cases converged in both: 10 -> 3",
        "obstacle: 0 cases in both records, 0 changed exit code",
        "  outer iterations over the 0 cases converged in both: 0 -> 0",
    ], 0)
    # a record with digests but without rows and levels compares as one with them
    digests = tmp_path / "digests.csv"
    digests.write_text("problem,case,exit_code,outer_iterations,message,digest\n"
                       "rod,0,0,3,converged after # steps,ab\n"
                       "rod,1,2,40,\"theta #, at #\",\n")
    assert sweep["compare"](sweep["read_record"](digests), record) == ([
        "rod: 2 cases in both records, 0 changed exit code, 0 changed digest",
        "  outer iterations over the 1 cases converged in both: 3 -> 3",
    ], 0)
    # with the termination, factorizations and final penalty in both records,
    # compare prints those that changed, for reading: they count as no change
    outcomes = [(0, "converged", None, 3, "ab", 3, "10", "converged", 5, "4.0"),
                (2, "failed", None, 9, "cd", 9, "10", "damping_failed", 11, "")]
    sweep["write_record"](tmp_path / "a.csv", sweep["record_rows"]("obstacle", outcomes))
    outcomes[0] = (*outcomes[0][:8], 6, "16.0")
    outcomes[1] = (*outcomes[1][:7], "max_iterations", 11, "")
    sweep["write_record"](tmp_path / "b.csv", sweep["record_rows"]("obstacle", outcomes))
    a, b = (sweep["read_record"](tmp_path / name) for name in ("a.csv", "b.csv"))
    assert [(row["termination"], row["factorizations"], row["final_p"])
            for row in a.values()] == [("converged", "5", "4.0"), ("damping_failed", "11", "")]
    assert sweep["compare"](a, b) == ([
        "obstacle: 2 cases in both records, 0 changed exit code, 0 changed digest",
        "  outer iterations over the 1 cases converged in both: 3 -> 3",
        "  case 0: final_p 4.0 -> 16.0",
        "  case 1: termination damping_failed -> max_iterations",
        "  factorizations over the 1 cases converged in both: 5 -> 6",
    ], 0)
    # a record without them prints none of it
    assert sweep["compare"](record, b)[0][-1] == (
        "  outer iterations over the 0 cases converged in both: 0 -> 0")


def test_sweep_compare_runs_without_the_package_on_the_path(tmp_path):
    # --compare reads two records and runs no case, so it imports no bundle_newton
    header = "problem,case,exit_code,outer_iterations,message,digest\n"
    (tmp_path / "old.csv").write_text(header + "rod,0,0,10,converged,ab\n")
    (tmp_path / "new.csv").write_text(header + "rod,0,0,10,converged,ab\n")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "sweep.py"), "--compare", "old.csv",
                           "new.csv"], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == (
        "rod: 1 cases in both records, 0 changed exit code, 0 changed digest")
