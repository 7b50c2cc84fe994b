"""Smoke test of the experiment scripts: each runs in-process from a fresh
working directory, exits 0 and leaves the four artifacts of every case."""

import hashlib
import json
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
    assert all(outcome["exit_code"] != 4 for outcome in outcomes)
    # at least ``converged`` of the runs exit 0
    assert sum(outcome["exit_code"] == 0 for outcome in outcomes) >= converged
    assert [outcome["error"] for outcome in outcomes
            if outcome["exit_code"] == 0 and outcome["error"] is not None] == []
    # the cost line sums stages.csv's outer_iterations over every run, rejected attempts included
    outer = 0
    for k in range(SWEEP_SUBSET):
        if (tmp_path / str(k) / "stages.csv").exists():
            header, *rows = (tmp_path / str(k) / "stages.csv").read_text().splitlines()
            column = header.split(",").index("outer_iterations")
            outer += sum(int(row.split(",")[column]) for row in rows)
    assert outer == sum(outcome["outer_iterations"] for outcome in outcomes) > 0
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
        assert outcome["termination"] == meta.get("result_status", "")
        assert outcome["final_p"] == meta.get("result_final_p", "")
        if problem != "obstacle":
            assert outcome["final_p"] == ""
        elif outcome["exit_code"] == 0:
            assert float(outcome["final_p"]) >= 1.0  # obstacle.P0
        if files[0].exists():
            text = b"".join(path.read_bytes() for path in files)
            assert outcome["digest"] == hashlib.sha256(text).hexdigest()
            assert outcome["rows"] == len(files[0].read_text().splitlines()) - 1
            assert outcome["levels"] == meta["result_levels"] != ""
            assert outcome["termination"] != ""
            # each of a stage's outer iterations factorized once, but for a last
            # one that converged on its trial's step, and a failed stage's last
            # iteration factorized without a row
            stages = len((tmp_path / str(k) / "stages.csv").read_text().splitlines()) - 1
            assert (outcome["outer_iterations"] - stages <= outcome["factorizations"]
                    <= outcome["outer_iterations"] + stages)
        else:
            assert (outcome["digest"], outcome["rows"], outcome["levels"]) == ("", "", "")

def outcome(code, outer, message, digest="", rows="", levels="", termination="",
            factorizations=0, final_p=""):
    """A :func:`run_case` outcome of these fields that passed the oracle."""
    return {"exit_code": code, "outer_iterations": outer, "message": message, "digest": digest,
            "rows": rows, "levels": levels, "termination": termination,
            "factorizations": factorizations, "final_p": final_p, "error": None}


def recorded(sweep, path, outcomes: dict) -> dict:
    """The record of ``outcomes``, lists by problem, written to ``path`` and read back."""
    sweep["write_record"](path, [row for problem, runs in outcomes.items()
                                 for row in sweep["record_rows"](problem, runs)])
    return sweep["read_record"](path)


def test_sweep_compare_lists_changed_exit_codes_and_sums_cost_over_cases_converged_in_both(
        tmp_path):
    sweep = runpy.run_path(str(SCRIPTS / "sweep.py"))
    old = recorded(sweep, tmp_path / "old.csv", {
        "rod": [outcome(0, 10, "converged"), outcome(2, 30, "damping failed (#)"),
                outcome(0, 5, "converged")],
        "obstacle": [outcome(0, 7, "converged")]})
    new = recorded(sweep, tmp_path / "new.csv", {
        "rod": [outcome(0, 12, "converged"), outcome(0, 20, "converged"),
                outcome(1, 4, "run failed, at #")],
        "obstacle": [outcome(0, 7, "converged")]})
    lines, changed = sweep["compare"](old, new)
    assert changed == 2
    assert lines == [
        "rod: 3 cases in both records, 2 changed exit code, 0 changed digest",
        "  case 1: exit 2 -> 0: damping failed (#) -> converged",
        "  case 2: exit 0 -> 1: converged -> run failed, at #",
        "  outer iterations over the 1 cases converged in both: 10 -> 12",
        "  factorizations over the 1 cases converged in both: 0 -> 0",
        "obstacle: 1 cases in both records, 0 changed exit code, 0 changed digest",
        "  outer iterations over the 1 cases converged in both: 7 -> 7",
        "  factorizations over the 1 cases converged in both: 0 -> 0",
    ]
    # the sweep writes what compare reads: one row per case, numbers masked
    record = recorded(sweep, tmp_path / "sweep.csv", {"rod": [
        outcome(0, 3, "converged after 3 steps", "ab", 3, "10,100"),
        outcome(2, 40, "theta 1.5e3, at 0.2")]})
    assert [(key, row["exit_code"], row["outer_iterations"], row["message"], row["digest"],
             row["rows"], row["levels"]) for key, row in record.items()] == [
        (("rod", 0), "0", "3", "converged after # steps", "ab", "3", "10,100"),
        (("rod", 1), "2", "40", "theta #, at #", "", "", ""),
    ]
    assert sweep["compare"](record, record)[1] == 0
    # compare also lists the cases whose artifacts changed
    lines, changed = sweep["compare"](record, recorded(sweep, tmp_path / "new.csv", {"rod": [
        outcome(0, 3, "converged after 3 steps", "cd", 3, "10,100"),
        outcome(0, 9, "converged", "ef", 9, "10,100")]}))
    assert changed == 2
    assert lines == [
        "rod: 2 cases in both records, 1 changed exit code, 2 changed digest",
        "  case 1: exit 2 -> 0: theta #, at # -> converged",
        "  case 0: digest changed, exit 0",
        "  outer iterations over the 1 cases converged in both: 3 -> 3",
        "  factorizations over the 1 cases converged in both: 0 -> 0",
    ]
    # compare prints the changed terminations, final penalties and, with the
    # same exit code, masked messages, for reading: they count as no change
    a = recorded(sweep, tmp_path / "a.csv", {"obstacle": [
        outcome(0, 3, "converged", "ab", 3, "10", "converged", 5, "4.0"),
        outcome(2, 9, "failed", "cd", 9, "10", "damping_failed", 11),
        outcome(2, 7, "failed at 0.5", "ef", 7, "10", "damping_failed", 8)]})
    b = recorded(sweep, tmp_path / "b.csv", {"obstacle": [
        outcome(0, 3, "converged", "ab", 3, "10", "converged", 6, "16.0"),
        outcome(2, 9, "failed", "cd", 9, "10", "max_iterations", 11),
        outcome(2, 7, "failed at 0.25 (estimate 1e16)", "ef", 7, "10", "damping_failed", 8)]})
    assert [(row["termination"], row["factorizations"], row["final_p"])
            for row in a.values()] == [("converged", "5", "4.0"), ("damping_failed", "11", ""),
                                       ("damping_failed", "8", "")]
    assert sweep["compare"](a, b) == ([
        "obstacle: 3 cases in both records, 0 changed exit code, 0 changed digest",
        "  outer iterations over the 1 cases converged in both: 3 -> 3",
        "  case 0: final_p 4.0 -> 16.0",
        "  case 1: termination damping_failed -> max_iterations",
        "  case 2: message failed at # -> failed at # (estimate #)",
        "  factorizations over the 1 cases converged in both: 5 -> 6",
    ], 0)


def run_compare(tmp_path, old: str, new: str):
    """``sweep.py --compare`` of two record texts, without ``src`` on the path."""
    (tmp_path / "old.csv").write_text(old)
    (tmp_path / "new.csv").write_text(new)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / "sweep.py"), "--compare", "old.csv",
                           "new.csv"], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)


HEADER = ("problem,case,exit_code,outer_iterations,message,digest,rows,levels,termination,"
          "factorizations,final_p\n")
ROW = "rod,0,0,10,converged,ab,10,\"10,100\",converged,9,\n"


def test_sweep_compare_runs_without_the_package_on_the_path(tmp_path):
    # --compare reads two records and runs no case, so it imports no bundle_newton
    done = run_compare(tmp_path, HEADER + ROW, HEADER + ROW)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == (
        "rod: 1 cases in both records, 0 changed exit code, 0 changed digest")


def test_sweep_compare_refuses_a_file_that_is_not_a_record(tmp_path):
    # a file with other columns would compare on what it happens to share
    legacy = "problem,case,exit_code,outer_iterations,message,digest\n"
    done = run_compare(tmp_path, legacy + "rod,0,0,10,converged,ab\n", HEADER + ROW)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "old.csv is not a sweep record: its columns are "
        "problem,case,exit_code,outer_iterations,message,digest, not " + HEADER)


def test_artifact_digests_repeat_and_leave_out_the_output_directory():
    # each run writes into its own temporary directory, which meta.txt names;
    # equal output shows that the digests skip that line and nothing else varies
    command = [sys.executable, str(SCRIPTS / "artifact_digests.py"),
               "--workload", "obstacle-href0.1", "--seed", "0"]
    runs = [subprocess.run(command, capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = [line.split() for line in runs[0].stdout.splitlines()]
    assert lines[0] == ["obstacle-href0.1", "0", "exit", "0"]
    assert [line[:3] for line in lines[1:]] == [
        ["obstacle-href0.1", "0", name] for name in ("iterates.csv", "curve.csv", "stages.csv", "meta.txt")]
    assert all(len(line[3]) == 64 and set(line[3]) <= set("0123456789abcdef") for line in lines[1:])


def test_bench_pairs_runs_a_control_pair_and_summarizes_every_end_to_end_metric():
    # one short A/A pair: the base against a copy of itself, base first
    root = SCRIPTS.parent
    command = [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--base", str(root), "--control",
               "--workload", "obstacle-href0.1", "--pairs", "1", "--seconds", "0.2"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pair 1 (base first): base run_s ")
    result = json.loads(lines[-1])
    assert (result["workload"], result["seed"], result["control"]) == ("obstacle-href0.1", 0, True)
    assert Path(result["checkouts"]["base"]) == root.resolve()
    assert not Path(result["checkouts"]["change"]).exists()  # the copy is removed
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(result["summary"]) == names
    [pair] = result["pairs"]
    assert (pair["pair"], pair["first"]) == (1, "base")
    for side in ("base", "change"):
        assert pair[side]["correct"] and pair[side]["failed"] == 0
        assert pair[side]["success_rate"] == 1.0 and pair[side]["run_s"] > 0.0
    for name, s in result["summary"].items():
        for side in ("base", "change"):
            assert s[side] == {"median": pair[side][name], "q1": pair[side][name],
                               "q3": pair[side][name]}
        assert s["pairs"] == 1 and s["change_wins"] in (0, 1)
        assert s["median_difference"] == pair["change"][name] - pair["base"][name]
        assert s["base_quartile_spread"] == 0.0
        assert s["resolved"] == (s["median_difference"] != 0.0)
    # the table has a row per metric
    assert [line.split()[0] for line in lines[-1 - len(names):-1]] == names
    # one of --change and --control, not both or neither
    for flags in ([], ["--control", "--change", str(root)]):
        refused = subprocess.run([*command[:4], *flags, "--workload", "obstacle-href0.1"],
                                 capture_output=True, text=True, timeout=60)
        assert refused.returncode == 2 and "either --change PATH or --control" in refused.stderr


def test_bench_pairs_makes_a_fixed_number_of_calls_per_run():
    # --calls: a fresh interpreter per run makes exactly K timed calls, so
    # that peak_rss_mb compares equal work; the summary is the same
    root = SCRIPTS.parent
    command = [sys.executable, str(SCRIPTS / "bench_pairs.py"), "--base", str(root), "--control",
               "--workload", "obstacle-href0.1", "--pairs", "1", "--calls", "20"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("pair 1 (base first): base run_s ")
    result = json.loads(lines[-1])
    assert (result["calls"], result["seconds"], result["control"]) == (20, None, True)
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    assert list(result["summary"]) == names
    [pair] = result["pairs"]
    for side in ("base", "change"):
        run = pair[side]
        assert (run["correct"], run["attempted"], run["failed"]) == (True, 20, 0)
        assert run["success_rate"] == 1.0 and run["run_s"] > 0.0 and run["setup_s"] > 0.0
        assert run["peak_rss_mb"] > 0.0
    for name, s in result["summary"].items():
        assert s["pairs"] == 1
        assert s["median_difference"] == pair["change"][name] - pair["base"][name]
    assert [line.split()[0] for line in lines[-1 - len(names):-1]] == names
    for flags in (["--calls", "0"], ["--calls", "3", "--seconds", "1"]):
        refused = subprocess.run([*command[:-2], *flags], capture_output=True, text=True,
                                 timeout=60)
        assert refused.returncode == 2, flags
