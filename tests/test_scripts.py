import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_crossing_negotiation_demo_runs():
    out = run_script("crossing_negotiation_demo.py")
    assert "negotiated arrivals       {1: 8.0, 2: 12.0}" in out
    # the negotiated plans are checked exactly, through detect_conflicts
    assert "final conflicts           0" in out


def test_random_batch_survey_runs():
    assert "converged 46, failed 4" in run_script("random_batch_survey.py")


def test_random_batch_survey_counts_why_failed_solves_stopped():
    # world 2's last solve is stopped at the damping cap; those of worlds
    # 22, 41 and 47 stall
    summary = run_script("random_batch_survey.py").splitlines()
    assert "  unconverged final solves: damping_cap 1, stalled 3" in summary
    assert "  unconverged final solves: none" in run_script(
        "random_batch_survey.py", "--seeds", "1", "1").splitlines()


def test_random_batch_survey_oracle_answers():
    answers = run_script("random_batch_survey.py", "--seeds", "1", "2", "--answers")
    with_oracle = run_script(
        "random_batch_survey.py", "--seeds", "1", "2", "--answers", "--oracle"
    )
    plain = answers.splitlines()
    lines = with_oracle.splitlines()
    assert len(lines) == len(plain) == 2
    # world 1 converges and gets the oracle's cost and gap; world 2 fails
    head, tail = lines[0].split(" oracle ")
    assert head == plain[0] and plain[0].startswith("world 1: converged ")
    cost, gap = (float(word) for word in tail.split())
    assert cost > 0 and abs(gap) <= 0.02
    assert lines[1] == plain[1] and plain[1].startswith("world 2: failed ")


def test_random_batch_survey_times_the_oracle():
    summary = run_script("random_batch_survey.py", "--seeds", "1", "2").splitlines()
    timed = run_script(
        "random_batch_survey.py", "--seeds", "1", "2", "--oracle"
    ).splitlines()
    # the same summary, whose plan times vary, and two more lines
    assert len(timed) == len(summary) + 2
    same = [i for i, line in enumerate(summary) if "wall clock" not in line]
    assert [timed[i] for i in same] == [summary[i] for i in same]
    # world 1 converges, world 2 fails
    assert timed[-2].startswith("  oracle wall clock (1 converged worlds): total ")
    total, median, peak = re.findall(r"([0-9.]+) s", timed[-2])
    assert total == median == peak
    assert timed[-1] == "  planner energy above 1.02 x oracle cost: no world"


def test_symmetric_obstacle_demo_runs():
    out = run_script("symmetric_obstacle_demo.py")
    assert "junction time          5.000000 s" in out
    assert re.search(r"oracle wall clock\s+[0-9.]+ ms", out)
