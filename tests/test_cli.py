import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from junctionplan import (
    AgentSpec,
    KinematicState,
    Scenario,
    plan_agent,
    save_scenario,
)
from junctionplan import cli as cli_mod
from junctionplan import game, solver
from junctionplan.world import reference_world
from junctionplan.cli import (
    CSV_HEADER,
    EXIT_INPUT,
    _trajectory_rows,
    _write_trajectory_csv,
    main,
)


def rest(x, y):
    return KinematicState.at_rest(x, y)


def run(args):
    return main([str(a) for a in args])


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    save_scenario(scenario, path)
    return path


@pytest.fixture
def symmetric_file(tmp_path, symmetric_scenario):
    return write_scenario(tmp_path, symmetric_scenario)


@pytest.fixture
def crossing_file(tmp_path, crossing_scenario):
    return write_scenario(tmp_path, crossing_scenario)


class TestGenWorld:
    def test_deterministic_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(["gen-world", "--seed", 7, "--obstacles", 6,
                    "--out", out_a]) == 0
        assert run(["gen-world", "--seed", 7, "--obstacles", 6,
                    "--out", out_b]) == 0
        assert (out_a / "scenario.json").read_bytes() == (
            out_b / "scenario.json"
        ).read_bytes()

    def test_zero_obstacles(self, tmp_path):
        assert run(["gen-world", "--seed", 1, "--obstacles", 0,
                    "--out", tmp_path]) == 0
        doc = json.loads((tmp_path / "scenario.json").read_text())
        assert doc["obstacles"] == []

    def test_generated_world_plans_cleanly(self, tmp_path):
        assert run(["gen-world", "--seed", 3, "--obstacles", 4,
                    "--out", tmp_path]) == 0
        code = run(["plan", tmp_path / "scenario.json",
                    "--out", tmp_path / "run"])
        assert code in (0, 3)  # plans may fail on hard geometry, not crash
        assert (tmp_path / "run" / "report.json").exists()

    def test_custom_agent_argument(self, tmp_path):
        assert run([
            "gen-world", "--seed", 2, "--obstacles", 2, "--out", tmp_path,
            "--agent", "5,0.5,-9,-9,0,0,9,9,0,0,0,12",
        ]) == 0
        doc = json.loads((tmp_path / "scenario.json").read_text())
        assert doc["agents"][0]["id"] == 5
        assert doc["agents"][0]["tf"] == 12

    @pytest.mark.parametrize("agent_id", ["inf", "nan", "1.7"])
    def test_non_integer_agent_id_is_input_error(self, tmp_path, capsys,
                                                 agent_id):
        code = run(["gen-world", "--seed", 2, "--obstacles", 2, "--out", tmp_path,
                    "--agent", f"{agent_id},0.5,-9,-9,0,0,9,9,0,0,0,10"])
        assert code == 2
        assert "not an integer" in capsys.readouterr().err
        assert not (tmp_path / "scenario.json").exists()

    def test_generation_failure_exit_code(self, tmp_path):
        code = run(["gen-world", "--seed", 0, "--obstacles", 1,
                    "--bounds", -1, -1, 1, 1,
                    "--radius-range", 50, 60,
                    "--agent", "0,0.5,-40,0,0,0,40,0,0,0,0,10",
                    "--out", tmp_path])
        assert code == 2


class TestPlan:
    def test_obstacle_free_single_agent(self, tmp_path):
        agent = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(3, 4),
                          t0=0.0, tf_nominal=5.0)
        path = write_scenario(tmp_path, Scenario(agents=(agent,), obstacles=()))
        out = tmp_path / "run"
        assert run(["plan", path, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["agents"][0]
        assert entry["converged"] is True
        assert entry["junction_count"] == 0
        # closed form for a rest-to-rest transfer of displacement d in T
        assert entry["energy"] == pytest.approx(12.0 * 25.0 / 125.0, rel=1e-9)
        assert entry["wall_clock_ms"] > 0
        assert (out / "message_0.json").exists()

    def test_symmetric_scenario_report(self, symmetric_file, tmp_path):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["agents"][0]
        assert entry["converged"] is True
        assert entry["residual"] <= 1e-7
        assert entry["junction_count"] == 1
        assert entry["degenerate_junctions"] == []
        assert entry["termination"] == "converged"

    def test_crossing_negotiates(self, crossing_file, tmp_path):
        out = tmp_path / "run"
        assert run(["plan", crossing_file, "--out", out,
                    "--step", 2.0, "--max-dev", 4.0]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["negotiation"] is not None
        assert report["negotiation"]["arrival_times"] == {"1": 8.0, "2": 12.0}
        assert report["negotiation"]["total_deviation"] == pytest.approx(4.0)
        assert report["conflicts"] == []
        msg = json.loads((out / "message_1.json").read_text())
        assert msg["tf"] == 8.0

    def test_crossing_keeps_the_negotiated_plans(self, crossing_scenario,
                                                 crossing_file, tmp_path,
                                                 monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].id)
            return plan_agent(*args, **kwargs)

        monkeypatch.setattr(cli_mod, "plan_agent", counting)
        out = tmp_path / "run"
        assert run(["plan", crossing_file, "--out", out,
                    "--step", 2.0, "--max-dev", 4.0]) == 0
        assert calls == [1, 2]
        report = json.loads((out / "report.json").read_text())
        assert report["conflicts"] == []
        for entry in report["agents"]:
            agent = crossing_scenario.agent(entry["id"])
            shifted = AgentSpec(id=agent.id, radius=agent.radius,
                                start=agent.start, goal=agent.goal,
                                t0=agent.t0, tf_nominal=entry["tf"])
            _, fresh = plan_agent(shifted, crossing_scenario)
            expected = cli_mod._plan_entry(shifted, fresh, True, 0.0)
            msg = json.loads((out / f"message_{agent.id}.json").read_text())
            assert msg == expected.pop("message")
            assert entry["wall_clock_ms"] > 0
            assert {**entry, "wall_clock_ms": 0.0} == expected

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_negotiation_reuses_the_nominal_plans(self, crossing_file, tmp_path,
                                                  monkeypatch, command):
        nominal, negotiated = [], []

        def counting(calls):
            def plan(*args, **kwargs):
                calls.append((args[0].id, args[0].tf_nominal))
                return plan_agent(*args, **kwargs)
            return plan

        monkeypatch.setattr(cli_mod, "plan_agent", counting(nominal))
        monkeypatch.setattr(game, "plan_agent", counting(negotiated))
        out = tmp_path / "run"
        extra = ["--out", out] if command == "plan" else ["--repeat", 1]
        assert run([command, crossing_file, "--step", 2.0, "--max-dev", 4.0,
                    *extra]) == 0
        # the nominal (1, 10.0) and (2, 10.0) come from the shared
        # planning step, and negotiation solves only the shifted horizons;
        # the search reaches agent 2's tick -2 before a leaf bounds it
        assert nominal == [(1, 10.0), (2, 10.0)]
        assert sorted(negotiated) == [(1, 8.0), (1, 12.0), (2, 6.0), (2, 8.0),
                                      (2, 12.0)]
        if command == "plan":
            report = json.loads((out / "report.json").read_text())
            assert report["negotiation"]["arrival_times"] == {"1": 8.0,
                                                              "2": 12.0}

    @pytest.mark.parametrize("command", ["plan", "bench"])
    @pytest.mark.parametrize("grid", [["--step", 0],
                                      ["--step", 0.5, "--max-dev", 1.2],
                                      ["--max-dev", "inf"],
                                      ["--step", "inf"]])
    def test_invalid_grid_rejected_without_conflicts(self, tmp_path,
                                                     command, grid):
        # separated corridors never need negotiation; the grid is still checked
        agents = (
            AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(10, 0),
                      t0=0.0, tf_nominal=10.0),
            AgentSpec(id=1, radius=0.5, start=rest(0, 50), goal=rest(10, 50),
                      t0=0.0, tf_nominal=10.0),
        )
        path = write_scenario(tmp_path, Scenario(agents=agents, obstacles=()))
        out = tmp_path / "run"
        args = [command, path, *grid] + (["--out", out] if command == "plan" else [])
        assert run(args) == EXIT_INPUT
        assert not (out / "report.json").exists()

    def test_deviation_that_empties_a_horizon_has_no_plan(self, crossing_file,
                                                          tmp_path):
        # --max-dev 10 reaches tf = t0 = 0 at the most negative tick
        out = tmp_path / "run"
        assert run(["plan", crossing_file, "--out", out,
                    "--step", 2.0, "--max-dev", 10.0]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["negotiation"]["arrival_times"] == {"1": 8.0, "2": 12.0}

    @pytest.mark.parametrize("command", ["plan", "bench"])
    def test_swap_without_assignment_exits_3(self, tmp_path, capsys, command):
        # head-on on one line: every shift collides, including tf = t0
        agents = (
            AgentSpec(id=0, radius=0.75, start=rest(-5, 0), goal=rest(5, 0),
                      t0=0.0, tf_nominal=10.0),
            AgentSpec(id=1, radius=0.75, start=rest(5, 0), goal=rest(-5, 0),
                      t0=0.0, tf_nominal=10.0),
        )
        path = write_scenario(tmp_path, Scenario(agents=agents, obstacles=()))
        extra = ["--out", tmp_path / "run"] if command == "plan" else ["--repeat", 2]
        assert run([command, path, "--step", 2.0, "--max-dev", 10.0, *extra]) == 3
        out, err = capsys.readouterr()
        assert "negotiation failed: no conflict-free assignment" in err
        if command == "bench":
            # the failed search is timed like any other
            doc = json.loads(out)
            assert doc["failures"] == 0
            for phase in doc["phases"].values():
                assert len(phase["samples"]) == 2 and phase["min"] > 0.0

    def test_horizon_shorter_than_a_segment(self, tmp_path):
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(1e-4, 0),
                          t0=0.0, tf_nominal=1e-4)
        path = write_scenario(tmp_path, Scenario(agents=(agent,), obstacles=()))
        out = tmp_path / "run"
        assert run(["plan", path, "--out", out]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["agents"][0]["converged"] is False
        assert report["agents"][0]["energy"] is None
        assert report["agents"][0]["termination"] is None

    def test_horizon_too_short_for_a_junction(self, tmp_path):
        from junctionplan import Obstacle

        agent = AgentSpec(id=0, radius=0.01, start=rest(0, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=1.5e-3)
        scen = Scenario(agents=(agent,),
                        obstacles=(Obstacle(id=0, center=(5.0, 0.0), radius=0.5),))
        path = write_scenario(tmp_path, scen)
        out = tmp_path / "run"
        assert run(["plan", path, "--out", out]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["agents"][0]["converged"] is False
        assert report["agents"][0]["junction_count"] == 0

    def test_samples_below_two_rejected(self, symmetric_file, tmp_path):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out,
                    "--samples", 1]) == EXIT_INPUT
        assert not (out / "report.json").exists()

    def test_planning_failure_writes_partial_outputs(self, tmp_path,
                                                     monkeypatch):
        # two separated blocking obstacles but a budget of one junction
        from junctionplan import Obstacle

        monkeypatch.setattr(solver, "MAX_JUNCTIONS", 1)
        agent = AgentSpec(id=0, radius=0.2, start=rest(0, 0), goal=rest(20, 0),
                          t0=0.0, tf_nominal=20.0)
        scen = Scenario(
            agents=(agent,),
            obstacles=(Obstacle(id=0, center=(6.0, 0.0), radius=0.8),
                       Obstacle(id=1, center=(14.0, 0.0), radius=0.8)),
        )
        path = write_scenario(tmp_path, scen)
        out = tmp_path / "run"
        assert run(["plan", path, "--out", out]) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["agents"][0]["converged"] is False
        assert (out / "trajectories.csv").exists()
        assert not (out / "message_0.json").exists()

    def test_csv_schema(self, symmetric_file, tmp_path):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out,
                    "--samples", 101]) == 0
        with open(out / "trajectories.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 101
        # full-precision round trip
        value = float(rows[1][2])
        assert value == 0.0


class TestCheck:
    def test_accepts_converged_plan(self, symmetric_file, tmp_path):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out]) == 0
        assert run(["check", symmetric_file, out / "trajectories.csv"]) == 0

    def test_rejects_injected_fault(self, symmetric_file, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out]) == 0
        csv_path = out / "trajectories.csv"
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        middle = len(rows) // 2
        rows[middle][2] = "5.0"  # drag one sample into the obstacle
        rows[middle][3] = "0.0"
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["check", symmetric_file, csv_path]) == 1
        assert "UNSAFE" in capsys.readouterr().out

    def test_pre_negotiation_crossing_fails(self, crossing_scenario,
                                            crossing_file, tmp_path, capsys):
        # plans produced independently, before any coordination
        rows = []
        for agent in crossing_scenario.agents:
            traj, _ = plan_agent(agent, crossing_scenario)
            rows.extend(_trajectory_rows(agent.id, traj, 501))
        csv_path = tmp_path / "raw.csv"
        _write_trajectory_csv(csv_path, rows)
        assert run(["check", crossing_file, csv_path]) == 1
        out = capsys.readouterr().out
        assert "worst pair penetration" in out

    @pytest.mark.parametrize("fault", ["all_nan", "nan_beside_centre"])
    def test_non_finite_csv_is_input_error(self, symmetric_file, tmp_path,
                                           capsys, fault):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out]) == 0
        csv_path = out / "trajectories.csv"
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        if fault == "all_nan":
            for row in rows[1:]:
                row[2] = row[3] = "nan"
            bad_line = 2
        else:
            rows[10][2:4] = ["5.0", "0.0"]  # at the obstacle's centre
            rows[20][2] = "nan"
            bad_line = 21
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert run(["check", symmetric_file, csv_path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert f"trajectories.csv:{bad_line}: non-finite value" in captured.err
        assert "verdict" not in captured.out

    def test_malformed_csv(self, symmetric_file, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("agent_id,t\n0,0\n")
        assert run(["check", symmetric_file, bad]) == 2

    def test_header_only_csv_is_input_error(self, symmetric_file, tmp_path,
                                            capsys):
        # what plan writes when no agent gets a trajectory
        empty = tmp_path / "empty.csv"
        _write_trajectory_csv(empty, [])
        assert run(["check", symmetric_file, empty]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "no trajectory rows" in captured.err
        assert "verdict" not in captured.out

    def test_missing_file(self, symmetric_file, tmp_path):
        assert run(["check", symmetric_file, tmp_path / "nope.csv"]) == 2

    def test_directory_as_scenario_is_input_error(self, symmetric_file,
                                                  tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out]) == 0
        capsys.readouterr()
        assert run(["check", tmp_path, out / "trajectories.csv"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")

    def test_agent_without_rows_is_input_error(self, tmp_path, capsys):
        # agent 1's horizon is too short to plan, so plan writes no rows for
        # it, although agent 0 drives through its held position
        agents = (
            AgentSpec(id=0, radius=0.25, start=rest(-5, 0), goal=rest(5, 0),
                      t0=0.0, tf_nominal=10.0),
            AgentSpec(id=1, radius=0.75, start=rest(0, 0), goal=rest(0, 0),
                      t0=0.0, tf_nominal=1e-4),
        )
        path = write_scenario(tmp_path, Scenario(agents=agents, obstacles=()))
        out = tmp_path / "run"
        assert run(["plan", path, "--out", out]) == 3
        with open(out / "trajectories.csv") as fh:
            assert {row[0] for row in list(csv.reader(fh))[1:]} == {"0"}
        capsys.readouterr()
        assert run(["check", path, out / "trajectories.csv"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert "no rows for agent(s) 1" in captured.err
        assert "verdict" not in captured.out

    def test_unknown_agent_is_input_error(self, symmetric_file, tmp_path):
        out = tmp_path / "run"
        assert run(["plan", symmetric_file, "--out", out]) == 0
        csv_path = out / "trajectories.csv"
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[0] = "99"
        with open(csv_path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert run(["check", symmetric_file, csv_path]) == EXIT_INPUT


class TestOracleCommand:
    def test_symmetric_gap_within_two_percent(self, symmetric_file, capsys):
        assert run(["oracle", symmetric_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["relative_gap"] <= 0.02
        assert doc["warning"] is False

    def test_far_obstacle_matches_unconstrained(self, tmp_path, capsys):
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(1, 0),
                          t0=0.0, tf_nominal=1.0)
        from junctionplan import Obstacle

        scen = Scenario(agents=(agent,),
                        obstacles=(Obstacle(id=0, center=(0.5, 50.0),
                                            radius=0.75),))
        path = write_scenario(tmp_path, scen)
        assert run(["oracle", path, "--oracle-steps", 400]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["junction_energy"] - 12.0) < 0.001
        assert abs(doc["relative_gap"]) < 0.01

    def test_unconstrained_gap_under_one_percent(self, tmp_path, capsys):
        agent = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(2, -1),
                          t0=0.0, tf_nominal=3.0)
        path = write_scenario(tmp_path, Scenario(agents=(agent,), obstacles=()))
        assert run(["oracle", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["relative_gap"]) < 0.01

    def test_multi_agent_requires_agent_flag(self, crossing_file):
        assert run(["oracle", crossing_file]) == 2

    def test_unknown_agent_is_input_error(self, symmetric_file):
        assert run(["oracle", symmetric_file, "--agent", 99]) == EXIT_INPUT

    def test_too_few_steps_is_input_error_before_planning(self, symmetric_file,
                                                          monkeypatch, capsys):
        def unplanned(agent, scenario):
            raise AssertionError("planned before the step count was checked")

        monkeypatch.setattr(cli_mod, "plan_agent", unplanned)
        assert run(["oracle", symmetric_file, "--oracle-steps", 1]) == EXIT_INPUT
        assert "need at least 2 steps" in capsys.readouterr().err

    def test_oracle_csv_export(self, symmetric_file, tmp_path, capsys):
        out = tmp_path / "oracle_out"
        assert run(["oracle", symmetric_file, "--oracle-steps", 400,
                    "--out", out]) == 0
        with open(out / "oracle_0.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER + ["source"]
        assert rows[1][-1] == "oracle"
        assert len(rows) == 1 + 401

    def test_oracle_csv_in_current_directory(self, symmetric_file, tmp_path,
                                             monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(["oracle", symmetric_file, "--oracle-steps", 200,
                    "--out", "."]) == 0
        assert sorted(p.name for p in work.iterdir()) == ["oracle_0.csv"]

    def test_oracle_without_out_writes_nothing(self, symmetric_file, tmp_path,
                                               monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(["oracle", symmetric_file, "--oracle-steps", 200]) == 0
        assert list(work.iterdir()) == []

    def test_penetration_warning_maps_to_exit_4(self, symmetric_file,
                                                monkeypatch, capsys):
        from junctionplan import discrete_min_energy_constrained

        def warned(agent, scenario, config):
            plan = discrete_min_energy_constrained(agent, scenario, config)
            object.__setattr__(plan, "max_penetration", 5e-4)
            object.__setattr__(plan, "penetration_warning", True)
            return plan

        monkeypatch.setattr(cli_mod, "discrete_min_energy_constrained", warned)
        assert run(["oracle", symmetric_file, "--oracle-steps", 200]) == 4
        doc = json.loads(capsys.readouterr().out)
        assert doc["warning"] is True

    def test_check_parses_oracle_csv_variant(self, tmp_path, capsys):
        from junctionplan import Obstacle

        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(1, 0),
                          t0=0.0, tf_nominal=1.0)
        scen = Scenario(agents=(agent,),
                        obstacles=(Obstacle(id=0, center=(0.5, 50.0),
                                            radius=0.75),))
        path = write_scenario(tmp_path, scen)
        out = tmp_path / "oracle_out"
        assert run(["oracle", path, "--oracle-steps", 200, "--out", out]) == 0
        capsys.readouterr()
        assert run(["check", path, out / "oracle_0.csv"]) == 0


class TestBench:
    def test_sample_counts_and_magnitudes(self, symmetric_file, capsys):
        assert run(["bench", symmetric_file, "--repeat", 10]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["repeat"] == 10
        assert doc["failures"] == 0
        for phase in ("unconstrained_ms", "junction_ms", "negotiation_ms"):
            assert len(doc["phases"][phase]["samples"]) == 10
        # generous bounds to tolerate hardware variance
        assert doc["phases"]["unconstrained_ms"]["median"] < 50.0
        assert doc["phases"]["junction_ms"]["median"] < 1000.0

    def test_bad_repeat(self, symmetric_file):
        assert run(["bench", symmetric_file, "--repeat", 0]) == 2

    def test_failing_agent_is_timed_and_counted(self, tmp_path, monkeypatch, capsys):
        # reference world 2 has one agent, whose junction solve does not
        # converge; a second agent far away plans cleanly
        agent, world = reference_world(2)
        other = AgentSpec(id=1, radius=0.5, start=rest(20.0, 20.0),
                          goal=rest(30.0, 20.0), t0=0.0, tf_nominal=10.0)
        screened = []
        monkeypatch.setattr(cli_mod, "_conflicts_between",
                            lambda *a: screened.append(a))
        for agents in ((agent,), (agent, other)):
            path = write_scenario(tmp_path, Scenario(agents, world.obstacles))
            assert run(["bench", path, "--repeat", 2]) == 3
            captured = capsys.readouterr()
            doc = json.loads(captured.out)
            assert doc["failures"] == 1
            for phase in ("unconstrained_ms", "junction_ms", "negotiation_ms"):
                assert len(doc["phases"][phase]["samples"]) == 2
            assert "planning failed for agent(s) 0" in captured.err
        # as in plan, no conflict screen or negotiation follows a failure
        assert screened == []


class TestParser:
    def test_each_subcommand_has_only_the_flags_it_reads(self):
        sub = next(a for a in cli_mod.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        grid = {"--step", "--max-dev"}
        assert flags == {
            "gen-world": {"--obstacles", "--bounds", "--agent", "--radius-range",
                          "--seed", "--out"},
            "plan": grid | {"--samples", "--out"},
            "check": set(),
            "oracle": {"--agent", "--oracle-steps", "--out"},
            "bench": grid | {"--repeat"},
        }


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                        env.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-m", "junctionplan", "gen-world",
             "--seed", "1", "--obstacles", "2", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "scenario.json").exists()

    def test_missing_scenario_file(self, tmp_path):
        assert run(["plan", tmp_path / "absent.json", "--out", tmp_path]) == 2

    def test_directory_as_scenario_is_input_error(self, tmp_path, capsys):
        # gen-world's --out directory given where its scenario.json belongs
        world = tmp_path / "world"
        assert run(["gen-world", "--seed", 1, "--obstacles", 2, "--out", world]) == 0
        capsys.readouterr()
        assert run(["plan", world, "--out", tmp_path / "run"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: ")


def invalid_scenario_docs():
    """Scenario files that parse but fail Scenario's own checks: a
    duplicate agent id, and a start inside an inflated obstacle."""
    agent = {"id": 0, "radius": 0.5, "start": {"p": [-5.0, 0.0], "v": [0.0, 0.0]},
             "goal": {"p": [5.0, 0.0], "v": [0.0, 0.0]}, "t0": 0.0, "tf": 10.0}
    duplicate = {"agents": [agent, agent], "obstacles": []}
    inside = {"agents": [agent],
              "obstacles": [{"id": 0, "center": [-5.0, 0.5], "radius": 1.0}]}
    return {"duplicate agent ids": (duplicate, "agent ids must be unique"),
            "start inside obstacle": (inside, "start inside inflated obstacle 0")}


class TestInvalidScenarioFile:
    @pytest.mark.parametrize("kind", sorted(invalid_scenario_docs()))
    @pytest.mark.parametrize("command", ["plan", "check", "oracle", "bench"])
    def test_is_an_input_error(self, tmp_path, capsys, command, kind):
        doc, message = invalid_scenario_docs()[kind]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        csv_path = tmp_path / "trajectories.csv"
        _write_trajectory_csv(csv_path, [])
        args = {"plan": [path, "--out", tmp_path / "run"],
                "check": [path, csv_path],
                "oracle": [path],
                "bench": [path, "--repeat", 1]}[command]
        assert run([command, *args]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: scenario: ")
        assert message in err
        assert not (tmp_path / "run").exists()
