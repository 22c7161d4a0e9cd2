"""Inputs, operations, output checks and answers of the benchmark workloads.

Each workload turns ``--seed`` into a list of inputs, runs one operation
per input, checks every outcome without trusting the planner's own
checks, and describes each outcome as an answer record that two commits
can diff.

Why each seed does what it does: the failing plans of ``batch50`` run
damped least squares to its 200-iteration budget, and how long that
takes is chaotic in the input. Rotating the reference worlds rigidly,
which leaves the problem mathematically unchanged, kept the same four
failures but moved world 22's failure from 1.5 s to 22.7 s (Python
3.11, NumPy 2.4, one thread of a 2-vCPU x86 host). Seed-dependent
geometry would therefore swamp ``wall_s``, so ``batch50`` always plans
the 50 reference worlds and the seed only shuffles their order. The
other two workloads have no such failures (the swap's search is
exhaustive and so always takes the same work), so their seed changes the
geometry. Seed 0 gives the reference inputs everywhere.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from junctionplan import cli, oracle, solver, world
from junctionplan.errors import PlanningFailure
from junctionplan.trajectory import KinematicState
from junctionplan.world import AgentSpec, Bounds, Obstacle, Scenario

import checks


@dataclass
class Input:
    label: str
    agent: AgentSpec | None = None
    scenario: Scenario | None = None
    path: Path | None = None
    expected_exit: int = 0


@dataclass
class Outcome:
    """What one operation produced; ``ok`` means it ended with a plan."""

    ok: bool
    trajectory: object = None
    report: object = None
    # why no plan: planning_failure, not_converged or the CLI's exit code
    failure: str | None = None
    extra: dict = field(default_factory=dict)


def _rest(x: float, y: float) -> KinematicState:
    return KinematicState.at_rest(x, y)


def _plan(agent, scenario) -> Outcome:
    try:
        traj, report = solver.plan_agent(agent, scenario)
    except PlanningFailure as exc:
        return Outcome(False, exc.trajectory, exc.report, failure="planning_failure")
    return Outcome(report.converged, traj, report,
                   failure=None if report.converged else "not_converged")


def _plan_answer(outcome: Outcome) -> dict:
    report = outcome.report
    answer = {"outcome": outcome.failure or "converged"}
    if outcome.ok:
        answer.update(
            junctions=len(report.junction_sequence),
            junction_times=[j.time for j in report.junction_sequence],
            energy=report.energy,
        )
    return answer


class Batch50:
    """One diagonal agent through the 50 reference sphere worlds."""

    REFERENCE_WORLDS = range(1, 51)
    SMOKE_WORLDS = (1, 3, 22)

    def inputs(self, seed: int, workdir: Path, small: bool = False) -> list[Input]:
        worlds = list(self.SMOKE_WORLDS if small else self.REFERENCE_WORLDS)
        if seed != 0:
            random.Random(seed).shuffle(worlds)
        agent = AgentSpec(id=0, radius=0.5, start=_rest(-10, -10),
                          goal=_rest(10, 10), t0=0.0, tf_nominal=10.0)
        return [
            Input(f"world{w}", agent,
                  world.gen_world(w, 1 + w % 6, Bounds(-8, -8, 8, 8), (agent,)))
            for w in worlds
        ]

    def run(self, inp: Input, traced: bool) -> Outcome:
        return _plan(inp.agent, inp.scenario)

    def check(self, inp: Input, outcome: Outcome) -> list[str]:
        if not outcome.ok:
            return []
        return checks.check_plan(inp.agent, inp.scenario, outcome.trajectory,
                                 outcome.report)

    def answer(self, inp: Input, outcome: Outcome) -> dict:
        return {"input": inp.label, **_plan_answer(outcome),
                "arrival_time": inp.agent.tf_nominal}


def _rotate(p, angle: float) -> tuple[float, float]:
    c, s = math.cos(angle), math.sin(angle)
    return (c * p[0] - s * p[1], s * p[0] + c * p[1])


def _agents(specs, angle: float) -> tuple[AgentSpec, ...]:
    """specs: (id, radius, start xy, goal xy), rotated about the origin."""
    return tuple(
        AgentSpec(id=i, radius=r, start=_rest(*_rotate(a, angle)),
                  goal=_rest(*_rotate(b, angle)), t0=0.0, tf_nominal=10.0)
        for i, r, a, b in specs
    )


class Negotiate:
    """The CLI's plan command on a 3-agent ring, a crossing and a swap."""

    def __init__(self):
        self._runs = 0

    def inputs(self, seed: int, workdir: Path, small: bool = False) -> list[Input]:
        angle = 0.0 if seed == 0 else random.Random(seed).uniform(0.0, 2.0 * math.pi)
        ring = [
            (k, 0.6,
             (6 * math.cos(2 * math.pi * k / 3), 6 * math.sin(2 * math.pi * k / 3)),
             (-6 * math.cos(2 * math.pi * k / 3), -6 * math.sin(2 * math.pi * k / 3)))
            for k in range(3)
        ]
        crossing = [(1, 0.75, (-5, 0), (5, 0)), (2, 0.75, (0, -5), (0, 5))]
        # head-on on one line: every arrival-time shift still collides
        swap = [(0, 0.75, (-5, 0), (5, 0)), (1, 0.75, (5, 0), (-5, 0))]
        cases = [("ring", ring, 0), ("crossing", crossing, 0), ("swap", swap, 3)]
        if small:
            cases = cases[1:]
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for label, specs, expected in cases:
            scenario = Scenario(agents=_agents(specs, angle), obstacles=())
            path = workdir / f"{label}.json"
            world.save_scenario(scenario, path)
            inputs.append(Input(label, scenario=scenario, path=path,
                                expected_exit=expected))
        return inputs

    def run(self, inp: Input, traced: bool) -> Outcome:
        self._runs += 1
        out = inp.path.parent / f"out{self._runs}-{inp.label}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["plan", str(inp.path), "--out", str(out)])
        return Outcome(code == 0, failure=None if code == 0 else f"exit {code}",
                       extra={"exit": code, "out": out})

    def _report(self, outcome: Outcome) -> dict:
        with open(outcome.extra["out"] / "report.json", encoding="utf-8") as fh:
            return json.load(fh)

    def check(self, inp: Input, outcome: Outcome) -> list[str]:
        code = outcome.extra["exit"]
        if code != inp.expected_exit:
            return [f"{inp.label}: exit {code}, expected {inp.expected_exit}"]
        report = self._report(outcome)
        if code != 0:
            if report["negotiation"] is not None or not report["conflicts"]:
                return [f"{inp.label}: a failed run must list its conflicts"]
            return []
        errors = []
        if report["conflicts"]:
            errors.append(f"{inp.label}: report lists conflicts {report['conflicts']}")
        csv_path = outcome.extra["out"] / "trajectories.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            verdict = cli.main(["check", str(inp.path), str(csv_path)])
        if verdict != 0:
            errors.append(f"{inp.label}: check exited {verdict}")
        arrival = {a["id"]: a["tf"] for a in report["agents"]}
        errors += checks.check_trajectory_csv(csv_path, inp.scenario, arrival)
        return errors

    def answer(self, inp: Input, outcome: Outcome) -> dict:
        report = self._report(outcome)
        negotiation = report["negotiation"]
        return {
            "input": inp.label,
            "exit": outcome.extra["exit"],
            "arrival_times": negotiation and negotiation["arrival_times"],
            "agents": [
                {k: a[k] for k in ("id", "converged", "junction_count", "energy", "tf")}
                for a in report["agents"]
            ],
        }


class Oracle:
    """Plan, then solve with the discrete penalty oracle, one world at a time."""

    WORLD_COUNT = 10
    SYMMETRIC_JUNCTION_TIME = 5.0
    GAP_LIMIT = 0.02

    def inputs(self, seed: int, workdir: Path, small: bool = False) -> list[Input]:
        symmetric_agent = AgentSpec(id=0, radius=0.25, start=_rest(0, 0),
                                    goal=_rest(10, 0), t0=0.0, tf_nominal=10.0)
        symmetric = Scenario(
            agents=(symmetric_agent,),
            obstacles=(Obstacle(id=0, center=(5.0, 0.0), radius=0.75),),
        )
        inputs = [Input("symmetric", symmetric_agent, symmetric)]
        if small:
            return inputs
        agent = AgentSpec(id=0, radius=0.5, start=_rest(-8, 0), goal=_rest(8, 0),
                          t0=0.0, tf_nominal=10.0)
        world_seed = seed
        while len(inputs) <= self.WORLD_COUNT:
            world_seed += 1
            scenario = world.gen_world(world_seed, 1, Bounds(-5, -2, 5, 2), (agent,),
                                       radius_range=(0.8, 1.6))
            obstacle = scenario.obstacles[0]
            # Keep worlds whose straight transfer along y = 0 hits the
            # obstacle, so each needs a junction and a full penalty descent.
            if abs(obstacle.center[1]) < obstacle.radius + agent.radius:
                inputs.append(Input(f"world{world_seed}", agent, scenario))
        return inputs

    def run(self, inp: Input, traced: bool) -> Outcome:
        outcome = _plan(inp.agent, inp.scenario)
        trace = [] if traced else None
        outcome.extra["discrete"] = oracle.discrete_min_energy_constrained(
            inp.agent, inp.scenario, objective_trace=trace
        )
        if traced:
            # one initial entry per penalty weight, then one per accepted step
            outcome.extra["accepted"] = len(trace) - len(oracle.OracleConfig().penalty_weights)
        return outcome

    def check(self, inp: Input, outcome: Outcome) -> list[str]:
        discrete = outcome.extra["discrete"]
        errors = []
        if discrete.penetration_warning:
            errors.append(f"{inp.label}: oracle penetration {discrete.max_penetration:.3e}")
        if not outcome.ok:
            return errors
        errors += checks.check_plan(inp.agent, inp.scenario, outcome.trajectory,
                                    outcome.report)
        gap = self._gap(outcome)
        if not gap <= self.GAP_LIMIT:
            errors.append(f"{inp.label}: oracle gap {gap:.4f} above {self.GAP_LIMIT}")
        if inp.label == "symmetric":
            times = [j.time for j in outcome.report.junction_sequence]
            if len(times) != 1 or abs(times[0] - self.SYMMETRIC_JUNCTION_TIME) > 1e-3:
                errors.append(f"symmetric junction times {times}, expected [5 +/- 1e-3]")
        return errors

    @staticmethod
    def _gap(outcome: Outcome) -> float:
        cost = outcome.extra["discrete"].cost
        return (checks.plan_energy(outcome.trajectory) - cost) / max(cost, 1e-12)

    def answer(self, inp: Input, outcome: Outcome) -> dict:
        answer = {"input": inp.label, **_plan_answer(outcome),
                  "oracle_cost": outcome.extra["discrete"].cost}
        if outcome.ok:
            answer["gap"] = self._gap(outcome)
        return answer


WORKLOADS = {"batch50": Batch50, "negotiate": Negotiate, "oracle": Oracle}
