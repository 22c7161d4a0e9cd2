"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL
line (bypassing pytest capture so the lines always appear). The
randomized batch is planned once and shared across the criteria that
audit it.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from junctionplan import (
    AgentSpec,
    KinematicState,
    Message,
    NegotiationConfig,
    Obstacle,
    PiecewiseTrajectory,
    Scenario,
    compare,
    constraint_value,
    contact_point,
    decode_message,
    discrete_min_energy,
    discrete_min_energy_constrained,
    encode_message,
    eval_trajectory,
    first_violation,
    inflated_radius,
    message_int_count,
    message_real_count,
    message_to_json,
    negotiate_arrival_times,
    payoff,
    plan_agent,
    PlanningFailure,
    save_scenario,
    solve_boundary,
    trajectory_energy,
)
from junctionplan.cli import main
from junctionplan.game import _conflicts_between, _penetration

from conftest import (REFERENCE_SEEDS, piecewise, reference_world,
                      single_obstacle_instances)


@pytest.fixture
def announce(capfd):
    """Print through pytest's capture so the line always reaches the
    terminal, whatever capture mode the run uses."""

    def _announce(line: str) -> None:
        with capfd.disabled():
            print(line, flush=True)

    return _announce


@contextmanager
def criterion(label: str, announce):
    try:
        yield
    except BaseException:
        announce(f"ACCEPTANCE {label}: FAIL")
        raise
    announce(f"ACCEPTANCE {label}: PASS")


def rest(x, y):
    return KinematicState.at_rest(x, y)


def symmetric_scenario():
    agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(10, 0),
                      t0=0.0, tf_nominal=10.0)
    obstacle = Obstacle(id=0, center=(5.0, 0.0), radius=0.75)
    return Scenario(agents=(agent,), obstacles=(obstacle,))


@dataclass
class BatchInstance:
    seed: int
    scenario: Scenario
    agent: AgentSpec
    trajectory: PiecewiseTrajectory
    report: object
    unconstrained_energy: float


@pytest.fixture(scope="module")
def batch():
    """Seeds 1-50, 1-6 obstacles each; keeps the converged plans."""
    instances = []
    failures = 0
    for seed in REFERENCE_SEEDS:
        agent, scenario = reference_world(seed)
        try:
            traj, report = plan_agent(agent, scenario)
        except PlanningFailure:
            failures += 1
            continue
        if not report.converged:
            failures += 1
            continue
        straight = solve_boundary(agent.start, agent.goal, agent.t0,
                                  agent.tf_nominal)
        instances.append(
            BatchInstance(seed=seed, scenario=scenario, agent=agent,
                          trajectory=traj, report=report,
                          unconstrained_energy=trajectory_energy(straight))
        )
    # the suite needs a meaningful sample of converged plans
    assert len(instances) >= 40, f"only {len(instances)} converged plans"
    return instances


def test_criterion_1_unconstrained_exactness(announce):
    with criterion("1 unconstrained exactness", announce):
        traj = solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0)
        seg = traj.segments[0]
        assert seg.c1[0] == pytest.approx(-2.0, rel=1e-9)
        assert abs(seg.c1[1]) < 1e-12
        assert seg.c2[0] == pytest.approx(3.0, rel=1e-9)
        assert abs(seg.c2[1]) < 1e-12
        assert trajectory_energy(traj) == pytest.approx(12.0, rel=1e-9)
        p0, v0, _ = eval_trajectory(traj, 0.0)
        pf, vf, _ = eval_trajectory(traj, 1.0)
        assert np.abs(p0 - [0, 0]).max() < 1e-9
        assert np.abs(v0).max() < 1e-9
        assert np.abs(pf - [1, 0]).max() < 1e-9
        assert np.abs(vf).max() < 1e-9
        best = min(
            _timed(lambda: solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0))
            for _ in range(5)
        )
        assert best < 50.0, f"solve took {best:.2f} ms"


def _timed(fn) -> float:
    started = time.perf_counter()
    fn()
    return (time.perf_counter() - started) * 1000.0


def test_criterion_2_junction_convergence(tmp_path, announce):
    with criterion("2 junction convergence", announce):
        scenario = symmetric_scenario()
        agent = scenario.agents[0]
        traj, report = plan_agent(agent, scenario)
        assert report.converged
        assert report.residual_norm <= 1e-7
        junction = report.junction_sequence[0]
        assert junction.time == pytest.approx(5.0, abs=1e-3)
        obstacle = scenario.obstacles[0]
        combined = inflated_radius(obstacle, agent)
        point = contact_point(obstacle, combined, junction.theta)
        assert abs(constraint_value(point, obstacle.center, combined)) <= 1e-6
        # report the actual median through the bench command
        scenario_path = tmp_path / "symmetric.json"
        save_scenario(scenario, scenario_path)
        import io
        from contextlib import redirect_stdout

        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = main(["bench", str(scenario_path), "--repeat", "5"])
        assert code == 0
        doc = json.loads(buffer.getvalue())
        median_ms = doc["phases"]["junction_ms"]["median"]
        announce(f"  (junction solve median {median_ms:.1f} ms)")
        assert median_ms < 1000.0


def test_criterion_3_continuity_suite(batch, announce):
    with criterion("3 continuity suite", announce):
        assert batch
        for inst in batch:
            starts = [s.t_start for s in inst.trajectory.segments]
            for junction in inst.report.junction_sequence:
                idx = starts.index(junction.time)
                pa, va, ua = eval_trajectory(
                    piecewise(inst.trajectory.segments[idx - 1]), junction.time)
                pb, vb, ub = eval_trajectory(
                    piecewise(inst.trajectory.segments[idx]), junction.time)
                assert np.abs(pa - pb).max() <= 1e-9
                assert np.abs(va - vb).max() <= 1e-9
                assert np.abs(ua - ub).max() <= 1e-9
            record = first_violation(inst.trajectory, inst.scenario,
                                     inst.agent.id)
            assert record is None, f"seed {inst.seed} violates at {record}"


def test_criterion_4_oracle_gap(announce):
    with criterion("4 oracle gap", announce):
        # anchor: the symmetric scenario
        scenario = symmetric_scenario()
        agent = scenario.agents[0]
        traj, report = plan_agent(agent, scenario)
        plan = discrete_min_energy_constrained(agent, scenario)
        assert compare(traj, plan) <= 0.02
        # ten randomized feasible single-obstacle worlds
        for scen, agent_i, traj_i, _ in single_obstacle_instances(10):
            plan_i = discrete_min_energy_constrained(agent_i, scen)
            gap = compare(traj_i, plan_i)
            assert gap <= 0.02, f"gap {gap:.4f}"
        # unconstrained oracle against the closed-form family
        for d, horizon in [((1.0, 0.0), 1.0), ((4.0, 3.0), 5.0),
                           ((-6.0, 2.0), 8.0)]:
            plan_u = discrete_min_energy(rest(0, 0), rest(*d), 0.0, horizon,
                                         2000)
            expected = 12.0 * (d[0] ** 2 + d[1] ** 2) / horizon**3
            assert plan_u.cost == pytest.approx(expected, rel=0.01)


def test_criterion_5_energy_monotonicity(batch, announce):
    with criterion("5 energy monotonicity", announce):
        for inst in batch:
            assert inst.report.energy >= inst.unconstrained_energy - 1e-9, (
                f"seed {inst.seed}: constrained {inst.report.energy} below "
                f"unconstrained {inst.unconstrained_energy}"
            )


def test_criterion_6_message_round_trip(batch, announce):
    with criterion("6 message round trip", announce):
        for inst in batch:
            msg = encode_message(inst.agent, inst.report)
            rebuilt = decode_message(msg, inst.scenario)
            assert len(rebuilt.segments) == len(inst.trajectory.segments)
            for a, b in zip(inst.trajectory.segments, rebuilt.segments):
                for name in ("c1", "c2", "c3", "c4"):
                    assert np.abs(getattr(a, name) - getattr(b, name)).max() \
                        <= 1e-9
            # the real/integer tally must match the wire encoding exactly
            doc = json.loads(json.dumps(message_to_json(msg)))
            reals, ints = _tally(doc)
            assert reals == message_real_count(msg) \
                == 10 + 2 * len(msg.junctions)
            assert ints == message_int_count(msg) == 1 + len(msg.junctions)


def _tally(node):
    if isinstance(node, bool):
        return 0, 0
    if isinstance(node, int):
        return 0, 1
    if isinstance(node, float):
        return 1, 0
    children = node.values() if isinstance(node, dict) else (
        node if isinstance(node, list) else ()
    )
    reals = ints = 0
    for child in children:
        r, i = _tally(child)
        reals += r
        ints += i
    return reals, ints


def crossing_scenario():
    a1 = AgentSpec(id=1, radius=0.75, start=rest(-5, 0), goal=rest(5, 0),
                   t0=0.0, tf_nominal=10.0)
    a2 = AgentSpec(id=2, radius=0.75, start=rest(0, -5), goal=rest(0, 5),
                   t0=0.0, tf_nominal=10.0)
    return Scenario(agents=(a1, a2), obstacles=())


def test_criterion_7_negotiation(announce):
    with criterion("7 negotiation", announce):
        scenario = crossing_scenario()
        config = NegotiationConfig(step=2.0, max_deviation=4.0)
        arrival = negotiate_arrival_times(scenario, config).arrival_times

        # exhaustive grid oracle over every joint assignment
        agents = sorted(scenario.agents, key=lambda a: a.id)
        m = int(round(config.max_deviation / config.step))
        plans = {}
        for agent in agents:
            for tick in range(-m, m + 1):
                shifted = AgentSpec(
                    id=agent.id, radius=agent.radius, start=agent.start,
                    goal=agent.goal, t0=agent.t0,
                    tf_nominal=agent.tf_nominal + tick * config.step,
                )
                traj, report = plan_agent(shifted, scenario)
                assert report.converged
                plans[(agent.id, tick)] = traj
        feasible = []
        for ticks in product(range(-m, m + 1), repeat=len(agents)):
            entries = [(a.id, a.radius, plans[(a.id, t)])
                       for a, t in zip(agents, ticks)]
            if not _conflicts_between(entries):
                feasible.append(ticks)
        assert feasible
        best_total = min(sum(abs(t) for t in ticks) for ticks in feasible)
        returned = tuple(
            int(round((arrival[a.id] - a.tf_nominal) / config.step))
            for a in agents
        )
        assert returned in feasible
        assert sum(abs(t) for t in returned) == best_total

        # the split pattern with the earlier arrival on the lower id
        assert returned[0] == -returned[1]
        assert arrival[1] < arrival[2]
        assert arrival == {1: 8.0, 2: 12.0}

        # post-negotiation separation, decided exactly
        assert _penetration(plans[(1, returned[0])], agents[0].radius,
                            plans[(2, returned[1])], agents[1].radius) is None


def test_criterion_8_payoff_consistency(batch, announce):
    with criterion("8 payoff consistency", announce):
        for inst in batch:
            msg = encode_message(inst.agent, inst.report)
            value = payoff(msg, [msg], inst.scenario)
            feasible = first_violation(
                decode_message(msg, inst.scenario), inst.scenario, inst.agent.id
            ) is None
            assert feasible
            assert not value.is_infeasible
            assert value.value == trajectory_energy(
                decode_message(msg, inst.scenario)
            )
        # an infeasible profile must price at infinity: the straight-line
        # message through the symmetric scenario's obstacle
        scenario = symmetric_scenario()
        agent = scenario.agents[0]
        blocked = Message(agent_id=agent.id, t0=agent.t0,
                          tf=agent.tf_nominal, start=agent.start,
                          goal=agent.goal, junctions=())
        blocked_payoff = payoff(blocked, [blocked], scenario)
        assert blocked_payoff.is_infeasible
        assert first_violation(decode_message(blocked, scenario), scenario,
                               agent.id) is not None
