import gc
import json
import math
import random
from bisect import bisect_right
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from junctionplan import (
    AgentSpec,
    Bounds,
    ConditioningError,
    DecodeError,
    EncodingError,
    Junction,
    KinematicState,
    Message,
    NegotiationConfig,
    NegotiationError,
    Obstacle,
    Payoff,
    PlannerError,
    Scenario,
    SchemaError,
    SolveReport,
    UnsupportedScenarioError,
    ValidationError,
    decode_message,
    detect_conflicts,
    encode_message,
    eval_trajectory,
    gen_world,
    message_from_json,
    message_int_count,
    message_real_count,
    message_to_json,
    negotiate_arrival_times,
    payoff,
    plan_agent,
    solve_boundary,
    trajectory_energy,
)
from junctionplan import game
from junctionplan.game import (
    _certified_verdict,
    _conflicts_between,
    _least_assignment,
    _motion_bounds,
    _penetration,
    _profile,
)
from junctionplan.world import violated_windows

from conftest import min_separation, piecewise


def rest(x, y):
    return KinematicState.at_rest(x, y)


def plan_and_encode(agent, scenario):
    traj, report = plan_agent(agent, scenario)
    return traj, report, encode_message(agent, report)


@pytest.fixture
def symmetric_plan(symmetric_scenario):
    agent = symmetric_scenario.agents[0]
    traj, report, msg = plan_and_encode(agent, symmetric_scenario)
    return symmetric_scenario, agent, traj, report, msg


class TestEncode:
    def test_refuses_non_converged(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        bad = SolveReport(converged=False, residual_norm=1.0, iterations=3,
                          termination="max_iterations", junction_sequence=(),
                          energy=0.0)
        with pytest.raises(EncodingError):
            encode_message(agent, bad)

    def test_unconstrained_plan_has_no_junctions(self):
        agent = AgentSpec(id=3, radius=0.5, start=rest(0, 0), goal=rest(4, 2),
                          t0=0.0, tf_nominal=6.0)
        scen = Scenario(agents=(agent,), obstacles=())
        _, _, msg = plan_and_encode(agent, scen)
        assert msg.junctions == ()
        assert message_real_count(msg) == 10
        assert message_int_count(msg) == 1

    def test_one_junction_counts(self, symmetric_plan):
        _, _, _, report, msg = symmetric_plan
        assert len(msg.junctions) == 1
        # two reals (angle, time) per junction on top of the ten boundary
        # and horizon reals; one obstacle integer joins the agent id
        assert message_real_count(msg) == 12
        assert message_int_count(msg) == 2

    def test_counts_match_serialized_json(self, symmetric_plan):
        _, _, _, _, msg = symmetric_plan
        doc = json.loads(json.dumps(message_to_json(msg)))

        def tally(node):
            reals = ints = 0
            if isinstance(node, bool):
                return 0, 0
            if isinstance(node, int):
                return 0, 1
            if isinstance(node, float):
                return 1, 0
            if isinstance(node, dict):
                children = node.values()
            elif isinstance(node, list):
                children = node
            else:
                return 0, 0
            for child in children:
                r, i = tally(child)
                reals += r
                ints += i
            return reals, ints

        reals, ints = tally(doc)
        assert reals == message_real_count(msg)
        assert ints == message_int_count(msg)


class TestDecode:
    def test_round_trip_reproduces_coefficients(self, symmetric_plan):
        scen, _, traj, _, msg = symmetric_plan
        corridor_agent = AgentSpec(id=0, radius=0.2, start=rest(0, 0),
                                   goal=rest(20, 0), t0=0.0, tf_nominal=20.0)
        corridor = Scenario(agents=(corridor_agent,), obstacles=(
            Obstacle(id=0, center=(6.0, 0.0), radius=0.8),
            Obstacle(id=1, center=(14.0, 0.0), radius=0.8),
        ))
        corridor_traj, _, corridor_msg = plan_and_encode(corridor_agent, corridor)
        assert len(corridor_msg.junctions) == 2
        for scenario, planned, message in ((scen, traj, msg),
                                           (corridor, corridor_traj, corridor_msg)):
            rebuilt = decode_message(message, scenario)
            assert len(rebuilt.segments) == len(planned.segments)
            for a, b in zip(planned.segments, rebuilt.segments):
                for name in ("c1", "c2", "c3", "c4"):
                    assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_empty_junctions_equals_boundary_solve(self):
        agent = AgentSpec(id=3, radius=0.5, start=rest(0, 0), goal=rest(4, 2),
                          t0=0.0, tf_nominal=6.0)
        scen = Scenario(agents=(agent,), obstacles=())
        _, _, msg = plan_and_encode(agent, scen)
        rebuilt = decode_message(msg, scen)
        seg = solve_boundary(agent.start, agent.goal, 0.0, 6.0).segments[0]
        only = rebuilt.segments[0]
        assert np.abs(only.c1 - seg.c1).max() < 1e-12
        assert np.abs(only.c4 - seg.c4).max() < 1e-12

    def test_junction_outside_horizon_rejected(self):
        with pytest.raises(ValidationError):
            Message(agent_id=0, t0=0.0, tf=10.0, start=rest(0, 0),
                    goal=rest(1, 0),
                    junctions=(Junction(0, 0.0, 11.0),))

    @pytest.mark.parametrize("t0, tf", [(5.0, 1.0), (5.0, 5.0), (0.0, math.nan),
                                        (0.0, math.inf)])
    def test_empty_reversed_or_non_finite_horizon_rejected(self, t0, tf):
        doc = message_to_json(Message(agent_id=0, t0=0.0, tf=10.0, start=rest(0, 0),
                                      goal=rest(1, 0), junctions=()))
        doc.update(t0=t0, tf=tf)
        with pytest.raises(ValidationError):
            message_from_json(doc)

    def test_unordered_junctions_rejected(self):
        with pytest.raises(ValidationError):
            Message(agent_id=0, t0=0.0, tf=10.0, start=rest(0, 0),
                    goal=rest(1, 0),
                    junctions=(Junction(0, 0.0, 6.0), Junction(0, 0.0, 5.0)))

    def test_unknown_obstacle_rejected(self, symmetric_scenario):
        msg = Message(agent_id=0, t0=0.0, tf=10.0, start=rest(0, 0),
                      goal=rest(10, 0),
                      junctions=(Junction(obstacle_id=42, theta=1.0, time=5.0),))
        with pytest.raises(DecodeError):
            decode_message(msg, symmetric_scenario)

    def test_unknown_agent_rejected(self, symmetric_scenario):
        msg = Message(agent_id=9, t0=0.0, tf=10.0, start=rest(0, 0),
                      goal=rest(10, 0), junctions=())
        with pytest.raises(DecodeError):
            decode_message(msg, symmetric_scenario)

    @pytest.mark.parametrize("times", [(5.0, 5.0001), (1e-5,), (9.99999,)])
    def test_segment_shorter_than_min_segment_rejected(self, symmetric_scenario,
                                                       times):
        # valid as a message, but the solve cannot trust a segment
        # shorter than solver.MIN_SEGMENT
        msg = Message(agent_id=0, t0=0.0, tf=10.0, start=rest(0, 0),
                      goal=rest(10, 0),
                      junctions=tuple(Junction(0, 1.0, t) for t in times))
        with pytest.raises(DecodeError) as info:
            decode_message(msg, symmetric_scenario)
        assert isinstance(info.value.__cause__, ConditioningError)

    def test_json_round_trip(self, symmetric_plan):
        _, _, _, _, msg = symmetric_plan
        doc = json.loads(json.dumps(message_to_json(msg)))
        back = message_from_json(doc)
        assert back.agent_id == msg.agent_id
        assert back.t0 == msg.t0 and back.tf == msg.tf
        assert len(back.junctions) == len(msg.junctions)
        assert back.junctions[0].theta == msg.junctions[0].theta
        assert back.junctions[0].time == msg.junctions[0].time

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["theta", "time"])
    def test_non_finite_junction_is_a_schema_error(self, symmetric_plan, field,
                                                   value):
        # json reads the NaN and Infinity literals as floats
        _, _, _, _, msg = symmetric_plan
        doc = message_to_json(msg)
        doc["junctions"][0][field] = value
        text = json.dumps(doc)
        assert ("NaN" if math.isnan(value) else "Infinity") in text
        with pytest.raises(SchemaError, match=r"message\.junctions\[0\]") as info:
            message_from_json(json.loads(text))
        assert isinstance(info.value.__cause__, ValueError)

    @pytest.mark.parametrize("field", ["start", "goal"])
    def test_non_finite_state_is_a_schema_error(self, symmetric_plan, field):
        _, _, _, _, msg = symmetric_plan
        doc = message_to_json(msg)
        doc[field]["p"][0] = math.nan
        with pytest.raises(SchemaError, match="^message: ") as info:
            message_from_json(json.loads(json.dumps(doc)))
        assert isinstance(info.value.__cause__, ValueError)


class TestPayoff:
    def test_single_agent_finite_equals_energy(self, symmetric_plan):
        scen, _, _, _, msg = symmetric_plan
        value = payoff(msg, [msg], scen)
        assert not value.is_infeasible
        assert value.value == trajectory_energy(decode_message(msg, scen))

    def test_grazing_contact_is_feasible(self, symmetric_plan):
        # the converged plan touches the inflated circle exactly (g = 0)
        scen, _, _, _, msg = symmetric_plan
        assert not payoff(msg, [msg], scen).is_infeasible

    def test_crossing_agents_both_infeasible(self, crossing_scenario):
        msgs = []
        for agent in crossing_scenario.agents:
            _, _, msg = plan_and_encode(agent, crossing_scenario)
            msgs.append(msg)
        assert all(payoff(m, msgs, crossing_scenario).is_infeasible for m in msgs)

    def test_ordering(self):
        assert Payoff(1.0) < Payoff(2.0)
        assert Payoff(2.0) < Payoff.infeasible()
        assert Payoff.infeasible().is_infeasible
        assert Payoff.infeasible().to_json() == "infeasible"
        assert Payoff(1.5).to_json() == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Payoff(-0.5)


class TestDetectConflicts:
    def test_separated_corridors_clear(self):
        a = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(10, 0),
                      t0=0.0, tf_nominal=10.0)
        b = AgentSpec(id=1, radius=0.5, start=rest(0, 50), goal=rest(10, 50),
                      t0=0.0, tf_nominal=10.0)
        scen = Scenario(agents=(a, b), obstacles=())
        msgs = [plan_and_encode(agent, scen)[2] for agent in (a, b)]
        assert detect_conflicts(msgs, scen) == []

    def test_mirrored_crossing_single_conflict(self, crossing_scenario):
        msgs = [plan_and_encode(agent, crossing_scenario)[2]
                for agent in crossing_scenario.agents]
        conflicts = detect_conflicts(msgs, crossing_scenario)
        assert len(conflicts) == 1
        record = conflicts[0]
        assert record.pair == (1, 2)
        assert record.time == pytest.approx(5.0, abs=0.01)
        assert record.penetration == pytest.approx(1.5, abs=1e-6)

    def test_staggered_arrivals_clear(self, crossing_scenario):
        ncfg = NegotiationConfig(step=2.0, max_deviation=4.0)
        arrival = negotiate_arrival_times(crossing_scenario, ncfg).arrival_times
        msgs = []
        for agent in crossing_scenario.agents:
            shifted = AgentSpec(id=agent.id, radius=agent.radius,
                                start=agent.start, goal=agent.goal,
                                t0=agent.t0, tf_nominal=arrival[agent.id])
            _, _, msg = plan_and_encode(shifted, crossing_scenario)
            msgs.append(msg)
        assert detect_conflicts(msgs, crossing_scenario) == []


def brute_force_negotiation(scenario, config):
    """Exhaustive grid oracle: smallest total deviation, then smallest
    worst deviation, then lexicographic, among conflict-free grids."""
    agents = sorted(scenario.agents, key=lambda a: a.id)
    m = int(round(config.max_deviation / config.step))
    plans = {}
    for agent in agents:
        for tick in range(-m, m + 1):
            shifted = AgentSpec(id=agent.id, radius=agent.radius,
                                start=agent.start, goal=agent.goal, t0=agent.t0,
                                tf_nominal=agent.tf_nominal + tick * config.step)
            traj, report = plan_agent(shifted, scenario)
            plans[(agent.id, tick)] = traj if report.converged else None
    feasible = []
    for ticks in product(range(-m, m + 1), repeat=len(agents)):
        entries = []
        for agent, tick in zip(agents, ticks):
            traj = plans[(agent.id, tick)]
            if traj is None:
                break
            entries.append((agent.id, agent.radius, traj))
        else:
            if not _conflicts_between(entries):
                feasible.append(ticks)
    assert feasible, "oracle found no feasible assignment"
    best = min(
        feasible,
        key=lambda t: (sum(abs(x) for x in t), max(abs(x) for x in t), t),
    )
    return {
        agent.id: agent.tf_nominal + tick * config.step
        for agent, tick in zip(agents, best)
    }, feasible


def ring_scenario(turn=0.0, count=3, radius=0.6):
    """By default the ring of test_three_agents_match_grid_oracle: count
    agents on a circle of radius 6 m, each flying to the antipode, all
    converging on the origin simultaneously, rotated by turn radians."""
    angles = [2 * math.pi * k / count + turn for k in range(count)]
    return Scenario(agents=tuple(
        AgentSpec(id=k, radius=radius,
                  start=rest(6 * math.cos(a), 6 * math.sin(a)),
                  goal=rest(-6 * math.cos(a), -6 * math.sin(a)),
                  t0=0.0, tf_nominal=10.0)
        for k, a in enumerate(angles)
    ), obstacles=())


def swap_scenario():
    """Two agents swapping places head-on along one line: every shift of
    their arrival times still collides."""
    return Scenario(agents=(
        AgentSpec(id=0, radius=0.75, start=rest(-5, 0), goal=rest(5, 0),
                  t0=0.0, tf_nominal=10.0),
        AgentSpec(id=1, radius=0.75, start=rest(5, 0), goal=rest(-5, 0),
                  t0=0.0, tf_nominal=10.0),
    ), obstacles=())


def staggered_crossing(crossing_scenario):
    """The crossing with agent 2's whole horizon 3 s late, so the two
    horizons of a pair differ at both ends."""
    a1, a2 = sorted(crossing_scenario.agents, key=lambda a: a.id)
    late = AgentSpec(id=a2.id, radius=a2.radius, start=a2.start, goal=a2.goal,
                     t0=a2.t0 + 3.0, tf_nominal=a2.tf_nominal + 3.0)
    return Scenario(agents=(a1, late), obstacles=())


def negotiation_order(ticks):
    sizes = [abs(x) for x in ticks]
    return (sum(sizes), max(sizes, default=0), ticks)


class TestOrderedAssignments:
    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(0, 4), m=st.integers(0, 3),
           seed=st.integers(0, 2**32), rate=st.floats(0.3, 1.0))
    def test_matches_sorted_product_filtered_by_prefixes(self, count, m,
                                                         seed, rate):
        def accept(prefix):
            return random.Random(f"{seed}:{prefix}").random() < rate

        expected = [
            ticks
            for ticks in sorted(product(range(-m, m + 1), repeat=count),
                                key=negotiation_order)
            if all(accept(ticks[:k]) for k in range(1, count + 1))
        ]
        calls = []

        def recording(prefix):
            calls.append(prefix)
            return accept(prefix)

        assert _least_assignment(count, m, recording) == (
            expected[0] if expected else None)
        # each prefix is asked once, and only after its own prefix passed
        assert len(calls) == len(set(calls))
        assert all(accept(prefix[:-1]) for prefix in calls if len(prefix) > 1)

    def test_lazy_on_a_huge_grid(self):
        # 21**12 (about 7e15) assignments, all accepted: the first leaf,
        # all zeros, is least, and it bounds every other tick
        calls = []

        def accept(prefix):
            calls.append(prefix)
            return True

        assert _least_assignment(12, 10, accept) == (0,) * 12
        assert len(calls) == 12


class TestNegotiation:
    def test_no_conflict_keeps_nominal(self):
        a = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(10, 0),
                      t0=0.0, tf_nominal=10.0)
        b = AgentSpec(id=1, radius=0.5, start=rest(0, 50), goal=rest(10, 50),
                      t0=0.0, tf_nominal=10.0)
        scen = Scenario(agents=(a, b), obstacles=())
        arrival = negotiate_arrival_times(scen).arrival_times
        assert arrival == {0: 10.0, 1: 10.0}

    def test_symmetric_crossing_matches_grid_oracle(self, crossing_scenario):
        config = NegotiationConfig(step=2.0, max_deviation=4.0)
        arrival = negotiate_arrival_times(crossing_scenario, config).arrival_times
        expected, feasible = brute_force_negotiation(crossing_scenario, config)
        assert arrival == expected
        # lower id takes the earlier arrival of the split
        assert arrival[1] == 8.0
        assert arrival[2] == 12.0
        returned_ticks = tuple(
            int(round((arrival[a.id] - a.tf_nominal) / config.step))
            for a in sorted(crossing_scenario.agents, key=lambda x: x.id)
        )
        best_total = min(sum(abs(x) for x in t) for t in feasible)
        assert sum(abs(x) for x in returned_ticks) == best_total

    def test_three_agents_match_grid_oracle(self):
        # three agents converging on the origin simultaneously
        agents = []
        for k in range(3):
            angle = 2 * math.pi * k / 3
            start = (6 * math.cos(angle), 6 * math.sin(angle))
            goal = (-6 * math.cos(angle), -6 * math.sin(angle))
            agents.append(
                AgentSpec(id=k, radius=0.6, start=rest(*start), goal=rest(*goal),
                          t0=0.0, tf_nominal=10.0)
            )
        scen = Scenario(agents=tuple(agents), obstacles=())
        config = NegotiationConfig(step=2.0, max_deviation=4.0)
        arrival = negotiate_arrival_times(scen, config).arrival_times
        expected, _ = brute_force_negotiation(scen, config)
        assert arrival == expected

    def test_pair_verdicts_are_cached(self, monkeypatch):
        # the ring of test_three_agents_match_grid_oracle
        angles = [2 * math.pi * k / 3 for k in range(3)]
        agents = tuple(
            AgentSpec(id=k, radius=0.6, start=rest(6 * math.cos(a), 6 * math.sin(a)),
                      goal=rest(-6 * math.cos(a), -6 * math.sin(a)),
                      t0=0.0, tf_nominal=10.0)
            for k, a in enumerate(angles)
        )
        scen = Scenario(agents=agents, obstacles=())
        config = NegotiationConfig(step=2.0, max_deviation=4.0)
        # the oracle checks pairs too, so it runs before the counter is in
        expected, _ = brute_force_negotiation(scen, config)

        # an agent is known by its goal, a tick by the arrival time
        def identify(traj):
            goal = game.sample_positions_held(traj, np.array([traj.t_end]))[0]
            return tuple(np.round(goal, 6)), traj.t_end

        checked = []
        original = game._penetration

        def counting(traj_a, r_a, traj_b, r_b):
            checked.append((identify(traj_a), identify(traj_b)))
            return original(traj_a, r_a, traj_b, r_b)

        monkeypatch.setattr(game, "_penetration", counting)
        # the certificate settles every ring pair; without it, each pair
        # the search needs goes to the exact check
        monkeypatch.setattr(game, "_certified_verdict", lambda *args: None)
        arrival = negotiate_arrival_times(scen, config).arrival_times
        assert arrival == expected
        assert len(checked) == len(set(checked))
        assert 0 < len(checked) <= 3 * 25

    def test_six_agents_negotiate_only_the_crossing_pair(
        self, crossing_scenario
    ):
        # ids 0 and 3-5 travel far from the crossing and from each other
        far = tuple(
            AgentSpec(id=agent_id, radius=0.75, start=rest(-5, y),
                      goal=rest(5, y), t0=0.0, tf_nominal=10.0)
            for agent_id, y in ((0, 40), (3, 80), (4, -40), (5, -80))
        )
        scen = Scenario(agents=crossing_scenario.agents + far, obstacles=())
        config = NegotiationConfig(step=1.0, max_deviation=3.0)
        pair = negotiate_arrival_times(crossing_scenario, config).arrival_times
        arrival = negotiate_arrival_times(scen, config).arrival_times
        assert arrival == {**pair, **{a.id: a.tf_nominal for a in far}}
        assert pair != {1: 10.0, 2: 10.0}

    @pytest.mark.parametrize("ring", [False, True], ids=["crossing", "ring"])
    def test_returned_plans_equal_fresh_plans(self, crossing_scenario, ring):
        scen = ring_scenario() if ring else crossing_scenario
        config = NegotiationConfig(step=2.0, max_deviation=4.0)
        result = negotiate_arrival_times(scen, config)
        assert sorted(result.plans) == sorted(a.id for a in scen.agents)
        for agent in scen.agents:
            plan = result.plans[agent.id]
            tf = result.arrival_times[agent.id]
            shifted = AgentSpec(id=agent.id, radius=agent.radius,
                                start=agent.start, goal=agent.goal,
                                t0=agent.t0, tf_nominal=tf)
            traj, report = plan_agent(shifted, scen)
            assert plan.spec.tf_nominal == tf
            assert plan.wall_clock_ms > 0
            assert plan.report.converged
            assert plan.report.to_json() == report.to_json()
            assert len(plan.trajectory.segments) == len(traj.segments)
            for got, want in zip(plan.trajectory.segments, traj.segments):
                for name in ("c1", "c2", "c3", "c4"):
                    assert np.array_equal(getattr(got, name), getattr(want, name))
                assert (got.t_start, got.t_end) == (want.t_start, want.t_end)

    def test_search_leaves_no_reference_cycles(self, crossing_scenario):
        # a cycle would keep every plan and screen profile of the search
        # alive until the cyclic garbage collector runs
        config = NegotiationConfig(step=2.0, max_deviation=4.0)
        gc.collect()
        gc.disable()
        try:
            negotiate_arrival_times(crossing_scenario, config)
            with pytest.raises(NegotiationError):
                negotiate_arrival_times(swap_scenario(), config)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("count,expected", [
        (6, None),
        (7, {0: 5.0, 1: 6.0, 2: 7.0, 3: 8.5, 4: 10.5, 5: 12.0, 6: 14.5}),
    ], ids=["fails", "succeeds"])
    def test_ring_is_decided_within_an_accept_budget(self, monkeypatch,
                                                     count, expected):
        # the CLI's default grid. Walking each (total, max) level from the
        # start took 2,530,977 accept calls to fail the ring of 6 and
        # 7,514,825 to solve the ring of 7; the budget is a tenth of that
        calls = [0]
        original = game._least_assignment

        def counting(size, m, accept):
            def counted(prefix):
                calls[0] += 1
                return accept(prefix)
            return original(size, m, counted)

        monkeypatch.setattr(game, "_least_assignment", counting)
        scenario = ring_scenario(count=count, radius=0.5)
        if expected is None:
            with pytest.raises(NegotiationError):
                negotiate_arrival_times(scenario, NegotiationConfig())
        else:
            assert negotiate_arrival_times(
                scenario, NegotiationConfig()).arrival_times == expected
        assert 0 < calls[0] <= {6: 2_530_977, 7: 7_514_825}[count] // 10

    def test_no_agents_negotiate_to_an_empty_result(self):
        result = negotiate_arrival_times(Scenario(agents=(), obstacles=()))
        assert result == ({}, {})

    def test_nonzero_goal_velocity_rejected(self):
        a = AgentSpec(id=0, radius=0.5, start=rest(0, 0),
                      goal=KinematicState(p=(10, 0), v=(1.0, 0)),
                      t0=0.0, tf_nominal=10.0)
        scen = Scenario(agents=(a,), obstacles=())
        with pytest.raises(UnsupportedScenarioError):
            negotiate_arrival_times(scen)

    def test_post_negotiation_separation(self, crossing_scenario):
        config = NegotiationConfig(step=2.0, max_deviation=4.0)
        arrival = negotiate_arrival_times(crossing_scenario, config).arrival_times
        trajs = []
        for agent in sorted(crossing_scenario.agents, key=lambda a: a.id):
            shifted = AgentSpec(id=agent.id, radius=agent.radius,
                                start=agent.start, goal=agent.goal,
                                t0=agent.t0, tf_nominal=arrival[agent.id])
            traj, _ = plan_agent(shifted, crossing_scenario)
            trajs.append((agent.radius, traj))
        assert _penetration(trajs[0][1], trajs[0][0],
                            trajs[1][1], trajs[1][0]) is None


def tick_pair_plans(scenario, config):
    """(agent_a, plan_a, agent_b, plan_b) for every pair of two agents'
    converged plans on the negotiation grid."""
    agents = sorted(scenario.agents, key=lambda a: a.id)
    m = int(round(config.max_deviation / config.step))
    plans = {}
    for agent in agents:
        for tick in range(-m, m + 1):
            shifted = AgentSpec(id=agent.id, radius=agent.radius,
                                start=agent.start, goal=agent.goal, t0=agent.t0,
                                tf_nominal=agent.tf_nominal + tick * config.step)
            try:
                traj, report = plan_agent(shifted, scenario)
            except PlannerError:
                continue
            if report.converged:
                plans.setdefault(agent.id, []).append(traj)
    for i, a in enumerate(agents):
        for b in agents[i + 1:]:
            for traj_a, traj_b in product(plans.get(a.id, []),
                                          plans.get(b.id, [])):
                yield a, traj_a, b, traj_b


def reference_local_motion(traj, t):
    """(p, v, a2, a3) of traj's cubic at time t re-based to start at t;
    outside its horizon, the endpoint held at rest. Evaluated through
    eval_trajectory, as the pair check did before it formed the
    difference as an array."""
    p, v, u = eval_trajectory(traj, min(max(t, traj.t_start), traj.t_end))
    if not traj.t_start <= t < traj.t_end:
        return p, np.zeros(2), np.zeros(2), np.zeros(2)
    starts = [seg.t_start for seg in traj.segments]
    seg = traj.segments[min(bisect_right(starts, t) - 1, len(starts) - 1)]
    return p, v, 0.5 * u, seg.a3


def reference_penetration(traj_a, r_a, traj_b, r_b):
    """game._penetration with the difference a - b built piece by piece
    and checked by violated_windows."""
    knots = sorted({t for traj in (traj_a, traj_b) for seg in traj.segments
                    for t in (seg.t_start, seg.t_end)})
    diff = piecewise(*(
        (*(x - y for x, y in zip(reference_local_motion(traj_a, t),
                                 reference_local_motion(traj_b, t))),
         t, t_next)
        for t, t_next in zip(knots, knots[1:])
    ))
    r = r_a + r_b
    windows = violated_windows(diff, (0.0, 0.0), r,
                               r * r - (r - game.SEPARATION_TOL) ** 2)
    if not windows:
        return None
    time = 0.5 * (windows[0][0] + windows[0][1])
    return time, r - float(np.linalg.norm(eval_trajectory(diff, time)[0]))


def screened_pairs(scenario, config):
    """(certificate verdict, exact verdict, segment counts) for every
    pair of two agents' converged plans on the negotiation grid."""
    agents = sorted(scenario.agents, key=lambda a: a.id)
    m = int(round(config.max_deviation / config.step))
    grid = np.linspace(min(a.t0 for a in agents),
                       max(a.tf_nominal + m * config.step for a in agents),
                       game.SCREEN_SAMPLES)
    for a, traj_a, b, traj_b in tick_pair_plans(scenario, config):
        yield (
            _certified_verdict(grid, _profile(traj_a, grid), a.radius,
                               _profile(traj_b, grid), b.radius),
            _penetration(traj_a, a.radius, traj_b, b.radius) is None,
            (len(traj_a.segments), len(traj_b.segments)),
        )


def random_obstacle_world(seed):
    """Two agents crossing a box with obstacles placed in it."""
    rng = random.Random(seed)
    agents = tuple(
        AgentSpec(id=k, radius=rng.uniform(0.2, 0.8),
                  start=rest(rng.uniform(-8, 8), rng.uniform(-8, 8)),
                  goal=rest(rng.uniform(-8, 8), rng.uniform(-8, 8)),
                  t0=0.0, tf_nominal=rng.uniform(5.0, 12.0))
        for k in range(2)
    )
    return gen_world(seed, rng.randint(0, 3), Bounds(-6, -6, 6, 6), agents)


class TestPairScreen:
    @pytest.mark.parametrize("name", ["ring", "crossing", "swap", "staggered"])
    def test_certificate_matches_sampled_verdicts(self, crossing_scenario,
                                                  name):
        scenario = {"ring": ring_scenario(), "crossing": crossing_scenario,
                    "swap": swap_scenario(),
                    "staggered": staggered_crossing(crossing_scenario)}[name]
        pairs = list(screened_pairs(scenario, NegotiationConfig()))
        decided = [(got, want) for got, want, _ in pairs if got is not None]
        assert all(got == want for got, want in decided)
        # only the swap has no safe tick pair; in the staggered crossing
        # coarse points outside one plan's horizon decide both kinds too
        assert {got for got, _ in decided} == (
            {False} if name == "swap" else {True, False})
        # the two orders together decide every tick pair: 1,323 of the
        # ring, 441 each of the crossing, swap and staggered crossing
        assert len(decided) == len(pairs) > 0

    def test_certificate_matches_sampled_verdicts_around_obstacles(self):
        config = NegotiationConfig(step=1.0, max_deviation=3.0)
        pairs = [pair for seed in range(20)
                 for pair in screened_pairs(random_obstacle_world(seed), config)]
        decided = [(got, want, segments) for got, want, segments in pairs
                   if got is not None]
        assert all(got == want for got, want, _ in decided)
        # all 931 tick pairs of the 20 worlds
        assert len(decided) == len(pairs) > 0
        # multi-segment plans, and verdicts of both kinds, are decided
        assert sum(max(segments) > 1 for _, _, segments in decided) >= 50
        assert {got for got, _, _ in decided} == {True, False}

    @pytest.mark.parametrize("name", ["ring", "crossing", "swap"])
    def test_exact_verdicts_match_the_sampled_reference(self, crossing_scenario,
                                                        name):
        # every tick pair on the CLI's default grid; the 2001-sample
        # reference is what decided pair verdicts before the exact check
        scenario = {"ring": ring_scenario(), "crossing": crossing_scenario,
                    "swap": swap_scenario()}[name]
        pairs = 0
        for a, traj_a, b, traj_b in tick_pair_plans(scenario,
                                                    NegotiationConfig()):
            _, dist = min_separation(traj_a, traj_b)
            sampled_safe = a.radius + b.radius - dist <= game.SEPARATION_TOL
            exact = _penetration(traj_a, a.radius, traj_b, b.radius)
            assert (exact is None) == sampled_safe
            pairs += 1
        assert pairs == 441 * (3 if name == "ring" else 1)

    @pytest.mark.parametrize("name", ["ring", "crossing", "swap", "staggered",
                                      "obstacles"])
    def test_exact_check_keeps_the_object_reference_bits(self, crossing_scenario,
                                                         name):
        # every tick pair on the CLI's default grid, or on a 1 s grid to
        # +/-3 s around 20 random obstacle worlds, whose plans have
        # several segments
        if name == "obstacles":
            config = NegotiationConfig(step=1.0, max_deviation=3.0)
            pairs = [pair for seed in range(20) for pair in
                     tick_pair_plans(random_obstacle_world(seed), config)]
        else:
            scenario = {"ring": ring_scenario(), "crossing": crossing_scenario,
                        "swap": swap_scenario(),
                        "staggered": staggered_crossing(crossing_scenario)}[name]
            pairs = list(tick_pair_plans(scenario, NegotiationConfig()))
        hits = 0
        for a, traj_a, b, traj_b in pairs:
            got = _penetration(traj_a, a.radius, traj_b, b.radius)
            want = reference_penetration(traj_a, a.radius, traj_b, b.radius)
            assert repr(got) == repr(want)
            hits += got is not None
        assert 0 < hits <= len(pairs)

    @pytest.fixture
    def exact_checks(self, monkeypatch):
        """The horizon ends of each pair that game._penetration checks."""
        checked = []
        original = game._penetration

        def counting(traj_a, r_a, traj_b, r_b):
            checked.append((traj_a.t_end, traj_b.t_end))
            return original(traj_a, r_a, traj_b, r_b)

        monkeypatch.setattr(game, "_penetration", counting)
        return checked

    @staticmethod
    def graze(offset):
        """Agent 1 passes agent 0, at rest at the origin, at distance
        R + offset. The grid step is 11 s / 400 and agent 1's nominal
        acceleration bound 0.6 m/s**2, so the second-order slack is
        0.6 * 0.0275**2 / 8, about 5.7e-5 m."""
        return Scenario(agents=(
            AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(0, 0),
                      t0=0.0, tf_nominal=10.0),
            AgentSpec(id=1, radius=0.5, start=rest(-5, 1.0 + offset),
                      goal=rest(5, 1.0 + offset), t0=0.0, tf_nominal=10.0),
        ), obstacles=())

    @pytest.mark.parametrize("offset", [1e-5, -5e-4], ids=["clear", "touch"])
    def test_graze_gets_the_exact_verdict(self, offset, exact_checks):
        # 10 micrometres clear lies inside the second-order slack, so the
        # screen cannot decide and the search falls back to the exact
        # check, while 0.5 mm inside a coarse point lies within the limit
        # and is itself an instant of conflict
        scenario = self.graze(offset)
        config = NegotiationConfig(step=1.0, max_deviation=1.0)
        pairs = list(screened_pairs(scenario, config))
        certified, exact_safe, _ = pairs[len(pairs) // 2]  # both nominal
        assert exact_safe is (offset > 0)
        assert certified is (None if offset > 0 else False)
        if offset > 0:
            exact_checks.clear()
            arrival = negotiate_arrival_times(scenario, config).arrival_times
            assert arrival == {0: 10.0, 1: 10.0}
            assert exact_checks == [(10.0, 10.0)]

    def test_half_millimetre_graze_is_certified(self, exact_checks):
        # 0.5 mm clear is well inside the first-order slack L * step / 2,
        # about 41 mm, but far outside the second-order one
        scenario = self.graze(5e-4)
        config = NegotiationConfig(step=1.0, max_deviation=1.0)
        pairs = list(screened_pairs(scenario, config))
        assert pairs[len(pairs) // 2][:2] == (True, True)
        exact_checks.clear()
        arrival = negotiate_arrival_times(scenario, config).arrival_times
        assert arrival == {0: 10.0, 1: 10.0}
        assert exact_checks == []

    def test_start_velocity_jump_keeps_the_first_order_bound(self,
                                                           exact_checks):
        # agent 1 waits at its start until t0 = 5.0125, mid-way between
        # coarse points 5.0 and 5.025, then leaves at 3 m/s while agent 0
        # passes at 1.5 m/s. Their relative motion turns a corner at t0,
        # 3 mm inside R = 1, yet every chord between coarse points stays
        # about 10 mm outside it
        late = AgentSpec(id=1, radius=0.5,
                         start=KinematicState(p=(0.7237, 0.705), v=(0.0, 3.0)),
                         goal=rest(0.7237, 8.205), t0=5.0125, tf_nominal=10.0)
        passing = AgentSpec(id=0, radius=0.5, start=rest(-5, 0),
                            goal=rest(5, 0), t0=0.0, tf_nominal=10.0)
        scenario = Scenario(agents=(passing, late), obstacles=())
        config = NegotiationConfig(step=1.0, max_deviation=0.0)
        [(certified, exact_safe, _)] = screened_pairs(scenario, config)
        assert exact_safe is False
        assert certified is None
        # the interval holding t0 is all that stops the chords from
        # certifying the conflict
        grid = np.linspace(0.0, 10.0, game.SCREEN_SAMPLES)
        profiles = [_profile(plan_agent(agent, scenario)[0], grid)
                    for agent in (passing, late)]
        assert [p.jump for p in profiles] == [None, 200]
        assert _certified_verdict(grid, profiles[0], 0.5,
                                  profiles[1]._replace(jump=None), 0.5) is True
        exact_checks.clear()
        with pytest.raises(NegotiationError):
            negotiate_arrival_times(scenario, config)
        assert exact_checks == [(10.0, 10.0)]

    def test_decided_verdicts_near_the_limit_with_moving_starts(self):
        # random pairs in which agents may start late and moving, some
        # among obstacles, on a grid that ends up to 3 s after the last
        # horizon; the combined radius sits at the sampled nearest
        # distance plus each offset, so many verdicts are near the limit
        rng = random.Random(28)
        verdicts = {True: 0, False: 0, None: 0}
        jumps = 0
        for case in range(80):
            agents = tuple(
                AgentSpec(id=k, radius=0.5,
                          start=KinematicState(
                              p=(rng.uniform(-6, 6), rng.uniform(-6, 6)),
                              v=(rng.uniform(-3, 3), rng.uniform(-3, 3))
                              if rng.random() < 0.6 else (0.0, 0.0)),
                          goal=rest(rng.uniform(-6, 6), rng.uniform(-6, 6)),
                          t0=t0, tf_nominal=t0 + rng.uniform(3, 10))
                for k, t0 in enumerate(rng.choice([0.0, rng.uniform(0, 4)])
                                       for _ in range(2))
            )
            scenario = gen_world(case, rng.randint(0, 2), Bounds(-5, -5, 5, 5),
                                 agents)
            try:
                plans = [plan_agent(agent, scenario) for agent in agents]
            except PlannerError:
                continue
            if not all(report.converged for _, report in plans):
                continue
            (traj_a, _), (traj_b, _) = plans
            end = max(a.tf_nominal for a in agents) + rng.uniform(0, 3)
            grid = np.linspace(min(a.t0 for a in agents), end,
                               game.SCREEN_SAMPLES)
            profiles = [_profile(traj, grid) for traj in (traj_a, traj_b)]
            jumps += sum(p.jump is not None for p in profiles)
            times = np.linspace(grid[0], grid[-1], 20001)
            gap = (game.sample_positions_held(traj_a, times)
                   - game.sample_positions_held(traj_b, times))
            nearest = float(np.hypot(gap[:, 0], gap[:, 1]).min())
            for offset in (1e-3, 1e-5, 1e-7, -1e-7, -1e-5, -1e-4, -1e-3,
                           -1e-2):
                r = (nearest + offset) / 2.0
                got = _certified_verdict(grid, profiles[0], r, profiles[1], r)
                want = _penetration(traj_a, r, traj_b, r) is None
                assert got in (None, want), (case, offset)
                verdicts[got] += 1
        # 154 certified safe, 129 conflicts and 325 left to the exact
        # check, over 37 plans whose start breaks the velocity
        assert min(verdicts.values()) >= 100 and jumps >= 30, (verdicts, jumps)

    def test_speed_bound_covers_the_sampled_peak(self):
        # one random cubic per case, on scales from millimetres to
        # kilometres; the split bound lies between the sampled peak speed
        # and the largest norm of the unsplit control points
        rng = np.random.default_rng(29)
        for _ in range(500):
            scale = 10.0 ** rng.uniform(-3, 3)
            h = 10.0 ** rng.uniform(-2, 1)
            v, a2, a3 = (rng.normal(size=2) * scale / h ** k for k in (1, 2, 3))
            traj = piecewise((rng.normal(size=2), v, a2, a3, 1.0, 1.0 + h))
            speed, _ = _motion_bounds(traj)
            s = np.linspace(0.0, h, 2001)[:, None]
            sampled = np.hypot(*(v + 2 * a2 * s + 3 * a3 * s * s).T).max()
            control = max(np.hypot(*b) for b in (v, v + a2 * h,
                                                 v + 2 * a2 * h + 3 * a3 * h * h))
            assert sampled * (1 - 1e-12) <= speed <= control * (1 + 1e-12)

    def test_speed_bound_is_the_peak_of_a_rest_to_rest_plan(self,
                                                             crossing_scenario):
        # 10 m in 10 s from rest to rest peaks at 1.5 * D / T at mid-horizon,
        # where the unsplit control points give 3 * D / T
        for agent in crossing_scenario.agents:
            traj, _ = plan_agent(agent, crossing_scenario)
            speed, _ = _motion_bounds(traj)
            assert speed == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("turn", [0.0, 3.279721632089693],
                             ids=["seed0", "rotated"])
    def test_ring_negotiates_without_exact_checks(self, turn, exact_checks):
        # the CLI's default grid; the rotated ring is the benchmark's at
        # seed 17. Only the CLI's report of the nominal conflicts, made
        # outside the search, checks pairs exactly
        exact_checks.clear()
        arrival = negotiate_arrival_times(ring_scenario(turn),
                                          NegotiationConfig()).arrival_times
        assert arrival == {0: 7.0, 1: 9.5, 2: 12.5}
        assert exact_checks == []

    @pytest.mark.parametrize("excess", [2.0, 0.5], ids=["conflict", "clear"])
    def test_distance_within_rounding_of_the_limit_is_checked_exactly(
            self, excess, exact_checks):
        # two agents at rest whose combined radius exceeds their distance
        # by excess * SEPARATION_TOL: within SCREEN_EPS of the limit the
        # screen defers, and the search takes the exact check's verdict
        far = math.sqrt(0.2 * 0.2 + 3.0 * 3.0)
        scenario = Scenario(agents=(
            AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(0, 0),
                      t0=0.0, tf_nominal=10.0),
            AgentSpec(id=1, radius=far + excess * game.SEPARATION_TOL - 0.5,
                      start=rest(0.2, 3.0), goal=rest(0.2, 3.0),
                      t0=0.0, tf_nominal=10.0),
        ), obstacles=())
        config = NegotiationConfig(step=1.0, max_deviation=0.0)
        [(certified, exact_safe, _)] = screened_pairs(scenario, config)
        assert certified is None
        assert exact_safe is (excess < 1.0)
        exact_checks.clear()
        try:
            negotiate_arrival_times(scenario, config)
        except NegotiationError:
            searched_safe = False
        else:
            searched_safe = True
        assert searched_safe is exact_safe
        assert exact_checks == [(10.0, 10.0)]

    def test_swap_fails_without_sampling(self, exact_checks):
        with pytest.raises(NegotiationError):
            negotiate_arrival_times(swap_scenario(), NegotiationConfig())
        assert exact_checks == []


class TestNegotiationConfig:
    def test_deviation_must_be_step_multiple(self):
        with pytest.raises(ValueError):
            NegotiationConfig(step=0.5, max_deviation=1.2)

    def test_step_positive(self):
        with pytest.raises(ValueError):
            NegotiationConfig(step=0.0)
