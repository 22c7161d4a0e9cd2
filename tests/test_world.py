import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionplan import (
    AgentSpec,
    Bounds,
    GenerationError,
    KinematicState,
    Obstacle,
    Scenario,
    ScenarioLookupError,
    SchemaError,
    ValidationError,
    constraint_value,
    eval_trajectory,
    first_violation,
    gen_world,
    inflated_radius,
    load_scenario,
    save_scenario,
    scenario_from_json,
    scenario_to_json,
    solve_boundary,
)
from junctionplan.game import SEPARATION_TOL, _penetration
from junctionplan.world import ViolationRecord

from conftest import min_separation, piecewise


def rest(x, y):
    return KinematicState.at_rest(x, y)


def straight_path(start, goal, t0=0.0, tf=1.0):
    return solve_boundary(rest(*start), rest(*goal), t0, tf)


class TestConstraintValue:
    def test_boundary_contact_is_zero(self):
        assert constraint_value((3.0, 0.0), (0.0, 0.0), 3.0) == pytest.approx(0.0)

    def test_center_is_maximal_violation(self):
        assert constraint_value((1.0, 2.0), (1.0, 2.0), 0.7) == pytest.approx(0.49)

    def test_direct_arithmetic(self):
        # 0.45^2 - 0.5^2 = 0.2025 - 0.25
        value = constraint_value((0.5, 0.0), (0.0, 0.0), 0.45)
        assert value == pytest.approx(-0.0475, abs=1e-15)

    @given(
        px=st.floats(-10, 10), py=st.floats(-10, 10),
        r=st.floats(0.1, 5.0),
        angle=st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_zero_exactly_on_circle(self, px, py, r, angle):
        center = np.array([px, py])
        point = center + r * np.array([np.cos(angle), np.sin(angle)])
        assert constraint_value(point, center, r) == pytest.approx(0.0, abs=1e-12)


class TestInflatedRadius:
    def test_paper_agent_radius(self):
        obs = Obstacle(id=0, center=(0, 0), radius=2.0)
        agent = AgentSpec(id=0, radius=1.25, start=rest(-5, 0), goal=rest(5, 0),
                          t0=0.0, tf_nominal=1.0)
        assert inflated_radius(obs, agent) == pytest.approx(3.25)

    def test_zero_size_edge_cases(self):
        # Constructed types forbid zero radii, so exercise the arithmetic
        # with bare stand-ins.
        assert inflated_radius(SimpleNamespace(radius=2.0),
                               SimpleNamespace(radius=0.0)) == 2.0
        assert inflated_radius(SimpleNamespace(radius=0.0),
                               SimpleNamespace(radius=1.25)) == 1.25


def single_agent_scenario(obstacles):
    agent = AgentSpec(id=0, radius=0.0 + 1e-9, start=rest(0, 0), goal=rest(1, 0),
                      t0=0.0, tf_nominal=1.0)
    return agent, Scenario(agents=(agent,), obstacles=tuple(obstacles))


class TestFirstViolation:
    def test_far_obstacle_clear(self):
        _, scen = single_agent_scenario(
            [Obstacle(id=0, center=(0.5, 10.0), radius=0.2)]
        )
        traj = straight_path((0, 0), (1, 0))
        assert first_violation(traj, scen, 0) is None

    def test_blocking_obstacle_time_in_crossing_window(self):
        # Obstacle of inflated radius ~0.2 centered on the path: the
        # violation time must fall inside the window where the cubic's
        # progress crosses the circle, found independently by bisection.
        radius = 0.2 - 1e-9  # inflate by the agent's tiny radius to 0.2
        _, scen = single_agent_scenario(
            [Obstacle(id=0, center=(0.5, 0.0), radius=radius)]
        )
        traj = straight_path((0, 0), (1, 0))

        def progress(t):
            return 3 * t**2 - 2 * t**3

        def crossing(target, lo, hi):
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if progress(mid) < target:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)

        t_enter = crossing(0.3, 0.0, 0.5)
        t_exit = crossing(0.7, 0.5, 1.0)
        record = first_violation(traj, scen, 0)
        assert record is not None
        assert record.constraint == 0
        assert record.depth > 0
        assert t_enter < record.time < t_exit

    def test_boundary_tangent_start_is_safe(self):
        # Trajectory starts exactly on the inflated boundary: g = 0 there.
        agent = AgentSpec(id=0, radius=0.5, start=rest(-10, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=1.0)
        obs = Obstacle(id=0, center=(0.0, 2.0), radius=0.5)
        scen = Scenario(agents=(agent,), obstacles=(obs,))
        # combined radius 1.0; the point (0, 1) sits exactly on the circle
        traj = straight_path((0.0, 1.0), (0.0, 0.999), tf=1.0)
        assert first_violation(traj, scen, 0) is None

    def test_graze_between_samples_is_found(self):
        # inflated radius 1.0 reaches 1 um below the path, centered off
        # the 5 ms grid of a 2001-sample scan; g exceeds SAFETY_TOL only for
        # about 1.9 ms around t = 5.0017
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=10.0)
        obs = Obstacle(id=0, center=(5.0025, 0.999999), radius=0.75)
        scen = Scenario(agents=(agent,), obstacles=(obs,))
        traj = straight_path((0, 0), (10, 0), tf=10.0)
        record = first_violation(traj, scen, 0)
        assert record is not None
        assert record.constraint == 0
        assert record.time == pytest.approx(5.0017, abs=1e-4)
        assert record.depth == pytest.approx(1e-6, rel=1e-3)

    def test_window_runs_across_a_knot(self):
        # the straight transfer split at t = 5 reports the same violation
        # time as the single segment: the midpoint of the joined window
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=10.0)
        scen = Scenario(agents=(agent,),
                        obstacles=(Obstacle(id=0, center=(5.0, 0.0), radius=0.75),))
        whole = straight_path((0, 0), (10, 0), tf=10.0)
        p, v, _ = eval_trajectory(whole, 5.0)
        middle = KinematicState(p=p, v=v)
        split = piecewise(*solve_boundary(agent.start, middle, 0.0, 5.0).segments,
                          *solve_boundary(middle, agent.goal, 5.0, 10.0).segments)
        for traj in (whole, split):
            assert first_violation(traj, scen, 0).time == pytest.approx(5.0, abs=1e-12)

    def test_unknown_agent(self):
        _, scen = single_agent_scenario([])
        traj = straight_path((0, 0), (1, 0))
        with pytest.raises(ScenarioLookupError):
            first_violation(traj, scen, 99)


class TestViolationRecord:
    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            ViolationRecord(time=0.0, constraint=0, depth=0.0)


class TestMinSeparation:
    """The separation of two agents, decided exactly by game._penetration
    from the violated windows of their difference: (time, depth) at the
    midpoint of the first window, or None when safe."""

    def test_identical_trajectories(self):
        traj = straight_path((0, 0), (1, 0))
        assert _penetration(traj, 0.5, traj, 0.25) == (0.5, 0.75)

    def test_parallel_offset(self):
        a = straight_path((0, 0), (1, 0))
        b = straight_path((0, 5), (1, 5))
        t, depth = _penetration(a, 2.5, b, 2.5 + 1e-3)
        assert t == 0.5
        assert depth == pytest.approx(1e-3, abs=1e-12)
        assert _penetration(a, 2.5, b, 2.5 - 1e-3) is None

    def test_crossing_paths_meet_at_midpoint(self):
        a = straight_path((0, 0), (10, 0), tf=10.0)
        b = straight_path((5, -5), (5, 5), tf=10.0)
        t, depth = _penetration(a, 0.5, b, 0.5)
        assert t == pytest.approx(5.0, abs=1e-9)
        assert depth == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_in_arguments(self):
        a = straight_path((0, 0), (3, 1), tf=2.0)
        b = straight_path((1, -2), (0, 4), tf=3.0)
        hit = _penetration(a, 1.0, b, 1.2)
        assert hit is not None
        assert _penetration(b, 1.2, a, 1.0) == hit

    def test_hold_after_own_horizon(self):
        # Second agent finishes at t=1 and must hold its goal, 2 m from
        # the first agent's path, while the first is still moving.
        a = straight_path((0, 0), (10, 0), tf=10.0)
        b = straight_path((5, 3), (5, 2), tf=1.0)
        t, depth = _penetration(a, 1.0, b, 1.25)
        assert t == pytest.approx(5.0, abs=1e-9)
        assert depth == pytest.approx(0.25, abs=1e-9)
        assert _penetration(a, 1.0, b, 0.75) is None

    def test_graze_between_samples_is_found(self):
        # agent b passes agent a, at rest at the origin, 1e-4 m inside
        # the combined radius at t = 5 - 0.0025, halfway between two of
        # the 2001 samples over the horizon; sampling misses the graze
        a = straight_path((0, 0), (0, 0), tf=10.0)
        b = straight_path((-49.9625, 1 - 1e-4), (50.0375, 1 - 1e-4), tf=10.0)
        _, dist = min_separation(a, b)
        assert 1.0 - dist < SEPARATION_TOL
        t, depth = _penetration(a, 0.5, b, 0.5)
        assert t == pytest.approx(4.9975, abs=1e-6)
        assert depth == pytest.approx(1e-4, abs=1e-9)


class TestGenWorld:
    AGENTS = (
        AgentSpec(id=0, radius=0.5, start=rest(-10, -10), goal=rest(10, 10),
                  t0=0.0, tf_nominal=10.0),
    )

    def test_empty_world(self):
        scen = gen_world(3, 0, Bounds(-8, -8, 8, 8), self.AGENTS)
        assert scen.obstacles == ()

    def test_deterministic_bitwise(self):
        a = gen_world(42, 5, Bounds(-8, -8, 8, 8), self.AGENTS)
        b = gen_world(42, 5, Bounds(-8, -8, 8, 8), self.AGENTS)
        for oa, ob in zip(a.obstacles, b.obstacles):
            assert oa.id == ob.id
            assert oa.radius == ob.radius
            assert np.array_equal(oa.center, ob.center)

    def test_start_goal_feasible(self):
        scen = gen_world(7, 5, Bounds(-8, -8, 8, 8), self.AGENTS)
        for agent in scen.agents:
            for obs in scen.obstacles:
                combined = inflated_radius(obs, agent)
                assert constraint_value(agent.start.p, obs.center, combined) < 0
                assert constraint_value(agent.goal.p, obs.center, combined) < 0

    def test_budget_exhaustion(self):
        # Obstacles far larger than the bounds can never avoid the agent.
        with pytest.raises(GenerationError):
            gen_world(0, 1, Bounds(-1, -1, 1, 1), self.AGENTS,
                      radius_range=(50.0, 60.0))

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            gen_world(0, 1, Bounds(1, -1, -1, 1), self.AGENTS)


class TestScenarioValidation:
    def test_duplicate_agent_ids(self):
        a = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(1, 0),
                      t0=0.0, tf_nominal=1.0)
        b = AgentSpec(id=0, radius=0.5, start=rest(5, 5), goal=rest(6, 5),
                      t0=0.0, tf_nominal=1.0)
        with pytest.raises(ValidationError):
            Scenario(agents=(a, b), obstacles=())

    def test_start_inside_obstacle_rejected(self):
        agent = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(9, 0),
                          t0=0.0, tf_nominal=1.0)
        obs = Obstacle(id=0, center=(0.2, 0.0), radius=1.0)
        with pytest.raises(ValidationError):
            Scenario(agents=(agent,), obstacles=(obs,))


class TestScenarioJson:
    def scenario(self):
        agent = AgentSpec(id=0, radius=0.5, start=rest(-3, 0.25),
                          goal=KinematicState(p=(4, 1), v=(0.5, 0)),
                          t0=0.5, tf_nominal=9.5)
        obs = Obstacle(id=2, center=(1.0, 0.3), radius=0.75)
        return Scenario(agents=(agent,), obstacles=(obs,))

    def test_round_trip(self, tmp_path):
        scen = self.scenario()
        path = tmp_path / "scenario.json"
        save_scenario(scen, path)
        loaded = load_scenario(path)
        assert scenario_to_json(loaded) == scenario_to_json(scen)

    def test_unknown_field_rejected(self):
        doc = scenario_to_json(self.scenario())
        doc["extra"] = 1
        with pytest.raises(SchemaError):
            scenario_from_json(doc)

    def test_unknown_nested_field_rejected(self):
        doc = scenario_to_json(self.scenario())
        doc["agents"][0]["color"] = "blue"
        with pytest.raises(SchemaError):
            scenario_from_json(doc)

    def test_missing_field_rejected(self):
        doc = scenario_to_json(self.scenario())
        del doc["agents"][0]["radius"]
        with pytest.raises(SchemaError):
            scenario_from_json(doc)

    def test_non_numeric_rejected(self):
        doc = scenario_to_json(self.scenario())
        doc["obstacles"][0]["radius"] = "wide"
        with pytest.raises(SchemaError):
            scenario_from_json(doc)

    def test_bool_is_not_a_number(self):
        doc = scenario_to_json(self.scenario())
        doc["obstacles"][0]["radius"] = True
        with pytest.raises(SchemaError):
            scenario_from_json(doc)

    @pytest.mark.parametrize("field,value", [("tf", "Infinity"),
                                             ("t0", "-Infinity")])
    def test_infinite_horizon_is_a_schema_error(self, field, value):
        # json reads Infinity and -Infinity as floats; the horizon
        # [t0, tf] must still be finite, named by its agent
        doc = scenario_to_json(self.scenario())
        doc["agents"][0][field] = "INF"
        text = json.dumps(doc).replace('"INF"', value)
        with pytest.raises(SchemaError, match=r"agents\[0\]"):
            scenario_from_json(json.loads(text))

    @pytest.mark.parametrize("edit,message", [
        ("duplicate_agent", "agent ids must be unique"),
        ("duplicate_obstacle", "obstacle ids must be unique"),
        ("start_inside", "agent 0 start inside inflated obstacle 2"),
    ])
    def test_invalid_scenario_is_a_schema_error(self, tmp_path, edit, message):
        # Scenario's own checks surface from load_scenario as a bad input
        doc = scenario_to_json(self.scenario())
        if edit == "duplicate_agent":
            doc["agents"].append(doc["agents"][0])
        elif edit == "duplicate_obstacle":
            doc["obstacles"].append(doc["obstacles"][0])
        else:
            doc["obstacles"][0]["center"] = doc["agents"][0]["start"]["p"]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=f"^scenario: {message}$") as info:
            load_scenario(path)
        assert isinstance(info.value.__cause__, ValidationError)

    def test_invalid_json_text(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            load_scenario(path)

    def test_full_precision_round_trip(self):
        scen = self.scenario()
        text = json.dumps(scenario_to_json(scen))
        loaded = scenario_from_json(json.loads(text))
        assert loaded.agents[0].radius == scen.agents[0].radius
        assert np.array_equal(loaded.obstacles[0].center, scen.obstacles[0].center)
