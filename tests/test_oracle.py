import math

import numpy as np
import pytest

from junctionplan import (
    AgentSpec,
    ComparisonError,
    DegenerateHorizonError,
    DiscretePlan,
    KinematicState,
    Obstacle,
    OracleConfig,
    Scenario,
    compare,
    discrete_min_energy,
    discrete_min_energy_constrained,
    inflated_radius,
    plan_agent,
    solve_boundary,
    trajectory_energy,
)
from junctionplan import oracle
from junctionplan.world import Bounds, gen_world

from conftest import reference_world, single_obstacle_instances


def rest(x, y):
    return KinematicState.at_rest(x, y)


def resimulate(plan):
    """Independent replay of the hold dynamics, step by step."""
    p = np.array(plan.positions[0], dtype=float)
    v = np.array(plan.velocities[0], dtype=float)
    dt = plan.dt
    worst = 0.0
    for k, u in enumerate(plan.controls):
        p = p + v * dt + 0.5 * u * dt**2
        v = v + u * dt
        worst = max(
            worst,
            float(np.abs(p - plan.positions[k + 1]).max()),
            float(np.abs(v - plan.velocities[k + 1]).max()),
        )
    return worst


class TestDiscreteMinEnergy:
    def test_stationary_zero_cost(self):
        plan = discrete_min_energy(rest(2, 3), rest(2, 3), 0.0, 5.0, 100)
        assert plan.cost == pytest.approx(0.0, abs=1e-18)
        assert np.abs(plan.controls).max() == pytest.approx(0.0, abs=1e-12)

    def test_unit_displacement_converges_to_closed_form(self):
        plan = discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 1.0, 2000)
        assert plan.cost == pytest.approx(12.0, rel=0.01)
        # hold controls are a strict subset of continuous ones
        assert plan.cost >= 12.0

    def test_gap_shrinks_when_steps_double(self):
        coarse = discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 1.0, 1000)
        fine = discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 1.0, 2000)
        assert abs(fine.cost - 12.0) < abs(coarse.cost - 12.0)

    @pytest.mark.parametrize("d,T", [((1, 0), 1.0), ((3, -4), 5.0),
                                     ((-2, 2), 2.0)])
    def test_rest_to_rest_family(self, d, T):
        plan = discrete_min_energy(rest(0, 0), rest(*d), 0.0, T, 2000)
        expected = 12.0 * (d[0] ** 2 + d[1] ** 2) / T**3
        assert plan.cost == pytest.approx(expected, rel=0.01)

    def test_terminal_state_met(self):
        xf = KinematicState(p=(4, -1), v=(0.5, 0.25))
        plan = discrete_min_energy(KinematicState(p=(0, 1), v=(-1, 0)), xf,
                                   0.0, 3.0, 500)
        assert np.abs(plan.positions[-1] - xf.p).max() < 1e-9
        assert np.abs(plan.velocities[-1] - xf.v).max() < 1e-9

    def test_hold_recursion_exact(self):
        plan = discrete_min_energy(KinematicState(p=(0, 1), v=(-1, 0)),
                                   KinematicState(p=(4, -1), v=(0.5, 0.25)),
                                   0.0, 3.0, 200)
        assert resimulate(plan) < 1e-12

    def test_translation_invariance(self):
        base = discrete_min_energy(rest(0, 0), rest(2, 1), 0.0, 2.0, 400)
        moved = discrete_min_energy(rest(7, -3), rest(9, -2), 0.0, 2.0, 400)
        assert moved.cost == pytest.approx(base.cost, rel=1e-12)

    def test_degenerate_horizon(self):
        with pytest.raises(DegenerateHorizonError):
            discrete_min_energy(rest(0, 0), rest(1, 0), 1.0, 1.0, 100)

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 1.0, 1)

    def test_states_property(self):
        plan = discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 1.0, 10)
        states = plan.states
        assert len(states) == 11
        assert np.array_equal(states[0].p, plan.positions[0])


class TestDiscretePlan:
    @pytest.fixture
    def plan(self, symmetric_scenario):
        return discrete_min_energy_constrained(symmetric_scenario.agents[0],
                                               symmetric_scenario)

    def test_holds_no_array_of_states(self, plan):
        held = [*vars(plan).values(), *vars(plan.start).values()]
        arrays = [value for value in held if isinstance(value, np.ndarray)]
        assert plan.touches.size and plan.ramps.shape == (plan.touches.size, 2)
        assert all(array.shape[0] < plan.steps for array in arrays)

    def test_cost_and_penetration_recompute_bit_for_bit(self):
        agent, scenario = reference_world(17)
        plan = discrete_min_energy_constrained(agent, scenario)
        assert plan.cost == float((plan.controls**2).sum() * plan.dt)
        positions = plan.positions
        worst = 0.0
        for obstacle in scenario.obstacles:
            dx = positions[:, 0] - obstacle.center[0]
            dy = positions[:, 1] - obstacle.center[1]
            g = inflated_radius(obstacle, agent) ** 2 - (dx * dx + dy * dy)
            worst = max(worst, float(np.maximum(g, 0.0).max()))
        assert plan.max_penetration == worst

    def test_properties_are_read_only_c_order_and_repeatable(self, plan):
        n = plan.steps
        for name, rows in (("controls", n), ("positions", n + 1),
                           ("velocities", n + 1)):
            first, again = getattr(plan, name), getattr(plan, name)
            assert first.shape == (rows, 2) and first.dtype == np.float64
            assert first.flags.c_contiguous and not first.flags.writeable
            assert first is not again and first.tobytes() == again.tobytes()

    def test_states_computes_each_array_once(self, plan, monkeypatch):
        calls = []
        simulate = oracle._simulate
        monkeypatch.setattr(oracle, "_simulate",
                            lambda *args: calls.append(1) or simulate(*args))
        states = plan.states
        assert len(calls) == 1
        assert len(states) == plan.steps + 1
        assert np.array_equal(states[-1].p, plan.positions[-1])
        assert np.array_equal(states[7].v, plan.velocities[7])

    def coefficients(self):
        rng = np.random.default_rng(3)
        return rng.standard_normal((2, 2)), np.array([2, 5, 7]), rng.standard_normal((3, 2))

    def test_caller_arrays_stay_writeable(self):
        affine, touches, ramps = self.coefficients()
        plan = DiscretePlan(t_start=0.0, t_end=1.0, steps=10, start=rest(0, 0),
                            affine=affine, touches=touches, ramps=ramps, cost=1.0)
        for given, held in ((affine, plan.affine), (touches, plan.touches),
                            (ramps, plan.ramps)):
            assert given.flags.writeable
            assert not held.flags.writeable
            assert not np.shares_memory(given, held)
            assert np.array_equal(given, held)
        controls = plan.controls
        ramps[0, 0] += 1.0
        affine[1, 1] += 1.0
        assert plan.controls.tobytes() == controls.tobytes()

    def test_transposed_views_become_c_order_copies(self):
        affine, touches, ramps = self.coefficients()
        rows = [np.ascontiguousarray(affine.T), np.ascontiguousarray(ramps.T)]
        plan = DiscretePlan(t_start=0.0, t_end=1.0, steps=10, start=rest(0, 0),
                            affine=rows[0].T, touches=touches, ramps=rows[1].T,
                            cost=1.0)
        for held, given in ((plan.affine, rows[0]), (plan.ramps, rows[1])):
            assert held.flags.c_contiguous and not held.flags.writeable
            assert held.dtype == np.float64
            assert held.tobytes() == np.ascontiguousarray(given.T).tobytes()
        same = DiscretePlan(t_start=0.0, t_end=1.0, steps=10, start=rest(0, 0),
                            affine=affine, touches=touches, ramps=ramps, cost=1.0)
        assert plan.controls.tobytes() == same.controls.tobytes()

    def test_touch_states_must_increase_inside_the_horizon(self):
        fields = dict(t_start=0.0, t_end=1.0, steps=10, start=rest(0, 0),
                      affine=np.zeros((2, 2)), ramps=np.zeros((2, 2)), cost=0.0)
        for touches in ([0, 5], [5, 10], [6, 6], [7, 3]):
            with pytest.raises(ValueError):
                DiscretePlan(touches=touches, **fields)
        assert DiscretePlan(touches=[1, 9], **fields).controls.shape == (10, 2)


class TestDiscreteMinEnergyConstrained:
    def test_inactive_obstacle_matches_unconstrained(self):
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(1, 0),
                          t0=0.0, tf_nominal=1.0)
        obs = Obstacle(id=0, center=(0.5, 50.0), radius=0.75)
        scen = Scenario(agents=(agent,), obstacles=(obs,))
        free = discrete_min_energy(agent.start, agent.goal, 0.0, 1.0, 400)
        constrained = discrete_min_energy_constrained(
            agent, scen, OracleConfig(steps=400)
        )
        assert constrained.cost == pytest.approx(free.cost, abs=1e-9)
        assert constrained.max_penetration == 0.0

    def test_symmetric_scenario_cross_validates_planner(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        traj, report = plan_agent(agent, symmetric_scenario)
        plan = discrete_min_energy_constrained(agent, symmetric_scenario)
        gap = compare(traj, plan)
        assert gap <= 0.02
        assert not plan.penetration_warning
        # the oracle's one touch state is the planner's junction time
        [junction] = report.junction_sequence
        assert plan.touches.tolist() == [round(junction.time / plan.dt)]

    def test_constrained_cost_at_least_unconstrained(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        free = discrete_min_energy(agent.start, agent.goal, agent.t0,
                                   agent.tf_nominal, 2000)
        constrained = discrete_min_energy_constrained(agent, symmetric_scenario)
        assert constrained.cost >= free.cost - 1e-9

    def test_descent_is_monotone_within_each_weight(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        trace: list = []
        discrete_min_energy_constrained(
            agent, symmetric_scenario,
            OracleConfig(steps=400),
            objective_trace=trace,
        )
        assert trace
        for (w_prev, f_prev), (w_next, f_next) in zip(trace, trace[1:]):
            if w_prev == w_next:
                assert f_next <= f_prev + 1e-12

    def test_enclosed_start_trips_penetration_warning(self):
        # A closed ring of overlapping inflated obstacles around the
        # start leaves no safe way out; the penalty method must report
        # the residual penetration instead of pretending success.
        obstacles = tuple(
            Obstacle(id=k, radius=1.2,
                     center=(2 * math.cos(k * math.pi / 4),
                             2 * math.sin(k * math.pi / 4)))
            for k in range(8)
        )
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(6, 0),
                          t0=0.0, tf_nominal=10.0)
        scen = Scenario(agents=(agent,), obstacles=obstacles)
        plan = discrete_min_energy_constrained(
            agent, scen, OracleConfig(steps=300)
        )
        assert plan.max_penetration > 1e-4
        assert plan.penetration_warning

    def test_matches_the_planner_on_single_obstacle_worlds(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        traj, _ = plan_agent(agent, symmetric_scenario)
        cases = [(symmetric_scenario, agent, traj)] + [
            (scenario, agent_i, traj_i)
            for scenario, agent_i, traj_i, _ in single_obstacle_instances(10)
        ]
        for scenario, agent_i, traj_i in cases:
            plan = discrete_min_energy_constrained(agent_i, scenario)
            assert abs(compare(traj_i, plan)) <= 1e-5
            assert not plan.penetration_warning

    @pytest.mark.parametrize("world", ["symmetric", 2, 3, 4])
    def test_gap_is_small_in_both_directions(self, world, symmetric_scenario):
        """On the symmetric scenario and on the benchmark's seed-0
        single-obstacle worlds 2, 3 and 4, the planner's energy is within
        1e-5 of the oracle's cost, above or below it: an oracle that ends
        above the planner fails here, not only one that ends far below."""
        if world == "symmetric":
            agent, scenario = symmetric_scenario.agents[0], symmetric_scenario
        else:
            agent = AgentSpec(id=0, radius=0.5, start=rest(-8, 0), goal=rest(8, 0),
                              t0=0.0, tf_nominal=10.0)
            scenario = gen_world(world, 1, Bounds(-5, -2, 5, 2), (agent,),
                                 radius_range=(0.8, 1.6))
        traj, _ = plan_agent(agent, scenario)
        plan = discrete_min_energy_constrained(agent, scenario, OracleConfig(steps=2000))
        assert abs(compare(traj, plan)) <= 1e-5

    @pytest.mark.parametrize("seed", [11, 17, 23])
    def test_crowded_reference_worlds_within_two_percent(self, seed):
        # 17 ended at 47.67 under projected-gradient descent; 11 needs the
        # repeated steering passes and 23 the restart from the
        # unsteered plan to stay out of a far higher local minimum
        agent, scenario = reference_world(seed)
        _, report = plan_agent(agent, scenario)
        plan = discrete_min_energy_constrained(agent, scenario)
        assert not plan.penetration_warning
        assert plan.cost <= 1.02 * report.energy


class TestCompare:
    def test_gap_against_own_discretization_shrinks(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        traj = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        gaps = []
        for steps in (500, 1000, 2000):
            plan = discrete_min_energy(agent.start, agent.goal, 0.0, 10.0,
                                       steps)
            gaps.append(abs(compare(traj, plan)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.01

    def test_mismatched_horizon_rejected(self):
        traj = solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0)
        plan = discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 2.0, 100)
        with pytest.raises(ComparisonError):
            compare(traj, plan)

    def test_solve_boundary_energy_approached_from_above(self):
        # The continuous solve is the energy optimum: the discrete cost
        # converges to it monotonically as the grid refines.
        x0, xf = rest(0, 0), rest(3, 2)
        continuous = trajectory_energy(solve_boundary(x0, xf, 0.0, 4.0))
        previous_gap = None
        for steps in (250, 500, 1000, 2000):
            plan = discrete_min_energy(x0, xf, 0.0, 4.0, steps)
            gap = plan.cost - continuous
            assert gap >= -1e-12
            if previous_gap is not None:
                assert gap <= previous_gap
            previous_gap = gap


class TestOracleConfig:
    def test_steps_minimum(self):
        with pytest.raises(ValueError):
            OracleConfig(steps=1)

    @pytest.mark.parametrize("steps", [300.0, True, "300", np.int64(300)])
    def test_steps_must_be_an_int(self, steps):
        with pytest.raises(TypeError, match="step count must be an int"):
            OracleConfig(steps=steps)
        with pytest.raises(TypeError, match="step count must be an int"):
            discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 1.0, steps)
