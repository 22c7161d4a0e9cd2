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
    PiecewiseTrajectory,
    Scenario,
    compare,
    discrete_min_energy,
    discrete_min_energy_constrained,
    plan_agent,
    solve_boundary,
    trajectory_energy,
)


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
    def arrays(self, n=5):
        rng = np.random.default_rng(3)
        return (rng.standard_normal((n, 2)), rng.standard_normal((n + 1, 2)),
                rng.standard_normal((n + 1, 2)))

    def test_caller_arrays_stay_writeable(self):
        controls, positions, velocities = self.arrays()
        plan = DiscretePlan(t_start=0.0, t_end=1.0, dt=0.2, controls=controls,
                            positions=positions, velocities=velocities, cost=1.0)
        for given, held in ((controls, plan.controls), (positions, plan.positions),
                            (velocities, plan.velocities)):
            assert given.flags.writeable
            assert not held.flags.writeable
            assert not np.shares_memory(given, held)
            assert np.array_equal(given, held)
        controls[0, 0] += 1.0
        assert plan.controls[0, 0] != controls[0, 0]

    def test_transposed_views_become_c_order_copies(self):
        rows = [np.ascontiguousarray(a.T) for a in self.arrays()]
        plan = DiscretePlan(t_start=0.0, t_end=1.0, dt=0.2, controls=rows[0].T,
                            positions=rows[1].T, velocities=rows[2].T, cost=1.0)
        for held, given in zip((plan.controls, plan.positions, plan.velocities), rows):
            assert held.flags.c_contiguous and not held.flags.writeable
            assert held.dtype == np.float64
            assert held.tobytes() == np.ascontiguousarray(given.T).tobytes()


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
            OracleConfig(steps=400, descent_iterations=150),
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
            agent, scen, OracleConfig(steps=300, descent_iterations=80)
        )
        assert plan.max_penetration > 1e-4
        assert plan.penetration_warning


class TestCompare:
    def test_gap_against_own_discretization_shrinks(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        seg = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        traj = PiecewiseTrajectory(segments=(seg,))
        gaps = []
        for steps in (500, 1000, 2000):
            plan = discrete_min_energy(agent.start, agent.goal, 0.0, 10.0,
                                       steps)
            gaps.append(abs(compare(traj, plan)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 0.01

    def test_mismatched_horizon_rejected(self):
        seg = solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0)
        traj = PiecewiseTrajectory(segments=(seg,))
        plan = discrete_min_energy(rest(0, 0), rest(1, 0), 0.0, 2.0, 100)
        with pytest.raises(ComparisonError):
            compare(traj, plan)

    def test_solve_boundary_energy_approached_from_above(self):
        # The continuous solve is the energy optimum: the discrete cost
        # converges to it monotonically as the grid refines.
        x0, xf = rest(0, 0), rest(3, 2)
        seg = solve_boundary(x0, xf, 0.0, 4.0)
        continuous = trajectory_energy(PiecewiseTrajectory(segments=(seg,)))
        previous_gap = None
        for steps in (250, 500, 1000, 2000):
            plan = discrete_min_energy(x0, xf, 0.0, 4.0, steps)
            gap = plan.cost - continuous
            assert gap >= -1e-12
            if previous_gap is not None:
                assert gap <= previous_gap
            previous_gap = gap


class TestOracleConfig:
    def test_weights_must_increase(self):
        with pytest.raises(ValueError):
            OracleConfig(penalty_weights=(1e4, 1e3))

    def test_steps_minimum(self):
        with pytest.raises(ValueError):
            OracleConfig(steps=1)
