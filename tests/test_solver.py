import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from junctionplan import (
    AgentSpec,
    ConditioningError,
    Junction,
    KinematicState,
    Obstacle,
    OrderingError,
    PlanningFailure,
    Scenario,
    SolveReport,
    constraint_value,
    contact_point,
    eval_trajectory,
    first_violation,
    inflated_radius,
    initial_guess,
    plan_agent,
    residuals,
    solve_boundary,
    solve_coefficients,
    solve_junctions,
    trajectory_energy,
)
from junctionplan import solver
from junctionplan.solver import _residual_jacobian, _setup, _spline
from junctionplan.world import ViolationRecord

from conftest import piecewise, reference_world


def rest(x, y):
    return KinematicState.at_rest(x, y)


def symmetric_agent_and_obstacle():
    agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(10, 0),
                      t0=0.0, tf_nominal=10.0)
    obstacle = Obstacle(id=0, center=(5.0, 0.0), radius=0.75)
    return agent, Scenario(agents=(agent,), obstacles=(obstacle,))


def corridor_agent_and_obstacles():
    agent = AgentSpec(id=0, radius=0.2, start=rest(0, 0), goal=rest(20, 0),
                      t0=0.0, tf_nominal=20.0)
    obstacles = (
        Obstacle(id=0, center=(6.0, 0.0), radius=0.8),
        Obstacle(id=1, center=(14.0, 0.0), radius=0.8),
        Obstacle(id=2, center=(10.0, 1.0), radius=0.5),
    )
    return agent, Scenario(agents=(agent,), obstacles=obstacles)


def junction_case(case):
    """Agent, scenario and junctions of a named test case: one junction
    on the symmetric obstacle, two on the corridor, or three on the
    corridor with the middle one 1.5 time margins after the first."""
    if case == "one":
        agent, scen = symmetric_agent_and_obstacle()
        return agent, scen, (Junction(0, math.pi / 2 + 0.4, 4.1),)
    agent, scen = corridor_agent_and_obstacles()
    junctions = (Junction(0, 1.2, 6.3), Junction(1, 1.8, 13.6))
    if case == "three_crowded":
        junctions = junctions[:1] + (
            Junction(2, 1.0, 6.3 + 1.5 * solver.TIME_MARGIN),
        ) + junctions[1:]
    return agent, scen, junctions


def _pos_row(t):
    return np.array([t**3, t**2, t, 1.0])


def _vel_row(t):
    return np.array([3.0 * t**2, 2.0 * t, 1.0, 0.0])


def _ctrl_row(t):
    return np.array([6.0 * t, 2.0, 0.0, 0.0])


def boundary_matrix(t0, tf):
    """The 8x8 system mapping monomial coefficients to boundary states."""
    block = np.array([_pos_row(t0), _vel_row(t0), _pos_row(tf), _vel_row(tf)])
    return np.kron(block, np.eye(2))


def assemble_system(agent, junctions, scen):
    """Dense reference: the block system for every monomial coefficient.

    With n junctions there are n+1 segments and 8(n+1) unknowns, the
    absolute-time coefficients of segment k at 8k..8k+7 as (c1, c2, c3,
    c4), each an (x, y) pair. Rows: boundary position and velocity at t0,
    then per junction both adjacent segments pinned to the contact point
    plus velocity and control continuity, then the boundary at tf.
    """
    times = [j.time for j in junctions]
    if any(not agent.t0 < t < agent.tf_nominal for t in times):
        raise OrderingError(f"junction times {times} outside the horizon")
    if any(t_next <= t_prev for t_prev, t_next in zip(times, times[1:])):
        raise OrderingError(f"junction times {times} must be strictly increasing")
    size = 4 * (len(times) + 1)
    a = np.zeros((size, size))
    b = np.zeros((size, 2))
    a[0, 0:4], a[1, 0:4] = _pos_row(agent.t0), _vel_row(agent.t0)
    b[0], b[1] = agent.start.p, agent.start.v
    for k, junction in enumerate(junctions):
        obs = scen.obstacle(junction.obstacle_id)
        row, col, t = 2 + 4 * k, 4 * k, junction.time
        b[row] = b[row + 1] = contact_point(obs, inflated_radius(obs, agent),
                                            junction.theta)
        a[row, col:col + 4] = a[row + 1, col + 4:col + 8] = _pos_row(t)
        a[row + 2, col:col + 4], a[row + 2, col + 4:col + 8] = _vel_row(t), -_vel_row(t)
        a[row + 3, col:col + 4], a[row + 3, col + 4:col + 8] = _ctrl_row(t), -_ctrl_row(t)
    a[-2, -4:], a[-1, -4:] = _pos_row(agent.tf_nominal), _vel_row(agent.tf_nominal)
    b[-2], b[-1] = agent.goal.p, agent.goal.v
    return np.kron(a, np.eye(2)), b.reshape(-1)


def assert_matches_dense_block_solve(agent, junctions, scen):
    """The per-axis solve agrees with a dense solve of the block system."""
    a, b = assemble_system(agent, junctions, scen)
    dense = np.linalg.solve(a, b)
    traj = solve_coefficients(agent, junctions, scen)
    coeffs = np.concatenate(
        [np.concatenate([s.c1, s.c2, s.c3, s.c4]) for s in traj.segments]
    )
    assert np.abs(coeffs - dense).max() <= 1e-12 * np.abs(dense).max()


class TestJunction:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["theta", "time"])
    def test_nonfinite_parameter_rejected(self, field, bad):
        params = dict(theta=0.5, time=2.0)
        params[field] = bad
        with pytest.raises(ValueError, match="^junction parameters must be finite$"):
            Junction(obstacle_id=0, **params)


class TestContactPoint:
    def test_axis_cases(self):
        obs = Obstacle(id=0, center=(0, 0), radius=1.0)
        assert contact_point(obs, 1.0, 0.0) == pytest.approx([1.0, 0.0])
        assert contact_point(obs, 1.0, math.pi / 2) == pytest.approx(
            [0.0, 1.0], abs=1e-15
        )

    def test_offset_center(self):
        obs = Obstacle(id=0, center=(2.0, 3.0), radius=2.0)
        point = contact_point(obs, 3.25, math.pi)
        assert point == pytest.approx([-1.25, 3.0], abs=1e-12)

    def test_constraint_exactly_zero(self):
        obs = Obstacle(id=0, center=(1.7, -0.4), radius=0.9)
        for theta in np.linspace(-math.pi, math.pi, 17):
            point = contact_point(obs, 1.4, theta)
            assert constraint_value(point, obs.center, 1.4) == pytest.approx(
                0.0, abs=1e-12
            )


class TestAssembleSystem:
    def test_no_junctions_reduces_to_boundary_system(self):
        agent, scen = symmetric_agent_and_obstacle()
        a, b = assemble_system(agent, (), scen)
        assert a.shape == (8, 8)
        assert np.array_equal(a, boundary_matrix(agent.t0, agent.tf_nominal))
        expected_rhs = np.concatenate(
            [agent.start.p, agent.start.v, agent.goal.p, agent.goal.v]
        )
        assert np.array_equal(b, expected_rhs)
        assert_matches_dense_block_solve(agent, (), scen)

    def test_one_junction_continuity(self):
        agent, scen = symmetric_agent_and_obstacle()
        junction = Junction(obstacle_id=0, theta=math.pi / 2, time=5.0)
        a, _ = assemble_system(agent, (junction,), scen)
        assert a.shape == (16, 16)
        assert_matches_dense_block_solve(agent, (junction,), scen)
        traj = solve_coefficients(agent, (junction,), scen)
        pa, va, ua = eval_trajectory(piecewise(traj.segments[0]), 5.0)
        pb, vb, ub = eval_trajectory(piecewise(traj.segments[1]), 5.0)
        assert np.abs(pa - pb).max() < 1e-9
        assert np.abs(va - vb).max() < 1e-9
        assert np.abs(ua - ub).max() < 1e-9

    def test_two_junctions_contacts_exact(self):
        agent = AgentSpec(id=0, radius=0.2, start=rest(0, 0), goal=rest(20, 0),
                          t0=0.0, tf_nominal=20.0)
        obstacles = (
            Obstacle(id=0, center=(6.0, 0.0), radius=0.8),
            Obstacle(id=1, center=(14.0, 0.0), radius=0.8),
        )
        scen = Scenario(agents=(agent,), obstacles=obstacles)
        junctions = (
            Junction(obstacle_id=0, theta=1.2, time=6.0),
            Junction(obstacle_id=1, theta=1.8, time=14.0),
        )
        a, _ = assemble_system(agent, junctions, scen)
        assert a.shape == (24, 24)
        assert_matches_dense_block_solve(agent, junctions, scen)
        traj = solve_coefficients(agent, junctions, scen)
        for junction in junctions:
            obs = scen.obstacle(junction.obstacle_id)
            combined = inflated_radius(obs, agent)
            p, _, _ = eval_trajectory(traj, junction.time)
            expected = contact_point(obs, combined, junction.theta)
            assert np.abs(p - expected).max() < 1e-10
            assert abs(constraint_value(expected, obs.center, combined)) < 1e-12

    def test_horizon_not_starting_at_zero(self):
        agent = AgentSpec(id=0, radius=0.2, start=rest(0, 0), goal=rest(20, 0),
                          t0=10.0, tf_nominal=30.0)
        obstacles = (
            Obstacle(id=0, center=(6.0, 0.0), radius=0.8),
            Obstacle(id=1, center=(14.0, 0.0), radius=0.8),
        )
        scen = Scenario(agents=(agent,), obstacles=obstacles)
        junctions = (
            Junction(obstacle_id=0, theta=1.2, time=16.3),
            Junction(obstacle_id=1, theta=1.8, time=23.6),
        )
        assert_matches_dense_block_solve(agent, junctions, scen)

    def test_non_increasing_times_rejected(self):
        agent, scen = symmetric_agent_and_obstacle()
        junctions = (
            Junction(obstacle_id=0, theta=0.0, time=6.0),
            Junction(obstacle_id=0, theta=0.0, time=5.0),
        )
        with pytest.raises(OrderingError):
            assemble_system(agent, junctions, scen)

    def test_time_outside_horizon_rejected(self):
        agent, scen = symmetric_agent_and_obstacle()
        with pytest.raises(OrderingError):
            assemble_system(agent, (Junction(0, 0.0, 11.0),), scen)


class TestSolveCoefficients:
    def test_reduces_to_solve_boundary(self):
        agent, scen = symmetric_agent_and_obstacle()
        traj = solve_coefficients(agent, (), scen)
        seg = solve_boundary(agent.start, agent.goal, agent.t0,
                             agent.tf_nominal).segments[0]
        only = traj.segments[0]
        assert np.abs(only.c1 - seg.c1).max() < 1e-12
        assert np.abs(only.c2 - seg.c2).max() < 1e-12
        assert np.abs(only.c3 - seg.c3).max() < 1e-12
        assert np.abs(only.c4 - seg.c4).max() < 1e-12

    @pytest.mark.parametrize("case", ["one", "two", "three_crowded"])
    def test_continuity_at_junctions(self, case):
        # segments 1.5 ms long must meet as closely as long ones
        agent, scen, junctions = junction_case(case)
        traj = solve_coefficients(agent, junctions, scen)
        for before, after in zip(traj.segments, traj.segments[1:]):
            pa, va, ua = eval_trajectory(piecewise(before), before.t_end)
            pb, vb, ub = eval_trajectory(piecewise(after), after.t_start)
            assert np.abs(pa - pb).max() <= 1e-11
            assert np.abs(va - vb).max() <= 1e-11
            assert np.abs(ua - ub).max() <= 1e-11 * max(np.abs(ua).max(),
                                                         np.abs(ub).max())

    def test_boundary_conditions_met(self):
        agent, scen = symmetric_agent_and_obstacle()
        junction = Junction(obstacle_id=0, theta=math.pi / 2, time=5.0)
        traj = solve_coefficients(agent, (junction,), scen)
        p0, v0, _ = eval_trajectory(traj, 0.0)
        pf, vf, _ = eval_trajectory(traj, 10.0)
        assert np.abs(p0 - agent.start.p).max() < 1e-9
        assert np.abs(v0 - agent.start.v).max() < 1e-9
        assert np.abs(pf - agent.goal.p).max() < 1e-9
        assert np.abs(vf - agent.goal.v).max() < 1e-9

    def test_invalid_times_rejected(self):
        agent, scen = symmetric_agent_and_obstacle()
        for junctions in (
            (Junction(0, 0.0, 6.0), Junction(0, 0.0, 5.0)),
            (Junction(0, 0.0, 6.0), Junction(0, 0.0, 6.0)),
            (Junction(0, 0.0, 11.0),),
            (Junction(0, 0.0, 0.0),),
        ):
            with pytest.raises(OrderingError):
                solve_coefficients(agent, junctions, scen)

    def test_junction_too_close_to_start_is_ill_conditioned(self):
        agent, scen = symmetric_agent_and_obstacle()
        with pytest.raises(ConditioningError):
            solve_coefficients(agent, (Junction(0, math.pi / 2, 1e-4),), scen)


class TestResiduals:
    def test_empty_for_unconstrained(self):
        agent, scen = symmetric_agent_and_obstacle()
        assert residuals(agent, (), scen).shape == (0,)

    def test_zero_velocity_junction_annihilates_residuals(self):
        # Out-and-back transfer: the turnaround point has zero velocity,
        # so both dot products vanish no matter the contact angle.
        agent = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(0, 0),
                          t0=0.0, tf_nominal=10.0)
        obstacle = Obstacle(id=0, center=(4.0, 0.0), radius=0.5)
        scen = Scenario(agents=(agent,), obstacles=(obstacle,))
        junction = Junction(obstacle_id=0, theta=math.pi, time=5.0)
        res = residuals(agent, (junction,), scen)
        traj = solve_coefficients(agent, (junction,), scen)
        _, v, _ = eval_trajectory(traj, 5.0)
        assert np.linalg.norm(v) < 1e-9
        assert np.abs(res).max() < 1e-8

    def test_symmetric_guess_has_zero_tangency(self):
        agent, scen = symmetric_agent_and_obstacle()
        junction = Junction(obstacle_id=0, theta=math.pi / 2, time=5.0)
        res = residuals(agent, (junction,), scen)
        assert res.shape == (2,)
        assert abs(res[0]) < 1e-9  # tangency vanishes by symmetry


class TestResidualJacobian:
    @staticmethod
    def central_differences(agent, junctions, scen, step=1e-6):
        params = np.array([v for j in junctions for v in (j.theta, j.time)])

        def at(p):
            return tuple(
                Junction(j.obstacle_id, float(p[2 * k]), float(p[2 * k + 1]))
                for k, j in enumerate(junctions)
            )

        jac = np.empty((params.size, params.size))
        for i in range(params.size):
            up, down = params.copy(), params.copy()
            up[i] += step
            down[i] -= step
            jac[:, i] = (
                residuals(agent, at(up), scen) - residuals(agent, at(down), scen)
            ) / (2.0 * step)
        return jac

    @pytest.mark.parametrize("case", ["one", "two", "three_crowded"])
    def test_matches_central_differences(self, case):
        agent, scen, junctions = junction_case(case)
        params, fixed = _setup(agent, junctions, scen)
        exact = _residual_jacobian(_spline(params, fixed), fixed)
        approx = self.central_differences(agent, junctions, scen)
        assert exact.shape == (2 * len(junctions),) * 2
        # relative to each residual's own gradient scale
        error = np.abs(exact - approx).max(axis=1)
        assert np.all(error <= 1e-5 * np.abs(exact).max(axis=1))


class TestSolveJunctions:
    def test_unconstrained_is_immediate(self):
        agent, scen = symmetric_agent_and_obstacle()
        traj, report = solve_junctions(agent, (), scen)
        assert report.converged
        assert report.residual_norm == 0.0
        assert report.iterations == 0
        assert report.termination == "converged"
        assert len(traj.segments) == 1

    def test_symmetric_convergence(self):
        agent, scen = symmetric_agent_and_obstacle()
        start = Junction(obstacle_id=0, theta=math.pi / 2, time=5.0)
        traj, report = solve_junctions(agent, (start,), scen)
        assert report.converged
        assert report.residual_norm <= 1e-7
        junction = report.junction_sequence[0]
        assert junction.time == pytest.approx(5.0, abs=1e-3)
        assert abs(junction.theta) == pytest.approx(math.pi / 2, abs=1e-3)
        obs = scen.obstacles[0]
        point = contact_point(obs, 1.0, junction.theta)
        assert abs(constraint_value(point, obs.center, 1.0)) < 1e-6

    def test_converges_from_perturbed_guess(self):
        agent, scen = symmetric_agent_and_obstacle()
        start = Junction(obstacle_id=0, theta=math.pi / 2 + 0.4, time=4.1)
        traj, report = solve_junctions(agent, (start,), scen)
        assert report.converged
        assert report.residual_norm <= 1e-7
        assert report.junction_sequence[0].time == pytest.approx(5.0, abs=1e-3)

    def test_margins_enforced(self):
        agent, scen = symmetric_agent_and_obstacle()
        start = Junction(obstacle_id=0, theta=math.pi / 2, time=0.0001)
        traj, report = solve_junctions(agent, (start,), scen)
        for junction in report.junction_sequence:
            assert junction.time >= agent.t0 + solver.TIME_MARGIN - 1e-12
            assert junction.time <= agent.tf_nominal - solver.TIME_MARGIN + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(-math.pi, math.pi),
            st.one_of(st.floats(-1.0, 11.0), st.floats(0.0, 1e-3), st.just(5.0)),
        ),
        min_size=1, max_size=4,
    ))
    def test_clamped_iterates_are_never_ill_conditioned(self, drawn):
        # times outside the horizon, crowding t0, or duplicated
        agent, scen = symmetric_agent_and_obstacle()
        start = tuple(Junction(0, theta, t) for theta, t in drawn)
        traj, report = solve_junctions(agent, start, scen)
        knots = [agent.t0, *(j.time for j in report.junction_sequence),
                 agent.tf_nominal]
        assert np.diff(knots).min() >= solver.TIME_MARGIN - 1e-12
        assert [s.t_start for s in traj.segments] == knots[:-1]

    def test_energy_exceeds_unconstrained(self):
        agent, scen = symmetric_agent_and_obstacle()
        start = Junction(obstacle_id=0, theta=math.pi / 2, time=5.0)
        _, report = solve_junctions(agent, (start,), scen)
        straight = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        assert report.energy >= trajectory_energy(straight) - 1e-9

    def test_report_json_schema(self):
        agent, scen = symmetric_agent_and_obstacle()
        _, report = solve_junctions(
            agent, (Junction(0, math.pi / 2, 5.0),), scen
        )
        doc = report.to_json()
        assert set(doc) == {"converged", "residual", "iterations", "termination",
                            "energy", "degenerate_junctions", "junctions"}
        assert doc["termination"] == "converged"
        assert doc["junctions"][0].keys() == {"obstacle", "theta", "time"}
        assert doc["degenerate_junctions"] == []

    def test_report_json_lists_degenerate_junctions(self):
        report = SolveReport(
            converged=True, residual_norm=0.0, iterations=0, termination="converged",
            junction_sequence=(Junction(0, 0.0, 5.0),), energy=1.0,
            degenerate_junctions=(0,),
        )
        assert report.to_json()["degenerate_junctions"] == [0]


class TestInitialGuess:
    def test_symmetric_tie_break_left(self):
        agent, scen = symmetric_agent_and_obstacle()
        traj = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        violation = first_violation(traj, scen, 0)
        guess = initial_guess(traj, violation, scen, agent)
        assert guess.obstacle_id == 0
        assert guess.time == pytest.approx(5.0, abs=1e-6)
        assert guess.theta == pytest.approx(math.pi / 2, abs=1e-9)

    def test_offset_obstacle_points_to_near_side(self):
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=10.0)
        obstacle = Obstacle(id=0, center=(5.0, 0.3), radius=0.75)
        scen = Scenario(agents=(agent,), obstacles=(obstacle,))
        traj = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        violation = first_violation(traj, scen, 0)
        guess = initial_guess(traj, violation, scen, agent)
        # path passes below the center, so the contact guess points down
        assert guess.theta == pytest.approx(-math.pi / 2, abs=0.05)

    def test_grazing_violation_keeps_time_in_window(self):
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=10.0)
        # inflated radius 1.0 grazes the path by a hair
        obstacle = Obstacle(id=0, center=(5.0, 0.999999), radius=0.75)
        scen = Scenario(agents=(agent,), obstacles=(obstacle,))
        traj = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        violation = first_violation(traj, scen, 0)
        assert violation is not None
        guess = initial_guess(traj, violation, scen, agent)
        combined = inflated_radius(obstacle, agent)
        p, _, _ = eval_trajectory(traj, guess.time)
        assert constraint_value(p, obstacle.center, combined) > 0

    def test_time_outside_every_window_rejected(self):
        agent, scen = symmetric_agent_and_obstacle()
        traj = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        elsewhere = ViolationRecord(time=1.0, constraint=0, depth=0.1)
        with pytest.raises(ValueError, match="not violated at t=1.0"):
            initial_guess(traj, elsewhere, scen, agent)


class TestPlanAgent:
    def test_obstacle_free(self):
        agent = AgentSpec(id=0, radius=0.5, start=rest(0, 0), goal=rest(5, 5),
                          t0=0.0, tf_nominal=8.0)
        scen = Scenario(agents=(agent,), obstacles=())
        traj, report = plan_agent(agent, scen)
        assert report.converged
        assert report.junction_sequence == ()
        assert len(traj.segments) == 1

    def test_symmetric_single_obstacle(self):
        agent, scen = symmetric_agent_and_obstacle()
        traj, report = plan_agent(agent, scen)
        assert report.converged
        assert len(report.junction_sequence) == 1
        assert first_violation(traj, scen, 0) is None
        straight = solve_boundary(agent.start, agent.goal, 0.0, 10.0)
        assert report.energy > trajectory_energy(straight)

    def test_corridor_two_junctions_ordered(self):
        agent = AgentSpec(id=0, radius=0.2, start=rest(0, 0), goal=rest(20, 0),
                          t0=0.0, tf_nominal=20.0)
        obstacles = (
            Obstacle(id=0, center=(6.0, 0.0), radius=0.8),
            Obstacle(id=1, center=(14.0, 0.0), radius=0.8),
        )
        scen = Scenario(agents=(agent,), obstacles=obstacles)
        traj, report = plan_agent(agent, scen)
        assert report.converged
        assert len(report.junction_sequence) == 2
        times = [j.time for j in report.junction_sequence]
        assert times[0] < times[1]
        assert first_violation(traj, scen, 0) is None

    def test_graze_between_samples_gets_a_junction(self):
        # 1 um inside the inflated circle for about 1.9 ms near t = 5.0017
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=10.0)
        obstacle = Obstacle(id=0, center=(5.0025, 0.999999), radius=0.75)
        scen = Scenario(agents=(agent,), obstacles=(obstacle,))
        traj, report = plan_agent(agent, scen)
        assert report.converged
        assert len(report.junction_sequence) == 1
        assert first_violation(traj, scen, 0) is None

    @pytest.mark.parametrize("world, obstacles", [(75, [0, 1, 2, 2]),
                                                  (148, [1, 0, 3, 3])])
    def test_seed_window_runs_across_a_touching_junction(self, world, obstacles):
        # the path re-enters an obstacle it already touches at a junction;
        # the seed window must not split at that touch point
        agent, scen = reference_world(world)
        traj, report = plan_agent(agent, scen)
        assert report.converged
        assert [j.obstacle_id for j in report.junction_sequence] == obstacles
        assert first_violation(traj, scen, 0) is None

    def test_junction_budget_failure_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_JUNCTIONS", 1)
        agent = AgentSpec(id=0, radius=0.2, start=rest(0, 0), goal=rest(20, 0),
                          t0=0.0, tf_nominal=20.0)
        obstacles = (
            Obstacle(id=0, center=(6.0, 0.0), radius=0.8),
            Obstacle(id=1, center=(14.0, 0.0), radius=0.8),
        )
        scen = Scenario(agents=(agent,), obstacles=obstacles)
        with pytest.raises(PlanningFailure, match="junction budget of 1") as excinfo:
            plan_agent(agent, scen)
        assert excinfo.value.trajectory is not None
        assert excinfo.value.report is not None

    def test_unconverged_solve_ends_discovery(self, monkeypatch):
        agent, scen = reference_world(47)
        solves = []
        solve = solver.solve_junctions

        def counted(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        monkeypatch.setattr(solver, "solve_junctions", counted)
        with pytest.raises(PlanningFailure, match="did not converge") as excinfo:
            plan_agent(agent, scen)
        assert [report.converged for _, report in solves].count(False) == 1
        assert excinfo.value.trajectory is solves[-1][0]
        assert excinfo.value.report is solves[-1][1]

    def test_horizon_shorter_than_a_segment_fails_without_iterate(self):
        agent = AgentSpec(id=0, radius=0.25, start=rest(0, 0), goal=rest(1e-4, 0),
                          t0=0.0, tf_nominal=1e-4)
        scen = Scenario(agents=(agent,), obstacles=())
        with pytest.raises(PlanningFailure, match="ill-conditioned") as excinfo:
            plan_agent(agent, scen)
        assert isinstance(excinfo.value.__cause__, ConditioningError)
        assert excinfo.value.trajectory is None
        assert excinfo.value.report is None

    def test_horizon_too_short_for_a_junction_carries_last_iterate(self):
        # the obstacle blocks the path, but a 1.5 ms horizon cannot hold a
        # junction TIME_MARGIN = 1 ms from both of its ends
        agent = AgentSpec(id=3, radius=0.01, start=rest(0, 0), goal=rest(10, 0),
                          t0=0.0, tf_nominal=1.5e-3)
        scen = Scenario(agents=(agent,),
                        obstacles=(Obstacle(id=0, center=(5.0, 0.0), radius=0.5),))
        with pytest.raises(PlanningFailure, match="agent 3: horizon too short") \
                as excinfo:
            plan_agent(agent, scen)
        assert isinstance(excinfo.value.__cause__, OrderingError)
        assert excinfo.value.report.junction_sequence == ()
        assert first_violation(excinfo.value.trajectory, scen, 3) is not None

    def test_deterministic_reports(self):
        agent, scen = symmetric_agent_and_obstacle()
        _, first = plan_agent(agent, scen)
        _, second = plan_agent(agent, scen)
        assert first.residual_norm == second.residual_norm
        assert first.iterations == second.iterations
        assert first.energy == second.energy
        for a, b in zip(first.junction_sequence, second.junction_sequence):
            assert a.theta == b.theta
            assert a.time == b.time

    def test_continuity_at_junctions(self):
        agent, scen = symmetric_agent_and_obstacle()
        traj, report = plan_agent(agent, scen)
        for junction in report.junction_sequence:
            idx = [s.t_start for s in traj.segments].index(junction.time)
            pa, va, ua = eval_trajectory(piecewise(traj.segments[idx - 1]), junction.time)
            pb, vb, ub = eval_trajectory(piecewise(traj.segments[idx]), junction.time)
            assert np.abs(pa - pb).max() < 1e-9
            assert np.abs(va - vb).max() < 1e-9
            assert np.abs(ua - ub).max() < 1e-9


class TestStallRule:
    # The converging plans nearest the stall rule on reference worlds
    # 1-5000. On 2495, the nearest, the residual norm comes within 0.327
    # of the norm STALL_WINDOW iterations earlier; 2992 runs 121
    # iterations, the most of any solve in a converged plan.
    @pytest.mark.parametrize("seed, energy", [
        (2495, 29.085478187770867),
        (2992, 39.9287511889802),
        (1274, 20.894543991858676),
        (485, 25.348866164856553),
        (148, 40.539188306008775),
    ])
    def test_slow_converging_worlds_keep_their_plans(self, seed, energy):
        _, report = plan_agent(*reference_world(seed))
        assert report.converged and report.termination == "converged"
        assert report.energy == pytest.approx(energy, rel=1e-9)

    @pytest.mark.parametrize("seed, termination", [
        (2, "damping_cap"), (22, "stalled"), (41, "stalled"), (47, "stalled"),
    ])
    def test_failing_reference_worlds_stop_before_the_budget(self, seed, termination):
        with pytest.raises(PlanningFailure,
                           match=f"did not converge: {termination} after") as excinfo:
            plan_agent(*reference_world(seed))
        report = excinfo.value.report
        assert not report.converged
        assert report.termination == termination
        assert report.iterations < solver.MAX_ITERATIONS


class TestJunctionType:
    def test_theta_normalized(self):
        j = Junction(obstacle_id=0, theta=3 * math.pi, time=1.0)
        assert -math.pi <= j.theta < math.pi
        assert j.theta == pytest.approx(math.pi, abs=1e-12) or \
            j.theta == pytest.approx(-math.pi, abs=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Junction(obstacle_id=0, theta=math.nan, time=1.0)
