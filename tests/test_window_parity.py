"""Bit parity of the batched violation windows with the per-segment form.

world._windows finds the roots of every (obstacle, segment) row of
g - level from one stacked eigenvalue call on companion matrices, where
the per-segment form below called np.roots once per row. np.roots is
the eigenvalues of that same companion matrix, so the roots, and from
them every window and violation record, must keep their bits. The
reference keeps the per-segment body as it was before the batching.
"""

import numpy as np
import pytest

from junctionplan import (
    AgentSpec,
    CubicSegment,
    Junction,
    KinematicState,
    Obstacle,
    PiecewiseTrajectory,
    PlanningFailure,
    Scenario,
    ViolationRecord,
    eval_trajectory,
    first_violation,
    inflated_radius,
    plan_agent,
    solve_coefficients,
)
from junctionplan.world import (
    SAFETY_TOL,
    Bounds,
    _coefficients,
    _companion_roots,
    _windows,
    gen_world,
    violated_windows,
)

from conftest import reference_world

LEVELS = (-SAFETY_TOL, 0.0, SAFETY_TOL)


def reference_violated_windows(traj, center, r, level):
    """One np.roots call per segment, as violated_windows did it."""
    windows = []
    for seg in traj.segments:
        t0, h = seg.t_start, seg.t_end - seg.t_start
        # p(s) - center in local time, lowest power first, shape (4, 2)
        d = np.array([seg.p - center, seg.v, seg.a2, seg.a3])
        poly = -(np.convolve(d[:, 0], d[:, 0]) + np.convolve(d[:, 1], d[:, 1]))
        poly[0] += r**2 - level
        coef = poly[::-1]
        roots = np.roots(coef)
        roots = roots.real[roots.imag == 0]
        roots = np.sort(roots[(roots > 0) & (roots < h)])
        cuts = np.concatenate([[0.0], roots, [h]])
        violated = np.polyval(coef, 0.5 * (cuts[:-1] + cuts[1:])) > 0
        times = [t0, *(t0 + roots).tolist(), seg.t_end]
        for start, end, bad in zip(times, times[1:], violated.tolist()):
            if not bad:
                continue
            if windows and windows[-1][1] >= start:
                windows[-1] = (windows[-1][0], end)
            else:
                windows.append((start, end))
    return windows


def reference_first_violation(traj, scenario, agent_id):
    agent = scenario.agent(agent_id)
    first = None
    for obs in scenario.obstacles:
        combined = inflated_radius(obs, agent)
        windows = reference_violated_windows(traj, obs.center, combined, SAFETY_TOL)
        if windows and (first is None or windows[0][0] < first[0][0]):
            first = (windows[0], obs, combined)
    if first is None:
        return None
    (start, end), obs, combined = first
    time = 0.5 * (start + end)
    p, _, _ = eval_trajectory(traj, time)
    depth = combined - float(np.linalg.norm(p - obs.center))
    return ViolationRecord(time=time, constraint=obs.id, depth=depth)


def assert_same_record(got, want):
    if want is None:
        assert got is None
        return
    assert (got.time, got.constraint, got.depth) == (want.time, want.constraint,
                                                    want.depth)


def assert_windows_match(traj, scenario, agent):
    """Every obstacle at every level, alone and batched, plus the record."""
    centers = np.array([o.center for o in scenario.obstacles])
    radii = [inflated_radius(o, agent) for o in scenario.obstacles]
    for level in LEVELS:
        want = [reference_violated_windows(traj, c, r, level)
                for c, r in zip(centers, radii)]
        assert _windows(*_coefficients(traj), centers, radii, level) == want
        for c, r, w in zip(centers, radii, want):
            assert violated_windows(traj, c, r, level) == w
    assert_same_record(first_violation(traj, scenario, agent.id),
                       reference_first_violation(traj, scenario, agent.id))


def rest(x, y):
    return KinematicState.at_rest(x, y)


class TestCompanionRoots:
    def test_stacked_eigvals_equal_np_roots_bit_for_bit(self):
        rng = np.random.default_rng(20241)
        count = 4000
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=(count, 7))
        coef = rng.normal(size=(count, 7)) * scales
        # some rows with a double root, which eigvals splits into a
        # complex pair or two nearby reals
        coef[::50] = [np.polymul(np.poly([u, u]), rng.normal(size=5) * s)
                      for u, s in zip(rng.uniform(0, 2, count // 50),
                                      10.0 ** rng.uniform(-3, 3, count // 50))]
        assert np.all(coef[:, 0] != 0) and np.all(coef[:, -1] != 0)
        roots = _companion_roots(coef)
        for got, row in zip(roots, coef):
            want = np.roots(row)
            assert np.array_equal(got.real, want.real)
            assert np.array_equal(got.imag, np.imag(want))


class TestWindowsParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_junction_plans(self, seed):
        rng = np.random.default_rng(seed)
        agent = AgentSpec(id=0, radius=0.5, start=rest(-10, -10),
                          goal=rest(10, 10), t0=0.0, tf_nominal=10.0)
        scen = gen_world(100 + seed, 2 + seed % 5, Bounds(-8, -8, 8, 8), (agent,))
        count = 1 + seed % 4
        times = np.sort(rng.uniform(0.5, 9.5, count))
        junctions = tuple(
            Junction(obstacle_id=int(rng.integers(len(scen.obstacles))),
                     theta=float(rng.uniform(-np.pi, np.pi)), time=float(t))
            for t in times
        )
        traj = solve_coefficients(agent, junctions, scen)
        assert_windows_match(traj, scen, agent)

    @pytest.mark.parametrize("world", [2, 3, 22, 41, 47])
    def test_planned_worlds(self, world):
        # converged plans touch their obstacles at the knots; failing ones
        # still cross them
        agent, scen = reference_world(world)
        try:
            traj, _ = plan_agent(agent, scen)
        except PlanningFailure as exc:
            traj = exc.trajectory
        assert_windows_match(traj, scen, agent)


def degenerate_trajectory():
    """Three segments whose rows against the obstacle at the origin with
    inflated radius 5 are, at level 0: of degree 2, with a root at s = 0,
    and all zero."""
    return PiecewiseTrajectory((
        # constant velocity along y = 3: a3 = a2 = 0, inside for |x| < 4
        CubicSegment((-6.0, 3.0), (2.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, 6.0),
        # starts on the circle at (3, 4) and heads inward
        CubicSegment((3.0, 4.0), (-1.0, -1.0), (0.1, 0.0), (0.0, 0.01), 6.0, 8.0),
        # parked on the circle
        CubicSegment((3.0, 4.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 8.0, 9.0),
    ))


class TestDegenerateRows:
    def test_each_row_kind_alone(self):
        traj = degenerate_trajectory()
        windows = [violated_windows(PiecewiseTrajectory((seg,)), (0.0, 0.0), 5.0, 0.0)
                   for seg in traj.segments]
        for seg, got in zip(traj.segments, windows):
            single = PiecewiseTrajectory((seg,))
            assert got == reference_violated_windows(single, np.zeros(2), 5.0, 0.0)
        (lower_degree,), (on_circle,), parked = windows
        assert lower_degree[0] == pytest.approx(1.0, abs=1e-12)
        assert lower_degree[1] == pytest.approx(5.0, abs=1e-12)
        assert on_circle[0] == 6.0
        assert parked == []

    @pytest.mark.parametrize("level", LEVELS + (9.0,))
    def test_mixed_with_companion_rows(self, level):
        # the degenerate rows of obstacle 0 sit between ordinary rows of
        # two other obstacles in one batch
        traj = degenerate_trajectory()
        centers = np.array([[0.0, 0.0], [1.0, 2.0], [-4.0, 3.5]])
        radii = [5.0, 1.5, 0.75]
        want = [reference_violated_windows(traj, c, r, level)
                for c, r in zip(centers, radii)]
        assert _windows(*_coefficients(traj), centers, radii, level) == want
        assert any(want)

    def test_parked_at_the_level_distance_is_an_all_zero_row(self):
        # distance sqrt(r**2 - level) = 4 with r = 5 and level 9
        seg = CubicSegment((4.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, 1.0)
        traj = PiecewiseTrajectory((seg,))
        assert violated_windows(traj, (0.0, 0.0), 5.0, 9.0) == []
        assert violated_windows(traj, (0.0, 0.0), 5.0, 9.0 - 1e-6) == [(0.0, 1.0)]

    def test_first_violation_on_degenerate_segments(self):
        agent = AgentSpec(id=0, radius=0.5, start=rest(-6, 3), goal=rest(3, 4),
                          t0=0.0, tf_nominal=9.0)
        scen = Scenario(agents=(agent,), obstacles=(
            Obstacle(id=0, center=(0.0, 0.0), radius=3.0),
            Obstacle(id=1, center=(-4.0, 7.0), radius=1.0),
        ))
        traj = degenerate_trajectory()
        record = first_violation(traj, scen, 0)
        assert record is not None
        assert_same_record(record, reference_first_violation(traj, scen, 0))
