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
    Junction,
    KinematicState,
    Obstacle,
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
    _companion_roots,
    _windows,
    gen_world,
    violated_windows,
)

from conftest import piecewise, reference_world

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
        assert _windows(traj.local, traj.knots, centers, radii, level) == want
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
    return piecewise(
        # constant velocity along y = 3: a3 = a2 = 0, inside for |x| < 4
        ((-6.0, 3.0), (2.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, 6.0),
        # starts on the circle at (3, 4) and heads inward
        ((3.0, 4.0), (-1.0, -1.0), (0.1, 0.0), (0.0, 0.01), 6.0, 8.0),
        # parked on the circle
        ((3.0, 4.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 8.0, 9.0),
    )


class TestDegenerateRows:
    def test_each_row_kind_alone(self):
        traj = degenerate_trajectory()
        windows = [violated_windows(piecewise(seg), (0.0, 0.0), 5.0, 0.0)
                   for seg in traj.segments]
        for seg, got in zip(traj.segments, windows):
            single = piecewise(seg)
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
        assert _windows(traj.local, traj.knots, centers, radii, level) == want
        assert any(want)

    def test_parked_at_the_level_distance_is_an_all_zero_row(self):
        # distance sqrt(r**2 - level) = 4 with r = 5 and level 9
        traj = piecewise(((4.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0), 0.0, 1.0))
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


def bits(windows):
    """windows as the hex strings of their floats, so that == compares
    every bit, the sign of zero included."""
    return [[(float.hex(s), float.hex(e)) for s, e in found] for found in windows]


# row kinds the random paths mix in; all but "generic" make one segment's
# rows take the np.roots path, the last two only at level 0 for obstacle 0
ROW_KINDS = ("generic", "a3 = 0", "a3 = a2 = 0", "starts at the level", "all zero")


def random_case(rng, kind, n_seg, n_obs):
    """A random cubic path of n_seg segments, n_obs obstacle centers and
    their radii.

    Coefficients, centers and radii share one scale between 1e-3 and
    1e3. For the last two kinds one segment starts at m * (3, 4) from
    obstacle 0 of radius 5 m, m a power of two, so that g(0) = 0 holds
    exactly at level 0; for "all zero" it also stays parked there."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    knots = np.cumsum(np.concatenate([[rng.uniform(-5.0, 5.0)],
                                      rng.uniform(0.2, 3.0, n_seg)])).tolist()
    coef = rng.normal(size=(n_seg, 4, 2)) * scale
    special = int(rng.integers(n_seg))
    if kind == "a3 = 0":
        coef[special, 3] = 0.0
    elif kind == "a3 = a2 = 0":
        coef[special, 2:] = 0.0

    def path():
        return piecewise(*((*c, t0, t1) for c, t0, t1 in zip(coef, knots, knots[1:])))

    traj = path()
    # centers near points of the path, so that windows open and close
    times = rng.uniform(knots[0], knots[-1], n_obs)
    centers = np.array([eval_trajectory(traj, t)[0] for t in times])
    centers += rng.normal(size=(n_obs, 2)) * scale
    radii = (rng.uniform(0.2, 2.0, n_obs) * scale).tolist()
    if kind in ("starts at the level", "all zero"):
        m = 2.0 ** int(np.round(np.log2(scale)))
        centers[0] = m * rng.integers(-8, 9, 2)
        coef[special, 0] = centers[0] + m * np.array([3.0, 4.0])
        if kind == "all zero":
            coef[special, 1:] = 0.0
        radii[0] = 5.0 * m
        traj = path()
    return traj, centers, radii


class TestRandomPaths:
    def test_windows_keep_the_per_segment_bits(self, monkeypatch):
        rng = np.random.default_rng(3030)
        root_rows = []
        roots = np.roots

        def counted_roots(p):
            root_rows.append(p)
            return roots(p)

        opened = 0
        for case in range(150):
            kind = ROW_KINDS[case % len(ROW_KINDS)]
            traj, centers, radii = random_case(rng, kind, int(rng.integers(1, 5)),
                                               int(rng.integers(1, 7)))
            pair_level = radii[0] ** 2 - (radii[0] - 1e-9) ** 2
            for level in LEVELS + (pair_level,):
                want = [reference_violated_windows(traj, c, r, level)
                        for c, r in zip(centers, radii)]
                monkeypatch.setattr(np, "roots", counted_roots)
                got = _windows(traj.local, traj.knots, centers, radii, level)
                monkeypatch.setattr(np, "roots", roots)
                assert bits(got) == bits(want), (case, kind, level)
                opened += sum(map(bool, want))
        # windows open often, and every degenerate kind reached np.roots:
        # degree 4, degree 2, a root at s = 0 and the all-zero row
        assert opened > 1000
        degrees = {len(np.trim_zeros(np.asarray(p), "f")) - 1 for p in root_rows}
        assert {4, 2, -1} <= degrees
        assert any(p[-1] == 0 and p[0] != 0 for p in root_rows)


class TestCallBudget:
    def test_one_convolve_per_row_and_axis_and_one_eigvals(self, monkeypatch):
        # one _windows call makes 2 convolve calls for each of the
        # 3 segments x 6 obstacles, and its roots come from at most one
        # eigvals call, not one LAPACK call per row
        traj, centers, radii = random_case(np.random.default_rng(7), "generic", 3, 6)
        calls = {"convolve": 0, "eigvals": 0}
        convolve, eigvals = np.convolve, np.linalg.eigvals

        def counted_convolve(a, v, *args, **kwargs):
            calls["convolve"] += 1
            return convolve(a, v, *args, **kwargs)

        def counted_eigvals(a):
            calls["eigvals"] += 1
            return eigvals(a)

        monkeypatch.setattr(np, "convolve", counted_convolve)
        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        _windows(traj.local, traj.knots, centers, radii, 0.0)
        assert calls["convolve"] == 2 * 18
        assert calls["eigvals"] <= 1
