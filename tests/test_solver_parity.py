"""Bit parity of the junction solve with its earlier form.

solver._spline, solver._residuals and solver._residual_jacobian work on
Python floats, keep NumPy only for np.cos/np.sin, the boundary-velocity
product, the linear solves, the residual norm and the cube of 1/h, take
what a solve holds fixed from one _setup per solve_junctions call, and
build the Jacobian's right-hand side from its three nonzero rows per
parameter; the LM loop clamps times and wraps angles on floats. Every
element still goes through the same arithmetic, so every report and
every segment must keep its bits. The loop also stops at the first step
rejected at the damping cap, where the earlier loop went on repeating
that rejection. The reference below keeps the array spline, the dense
Jacobian and the loop as they were before these changes, with the same
stall rule: it stops once its residual norm, after STALL_WINDOW
iterations or more, is above half the norm STALL_WINDOW iterations
earlier. It reports a solve that reached the cap as stopped there.
"""

import itertools
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
import pytest

from junctionplan import (
    AgentSpec,
    Junction,
    KinematicState,
    Obstacle,
    PiecewiseTrajectory,
    PlanningFailure,
    Scenario,
    SolveReport,
    inflated_radius,
    plan_agent,
    solve_junctions,
    trajectory_energy,
)
from junctionplan import solver
from junctionplan.errors import ConditioningError, OrderingError
from junctionplan.solver import (
    DEGENERATE_SPEED,
    MAX_ITERATIONS,
    MIN_SEGMENT,
    RESIDUAL_TOL,
    STALL_WINDOW,
    TIME_MARGIN,
    _clamp_times,
    _residual_jacobian,
    _residuals,
    _setup,
    _spline,
    _wrap_angle,
)

from conftest import REFERENCE_SEEDS, piecewise, reference_world


class ReferenceSpline(NamedTuple):
    """The clamped cubic spline of one parameter vector, in local time."""

    knots: list[float]
    h: np.ndarray  # segment lengths, (n+1,)
    m: np.ndarray  # junction matrix M, (n, n)
    normal: np.ndarray  # outward contact normals, (n, 2)
    points: np.ndarray  # start, contact points and goal, (n+2, 2)
    vel: np.ndarray  # node velocities V, (n+2, 2)
    slope: np.ndarray  # (P_(j+1) - P_j) / h_j, (n+1, 2)
    a2: np.ndarray  # local coefficients of s**2 per segment, (n+1, 2)
    a3: np.ndarray  # local coefficients of s**3 per segment, (n+1, 2)


def reference_spline(
    agent: AgentSpec, params: np.ndarray, centers: np.ndarray, radii: np.ndarray
) -> ReferenceSpline:
    """The junction system at the parameters, as _spline solved it."""
    times = params[1::2]
    n = len(times)
    knots = [agent.t0, *times.tolist(), agent.tf_nominal]
    h = np.empty(n + 1)
    h[:-1] = times
    h[-1] = agent.tf_nominal
    h[1:] -= times
    h[0] -= agent.t0
    if not np.all(h > 0):
        raise OrderingError(
            f"junction times {knots[1:-1]} must be strictly increasing inside "
            f"({agent.t0}, {agent.tf_nominal})"
        )
    if h.min() < MIN_SEGMENT:
        raise ConditioningError(
            f"segment of {h.min():.3e} s is shorter than {MIN_SEGMENT:.0e} s; "
            "junction times too close together or to the boundary"
        )
    theta = params[0::2]
    normal = np.empty((n, 2))
    np.cos(theta, out=normal[:, 0])
    np.sin(theta, out=normal[:, 1])
    points = np.empty((n + 2, 2))
    points[0] = agent.start.p
    points[1:-1] = centers + radii[:, None] * normal
    points[-1] = agent.goal.p
    inv = (1.0 / h)[:, None]
    slope = np.diff(points, axis=0) * inv
    # row i-1 holds the coefficients of V_(i-1), V_i, V_(i+1): in the
    # flat band they are the three diagonals of stride n + 3
    band = np.zeros((n, n + 2))
    diagonals = band.reshape(-1)
    diagonals[0::n + 3] = 2.0 * inv[:-1, 0]
    diagonals[1::n + 3] = 4.0 * (inv[:-1, 0] + inv[1:, 0])
    diagonals[2::n + 3] = 2.0 * inv[1:, 0]
    rhs = 6.0 * (slope[:-1] * inv[:-1] + slope[1:] * inv[1:])
    rhs -= band[:, [0, -1]] @ np.stack([agent.start.v, agent.goal.v])
    m = band[:, 1:-1]
    vel = np.empty((n + 2, 2))
    vel[0] = agent.start.v
    vel[1:-1] = np.linalg.solve(m, rhs)
    vel[-1] = agent.goal.v
    a3 = (vel[:-1] + vel[1:] - 2.0 * slope) * inv**2
    a2 = (3.0 * slope - 2.0 * vel[:-1] - vel[1:]) * inv
    return ReferenceSpline(knots, h, m, normal, points, vel, slope, a2, a3)


def reference_trajectory(s: ReferenceSpline) -> PiecewiseTrajectory:
    """The spline's segments, each in its own local time."""
    return piecewise(*(
        (s.points[k], s.vel[k], s.a2[k], s.a3[k], s.knots[k], s.knots[k + 1])
        for k in range(len(s.h))
    ))


def reference_geometry(
    agent: AgentSpec, junctions: Sequence[Junction], scenario: Scenario
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter vector, obstacle centers and inflated radii of junctions."""
    obstacles = [scenario.obstacle(j.obstacle_id) for j in junctions]
    return (
        np.array([v for j in junctions for v in (j.theta, j.time)], dtype=float),
        np.array([o.center for o in obstacles], dtype=float).reshape(-1, 2),
        np.array([inflated_radius(o, agent) for o in obstacles], dtype=float),
    )


def reference_residuals(s: ReferenceSpline) -> np.ndarray:
    """(tangency, jump) residuals per junction, read from V_i and a3;
    the control slope on segment j is 6 a3_j."""
    v = s.vel[1:-1]
    res = np.empty(2 * len(v))
    res[0::2] = np.sum(v * s.normal, axis=1)
    res[1::2] = 6.0 * np.sum((s.a3[:-1] - s.a3[1:]) * v, axis=1)
    return res


def reference_residual_jacobian(s: ReferenceSpline, radii: np.ndarray) -> np.ndarray:
    """The exact Jacobian, as _residual_jacobian built it."""
    n = len(s.h) - 1
    k = np.arange(n)
    inv = (1.0 / s.h)[:, None, None]
    # d[node or segment, parameter, axis]
    d_normal = np.stack([-s.normal[:, 1], s.normal[:, 0]], axis=1)
    d_points = np.zeros((n + 2, 2 * n, 2))
    d_points[k + 1, 2 * k] = radii[:, None] * d_normal
    d_h = np.zeros((n + 1, 2 * n, 1))
    d_h[k, 2 * k + 1] = 1.0
    d_h[k + 1, 2 * k + 1] = -1.0
    d_chord = np.diff(d_points, axis=0)
    v0, v1, slope = s.vel[:-1, None], s.vel[1:, None], s.slope[:, None]
    d_u_end = (d_h * (12.0 * slope - 2.0 * v0 - 4.0 * v1) - 6.0 * d_chord) * inv**2
    d_u_start = (6.0 * d_chord - d_h * (12.0 * slope - 4.0 * v0 - 2.0 * v1)) * inv**2
    d_vel = np.zeros((n + 2, 2 * n, 2))
    d_vel[1:-1] = -np.linalg.solve(
        s.m, (d_u_end[:-1] - d_u_start[1:]).reshape(n, -1)
    ).reshape(n, 2 * n, 2)
    d_a3 = (d_vel[:-1] + d_vel[1:] - 2.0 * d_chord * inv) * inv**2 + (
        d_h * (6.0 * slope - 2.0 * (v0 + v1)) * inv**3
    )
    v, dv = s.vel[1:-1], d_vel[1:-1]
    jac = np.empty((2 * n, 2 * n))
    jac[0::2] = np.einsum("kpa,ka->kp", dv, s.normal)
    jac[2 * k, 2 * k] += np.sum(v * d_normal, axis=1)
    jac[1::2] = 6.0 * (
        np.einsum("kpa,ka->kp", d_a3[:-1] - d_a3[1:], v)
        + np.einsum("kpa,ka->kp", dv, s.a3[:-1] - s.a3[1:])
    )
    return jac


def reference_clamp_times(
    times: np.ndarray, t0: float, tf: float, margin: float
) -> np.ndarray:
    """Clamp junction times into [t0+margin, tf-margin] with pairwise
    margins between neighbors, preserving order."""
    clamped = np.clip(times, t0 + margin, tf - margin)
    for k in range(1, len(clamped)):
        clamped[k] = max(clamped[k], clamped[k - 1] + margin)
    if len(clamped):
        clamped[-1] = min(clamped[-1], tf - margin)
    for k in range(len(clamped) - 2, -1, -1):
        clamped[k] = min(clamped[k], clamped[k + 1] - margin)
    if len(clamped) and (
        clamped[0] < t0 + margin - 1e-12
        or any(b - a < margin - 1e-12 for a, b in zip(clamped, clamped[1:]))
    ):
        raise OrderingError("horizon too short for the requested junction count")
    return clamped


def reference_solve_junctions(
    agent: AgentSpec,
    initial_junctions: tuple[Junction, ...],
    scenario: Scenario,
) -> tuple[PiecewiseTrajectory, SolveReport]:
    """The LM loop as it ran before the fast-forward at the damping cap,
    with the stall rule. Its report counts a solve that reached the cap
    as stopped at the first rejection there."""
    junctions = tuple(initial_junctions)
    t0, tf = agent.t0, agent.tf_nominal
    params, centers, radii = reference_geometry(agent, junctions, scenario)
    params[1::2] = reference_clamp_times(params[1::2], t0, tf, TIME_MARGIN)
    spline = reference_spline(agent, params, centers, radii)
    res = reference_residuals(spline)

    norm = float(np.linalg.norm(res))
    damping = 1e-3
    iterations = 0
    history = []
    capped = None  # the iteration of the first rejection at the cap
    jac = None
    while iterations < MAX_ITERATIONS and norm > RESIDUAL_TOL:
        if (iterations >= STALL_WINDOW
                and norm > 0.5 * history[iterations - STALL_WINDOW]):
            break
        history.append(norm)
        iterations += 1
        if jac is None:
            jac = reference_residual_jacobian(spline, radii)
            gram = jac.T @ jac
            rhs = -jac.T @ res
            # Marquardt scaling keeps the damping visible whatever the
            # magnitude of the residual surface.
            scale = np.diag(np.maximum(np.diag(gram), 1e-30))
        try:
            step = np.linalg.solve(gram + damping * scale, rhs)
        except np.linalg.LinAlgError:
            if damping == 1e12 and capped is None:
                capped = iterations
            damping = min(damping * 10.0, 1e12)
            continue
        candidate = params + step
        candidate[1::2] = reference_clamp_times(candidate[1::2], t0, tf, TIME_MARGIN)
        candidate[0::2] = [_wrap_angle(v) for v in candidate[0::2]]
        cand_spline = reference_spline(agent, candidate, centers, radii)
        cand_res = reference_residuals(cand_spline)
        cand_norm = float(np.linalg.norm(cand_res))
        if cand_norm < norm:
            params, spline, res, norm = candidate, cand_spline, cand_res, cand_norm
            damping = max(damping * 0.3, 1e-12)
            jac = None
        else:
            if damping == 1e12 and capped is None:
                capped = iterations
            damping = min(damping * 10.0, 1e12)

    if norm <= RESIDUAL_TOL:
        termination = "converged"
    elif capped is not None:
        termination, iterations = "damping_cap", capped
    elif iterations == MAX_ITERATIONS:
        termination = "max_iterations"
    else:
        termination = "stalled"
    traj = reference_trajectory(spline)
    junctions = tuple(
        Junction(obstacle_id=j.obstacle_id, theta=theta, time=t)
        for j, theta, t in zip(junctions, params[0::2].tolist(), spline.knots[1:-1])
    )
    speeds = np.linalg.norm(spline.vel[1:-1], axis=1)
    degenerate = tuple(np.flatnonzero(speeds < DEGENERATE_SPEED).tolist())
    report = SolveReport(
        converged=norm <= RESIDUAL_TOL,
        residual_norm=norm,
        iterations=iterations,
        termination=termination,
        junction_sequence=junctions,
        energy=trajectory_energy(traj),
        degenerate_junctions=degenerate,
    )
    return traj, report




def bits(x) -> bytes:
    return np.float64(x).tobytes()


def report_bits(report):
    return (
        report.converged,
        bits(report.residual_norm),
        report.iterations,
        report.termination,
        bits(report.energy),
        report.degenerate_junctions,
        tuple((j.obstacle_id, bits(j.theta), bits(j.time))
              for j in report.junction_sequence),
    )


def segment_bits(traj):
    return [
        (seg.p.tobytes(), seg.v.tobytes(), seg.a2.tobytes(), seg.a3.tobytes(),
         bits(seg.t_start), bits(seg.t_end))
        for seg in traj.segments
    ]


def assert_same_solve(got, want):
    (traj, report), (ref_traj, ref_report) = got, want
    assert report_bits(report) == report_bits(ref_report)
    assert segment_bits(traj) == segment_bits(ref_traj)


def greedy_rounds(agent, scenario):
    """The junctions of every solve plan_agent makes, in order."""
    rounds = []
    solve = solver.solve_junctions

    def recorded(agent, junctions, scenario):
        rounds.append(junctions)
        return solve(agent, junctions, scenario)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "solve_junctions", recorded)
        try:
            plan_agent(agent, scenario)
        except PlanningFailure:
            pass
    return rounds


def assert_rounds_match(agent, scenario):
    rounds = greedy_rounds(agent, scenario)
    assert rounds
    for junctions in rounds:
        assert_same_solve(solve_junctions(agent, junctions, scenario),
                          reference_solve_junctions(agent, junctions, scenario))
    return rounds


def moving_boundary():
    """One obstacle across the chord of an agent that starts and ends
    moving, so the junction row of M V = R carries both boundary
    velocities."""
    agent = AgentSpec(id=0, radius=0.25,
                      start=KinematicState((0.0, 0.0), (1.5, 0.8)),
                      goal=KinematicState((10.0, 0.5), (-0.4, 1.2)),
                      t0=0.5, tf_nominal=9.5)
    obstacle = Obstacle(id=0, center=(5.0, 0.4), radius=0.75)
    return agent, Scenario(agents=(agent,), obstacles=(obstacle,))


class TestSolveParity:
    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    def test_every_greedy_round_of_the_reference_worlds(self, seed):
        assert_rounds_match(*reference_world(seed))

    # the longest converging solves on worlds 1-300 (up to 153 LM
    # iterations), where a drift in the last bit would build up
    @pytest.mark.parametrize("seed", (53, 80, 148))
    def test_long_solves_beyond_the_reference_worlds(self, seed):
        agent, scen = reference_world(seed)
        rounds = assert_rounds_match(agent, scen)
        reports = [solve_junctions(agent, junctions, scen)[1] for junctions in rounds]
        assert max(r.iterations for r in reports if r.converged) > 50

    def test_symmetric_scenario(self, symmetric_scenario):
        agent = symmetric_scenario.agents[0]
        rounds = assert_rounds_match(agent, symmetric_scenario)
        assert [len(junctions) for junctions in rounds] == [0, 1]

    def test_moving_boundary_with_one_junction(self):
        agent, scen = moving_boundary()
        start = (Junction(obstacle_id=0, theta=1.2, time=4.0),)
        traj, report = solve_junctions(agent, start, scen)
        assert len(report.junction_sequence) == 1
        assert_same_solve((traj, report), reference_solve_junctions(agent, start, scen))
        assert_rounds_match(agent, scen)


class TestEvaluationParity:
    @pytest.mark.parametrize("seed", range(8))
    def test_spline_and_jacobian(self, seed):
        rng = np.random.default_rng(seed)
        agent, scen = moving_boundary() if seed % 2 else reference_world(seed + 1)
        count = 1 + seed % 4
        obstacles = rng.integers(len(scen.obstacles), size=count)
        times = np.sort(rng.uniform(agent.t0 + 0.5, agent.tf_nominal - 0.5, count))
        junctions = tuple(
            Junction(obstacle_id=int(o), theta=float(rng.uniform(-np.pi, np.pi)),
                     time=float(t))
            for o, t in zip(obstacles, times)
        )
        params, fixed = _setup(agent, junctions, scen)
        got = _spline(params, fixed)
        want = reference_spline(agent, *reference_geometry(agent, junctions, scen))
        assert np.array(got.vel).tobytes() == want.vel.tobytes()
        assert segment_bits(solver._trajectory(got)) == segment_bits(
            reference_trajectory(want))
        assert _residuals(got).tobytes() == reference_residuals(want).tobytes()
        _, _, radii = reference_geometry(agent, junctions, scen)
        assert (_residual_jacobian(got, fixed).tobytes()
                == reference_residual_jacobian(want, radii).tobytes())

    def test_clamped_times(self):
        rng = np.random.default_rng(7)
        for count in range(1, 6):
            for _ in range(50):
                times = np.sort(rng.uniform(-1.0, 11.0, count))
                want = reference_clamp_times(times.copy(), 0.0, 10.0, TIME_MARGIN)
                got = _clamp_times(times.tolist(), 0.0, 10.0, TIME_MARGIN)
                assert np.array(got).tobytes() == want.tobytes()


def first_rejection_at_the_cap(norms):
    """Index of the first candidate the earlier loop rejected with its
    damping already at 1e12, replayed from the start's residual norm and
    the norms of its candidates in order."""
    norm, damping = norms[0], 1e-3
    for index, candidate in enumerate(norms[1:], start=1):
        if candidate < norm:
            norm, damping = candidate, max(damping * 0.3, 1e-12)
        elif damping == 1e12:
            return index
        else:
            damping = min(damping * 10.0, 1e12)
    return None


def first_stall(norms):
    """Iterations the earlier loop ran before the stall rule stopped it,
    replayed from the start's residual norm and the norms of its
    candidates in order: only improving steps are accepted, so the norm
    after k iterations is the least of the first k + 1."""
    best = list(itertools.accumulate(norms, min))
    return next(k for k in range(STALL_WINDOW, len(best))
                if best[k] > 0.5 * best[k - STALL_WINDOW])


class TestDampingCap:
    def test_world_2_stops_at_the_first_rejection_at_the_cap(self, monkeypatch):
        agent, scen = reference_world(2)
        junctions = greedy_rounds(agent, scen)[-1]
        reference, spline = reference_spline, solver._spline
        want_params, want_norms, got_params = [], [], []

        def reference_counted(agent, params, centers, radii):
            want_params.append(params.tobytes())
            s = reference(agent, params, centers, radii)
            want_norms.append(float(np.linalg.norm(reference_residuals(s))))
            return s

        def counted(params, fixed):
            got_params.append(np.array(params).tobytes())
            return spline(params, fixed)

        monkeypatch.setitem(globals(), "reference_spline", reference_counted)
        monkeypatch.setattr(solver, "_spline", counted)
        want = reference_solve_junctions(agent, junctions, scen)
        got = solve_junctions(agent, junctions, scen)
        assert_same_solve(got, want)
        assert got[1].iterations == 65
        assert got[1].termination == "damping_cap"
        assert not got[1].converged
        # the start and one candidate per iteration up to the first step
        # rejected at the cap; the earlier loop went on until it stalled,
        # each candidate a repeat of that last one
        assert len(want_params) == first_stall(want_norms) + 1
        assert len(got_params) == first_rejection_at_the_cap(want_norms) + 1
        assert len(got_params) <= 66
        assert got_params == want_params[:len(got_params)]
        assert set(want_params[len(got_params) - 1:]) == {got_params[-1]}
