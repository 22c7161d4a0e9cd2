"""Constrained trajectory generation through junction parameterization.

A junction is an instant where an obstacle constraint becomes active and
immediately inactive again: the path touches the inflated circle and
leaves. Fixing the junctions (which obstacle, where on the circle, and
when) makes the whole trajectory a clamped cubic spline through the
start, the contact points and the goal. Written in local time, each
segment is the cubic Hermite interpolant of its endpoint positions and
velocities, so the contact pins and position and velocity continuity
hold by construction. Control continuity at the n junctions leaves one
n x n tridiagonal system M(h) V = R(h, P) in the junction velocities,
shared by both axes and solved once with an x and a y column.

The two remaining optimality conditions per junction are nonlinear in
the contact angle and time:

  tangency   v(t_k) . n(theta_k) = 0, with n the outward contact normal,
  jump       (udot_before - udot_after) . v(t_k) = 0, where udot = 6*a3
             is constant on each segment.

An outer damped least-squares iteration drives both residuals to zero
over the stacked (theta_k, t_k) parameters. Its iterate is plain arrays:
the parameter vector, the spline's velocities and local coefficients,
and the residuals read from them; Junction objects and the
PiecewiseTrajectory are built once, when the solve returns, each
segment straight from the spline's local coefficients. The Jacobian is
exact: the velocity derivatives come from implicit differentiation of
M(h) V = R(h, P), one solve with two right-hand sides per parameter.
Activation sequences are discovered greedily: plan, find the first
violated obstacle, seed a junction there, replan. Violations and the
seed's time window are found exactly, from the roots of each segment's
obstacle constraint polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConditioningError,
    OrderingError,
    PlanningFailure,
)
from .trajectory import (
    CubicSegment,
    PiecewiseTrajectory,
    eval_trajectory,
    trajectory_energy,
)
from .world import (
    SAFETY_TOL,
    AgentSpec,
    Obstacle,
    Scenario,
    ViolationRecord,
    first_violation,
    inflated_radius,
    violated_windows,
)

# Least time between a junction and the horizon ends or its neighbors,
# in seconds; proposed junction times are clamped to keep it.
TIME_MARGIN = 1e-3

# Shortest segment the junction system accepts, in seconds: half of
# TIME_MARGIN, so clamped junction times never reach it. Only a horizon
# shorter than this, or junction times passed to solve_coefficients or
# residuals from outside the solver, do.
MIN_SEGMENT = 5e-4

# Levenberg-Marquardt iteration budget of one junction solve.
MAX_ITERATIONS = 200

# A junction solve converges when its residual 2-norm is at or below this.
RESIDUAL_TOL = 1e-7

# Damping bounds of the LM iteration. At MAX_DAMPING a rejected step
# leaves everything the next iteration reads unchanged.
MIN_DAMPING = 1e-12
MAX_DAMPING = 1e12

# Most junctions greedy discovery inserts before plan_agent gives up.
MAX_JUNCTIONS = 8

# Below this speed at a junction both residuals vanish identically and
# the contact angle is unobservable; flagged on the report.
DEGENERATE_SPEED = 1e-6

# Offsets smaller than this count as "path aims through the center",
# triggering the deterministic left-side contact guess.
CENTER_COINCIDENCE = 1e-12


def _wrap_angle(theta: float) -> float:
    """Normalize an angle into [-pi, pi)."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped >= math.pi:
        wrapped -= 2.0 * math.pi
    return wrapped


@dataclass(frozen=True, eq=False)
class Junction:
    """One constraint activation: which obstacle, where, and when."""

    obstacle_id: int
    theta: float
    time: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and np.isfinite(self.time)):
            raise ValueError("junction parameters must be finite")
        object.__setattr__(self, "theta", _wrap_angle(float(self.theta)))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one junction solve."""

    converged: bool
    residual_norm: float
    # LM iterations counted against MAX_ITERATIONS: a solve stopped by a
    # rejection at MAX_DAMPING counts the iterations that would only have
    # repeated it, so it reports MAX_ITERATIONS.
    iterations: int
    junction_sequence: tuple[Junction, ...]
    energy: float
    # Junction indices where |v| < DEGENERATE_SPEED; the residuals carry
    # no information there, so convergence is only nominal.
    degenerate_junctions: tuple[int, ...] = field(default=())

    def to_json(self) -> dict:
        return {
            "converged": self.converged,
            "residual": self.residual_norm,
            "iterations": self.iterations,
            "energy": self.energy,
            "degenerate_junctions": list(self.degenerate_junctions),
            "junctions": [
                {"obstacle": j.obstacle_id, "theta": j.theta, "time": j.time}
                for j in self.junction_sequence
            ],
        }


def contact_point(obstacle: Obstacle, combined_r: float, theta: float) -> np.ndarray:
    """Point on the inflated circle at contact angle theta."""
    return obstacle.center + combined_r * np.array(
        [math.cos(theta), math.sin(theta)]
    )


# Turns (cos, sin) columns, read in reverse, into the tangent (-sin, cos).
_ROTATE = np.array([-1.0, 1.0])


class _Fixed(NamedTuple):
    """What one junction solve holds fixed: the horizon, the boundary
    states and the junctions' obstacles, plus the index arrays and the
    time-derivative pattern that depend only on the junction count n."""

    t0: float
    tf: float
    points: np.ndarray  # start and goal positions in rows 0 and n+1, (n+2, 2)
    vel: np.ndarray  # start and goal velocities in rows 0 and n+1, (n+2, 2)
    ends: np.ndarray  # start and goal velocities, (2, 2)
    centers: np.ndarray  # obstacle centers, (n, 2)
    radii: np.ndarray  # inflated radii, (n, 1)
    node: np.ndarray  # node of junction k, k + 1, (n,)
    theta_col: np.ndarray  # parameter index of theta_k, 2k, (n,)
    d_h: np.ndarray  # dh_j/dt_k: +1 at j = k, -1 at j = k+1, (n+1, 2n, 1)


class _Spline(NamedTuple):
    """The clamped cubic spline of one parameter vector, in local time."""

    knots: list[float]
    inv: np.ndarray  # 1 / h_j per segment, (n+1, 1)
    inv2: np.ndarray  # (1 / h_j)**2 per segment, (n+1, 1)
    m: np.ndarray  # junction matrix M, (n, n)
    normal: np.ndarray  # outward contact normals, (n, 2)
    points: np.ndarray  # start, contact points and goal, (n+2, 2)
    vel: np.ndarray  # node velocities V, (n+2, 2)
    slope: np.ndarray  # (P_(j+1) - P_j) / h_j, (n+1, 2)
    a2: np.ndarray  # local coefficients of s**2 per segment, (n+1, 2)
    a3: np.ndarray  # local coefficients of s**3 per segment, (n+1, 2)


def _setup(
    agent: AgentSpec, junctions: Sequence[Junction], scenario: Scenario
) -> tuple[np.ndarray, _Fixed]:
    """Parameter vector (theta_0, t_0, theta_1, ...) of the junctions and
    what every spline of the agent through their obstacles shares."""
    obstacles = [scenario.obstacle(j.obstacle_id) for j in junctions]
    n = len(obstacles)
    k = np.arange(n)
    ends = np.stack([agent.start.v, agent.goal.v])
    points = np.zeros((n + 2, 2))
    points[0], points[-1] = agent.start.p, agent.goal.p
    vel = np.zeros((n + 2, 2))
    vel[0], vel[-1] = ends
    d_h = np.zeros((n + 1, 2 * n, 1))
    d_h[k, 2 * k + 1] = 1.0
    d_h[k + 1, 2 * k + 1] = -1.0
    fixed = _Fixed(
        t0=agent.t0,
        tf=agent.tf_nominal,
        points=points,
        vel=vel,
        ends=ends,
        centers=np.array([o.center for o in obstacles], dtype=float).reshape(-1, 2),
        radii=np.array([inflated_radius(o, agent) for o in obstacles],
                       dtype=float)[:, None],
        node=k + 1,
        theta_col=2 * k,
        d_h=d_h,
    )
    params = np.array([v for j in junctions for v in (j.theta, j.time)], dtype=float)
    return params, fixed


def _spline(params: np.ndarray, fixed: _Fixed) -> _Spline:
    """Solve the junction system at the parameters (theta_0, t_0, theta_1, ...).

    Segment j runs over [knot_j, knot_(j+1)] as P_j + V_j s + a2_j s^2 +
    a3_j s^3 with s the time since knot_j, so the contact pins and
    position and velocity continuity hold by construction. Control
    continuity at junction i is one row of M V = R, shared by both axes:

      (2/h_(i-1)) V_(i-1) + 4 (1/h_(i-1) + 1/h_i) V_i + (2/h_i) V_(i+1)
          = 6 (P_i - P_(i-1)) / h_(i-1)^2 + 6 (P_(i+1) - P_i) / h_i^2,

    with V_0 and V_(n+1) the boundary velocities moved to the right-hand
    side. M is strictly diagonally dominant, so a plain solve is stable
    once no segment is shorter than MIN_SEGMENT.
    """
    knots = [fixed.t0, *params[1::2].tolist(), fixed.tf]
    h = [b - a for a, b in zip(knots, knots[1:])]
    if not all(length > 0 for length in h):
        raise OrderingError(
            f"junction times {knots[1:-1]} must be strictly increasing inside "
            f"({fixed.t0}, {fixed.tf})"
        )
    if min(h) < MIN_SEGMENT:
        raise ConditioningError(
            f"segment of {min(h):.3e} s is shorter than {MIN_SEGMENT:.0e} s; "
            "junction times too close together or to the boundary"
        )
    n = len(h) - 1
    inv = (1.0 / np.array(h))[:, None]
    inv2 = inv**2
    normal = np.empty((n, 2))
    theta = params[0::2]
    np.cos(theta, out=normal[:, 0])
    np.sin(theta, out=normal[:, 1])
    points = fixed.points.copy()
    points[1:-1] = fixed.centers + fixed.radii * normal
    slope = (points[1:] - points[:-1]) * inv
    # row i-1 holds the coefficients of V_(i-1), V_i, V_(i+1): in the
    # flat band they are the three diagonals of stride n + 3
    band = np.zeros((n, n + 2))
    diagonals = band.reshape(-1)
    diagonals[0::n + 3] = 2.0 * inv[:-1, 0]
    diagonals[1::n + 3] = 4.0 * (inv[:-1, 0] + inv[1:, 0])
    diagonals[2::n + 3] = 2.0 * inv[1:, 0]
    rhs = 6.0 * (slope[:-1] * inv[:-1] + slope[1:] * inv[1:])
    rhs -= band[:, [0, -1]] @ fixed.ends
    m = band[:, 1:-1]
    vel = fixed.vel.copy()
    vel[1:-1] = np.linalg.solve(m, rhs)
    a3 = (vel[:-1] + vel[1:] - 2.0 * slope) * inv2
    a2 = (3.0 * slope - 2.0 * vel[:-1] - vel[1:]) * inv
    return _Spline(knots, inv, inv2, m, normal, points, vel, slope, a2, a3)


def _trajectory(s: _Spline) -> PiecewiseTrajectory:
    """The spline's segments, each in its own local time."""
    return PiecewiseTrajectory(segments=tuple(
        CubicSegment(s.points[k], s.vel[k], s.a2[k], s.a3[k], s.knots[k], s.knots[k + 1])
        for k in range(len(s.knots) - 1)
    ))


def solve_coefficients(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
) -> PiecewiseTrajectory:
    """Solve the junction system and split the result at junction times."""
    return _trajectory(_spline(*_setup(agent, junctions, scenario)))


def _residuals(s: _Spline) -> np.ndarray:
    """(tangency, jump) residuals per junction, read from V_i and a3;
    the control slope on segment j is 6 a3_j."""
    v = s.vel[1:-1]
    res = np.empty(2 * len(v))
    res[0::2] = (v * s.normal).sum(axis=1)
    res[1::2] = 6.0 * ((s.a3[:-1] - s.a3[1:]) * v).sum(axis=1)
    return res


def residuals(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
) -> np.ndarray:
    """Optimality residuals (tangency, jump) for each junction."""
    return _residuals(_spline(*_setup(agent, junctions, scenario)))


def _residual_jacobian(s: _Spline, fixed: _Fixed) -> np.ndarray:
    """Exact Jacobian of the junction residuals of the spline s.

    Columns follow the stacked parameters (theta_0, t_0, theta_1, ...).
    theta_k moves P_(k+1) by r (-sin, cos); t_k lengthens segment k and
    shortens segment k+1. With V held fixed, each moves the segments'
    start and end controls u = 2 a2 and 2 a2 + 6 a3 h, and so the rows
    f_i = u_end(i-1) - u_start(i) of M V - R; differentiating M V = R
    then gives every dV from one solve with 4n columns.
    """
    n = len(fixed.node)
    col = fixed.theta_col
    inv, inv2 = s.inv[:, :, None], s.inv2[:, :, None]
    # d[node or segment, parameter, axis]
    d_normal = s.normal[:, ::-1] * _ROTATE
    d_points = np.zeros((n + 2, 2 * n, 2))
    d_points[fixed.node, col] = fixed.radii * d_normal
    d_chord = d_points[1:] - d_points[:-1]
    d_h = fixed.d_h
    v0, v1, slope = s.vel[:-1, None], s.vel[1:, None], s.slope[:, None]
    chord6 = 6.0 * d_chord
    d_u_end = (d_h * (12.0 * slope - 2.0 * v0 - 4.0 * v1) - chord6) * inv2
    d_u_start = (chord6 - d_h * (12.0 * slope - 4.0 * v0 - 2.0 * v1)) * inv2
    d_vel = np.zeros((n + 2, 2 * n, 2))
    d_vel[1:-1] = -np.linalg.solve(
        s.m, (d_u_end[:-1] - d_u_start[1:]).reshape(n, -1)
    ).reshape(n, 2 * n, 2)
    d_a3 = (d_vel[:-1] + d_vel[1:] - 2.0 * d_chord * inv) * inv2 + (
        d_h * (6.0 * slope - 2.0 * (v0 + v1)) * inv**3
    )
    v, dv = s.vel[1:-1], d_vel[1:-1]
    jac = np.empty((2 * n, 2 * n))
    jac[0::2] = np.einsum("kpa,ka->kp", dv, s.normal)
    jac[col, col] += (v * d_normal).sum(axis=1)
    jac[1::2] = 6.0 * (
        np.einsum("kpa,ka->kp", d_a3[:-1] - d_a3[1:], v)
        + np.einsum("kpa,ka->kp", dv, s.a3[:-1] - s.a3[1:])
    )
    return jac


def _clamp_times(
    times: list[float], t0: float, tf: float, margin: float
) -> list[float]:
    """Clamp junction times into [t0+margin, tf-margin] with pairwise
    margins between neighbors, preserving order."""
    lo, hi = t0 + margin, tf - margin
    clamped = [min(max(t, lo), hi) for t in times]
    for k in range(1, len(clamped)):
        clamped[k] = max(clamped[k], clamped[k - 1] + margin)
    if clamped:
        clamped[-1] = min(clamped[-1], hi)
    for k in range(len(clamped) - 2, -1, -1):
        clamped[k] = min(clamped[k], clamped[k + 1] - margin)
    if clamped and (
        clamped[0] < lo - 1e-12
        or any(b - a < margin - 1e-12 for a, b in zip(clamped, clamped[1:]))
    ):
        raise OrderingError("horizon too short for the requested junction count")
    return clamped


def solve_junctions(
    agent: AgentSpec,
    initial_junctions: tuple[Junction, ...],
    scenario: Scenario,
) -> tuple[PiecewiseTrajectory, SolveReport]:
    """Damped least-squares iteration over junction parameters.

    Gauss-Newton steps on the stacked (tangency, jump) residuals with
    adaptive Levenberg damping. The iterate is the parameter vector
    (theta_0, t_0, theta_1, ...); each evaluation solves the n x n
    junction system for the junction velocities and reads the residuals
    from them. The Jacobian is exact, by implicit differentiation of the
    junction system, and is recomputed only after an accepted step, from
    that step's spline, together with the normal equations J^T J and
    -J^T r and the Marquardt scale. What the solve holds fixed (boundary
    states, obstacles, index arrays, the time pattern of dh/dt) is built
    once per call. One iteration costs one 2n x 2n damped solve and one
    candidate spline, whose times are clamped and angles wrapped on
    Python floats: a tridiagonal n x n solve with two right-hand sides
    and its residuals. An accepted step adds one Jacobian, an n x n
    solve with 4n right-hand sides, and the new normal equations.
    A step rejected at MAX_DAMPING, or a damped system that is singular
    there, ends the loop with iterations = MAX_ITERATIONS: the Jacobian,
    the normal equations, the scale and the damping are all unchanged,
    so each remaining iteration would repeat that rejection. Proposed
    junction times are clamped to keep TIME_MARGIN from the horizon and
    from each other, so every segment is longer than MIN_SEGMENT and no
    iterate is ill-conditioned; angles are wrapped into [-pi, pi).
    Raises OrderingError when the horizon cannot hold the junctions at
    that margin, and ConditioningError only for a horizon shorter than
    MIN_SEGMENT. Convergence is a residual 2-norm at or below
    RESIDUAL_TOL. The Junction objects and the trajectory are built
    once, from the final iterate.
    """
    junctions = tuple(initial_junctions)
    t0, tf = agent.t0, agent.tf_nominal
    params, fixed = _setup(agent, junctions, scenario)
    params[1::2] = _clamp_times(params[1::2].tolist(), t0, tf, TIME_MARGIN)
    spline = _spline(params, fixed)
    res = _residuals(spline)

    norm = float(np.linalg.norm(res))
    damping = 1e-3
    iterations = 0
    jac = None
    while iterations < MAX_ITERATIONS and norm > RESIDUAL_TOL:
        iterations += 1
        if jac is None:
            jac = _residual_jacobian(spline, fixed)
            gram = jac.T @ jac
            rhs = -jac.T @ res
            # Marquardt scaling keeps the damping visible whatever the
            # magnitude of the residual surface.
            scale = np.diag(np.maximum(np.diag(gram), 1e-30))
        try:
            step = np.linalg.solve(gram + damping * scale, rhs)
        except np.linalg.LinAlgError:
            step = None
        if step is not None:
            values = (params + step).tolist()
            values[1::2] = _clamp_times(values[1::2], t0, tf, TIME_MARGIN)
            values[0::2] = [_wrap_angle(v) for v in values[0::2]]
            candidate = np.array(values)
            cand_spline = _spline(candidate, fixed)
            cand_res = _residuals(cand_spline)
            cand_norm = float(np.linalg.norm(cand_res))
            if cand_norm < norm:
                params, spline, res, norm = candidate, cand_spline, cand_res, cand_norm
                damping = max(damping * 0.3, MIN_DAMPING)
                jac = None
                continue
        if damping == MAX_DAMPING:
            # every later iteration would repeat this rejection
            iterations = MAX_ITERATIONS
            break
        damping = min(damping * 10.0, MAX_DAMPING)

    traj = _trajectory(spline)
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
        junction_sequence=junctions,
        energy=trajectory_energy(traj),
        degenerate_junctions=degenerate,
    )
    return traj, report


def initial_guess(
    traj: PiecewiseTrajectory,
    violation: ViolationRecord,
    scenario: Scenario,
    agent: AgentSpec,
) -> Junction:
    """Seed junction parameters from an obstacle violation.

    The time guess is the midpoint of the window around violation.time
    where g exceeds -SAFETY_TOL. Unlike the violated window (g above
    +SAFETY_TOL), it runs on across points where the path only touches
    the circle (g = 0), such as an existing junction on the same
    obstacle. Raises ValueError when violation.time lies in no such
    window. The angle guess points from the obstacle center toward the
    path's cross-track offset; when the path aims straight through the
    center the left side (path direction rotated +pi/2) breaks the tie.
    """
    obstacle = scenario.obstacle(violation.constraint)
    combined = inflated_radius(obstacle, agent)
    windows = violated_windows(traj, obstacle.center, combined, -SAFETY_TOL)
    window = next((w for w in windows if w[0] <= violation.time <= w[1]), None)
    if window is None:
        raise ValueError(f"obstacle {obstacle.id} is not violated at t={violation.time}")
    t_guess = 0.5 * (window[0] + window[1])

    p, v, _ = eval_trajectory(traj, t_guess)
    offset = p - obstacle.center
    speed = float(np.linalg.norm(v))
    if speed > CENTER_COINCIDENCE:
        direction = v / speed
    else:
        chord = agent.goal.p - agent.start.p
        length = float(np.linalg.norm(chord))
        direction = chord / length if length > 0 else np.array([1.0, 0.0])
    cross = offset - (offset @ direction) * direction
    if float(np.linalg.norm(cross)) < CENTER_COINCIDENCE:
        # Path runs through the center: take the left side of travel.
        left = np.array([-direction[1], direction[0]])
        theta = math.atan2(left[1], left[0])
    else:
        theta = math.atan2(cross[1], cross[0])
    return Junction(obstacle_id=obstacle.id, theta=theta, time=float(t_guess))


# Junctions on the same obstacle closer than this, in seconds (ten time
# margins), are treated as duplicates of an existing activation.
DUPLICATE_WINDOW = 10.0 * TIME_MARGIN


def plan_agent(
    agent: AgentSpec,
    scenario: Scenario,
) -> tuple[PiecewiseTrajectory, SolveReport]:
    """Plan one agent with greedy activation-sequence discovery.

    Solve with the current junction set (initially empty); while the
    result still violates some obstacle, seed a junction at the first
    violation and resolve. Stops when the trajectory is feasible,
    returning the report (converged or not). Fails at once when a solve
    that did not converge still violates an obstacle, rather than seeding
    a junction on that iterate; fails too once the junction budget
    (MAX_JUNCTIONS) is exhausted, when the violated obstacle already has
    a junction at a neighboring time, or when the horizon cannot hold
    one more junction at TIME_MARGIN. Every failure is a PlanningFailure
    that carries the last iterate, if a solve finished.
    """
    junctions: tuple[Junction, ...] = ()
    traj = report = None
    while True:
        try:
            traj, report = solve_junctions(agent, junctions, scenario)
        except ConditioningError as exc:
            # only a horizon shorter than MIN_SEGMENT gets here, on the
            # first solve, so there is no iterate to return
            raise PlanningFailure(
                f"agent {agent.id}: junction system became ill-conditioned "
                f"during sequence discovery: {exc}",
            ) from exc
        except OrderingError as exc:
            # the horizon cannot hold one more junction at TIME_MARGIN;
            # the previous solve is the last iterate
            raise PlanningFailure(
                f"agent {agent.id}: horizon too short for {len(junctions)} "
                f"junction(s) at a {TIME_MARGIN} s margin",
                trajectory=traj, report=report,
            ) from exc
        violation = first_violation(traj, scenario, agent.id)
        if violation is None:
            return traj, report
        if not report.converged:
            raise PlanningFailure(
                f"agent {agent.id}: junction solve did not converge (residual "
                f"{report.residual_norm:.3e} after {report.iterations} iterations) "
                f"and obstacle {violation.constraint} is still violated at "
                f"t={violation.time:.4f}",
                trajectory=traj, report=report,
            )
        guess = initial_guess(traj, violation, scenario, agent)
        near_duplicate = any(
            j.obstacle_id == guess.obstacle_id
            and abs(j.time - guess.time) < DUPLICATE_WINDOW
            for j in report.junction_sequence
        )
        if near_duplicate:
            raise PlanningFailure(
                f"agent {agent.id}: obstacle {guess.obstacle_id} still violated "
                f"next to an existing junction at t={guess.time:.4f}",
                trajectory=traj, report=report,
            )
        if len(report.junction_sequence) + 1 > MAX_JUNCTIONS:
            raise PlanningFailure(
                f"agent {agent.id}: junction budget of {MAX_JUNCTIONS} "
                "exhausted without a feasible trajectory",
                trajectory=traj, report=report,
            )
        junctions = tuple(
            sorted(report.junction_sequence + (guess,), key=lambda j: j.time)
        )
