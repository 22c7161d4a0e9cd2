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
over the stacked (theta_k, t_k) parameters. A solve has at most
MAX_JUNCTIONS = 8 junctions, and at that size NumPy's fixed cost per
call outweighs the arithmetic, so the iterate is Python floats: the
parameter list, the spline's contact points, slopes, velocities and
local coefficients as (x, y) pairs, and the residuals read from them.
NumPy and LAPACK keep the calls whose bits their kernels fix: the
linear solves, the boundary-velocity product, the residual norm,
np.cos/np.sin and the cube of 1/h. The solves call the LAPACK gufuncs
that np.linalg.solve wraps directly (_lapack), because at this size the
wrapper costs more than the solve; a singular system still raises
LinAlgError. The residual norm is sqrt(r.dot(r)), np.linalg.norm's
formula. Junction objects and the PiecewiseTrajectory are built once,
when the solve returns, its coefficient array from the spline's floats
by one np.array call. The
Jacobian is exact: the velocity derivatives come from implicit
differentiation of M(h) V = R(h, P), one solve with two right-hand
sides per parameter, whose right-hand sides have three nonzero rows
each.
Activation sequences are discovered greedily: plan, find the first
violated obstacle, seed a junction there, replan. Violations and the
seed's time window are found exactly, from the roots of each segment's
obstacle constraint polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from . import _lapack
from .errors import (
    ConditioningError,
    OrderingError,
    PlanningFailure,
)
from .trajectory import (
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

# A junction solve stalls when its residual norm, after at least this
# many iterations, is above half the norm this many iterations earlier.
# On reference worlds 1-5000 that ratio stays at or below 0.33 in the
# solves of every converged plan, and at or below 0.46 in any solve that
# converges; windows of 50 and 60 iterations lose converged plans.
STALL_WINDOW = 70

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
        if not (math.isfinite(self.theta) and math.isfinite(self.time)):
            raise ValueError("junction parameters must be finite")
        object.__setattr__(self, "theta", _wrap_angle(float(self.theta)))

    def to_json(self) -> dict:
        return {"obstacle": self.obstacle_id, "theta": self.theta, "time": self.time}


# Why a junction solve stopped: its residual reached RESIDUAL_TOL, it ran
# MAX_ITERATIONS, a step was rejected at MAX_DAMPING, or its residual did
# not halve over STALL_WINDOW iterations.
Termination = Literal["converged", "max_iterations", "damping_cap", "stalled"]


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one junction solve."""

    converged: bool
    residual_norm: float
    # LM iterations run
    iterations: int
    termination: Termination
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
            "termination": self.termination,
            "energy": self.energy,
            "degenerate_junctions": list(self.degenerate_junctions),
            "junctions": [j.to_json() for j in self.junction_sequence],
        }


def contact_point(obstacle: Obstacle, combined_r: float, theta: float) -> np.ndarray:
    """Point on the inflated circle at contact angle theta."""
    return obstacle.center + combined_r * np.array(
        [math.cos(theta), math.sin(theta)]
    )


class _Fixed(NamedTuple):
    """What one junction solve holds fixed: the horizon, the boundary
    states and the junctions' obstacles, as Python floats, plus the
    boundary velocities as the (2, 2) array of the boundary product."""

    t0: float
    tf: float
    start: tuple[float, float]  # start position
    goal: tuple[float, float]  # goal position
    v_start: tuple[float, float]  # start velocity
    v_goal: tuple[float, float]  # goal velocity
    ends: np.ndarray  # start and goal velocities, (2, 2)
    centers: list[tuple[float, float]]  # obstacle centers, n
    radii: list[float]  # inflated radii, n


class _Spline(NamedTuple):
    """The clamped cubic spline of one parameter vector, in local time.

    Per-node and per-segment values are (x, y) pairs of Python floats;
    only M stays an array, for the Jacobian's solve."""

    knots: list[float]
    inv: list[float]  # 1 / h_j per segment, n+1
    inv2: list[float]  # (1 / h_j)**2 per segment, n+1
    m: np.ndarray  # junction matrix M, (n, n)
    normal: list  # outward contact normals (cos, sin), n
    points: list  # start, contact points and goal, n+2
    vel: list  # node velocities V, n+2
    slope: list  # (P_(j+1) - P_j) / h_j per segment, n+1
    a2: list  # local coefficients of s**2 per segment, n+1
    a3: list  # local coefficients of s**3 per segment, n+1


def _setup(
    agent: AgentSpec, junctions: Sequence[Junction], scenario: Scenario
) -> tuple[list[float], _Fixed]:
    """Parameter vector (theta_0, t_0, theta_1, ...) of the junctions and
    what every spline of the agent through their obstacles shares."""
    obstacles = [scenario.obstacle(j.obstacle_id) for j in junctions]
    ends = np.stack([agent.start.v, agent.goal.v])
    fixed = _Fixed(
        t0=agent.t0,
        tf=agent.tf_nominal,
        start=tuple(agent.start.p.tolist()),
        goal=tuple(agent.goal.p.tolist()),
        v_start=tuple(agent.start.v.tolist()),
        v_goal=tuple(agent.goal.v.tolist()),
        ends=ends,
        centers=[tuple(o.center.tolist()) for o in obstacles],
        radii=[float(inflated_radius(o, agent)) for o in obstacles],
    )
    params = [float(v) for j in junctions for v in (j.theta, j.time)]
    return params, fixed


def _spline(params: list[float], fixed: _Fixed) -> _Spline:
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

    n is at most MAX_JUNCTIONS, so the arithmetic runs on Python floats;
    NumPy keeps the calls whose bits its kernels fix: np.cos and np.sin,
    the boundary-velocity product and the solve.
    """
    knots = [fixed.t0, *params[1::2], fixed.tf]
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
    inv = [1.0 / length for length in h]
    inv2 = [w * w for w in inv]
    theta = np.array(params[0::2])
    normal = list(zip(np.cos(theta).tolist(), np.sin(theta).tolist()))
    points = [
        fixed.start,
        *[(cx + r * c, cy + r * s)
          for (cx, cy), r, (c, s) in zip(fixed.centers, fixed.radii, normal)],
        fixed.goal,
    ]
    slope = [((x1 - x0) * w, (y1 - y0) * w)
             for (x0, y0), (x1, y1), w in zip(points, points[1:], inv)]
    # row r couples V_r, V_(r+1) and V_(r+2) by 2/h_r ("lower"),
    # 4 (1/h_r + 1/h_(r+1)) and 2/h_(r+1) ("upper"); V_0 in row 0 and
    # V_(n+1) in row n-1 are the boundary velocities, whose coefficients
    # go to the (n, 2) matrix of the boundary product
    lower = [2.0 * w for w in inv[:-1]]
    upper = [2.0 * w for w in inv[1:]]
    flat = [0.0] * (n * n)
    flat[0::n + 1] = [4.0 * (a + b) for a, b in zip(inv, inv[1:])]
    flat[1::n + 1] = upper[:-1]
    flat[n::n + 1] = lower[1:]
    m = np.array(flat).reshape(n, n)
    boundary = [0.0] * (2 * n)
    boundary[:1], boundary[-1:] = lower[:1], upper[-1:]  # no-ops when n = 0
    rhs = np.array([
        (6.0 * (sx0 * w0 + sx1 * w1), 6.0 * (sy0 * w0 + sy1 * w1))
        for (sx0, sy0), (sx1, sy1), w0, w1 in zip(slope, slope[1:], inv, inv[1:])
    ]).reshape(n, 2)
    rhs -= np.array(boundary).reshape(n, 2) @ fixed.ends
    # a junction-free system is empty: skip the solve's call overhead
    inner = _lapack.solve(m, rhs).tolist() if n else []
    vel = [fixed.v_start, *inner, fixed.v_goal]
    a3 = []
    a2 = []
    for (v0x, v0y), (v1x, v1y), (sx, sy), w, w2 in zip(vel, vel[1:], slope, inv, inv2):
        a3.append(((v0x + v1x - 2.0 * sx) * w2, (v0y + v1y - 2.0 * sy) * w2))
        a2.append(((3.0 * sx - 2.0 * v0x - v1x) * w, (3.0 * sy - 2.0 * v0y - v1y) * w))
    return _Spline(knots, inv, inv2, m, normal, points, vel, slope, a2, a3)


def _trajectory(s: _Spline) -> PiecewiseTrajectory:
    """The spline's segments, each in its own local time."""
    return PiecewiseTrajectory(list(zip(s.points, s.vel, s.a2, s.a3)), s.knots)


def solve_coefficients(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
) -> PiecewiseTrajectory:
    """Solve the junction system and split the result at junction times."""
    return _trajectory(_spline(*_setup(agent, junctions, scenario)))


def _residuals(s: _Spline) -> np.ndarray:
    """(tangency, jump) residuals per junction, read from V_i and a3;
    the control slope on segment j is 6 a3_j."""
    res = []
    for (vx, vy), (c, sn), (ax0, ay0), (ax1, ay1) in zip(
        s.vel[1:-1], s.normal, s.a3, s.a3[1:]
    ):
        res += (vx * c + vy * sn, 6.0 * ((ax0 - ax1) * vx + (ay0 - ay1) * vy))
    return np.array(res)


def residuals(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
) -> np.ndarray:
    """Optimality residuals (tangency, jump) for each junction."""
    return _residuals(_spline(*_setup(agent, junctions, scenario)))


def _residual_jacobian(s: _Spline, fixed: _Fixed) -> np.ndarray:
    """Exact Jacobian of the junction residuals of the spline s.

    Columns follow the stacked parameters (theta_0, t_0, theta_1, ...).
    theta_k moves P_(k+1) by r (-sin, cos); t_k lengthens segment k and
    shortens segment k+1. With V held fixed, each moves the start and
    end controls u = 2 a2 and 2 a2 + 6 a3 h of segments k and k+1 only,
    and so only rows k-1..k+1 of f_i = u_end(i-1) - u_start(i), the rows
    of M V - R. Differentiating M V = R gives every dV from one solve
    with 4n right-hand sides, (parameter, axis) in order, built from
    those three rows per parameter. Everything else is Python floats.
    """
    n = len(s.normal)
    inv, inv2 = s.inv, s.inv2
    inv3 = (np.array(inv) ** 3).tolist()
    # per segment and axis, with V fixed: d u_end / dh, -d u_start / dh
    # and d a3 / dh
    end_dh, start_dh, a3_dh = [], [], []
    for (v0x, v0y), (v1x, v1y), (sx, sy), w2, w3 in zip(
        s.vel, s.vel[1:], s.slope, inv2, inv3
    ):
        end_dh.append(((12.0 * sx - 2.0 * v0x - 4.0 * v1x) * w2,
                       (12.0 * sy - 2.0 * v0y - 4.0 * v1y) * w2))
        start_dh.append(((12.0 * sx - 4.0 * v0x - 2.0 * v1x) * w2,
                         (12.0 * sy - 4.0 * v0y - 2.0 * v1y) * w2))
        a3_dh.append(((6.0 * sx - 2.0 * (v0x + v1x)) * w3,
                      (6.0 * sy - 2.0 * (v0y + v1y)) * w3))
    # d P_(k+1) / d theta_k, and 6 times it over h_k^2 and over h_(k+1)^2
    d_point = [(r * (sn * -1.0), r * c) for r, (c, sn) in zip(fixed.radii, s.normal)]
    here = [(6.0 * dx * w2, 6.0 * dy * w2) for (dx, dy), w2 in zip(d_point, inv2)]
    after = [(6.0 * dx * w2, 6.0 * dy * w2) for (dx, dy), w2 in zip(d_point, inv2[1:])]
    # Row i of the right-hand side, negated so that the solve returns dV
    # itself (an LU solve commutes with negation bit for bit):
    # (theta_k x, y, t_k x, y) for k = i-1, i, i+1. In a row of
    # 4 n + 8 it starts 4 i columns in, a stride of 4 n + 12 in the flat
    # buffer; the 4 columns on either side, where k = -1 and k = n, are
    # cut off.
    pad = (0.0, 0.0)
    band = [
        [-px, -py, ex, ey, hx - bx, hy - by, ux - ex, uy - ey, nx, ny, -ux, -uy]
        for (px, py), (hx, hy), (bx, by), (nx, ny), (ex, ey), (ux, uy)
        in zip([pad, *after], here, after, [*here[1:], pad], end_dh, start_dh[1:])
    ]
    buffer = np.zeros(n * (4 * n + 12))
    buffer.reshape(n, 4 * n + 12)[:, :12] = band
    d_f = buffer[:n * (4 * n + 8)].reshape(n, 4 * n + 8)[:, 4:4 * n + 4]
    # dV per node as x and y columns in parameter order; V_0 and V_(n+1)
    # are fixed
    zero = [0.0] * (2 * n)
    d_vel = [(zero, zero)]
    d_vel += [(row[0::2], row[1::2]) for row in _lapack.solve(s.m, d_f).tolist()]
    d_vel.append((zero, zero))
    # d a3 per segment, from dV at both ends; theta_(j-1) and theta_j also
    # move the chord of segment j, t_(j-1) shortens it and t_j lengthens it
    d_a3 = []
    for j, ((lo_x, lo_y), (hi_x, hi_y), w, w2) in enumerate(
        zip(d_vel, d_vel[1:], inv, inv2)
    ):
        ax = [(a + b) * w2 for a, b in zip(lo_x, hi_x)]
        ay = [(a + b) * w2 for a, b in zip(lo_y, hi_y)]
        if j > 0:
            c = 2 * j - 2
            (dx, dy), (gx, gy) = d_point[j - 1], a3_dh[j]
            ax[c] = (lo_x[c] + hi_x[c] + 2.0 * dx * w) * w2
            ay[c] = (lo_y[c] + hi_y[c] + 2.0 * dy * w) * w2
            ax[c + 1] -= gx
            ay[c + 1] -= gy
        if j < n:
            c = 2 * j
            (dx, dy), (gx, gy) = d_point[j], a3_dh[j]
            ax[c] = (lo_x[c] + hi_x[c] - 2.0 * dx * w) * w2
            ay[c] = (lo_y[c] + hi_y[c] - 2.0 * dy * w) * w2
            ax[c + 1] += gx
            ay[c + 1] += gy
        d_a3.append((ax, ay))
    jac = []
    for i, ((vx, vy), (c, sn), (ax0, ay0), (ax1, ay1)) in enumerate(
        zip(s.vel[1:-1], s.normal, s.a3, s.a3[1:])
    ):
        dax, day = ax0 - ax1, ay0 - ay1
        (dvx, dvy), (lo_x, lo_y), (hi_x, hi_y) = d_vel[i + 1], d_a3[i], d_a3[i + 1]
        tangency = [x * c + y * sn for x, y in zip(dvx, dvy)]
        tangency[2 * i] += vx * (sn * -1.0) + vy * c
        jac.append(tangency)
        jac.append([
            6.0 * (((lx - hx) * vx + (ly - hy) * vy) + (x * dax + y * day))
            for lx, ly, hx, hy, x, y in zip(lo_x, lo_y, hi_x, hi_y, dvx, dvy)
        ])
    return np.array(jac)


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
    (theta_0, t_0, theta_1, ...), a list of Python floats; each
    evaluation solves the n x n junction system for the junction
    velocities and reads the residuals from them. n is at most
    MAX_JUNCTIONS, small enough that NumPy's cost per call would outweigh
    the arithmetic, so the evaluation runs on floats and keeps NumPy for
    the linear solves, the boundary-velocity product, np.cos/np.sin, the
    residual norm and the cube of 1/h, whose bits its kernels fix. The
    solves go straight to LAPACK's gufuncs (_lapack.solve), skipping
    np.linalg.solve's wrapper but not its error state, so a singular
    damped system raises LinAlgError and its step is rejected like a
    step that does not lower the residual norm, sqrt(r.dot(r)). The
    Jacobian is exact, by implicit differentiation of the junction
    system, and is recomputed only after an accepted step, from that
    step's spline, together with the normal equations J^T J and -J^T r
    and the Marquardt scale; these stay arrays. What the solve holds
    fixed (boundary states and obstacles) is built once per call. One
    iteration costs one 2n x 2n damped solve and one candidate spline,
    whose times are clamped and angles wrapped on floats: a tridiagonal
    n x n solve with two right-hand sides and its residuals. An accepted
    step adds one Jacobian, an n x n solve with 4n right-hand sides of
    three nonzero rows each, and the new normal equations.
    The report names why the loop stopped and counts the iterations it
    ran. It converges at a residual 2-norm at or below RESIDUAL_TOL, and
    otherwise ends after MAX_ITERATIONS ("max_iterations"), at a step
    rejected at MAX_DAMPING or a damped system that is singular there
    ("damping_cap": the Jacobian, the normal equations, the scale and the
    damping are all unchanged, so each later iteration would repeat that
    rejection), or when, after STALL_WINDOW iterations or more, the norm
    is above half the norm STALL_WINDOW iterations earlier ("stalled").
    Only improving steps are accepted, so that norm is the best so far.
    Proposed junction times are clamped to keep TIME_MARGIN from the
    horizon and from each other, so every segment is longer than
    MIN_SEGMENT and no iterate is ill-conditioned; angles are wrapped
    into [-pi, pi).
    Raises OrderingError when the horizon cannot hold the junctions at
    that margin, and ConditioningError only for a horizon shorter than
    MIN_SEGMENT. The Junction objects and the trajectory are built
    once, from the final iterate.
    """
    junctions = tuple(initial_junctions)
    t0, tf = agent.t0, agent.tf_nominal
    params, fixed = _setup(agent, junctions, scenario)
    params[1::2] = _clamp_times(params[1::2], t0, tf, TIME_MARGIN)
    spline = _spline(params, fixed)
    res = _residuals(spline)

    norm = math.sqrt(res.dot(res))
    damping = 1e-3
    norms = []  # the residual norm before each iteration run
    termination = "converged"
    jac = None
    while norm > RESIDUAL_TOL:
        if len(norms) == MAX_ITERATIONS:
            termination = "max_iterations"
            break
        if len(norms) >= STALL_WINDOW and norm > 0.5 * norms[-STALL_WINDOW]:
            termination = "stalled"
            break
        norms.append(norm)
        if jac is None:
            jac = _residual_jacobian(spline, fixed)
            gram = jac.T @ jac
            rhs = -jac.T @ res
            # Marquardt scaling keeps the damping visible whatever the
            # magnitude of the residual surface.
            scale = np.diag(np.maximum(gram.diagonal(), 1e-30))
        try:
            step = _lapack.solve(gram + damping * scale, rhs)
        except LinAlgError:
            step = None
        if step is not None:
            candidate = [p + d for p, d in zip(params, step.tolist())]
            candidate[1::2] = _clamp_times(candidate[1::2], t0, tf, TIME_MARGIN)
            candidate[0::2] = [_wrap_angle(v) for v in candidate[0::2]]
            cand_spline = _spline(candidate, fixed)
            cand_res = _residuals(cand_spline)
            cand_norm = math.sqrt(cand_res.dot(cand_res))
            if cand_norm < norm:
                params, spline, res, norm = candidate, cand_spline, cand_res, cand_norm
                damping = max(damping * 0.3, MIN_DAMPING)
                jac = None
                continue
        if damping == MAX_DAMPING:
            # every later iteration would repeat this rejection
            termination = "damping_cap"
            break
        damping = min(damping * 10.0, MAX_DAMPING)

    traj = _trajectory(spline)
    junctions = tuple(
        Junction(obstacle_id=j.obstacle_id, theta=theta, time=t)
        for j, theta, t in zip(junctions, params[0::2], spline.knots[1:-1])
    )
    degenerate = tuple(
        k for k, (vx, vy) in enumerate(spline.vel[1:-1])
        if math.sqrt(vx * vx + vy * vy) < DEGENERATE_SPEED
    )
    report = SolveReport(
        converged=norm <= RESIDUAL_TOL,
        residual_norm=norm,
        iterations=len(norms),
        termination=termination,
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
    speed = math.sqrt(v.dot(v))
    if speed > CENTER_COINCIDENCE:
        direction = v / speed
    else:
        chord = agent.goal.p - agent.start.p
        length = math.sqrt(chord.dot(chord))
        direction = chord / length if length > 0 else np.array([1.0, 0.0])
    cross = offset - (offset @ direction) * direction
    if math.sqrt(cross.dot(cross)) < CENTER_COINCIDENCE:
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
                f"agent {agent.id}: junction solve did not converge: "
                f"{report.termination} after {report.iterations} iterations "
                f"(residual {report.residual_norm:.3e}), and obstacle "
                f"{violation.constraint} is still violated at t={violation.time:.4f}",
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
