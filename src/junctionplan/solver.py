"""Constrained trajectory generation through junction parameterization.

A junction is an instant where an obstacle constraint becomes active and
immediately inactive again: the path touches the inflated circle and
leaves. Fixing the junctions (which obstacle, where on the circle, and
when) makes the whole trajectory the solution of one linear system,
because position, velocity, and control continuity plus the boundary
conditions are all linear in the cubic coefficients. The two axes share
one scalar matrix A_s(t), so the system is solved once with an x and a
y right-hand-side column: A_s(t) X = B(theta).

The two remaining optimality conditions per junction are nonlinear in
the contact angle and time:

  tangency   v(t_k) . n(theta_k) = 0, with n the outward contact normal,
  jump       (udot_before - udot_after) . v(t_k) = 0, where udot = 6*c1
             is constant on each segment.

An outer damped least-squares iteration drives both residuals to zero
over the stacked (theta_k, t_k) parameters. Its iterate is plain arrays:
the parameter vector, A_s, the coefficient rows X and the residuals read
from X; Junction objects and the PiecewiseTrajectory are built once, when
the solve returns. The Jacobian is exact: the coefficient derivatives
come from implicit differentiation of A_s(t) X = B(theta), one
factorization with two right-hand sides per parameter. Activation
sequences are discovered greedily: plan, find the first violated
obstacle, seed a junction there, replan.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

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
    solve_refined,
    trajectory_energy,
)
from .world import (
    DEFAULT_SAMPLE_COUNT,
    AgentSpec,
    Obstacle,
    Scenario,
    ViolationRecord,
    first_violation,
    inflated_radius,
)

# Condition-number ceiling for the block system; beyond it junction
# times are too close to each other or to the horizon boundary.
CONDITION_LIMIT = 1e12

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


@dataclass(frozen=True)
class JunctionSolveConfig:
    """Tolerances and budgets for the junction least-squares solve."""

    residual_tol: float = 1e-7
    max_iterations: int = 200
    sample_count: int = DEFAULT_SAMPLE_COUNT
    max_junctions: int = 8
    time_margin: float = 1e-3

    def __post_init__(self):
        for name in (
            "residual_tol", "max_iterations", "sample_count",
            "max_junctions", "time_margin",
        ):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one junction solve."""

    converged: bool
    residual_norm: float
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


def _pos_row(t: float) -> np.ndarray:
    return np.array([t**3, t**2, t, 1.0])


def _vel_row(t: float) -> np.ndarray:
    return np.array([3.0 * t**2, 2.0 * t, 1.0, 0.0])


def _ctrl_row(t: float) -> np.ndarray:
    return np.array([6.0 * t, 2.0, 0.0, 0.0])


def _scalar_system(
    agent: AgentSpec, times: list[float], contacts: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Scalar junction matrix A_s and its (x, y) right-hand side.

    With n junctions there are n+1 segments and 4(n+1) scalar unknowns
    per axis, segment k owning columns 4k..4k+3 (c1..c4). Rows: boundary
    position/velocity at t0, then per junction the position of both
    adjacent segments pinned to the contact point plus velocity and
    control continuity, then boundary position/velocity at tf. Both axes
    share A_s; the right-hand side has one column per axis.
    """
    if any(not agent.t0 < t < agent.tf_nominal for t in times):
        raise OrderingError(
            f"junction times {times} must lie strictly inside "
            f"({agent.t0}, {agent.tf_nominal})"
        )
    if any(t_next <= t_prev for t_prev, t_next in zip(times, times[1:])):
        raise OrderingError(f"junction times {times} must be strictly increasing")
    size = 4 * (len(times) + 1)
    a = np.zeros((size, size))
    b = np.zeros((size, 2))
    a[0, 0:4] = _pos_row(agent.t0)
    b[0] = agent.start.p
    a[1, 0:4] = _vel_row(agent.t0)
    b[1] = agent.start.v
    for k, (t, contact) in enumerate(zip(times, contacts)):
        row, col = 2 + 4 * k, 4 * k
        b[row] = b[row + 1] = contact
        a[row, col : col + 4] = _pos_row(t)
        a[row + 1, col + 4 : col + 8] = _pos_row(t)
        a[row + 2, col : col + 4] = _vel_row(t)
        a[row + 2, col + 4 : col + 8] = -_vel_row(t)
        a[row + 3, col : col + 4] = _ctrl_row(t)
        a[row + 3, col + 4 : col + 8] = -_ctrl_row(t)
    a[-2, -4:] = _pos_row(agent.tf_nominal)
    b[-2] = agent.goal.p
    a[-1, -4:] = _vel_row(agent.tf_nominal)
    b[-1] = agent.goal.v
    return a, b


def _solve_system(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Refined solve of A_s X = B for both axes, rejecting ill-conditioned A_s.

    The condition number of A_s equals that of the block system, whose
    singular values are those of A_s, each repeated.
    """
    condition = np.linalg.cond(a)
    if not condition < CONDITION_LIMIT:
        raise ConditioningError(
            f"block system condition {condition:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "junction times too close together or to the boundary"
        )
    return solve_refined(a, b)


def _trajectory(
    agent: AgentSpec, times: list[float], x: np.ndarray
) -> PiecewiseTrajectory:
    """Split the coefficient rows X into cubic segments at the junction times."""
    knots = [agent.t0, *times, agent.tf_nominal]
    return PiecewiseTrajectory(segments=tuple(
        CubicSegment(*x[4 * k : 4 * k + 4], t_start=knots[k], t_end=knots[k + 1])
        for k in range(len(knots) - 1)
    ))


def _junction_system(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
):
    """Junction times, angles and the scalar system of a junction sequence."""
    times = [j.time for j in junctions]
    thetas = [j.theta for j in junctions]
    contacts = []
    for junction in junctions:
        obstacle = scenario.obstacle(junction.obstacle_id)
        contacts.append(
            contact_point(obstacle, inflated_radius(obstacle, agent), junction.theta)
        )
    return times, thetas, *_scalar_system(agent, times, contacts)


def assemble_system(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
):
    """Build the square block system for all segment coefficients.

    With n junctions there are n+1 segments and 8(n+1) unknowns, the
    coefficients of segment k at 8k..8k+7 as (c1, c2, c3, c4), each an
    (x, y) pair. The matrix is kron(A_s, I2) of the scalar system that
    solve_coefficients solves directly. Constraint satisfaction at the
    junction holds identically because the contact point lies on the
    inflated circle.
    """
    _, _, a, b = _junction_system(agent, tuple(junctions), scenario)
    return np.kron(a, np.eye(2)), b.reshape(-1)


def solve_coefficients(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
) -> PiecewiseTrajectory:
    """Solve the junction system and split the result at junction times.

    One refined solve of the scalar system covers both axes.
    """
    times, _, a, b = _junction_system(agent, tuple(junctions), scenario)
    return _trajectory(agent, times, _solve_system(a, b))


def _junction_residuals(
    x: np.ndarray, times: list[float], thetas: list[float]
) -> np.ndarray:
    """(tangency, jump) residuals read from the coefficient rows X.

    The velocity at t_k is taken on the later segment, as eval_trajectory
    does at a knot.
    """
    res = np.empty(2 * len(times))
    for k, (t, theta) in enumerate(zip(times, thetas)):
        c1_before, c1, c2, c3 = x[4 * k], x[4 * k + 4], x[4 * k + 5], x[4 * k + 6]
        v = 3.0 * c1 * t**2 + 2.0 * c2 * t + c3
        normal = np.array([math.cos(theta), math.sin(theta)])
        res[2 * k] = v @ normal
        res[2 * k + 1] = 6.0 * (c1_before - c1) @ v
    return res


def residuals(
    agent: AgentSpec, junctions: tuple[Junction, ...], scenario: Scenario
) -> np.ndarray:
    """Optimality residuals (tangency, jump) for each junction."""
    times, thetas, a, b = _junction_system(agent, tuple(junctions), scenario)
    return _junction_residuals(_solve_system(a, b), times, thetas)


def _residual_jacobian(
    a: np.ndarray,
    x: np.ndarray,
    times: Sequence[float],
    thetas: Sequence[float],
    radii: Sequence[float],
) -> np.ndarray:
    """Exact Jacobian of the junction residuals at the solution X of A_s X = B.

    Columns follow the stacked parameters (theta_0, t_0, theta_1, ...).
    Differentiating A_s(t) X = B(theta) gives A_s dX = dB - dA X: theta_k
    moves the contact rows of B by r * (-sin, cos), and t_k touches only
    junction k's four rows of A_s, where dA/dt_k X is the segment-k and
    segment-(k+1) velocities at t_k, the control jump u_k - u_(k+1) and
    6 (c1_k - c1_(k+1)). One solve with two columns per parameter gives
    every coefficient derivative. Velocities are read on the later
    segment, as in the residuals, which adds the explicit dv/dt_k = u.
    """
    n = len(times)
    t = np.array(times)[:, None]
    theta = np.array(thetas)
    normal = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    d_normal = np.stack([-normal[:, 1], normal[:, 0]], axis=1)
    combined = np.array(radii)
    # c[segment, coefficient, axis]
    c = x.reshape(n + 1, 4, 2)
    before, after = c[:-1], c[1:]
    v_before = 3.0 * before[:, 0] * t**2 + 2.0 * before[:, 1] * t + before[:, 2]
    v_after = 3.0 * after[:, 0] * t**2 + 2.0 * after[:, 1] * t + after[:, 2]
    u_before = 6.0 * before[:, 0] * t + 2.0 * before[:, 1]
    u_after = 6.0 * after[:, 0] * t + 2.0 * after[:, 1]
    k = np.arange(n)
    row = 2 + 4 * k
    rhs = np.zeros((a.shape[0], 2 * n, 2))
    rhs[row, 2 * k] = rhs[row + 1, 2 * k] = combined[:, None] * d_normal
    rhs[row, 2 * k + 1] = -v_before
    rhs[row + 1, 2 * k + 1] = -v_after
    rhs[row + 2, 2 * k + 1] = u_after - u_before
    rhs[row + 3, 2 * k + 1] = 6.0 * (after[:, 0] - before[:, 0])
    # dc[segment, coefficient, parameter, axis]
    dc = np.linalg.solve(a, rhs.reshape(a.shape[0], -1)).reshape(n + 1, 4, 2 * n, 2)
    t = t[:, :, None]
    dv = 3.0 * dc[1:, 0] * t**2 + 2.0 * dc[1:, 1] * t + dc[1:, 2]
    dv[k, 2 * k + 1] += u_after
    jump = 6.0 * (before[:, 0] - after[:, 0])
    d_jump = 6.0 * (dc[:-1, 0] - dc[1:, 0])
    jac = np.empty((2 * n, 2 * n))
    jac[0::2] = np.einsum("kpa,ka->kp", dv, normal)
    jac[2 * k, 2 * k] += np.einsum("ka,ka->k", v_after, d_normal)
    jac[1::2] = (
        np.einsum("kpa,ka->kp", d_jump, v_after) + np.einsum("kpa,ka->kp", dv, jump)
    )
    return jac


def _clamp_times(
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


def solve_junctions(
    agent: AgentSpec,
    initial_junctions: tuple[Junction, ...],
    scenario: Scenario,
    config: JunctionSolveConfig = JunctionSolveConfig(),
) -> tuple[PiecewiseTrajectory, SolveReport]:
    """Damped least-squares iteration over junction parameters.

    Gauss-Newton steps on the stacked (tangency, jump) residuals with
    adaptive Levenberg damping. The iterate is the parameter vector
    (theta_0, t_0, theta_1, ...); each evaluation builds A_s and B once,
    solves for the coefficient rows X and reads the residuals from X.
    The Jacobian is exact, by implicit differentiation of the junction
    system, and is recomputed only after an accepted step, from that
    step's A_s, so each iteration costs one candidate solve plus at most
    one extra factorization. Proposed junction times are clamped to keep
    the configured margin from the horizon and from each other, and
    angles are wrapped into [-pi, pi). Convergence is a residual 2-norm
    at or below the configured tolerance. The Junction objects and the
    trajectory are built once, from the final iterate.
    """
    junctions = tuple(initial_junctions)
    t0, tf = agent.t0, agent.tf_nominal
    margin = config.time_margin
    params = np.array([v for j in junctions for v in (j.theta, j.time)], dtype=float)
    params[1::2] = _clamp_times(params[1::2], t0, tf, margin)
    obstacles = [scenario.obstacle(j.obstacle_id) for j in junctions]
    radii = [inflated_radius(obstacle, agent) for obstacle in obstacles]

    def evaluate(p: np.ndarray):
        times, thetas = p[1::2].tolist(), p[0::2].tolist()
        contacts = [
            contact_point(obstacle, r, theta)
            for obstacle, r, theta in zip(obstacles, radii, thetas)
        ]
        a, b = _scalar_system(agent, times, contacts)
        x = _solve_system(a, b)
        return a, x, _junction_residuals(x, times, thetas)

    try:
        a, x, res = evaluate(params)
    except ConditioningError:
        # One retry with times nudged off the degenerate geometry.
        params[1::2] = _clamp_times(params[1::2] + 10.0 * margin, t0, tf, margin)
        a, x, res = evaluate(params)

    norm = float(np.linalg.norm(res))
    damping = 1e-3
    iterations = 0
    jac = None
    while iterations < config.max_iterations and norm > config.residual_tol:
        iterations += 1
        if jac is None:
            jac = _residual_jacobian(a, x, params[1::2], params[0::2], radii)
        gram = jac.T @ jac
        rhs = -jac.T @ res
        # Marquardt scaling keeps the damping visible whatever the
        # magnitude of the residual surface.
        scale = np.diag(np.maximum(np.diag(gram), 1e-30))
        try:
            step = np.linalg.solve(gram + damping * scale, rhs)
        except np.linalg.LinAlgError:
            damping = min(damping * 10.0, 1e12)
            continue
        candidate = params + step
        candidate[1::2] = _clamp_times(candidate[1::2], t0, tf, margin)
        candidate[0::2] = [_wrap_angle(v) for v in candidate[0::2]]
        try:
            cand_a, cand_x, cand_res = evaluate(candidate)
            cand_norm = float(np.linalg.norm(cand_res))
        except (ConditioningError, OrderingError):
            cand_norm = math.inf
        if cand_norm < norm:
            params, a, x, res, norm = candidate, cand_a, cand_x, cand_res, cand_norm
            damping = max(damping * 0.3, 1e-12)
            jac = None
        else:
            damping = min(damping * 10.0, 1e12)

    times = params[1::2].tolist()
    traj = _trajectory(agent, times, x)
    junctions = tuple(
        Junction(obstacle_id=j.obstacle_id, theta=theta, time=t)
        for j, theta, t in zip(junctions, params[0::2].tolist(), times)
    )
    degenerate = tuple(
        k for k, j in enumerate(junctions)
        if float(np.linalg.norm(eval_trajectory(traj, j.time)[1])) < DEGENERATE_SPEED
    )
    report = SolveReport(
        converged=norm <= config.residual_tol,
        residual_norm=norm,
        iterations=iterations,
        junction_sequence=junctions,
        energy=trajectory_energy(traj),
        degenerate_junctions=degenerate,
    )
    return traj, report


def _bisect_crossing(g, t_inside: float, t_outside: float, tol: float = 1e-9) -> float:
    """Bisect g(t) = 0 between a violated and a safe time, to tol seconds."""
    lo, hi = t_inside, t_outside
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def initial_guess(
    traj: PiecewiseTrajectory,
    violation: ViolationRecord,
    scenario: Scenario,
    agent: AgentSpec,
) -> Junction:
    """Seed junction parameters from a sampled violation.

    The time guess is the midpoint of the contiguous violated window
    around the violation, with window endpoints located by bisection.
    The angle guess points from the obstacle center toward the path's
    cross-track offset; when the path aims straight through the center
    the left side (path direction rotated +pi/2) breaks the tie.
    """
    if not isinstance(violation.constraint, int):
        raise ValueError("initial_guess requires an obstacle violation")
    obstacle = scenario.obstacle(violation.constraint)
    combined = inflated_radius(obstacle, agent)

    def g(t: float) -> float:
        p, _, _ = eval_trajectory(traj, t)
        d = p - obstacle.center
        return combined**2 - float(d @ d)

    # Walk outward to bracket the window; start and goal are feasible so
    # a safe sample exists on each side.
    step = (traj.t_end - traj.t_start) / 2000.0
    lo = violation.time
    while g(lo) > 0 and lo - step > traj.t_start:
        lo -= step
    lo = max(lo, traj.t_start)
    hi = violation.time
    while g(hi) > 0 and hi + step < traj.t_end:
        hi += step
    hi = min(hi, traj.t_end)
    t_enter = _bisect_crossing(g, violation.time, lo) if g(lo) <= 0 else lo
    t_exit = _bisect_crossing(g, violation.time, hi) if g(hi) <= 0 else hi
    t_guess = 0.5 * (t_enter + t_exit)

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


# Junctions on the same obstacle closer than this multiple of the time
# margin are treated as duplicates of an existing activation.
DUPLICATE_MARGIN_FACTOR = 10.0


def plan_agent(
    agent: AgentSpec,
    scenario: Scenario,
    config: JunctionSolveConfig = JunctionSolveConfig(),
) -> tuple[PiecewiseTrajectory, SolveReport]:
    """Plan one agent with greedy activation-sequence discovery.

    Solve with the current junction set (initially empty); while the
    result still violates some obstacle, seed a junction at the first
    violation and resolve. Stops when the trajectory is feasible,
    returning the report (converged or not), or fails once the junction
    budget is exhausted or the violated obstacle already has a junction
    at a neighboring time.
    """
    junctions: tuple[Junction, ...] = ()
    best: tuple = (None, None)
    while True:
        try:
            traj, report = solve_junctions(agent, junctions, scenario, config)
        except ConditioningError as exc:
            # the freshly inserted junction crowded an existing one past
            # what the retry could fix; surface the best iterate instead
            raise PlanningFailure(
                f"agent {agent.id}: junction system became ill-conditioned "
                f"during sequence discovery: {exc}",
                trajectory=best[0], report=best[1],
            ) from exc
        best = (traj, report)
        violation = first_violation(traj, scenario, agent.id, config.sample_count)
        if violation is None:
            return traj, report
        guess = initial_guess(traj, violation, scenario, agent)
        near_duplicate = any(
            j.obstacle_id == guess.obstacle_id
            and abs(j.time - guess.time) < DUPLICATE_MARGIN_FACTOR * config.time_margin
            for j in report.junction_sequence
        )
        if near_duplicate:
            raise PlanningFailure(
                f"agent {agent.id}: obstacle {guess.obstacle_id} still violated "
                f"next to an existing junction at t={guess.time:.4f}",
                trajectory=traj, report=report,
            )
        if len(report.junction_sequence) + 1 > config.max_junctions:
            raise PlanningFailure(
                f"agent {agent.id}: junction budget of {config.max_junctions} "
                "exhausted without a feasible trajectory",
                trajectory=traj, report=report,
            )
        junctions = tuple(
            sorted(report.junction_sequence + (guess,), key=lambda j: j.time)
        )
