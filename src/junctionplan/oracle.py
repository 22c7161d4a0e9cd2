"""Brute-force verification by discrete-time transcription.

This module is the independent check on the junction planner. It
discretizes the control trajectory into N zero-order-hold steps (the
hold dynamics of a double integrator are exact, so no integration error
enters), solves the unconstrained minimum-energy problem through the
normal equations of the control-to-terminal-state map, and handles
obstacle constraints with an increasing quadratic penalty minimized by
projected gradient descent. Nothing here shares code with the junction
solver beyond the scenario types.

The descent holds the controls and the projected gradient as C-order
(N, 2) arrays, so the full reductions (control cost, squared gradient
norm) add in the order they always have, and the squared penalty runs
over a C-order (N+1, K) stack. Simulation, penalty terms and gradient
work on axis-major rows: positions and velocities are (2, N+1), one
contiguous row per axis, and each obstacle's constraint is formed from
its two offset rows as dx*dx + dy*dy. Every elementwise operation and
every cumsum is the one the earlier state-major (N, 2) kernels made and
the penalty forces add up over obstacles in obstacle order, so every
iterate has the bits it had under those kernels. An objective
evaluation hands each obstacle's positive part and offsets to the
gradient at the same controls.

One descent iteration is a gradient, a projection, a squared norm and,
in the backtracking line search, about two Armijo trials. Two things
keep a step cheap without moving a bit:
- The gradient's suffix sums run only over the span of states where
  some obstacle pushes, on average fewer than 2 of the 2001 states on
  perfbench's oracle inputs. Elsewhere the force is exactly -0.0, which
  leaves a running sum unchanged.
- A trial is first screened on its control cost: the weighted penalty is
  >= +0.0 and rounding is monotone, so a trial whose cost alone is above
  the Armijo bound would be rejected anyway, and it is rejected without
  being simulated. A trial that passes is simulated (two cumsums, then
  seven elementwise passes over the states per obstacle) and decided on
  its objective as before. The screen decides 0.3-52% of the rejected
  trials on those inputs.
At N = 2000 with one obstacle an iteration costs about 0.25 ms on a
2-vCPU x86-64 host (0.3-0.35 ms without the span and the screen), and
the descent seldom reaches gradient_tol, so an input runs about
7 x 500 iterations. DiscretePlan holds C-contiguous, read-only (N, 2)
and (N+1, 2) copies of the arrays it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComparisonError, DegenerateHorizonError
from .trajectory import KinematicState, PiecewiseTrajectory, trajectory_energy
from .world import AgentSpec, Scenario, inflated_radius

# Residual penetration (in squared-meter constraint units) above which
# the constrained oracle flags itself as unreliable.
PENETRATION_WARNING = 1e-4

DEFAULT_PENALTY_WEIGHTS = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


@dataclass(frozen=True)
class OracleConfig:
    """Discretization and penalty-descent settings."""

    steps: int = 2000
    penalty_weights: tuple[float, ...] = DEFAULT_PENALTY_WEIGHTS
    descent_iterations: int = 500
    gradient_tol: float = 1e-8

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError("steps must be at least 2")
        weights = tuple(float(w) for w in self.penalty_weights)
        if any(w <= 0 for w in weights) or any(
            b <= a for a, b in zip(weights, weights[1:])
        ):
            raise ValueError("penalty weights must be positive and increasing")
        object.__setattr__(self, "penalty_weights", weights)
        if self.descent_iterations <= 0 or self.gradient_tol <= 0:
            raise ValueError("descent budget and tolerance must be positive")


@dataclass(frozen=True, eq=False)
class DiscretePlan:
    """A zero-order-hold control plan with its simulated states.

    positions and velocities have N+1 rows, controls N rows. cost is the
    control energy sum(|u_k|^2)*dt, excluding any penalty terms.
    """

    t_start: float
    t_end: float
    dt: float
    controls: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    cost: float
    max_penetration: float = 0.0
    penetration_warning: bool = False

    def __post_init__(self):
        for name in ("controls", "positions", "velocities"):
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.controls.shape[0]
        if self.positions.shape != (n + 1, 2) or self.velocities.shape != (n + 1, 2):
            raise ValueError("state arrays must have one more row than controls")

    @property
    def states(self) -> tuple[KinematicState, ...]:
        return tuple(
            KinematicState(p=self.positions[k], v=self.velocities[k])
            for k in range(self.positions.shape[0])
        )


def _simulate(p0, v0, controls: np.ndarray, dt: float):
    """Exact hold dynamics: p' = p + v dt + u dt^2/2, v' = v + u dt.

    controls is a (2, N) pair of axis rows, or the transposed view of
    C-order (N, 2) controls (a cumsum adds in sequence whatever the
    strides); the positions and velocities returned are (2, N+1).
    """
    n = controls.shape[1]
    cum_u = np.cumsum(controls, axis=1)
    velocities = np.empty((2, n + 1))
    velocities[:, 0] = v0
    velocities[:, 1:] = v0[:, None] + dt * cum_u
    positions = np.empty((2, n + 1))
    positions[:, 0] = p0
    positions[:, 1:] = (
        p0[:, None]
        + dt * np.cumsum(velocities[:, :-1], axis=1)
        + 0.5 * dt**2 * cum_u
    )
    return positions, velocities


def _state_major(rows: np.ndarray) -> np.ndarray:
    """The C-order (N, m) copy of m rows.

    A full reduction over it adds in the same order as over the (N, 2)
    and (N+1, K) arrays of the state-major layout, so sums keep their bits.
    """
    return np.ascontiguousarray(rows.T)


def _terminal_map(n: int, dt: float) -> np.ndarray:
    """Rows map a control sequence to terminal (position, velocity) per axis."""
    j = np.arange(n)
    return np.vstack([dt**2 * (n - j - 0.5), np.full(n, dt)])


def _control_cost(controls: np.ndarray, dt: float) -> float:
    """sum(|u_k|^2)*dt over C-order (N, 2) controls."""
    return float((controls**2).sum() * dt)


def discrete_min_energy(
    x0: KinematicState, xf: KinematicState, t0: float, tf: float, n: int
) -> DiscretePlan:
    """Exact discrete minimum-energy transfer between two states.

    Minimizes sum(|u_k|^2)*dt subject to the terminal state equality,
    via the minimum-norm solution of the linear control-to-terminal map.
    """
    if tf <= t0:
        raise DegenerateHorizonError(f"horizon [{t0}, {tf}] is empty")
    if n < 2:
        raise ValueError("need at least 2 steps")
    dt = (tf - t0) / n
    gmap = _terminal_map(n, dt)
    gram = gmap @ gmap.T
    # Reachability cannot fail for this system with n >= 2.
    assert np.linalg.matrix_rank(gram) == 2, "terminal map lost rank"
    horizon = tf - t0
    controls = np.empty((2, n))
    for axis in range(2):
        free_p = x0.p[axis] + x0.v[axis] * horizon
        rhs = np.array([xf.p[axis] - free_p, xf.v[axis] - x0.v[axis]])
        controls[axis] = gmap.T @ np.linalg.solve(gram, rhs)
    positions, velocities = _simulate(x0.p, x0.v, controls, dt)
    terminal_err = max(
        float(np.linalg.norm(positions[:, -1] - xf.p)),
        float(np.linalg.norm(velocities[:, -1] - xf.v)),
    )
    assert terminal_err <= 1e-9, f"terminal state error {terminal_err:.3e}"
    return DiscretePlan(
        t_start=t0, t_end=tf, dt=dt, controls=controls.T, positions=positions.T,
        velocities=velocities.T, cost=_control_cost(_state_major(controls), dt),
    )


def _penalty_terms(positions: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Per obstacle, in obstacle order: the constraint g = r^2 - |p - c|^2
    at every state, its positive part, and the offsets p - c per axis."""
    terms = []
    for (cx, cy), r2 in zip(centers.tolist(), (radii**2).tolist()):
        dx = positions[0] - cx
        dy = positions[1] - cy
        g = r2 - (dx * dx + dy * dy)
        terms.append((g, np.maximum(g, 0.0), dx, dy))
    return terms


def _objective(controls, p0, v0, dt, centers, radii, weight, ceiling=math.inf):
    """Cost plus weighted penalty of C-order (N, 2) controls, with the
    penalty terms that the gradient at the same controls reads.

    The weighted penalty is >= +0.0 and rounding is monotone, so the
    objective is never below the control cost. When that cost alone
    exceeds ceiling, the controls are not simulated: the cost comes back
    in place of the objective, above ceiling as the objective would be,
    with no terms.
    """
    cost = _control_cost(controls, dt)
    if cost > ceiling:
        return cost, None
    positions, _ = _simulate(p0, v0, np.ascontiguousarray(controls.T), dt)
    terms = _penalty_terms(positions, centers, radii)
    gplus = np.stack([term[1] for term in terms], axis=1)
    return cost + weight * float((gplus**2).sum()), terms


def _gradient(controls, terms, dt, weight):
    """Gradient of cost plus penalty with respect to every control, as
    (2, N) rows, for C-order (N, 2) controls.

    d p_k / d u_j = dt^2 (k - j - 1/2) for j < k; the double sum
    collapses into two suffix sums over the penalty forces -4w f of
    states 1 .. N. f adds up g+ (dx, dy) over obstacles from +0.0 in
    obstacle order, as np.sum over the obstacle axis does, so where it is
    zero it is +0.0, never -0.0, and the force there is rest = -4w * 0.0
    (-0.0 for a finite w), which leaves a running sum as it is. So the
    sums run only over the span from the first to the last state where f
    is not zero on some axis. NaN counts as not zero, and so does an
    infinite offset, whose g is -inf but whose g+ dx is NaN; testing
    g < 0 would miss it. After the span the sums are rest, before it
    their value at the span's first state plus rest: the bits that sums
    over all states give.
    """
    n = controls.shape[0]
    fx = fy = 0.0
    for _, gplus, dx, dy in terms:
        fx = fx + gplus[1:] * dx[1:]
        fy = fy + gplus[1:] * dy[1:]
    # column i is state k = i + 1; rows are the suffix sums of f_x, f_y,
    # k f_x and k f_y; states k = j+1 .. n feel control j
    rest = -4.0 * weight * 0.0
    suffix = np.full((4, n), rest)
    live = np.flatnonzero((fx != 0.0) | (fy != 0.0))
    if live.size:
        first, stop = int(live[0]), int(live[-1]) + 1
        forces = -4.0 * weight * np.array((fx[first:stop], fy[first:stop]))
        k = np.arange(first + 1.0, stop + 1.0)
        span = np.concatenate((forces, k * forces))
        suffix[:, first:stop] = np.cumsum(span[:, ::-1], axis=1)[:, ::-1]
        suffix[:, :first] = suffix[:, first, None] + rest
    j = np.arange(0.5, n)
    return 2.0 * dt * controls.T + dt**2 * (suffix[2:] - j * suffix[:2])


def _project_out_terminal(grad: np.ndarray, gmap: np.ndarray,
                          gram_inv: np.ndarray) -> np.ndarray:
    """Remove the component that would change the terminal state.

    grad is (2, N) rows; each projected row is written into a column of
    the C-order (N, 2) result.
    """
    out = np.empty((grad.shape[1], 2))
    for axis in range(2):
        coeff = gram_inv @ (gmap @ grad[axis])
        out[:, axis] = grad[axis] - gmap.T @ coeff
    return out


def _min_norm_waypoint_bump(
    n: int, dt: float, k_star: int, delta_p: np.ndarray, gmap: np.ndarray
) -> np.ndarray:
    """Minimum-norm control change moving state k_star by delta_p while
    leaving the terminal state untouched."""
    j = np.arange(n)
    pos_row = np.where(j < k_star, dt**2 * (k_star - j - 0.5), 0.0)
    m = np.vstack([pos_row, gmap])
    gram = m @ m.T
    bump = np.empty((2, n))
    for axis in range(2):
        rhs = np.array([delta_p[axis], 0.0, 0.0])
        bump[axis] = m.T @ np.linalg.solve(gram, rhs)
    return bump


def _steer_initial_plan(controls, p0, v0, dt, centers, radii, chord):
    """Deterministically push the straight plan out of violated obstacles.

    Plain gradient descent cannot break an exact symmetry (a path aimed
    through an obstacle center has identically zero cross-track
    gradient), so the start plan is pre-shaped: the deepest-violation
    state of each offending obstacle is moved to just outside the
    inflated circle, on the cross-track side of the path, with ties
    broken to the left of travel. The move is the minimum-norm control
    change that keeps the terminal state exact.
    """
    n = controls.shape[1]
    gmap = _terminal_map(n, dt)
    for idx in range(centers.shape[0]):
        positions, velocities = _simulate(p0, v0, controls, dt)
        [(g, _, _, _)] = _penalty_terms(
            positions, centers[idx : idx + 1], radii[idx : idx + 1]
        )
        k_star = int(np.argmax(g))
        if g[k_star] <= 0:
            continue
        offset = positions[:, k_star] - centers[idx]
        velocity = velocities[:, k_star]
        speed = float(np.linalg.norm(velocity))
        direction = velocity / speed if speed > 1e-9 else chord
        cross = offset - (offset @ direction) * direction
        cross_norm = float(np.linalg.norm(cross))
        if cross_norm < 1e-9:
            push = np.array([-direction[1], direction[0]])
        else:
            push = cross / cross_norm
        target = centers[idx] + 1.05 * radii[idx] * push
        k_star = int(np.clip(k_star, 1, n - 1))
        controls = controls + _min_norm_waypoint_bump(
            n, dt, k_star, target - positions[:, k_star], gmap
        )
    return controls


def discrete_min_energy_constrained(
    agent: AgentSpec,
    scenario: Scenario,
    config: OracleConfig = OracleConfig(),
    objective_trace: list | None = None,
) -> DiscretePlan:
    """Penalty-method solve of the obstacle-constrained discrete problem.

    Starts from the unconstrained plan (pre-shaped around any violated
    obstacle), then for each weight in the increasing penalty schedule
    runs projected gradient descent with a backtracking line search.
    Terminal equality is preserved exactly by projecting every step onto
    the null space of the control-to-terminal-state map.

    When objective_trace is a list, every accepted iterate appends a
    (weight, objective) pair so descent monotonicity can be audited.
    """
    base = discrete_min_energy(
        agent.start, agent.goal, agent.t0, agent.tf_nominal, config.steps
    )
    if not scenario.obstacles:
        return base
    n = config.steps
    dt = base.dt
    p0, v0 = agent.start.p, agent.start.v
    centers = np.array([o.center for o in scenario.obstacles])
    radii = np.array([inflated_radius(o, agent) for o in scenario.obstacles])
    chord = agent.goal.p - agent.start.p
    chord_norm = float(np.linalg.norm(chord))
    chord = chord / chord_norm if chord_norm > 0 else np.array([1.0, 0.0])

    controls = _state_major(_steer_initial_plan(
        np.ascontiguousarray(base.controls.T), p0, v0, dt, centers, radii, chord
    ))
    gmap = _terminal_map(n, dt)
    gram_inv = np.linalg.inv(gmap @ gmap.T)
    alpha = 1.0
    for weight in config.penalty_weights:
        value, terms = _objective(controls, p0, v0, dt, centers, radii, weight)
        if objective_trace is not None:
            objective_trace.append((weight, value))
        for _ in range(config.descent_iterations):
            grad = _project_out_terminal(
                _gradient(controls, terms, dt, weight), gmap, gram_inv
            )
            gnorm2 = float((grad**2).sum())
            if np.sqrt(gnorm2) <= config.gradient_tol:
                break
            alpha = min(alpha * 2.0, 1e3)
            while True:
                trial = controls - alpha * grad
                ceiling = value - 1e-4 * alpha * gnorm2
                trial_value, trial_terms = _objective(
                    trial, p0, v0, dt, centers, radii, weight, ceiling
                )
                if trial_value <= ceiling:
                    break
                alpha *= 0.5
                if alpha < 1e-18:
                    break
            if alpha < 1e-18:
                break
            controls, value, terms = trial, trial_value, trial_terms
            if objective_trace is not None:
                objective_trace.append((weight, value))

    positions, velocities = _simulate(p0, v0, controls.T, dt)
    max_pen = float(np.max(
        [gplus for _, gplus, _, _ in _penalty_terms(positions, centers, radii)]
    ))
    return DiscretePlan(
        t_start=agent.t0, t_end=agent.tf_nominal, dt=dt, controls=controls,
        positions=positions.T, velocities=velocities.T,
        cost=_control_cost(controls, dt),
        max_penetration=max_pen,
        penetration_warning=max_pen > PENETRATION_WARNING,
    )


def compare(traj: PiecewiseTrajectory, plan: DiscretePlan) -> float:
    """Relative energy gap between a continuous trajectory and a plan.

    Positive means the trajectory spends more energy than the oracle;
    small negative values are expected because the oracle is discretized.
    """
    if abs(traj.t_start - plan.t_start) > 1e-9 or abs(traj.t_end - plan.t_end) > 1e-9:
        raise ComparisonError(
            f"horizons differ: [{traj.t_start}, {traj.t_end}] vs "
            f"[{plan.t_start}, {plan.t_end}]"
        )
    return (trajectory_energy(traj) - plan.cost) / max(plan.cost, 1e-12)
