"""Brute-force verification by discrete-time transcription.

This module is the independent check on the junction planner. It
discretizes the control trajectory into N zero-order-hold steps (the
hold dynamics of a double integrator are exact, so no integration error
enters), solves the unconstrained minimum-energy problem through the
normal equations of the control-to-terminal-state map, and handles
obstacle constraints with an increasing quadratic penalty. Nothing here
shares code with the junction solver beyond the scenario types.

State k of a plan is p_k = p_0 + k dt v_0 + sum_j r_k[j] u_j with the
ramp r_k[j] = dt^2 max(k - j - 1/2, 0). At a stationary point of cost
plus penalty, every axis of the controls is therefore a combination of
the two rows of the terminal map (affine in the step j) and of the
ramps of the states that an obstacle pushes on: like the planner's
junctions, a finite set of touch states and one coefficient per touch
state and axis fix the plan. A DiscretePlan holds exactly that: the
touch states, their ramp coefficients and the terminal-map
coefficients, which follow from the ramps because the plan ends on the
goal. Its controls, positions and velocities are computed on access.

The solve starts from the unconstrained plan, pre-shaped by pushing the
deepest state k of each violated obstacle out of it (a descent cannot
break the symmetry of a path aimed through an obstacle's center). With
the terminal state held, a push by delta adds delta / (r_k . P r_k) to
k's ramp coefficient, P the projection off the terminal map. Each weight
of the penalty schedule then runs Newton steps on the ramp coefficients.
With a penetrating states the Hessian is 2 dt I plus a rank-2 term per
penetrating state, so by Sherman-Morrison-Woodbury the Newton point
solves a 2a x 2a system of closed-form inner products of projected
ramps; where the full Hessian is not positive definite on those ramps
the step is Gauss-Newton. A monotone Armijo search halves the step from
the full one. Each weight rebuilds its start from the ramps, which
bounds rounding drift to one weight. If the steered start ends with a
penetration warning, the schedule runs again from the unconstrained plan.

What depends only on N, dt and the obstacles is built once per solve, a
_Grid: the terminal-map rows, their Gram matrix, j + 1/2 and the discs
as floats. A step then pays a fixed part of small NumPy calls (about 150
builtin calls as sys.setprofile counts them), six of them LAPACK solves
and factorizations (two for the Newton point's terminal-map
coefficients), plus O(a^3), and an O(N K) part for K obstacles: the
Newton point's controls (a cumsum over the touch states, repeated over
the steps) and states (two cumsums), and per trial an axpy over the
states and the penalty, the control cost being a quadratic in the step
fraction. No N x N matrix is ever formed.

A weight ends when the gradient of the objective, projected off the
terminal map, has norm at most gradient_tol. That gradient is P R psi,
R the ramps of the touch and penetrating states and psi their ramp
coefficients times 2 dt plus the penalty forces, so its squared norm is
psi^T K psi, K the projected ramp products the Newton step is built
from. A weight also ends when an accepted step lowers the objective by
at most 1e-14 of its value, when the search halves the step below
2^-20, or after descent_iterations steps. In float64, gradient_tol
is reachable only at the low weights: a penetration g = r^2 - |p - c|^2
carries a rounding error of about eps |p|^2, which the force
4 w g+ (p - c) multiplies by w, so at w = 1e8 the projected gradient
bottoms out at 1e-7 to 1e-4 on those inputs, and the relative-decrease
test ends the weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ComparisonError, DegenerateHorizonError
from .trajectory import KinematicState, PiecewiseTrajectory, trajectory_energy
from .world import AgentSpec, Scenario, inflated_radius

# Residual penetration (in squared-meter constraint units) above which
# the constrained oracle flags itself as unreliable.
PENETRATION_WARNING = 1e-4

# Armijo sufficient-decrease fraction, smallest step fraction tried, and
# the relative decrease below which a weight has converged.
ARMIJO = 1e-4
MIN_STEP = 2.0**-20
STALL = 1e-14


@dataclass(frozen=True)
class OracleConfig:
    """Discretization of the oracle: steps, its only setting.

    penalty_weights (positive, increasing), gradient_tol and
    descent_iterations, the Newton step budget of each weight, are
    constants of the solve, readable here but not settable.
    """

    penalty_weights: ClassVar[tuple[float, ...]] = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)
    gradient_tol: ClassVar[float] = 1e-8
    descent_iterations: ClassVar[int] = 50

    steps: int = 2000

    def __post_init__(self):
        _check_steps(self.steps)


def _check_steps(n) -> None:
    """A step count must be an int (not a bool) of at least 2."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"step count must be an int, not {type(n).__name__}")
    if n < 2:
        raise ValueError("need at least 2 steps")


def _frozen(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class DiscretePlan:
    """A zero-order-hold control plan of `steps` steps, held as a few numbers.

    On axis a, control j is affine[a] @ (dt^2 (N - j - 1/2), dt), the
    terminal-map rows, plus ramps[i, a] * dt^2 * max(k_i - j - 1/2, 0)
    for each touch state k_i in touches (increasing, within 1..N-1).
    controls (N, 2), positions and velocities (N+1, 2) are computed from
    these and the start state on every access, as read-only C-order
    arrays with the same bits each time. cost is the control energy
    sum(|u_k|^2)*dt of those controls, excluding any penalty terms.
    """

    t_start: float
    t_end: float
    steps: int
    start: KinematicState
    affine: np.ndarray
    touches: np.ndarray
    ramps: np.ndarray
    cost: float
    max_penetration: float = 0.0
    penetration_warning: bool = False

    def __post_init__(self):
        affine = np.array(self.affine, dtype=float).reshape(2, 2)
        touches = np.array(self.touches, dtype=np.intp).reshape(-1)
        ramps = np.array(self.ramps, dtype=float).reshape(touches.size, 2)
        if touches.size and (
            touches[0] < 1 or touches[-1] >= self.steps
            or np.any(np.diff(touches) <= 0)
        ):
            raise ValueError("touch states must increase within 1..steps-1")
        for name, value in (("affine", affine), ("touches", touches),
                            ("ramps", ramps)):
            object.__setattr__(self, name, _frozen(value))

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def _rows(self) -> np.ndarray:
        return _control_rows(_Grid(self.steps, self.dt), self.affine, self.touches,
                             self.ramps)

    def _state_rows(self):
        return _simulate(self.start.p, self.start.v, self._rows(), self.dt)

    @property
    def controls(self) -> np.ndarray:
        return _frozen(self._rows().T)

    @property
    def positions(self) -> np.ndarray:
        return _frozen(self._state_rows()[0].T)

    @property
    def velocities(self) -> np.ndarray:
        return _frozen(self._state_rows()[1].T)

    @property
    def states(self) -> tuple[KinematicState, ...]:
        positions, velocities = self._state_rows()
        return tuple(
            KinematicState(p=p, v=v) for p, v in zip(positions.T, velocities.T)
        )


def _simulate(p0, v0, controls: np.ndarray, dt: float):
    """Exact hold dynamics: p' = p + v dt + u dt^2/2, v' = v + u dt.

    controls is a (2, N) pair of axis rows; the positions and velocities
    returned are (2, N+1).
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


def _terminal_map(n: int, dt: float) -> np.ndarray:
    """Rows map a control sequence to terminal (position, velocity) per axis."""
    j = np.arange(n)
    return np.vstack([dt**2 * (n - j - 0.5), np.full(n, dt)])


class _Grid:
    """What a solve at n steps of dt among the given discs reads on every
    step, built once: the terminal-map rows, their Gram matrix, j + 1/2
    for each step j, and the discs as arrays and as (cx, cy, r^2) floats."""

    def __init__(self, n: int, dt: float, centers=np.zeros((0, 2)), radii=np.zeros(0)):
        self.n, self.dt = n, dt
        self.rows = _terminal_map(n, dt)
        self.gram = self.rows @ self.rows.T
        self.half = np.arange(0.5, n)
        self.centers, self.radii = centers, radii
        self.discs = tuple(zip(*centers.T.tolist(), (radii**2).tolist()))


def _control_cost(rows: np.ndarray, dt: float) -> float:
    """sum(|u_k|^2)*dt over (2, N) control rows, summed state-major."""
    state_major = np.empty((rows.shape[1], 2))
    state_major[:, 0], state_major[:, 1] = rows
    return float((state_major**2).sum() * dt)


def _ramp_products(k, kp, dt: float):
    """Inner products r_k . r_k' of the ramps of states k and k'
    (broadcast): dt^4 sum_{j < m} (k - j - 1/2)(k' - j - 1/2) with
    m = min(k, k') and M = max(k, k'). Times 12 the sum is the integer
    m (2 m (3 M - m)) - m, exact in float64 while 6 M^3 stays below 2^53
    (M up to about 110,000)."""
    m, big = np.minimum(k, kp), np.maximum(k, kp)
    return dt**4 * ((m * (2.0 * m * (3.0 * big - m)) - m) / 12.0)


def _terminal_ramps(touches: np.ndarray, n: int, dt: float) -> np.ndarray:
    """(m, 2): the terminal map applied to the ramp of each touch state,
    r_N . r_k and dt * sum(r_k) = dt^3 k^2 / 2."""
    k = touches.astype(float)
    ends = np.empty((k.size, 2))
    ends[:, 0] = _ramp_products(float(n), k, dt)
    ends[:, 1] = 0.5 * dt**3 * k * k
    return ends


def _terminal_gap(x0: KinematicState, xf: KinematicState, horizon: float):
    """(2, 2): per axis, the goal's (position, velocity) less where the
    start state coasts to."""
    return np.column_stack((xf.p - (x0.p + x0.v * horizon), xf.v - x0.v))


def _affine(grid: _Grid, gap, touches, ramps) -> np.ndarray:
    """(2, 2): per axis, the terminal-map coefficients that end the plan
    with the given ramps on the goal."""
    if touches.size:
        gap = gap - ramps.T @ _terminal_ramps(touches, grid.n, grid.dt)
    affine = np.empty((2, 2))
    for axis in range(2):
        affine[axis] = np.linalg.solve(grid.gram, gap[axis])
    return affine


def _control_rows(grid: _Grid, affine, touches, ramps) -> np.ndarray:
    """(2, N) controls of a plan held as coefficients.

    Step j feels the ramp of every touch state k > j, so the ramps add
    up as dt^2 (S_k[j] - (j + 1/2) S_1[j]) from the suffix sums S_1 of
    the coefficients and S_k of k times them. Both are constant between
    touch states: a reversed cumsum over the m touch states, each sum
    repeated over its steps, and zero after the last."""
    rows = np.empty((2, grid.n))
    for axis in range(2):
        rows[axis] = grid.rows.T @ affine[axis]
    if touches.size:
        sums = np.zeros((4, touches.size + 1))
        coefficients = np.concatenate((ramps.T, touches * ramps.T))
        sums[:, :-1] = np.cumsum(coefficients[:, ::-1], axis=1)[:, ::-1]
        edges = np.concatenate(((0,), touches, (grid.n,)))
        sums = np.repeat(sums, edges[1:] - edges[:-1], axis=1)
        rows += grid.dt**2 * (sums[2:] - grid.half * sums[:2])
    return rows


def _rebuild(grid: _Grid, start, gap, touches, ramps):
    """(2, N) controls and (2, N+1) positions and velocities of the plan
    with these ramps that ends on the goal."""
    controls = _control_rows(grid, _affine(grid, gap, touches, ramps), touches, ramps)
    return (controls, *_simulate(start.p, start.v, controls, grid.dt))


def _plan(grid: _Grid, t0, tf, start, gap, touches, ramps) -> DiscretePlan:
    """The DiscretePlan of these ramps that ends on the goal, with its cost
    and worst penetration of the grid's discs from the arrays it computes."""
    affine = _affine(grid, gap, touches, ramps)
    rows = _control_rows(grid, affine, touches, ramps)
    max_pen = 0.0
    if grid.discs:
        positions, _ = _simulate(start.p, start.v, rows, grid.dt)
        max_pen = float(np.max(_penalty_terms(positions, grid.discs)[1]))
    return DiscretePlan(
        t_start=t0, t_end=tf, steps=grid.n, start=start, affine=affine,
        touches=touches, ramps=ramps, cost=_control_cost(rows, grid.dt),
        max_penetration=max_pen, penetration_warning=max_pen > PENETRATION_WARNING,
    )


_NO_TOUCHES = np.zeros(0, dtype=np.intp)
_NO_RAMPS = np.zeros((0, 2))
_EYE2 = np.eye(2)


def discrete_min_energy(
    x0: KinematicState, xf: KinematicState, t0: float, tf: float, n: int
) -> DiscretePlan:
    """Exact discrete minimum-energy transfer between two states.

    Minimizes sum(|u_k|^2)*dt subject to the terminal state equality,
    via the minimum-norm solution of the linear control-to-terminal map.
    """
    if tf <= t0:
        raise DegenerateHorizonError(f"horizon [{t0}, {tf}] is empty")
    _check_steps(n)
    grid = _Grid(n, (tf - t0) / n)
    # Reachability cannot fail for this system with n >= 2.
    assert np.linalg.matrix_rank(grid.gram) == 2, "terminal map lost rank"
    plan = _plan(grid, t0, tf, x0, _terminal_gap(x0, xf, tf - t0), _NO_TOUCHES,
                 _NO_RAMPS)
    positions, velocities = plan._state_rows()
    terminal_err = max(float(np.linalg.norm(positions[:, -1] - xf.p)),
                       float(np.linalg.norm(velocities[:, -1] - xf.v)))
    assert terminal_err <= 1e-9, f"terminal state error {terminal_err:.3e}"
    return plan


def _penalty_terms(positions: np.ndarray, discs):
    """Per (cx, cy, r^2) disc, in order: the constraint g = r^2 - |p - c|^2
    at every state, its positive part, and the offsets p - c per axis;
    and the positive parts as the columns of one (N+1, K) array."""
    terms = []
    gplus = np.empty((positions.shape[1], len(discs)))
    for column, (cx, cy, r2) in enumerate(discs):
        dx = positions[0] - cx
        dy = positions[1] - cy
        g = r2 - (dx * dx + dy * dy)
        terms.append((g, np.maximum(g, 0.0, out=gplus[:, column]), dx, dy))
    return terms, gplus


def _penalized(cost, positions, discs, weight):
    """Cost plus weighted penalty at (2, N+1) positions, and its terms."""
    terms, gplus = _penalty_terms(positions, discs)
    return cost + weight * float((gplus**2).sum()), terms


def _line_search(grid: _Grid, weight, value, slope, controls, positions,
                 newton_controls, newton_positions):
    """Monotone Armijo backtracking from the plan of objective value at
    (2, N) controls and (2, N+1) positions towards the Newton point's. A
    trial at fraction alpha costs c0 + alpha (c1 + alpha c2), has states
    positions + alpha dp, and is rejected unformed when its cost alone is
    above the ceiling value + ARMIJO alpha slope (the penalty is >= +0.0).
    Returns alpha and the accepted (objective, controls, positions,
    terms), or None below MIN_STEP."""
    du, dp = newton_controls - controls, newton_positions - positions
    cost = _control_cost(controls, grid.dt)
    c1 = 2.0 * grid.dt * float(np.vdot(controls, du))
    c2 = grid.dt * float(np.vdot(du, du))
    alpha = 1.0
    while alpha >= MIN_STEP:
        ceiling = value + ARMIJO * alpha * slope
        trial_cost = cost + alpha * (c1 + alpha * c2)
        if trial_cost <= ceiling:
            trial_positions = positions + alpha * dp
            trial_value, terms = _penalized(trial_cost, trial_positions, grid.discs,
                                            weight)
            if trial_value <= ceiling:
                return (alpha, trial_value, controls + alpha * du, trial_positions,
                        terms)
        alpha *= 0.5
    return None


def _projected_products(grid: _Grid, states) -> np.ndarray:
    """r_k . P r_k' for states k, k', P the projection off the rows of the
    terminal map: the inner products of the control changes that the
    ramps make once the terminal state is held fixed."""
    k = np.asarray(states, dtype=float)
    ends = _terminal_ramps(k, grid.n, grid.dt)
    correction = ends @ np.linalg.solve(grid.gram, ends.T)
    return _ramp_products(k[:, None], k, grid.dt) - correction


def _positive_definite(curvature, block, shift) -> bool:
    """Whether 2 dt I + sum_k (r_k r_k^T) x curvature_k is positive
    definite on the terminal-preserving controls, curvature_k being the
    (2, 2) penalty Hessian in the position of state k, block the projected
    ramp products and shift 2 dt I: with block = root root^T, whether
    shift + root^T curvature root is, formed by a broadcast and a product."""
    scale, basis = np.linalg.eigh(block)
    root = basis * np.sqrt(np.maximum(scale, 0.0))
    a = root.shape[0]
    lifted = (curvature[:, :, None, :] * root[:, None, :, None]).reshape(a, 4 * a)
    try:
        np.linalg.cholesky((root.T @ lifted).reshape(2 * a, 2 * a) + shift)
    except np.linalg.LinAlgError:
        return False
    return True


def _newton_step(grid: _Grid, terms, touches, ramps, weight):
    """The Newton point from the plan (touches, ramps) whose penalty
    terms are given, or None where the plan is stationary or the point
    gives no descent: the union of the touch states and the penetrating
    states (not the ends, which no control moves), the current and Newton
    ramp coefficients on it, and the slope between them. The projected
    gradient is P R psi with psi = 2 dt ramps + the forces -4 w g+ (p - c)
    at the penetrating states, so its squared norm, which the stop test
    reads, and the slope are quadratic forms in the projected products.
    """
    inside = terms[0][0][1:grid.n] > 0.0
    for g, _, _, _ in terms[1:]:
        inside |= g[1:grid.n] > 0.0
    active = inside.nonzero()[0] + 1
    inside[touches - 1] = True
    union = inside.nonzero()[0] + 1
    if not union.size:
        return None
    current = np.zeros((union.size, 2))
    current[np.searchsorted(union, touches)] = ramps
    at = np.searchsorted(union, active)

    a = active.size
    force = np.zeros((a, 2))
    normal = np.zeros((a, 2, 2))
    bend = np.zeros(a)
    for _, gplus, dx, dy in terms:
        depth = gplus[active]
        offset = np.empty((a, 2))
        offset[:, 0], offset[:, 1] = dx[active], dy[active]
        force -= 4.0 * weight * depth[:, None] * offset
        outer = offset[:, :, None] * offset[:, None, :]
        normal += (8.0 * weight * (depth > 0.0))[:, None, None] * outer
        bend += 4.0 * weight * depth

    products = _projected_products(grid, union)
    psi = 2.0 * grid.dt * current
    psi[at] += force
    if np.sum(psi * (products @ psi)) <= OracleConfig.gradient_tol**2:
        return None

    # Newton point: 2 dt c + H_k (p'_k - p_k) = -force_k at each
    # penetrating state k, where p' - p = products (c' - current); the
    # ramps of the other states drop to zero.
    target = np.zeros_like(current)
    if a:
        reach = products[at]
        block = reach[:, at]
        curvature = normal - bend[:, None, None] * _EYE2
        shift = 2.0 * grid.dt * np.eye(2 * a)
        if not _positive_definite(curvature, block, shift):
            curvature = normal
        system = curvature[:, :, None, :] * block[:, None, :, None]
        rhs = np.einsum("kxy,ky->kx", curvature, reach @ current) - force
        system = system.reshape(2 * a, 2 * a) + shift
        target[at] = np.linalg.solve(system, rhs.reshape(-1)).reshape(a, 2)
    slope = float(np.sum(psi * (products @ (target - current))))
    if not slope < 0.0:
        return None
    return union, current, target, slope


def _steered_start(grid: _Grid, start, gap, chord):
    """Touch states and ramps of the unconstrained plan pushed out of the
    discs it violates: the deepest state k of each offending disc moves by
    delta to just outside it, on the cross-track side of the path (ties to
    the left of travel). The least control change that does so and holds
    the terminal state adds delta / (r_k . P r_k) to k's ramp coefficient,
    P the projection off the terminal map. A push can move the path into a
    disc already checked, so passes repeat while one moves a state, at
    most once per disc; the states are rebuilt only after a push."""
    pushes: dict = {}
    touches, ramps = _NO_TOUCHES, _NO_RAMPS
    _, positions, velocities = _rebuild(grid, start, gap, touches, ramps)
    for _ in grid.discs:
        moved = False
        for disc, center, radius in zip(grid.discs, grid.centers, grid.radii):
            [(g, _, _, _)], _ = _penalty_terms(positions, (disc,))
            k = int(np.argmax(g))
            if g[k] <= 0:
                continue
            offset = positions[:, k] - center
            velocity = velocities[:, k]
            speed = float(np.linalg.norm(velocity))
            direction = velocity / speed if speed > 1e-9 else chord
            cross = offset - (offset @ direction) * direction
            cross_norm = float(np.linalg.norm(cross))
            push = (cross / cross_norm if cross_norm >= 1e-9
                    else np.array([-direction[1], direction[0]]))
            target = center + 1.05 * radius * push
            k = min(max(k, 1), grid.n - 1)
            product = _projected_products(grid, [k])[0, 0]
            pushes[k] = pushes.get(k, 0.0) + (target - positions[:, k]) / product
            touches = np.array(sorted(pushes), dtype=np.intp)
            ramps = np.array([pushes[state] for state in touches])
            _, positions, velocities = _rebuild(grid, start, gap, touches, ramps)
            moved = True
        if not moved:
            break
    return touches, ramps


def discrete_min_energy_constrained(
    agent: AgentSpec,
    scenario: Scenario,
    config: OracleConfig = OracleConfig(),
    objective_trace: list | None = None,
) -> DiscretePlan:
    """Penalty-method solve of the obstacle-constrained discrete problem.

    Starts from the unconstrained plan, pre-shaped around violated
    obstacles, then runs Newton steps on the ramp coefficients at each
    penalty weight, every plan ending exactly on the goal. When that ends
    with a penetration warning, the schedule runs again from the
    unconstrained plan itself, kept if it clears the warning: on crowded
    worlds the pushes can drive the path into overlapping obstacles.

    When objective_trace is a list, it gets the trace of the plan
    returned: per weight a (weight, objective) pair for the plan the
    weight starts from, then one per accepted step, to audit descent.
    """
    base = discrete_min_energy(
        agent.start, agent.goal, agent.t0, agent.tf_nominal, config.steps
    )
    if not scenario.obstacles:
        return base
    n, dt = config.steps, base.dt
    grid = _Grid(n, dt, np.array([o.center for o in scenario.obstacles]),
                 np.array([inflated_radius(o, agent) for o in scenario.obstacles]))
    chord = agent.goal.p - agent.start.p
    chord_norm = float(np.linalg.norm(chord))
    chord = chord / chord_norm if chord_norm > 0 else np.array([1.0, 0.0])
    gap = _terminal_gap(agent.start, agent.goal, agent.tf_nominal - agent.t0)

    def solve(touches, ramps):
        trace = []
        for weight in config.penalty_weights:
            controls, positions, _ = _rebuild(grid, agent.start, gap, touches, ramps)
            value, terms = _penalized(_control_cost(controls, dt), positions,
                                      grid.discs, weight)
            trace.append((weight, value))
            for _ in range(config.descent_iterations):
                step = _newton_step(grid, terms, touches, ramps, weight)
                if step is None:
                    break
                union, current, target, slope = step
                newton = _rebuild(grid, agent.start, gap, union, target)[:2]
                found = _line_search(grid, weight, value, slope, controls, positions,
                                     *newton)
                if found is None:
                    break
                alpha, trial_value, controls, positions, terms = found
                trial = current + alpha * (target - current)
                kept = np.any(trial != 0.0, axis=1)
                stalled = value - trial_value <= STALL * abs(value)
                touches, ramps = union[kept], trial[kept]
                value = trial_value
                trace.append((weight, value))
                if stalled:
                    break
        return _plan(grid, agent.t0, agent.tf_nominal, agent.start, gap, touches,
                     ramps), trace

    if n == 2:
        # the terminal state fixes both controls: no step can move them
        positions = base._state_rows()[0]
        trace = [(weight, _penalized(base.cost, positions, grid.discs, weight)[0])
                 for weight in config.penalty_weights]
        plan = _plan(grid, agent.t0, agent.tf_nominal, agent.start, gap, _NO_TOUCHES,
                     _NO_RAMPS)
    else:
        plan, trace = solve(*_steered_start(grid, agent.start, gap, chord))
        if plan.penetration_warning:
            retry, retry_trace = solve(_NO_TOUCHES, _NO_RAMPS)
            if not retry.penetration_warning:
                plan, trace = retry, retry_trace
    if objective_trace is not None:
        objective_trace.extend(trace)
    return plan


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
