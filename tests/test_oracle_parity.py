"""Bit parity of the oracle's unconstrained transfer, objective screen
and Newton steps with their earlier, state-major form, and its stop test
against the gradient over every control.

oracle._simulate and _penalty_terms work on axis-major (2, N) rows; every
elementwise operation and every cumsum is the one the (N, 2) kernels
made, so the unconstrained transfer, the objective and the states of a
Newton plan keep their bits. A line-search trial whose control cost
alone is above the Armijo bound is rejected without forming its states,
and the controls and states that the search carries from step to step
agree with those rebuilt from the accepted ramps to rounding. The
reference below keeps the (N, 2) kernels, and the steering as it was
when it moved (N, 2) controls by minimum-norm waypoint bumps.
Two checks tie the Newton oracle to that reference: its steered start,
pushed on ramp coefficients, gives the reference steering's controls to
rounding, and at two steps, where the goal fixes both controls, it
returns the unconstrained transfer's bits.

The reference also keeps the Newton step's helpers as they were before
the per-solve algebra moved into oracle._Grid: control rows whose suffix
sums are a reversed cumsum over every step, the earlier ramp-product
polynomial, the projected products, the definiteness test that fills
its matrix axis pair by axis pair, and the Newton step built on them.
Along solves, the oracle's control rows and Newton steps have their
bits and the same Newton or Gauss-Newton choice on every step.

A weight ends where psi^T K psi, the squared projected gradient in the
Newton model's terms, is at most gradient_tol^2. The reference gradient
sums the penalty forces of every state into every control, and a solve
with the Gram matrix projects it off the terminal map; along solves the
two norms agree and the oracle stops exactly where the reference's is
at most gradient_tol.
"""

import math

import numpy as np
import pytest

from junctionplan import (
    AgentSpec,
    KinematicState,
    Obstacle,
    OracleConfig,
    Scenario,
    discrete_min_energy,
    discrete_min_energy_constrained,
    inflated_radius,
)
from junctionplan import oracle
from junctionplan.oracle import _terminal_map
from junctionplan.world import Bounds, gen_world

from conftest import reference_world

# The cases run at a reduced discretization so that the module stays fast.
SMALL = OracleConfig(steps=300)


def reference_simulate(p0, v0, controls, dt):
    n = controls.shape[0]
    velocities = np.empty((n + 1, 2))
    velocities[0] = v0
    velocities[1:] = v0 + dt * np.cumsum(controls, axis=0)
    positions = np.empty((n + 1, 2))
    positions[0] = p0
    positions[1:] = (
        p0
        + dt * np.cumsum(velocities[:-1], axis=0)
        + 0.5 * dt**2 * np.cumsum(controls, axis=0)
    )
    return positions, velocities


def reference_control_cost(controls, dt):
    return float(np.sum(controls**2) * dt)


def reference_min_energy(x0, xf, t0, tf, n):
    dt = (tf - t0) / n
    gmap = _terminal_map(n, dt)
    gram = gmap @ gmap.T
    horizon = tf - t0
    controls = np.empty((n, 2))
    for axis in range(2):
        free_p = x0.p[axis] + x0.v[axis] * horizon
        rhs = np.array([xf.p[axis] - free_p, xf.v[axis] - x0.v[axis]])
        controls[:, axis] = gmap.T @ np.linalg.solve(gram, rhs)
    positions, velocities = reference_simulate(x0.p, x0.v, controls, dt)
    return dt, controls, positions, velocities


def reference_penalty_terms(positions, centers, radii):
    d = positions[:, None, :] - centers[None, :, :]
    g = radii[None, :] ** 2 - np.sum(d * d, axis=2)
    return g, np.maximum(g, 0.0)


def reference_objective(controls, p0, v0, dt, centers, radii, weight):
    positions, _ = reference_simulate(p0, v0, controls, dt)
    _, gplus = reference_penalty_terms(positions, centers, radii)
    value = reference_control_cost(controls, dt) + weight * float(np.sum(gplus**2))
    return value, positions


def reference_gradient(controls, positions, dt, centers, radii, weight):
    n = controls.shape[0]
    _, gplus = reference_penalty_terms(positions, centers, radii)
    d = positions[:, None, :] - centers[None, :, :]
    forces = -4.0 * weight * np.sum(gplus[:, :, None] * d, axis=1)
    k = np.arange(n + 1)[:, None]
    suffix_f = np.cumsum((forces)[::-1], axis=0)[::-1]
    suffix_kf = np.cumsum((k * forces)[::-1], axis=0)[::-1]
    grad = 2.0 * dt * controls.copy()
    j = np.arange(n)[:, None]
    grad += dt**2 * (suffix_kf[1:] - (j + 0.5) * suffix_f[1:])
    return grad


def reference_waypoint_bump(n, dt, k_star, delta_p, gmap):
    j = np.arange(n)
    pos_row = np.where(j < k_star, dt**2 * (k_star - j - 0.5), 0.0)
    m = np.vstack([pos_row, gmap])
    gram = m @ m.T
    bump = np.empty((n, 2))
    for axis in range(2):
        rhs = np.array([delta_p[axis], 0.0, 0.0])
        bump[:, axis] = m.T @ np.linalg.solve(gram, rhs)
    return bump


def reference_steer(controls, p0, v0, dt, centers, radii, chord):
    n = controls.shape[0]
    gmap = _terminal_map(n, dt)
    for idx in range(centers.shape[0]):
        positions, velocities = reference_simulate(p0, v0, controls, dt)
        g, _ = reference_penalty_terms(
            positions, centers[idx : idx + 1], radii[idx : idx + 1]
        )
        k_star = int(np.argmax(g[:, 0]))
        if g[k_star, 0] <= 0:
            continue
        offset = positions[k_star] - centers[idx]
        speed = float(np.linalg.norm(velocities[k_star]))
        direction = velocities[k_star] / speed if speed > 1e-9 else chord
        cross = offset - (offset @ direction) * direction
        cross_norm = float(np.linalg.norm(cross))
        if cross_norm < 1e-9:
            push = np.array([-direction[1], direction[0]])
        else:
            push = cross / cross_norm
        target = centers[idx] + 1.05 * radii[idx] * push
        k_star = int(np.clip(k_star, 1, n - 1))
        controls = controls + reference_waypoint_bump(
            n, dt, k_star, target - positions[k_star], gmap
        )
    return controls


def reference_ramp_products(k, kp, dt):
    m = np.minimum(k, kp)
    return dt**4 * ((12.0 * m * k * kp - 6.0 * (k + kp) * m * m
                     + m * (4.0 * m * m - 1.0)) / 12.0)


def reference_terminal_ramps(touches, n, dt):
    k = touches.astype(float)
    return np.column_stack((reference_ramp_products(float(n), k, dt),
                            0.5 * dt**3 * k * k))


def reference_control_rows(n, dt, affine, touches, ramps):
    gmap = _terminal_map(n, dt)
    rows = np.empty((2, n))
    for axis in range(2):
        rows[axis] = gmap.T @ affine[axis]
    if touches.size:
        sums = np.zeros((4, n))
        sums[:2, touches - 1] = ramps.T
        sums[2:, touches - 1] = touches * ramps.T
        sums = np.cumsum(sums[:, ::-1], axis=1)[:, ::-1]
        rows += dt**2 * (sums[2:] - np.arange(0.5, n) * sums[:2])
    return rows


def reference_projected_products(touches, n, dt, gram):
    k = touches.astype(float)
    ends = reference_terminal_ramps(touches, n, dt)
    return (reference_ramp_products(k[:, None], k[None, :], dt)
            - ends @ np.linalg.solve(gram, ends.T))


def reference_positive_definite(curvature, products, dt):
    scale, basis = np.linalg.eigh(products)
    root = basis * np.sqrt(np.clip(scale, 0.0, None))
    a = root.shape[0]
    inner = np.empty((a, 2, a, 2))
    for x in range(2):
        for y in range(2):
            inner[:, x, :, y] = root.T @ (curvature[:, x, y, None] * root)
    inner = inner.reshape(2 * a, 2 * a)
    try:
        np.linalg.cholesky(inner + 2.0 * dt * np.eye(2 * a))
    except np.linalg.LinAlgError:
        return False
    return True


def reference_newton_model(terms, touches, ramps, weight, n, dt, gram):
    """The Newton model of a step, or None when it has no states: the union,
    current ramps and penetrating states' places in it, the forces, the
    penalty Hessian's parts, the projected products and psi."""
    inside = np.zeros(n + 1, dtype=bool)
    for g, _, _, _ in terms:
        inside |= g > 0.0
    inside[0] = inside[n] = False
    active = np.flatnonzero(inside)
    union = np.union1d(touches, active)
    if not union.size:
        return None
    current = np.zeros((union.size, 2))
    current[np.searchsorted(union, touches)] = ramps
    at = np.searchsorted(union, active)

    force = np.zeros((active.size, 2))
    normal = np.zeros((active.size, 2, 2))
    bend = np.zeros(active.size)
    for _, gplus, dx, dy in terms:
        depth = gplus[active]
        offset = np.column_stack((dx[active], dy[active]))
        force -= 4.0 * weight * depth[:, None] * offset
        normal += (8.0 * weight * (depth > 0.0))[:, None, None] * (
            offset[:, :, None] * offset[:, None, :]
        )
        bend += 4.0 * weight * depth

    products = reference_projected_products(union, n, dt, gram)
    psi = 2.0 * dt * current
    psi[at] += force
    return union, current, at, force, normal, bend, products, psi


def reference_newton_step(terms, touches, ramps, weight, n, dt, gram):
    model = reference_newton_model(terms, touches, ramps, weight, n, dt, gram)
    if model is None:
        return None
    union, current, at, force, normal, bend, products, psi = model
    target = np.zeros_like(current)
    a = at.size
    if a:
        block = products[np.ix_(at, at)]
        curvature = normal - bend[:, None, None] * np.eye(2)
        if not reference_positive_definite(curvature, block, dt):
            curvature = normal
        system = (curvature[:, :, None, :] * block[:, None, :, None]).reshape(2 * a, 2 * a)
        system += 2.0 * dt * np.eye(2 * a)
        rhs = np.einsum("kxy,ky->kx", curvature, products[at] @ current) - force
        target[at] = np.linalg.solve(system, rhs.reshape(-1)).reshape(a, 2)
    slope = float(np.sum(psi * (products @ (target - current))))
    if not slope < 0.0:
        return None
    return union, current, target, slope


def reference_projected_gradient_sq(agent, scenario, n, touches, ramps, positions,
                                    weight):
    """|P grad|^2 at the plan with these ramps: the gradient over every
    control by the (N, 2) kernels, at the controls rebuilt from the ramps
    and at the (2, N+1) states that a step's penalty terms come from, P
    the projection off the terminal map by an explicit solve with its
    Gram matrix."""
    dt = (agent.tf_nominal - agent.t0) / n
    rows = _terminal_map(n, dt)
    gram = rows @ rows.T
    gap = oracle._terminal_gap(agent.start, agent.goal, agent.tf_nominal - agent.t0)
    if touches.size:
        gap = gap - ramps.T @ reference_terminal_ramps(touches, n, dt)
    affine = np.linalg.solve(gram, gap.T).T
    controls = reference_control_rows(n, dt, affine, touches, ramps).T
    centers = np.array([o.center for o in scenario.obstacles])
    radii = np.array([inflated_radius(o, agent) for o in scenario.obstacles])
    grad = reference_gradient(controls, positions.T, dt, centers, radii, weight)
    grad -= rows.T @ np.linalg.solve(gram, rows @ grad)
    return float(np.sum(grad * grad))


def record_newton_steps(monkeypatch):
    """Records each Newton step of the solves that follow as (arguments,
    states, result), the states being those whose penalty terms the step
    is given: the last ones the objective was evaluated at."""
    steps, evaluated = [], []
    penalized, newton_step = oracle._penalized, oracle._newton_step

    def record_objective(cost, positions, discs, weight):
        result = penalized(cost, positions, discs, weight)
        evaluated[:] = positions, result[1]
        return result

    def record_step(*args):
        positions, terms = evaluated
        assert args[1] is terms
        steps.append((args, positions, newton_step(*args)))
        return steps[-1][2]

    monkeypatch.setattr(oracle, "_penalized", record_objective)
    monkeypatch.setattr(oracle, "_newton_step", record_step)
    return steps


def steering_inputs(agent, scenario, config):
    dt, controls, _, _ = reference_min_energy(
        agent.start, agent.goal, agent.t0, agent.tf_nominal, config.steps
    )
    centers = np.array([o.center for o in scenario.obstacles])
    radii = np.array([inflated_radius(o, agent) for o in scenario.obstacles])
    chord = agent.goal.p - agent.start.p
    chord_norm = float(np.linalg.norm(chord))
    chord = chord / chord_norm if chord_norm > 0 else np.array([1.0, 0.0])
    return controls, agent.start.p, agent.start.v, dt, centers, radii, chord


def assert_same_bits(plan, fields):
    for name in ("controls", "positions", "velocities"):
        got, want = getattr(plan, name), fields[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        assert got.flags.c_contiguous, name
        assert not got.flags.writeable, name
    for name in ("cost", "max_penetration"):
        assert repr(getattr(plan, name)) == repr(fields[name]), name
    assert plan.penetration_warning is fields["penetration_warning"]


def agent_at(start, goal, t0=0.0, tf=10.0, radius=0.25):
    return AgentSpec(id=0, radius=radius, start=start, goal=goal,
                     t0=t0, tf_nominal=tf)


def enclosed_ring():
    """The ring of test_enclosed_start_trips_penetration_warning."""
    obstacles = tuple(
        Obstacle(id=k, radius=1.2,
                 center=(2 * math.cos(k * math.pi / 4), 2 * math.sin(k * math.pi / 4)))
        for k in range(8)
    )
    agent = agent_at(KinematicState.at_rest(0, 0), KinematicState.at_rest(6, 0))
    return agent, Scenario(agents=(agent,), obstacles=obstacles)


def moving_pair():
    """Two obstacles, moving start and goal, and a horizon that starts at 1.5."""
    agent = agent_at(KinematicState(p=(-1.0, 0.3), v=(0.5, -0.2)),
                     KinematicState(p=(7.0, 1.0), v=(0.3, 0.4)),
                     t0=1.5, tf=9.0, radius=0.2)
    obstacles = (Obstacle(id=0, center=(2.0, 0.4), radius=0.7),
                 Obstacle(id=1, center=(4.5, 0.9), radius=0.5))
    return agent, Scenario(agents=(agent,), obstacles=obstacles)


def line_world(seed):
    """A single-obstacle world across the straight path, as the
    benchmark's oracle inputs are drawn."""
    agent = agent_at(KinematicState.at_rest(-8, 0), KinematicState.at_rest(8, 0),
                     radius=0.5)
    scenario = gen_world(seed, 1, Bounds(-5, -2, 5, 2), (agent,),
                         radius_range=(0.8, 1.6))
    return agent, scenario


def aside():
    """An obstacle beside the straight transfer, which stays clear of it."""
    agent = agent_at(KinematicState.at_rest(-8, 0), KinematicState.at_rest(8, 0),
                     radius=0.5)
    obstacle = Obstacle(id=0, center=(0.0, 3.0), radius=1.0)
    return agent, Scenario(agents=(agent,), obstacles=(obstacle,))


CASES = {
    # reference world s has 1 + s % 6 obstacles
    "world3": lambda: reference_world(3),
    "world5": lambda: reference_world(5),
    "line2": lambda: line_world(2),
    "ring": enclosed_ring,
    "moving": moving_pair,
    "aside": aside,
}


def reference_fields(plan, agent, scenario):
    """The plan's states, cost and penetration rebuilt from its controls
    by the (N, 2) kernels."""
    controls = plan.controls
    positions, velocities = reference_simulate(agent.start.p, agent.start.v,
                                               controls, plan.dt)
    centers = np.array([o.center for o in scenario.obstacles])
    radii = np.array([inflated_radius(o, agent) for o in scenario.obstacles])
    _, gplus = reference_penalty_terms(positions, centers, radii)
    max_pen = float(np.max(gplus))
    return {
        "controls": controls, "positions": positions, "velocities": velocities,
        "cost": reference_control_cost(controls, plan.dt), "max_penetration": max_pen,
        "penetration_warning": max_pen > oracle.PENETRATION_WARNING,
    }


def test_enclosed_ring_keeps_its_warning():
    agent, scenario = enclosed_ring()
    plan = discrete_min_energy_constrained(agent, scenario, SMALL)
    assert_same_bits(plan, reference_fields(plan, agent, scenario))
    assert plan.penetration_warning


def test_symmetric_scenario_at_full_steps(symmetric_scenario):
    """At the default discretization the plan's states, cost and
    penetration are the (N, 2) kernels' bits, the plan ends on the goal,
    and the trace has one entry per weight and per accepted step, none
    above the one before it within a weight."""
    agent = symmetric_scenario.agents[0]
    config = OracleConfig()
    trace = []
    plan = discrete_min_energy_constrained(agent, symmetric_scenario, config, trace)
    assert plan.steps == config.steps
    assert_same_bits(plan, reference_fields(plan, agent, symmetric_scenario))
    assert np.abs(plan.positions[-1] - agent.goal.p).max() <= 1e-9
    assert np.abs(plan.velocities[-1] - agent.goal.v).max() <= 1e-9
    weights = [weight for weight, _ in trace]
    assert sorted(set(weights)) == list(config.penalty_weights)
    assert weights == sorted(weights) and len(trace) > len(config.penalty_weights)
    for (w0, v0), (w1, v1) in zip(trace, trace[1:]):
        assert w0 != w1 or v1 <= v0


@pytest.mark.parametrize("name", ["world5", "ring", "moving", "line2", "aside"])
def test_steered_start_holds_the_steered_plan_as_ramps(name):
    """The oracle starts from ramps pushed on touch states: with the
    terminal-map rows solved from them, they give the controls that the
    reference steering gives, run once per obstacle, to rounding. A path
    clear of every obstacle ("aside") is not pushed."""
    agent, scenario = CASES[name]()
    controls, p0, v0, dt, centers, radii, chord = steering_inputs(agent, scenario, SMALL)
    grid = oracle._Grid(SMALL.steps, dt, centers, radii)
    gap = oracle._terminal_gap(agent.start, agent.goal, agent.tf_nominal - agent.t0)
    touches, ramps = oracle._steered_start(grid, agent.start, gap, chord)
    if name == "aside":
        assert touches.size == 0 and ramps.shape == (0, 2)
        return
    steered = controls
    for _ in range(len(centers)):
        steered = reference_steer(steered, p0, v0, dt, centers, radii, chord)
    affine = oracle._affine(grid, gap, touches, ramps)
    rebuilt = oracle._control_rows(grid, affine, touches, ramps).T
    assert touches.size and not np.array_equal(steered, controls)
    assert np.abs(rebuilt - steered).max() <= 1e-9 * np.abs(steered).max()


@pytest.mark.parametrize("name", ["moving", "world3", "ring"])
def test_two_steps(name):
    """At two steps the terminal state fixes both controls, so the
    constrained oracle returns the unconstrained transfer's bits, with
    the penetration of its states and one trace entry per weight."""
    agent, scenario = CASES[name]()
    config = OracleConfig(steps=2)
    dt, controls, positions, velocities = reference_min_energy(
        agent.start, agent.goal, agent.t0, agent.tf_nominal, config.steps
    )
    centers = np.array([o.center for o in scenario.obstacles])
    radii = np.array([inflated_radius(o, agent) for o in scenario.obstacles])
    _, gplus = reference_penalty_terms(positions, centers, radii)
    trace = []
    plan = discrete_min_energy_constrained(agent, scenario, config, trace)
    assert_same_bits(plan, {
        "controls": controls, "positions": positions, "velocities": velocities,
        "cost": reference_control_cost(controls, dt),
        "max_penetration": float(np.max(gplus)),
        "penetration_warning": bool(np.max(gplus) > oracle.PENETRATION_WARNING),
    })
    assert [weight for weight, _ in trace] == list(config.penalty_weights)


@pytest.mark.parametrize("name", ["line2", "aside"])
def test_screen_rejects_only_what_the_objective_rejects(name, monkeypatch):
    """A trial is skipped, its states never formed, only when its
    quadratic control cost is above the Armijo ceiling; at a ceiling equal
    to that cost it is evaluated, and accepted when no state is inside a
    disc ("aside"). With no change to the plan and a zero slope, every
    trial costs the plan's cost and the ceiling is the value given."""
    agent, scenario = CASES[name]()
    controls, p0, v0, dt, centers, radii, _ = steering_inputs(agent, scenario, SMALL)
    weight = 1e4
    value, positions = reference_objective(controls, p0, v0, dt, centers, radii,
                                           weight)
    cost = reference_control_cost(controls, dt)
    rows, positions = np.ascontiguousarray(controls.T), np.ascontiguousarray(positions.T)
    evaluated = []
    penalized = oracle._penalized

    def record(*args):
        result = penalized(*args)
        evaluated.append(result[0])
        return result

    monkeypatch.setattr(oracle, "_penalized", record)

    grid = oracle._Grid(SMALL.steps, dt, centers, radii)

    def search(ceiling):
        evaluated.clear()
        return oracle._line_search(grid, weight, ceiling, 0.0, rows, positions, rows,
                                   positions)

    found = search(cost)
    assert evaluated and repr(evaluated[0]) == repr(value)
    if name == "aside":
        alpha, trial_value, trial_rows, trial_positions, terms = found
        assert (alpha, trial_value) == (1.0, cost)
        assert trial_rows.tobytes() == rows.tobytes()
        assert trial_positions.tobytes() == positions.tobytes()
        assert len(evaluated) == 1 and len(terms) == len(centers)
    else:
        assert value > cost and found is None
        assert len(evaluated) == 21  # alpha = 1 .. MIN_STEP, each above the ceiling
    assert search(np.nextafter(cost, -math.inf)) is None and not evaluated


@pytest.mark.parametrize("steps", [300, 2000])
@pytest.mark.parametrize("name", ["world3", "world5", "line2", "moving"])
def test_carried_plan_matches_its_ramps(name, steps, monkeypatch):
    """After every accepted step, the controls and states that the line
    search carries from step to step agree, to 1e-12 relative, with those
    rebuilt from the accepted ramps by _control_rows and _simulate."""
    agent, scenario = CASES[name]()
    grid = oracle._Grid(steps, (agent.tf_nominal - agent.t0) / steps)
    gap = oracle._terminal_gap(agent.start, agent.goal, agent.tf_nominal - agent.t0)
    newton_step, line_search = oracle._newton_step, oracle._line_search
    taken, accepted = [], []

    def record_step(*args):
        taken.append(newton_step(*args))
        return taken[-1]

    def record_search(*args):
        found = line_search(*args)
        if found is not None:
            accepted.append((taken[-1], found))
        return found

    monkeypatch.setattr(oracle, "_newton_step", record_step)
    monkeypatch.setattr(oracle, "_line_search", record_search)
    discrete_min_energy_constrained(agent, scenario, OracleConfig(steps=steps))
    assert accepted
    for (union, current, target, _), found in accepted:
        alpha, _, controls, positions, _ = found
        ramps = current + alpha * (target - current)
        affine = oracle._affine(grid, gap, union, ramps)
        rows = oracle._control_rows(grid, affine, union, ramps)
        states, _ = oracle._simulate(agent.start.p, agent.start.v, rows, grid.dt)
        assert np.abs(controls - rows).max() <= 1e-12 * np.abs(rows).max()
        assert np.abs(positions - states).max() <= 1e-12 * np.abs(states).max()


def random_plan_coefficients(rng):
    """A step count, dt and plan coefficients: touch states anywhere in
    1..n-1, ramps that may be exactly +0.0 or -0.0."""
    n = int(rng.integers(2, 400))
    m = int(rng.integers(0, min(8, n - 1) + 1))
    touches = np.sort(rng.choice(np.arange(1, n), size=m, replace=False)).astype(np.intp)
    ramps = rng.standard_normal((m, 2)) * 10.0 ** rng.integers(-3, 4, (m, 2))
    ramps[rng.random((m, 2)) < 0.1] = 0.0
    ramps[rng.random((m, 2)) < 0.1] = -0.0
    return n, float(rng.uniform(1e-3, 0.2)), rng.standard_normal((2, 2)), touches, ramps


def test_control_rows_and_ramp_products_keep_their_bits():
    """The suffix sums from a cumsum over the touch states, repeated over
    the steps, and the ramp products from m (2 m (3 M - m)) - m give the
    bits of the reversed cumsum over every step and of the earlier
    polynomial."""
    rng = np.random.default_rng(23)
    for _ in range(2000):
        n, dt, affine, touches, ramps = random_plan_coefficients(rng)
        got = oracle._control_rows(oracle._Grid(n, dt), affine, touches, ramps)
        want = reference_control_rows(n, dt, affine, touches, ramps)
        assert got.tobytes() == want.tobytes()
        k = rng.integers(0, 85_000, 50).astype(float)
        assert (oracle._ramp_products(k[:, None], k, dt).tobytes()
                == reference_ramp_products(k[:, None], k[None, :], dt).tobytes())


@pytest.mark.parametrize("steps", [300, 2000])
@pytest.mark.parametrize("name", ["world3", "world5", "line2", "moving", "aside"])
def test_step_helpers_match_their_references(name, steps, monkeypatch):
    """Along a solve, every control row the oracle builds has the bits of
    the reference's, and every Newton step, given the same inputs, has
    the reference's bits: union, current and Newton ramps, slope and
    projected products. The reference takes no stop for stationarity, so
    where the oracle's step alone is None, the projected gradient over
    every control is at most gradient_tol. The definiteness test forms
    its matrix in another order, so it is held to the reference's
    choice, Newton or Gauss-Newton, on every step."""
    agent, scenario = CASES[name]()
    rows_calls, choices, reference_choices = [], [], []
    control_rows = oracle._control_rows
    positive_definite = oracle._positive_definite
    reference_definite = reference_positive_definite

    def record_rows(*args):
        rows_calls.append((args, control_rows(*args)))
        return rows_calls[-1][1]

    def record_choice(*args):
        choices.append(positive_definite(*args))
        return choices[-1]

    def record_reference_choice(*args):
        reference_choices.append(reference_definite(*args))
        return reference_choices[-1]

    monkeypatch.setattr(oracle, "_control_rows", record_rows)
    steps_taken = record_newton_steps(monkeypatch)
    monkeypatch.setattr(oracle, "_positive_definite", record_choice)
    monkeypatch.setitem(globals(), "reference_positive_definite", record_reference_choice)
    discrete_min_energy_constrained(agent, scenario, OracleConfig(steps=steps))
    assert rows_calls and (steps_taken or name == "aside")
    for (grid, affine, touches, ramps), rows in rows_calls:
        want = reference_control_rows(grid.n, grid.dt, affine, touches, ramps)
        assert rows.tobytes() == want.tobytes()
    for (grid, terms, touches, ramps, weight), positions, step in steps_taken:
        made = len(reference_choices)
        want = reference_newton_step(terms, touches, ramps, weight, grid.n, grid.dt,
                                     grid.gram)
        if step is None:
            norm_sq = reference_projected_gradient_sq(agent, scenario, grid.n, touches,
                                                      ramps, positions, weight)
            if math.sqrt(norm_sq) <= OracleConfig.gradient_tol:
                del reference_choices[made:]  # the oracle stopped before choosing
            else:
                assert want is None
            continue
        assert want is not None
        union, current, target, slope = step
        assert np.array_equal(union, want[0]) and repr(slope) == repr(want[3])
        assert current.tobytes() == want[1].tobytes()
        assert target.tobytes() == want[2].tobytes()
        products = reference_projected_products(union, grid.n, grid.dt, grid.gram)
        assert oracle._projected_products(grid, union).tobytes() == products.tobytes()
    assert choices == reference_choices


@pytest.mark.parametrize("steps", [300, 2000])
@pytest.mark.parametrize("name", ["world3", "world5", "line2", "moving", "aside"])
def test_stop_test_matches_the_control_gradient(name, steps, monkeypatch):
    """The Newton step stops a weight on psi^T K psi, K the projected ramp
    products: the squared gradient projected off the terminal map, taken
    on the touch states. At every step along a solve it agrees with
    |P grad|^2, grad over every control, to 1e-8 relative where the
    latter is above gradient_tol^2 (at most 6e-9 on these inputs; below,
    the two cancel to rounding), and the step stops for stationarity
    exactly where |P grad| is at most gradient_tol."""
    agent, scenario = CASES[name]()
    steps_taken = record_newton_steps(monkeypatch)
    discrete_min_energy_constrained(agent, scenario, OracleConfig(steps=steps))
    assert steps_taken
    tol = OracleConfig.gradient_tol
    for (grid, terms, touches, ramps, weight), positions, step in steps_taken:
        norm_sq = reference_projected_gradient_sq(agent, scenario, grid.n, touches,
                                                  ramps, positions, weight)
        stationary = math.sqrt(norm_sq) <= tol
        model = reference_newton_model(terms, touches, ramps, weight, grid.n, grid.dt,
                                       grid.gram)
        if model is not None:
            products, psi = model[-2:]
            model_sq = float(np.sum(psi * (products @ psi)))
            if stationary:
                assert model_sq <= tol**2
            else:
                assert abs(model_sq - norm_sq) <= 1e-8 * norm_sq
        want = reference_newton_step(terms, touches, ramps, weight, grid.n, grid.dt,
                                     grid.gram)
        assert (step is None) == (stationary or want is None)


@pytest.mark.parametrize("steps", [2, 7, 500])
def test_unconstrained_transfer_keeps_its_bits(steps):
    agent, _ = moving_pair()
    dt, controls, positions, velocities = reference_min_energy(
        agent.start, agent.goal, agent.t0, agent.tf_nominal, steps
    )
    plan = discrete_min_energy(agent.start, agent.goal, agent.t0,
                               agent.tf_nominal, steps)
    assert repr(plan.dt) == repr(dt)
    assert_same_bits(plan, {
        "controls": controls, "positions": positions, "velocities": velocities,
        "cost": reference_control_cost(controls, dt), "max_penetration": 0.0,
        "penetration_warning": False,
    })


def test_obstacle_free_scenario_returns_the_unconstrained_transfer():
    agent, _ = moving_pair()
    scenario = Scenario(agents=(agent,), obstacles=())
    plan = discrete_min_energy_constrained(agent, scenario, SMALL)
    dt, controls, positions, velocities = reference_min_energy(
        agent.start, agent.goal, agent.t0, agent.tf_nominal, SMALL.steps
    )
    assert plan.controls.tobytes() == controls.tobytes()
    assert plan.positions.tobytes() == positions.tobytes()
    assert plan.velocities.tobytes() == velocities.tobytes()
