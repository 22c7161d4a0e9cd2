"""Bit parity of the penalty oracle with its earlier, state-major form.

oracle._simulate, _penalty_terms and _gradient work on axis-major
(2, N) rows, while the descent holds its controls and projected gradient
as C-order (N, 2) arrays: every elementwise operation and every cumsum
is the one the (N, 2) kernels made, the sum of the penalty forces over
obstacles runs from +0.0 in obstacle order as np.sum over the obstacle
axis did, and the full reductions (control cost, squared gradient norm,
squared penalty) run over (N, 2) and (N+1, K) C-order arrays, so they
add in the same order. The objective also hands its penalty terms to
the gradient at the same controls instead of letting the gradient
recompute them; the gradient's suffix sums run only over the span of
states where some obstacle pushes; and a line-search trial whose
control cost alone is above the Armijo bound is rejected without being
simulated. Every iterate must therefore keep its bits. The reference
below keeps the (N, 2) kernels, the steering of the initial plan and the
descent loop as they were.
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
from junctionplan.oracle import PENETRATION_WARNING, _terminal_map
from junctionplan.world import Bounds, gen_world

from conftest import reference_world

# Most cases run at a reduced discretization so that the module stays fast;
# the symmetric scenario runs at the default number of steps.
SMALL = OracleConfig(steps=300, descent_iterations=60)


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


def reference_project_out_terminal(grad, gmap, gram_inv):
    out = grad.copy()
    for axis in range(2):
        coeff = gram_inv @ (gmap @ grad[:, axis])
        out[:, axis] -= gmap.T @ coeff
    return out


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


def reference_constrained(agent, scenario, config):
    """The descent as it ran on (N, 2) arrays; returns the plan's fields
    and the objective trace."""
    n = config.steps
    controls, p0, v0, dt, centers, radii, chord = steering_inputs(
        agent, scenario, config
    )
    controls = reference_steer(controls, p0, v0, dt, centers, radii, chord)
    gmap = _terminal_map(n, dt)
    gram_inv = np.linalg.inv(gmap @ gmap.T)
    trace = []
    alpha = 1.0
    for weight in config.penalty_weights:
        value, positions = reference_objective(
            controls, p0, v0, dt, centers, radii, weight
        )
        trace.append((weight, value))
        for _ in range(config.descent_iterations):
            grad = reference_gradient(controls, positions, dt, centers, radii, weight)
            grad = reference_project_out_terminal(grad, gmap, gram_inv)
            gnorm2 = float(np.sum(grad**2))
            if np.sqrt(gnorm2) <= config.gradient_tol:
                break
            alpha = min(alpha * 2.0, 1e3)
            while True:
                trial = controls - alpha * grad
                trial_value, trial_positions = reference_objective(
                    trial, p0, v0, dt, centers, radii, weight
                )
                if trial_value <= value - 1e-4 * alpha * gnorm2:
                    break
                alpha *= 0.5
                if alpha < 1e-18:
                    break
            if alpha < 1e-18:
                break
            controls, value, positions = trial, trial_value, trial_positions
            trace.append((weight, value))

    positions, velocities = reference_simulate(p0, v0, controls, dt)
    _, gplus = reference_penalty_terms(positions, centers, radii)
    max_pen = float(np.max(gplus))
    fields = {
        "controls": controls, "positions": positions, "velocities": velocities,
        "cost": reference_control_cost(controls, dt), "max_penetration": max_pen,
        "penetration_warning": max_pen > PENETRATION_WARNING,
    }
    return fields, trace


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
    """An obstacle beside the straight transfer: no iterate enters it, so
    every gradient has an empty span."""
    agent = agent_at(KinematicState.at_rest(-8, 0), KinematicState.at_rest(8, 0),
                     radius=0.5)
    obstacle = Obstacle(id=0, center=(0.0, 3.0), radius=1.0)
    return agent, Scenario(agents=(agent,), obstacles=(obstacle,))


CASES = {
    # reference world s has 1 + s % 6 obstacles: K = 1, 2, 3, 4, 5, 6
    **{f"world{s}": (lambda s=s: reference_world(s)) for s in (6, 12, 1, 2, 3, 4, 5)},
    "line2": lambda: line_world(2),
    "line3": lambda: line_world(3),
    "ring": enclosed_ring,
    "moving": moving_pair,
    "aside": aside,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_descent_keeps_its_bits(name):
    agent, scenario = CASES[name]()
    fields, want_trace = reference_constrained(agent, scenario, SMALL)
    trace = []
    plan = discrete_min_energy_constrained(agent, scenario, SMALL, trace)
    assert_same_bits(plan, fields)
    assert repr(trace) == repr(want_trace)


def test_enclosed_ring_keeps_its_warning():
    agent, scenario = enclosed_ring()
    config = OracleConfig(steps=300, descent_iterations=80)
    fields, _ = reference_constrained(agent, scenario, config)
    plan = discrete_min_energy_constrained(agent, scenario, config)
    assert_same_bits(plan, fields)
    assert plan.penetration_warning


def test_symmetric_scenario_at_full_steps(symmetric_scenario):
    agent = symmetric_scenario.agents[0]
    config = OracleConfig(descent_iterations=100)
    assert config.steps == OracleConfig().steps
    fields, want_trace = reference_constrained(agent, symmetric_scenario, config)
    trace = []
    plan = discrete_min_energy_constrained(agent, symmetric_scenario, config, trace)
    assert_same_bits(plan, fields)
    assert repr(trace) == repr(want_trace)


@pytest.mark.parametrize("name", ["moving", "world3"])
def test_two_steps(name):
    agent, scenario = CASES[name]()
    config = OracleConfig(steps=2, descent_iterations=40)
    fields, want_trace = reference_constrained(agent, scenario, config)
    trace = []
    plan = discrete_min_energy_constrained(agent, scenario, config, trace)
    assert_same_bits(plan, fields)
    assert repr(trace) == repr(want_trace)


@pytest.mark.parametrize("name", ["world5", "ring", "moving", "line2"])
@pytest.mark.parametrize("steps", [2, 300])
def test_steering_keeps_its_bits(name, steps):
    agent, scenario = CASES[name]()
    inputs = steering_inputs(agent, scenario, OracleConfig(steps=steps))
    want = reference_steer(*inputs)
    controls, *rest = inputs
    got = oracle._steer_initial_plan(np.ascontiguousarray(controls.T), *rest)
    assert got.shape == (2, steps)
    assert np.ascontiguousarray(got.T).tobytes() == want.tobytes()


def full_sum_gradient(controls, terms, dt, weight):
    """oracle._gradient's formula with the suffix sums over every state,
    from the same (g, g+, dx, dy) terms; returns (N, 2)."""
    n = controls.shape[0]
    fx = fy = 0.0
    for _, gplus, dx, dy in terms:
        fx = fx + gplus * dx
        fy = fy + gplus * dy
    forces = -4.0 * weight * np.stack((fx, fy))
    k = np.arange(n + 1.0)
    suffix_f = np.cumsum(forces[:, ::-1], axis=1)[:, ::-1]
    suffix_kf = np.cumsum((k * forces)[:, ::-1], axis=1)[:, ::-1]
    j = np.arange(n) + 0.5
    grad = 2.0 * dt * controls.T + dt**2 * (suffix_kf[:, 1:] - j * suffix_f[:, 1:])
    return np.ascontiguousarray(grad.T)


def straight_states(n):
    """n + 1 states evenly along y = 0 from x = -8 to x = 8."""
    return np.column_stack((np.linspace(-8.0, 8.0, n + 1), np.zeros(n + 1)))


def crafted_states(name, n=120):
    """(positions, centers, radii) of one span-edge case."""
    positions = straight_states(n)
    one = np.array([1.0])
    if name == "clear":
        return positions, np.array([[0.0, 3.0]]), one
    if name == "start_inside":
        return positions, np.array([[-8.0, 0.2]]), one
    if name == "end_inside":
        return positions, np.array([[8.0, -0.2]]), one
    if name == "all_inside":
        return positions, np.array([[0.0, 0.5]]), np.array([20.0])
    if name == "zero_at_end":
        # states 0-39 inside a disc of radius 5, state 40 at offset (3, 4)
        # on its circle, so g = +0.0 there, and the rest far outside
        positions[:40] = (1.0, 2.0)
        positions[40] = (3.0, 4.0)
        positions[41:, 1] = 10.0
        return positions, np.array([[0.0, 0.0]]), np.array([5.0])
    if name == "nan":
        positions[70, 1] = math.nan
        return positions, np.array([[-3.0, 0.4]]), one
    if name == "infinite_offset":
        positions[90, 0] = math.inf
        return positions, np.array([[-3.0, 0.4]]), one
    if name == "two_windows":
        return positions, np.array([[-4.0, 0.3], [5.0, -0.4]]), np.array([1.0, 1.5])
    raise KeyError(name)


SPAN_CASES = ["clear", "start_inside", "end_inside", "all_inside", "zero_at_end",
              "nan", "infinite_offset", "two_windows"]


def span_inputs(name, n=120, dt=0.08, weight=1e4):
    positions, centers, radii = crafted_states(name, n)
    controls = np.random.default_rng(11).standard_normal((n, 2))
    terms = oracle._penalty_terms(np.ascontiguousarray(positions.T), centers, radii)
    return controls, positions, centers, radii, terms, dt, weight


@pytest.mark.parametrize("name", SPAN_CASES)
def test_span_limited_gradient_keeps_its_bits(name):
    with np.errstate(invalid="ignore"):
        controls, positions, centers, radii, terms, dt, weight = span_inputs(name)
        got = oracle._gradient(controls, terms, dt, weight)
        want = reference_gradient(controls, positions, dt, centers, radii, weight)
        full = full_sum_gradient(controls, terms, dt, weight)
    assert got.shape == (2, controls.shape[0]) and got.flags.c_contiguous
    got = np.ascontiguousarray(got.T)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == full.tobytes()


def test_span_edges_are_where_the_cases_put_them():
    """Guards the crafted cases: each has the span it is named for."""
    def span(name):
        _, _, _, _, terms, _, _ = span_inputs(name)
        inside = np.zeros(121, dtype=bool)
        for g, _, _, _ in terms:
            inside |= ~(g < 0)
        live = np.flatnonzero(inside)
        return (int(live[0]), int(live[-1])) if live.size else None

    assert span("clear") is None
    assert span("start_inside")[0] == 0
    assert span("end_inside")[1] == 120
    assert span("all_inside") == (0, 120)
    _, _, _, _, terms, _, _ = span_inputs("zero_at_end")
    assert repr(float(terms[0][0][40])) == "0.0" and span("zero_at_end") == (0, 40)
    _, _, _, _, terms, _, _ = span_inputs("nan")
    assert math.isnan(terms[0][0][70])
    _, _, _, _, terms, _, _ = span_inputs("infinite_offset")
    assert terms[0][0][90] == -math.inf and terms[0][1][90] == 0.0
    _, _, _, _, terms, _, _ = span_inputs("two_windows")
    windows = [np.flatnonzero(g > 0) for g, _, _, _ in terms]
    assert all(w.size for w in windows) and windows[0][-1] + 1 < windows[1][0]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_span_ending_on_a_signed_zero_keeps_its_bits(sign):
    """g = -0.0 cannot come out of r^2 - |p - c|^2, so the terms are
    edited: the state on the circle gets g = sign * 0.0, and g+ is formed
    from it as the objective forms it."""
    controls, _, _, _, terms, dt, weight = span_inputs("zero_at_end")
    g, _, dx, dy = terms[0]
    g = g.copy()
    g[40] = sign * 0.0
    terms = [(g, np.maximum(g, 0.0), dx, dy)]
    got = np.ascontiguousarray(oracle._gradient(controls, terms, dt, weight).T)
    assert got.tobytes() == full_sum_gradient(controls, terms, dt, weight).tobytes()


@pytest.mark.parametrize("name", ["end_inside", "two_windows"])
@pytest.mark.parametrize("weight", [math.inf, math.nan])
def test_gradient_keeps_its_bits_for_a_non_finite_weight(weight, name):
    """The force outside the span is -4w * (+0.0): NaN, not -0.0, when w
    is infinite or NaN."""
    controls, _, _, _, terms, dt, _ = span_inputs(name)
    with np.errstate(invalid="ignore"):
        got = np.ascontiguousarray(oracle._gradient(controls, terms, dt, weight).T)
        want = full_sum_gradient(controls, terms, dt, weight)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["line2", "aside"])
def test_screen_rejects_only_what_the_objective_rejects(name):
    """A trial is screened out only when its control cost alone is above
    the ceiling; at a ceiling equal to that cost it is simulated, and
    accepted when no state is inside a disc ("aside")."""
    agent, scenario = CASES[name]()
    controls, p0, v0, dt, centers, radii, _ = steering_inputs(agent, scenario, SMALL)
    args = (controls, p0, v0, dt, centers, radii, 1e4)
    value, _ = reference_objective(*args)
    cost = reference_control_cost(controls, dt)
    full, terms = oracle._objective(*args)
    assert repr(full) == repr(value) and terms is not None
    at_cost, terms = oracle._objective(*args, cost)
    assert repr(at_cost) == repr(value) and terms is not None
    assert (at_cost <= cost) is (name == "aside")
    below, terms = oracle._objective(*args, np.nextafter(cost, -math.inf))
    assert repr(below) == repr(cost) and terms is None


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
