"""Scenario definitions, safety constraints, and random sphere worlds.

A scenario is a set of agents with boundary states and a set of circular
obstacles. Safety is expressed through the squared-distance constraint
g = combined_r**2 - ||p - center||**2, which is nonpositive exactly when
the agent (treated as a point against inflated obstacles) is safe.

Safety is decided exactly, not by sampling, by one kernel on a
PiecewiseTrajectory's arrays, its (J, 4, 2) local cubic coefficients
and J + 1 knots, for obstacles and, in game, agent pairs: on a cubic
segment g is a degree-6 polynomial in local time, so the windows where
it is violated lie between real roots of that polynomial. The kernel
keeps only the NumPy calls that fix bits of its answer: np.convolve per
(obstacle, segment, axis), whose BLAS dot fuses short sums that no plain
summation reproduces, and one stacked LAPACK eigenvalue call on the
companion matrices, which is what np.roots computes one matrix at a
time. The rest runs on Python floats in the array form's order, so
every window keeps its bits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _lapack
from .errors import GenerationError, ScenarioLookupError, SchemaError, ValidationError
from .trajectory import KinematicState, PiecewiseTrajectory, _position, _segment, _vec2

# g values up to this count as safe; matches linear-solve precision and
# keeps exact boundary contact (g = 0) feasible.
SAFETY_TOL = 1e-9

DEFAULT_RADIUS_RANGE = (0.5, 2.5)
GENERATION_ATTEMPT_BUDGET = 10_000


@dataclass(frozen=True, eq=False)
class Obstacle:
    """A circular obstacle."""

    id: int
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec2(self.center, "center"))
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"obstacle radius must be positive, got {self.radius}")


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """One agent's size, boundary states, and nominal horizon."""

    id: int
    radius: float
    start: KinematicState
    goal: KinematicState
    t0: float
    tf_nominal: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"agent radius must be positive, got {self.radius}")
        if not (np.isfinite(self.t0) and np.isfinite(self.tf_nominal)
                and self.tf_nominal > self.t0):
            raise ValueError(
                f"horizon [{self.t0}, {self.tf_nominal}] must be finite and "
                "non-empty"
            )


@dataclass(frozen=True, eq=False)
class Scenario:
    """Agents plus obstacles; validates ids and start/goal feasibility."""

    agents: tuple[AgentSpec, ...]
    obstacles: tuple[Obstacle, ...]

    def __post_init__(self):
        agents = tuple(self.agents)
        obstacles = tuple(self.obstacles)
        if len({a.id for a in agents}) != len(agents):
            raise ValidationError("agent ids must be unique")
        if len({o.id for o in obstacles}) != len(obstacles):
            raise ValidationError("obstacle ids must be unique")
        for agent in agents:
            for obs in obstacles:
                combined = inflated_radius(obs, agent)
                for label, state in (("start", agent.start), ("goal", agent.goal)):
                    if constraint_value(state.p, obs.center, combined) >= 0:
                        raise ValidationError(
                            f"agent {agent.id} {label} inside inflated obstacle {obs.id}"
                        )
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "obstacles", obstacles)

    def agent(self, agent_id: int) -> AgentSpec:
        for agent in self.agents:
            if agent.id == agent_id:
                return agent
        raise ScenarioLookupError(f"unknown agent id {agent_id}")

    def obstacle(self, obstacle_id: int) -> Obstacle:
        for obs in self.obstacles:
            if obs.id == obstacle_id:
                return obs
        raise ScenarioLookupError(f"unknown obstacle id {obstacle_id}")


@dataclass(frozen=True, eq=False)
class ViolationRecord:
    """A constraint violation along a trajectory, at one instant.

    depth is the penetration of the required separation, in meters.
    constraint is the id of the violated obstacle.
    """

    time: float
    constraint: int
    depth: float

    def __post_init__(self):
        if not self.depth > 0:
            raise ValueError(f"violation depth must be positive, got {self.depth}")


class Bounds(NamedTuple):
    """Axis-aligned rectangle used for obstacle placement."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float


def constraint_value(p, center, combined_r: float) -> float:
    """Squared-form distance constraint; nonpositive means safe."""
    d = np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
    return float(combined_r**2 - d @ d)


def inflated_radius(obstacle: Obstacle, agent: AgentSpec) -> float:
    """Obstacle radius grown by the agent's circumscribed radius."""
    return obstacle.radius + agent.radius


def violated_windows(
    traj: PiecewiseTrajectory, center, r: float, level: float
) -> list[tuple[float, float]]:
    """Maximal time windows where g = r**2 - |p - center|**2 exceeds level.

    On each segment, in local time s = t - t_start, g is a degree-6
    polynomial. The window ends are the real roots of g - level inside
    the segment; each piece between consecutive roots is violated when g
    exceeds level at its midpoint. Windows that meet, at a knot or at a
    root where g only touches level, are joined. Returns (start, end)
    pairs in time order, with the bits of np.roots and np.polyval row
    by row (see _windows).
    """
    return _windows(traj.local, traj.knots, np.reshape(center, (1, 2)), [r],
                    level)[0]


def _rebased(local: np.ndarray, knots, times) -> np.ndarray:
    """(len(times), 4, 2) coefficients (p, v, a2, a3) of the pieces
    (local, knots) re-based to start at each time, the endpoint held at
    rest outside the knots: eval_trajectory's segment and arithmetic,
    so every value keeps its bits."""
    lo, hi = knots[0], knots[-1]
    t = [min(max(x, lo), hi) for x in times]
    j = [_segment(knots, x) for x in t]
    s = np.array([x - knots[i] for x, i in zip(t, j)])[:, None]
    p0, v0, a2, a3 = local[j].transpose(1, 0, 2)
    out = np.empty((len(t), 4, 2))
    out[:, 0] = _position(p0, v0, a2, a3, s)
    out[:, 1] = (3.0 * a3 * s + 2.0 * a2) * s + v0
    out[:, 2] = 0.5 * (6.0 * a3 * s + 2.0 * a2)
    out[:, 3] = a3
    out[[not lo <= x < hi for x in times], 1:] = 0.0
    return out


def _windows(
    local: np.ndarray, knots, centers: np.ndarray, radii, level: float
) -> list[list[tuple[float, float]]]:
    """violated_windows of K obstacles at once, one list per obstacle.

    local and knots are a path's arrays as a PiecewiseTrajectory holds
    them, centers is (K, 2) and radii holds K inflated radii. Row k*J + j of
    coef is g - level for obstacle k on segment j, highest power first.

    Only the NumPy calls that fix bits of the answer remain: one
    np.convolve per obstacle, segment and axis, whose BLAS dot fuses the
    short sums of the square; one stacked LAPACK eigenvalue call for all
    rows (_companion_roots), made on the gufunc that np.linalg.eigvals
    wraps; and np.roots for the rare row of lower
    degree or with a root at s = 0. The rest is arithmetic on Python
    floats in the order the array form used, so every window keeps its
    bits.
    """
    n_seg = len(local)
    # p(s) - center in local time per obstacle, segment and axis, lowest
    # power first, squared by np.convolve
    d = local.transpose(0, 2, 1)[None].repeat(len(centers), 0)
    d[..., 0] -= centers[:, None]
    square = [np.convolve(x, x).tolist() for x in d.reshape(-1, 4)]
    tops = [r**2 - level for r in radii for _ in range(n_seg)]
    coef = []
    for top, sx, sy in zip(tops, square[0::2], square[1::2]):
        poly = [-(a + b) for a, b in zip(sx, sy)]
        poly[0] += top
        coef.append(poly[::-1])

    # rows of lower degree or with a root at s = 0 are left to np.roots
    full = [row[0] != 0 and row[-1] != 0 for row in coef]
    stacked = iter(_companion_roots([row for row, f in zip(coef, full) if f]).tolist()
                   if any(full) else [])
    windows: list[list[tuple[float, float]]] = [[] for _ in centers]
    for i, (row, f) in enumerate(zip(coef, full)):
        k, j = divmod(i, n_seg)
        roots = next(stacked) if f else np.roots(row).tolist()
        out = windows[k]
        for start, end in _pieces(row, roots, knots[j], knots[j + 1]):
            if out and out[-1][1] >= start:
                out[-1] = (out[-1][0], end)
            else:
                out.append((start, end))
    return windows


def _companion_roots(coef) -> np.ndarray:
    """np.roots of each of the M rows of 7 coefficients in coef, whose
    first and last entries are nonzero, from one stacked eigvals call.

    np.roots takes the eigenvalues of the companion matrix built here
    (ones on the subdiagonal, first row -p[1:] / p[0]), one matrix at a
    time; stacking them leaves every bit of the roots unchanged. The
    call goes straight to LAPACK's gufunc (_lapack.eigvals), skipping
    np.linalg.eigvals' Python wrapper, which took about 14% of the exact
    check on reference worlds 1-300; a non-finite stack or eigenvalues
    that do not converge still raise LinAlgError. The roots are always
    complex, where np.linalg.eigvals returns the real parts alone when
    every root is real; _pieces reads both alike.
    """
    companion = np.zeros((len(coef), 6, 6))
    companion[:, np.arange(1, 6), np.arange(5)] = 1.0
    companion[:, 0] = [[-c / p[0] for c in p[1:]] for p in coef]
    return _lapack.eigvals(companion)


def _pieces(coef, roots, t0: float, t1: float) -> list[tuple[float, float]]:
    """Violated pieces of the segment from t0 to t1, cut at the real
    roots of g - level inside it, each tested at its midpoint.

    coef is the row's 7 floats, highest power first, and roots its
    roots as Python numbers; the midpoint value takes np.polyval's
    Horner steps from 0.0."""
    h = t1 - t0
    cuts = sorted([z.real for z in roots if z.imag == 0 and 0 < z.real < h])
    ends = [0.0, *cuts, h]
    times = [t0, *[t0 + s for s in cuts], t1]
    pieces = []
    for a, b, start, end in zip(ends, ends[1:], times, times[1:]):
        x, value = 0.5 * (a + b), 0.0
        for c in coef:
            value = value * x + c
        if value > 0:
            pieces.append((start, end))
    return pieces


def _first_window(local: np.ndarray, knots, centers: np.ndarray, radii, level):
    """(k, time, depth) for the obstacle k of _windows whose first window
    opens earliest: that window's midpoint, and the penetration of
    radii[k] there. None when no window opens."""
    windows = _windows(local, knots, centers, radii, level)
    opened = [(found[0][0], k) for k, found in enumerate(windows) if found]
    if not opened:
        return None
    k = min(opened)[1]
    time = 0.5 * (windows[k][0][0] + windows[k][0][1])
    # the position there as eval_trajectory computes it
    j = _segment(knots, time)
    d = _position(*local[j], time - knots[j]) - centers[k]
    return k, time, radii[k] - math.sqrt(d.dot(d))


def first_violation(
    traj: PiecewiseTrajectory, scenario: Scenario, agent_id: int
) -> Optional[ViolationRecord]:
    """Earliest obstacle violation, or None if the path is safe.

    Safe means g <= SAFETY_TOL at every instant, decided exactly from
    each obstacle's violated windows, all found by one _windows call.
    Reports the obstacle whose first window opens earliest, at that
    window's midpoint, with the penetration depth there (_first_window).
    """
    agent = scenario.agent(agent_id)
    if not scenario.obstacles:
        return None
    radii = [inflated_radius(obs, agent) for obs in scenario.obstacles]
    centers = np.array([obs.center for obs in scenario.obstacles])
    hit = _first_window(traj.local, traj.knots, centers, radii, SAFETY_TOL)
    if hit is None:
        return None
    k, time, depth = hit
    return ViolationRecord(time=time, constraint=scenario.obstacles[k].id, depth=depth)


def gen_world(
    seed: int,
    obstacle_count: int,
    bounds: Bounds,
    agents: tuple[AgentSpec, ...],
    radius_range: tuple[float, float] = DEFAULT_RADIUS_RANGE,
) -> Scenario:
    """Generate a random sphere world by rejection sampling.

    Deterministic for a given seed. Obstacles are placed uniformly in
    bounds with radii uniform in radius_range, rejecting any placement
    that swallows an agent's start or goal once inflated.
    """
    if obstacle_count < 0:
        raise ValueError("obstacle_count must be nonnegative")
    bounds = Bounds(*bounds)
    if not (bounds.xmax > bounds.xmin and bounds.ymax > bounds.ymin):
        raise ValueError(f"degenerate bounds {bounds}")
    rng = np.random.default_rng(seed)
    agents = tuple(agents)
    obstacles: list[Obstacle] = []
    attempts = 0
    for k in range(obstacle_count):
        while True:
            attempts += 1
            if attempts > GENERATION_ATTEMPT_BUDGET:
                raise GenerationError(
                    f"gave up after {GENERATION_ATTEMPT_BUDGET} placement attempts"
                )
            cx = rng.uniform(bounds.xmin, bounds.xmax)
            cy = rng.uniform(bounds.ymin, bounds.ymax)
            radius = rng.uniform(*radius_range)
            candidate = Obstacle(id=k, center=(cx, cy), radius=radius)
            ok = all(
                constraint_value(state.p, candidate.center, radius + agent.radius) < 0
                for agent in agents
                for state in (agent.start, agent.goal)
            )
            if ok:
                obstacles.append(candidate)
                break
    return Scenario(agents=agents, obstacles=tuple(obstacles))


def reference_world(seed: int) -> tuple[AgentSpec, Scenario]:
    """World `seed` of the reference family: 1 + seed % 6 random
    obstacles in [-8, 8]^2 and one agent of radius 0.5 from (-10, -10)
    to (10, 10), at rest at both ends, over [0, 10] s. Seeds 1-50 are
    the reference batch; raises GenerationError where gen_world does."""
    agent = AgentSpec(
        id=0, radius=0.5,
        start=KinematicState.at_rest(-10.0, -10.0),
        goal=KinematicState.at_rest(10.0, 10.0),
        t0=0.0, tf_nominal=10.0,
    )
    return agent, gen_world(seed, 1 + seed % 6, Bounds(-8, -8, 8, 8), (agent,))


# --- JSON schema -----------------------------------------------------------
#
# {"agents":[{"id":int,"radius":num,"start":{"p":[x,y],"v":[x,y]},
#             "goal":{"p":[x,y],"v":[x,y]},"t0":num,"tf":num}],
#  "obstacles":[{"id":int,"center":[x,y],"radius":num}]}
#
# Unknown fields are rejected.


def _require_keys(obj: dict, keys: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected an object")
    extra = set(obj) - keys
    if extra:
        raise SchemaError(f"{where}: unknown fields {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise SchemaError(f"{where}: missing fields {sorted(missing)}")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_pair(value, where: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{where}: expected [x, y]")
    return (_as_float(value[0], where), _as_float(value[1], where))


def _state_from_json(obj, where: str) -> KinematicState:
    _require_keys(obj, {"p", "v"}, where)
    return KinematicState(
        p=_as_pair(obj["p"], f"{where}.p"), v=_as_pair(obj["v"], f"{where}.v")
    )


def state_to_json(state: KinematicState) -> dict:
    return {"p": [float(state.p[0]), float(state.p[1])],
            "v": [float(state.v[0]), float(state.v[1])]}


def scenario_to_json(scenario: Scenario) -> dict:
    return {
        "agents": [
            {
                "id": a.id,
                "radius": a.radius,
                "start": state_to_json(a.start),
                "goal": state_to_json(a.goal),
                "t0": a.t0,
                "tf": a.tf_nominal,
            }
            for a in scenario.agents
        ],
        "obstacles": [
            {"id": o.id, "center": [float(o.center[0]), float(o.center[1])],
             "radius": o.radius}
            for o in scenario.obstacles
        ],
    }


def scenario_from_json(obj) -> Scenario:
    _require_keys(obj, {"agents", "obstacles"}, "scenario")
    if not isinstance(obj["agents"], list) or not isinstance(obj["obstacles"], list):
        raise SchemaError("scenario: agents and obstacles must be arrays")
    agents = []
    for i, item in enumerate(obj["agents"]):
        where = f"agents[{i}]"
        _require_keys(item, {"id", "radius", "start", "goal", "t0", "tf"}, where)
        try:
            agents.append(
                AgentSpec(
                    id=_as_int(item["id"], f"{where}.id"),
                    radius=_as_float(item["radius"], f"{where}.radius"),
                    start=_state_from_json(item["start"], f"{where}.start"),
                    goal=_state_from_json(item["goal"], f"{where}.goal"),
                    t0=_as_float(item["t0"], f"{where}.t0"),
                    tf_nominal=_as_float(item["tf"], f"{where}.tf"),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    obstacles = []
    for i, item in enumerate(obj["obstacles"]):
        where = f"obstacles[{i}]"
        _require_keys(item, {"id", "center", "radius"}, where)
        try:
            obstacles.append(
                Obstacle(
                    id=_as_int(item["id"], f"{where}.id"),
                    center=_as_pair(item["center"], f"{where}.center"),
                    radius=_as_float(item["radius"], f"{where}.radius"),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    try:
        return Scenario(agents=tuple(agents), obstacles=tuple(obstacles))
    except ValidationError as exc:
        raise SchemaError(f"scenario: {exc}") from exc


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_json(obj)
