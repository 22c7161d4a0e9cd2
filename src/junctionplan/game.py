"""Strategic coordination layer: messages, payoffs, and negotiation.

Because a converged plan is fully determined by its boundary data and
junction sequence, an agent can broadcast its entire trajectory as a
short list of real numbers instead of a sampled path. Receivers rebuild
the exact trajectory with one linear solve. Conflicts between agents
are resolved by shifting arrival times: the accepted assignment is the
smallest total deviation (on a fixed grid) that makes every pairwise
separation safe. The search decides each pair of shifted plans at most
once, caching the verdict, and finds that assignment by a depth-first
branch and bound that drops a partial assignment once a pair is unsafe
or it cannot beat the best one found. It hands back the plans it chose
with the arrival times, so callers need not plan shifted agents again.

A pair verdict is decided exactly, by the obstacle check's kernel
applied to the difference of the two plans (`_penetration`): both hold
an endpoint outside their own horizon, so a - b is a cubic on each piece
between the merged knots, formed directly as coefficient arrays, and
`world._first_window` finds where it comes within the combined radius of
the origin. Conflict detection, payoffs and negotiation share that one
check.

The negotiation decides almost every verdict without it, by a
certificate of two orders on one coarse grid over every horizon the
search can plan: each plan it makes is sampled there once
(`sample_positions_held`) and bounded in speed, by its velocity's
Bernstein control points split at each segment's midpoint, and in
acceleration. A coarse point closer than the limit is itself an instant
of conflict. Coarse distances far enough above it, given the two speed
bounds, clear every instant (first order); failing that, so do the
chords between consecutive coarse points, each far enough above it
given the two acceleration bounds (second order), except on an interval
holding a moving start, which keeps the first-order bound. Any other
pair falls back to the exact check. The accepted plans are thus safe at
every instant, and the CLI's plan command reports no conflict after a
negotiation and checks nothing itself. A caller that has already
planned the agents at their nominal horizons hands those plans to the
search, which then plans only shifted horizons. A deviation that would
end an agent's horizon at or before its start is a grid point with no
plan, like one whose solve fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import (
    ConditioningError,
    DecodeError,
    EncodingError,
    NegotiationError,
    PlannerError,
    ScenarioLookupError,
    SchemaError,
    UnsupportedScenarioError,
    ValidationError,
)
from .solver import (
    Junction,
    SolveReport,
    plan_agent,
    solve_coefficients,
)
from .trajectory import (
    KinematicState,
    PiecewiseTrajectory,
    sample_positions_held,
    trajectory_energy,
)
from .world import (
    AgentSpec,
    Scenario,
    first_violation,
    state_to_json,
    _first_window,
    _rebased,
    _state_from_json,
    _require_keys,
    _as_float,
    _as_int,
)

# Penetration of the required separation deeper than this counts as a
# conflict; consistent with the world-model safety tolerance.
SEPARATION_TOL = 1e-9

# Points of the coarse grid on which negotiation screens pair verdicts
# before it checks them exactly, and the slack in meters that covers
# rounding in positions and distances when the screen compares them.
SCREEN_SAMPLES = 401
SCREEN_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Message:
    """Finite-real encoding of one agent's optimal trajectory.

    Carries boundary data, the horizon, and the junction sequence; no
    sampled states or polynomial coefficients. Real-number tally:
    10 + 2 * len(junctions) floats (t0, tf, four state 2-vectors, and
    theta/time per junction) plus 1 + len(junctions) integers (agent id
    and one obstacle id per junction).
    """

    agent_id: int
    t0: float
    tf: float
    start: KinematicState
    goal: KinematicState
    junctions: tuple[Junction, ...]

    def __post_init__(self):
        object.__setattr__(self, "junctions", tuple(self.junctions))
        if not (math.isfinite(self.t0) and math.isfinite(self.tf)
                and self.t0 < self.tf):
            raise ValidationError(
                f"horizon [{self.t0}, {self.tf}] is not a finite, non-empty interval"
            )
        times = [j.time for j in self.junctions]
        if any(not self.t0 < t < self.tf for t in times):
            raise ValidationError(
                f"junction times {times} outside horizon ({self.t0}, {self.tf})"
            )
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError(f"junction times {times} not strictly increasing")


def message_real_count(msg: Message) -> int:
    """Number of real values in the wire encoding."""
    return 10 + 2 * len(msg.junctions)


def message_int_count(msg: Message) -> int:
    """Number of integer values in the wire encoding."""
    return 1 + len(msg.junctions)


@dataclass(frozen=True, order=True)
class Payoff:
    """Energy cost of a joint plan for one agent; infinite if unsafe.

    The infeasible payoff compares greater than every finite one.
    """

    value: float

    def __post_init__(self):
        if not (self.value >= 0):
            raise ValueError(f"payoff must be nonnegative, got {self.value}")

    @classmethod
    def infeasible(cls) -> "Payoff":
        return cls(value=math.inf)

    @property
    def is_infeasible(self) -> bool:
        return math.isinf(self.value)

    def to_json(self):
        return "infeasible" if self.is_infeasible else self.value


@dataclass(frozen=True)
class NegotiationConfig:
    """Grid search settings for arrival-time negotiation."""

    step: float = 0.5
    max_deviation: float = 5.0

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError("step must be positive and finite")
        if not math.isfinite(self.max_deviation):
            raise ValueError("max_deviation must be finite")
        ratio = self.max_deviation / self.step
        if self.max_deviation < 0 or abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("max_deviation must be a nonneg multiple of step")


@dataclass(frozen=True, eq=False)
class ConflictRecord:
    """First separation violation of one agent pair: the midpoint of
    its first violated window, and the penetration there."""

    pair: tuple[int, int]
    time: float
    penetration: float


def encode_message(agent: AgentSpec, report: SolveReport) -> Message:
    """Compress a converged plan into its finite-real message."""
    if not report.converged:
        raise EncodingError(
            f"agent {agent.id}: refusing to encode a non-converged plan "
            f"(residual {report.residual_norm:.3e})"
        )
    return Message(
        agent_id=agent.id,
        t0=agent.t0,
        tf=agent.tf_nominal,
        start=agent.start,
        goal=agent.goal,
        junctions=report.junction_sequence,
    )


def decode_message(msg: Message, scenario: Scenario) -> PiecewiseTrajectory:
    """Rebuild the sender's exact trajectory from its message.

    One linear solve on the message's junctions; no re-optimization.
    Raises DecodeError for an id the scenario lacks, or for junctions
    that leave a segment shorter than solver.MIN_SEGMENT.
    """
    try:
        radius = scenario.agent(msg.agent_id).radius
        for junction in msg.junctions:
            scenario.obstacle(junction.obstacle_id)
        sender = AgentSpec(
            id=msg.agent_id, radius=radius, start=msg.start, goal=msg.goal,
            t0=msg.t0, tf_nominal=msg.tf,
        )
        return solve_coefficients(sender, msg.junctions, scenario)
    except (ScenarioLookupError, ConditioningError) as exc:
        raise DecodeError(str(exc)) from exc


def _penetration(traj_a, r_a: float, traj_b, r_b: float):
    """(time, depth) of the pair's first conflict, or None when safe.

    Decided exactly, by the kernel that decides obstacles: on the merged
    knots of both plans the difference a - b is one cubic per piece, each
    agent holding its endpoint outside its own horizon. Its coefficients
    are each plan's cubic re-based at every merged knot, as an array, and
    _first_window finds where it first comes within R - SEPARATION_TOL of
    the origin, R = r_a + r_b, as the level R**2 - (R - tol)**2 on g, and
    the penetration at that window's midpoint.
    """
    knots = sorted({*traj_a.knots, *traj_b.knots})
    rebased_a, rebased_b = (_rebased(traj.local, traj.knots, knots[:-1])
                            for traj in (traj_a, traj_b))
    r = r_a + r_b
    hit = _first_window(rebased_a - rebased_b, knots, np.zeros((1, 2)), [r],
                        r * r - (r - SEPARATION_TOL) ** 2)
    return None if hit is None else hit[1:]


class _Profile(NamedTuple):
    """One plan as the pair screen sees it: its held positions on the
    shared coarse grid as complex numbers x + iy, bounds on its speed and
    on its acceleration, and the coarse interval in which the hold before
    its start breaks the velocity (None when it starts at rest or at the
    grid's first point)."""

    positions: np.ndarray
    speed: float
    accel: float
    jump: int | None


def _motion_bounds(traj: PiecewiseTrajectory) -> tuple[float, float]:
    """Bounds on the plan's speed and acceleration.

    In local time s on a segment of length h, with a2 = (bx, by) and
    a3 = (cx, cy), the velocity v + 2 a2 s + 3 a3 s**2 has the Bernstein
    control points b0 = v, b1 = v + a2 h, b2 = v + 2 a2 h + 3 a3 h**2.
    Split at h/2 (de Casteljau), they are b0, (b0 + b1)/2, v(h/2),
    (b1 + b2)/2 and b2, each v + (p a2 + q a3 h) h, and by the convex-hull
    property (Farouki & Rajan, CAGD 4, 1987) the speed never exceeds
    their largest norm: on a rest-to-rest cubic, over distance D in time
    T, that is the peak 1.5 D/T, where b1 alone is 3 D/T. The
    acceleration 2 a2 + 6 a3 s is linear in s, so its bound, at a
    segment's end, is exact. Held parts add nothing to either."""
    speed = accel = 0.0
    knots = traj.knots
    # Python floats, from one tolist: on 2-vectors NumPy's cost per call
    # dominates
    for (_, (vx, vy), (bx, by), (cx, cy)), t0, t1 in zip(traj.local.tolist(),
                                                         knots, knots[1:]):
        h = t1 - t0
        speed = max(speed, *(math.hypot(vx + (p * bx + q * cx * h) * h,
                                        vy + (p * by + q * cy * h) * h)
                             for p, q in ((0.0, 0.0), (0.5, 0.0), (1.0, 0.75),
                                          (1.5, 1.5), (2.0, 3.0))))
        accel = max(accel, math.hypot(2.0 * bx, 2.0 * by),
                    math.hypot(2.0 * bx + 6.0 * cx * h,
                               2.0 * by + 6.0 * cy * h))
    return speed, accel


def _profile(traj: PiecewiseTrajectory, grid: np.ndarray) -> _Profile:
    p = sample_positions_held(traj, grid)
    jump = None
    if traj.local[0, 1].any() and traj.t_start > grid[0]:
        jump = int(np.searchsorted(grid, traj.t_start)) - 1
    return _Profile(p[:, 0] + 1j * p[:, 1], *_motion_bounds(traj), jump)


def _chord_distances(d: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Distance from the origin to each chord between consecutive points
    of d (complex), given their norms dist: the perpendicular distance
    where the origin's foot on the chord's line falls strictly between
    its ends, else the nearer end."""
    p, e = d[:-1], np.diff(d)
    along = p.conjugate() * e
    inside = (along.real < 0.0) & ((d[1:].conjugate() * e).real > 0.0)
    chords = np.minimum(dist[:-1], dist[1:])
    chords[inside] = np.abs(along.imag[inside]) / np.abs(e[inside])
    return chords


def _certified_verdict(grid: np.ndarray, a: _Profile, r_a: float,
                       b: _Profile, r_b: float) -> bool | None:
    """The exact pair verdict (True when safe) if the coarse grid proves
    it, else None.

    The relative position d = a - b is sampled at the coarse points, and
    outside the pair's joint horizon both agents hold the distance at its
    end. A coarse distance below the limit R - SEPARATION_TOL is an
    instant of conflict. Safety is proved by two bounds, tried in order:

    - first order: held positions move no faster than the speed bound,
      so |d| changes at most at rate L = a.speed + b.speed, and the
      smallest coarse distance above the limit by more than L times half
      the coarse step clears every instant;
    - second order: where d has a continuous velocity and acceleration
      at most A = a.accel + b.accel, it stays within A step**2 / 8 of the
      chord between two coarse points (de Boor, *A Practical Guide to
      Splines*, ch. 2), so each chord's distance from the origin less
      that clears its interval. Goals are at rest, so holding after a
      horizon keeps the velocity continuous; holding before a nonzero
      start velocity does not, and the interval holding that start
      keeps the first-order bound on its own two coarse distances.

    SCREEN_EPS twice covers rounding in the distances compared.
    """
    d = a.positions - b.positions
    dist = np.abs(d)
    nearest = float(dist.min())
    limit = r_a + r_b - SEPARATION_TOL
    if nearest + 2.0 * SCREEN_EPS < limit:
        return False
    span = grid[-1] - grid[0]
    reach = (a.speed + b.speed) * span / (len(grid) - 1) / 2.0
    if nearest - reach - 2.0 * SCREEN_EPS > limit:
        return True
    step = span / (len(grid) - 1)
    bounds = _chord_distances(d, dist) - (a.accel + b.accel) * step * step / 8.0
    for k in {a.jump, b.jump} - {None}:
        bounds[k] = min(dist[k], dist[k + 1]) - reach
    if float(bounds.min()) - 2.0 * SCREEN_EPS > limit:
        return True
    return None


def _conflicts_between(
    entries: list[tuple[int, float, PiecewiseTrajectory]],
) -> list[ConflictRecord]:
    """entries holds (agent_id, radius, trajectory) sorted by caller."""
    conflicts = []
    for i, (id_a, r_a, traj_a) in enumerate(entries):
        for id_b, r_b, traj_b in entries[i + 1:]:
            hit = _penetration(traj_a, r_a, traj_b, r_b)
            if hit is not None:
                conflicts.append(ConflictRecord((id_a, id_b), *hit))
    return conflicts


def detect_conflicts(msgs: list[Message], scenario: Scenario) -> list[ConflictRecord]:
    """Pairwise separation violations among decoded messages, each
    decided exactly over the union of the pair's two horizons; agents
    hold their endpoint state outside their own horizon."""
    entries = [
        (msg.agent_id, scenario.agent(msg.agent_id).radius,
         decode_message(msg, scenario))
        for msg in msgs
    ]
    return _conflicts_between(entries)


def payoff(msg: Message, all_msgs: list[Message], scenario: Scenario) -> Payoff:
    """Energy of the agent's decoded trajectory, infeasible if unsafe.

    Unsafe means an obstacle violation or an approach within the
    combined radius of any other agent's decoded trajectory, both found
    exactly.
    """
    traj = decode_message(msg, scenario)
    if first_violation(traj, scenario, msg.agent_id) is not None:
        return Payoff.infeasible()
    radius = scenario.agent(msg.agent_id).radius
    for other in all_msgs:
        if other.agent_id == msg.agent_id:
            continue
        other_radius = scenario.agent(other.agent_id).radius
        hit = _penetration(traj, radius, decode_message(other, scenario),
                           other_radius)
        if hit is not None:
            return Payoff.infeasible()
    return Payoff(value=trajectory_energy(traj))


def _least_assignment(count: int, m: int, accept) -> tuple | None:
    """The count ticks in [-m, m] whose every prefix is accepted, least
    by (total |tick|, max |tick|, ticks), or None: a depth-first branch
    and bound (Land & Doig, *Econometrica* 28, 1960) that visits each
    accepted prefix at most once."""
    best = _branch(count, m, accept, (), 0, 0, None)
    return None if best is None else best[2]


def _ticks(m: int):
    """The ticks in [-m, m] by rising |tick|, negative first, made one
    at a time: a search that stops early never holds the whole grid."""
    yield 0
    for k in range(1, m + 1):
        yield -k
        yield k


def _branch(count: int, m: int, accept, prefix: tuple, total: int,
            peak: int, best: tuple | None) -> tuple | None:
    """The least key of an accepted completion of prefix, whose |tick|
    sum to total and peak at peak, if it is below best; else best.

    Ticks go in _ticks order, by rising |tick| and negative first. Zeros
    complete a prefix to the least key any completion has, so a tick is
    skipped when that key is not below best, and so is every later one
    once its (total, max) exceeds best's. A module function: a recursive
    closure is a reference cycle that would keep a negotiation's plans
    alive until the cyclic garbage collector runs.
    """
    if len(prefix) == count:
        return total, peak, prefix
    zeros = (0,) * (count - len(prefix) - 1)
    for t in _ticks(m):
        candidate = prefix + (t,)
        key = (total + abs(t), max(peak, abs(t)), candidate + zeros)
        if best is not None and key >= best:
            if key[:2] > best[:2]:
                break
        elif accept(candidate):
            best = _branch(count, m, accept, candidate, *key[:2], best)
    return best


class NegotiatedPlan(NamedTuple):
    """One agent's plan at one arrival time: the spec (shifted to that
    time), its trajectory and report, and the wall-clock ms of that
    `plan_agent` call. The search holds converged plans only. The CLI
    also keeps a failed agent's record, whose trajectory and report are
    its best infeasible iterate, or None where no solve finished."""

    spec: AgentSpec
    trajectory: PiecewiseTrajectory | None
    report: SolveReport | None
    wall_clock_ms: float


class NegotiationResult(NamedTuple):
    """The accepted assignment, both parts keyed by agent id."""

    arrival_times: dict[int, float]
    plans: dict[int, NegotiatedPlan]


def negotiate_arrival_times(
    scenario: Scenario,
    config: NegotiationConfig = NegotiationConfig(),
    nominal: Mapping[int, NegotiatedPlan] | None = None,
) -> NegotiationResult:
    """Pick arrival times that remove all inter-agent conflicts.

    Deviations are multiples of the grid step up to the budget. The
    accepted assignment is the conflict-free one of least total absolute
    deviation, breaking ties by the smaller worst-case deviation and
    then by giving the earlier (more negative) deviation to the lower
    agent id. Requires all goals at rest so finished agents can hold
    their goal state.

    Whether a pair conflicts depends only on that pair's two deviations,
    so each pair verdict is decided once and cached. The search is a
    depth-first branch and bound over agents in id order that drops a
    partial assignment once its newest agent has no converged plan or
    conflicts with an earlier one, or it cannot beat the best assignment
    found. Memory grows with the agent count and the verdict cache, not
    with the number of joint assignments.

    A verdict is what the exact check `_penetration` says. The search
    first tries a certificate that proves it from SCREEN_SAMPLES coarse
    points per plan on one grid over every horizon the search can plan,
    a bound on each plan's speed (first order) and, when that is not
    enough, the chords between coarse points and a bound on each plan's
    acceleration (second order); only a pair neither order decides is
    checked exactly. A plan is profiled once, when it enters the plan
    cache. The returned plans are safe at every instant, and a caller
    need not check them again.

    nominal optionally holds plans the caller already made at the
    nominal horizons, keyed by agent id; the search takes them as its
    zero-deviation plans instead of planning those agents again.

    Returns the arrival times together with the plans the search made
    for them, so no caller needs to plan the shifted agents again.
    """
    agents = sorted(scenario.agents, key=lambda a: a.id)
    for agent in agents:
        if not np.all(agent.goal.v == 0.0):
            raise UnsupportedScenarioError(
                f"agent {agent.id} has nonzero goal velocity; arrival-time "
                "negotiation requires goals at rest"
            )
    m = int(round(config.max_deviation / config.step))
    # the coarse grid covers every horizon [t0, tf_nominal + ticks * step]
    grid = np.linspace(min((a.t0 for a in agents), default=0.0),
                       max((a.tf_nominal + m * config.step for a in agents),
                           default=0.0),
                       SCREEN_SAMPLES)
    # a converged plan enters the cache together with its screen profile
    plan_cache: dict[tuple[int, int], tuple[NegotiatedPlan, _Profile] | None] = {
        (agent_id, 0): (plan, _profile(plan.trajectory, grid))
        if plan.report.converged else None
        for agent_id, plan in (nominal or {}).items()
    }
    verdicts: dict[tuple[int, int, int, int], bool] = {}

    def plan_with_deviation(agent: AgentSpec, ticks: int):
        key = (agent.id, ticks)
        tf = agent.tf_nominal + ticks * config.step
        if tf <= agent.t0:
            # a horizon that ends at or before its start has no plan
            plan_cache[key] = None
        if key not in plan_cache:
            shifted = AgentSpec(
                id=agent.id, radius=agent.radius, start=agent.start,
                goal=agent.goal, t0=agent.t0, tf_nominal=tf,
            )
            started = time.perf_counter()
            try:
                traj, report = plan_agent(shifted, scenario)
            except PlannerError:
                plan_cache[key] = None
            else:
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                plan_cache[key] = (
                    (NegotiatedPlan(shifted, traj, report, elapsed_ms),
                     _profile(traj, grid))
                    if report.converged else None
                )
        return plan_cache[key]

    def pair_safe(i: int, tick_i: int, j: int, tick_j: int) -> bool:
        key = (i, tick_i, j, tick_j)
        if key not in verdicts:
            a, b = agents[i], agents[j]
            plan_a, profile_a = plan_cache[(a.id, tick_i)]
            plan_b, profile_b = plan_cache[(b.id, tick_j)]
            verdict = _certified_verdict(grid, profile_a, a.radius,
                                         profile_b, b.radius)
            if verdict is None:
                verdict = _penetration(plan_a.trajectory, a.radius,
                                       plan_b.trajectory, b.radius) is None
            verdicts[key] = verdict
        return verdicts[key]

    def accept(prefix: tuple[int, ...]) -> bool:
        k = len(prefix) - 1
        if plan_with_deviation(agents[k], prefix[k]) is None:
            return False
        return all(pair_safe(i, prefix[i], k, prefix[k]) for i in range(k))

    # Nominal plans must exist; surface their failure immediately.
    for agent in agents:
        if plan_with_deviation(agent, 0) is None:
            raise NegotiationError(
                f"agent {agent.id} has no converged plan at its nominal horizon"
            )

    ticks = _least_assignment(len(agents), m, accept)
    if ticks is None:
        raise NegotiationError(
            f"no conflict-free assignment within +/-{config.max_deviation} s"
        )
    plans = {agent.id: plan_cache[(agent.id, tick)][0]
             for agent, tick in zip(agents, ticks)}
    return NegotiationResult(
        {agent_id: plan.spec.tf_nominal for agent_id, plan in plans.items()},
        plans,
    )


# --- JSON ------------------------------------------------------------------


def message_to_json(msg: Message) -> dict:
    return {
        "agent_id": msg.agent_id,
        "t0": msg.t0,
        "tf": msg.tf,
        "start": state_to_json(msg.start),
        "goal": state_to_json(msg.goal),
        "junctions": [j.to_json() for j in msg.junctions],
    }


def message_from_json(obj) -> Message:
    _require_keys(obj, {"agent_id", "t0", "tf", "start", "goal", "junctions"},
                  "message")
    if not isinstance(obj["junctions"], list):
        raise SchemaError("message.junctions must be an array")
    junctions = []
    for i, item in enumerate(obj["junctions"]):
        where = f"message.junctions[{i}]"
        _require_keys(item, {"obstacle", "theta", "time"}, where)
        try:
            junctions.append(
                Junction(
                    obstacle_id=_as_int(item["obstacle"], f"{where}.obstacle"),
                    theta=_as_float(item["theta"], f"{where}.theta"),
                    time=_as_float(item["time"], f"{where}.time"),
                )
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    try:
        return Message(
            agent_id=_as_int(obj["agent_id"], "message.agent_id"),
            t0=_as_float(obj["t0"], "message.t0"),
            tf=_as_float(obj["tf"], "message.tf"),
            start=_state_from_json(obj["start"], "message.start"),
            goal=_state_from_json(obj["goal"], "message.goal"),
            junctions=tuple(junctions),
        )
    except ValueError as exc:
        raise SchemaError(f"message: {exc}") from exc
