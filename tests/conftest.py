import numpy as np
import pytest

from junctionplan import (
    AgentSpec,
    Bounds,
    KinematicState,
    Obstacle,
    PiecewiseTrajectory,
    PlanningFailure,
    Scenario,
    gen_world,
    plan_agent,
)
from junctionplan.trajectory import sample_positions_held
from junctionplan.world import reference_world  # noqa: F401 (shared by the tests)

# Seeds of the 50 reference worlds; 46 plan and converge, worlds 2, 22,
# 41 and 47 fail.
REFERENCE_SEEDS = range(1, 51)


def piecewise(*pieces):
    """The PiecewiseTrajectory of contiguous pieces (p, v, a2, a3, t0, t1),
    each in local time s = t - t0; a CubicSegment is such a piece."""
    assert all(a[5] == b[4] for a, b in zip(pieces, pieces[1:])), "pieces leave a gap"
    return PiecewiseTrajectory([piece[:4] for piece in pieces],
                               [pieces[0][4], *(piece[5] for piece in pieces)])


def min_separation(traj_a, traj_b):
    """Sampled reference for the exact pair check: time and value of the
    smallest distance among 2001 uniform samples over the union of both
    horizons, each agent holding its endpoint outside its own."""
    times = np.linspace(min(traj_a.t_start, traj_b.t_start),
                        max(traj_a.t_end, traj_b.t_end), 2001)
    d = sample_positions_held(traj_a, times) - sample_positions_held(traj_b, times)
    # per axis, the same bits as np.linalg.norm(d, axis=1)
    dist = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    k = int(np.argmin(dist))
    return float(times[k]), float(dist[k])


def single_obstacle_instances(count=10):
    """Deterministic feasible single-obstacle worlds near the path, as
    (scenario, agent, trajectory, report) of each converged plan."""
    agent = AgentSpec(id=0, radius=0.5, start=KinematicState.at_rest(-8, 0),
                      goal=KinematicState.at_rest(8, 0), t0=0.0, tf_nominal=10.0)
    collected = []
    seed = 0
    while len(collected) < count:
        seed += 1
        assert seed < 200, "could not assemble the single-obstacle sample"
        scenario = gen_world(seed, 1, Bounds(-5, -2, 5, 2), (agent,),
                             radius_range=(0.8, 1.6))
        try:
            traj, report = plan_agent(agent, scenario)
        except PlanningFailure:
            continue
        if report.converged:
            collected.append((scenario, agent, traj, report))
    return collected


@pytest.fixture
def symmetric_scenario():
    """Rest-to-rest transfer straight through a centered obstacle.

    Agent radius 0.25 plus obstacle radius 0.75 gives an inflated radius
    of exactly 1. By symmetry the optimal junction sits at the horizon
    midpoint, touching the circle at its top or bottom.
    """
    agent = AgentSpec(
        id=0, radius=0.25,
        start=KinematicState.at_rest(0.0, 0.0),
        goal=KinematicState.at_rest(10.0, 0.0),
        t0=0.0, tf_nominal=10.0,
    )
    obstacle = Obstacle(id=0, center=(5.0, 0.0), radius=0.75)
    return Scenario(agents=(agent,), obstacles=(obstacle,))


@pytest.fixture
def crossing_scenario():
    """Two agents whose straight plans meet at the origin at t = 5."""
    a1 = AgentSpec(
        id=1, radius=0.75,
        start=KinematicState.at_rest(-5.0, 0.0),
        goal=KinematicState.at_rest(5.0, 0.0),
        t0=0.0, tf_nominal=10.0,
    )
    a2 = AgentSpec(
        id=2, radius=0.75,
        start=KinematicState.at_rest(0.0, -5.0),
        goal=KinematicState.at_rest(0.0, 5.0),
        t0=0.0, tf_nominal=10.0,
    )
    return Scenario(agents=(a1, a2), obstacles=())
