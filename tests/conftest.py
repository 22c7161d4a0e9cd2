import pytest

from junctionplan import AgentSpec, KinematicState, Obstacle, Scenario
from junctionplan.world import reference_world  # noqa: F401 (shared by the tests)

# Seeds of the 50 reference worlds; 46 plan and converge, worlds 2, 22,
# 41 and 47 fail.
REFERENCE_SEEDS = range(1, 51)


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
