#!/usr/bin/env python3
"""Plan straight through a centered obstacle and audit the result.

Builds the canonical symmetric scenario (rest-to-rest transfer whose
straight line pierces an obstacle dead center), runs the junction
planner, cross-checks the energy against the discrete transcription
oracle, and prints a small table of the numbers that matter.
"""

import time

from junctionplan import (
    AgentSpec,
    KinematicState,
    Obstacle,
    Scenario,
    compare,
    constraint_value,
    contact_point,
    discrete_min_energy_constrained,
    inflated_radius,
    plan_agent,
    solve_boundary,
    trajectory_energy,
)


def main():
    agent = AgentSpec(
        id=0, radius=0.25,
        start=KinematicState.at_rest(0.0, 0.0),
        goal=KinematicState.at_rest(10.0, 0.0),
        t0=0.0, tf_nominal=10.0,
    )
    obstacle = Obstacle(id=0, center=(5.0, 0.0), radius=0.75)
    scenario = Scenario(agents=(agent,), obstacles=(obstacle,))

    unconstrained = solve_boundary(agent.start, agent.goal, agent.t0,
                                   agent.tf_nominal)
    started = time.perf_counter()
    trajectory, report = plan_agent(agent, scenario)
    plan_ms = (time.perf_counter() - started) * 1000.0

    started = time.perf_counter()
    oracle = discrete_min_energy_constrained(agent, scenario)
    oracle_ms = (time.perf_counter() - started) * 1000.0

    junction = report.junction_sequence[0]
    combined = inflated_radius(obstacle, agent)
    touch = contact_point(obstacle, combined, junction.theta)

    print("symmetric obstacle demo")
    print(f"  unconstrained energy   {trajectory_energy(unconstrained):.6f}")
    print(f"  junction energy        {report.energy:.6f}")
    print(f"  oracle cost (N=2000)   {oracle.cost:.6f}")
    print(f"  relative gap           {compare(trajectory, oracle):+.2e}")
    print(f"  residual norm          {report.residual_norm:.2e}")
    print(f"  junction time          {junction.time:.6f} s")
    print(f"  contact angle          {junction.theta:+.6f} rad")
    print(f"  contact point          ({touch[0]:.4f}, {touch[1]:.4f})")
    print(f"  g at contact           "
          f"{constraint_value(touch, obstacle.center, combined):+.2e}")
    print(f"  planner wall clock     {plan_ms:.1f} ms")
    print(f"  oracle wall clock      {oracle_ms:.1f} ms")


if __name__ == "__main__":
    main()
