#!/usr/bin/env python3
"""Resolve a symmetric two-agent crossing by arrival-time negotiation.

Both agents nominally arrive at t = 10 and would collide at the origin
at t = 5. The demo shows the pre-negotiation overlap, runs the grid
search over arrival-time deviations, and checks the negotiated plans
exactly for conflicts.
"""

import time

from junctionplan import (
    AgentSpec,
    KinematicState,
    NegotiatedPlan,
    NegotiationConfig,
    Scenario,
    detect_conflicts,
    encode_message,
    negotiate_arrival_times,
    payoff,
    plan_agent,
)


def main():
    a1 = AgentSpec(id=1, radius=0.75,
                   start=KinematicState.at_rest(-5.0, 0.0),
                   goal=KinematicState.at_rest(5.0, 0.0),
                   t0=0.0, tf_nominal=10.0)
    a2 = AgentSpec(id=2, radius=0.75,
                   start=KinematicState.at_rest(0.0, -5.0),
                   goal=KinematicState.at_rest(0.0, 5.0),
                   t0=0.0, tf_nominal=10.0)
    scenario = Scenario(agents=(a1, a2), obstacles=())
    required = a1.radius + a2.radius

    messages = []
    nominal = {}
    for agent in (a1, a2):
        started = time.perf_counter()
        traj, report = plan_agent(agent, scenario)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        nominal[agent.id] = NegotiatedPlan(agent, traj, report, elapsed_ms)
        messages.append(encode_message(agent, report))

    print("crossing negotiation demo")
    print(f"  required separation       {required:.2f} m")
    for conflict in detect_conflicts(messages, scenario):
        print(f"  nominal conflict          agents {conflict.pair}, "
              f"overlap {conflict.penetration:.3f} m at t={conflict.time:.2f}")
    for msg in messages:
        print(f"  nominal payoff agent {msg.agent_id}    "
              f"{payoff(msg, messages, scenario).to_json()}")

    config = NegotiationConfig(step=2.0, max_deviation=4.0)
    negotiated = negotiate_arrival_times(scenario, config, nominal)
    print(f"  negotiated arrivals       {negotiated.arrival_times}")

    plans = negotiated.plans
    final_messages = [encode_message(plan.spec, plan.report)
                      for plan in plans.values()]
    remaining = detect_conflicts(final_messages, scenario)
    print(f"  final conflicts           {len(remaining)}")
    for msg in final_messages:
        print(f"  final payoff agent {msg.agent_id}      "
              f"{payoff(msg, final_messages, scenario).to_json():.4f}")


if __name__ == "__main__":
    main()
