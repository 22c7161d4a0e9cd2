#!/usr/bin/env python3
"""Survey planner behavior over randomized sphere worlds.

Plans one diagonal agent through 50 seeded worlds with 1-6 obstacles
each and tabulates convergence, junction counts, energy overhead above
the unconstrained transfer, and wall-clock time. Every planned seed is
timed, failed ones included, and the time spent in failed seeds is
reported beside the total.
"""

import time

from junctionplan import (
    AgentSpec,
    Bounds,
    GenerationError,
    KinematicState,
    PlanningFailure,
    gen_world,
    plan_agent,
    segment_energy,
    solve_boundary,
)


def main():
    converged = failed = 0
    junction_counts = {}
    overheads = []
    times_ms = []
    failed_ms = 0.0
    for seed in range(1, 51):
        agent = AgentSpec(
            id=0, radius=0.5,
            start=KinematicState.at_rest(-10.0, -10.0),
            goal=KinematicState.at_rest(10.0, 10.0),
            t0=0.0, tf_nominal=10.0,
        )
        try:
            scenario = gen_world(seed, 1 + seed % 6, Bounds(-8, -8, 8, 8),
                                 (agent,))
        except GenerationError:
            continue
        started = time.perf_counter()
        try:
            _, report = plan_agent(agent, scenario)
        except PlanningFailure as exc:
            report = None
            print(f"  seed {seed:2d}: FAILED ({exc})")
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        times_ms.append(elapsed_ms)
        if report is None or not report.converged:
            failed += 1
            failed_ms += elapsed_ms
            continue
        converged += 1
        n = len(report.junction_sequence)
        junction_counts[n] = junction_counts.get(n, 0) + 1
        base = segment_energy(
            solve_boundary(agent.start, agent.goal, agent.t0, agent.tf_nominal)
        )
        overheads.append(report.energy / base - 1.0)

    print("random batch survey (seeds 1-50)")
    print(f"  converged {converged}, failed {failed}")
    print(f"  junction count histogram: "
          f"{dict(sorted(junction_counts.items()))}")
    if overheads:
        print(f"  energy overhead above unconstrained: "
              f"mean {100 * sum(overheads) / len(overheads):.1f} %, "
              f"max {100 * max(overheads):.1f} %")
    if times_ms:
        times_ms.sort()
        print(f"  plan wall clock: total {sum(times_ms) / 1000.0:.2f} s "
              f"(failed seeds {failed_ms / 1000.0:.2f} s), "
              f"median {times_ms[len(times_ms) // 2]:.0f} ms, "
              f"max {times_ms[-1]:.0f} ms")


if __name__ == "__main__":
    main()
