#!/usr/bin/env python3
"""Survey planner behavior over randomized sphere worlds.

Plans one diagonal agent through the seeded reference worlds (seeds
1-50 unless --seeds says otherwise), each with 1-6 obstacles, and
tabulates convergence, junction counts, energy overhead above the
unconstrained transfer, and wall-clock time. Every planned seed is
timed, failed ones included, and the time spent in failed seeds is
reported beside the total.

With --answers it prints, instead, one line per world and no times:
the outcome, the junction count, and the repr of the energy, the
residual and each junction's (obstacle, theta, time), followed by the
failure message where planning failed. Two checkouts give the same
lines exactly when they give the same answers, so

    python scripts/random_batch_survey.py --seeds 1 300 --answers

run in each can be compared with diff. --oracle also solves each
converged world with the discrete penalty oracle at its default
settings. With --answers it appends "oracle", the repr of the oracle's
cost and the repr of the planner's relative energy gap to it, so the
oracle's bits can be compared the same way; without it, the summary
gains one line timing the oracle over those worlds (total, median and
max seconds; the plan times leave it out).
"""

import argparse
import time

from junctionplan import (
    GenerationError,
    PlanningFailure,
    compare,
    discrete_min_energy_constrained,
    plan_agent,
    segment_energy,
    solve_boundary,
)
from junctionplan.world import reference_world


def answer_line(seed, report, failure):
    """One world's answer; report is the last iterate, if any."""
    if report is None:
        return f"world {seed}: failed - | {failure}"
    outcome = "failed" if failure else (
        "converged" if report.converged else "unconverged")
    junctions = tuple((j.obstacle_id, j.theta, j.time)
                      for j in report.junction_sequence)
    line = (f"world {seed}: {outcome} {len(junctions)} {report.energy!r} "
            f"{report.residual_norm!r} {junctions!r}")
    return f"{line} | {failure}" if failure else line


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 50),
                        metavar=("FIRST", "LAST"),
                        help="inclusive seed range (default 1 50)")
    parser.add_argument("--answers", action="store_true",
                        help="print each world's answer instead of the summary")
    parser.add_argument("--oracle", action="store_true",
                        help="solve each converged world with the oracle: "
                             "with --answers add its cost and the gap, "
                             "otherwise time it")
    args = parser.parse_args(argv)
    first, last = args.seeds

    converged = failed = 0
    junction_counts = {}
    overheads = []
    times_ms = []
    failed_ms = 0.0
    oracle_s = []
    for seed in range(first, last + 1):
        try:
            agent, scenario = reference_world(seed)
        except GenerationError as exc:
            if args.answers:
                print(f"world {seed}: no world | {exc}")
            continue
        started = time.perf_counter()
        try:
            traj, report = plan_agent(agent, scenario)
        except PlanningFailure as exc:
            if args.answers:
                print(answer_line(seed, exc.report, exc))
            else:
                print(f"  seed {seed:2d}: FAILED ({exc})")
            report = None
        else:
            if args.answers:
                line = answer_line(seed, report, None)
                if args.oracle and report.converged:
                    plan = discrete_min_energy_constrained(agent, scenario)
                    line += f" oracle {plan.cost!r} {compare(traj, plan)!r}"
                print(line)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        times_ms.append(elapsed_ms)
        if args.oracle and not args.answers and report is not None and report.converged:
            started = time.perf_counter()
            discrete_min_energy_constrained(agent, scenario)
            oracle_s.append(time.perf_counter() - started)
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
    if args.answers:
        return

    print(f"random batch survey (seeds {first}-{last})")
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
    if oracle_s:
        oracle_s.sort()
        print(f"  oracle wall clock ({len(oracle_s)} converged worlds): "
              f"total {sum(oracle_s):.3f} s, "
              f"median {oracle_s[len(oracle_s) // 2]:.3f} s, "
              f"max {oracle_s[-1]:.3f} s")


if __name__ == "__main__":
    main()
