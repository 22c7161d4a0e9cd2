"""Command-line interface.

Subcommands: gen-world, plan, check, oracle, bench. Exit codes: 0 on
success, 1 for a safety violation found by check, 2 for input or
generation errors, 3 for planning or negotiation failures, 4 when the
oracle finishes with a penetration warning.

plan and bench run the same steps through _run: it solves each agent
at its nominal horizon, checks those plans pairwise when every agent
converged, and negotiates arrival times only on a conflict. bench times
its two phases; plan builds the report.json entries and the messages
from its plans as it writes them. _plan_entry is report.json's one list
of per-agent fields.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    GenerationError,
    PlannerError,
    PlanningFailure,
    ScenarioLookupError,
    SchemaError,
)
from .game import (
    _conflicts_between,
    encode_message,
    message_to_json,
    negotiate_arrival_times,
    NegotiatedPlan,
    NegotiationConfig,
)
from .oracle import OracleConfig, compare, discrete_min_energy_constrained
from .solver import plan_agent
from .trajectory import KinematicState, sample_trajectory, solve_boundary
from .world import (
    SAFETY_TOL,
    AgentSpec,
    Bounds,
    gen_world,
    inflated_radius,
    load_scenario,
    save_scenario,
)

CSV_HEADER = ["agent_id", "t", "px", "py", "vx", "vy", "ux", "uy"]

EXIT_OK = 0
EXIT_UNSAFE = 1
EXIT_INPUT = 2
EXIT_PLANNING = 3
EXIT_ORACLE_WARNING = 4


def _add_negotiation_flags(parser: argparse.ArgumentParser) -> None:
    """The flags _negotiation_config reads."""
    parser.add_argument("--step", type=float, default=NegotiationConfig.step,
                        help="negotiation grid step in seconds")
    parser.add_argument("--max-dev", type=float,
                        default=NegotiationConfig.max_deviation,
                        help="negotiation deviation budget in seconds")


def _negotiation_config(args) -> NegotiationConfig:
    return NegotiationConfig(step=args.step, max_deviation=args.max_dev)


def _parse_agent_arg(text: str, index: int) -> AgentSpec:
    parts = text.split(",")
    if len(parts) != 12:
        raise SchemaError(
            "--agent expects 12 comma-separated numbers: "
            "id,radius,px,py,vx,vy,gpx,gpy,gvx,gvy,t0,tf"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise SchemaError(f"--agent #{index}: {exc}") from exc
    if not values[0].is_integer():
        raise SchemaError(f"--agent #{index}: id {parts[0]!r} is not an integer")
    return AgentSpec(
        id=int(values[0]), radius=values[1],
        start=KinematicState(p=values[2:4], v=values[4:6]),
        goal=KinematicState(p=values[6:8], v=values[8:10]),
        t0=values[10], tf_nominal=values[11],
    )


def _default_agents(bounds: Bounds) -> tuple[AgentSpec, ...]:
    return (
        AgentSpec(id=0, radius=1.25,
                  start=KinematicState.at_rest(bounds.xmin, bounds.ymin),
                  goal=KinematicState.at_rest(bounds.xmax, bounds.ymax),
                  t0=0.0, tf_nominal=10.0),
        AgentSpec(id=1, radius=1.25,
                  start=KinematicState.at_rest(bounds.xmin, bounds.ymax),
                  goal=KinematicState.at_rest(bounds.xmax, bounds.ymin),
                  t0=0.0, tf_nominal=10.0),
    )


def cmd_gen_world(args) -> int:
    bounds = Bounds(*args.bounds)
    if args.agent:
        agents = tuple(_parse_agent_arg(a, i) for i, a in enumerate(args.agent))
    else:
        # Default world: two agents crossing between opposite corners.
        inset = 0.2 * min(bounds.xmax - bounds.xmin, bounds.ymax - bounds.ymin)
        agents = _default_agents(
            Bounds(bounds.xmin - inset, bounds.ymin - inset,
                   bounds.xmax + inset, bounds.ymax + inset)
        )
    scenario = gen_world(
        seed=args.seed, obstacle_count=args.obstacles, bounds=bounds,
        agents=agents, radius_range=tuple(args.radius_range),
    )
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / "scenario.json"
    save_scenario(scenario, path)
    print(path)
    return EXIT_OK


def _csv_rows(agent_id: int, t, p, v, u, source: str | None = None) -> list[str]:
    """CSV lines of one agent's samples: t has shape (n,), p, v and u
    shape (n, 2). A float is written as its repr, which round-trips
    exactly. No field needs quoting, so the lines are what csv.writer
    would write, \r\n endings included."""
    columns = [list(map(repr, column.tolist()))
               for column in (t, *(a[:, k] for a in (p, v, u) for k in (0, 1)))]
    head = f"{agent_id},"
    tail = "\r\n" if source is None else f",{source}\r\n"
    return [head + ",".join(row) + tail for row in zip(*columns)]


def _write_trajectory_csv(path: Path, rows: list[str],
                          header: list[str] = CSV_HEADER) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(rows)


def _trajectory_rows(agent_id: int, traj, samples: int) -> list[str]:
    times = np.linspace(traj.t_start, traj.t_end, samples)
    return _csv_rows(agent_id, times, *sample_trajectory(traj, times))


def _write_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _plan_entry(plan: NegotiatedPlan, converged: bool) -> dict:
    """One agent's report.json entry; plan.report is None when no solve
    finished."""
    agent, report = plan.spec, plan.report
    return {
        "id": agent.id,
        "converged": converged,
        "residual": report.residual_norm if report else None,
        "iterations": report.iterations if report else None,
        "termination": report.termination if report else None,
        "energy": report.energy if report else None,
        "junction_count": len(report.junction_sequence) if report else None,
        "junctions": [j.to_json() for j in report.junction_sequence] if report else [],
        "degenerate_junctions": list(report.degenerate_junctions) if report else [],
        "tf": agent.tf_nominal,
        "wall_clock_ms": plan.wall_clock_ms,
    }


class _Run(NamedTuple):
    """What _run found. plans holds one record per agent, keyed by id in
    id order: the negotiated plan after a negotiation, else the nominal
    one. failed lists the agents without a converged nominal plan;
    negotiation is report.json's, None unless one succeeded."""

    plans: dict[int, NegotiatedPlan]
    failed: list[int]
    conflicts: list
    negotiation: dict | None
    error: PlannerError | None
    plan_ms: float
    negotiation_ms: float


def _run(scenario, config: NegotiationConfig) -> _Run:
    """Plan each agent at its nominal horizon, in id order; when every
    agent converged, check those plans pairwise, and negotiate arrival
    times only on a conflict. Times the two phases."""
    agents = sorted(scenario.agents, key=lambda a: a.id)
    plans: dict[int, NegotiatedPlan] = {}
    failed = []
    started = time.perf_counter()
    for agent in agents:
        solve_started = time.perf_counter()
        converged = False
        try:
            traj, report = plan_agent(agent, scenario)
            converged = report.converged
        except PlanningFailure as exc:
            # best infeasible iterate: the inner solve may have converged
            # but the plan as a whole did not
            traj, report = exc.trajectory, exc.report
        if not converged:
            failed.append(agent.id)
        elapsed_ms = (time.perf_counter() - solve_started) * 1000.0
        plans[agent.id] = NegotiatedPlan(agent, traj, report, elapsed_ms)
    plan_ms = (time.perf_counter() - started) * 1e3

    started = time.perf_counter()
    conflicts, negotiation, error = [], None, None
    # a failed agent leaves nothing to negotiate
    if len(agents) > 1 and not failed:
        conflicts = _conflicts_between(
            [(a.id, a.radius, plans[a.id].trajectory) for a in agents]
        )
    if conflicts:
        try:
            negotiated = negotiate_arrival_times(scenario, config, plans)
        except PlannerError as exc:
            error = exc
        else:
            arrival = negotiated.arrival_times
            negotiation = {
                "arrival_times": {str(a.id): arrival[a.id] for a in agents},
                "total_deviation": sum(abs(arrival[a.id] - a.tf_nominal)
                                       for a in agents),
            }
            plans = {a.id: negotiated.plans[a.id] for a in agents}
            # every pair the search accepted is safe at every instant,
            # by the certificate or the exact check, so the negotiated
            # plans have no conflict to report
            conflicts = []
    negotiation_ms = (time.perf_counter() - started) * 1e3
    return _Run(plans, failed, conflicts, negotiation, error, plan_ms,
                negotiation_ms)


def cmd_plan(args) -> int:
    if args.samples < 2:
        raise SchemaError("--samples must be at least 2")
    run = _run(load_scenario(args.scenario), _negotiation_config(args))
    if run.error is not None:
        print(f"negotiation failed: {run.error}", file=sys.stderr)

    args.out.mkdir(parents=True, exist_ok=True)
    rows = []
    for agent_id, plan in run.plans.items():
        if plan.trajectory is not None:
            rows.extend(_trajectory_rows(agent_id, plan.trajectory, args.samples))
    _write_trajectory_csv(args.out / "trajectories.csv", rows)
    _write_json(args.out / "report.json", {
        "agents": [_plan_entry(plan, agent_id not in run.failed)
                   for agent_id, plan in run.plans.items()],
        "negotiation": run.negotiation,
        "conflicts": [
            {"pair": list(c.pair), "time": c.time, "penetration": c.penetration}
            for c in run.conflicts
        ],
    })
    for agent_id, plan in run.plans.items():
        path = args.out / f"message_{agent_id}.json"
        if agent_id in run.failed:
            # a rerun into the same directory must not leave a message
            # of an earlier run's plan
            path.unlink(missing_ok=True)
        else:
            _write_json(path, message_to_json(encode_message(plan.spec,
                                                             plan.report)))
    print(args.out / "report.json")
    return EXIT_PLANNING if run.failed or run.error is not None else EXIT_OK


def _read_trajectory_csv(path: Path) -> dict[int, dict[str, np.ndarray]]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty CSV") from None
        base = [h.strip() for h in header]
        if base != CSV_HEADER and base != CSV_HEADER + ["source"]:
            raise SchemaError(f"{path}: unexpected header {header}")
        columns = len(base)
        data: dict[int, list[list[float]]] = {}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != columns:
                raise SchemaError(f"{path}:{line_no}: expected {columns} fields")
            try:
                agent_id = int(row[0])
                values = [float(x) for x in row[1:8]]
            except ValueError as exc:
                raise SchemaError(f"{path}:{line_no}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                # a NaN compares false with every bound, so it would pass
                raise SchemaError(f"{path}:{line_no}: non-finite value")
            data.setdefault(agent_id, []).append(values)
    out = {}
    for agent_id, rows in data.items():
        arr = np.array(rows)
        order = np.argsort(arr[:, 0], kind="stable")
        arr = arr[order]
        out[agent_id] = {"t": arr[:, 0], "p": arr[:, 1:3], "v": arr[:, 3:5],
                         "u": arr[:, 5:7]}
    return out


def cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    tracks = _read_trajectory_csv(args.csv)
    if not tracks:
        raise SchemaError(f"{args.csv}: no trajectory rows")
    missing = sorted(a.id for a in scenario.agents if a.id not in tracks)
    if missing:
        # an agent without rows cannot be shown safe against the others
        raise SchemaError(
            f"{args.csv}: no rows for agent(s) {', '.join(map(str, missing))}"
        )
    worst_obstacle = -np.inf
    worst_obstacle_where = None
    unsafe = False
    for agent_id, track in tracks.items():
        agent = scenario.agent(agent_id)
        for obs in scenario.obstacles:
            combined = inflated_radius(obs, agent)
            d2 = np.sum((track["p"] - obs.center) ** 2, axis=1)
            g = combined**2 - d2
            k = int(np.argmax(g))
            if g[k] > worst_obstacle:
                worst_obstacle = g[k]
                worst_obstacle_where = (agent_id, obs.id, float(track["t"][k]))
            if g[k] > SAFETY_TOL:
                unsafe = True
    worst_pair = -np.inf
    worst_pair_where = None
    ids = sorted(tracks)
    for i, id_a in enumerate(ids):
        for id_b in ids[i + 1 :]:
            required = scenario.agent(id_a).radius + scenario.agent(id_b).radius
            ta, pa = tracks[id_a]["t"], tracks[id_a]["p"]
            tb, pb = tracks[id_b]["t"], tracks[id_b]["p"]
            times = np.union1d(ta, tb)
            ax = np.interp(times, ta, pa[:, 0])
            ay = np.interp(times, ta, pa[:, 1])
            bx = np.interp(times, tb, pb[:, 0])
            by = np.interp(times, tb, pb[:, 1])
            dist = np.hypot(ax - bx, ay - by)
            pen = required - dist
            k = int(np.argmax(pen))
            if pen[k] > worst_pair:
                worst_pair = pen[k]
                worst_pair_where = ((id_a, id_b), float(times[k]))
            # interpolation between samples is linear; allow a small slack
            if pen[k] > 1e-6:
                unsafe = True
    if worst_obstacle_where is not None:
        agent_id, obs_id, t = worst_obstacle_where
        print(
            f"worst obstacle margin: g={worst_obstacle:.6e} m^2 "
            f"(agent {agent_id}, obstacle {obs_id}, t={t:.4f})"
        )
    else:
        print("worst obstacle margin: no obstacles")
    if worst_pair_where is not None:
        pair, t = worst_pair_where
        print(
            f"worst pair penetration: {worst_pair:.6e} m "
            f"(agents {pair[0]}-{pair[1]}, t={t:.4f})"
        )
    else:
        print("worst pair penetration: single agent")
    print("verdict:", "UNSAFE" if unsafe else "safe")
    return EXIT_UNSAFE if unsafe else EXIT_OK


def cmd_oracle(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.agent is None:
        if len(scenario.agents) != 1:
            raise SchemaError(f"the scenario has {len(scenario.agents)} "
                              "agents; without --agent it must have one")
        agent = scenario.agents[0]
    else:
        agent = scenario.agent(args.agent)
    oracle_cfg = OracleConfig(steps=args.oracle_steps)
    traj, report = plan_agent(agent, scenario)
    plan = discrete_min_energy_constrained(agent, scenario, oracle_cfg)
    gap = compare(traj, plan)
    doc = {
        "agent_id": agent.id,
        "junction_energy": report.energy,
        "oracle_cost": plan.cost,
        "relative_gap": gap,
        "oracle_max_penetration": plan.max_penetration,
        "warning": plan.penetration_warning,
    }
    print(json.dumps(doc, indent=2))
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        n = plan.controls.shape[0]
        k = np.arange(n + 1)
        rows = _csv_rows(agent.id, plan.t_start + k * plan.dt, plan.positions,
                         plan.velocities, plan.controls[np.minimum(k, n - 1)],
                         "oracle")
        _write_trajectory_csv(args.out / f"oracle_{agent.id}.csv", rows,
                              CSV_HEADER + ["source"])
    return EXIT_ORACLE_WARNING if plan.penetration_warning else EXIT_OK


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise SchemaError("--repeat must be at least 1")
    scenario = load_scenario(args.scenario)
    negotiation_config = _negotiation_config(args)
    phases = {"unconstrained_ms": [], "junction_ms": [], "negotiation_ms": []}
    for _ in range(args.repeat):
        started = time.perf_counter()
        for agent in scenario.agents:
            solve_boundary(agent.start, agent.goal, agent.t0, agent.tf_nominal)
        phases["unconstrained_ms"].append((time.perf_counter() - started) * 1e3)
        run = _run(scenario, negotiation_config)
        phases["junction_ms"].append(run.plan_ms)
        phases["negotiation_ms"].append(run.negotiation_ms)
    # planning and negotiation are deterministic: every repeat fails alike
    doc = {
        "repeat": args.repeat,
        "failures": len(run.failed),
        "phases": {
            name: {
                "min": min(samples),
                "median": statistics.median(samples),
                "max": max(samples),
                "samples": samples,
            }
            for name, samples in phases.items()
        },
    }
    print(json.dumps(doc, indent=2))
    if run.failed:
        print(f"planning failed for agent(s) {', '.join(map(str, run.failed))}",
              file=sys.stderr)
    if run.error is not None:
        print(f"negotiation failed: {run.error}", file=sys.stderr)
    return EXIT_PLANNING if run.failed or run.error is not None else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="junctionplan",
        description="Energy-optimal trajectories for double-integrator agents "
                    "in circular obstacle fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-world", help="generate a random sphere world")
    p.add_argument("--obstacles", type=int, default=6)
    p.add_argument("--bounds", type=float, nargs=4, default=[-10, -10, 10, 10],
                   metavar=("XMIN", "YMIN", "XMAX", "YMAX"))
    p.add_argument("--agent", action="append", default=[],
                   help="id,radius,px,py,vx,vy,gpx,gpy,gvx,gvy,t0,tf "
                        "(repeatable; default two crossing agents)")
    p.add_argument("--radius-range", type=float, nargs=2, default=[0.5, 2.5])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.set_defaults(func=cmd_gen_world)

    p = sub.add_parser("plan", help="plan all agents, negotiating conflicts")
    p.add_argument("scenario", type=Path)
    _add_negotiation_flags(p)
    p.add_argument("--samples", type=int, default=2001,
                   help="rows per agent in trajectories.csv")
    p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("check", help="re-verify a trajectory CSV")
    p.add_argument("scenario", type=Path)
    p.add_argument("csv", type=Path)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="compare one agent against the "
                                      "transcription oracle")
    p.add_argument("scenario", type=Path)
    p.add_argument("--agent", type=int, default=None)
    p.add_argument("--oracle-steps", type=int, default=2000)
    p.add_argument("--out", type=Path, default=None,
                   help="output directory for oracle_<id>.csv (none written "
                        "without it)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="time the planner phases")
    p.add_argument("scenario", type=Path)
    p.add_argument("--repeat", type=int, default=5)
    _add_negotiation_flags(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        SchemaError, ScenarioLookupError, GenerationError, OSError, ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PlanningFailure as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return EXIT_PLANNING
    except PlannerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PLANNING


if __name__ == "__main__":
    sys.exit(main())
