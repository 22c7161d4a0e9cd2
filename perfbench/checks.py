"""Output checks that do not reuse the planner's own evaluation or sampling.

A converged plan is re-evaluated from its cubic coefficients with this
module's own Horner evaluation and checked against the contracts the
package documents: boundary states and junction continuity to 1e-9,
contact points on their inflated circles, the reported energy, and
obstacle safety on a grid 50 times denser than the planner's 2001
samples.
"""

from __future__ import annotations

import csv
import math

import numpy as np

CONTRACT_TOL = 1e-9
# Matches the package's SAFETY_TOL: g = r**2 - |p - c|**2 up to this is safe.
SAFETY_TOL = 1e-9
DENSE_SAMPLES = 100_001
ENERGY_RTOL = 1e-9


def _coefficients(traj) -> tuple[np.ndarray, np.ndarray]:
    """(segments, 4, 2) coefficients and the knot times."""
    coeffs = np.array([[s.c1, s.c2, s.c3, s.c4] for s in traj.segments])
    knots = np.array([traj.segments[0].t_start] + [s.t_end for s in traj.segments])
    return coeffs, knots


def _state(c: np.ndarray, t):
    """Position, velocity and control of one cubic at time(s) t."""
    t = np.asarray(t, dtype=float)[..., None]
    p = ((c[0] * t + c[1]) * t + c[2]) * t + c[3]
    v = (3.0 * c[0] * t + 2.0 * c[1]) * t + c[2]
    u = 6.0 * c[0] * t + 2.0 * c[1]
    return p, v, u


def _energy(coeffs: np.ndarray, knots: np.ndarray) -> float:
    """Simpson's rule, exact here because |u|**2 is quadratic in t."""
    total = 0.0
    for k, c in enumerate(coeffs):
        a, b = knots[k], knots[k + 1]
        _, _, u = _state(c, np.array([a, 0.5 * (a + b), b]))
        f = np.sum(u * u, axis=1)
        total += (b - a) / 6.0 * (f[0] + 4.0 * f[1] + f[2])
    return float(total)


def plan_energy(traj) -> float:
    return _energy(*_coefficients(traj))


def check_plan(agent, scenario, traj, report) -> list[str]:
    """Errors found in one converged plan; empty when it meets every contract."""
    errors = []
    coeffs, knots = _coefficients(traj)
    if knots[0] != agent.t0 or knots[-1] != agent.tf_nominal:
        errors.append(f"horizon [{knots[0]}, {knots[-1]}] is not the agent's")
    for label, k, t, state in (
        ("start", 0, knots[0], agent.start),
        ("goal", -1, knots[-1], agent.goal),
    ):
        p, v, _ = _state(coeffs[k], t)
        err = max(np.abs(p - state.p).max(), np.abs(v - state.v).max())
        if not err <= CONTRACT_TOL:
            errors.append(f"{label} state off by {err:.3e}")
    for k in range(1, len(coeffs)):
        before = _state(coeffs[k - 1], knots[k])
        after = _state(coeffs[k], knots[k])
        err = max(np.abs(x - y).max() for x, y in zip(before, after))
        if not err <= CONTRACT_TOL:
            errors.append(f"discontinuity {err:.3e} at t={knots[k]}")
    junctions = report.junction_sequence
    if [j.time for j in junctions] != list(knots[1:-1]):
        errors.append("junction times do not match the segment knots")
    else:
        for k, j in enumerate(junctions):
            obstacle = scenario.obstacle(j.obstacle_id)
            r = obstacle.radius + agent.radius
            contact = obstacle.center + r * np.array([math.cos(j.theta), math.sin(j.theta)])
            p, _, _ = _state(coeffs[k], j.time)
            err = np.abs(p - contact).max()
            if not err <= CONTRACT_TOL:
                errors.append(f"junction {k} misses its contact point by {err:.3e}")
    energy = _energy(coeffs, knots)
    if not abs(energy - report.energy) <= ENERGY_RTOL * max(abs(energy), 1.0):
        errors.append(f"reported energy {report.energy!r} but the plan has {energy!r}")
    times = np.linspace(knots[0], knots[-1], DENSE_SAMPLES)
    segment = np.clip(np.searchsorted(knots, times, side="right") - 1, 0, len(coeffs) - 1)
    positions = np.empty((times.size, 2))
    for k, c in enumerate(coeffs):
        mask = segment == k
        positions[mask] = _state(c, times[mask])[0]
    for obstacle in scenario.obstacles:
        r = obstacle.radius + agent.radius
        d = positions - obstacle.center
        g = r * r - np.einsum("ij,ij->i", d, d)
        worst = int(np.argmax(g))
        if not g[worst] <= SAFETY_TOL:
            errors.append(
                f"obstacle {obstacle.id} violated by g={g[worst]:.3e} "
                f"at t={times[worst]:.6f}"
            )
    return errors


def check_trajectory_csv(path, scenario, arrival_times: dict[int, float]) -> list[str]:
    """Boundary states of every agent in a CLI trajectories.csv file."""
    rows: dict[int, list[list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            rows.setdefault(int(row[0]), []).append([float(x) for x in row[1:6]])
    errors = []
    if sorted(rows) != sorted(a.id for a in scenario.agents):
        errors.append(f"{path}: agents {sorted(rows)} do not match the scenario")
        return errors
    for agent in scenario.agents:
        track = np.array(sorted(rows[agent.id]))
        first, last = track[0], track[-1]
        if first[0] != agent.t0 or last[0] != arrival_times[agent.id]:
            errors.append(f"{path}: agent {agent.id} spans [{first[0]}, {last[0]}]")
        err = max(
            np.abs(first[1:3] - agent.start.p).max(),
            np.abs(first[3:5] - agent.start.v).max(),
            np.abs(last[1:3] - agent.goal.p).max(),
            np.abs(last[3:5] - agent.goal.v).max(),
        )
        if not err <= CONTRACT_TOL:
            errors.append(f"{path}: agent {agent.id} boundary states off by {err:.3e}")
    return errors
