"""Cubic motion primitives for planar double-integrator agents.

A minimum-energy trajectory between two fixed states of a double
integrator is a cubic polynomial in position. This module represents
those cubics, solves the two-point boundary value problem that fixes
their coefficients, and evaluates exact control energies.

Positions are in meters, times in seconds, and the energy is the
integral of the squared control magnitude over the trajectory.

A plan of J segments is one read-only (J, 4, 2) array of local
coefficients (p, v, a2, a3) and its J + 1 knots: segment j runs in local
time s = t - knots[j], where it is fixed by its start state and two more
coefficients. Every evaluation, sampling and energy reads that array.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConditioningError, DegenerateHorizonError, OutOfRangeError

# Horizons shorter than this make the boundary cubic numerically meaningless.
MIN_HORIZON = 1e-9


def _vec2(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float).reshape(2)
    x, y = arr.tolist()
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{name} must be finite, got {arr}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class KinematicState:
    """Stacked position and velocity of one agent at one instant."""

    p: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _vec2(self.p, "p"))
        object.__setattr__(self, "v", _vec2(self.v, "v"))

    @staticmethod
    def at_rest(px: float, py: float) -> "KinematicState":
        return KinematicState(p=(px, py), v=(0.0, 0.0))


class CubicSegment(NamedTuple):
    """Read-only view of one segment of a PiecewiseTrajectory.

    Position is p + v*s + a2*s**2 + a3*s**3 with s = t - t_start; p, v,
    a2 and a3 are rows of the trajectory's coefficient array.

    c1..c4 are the same cubic in absolute time, c1*t**3 + c2*t**2 + c3*t
    + c4, for readers that evaluate it independently of this module.
    """

    p: np.ndarray
    v: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    t_start: float
    t_end: float

    @property
    def c1(self) -> np.ndarray:
        return self.a3

    @property
    def c2(self) -> np.ndarray:
        return self.a2 - 3.0 * self.a3 * self.t_start

    @property
    def c3(self) -> np.ndarray:
        t = self.t_start
        return self.v - (2.0 * self.a2 - 3.0 * self.a3 * t) * t

    @property
    def c4(self) -> np.ndarray:
        t = self.t_start
        return self.p - (self.v - (self.a2 - self.a3 * t) * t) * t


@dataclass(frozen=True, eq=False)
class PiecewiseTrajectory:
    """J cubic segments joined end to end.

    local is a read-only (J, 4, 2) array whose row j holds segment j's
    local coefficients (p, v, a2, a3): on [knots[j], knots[j + 1]] the
    position is p + v*s + a2*s**2 + a3*s**3 with s = t - knots[j].
    knots holds the J + 1 strictly increasing times as Python floats.
    """

    local: np.ndarray
    knots: tuple[float, ...]

    def __post_init__(self):
        # C order keeps each (2,) row contiguous for the energy's dots
        local = np.array(self.local, dtype=float, order="C")
        knots = tuple(map(float, self.knots))
        if local.ndim != 3 or local.shape[1:] != (4, 2) or not len(local):
            raise ValueError(
                f"coefficients must have shape (J >= 1, 4, 2), got {local.shape}"
            )
        if not np.isfinite(local).all():
            raise ValueError("coefficients must be finite")
        if len(knots) != len(local) + 1:
            raise ValueError(
                f"{len(local)} segments need {len(local) + 1} knots, got {len(knots)}"
            )
        if not (all(map(math.isfinite, knots))
                and all(a < b for a, b in zip(knots, knots[1:]))):
            raise ValueError(
                f"knots must be finite and strictly increasing, got {knots}"
            )
        local.setflags(write=False)
        object.__setattr__(self, "local", local)
        object.__setattr__(self, "knots", knots)

    @property
    def t_start(self) -> float:
        return self.knots[0]

    @property
    def t_end(self) -> float:
        return self.knots[-1]

    @property
    def segments(self) -> tuple[CubicSegment, ...]:
        """Each segment as a view of its row of local."""
        knots = self.knots
        return tuple(CubicSegment(*row, t0, t1)
                     for row, t0, t1 in zip(self.local, knots, knots[1:]))


def solve_boundary(
    x0: KinematicState, xf: KinematicState, t0: float, tf: float
) -> PiecewiseTrajectory:
    """Solve the two-point boundary value problem on [t0, tf].

    Returns the unique cubic whose position and velocity match x0 at t0
    and xf at tf, as a one-segment trajectory, in closed form: in local
    time s = t - t0 it is the cubic Hermite interpolant of the two states.
    """
    if tf <= t0:
        raise DegenerateHorizonError(f"horizon [{t0}, {tf}] is empty")
    h = tf - t0
    if h < MIN_HORIZON:
        raise ConditioningError(f"horizon of {h} s is below {MIN_HORIZON} s")
    slope = (xf.p - x0.p) / h
    a2 = (3.0 * slope - 2.0 * x0.v - xf.v) / h
    a3 = (x0.v + xf.v - 2.0 * slope) / h**2
    return PiecewiseTrajectory([(x0.p, x0.v, a2, a3)], (t0, tf))


def trajectory_energy(traj: PiecewiseTrajectory) -> float:
    """Exact integral of the squared control, summed over segments.

    The control 2 a2 + 6 a3 s is linear in local time, so over a segment
    of length h the integral is 4 h (a2.a2 + 3 h a2.a3 + 3 h**2 a3.a3).
    """
    knots = traj.knots
    lengths = [b - a for a, b in zip(knots, knots[1:])]
    return float(sum(
        float(4.0 * h * (a2 @ a2 + 3.0 * h * (a2 @ a3) + 3.0 * h**2 * (a3 @ a3)))
        for (_, _, a2, a3), h in zip(traj.local, lengths)
    ))


def eval_trajectory(traj: PiecewiseTrajectory, t: float):
    """Position, velocity and control at time t, in the local Horner
    form of the segment holding t."""
    knots = traj.knots
    if not knots[0] <= t <= knots[-1]:
        raise OutOfRangeError(
            f"t={t} outside trajectory horizon [{knots[0]}, {knots[-1]}]"
        )
    # bisect_right sends an exact junction time to the later segment
    j = bisect_right(knots, t, 0, len(knots) - 1) - 1
    p0, v0, a2, a3 = traj.local[j]
    s = t - knots[j]
    p = ((a3 * s + a2) * s + v0) * s + p0
    v = (3.0 * a3 * s + 2.0 * a2) * s + v0
    u = 6.0 * a3 * s + 2.0 * a2
    return p, v, u


def _pieces(traj: PiecewiseTrajectory, times: np.ndarray) -> list:
    """One index per segment, selecting the samples that segment
    evaluates. An exact knot time goes to the later segment, as in
    eval_trajectory. Sorted times, such as a uniform grid, split into one
    slice per segment; times in any other order are picked by masks."""
    inner = traj.knots[1:-1]
    if not inner or np.all(times[1:] >= times[:-1]):
        bounds = [0, *np.searchsorted(times, inner).tolist(), len(times)]
        return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    idx = np.searchsorted(inner, times, side="right")
    return [idx == j for j in range(len(traj.local))]


def _sample(traj: PiecewiseTrajectory, times: np.ndarray, derivatives: bool):
    """Axis-major (2, len(times)) positions, plus velocities and controls
    when derivatives is set, each segment evaluated on its own samples.

    Every element is the local Horner form of eval_trajectory, in the
    same operation order, so a sample has the same bits as
    eval_trajectory gives and however the times are grouped.
    """
    shape = (2, times.shape[0])
    p = np.empty(shape)
    v, u = (np.empty(shape), np.empty(shape)) if derivatives else (None, None)
    for (p0, v0, a2, a3), t0, sel in zip(traj.local[..., None], traj.knots,
                                         _pieces(traj, times)):
        s = times[sel] - t0
        p[:, sel] = ((a3 * s + a2) * s + v0) * s + p0
        if derivatives:
            v[:, sel] = (3.0 * a3 * s + 2.0 * a2) * s + v0
            u[:, sel] = 6.0 * a3 * s + 2.0 * a2
    return p, v, u


def sample_trajectory(traj: PiecewiseTrajectory, times: np.ndarray):
    """Vectorized evaluation at an array of times inside the horizon.

    Returns (positions, velocities, controls), each of shape (len(times), 2)
    and each the transposed view of an axis-major array, so a column is
    contiguous. A NaN time is outside the horizon.
    """
    times = np.asarray(times, dtype=float)
    if times.size and not (times.min() >= traj.t_start
                           and times.max() <= traj.t_end):
        raise OutOfRangeError("sample times outside trajectory horizon")
    p, v, u = _sample(traj, times, derivatives=True)
    return p.T, v.T, u.T


def sample_positions_held(traj: PiecewiseTrajectory, times: np.ndarray) -> np.ndarray:
    """Positions at arbitrary times, shape (len(times), 2) as in
    sample_trajectory, holding the endpoint states outside the horizon.
    Used for the negotiation screen's profiles."""
    clamped = np.clip(np.asarray(times, dtype=float), traj.t_start, traj.t_end)
    return _sample(traj, clamped, derivatives=False)[0].T
