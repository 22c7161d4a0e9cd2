"""Cubic motion primitives for planar double-integrator agents.

A minimum-energy trajectory between two fixed states of a double
integrator is a cubic polynomial in position. This module represents
those cubics, solves the two-point boundary value problem that fixes
their coefficients, and evaluates exact control energies.

Positions are in meters, times in seconds, and the energy is the
integral of the squared control magnitude over the segment.

A segment is held in local time s = t - t_start, where it is fixed by
its start state and two more coefficients; every evaluation, sampling
and energy works in that form.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class CubicSegment:
    """One unconstrained motion primitive, in local time.

    Position is p + v*s + a2*s**2 + a3*s**3 with s = t - t_start, so
    velocity and control follow by differentiation. p (m) and v (m/s)
    are the state at t_start, a2 is in m/s^2 and a3 in m/s^3; t_start
    and t_end are absolute times in s.

    c1..c4 are a derived read-only view of the same cubic in absolute
    time, c1*t**3 + c2*t**2 + c3*t + c4, for readers that evaluate it
    independently of this module.
    """

    p: np.ndarray
    v: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    t_start: float
    t_end: float

    def __post_init__(self):
        for name in ("p", "v", "a2", "a3"):
            object.__setattr__(self, name, _vec2(getattr(self, name), name))
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError("segment times must be finite")
        if not self.t_start < self.t_end:
            raise ValueError(
                f"t_start must precede t_end, got [{self.t_start}, {self.t_end}]"
            )

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
    """Ordered cubic segments joined end to end."""

    segments: tuple[CubicSegment, ...]

    def __post_init__(self):
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("trajectory needs at least one segment")
        for prev, nxt in zip(segments, segments[1:]):
            if prev.t_end != nxt.t_start:
                raise ValueError(
                    f"segments not contiguous: {prev.t_end} != {nxt.t_start}"
                )
        object.__setattr__(self, "segments", segments)

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end


def eval_segment(seg: CubicSegment, t: float):
    """Evaluate position, velocity, and control of a segment at time t."""
    if not seg.t_start <= t <= seg.t_end:
        raise OutOfRangeError(
            f"t={t} outside segment interval [{seg.t_start}, {seg.t_end}]"
        )
    s = t - seg.t_start
    p = ((seg.a3 * s + seg.a2) * s + seg.v) * s + seg.p
    v = (3.0 * seg.a3 * s + 2.0 * seg.a2) * s + seg.v
    u = 6.0 * seg.a3 * s + 2.0 * seg.a2
    return p, v, u


def solve_boundary(
    x0: KinematicState, xf: KinematicState, t0: float, tf: float
) -> CubicSegment:
    """Solve the two-point boundary value problem on [t0, tf].

    Returns the unique cubic whose position and velocity match x0 at t0
    and xf at tf, in closed form: in local time s = t - t0 it is the
    cubic Hermite interpolant of the two states.
    """
    if tf <= t0:
        raise DegenerateHorizonError(f"horizon [{t0}, {tf}] is empty")
    h = tf - t0
    if h < MIN_HORIZON:
        raise ConditioningError(f"horizon of {h} s is below {MIN_HORIZON} s")
    slope = (xf.p - x0.p) / h
    a2 = (3.0 * slope - 2.0 * x0.v - xf.v) / h
    a3 = (x0.v + xf.v - 2.0 * slope) / h**2
    return CubicSegment(x0.p, x0.v, a2, a3, t0, tf)


def segment_energy(seg: CubicSegment) -> float:
    """Exact integral of the squared control over the segment.

    The control 2 a2 + 6 a3 s is linear in local time, so over a segment
    of length h the integral is 4 h (a2.a2 + 3 h a2.a3 + 3 h**2 a3.a3).
    """
    h = seg.t_end - seg.t_start
    return float(
        4.0 * h * (seg.a2 @ seg.a2 + 3.0 * h * (seg.a2 @ seg.a3)
                   + 3.0 * h**2 * (seg.a3 @ seg.a3))
    )


def trajectory_energy(traj: PiecewiseTrajectory) -> float:
    """Total control energy, summed over segments."""
    return float(sum(segment_energy(seg) for seg in traj.segments))


def eval_trajectory(traj: PiecewiseTrajectory, t: float):
    """Evaluate the trajectory at time t, delegating to its segment."""
    if not traj.t_start <= t <= traj.t_end:
        raise OutOfRangeError(
            f"t={t} outside trajectory horizon [{traj.t_start}, {traj.t_end}]"
        )
    starts = [seg.t_start for seg in traj.segments]
    # bisect_right sends an exact junction time to the later segment
    return eval_segment(traj.segments[bisect_right(starts, t) - 1], t)


def _pieces(traj: PiecewiseTrajectory, times: np.ndarray) -> list:
    """(segment, index) pairs: index selects the samples that segment
    evaluates. An exact knot time goes to the later segment, as in
    eval_trajectory. Sorted times, such as a uniform grid, split into one
    slice per segment; times in any other order are picked by masks."""
    segments = traj.segments
    knots = [seg.t_start for seg in segments[1:]]
    if not knots or np.all(times[1:] >= times[:-1]):
        bounds = [0, *np.searchsorted(times, knots).tolist(), len(times)]
        return [(seg, slice(lo, hi))
                for seg, lo, hi in zip(segments, bounds, bounds[1:])]
    idx = np.searchsorted(knots, times, side="right")
    return [(seg, idx == j) for j, seg in enumerate(segments)]


def _sample(traj: PiecewiseTrajectory, times: np.ndarray, derivatives: bool):
    """Axis-major (2, len(times)) positions, plus velocities and controls
    when derivatives is set, each segment evaluated on its own samples.

    Every element is the local Horner form of eval_segment, in the same
    operation order, so a sample has the same bits as eval_segment gives
    and however the times are grouped.
    """
    shape = (2, times.shape[0])
    p = np.empty(shape)
    v, u = (np.empty(shape), np.empty(shape)) if derivatives else (None, None)
    for seg, sel in _pieces(traj, times):
        s = times[sel] - seg.t_start
        p0, v0, a2, a3 = (c[:, None] for c in (seg.p, seg.v, seg.a2, seg.a3))
        p[:, sel] = ((a3 * s + a2) * s + v0) * s + p0
        if derivatives:
            v[:, sel] = (3.0 * a3 * s + 2.0 * a2) * s + v0
            u[:, sel] = 6.0 * a3 * s + 2.0 * a2
    return p, v, u


def sample_trajectory(traj: PiecewiseTrajectory, times: np.ndarray):
    """Vectorized evaluation at an array of times inside the horizon.

    Returns (positions, velocities, controls), each of shape (len(times), 2)
    and each the transposed view of an axis-major array, so a column is
    contiguous.
    """
    times = np.asarray(times, dtype=float)
    if times.size and (times.min() < traj.t_start or times.max() > traj.t_end):
        raise OutOfRangeError("sample times outside trajectory horizon")
    p, v, u = _sample(traj, times, derivatives=True)
    return p.T, v.T, u.T


def sample_positions_held(traj: PiecewiseTrajectory, times: np.ndarray) -> np.ndarray:
    """Positions at arbitrary times, shape (len(times), 2) as in
    sample_trajectory, holding the endpoint states outside the horizon.
    Used for the negotiation screen's profiles."""
    clamped = np.clip(np.asarray(times, dtype=float), traj.t_start, traj.t_end)
    return _sample(traj, clamped, derivatives=False)[0].T
