"""Bit parity of the sampling kernels with the gathered formulas.

The reference below gathers each sample's segment coefficients into
(n, 2) arrays and evaluates the local Horner form
((a3*s + a2)*s + v)*s + p there, with s the time since the segment
starts. The axis-major kernels must give the same bits on every sample,
and so must the tests' sampled pair reference built on them, and the
CSV row writer the same bytes as csv.writer with one repr per cell.
"""

import csv

import numpy as np
import pytest

from junctionplan import sample_trajectory
from junctionplan.cli import CSV_HEADER, _csv_rows, _write_trajectory_csv
from junctionplan.trajectory import sample_positions_held

from conftest import min_separation, piecewise


def gathered_sample(traj, times):
    times = np.asarray(times, dtype=float)
    starts = np.array([seg.t_start for seg in traj.segments])
    idx = np.clip(np.searchsorted(starts, times, side="right") - 1, 0,
                  len(starts) - 1)
    p0 = np.array([seg.p for seg in traj.segments])[idx]
    v0 = np.array([seg.v for seg in traj.segments])[idx]
    a2 = np.array([seg.a2 for seg in traj.segments])[idx]
    a3 = np.array([seg.a3 for seg in traj.segments])[idx]
    s = (times - starts[idx])[:, None]
    p = ((a3 * s + a2) * s + v0) * s + p0
    v = (3.0 * a3 * s + 2.0 * a2) * s + v0
    u = 6.0 * a3 * s + 2.0 * a2
    return p, v, u


def gathered_positions_held(traj, times):
    clamped = np.clip(np.asarray(times, dtype=float), traj.t_start, traj.t_end)
    return gathered_sample(traj, clamped)[0]


def gathered_min_separation(traj_a, traj_b):
    t_lo = min(traj_a.t_start, traj_b.t_start)
    t_hi = max(traj_a.t_end, traj_b.t_end)
    times = np.linspace(t_lo, t_hi, 2001)
    pa = gathered_positions_held(traj_a, times)
    pb = gathered_positions_held(traj_b, times)
    dist = np.linalg.norm(pa - pb, axis=1)
    k = int(np.argmin(dist))
    return float(times[k]), float(dist[k])


def reference_csv(path, header, rows):
    """rows: (agent_id, t, p, v, u, extra fields), written cell by cell."""

    def fmt(x):
        return repr(float(x))

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for agent_id, t, p, v, u, extra in rows:
            writer.writerow([agent_id, fmt(t), fmt(p[0]), fmt(p[1]), fmt(v[0]),
                             fmt(v[1]), fmt(u[0]), fmt(u[1]), *extra])


def random_trajectory(junctions, seed, t0=0.3, tf=9.7):
    """Contiguous segments with random local coefficients; the knots are
    unrounded floats, so samples land on both sides of them."""
    rng = np.random.default_rng(seed)
    knots = np.concatenate(([t0], np.sort(rng.uniform(t0, tf, junctions)), [tf]))
    return piecewise(*(
        (*rng.normal(scale=3.0, size=(4, 2)), a, b)
        for a, b in zip(knots[:-1], knots[1:])
    ))


def knot_times(traj):
    return np.array([seg.t_start for seg in traj.segments] + [traj.t_end])


def inside_cases(traj):
    rng = np.random.default_rng(7)
    grid = np.linspace(traj.t_start, traj.t_end, 2001)
    knots = knot_times(traj)
    return {
        "grid": grid,
        "knots": knots,
        "unsorted": rng.permutation(np.concatenate([grid[::37], knots, knots])),
        "single": np.array([0.5 * (traj.t_start + traj.t_end)]),
        "empty": np.array([]),
    }


def held_cases(traj):
    cases = inside_cases(traj)
    cases["held"] = np.linspace(traj.t_start - 2.0, traj.t_end + 2.0, 2001)
    cases["unsorted held"] = np.random.default_rng(3).permutation(
        np.concatenate([cases["held"][::19], knot_times(traj), [-50.0, 50.0]]))
    cases["single before"] = np.array([traj.t_start - 1.0])
    return cases


@pytest.fixture(params=[0, 1, 4], ids=lambda n: f"{n}-junctions")
def traj(request):
    return random_trajectory(request.param, seed=request.param)


def test_sample_trajectory_is_bit_identical(traj):
    for label, times in inside_cases(traj).items():
        got = sample_trajectory(traj, times)
        for name, a, b in zip("pvu", got, gathered_sample(traj, times)):
            assert a.shape == b.shape == (len(times), 2), (label, name)
            assert np.array_equal(a, b), (label, name)


def test_sample_positions_held_is_bit_identical(traj):
    for label, times in held_cases(traj).items():
        got = sample_positions_held(traj, times)
        assert got.shape == (len(times), 2), label
        assert np.array_equal(got, gathered_positions_held(traj, times)), label


def test_held_times_take_the_endpoint_states(traj):
    held = sample_positions_held(traj, [traj.t_start - 3.0, traj.t_end + 3.0])
    ends = sample_trajectory(traj, [traj.t_start, traj.t_end])[0]
    assert np.array_equal(held, ends)


@pytest.mark.parametrize("junctions_b", [0, 1, 4])
def test_min_separation_is_bit_identical(traj, junctions_b):
    # horizons overlap only in part, so each side holds an endpoint
    other = random_trajectory(junctions_b, seed=10 + junctions_b, t0=2.0,
                              tf=12.5)
    assert min_separation(traj, other) == gathered_min_separation(traj, other)
    assert min_separation(other, traj) == gathered_min_separation(other, traj)


def test_row_writer_matches_csv_writer(tmp_path, traj):
    times = np.linspace(traj.t_start, traj.t_end, 301)
    p, v, u = sample_trajectory(traj, times)
    # signed zeros, an exponent form and an integer-valued time
    p[0], v[1], u[2] = (-0.0, 0.0), (1e-300, -2.5e17), (-0.0, -0.0)
    times[3] = 4.0
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    _write_trajectory_csv(ours, _csv_rows(7, times, p, v, u)
                          + _csv_rows(8, times[:5], p[:5], v[:5], u[:5]))
    reference_csv(ref, CSV_HEADER,
                  [(7, t, p[k], v[k], u[k], ()) for k, t in enumerate(times)]
                  + [(8, t, p[k], v[k], u[k], ()) for k, t in enumerate(times[:5])])
    assert ours.read_bytes() == ref.read_bytes()
    assert b"-0.0" in ours.read_bytes()


def test_oracle_rows_match_csv_writer(tmp_path):
    rng = np.random.default_rng(1)
    positions, velocities = rng.normal(size=(2, 6, 2))
    controls = rng.normal(size=(5, 2))
    controls[4] = (-0.0, 0.0)
    header = CSV_HEADER + ["source"]
    ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
    t = 0.25 + np.arange(6) * 0.1
    _write_trajectory_csv(ours, _csv_rows(0, t, positions, velocities,
                                          controls[[0, 1, 2, 3, 4, 4]], "oracle"),
                          header)
    reference_csv(ref, header,
                  [(0, 0.25 + k * 0.1, positions[k], velocities[k],
                    controls[min(k, 4)], ("oracle",)) for k in range(6)])
    assert ours.read_bytes() == ref.read_bytes()
