import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junctionplan import (
    ConditioningError,
    DegenerateHorizonError,
    KinematicState,
    OutOfRangeError,
    PiecewiseTrajectory,
    eval_trajectory,
    sample_trajectory,
    solve_boundary,
    trajectory_energy,
)

from conftest import piecewise

# The accuracy contracts target SI-scale worlds (tens of meters and
# seconds); the strategies cover that envelope with margin.
finite = st.floats(-20.0, 20.0, allow_nan=False)
small = st.floats(-5.0, 5.0, allow_nan=False)


def rest(x, y):
    return KinematicState.at_rest(x, y)


def make_segment(c1, c2, c3, c4, t0=0.0, tf=1.0):
    """The one-segment trajectory of c1*t**3 + c2*t**2 + c3*t + c4 on
    [t0, tf], given by its local coefficients at t0."""
    c1, c2, c3, c4 = (np.asarray(c, dtype=float) for c in (c1, c2, c3, c4))
    return piecewise((
        ((c1 * t0 + c2) * t0 + c3) * t0 + c4,
        (3.0 * c1 * t0 + 2.0 * c2) * t0 + c3,
        3.0 * c1 * t0 + c2,
        c1,
        t0, tf,
    ))


def split_at(traj, t):
    """The one-segment traj split at time t, the second segment started
    from the state eval_trajectory gives there."""
    seg = traj.segments[0]
    p, v, u = eval_trajectory(traj, t)
    return piecewise((seg.p, seg.v, seg.a2, seg.a3, seg.t_start, t),
                     (p, v, 0.5 * u, seg.a3, t, seg.t_end))


def simpson_energy(traj, intervals=1000):
    """Independent quadrature of the squared control magnitude of a
    one-segment trajectory.

    The integrand is quadratic in t, so composite Simpson is exact up
    to rounding.
    """
    seg = traj.segments[0]
    if intervals % 2:
        intervals += 1
    s = np.linspace(0.0, seg.t_end - seg.t_start, intervals + 1)
    u = 6.0 * np.outer(s, seg.a3) + 2.0 * seg.a2
    f = np.sum(u * u, axis=1)
    h = (seg.t_end - seg.t_start) / intervals
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


class TestEvalSegment:
    def test_constant_rest_case(self):
        traj = make_segment((0, 0), (0, 0), (0, 0), (1, 2))
        p, v, u = eval_trajectory(traj, 0.7)
        assert np.array_equal(p, [1.0, 2.0])
        assert np.array_equal(v, [0.0, 0.0])
        assert np.array_equal(u, [0.0, 0.0])

    def test_rest_to_rest_midpoint(self):
        traj = make_segment((-2, 0), (3, 0), (0, 0), (0, 0))
        p, _, _ = eval_trajectory(traj, 0.5)
        assert p == pytest.approx([0.5, 0.0], abs=1e-15)

    def test_rest_to_rest_endpoint(self):
        # direct substitution: p(1) = c1 + c2, v(1) = 3c1 + 2c2, u(1) = 6c1 + 2c2
        traj = make_segment((-2, 0), (3, 0), (0, 0), (0, 0))
        p, v, u = eval_trajectory(traj, 1.0)
        assert p == pytest.approx([1.0, 0.0], abs=1e-15)
        assert v == pytest.approx([0.0, 0.0], abs=1e-15)
        assert u == pytest.approx([-6.0, 0.0], abs=1e-15)

    def test_out_of_range(self):
        traj = make_segment((0, 0), (0, 0), (0, 0), (0, 0))
        with pytest.raises(OutOfRangeError):
            eval_trajectory(traj, 1.5)
        with pytest.raises(OutOfRangeError):
            eval_trajectory(traj, -0.1)


class TestSegmentInvariants:
    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            make_segment((0, 0), (0, 0), (0, 0), (0, 0), t0=1.0, tf=0.0)

    def test_nonfinite_coefficient_rejected(self):
        with pytest.raises(ValueError):
            make_segment((np.nan, 0), (0, 0), (0, 0), (0, 0))

    def test_state_requires_finite_components(self):
        with pytest.raises(ValueError):
            KinematicState(p=(np.inf, 0.0), v=(0.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["p", "v", "a2", "a3"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_nonfinite_vector_field_rejected(self, field, axis, bad):
        fields = dict(p=[0.0, 0.0], v=[1.0, 0.0], a2=[0.0, 0.5], a3=[0.0, 0.0])
        fields[field][axis] = bad
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            PiecewiseTrajectory([list(fields.values())], (0.0, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["t_start", "t_end"])
    def test_nonfinite_time_rejected(self, field, bad):
        times = dict(t_start=0.0, t_end=1.0)
        times[field] = bad
        with pytest.raises(ValueError, match="^knots must be finite and strictly"):
            PiecewiseTrajectory([[(0, 0), (1, 0), (0, 0), (0, 0)]],
                                tuple(times.values()))

    # the constructor's checks that the neighbouring tests and
    # TestPiecewiseTrajectory leave out
    @pytest.mark.parametrize("local,knots", [
        pytest.param(np.zeros((4, 2)), (0.0, 1.0), id="no-segment-axis"),
        pytest.param(np.zeros((1, 3, 2)), (0.0, 1.0), id="three-coefficients"),
        pytest.param(np.zeros((1, 4, 3)), (0.0, 1.0), id="three-axes"),
        pytest.param(np.zeros((2, 4, 2)), (0.0, np.nan, 2.0), id="nan-inner-knot"),
        pytest.param(np.zeros((2, 4, 2)), (0.0, 1.0, 1.0), id="equal-knots"),
        pytest.param(np.zeros((2, 4, 2)), (0.0, 1.0), id="too-few-knots"),
    ])
    def test_constructor_rejects(self, local, knots):
        with pytest.raises(ValueError):
            PiecewiseTrajectory(local, knots)

    def test_coefficients_are_read_only(self):
        traj = make_segment((0, 0), (0, 0), (0, 0), (1, 2))
        with pytest.raises(ValueError):
            traj.local[0, 0, 0] = 5.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["p", "v"])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_nonfinite_state_component_rejected(self, field, axis, bad):
        fields = dict(p=[0.0, 0.0], v=[0.0, 0.0])
        fields[field][axis] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite, got "):
            KinematicState(**fields)


class TestSolveBoundary:
    def test_stationary(self):
        seg = solve_boundary(rest(3, 4), rest(3, 4), 0.0, 7.3).segments[0]
        assert seg.a3 == pytest.approx([0, 0], abs=1e-12)
        assert seg.a2 == pytest.approx([0, 0], abs=1e-12)
        assert seg.v == pytest.approx([0, 0], abs=1e-12)
        assert seg.p == pytest.approx([3, 4], abs=1e-12)

    def test_unit_displacement_coefficients(self):
        seg = solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0).segments[0]
        assert seg.a3 == pytest.approx([-2.0, 0.0], rel=1e-12, abs=1e-12)
        assert seg.a2 == pytest.approx([3.0, 0.0], rel=1e-12, abs=1e-12)
        assert seg.v == pytest.approx([0.0, 0.0], abs=1e-12)
        assert seg.p == pytest.approx([0.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("d,T", [((1.0, 0.0), 1.0), ((3.0, -4.0), 2.5),
                                     ((-2.0, 7.0), 10.0)])
    def test_rest_to_rest_midpoint_symmetry(self, d, T):
        start = rest(0.5, -1.5)
        goal = rest(0.5 + d[0], -1.5 + d[1])
        traj = solve_boundary(start, goal, 2.0, 2.0 + T)
        p, _, _ = eval_trajectory(traj, 2.0 + T / 2.0)
        assert p == pytest.approx(start.p + np.asarray(d) / 2.0, abs=1e-9)

    def test_degenerate_horizon(self):
        with pytest.raises(DegenerateHorizonError):
            solve_boundary(rest(0, 0), rest(1, 0), 1.0, 1.0)
        with pytest.raises(DegenerateHorizonError):
            solve_boundary(rest(0, 0), rest(1, 0), 1.0, 0.5)

    def test_near_singular_horizon(self):
        with pytest.raises(ConditioningError):
            solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1e-10)

    @given(px=finite, py=finite, vx=small, vy=small,
           sx=st.floats(-3.0, 3.0), sy=st.floats(-3.0, 3.0),
           wx=small, wy=small, t0=st.floats(-10, 10),
           horizon=st.floats(0.5, 20.0))
    @settings(max_examples=200, deadline=None)
    def test_boundary_conditions_met(self, px, py, vx, vy, sx, sy, wx, wy,
                                     t0, horizon):
        # goal drawn from a bounded average speed, the regime the planner
        # operates in; teleport-style transfers are out of envelope
        x0 = KinematicState(p=(px, py), v=(vx, vy))
        xf = KinematicState(p=(px + sx * horizon, py + sy * horizon), v=(wx, wy))
        traj = solve_boundary(x0, xf, t0, t0 + horizon)
        p0, v0, _ = eval_trajectory(traj, t0)
        pf, vf, _ = eval_trajectory(traj, t0 + horizon)
        assert np.abs(p0 - x0.p).max() < 1e-9
        assert np.abs(v0 - x0.v).max() < 1e-9
        assert np.abs(pf - xf.p).max() < 1e-9
        assert np.abs(vf - xf.v).max() < 1e-9

    @given(shift=st.floats(-20, 20), horizon=st.floats(1e-3, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_time_translation_invariance(self, shift, horizon):
        x0 = KinematicState(p=(1.0, -2.0), v=(0.5, 0.25))
        xf = KinematicState(p=(-3.0, 4.0), v=(0.0, -1.0))
        base = solve_boundary(x0, xf, 0.0, horizon)
        moved = solve_boundary(x0, xf, shift, shift + horizon)
        # speeds, and so their rounding, grow as 1/horizon on segments
        # shorter than 0.5 s; positions stay within a few meters
        v_scale = max(1.0, 0.5 / horizon)
        for frac in (0.0, 0.31, 0.5, 0.77, 1.0):
            t = frac * horizon
            p_base, v_base, _ = eval_trajectory(base, t)
            p_moved, v_moved, _ = eval_trajectory(moved, t + shift)
            assert np.abs(p_base - p_moved).max() < 1e-9
            assert np.abs(v_base - v_moved).max() < 1e-9 * v_scale
        assert trajectory_energy(moved) == pytest.approx(
            trajectory_energy(base), rel=1e-9)


class TestSegmentEnergy:
    def test_zero_control(self):
        traj = make_segment((0, 0), (0, 0), (1.5, 0), (0, 2))
        assert trajectory_energy(traj) == 0.0

    def test_unit_rest_to_rest(self):
        # analytic integral of (6 - 12 t)^2 over [0, 1] is 12
        traj = make_segment((-2, 0), (3, 0), (0, 0), (0, 0))
        assert trajectory_energy(traj) == pytest.approx(12.0, rel=1e-12)

    @pytest.mark.parametrize("d", [(1.0, 0.0), (0.6, -0.8), (-2.0, 3.0)])
    def test_displacement_scaling(self, d):
        traj = solve_boundary(rest(0, 0), KinematicState(p=d, v=(0, 0)), 0.0, 1.0)
        expected = 12.0 * (d[0] ** 2 + d[1] ** 2)
        assert trajectory_energy(traj) == pytest.approx(expected, rel=1e-9)

    def test_nonnegative_and_zero_iff_linear(self):
        traj = make_segment((0.1, 0), (0, 0), (0, 0), (0, 0))
        assert trajectory_energy(traj) > 0
        traj = make_segment((0, 0), (0, 0.2), (0, 0), (0, 0))
        assert trajectory_energy(traj) > 0

    @given(
        c1x=small, c1y=small, c2x=small, c2y=small,
        c3x=small, c3y=small, c4x=small, c4y=small,
        t0=st.floats(-5, 5), dt=st.floats(0.01, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_quadrature(self, c1x, c1y, c2x, c2y, c3x, c3y, c4x, c4y,
                                t0, dt):
        traj = make_segment((c1x, c1y), (c2x, c2y), (c3x, c3y), (c4x, c4y),
                            t0=t0, tf=t0 + dt)
        closed = trajectory_energy(traj)
        quad = simpson_energy(traj, 1000)
        assert closed >= 0.0
        assert closed == pytest.approx(quad, rel=1e-8, abs=1e-10)


class TestTrajectoryEnergy:
    def test_singleton(self):
        traj = solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0)
        seg = traj.segments[0]
        h = seg.t_end - seg.t_start
        assert trajectory_energy(traj) == float(
            4.0 * h * (seg.a2 @ seg.a2 + 3.0 * h * (seg.a2 @ seg.a3)
                       + 3.0 * h**2 * (seg.a3 @ seg.a3)))

    def test_split_additivity(self):
        whole = solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0)
        split = split_at(whole, 0.5)
        assert trajectory_energy(split) == pytest.approx(
            trajectory_energy(whole), rel=1e-12
        )


class TestPiecewiseTrajectory:
    def test_needs_segments(self):
        with pytest.raises(ValueError):
            PiecewiseTrajectory(np.empty((0, 4, 2)), (0.0,))

    def test_rejects_gap(self):
        # segments on [0, 1] and [1.5, 2] would need a knot more than
        # two segments have
        with pytest.raises(ValueError):
            PiecewiseTrajectory(np.zeros((2, 4, 2)), (0.0, 1.0, 1.5, 2.0))

    def test_eval_at_global_start_and_end(self):
        traj = solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0)
        p, v, _ = eval_trajectory(traj, 0.0)
        assert p == pytest.approx([0, 0], abs=1e-9)
        p, v, _ = eval_trajectory(traj, 1.0)
        assert p == pytest.approx([1, 0], abs=1e-9)
        assert v == pytest.approx([0, 0], abs=1e-9)

    def test_junction_instant_resolves_to_later_segment(self):
        traj = split_at(solve_boundary(rest(0, 0), rest(1, 0), 0.0, 1.0), 0.5)
        first, second = traj.segments
        pa, va, _ = eval_trajectory(piecewise(first), 0.5)
        pb, vb, _ = eval_trajectory(piecewise(second), 0.5)
        p, v, _ = eval_trajectory(traj, 0.5)
        assert np.abs(pa - pb).max() < 1e-9
        assert np.abs(va - vb).max() < 1e-9
        assert np.array_equal(p, pb)

    def test_later_segment_rule_observable_on_control_jump(self):
        # only time contiguity is validated, so a control-discontinuous
        # pair pins down which side an exact junction time resolves to
        first = make_segment((0, 0), (1, 0), (0, 0), (0, 0), t0=0.0, tf=0.5)
        second = make_segment((0, 0), (2, 0), (0, 0), (0, 0), t0=0.5, tf=1.0)
        traj = piecewise(*first.segments, *second.segments)
        _, _, u = eval_trajectory(traj, 0.5)
        assert u == pytest.approx([4.0, 0.0])

    def test_eval_outside_horizon(self):
        traj = make_segment((0, 0), (0, 0), (0, 0), (0, 0))
        for t in (2.0, np.nan):
            with pytest.raises(OutOfRangeError):
                eval_trajectory(traj, t)
            with pytest.raises(OutOfRangeError):
                sample_trajectory(traj, [0.5, t, 0.7])

    def test_sample_matches_pointwise_eval(self):
        traj = solve_boundary(rest(0, 0), rest(2, 1), 0.0, 3.0)
        times = np.linspace(0.0, 3.0, 17)
        p, v, u = sample_trajectory(traj, times)
        for k, t in enumerate(times):
            pe, ve, ue = eval_trajectory(traj, t)
            assert np.abs(p[k] - pe).max() < 1e-12
            assert np.abs(v[k] - ve).max() < 1e-12
            assert np.abs(u[k] - ue).max() < 1e-12
