"""The planner's direct LAPACK calls against numpy.linalg's public wrappers.

junctionplan._lapack calls the gufuncs that np.linalg.solve and
np.linalg.eigvals wrap. On inputs of the planner's shapes every result
must keep the wrapper's bits, and the wrapper's errors must still be
raised, so that a NumPy release that moves or changes those gufuncs
fails here.
"""

import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from junctionplan import _lapack
from junctionplan.solver import MAX_JUNCTIONS

SIZES = range(1, MAX_JUNCTIONS + 1)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def spline_matrix(rng, n):
    """A junction matrix M of n rows: tridiagonal, diagonally dominant,
    from segment lengths between 5e-4 s and 10 s."""
    inv = (1.0 / rng.uniform(5e-4, 10.0, n + 1)).tolist()
    m = np.diag([4.0 * (a + b) for a, b in zip(inv, inv[1:])])
    off = [2.0 * w for w in inv[1:-1]]
    return m + np.diag(off, 1) + np.diag(off, -1)


def companion_stack(rng, m):
    """(m, 6, 6) companion matrices of random sextics, as world builds them."""
    coef = rng.normal(size=(m, 7)) * 10.0 ** rng.uniform(-3.0, 3.0, (m, 1))
    companion = np.zeros((m, 6, 6))
    companion[:, np.arange(1, 6), np.arange(5)] = 1.0
    companion[:, 0] = -coef[:, 1:] / coef[:, :1]
    return companion


class TestSolve:
    @pytest.mark.parametrize("n", SIZES)
    def test_spline_and_jacobian_systems_keep_their_bits(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            for a in (spline_matrix(rng, n), rng.normal(size=(n, n))):
                for k in (2, 4 * n):
                    b = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-3.0, 3.0)
                    assert same_bits(_lapack.solve(a, b), np.linalg.solve(a, b))
                    # a strided right-hand side, as the Jacobian's is
                    wide = np.zeros((n, k + 4))
                    wide[:, 2:k + 2] = b
                    view = wide[:, 2:k + 2]
                    assert same_bits(_lapack.solve(a, view), np.linalg.solve(a, view))

    @pytest.mark.parametrize("n", SIZES)
    def test_damped_systems_keep_their_bits(self, n):
        rng = np.random.default_rng(100 + n)
        for damping in (1e-12, 1e-3, 1.0, 1e12):
            jac = rng.normal(size=(2 * n, 2 * n))
            gram = jac.T @ jac
            scale = np.diag(np.maximum(gram.diagonal(), 1e-30))
            rhs = -jac.T @ rng.normal(size=2 * n)
            a = gram + damping * scale
            assert same_bits(_lapack.solve(a, rhs), np.linalg.solve(a, rhs))

    @pytest.mark.parametrize("b", [np.ones(3), np.ones((3, 2))])
    def test_singular_matrix_raises_without_a_warning(self, b):
        a = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        with pytest.raises(LinAlgError):
            np.linalg.solve(a, b)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinAlgError, match="Singular matrix"):
                _lapack.solve(a, b)
            with pytest.raises(LinAlgError, match="Singular matrix"):
                _lapack.solve(np.zeros((3, 3)), b)


class TestEigvals:
    @pytest.mark.parametrize("m", [1, 2, 7, 40])
    def test_companion_stacks_keep_their_bits(self, m):
        rng = np.random.default_rng(200 + m)
        for _ in range(20):
            companion = companion_stack(rng, m)
            got = _lapack.eigvals(companion)
            want = np.linalg.eigvals(companion)
            assert got.dtype == np.complex128
            # the wrapper drops the imaginary parts when they are all zero
            assert same_bits(got.real, want.real)
            assert np.array_equal(got.imag, want.imag if want.dtype.kind == "c"
                                  else np.zeros_like(want))

    def test_real_roots_keep_their_bits(self):
        # (s - 1)(s - 2)...(s - 6): every eigenvalue is real
        coef = np.poly(np.arange(1.0, 7.0))
        companion = np.zeros((1, 6, 6))
        companion[:, np.arange(1, 6), np.arange(5)] = 1.0
        companion[0, 0] = -coef[1:] / coef[0]
        got, want = _lapack.eigvals(companion), np.linalg.eigvals(companion)
        assert want.dtype == np.float64 and not got.imag.any()
        assert same_bits(got.real, want)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_stack_raises(self, bad):
        companion = companion_stack(np.random.default_rng(5), 3)
        companion[1, 0, 2] = bad
        with pytest.raises(LinAlgError):
            np.linalg.eigvals(companion)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinAlgError, match="infs or NaNs"):
                _lapack.eigvals(companion)
