"""numpy.linalg's LAPACK gufuncs, called without its Python wrappers.

The planner's systems are at most 2 * MAX_JUNCTIONS = 16 wide, and at
that size most of the cost of np.linalg.solve or np.linalg.eigvals is
the wrapper's dtype and shape handling, not LAPACK. These functions take
float64 arrays of the right shape and call the same gufuncs (dgesv,
dgeev) under the same floating-point error state, so every result keeps
its bits. The wrappers' checks that can fire on the planner's inputs
stay: a singular matrix and unconverged eigenvalues raise LinAlgError,
and so does a non-finite companion stack.
"""

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _unconverged(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for a float64 (n, n) a and a float64 b of
    shape (n,) or (n, k)."""
    gufunc = _umath_linalg.solve1 if b.ndim == 1 else _umath_linalg.solve
    with np.errstate(call=_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return gufunc(a, b, signature="dd->d")


def eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(a) for a float64 stack a of square matrices,
    always complex."""
    if not np.isfinite(a).all():
        raise LinAlgError("Array must not contain infs or NaNs")
    with np.errstate(call=_unconverged, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.eigvals(a, signature="d->D")
