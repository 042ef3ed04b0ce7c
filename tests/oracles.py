"""Test oracles that the package itself never runs."""

import math

import numpy as np

from pannkit import polyapprox as pa


def count_alternations(poly, target, interval, max_error: float, tol: float,
                       grid_size: int = 20001) -> int:
    """Number of sign-alternating error extrema with |err| within tol of
    max_error: the longest alternating run among them on a dense grid."""
    a, b = interval
    f = np.sign if target == pa.SGN_POSITIVE_BRANCH else target
    grid = pa._fit_grid((a, b), a > 0, grid_size)
    err = poly(grid) - np.asarray(f(grid), dtype=float)
    idx = pa._alternating_extrema(grid, err)
    good = {i for i in idx
            if abs(abs(err[i]) - max_error) <= tol * max(max_error, 1e-300)}
    count, best, prev_sign = 0, 0, 0.0
    for i in idx:
        if i in good:
            s = math.copysign(1.0, err[i])
            count = count + 1 if s != prev_sign else 1
            prev_sign = s
            best = max(best, count)
        else:
            count, prev_sign = 0, 0.0
    return best
