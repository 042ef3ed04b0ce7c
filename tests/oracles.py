"""Test oracles that the package itself never runs."""

import math

import numpy as np

from pannkit import nn
from pannkit import polyapprox as pa


def count_alternations(poly, target, interval, max_error: float, tol: float,
                       grid_size: int = 20001) -> int:
    """Number of sign-alternating error extrema with |err| within tol of
    max_error: the longest alternating run among them on a dense grid."""
    a, b = interval
    f = np.sign if target == pa.SGN_POSITIVE_BRANCH else target
    grid = pa._fit_grid((a, b), grid_size)
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


def discrepancy_grid(x, y, backbone: nn.Network, pann: nn.Network,
                     eps: float, steps: int = 50):
    """Exhaustively scan 2-feature perturbations on a (2*steps+1)² grid.

    Returns (axis, mask) where axis holds the per-coordinate offsets and
    mask[i, j] is True when delta = (axis[i], axis[j]) keeps the backbone
    correct while flipping the approximated net. Endpoints sit exactly at
    ±eps so every marked point satisfies the norm budget.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (2,):
        raise ValueError(f"grid oracle needs a 2-feature input, got {x.shape}")
    axis = np.linspace(-eps, eps, 2 * steps + 1)
    di, dj = np.meshgrid(axis, axis, indexing="ij")
    deltas = np.stack([di.ravel(), dj.ravel()], axis=1)
    batch = x[None, :] + deltas
    pb = nn.predict(backbone, batch)
    pp = nn.predict(pann, batch)
    mask = ((pb == int(y)) & (pp != int(y))).reshape(di.shape)
    return axis, mask
