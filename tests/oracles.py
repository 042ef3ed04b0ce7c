"""Test oracles that the package itself never runs."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np

from pannkit import nn
from pannkit import polyapprox as pa
from pannkit import sturdiness as sd
from pannkit import training
from pannkit import transform as tf


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


def decoded_pool(images: np.ndarray, mean=None, std=None) -> np.ndarray:
    """The float64 pool that datasets.load_dataset built eagerly before it
    kept 8-bit images as 8-bit: images / 255, then (x - mean) / std when the
    spec sets either."""
    x = images.astype(np.float64) / 255.0
    if mean is not None or std is not None:
        x = (x - (mean or 0.0)) / (std or 1.0)
    return x


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


def calibrate_bound_by_trace(net: nn.Network, x,
                             safety: float = 1.2) -> float:
    """safety * max |z| over the traces of nn.forward, run on 512-sample
    chunks: the form that transform.calibrate_bound streams."""
    worst = 0.0
    for i in range(0, x.shape[0], 512):
        _, trace = nn.forward(net, x[i:i + 512])
        for z in trace:
            worst = max(worst, float(np.max(np.abs(z))))
    return safety * worst


def sgd_step_reference(net: nn.Network, grads: list,
                       state: nn.SgdState) -> nn.Network:
    """The whole-array form of nn.sgd_step, which streams each parameter
    through one block-sized scratch buffer with the same bits."""
    eta = state.lr_at(state.epoch)
    layers = list(net.layers)
    for i, layer in enumerate(layers):
        pg = grads[i]
        if not pg:
            continue
        params = layer.params()
        new_params = {}
        for name, w in params.items():
            g = pg[name] + state.weight_decay * w
            key = (i, name)
            v = state.velocities.get(key)
            if v is None:
                v = state.velocities[key] = g
            else:  # the state owns its buffers: update them in place
                v *= state.momentum
                v += g
            new_params[name] = w - eta * v
        layers[i] = layer.with_params(new_params)
    return replace(net, layers=tuple(layers))


def posthoc_sweep_rows(spec, arch: str, data) -> list:
    """A weight-decay sweep's rows as (wd, seed, t', beta, metric, value),
    by the plateau pass run after training: each cell keeps every epoch's
    network, then detect_plateau reads all their train losses. Each t'
    calibrates its own picked network."""
    rows = []
    for wd, seed in spec.cells():
        nets = {}
        sd.train_cell(spec, arch, data, wd, seed, on_epoch=nets.__setitem__)
        plateau = sd.detect_plateau(
            [training.evaluate(nets[e], data.x_train, data.y_train)[0]
             for e in range(1, spec.epochs + 1)]) or spec.epochs
        rows.append((wd, seed, "", "", "plateau_epoch", float(plateau)))
        for t_prime in spec.t_primes:
            net = nets[min(plateau + t_prime, spec.epochs)]
            bb_loss, bb_acc = training.evaluate(net, data.x_test, data.y_test)
            bound = tf.calibrate_bound(net, data.x_train[:spec.calib_samples],
                                       safety=spec.bound_safety)
            rows.append((wd, seed, t_prime, "", "backbone_accuracy", bb_acc))
            for beta in spec.betas:
                loss, acc = training.evaluate(tf.transform(
                    net, tf.CompositeReLU(pa.build_appsgn(beta, bound))),
                    data.x_test, data.y_test)
                rows += [(wd, seed, t_prime, beta, "pann_accuracy", acc),
                         (wd, seed, t_prime, beta, "delta_test_loss",
                          loss - bb_loss)]
    return rows


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of the allocations fn() makes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
