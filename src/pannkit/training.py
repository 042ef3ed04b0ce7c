"""Training loops: vanilla SGD plus mixup interpolation and training-time
noise on the most-negative activation inputs.

The noise option targets the entries where polynomial activation error hurts
most. For each activation slot it picks the ceil(r * #negative) most negative
pre-activations z and adds lambda_n * s * z to the slot's output, s drawn
standard normal (or its sign when fixed_sign is set). The adjustment is a
differentiable function of z, so those units contribute lambda_n * s to the
local derivative and keep receiving gradient even though the plain activation
is flat there. At evaluation time nothing is perturbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .datasets import Dataset
from .seeding import derive_rng


@dataclass(frozen=True)
class MixupConfig:
    """Convex input/label interpolation.

    lam is drawn per batch from Beta(alpha, alpha) unless fixed_lambda pins
    it (fixed_lambda=1.0 makes the method an exact identity, used as a
    harness check). ``train`` with a config mixes; without one it does not.
    """

    alpha: float = 0.5
    fixed_lambda: float | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise nn.FieldError(f"alpha: expected a positive number, got "
                                f"{self.alpha!r}")
        if self.fixed_lambda is not None and not 0.0 <= self.fixed_lambda <= 1.0:
            raise nn.FieldError(f"fixed_lambda: expected a number in [0, 1], "
                                f"got {self.fixed_lambda!r}")


@dataclass(frozen=True)
class NgnvConfig:
    """Noise on the r-fraction most negative activation inputs.

    noise_scale is the lambda_n multiplier; fixed_sign replaces the gaussian
    draw by its sign (worst-case magnitude variant).
    """

    r: float = 0.0
    noise_scale: float = 0.05
    fixed_sign: bool = False

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise nn.FieldError(f"r: expected a number in [0, 1], got "
                                f"{self.r!r}")
        if not self.noise_scale >= 0:
            raise nn.FieldError(f"noise_scale: expected a nonnegative "
                                f"number, got {self.noise_scale!r}")

    @property
    def enabled(self) -> bool:
        return self.r > 0.0 and self.noise_scale > 0.0


class TrainingDiverged(RuntimeError):
    """Raised when a minibatch loss goes non-finite; carries the epoch."""

    def __init__(self, epoch: int, message: str):
        super().__init__(message)
        self.epoch = epoch


# ---------------------------------------------------------------------------
# mixup


def draw_mixup_lambda(cfg: MixupConfig, rng) -> float:
    if cfg.fixed_lambda is not None:
        return cfg.fixed_lambda
    return float(rng.beta(cfg.alpha, cfg.alpha))


def mixup_batch(x, x2, y, y2, lam: float):
    """(lam*x + (1-lam)*x2, lam*y + (1-lam)*y2); labels must be row weights.

    The endpoints short-circuit so lam=1 returns (x, y) bit-identically.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if y.ndim != 2 or y2.ndim != 2:
        raise ValueError("mixup labels must be one-hot / weight rows")
    if lam == 1.0:
        return x, y
    if lam == 0.0:
        return x2, y2
    return lam * x + (1.0 - lam) * x2, lam * y + (1.0 - lam) * y2


# ---------------------------------------------------------------------------
# most-negative-entry noise


def ngnv_output_adjustment(z: np.ndarray, cfg: NgnvConfig, rng):
    """The training hook's sparse adjustment of one slot: the flat indices
    of the selected entries, most negative first, and their factors
    lambda_n*s, or (None, None) when nothing is selected.

    The slot adds lambda_n*s*z on those entries, so d(output)/dz gains
    lambda_n*s there: the selected units leak a scaled copy of their
    negative input to the next layer and receive matching gradient.
    """
    flat = z.ravel()
    neg = np.flatnonzero(flat < 0)
    if neg.size == 0 or not cfg.enabled:
        return None, None
    k = math.ceil(cfg.r * neg.size)
    vals = flat[neg]
    # the k smallest, ties at the k-th value taken in index order, so a
    # stable sort of just these gives the prefix of a full stable argsort
    thr = np.partition(vals, k - 1)[k - 1]
    below = vals < thr
    below[np.flatnonzero(vals == thr)[:k - int(below.sum())]] = True
    keep = np.flatnonzero(below)
    neg, vals = neg[keep], vals[keep]
    order = np.argsort(vals)  # most negative first; one order if tie-free
    ranked = vals[order]
    if (ranked[1:] == ranked[:-1]).any():  # ties (-inf runs too): by index
        order = np.argsort(vals, kind="stable")
    chosen = neg[order]
    eps = rng.standard_normal(k)
    s = np.sign(eps) if cfg.fixed_sign else eps
    return chosen, cfg.noise_scale * s


# ---------------------------------------------------------------------------
# evaluation and the epoch loop


def evaluate(net: nn.Network, x: np.ndarray, y: np.ndarray, *,
             loss_kind: str = "cross_entropy", batch_size: int = 512):
    """(mean loss, accuracy) over the full set; deterministic, no noise.
    Batches run through ``nn.infer``, which keeps no layer caches."""
    n = len(x)
    if n == 0:
        raise ValueError("empty evaluation set")
    loss_sum = 0.0
    correct = 0
    for s in range(0, n, batch_size):
        xb, yb = x[s:s + batch_size], y[s:s + batch_size]
        logits = nn.infer(net, xb)
        loss, _ = nn.loss_and_logit_grad(logits, yb, loss_kind)
        loss_sum += loss * len(xb)
        correct += int((np.argmax(logits, axis=1) == yb).sum())
    return loss_sum / n, correct / n


def train(net: nn.Network, data: Dataset, sgd: nn.SgdState, *,
          epochs: int, batch_size: int = 64,
          mixup: MixupConfig | None = None, ngnv: NgnvConfig | None = None,
          seed: int = 0, loss_kind: str = "cross_entropy",
          on_epoch=None) -> nn.Network:
    """Minibatch SGD for ``epochs`` passes; deterministic given ``seed``.

    ``sgd`` is a hyperparameter template; velocities always start fresh.
    Shuffling, mixup draws and noise draws come from independent labeled
    streams, so disabling one option never shifts another. Nothing is
    measured during training: ``on_epoch(epoch, net)``, when given, sees
    the network as each epoch ends (networks are immutable).
    Each step's gradients are consumed by ``nn.sgd_step``: their buffers
    become the parameters of the network it returns, and no network passed
    in is written. ``net`` as passed in and each step's gradients are
    dropped once that step has run, so the next backward pass holds no
    parameters but those of the current network; a caller that keeps
    ``net`` keeps it alive.
    A non-finite minibatch loss aborts with the epoch index.
    """
    state = sgd.fresh()
    shuffle_rng = derive_rng(seed, "shuffle")
    mixup_rng = derive_rng(seed, "mixup")
    ngnv_rng = derive_rng(seed, "ngnv")

    hook = None
    if ngnv is not None and ngnv.enabled:
        def hook(slot, z):
            return ngnv_output_adjustment(z, ngnv, ngnv_rng)

    n = len(data.x_train)
    if n == 0:
        raise ValueError("empty training set")
    for epoch in range(1, epochs + 1):
        state.epoch = epoch
        perm = shuffle_rng.permutation(n)
        for s in range(0, n, batch_size):
            idx = perm[s:s + batch_size]
            xb = data.x_train[idx]
            yb = data.y_train[idx]
            if mixup is not None:
                lam = draw_mixup_lambda(mixup, mixup_rng)
                pair = mixup_rng.permutation(len(idx))
                yh = nn.one_hot(yb, data.n_classes)
                xb, yb = mixup_batch(xb, xb[pair], yh, yh[pair], lam)
            try:
                grads, loss = nn.backward(net, xb, yb, loss_kind,
                                          act_hook=hook)
            except nn.NonFiniteLossError as exc:
                raise TrainingDiverged(
                    epoch, f"training diverged at epoch {epoch}: {exc}"
                ) from exc
            net = nn.sgd_step(net, grads, state)
            del grads
        if on_epoch is not None:
            on_epoch(epoch, net)
    return net
