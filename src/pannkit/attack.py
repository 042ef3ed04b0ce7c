"""Search for perturbations that flip the approximated net but not the backbone.

The search alternates a gradient-ascent step on the approximated model's loss
with a local random search, then masks the perturbation to coordinates where
the two models' input gradients disagree strongly while the backbone's own
gradient stays near its clean-input value. Whenever the backbone starts
misclassifying, the perturbation reverts to the most recent safe checkpoint
and the step length halves.
"""

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .seeding import derive_rng

__all__ = ["AttackConfig", "AttackOutcome", "attack_pann", "verify_outcome"]


@dataclass(frozen=True)
class AttackConfig:
    """Knobs for the two-model evasion search.

    eps is the ∞-norm budget; eps_atk keeps only coordinates whose gradient
    difference between the two models is at least that large; eps_lim drops
    coordinates where the backbone gradient moved more than that from its
    clean-input value. The attack scores the cross-entropy loss.
    """

    alpha: float = 0.05
    eps: float = 0.3
    eps_atk: float = 1e-6
    eps_lim: float = 1.0
    search_radius: float = 0.02
    search_draws: int = 16
    max_iters: int = 200
    backtrack_depth: int = 8

    def __post_init__(self):
        for name in ("alpha", "eps", "eps_atk", "eps_lim", "search_radius"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.search_draws < 1:
            raise ValueError("search_draws must be >= 1")
        if self.max_iters < 0 or not np.isfinite(self.max_iters):
            raise ValueError("max_iters must be a finite count >= 0")
        if self.backtrack_depth < 1:
            raise ValueError("backtrack_depth must be >= 1")


@dataclass(frozen=True)
class AttackOutcome:
    """Result of one attack run.

    trace holds one (backbone prediction, approximated prediction) pair per
    executed iteration, evaluated at the perturbation accepted at the end of
    that iteration; accepted states never make the backbone misclassify.
    """

    success: bool
    delta: np.ndarray
    iterations: int
    trace: tuple = ()
    failure_reason: str | None = field(default=None)


def _predict_one(net: nn.Network, x1: np.ndarray) -> int:
    return int(nn.predict(net, x1[None])[0])


def _input_grad_one(net, x1, y) -> np.ndarray:
    g, _ = nn.input_gradient(net, x1[None], np.array([y]))
    return g[0]


def _random_search(x, delta, y, backbone, pann, cfg, rng):
    """Best of k uniform ∞-ball draws around delta, by approximated-model
    loss, restricted to candidates the backbone still gets right. The
    current iterate competes on the same terms; if no candidate qualifies
    the iterate is returned unchanged. Ties go to the earliest candidate. A
    NaN loss never wins, and a NaN at the iterate keeps it.

    The candidates run as one batch through each model and are scored in
    one pass. A batched Dense layer may round its logits differently from a
    single-sample one in the last ulps, which can only matter for a loss
    tie at that level."""
    steps = rng.uniform(-cfg.search_radius, cfg.search_radius,
                        size=(cfg.search_draws,) + delta.shape)
    cands = np.concatenate(
        (delta[None], np.clip(delta + steps, -cfg.eps, cfg.eps)))
    cands = cands[nn.predict(backbone, x + cands) == y]
    if not len(cands):
        return delta
    losses, _ = nn.row_losses(nn.infer(pann, x + cands),
                              np.full(len(cands), y), "cross_entropy")
    best = 0 if np.isnan(losses[0]) else int(np.nanargmax(losses))
    return cands[best]


def attack_pann(x, y, backbone: nn.Network, pann: nn.Network,
                cfg: AttackConfig, seed: int = 0) -> AttackOutcome:
    """Find delta with ‖delta‖∞ ≤ cfg.eps flipping only the approximated net.

    Requires the backbone to classify the clean sample correctly. Returns a
    failure outcome (with trace) when the iteration cap runs out. Fixed seed
    gives an identical outcome and trace.
    """
    x = np.asarray(x, dtype=np.float64)
    y = int(y)
    if _predict_one(backbone, x) != y:
        raise ValueError(
            f"sample not clean: backbone predicts "
            f"{_predict_one(backbone, x)}, label is {y}")

    rng = derive_rng(seed, "attack")
    clip = lambda d: np.clip(d, -cfg.eps, cfg.eps)
    delta = np.zeros_like(x)

    if _predict_one(pann, x) != y:
        return AttackOutcome(True, delta, 0)

    # the eps_lim mask compares against the backbone gradient at the clean
    # input, which never changes during the search
    g_bb_clean = _input_grad_one(backbone, x, y)

    checkpoints = [delta.copy()]  # delta = 0 is safe by precondition
    alpha = cfg.alpha
    trace = []
    iters = 0
    # the approximated model's prediction at the current delta; each
    # iteration ends by computing it for the next
    pp = _predict_one(pann, x + delta)
    while iters < cfg.max_iters:
        iters += 1
        if pp == y:
            g_pann = _input_grad_one(pann, x + delta, y)
            delta = clip(delta + alpha * g_pann)
            delta = clip(_random_search(x, delta, y, backbone, pann,
                                        cfg, rng))
            g_pann = _input_grad_one(pann, x + delta, y)
            g_bb = _input_grad_one(backbone, x + delta, y)
            delta = clip(delta * (np.abs(g_pann - g_bb) >= cfg.eps_atk))
            delta = clip(delta * (np.abs(g_bb - g_bb_clean) <= cfg.eps_lim))
        pb = _predict_one(backbone, x + delta)
        if pb != y:
            # revert to the most recent safe state and probe more gently
            delta = checkpoints.pop() if checkpoints else np.zeros_like(x)
            alpha /= 2.0
            pb = _predict_one(backbone, x + delta)
        else:
            checkpoints.append(delta.copy())
            if len(checkpoints) > cfg.backtrack_depth:
                checkpoints.pop(0)
            alpha = cfg.alpha
        pp = _predict_one(pann, x + delta)
        trace.append((pb, pp))
        if pb == y and pp != y:
            return AttackOutcome(True, delta, iters, tuple(trace))
    return AttackOutcome(False, delta, iters, tuple(trace),
                         failure_reason="iteration cap reached")


def verify_outcome(x, y, delta, backbone: nn.Network, pann: nn.Network,
                   eps: float) -> bool:
    """Recompute the three success conditions from scratch.

    True iff ‖delta‖∞ ≤ eps, the backbone classifies x+delta as y, and the
    approximated net does not. Independent of any search state.
    """
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != x.shape:
        raise ValueError(f"delta shape {delta.shape} != input {x.shape}")
    if np.max(np.abs(delta)) > eps:
        return False
    xa = x + delta
    return (_predict_one(backbone, xa) == int(y)
            and _predict_one(pann, xa) != int(y))
