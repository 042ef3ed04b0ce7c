"""Two-model evasion search on a fixed 2-input toy instance.

The backbone weights below put a kinked decision boundary through the third
quadrant; the unit-error injection at beta=4 shifts it enough that a thin
disagreement sliver exists near (-1, -2.9), confirmed exhaustively by the
grid oracle. All expectations here are frozen against that instance.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from pannkit import attack, nn
from pannkit import polyapprox as pa
from pannkit import transform as tf
from pannkit.seeding import derive_rng

from oracles import discrepancy_grid


@pytest.fixture(scope="module")
def backbone():
    return nn.Network((
        nn.Dense(W=np.array([[1.0, 0.7],
                             [-0.5, 1.1],
                             [0.8, -0.6],
                             [-1.2, 0.4]]),
                 b=np.array([0.1, -0.2, 0.05, 0.3])),
        nn.Activation(nn.ExactReLU()),
        nn.Dense(W=np.array([[1.2, -0.7, 0.5, -0.8],
                             [-0.9, 1.0, -0.4, 1.1]]),
                 b=np.array([0.0, 0.1])),
    ), input_shape=(2,), n_classes=2)


@pytest.fixture(scope="module")
def pann(backbone):
    return tf.transform(backbone, tf.InjectedReLU(beta=4, seed=0))


ANCHOR = np.array([-0.95, -2.8])  # both models answer 0 here
LABEL = 0
EPS = 0.3


def _cfg(**kw):
    base = dict(alpha=0.05, eps=EPS, eps_atk=1e-9, eps_lim=10.0,
                search_radius=0.15, search_draws=24, max_iters=120)
    base.update(kw)
    return attack.AttackConfig(**base)


class TestConfig:
    def test_rejects_nonpositive_knobs(self):
        for name in ("alpha", "eps", "eps_atk", "eps_lim", "search_radius"):
            with pytest.raises(ValueError, match=name):
                _cfg(**{name: 0.0})

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="search_draws"):
            _cfg(search_draws=0)
        with pytest.raises(ValueError, match="max_iters"):
            _cfg(max_iters=-1)
        with pytest.raises(ValueError, match="backtrack_depth"):
            _cfg(backtrack_depth=0)

    def test_zero_iteration_cap_allowed(self):
        assert _cfg(max_iters=0).max_iters == 0


class TestGridOracle:
    def test_sliver_exists(self, backbone, pann):
        axis, mask = discrepancy_grid(ANCHOR, LABEL, backbone, pann, EPS)
        assert axis[0] == -EPS and axis[-1] == EPS and len(axis) == 101
        assert mask.any()
        # every marked point re-verifies independently
        ii, jj = np.where(mask)
        for i, j in zip(ii[:5], jj[:5]):
            d = np.array([axis[i], axis[j]])
            assert attack.verify_outcome(ANCHOR, LABEL, d, backbone,
                                         pann, EPS)

    def test_rejects_non_planar_input(self, backbone, pann):
        with pytest.raises(ValueError, match="2-feature"):
            discrepancy_grid(np.zeros(3), 0, backbone, pann, EPS)


class TestAttack:
    def test_succeeds_and_verifies(self, backbone, pann):
        out = attack.attack_pann(ANCHOR, LABEL, backbone, pann, _cfg(),
                                 seed=0)
        assert out.success and out.failure_reason is None
        assert np.max(np.abs(out.delta)) <= EPS
        assert attack.verify_outcome(ANCHOR, LABEL, out.delta, backbone,
                                     pann, EPS)

    def test_high_success_rate_over_seeds(self, backbone, pann):
        wins = 0
        for s in range(30):
            out = attack.attack_pann(ANCHOR, LABEL, backbone, pann,
                                     _cfg(), seed=s)
            if out.success:
                assert attack.verify_outcome(ANCHOR, LABEL, out.delta,
                                             backbone, pann, EPS)
                wins += 1
        assert wins >= 1  # in practice all 30 land

    def test_already_adversarial_returns_zero_delta(self, backbone, pann):
        x = np.array([-1.05, -2.92])  # inside the sliver
        out = attack.attack_pann(x, 0, backbone, pann, _cfg(), seed=0)
        assert out.success and out.iterations == 0
        assert np.array_equal(out.delta, np.zeros(2))
        assert out.trace == ()

    def test_unclean_sample_rejected(self, backbone, pann):
        with pytest.raises(ValueError, match="not clean"):
            attack.attack_pann(ANCHOR, 1, backbone, pann, _cfg())

    def test_zero_cap_fails_without_iterating(self, backbone, pann):
        out = attack.attack_pann(ANCHOR, LABEL, backbone, pann,
                                 _cfg(max_iters=0), seed=0)
        assert not out.success and out.iterations == 0
        assert out.failure_reason == "iteration cap reached"
        assert out.trace == ()

    def test_deterministic_per_seed(self, backbone, pann):
        a = attack.attack_pann(ANCHOR, LABEL, backbone, pann, _cfg(), seed=3)
        b = attack.attack_pann(ANCHOR, LABEL, backbone, pann, _cfg(), seed=3)
        assert np.array_equal(a.delta, b.delta)
        assert a.trace == b.trace and a.iterations == b.iterations

    def test_trace_never_breaks_backbone(self, backbone, pann):
        # oversized steps force constant backtracking; accepted states must
        # still all keep the backbone correct
        cfg = _cfg(alpha=5.0, search_radius=0.02, search_draws=4,
                   max_iters=40)
        out = attack.attack_pann(ANCHOR, LABEL, backbone, pann, cfg, seed=7)
        assert out.trace and all(pb == LABEL for pb, _ in out.trace)

    def test_unreachable_threshold_pins_delta_at_zero(self, backbone, pann):
        # a gradient-difference floor nothing satisfies masks out every
        # coordinate, so the search can never leave the origin
        cfg = _cfg(eps_atk=1e9, max_iters=10)
        out = attack.attack_pann(ANCHOR, LABEL, backbone, pann, cfg, seed=0)
        assert not out.success
        assert np.all(out.delta == 0.0)


def _search_loop(x, delta, y, backbone, pann, cfg, rng, score=None):
    """The per-candidate random search the batched one replaced; score maps
    a candidate's loss to the value compared."""
    cands = [delta]
    for _ in range(cfg.search_draws):
        step = rng.uniform(-cfg.search_radius, cfg.search_radius,
                           size=delta.shape)
        cands.append(np.clip(delta + step, -cfg.eps, cfg.eps))
    best, best_loss = delta, None
    for cand in cands:
        if attack._predict_one(backbone, x + cand) != y:
            continue
        logits, _ = nn.forward(pann, (x + cand)[None])
        loss, _ = nn.loss_and_logit_grad(logits, np.array([y]),
                                         "cross_entropy")
        if score is not None:
            loss = float(score(np.array([loss]))[0])
        if best_loss is None or loss > best_loss:
            best, best_loss = cand, loss
    return best


def _coarse(losses):
    """Losses rounded to 0.05, so that candidates tie, and NaN wherever a
    loss's fourth decimal is odd."""
    odd = np.floor(losses * 1e4) % 2 == 1
    return np.where(odd, np.nan, np.round(losses * 20) / 20)


def _attack_loop(x, y, backbone, pann, cfg, seed=0):
    """attack_pann as it was before predictions were reused and the random
    search was batched."""
    predict = attack._predict_one

    def grad(net, x1, y, kind):
        return nn.input_gradient(net, x1[None], np.array([y]), kind)[0][0]

    x = np.asarray(x, dtype=np.float64)
    rng = derive_rng(seed, "attack")
    clip = lambda d: np.clip(d, -cfg.eps, cfg.eps)
    delta = np.zeros_like(x)
    if predict(pann, x) != y:
        return attack.AttackOutcome(True, delta, 0)
    g_bb_clean = grad(backbone, x, y, "cross_entropy")
    checkpoints = [delta.copy()]
    alpha = cfg.alpha
    trace = []
    iters = 0
    while iters < cfg.max_iters:
        iters += 1
        if predict(pann, x + delta) == y:
            g_pann = grad(pann, x + delta, y, "cross_entropy")
            delta = clip(delta + alpha * g_pann)
            delta = clip(_search_loop(x, delta, y, backbone, pann, cfg,
                                      rng))
            g_pann = grad(pann, x + delta, y, "cross_entropy")
            g_bb = grad(backbone, x + delta, y, "cross_entropy")
            delta = clip(delta * (np.abs(g_pann - g_bb) >= cfg.eps_atk))
            delta = clip(delta * (np.abs(g_bb - g_bb_clean) <= cfg.eps_lim))
        if predict(backbone, x + delta) != y:
            delta = checkpoints.pop() if checkpoints else np.zeros_like(x)
            alpha /= 2.0
        else:
            checkpoints.append(delta.copy())
            if len(checkpoints) > cfg.backtrack_depth:
                checkpoints.pop(0)
            alpha = cfg.alpha
        pb = predict(backbone, x + delta)
        pp = predict(pann, x + delta)
        trace.append((pb, pp))
        if pb == y and pp != y:
            return attack.AttackOutcome(True, delta, iters, tuple(trace))
    return attack.AttackOutcome(False, delta, iters, tuple(trace),
                                failure_reason="iteration cap reached")


@pytest.fixture(scope="module")
def composite_pann(backbone):
    calib = ANCHOR + np.linspace(-EPS, EPS, 21)[:, None]
    bound = tf.calibrate_bound(backbone, calib)
    return tf.transform(backbone, tf.CompositeReLU(pa.build_appsgn(
        6, bound=bound)))


class TestMatchesLoop:
    def test_random_search_picks_same_candidate(self, backbone, pann,
                                                composite_pann):
        cfg = _cfg()
        for model in (pann, composite_pann):
            for s in range(50):
                delta = np.clip(derive_rng(s, "delta").uniform(
                    -EPS, EPS, size=2), -EPS, EPS) * (s % 3 != 0)
                rng_a, rng_b = derive_rng(s, "a"), derive_rng(s, "a")
                got = attack._random_search(ANCHOR, delta, LABEL, backbone,
                                            model, cfg, rng_a)
                want = _search_loop(ANCHOR, delta, LABEL, backbone, model,
                                    cfg, rng_b)
                assert np.array_equal(got, want), s
                assert rng_a.random() == rng_b.random()

    def test_ties_and_nans_keep_the_loop_rule(self, backbone, pann,
                                              composite_pann, monkeypatch):
        # the search sees coarse losses; the reference loop coarsens its own
        monkeypatch.setattr(attack, "nn", SimpleNamespace(**dict(
            vars(nn), row_losses=lambda *a: (_coarse(
                nn.row_losses(*a)[0]), None))))
        cfg = _cfg(search_radius=0.2)
        picked = set()
        for model in (pann, composite_pann):
            for s in range(60):
                delta = derive_rng(s, "delta").uniform(-EPS, EPS, size=2)
                rng_a, rng_b = derive_rng(s, "a"), derive_rng(s, "a")
                got = attack._random_search(ANCHOR, delta, LABEL, backbone,
                                            model, cfg, rng_a)
                want = _search_loop(ANCHOR, delta, LABEL, backbone, model,
                                    cfg, rng_b, score=_coarse)
                assert np.array_equal(got, want), s
                picked.add(np.array_equal(got, delta))
        assert picked == {True, False}  # some iterates kept, some replaced

    def test_attack_same_outcome_and_trace(self, backbone, pann,
                                           composite_pann):
        cfgs = (_cfg(), _cfg(alpha=5.0, search_radius=0.02, search_draws=4,
                             max_iters=40),
                _cfg(eps_atk=1e9, max_iters=10), _cfg(max_iters=0))
        for model in (pann, composite_pann):
            for cfg in cfgs:
                for seed in range(6):
                    got = attack.attack_pann(ANCHOR, LABEL, backbone, model,
                                             cfg, seed=seed)
                    want = _attack_loop(ANCHOR, LABEL, backbone, model, cfg,
                                        seed=seed)
                    assert np.array_equal(got.delta, want.delta)
                    assert (got.success, got.iterations, got.trace,
                            got.failure_reason) == \
                        (want.success, want.iterations, want.trace,
                         want.failure_reason)


class TestVerify:
    def test_agreeing_zero_delta_is_false(self, backbone, pann):
        assert not attack.verify_outcome(ANCHOR, LABEL, np.zeros(2),
                                         backbone, pann, EPS)

    def test_norm_violation_is_false_regardless(self, backbone, pann):
        axis, mask = discrepancy_grid(ANCHOR, LABEL, backbone, pann, EPS)
        ii, jj = np.where(mask)
        good = np.array([axis[ii[0]], axis[jj[0]]])
        assert attack.verify_outcome(ANCHOR, LABEL, good, backbone, pann,
                                     EPS)
        # same predictions, tighter budget: rejected on the norm alone
        tight = np.max(np.abs(good)) * 0.5
        assert not attack.verify_outcome(ANCHOR, LABEL, good, backbone,
                                         pann, tight)

    def test_shape_mismatch_raises(self, backbone, pann):
        with pytest.raises(ValueError, match="shape"):
            attack.verify_outcome(ANCHOR, LABEL, np.zeros(3), backbone,
                                  pann, EPS)
