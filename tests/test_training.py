"""Training loop tests: interpolation identities, negative-input noise
selection rules, gradient leak-through, and trajectory determinism.
"""

import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pannkit import datasets as pd
from pannkit import nn
from pannkit import training as tr


def params_of(net):
    return [(i, k, v) for i, l in enumerate(net.layers)
            for k, v in l.params().items()]


def nets_equal(a, b) -> bool:
    pa, pb = params_of(a), params_of(b)
    return len(pa) == len(pb) and all(
        ia == ib and ka == kb and np.array_equal(va, vb)
        for (ia, ka, va), (ib, kb, vb) in zip(pa, pb))


def densify(z, adjustment):
    """The dense (delta, d delta / dz) of the hook's sparse (indices,
    factors): delta = factors * z at those flat indices, zero elsewhere."""
    idx, f = adjustment
    delta, dd = np.zeros_like(z), np.zeros_like(z)
    if idx is not None:
        delta.ravel()[idx] = f * z.ravel()[idx]
        dd.ravel()[idx] = f
    return delta, dd


def perturbed(z, cfg, rng):
    """z plus the training hook's output adjustment."""
    adjustment = tr.ngnv_output_adjustment(z, cfg, rng)
    return z if adjustment[0] is None else z + densify(z, adjustment)[0]


class Identity:
    """An activation mode that hands back its input array."""

    def apply(self, z):
        return z

    def grad(self, z):
        return np.ones_like(z)


def train_keeping(*args, **kwargs):
    """tr.train's final network, and every epoch's network by epoch."""
    snaps = {}
    return tr.train(*args, on_epoch=snaps.__setitem__, **kwargs), snaps


def epoch_metrics(snaps, data):
    """Per-epoch (train, test) (loss, accuracy) of a run's kept networks."""
    return [(tr.evaluate(net, data.x_train, data.y_train, batch_size=512),
             tr.evaluate(net, data.x_test, data.y_test, batch_size=512))
            for _, net in sorted(snaps.items())]


@pytest.fixture(scope="module")
def blobs():
    return pd.load_dataset(pd.DatasetSpec(
        source="synthetic_blobs", n=500, classes=2, dim=2, seed=3))


class TestMixup:
    def test_lambda_one_is_identity(self):
        x = np.array([[0.5, -1.0]])
        y = nn.one_hot(np.array([1]), 3)
        xm, ym = tr.mixup_batch(x, x * 9, y, y[::-1], 1.0)
        assert xm is x and ym is y

    def test_lambda_zero_returns_partner(self):
        x = np.array([[1.0]])
        x2 = np.array([[2.0]])
        y = nn.one_hot(np.array([0]), 2)
        y2 = nn.one_hot(np.array([1]), 2)
        xm, ym = tr.mixup_batch(x, x2, y, y2, 0.0)
        assert xm is x2 and ym is y2

    def test_halfway_point(self):
        x = np.array([[0.0, 2.0]])
        x2 = np.array([[2.0, 0.0]])
        y = nn.one_hot(np.array([0]), 2)
        xm, _ = tr.mixup_batch(x, x2, y, y, 0.5)
        assert np.array_equal(xm, np.array([[1.0, 1.0]]))

    def test_label_weights(self):
        y = nn.one_hot(np.array([3]), 10)
        y2 = nn.one_hot(np.array([7]), 10)
        _, ym = tr.mixup_batch(np.zeros((1, 1)), np.zeros((1, 1)), y, y2, 0.25)
        assert ym[0, 3] == 0.25 and ym[0, 7] == 0.75
        assert ym.sum() == 1.0

    def test_rejects_bad_lambda(self):
        y = nn.one_hot(np.array([0]), 2)
        with pytest.raises(ValueError, match="lam"):
            tr.mixup_batch(np.zeros((1, 1)), np.zeros((1, 1)), y, y, 1.5)

    def test_rejects_integer_labels(self):
        with pytest.raises(ValueError, match="one-hot"):
            tr.mixup_batch(np.zeros((1, 1)), np.zeros((1, 1)),
                           np.array([0]), np.array([1]), 0.5)

    def test_drawn_lambda_in_unit_interval(self):
        cfg = tr.MixupConfig(alpha=0.5)
        rng = np.random.default_rng(0)
        draws = [tr.draw_mixup_lambda(cfg, rng) for _ in range(2000)]
        assert all(0.0 <= l <= 1.0 for l in draws)
        # Beta(0.5, 0.5) piles mass at both ends; crude shape check
        assert np.mean(np.asarray(draws) < 0.1) > 0.1

    def test_fixed_lambda_skips_rng(self):
        cfg = tr.MixupConfig(fixed_lambda=0.3)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state["state"]["state"]
        assert tr.draw_mixup_lambda(cfg, rng) == 0.3
        assert rng.bit_generator.state["state"]["state"] == before

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.MixupConfig(alpha=0.0)
        with pytest.raises(ValueError):
            tr.MixupConfig(fixed_lambda=1.5)


class TestNgnv:
    def test_worked_example(self):
        # z=[-4,-1,2], r=0.5: one entry selected (the most negative),
        # fixed sign drawn +1 (first draw of this stream is positive)
        rng = np.random.default_rng(0)
        assert np.random.default_rng(0).standard_normal() > 0
        cfg = tr.NgnvConfig(r=0.5, noise_scale=0.05, fixed_sign=True)
        out = perturbed(np.array([-4.0, -1.0, 2.0]), cfg, rng)
        assert np.allclose(out, [-4.2, -1.0, 2.0])
        assert out[1] == -1.0 and out[2] == 2.0

    def test_r_zero_identity(self):
        z = np.array([-3.0, 1.0, -0.5])
        out = perturbed(z, tr.NgnvConfig(r=0.0), np.random.default_rng(1))
        assert np.array_equal(out, z)

    def test_all_positive_identity(self):
        z = np.abs(np.random.default_rng(2).standard_normal((4, 5))) + 0.1
        out = perturbed(z, tr.NgnvConfig(r=1.0), np.random.default_rng(1))
        assert np.array_equal(out, z)

    @given(st.integers(0, 2 ** 32 - 1), st.floats(0.01, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_selection_budget(self, seed, r):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((3, 7))
        cfg = tr.NgnvConfig(r=r, noise_scale=0.05)
        out = perturbed(z, cfg, np.random.default_rng(seed + 1))
        changed = out != z
        n_neg = int((z < 0).sum())
        assert changed.sum() <= math.ceil(r * n_neg)
        assert np.all(z[changed] < 0)
        assert np.array_equal(out[~changed], z[~changed])

    def test_picks_most_negative(self):
        z = np.array([-1.0, -9.0, -3.0, 4.0])
        cfg = tr.NgnvConfig(r=0.5, noise_scale=0.05, fixed_sign=True)
        out = perturbed(z, cfg, np.random.default_rng(0))
        changed = np.flatnonzero(out != z)
        assert set(changed.tolist()) == {1, 2}  # ceil(0.5*3)=2 most negative

    @pytest.mark.parametrize("r", [0.01, 0.3, 1.0])
    @pytest.mark.parametrize("decimals", [0, 1, None, "-inf"])
    def test_draw_matches_stable_argsort(self, r, decimals, monkeypatch):
        # selection by partition must pick the same entries in the same
        # order as a full stable argsort (ties broken by index), so the
        # noise draws land on the same units
        argsort = np.argsort

        def reference(z, cfg, rng):
            flat = z.ravel()
            neg = np.flatnonzero(flat < 0)
            k = math.ceil(cfg.r * neg.size)
            chosen = neg[argsort(flat[neg], kind="stable")[:k]]
            return chosen, cfg.noise_scale * rng.standard_normal(k)

        kinds = []  # the sort kind of each argsort the draw makes

        def spy(a, *args, kind=None, **kwargs):
            kinds.append(kind)
            return argsort(a, *args, kind=kind, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        cfg = tr.NgnvConfig(r=r, noise_scale=0.05)
        for seed in range(20):
            z = np.random.default_rng(seed).standard_normal((8, 3, 6, 6))
            if decimals == "-inf":  # tied at -inf among tie-free values
                rng = np.random.default_rng(seed)
                z.flat[rng.choice(z.size, 4, replace=False)] = -np.inf
            elif decimals is not None:
                z = np.round(z, decimals)  # heavy ties
            got = tr.ngnv_output_adjustment(z, cfg,
                                            np.random.default_rng(seed))
            want = reference(z, cfg, np.random.default_rng(seed))
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
        # every draw tries the quicksort; only draws with ties fall back
        assert kinds.count(None) == 20
        fallbacks = kinds.count("stable")
        if decimals is None:
            assert fallbacks == 0
        elif decimals == "-inf":
            assert fallbacks == 20
        else:  # rounding ties some draws, not always all
            assert fallbacks > 0

    def test_output_adjustment_matches_perturb_delta(self):
        z = np.random.default_rng(5).standard_normal((2, 6))
        cfg = tr.NgnvConfig(r=0.5, noise_scale=0.1)
        delta, dd = densify(z, tr.ngnv_output_adjustment(
            z, cfg, np.random.default_rng(9)))
        # the perturbation of the same draw: lambda_n*s*z added in place
        chosen, f = tr.ngnv_output_adjustment(z, cfg,
                                              np.random.default_rng(9))
        zt = z.copy()
        zt.ravel()[chosen] += f * zt.ravel()[chosen]
        assert np.allclose(z + delta, zt)
        # derivative factor equals delta/z on the touched entries
        touched = delta != 0
        assert np.allclose(dd[touched], delta[touched] / z[touched])
        assert np.all(dd[~touched] == 0)
        # a hooked slot outputs its activation plus exactly that delta
        slot = nn.Network((nn.Activation(nn.ExactReLU()),), (6,), 6)
        rng = np.random.default_rng(9)
        out, _ = nn._run_layers(slot, z, lambda s, u:
                                tr.ngnv_output_adjustment(u, cfg, rng))
        assert out.tobytes() == (np.maximum(z, 0.0) + delta).tobytes()

    @pytest.mark.parametrize("mode", [nn.ExactReLU(), Identity()])
    def test_hooked_backward_is_pure(self, mode):
        # the adjustment is added into the slot's own output and gradient:
        # the input, the parameters and the pre-activation stay unchanged,
        # also under a mode that hands back its input
        net = nn.build_mlp((3,), (6,), 2, seed=2)
        net = net.replace_layer(1, nn.Activation(mode))
        x = np.random.default_rng(6).standard_normal((5, 3))
        y = np.array([0, 1, 1, 0, 1])
        before = [w.copy() for _, _, w in params_of(net)]
        x0 = x.copy()
        seen = []
        cfg = tr.NgnvConfig(r=1.0, noise_scale=0.5)
        rng = np.random.default_rng(1)

        def hook(slot, z):
            seen.append((z, z.copy()))
            return tr.ngnv_output_adjustment(z, cfg, rng)

        grads, _ = nn.backward(net, x, y, act_hook=hook)
        assert np.array_equal(x, x0)
        assert all(np.array_equal(w, b)
                   for (_, _, w), b in zip(params_of(net), before))
        assert len(seen) == 1 and np.array_equal(*seen[0])
        assert np.any(seen[0][1] < 0)  # something was adjusted
        fresh, _ = nn.backward(net, x, y, act_hook=lambda s, z:
                               tr.ngnv_output_adjustment(
                                   z, cfg, np.random.default_rng(1)))
        assert all(np.array_equal(g[k], f[k])
                   for g, f in zip(grads, fresh) for k in g)

    def test_selected_negative_units_get_gradient(self):
        # One dense layer into a ReLU slot with all-negative inputs: the
        # plain activation blocks every gradient, the noise hook leaks one.
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        w2 = np.array([[1.0, -2.0], [0.5, 3.0]])
        net = nn.Network((nn.Dense(W=w, b=np.array([0.0, 0.0])),
                          nn.Activation(nn.ExactReLU()),
                          nn.Dense(W=w2, b=np.zeros(2))),
                         input_shape=(2,), n_classes=2)
        x = np.array([[-1.0, -2.0]])
        y = np.array([0])
        plain, _ = nn.backward(net, x, y)
        assert np.all(plain[0]["W"] == 0.0)
        cfg = tr.NgnvConfig(r=1.0, noise_scale=0.05)
        rng = np.random.default_rng(3)
        noisy, _ = nn.backward(net, x, y, act_hook=lambda s, z:
                               tr.ngnv_output_adjustment(z, cfg, rng))
        assert np.any(noisy[0]["W"] != 0.0)

    def test_hook_gradient_matches_finite_differences(self):
        # freeze one noise draw, then check d loss / d W numerically
        cfg = tr.NgnvConfig(r=0.6, noise_scale=0.2)
        net = nn.build_mlp((3,), (4,), 2, seed=1)
        x = np.random.default_rng(4).standard_normal((5, 3))
        y = np.array([0, 1, 0, 1, 1])

        def hook_factory():
            rng = np.random.default_rng(77)
            return lambda s, z: tr.ngnv_output_adjustment(z, cfg, rng)

        grads, _ = nn.backward(net, x, y, act_hook=hook_factory())
        w = net.layers[0].params()["W"]
        h = 1e-6
        for idx in [(0, 0), (2, 1), (3, 2)]:
            wp = w.copy(); wp[idx] += h
            wm = w.copy(); wm[idx] -= h
            lp = nn.backward(net.replace_layer(
                0, net.layers[0].with_params(
                    {"W": wp, "b": net.layers[0].params()["b"]})),
                x, y, act_hook=hook_factory())[1]
            lm = nn.backward(net.replace_layer(
                0, net.layers[0].with_params(
                    {"W": wm, "b": net.layers[0].params()["b"]})),
                x, y, act_hook=hook_factory())[1]
            fd = (lp - lm) / (2 * h)
            assert abs(grads[0]["W"][idx] - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            tr.NgnvConfig(r=1.5)
        with pytest.raises(ValueError):
            tr.NgnvConfig(r=0.5, noise_scale=-1.0)


class TestEvaluate:
    def test_matches_direct_forward(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        loss, acc = tr.evaluate(net, blobs.x_test, blobs.y_test,
                                batch_size=len(blobs.x_test))
        logits, _ = nn.forward(net, blobs.x_test)
        ref, _ = nn.loss_and_logit_grad(logits, blobs.y_test, "cross_entropy")
        assert loss == ref
        assert acc == (np.argmax(logits, 1) == blobs.y_test).mean()

    def test_batched_equals_whole(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        a = tr.evaluate(net, blobs.x_test, blobs.y_test, batch_size=7)
        b = tr.evaluate(net, blobs.x_test, blobs.y_test, batch_size=1000)
        assert a[1] == b[1]
        assert abs(a[0] - b[0]) < 1e-12

    def test_empty_set_rejected(self):
        net = nn.build_mlp((2,), (4,), 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            tr.evaluate(net, np.zeros((0, 2)), np.zeros(0, np.int64))


class TestTrain:
    SGD = nn.SgdState(lr=0.05, momentum=0.9, weight_decay=0.0)

    def test_zero_epochs_returns_input(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        out, snaps = train_keeping(net, blobs, self.SGD, epochs=0, seed=1)
        assert out is net and snaps == {}

    def test_deterministic(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        a, a_snaps = train_keeping(net, blobs, self.SGD, epochs=2, seed=5)
        b, b_snaps = train_keeping(net, blobs, self.SGD, epochs=2, seed=5)
        assert nets_equal(a, b)
        assert epoch_metrics(a_snaps, blobs) == epoch_metrics(b_snaps, blobs)
        c = tr.train(net, blobs, self.SGD, epochs=2, seed=6)
        assert not nets_equal(a, c)

    def test_blobs_accuracy(self, blobs):
        net = nn.build_mlp((2,), (16,), 2, seed=0)
        _, snaps = train_keeping(net, blobs, self.SGD, epochs=50, seed=1)
        first, final = epoch_metrics({e: snaps[e] for e in (1, 50)}, blobs)
        assert final[1][1] >= 0.95
        assert final[0][0] < first[0][0]

    def test_mixup_lambda_one_bit_exact_vanilla(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        kw = dict(epochs=3, seed=4)
        plain, plain_snaps = train_keeping(net, blobs, self.SGD, **kw)
        mixed, mixed_snaps = train_keeping(
            net, blobs, self.SGD, **kw,
            mixup=tr.MixupConfig(fixed_lambda=1.0))
        assert nets_equal(plain, mixed)
        assert (epoch_metrics(plain_snaps, blobs)
                == epoch_metrics(mixed_snaps, blobs))

    def test_ngnv_r_zero_bit_exact_vanilla(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        plain = tr.train(net, blobs, self.SGD, epochs=3, seed=4)
        noisy = tr.train(net, blobs, self.SGD, epochs=3, seed=4,
                         ngnv=tr.NgnvConfig(r=0.0))
        assert nets_equal(plain, noisy)

    def test_ngnv_changes_trajectory(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        plain = tr.train(net, blobs, self.SGD, epochs=2, seed=4)
        noisy = tr.train(net, blobs, self.SGD, epochs=2, seed=4,
                         ngnv=tr.NgnvConfig(r=0.3, noise_scale=0.05))
        assert not nets_equal(plain, noisy)

    def test_combined_options_run(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        out = tr.train(net, blobs, self.SGD, epochs=2, seed=2,
                       mixup=tr.MixupConfig(),
                       ngnv=tr.NgnvConfig(r=0.3, noise_scale=0.05))
        assert np.isfinite(tr.evaluate(out, blobs.x_test, blobs.y_test)[0])

    def test_snapshot_is_trajectory_prefix(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        seen = []
        tr.train(net, blobs, self.SGD, epochs=5, seed=7,
                 on_epoch=lambda *kept: seen.append(kept))
        short = tr.train(net, blobs, self.SGD, epochs=3, seed=7)
        assert [epoch for epoch, _ in seen] == [1, 2, 3, 4, 5]
        assert nets_equal(seen[2][1], short)

    def test_on_epoch_keeps_trajectory(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        ngnv = tr.NgnvConfig(r=0.3, noise_scale=0.05)
        full = tr.train(net, blobs, self.SGD, epochs=3, seed=4, ngnv=ngnv)
        out, snaps = train_keeping(net, blobs, self.SGD, epochs=3, seed=4,
                                   ngnv=ngnv)
        assert nets_equal(out, full)
        assert snaps[3] is out

    def test_milestone_lr_schedule(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        sgd = nn.SgdState(lr=0.1, momentum=0.0, milestones=(2,), gamma=0.1)
        assert sgd.lr_at(1) == 0.1
        assert sgd.lr_at(2) == pytest.approx(0.01)
        assert sgd.lr_at(3) == pytest.approx(0.01)
        # the decay starts with epoch 2: epoch 1 matches the flat schedule
        flat = nn.SgdState(lr=0.1, momentum=0.0)
        _, out = train_keeping(net, blobs, sgd, epochs=2, seed=1)
        _, ref = train_keeping(net, blobs, flat, epochs=2, seed=1)
        assert nets_equal(out[1], ref[1])
        assert not nets_equal(out[2], ref[2])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        hot = nn.SgdState(lr=1e9, momentum=0.9)
        with pytest.raises(tr.TrainingDiverged) as err:
            tr.train(net, blobs, hot, epochs=5, seed=1)
        assert err.value.epoch >= 1

    def test_a_step_drops_the_gradients_it_consumed(self, blobs,
                                                    monkeypatch):
        # the next backward pass must not run while the last step's
        # gradients are held beside its network: every gradient buffer
        # still alive then is a parameter of the network that step
        # returned (with mlp:256,256 a spare set is 2.15 MB)
        stray, donated, last, real_backward = [], [], [], nn.backward

        def backward(net, *args, **kwargs):
            params = [w for layer in net.layers
                      for w in layer.params().values()]
            alive = [g for g in (ref() for ref in last) if g is not None]
            stray.append(sum(all(g is not w for w in params) for g in alive))
            donated.append(len(alive))
            del alive
            grads, loss = real_backward(net, *args, **kwargs)
            last[:] = [weakref.ref(g) for pg in grads for g in pg.values()]
            return grads, loss

        monkeypatch.setattr(nn, "backward", backward)
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        tr.train(net, blobs, self.SGD, epochs=2, seed=1)
        assert len(stray) == 14 and not any(stray), stray
        assert donated == [0] + [4] * 13, donated

    def test_template_state_untouched(self, blobs):
        net = nn.build_mlp((2,), (8,), 2, seed=0)
        tr.train(net, blobs, self.SGD, epochs=1, seed=1)
        assert self.SGD.velocities == {} and self.SGD.epoch == 0


# sha256 of the final parameters, and of every epoch's evaluate tuples
# at batch sizes 40 and 512, of a short digits cnn:4,8+32 NGNV run (96
# train / 96 test samples, 2 epochs, batch 32, r 0.3), alone and with
# mixup. Taken before the NGNV hook became sparse and evaluate cache-free;
# both changes keep every byte.
HOT_LOOP_DIGESTS = {
    "ngnv": ("ecfde0d27559252e7980c93be189dbf35bdd1594cf6c19f67699170c5036c8f6",
             "71a3ecd51bead56f28a23a1ff7b06c761825210a7f0103c66730b2f074e46f70"),
    "mixup+ngnv": (
        "7bb7f3a2332a93cfc0637c549ad8ac6df6c99c1bfbe61df13e4b750177e1cdc1",
        "f8d1967eed638386c96bc55fcb48efab96a849667ae502a0b7b59b6d87b0d9a0"),
}


@pytest.mark.parametrize("method", sorted(HOT_LOOP_DIGESTS))
def test_cnn_hot_loop_bytes_pinned(method):
    data = pd.load_dataset(pd.DatasetSpec(
        source="synthetic_digits", n=192, seed=4, noise=0.25,
        train_fraction=0.5))
    net = nn.build_arch("cnn:4,8+32", data.sample_shape, data.n_classes, 0)
    out, snaps = train_keeping(
        net, data, nn.SgdState(lr=0.05, momentum=0.9, weight_decay=1e-3),
        epochs=2, batch_size=32, seed=1,
        mixup=tr.MixupConfig() if "mixup" in method else None,
        ngnv=tr.NgnvConfig(r=0.3, noise_scale=0.05))
    params = hashlib.sha256()
    for layer in out.layers:
        for _, w in sorted(layer.params().items()):
            params.update(w.tobytes())
    evals = hashlib.sha256()
    for _, snap in sorted(snaps.items()):
        for batch_size in (40, 512):
            loss, acc = tr.evaluate(snap, data.x_test, data.y_test,
                                    batch_size=batch_size)
            evals.update(f"{loss.hex()} {acc.hex()};".encode())
    assert (params.hexdigest(), evals.hexdigest()) == HOT_LOOP_DIGESTS[method]
