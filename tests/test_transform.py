"""Transform tests: mode swaps, interval policies, replacement arithmetic."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pannkit import nn
from pannkit import polyapprox as pa
from pannkit import transform as tf
from pannkit.fixedpoint import FixedPointFormat, TruncatedReLU
from pannkit.seeding import derive_rng

from oracles import calibrate_bound_by_trace, traced_peak


@pytest.fixture(scope="module")
def backbone():
    return nn.build_mlp((6,), [10, 10], 4, seed=21)


@pytest.fixture(scope="module")
def eval_x():
    return derive_rng(2, "x").normal(size=(100, 6))


@pytest.fixture(scope="module")
def ap(backbone, eval_x):
    b = tf.calibrate_bound(backbone, eval_x)
    return pa.build_appsgn(10, bound=b)


class TestTransform:
    def test_identity_mode_is_bitwise_identity(self, backbone, eval_x):
        same = tf.transform(backbone, nn.ExactReLU())
        np.testing.assert_array_equal(nn.forward(same, eval_x)[0],
                                      nn.forward(backbone, eval_x)[0])

    def test_source_network_untouched(self, backbone, eval_x, ap):
        before = nn.forward(backbone, eval_x)[0]
        tf.transform(backbone, tf.CompositeReLU(ap))
        np.testing.assert_array_equal(nn.forward(backbone, eval_x)[0], before)

    def test_double_transform_rejected(self, backbone, ap):
        # an exact ReLU restores nothing: a PANN is never transformed again
        pann = tf.transform(backbone, tf.CompositeReLU(ap))
        for mode in (tf.InjectedReLU(8), nn.ExactReLU()):
            with pytest.raises(ValueError, match="backbone"):
                tf.transform(pann, mode)

    def test_composite_logit_drift_small_and_bounded(self, backbone, eval_x,
                                                     ap):
        """Per-layer propagation of the activation error bound dominates the
        observed logit drift; drift is finite and small."""
        pann = tf.transform(backbone, tf.CompositeReLU(ap))
        base, trace = nn.forward(backbone, eval_x)
        got = nn.forward(pann, eval_x)[0]
        drift = np.max(np.abs(got - base))
        assert np.isfinite(drift)

        # propagated bound: per activation, error <= 2^-beta * B; linear
        # layers scale by the max absolute row sum; smooth slope bounded on
        # the certified interval
        per_act = 2.0 ** -ap.beta * ap.bound
        us = np.linspace(-1, 1, 20001) * ap.bound
        _, ds = ap.eval_with_derivative(us)
        s = np.asarray(ap.eval(us))
        slope = np.max(np.abs((1.0 + s + us * ds) / 2.0))
        bound = 0.0
        for layer in backbone.layers:
            if isinstance(layer, nn.Dense):
                bound = bound * np.abs(layer.W).sum(axis=1).max()
            elif isinstance(layer, nn.Activation):
                bound = bound * slope + per_act
        assert drift <= bound
        assert drift <= 1e-2 * max(1.0, np.max(np.abs(base)))

    def test_drift_shrinks_with_beta(self, backbone, eval_x):
        """Mean |logit drift| non-increasing in beta for nearly all points."""
        b = tf.calibrate_bound(backbone, eval_x)
        base = nn.forward(backbone, eval_x)[0]
        drifts = []
        for beta in (6, 8, 10, 12):
            pann = tf.transform(backbone,
                                tf.CompositeReLU(pa.build_appsgn(beta, bound=b)))
            got = nn.forward(pann, eval_x)[0]
            drifts.append(np.abs(got - base).max(axis=1))
        violations = 0
        comparisons = 0
        for a, bb in zip(drifts, drifts[1:]):
            violations += int(np.sum(bb > a))
            comparisons += len(a)
        assert violations <= 0.05 * comparisons


class TestIntervalPolicy:
    def test_clamp_reads_the_chain_at_the_bound(self, ap):
        mode = tf.CompositeReLU(ap, tf.IntervalPolicy("clamp_to_B"))
        z = np.array([0.5 * ap.bound, 2.0 * ap.bound, -3.0 * ap.bound])
        s = ap.eval(np.array([0.5, 1.0, -1.0]) * ap.bound)
        np.testing.assert_array_equal(mode.apply(z), (z + z * s) / 2.0)

    def test_error_policy_aborts(self, ap):
        mode = tf.CompositeReLU(ap, tf.IntervalPolicy("error"))
        with pytest.raises(tf.IntervalOverflowError):
            mode.apply(np.array([2.0 * ap.bound]))

    def test_clamped_output_still_close_to_relu(self, ap):
        mode = tf.CompositeReLU(ap, tf.IntervalPolicy("clamp_to_B"))
        z = np.array([1.7 * ap.bound, -1.7 * ap.bound])
        out = mode.apply(z)
        relu = np.maximum(z, 0.0)
        assert np.all(np.abs(out - relu) <= 2.0 ** -ap.beta * np.abs(z))

    @pytest.mark.parametrize("name", ["hope", "widen_and_recertify"])
    def test_unknown_policy_rejected(self, name):
        with pytest.raises(ValueError):
            tf.IntervalPolicy(name)


class TestPartialReplace:
    def test_stock_quadratic_coefficients(self):
        p = tf.default_quadratic_replacement()
        assert p.coeffs == (0.28, 0.5, 0.14)
        assert p(0.0) == pytest.approx(0.28)
        assert p(1.0) == pytest.approx(0.92)
        assert p(-1.0) == pytest.approx(-0.08)

    def test_binarized_c1_is_backbone(self, backbone, eval_x):
        mode = tf.PartialReplaceReLU(c=1.0)
        pann = tf.transform(backbone, mode)
        np.testing.assert_array_equal(nn.forward(pann, eval_x)[0],
                                      nn.forward(backbone, eval_x)[0])

    def test_binarized_c0_is_polynomial_net(self, backbone, eval_x):
        mode = tf.PartialReplaceReLU(c=0.0)
        pann = tf.transform(backbone, mode)
        p = tf.default_quadratic_replacement()
        h = eval_x
        for layer in backbone.layers:
            if isinstance(layer, nn.Activation):
                h = p(h)
            else:
                h = layer.forward(h)
        np.testing.assert_array_equal(nn.forward(pann, eval_x)[0], h)

    def test_binary_c_runs_one_branch(self):
        # bit for bit the slot that a binary c used to need a binarized
        # flag for, kept here as the reference; the mixed formula differs
        # where 0 * p(z) is not finite: |z| >~ 1e154, +-inf, grad at NaN
        p = tf.default_quadratic_replacement()

        def binarized(c, z):  # (apply, grad)
            if c == 1.0:
                return np.maximum(z, 0.0), (z > 0).astype(np.float64)
            return p(z), p.derivative(z)

        z = np.concatenate([derive_rng(5, "z").normal(scale=1e3, size=64),
                            [0.0, -0.0, 1e200, -1e200, np.inf, -np.inf,
                             np.nan, -np.nan]])
        with np.errstate(all="ignore"):  # p overflows at the large inputs
            for c in (0.0, 1.0):
                mode = tf.PartialReplaceReLU(p, c=c)
                for got, want in zip((mode.apply(z), mode.grad(z)),
                                     binarized(c, z)):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes()

    def test_replacement_error_formulas(self):
        """Rounding toward g leaves (1-c)(g-p); toward p leaves c(p-g)."""
        z = np.linspace(-2, 2, 9)
        p = tf.default_quadratic_replacement()
        g, c = np.maximum(z, 0.0), 0.7
        mixed = tf.PartialReplaceReLU(p, c).apply(z)
        to_g = tf.PartialReplaceReLU(p, c=1.0).apply(z) - mixed
        to_p = tf.PartialReplaceReLU(p, c=0.0).apply(z) - mixed
        np.testing.assert_allclose(to_g, (1 - c) * (g - p(z)), atol=1e-15)
        np.testing.assert_allclose(to_p, c * (p(z) - g), atol=1e-15)
        # a point with g = 2, p = 1.5 gives the frozen values
        q = pa.Polynomial((1.5,))
        two = np.array([2.0])
        mixed = tf.PartialReplaceReLU(q, c).apply(two)
        assert (tf.PartialReplaceReLU(q, c=1.0).apply(two)
                - mixed)[0] == pytest.approx(0.3 * 0.5)
        assert (tf.PartialReplaceReLU(q, c=0.0).apply(two)
                - mixed)[0] == pytest.approx(0.7 * -0.5)

    def test_mix_interpolates(self):
        z = np.linspace(-2, 2, 9)
        mode = tf.PartialReplaceReLU(c=0.25)
        p = tf.default_quadratic_replacement()
        want = 0.25 * np.maximum(z, 0.0) + 0.75 * p(z)
        np.testing.assert_allclose(mode.apply(z), want, rtol=1e-14)


class TestDescriptors:
    def test_round_trip_composite(self, backbone, eval_x, ap, tmp_path):
        pann = tf.transform(backbone, tf.CompositeReLU(ap))
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(tf.pann_descriptor(pann)))
        rebuilt = tf.apply_descriptor(backbone, json.loads(path.read_text()))
        np.testing.assert_array_equal(nn.forward(rebuilt, eval_x)[0],
                                      nn.forward(pann, eval_x)[0])

    def test_each_approximant_certified_once(self, backbone, ap):
        certify = pa._certify_chain
        desc = tf.pann_descriptor(tf.transform(backbone,
                                               tf.CompositeReLU(ap)))
        assert len(desc["slots"]) == 2
        certify.cache_clear()
        rebuilt = tf.apply_descriptor(backbone, desc)
        assert certify.cache_info().misses == 1
        modes = [rebuilt.layers[i].mode for i in rebuilt.activation_indices()]
        assert modes[0] is not modes[1] and modes[0].approx == modes[1].approx
        other = pa.build_appsgn(6, bound=ap.bound)
        desc["slots"][1] = tf.CompositeReLU(other).descriptor()
        certify.cache_clear()
        tf.apply_descriptor(backbone, desc)
        assert certify.cache_info().misses == 2
        # memoised per process: loading again certifies nothing new
        tf.apply_descriptor(backbone, desc)
        assert certify.cache_info().misses == 2

    def test_round_trip_injected(self, backbone, eval_x, tmp_path):
        pann = tf.transform(backbone, tf.InjectedReLU(8, "neg_only",
                                                      "worst_case_fixed", 9))
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(tf.pann_descriptor(pann)))
        rebuilt = tf.apply_descriptor(backbone, json.loads(path.read_text()))
        np.testing.assert_array_equal(nn.forward(rebuilt, eval_x)[0],
                                      nn.forward(pann, eval_x)[0])

    def test_round_trip_truncated(self, backbone, eval_x, tmp_path):
        pann = tf.transform(backbone, TruncatedReLU(FixedPointFormat(8)))
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(tf.pann_descriptor(pann)))
        rebuilt = tf.apply_descriptor(backbone, json.loads(path.read_text()))
        np.testing.assert_array_equal(nn.forward(rebuilt, eval_x)[0],
                                      nn.forward(pann, eval_x)[0])


class TestInjectedMode:
    def test_forward_pure(self, backbone, eval_x):
        pann = tf.transform(backbone, tf.InjectedReLU(6, seed=4))
        a = nn.forward(pann, eval_x)[0]
        b = nn.forward(pann, eval_x)[0]
        np.testing.assert_array_equal(a, b)

    def test_slots_get_independent_draws(self):
        m0 = tf.InjectedReLU(6, seed=4).with_slot(0)
        m1 = tf.InjectedReLU(6, seed=4).with_slot(1)
        z = np.ones((2, 50))
        assert not np.array_equal(m0.apply(z), m1.apply(z))

    @staticmethod
    def _inputs():
        z = derive_rng(7, "z").normal(size=(64, 40))
        # signed zeros, NaNs of both signs and infinities in every unit
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]
        z[:, :6] = special
        z[::5, 6:12] = special
        return z

    @pytest.mark.parametrize("mode", tf.INJECTION_MODES)
    @pytest.mark.parametrize("sign_filter", tf.SIGN_FILTERS)
    def test_apply_bytes_are_the_plain_expression(self, sign_filter, mode):
        inj = tf.InjectedReLU(6, sign_filter, mode, seed=3, slot=1)
        z = self._inputs()
        e, mask = inj._errors(z.shape), inj._mask(z)
        with np.errstate(invalid="ignore"):  # inf + -inf where e < 0
            want = np.maximum(z, 0.0) + np.where(mask, e * z / 2.0, 0.0)
            got = inj.apply(z)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sign_filter", tf.SIGN_FILTERS)
    def test_apply_peak_is_two_outputs_and_the_mask(self, sign_filter):
        inj = tf.InjectedReLU(6, sign_filter, seed=3)
        z = derive_rng(8, "z").normal(size=(512, 256))
        peak = traced_peak(lambda: inj.apply(z))
        assert peak <= 2 * z.nbytes + z.size, (peak, z.nbytes)

    def test_gradient_matches_fd(self, backbone, eval_x):
        pann = tf.transform(backbone, tf.InjectedReLU(5, seed=1))
        y = np.zeros(eval_x.shape[0], dtype=int)
        gx, _ = nn.input_gradient(pann, eval_x, y)
        h = 1e-6
        # spot-check a handful of coordinates
        rng = np.random.default_rng(0)
        for _ in range(10):
            i = rng.integers(eval_x.shape[0])
            j = rng.integers(eval_x.shape[1])
            xp, xm = eval_x.copy(), eval_x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            lp = nn.loss_and_logit_grad(nn.forward(pann, xp)[0], y,
                                        "cross_entropy")[0]
            lm = nn.loss_and_logit_grad(nn.forward(pann, xm)[0], y,
                                        "cross_entropy")[0]
            fd = (lp - lm) / (2 * h)
            assert gx[i, j] == pytest.approx(fd, rel=2e-3, abs=1e-8)


class TestCompositeGradient:
    def test_gradient_matches_fd(self, backbone, eval_x, ap):
        pann = tf.transform(backbone, tf.CompositeReLU(ap))
        y = np.zeros(eval_x.shape[0], dtype=int)
        gx, _ = nn.input_gradient(pann, eval_x, y)
        h = 1e-6
        rng = np.random.default_rng(3)
        for _ in range(10):
            i = rng.integers(eval_x.shape[0])
            j = rng.integers(eval_x.shape[1])
            xp, xm = eval_x.copy(), eval_x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            lp = nn.loss_and_logit_grad(nn.forward(pann, xp)[0], y,
                                        "cross_entropy")[0]
            lm = nn.loss_and_logit_grad(nn.forward(pann, xm)[0], y,
                                        "cross_entropy")[0]
            fd = (lp - lm) / (2 * h)
            assert gx[i, j] == pytest.approx(fd, rel=2e-3, abs=1e-8)


# every activation mode; "error" only ever sees in-range inputs
_PURE_MODES = ("exact", "clamp_to_B", "error", "injected", "partial",
               "truncated")


@pytest.fixture(scope="module")
def pure_modes(ap):
    modes = {name: tf.CompositeReLU(ap, tf.IntervalPolicy(name))
             for name in tf.OVERFLOW_POLICIES}
    modes.update(exact=nn.ExactReLU(),
                 injected=tf.InjectedReLU(6, seed=4).with_slot(1),
                 partial=tf.PartialReplaceReLU(c=0.3),
                 truncated=TruncatedReLU(FixedPointFormat(8)))
    return modes


class TestPurity:
    """Every mode is a pure function of its input: a batch's rows come out
    as they would alone, and nothing a net ran before changes its logits."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(_PURE_MODES),
           unit=arrays(np.float64, st.tuples(st.integers(1, 5),
                                             st.integers(1, 6)),
                       elements=st.floats(-4.0, 4.0)))
    def test_rows_match_the_batch(self, pure_modes, ap, name, unit):
        mode = pure_modes[name]
        z = (np.clip(unit, -1.0, 1.0) if name == "error" else unit) * ap.bound
        state = dict(vars(mode))
        for f in (mode.apply, mode.grad):
            whole = f(z)
            for i in range(len(z)):
                assert np.array_equal(f(z[i:i + 1])[0], whole[i])
        assert vars(mode).keys() == state.keys()
        assert all(vars(mode)[k] is v for k, v in state.items())

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(_PURE_MODES), seed=st.integers(0, 99))
    def test_history_never_changes_logits(self, backbone, eval_x,
                                          pure_modes, name, seed):
        pann = tf.transform(backbone, pure_modes[name])
        before = nn.forward(pann, eval_x)[0]
        wild = 5.0 * derive_rng(seed, "wild").normal(size=eval_x.shape)
        try:
            nn.forward(pann, wild)  # far outside the calibrated bound
        except tf.IntervalOverflowError:
            assert name == "error"
        assert np.array_equal(nn.forward(pann, eval_x)[0], before)


@pytest.fixture(scope="module")
def cnn():
    return nn.build_arch("cnn:4,8+32", (1, 28, 28), 10, seed=5)


@pytest.fixture(scope="module")
def images():
    return derive_rng(6, "images").random((700, 1, 28, 28))


class TestStreamedInference:
    """nn.infer runs the convolutional prefix over blocks of nn.BLOCK
    samples; its logits, errors and observed pre-activations are those of
    the unblocked nn.forward."""

    @pytest.fixture(scope="class")
    def modes(self, cnn, images):
        b = calibrate_bound_by_trace(cnn, images[:256])
        # half the calibrated bound, so that the clamp path runs
        clamp = pa.build_appsgn(6, bound=b / 2)
        return {"exact": nn.ExactReLU(), "clamp_to_B": tf.CompositeReLU(clamp),
                "injected": tf.InjectedReLU(6, "neg_only", seed=3),
                "partial": tf.PartialReplaceReLU(c=0.3),
                "truncated": TruncatedReLU(FixedPointFormat(8))}

    @pytest.mark.parametrize("name", ["exact", "clamp_to_B", "injected",
                                      "partial", "truncated"])
    def test_logits_bit_identical_to_forward(self, cnn, images, modes, name):
        pann = tf.transform(cnn, modes[name])
        for n in (1, nn.BLOCK - 1, nn.BLOCK, nn.BLOCK + 1, 500):
            want, _ = nn.forward(pann, images[:n])
            assert nn.infer(pann, images[:n]).tobytes() == want.tobytes(), n

    def test_observer_sees_the_trace_by_global_layer(self, cnn, images):
        x = images[:2 * nn.BLOCK + 5]
        seen: dict = {}
        logits = nn.infer(cnn, x,
                          lambda i, z: seen.setdefault(i, []).append(z))
        want, trace = nn.forward(cnn, x)
        assert logits.tobytes() == want.tobytes()
        assert list(seen) == cnn.activation_indices()
        # the prefix slots in three blocks, the dense slot in one batch
        assert [len(v) for v in seen.values()] == [3, 3, 1]
        for zs, z in zip(seen.values(), trace):
            assert np.concatenate(zs).tobytes() == z.tobytes()

    def test_mlp_has_no_prefix_to_stream(self, images):
        net = nn.build_arch("mlp:16", (1, 28, 28), 10, seed=2)
        pann = tf.transform(net, tf.InjectedReLU(6, seed=1))
        seen = []
        got = nn.infer(pann, images[:500], lambda i, z: seen.append(z.shape))
        assert got.tobytes() == nn.forward(pann, images[:500])[0].tobytes()
        assert seen == [(500, 16)]

    def test_overflow_raises_the_unblocked_error(self):
        # slot layers[1] passes x, slot layers[3] reads 10 * relu(x)
        one = np.ones((1, 1, 1, 1))
        net = nn.Network((nn.Conv2d(one, np.zeros(1)), nn.Activation(),
                          nn.Conv2d(10 * one, np.zeros(1)), nn.Activation(),
                          nn.Flatten(), nn.Dense(np.ones((2, 4)),
                                                 np.zeros(2))), (1, 2, 2), 2)
        pann = tf.transform(net, tf.CompositeReLU(
            pa.build_appsgn(6, bound=5.0), tf.IntervalPolicy("error")))
        x = np.full((2 * nn.BLOCK + 30, 1, 2, 2), 0.9)
        x[nn.BLOCK + 3, 0, 1, 0] = 7.0  # the second block overflows layers[1]
        x[-1, 0, 0, 1] = -9.0  # and the third, further
        with pytest.raises(tf.IntervalOverflowError) as first:
            nn.infer(pann, x[:nn.BLOCK])
        assert str(first.value).startswith("layers[3]: ")
        with pytest.raises(tf.IntervalOverflowError) as want:
            nn.forward(pann, x)
        assert str(want.value).startswith("layers[1]: |z| reached 9 ")
        with pytest.raises(tf.IntervalOverflowError) as got:
            nn.infer(pann, x)
        assert str(got.value) == str(want.value)

    def test_calibrate_bound_is_the_trace_maximum(self, cnn, images):
        # 700 samples: a full and a partial 512-sample chunk, each in blocks
        assert tf.calibrate_bound(cnn, images) == \
            calibrate_bound_by_trace(cnn, images)

    @pytest.mark.parametrize("name", ["exact", "composite"])
    def test_infer_peak_below_one_conv_output(self, cnn, images, name):
        # one [500, 4, 24, 24] conv output is 9.2 MB; the unblocked pass
        # held two or more of them at once
        mode = nn.ExactReLU() if name == "exact" else tf.CompositeReLU(
            pa.build_appsgn(6, bound=tf.calibrate_bound(cnn, images[:256])))
        pann, x = tf.transform(cnn, mode), images[:500]
        peak = traced_peak(lambda: nn.infer(pann, x))
        assert peak < 9.2e6, peak

    def test_calibrate_peak_below_one_conv_output(self, cnn, images):
        x = images[:256]
        peak = traced_peak(lambda: tf.calibrate_bound(cnn, x))
        assert peak < 9.2e6, peak
