"""Engine tests: forward semantics, gradients against finite differences,
optimizer arithmetic, checkpoint round-trips."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pannkit import nn
from pannkit.seeding import derive_rng

from oracles import sgd_step_reference, traced_peak


def fd_param_grads(net, x, y, kind="cross_entropy", h=1e-5):
    """Central-difference gradient oracle; touches no backprop code."""

    def loss_at():
        logits, _ = nn.forward(net, x)
        return nn.loss_and_logit_grad(logits, y, kind)[0]

    out = []
    for layer in net.layers:
        pg = {}
        for name, w in layer.params().items():
            flat = w.reshape(-1)
            g = np.zeros(flat.size)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                lp = loss_at()
                flat[j] = orig - h
                lm = loss_at()
                flat[j] = orig
                g[j] = (lp - lm) / (2.0 * h)
            pg[name] = g.reshape(w.shape)
        out.append(pg)
    return out


def max_rel_err(a, b, guard=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), guard)
    return float(np.max(np.abs(a - b) / denom))


def im2col_forward(layer, x):
    """Reference conv forward: the whole [N, C*kh*kw, OH*OW] patch matrix
    copied at once, one stacked matmul, the bias added to a second array."""
    f, c, kh, kw = layer.kernel.shape
    n, _, h, w = x.shape
    oh, ow = h - kh + 1, w - kw + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, oh, ow), (s0, s1, s2, s3, s2, s3), writeable=False)
    cols = windows.reshape(n, c * kh * kw, oh * ow)
    out = layer.kernel.reshape(f, -1) @ cols
    return out.reshape(n, f, oh, ow) + layer.b[None, :, None, None]


def col2im_input_grad(layer, x, gy):
    """Reference conv input gradient: the patch gradients added back
    sample- and channel-major, one (i, j) kernel offset at a time."""
    f, c, kh, kw = layer.kernel.shape
    n, _, oh, ow = gy.shape
    gcols = layer.kernel.reshape(f, -1).T @ gy.reshape(n, f, oh * ow)
    gcols = gcols.reshape(n, c, kh, kw, oh, ow)
    gx = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i:i + oh, j:j + ow] += gcols[:, :, i, j]
    return gx


def avgpool_reference(x, gy, p):
    """Forward as separate strided slice sums, each window row left to
    right, then the row sums top to bottom; backward as a repeat of gy."""
    total = None
    for i in range(p):
        row = x[:, :, i::p, 0::p]
        for j in range(1, p):
            row = row + x[:, :, i::p, j::p]
        total = row if total is None else total + row
    gx = np.repeat(np.repeat(gy, p, axis=2), p, axis=3) / (p * p)
    return total / (p * p), gx


class TestForward:
    def test_dense_matches_loop_oracle(self):
        """Vectorized dense forward equals an explicit per-element loop."""
        rng = np.random.default_rng(7)
        W = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        x = rng.normal(size=(5, 4))
        got = nn.Dense(W, b).forward(x)
        want = np.zeros((5, 3))
        for n in range(5):
            for o in range(3):
                want[n, o] = b[o]
                for i in range(4):
                    want[n, o] += W[o, i] * x[n, i]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_conv_matches_loop_oracle(self):
        """im2col convolution equals the quadruple-loop definition."""
        rng = np.random.default_rng(3)
        k = rng.normal(size=(2, 3, 3, 3))
        b = rng.normal(size=2)
        x = rng.normal(size=(2, 3, 6, 5))
        got = nn.Conv2d(k, b).forward(x)
        oh, ow = 4, 3
        want = np.zeros((2, 2, oh, ow))
        for n in range(2):
            for f in range(2):
                for i in range(oh):
                    for j in range(ow):
                        want[n, f, i, j] = b[f] + np.sum(
                            k[f] * x[n, :, i:i + 3, j:j + 3])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("layout", ["contiguous", "channel_slice",
                                        "transposed"])
    # valid, the only padding a checkpoint holds, stays in the test ids
    @pytest.mark.parametrize("padding", ["valid"])
    @pytest.mark.parametrize("c", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 31, 257, 512])
    def test_conv_bit_identical_to_im2col(self, n, c, padding, layout):
        # the two cnn:4,8+32 conv shapes; 257 and 512 samples span several
        # patch chunks and end on a partial and a full one
        hw, f = (28, 4) if c == 1 else (12, 8)
        rng = np.random.default_rng(100 * n + 10 * c + len(layout))
        layer = nn.Conv2d(rng.standard_normal((f, c, 5, 5)),
                          rng.standard_normal(f))
        if layout == "channel_slice":
            x = rng.standard_normal((n, 2 * c, hw, hw))[:, 1::2]
        elif layout == "transposed":
            x = rng.standard_normal((n, c, hw, hw)).transpose(0, 1, 3, 2)
        else:
            x = rng.standard_normal((n, c, hw, hw))
        x *= 10.0 ** rng.integers(-4, 4, size=x.shape)  # mixed magnitudes
        got = layer.forward(x)
        assert got.tobytes() == im2col_forward(layer, x).tobytes()

    def test_conv_forward_memory_does_not_grow_with_patches(self):
        # the first conv of cnn:4,8+32 at the eval batch of 512: its output
        # is 9.4 MB, the whole patch matrix would be 59 MB more
        net = nn.build_arch("cnn:4,8+32", (1, 28, 28), 10, seed=0)
        x = np.random.default_rng(0).standard_normal((512, 1, 28, 28))
        peak = traced_peak(lambda: net.layers[0].forward(x))
        assert peak < 16e6, peak

    def test_avgpool(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out = nn.AvgPool(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    @pytest.mark.parametrize("p", [2, 3, 8])
    @pytest.mark.parametrize("n", [1, 32])
    def test_avgpool_bit_identical_to_reshape_mean(self, p, n):
        rng = np.random.default_rng(10 * p + n)
        x = rng.standard_normal((n, 3, 4 * p, 2 * p))
        x *= 10.0 ** rng.integers(-4, 4, size=x.shape)  # mixed magnitudes
        # p >= 8 and a non-contiguous view take numpy's mean path
        view = x.transpose(0, 1, 3, 2).copy().transpose(0, 1, 3, 2)
        assert not view.flags.c_contiguous
        for inp in (x, view):
            want = inp.reshape(n, 3, 4, p, 2, p).mean(axis=(3, 5))
            assert np.array_equal(nn.AvgPool(p).forward(inp), want)

    @given(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_avgpool_bit_identical_to_old_formulas(self, p, n, oh, ow, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2, oh * p, ow * p))
        x *= 10.0 ** rng.integers(-4, 4, size=x.shape)  # mixed magnitudes
        gy = rng.standard_normal((n, 2, oh, ow))
        want_y, want_gx = avgpool_reference(x, gy, p)
        layer = nn.AvgPool(p)
        y = layer.forward(x)
        gx, _ = layer.backward(x, gy)
        assert y.tobytes() == want_y.tobytes()
        assert gx.shape == x.shape and gx.tobytes() == want_gx.tobytes()
        assert not np.shares_memory(y, x)  # p = 1 too
        assert not np.shares_memory(gx, gy)

    # valid, the only padding a checkpoint holds, stays in the test ids
    @pytest.mark.parametrize("padding", ["valid"])
    @pytest.mark.parametrize("c", [1, 4])
    @pytest.mark.parametrize("n", [1, 3, 32])
    def test_conv_input_grad_bit_identical_to_col2im(self, n, c, padding):
        hw, f = (28, 4) if c == 1 else (12, 8)
        rng = np.random.default_rng(10 * n + c)
        layer = nn.Conv2d(rng.standard_normal((f, c, 5, 5)),
                          rng.standard_normal(f))
        x = rng.standard_normal((n, c, hw, hw))
        gy = rng.standard_normal(layer.forward(x).shape)
        gy *= 10.0 ** rng.integers(-4, 4, size=gy.shape)
        gx, _ = layer.backward(x, gy)
        want = col2im_input_grad(layer, x, gy)
        assert gx.shape == x.shape
        assert gx.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_relu_subgradient_zero_at_zero(self):
        mode = nn.ExactReLU()
        z = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(mode.apply(z), [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(mode.grad(z), [0.0, 0.0, 1.0])

    def test_trace_holds_preactivations(self):
        net = nn.build_mlp((4,), [3, 3], 2, seed=1)
        x = np.ones((2, 4))
        logits, trace = nn.forward(net, x)
        assert len(trace) == 2
        # first trace entry is the first dense output
        np.testing.assert_array_equal(trace[0], net.layers[0].forward(x))

    def test_forward_is_pure(self):
        net = nn.build_mlp((4,), [5], 3, seed=2)
        x = np.random.default_rng(0).normal(size=(3, 4))
        a1, t1 = nn.forward(net, x)
        a2, t2 = nn.forward(net, x)
        np.testing.assert_array_equal(a1, a2)
        for u, v in zip(t1, t2):
            np.testing.assert_array_equal(u, v)

    def test_infer_is_forward_without_trace(self):
        net = nn.build_cnn((1, 8, 8), [2], 3, seed=3, kernel=3, pool=2)
        x = np.random.default_rng(1).normal(size=(4, 1, 8, 8))
        logits, _ = nn.forward(net, x)
        assert nn.infer(net, x).tobytes() == logits.tobytes()
        assert np.array_equal(nn.predict(net, x), np.argmax(logits, axis=1))
        with pytest.raises(nn.ShapeError) as exc:
            nn.infer(net, np.zeros((2, 1, 7, 8)))
        assert exc.value.layer_index == -1

    def test_shape_mismatch_names_layer(self):
        net = nn.build_mlp((4,), [5], 3, seed=2)
        with pytest.raises(nn.ShapeError) as exc:
            nn.forward(net, np.zeros((2, 7)))
        assert exc.value.layer_index == -1
        bad = nn.Network((nn.Dense(np.eye(4), np.zeros(4)),
                          nn.Dense(np.eye(3), np.zeros(3))), (4,), 3)
        with pytest.raises(nn.ShapeError) as exc:
            nn.forward(bad, np.zeros((2, 4)))
        assert exc.value.layer_index == 1


class TestLosses:
    def test_mse_scalar_example(self):
        """y = w*x, target 0, w=1, x=2: loss (wx)^2 = 4, dL/dw = 2*wx*x = 8."""
        net = nn.Network((nn.Dense(np.array([[1.0]]), np.zeros(1)),), (1,), 1)
        x = np.array([[2.0]])
        t = np.array([[0.0]])
        grads, loss = nn.backward(net, x, t, "mse")
        assert loss == pytest.approx(4.0)
        assert grads[0]["W"][0, 0] == pytest.approx(8.0)

    def test_cross_entropy_uniform_logits(self):
        logits = np.zeros((2, 4))
        y = np.array([0, 3])
        loss, g = nn.loss_and_logit_grad(logits, y, "cross_entropy")
        assert loss == pytest.approx(np.log(4.0))
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_soft_labels_accepted(self):
        logits = np.array([[2.0, 1.0]])
        t = np.array([[0.7, 0.3]])
        loss, _ = nn.loss_and_logit_grad(logits, t, "cross_entropy")
        p = np.exp([2.0, 1.0]) / np.exp([2.0, 1.0]).sum()
        assert loss == pytest.approx(-(0.7 * np.log(p[0]) + 0.3 * np.log(p[1])))

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 17), classes=st.integers(2, 10),
           kind=st.sampled_from(nn.LOSS_KINDS), soft=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_row_losses_equal_single_row_loss(self, rows, classes, kind,
                                              soft, seed):
        rng = np.random.default_rng(seed)
        logits = rng.standard_normal((rows, classes))
        logits *= 10.0 ** rng.integers(-3, 4, size=logits.shape)
        target = (rng.dirichlet(np.ones(classes), size=rows) if soft
                  else rng.integers(0, classes, size=rows))
        got, _ = nn.row_losses(logits, target, kind)
        assert got.shape == (rows,)
        want = [nn.loss_and_logit_grad(logits[i:i + 1], target[i:i + 1],
                                       kind)[0] for i in range(rows)]
        assert got.tolist() == want  # bit for bit, row by row

    def test_unknown_loss_kind(self):
        with pytest.raises(ValueError, match="unknown loss kind"):
            nn.row_losses(np.zeros((1, 2)), np.array([0]), "hinge")

    def test_non_finite_loss_rejected(self):
        net = nn.Network((nn.Dense(np.array([[np.inf]]), np.zeros(1)),),
                         (1,), 1)
        with pytest.raises(nn.NonFiniteLossError):
            nn.backward(net, np.array([[1.0]]), np.array([[0.0]]), "mse")


class TestArch:
    def test_parse(self):
        assert nn.parse_arch("mlp:256,256") == ("mlp", (256, 256), ())
        assert nn.parse_arch("mlp:") == ("mlp", (), ())
        assert nn.parse_arch("cnn:4,8+32") == ("cnn", (4, 8), (32,))
        assert nn.parse_arch("cnn:6") == ("cnn", (6,), ())

    @pytest.mark.parametrize("arch, match", [
        ("mlp:x", "bad architecture string 'mlp:x'"),
        ("mlp:8+4", "bad architecture string"),
        ("mlp:0", "integers >= 1"), ("cnn:4+-2", "integers >= 1"),
        ("cnn:", "a cnn needs a conv channel"),
        ("cnn:+32", "a cnn needs a conv channel"),
        ("rnn:3", "unknown architecture kind 'rnn'"),
        ("", "unknown architecture kind ''")])
    def test_bad_strings_rejected(self, arch, match):
        with pytest.raises(ValueError, match=match):
            nn.parse_arch(arch)
        with pytest.raises(ValueError, match=match):
            nn.build_arch(arch, (1, 28, 28), 10)

    def test_input_too_small_names_the_string(self):
        with pytest.raises(ValueError, match="bad architecture string"):
            nn.build_arch("cnn:4,8", (1, 8, 8), 10)


class TestGradients:
    """Backprop must agree with central finite differences."""

    @pytest.mark.parametrize("kind", ["cross_entropy", "mse"])
    def test_mlp_gradients(self, kind):
        rng = derive_rng(11, "test")
        net = nn.build_mlp((6,), [8, 5], 3, seed=11)
        x = rng.normal(size=(4, 6))
        y = rng.integers(0, 3, size=4)
        grads, _ = nn.backward(net, x, y, kind)
        want = fd_param_grads(net, x, y, kind)
        for g, w in zip(grads, want):
            for name in g:
                assert max_rel_err(g[name], w[name]) < 1e-4

    def test_cnn_gradients(self):
        rng = derive_rng(5, "test")
        net = nn.build_cnn((1, 8, 8), [2], 3, seed=5, kernel=3, pool=2)
        x = rng.normal(size=(2, 1, 8, 8))
        y = np.array([0, 2])
        grads, _ = nn.backward(net, x, y, "cross_entropy")
        want = fd_param_grads(net, x, y)
        for g, w in zip(grads, want):
            for name in g:
                assert max_rel_err(g[name], w[name]) < 1e-4

    def test_input_gradient_matches_fd(self):
        rng = derive_rng(9, "test")
        net = nn.build_mlp((5,), [6], 2, seed=9)
        x = rng.normal(size=(3, 5))
        y = np.array([0, 1, 1])
        gx, _ = nn.input_gradient(net, x, y)
        h = 1e-5
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            lp = nn.loss_and_logit_grad(nn.forward(net, xp)[0], y,
                                        "cross_entropy")[0]
            lm = nn.loss_and_logit_grad(nn.forward(net, xm)[0], y,
                                        "cross_entropy")[0]
            fd[idx] = (lp - lm) / (2 * h)
        assert max_rel_err(gx, fd) < 1e-4

    @pytest.mark.parametrize("net", [
        nn.build_cnn((1, 14, 14), [2, 3], 3, seed=4, kernel=3, pool=2,
                     dense_hidden=(5,)),
        nn.build_mlp((2, 3), [4], 3, seed=4)], ids=["cnn", "flatten-mlp"])
    def test_parameter_gradients_bit_identical_to_full_backprop(self, net):
        # backward stops below the first parameter layer; the gradients it
        # does compute must equal those of the pass that reaches dL/dx
        rng = derive_rng(4, "test")
        x = rng.normal(size=(5, *net.input_shape))
        y = rng.integers(0, 3, size=5)
        grads, loss = nn.backward(net, x, y)
        full, gx, full_loss, _ = nn._backprop(net, x, y, "cross_entropy")
        assert gx.shape == x.shape and loss == full_loss
        assert len(grads) == len(full)
        for g, f in zip(grads, full):
            assert g.keys() == f.keys()
            assert all(np.array_equal(g[k], f[k]) for k in g)

    def test_gradient_shapes_match_parameters(self):
        net = nn.build_cnn((1, 8, 8), [2], 3, seed=1, kernel=3)
        x = np.zeros((2, 1, 8, 8))
        grads, _ = nn.backward(net, x, np.array([0, 1]))
        for layer, pg in zip(net.layers, grads):
            for name, w in layer.params().items():
                assert pg[name].shape == w.shape


class TestSgd:
    def test_single_step_no_momentum(self):
        """lr=0.1, w=1, g=1, no decay: w' = 0.9."""
        net = nn.Network((nn.Dense(np.array([[1.0]]), np.array([0.0])),),
                         (1,), 1)
        grads = [{"W": np.array([[1.0]]), "b": np.array([0.0])}]
        out = nn.sgd_step(net, grads, nn.SgdState(lr=0.1))
        assert out.layers[0].W[0, 0] == pytest.approx(0.9)

    def test_pure_decay_step(self):
        """g=0, wd=0.5, lr=1, w=2: w' = 2 - 1*(0.5*2) = 1."""
        net = nn.Network((nn.Dense(np.array([[2.0]]), np.array([0.0])),),
                         (1,), 1)
        grads = [{"W": np.array([[0.0]]), "b": np.array([0.0])}]
        out = nn.sgd_step(net, grads, nn.SgdState(lr=1.0, weight_decay=0.5))
        assert out.layers[0].W[0, 0] == pytest.approx(1.0)

    def test_two_momentum_steps_match_hand_unrolled(self):
        """mu=0.9 velocity recurrence, checked against plain-float arithmetic."""
        w0, g1, g2 = 1.0, 0.3, -0.2
        lr, mu, wd = 0.1, 0.9, 0.01
        net = nn.Network((nn.Dense(np.array([[w0]]), np.array([0.0])),),
                         (1,), 1)
        state = nn.SgdState(lr=lr, momentum=mu, weight_decay=wd)
        net = nn.sgd_step(net, [{"W": np.array([[g1]]), "b": np.array([0.0])}],
                          state)
        net = nn.sgd_step(net, [{"W": np.array([[g2]]), "b": np.array([0.0])}],
                          state)
        v1 = g1 + wd * w0
        w1 = w0 - lr * v1
        v2 = mu * v1 + (g2 + wd * w1)
        w2 = w1 - lr * v2
        assert net.layers[0].W[0, 0] == w2

    def test_step_does_not_mutate_input_network(self):
        net = nn.build_mlp((3,), [4], 2, seed=0)
        before = [l.W.copy() for l in net.layers if isinstance(l, nn.Dense)]
        grads, _ = nn.backward(net, np.ones((2, 3)), np.array([0, 1]))
        nn.sgd_step(net, grads, nn.SgdState(lr=0.5))
        after = [l.W for l in net.layers if isinstance(l, nn.Dense)]
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_velocity_updated_in_place_params_donated(self):
        net = nn.build_mlp((3,), [4], 2, seed=0)
        state = nn.SgdState(lr=0.5, momentum=0.9)
        x, y = np.ones((2, 3)), np.array([0, 1])
        grads, _ = nn.backward(net, x, y)
        net1 = nn.sgd_step(net, grads, state)
        assert net1.layers[0].W is grads[0]["W"]
        v = state.velocities[(0, "W")]
        grads, _ = nn.backward(net, x, y)  # the first step consumed its own
        expect = 0.9 * v + grads[0]["W"]
        donated = grads[0]["W"]
        net2 = nn.sgd_step(net1, grads, state)
        assert state.velocities[(0, "W")] is v
        assert np.array_equal(v, expect)
        assert net2.layers[0].W is not net1.layers[0].W
        assert net2.layers[0].W is donated
        assert np.array_equal(net2.layers[0].W, net1.layers[0].W - 0.5 * v)

    @staticmethod
    def _snapshot(net) -> list:
        return [w.tobytes() for l in net.layers for w in l.params().values()]

    @staticmethod
    def _copies(grads) -> list:
        return [{k: g.copy() for k, g in pg.items()} for pg in grads]

    def test_step_writes_only_gradients_it_may_own(self):
        # gradients that alias the input network's parameters (as the same
        # list does when passed again, once a step made its buffers the
        # parameters), the velocities or one another, and read-only,
        # Fortran-order or float32 ones, are read, never written: each
        # step gives the reference step's bytes on copies
        x, y = np.ones((2, 4)), np.array([0, 1])
        net = nn.build_mlp((4,), [4], 4, seed=0)
        state = nn.SgdState(lr=0.5, momentum=0.9, weight_decay=1e-3)
        grads, _ = nn.backward(net, x, y)
        net = nn.sgd_step(net, grads, state)
        pg, _, _ = nn.backward(net, x, y)[0]
        cases = {
            "parameters": lambda st: [l.params() for l in net.layers],
            "the same list again": lambda st: grads,
            "velocities": lambda st: [{k: st.velocities[i, k]
                                       for k in l.params()}
                                      for i, l in enumerate(net.layers)],
            "one another": lambda st: [pg, {}, dict(pg)],
            "read-only": lambda st: [{k: np.frombuffer(g.tobytes()).reshape(
                g.shape) for k, g in d.items()} for d in grads],
            "Fortran order": lambda st: [{k: np.asfortranarray(g)
                                          for k, g in d.items()}
                                         for d in grads],
            "float32": lambda st: [{k: g.astype(np.float32)
                                    for k, g in d.items()} for d in grads]}
        before = self._snapshot(net)
        for case, make in cases.items():
            got_state, want_state = (replace(state, velocities={
                k: v.copy() for k, v in state.velocities.items()})
                for _ in range(2))
            want = sgd_step_reference(net, self._copies(make(want_state)),
                                      want_state)
            got = nn.sgd_step(net, make(got_state), got_state)
            assert self._snapshot(net) == before, case
            assert self._snapshot(got) == self._snapshot(want), case
            assert all(got_state.velocities[k].tobytes() == v.tobytes()
                       for k, v in want_state.velocities.items()), case

    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_blocked_step_bit_identical_to_whole_array(self, momentum,
                                                       weight_decay):
        # W has 256 * 784 = 200,704 values, six full blocks and a partial
        # one; the milestone changes the rate in the middle of the run
        assert (256 * 784) % nn.SGD_BLOCK
        rng = np.random.default_rng(int(momentum * 10) + (weight_decay > 0))
        net = nn.Network((nn.Dense(rng.standard_normal((256, 784)),
                                   rng.standard_normal(256)),), (784,), 256)
        got_net, want_net = net, net
        kw = dict(lr=0.05, momentum=momentum, weight_decay=weight_decay,
                  milestones=(2,))
        got_state, want_state = nn.SgdState(**kw), nn.SgdState(**kw)
        for k in range(5):
            got_state.epoch = want_state.epoch = k
            grads = [{"W": rng.standard_normal((256, 784))
                      * 10.0 ** rng.integers(-4, 4, size=(256, 784)),
                      "b": rng.standard_normal(256)}]
            # taken before the step, which writes into its gradients
            want_grads = self._copies(grads)
            got_net = nn.sgd_step(got_net, grads, got_state)
            want_net = sgd_step_reference(want_net, want_grads, want_state)
            for name, w in got_net.layers[0].params().items():
                assert w.tobytes() == \
                    want_net.layers[0].params()[name].tobytes()
                assert got_state.velocities[0, name].tobytes() == \
                    want_state.velocities[0, name].tobytes()

    def test_second_step_peak_is_its_scratch(self):
        # a step on fresh gradients writes the new parameters into them,
        # so it allocates only its SGD_BLOCK scratch (the parameters are
        # 2.15 MB; a step into fresh arrays peaked at 2.4 MB)
        net = nn.build_arch("mlp:256,256", (1, 28, 28), 10, seed=0)
        x = np.random.default_rng(0).standard_normal((32, 1, 28, 28))
        y = np.arange(32) % 10
        grads, _ = nn.backward(net, x, y)
        state = nn.SgdState(lr=0.1, momentum=0.9, weight_decay=1e-3)
        net = nn.sgd_step(net, grads, state)
        grads, _ = nn.backward(net, x, y)
        scratch = nn.SGD_BLOCK * np.dtype(nn.DTYPE).itemsize
        peak = traced_peak(lambda: nn.sgd_step(net, grads, state))
        assert peak < scratch + 50_000, (peak, scratch)

    def test_lr_schedule_milestones(self):
        s = nn.SgdState(lr=0.1, milestones=(10, 20), gamma=0.1)
        assert s.lr_at(0) == pytest.approx(0.1)
        assert s.lr_at(10) == pytest.approx(0.01)
        assert s.lr_at(25) == pytest.approx(0.001)

    def test_identical_seeds_identical_steps(self):
        def run():
            net = nn.build_mlp((4,), [6], 3, seed=42)
            state = nn.SgdState(lr=0.05, momentum=0.9)
            x = derive_rng(1, "data").normal(size=(8, 4))
            y = derive_rng(1, "labels").integers(0, 3, size=8)
            for _ in range(3):
                grads, _ = nn.backward(net, x, y)
                net = nn.sgd_step(net, grads, state)
            return nn.forward(net, x)[0]

        np.testing.assert_array_equal(run(), run())


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path):
        net = nn.build_cnn((1, 10, 10), [3], 4, seed=8, kernel=3,
                           dense_hidden=(7,))
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(nn.network_to_dict(net)))
        back = nn.network_from_dict(json.loads(path.read_text()))
        assert back.input_shape == net.input_shape
        assert back.n_classes == net.n_classes
        for a, b in zip(net.layers, back.layers):
            assert type(a) is type(b)
            for name, w in a.params().items():
                assert np.array_equal(w, b.params()[name])
                assert w.dtype == b.params()[name].dtype
        x = derive_rng(0, "x").normal(size=(2, 1, 10, 10))
        np.testing.assert_array_equal(nn.forward(net, x)[0],
                                      nn.forward(back, x)[0])

    def test_transformed_network_refused(self):
        from pannkit import transform as tf
        pann = tf.transform(nn.build_mlp((3,), [2], 2, seed=0),
                            tf.InjectedReLU(6))
        with pytest.raises(ValueError, match=r"layers\[1\]: .*backbone"):
            nn.network_to_dict(pann)

    def test_loading_needs_no_other_module(self):
        """In a process that imports only pannkit.nn, a backbone loads and
        a PANN slot gets the error it gets here, where transform is
        imported."""
        from pannkit import transform as tf
        doc = nn.network_to_dict(nn.build_mlp((3,), [2], 2, seed=0))
        doc["layers"][1]["mode"] = tf.InjectedReLU(6).descriptor()
        with pytest.raises(ValueError) as here:
            nn.network_from_dict(doc)
        script = """if True:
            import json, sys
            from pannkit import nn
            doc = json.loads(sys.argv[1])
            nn.network_from_dict(dict(doc, layers=[
                l if l["kind"] != "activation" else dict(
                    l, mode={"kind": "exact_relu"}) for l in doc["layers"]]))
            try:
                nn.network_from_dict(doc)
            except ValueError as exc:
                print(exc)
            print(sorted(m for m in sys.modules if m.startswith("pannkit")))
            """
        src = str(Path(nn.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", script, json.dumps(doc)],
                             env=env, capture_output=True, text=True,
                             check=True).stdout.splitlines()
        assert out == [str(here.value), str(["pannkit", "pannkit.nn",
                                             "pannkit.seeding"])]

    def test_truncated_payload_rejected(self, tmp_path):
        net = nn.build_mlp((3,), [2], 2, seed=0)
        doc = nn.network_to_dict(net)
        doc["layers"][0]["W"]["shape"] = [5, 5]
        with pytest.raises(ValueError, match="payload"):
            nn.network_from_dict(doc)
