"""Fixed-point quantization and the shift-based ReLU sign test."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pannkit import fixedpoint as fp


class TestFormat:
    def test_split_is_even(self):
        f = fp.FixedPointFormat(8)
        assert f.int_bits == 4 and f.frac_bits == 4
        assert f.raw_min == -128 and f.raw_max == 127

    @pytest.mark.parametrize("bad", [7, 2, 34, 0])
    def test_invalid_widths_rejected(self, bad):
        with pytest.raises(ValueError):
            fp.FixedPointFormat(bad)

    @pytest.mark.parametrize("bad", ["x", 8.0, True, None])
    def test_non_integer_width_named(self, bad):
        with pytest.raises(ValueError, match="total_bits"):
            fp.FixedPointFormat(bad)


class TestQuantize:
    def test_frozen_examples_lx8(self):
        """4.4 split: 2.5 -> raw 40; 2.53 -> raw 40; -1.25 -> raw -20 whose
        complement code is 0b11101100."""
        f = fp.FixedPointFormat(8)
        assert fp.quantize(2.5, f).raw == 40
        assert fp.quantize(2.53, f).raw == 40
        v = fp.quantize(-1.25, f)
        assert v.raw == -20
        assert v.complement_code == 0b11101100

    def test_saturation(self):
        f = fp.FixedPointFormat(8)
        assert fp.quantize(100.0, f).raw == 127
        assert fp.quantize(-100.0, f).raw == -128

    def test_quantization_error_below_lsb(self):
        f = fp.FixedPointFormat(12)
        xs = np.random.default_rng(0).uniform(-30, 30, 2000)
        raw = fp.quantize_array(xs, f)
        assert f.raw_min < raw.min() and raw.max() < f.raw_max  # unsaturated
        err = xs - raw / f.scale
        assert np.all(err >= 0) and np.all(err < 1.0 / f.scale)

    def test_array_matches_scalar(self):
        f = fp.FixedPointFormat(10)
        xs = np.array([0.0, 0.1, -0.1, 15.9, -16.0, 200.0])
        raw = fp.quantize_array(xs, f)
        for x, r in zip(xs, raw):
            assert fp.quantize(float(x), f).raw == r


class TestTruncationSign:
    def test_shift_example(self):
        """0b00001010 shifted right 4 gives 0, so 10 reads nonnegative."""
        f = fp.FixedPointFormat(8)
        v = fp.FixedValue(raw=10, fmt=f)
        shares = fp.truncation_shares(v)
        assert shares[4] == 0
        assert fp.truncation_sign(v) == fp.NONNEGATIVE

    def test_zero_is_nonnegative_at_shift_zero(self):
        f = fp.FixedPointFormat(8)
        v = fp.FixedValue(raw=0, fmt=f)
        assert fp.truncation_shares(v)[0] == 0
        assert fp.truncation_sign(v) == fp.NONNEGATIVE

    def test_negative_never_vanishes(self):
        f = fp.FixedPointFormat(8)
        v = fp.FixedValue(raw=-1, fmt=f)
        assert all(s != 0 for s in fp.truncation_shares(v))
        assert fp.truncation_sign(v) == fp.NEGATIVE

    @pytest.mark.parametrize("lx", [4, 6, 8])
    def test_exhaustive_matches_sign_bit(self, lx):
        """Every raw value: the share simulation equals the sign bit."""
        f = fp.FixedPointFormat(lx)
        for raw in range(f.raw_min, f.raw_max + 1):
            got = fp.truncation_sign(fp.FixedValue(raw=raw, fmt=f))
            want = fp.NONNEGATIVE if raw >= 0 else fp.NEGATIVE
            assert got == want, raw

    @pytest.mark.parametrize("lx", [4, 6, 8])
    def test_vectorized_exhaustive_matches_sign_bit(self, lx):
        """Every raw value through the array simulation that TruncatedReLU
        runs: nonnegative exactly where the sign bit is clear."""
        f = fp.FixedPointFormat(lx)
        raw = np.arange(f.raw_min, f.raw_max + 1, dtype=np.int64)
        got = fp._nonneg_by_shifts(raw, f)
        assert got.shape == raw.shape
        assert np.array_equal(got, raw >= 0)

    @given(st.integers(min_value=4, max_value=16).filter(lambda v: v % 2 == 0),
           st.integers())
    @settings(max_examples=200, deadline=None)
    def test_vectorized_agrees_with_scalar(self, lx, seed):
        f = fp.FixedPointFormat(lx)
        rng = np.random.default_rng(abs(seed) % 2 ** 32)
        raw = rng.integers(f.raw_min, f.raw_max + 1, size=32, dtype=np.int64)
        vec = fp._nonneg_by_shifts(raw, f)
        for r, nn_flag in zip(raw, vec):
            want = fp.truncation_sign(fp.FixedValue(raw=int(r), fmt=f))
            assert (want == fp.NONNEGATIVE) == bool(nn_flag)


class TestTruncatedReLUMode:
    def test_forward_gates_by_sign(self):
        mode = fp.TruncatedReLU(fp.FixedPointFormat(8))
        z = np.array([-2.0, -0.01, 0.0, 0.26, 3.0])
        out = mode.apply(z)
        np.testing.assert_allclose(out, [0.0, 0.0, 0.0, 0.25, 3.0])

    def test_saturation_clips_to_raw_range(self):
        fmt = fp.FixedPointFormat(8)
        out = fp.TruncatedReLU(fmt).apply(np.array([100.0, 1.0]))
        np.testing.assert_array_equal(out, [fmt.raw_max / fmt.scale, 1.0])

    def test_network_eval_matches_backbone_when_wide(self):
        """32-bit words resolve these small activations exactly enough that
        predictions cannot move."""
        from pannkit import nn
        from pannkit.transform import transform
        net = nn.build_mlp((4,), [8], 3, seed=3)
        x = np.random.default_rng(1).uniform(-1, 1, size=(64, 4))
        y = nn.predict(net, x)
        swapped = transform(net, fp.TruncatedReLU(fp.FixedPointFormat(32)))
        acc = float(np.mean(nn.predict(swapped, x) == y))
        assert acc == 1.0
