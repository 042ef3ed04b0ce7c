"""Fixed-point quantization and the shift-based ReLU sign test."""

import numpy as np
import pytest

from pannkit import fixedpoint as fp


class TestFormat:
    def test_split_is_even(self):
        f = fp.FixedPointFormat(8)
        assert f.total_bits - f.frac_bits == 4 and f.frac_bits == 4
        assert f.raw_min == -128 and f.raw_max == 127

    @pytest.mark.parametrize("bad", [7, 2, 34, 0])
    def test_invalid_widths_rejected(self, bad):
        with pytest.raises(ValueError):
            fp.FixedPointFormat(bad)

    @pytest.mark.parametrize("bad", ["x", 8.0, True, None])
    def test_non_integer_width_named(self, bad):
        with pytest.raises(ValueError, match="total_bits"):
            fp.FixedPointFormat(bad)


def _complement_code(raw: int, f: fp.FixedPointFormat) -> int:
    """The raw pattern as an unsigned l_x-bit word."""
    return raw & ((1 << f.total_bits) - 1)


class TestQuantize:
    def test_frozen_examples_lx8(self):
        """4.4 split: 2.5 -> raw 40; 2.53 -> raw 40; -1.25 -> raw -20 whose
        complement code is 0b11101100."""
        f = fp.FixedPointFormat(8)
        raw = fp.quantize_array(np.array([2.5, 2.53, -1.25]), f)
        assert raw.tolist() == [40, 40, -20]
        assert _complement_code(int(raw[2]), f) == 0b11101100

    def test_saturation(self):
        f = fp.FixedPointFormat(8)
        raw = fp.quantize_array(np.array([100.0, -100.0]), f)
        assert raw.tolist() == [127, -128]

    def test_quantization_error_below_lsb(self):
        f = fp.FixedPointFormat(12)
        xs = np.random.default_rng(0).uniform(-30, 30, 2000)
        raw = fp.quantize_array(xs, f)
        assert f.raw_min < raw.min() and raw.max() < f.raw_max  # unsaturated
        err = xs - raw / f.scale
        assert np.all(err >= 0) and np.all(err < 1.0 / f.scale)

    def test_array_matches_scalar(self):
        """Each entry as the floor of x * 2^5, saturated to [-512, 511],
        and as the same call gives it for that value alone."""
        f = fp.FixedPointFormat(10)
        xs = np.array([0.0, 0.1, -0.1, 15.9, -16.0, 200.0])
        raw = fp.quantize_array(xs, f)
        assert raw.tolist() == [0, 3, -4, 508, -512, 511]
        for x, r in zip(xs, raw):
            assert fp.quantize_array(float(x), f) == r


def _nonneg(raw: int, f: fp.FixedPointFormat) -> bool:
    return bool(fp._nonneg_by_shifts(np.array([raw]), f)[0])


class TestTruncationSign:
    def test_shift_example(self):
        """0b00001010 shifted right 4 gives 0, so 10 reads nonnegative."""
        f = fp.FixedPointFormat(8)
        assert _complement_code(10, f) >> 4 == 0
        assert _nonneg(10, f)

    def test_zero_is_nonnegative_at_shift_zero(self):
        f = fp.FixedPointFormat(8)
        assert _complement_code(0, f) >> 0 == 0
        assert _nonneg(0, f)

    def test_negative_never_vanishes(self):
        f = fp.FixedPointFormat(8)
        assert all(_complement_code(-1, f) >> k != 0 for k in range(8))
        assert not _nonneg(-1, f)

    @pytest.mark.parametrize("lx", [4, 6, 8])
    def test_vectorized_exhaustive_matches_sign_bit(self, lx):
        """Every raw value through the array simulation that TruncatedReLU
        runs: nonnegative exactly where the sign bit is clear."""
        f = fp.FixedPointFormat(lx)
        raw = np.arange(f.raw_min, f.raw_max + 1, dtype=np.int64)
        got = fp._nonneg_by_shifts(raw, f)
        assert got.shape == raw.shape
        assert np.array_equal(got, raw >= 0)


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
