"""Tests for the binary direct convolution paths."""

import numpy as np
import pytest

from bitflow.binconv import (
    ConvSpec,
    conv_float_oracle,
    conv_fused,
    conv_i8,
    conv_i32,
    default_tile_rows,
    output_shape,
    staged_conv_i8,
)
from bitflow.bitcore import I8FeatureMap, pack_activations, pack_weights
from bitflow.bnquant import LE, BNParams, ThresholdParams, compute_threshold

# every narrow word width (8/16/32/64 bits) at and just past its capacity,
# plus a two-word site
EDGE_CHANNELS = [1, 7, 8, 9, 16, 17, 32, 33, 64, 65]


def perelement_conv(a, w, spec):
    """Fully scalar direct convolution; cross-checks the vectorized oracle."""
    n, oh, ow, out = output_shape(a.shape, w.shape, spec)
    _, fh, fw, cin = w.shape
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    res = np.zeros((n, oh, ow, out), dtype=np.int64)
    for b in range(n):
        for y in range(oh):
            for x in range(ow):
                for o in range(out):
                    s = 0
                    for i in range(fh):
                        for j in range(fw):
                            iy, ix = y * sh + i - ph, x * sw + j - pw
                            for c in range(cin):
                                if 0 <= iy < a.shape[1] and 0 <= ix < a.shape[2]:
                                    av = a[b, iy, ix, c]
                                else:
                                    av = -1
                                s += int(av) * int(w[o, i, j, c])
                    res[b, y, x, o] = s
    return res


def random_case(rng, max_c=64, max_hw=10, max_out=6):
    fh = int(rng.choice([1, 3, 5]))
    fw = int(rng.choice([1, 3, 5]))
    h = int(rng.integers(fh, max_hw + 1))
    w = int(rng.integers(fw, max_hw + 1))
    cin = int(rng.integers(1, max_c + 1))
    out = int(rng.integers(1, max_out + 1))
    n = int(rng.integers(1, 3))
    spec = ConvSpec(
        stride=(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
        spatial_pad=(int(rng.integers(0, 2)), int(rng.integers(0, 2))),
    )
    a = rng.choice([-1, 1], size=(n, h, w, cin)).astype(np.int8)
    kw = rng.choice([-1, 1], size=(out, fh, fw, cin)).astype(np.int8)
    return a, kw, spec


def oracle_i8(vals, thr, w, spec):
    """Binarize by sign or by the two-comparison threshold definition, then
    run the dense oracle and clamp."""
    if thr is None:
        bits = vals >= 0
    else:
        bits = np.where(thr.direction == LE, vals <= thr.tau, vals >= thr.tau)
    a = np.where(bits, 1, -1).astype(np.int8)
    return np.clip(conv_float_oracle(a, w, spec).values, -127, 127)


class TestOracle:
    def test_single_tap_identity(self):
        a = np.ones((1, 1, 1, 1), dtype=np.int8)
        w = np.ones((1, 1, 1, 1), dtype=np.int8)
        out = conv_float_oracle(a, w, ConvSpec())
        assert out.values[0, 0, 0, 0] == 1

    def test_all_plus_kernel_on_minus_input(self):
        a = -np.ones((1, 3, 3, 1), dtype=np.int8)
        w = np.ones((1, 3, 3, 1), dtype=np.int8)
        out = conv_float_oracle(a, w, ConvSpec())
        assert out.values[0, 0, 0, 0] == -9

    def test_against_perelement_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            a, w, spec = random_case(rng, max_c=5, max_hw=6, max_out=3)
            got = conv_float_oracle(a, w, spec).values
            assert np.array_equal(got, perelement_conv(a, w, spec))

    @pytest.mark.parametrize("fh,fw,cin", [(1, 1, 1 << 24), (4096, 4096, 1), (2, 4096, 2048)])
    def test_rejects_inexact_tap_counts(self, fh, fw, cin):
        # 2**24 taps or more could round in float32; broadcast operands
        # keep the test from allocating them
        a = np.broadcast_to(np.int8(1), (1, 1, 1, cin))
        w = np.broadcast_to(np.int8(1), (1, fh, fw, cin))
        spec = ConvSpec(spatial_pad=(fh // 2, fw // 2))
        with pytest.raises(ValueError, match="2\\*\\*24"):
            conv_float_oracle(a, w, spec)

    def test_rejects_non_binary(self):
        a = np.zeros((1, 2, 2, 1), dtype=np.int8)
        w = np.ones((1, 1, 1, 1), dtype=np.int8)
        with pytest.raises(ValueError):
            conv_float_oracle(a, w, ConvSpec())


class TestConvI32:
    def test_full_match_patch(self):
        # a 3x3x128 patch convolved with an identical kernel sums to +1152
        rng = np.random.default_rng(1)
        patch = rng.choice([-1, 1], size=(1, 3, 3, 128)).astype(np.int8)
        k = pack_weights(patch.reshape(1, 3, 3, 128))
        out = conv_i32(pack_activations(patch), k, ConvSpec())
        assert out.values[0, 0, 0, 0] == 1152

    def test_complement_patch(self):
        rng = np.random.default_rng(2)
        patch = rng.choice([-1, 1], size=(1, 3, 3, 128)).astype(np.int8)
        k = pack_weights(-patch.reshape(1, 3, 3, 128))
        out = conv_i32(pack_activations(patch), k, ConvSpec())
        assert out.values[0, 0, 0, 0] == -1152

    def test_matches_oracle_small(self):
        rng = np.random.default_rng(3)
        a = rng.choice([-1, 1], size=(1, 5, 5, 8)).astype(np.int8)
        w = rng.choice([-1, 1], size=(2, 3, 3, 8)).astype(np.int8)
        spec = ConvSpec()
        got = conv_i32(pack_activations(a), pack_weights(w), spec)
        assert np.array_equal(got.values, conv_float_oracle(a, w, spec).values)

    def test_matches_oracle_sweep(self):
        rng = np.random.default_rng(0xB17F10)
        for _ in range(120):
            a, w, spec = random_case(rng)
            got = conv_i32(pack_activations(a), pack_weights(w), spec)
            want = conv_float_oracle(a, w, spec)
            assert np.array_equal(got.values, want.values)

    @pytest.mark.parametrize("channels", [192, 256, 320, 512, 777])
    def test_wide_channel_full_match(self, channels):
        # per-site match totals far beyond one byte must not wrap
        a = np.ones((1, 3, 3, channels))
        k = pack_weights(np.ones((1, 3, 3, channels)))
        out = conv_i32(pack_activations(a), k, ConvSpec())
        assert out.values[0, 0, 0, 0] == 9 * channels

    def test_wide_channel_oracle_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            c = int(rng.integers(100, 700))
            a = rng.choice([-1, 1], size=(1, 6, 6, c)).astype(np.int8)
            w = rng.choice([-1, 1], size=(3, 3, 3, c)).astype(np.int8)
            spec = ConvSpec(spatial_pad=(1, 1))
            got = conv_i32(pack_activations(a), pack_weights(w), spec)
            assert np.array_equal(got.values, conv_float_oracle(a, w, spec).values)

    def test_parity_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, w, spec = random_case(rng)
            vals = conv_i32(pack_activations(a), pack_weights(w), spec).values
            k = w.shape[1] * w.shape[2] * w.shape[3]
            assert np.all(vals % 2 == k % 2)

    def test_channel_mismatch(self):
        x = pack_activations(np.ones((1, 4, 4, 8)))
        k = pack_weights(np.ones((1, 3, 3, 9)))
        with pytest.raises(ValueError):
            conv_i32(x, k, ConvSpec())

    def test_non_positive_output(self):
        x = pack_activations(np.ones((1, 2, 2, 4)))
        k = pack_weights(np.ones((1, 3, 3, 4)))
        with pytest.raises(ValueError):
            conv_i32(x, k, ConvSpec())

    def test_threaded_identical(self):
        rng = np.random.default_rng(10)
        a = rng.choice([-1, 1], size=(2, 12, 9, 40)).astype(np.int8)
        w = rng.choice([-1, 1], size=(5, 3, 3, 40)).astype(np.int8)
        spec = ConvSpec(stride=(2, 1), spatial_pad=(1, 1))
        x, k = pack_activations(a), pack_weights(w)
        base = conv_i32(x, k, spec).values
        for threads in (2, 3, 7):
            assert np.array_equal(conv_i32(x, k, spec, threads=threads).values, base)


class TestConvI8:
    def test_clamp_law(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            a, w, spec = random_case(rng, max_c=64)
            x, k = pack_activations(a), pack_weights(w)
            wide = conv_i32(x, k, spec).values
            narrow = conv_i8(x, k, spec).values
            assert np.array_equal(narrow, np.clip(wide, -127, 127))
            assert narrow.min() >= -127

    def test_saturation_values(self):
        # all-match 3x3x25 kernel: sum 225 -> 127; complement: -225 -> -127
        a = np.ones((1, 3, 3, 25), dtype=np.int8)
        spec = ConvSpec()
        up = conv_i8(pack_activations(a), pack_weights(np.ones((1, 3, 3, 25))), spec)
        down = conv_i8(pack_activations(a), pack_weights(-np.ones((1, 3, 3, 25))), spec)
        assert up.values[0, 0, 0, 0] == 127
        assert down.values[0, 0, 0, 0] == -127

    def test_in_range_identity(self):
        # 10x10 all-match kernel: sum 100 stays 100
        a = np.ones((1, 10, 10, 1), dtype=np.int8)
        k = pack_weights(np.ones((1, 10, 10, 1)))
        out = conv_i8(pack_activations(a), k, ConvSpec())
        assert out.values[0, 0, 0, 0] == 100


class TestConvFused:
    def _random_threshold(self, rng, channels):
        p = BNParams(
            gamma=rng.uniform(-3, 3, channels) + 0.1,
            beta=rng.uniform(-5, 5, channels),
            mu=rng.uniform(-20, 20, channels),
            sigma=rng.uniform(0.5, 5, channels),
        )
        return compute_threshold(p)

    def test_figure_dims(self):
        # 7x7x3 input, two 3x3 kernels, no padding -> 5x5x2
        x = I8FeatureMap(np.ones((1, 7, 7, 3), dtype=np.int8))
        k = pack_weights(np.ones((2, 3, 3, 3)))
        out = conv_fused(x, None, k, ConvSpec())
        assert out.dims == (1, 5, 5, 2)

    def test_whole_image_tile_matches_staged(self):
        rng = np.random.default_rng(20)
        vals = rng.integers(-127, 128, size=(1, 8, 8, 12)).astype(np.int8)
        x = I8FeatureMap(vals)
        k = pack_weights(rng.standard_normal((3, 3, 3, 12)))
        spec = ConvSpec(spatial_pad=(1, 1))
        fused = conv_fused(x, None, k, spec, tile_rows=10_000)
        assert np.array_equal(fused.values, staged_conv_i8(x, None, k, spec).values)

    @pytest.mark.parametrize("tile_rows", [1, 2, 4, None])
    def test_tiled_matches_staged(self, tile_rows):
        rng = np.random.default_rng(21)
        for _ in range(6):
            vals = rng.integers(-127, 128, size=(2, 9, 7, 20)).astype(np.int8)
            x = I8FeatureMap(vals)
            k = pack_weights(rng.standard_normal((4, 3, 3, 20)))
            spec = ConvSpec(stride=(2, 1), spatial_pad=(1, 1))
            thr = self._random_threshold(rng, 20)
            fused = conv_fused(x, thr, k, spec, tile_rows=tile_rows)
            staged = staged_conv_i8(x, thr, k, spec)
            assert np.array_equal(fused.values, staged.values)

    def test_threaded_tiles_identical(self):
        rng = np.random.default_rng(22)
        vals = rng.integers(-127, 128, size=(1, 16, 16, 33)).astype(np.int8)
        x = I8FeatureMap(vals)
        k = pack_weights(rng.standard_normal((6, 3, 3, 33)))
        spec = ConvSpec(spatial_pad=(1, 1))
        base = conv_fused(x, None, k, spec, tile_rows=3).values
        got = conv_fused(x, None, k, spec, tile_rows=3, threads=4).values
        assert np.array_equal(got, base)

    def test_threshold_shape_mismatch(self):
        rng = np.random.default_rng(23)
        x = I8FeatureMap(np.zeros((1, 4, 4, 8), dtype=np.int8))
        k = pack_weights(rng.standard_normal((2, 3, 3, 8)))
        thr = self._random_threshold(rng, 5)
        with pytest.raises(ValueError):
            conv_fused(x, thr, k, ConvSpec())

    def test_default_tile_rows_positive(self):
        k = pack_weights(np.ones((64, 3, 3, 256)))
        assert default_tile_rows((1, 56, 56, 256), k, ConvSpec(spatial_pad=(1, 1))) >= 1

    def test_default_tile_rows_counts_batch(self):
        # the toy-VGG stem: 16x16x8 input, 64 3x3 filters
        k = pack_weights(np.ones((64, 3, 3, 8)))
        spec = ConvSpec(spatial_pad=(1, 1))
        picks = [default_tile_rows((n, 16, 16, 8), k, spec) for n in (1, 2, 8, 100, 400)]
        assert picks[0] == 193  # (32768 - 4608) // 144 budget rows, minus fh - 1
        assert picks[0] > picks[1] > picks[2] > picks[3] >= picks[4] >= 1

    @pytest.mark.parametrize("tile_rows", [1, None])
    def test_many_taps_all_match(self, tile_rows):
        # the toy-VGG accumulator's 8x8 stride-8 filter: 64 taps, one channel
        x = I8FeatureMap(np.ones((2, 16, 16, 1), dtype=np.int8))
        k = pack_weights(np.ones((3, 8, 8, 1)))
        spec = ConvSpec(stride=(8, 8))
        fused = conv_fused(x, None, k, spec, tile_rows=tile_rows).values
        assert np.array_equal(fused, staged_conv_i8(x, None, k, spec).values)
        assert (fused == 64).all()

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("cin,f,stride", [(64, 8, 8), (200, 8, 8), (200, 3, 1), (257, 6, 2)])
    def test_many_taps_and_wide_channels_match_staged(self, tile_rows, cin, f, stride):
        rng = np.random.default_rng(cin * f)
        for _ in range(3):
            vals = rng.integers(-127, 128, size=(2, 16, 16, cin)).astype(np.int8)
            x = I8FeatureMap(vals)
            k = pack_weights(rng.standard_normal((4, f, f, cin)))
            spec = ConvSpec(stride=(stride, stride), spatial_pad=(1, 1))
            thr = self._random_threshold(rng, cin)
            for t in (thr, None):
                fused = conv_fused(x, t, k, spec, tile_rows=tile_rows)
                assert np.array_equal(fused.values, staged_conv_i8(x, t, k, spec).values)

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("cin", EDGE_CHANNELS)
    def test_word_widths_match_staged_and_oracle(self, tile_rows, cin):
        rng = np.random.default_rng(100 + cin)
        vals = rng.integers(-127, 128, size=(2, 7, 6, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        w = rng.choice([-1, 1], size=(5, 3, 3, cin)).astype(np.int8)
        k = pack_weights(w)
        spec = ConvSpec(stride=(2, 1), spatial_pad=(1, 1))
        for thr in (None, self._random_threshold(rng, cin)):
            fused = conv_fused(x, thr, k, spec, tile_rows=tile_rows).values
            assert np.array_equal(fused, staged_conv_i8(x, thr, k, spec).values)
            assert np.array_equal(fused, oracle_i8(vals, thr, w, spec))

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("cin", EDGE_CHANNELS)
    def test_word_widths_all_ones(self, tile_rows, cin):
        # every channel of every tap matches (or none does): +-25*cin, clamped
        x = I8FeatureMap(np.ones((1, 6, 6, cin), dtype=np.int8))
        spec = ConvSpec()
        for sign in (1, -1):
            w = sign * np.ones((2, 5, 5, cin), dtype=np.int8)
            k = pack_weights(w)
            fused = conv_fused(x, None, k, spec, tile_rows=tile_rows).values
            assert np.array_equal(fused, staged_conv_i8(x, None, k, spec).values)
            assert np.array_equal(fused, oracle_i8(x.values, None, w, spec))
            assert (fused == np.clip(sign * 25 * cin, -127, 127)).all()

    @pytest.mark.parametrize("tile_rows", [1, None])
    def test_more_taps_than_one_lane_drain(self, tile_rows):
        # a 1x1100 filter over 64 channels: 70,400 matches per site overflow
        # a uint16 lane unless it drains every 1023 taps
        x = I8FeatureMap(np.ones((1, 1, 1100, 64), dtype=np.int8))
        w = np.ones((2, 1, 1100, 64), dtype=np.int8)
        k = pack_weights(w)
        spec = ConvSpec()
        always = ThresholdParams(np.full(64, -3, dtype=np.int16), np.zeros(64, dtype=np.uint8))
        for thr in (None, always):
            fused = conv_fused(x, thr, k, spec, tile_rows=tile_rows).values
            assert np.array_equal(fused, staged_conv_i8(x, thr, k, spec).values)
            assert np.array_equal(fused, oracle_i8(x.values, thr, w, spec))
            assert (fused == 127).all()
