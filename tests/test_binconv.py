"""Tests for the binary direct convolution paths."""

import numpy as np
import pytest

from bitflow import binconv
from bitflow.binconv import (
    TILE_BYTE_BUDGET,
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

# (fh, fw, cin) on both sides of each of the fused kernel's type boundaries:
# uint8 lanes up to 31 taps of 8-channel sites, an int16 accumulator up to
# 255 taps of 64-bit words (512 wraps it), a clamp-free epilogue up to
# fh*fw*cin = 127 (one and two words, uint8 and uint16 lanes)
TYPE_BOUNDARIES = [
    (1, 31, 8),
    (4, 8, 8),
    (15, 17, 64),
    (16, 16, 64),
    (16, 16, 128),
    (1, 127, 1),
    (1, 1, 127),
    (1, 128, 1),
    (1, 1, 128),
    (4, 4, 8),
]


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


def pertap_im2col(a, fh, fw, spec):
    """One site and one tap at a time; cross-checks the gathered rows."""
    c = a.shape[3]
    n, oh, ow, _ = output_shape(a.shape, (1, fh, fw, c), spec)
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    rows = np.empty((n, oh, ow, fh * fw * c), dtype=np.float32)
    for y in range(oh):
        for x in range(ow):
            for i in range(fh):
                for j in range(fw):
                    iy, ix = y * sh + i - ph, x * sw + j - pw
                    inside = 0 <= iy < a.shape[1] and 0 <= ix < a.shape[2]
                    tap = rows[:, y, x, (i * fw + j) * c : (i * fw + j + 1) * c]
                    tap[...] = a[:, iy, ix, :] if inside else -1
    return rows


class TestIm2col:
    @pytest.mark.parametrize("stride", [(1, 1), (2, 1), (8, 8)])
    @pytest.mark.parametrize("pad", [(0, 0), (1, 2)])
    def test_matches_pertap_loop(self, stride, pad):
        rng = np.random.default_rng(23)
        spec = ConvSpec(stride, pad)
        for fh, fw in ((2, 3), (3, 5), (8, 8)):
            for c in (1, 8, 64):
                for dtype in (np.int8, np.float32):
                    for n in (1, 3):
                        a = rng.integers(-127, 128, size=(n, 10, 9, c)).astype(dtype)
                        got = binconv.im2col(a, fh, fw, spec)
                        assert got.dtype == np.float32
                        assert got.tobytes() == pertap_im2col(a, fh, fw, spec).tobytes()


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
        ones = [np.ones((1, 2, 2, 1), dtype=np.int8), np.ones((1, 1, 1, 1), dtype=np.int8)]
        conv_float_oracle(*ones, ConvSpec())
        for bad in (0, 2, np.int8(-128), 0.5, np.nan):
            for which in (0, 1):  # activations, then weights
                operands = list(ones)
                operands[which] = ones[which].astype(np.asarray(bad).dtype)
                operands[which].flat[-1] = bad
                with pytest.raises(ValueError, match="must be \\+-1 valued"):
                    conv_float_oracle(*operands, ConvSpec())


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


def fused_tile_bytes(x_dims, k, spec, rows):
    """Working set of one fused tile of ``rows`` output rows: the packed
    input rows it reads, the kernel, and per output word the XOR (one word),
    count (1 byte) and lane buffers, plus the accumulator. A lane is 1 byte
    while the filter's taps add at most 255 matches to it, else 2; the
    accumulator 2 bytes while twice a site's matches stay below 2**15, else 4."""
    n, _, ow, out = output_shape(x_dims, k.dims, spec)
    _, _, w, cin = x_dims
    _, fh, fw, _ = k.dims
    wps = k.words_per_site
    word = 8 if wps > 1 else next(b for b in (1, 2, 4, 8) if cin <= 8 * b)
    lane = 1 if fh * fw * 8 * word <= 255 else 2
    acc = 2 if 2 * fh * fw * 8 * word * wps < 1 << 15 else 4
    in_rows = (rows - 1) * spec.stride[0] + fh
    packed = (in_rows * n * (w + 2 * spec.spatial_pad[1]) + fh * fw * out) * wps * word
    return packed + rows * n * ow * out * (wps * (word + 1 + lane) + acc)


def assert_tile_fits_budget(x_dims, k, spec, rows):
    """The tile fits the budget (or is the one-row floor), and one more row
    would not fit (or the tile already spans every output row)."""
    oh = output_shape(x_dims, k.dims, spec)[1]
    assert rows == 1 or fused_tile_bytes(x_dims, k, spec, rows) <= TILE_BYTE_BUDGET
    assert rows >= oh or fused_tile_bytes(x_dims, k, spec, rows + 1) > TILE_BYTE_BUDGET


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
        batches = (1, 2, 8, 100, 400)
        picks = [default_tile_rows((n, 16, 16, 8), k, spec) for n in batches]
        for n, rows in zip(batches, picks):
            assert_tile_fits_budget((n, 16, 16, 8), k, spec, rows)
        assert picks[0] > picks[1] > picks[2] > picks[3] >= picks[4] >= 1

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_default_tiles_split_rows_among_workers(self, monkeypatch, threads):
        # the budget fits all 4 output rows in one tile; workers split them
        rows = []
        real = binconv._tile_matches
        monkeypatch.setattr(
            binconv, "_tile_matches", lambda *a: rows.append(a[6]) or real(*a)
        )
        x = I8FeatureMap(np.ones((1, 4, 4, 256), dtype=np.int8))
        k = pack_weights(np.ones((256, 3, 3, 256)))
        spec = ConvSpec(spatial_pad=(1, 1))
        assert default_tile_rows(x.dims, k, spec) >= 4
        conv_fused(x, None, k, spec, threads=threads)
        assert rows == {1: [4], 2: [2, 2], 4: [1, 1, 1, 1]}[threads]

    @pytest.mark.parametrize("n", [1, 2, 8, 100])
    @pytest.mark.parametrize(
        "hw,cin,out,f,stride",
        [(14, 256, 256, 3, 1), (28, 128, 256, 3, 2), (16, 64, 64, 8, 8), (9, 20, 7, 1, 2)],
    )
    def test_default_tile_rows_fill_the_budget(self, n, hw, cin, out, f, stride):
        k = pack_weights(np.ones((out, f, f, cin)))
        spec = ConvSpec(stride=(stride, stride), spatial_pad=(f // 2, f // 2))
        rows = default_tile_rows((n, hw, hw, cin), k, spec)
        assert_tile_fits_budget((n, hw, hw, cin), k, spec, rows)

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

    @pytest.mark.parametrize(
        "fh,fw,cin,lane,acc",
        [
            (1, 31, 8, np.uint8, np.int16),  # 31 taps * 8 bits = 248 matches per lane
            (4, 8, 8, np.uint16, np.int16),  # 256 would wrap a uint8 lane
            (15, 17, 64, np.uint16, np.int16),  # 2 * 255 words * 64 = 32640
            (16, 16, 64, np.uint16, np.int32),  # 2 * 256 words * 64 = 32768
            (8, 16, 128, np.uint16, np.int32),  # 2 * 128 taps * 2 words * 64
            (1, 1100, 64, np.uint16, np.int32),  # drains mid-loop
        ],
    )
    def test_lane_and_accumulator_types(self, fh, fw, cin, lane, acc):
        wps = -(-cin // 64)
        word = binconv._site_word(cin, wps)
        assert binconv._lane_types(fh, fw, word, wps) == (np.dtype(lane), np.dtype(acc))

    @pytest.mark.parametrize(
        "fh,fw,cin,sums", [(3, 3, 8, 0), (1, 31, 8, 0), (4, 8, 8, 0), (3, 3, 65, 1), (1, 1100, 64, 2)]
    )
    def test_word_axis_sums(self, monkeypatch, fh, fw, cin, sums):
        # a one-word site that never drains mid-loop hands its lanes to the
        # epilogue; two words sum once; 1100 taps of 64 bits drain at 1023
        calls = []
        real = binconv._add_words
        monkeypatch.setattr(binconv, "_add_words", lambda *a: calls.append(1) or real(*a))
        x = I8FeatureMap(np.ones((1, fh, fw, cin), dtype=np.int8))
        w = np.ones((2, fh, fw, cin), dtype=np.int8)
        fused = conv_fused(x, None, pack_weights(w), ConvSpec()).values
        assert len(calls) == sums
        assert (fused == min(fh * fw * cin, 127)).all()

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("fh,fw,cin", TYPE_BOUNDARIES)
    def test_type_boundaries_match_staged_and_oracle(self, fh, fw, cin, tile_rows):
        rng = np.random.default_rng(fh * 1000 + fw * 10 + cin)
        vals = rng.integers(-127, 128, size=(2, fh + 2, fw + 1, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        w = rng.choice([-1, 1], size=(3, fh, fw, cin)).astype(np.int8)
        k = pack_weights(w)
        spec = ConvSpec(spatial_pad=(min(1, fh - 1), min(1, fw - 1)))
        for thr in (None, self._random_threshold(rng, cin)):
            fused = conv_fused(x, thr, k, spec, tile_rows=tile_rows).values
            assert np.array_equal(fused, staged_conv_i8(x, thr, k, spec).values)
            assert np.array_equal(fused, oracle_i8(vals, thr, w, spec))

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("fh,fw,cin", TYPE_BOUNDARIES)
    def test_type_boundaries_all_ones(self, fh, fw, cin, tile_rows):
        # every tap matches (or none does): +-fh*fw*cin, clamped only past 127
        x = I8FeatureMap(np.ones((1, fh + 1, fw, cin), dtype=np.int8))
        spec = ConvSpec()
        for sign in (1, -1):
            w = sign * np.ones((2, fh, fw, cin), dtype=np.int8)
            k = pack_weights(w)
            fused = conv_fused(x, None, k, spec, tile_rows=tile_rows).values
            assert np.array_equal(fused, staged_conv_i8(x, None, k, spec).values)
            assert np.array_equal(fused, oracle_i8(x.values, None, w, spec))
            assert (fused == np.clip(sign * fh * fw * cin, -127, 127)).all()

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cin", [8, 128, 300])
    @pytest.mark.parametrize("out", [1, 3, 65, 257])
    def test_output_channels_match_staged_and_oracle(self, out, cin, threads, tile_rows):
        # 1, 2 and 5 words per site; non-square filters, so a kernel laid
        # out with fh and fw swapped cannot pass on symmetric taps
        rng = np.random.default_rng(out * 1000 + cin)
        vals = rng.integers(-127, 128, size=(2, 7, 8, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        thr = self._random_threshold(rng, cin)
        for (fh, fw), stride in (((3, 5), (2, 1)), ((5, 2), (1, 2))):
            w = rng.choice([-1, 1], size=(out, fh, fw, cin)).astype(np.int8)
            k = pack_weights(w)
            spec = ConvSpec(stride=stride, spatial_pad=(fh // 2, fw // 2))
            for t in (None, thr):
                fused = conv_fused(x, t, k, spec, tile_rows=tile_rows, threads=threads).values
                assert np.array_equal(fused, staged_conv_i8(x, t, k, spec).values)
                assert np.array_equal(fused, oracle_i8(vals, t, w, spec))
