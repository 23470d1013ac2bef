"""Tests for the binary direct convolution paths."""

import tracemalloc

import numpy as np
import pytest

from bitflow import binconv
from bitflow.binconv import (
    ConvSpec,
    conv_float_oracle,
    conv_fused,
    conv_i8,
    conv_i32,
    fuse_kernel,
    gemm_rows,
    output_shape,
    staged_conv_i8,
    tile_plan,
)
from bitflow.benchcli import _build_workload, default_suite, fusion_sweep
from bitflow.bitcore import TILE_BYTE_BUDGET, I8FeatureMap, pack_activations, pack_weights
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


def im2col_layouts(test):
    """Parametrize over input dtypes, layouts and geometries. An unpadded 1x1
    filter reads whole pixels, and so does an unpadded filter as wide as the
    input: their rows reshape to views."""
    test = pytest.mark.parametrize("dtype", [np.float32, np.int8, np.float64])(test)
    test = pytest.mark.parametrize("layout", ["contiguous", "strided"])(test)
    return pytest.mark.parametrize(
        "fh,fw,stride,pad",
        [(1, 1, (1, 1), (0, 0)), (1, 1, (2, 3), (0, 0)), (2, 9, (1, 1), (0, 0)),
         (3, 3, (1, 1), (0, 0)), (3, 3, (2, 1), (1, 1)), (2, 11, (1, 1), (0, 1))],
        ids=["1x1", "1x1-stride", "full-width", "3x3", "3x3-pad", "full-padded-width"],
    )(test)


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

    @staticmethod
    def _layout_case(layout, dtype):
        rng = np.random.default_rng(29)
        a = rng.integers(-127, 128, size=(2, 10, 9, 6)).astype(dtype)
        return a[:, :, :, 1:5] if layout == "strided" else a

    @im2col_layouts
    def test_returns_a_fresh_writable_array(self, fh, fw, stride, pad, layout, dtype):
        a = self._layout_case(layout, dtype)
        spec = ConvSpec(stride, pad)
        want = pertap_im2col(a, fh, fw, spec)
        got = binconv.im2col(a, fh, fw, spec)
        assert not np.shares_memory(got, a)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        got += 1  # writable, and the input does not move
        assert binconv.im2col(a, fh, fw, spec).tobytes() == want.tobytes()

    @im2col_layouts
    def test_writes_a_supplied_buffer_with_the_same_bytes(
        self, fh, fw, stride, pad, layout, dtype
    ):
        a = self._layout_case(layout, dtype)
        spec = ConvSpec(stride, pad)
        want = pertap_im2col(a, fh, fw, spec)
        out = np.full(want.shape, np.nan, dtype=np.float32)
        assert binconv.im2col(a, fh, fw, spec, out) is out
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [lambda s: np.empty(s, np.float64), lambda s: np.empty(s[:-1] + (s[-1] + 1,), np.float32),
         lambda s: np.empty(s[:-1] + (2 * s[-1],), np.float32)[..., ::2]],
        ids=["dtype", "shape", "strided"],
    )
    def test_rejects_a_buffer_it_cannot_fill(self, bad):
        a = np.ones((2, 5, 4, 3), np.float32)
        spec = ConvSpec((1, 1), (1, 1))
        shape = binconv.im2col(a, 3, 3, spec).shape
        with pytest.raises(ValueError, match="C-contiguous float32"):
            binconv.im2col(a, 3, 3, spec, bad(shape))
        with pytest.raises(ValueError, match="C-contiguous float32"):
            gemm_rows(a, np.ones((3, 4), np.float32), bad((2, 5, 4, 4)))


# (leading axes, kernel dims) of the toy tasks' convolutions at the training
# batch that also take an input gradient: the vgg 8x8 stride-8 block and 3x3
# terminal block, and a resnet block. The vgg stem takes none; on its shape
# (64 channels into 72 taps) the 2-D and stacked products round differently,
# each within float32 error.
GRAD_GEMMS = [
    ((100, 2, 2), (64, 8, 8, 64)),
    ((100, 2, 2), (32, 3, 3, 64)),
    ((100, 16, 16), (8, 3, 3, 8)),
]
# every forward GEMM, at the training batch (100) and the eval batch (200)
FORWARD_GEMMS = [
    ((n, *lead[1:]), kdims)
    for n in (100, 200)
    for lead, kdims in [((100, 16, 16), (64, 3, 3, 8))] + GRAD_GEMMS
]


class TestGemmRows:
    @pytest.mark.parametrize("lead,kdims", FORWARD_GEMMS)
    def test_forward_equals_the_stacked_matmul(self, lead, kdims):
        rng = np.random.default_rng(31)
        k = int(np.prod(kdims[1:]))
        rows = rng.choice(np.float32([-1, 1]), size=(*lead, k))
        wb = rng.choice(np.float32([-1, 1]), size=kdims)
        wmat = wb.reshape(kdims[0], -1).T  # (K, O), as trainkit lays it out
        got = gemm_rows(rows, wmat)
        assert got.shape == (*lead, kdims[0])
        assert got.tobytes() == (rows @ wmat).tobytes()
        out = np.full(got.shape, np.nan, dtype=np.float32)
        assert gemm_rows(rows, wmat, out) is out and out.tobytes() == got.tobytes()

    @pytest.mark.parametrize("lead,kdims", GRAD_GEMMS)
    def test_input_gradient_equals_the_stacked_matmul(self, lead, kdims):
        rng = np.random.default_rng(37)
        df = rng.standard_normal((*lead, kdims[0])).astype(np.float32) * np.float32(1e-3)
        df[rng.random(df.shape) < 0.1] = 0.0  # the clip mask's zeros
        wb = rng.choice(np.float32([-1, 1]), size=kdims)
        wt = wb.reshape(kdims[0], -1)  # (O, K), the transposed (K, O) matrix
        got = gemm_rows(df, wt)
        assert got.shape == (*lead, wt.shape[1])
        assert got.tobytes() == (df @ wt).tobytes()
        # training writes the input gradient over the block's im2col rows
        out = np.full(got.shape, np.nan, dtype=np.float32)
        assert gemm_rows(df, wt, out) is out and out.tobytes() == got.tobytes()

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


def fused_tile_bytes(x_dims, k, spec, rows, group=1):
    """Working set of one fused tile of ``rows`` output rows: the packed
    input rows it reads, the kernel, and per output word the XOR (one word),
    count (1 byte) and lane buffers, plus the accumulator. A lane is 1 byte
    while the filter's taps add at most 255 matches to it, 2 while at most
    65,535, else 4; the accumulator 2 bytes while twice a site's matches stay
    below 2**15, else 4, and none where a one-word site's 1-byte lanes are
    its output bytes (at most 127 taps, where the clamp cannot fire).
    Each tap of a ``group`` beyond the first adds its slab, XOR and count."""
    n, _, ow, out = output_shape(x_dims, k.dims, spec)
    _, _, w, cin = x_dims
    _, fh, fw, _ = k.dims
    wps = k.words_per_site
    word = 8 if wps > 1 else next(b for b in (1, 2, 4, 8) if cin <= 8 * b)
    lane = next(b for b in (1, 2, 4) if fh * fw * 8 * word < 1 << (8 * b))
    acc = 2 if 2 * fh * fw * 8 * word * wps < 1 << 15 else 4
    if wps == 1 and lane == 1 and fh * fw * cin <= 127:
        acc = 0
    in_rows = (rows - 1) * spec.stride[0] + fh
    packed = (in_rows * n * (w + 2 * spec.spatial_pad[1]) + fh * fw * out) * wps * word
    grouped = (group - 1) * rows * n * ow * wps * (out * (word + 1) + word)
    return packed + rows * n * ow * out * (wps * (word + 1 + lane) + acc) + grouped


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
        out = conv_fused(x, None, fuse_kernel(k), ConvSpec())
        assert out.dims == (1, 5, 5, 2)

    def test_whole_image_tile_matches_staged(self):
        rng = np.random.default_rng(20)
        vals = rng.integers(-127, 128, size=(1, 8, 8, 12)).astype(np.int8)
        x = I8FeatureMap(vals)
        k = pack_weights(rng.standard_normal((3, 3, 3, 12)))
        spec = ConvSpec(spatial_pad=(1, 1))
        fused = conv_fused(x, None, fuse_kernel(k), spec, tile_rows=10_000)
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
            fused = conv_fused(x, thr, fuse_kernel(k), spec, tile_rows=tile_rows)
            staged = staged_conv_i8(x, thr, k, spec)
            assert np.array_equal(fused.values, staged.values)

    def test_threaded_tiles_identical(self):
        rng = np.random.default_rng(22)
        vals = rng.integers(-127, 128, size=(1, 16, 16, 33)).astype(np.int8)
        x = I8FeatureMap(vals)
        k = pack_weights(rng.standard_normal((6, 3, 3, 33)))
        spec = ConvSpec(spatial_pad=(1, 1))
        base = conv_fused(x, None, fuse_kernel(k), spec, tile_rows=3).values
        got = conv_fused(x, None, fuse_kernel(k), spec, tile_rows=3, threads=4).values
        assert np.array_equal(got, base)

    def test_threshold_shape_mismatch(self):
        rng = np.random.default_rng(23)
        x = I8FeatureMap(np.zeros((1, 4, 4, 8), dtype=np.int8))
        k = pack_weights(rng.standard_normal((2, 3, 3, 8)))
        thr = self._random_threshold(rng, 5)
        with pytest.raises(ValueError):
            conv_fused(x, thr, fuse_kernel(k), ConvSpec())

    def test_default_tile_rows_positive(self):
        k = fuse_kernel(pack_weights(np.ones((64, 3, 3, 256))))
        assert tile_plan((1, 56, 56, 256), k, ConvSpec(spatial_pad=(1, 1)))[0] >= 1

    def test_default_tile_rows_counts_batch(self):
        # the toy-VGG stem's 64 3x3 filters over 8 channels, 16 pixels wide,
        # on a map taller than every batch's pick, so no pick is clamped
        k = fuse_kernel(pack_weights(np.ones((64, 3, 3, 8))))
        spec = ConvSpec(spatial_pad=(1, 1))
        batches = (1, 2, 8, 100, 400)
        picks = [tile_plan((n, 512, 16, 8), k, spec)[0] for n in batches]
        assert picks[0] < 512
        for n, rows in zip(batches, picks):
            assert_tile_fits_budget((n, 512, 16, 8), k, spec, rows)
        assert picks[0] > picks[1] > picks[2] > picks[3] >= picks[4] >= 1

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_default_tiles_split_rows_among_workers(self, monkeypatch, threads):
        # the budget fits all 4 output rows in one tile; workers split them,
        # and only the one covering tile groups taps
        tiles = []
        real = binconv._tile_matches

        def spy(buf, k, sh, sw, oh, ow, group):
            tiles.append((oh, group))
            return real(buf, k, sh, sw, oh, ow, group)

        monkeypatch.setattr(binconv, "_tile_matches", spy)
        x = I8FeatureMap(np.ones((1, 4, 4, 256), dtype=np.int8))
        k = fuse_kernel(pack_weights(np.ones((256, 3, 3, 256))))
        spec = ConvSpec(spatial_pad=(1, 1))
        assert tile_plan(x.dims, k, spec)[0] == 4
        conv_fused(x, None, k, spec, threads=threads)
        assert [oh for oh, _ in tiles] == {1: [4], 2: [2, 2], 4: [1, 1, 1, 1]}[threads]
        assert all((group > 1) == (threads == 1) for _, group in tiles)

    @pytest.mark.parametrize("n", [1, 2, 8, 100])
    @pytest.mark.parametrize(
        "hw,cin,out,f,stride",
        [(14, 256, 256, 3, 1), (28, 128, 256, 3, 2), (16, 64, 64, 8, 8), (9, 20, 7, 1, 2)],
    )
    def test_default_tile_rows_fill_the_budget(self, n, hw, cin, out, f, stride):
        k = fuse_kernel(pack_weights(np.ones((out, f, f, cin))))
        spec = ConvSpec(stride=(stride, stride), spatial_pad=(f // 2, f // 2))
        rows = tile_plan((n, hw, hw, cin), k, spec)[0]
        assert_tile_fits_budget((n, hw, hw, cin), k, spec, rows)

    def test_passed_rows_are_clamped_to_the_map(self):
        # a 14-row map: rows below 1 become 1, rows past the map the map,
        # and only a tile covering the map groups taps
        k = fuse_kernel(pack_weights(np.ones((8, 3, 3, 16))))
        spec, x_dims = ConvSpec(spatial_pad=(1, 1)), (1, 14, 14, 16)
        assert [tile_plan(x_dims, k, spec, r)[0] for r in (-3, 0, 1, 5, 14, 19)] == [
            1, 1, 1, 5, 14, 14
        ]
        assert tile_plan(x_dims, k, spec, 19) == tile_plan(x_dims, k, spec, 14) == (14, 9)
        assert tile_plan(x_dims, k, spec, 13)[1] == 1

    @pytest.mark.parametrize("tile_rows", [1, None])
    def test_many_taps_all_match(self, tile_rows):
        # the toy-VGG accumulator's 8x8 stride-8 filter: 64 taps, one channel
        x = I8FeatureMap(np.ones((2, 16, 16, 1), dtype=np.int8))
        k = pack_weights(np.ones((3, 8, 8, 1)))
        spec = ConvSpec(stride=(8, 8))
        fused = conv_fused(x, None, fuse_kernel(k), spec, tile_rows=tile_rows).values
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
                fused = conv_fused(x, t, fuse_kernel(k), spec, tile_rows=tile_rows)
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
            fused = conv_fused(x, thr, fuse_kernel(k), spec, tile_rows=tile_rows).values
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
            fused = conv_fused(x, None, fuse_kernel(k), spec, tile_rows=tile_rows).values
            assert np.array_equal(fused, staged_conv_i8(x, None, k, spec).values)
            assert np.array_equal(fused, oracle_i8(x.values, None, w, spec))
            assert (fused == np.clip(sign * 25 * cin, -127, 127)).all()

    @pytest.mark.parametrize(
        "fh,fw,cin,lane,acc",
        [
            (1, 31, 8, np.uint8, np.int16),  # 31 taps * 8 bits = 248 matches per lane
            (4, 8, 8, np.uint16, np.int16),  # 256 would wrap a uint8 lane
            (15, 17, 64, np.uint16, np.int16),  # 2 * 255 words * 64 = 32640
            (16, 16, 64, np.uint16, np.int32),  # 2 * 256 words * 64 = 32768
            (8, 16, 128, np.uint16, np.int32),  # 2 * 128 taps * 2 words * 64
            (1, 1023, 64, np.uint16, np.int32),  # 65,472 matches per lane
            (1, 1024, 64, np.uint32, np.int32),  # 65,536 would wrap a uint16 lane
            (1, 1100, 64, np.uint32, np.int32),
            (1, 8191, 8, np.uint16, np.int32),  # 65,528
            (1, 8192, 8, np.uint32, np.int32),  # 65,536
        ],
    )
    def test_lane_and_accumulator_types(self, fh, fw, cin, lane, acc):
        k = fuse_kernel(pack_weights(np.ones((1, fh, fw, cin), dtype=np.int8)))
        assert (k.lane, k.acc) == (np.dtype(lane), np.dtype(acc))

    @pytest.mark.parametrize(
        "fh,fw,cin,sums", [(3, 3, 8, 0), (1, 31, 8, 0), (4, 8, 8, 0), (3, 3, 65, 1), (1, 1100, 64, 0)]
    )
    def test_word_axis_sums(self, monkeypatch, fh, fw, cin, sums):
        # a one-word site hands its lanes to the epilogue unsummed (counts
        # in the lane type); two words sum once, into the accumulator type
        dtypes = []
        spy_groups(monkeypatch, dtypes=dtypes)
        x = I8FeatureMap(np.ones((1, fh, fw, cin), dtype=np.int8))
        w = np.ones((2, fh, fw, cin), dtype=np.int8)
        k = fuse_kernel(pack_weights(w))
        fused = conv_fused(x, None, k, ConvSpec()).values
        assert dtypes == [k.acc if sums else k.lane]
        assert (fused == min(fh * fw * cin, 127)).all()

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("fh,fw,cin", TYPE_BOUNDARIES)
    def test_type_boundaries_match_staged_and_oracle(self, fh, fw, cin, tile_rows):
        # 3 filters are fewer than any tile's sites; 40 are more than one
        # row's and tie with a whole 5x4 map's (both filter sides over 1)
        rng = np.random.default_rng(fh * 1000 + fw * 10 + cin)
        vals = rng.integers(-127, 128, size=(2, fh + 2, fw + 1, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        spec = ConvSpec(spatial_pad=(min(1, fh - 1), min(1, fw - 1)))
        for out in (3, 40):
            w = rng.choice([-1, 1], size=(out, fh, fw, cin)).astype(np.int8)
            k = pack_weights(w)
            for thr in (None, self._random_threshold(rng, cin)):
                fused = conv_fused(x, thr, fuse_kernel(k), spec, tile_rows=tile_rows).values
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
            fused = conv_fused(x, None, fuse_kernel(k), spec, tile_rows=tile_rows).values
            assert np.array_equal(fused, staged_conv_i8(x, None, k, spec).values)
            assert np.array_equal(fused, oracle_i8(x.values, None, w, spec))
            assert (fused == np.clip(sign * fh * fw * cin, -127, 127)).all()

    @pytest.mark.parametrize("tile_rows", [1, None])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("cin", [8, 128, 300])
    @pytest.mark.parametrize("out", [1, 3, 10, 16, 64, 65, 257])
    def test_output_channels_match_staged_and_oracle(self, out, cin, threads, tile_rows):
        # 1, 2 and 5 words per site; non-square filters, so a kernel laid
        # out with fh and fw swapped cannot pass on symmetric taps. A tile
        # of the first filter holds 16 sites per row and 64 in all, of the
        # second 10 and 70, so 10, 16 and 64 filters tie with a tile's
        # sites, where a transposition the wrong way would show
        rng = np.random.default_rng(out * 1000 + cin)
        vals = rng.integers(-127, 128, size=(2, 7, 8, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        thr = self._random_threshold(rng, cin)
        for (fh, fw), stride in (((3, 5), (2, 1)), ((5, 2), (1, 2))):
            w = rng.choice([-1, 1], size=(out, fh, fw, cin)).astype(np.int8)
            k = pack_weights(w)
            spec = ConvSpec(stride=stride, spatial_pad=(fh // 2, fw // 2))
            for t in (None, thr):
                fk = fuse_kernel(k)
                fused = conv_fused(x, t, fk, spec, tile_rows=tile_rows, threads=threads).values
                assert np.array_equal(fused, staged_conv_i8(x, t, k, spec).values)
                assert np.array_equal(fused, oracle_i8(vals, t, w, spec))


def spy_groups(monkeypatch, force=None, dtypes=None):
    """Record (rows, group) of every fused tile; ``force`` replaces the
    chosen group with that many taps, and ``dtypes``, when given, takes the
    dtype of each tile's match counts."""
    tiles = []
    real = binconv._tile_matches

    def spy(buf, k, sh, sw, oh, ow, group):
        group = group if force is None else force
        tiles.append((oh, group))
        counts = real(buf, k, sh, sw, oh, ow, group)
        if dtypes is not None:
            dtypes.append(counts.dtype)
        return counts

    monkeypatch.setattr(binconv, "_tile_matches", spy)
    return tiles


class TestTapGroups:
    # 1 to 65 channels: uint8, uint16, uint32 and uint64 site words, one and
    # two words per site
    @pytest.mark.parametrize("cin", [1, 8, 9, 16, 17, 32, 33, 64, 65])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_covering_tile_groups_match_staged_and_two_tiles(self, monkeypatch, cin, stride):
        # one tile covering every row groups its taps; two tiles run one a group
        tiles = spy_groups(monkeypatch)
        rng = np.random.default_rng(cin * 10 + stride)
        vals = rng.integers(-127, 128, size=(2, 7, 6, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        w = rng.choice([-1, 1], size=(5, 3, 3, cin)).astype(np.int8)
        k = pack_weights(w)
        spec = ConvSpec(stride=(stride, stride), spatial_pad=(1, 1))
        oh = output_shape(x.dims, k.dims, spec)[1]
        thr = TestConvFused()._random_threshold(rng, cin)
        for t in (None, thr):
            staged = staged_conv_i8(x, t, k, spec).values
            for tile_rows in (oh, oh - 1):
                tiles.clear()
                fused = conv_fused(x, t, fuse_kernel(k), spec, tile_rows=tile_rows).values
                assert np.array_equal(fused, staged)
                assert np.array_equal(fused, oracle_i8(vals, t, w, spec))
                assert tiles == ([(oh, 9)] if tile_rows == oh else [(oh - 1, 1), (1, 1)])

    @pytest.mark.parametrize("group", [1, 2, 4, 5, 8, 9])
    @pytest.mark.parametrize("cin", [8, 64, 65])
    def test_every_group_size_matches_staged(self, monkeypatch, group, cin):
        # groups that split filter rows, end short, or take every tap
        tiles = spy_groups(monkeypatch, force=group)
        rng = np.random.default_rng(group * 100 + cin)
        vals = rng.integers(-127, 128, size=(1, 6, 7, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        for out in (3, 40):  # fewer filters than sites, then more
            w = rng.choice([-1, 1], size=(out, 3, 3, cin)).astype(np.int8)
            k = pack_weights(w)
            spec = ConvSpec(stride=(1, 2), spatial_pad=(1, 1))
            for t in (None, TestConvFused()._random_threshold(rng, cin)):
                fused = conv_fused(x, t, fuse_kernel(k), spec).values
                assert np.array_equal(fused, staged_conv_i8(x, t, k, spec).values)
                assert np.array_equal(fused, oracle_i8(vals, t, w, spec))
        assert {g for _, g in tiles} == {group}

    @pytest.mark.parametrize("fw,lane", [(31, np.uint8), (32, np.uint16)])
    def test_one_group_at_the_uint8_lane_limit(self, monkeypatch, fw, lane):
        # 8-channel sites: uint8 lanes hold 31 taps' 248 matches, so a 1x31
        # filter sums in one uint8 group; a 1x32 one needs uint16 lanes
        tiles = spy_groups(monkeypatch)
        k = fuse_kernel(pack_weights(np.ones((2, 1, fw, 8))))
        assert k.lane == lane
        for n, sign in ((1, 1), (3, -1)):  # filters innermost, then sites
            x = I8FeatureMap(sign * np.ones((n, 2, fw, 8), dtype=np.int8))
            w = np.ones((2, 1, fw, 8), dtype=np.int8)
            tiles.clear()
            fused = conv_fused(x, None, k, ConvSpec()).values
            assert tiles == [(2, fw)]
            assert np.array_equal(fused, staged_conv_i8(x, None, pack_weights(w), ConvSpec()).values)
            assert (fused == sign * 127).all()

    @pytest.mark.parametrize(
        "taps,group,lane",
        [(1023, 1023, np.uint16), (1023, 512, np.uint16), (1024, 512, np.uint32),
         (1024, 1024, np.uint32), (1100, 1, np.uint32), (1100, 550, np.uint32),
         (1100, 1100, np.uint32)],
    )
    def test_lanes_hold_every_tap_past_the_uint16_limit(self, monkeypatch, taps, group, lane):
        # 64-bit words: uint16 lanes hold 1023 taps' 65,472 matches, so 1023
        # taps keep them and 1024 take uint32 lanes, under any group. All
        # taps match, so a lane that wrapped at 65,536 would give -127, not
        # +127. One site against two filters keeps filters innermost, three
        # sites put sites there
        tiles = spy_groups(monkeypatch, force=group)
        w = np.ones((2, 1, taps, 64), dtype=np.int8)
        k = pack_weights(w)
        assert fuse_kernel(k).lane == lane
        always = ThresholdParams(np.full(64, -3, dtype=np.int16), np.zeros(64, dtype=np.uint8))
        for n in (1, 3):
            x = I8FeatureMap(np.ones((n, 1, taps, 64), dtype=np.int8))
            for thr in (None, always):
                fused = conv_fused(x, thr, fuse_kernel(k), ConvSpec()).values
                assert np.array_equal(fused, staged_conv_i8(x, thr, k, ConvSpec()).values)
                assert np.array_equal(fused, oracle_i8(x.values, thr, w, ConvSpec()))
                assert (fused == 127).all()
        assert {g for _, g in tiles} == {group}

    def test_group_is_capped_at_the_filter_taps(self):
        # 1100 taps fit one group: the cap is fh*fw, whatever the lane type
        k = fuse_kernel(pack_weights(np.ones((2, 1, 1100, 64))))
        x_dims = (1, 1, 1100, 64)
        assert tile_plan(x_dims, k, ConvSpec(), 1) == (1, 1100)

    @pytest.mark.parametrize(
        "n,hw,cin,out,f,stride",
        [(1, 16, 8, 64, 3, 1), (4, 16, 8, 64, 3, 1), (6, 16, 8, 64, 3, 1),
         (1, 9, 20, 7, 3, 2), (1, 4, 256, 256, 3, 1), (2, 8, 64, 64, 8, 8),
         (1, 7, 512, 512, 3, 1), (4, 6, 33, 5, 5, 1)],
    )
    def test_tap_group_fills_the_leftover_budget(self, n, hw, cin, out, f, stride):
        k = fuse_kernel(pack_weights(np.ones((out, f, f, cin))))
        spec = ConvSpec(stride=(stride, stride), spatial_pad=(f // 2, f // 2))
        x_dims = (n, hw, hw, cin)
        oh = output_shape(x_dims, k.dims, spec)[1]
        rows, group = tile_plan(x_dims, k, spec, oh)
        assert rows == oh
        cap = f * f
        assert 1 <= group <= cap
        assert group == 1 or fused_tile_bytes(x_dims, k, spec, oh, group) <= TILE_BYTE_BUDGET
        assert group == cap or fused_tile_bytes(x_dims, k, spec, oh, group + 1) > TILE_BYTE_BUDGET
        if oh > 1:  # a tile short of the map keeps one tap a group
            assert tile_plan(x_dims, k, spec, oh - 1) == (oh - 1, 1)
        assert tile_plan(x_dims, k, spec, oh, threads=2) == (oh, 1)

    def test_benchmark_shapes(self, monkeypatch):
        # the batch-1 toy-VGG stem runs its 9 taps as one group over one
        # 16-row tile; the batch-100 stem, a resnet-body block on 2 workers
        # and every default-suite shape keep one tap a group. The stem runs
        # uint8 words and lanes with an int16 accumulator and a wrapped
        # epilogue, the body uint64 words, uint16 lanes and int16 with the clamp
        tiles = spy_groups(monkeypatch)
        stem = fuse_kernel(pack_weights(np.ones((64, 3, 3, 8))))
        body = fuse_kernel(pack_weights(np.ones((256, 3, 3, 256))))
        u8, u16, u64, i16 = map(np.dtype, (np.uint8, np.uint16, np.uint64, np.int16))
        assert (stem.word, stem.lane, stem.acc, stem.wrap) == (u8, u8, i16, True)
        assert (body.word, body.lane, body.acc, body.wrap) == (u64, u16, i16, False)
        same = ConvSpec(spatial_pad=(1, 1))
        assert tile_plan((1, 16, 16, 8), stem, same) == (16, 9)
        assert tile_plan((100, 16, 16, 8), stem, same) == (3, 1)
        assert tile_plan((8, 14, 14, 256), body, same, threads=2) == (1, 1)
        cases = [((1, 16, 16, 8), stem, same, 1, {9}), ((100, 16, 16, 8), stem, same, 1, {1})]
        cases.append(((8, 14, 14, 256), body, same, 2, {1}))
        for cfg in default_suite():
            _, kernel, _ = _build_workload(cfg, 1)
            x_dims = (1, cfg.height, cfg.width, cfg.c_in)
            cases.append((x_dims, fuse_kernel(kernel), cfg.spec, 1, {1}))
        for x_dims, k, spec, threads, groups in cases:
            tiles.clear()
            conv_fused(I8FeatureMap(np.zeros(x_dims, np.int8)), None, k, spec, threads=threads)
            assert {g for _, g in tiles} == groups, x_dims

    def test_fusion_sweep_reaches_grouped_tiles(self, monkeypatch):
        tiles = spy_groups(monkeypatch)
        assert fusion_sweep(np.random.default_rng(5), 10).ok
        assert {g > 1 for _, g in tiles} == {True, False}


def forbid_pools(monkeypatch):
    """Make constructing the row-span pool fail, so no test starts a thread."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(binconv, "ThreadPoolExecutor", no_pool)


class TestThreads:
    @pytest.mark.parametrize("threads", [0, binconv.MAX_THREADS + 1, 10**6, 2.5])
    def test_out_of_range_threads_start_no_pool(self, monkeypatch, threads):
        forbid_pools(monkeypatch)
        x = I8FeatureMap(np.ones((1, 40, 4, 3), dtype=np.int8))
        k = pack_weights(np.ones((2, 3, 3, 3)))
        spec = ConvSpec(spatial_pad=(1, 1))
        calls = [
            lambda: conv_fused(x, None, fuse_kernel(k), spec, threads=threads),
            lambda: conv_i32(pack_activations(x.values), k, spec, threads=threads),
            lambda: conv_i8(pack_activations(x.values), k, spec, threads=threads),
            lambda: staged_conv_i8(x, None, k, spec, threads=threads),
            lambda: tile_plan(x.dims, fuse_kernel(k), spec, threads=threads),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"threads must be in \[1, 64\]"):
                call()

    @pytest.mark.parametrize("threads", [1, np.int64(2), binconv.MAX_THREADS])
    def test_threads_in_range_run(self, threads):
        x = I8FeatureMap(np.ones((1, 5, 4, 3), dtype=np.int8))
        k = pack_weights(np.ones((2, 3, 3, 3)))
        spec = ConvSpec(spatial_pad=(1, 1))
        want = staged_conv_i8(x, None, k, spec).values
        assert np.array_equal(conv_fused(x, None, fuse_kernel(k), spec, threads=threads).values, want)
        assert np.array_equal(staged_conv_i8(x, None, k, spec, threads=threads).values, want)


class TestUfuncBuffer:
    # one word of uint8, uint16, uint32 and uint64, then two and three
    # uint64 words per site
    CHANNELS = {5: np.uint8, 12: np.uint16, 24: np.uint32, 50: np.uint64,
                100: np.uint64, 150: np.uint64}

    @pytest.mark.parametrize("bufsize", [16, 8192, 1 << 20])
    @pytest.mark.parametrize("cin", sorted(CHANNELS))
    def test_outputs_and_caller_buffer_survive_any_buffer_size(self, monkeypatch, bufsize, cin):
        # grouped (one covering tile) and one-tap tiles, with and without
        # thresholds, on one and two workers, under the caller's buffer size
        tiles = spy_groups(monkeypatch)
        rng = np.random.default_rng(cin)
        vals = rng.integers(-127, 128, size=(2, 5, 6, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        k = pack_weights(rng.choice([-1, 1], size=(7, 3, 3, cin)).astype(np.int8))
        fused = fuse_kernel(k)
        assert fused.word == self.CHANNELS[cin] and fused.words_per_site == -(-cin // 64)
        spec = ConvSpec(spatial_pad=(1, 1))
        thrs = (None, TestConvFused()._random_threshold(rng, cin))
        want = [staged_conv_i8(x, t, k, spec).values for t in thrs]
        with np.errstate():
            np.setbufsize(bufsize)
            for t, staged in zip(thrs, want):
                for tile_rows in (None, 1):
                    for threads in (1, 2):
                        got = conv_fused(x, t, fused, spec, tile_rows, threads).values
                        assert np.array_equal(got, staged)
                        assert np.getbufsize() == bufsize
        assert {g for _, g in tiles} == {1, 9}

    @pytest.mark.parametrize("cin", sorted(CHANNELS))
    def test_only_wide_words_xor_under_the_small_buffer(self, monkeypatch, cin):
        sizes = []
        real = np.setbufsize
        monkeypatch.setattr(np, "setbufsize", lambda size: sizes.append(size) or real(size))
        x = I8FeatureMap(np.ones((1, 4, 4, cin), dtype=np.int8))
        k = fuse_kernel(pack_weights(np.ones((3, 3, 3, cin))))
        spec = ConvSpec(spatial_pad=(1, 1))
        for tile_rows in (None, 1):
            sizes.clear()
            conv_fused(x, None, k, spec, tile_rows)
            groups = 1 if tile_rows is None else 9 * 4  # one covering group, or every tap
            assert sizes == ([16] * groups if k.word.itemsize >= 4 else [])
        assert np.getbufsize() == 8192


# (batch, side, cin, cout, threads) of the benchmark models' 3x3 convolutions
MODEL_CASES = {
    "single-image-stem": (1, 16, 8, 64, 1),
    "vgg-toy-stem": (100, 16, 8, 64, 1),
    "resnet-body-1": (8, 14, 256, 256, 1),
    "resnet-body-2": (8, 14, 256, 256, 2),
}


@pytest.mark.parametrize("case", [*MODEL_CASES, *(cfg.name for cfg in default_suite())])
def test_tile_byte_model_bounds_traced_scratch(case):
    # one call's traced peak, less its int8 output, stays within 1.25 times
    # the modelled bytes of its plan's tile, times the tiles in flight; it
    # read 0.66-1.12 of one tile, and 2.15 with two workers
    if case in MODEL_CASES:
        n, hw, cin, out, threads = MODEL_CASES[case]
        x_dims, spec = (n, hw, hw, cin), ConvSpec(spatial_pad=(1, 1))
        k = fuse_kernel(pack_weights(np.ones((out, 3, 3, cin))))
    else:
        cfg = next(c for c in default_suite() if c.name == case)
        x_dims, spec, threads = (1, cfg.height, cfg.width, cfg.c_in), cfg.spec, 1
        k = fuse_kernel(_build_workload(cfg, 1)[1])
    rng = np.random.default_rng(7)
    x = I8FeatureMap(rng.integers(-127, 128, size=x_dims, dtype=np.int8))
    conv_fused(x, None, k, spec, threads=threads)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        y = conv_fused(x, None, k, spec, threads=threads)
        scratch = tracemalloc.get_traced_memory()[1] - base - y.values.nbytes
    finally:
        tracemalloc.stop()
    rows, group = tile_plan(x_dims, k, spec, threads=threads)
    in_flight = min(threads, -(-y.dims[1] // rows))
    assert scratch <= 1.25 * fused_tile_bytes(x_dims, k, spec, rows, group) * in_flight
