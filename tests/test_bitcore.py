"""Tests for bit packing, unpacking, the saturating narrow and the staged
kernel's popcount fold."""

import tracemalloc

import numpy as np
import pytest

from bitflow import bitcore
from bitflow.binconv import _fold_matches, _match_bias
from bitflow.bitcore import (
    BitPlaneTensor,
    pack_activations,
    pack_bitplanes,
    pack_weights,
    unpack_bits,
    unpack_weights,
    words_per_pixel,
)


def naive_match_count(a, b):
    """Per-bit reference count of matching bits between two word spans."""
    total = 0
    for wa, wb in zip(np.ravel(a), np.ravel(b)):
        x = int(wa) ^ int(wb)
        for i in range(64):
            total += 1 - ((x >> i) & 1)
    return total


def match_count(a, b):
    """popcount(XNOR(a, b)) over a word span, by the staged kernel's fold."""
    return int(_fold_matches(np.bitwise_not(np.bitwise_xor(a, b))))


class TestEncoder:
    @pytest.mark.parametrize("dtype", [bool, np.uint8])
    def test_pm1_writes_int8_signs_over_its_input(self, dtype):
        bits = np.array([[1, 0, 0], [1, 1, 0]], dtype=dtype)
        signs = bitcore.pm1(bits)
        assert signs.dtype == np.int8 and np.shares_memory(signs, bits)
        assert signs.tolist() == [[1, -1, -1], [1, 1, -1]]


class TestSaturate:
    @pytest.mark.parametrize("dtype", [np.int32, np.int16, np.float32])
    def test_clamps_into_a_fresh_int8_map(self, dtype):
        wide = [-32768, -200, -129, -128, -127, -1, 0, 1, 126, 127, 128, 32767]
        values = np.array(wide, dtype=dtype).reshape(1, 2, 3, 2)
        got = bitcore.I8FeatureMap.saturate(values).values
        assert got.dtype == np.int8 and not np.shares_memory(got, values)
        assert np.array_equal(got, np.clip(values.astype(np.int64), -127, 127))

    def test_makes_no_wide_temporary(self):
        values = np.arange(-2**20, 2**20, dtype=np.int32).reshape(2, 1024, 1024, 1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            bitcore.I8FeatureMap.saturate(values)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < values.size * 1.25  # the int8 result (values.size bytes) and a buffer

    def test_saturate_into_writes_the_given_buffer(self):
        values = np.array([-300, -127, 5, 127, 300], dtype=np.int32)
        out = np.full(5, 99, dtype=np.int8)
        assert bitcore.saturate_into(values, out) is out
        assert out.tolist() == [-127, -127, 5, 127, 127]

    def test_clip_free_is_at_most_the_range(self):
        assert bitcore.clip_free(72) and bitcore.clip_free(bitcore.I8_MAX)
        assert not bitcore.clip_free(bitcore.I8_MAX + 1)


class TestBudgetSlices:
    @pytest.mark.parametrize("rows", [1, 1000, 1024, 1025, 5000])
    def test_cover_the_rows_in_budget_sized_steps(self, rows):
        row_bytes = bitcore.TILE_BYTE_BUDGET // 1024  # 1024 rows a slab
        slabs = bitcore.budget_slices(rows, row_bytes)
        assert [s.start for s in slabs] == list(range(0, rows, 1024))
        assert [s.stop - s.start for s in slabs[:-1]] == [1024] * (len(slabs) - 1)
        assert slabs[-1].stop == rows

    def test_a_row_over_the_budget_is_its_own_slab(self):
        slabs = bitcore.budget_slices(3, 2 * bitcore.TILE_BYTE_BUDGET)
        assert slabs == [slice(0, 1), slice(1, 2), slice(2, 3)]


class TestPacking:
    def test_sign_rule(self):
        x = np.array([0.3, -0.2, 0.0, -0.0], dtype=np.float64).reshape(1, 1, 1, 4)
        t = pack_activations(x)
        got = unpack_bits(t)[0, 0, 0]
        # 0.3 -> +1, -0.2 -> -1, both zeros -> +1 (sign(0) = +1)
        assert got.tolist() == [1, -1, 1, 1]

    @pytest.mark.parametrize("channels", [1, 3, 7, 63, 64, 65, 128, 200, 256])
    def test_roundtrip(self, channels):
        rng = np.random.default_rng(channels)
        x = rng.choice([-1.0, 1.0], size=(2, 3, 4, channels))
        t = pack_activations(x)
        assert t.dims == (2, 3, 4, channels)
        assert t.words_per_pixel == words_per_pixel(channels)
        assert np.array_equal(unpack_bits(t), x.astype(np.int8))

    def test_roundtrip_every_channel_count(self):
        rng = np.random.default_rng(0)
        for channels in range(1, 257):
            x = rng.choice([-1.0, 1.0], size=(1, 2, 2, channels))
            assert np.array_equal(unpack_bits(pack_activations(x)), x.astype(np.int8))

    def test_roundtrip_weights(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((5, 3, 3, 70))
        k = pack_weights(w)
        want = np.where(w >= 0, 1, -1).astype(np.int8)
        assert np.array_equal(unpack_weights(k), want)

    @pytest.mark.parametrize("channels", [1, 8, 63, 64, 65, 130])
    def test_pack_bitplanes_matches_per_bit_oracle(self, channels):
        rng = np.random.default_rng(channels)
        bits = rng.integers(0, 2, size=(2, 3, channels)).astype(bool)
        got = pack_bitplanes(bits)
        assert got.dtype == np.uint64
        assert got.shape == (2, 3, words_per_pixel(channels))
        for idx in np.ndindex(2, 3):
            want = [0] * words_per_pixel(channels)
            for c in range(channels):
                want[c // 64] |= int(bits[idx + (c,)]) << (c % 64)
            assert [int(v) for v in got[idx]] == want

    def test_all_ones_sets_every_unpadded_bit(self):
        t = pack_activations(np.ones((1, 2, 2, 10)))
        word = int(t.words[0, 0, 0, 0])
        assert word == (1 << 10) - 1

    def test_alternating_pattern(self):
        c = 16
        x = np.array([(-1.0) ** i for i in range(c)]).reshape(1, 1, 1, c)
        t = pack_activations(x)
        # channel 0 holds +1, so even bits are set: 0b...0101
        assert int(t.words[0, 0, 0, 0]) == 0x5555

    def test_pad_bits_zero(self):
        rng = np.random.default_rng(11)
        for c in (1, 5, 65, 127):
            x = rng.standard_normal((1, 2, 2, c))
            t = pack_activations(x)
            used = c - (t.words_per_pixel - 1) * 64
            if used < 64:
                stale = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(used)
                assert not np.any(t.words[..., -1] & stale)

    def test_figure_layout_two_kernels(self):
        # two 3x3x3 kernels: one word per site, 61 pad bits; the bias counts
        # the 9*61 pad matches twice and the 27 channel bits once
        k = pack_weights(np.ones((2, 3, 3, 3)))
        assert k.dims == (2, 3, 3, 3)
        assert k.words_per_site == 1
        assert k.channel_pad == 61
        assert _match_bias(3, 3, 3, 64 * k.words_per_site) == 2 * 549 + 27

    def test_exact_word_fit(self):
        k = pack_weights(np.ones((4, 3, 3, 64)))
        assert k.channel_pad == 0 and _match_bias(3, 3, 64, 64) == 9 * 64
        k2 = pack_weights(np.ones((4, 3, 3, 128)))
        assert k2.words_per_site == 2 and k2.channel_pad == 0
        assert _match_bias(3, 3, 128, 64 * k2.words_per_site) == 9 * 128

    @pytest.mark.parametrize("channels,bit", [(3, 3), (65, 63), (127, 63)])
    def test_kernel_with_a_set_pad_bit_rejected(self, channels, bit):
        # the match bias counts every pad bit as a match, so one set bit
        # would shift that output's count
        words = pack_weights(np.ones((2, 3, 3, channels))).words.copy()
        bitcore.PackedKernelSet((2, 3, 3, channels), words.copy())
        words[1, 2, 0, -1] |= np.uint64(1) << np.uint64(bit)
        with pytest.raises(ValueError, match="pad bits"):
            bitcore.PackedKernelSet((2, 3, 3, channels), words)

    @pytest.mark.parametrize("words_shape", [(2, 3, 3, 2), (2, 3, 3), (1, 3, 3, 1), (2, 3, 1, 1)])
    def test_kernel_words_must_fit_the_dims(self, words_shape):
        # two words per 3-channel site read as 2 * 27 extra pad matches:
        # a one-block model gave -81 where the 27 taps of -1 give -27
        with pytest.raises(ValueError, match="need \\(2, 3, 3, 1\\)"):
            bitcore.PackedKernelSet((2, 3, 3, 3), np.zeros(words_shape, np.uint64))
        k = bitcore.PackedKernelSet((2, 3, 3, 3), np.zeros((2, 3, 3, 1), np.uint64))
        assert k.words_per_site == 1

    @pytest.mark.parametrize("shape", [(0, 2, 2, 4), (1, 2, 0, 4), (1, 2, 2, 0)])
    def test_zero_dim_rejected(self, shape):
        with pytest.raises(ValueError):
            pack_activations(np.ones(shape))

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="exceeds addressable size"):
            BitPlaneTensor((1 << 20, 1 << 20, 2, 2), np.zeros((1, 1, 1, 1), np.uint64))

    def test_activation_words_must_fit_the_dims(self):
        # the words of a 5x5 map under 4x4 dims would convolve, unnoticed, to a 4x4 output
        words = pack_activations(np.ones((1, 5, 5, 8))).words
        with pytest.raises(ValueError, match=r"need \(1, 4, 4, 1\) of uint64"):
            BitPlaneTensor((1, 4, 4, 8), words)
        with pytest.raises(ValueError, match="words are int64"):
            BitPlaneTensor((1, 5, 5, 8), words.astype(np.int64))
        t = BitPlaneTensor((np.int64(1), np.uint8(5), 5, 8), words)
        assert t.dims == (1, 5, 5, 8) and all(type(d) is int for d in t.dims)
        with pytest.raises(ValueError, match=r"batch must be in \[1, inf\)"):
            BitPlaneTensor((0, 5, 5, 8), words[:0])  # an empty batch is no map

    def test_non_finite_rejected(self):
        x = np.ones((1, 1, 1, 2))
        x[0, 0, 0, 1] = np.nan
        with pytest.raises(ValueError):
            pack_activations(x)

    def test_packed_tensors_read_only(self):
        t = pack_activations(np.ones((1, 1, 1, 4)))
        with pytest.raises(ValueError):
            t.words[0, 0, 0, 0] = 0


class TestCheckInt:
    @pytest.mark.parametrize("value", [0, 5, np.int64(3), np.uint8(3), np.int8(5), 1 << 70])
    def test_integers_in_range_come_back_as_python_ints(self, value):
        hi = None if value == 1 << 70 else 5
        got = bitcore.check_int(value, "n", 0, hi)
        assert got == value and type(got) is int

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, np.False_, 3.0, np.float64(3), "3", None, -1, 6]
    )
    def test_anything_else_names_the_argument(self, value):
        with pytest.raises(ValueError, match=r"^n must be in \[0, 5\] as an integer, got "):
            bitcore.check_int(value, "n", 0, 5)

    def test_no_upper_bound_when_hi_is_none(self):
        with pytest.raises(ValueError, match=r"^n must be in \[1, inf\) as an integer, got 0$"):
            bitcore.check_int(0, "n", 1)


class TestPopcount:
    def test_identical_spans(self):
        a = np.array([0x0123456789ABCDEF, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert match_count(a, a) == 128

    def test_complement_spans(self):
        a = np.array([0x0123456789ABCDEF, 0x0], dtype=np.uint64)
        assert match_count(a, ~a) == 0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0xB17F10)
        for _ in range(10_000):
            n = int(rng.integers(1, 10))
            a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            b = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            assert match_count(a, b) == naive_match_count(a, b)

    def test_complement_law(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            a = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            b = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            assert match_count(a, b) + match_count(a, ~b) == 64 * n

    def test_empty_span(self):
        assert match_count(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64)) == 0

    def test_popcount_words(self):
        v = np.array([0, 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000001], dtype=np.uint64)
        assert _fold_matches(v[:, None]).tolist() == [0, 1, 64, 2]

    def test_every_byte_value_in_every_position(self):
        values = np.arange(256, dtype=np.uint64)
        want = [bin(b).count("1") for b in range(256)]
        for pos in range(8):
            v = values << np.uint64(8 * pos)
            assert _fold_matches(v[:, None]).tolist() == want
