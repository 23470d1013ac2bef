"""Bit-packed tensor storage.

Packing convention, shared by every module in this package:

* one stored bit per value; bit 1 decodes to +1 and bit 0 to -1
  (``value = 2*bit - 1``),
* bits are packed along the channel axis into 64-bit words, channel 0 at
  the least-significant bit of the first word,
* channels are rounded up to whole words and the unused high bits of the
  final word are always zero.

Because the pad bits are zero in *both* operands of a match count, every
pad position XNORs to a match. The convolution subtracts that fixed bias
once per output (``binconv._match_bias``), which keeps its inner loops
branch free. Words are fixed at 64 bits and serialize little-endian, so
packed tensors are bit-exact across platforms. Population counts live in
:mod:`bitflow.binconv`, which counts with ``np.bitwise_count``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64

# Refuse shapes whose element count could overflow intermediate buffers.
_MAX_ELEMENTS = 1 << 40


def words_per_pixel(channels: int) -> int:
    """Number of 64-bit words needed to hold one pixel's channels."""
    return -(-channels // WORD_BITS)


def _check_dims(dims, names) -> None:
    if len(dims) != len(names):
        raise ValueError(f"expected {len(names)} dims {names}, got {dims}")
    total = 1
    for name, d in zip(names, dims):
        if int(d) <= 0:
            raise ValueError(f"dimension {name}={d} must be positive")
        total *= int(d)
    if total > _MAX_ELEMENTS:
        raise ValueError(f"tensor of {total} elements exceeds addressable size")


@dataclass(frozen=True, eq=False)
class BitPlaneTensor:
    """NHWC activations packed one bit per value along channels.

    ``words`` has shape (batch, height, width, words_per_pixel), dtype
    uint64.
    """

    dims: tuple[int, int, int, int]
    words: np.ndarray

    def __post_init__(self):
        self.words.setflags(write=False)

    @property
    def channels(self) -> int:
        return self.dims[3]

    @property
    def words_per_pixel(self) -> int:
        return self.words.shape[3]


@dataclass(frozen=True, eq=False)
class PackedKernelSet:
    """Binary convolution weights in (out, fh, fw, in) order, bit-packed.

    Memory order is out_channels-major, then filter row, filter column,
    packed input channels, so one (out, fh, fw) site is a contiguous run
    of words.
    """

    dims: tuple[int, int, int, int]
    words: np.ndarray

    def __post_init__(self):
        self.words.setflags(write=False)

    @property
    def out_channels(self) -> int:
        return self.dims[0]

    @property
    def in_channels(self) -> int:
        return self.dims[3]

    @property
    def words_per_site(self) -> int:
        return self.words.shape[3]

    @property
    def channel_pad(self) -> int:
        """Zero bits appended to each site to round channels up to words."""
        return self.words_per_site * WORD_BITS - self.in_channels


@dataclass(frozen=True, eq=False)
class I8FeatureMap:
    """NHWC feature map of 8-bit integers restricted to [-127, +127].

    -128 never appears; the interval is kept symmetric so negation and
    saturating accumulation stay closed over the type.
    """

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 4:
            raise ValueError(f"feature map must be NHWC, got shape {v.shape}")
        if v.dtype != np.int8:
            raise ValueError(f"feature map must be int8, got {v.dtype}")
        if v.size and int(v.min()) < -127:
            raise ValueError("feature map contains values below -127")
        v.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return tuple(self.values.shape)

    @property
    def channels(self) -> int:
        return self.values.shape[3]


def pack_bitplanes(bits: np.ndarray) -> np.ndarray:
    """Pack a {0,1} array along its last axis into uint64 words, LSB first.

    The last axis is the channel axis; it is zero-padded up to a word
    multiple. Returns an array with the last axis replaced by
    words_per_pixel(channels). Bytes come out of ``np.packbits`` in
    little-endian word order, so viewing them as ``<u8`` gives the same
    words on any host.
    """
    bits = np.asarray(bits)
    lead, c = bits.shape[:-1], bits.shape[-1]
    if c % 8:
        packed = np.packbits(bits, axis=-1, bitorder="little")
    else:
        # whole bytes per pixel: one flat pack skips packbits' per-row cost
        packed = np.packbits(bits.reshape(-1), bitorder="little").reshape(lead + (c // 8,))
    nbytes = words_per_pixel(c) * (WORD_BITS // 8)
    if packed.shape[-1] != nbytes:
        padded = np.zeros(lead + (nbytes,), dtype=np.uint8)
        padded[..., : packed.shape[-1]] = packed
        packed = padded
    return packed.view("<u8").astype(np.uint64, copy=False)


def unpack_bitplanes(words: np.ndarray, channels: int) -> np.ndarray:
    """Inverse of :func:`pack_bitplanes`; returns uint8 bits, last axis = channels."""
    as_bytes = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=-1, bitorder="little")[..., :channels]


def pack_activations(x: np.ndarray) -> BitPlaneTensor:
    """Binarize a real NHWC tensor by sign and bit-pack it.

    The sign convention is value >= 0 -> bit 1 (+1), value < 0 -> bit 0
    (-1); zero maps to +1.
    """
    x = np.asarray(x)
    _check_dims(x.shape, ("batch", "height", "width", "channels"))
    if not np.isfinite(x).all():
        raise ValueError("activations must be finite")
    return BitPlaneTensor(tuple(x.shape), pack_bitplanes(x >= 0))


def pack_weights(w: np.ndarray) -> PackedKernelSet:
    """Binarize a real (out, fh, fw, in) weight tensor by sign and bit-pack it."""
    w = np.asarray(w)
    _check_dims(w.shape, ("out_channels", "filter_h", "filter_w", "in_channels"))
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    return PackedKernelSet(tuple(w.shape), pack_bitplanes(w >= 0))


def unpack_bits(t: BitPlaneTensor) -> np.ndarray:
    """Decode a packed activation tensor back to an int8 NHWC tensor of +-1."""
    bits = unpack_bitplanes(t.words, t.channels)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def unpack_weights(k: PackedKernelSet) -> np.ndarray:
    """Decode a packed kernel set back to an int8 (out, fh, fw, in) tensor of +-1."""
    bits = unpack_bitplanes(k.words, k.in_channels)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def _check_pad_bits(words: np.ndarray, channels: int) -> None:
    used = channels - (words_per_pixel(channels) - 1) * WORD_BITS
    if used == WORD_BITS:
        return
    stale = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(used)
    if np.any(words[..., -1] & stale):
        raise ValueError("channel pad bits must be zero")
