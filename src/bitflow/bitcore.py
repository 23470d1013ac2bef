"""Bit-packed tensor storage and the staged kernel's byte-count fold.

Packing convention, shared by every module in this package:

* one stored bit per value; bit 1 decodes to +1 and bit 0 to -1
  (``value = 2*bit - 1``),
* bits are packed along the channel axis into 64-bit words, channel 0 at
  the least-significant bit of the first word,
* channels are rounded up to whole words and the unused high bits of the
  final word are always zero.

Because the pad bits are zero in *both* operands of a match count, every
pad position XNORs to a match. The kernel-side ``pad_correction`` constant
cancels that fixed bias, which keeps the convolution inner loops branch
free. Words are fixed at 64 bits and serialize little-endian, so packed
tensors are bit-exact across platforms.

:func:`byte_counts` is the staged convolution's population count: it
turns every byte of a word into its set-bit count. The fused kernel counts
with ``np.bitwise_count`` instead (see :mod:`bitflow.binconv`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORD_BITS = 64

# Masks of the byte-count fold: bit pairs, nibbles, bytes.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)

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
    uint64. ``channel_pad`` counts the zero bits appended to each pixel to
    round channels up to a word multiple.
    """

    dims: tuple[int, int, int, int]
    words: np.ndarray
    channel_pad: int

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
    of words. ``pad_correction`` is the number of channel-pad positions a
    full receptive field contributes to a match count
    (filter_h * filter_w * channel_pad).
    """

    dims: tuple[int, int, int, int]
    words: np.ndarray
    channel_pad: int
    pad_correction: int

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
    words = pack_bitplanes(x >= 0)
    c = x.shape[3]
    return BitPlaneTensor(tuple(x.shape), words, words_per_pixel(c) * WORD_BITS - c)


def pack_weights(w: np.ndarray) -> PackedKernelSet:
    """Binarize a real (out, fh, fw, in) weight tensor by sign and bit-pack it."""
    w = np.asarray(w)
    _check_dims(w.shape, ("out_channels", "filter_h", "filter_w", "in_channels"))
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    words = pack_bitplanes(w >= 0)
    out, fh, fw, cin = w.shape
    pad = words_per_pixel(cin) * WORD_BITS - cin
    return PackedKernelSet(tuple(w.shape), words, pad, fh * fw * pad)


def unpack_bits(t: BitPlaneTensor) -> np.ndarray:
    """Decode a packed activation tensor back to an int8 NHWC tensor of +-1."""
    bits = unpack_bitplanes(t.words, t.channels)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def unpack_weights(k: PackedKernelSet) -> np.ndarray:
    """Decode a packed kernel set back to an int8 (out, fh, fw, in) tensor of +-1."""
    bits = unpack_bitplanes(k.words, k.in_channels)
    return (2 * bits.astype(np.int8) - 1).astype(np.int8)


def byte_counts(v: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Replace every byte of a uint64 array with its set-bit count, in place.

    Three masked folds (bit pairs, nibbles, bytes) leave each byte holding
    0..8, what a SIMD byte-count instruction produces. ``scratch``, a uint64
    array of ``v``'s shape, takes the shifted operand so repeated calls
    allocate nothing. Returns ``v``.
    """
    t = np.right_shift(v, np.uint64(1), out=scratch)
    t &= _M1
    v -= t
    np.right_shift(v, np.uint64(2), out=t)
    t &= _M2
    v &= _M2
    v += t
    np.right_shift(v, np.uint64(4), out=t)
    v += t
    v &= _M4
    return v


def _check_pad_bits(words: np.ndarray, channels: int) -> None:
    used = channels - (words_per_pixel(channels) - 1) * WORD_BITS
    if used == WORD_BITS:
        return
    stale = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(used)
    if np.any(words[..., -1] & stale):
        raise ValueError("channel pad bits must be zero")
