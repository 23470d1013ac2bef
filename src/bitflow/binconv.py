"""Binary direct convolution over bit-packed operands.

The convolution is computed in place over the packed layout, one filter
tap at a time, with no im2col/GEMM materialization. Per packed word the
+-1 dot product reduces to ``2 * match_count - bits_in_word``; summing
over the receptive field and subtracting the kernel's fixed
``pad_correction`` yields the exact 32-bit result. Spatial padding uses
all-zero words, which read as -1 pixels under the bit convention.

Two output paths share that accumulation:

* ``conv_i32``: the exact result,
* ``conv_i8``: the exact result clamped once at the end to [-127, +127]
  (clamp-at-end semantics, identical to clipping the final accumulator of
  a training-time forward pass).

``conv_fused`` collapses binarize/pad/convolve into one tiled pass over
the input; tiling and worker count are pure performance knobs and never
change results.

The dense reference ``conv_float_oracle`` is one float32 GEMM over
:func:`im2col` rows, the same rows training multiplies.

The staged kernel counts matches with :func:`bitcore.byte_counts` and
widens every tap to int32. The fused kernel counts with
``np.bitwise_count``, adds the counts into uint16 lanes across taps and
sums the word axis to int32 once per drain; a site that fits one word is
held in the narrowest unsigned word that fits its channels (8, 16, 32 or
64 bits), so the 8-channel stem XORs and counts bytes, not 64-bit words.
Both kernels split output rows into spans with :func:`_run_row_spans`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bitcore import (
    WORD_BITS,
    BitPlaneTensor,
    I8FeatureMap,
    PackedKernelSet,
    byte_counts,
    pack_activations,
    pack_bitplanes,
)
from .bnquant import ThresholdParams, apply_threshold, threshold_bits

# Padded pixels decode to this value; {-1,+1} codes cannot represent 0.
PAD_VALUE = -1

# Default cache budget for one tile of packed input plus one kernel.
TILE_BYTE_BUDGET = 32 * 1024

I8_MAX = 127
I8_MIN = -127


@dataclass(frozen=True)
class ConvSpec:
    """Stride and spatial padding of a direct convolution."""

    stride: tuple[int, int] = (1, 1)
    spatial_pad: tuple[int, int] = (0, 0)

    def __post_init__(self):
        sh, sw = self.stride
        ph, pw = self.spatial_pad
        if sh < 1 or sw < 1:
            raise ValueError(f"stride must be positive, got {self.stride}")
        if ph < 0 or pw < 0:
            raise ValueError(f"padding must be non-negative, got {self.spatial_pad}")


@dataclass(frozen=True, eq=False)
class I32FeatureMap:
    """NHWC feature map of exact 32-bit +-1 dot products."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.dtype != np.int32:
            raise ValueError(f"expected int32 values, got {self.values.dtype}")
        self.values.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return tuple(self.values.shape)


def output_shape(in_dims, k_dims, spec: ConvSpec) -> tuple[int, int, int, int]:
    """Output dims of a direct convolution; raises on impossible geometry."""
    n, h, w, cin = in_dims
    out, fh, fw, kin = k_dims
    if cin != kin:
        raise ValueError(f"channel mismatch: input {cin}, kernel {kin}")
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    oh = (h + 2 * ph - fh) // sh + 1
    ow = (w + 2 * pw - fw) // sw + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"non-positive output dims {oh}x{ow} for input {h}x{w}, "
            f"filter {fh}x{fw}, stride {spec.stride}, pad {spec.spatial_pad}"
        )
    return n, oh, ow, out


def _pad_words(words: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return words
    n, h, w, wps = words.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, wps), dtype=np.uint64)
    out[:, ph : ph + h, pw : pw + w, :] = words
    return out


# The multiply-shift horizontal sum only holds totals below 256, so the
# lane-wise word fold ahead of it is limited to 3 words (3 * 64 <= 192).
_MULT_FOLD_WORDS = 3
_H8 = np.uint64(0x0101010101010101)


def _fold_matches(x: np.ndarray) -> np.ndarray:
    """Total set bits over the last (word) axis of a uint64 array.

    Byte-wise counts first, then either the multiply-shift horizontal sum
    (narrow folds) or pairwise widening (wide folds, where the total would
    overflow a byte).
    """
    x = byte_counts(x)
    wps = x.shape[-1]
    if wps == 1:
        folded = x[..., 0]
    elif wps <= _MULT_FOLD_WORDS:
        folded = x.sum(axis=-1, dtype=np.uint64)
    else:
        return _drain_lanes(x)
    return ((folded * _H8) >> np.uint64(56)).astype(np.int32)


def _match_counts(padded, kwords_inv, fh, fw, sh, sw, acc) -> None:
    """Add the XNOR match count of every output element to int32 ``acc``.

    ``acc`` is (n, oh, ow, out); ``kwords_inv`` holds bit-inverted kernel
    words, so XOR against the input is already XNOR against the kernel.
    Every tap is counted and widened to the 32-bit accumulator separately
    (the staged data flow).
    """
    _, oh, ow, _ = acc.shape
    for i in range(fh):
        for j in range(fw):
            slab = padded[
                :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, :
            ]
            x = np.bitwise_xor(slab[:, :, :, None, :], kwords_inv[:, i, j, :])
            acc += _fold_matches(x)


_L16 = np.uint64(0x00FF00FF00FF00FF)
_L32 = np.uint64(0x0000FFFF0000FFFF)
_L64 = np.uint64(0x00000000FFFFFFFF)


def _drain_lanes(lanes: np.ndarray) -> np.ndarray:
    """Sum per-byte lane counts to int32 totals over words.

    Pairwise widening (8 -> 16 -> 32 -> 64 bit lanes) then one final sum
    across the word axis; the narrow-lane analog of a horizontal add.
    """
    t = (lanes & _L16) + ((lanes >> np.uint64(8)) & _L16)
    t = (t & _L32) + ((t >> np.uint64(16)) & _L32)
    t = (t & _L64) + (t >> np.uint64(32))
    if t.shape[-1] == 1:
        return t[..., 0].astype(np.int32)
    return t.sum(axis=-1, dtype=np.uint64).astype(np.int32)


# A uint16 lane gains at most one word's bits (64) per tap, so up to 1023
# taps can be summed lane-wise before a widening drain is due.
_LANE_TAPS = np.iinfo(np.uint16).max // WORD_BITS


def _tile_matches(buf, kinv, fh, fw, sh, sw, oh, ow) -> np.ndarray:
    """Match counts for one tile with uint16 lane accumulation across taps.

    The fused kernel's inner loop: XNOR, ``np.bitwise_count`` into bytes,
    a lane-wise add into uint16, and one word-axis sum to int32 per drain
    instead of a 32-bit accumulate per tap. ``buf`` and ``kinv`` share one
    unsigned word type of any width; the counts include that word's
    channel-pad matches, which the caller's bias removes.
    """
    n = buf.shape[0]
    out, wps = kinv.shape[0], kinv.shape[3]
    shape5 = (n, oh, ow, out, wps)
    xbuf = np.empty(shape5, dtype=buf.dtype)
    counts = np.empty(shape5, dtype=np.uint8)
    lanes = np.zeros(shape5, dtype=np.uint16)
    acc = np.zeros((n, oh, ow, out), dtype=np.int32)
    pending = 0
    for i in range(fh):
        for j in range(fw):
            slab = buf[
                :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, :
            ]
            np.bitwise_xor(slab[:, :, :, None, :], kinv[:, i, j, :], out=xbuf)
            np.bitwise_count(xbuf, out=counts)
            lanes += counts
            pending += 1
            if pending == _LANE_TAPS:
                acc += lanes.sum(axis=-1, dtype=np.int32)
                lanes.fill(0)
                pending = 0
    if pending:
        acc += lanes.sum(axis=-1, dtype=np.int32)
    return acc


def _run_row_spans(oh: int, span_rows: int, threads: int, work) -> None:
    """Call ``work(y0, y1)`` on consecutive spans of ``span_rows`` output
    rows, on a pool of ``threads`` workers when there is more than one span."""
    spans = [(y, min(y + span_rows, oh)) for y in range(0, oh, span_rows)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda span: work(*span), spans))
    else:
        for span in spans:
            work(*span)


def conv_i32(
    x: BitPlaneTensor, k: PackedKernelSet, spec: ConvSpec, threads: int = 1
) -> I32FeatureMap:
    """Exact binary direct convolution.

    Every output element is the +-1 dot product over the receptive field,
    recovered from match counts as 2*(matches - pad_correction) - fh*fw*cin.
    """
    n, oh, ow, out = output_shape(x.dims, k.dims, spec)
    _, fh, fw, cin = k.dims
    sh, sw = spec.stride
    padded = _pad_words(x.words, *spec.spatial_pad)
    kinv = np.bitwise_not(k.words)
    acc = np.zeros((n, oh, ow, out), dtype=np.int32)

    def work(y0, y1):
        rows = padded[:, y0 * sh : (y1 - 1) * sh + fh]
        _match_counts(rows, kinv, fh, fw, sh, sw, acc[:, y0:y1])

    _run_row_spans(oh, -(-oh // max(threads, 1)), threads, work)
    bias = np.int32(2 * k.pad_correction + fh * fw * cin)
    return I32FeatureMap(2 * acc - bias)


def conv_i8(
    x: BitPlaneTensor, k: PackedKernelSet, spec: ConvSpec, threads: int = 1
) -> I8FeatureMap:
    """Clipped binary convolution: clamp(conv_i32, -127, +127), never -128."""
    wide = conv_i32(x, k, spec, threads)
    return I8FeatureMap(np.clip(wide.values, I8_MIN, I8_MAX).astype(np.int8))


def default_tile_rows(x_dims, k: PackedKernelSet, spec: ConvSpec) -> int:
    """Output rows per tile so one tile of packed input, over the whole
    batch, plus the kernel fits in the cache budget."""
    n, _, w, _ = x_dims
    _, fh, _, _ = k.dims
    sh, _ = spec.stride
    _, pw = spec.spatial_pad
    row_bytes = n * (w + 2 * pw) * k.words_per_site * 8
    kernel_bytes = k.words.size * 8
    budget_rows = (TILE_BYTE_BUDGET - kernel_bytes) // max(row_bytes, 1)
    return max(1, int((budget_rows - fh) // sh + 1))


def conv_fused(
    x_prev: I8FeatureMap,
    thr: ThresholdParams | None,
    k: PackedKernelSet,
    spec: ConvSpec,
    tile_rows: int | None = None,
    threads: int = 1,
) -> I8FeatureMap:
    """Fused binarize/pad/convolve with clipped 8-bit output.

    ``thr`` binarizes the 8-bit input per channel (threshold comparison);
    when absent the input is binarized by sign. The result is bit-identical
    to the staged pipeline (binarize, pack, pad, conv_i8) for every tile
    size and worker count; tiles only bound the packed working set.
    """
    if thr is not None and thr.channels != x_prev.channels:
        raise ValueError(
            f"threshold channels {thr.channels} != input channels {x_prev.channels}"
        )
    n, h, w, cin = x_prev.dims
    _, oh, ow, out = output_shape(x_prev.dims, k.dims, spec)
    _, fh, fw, _ = k.dims
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    wps = k.words_per_site
    if tile_rows is None:
        tile_rows = default_tile_rows(x_prev.dims, k, spec)
    tile_rows = max(1, min(tile_rows, oh))
    # A site that fits one word is held in the narrowest unsigned word that
    # holds its channels; the word's high bits are pad matches, as in uint64.
    word = np.min_scalar_type((1 << cin) - 1) if wps == 1 else np.dtype(np.uint64)
    lane_bits = 8 * word.itemsize
    bias = np.int32(2 * fh * fw * (wps * lane_bits - cin) + fh * fw * cin)
    kinv = np.bitwise_not(k.words.astype(word))
    result = np.empty((n, oh, ow, out), dtype=np.int8)

    def run_tile(y0, y1):
        r0, r1 = y0 * sh, (y1 - 1) * sh + fh  # padded input row range
        buf = np.zeros((n, r1 - r0, w + 2 * pw, wps), dtype=word)
        lo, hi = max(r0, ph), min(r1, ph + h)
        if hi > lo:
            rows = x_prev.values[:, lo - ph : hi - ph, :, :]
            bits = (rows >= 0) if thr is None else threshold_bits(rows, thr)
            # narrowing drops only zero channel-pad bits
            buf[:, lo - r0 : hi - r0, pw : pw + w, :] = pack_bitplanes(bits)
        acc = _tile_matches(buf, kinv, fh, fw, sh, sw, y1 - y0, ow)
        acc *= 2
        acc -= bias
        np.clip(acc, I8_MIN, I8_MAX, out=acc)
        result[:, y0:y1] = acc.astype(np.int8)

    _run_row_spans(oh, tile_rows, threads, run_tile)
    return I8FeatureMap(result)


def staged_conv_i8(
    x_prev: I8FeatureMap,
    thr: ThresholdParams | None,
    k: PackedKernelSet,
    spec: ConvSpec,
    threads: int = 1,
) -> I8FeatureMap:
    """Sequential binarize -> pack -> pad -> convolve -> clamp pipeline.

    Reference for fusion-transparency checks and the staged benchmark
    variant; every step materializes its output.
    """
    if thr is None:
        packed = pack_activations(x_prev.values)
    else:
        packed = apply_threshold(x_prev, thr)
    return conv_i8(packed, k, spec, threads)


def im2col(a: np.ndarray, fh: int, fw: int, spec: ConvSpec) -> np.ndarray:
    """Receptive fields of an NHWC tensor as (n, oh, ow, fh*fw*c) float32
    rows padded with -1, taps in the (i, j, channel) order of a kernel."""
    n, h, w, c = a.shape
    _, oh, ow, _ = output_shape(a.shape, (1, fh, fw, c), spec)
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    ap = np.full((n, h + 2 * ph, w + 2 * pw, c), float(PAD_VALUE), dtype=np.float32)
    ap[:, ph : ph + h, pw : pw + w, :] = a
    cols = np.empty((n, oh, ow, fh, fw, c), dtype=np.float32)
    for i in range(fh):
        for j in range(fw):
            cols[:, :, :, i, j] = ap[
                :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, :
            ]
    return cols.reshape(n, oh, ow, fh * fw * c)


def conv_float_oracle(a: np.ndarray, w: np.ndarray, spec: ConvSpec) -> I32FeatureMap:
    """Dense convolution of +-1 tensors: the im2col rows times the
    flattened kernel, one float32 GEMM.

    Ground truth for the packed paths; pads with -1 like the engine. float32
    holds every integer below 2**24, so sums of fewer taps are exact in any
    order; larger kernels raise ``ValueError``.
    """
    a = np.asarray(a)
    w = np.asarray(w)
    output_shape(a.shape, w.shape, spec)
    out, fh, fw, cin = w.shape
    if fh * fw * cin >= 1 << 24:
        raise ValueError(
            f"oracle is exact below 2**24 taps, got {fh}x{fw}x{cin} = {fh * fw * cin}"
        )
    if not (np.isin(a, (-1, 1)).all() and np.isin(w, (-1, 1)).all()):
        raise ValueError("oracle operands must be +-1 valued")
    wmat = w.reshape(out, -1).T.astype(np.float32)
    return I32FeatureMap((im2col(a, fh, fw, spec) @ wmat).astype(np.int32))
