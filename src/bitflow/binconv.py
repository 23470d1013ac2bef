"""Binary direct convolution over bit-packed operands.

The convolution is computed in place over the packed layout, one filter
tap at a time, with no im2col/GEMM materialization. Per packed word the
+-1 dot product reduces to ``2 * match_count - bits_in_word``; summing
over the receptive field and subtracting one fixed bias per output
(:func:`_match_bias`, which also cancels the channel-pad matches) yields
the exact 32-bit result. Spatial padding uses all-zero words, which read
as -1 pixels under the bit convention.

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

Both kernels count with ``np.bitwise_count``. The staged kernel counts
bytes, folds each word's byte counts with one multiply-shift and widens
every tap to int32. The fused kernel XORs each tap against every filter
at once, its buffers laid out ``(n, rows, ow, wps, out)``; a one-word
site is held in the narrowest unsigned word that fits its channels (8,
16, 32 or 64 bits), so the 8-channel stem XORs bytes. The filter sets its
narrow types (:func:`_lane_types`): counts add across taps in uint8 lanes
when all taps fit, else uint16, and sum over words into an int16
accumulator when twice the matches fit, else int32. A one-word site that
never drains mid-loop skips the word-axis sum, and the epilogue stays in
the accumulator type, or in uint8 where the clamp cannot fire, so the
stem never widens past 8 bits. Both kernels split output rows into spans
with :func:`_run_row_spans`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitcore import (
    _MAX_ELEMENTS,
    WORD_BITS,
    BitPlaneTensor,
    I8FeatureMap,
    PackedKernelSet,
    pack_activations,
    pack_bitplanes,
)
from .bnquant import ThresholdParams, apply_threshold, threshold_bits

# Padded pixels decode to this value; {-1,+1} codes cannot represent 0.
PAD_VALUE = -1

# Cache budget for one fused tile's buffers and kernel, half a 2 MiB per-core L2:
# on the bench suite's batch-1 shapes, tiles of about 0.4-1.5 MiB ran fastest.
TILE_BYTE_BUDGET = 1 << 20

I8_MAX = 127
I8_MIN = -127

# The dense oracle is exact below this many taps (fh * fw * cin) in float32.
ORACLE_MAX_TAPS = 1 << 24


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


def output_shape(in_dims, k_dims, spec: ConvSpec) -> tuple[int, int, int, int]:
    """Output dims of a direct convolution; raises on impossible geometry or size."""
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
    if n * oh * ow * out > _MAX_ELEMENTS:
        raise ValueError(f"output {n}x{oh}x{ow}x{out} exceeds {_MAX_ELEMENTS} elements")
    return n, oh, ow, out


def _pad_words(words: np.ndarray, ph: int, pw: int) -> np.ndarray:
    if ph == 0 and pw == 0:
        return words
    n, h, w, wps = words.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, wps), dtype=np.uint64)
    out[:, ph : ph + h, pw : pw + w, :] = words
    return out


# Multiplying by this sums a word's eight bytes into its top byte.
_H8 = np.uint64(0x0101010101010101)


def _fold_matches(x: np.ndarray) -> np.ndarray:
    """Set bits over the last (word) axis of a uint64 array with contiguous
    words, counted in place: ``np.bitwise_count`` per byte, one multiply-shift
    per word (at most 64, so the top byte never overflows), an int32 word sum."""
    counts = np.bitwise_count(x.view(np.uint8), out=x.view(np.uint8)).view(np.uint64)
    counts *= _H8
    counts >>= np.uint64(56)
    return counts.sum(axis=-1, dtype=np.int32)


def _match_bias(fh: int, fw: int, cin: int, site_bits: int) -> np.int32:
    """``2 * matches`` minus the +-1 dot product over fh*fw sites of
    ``site_bits`` bits: the fh*fw*cin channel bits count once, and the
    fh*fw*(site_bits - cin) pad bits, which always match, twice."""
    return np.int32(fh * fw * (2 * site_bits - cin))


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


def _add_words(acc, lanes, acc_type):
    """``acc`` (None before the first drain) plus the lanes summed over words."""
    part = lanes.sum(axis=-2, dtype=acc_type)
    return part if acc is None else np.add(acc, part, out=acc)


def _tile_matches(buf, kinv, fh, fw, sh, sw, oh, ow, lane, acc_type) -> np.ndarray:
    """Match counts for one tile, accumulated across taps in ``lane`` lanes.

    The fused kernel's inner loop: XNOR, ``np.bitwise_count`` into bytes and
    a lane-wise add. The lanes drain into ``acc_type`` by a word-axis sum
    before a tap would overflow them (every ``iinfo(lane).max // lane_bits``
    taps) and at the end, except that a one-word site that never drained
    mid-loop returns its lanes themselves, with no sum.
    Kernel words are ``(fh, fw, wps, out)`` and every buffer
    ``(n, oh, ow, wps, out)``, so each ufunc's inner loop spans all filters.
    ``buf`` and ``kinv`` share one unsigned word type of any width; the
    counts include its channel-pad matches, which the caller's bias removes.
    """
    n = buf.shape[0]
    wps, out = kinv.shape[2:]
    shape5 = (n, oh, ow, wps, out)
    drain_taps = np.iinfo(lane).max // (8 * buf.itemsize)
    xbuf = np.empty(shape5, dtype=buf.dtype)
    counts = np.empty(shape5, dtype=np.uint8)
    lanes = np.zeros(shape5, dtype=lane)
    acc = None
    pending = 0
    for i in range(fh):
        for j in range(fw):
            if pending == drain_taps:  # full, and another tap is due
                acc = _add_words(acc, lanes, acc_type)
                lanes.fill(0)
                pending = 0
            slab = buf[
                :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, :
            ]
            np.bitwise_xor(slab[:, :, :, :, None], kinv[i, j], out=xbuf)
            np.bitwise_count(xbuf, out=counts)
            lanes += counts
            pending += 1
    if acc is None and wps == 1:
        return lanes[:, :, :, 0]
    return _add_words(acc, lanes, acc_type)


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
    recovered from match counts as 2*matches - _match_bias(...).
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
    return I32FeatureMap(2 * acc - _match_bias(fh, fw, cin, WORD_BITS * k.words_per_site))


def conv_i8(
    x: BitPlaneTensor, k: PackedKernelSet, spec: ConvSpec, threads: int = 1
) -> I8FeatureMap:
    """Clipped binary convolution: clamp(conv_i32, -127, +127), never -128."""
    wide = conv_i32(x, k, spec, threads)
    return I8FeatureMap(np.clip(wide.values, I8_MIN, I8_MAX).astype(np.int8))


def _site_word(cin: int, wps: int) -> np.dtype:
    """The fused kernel's word: the narrowest unsigned word that holds a
    one-word site's channels, else uint64."""
    return np.min_scalar_type((1 << cin) - 1) if wps == 1 else np.dtype(np.uint64)


def _lane_types(fh: int, fw: int, word: np.dtype, wps: int) -> tuple[np.dtype, np.dtype]:
    """The fused kernel's lane and accumulator types. A lane gains at most
    one word's bits per tap, so uint8 lanes hold all fh*fw taps when
    ``fh * fw * lane_bits <= 255``, else uint16 lanes drain mid-loop. The
    accumulator holds ``2 * matches`` over the site's words before the bias
    comes off: int16 when ``2 * fh * fw * lane_bits * wps <= 32767``, else
    int32."""
    tap_bits = fh * fw * 8 * word.itemsize
    lane = np.dtype(np.uint8 if tap_bits <= np.iinfo(np.uint8).max else np.uint16)
    acc = np.dtype(np.int16 if 2 * tap_bits * wps <= np.iinfo(np.int16).max else np.int32)
    return lane, acc


def default_tile_rows(x_dims, k: PackedKernelSet, spec: ConvSpec) -> int:
    """Output rows per tile so one tile's buffers, over the whole batch, fit
    the cache budget: per output row the XOR, count and lane buffers of
    :func:`_tile_matches` (word, 1 and lane bytes per word) and its
    accumulator, plus the packed input rows the tile reads and the kernel."""
    n, _, ow, out = output_shape(x_dims, k.dims, spec)
    _, _, w, cin = x_dims
    _, fh, fw, _ = k.dims
    sh, pw, wps = spec.stride[0], spec.spatial_pad[1], k.words_per_site
    word = _site_word(cin, wps)
    lane, acc = _lane_types(fh, fw, word, wps)
    in_row = n * (w + 2 * pw) * wps * word.itemsize
    per_word = word.itemsize + 1 + lane.itemsize
    row_bytes = n * ow * out * (wps * per_word + acc.itemsize) + sh * in_row
    fixed_bytes = k.words.size * word.itemsize + (fh - sh) * in_row
    return max(1, (TILE_BYTE_BUDGET - fixed_bytes) // row_bytes)


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
    size and worker count; tiles only bound the working set.
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
    if tile_rows is None:  # the budget's tile, at most one worker's share
        tile_rows = min(default_tile_rows(x_prev.dims, k, spec), -(-oh // max(threads, 1)))
    tile_rows = max(1, min(tile_rows, oh))
    # a narrow word's high bits are pad matches, as in uint64
    word = _site_word(cin, wps)
    lane, acc_type = _lane_types(fh, fw, word, wps)
    bias = int(_match_bias(fh, fw, cin, 8 * word.itemsize * wps))
    # |2 * matches - bias| <= fh*fw*cin; at most 127 the clamp never fires,
    # so the low byte of 2 * matches - bias, wrapped in uint8, is the result
    wrap = fh * fw * cin <= I8_MAX
    kinv = np.ascontiguousarray(np.bitwise_not(k.words.astype(word)).transpose(1, 2, 3, 0))
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
        acc = _tile_matches(buf, kinv, fh, fw, sh, sw, y1 - y0, ow, lane, acc_type)
        if wrap:
            y = np.multiply(acc, 2, out=result[:, y0:y1].view(np.uint8), casting="unsafe")
            y -= np.uint8(bias & 0xFF)
        else:
            y = np.multiply(acc, 2, out=acc if acc.dtype == acc_type else None, dtype=acc_type)
            y -= bias
            np.clip(y, I8_MIN, I8_MAX, out=y)
            result[:, y0:y1] = y

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
    rows padded with -1, taps in the (i, j, channel) order of a kernel: one
    copy of a strided ``sliding_window_view`` of the padded input."""
    n, h, w, c = a.shape
    _, oh, ow, _ = output_shape(a.shape, (1, fh, fw, c), spec)
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    ap = np.full((n, h + 2 * ph, w + 2 * pw, c), float(PAD_VALUE), dtype=np.float32)
    ap[:, ph : ph + h, pw : pw + w, :] = a
    win = sliding_window_view(ap, (fh, fw), axis=(1, 2))
    win = win[:, : (oh - 1) * sh + 1 : sh, : (ow - 1) * sw + 1 : sw]
    return win.transpose(0, 1, 2, 4, 5, 3).reshape(n, oh, ow, fh * fw * c)


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
    if fh * fw * cin >= ORACLE_MAX_TAPS:
        raise ValueError(
            f"oracle is exact below 2**24 taps, got {fh}x{fw}x{cin} = {fh * fw * cin}"
        )
    if not (((a == 1) | (a == -1)).all() and ((w == 1) | (w == -1)).all()):
        raise ValueError("oracle operands must be +-1 valued")
    wmat = w.reshape(out, -1).T.astype(np.float32)
    return I32FeatureMap((im2col(a, fh, fw, spec) @ wmat).astype(np.int32))
