"""Binary direct convolution over bit-packed operands.

The convolution is computed in place over the packed layout, one filter
tap (or one group of taps) at a time, with no im2col/GEMM over unpacked
values. Per packed word the
+-1 dot product reduces to ``2 * match_count - bits_in_word``; summing
over the receptive field and subtracting one fixed bias per output
(:func:`_match_bias`, which also cancels the channel-pad matches) yields
the exact 32-bit result. Spatial padding uses all-zero words, which read
as -1 pixels under the bit convention.

Two output paths share that accumulation:

* ``conv_i32``: the exact result,
* ``conv_i8``: the exact result clamped once at the end to [-127, +127]
  by ``I8FeatureMap.saturate`` (clamp-at-end semantics, identical to
  clipping the final accumulator of a training-time forward pass).

``conv_fused`` collapses binarize/pad/convolve into one tiled pass over
the input. Two functions own its decisions: :func:`fuse_kernel` builds,
once per kernel, the kernel's fused form (:class:`FusedKernel`: narrowed,
bit-inverted words and every type the tap loop uses), which netgraph's
blocks build at construction; :func:`tile_plan` picks, once per call, the
tile rows and the taps per group from one tile byte model. Tiles, tap
groups and worker count are pure performance knobs and never change
results.

The dense reference ``conv_float_oracle`` is one 2-D float32 GEMM
(:func:`gemm_rows`) over :func:`im2col` rows, the same rows and the same
product training uses.

Both kernels count with ``np.bitwise_count``. The staged kernel counts
bytes, folds each word's byte counts with one multiply-shift and widens
every tap to int32. The fused kernel XORs a group of taps against every
filter at once in ``(taps·wps, A, B)`` buffers whose inner axis B is the
longer of the tile's sites (also on a tie) and filters, as numpy pays a
fixed cost per inner loop, then counts and sums the group's taps into
narrow lanes, sized to hold every tap, in one call each. The XOR of 4- and
8-byte words runs under a 16-element ufunc buffer, so numpy iterates its
broadcast operands in place instead of copying them through the buffer;
narrower words, and every other call, keep the default. A one-word site
skips the word-axis sum, and the epilogue stays in the accumulator type,
or in uint8 where the clamp cannot fire. Both kernels split output rows
into spans with :func:`_run_row_spans`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bitcore import (
    _MAX_ELEMENTS,
    I8_MAX,
    TILE_BYTE_BUDGET,
    WORD_BITS,
    BitPlaneTensor,
    I8FeatureMap,
    PackedKernelSet,
    check_int,
    check_map_dims,
    clip_free,
    pack_activations,
    pack_bitplanes,
)
from .bnquant import ThresholdParams, apply_threshold, threshold_bits

# Padded pixels decode to this value; {-1,+1} codes cannot represent 0.
PAD_VALUE = -1

# The dense oracle is exact below this many taps (fh * fw * cin) in float32.
ORACLE_MAX_TAPS = 1 << 24

# Most worker threads one engine call may use: the row-span pool starts up to
# this many, so an absurd count is an error, not one OS thread per row.
MAX_THREADS = 64


@dataclass(frozen=True)
class ConvSpec:
    """Stride and spatial padding of a direct convolution."""

    stride: tuple[int, int] = (1, 1)
    spatial_pad: tuple[int, int] = (0, 0)

    def __post_init__(self):
        for name, lo in (("stride", 1), ("spatial_pad", 0)):  # kept as a tuple of ints
            pair = getattr(self, name)
            if np.shape(pair) != (2,):
                raise ValueError(f"{name} must be a pair of integers, got {pair!r}")
            object.__setattr__(self, name, tuple(check_int(v, name, lo) for v in pair))


@dataclass(frozen=True, eq=False)
class I32FeatureMap:
    """NHWC feature map of exact 32-bit +-1 dot products."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.dtype != np.int32:
            raise ValueError(f"expected int32 values, got {self.values.dtype}")
        self.values.setflags(write=False)


def output_shape(in_dims, k_dims, spec: ConvSpec) -> tuple[int, int, int, int]:
    """Output dims of a direct convolution; raises on an empty input dim, bad geometry or size."""
    n, h, w, cin = in_dims
    check_map_dims(in_dims)
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


# Ufunc buffer (elements) of the fused XOR of 4- and 8-byte words: numpy then
# iterates its broadcast operands in place, where the default buffer copies
# them (88 -> 34 us on a (4, 112, 256) uint64 group; narrower words slow down).
_WIDE_XOR_BUFSIZE = 16

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


def _tile_matches(buf, k, sh, sw, oh, ow, group) -> np.ndarray:
    """Match counts for one tile, accumulated across taps in ``k.lane`` lanes.

    The fused kernel's inner loop, over groups of ``group`` taps in (i, j)
    order (the last group may be shorter): it copies each of the group's
    input slabs into one block, then makes one XNOR, one
    ``np.bitwise_count`` into bytes and one sum over the group's taps into
    the lanes; a group of one tap is the plain per-tap loop. The XOR of 4-
    and 8-byte words runs under a ``_WIDE_XOR_BUFSIZE`` ufunc buffer, set in
    an ``np.errstate()`` scope so the caller's buffer size comes back; every
    other call keeps the default buffer. The lanes hold
    every tap's matches; at the end a one-word site returns its lanes
    themselves, and a wider one sums them over words into ``k.acc``.
    ``buf`` is ``(wps, n, rows, w)`` in ``k.word``; each tap's slab is one
    ``(wps, sites)`` block, and a group's buffers are ``(group·wps, out,
    sites)`` when sites are at least as many as filters, else
    ``(group·wps, sites, out)``. Returns ``(n, oh, ow, out)``, transposed
    if so. The counts include the word's channel-pad matches, which the
    caller's bias removes.
    """
    wps, n = buf.shape[:2]
    fh, fw, _, out = k.kinv.shape
    taps, sites = fh * fw, n * oh * ow
    s_word, s_img, s_row, s_col = buf.strides
    # every tap's (wps, n, oh, ow) slab of the tile, as one strided view
    slabs = np.ndarray(
        (fh, fw, wps, n, oh, ow), buf.dtype, buf, 0,
        (s_row, s_col, s_word, s_img, sh * s_row, sw * s_col),
    )
    block = np.empty((group * wps, sites), dtype=buf.dtype)
    gathered = block.reshape(group, wps, n, oh, ow)
    kinv = k.kinv.reshape(taps * wps, out)
    if sites >= out:
        x, kin, shape = block[:, None, :], kinv[..., None], (wps, out, sites)
    else:
        x, kin, shape = block[..., None], kinv[:, None, :], (wps, sites, out)
    xbuf = np.empty((group * wps, *shape[1:]), dtype=buf.dtype)
    counts = np.empty(xbuf.shape, dtype=np.uint8)
    lanes = np.zeros(shape, dtype=k.lane)
    wide = k.word.itemsize >= 4
    for t0 in range(0, taps, group):
        g = min(group, taps - t0)
        for t in range(g):
            gathered[t] = slabs[divmod(t0 + t, fw)]
        m = g * wps
        xs, xg, cg = (x, xbuf, counts) if g == group else (x[:m], xbuf[:m], counts[:m])
        kg = kin[t0 * wps : t0 * wps + m]
        if wide:
            with np.errstate():  # restores the caller's buffer size on exit
                np.setbufsize(_WIDE_XOR_BUFSIZE)
                np.bitwise_xor(xs, kg, out=xg)
        else:  # an errstate scope costs about 1.7 us a group
            np.bitwise_xor(xs, kg, out=xg)
        np.bitwise_count(xg, out=cg)
        # one tap's counts are its own sum (a length-1 reduce costs more than the add)
        lanes += cg if g == 1 else np.add.reduce(cg.reshape(g, *shape), axis=0, dtype=k.lane)
    acc = lanes[0] if wps == 1 else lanes.sum(axis=0, dtype=k.acc)
    if sites >= out:
        return acc.reshape(out, n, oh, ow).transpose(1, 2, 3, 0)
    return acc.reshape(n, oh, ow, out)


def check_threads(threads) -> int:
    """``threads`` as an int if it is an integer in [1, MAX_THREADS], else ``ValueError``."""
    return check_int(threads, "threads", 1, MAX_THREADS)


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
    threads = check_threads(threads)
    n, oh, ow, out = output_shape(x.dims, k.dims, spec)
    _, fh, fw, cin = k.dims
    sh, sw = spec.stride
    padded = _pad_words(x.words, *spec.spatial_pad)
    kinv = np.bitwise_not(k.words)
    acc = np.zeros((n, oh, ow, out), dtype=np.int32)

    def work(y0, y1):
        rows = padded[:, y0 * sh : (y1 - 1) * sh + fh]
        _match_counts(rows, kinv, fh, fw, sh, sw, acc[:, y0:y1])

    _run_row_spans(oh, -(-oh // threads), threads, work)
    return I32FeatureMap(2 * acc - _match_bias(fh, fw, cin, WORD_BITS * k.words_per_site))


def conv_i8(
    x: BitPlaneTensor, k: PackedKernelSet, spec: ConvSpec, threads: int = 1
) -> I8FeatureMap:
    """Clipped binary convolution: conv_i32 saturated to the int8 range."""
    return I8FeatureMap.saturate(conv_i32(x, k, spec, threads).values)


@dataclass(frozen=True, eq=False)
class FusedKernel:
    """A kernel set in the form :func:`conv_fused` runs, built once by
    :func:`fuse_kernel`; everything in it depends only on the kernel.

    ``kinv`` holds the bit-inverted kernel words in ``(fh, fw, wps, out)``
    order, narrowed to the site ``word``, so XOR against the input is XNOR
    against the kernel. ``lane`` and ``acc`` are the lane and accumulator
    types; a lane holds every tap's matches. The epilogue subtracts
    ``bias``; where ``wrap`` holds, no output can clip and it runs wrapped
    in uint8.
    """

    dims: tuple[int, int, int, int]
    kinv: np.ndarray
    word: np.dtype
    lane: np.dtype
    acc: np.dtype
    bias: int
    wrap: bool

    @property
    def words_per_site(self) -> int:
        return self.kinv.shape[2]


def fuse_kernel(k: PackedKernelSet) -> FusedKernel:
    """The fused form of ``k``: one narrowed copy of its words plus the
    types and constants :func:`conv_fused` needs, so no call derives them.

    A one-word site is held in the narrowest unsigned word that fits its
    channels (the high bits are pad matches, as in uint64), else uint64. A
    lane gains at most one word's bits per tap, so it is the narrowest
    unsigned type that holds ``fh * fw * word_bits`` (uint8, uint16, then
    uint32), by the same rule as the word. The accumulator holds ``2 *
    matches`` over the site's words before the bias comes off: int16 when
    ``2 * fh * fw * word_bits * wps <= 32767``, else int32.
    """
    _, fh, fw, cin = k.dims
    wps = k.words_per_site
    word = np.min_scalar_type((1 << cin) - 1) if wps == 1 else np.dtype(np.uint64)
    word_bits = 8 * word.itemsize
    tap_bits = fh * fw * word_bits
    lane = np.min_scalar_type(tap_bits)
    acc = np.dtype(np.int16 if 2 * tap_bits * wps <= np.iinfo(np.int16).max else np.int32)
    kinv = np.ascontiguousarray(np.bitwise_not(k.words.astype(word)).transpose(1, 2, 3, 0))
    kinv.setflags(write=False)
    return FusedKernel(
        dims=k.dims,
        kinv=kinv,
        word=word,
        lane=lane,
        acc=acc,
        bias=int(_match_bias(fh, fw, cin, word_bits * wps)),
        # |2 * matches - bias| <= fh*fw*cin; where the clamp never fires, the
        # low byte of 2 * matches - bias, wrapped in uint8, is the result
        wrap=clip_free(fh * fw * cin),
    )


def tile_plan(
    x_dims, k: FusedKernel, spec: ConvSpec, tile_rows: int | None = None, threads: int = 1
) -> tuple[int, int]:
    """Output rows per tile and taps per group of one :func:`conv_fused` call.

    The tile byte model: a tile of ``rows`` output rows and ``group`` taps a
    group holds ``fixed + rows * (row + (group - 1) * tap)`` scratch bytes
    over the whole batch. ``fixed`` is the kernel and the input rows that
    neighbouring output rows share; ``row`` is each output row's XOR, count
    and lane buffers (word, 1 and lane bytes per word), accumulator and
    input rows; ``tap`` is each extra grouped tap's slab, XOR and count words.
    A one-word site whose lanes are uint8 and whose epilogue wraps in uint8
    allocates no accumulator: the tile returns its lanes uncopied.

    Default rows are the most that fit ``TILE_BYTE_BUDGET``, at most one
    worker's share; passed rows, an integer of at least 1, are clamped to
    oh. A group is one tap unless one tile covers every output row on one
    worker; then it is the most taps that fit the budget left, up to fh*fw.
    """
    threads = check_threads(threads)
    n, oh, ow, out = output_shape(x_dims, k.dims, spec)
    _, fh, fw, _ = k.dims
    sh = spec.stride[0]
    wps, word = k.words_per_site, k.word.itemsize
    in_row = n * (x_dims[2] + 2 * spec.spatial_pad[1]) * wps * word
    fixed = k.kinv.size * word + (fh - sh) * in_row
    acc = 0 if wps == 1 and k.wrap and k.lane == np.uint8 else k.acc.itemsize
    row = n * ow * out * (wps * (word + 1 + k.lane.itemsize) + acc) + sh * in_row
    if tile_rows is None:
        tile_rows = max(1, min((TILE_BYTE_BUDGET - fixed) // row, -(-oh // threads)))
    rows = min(check_int(tile_rows, "tile_rows", 1), oh)
    if rows < oh or threads > 1:
        return rows, 1
    tap = n * ow * wps * (out * (word + 1) + word)
    spare = TILE_BYTE_BUDGET - fixed - oh * row
    return rows, max(1, min(fh * fw, 1 + spare // (oh * tap)))


def conv_fused(
    x_prev: I8FeatureMap,
    thr: ThresholdParams | None,
    k: FusedKernel,
    spec: ConvSpec,
    tile_rows: int | None = None,
    threads: int = 1,
) -> I8FeatureMap:
    """Fused binarize/pad/convolve with clipped 8-bit output.

    ``k`` is the kernel's fused form (:func:`fuse_kernel`). ``thr``
    binarizes the 8-bit input per channel (threshold comparison); when
    absent the input is binarized by sign. The result is bit-identical to
    the staged pipeline (binarize, pack, pad, conv_i8) for every tile size,
    tap group and worker count; tiles and groups only bound the working set.
    :func:`tile_plan` rejects ``threads`` outside [1, MAX_THREADS] and
    ``tile_rows`` below 1 before any tile runs.
    """
    if thr is not None and thr.channels != x_prev.channels:
        raise ValueError(
            f"threshold channels {thr.channels} != input channels {x_prev.channels}"
        )
    n, h, w, _ = x_prev.dims
    _, oh, ow, out = output_shape(x_prev.dims, k.dims, spec)
    fh = k.dims[1]
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    wps = k.words_per_site
    tile_rows, group = tile_plan(x_prev.dims, k, spec, tile_rows, threads)
    result = np.empty((n, oh, ow, out), dtype=np.int8)

    def run_tile(y0, y1):
        r0, r1 = y0 * sh, (y1 - 1) * sh + fh  # padded input row range
        buf = np.zeros((wps, n, r1 - r0, w + 2 * pw), dtype=k.word)
        lo, hi = max(r0, ph), min(r1, ph + h)
        if hi > lo:
            rows = x_prev.values[:, lo - ph : hi - ph, :, :]
            bits = (rows >= 0) if thr is None else threshold_bits(rows, thr)
            # narrowing drops only zero channel-pad bits
            buf[:, :, lo - r0 : hi - r0, pw : pw + w] = pack_bitplanes(bits).transpose(3, 0, 1, 2)
        acc = _tile_matches(buf, k, sh, sw, y1 - y0, ow, group)
        # in the lanes' memory order, then one (maybe transposed) copy out
        y = acc.astype(np.uint8 if k.wrap else k.acc, copy=False)
        y *= 2
        if k.wrap:
            y -= np.uint8(k.bias & 0xFF)
        else:
            y -= k.bias
            np.clip(y, -I8_MAX, I8_MAX, out=y)
        result[:, y0:y1] = y.view(np.int8) if k.wrap else y  # a cast-free copy when it wraps

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


def _rows_out(out, shape, dtype) -> np.ndarray:
    """``out``, checked to take a row-major write of ``shape``, else a fresh array."""
    if out is None:
        return np.empty(shape, dtype)
    if out.shape != shape or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous {np.dtype(dtype)} array of shape {shape}")
    return out


def im2col(a: np.ndarray, fh: int, fw: int, spec: ConvSpec, out=None) -> np.ndarray:
    """Receptive fields of an NHWC tensor as (n, oh, ow, fh*fw*c) float32 rows
    padded with -1, taps in the (i, j, channel) order of a kernel: one copy of
    a strided ``sliding_window_view`` of the input, padded first only when the
    spec pads, into ``out`` (C-contiguous float32 of the rows' shape) or a
    fresh array."""
    n, h, w, c = a.shape
    _, oh, ow, _ = output_shape(a.shape, (1, fh, fw, c), spec)
    sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    if ph == pw == 0:
        ap = a
    else:
        ap = np.full((n, h + 2 * ph, w + 2 * pw, c), float(PAD_VALUE), dtype=np.float32)
        ap[:, ph : ph + h, pw : pw + w, :] = a
    win = sliding_window_view(ap, (fh, fw), axis=(1, 2))
    win = win[:, : (oh - 1) * sh + 1 : sh, : (ow - 1) * sw + 1 : sw].transpose(0, 1, 2, 4, 5, 3)
    out = _rows_out(out, (n, oh, ow, fh * fw * c), np.float32)
    np.copyto(out.reshape(win.shape), win)
    return out


def gemm_rows(rows: np.ndarray, mat: np.ndarray, out=None) -> np.ndarray:
    """``rows @ mat`` for rows with any leading axes, as one 2-D BLAS GEMM
    into ``out`` (C-contiguous, of the product's shape and dtype) or a fresh
    array; a stacked ``@`` would run one small GEMM per leading slice. Over
    +-1 operands every sum is exact; over float ones the BLAS kernel may
    round differently from the stacked product (the tests pin training's
    shapes)."""
    out = _rows_out(out, (*rows.shape[:-1], mat.shape[-1]), np.result_type(rows, mat))
    np.matmul(rows.reshape(-1, rows.shape[-1]), mat, out=out.reshape(-1, mat.shape[-1]))
    return out


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
    return I32FeatureMap(gemm_rows(im2col(a, fh, fw, spec), wmat).astype(np.int32))
