"""Composable binary network blocks, a sequential executor, and the model file.

Two deployment block types:

* ``VggBlock``: clipped binary convolution followed by an integer
  threshold comparison that binarizes the output for the next block.
  A block without thresholds is terminal and emits the 8-bit map itself.
* ``ResnetBlock``: clipped binary convolution, 16-bit fixed-point batch
  norm, then a saturating 8-bit addition with the identity shortcut taken
  from the block's 8-bit input.

``FloatBlock`` carries unconverted float batch-norm tables, so trained
models can be stored before conversion; ``run_model`` rejects it, and the
dense reference ``run_float_reference`` runs all three block types.

Model file layout (all little-endian): magic ``BDF1``, u16 version,
u16 layer count, per layer a tag byte plus kernel dims (u32 x4), stride
and padding (u32 x4), packed kernel words (u64), one byte, and the
block's tables, one value per output channel each; a CRC-32 of
everything before it closes the file. Per tag (``_LAYOUT``):

* VGG (1): a flag byte, 0 for a terminal block with no tables, or 1 and
  then ``tau`` (i16) and ``direction`` (u8);
* residual (2): a byte packing both fractional widths (parameter format
  low nibble, deployment format high), then ``gamma_q``, ``beta_q``,
  ``mu_q``, ``sigma_q``, ``m_q``, ``c_q`` (i16 each), always present;
* float (3): a flag byte, 0 for a bare convolution with no tables, or 1
  and then ``gamma``, ``beta``, ``mu``, ``sigma`` (f64 each).

The CRC is checked before any parsing, so every single-byte corruption is
rejected. Kernel words with a set channel-pad bit are rejected too: the
match count assumes those bits are zero. So is spatial padding as large
as the filter, which only bloats the output with all-pad sites.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .binconv import ConvSpec, conv_fused, conv_i8, conv_float_oracle, output_shape
from .bitcore import (
    BitPlaneTensor,
    I8FeatureMap,
    PackedKernelSet,
    _check_pad_bits,
    unpack_weights,
    words_per_pixel,
)
from .bnquant import (
    LE,
    BNParams,
    QBNParams,
    QFormat,
    ThresholdParams,
    apply_threshold,
    bn_float,
    bn_q_forward,
    compute_threshold,
    quantize_bn,
)

MAGIC = b"BDF1"
VERSION = 1

_TAG_VGG = 1
_TAG_RESNET = 2
_TAG_FLOATBN = 3


class ModelFormatError(Exception):
    """Raised for malformed, corrupt or unsupported model files."""


class GraphError(Exception):
    """Raised for structurally invalid models or incompatible shapes."""


def _check_identity_shortcut(kernel: PackedKernelSet, spec: ConvSpec) -> None:
    out, fh, fw, cin = kernel.dims
    ph, pw = spec.spatial_pad
    ok = (
        out == cin
        and spec.stride == (1, 1)
        and fh % 2 == 1
        and fw % 2 == 1
        and ph == (fh - 1) // 2
        and pw == (fw - 1) // 2
    )
    if not ok:
        raise GraphError(
            "identity shortcut needs matching channels and a shape-preserving "
            f"convolution; got kernel {kernel.dims}, spec {spec}"
        )


@dataclass(frozen=True, eq=False)
class VggBlock:
    """Conv + threshold binarization; ``thr`` is None for terminal blocks."""

    kernel: PackedKernelSet
    spec: ConvSpec
    thr: ThresholdParams | None = None

    def __post_init__(self):
        if self.thr is not None and self.thr.channels != self.kernel.out_channels:
            raise GraphError(
                f"threshold channels {self.thr.channels} != "
                f"conv output channels {self.kernel.out_channels}"
            )


@dataclass(frozen=True, eq=False)
class ResnetBlock:
    """Conv + quantized batch norm + saturating add with identity shortcut."""

    kernel: PackedKernelSet
    spec: ConvSpec
    qbn: QBNParams

    def __post_init__(self):
        _check_identity_shortcut(self.kernel, self.spec)
        if self.qbn.channels != self.kernel.out_channels:
            raise GraphError(
                f"qbn channels {self.qbn.channels} != "
                f"conv output channels {self.kernel.out_channels}"
            )


@dataclass(frozen=True, eq=False)
class FloatBlock:
    """Conv + float batch-norm record awaiting conversion; ``bn`` None means
    a terminal bare convolution."""

    kernel: PackedKernelSet
    spec: ConvSpec
    bn: BNParams | None = None

    def __post_init__(self):
        if self.bn is not None and self.bn.channels != self.kernel.out_channels:
            raise GraphError(
                f"bn channels {self.bn.channels} != "
                f"conv output channels {self.kernel.out_channels}"
            )


@dataclass(eq=False)
class Model:
    """An ordered sequence of blocks executed front to back."""

    blocks: list

    def __post_init__(self):
        if len(self.blocks) > 0xFFFF:
            raise GraphError("too many layers for the file format")


def run_vgg_block(x, b: VggBlock, threads: int = 1):
    """Run one VGG-style block.

    Packed-bit inputs convolve directly; 8-bit inputs are binarized by
    sign inside the fused convolution. Inner blocks emit packed bits,
    terminal blocks the clipped 8-bit map.
    """
    if isinstance(x, BitPlaneTensor):
        y = conv_i8(x, b.kernel, b.spec, threads=threads)
    elif isinstance(x, I8FeatureMap):
        y = conv_fused(x, None, b.kernel, b.spec, threads=threads)
    else:
        raise GraphError(f"unsupported block input {type(x).__name__}")
    if b.thr is None:
        return y
    return apply_threshold(y, b.thr)


def run_resnet_block(x, b: ResnetBlock, threads: int = 1) -> I8FeatureMap:
    """Run one ResNet-style block; requires an 8-bit input for the shortcut."""
    if not isinstance(x, I8FeatureMap):
        raise GraphError(
            "residual blocks need an 8-bit input; the previous block emits "
            f"{type(x).__name__}"
        )
    y = conv_fused(x, None, b.kernel, b.spec, threads=threads)
    z = bn_q_forward(y, b.qbn)
    summed = z.values.astype(np.int16) + x.values.astype(np.int16)
    return I8FeatureMap(np.clip(summed, -127, 127).astype(np.int8))


def run_model(model: Model, x: np.ndarray, threads: int = 1) -> I8FeatureMap:
    """Run a model on a real NHWC input.

    The input is binarized by sign into a +-1 8-bit map; blocks then run
    sequentially. The final block must emit an 8-bit map (a terminal VGG
    block or any ResNet block). Block types, every block's output shape
    and the final block are checked before the first block runs.
    """
    if not model.blocks:
        raise GraphError("model has no layers")
    x = np.asarray(x)
    if x.ndim != 4:
        raise GraphError(f"input must be NHWC, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise GraphError("input must be finite")
    dims = x.shape
    for i, blk in enumerate(model.blocks):
        if isinstance(blk, FloatBlock):
            raise GraphError(f"layer {i} holds float batch norm; convert it first")
        if not isinstance(blk, (VggBlock, ResnetBlock)):
            raise GraphError(f"layer {i} has unknown type {type(blk).__name__}")
        try:
            dims = output_shape(dims, blk.kernel.dims, blk.spec)
        except ValueError as exc:
            raise GraphError(f"layer {i}: {exc}") from exc
    last = model.blocks[-1]
    if isinstance(last, VggBlock) and last.thr is not None:
        raise GraphError("model must end with a terminal block emitting 8-bit values")
    signs = (x >= 0).view(np.int8)
    signs *= 2
    signs -= 1
    h = I8FeatureMap(signs)
    for blk in model.blocks:
        run = run_vgg_block if isinstance(blk, VggBlock) else run_resnet_block
        h = run(h, blk, threads=threads)
    return h


def run_float_reference(model: Model, x: np.ndarray, mode: str | None = None) -> np.ndarray:
    """The whole-model oracle: every block convolves the sign of its input on
    ``conv_float_oracle``, never the packed engine, and clips to +-127. Then
    a ``FloatBlock`` applies real batch norm and sign or the clipped shortcut
    add per ``mode`` (vgg | resnet, checked only when a FloatBlock is reached),
    a ``VggBlock`` emits ``x >= tau`` (``x <= tau`` on LE channels) as +-1, and
    a ``ResnetBlock`` applies ``bn_q_forward`` and the saturating shortcut add.
    A block without batch norm or thresholds emits its clipped int8 map.
    """
    h = np.where(np.asarray(x) >= 0, 1.0, -1.0)
    for i, blk in enumerate(model.blocks):
        if not isinstance(blk, (FloatBlock, VggBlock, ResnetBlock)):
            raise GraphError(f"layer {i} has unknown type {type(blk).__name__}")
        if isinstance(blk, FloatBlock) and mode not in ("vgg", "resnet"):
            raise ValueError(f"unknown mode {mode!r}")
        a = np.where(h >= 0, 1, -1).astype(np.int8)
        conv = conv_float_oracle(a, unpack_weights(blk.kernel), blk.spec).values
        f = np.clip(conv, -127, 127).astype(np.int8)
        if isinstance(blk, ResnetBlock):
            z = bn_q_forward(I8FeatureMap(f), blk.qbn).values.astype(np.int16)
            h = np.clip(z + h, -127, 127).astype(np.int8)
        elif isinstance(blk, VggBlock) and blk.thr is not None:
            up = np.where(blk.thr.direction == LE, f <= blk.thr.tau, f >= blk.thr.tau)
            h = np.where(up, 1, -1).astype(np.int8)
        elif isinstance(blk, VggBlock) or blk.bn is None:
            h = f
        elif mode == "vgg":
            h = np.where(bn_float(f, blk.bn) >= 0, 1.0, -1.0)
        else:
            h = np.clip(bn_float(f, blk.bn) + h, -127, 127)
    return h


@dataclass
class ConversionReport:
    """Per-layer diagnostics from float-to-deployment conversion."""

    constant_channels: list  # (layer, channel) pairs with |tau| > 127
    gamma_zero_channels: list  # (layer, channel) pairs degraded to constants

    @property
    def warning_count(self) -> int:
        return len(self.constant_channels) + len(self.gamma_zero_channels)


def convert_model(model: Model, mode: str) -> tuple[Model, ConversionReport]:
    """Convert float batch-norm records to deployment tables.

    ``vgg-threshold`` emits threshold comparisons, ``resnet-qbn`` 16-bit
    fixed-point tables. Blocks without batch norm become terminal VGG
    blocks; already-converted blocks pass through unchanged.
    """
    if mode not in ("vgg-threshold", "resnet-qbn"):
        raise ValueError(f"unknown conversion mode {mode!r}")
    blocks = []
    constant, gzero = [], []
    for i, blk in enumerate(model.blocks):
        if not isinstance(blk, FloatBlock):
            blocks.append(blk)
            continue
        if blk.bn is None:
            blocks.append(VggBlock(blk.kernel, blk.spec, None))
            continue
        gzero_here = np.flatnonzero(blk.bn.gamma == 0)
        gzero.extend((i, int(c)) for c in gzero_here)
        if mode == "vgg-threshold":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                thr = compute_threshold(blk.bn)
            constant.extend(
                (i, int(c))
                for c in np.flatnonzero(np.abs(thr.tau.astype(np.int32)) > 127)
            )
            blocks.append(VggBlock(blk.kernel, blk.spec, thr))
        else:
            qbn, _ = quantize_bn(blk.bn)
            blocks.append(ResnetBlock(blk.kernel, blk.spec, qbn))
    return Model(blocks), ConversionReport(constant, gzero)


# -- serialization -----------------------------------------------------------

# Per block type: its tag, the field holding its tables, and each table's
# name and file dtype; a table holds one value per output channel.
_LAYOUT = {
    VggBlock: (_TAG_VGG, "thr", {"tau": "<i2", "direction": "u1"}),
    ResnetBlock: (
        _TAG_RESNET,
        "qbn",
        dict.fromkeys(["gamma_q", "beta_q", "mu_q", "sigma_q", "m_q", "c_q"], "<i2"),
    ),
    FloatBlock: (_TAG_FLOATBN, "bn", dict.fromkeys(["gamma", "beta", "mu", "sigma"], "<f8")),
}
_BY_TAG = {tag: cls for cls, (tag, _, _) in _LAYOUT.items()}


def _block_bytes(blk) -> bytes:
    if type(blk) not in _LAYOUT:
        raise GraphError(f"cannot serialize block type {type(blk).__name__}")
    tag, field, tables = _LAYOUT[type(blk)]
    k, spec, params = blk.kernel, blk.spec, getattr(blk, field)
    out = struct.pack("<B4I4I", tag, *k.dims, *spec.stride, *spec.spatial_pad)
    out += k.words.astype("<u8").tobytes()
    if params is None:
        return out + b"\x00"
    head = 1
    if isinstance(params, QBNParams):  # parameter format's width low, deployment's high
        head = params.fmt.frac_bits | (params.deploy_fmt.frac_bits << 4)
    out += bytes([head])
    return out + b"".join(np.asarray(getattr(params, n), t).tobytes() for n, t in tables.items())


def model_to_bytes(model: Model) -> bytes:
    body = MAGIC + struct.pack("<HH", VERSION, len(model.blocks))
    body += b"".join(_block_bytes(b) for b in model.blocks)
    return body + struct.pack("<I", zlib.crc32(body))


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ModelFormatError("model file truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _read_tables(cur: _Cursor, cls, out: int):
    (head,) = cur.unpack("<B")
    if cls is not ResnetBlock:  # a residual block's 0 means formats (0, 0)
        if head not in (0, 1):
            raise ValueError(f"bad {'threshold' if cls is VggBlock else 'batch-norm'} flag")
        if head == 0:
            return None
    arrays = [
        np.frombuffer(cur.take(out * t.itemsize), t).astype(t.newbyteorder("="))
        for t in map(np.dtype, _LAYOUT[cls][2].values())
    ]
    if cls is VggBlock:
        return ThresholdParams(*arrays)
    if cls is FloatBlock:
        return BNParams(*arrays)
    fmt, deploy_fmt = QFormat(15 - (head & 0x0F)), QFormat(15 - (head >> 4))
    return QBNParams(fmt, *arrays[:4], deploy_fmt, *arrays[4:])


def _read_block(cur: _Cursor):
    tag, out, fh, fw, cin, sh, sw, ph, pw = cur.unpack("<B4I4I")
    try:
        if tag not in _BY_TAG:
            raise ValueError(f"unknown layer tag {tag}")
        cls = _BY_TAG[tag]
        spec = ConvSpec((sh, sw), (ph, pw))
        wps = words_per_pixel(cin) if cin else 0
        if min(out, fh, fw, cin) <= 0:
            raise ValueError(f"bad kernel dims {(out, fh, fw, cin)}")
        if ph >= fh or pw >= fw:
            raise ValueError(f"padding {(ph, pw)} must be below the filter size {(fh, fw)}")
        nwords = out * fh * fw * wps
        words = (
            np.frombuffer(cur.take(nwords * 8), dtype="<u8")
            .astype(np.uint64)
            .reshape(out, fh, fw, wps)
        )
        _check_pad_bits(words, cin)
        kernel = PackedKernelSet((out, fh, fw, cin), words)
        return cls(kernel, spec, _read_tables(cur, cls, out))
    except (ValueError, GraphError) as exc:
        raise ModelFormatError(str(exc)) from exc


def model_from_bytes(buf: bytes) -> Model:
    """Parse a model file; checks magic, version and CRC before structure."""
    if len(buf) < len(MAGIC) + 8:
        raise ModelFormatError("model file too short")
    if buf[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {buf[:4]!r}")
    (stored_crc,) = struct.unpack("<I", buf[-4:])
    if zlib.crc32(buf[:-4]) != stored_crc:
        raise ModelFormatError("CRC mismatch, file is corrupt")
    cur = _Cursor(buf[:-4])
    cur.take(4)
    version, nlayers = cur.unpack("<HH")
    if version != VERSION:
        raise ModelFormatError(f"unsupported model version {version}")
    blocks = [_read_block(cur) for _ in range(nlayers)]
    if cur.pos != len(cur.buf):
        raise ModelFormatError("trailing bytes after last layer")
    model = Model(blocks)
    _warn_constant_channels(model)
    return model


def _warn_constant_channels(model: Model) -> None:
    for i, blk in enumerate(model.blocks):
        if isinstance(blk, VggBlock) and blk.thr is not None:
            const = np.flatnonzero(np.abs(blk.thr.tau.astype(np.int32)) > 127)
            if const.size:
                warnings.warn(
                    f"layer {i}: thresholds beyond the clipped range make "
                    f"channels {const.tolist()} constant",
                    RuntimeWarning,
                    stacklevel=3,
                )


def save_model(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(model))


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        return model_from_bytes(fh.read())
