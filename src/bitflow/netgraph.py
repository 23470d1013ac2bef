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
rejected. Each structural rule has one owner, so models built in memory
and models read from a file meet the same rules: ``PackedKernelSet``
(positive integer dims, zero channel-pad bits), ``ConvSpec`` (integer
stride and padding), the blocks (one table value per output channel;
padding below, stride at most the filter size), ``Model`` (non-empty, known
block types) and, for one input, ``block_shapes``, which ``run_model`` and
``bitflow validate`` both call.
"""

from __future__ import annotations

import struct
import warnings
import zlib
from dataclasses import dataclass, field

import numpy as np

from .binconv import (
    ConvSpec,
    FusedKernel,
    check_threads,
    conv_float_oracle,
    conv_fused,
    conv_i8,
    fuse_kernel,
    output_shape,
)
from .bitcore import (
    BitPlaneTensor,
    I8FeatureMap,
    PackedKernelSet,
    pm1,
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
    same = spec.stride == (1, 1) and spec.spatial_pad == (fh // 2, fw // 2)
    if not (out == cin and fh % 2 == 1 and fw % 2 == 1 and same):
        raise GraphError(
            "identity shortcut needs matching channels and a shape-preserving "
            f"convolution; got kernel {kernel.dims}, spec {spec}"
        )


@dataclass(frozen=True, eq=False)
class _Block:
    """A convolution; each subclass adds its one table field (``_LAYOUT``).
    Padding stays below and stride at most the filter size, so every window
    reads input and no input pixel falls between two windows. Blocks the
    engine runs build their kernel's fused form (``binconv.fuse_kernel``)
    once, here, whether made in memory or read from a file; the form is
    not part of the file."""

    kernel: PackedKernelSet
    spec: ConvSpec
    fused: FusedKernel | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        filt, spec = self.kernel.dims[1:3], self.spec
        if any(p >= f for p, f in zip(spec.spatial_pad, filt)):
            raise GraphError(f"padding {spec.spatial_pad} must be below the filter size {filt}")
        if any(s > f for s, f in zip(spec.stride, filt)):
            raise GraphError(f"stride {spec.stride} must not exceed the filter size {filt}")
        name = _LAYOUT[type(self)][1]
        tables = getattr(self, name)
        if tables is not None and tables.channels != self.kernel.out_channels:
            raise GraphError(f"{name} channels {tables.channels} != "
                             f"conv output channels {self.kernel.out_channels}")
        if not isinstance(self, FloatBlock):  # float blocks never run on the engine
            object.__setattr__(self, "fused", fuse_kernel(self.kernel))


@dataclass(frozen=True, eq=False)
class VggBlock(_Block):
    """Conv + threshold binarization; ``thr`` is None for terminal blocks."""

    thr: ThresholdParams | None = None


@dataclass(frozen=True, eq=False)
class ResnetBlock(_Block):
    """Conv + quantized batch norm + saturating add with identity shortcut."""

    qbn: QBNParams

    def __post_init__(self):
        _check_identity_shortcut(self.kernel, self.spec)
        super().__post_init__()


@dataclass(frozen=True, eq=False)
class FloatBlock(_Block):
    """Conv + float batch-norm record awaiting conversion; ``bn`` None means
    a terminal bare convolution."""

    bn: BNParams | None = None


@dataclass(frozen=True, eq=False)
class Model:
    """A non-empty ordered sequence of blocks executed front to back, held as
    a tuple so the checks below stay true after construction."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise GraphError("model has no layers")
        if len(self.blocks) > 0xFFFF:
            raise GraphError("too many layers for the file format")
        for i, blk in enumerate(self.blocks):
            if type(blk) not in _LAYOUT:
                raise GraphError(f"layer {i} has unknown type {type(blk).__name__}")


def run_vgg_block(x, b: VggBlock, threads: int = 1):
    """Run one VGG-style block.

    Packed-bit inputs convolve directly; 8-bit inputs are binarized by
    sign inside the fused convolution. Inner blocks emit packed bits,
    terminal blocks the clipped 8-bit map.
    """
    if isinstance(x, BitPlaneTensor):
        y = conv_i8(x, b.kernel, b.spec, threads=threads)
    elif isinstance(x, I8FeatureMap):
        y = conv_fused(x, None, b.fused, b.spec, threads=threads)
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
    y = conv_fused(x, None, b.fused, b.spec, threads=threads)
    z = bn_q_forward(y, b.qbn)
    return I8FeatureMap.saturate(np.add(z.values, x.values, dtype=np.int16))


def block_shapes(model: Model, input_dims) -> list:
    """Each block's output dims for an NHWC input of ``input_dims``; raises
    GraphError where ``run_model`` cannot run: a float block, a residual
    block after packed bits, a last block not emitting 8 bits, or a shape
    ``output_shape`` rejects (an input dim below one among them)."""
    dims, shapes = input_dims, []
    packed = False  # the previous block emits packed bits
    for i, blk in enumerate(model.blocks):
        if isinstance(blk, FloatBlock):
            raise GraphError(f"layer {i} holds float batch norm; convert it first")
        if packed and isinstance(blk, ResnetBlock):
            raise GraphError(f"layer {i}: residual blocks need an 8-bit input, not packed bits")
        try:
            dims = output_shape(dims, blk.kernel.dims, blk.spec)
        except ValueError as exc:
            raise GraphError(f"layer {i}: {exc}") from exc
        shapes.append(dims)
        packed = isinstance(blk, VggBlock) and blk.thr is not None
    if packed:
        raise GraphError("model must end with a terminal block emitting 8-bit values")
    return shapes


def run_model(model: Model, x: np.ndarray, threads: int = 1) -> I8FeatureMap:
    """Run a model on a real NHWC input (bool, integer or real floating).

    The input is binarized by sign into a +-1 8-bit map; blocks then run
    sequentially. :func:`block_shapes` checks the whole model against the
    input before the first block runs, and ``threads`` must be an integer in
    [1, ``binconv.MAX_THREADS``].
    """
    try:
        check_threads(threads)
    except ValueError as exc:
        raise GraphError(str(exc)) from exc
    x = np.asarray(x)
    if x.ndim != 4:
        raise GraphError(f"input must be NHWC, got shape {x.shape}")
    if x.dtype.kind not in "biuf":  # complex >= 0 would order by real, then imaginary part
        raise GraphError(f"input must be bool, integer or real floating, got {x.dtype}")
    if not np.isfinite(x).all():
        raise GraphError("input must be finite")
    block_shapes(model, x.shape)
    h = I8FeatureMap(pm1(x >= 0))
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
    A block without batch norm or thresholds emits its clipped int8 map; maps
    and ``pm1`` signs stay int8 between blocks (resnet mode's float sum aside).
    """
    h = pm1(np.asarray(x) >= 0)
    for blk in model.blocks:
        if isinstance(blk, FloatBlock) and mode not in ("vgg", "resnet"):
            raise ValueError(f"unknown mode {mode!r}")
        conv = conv_float_oracle(pm1(h >= 0), unpack_weights(blk.kernel), blk.spec).values
        f = np.clip(conv, -127, 127).astype(np.int8)
        if isinstance(blk, ResnetBlock):
            z = bn_q_forward(I8FeatureMap(f), blk.qbn).values.astype(np.int16)
            h = np.clip(z + h, -127, 127).astype(np.int8)
        elif isinstance(blk, VggBlock) and blk.thr is not None:
            s = np.where(blk.thr.direction == LE, -1, 1).astype(np.int16)
            h = pm1(s * (f - blk.thr.tau) >= 0)
        elif isinstance(blk, VggBlock) or blk.bn is None:
            h = f
        elif mode == "vgg":
            h = pm1(bn_float(f, blk.bn) >= 0)
        else:
            h = np.clip(bn_float(f, blk.bn) + h, -127, 127)
    return h


@dataclass
class ConversionReport:
    """Per-layer diagnostics from float-to-deployment conversion."""

    constant_channels: list  # (layer, channel) pairs per ThresholdParams, gamma != 0
    gamma_zero_channels: list  # (layer, channel) pairs degraded to constants

    @property
    def warning_count(self) -> int:
        return len(self.constant_channels) + len(self.gamma_zero_channels)


def convert_model(model: Model, mode: str) -> tuple[Model, ConversionReport]:
    """Convert float batch-norm records to deployment tables.

    ``vgg-threshold`` emits threshold comparisons, ``resnet-qbn`` 16-bit
    fixed-point tables. Blocks without batch norm become terminal VGG
    blocks; already-converted blocks pass through unchanged. A batch norm
    that 16-bit fixed point cannot hold raises ``GraphError`` naming its
    layer.
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
        gamma_zero = blk.bn.gamma == 0
        gzero.extend((i, int(c)) for c in np.flatnonzero(gamma_zero))
        if mode == "vgg-threshold":
            thr = compute_threshold(blk.bn)
            constant.extend((i, int(c)) for c in thr.constant_channels() if not gamma_zero[c])
            blocks.append(VggBlock(blk.kernel, blk.spec, thr))
        else:
            try:
                qbn, _ = quantize_bn(blk.bn)
            except OverflowError as exc:
                raise GraphError(f"layer {i}: {exc}") from exc
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
    tag, name, tables = _LAYOUT[type(blk)]
    k, spec, params = blk.kernel, blk.spec, getattr(blk, name)
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
    if tag not in _BY_TAG:
        raise ValueError(f"unknown layer tag {tag}")
    cls = _BY_TAG[tag]
    spec = ConvSpec((sh, sw), (ph, pw))
    wps = words_per_pixel(cin)
    words = np.frombuffer(cur.take(out * fh * fw * wps * 8), dtype="<u8").astype(np.uint64)
    kernel = PackedKernelSet((out, fh, fw, cin), words.reshape(out, fh, fw, wps))
    return cls(kernel, spec, _read_tables(cur, cls, out))


def model_from_bytes(buf: bytes) -> Model:
    """Parse a model file; checks magic, version and CRC before structure,
    which the blocks and ``Model`` then check as on construction."""
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
    try:
        model = Model([_read_block(cur) for _ in range(nlayers)])
    except (ValueError, GraphError) as exc:
        raise ModelFormatError(str(exc)) from exc
    if cur.pos != len(cur.buf):
        raise ModelFormatError("trailing bytes after last layer")
    _warn_constant_channels(model)
    return model


def _warn_constant_channels(model: Model) -> None:
    for i, blk in enumerate(model.blocks):
        if isinstance(blk, VggBlock) and blk.thr is not None:
            const = blk.thr.constant_channels()
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
