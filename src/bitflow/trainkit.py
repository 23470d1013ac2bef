"""Desk-scale training of clipped binary networks.

The forward pass binarizes weights and activations by sign on the fly
(full-precision masters are the only stored parameters) and, once the
clip stage is active, clamps every convolution output to [-127, +127].
Gradients use straight-through surrogates: sign backpropagates through
the hard-tanh window [-1, 1], the clip through [-127, 127].

Training runs in two stages: a warmup stage without range constraints,
then a clipped stage that retrains with saturation enabled so deployment
arithmetic sees the same numbers the optimizer saw. A third pass
quantizes batch-norm layers one at a time (fit a shared 16-bit format,
inject the quantization noise, freeze, retrain the rest).

Everything is seeded and single-worker: one seed reproduces loss curves
bit for bit. Each convolution is one 2-D GEMM (:func:`binconv.gemm_rows`)
over :func:`binconv.im2col` rows of +-1 values padded with -1, exact in
float32 and equal to the packed engine's sums; its input gradient is one
2-D GEMM returning through ``_col2im``, one add per stride cell of taps.
Each full-size map has one owner, and the next map is written into it: the
clip and batch norm into the GEMM output, a vgg block's sign into the previous
block's output, batch norm's input gradient (from dgamma and dbeta) into its
cached centred input, the clip mask's product into that gradient, a block's
input-gradient rows into its im2col rows, and their sum into its signed input
where the windows cover the input exactly (no padding, no gap).
Within an epoch each step writes into the previous step's buffers of the same
shape and dtype (:class:`_StepBuffers`), allocating only when the batch size
changes; they die with the epoch, before its validation pass. The optimizer
is momentum SGD at fixed per-stage learning rates with cosine decay. The
threshold export is the float export through ``convert_model``.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .binconv import ConvSpec, gemm_rows, im2col, output_shape
from .bitcore import I8_MAX, check_int, clip_free, pack_weights
from .bnquant import BNParams, QBNParams, quantize_bn
from .netgraph import FloatBlock, Model, ResnetBlock, convert_model, run_float_reference

DEFAULT_SEED = 0xB17F10

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1
_SGD_MOMENTUM = 0.9
_LR_STAGE1 = 0.02
_LR_STAGE2 = 0.012
_EVAL_BATCH = 200
_FD_STEP = 1e-4  # grad_check's central-difference step

STAGE_WARMUP = "warmup"
STAGE_CLIPPED = "clipped"
STAGE_QUANTIZED = "quantized"


def check_seed(seed):
    """``seed`` if it is an integer, not a bool, in [0, 2**64) (a uint64), else ValueError."""
    return check_int(seed, "seed", 0, (1 << 64) - 1)


# -- surrogate ops -----------------------------------------------------------


def _window_mask(x, t, out=None):
    """uint8 view of ``-t <= x <= t`` in ``out`` (uint8) or a fresh buffer,
    from two compares (no float temporary)."""
    mask = np.greater_equal(x, -t, out=None if out is None else out.view(bool))
    mask &= x <= t
    return mask.view(np.uint8)


def ste_sign(x):
    """Sign forward (sign(0) = sign(-0.0) = +1) with the straight-through
    gradient mask.

    Returns (float32 values ``2 * (x >= 0) - 1``, computed in place, and a
    uint8 view of the bool mask); the mask is 1 exactly where -1 <= x <= 1,
    boundaries included.
    """
    x = np.asarray(x)
    return _sign(x), _window_mask(x, 1.0)


def _sign(x, out=None):
    """Float32 ``2 * (x >= 0) - 1`` in ``out`` (which may be ``x``), else fresh."""
    out = np.empty(x.shape, np.float32) if out is None else out
    np.greater_equal(x, 0, out=out)
    out *= 2
    out -= 1
    return out


def clip_i8_surrogate(x):
    """Symmetric 8-bit clip with a pass-through gradient inside the range.

    Returns (max(min(127, x), -127) in x's float dtype, uint8 mask); the
    mask is 1 iff -127 <= x <= 127 and views the compares' bool result.
    """
    x = np.asarray(x)
    return np.clip(x, -I8_MAX, I8_MAX), _window_mask(x, I8_MAX)


def _hard_tanh(x):
    """The function whose derivative ``ste_sign``'s mask stands for."""
    return np.clip(x, -1.0, 1.0), ste_sign(x)[1]


# finite differences skip this band of |x| around each op's clamp corners
_KINK_BANDS = {"sign": (0.99, 1.01), "clip": (126.0, 128.0)}


def grad_check(op: str, points) -> dict:
    """Central finite differences of a surrogate forward vs its mask.

    The forward and the mask come from ``ste_sign`` and ``clip_i8_surrogate``,
    made of the ops ``_forward`` trains with. Points inside the kink band
    around the clamp corners are skipped; the report carries the worst
    absolute error over the rest.
    """
    if op not in _KINK_BANDS:
        raise ValueError(f"unknown surrogate {op!r}")
    surrogate = _hard_tanh if op == "sign" else clip_i8_surrogate
    band = _KINK_BANDS[op]
    pts = np.asarray(points, dtype=np.float64).ravel()
    keep = (np.abs(pts) < band[0]) | (np.abs(pts) > band[1])
    pts = pts[keep]
    if pts.size == 0:
        return {"op": op, "checked": 0, "max_abs_err": 0.0}
    fd = (surrogate(pts + _FD_STEP)[0] - surrogate(pts - _FD_STEP)[0]) / (2.0 * _FD_STEP)
    err = np.abs(fd - surrogate(pts)[1].astype(np.float64))
    return {"op": op, "checked": int(pts.size), "max_abs_err": float(err.max())}


# -- toy task ----------------------------------------------------------------

_PAIR_CENTERS = [(4, 4), (4, 12), (12, 4), (12, 12), (8, 8)]
_PAIR_RADII = (2.0, 3.4)
# the vgg accumulator block's window (and stride) and its levels' beta span
_ACC_WINDOW = 8
_BETA_SPREAD = 3.0


@dataclass
class ToyTask:
    """Seeded synthetic 10-class image task (16x16x8) with a fixed split."""

    seed: int
    variant: str  # "vgg" | "resnet"
    images: np.ndarray
    labels: np.ndarray
    n_train: int
    widths: tuple
    batch_size: int

    @property
    def train_images(self):
        return self.images[: self.n_train]

    @property
    def train_labels(self):
        return self.labels[: self.n_train]

    @property
    def val_images(self):
        return self.images[self.n_train :]

    @property
    def val_labels(self):
        return self.labels[self.n_train :]


def class_templates(rng) -> np.ndarray:
    """Ten +-1 templates of shape 16x16x8, arranged as five class pairs.

    Classes 2p and 2p+1 share everything (disc center, channel
    polarities, stripe orientation and phases); only the disc radius
    differs. Telling pair members apart therefore requires reading the
    *strength* of a disc detector's response, not just its sign, which is
    exactly the information an unadapted 8-bit clip destroys.
    """
    yy, xx = np.mgrid[0:16, 0:16].astype(np.float64)
    polarity = rng.choice([-1.0, 1.0], size=(5, 8))
    phases = rng.uniform(0, 2 * np.pi, size=(5, 4))
    t = np.empty((10, 16, 16, 8), dtype=np.float32)
    for c in range(10):
        pair, member = divmod(c, 2)
        cy, cx = _PAIR_CENTERS[pair]
        radius = _PAIR_RADII[member]
        disc = ((yy - cy) ** 2 + (xx - cx) ** 2 <= radius**2).astype(np.float64)
        disc = 2.0 * disc - 1.0
        theta = pair * np.pi / 5.0
        freq = 2.0 + (pair % 3)
        wave = np.sin(
            2 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy) / 16.0
            + phases[pair, :, None, None]
        )
        stripes = np.where(wave >= 0, 1.0, -1.0)
        for k in range(4):
            t[c, :, :, k] = polarity[pair, k] * disc
            t[c, :, :, 4 + k] = polarity[pair, 4 + k] * stripes[k]
    return t


def make_toy_task(
    seed: int = DEFAULT_SEED,
    variant: str = "vgg",
    n_train: int = 1200,
    n_val: int = 400,
    widths: tuple | None = None,
    noise: float = 1.2,
    batch_size: int = 100,
) -> ToyTask:
    """Build the deterministic toy classification task from one seed
    (:func:`check_seed`)."""
    seed = check_seed(seed)
    if variant not in ("vgg", "resnet"):
        raise ValueError(f"unknown variant {variant!r}")
    n_train, n_val = check_int(n_train, "n_train", 1), check_int(n_val, "n_val", 1)
    batch_size = check_int(batch_size, "batch_size", 1)
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise!r}")
    if widths is None:
        widths = (64, 64, 32) if variant == "vgg" else (8, 8, 8)
    widths = tuple(check_int(c, f"{variant} widths", 1) for c in widths)
    if variant == "resnet" and set(widths) != {8}:  # identity shortcuts keep the 8 channels
        raise ValueError(f"resnet widths must all be the input's 8 channels, got {widths}")
    if variant == "vgg" and len(widths) != 3:
        raise ValueError(f"vgg widths must be three positive integers, got {widths}")
    rng = np.random.default_rng(np.uint64(seed))
    templates = class_templates(rng)
    n = n_train + n_val
    labels = rng.integers(0, 10, size=n)
    amp = rng.uniform(0.7, 1.3, size=(n, 1, 1, 1))
    images = amp * templates[labels] + noise * rng.standard_normal((n, 16, 16, 8))
    return ToyTask(
        seed=seed,
        variant=variant,
        images=images.astype(np.float32),
        labels=labels.astype(np.int64),
        n_train=n_train,
        widths=widths,
        batch_size=batch_size,
    )


# -- model state -------------------------------------------------------------


@dataclass
class BNLayer:
    gamma: np.ndarray
    beta: np.ndarray
    run_mu: np.ndarray
    run_var: np.ndarray
    affine_fixed: bool = False  # gamma/beta pinned (fixed binarization levels)
    frozen: bool = False
    frozen_mu: np.ndarray | None = None
    frozen_sigma: np.ndarray | None = None
    qbn: QBNParams | None = None

    def _stored_stats(self):
        """(mu, sigma) for eval and frozen mode: frozen, else running stats."""
        if self.frozen:
            return self.frozen_mu, self.frozen_sigma
        return self.run_mu, np.sqrt(self.run_var + _BN_EPS)

    def inference_params(self) -> BNParams:
        """Effective per-channel parameters at inference time."""
        mu, sigma = self._stored_stats()
        return BNParams(
            self.gamma.astype(np.float64),
            self.beta.astype(np.float64),
            mu.astype(np.float64),
            sigma.astype(np.float64),
        )


@dataclass
class ConvBlock:
    weight: np.ndarray  # (out, fh, fw, in) full-precision master
    bn: BNLayer | None
    spec: ConvSpec


@dataclass
class TrainState:
    variant: str
    blocks: list
    head_w: np.ndarray
    head_b: np.ndarray
    stage: str = STAGE_WARMUP
    epoch: int = 0
    history: list = field(default_factory=list)
    momenta: dict = field(default_factory=dict)

    def clone(self) -> "TrainState":
        return copy.deepcopy(self)


def _fresh_bn(channels: int, level_span: float = 0.0, gamma_init: float = 1.0) -> BNLayer:
    """Plain trainable batch norm, or (with ``level_span``) a fixed ladder
    of binarization levels: beta spans [-span, +span] across channels and
    the affine pair stays pinned, so each channel compares its input
    against a fixed quantile of the running distribution."""
    if level_span:
        # levels avoid the distribution center: comparators read the
        # strength of their input, not just its sign
        half = channels // 2
        lo = 0.2 * level_span
        beta = np.concatenate(
            [
                np.linspace(-level_span, -lo, half),
                np.linspace(lo, level_span, channels - half),
            ]
        ).astype(np.float32)
    else:
        beta = np.zeros(channels, dtype=np.float32)
    return BNLayer(
        gamma=np.full(channels, gamma_init, dtype=np.float32),
        beta=beta,
        run_mu=np.zeros(channels, dtype=np.float32),
        run_var=np.ones(channels, dtype=np.float32),
        affine_fixed=bool(level_span),
    )


def init_state(task: ToyTask) -> TrainState:
    """Build the seeded model for a task.

    The vgg variant stacks a 3x3 stem of local detectors, a wide
    non-overlapping accumulator block that counts stem features over
    whole-window sums (their spread is several times the 8-bit range,
    the regime the clip stage is about), and a 3x3 terminal conv feeding
    the pooled readout. The resnet variant stacks shape-preserving 3x3
    blocks with identity shortcuts.
    """
    rng = np.random.default_rng(np.uint64(task.seed) ^ np.uint64(0x5EED0F57A7E))
    blocks = []
    cin = task.images.shape[3]
    same = ConvSpec(spatial_pad=(1, 1))  # pad (f - 1) // 2 keeps a 3x3 conv's shape
    if task.variant == "vgg":
        c0, c1, c2 = task.widths
        w = _ACC_WINDOW
        geometry = [
            (c0, 3, same, True, 0.0),
            (c1, w, ConvSpec(stride=(w, w)), True, _BETA_SPREAD),
            (c2, 3, same, False, 0.0),
        ]
    else:
        geometry = [(cin, 3, same, True, 0.0) for _ in task.widths]
    gamma_init = 24.0 if task.variant == "resnet" else 1.0
    for cout, fsz, spec, with_bn, spread in geometry:
        w = rng.uniform(-0.5, 0.5, size=(cout, fsz, fsz, cin)).astype(np.float32)
        bn = _fresh_bn(cout, spread, gamma_init) if with_bn else None
        blocks.append(ConvBlock(weight=w, bn=bn, spec=spec))
        cin = cout
    head_w = (rng.standard_normal((cin, 10)) / math.sqrt(cin)).astype(np.float32)
    head_b = np.zeros(10, dtype=np.float32)
    return TrainState(task.variant, blocks, head_w, head_b)


# -- conv plumbing -----------------------------------------------------------


def _col2im(dcols, in_shape, fh, fw, spec: ConvSpec, out=None):
    """Adjoint of :func:`binconv.im2col`: add row gradients back onto the
    input positions they were read from (padding is dropped). Tap i of output
    row y reads padded row ``(y + i // sh) * sh + i % sh``, so the taps of one
    stride cell ``(i // sh, j // sw)`` take one add onto a grid view of zeros
    (one in all when stride >= filter, one per tap at stride 1). Positions
    get their taps in (i, j) order, so a -0.0 gradient lands as +0.0. The
    zeros are ``out`` (float32, of the input's shape) when the grid is the
    input itself (no padding, no gap), else a fresh array."""
    n, h, w, c = in_shape
    _, oh, ow, _ = dcols.shape
    (sh, sw), (ph, pw) = spec.stride, spec.spatial_pad
    taps = dcols.reshape(n, oh, ow, fh, fw, c).transpose(0, 1, 3, 2, 4, 5)
    hq, wq = oh + (fh - 1) // sh, ow + (fw - 1) // sw
    # the grid may reach past the padded input where the stride leaves a gap
    shape = (n, max(h + 2 * ph, hq * sh), max(w + 2 * pw, wq * sw), c)
    if out is not None and out.shape == shape:
        dap = out
        dap.fill(0.0)
    else:
        dap = np.zeros(shape, dtype=np.float32)
    grid = dap[:, : hq * sh, : wq * sw].reshape(n, hq, sh, wq, sw, c)
    for i in range(0, fh, sh):
        for j in range(0, fw, sw):
            cell = taps[:, :, i : i + sh, :, j : j + sw]
            a, b = i // sh, j // sw
            grid[:, a : a + oh, : cell.shape[2], b : b + ow, : cell.shape[4]] += cell
    return dap[:, ph : ph + h, pw : pw + w, :]


def _bn_forward(bn: BNLayer, x, training: bool, out=None, xc=None):
    """``gamma * (x - mu) / sigma + beta`` per channel into ``out`` (which may
    be ``x``), else a fresh buffer. Eval and frozen mode use the stored
    statistics in that operation order, in place; training mode takes batch
    statistics (the variance is ``sum(xc * xc) / n`` of the centred input
    ``xc = x - mu``, written into the buffer ``xc`` or a fresh one), updates
    the running ones, returns ``xc * (gamma / sigma) + beta`` and caches
    ``xc``."""
    if bn.frozen or not training:
        mu, sigma = bn._stored_stats()
        y = np.subtract(x, mu, out=out)
        np.multiply(bn.gamma, y, out=y)
        y /= sigma
        y += bn.beta
        return y, {"frozen_sigma": sigma} if bn.frozen else None
    mu = x.mean((0, 1, 2))
    xc = np.subtract(x, mu, out=xc)
    var = np.einsum("nhwc,nhwc->c", xc, xc) / (x.size // x.shape[3])
    sigma = np.sqrt(var + _BN_EPS)
    bn.run_mu += _BN_MOMENTUM * (mu - bn.run_mu)
    bn.run_var += _BN_MOMENTUM * (var - bn.run_var)
    y = np.multiply(xc, bn.gamma / sigma, out=out)
    y += bn.beta
    return y, {"xc": xc, "sigma": sigma}


def _bn_backward(bn: BNLayer, cache, dy):
    """(dx, dgamma, dbeta) of :func:`_bn_forward`; ``dy`` is only read. Training
    mode takes ``dbeta = sum(dy)`` and ``dgamma = sum(dy * xhat)`` and writes
    ``dx = (gamma / sigma) * (dy - dbeta / n - xhat * dgamma / n)`` into the
    cached ``xc`` (``xhat = xc / sigma``), which it uses up."""
    if bn.frozen:
        return dy * (bn.gamma / cache["frozen_sigma"]), None, None
    xc, sigma = cache.pop("xc"), cache["sigma"]
    n = dy.size // dy.shape[3]
    dbeta = dy.sum((0, 1, 2))
    dgamma = np.einsum("nhwc,nhwc->c", dy, xc) / sigma
    dx = xc  # the centred input becomes dx, in place
    dx *= dgamma / (n * sigma)
    dx += dbeta / n
    np.subtract(dy, dx, out=dx)
    dx *= bn.gamma / sigma
    return dx, dgamma.astype(np.float32), dbeta.astype(np.float32)


def _forward(state: TrainState, x, training: bool, take=np.empty):
    """Run the block stack; returns (trunk, head input, logits, caches). Each
    full-size buffer comes from ``take(shape, dtype)``, except a vgg block's
    signed input past the first, which is the previous block's output signed
    in place (the caller's batch and the residual inputs, which the shortcut
    reads, are signed into buffers of their own). Eval forms no masks and
    keeps no caches nor rows past their GEMM, and ``clip_free`` blocks skip the clip."""
    clip_on = state.stage != STAGE_WARMUP
    resnet = state.variant == "resnet"

    def clip(v):
        """Clamp ``v`` in place; the clip's mask when training."""
        mask = _window_mask(v, I8_MAX, take(v.shape, np.uint8)) if training else None
        np.clip(v, -I8_MAX, I8_MAX, out=v)
        return mask

    h = _sign(x, take(x.shape, np.float32)) if resnet else np.asarray(x)
    caches = []
    for bi, blk in enumerate(state.blocks):
        # block 0 takes no input gradient
        amask = _window_mask(h, 1.0, take(h.shape, np.uint8)) if training and bi else None
        a = _sign(h, h if bi and not resnet else take(h.shape, np.float32))
        wb = _sign(blk.weight)
        wmask = _window_mask(blk.weight, 1.0) if training else None
        wmat = wb.reshape(wb.shape[0], -1).T  # (K, O)
        n, oh, ow, o = output_shape(a.shape, wb.shape, blk.spec)
        k = wmat.shape[0]
        cols = im2col(a, wb.shape[1], wb.shape[2], blk.spec, take((n, oh, ow, k), np.float32))
        f = gemm_rows(cols, wmat, take((n, oh, ow, o), np.float32))
        cols = cols if training else None  # eval drops the rows before the next block's
        cmask = clip(f) if clip_on and not clip_free(k) else None
        y, bncache = f, None
        if blk.bn is not None:
            xc = take(f.shape, np.float32) if training and not blk.bn.frozen else None
            y, bncache = _bn_forward(blk.bn, f, training, out=f, xc=xc)
        zmask = omask = None
        if resnet:
            zmask = clip(y) if clip_on else None
            y += h
            omask = clip(y) if clip_on else None
        if training:
            caches.append(
                {
                    "a": a,
                    "amask": amask,
                    "wmask": wmask,
                    "wmat": wmat,
                    "cols": cols,
                    "cmask": cmask,
                    "bncache": bncache,
                    "zmask": zmask,
                    "omask": omask,
                }
            )
        h = y
    g = h.mean(axis=(1, 2))
    logits = g @ state.head_w + state.head_b
    return h, g, logits, caches


def _softmax_ce(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(-np.log(np.maximum(p[np.arange(n), labels], 1e-30)).mean())
    dlogits = p
    dlogits[np.arange(n), labels] -= 1.0
    return loss, (dlogits / n).astype(np.float32)


def _backward(state: TrainState, caches, trunk_shape, g, dlogits):
    """Gradients as (momentum key, parameter, gradient) triples, head first,
    then blocks from last to first."""
    grads = [
        (("head_w",), state.head_w, (g.T @ dlogits).astype(np.float32)),
        (("head_b",), state.head_b, dlogits.sum(axis=0).astype(np.float32)),
    ]
    n, oh, ow, c = trunk_shape
    dh = (dlogits @ state.head_w.T)[:, None, None, :] / (oh * ow)
    dh = np.ascontiguousarray(np.broadcast_to(dh, trunk_shape), dtype=np.float32)
    resnet = state.variant == "resnet"
    for bi in range(len(state.blocks) - 1, -1, -1):
        blk, cache = state.blocks[bi], caches[bi]
        dy = dh
        dshort = None
        if resnet:
            dout = dh * cache["omask"] if cache["omask"] is not None else dh
            dshort = dout
            dy = dout * cache["zmask"] if cache["zmask"] is not None else dout
        if blk.bn is not None:
            dfc, dgamma, dbeta = _bn_backward(blk.bn, cache["bncache"], dy)
            if dgamma is not None and not blk.bn.affine_fixed:
                grads.append((("bn_gamma", bi), blk.bn.gamma, dgamma))
                grads.append((("bn_beta", bi), blk.bn.beta, dbeta))
        else:
            dfc = dy
        df = dfc if cache["cmask"] is None else np.multiply(dfc, cache["cmask"], out=dfc)
        cols = cache["cols"]
        k = cache["wmat"].shape[0]
        o = blk.weight.shape[0]
        dwmat = cols.reshape(-1, k).T @ df.reshape(-1, o)
        dw = dwmat.T.reshape(blk.weight.shape) * cache["wmask"]
        grads.append((("weight", bi), blk.weight, dw))
        if bi:
            # the rows are dead once dW is formed, the signed input once
            # they were gathered
            dcols = gemm_rows(df, cache["wmat"].T, cols)
            fh, fw, a = blk.weight.shape[1], blk.weight.shape[2], cache["a"]
            dh = _col2im(dcols, a.shape, fh, fw, blk.spec, out=a)
            dh *= cache["amask"]
            if resnet:
                dh += dshort
    return grads


def _apply_grads(state: TrainState, grads, lr):
    """Momentum SGD step, in place, over :func:`_backward`'s triples; each
    key names its parameter's buffer in ``state.momenta``."""
    for key, param, grad in grads:
        buf = state.momenta.get(key)
        if buf is None:
            buf = state.momenta[key] = np.zeros_like(param)
        buf *= _SGD_MOMENTUM
        buf -= lr * grad
        param += buf
        if key[0] == "weight":
            # keep latent weights inside the straight-through window
            np.clip(param, -1.0, 1.0, out=param)


class _StepBuffers:
    """The full-size buffers of one training step, handed to the next.

    ``take(shape, dtype)`` returns a buffer of the previous step of that
    shape and dtype, else a fresh one. A miss means the batch changed size
    (a ragged last batch), so the previous step's other buffers are dropped
    then. ``next_step()`` hands the buffers taken since its last call on;
    call it only once nothing reads them.
    """

    def __init__(self):
        self.spare, self.taken = [], []

    def take(self, shape, dtype):
        for i, buf in enumerate(self.spare):
            if buf.shape == shape and buf.dtype == dtype:
                buf = self.spare.pop(i)
                break
        else:
            self.spare.clear()
            buf = np.empty(shape, dtype)
        self.taken.append(buf)
        return buf

    def next_step(self):
        self.spare, self.taken = self.taken, []


def _train_epoch(state: TrainState, xs, ys, order, batch_size: int, lr: float):
    """One optimizer step per batch of ``order``; returns (loss sum, hits).
    Each step writes into the previous step's buffers, which die with the
    epoch, before the validation pass."""
    buffers = _StepBuffers()
    tot_loss, tot_hits = 0.0, 0
    for lo in range(0, order.size, batch_size):
        idx = order[lo : lo + batch_size]
        xb, yb = xs[idx], ys[idx]
        trunk, g, logits, caches = _forward(state, xb, True, buffers.take)
        loss, dlogits = _softmax_ce(logits, yb)
        if not math.isfinite(loss):
            raise FloatingPointError(f"training diverged at epoch {state.epoch}: non-finite loss")
        grads = _backward(state, caches, trunk.shape, g, dlogits)
        _apply_grads(state, grads, lr)
        buffers.next_step()
        tot_loss += loss * len(idx)
        tot_hits += int((logits.argmax(axis=1) == yb).sum())
    return tot_loss, tot_hits


def train_epochs(state: TrainState, task: ToyTask, epochs: int, lr0: float) -> TrainState:
    """Run the optimizer in place for ``epochs`` epochs at cosine-decayed lr.

    Shuffling is seeded by (task seed, starting epoch), so a resumed run
    replays the same batch order regardless of stage flags.
    """
    epochs = check_int(epochs, "epochs", 0)
    xs, ys = task.train_images, task.train_labels
    ntr = xs.shape[0]
    rng = np.random.default_rng((int(task.seed) * 1000003 + state.epoch) & (2**63 - 1))
    for e in range(epochs):
        lr = 0.5 * lr0 * (1.0 + math.cos(math.pi * e / epochs))
        perm = rng.permutation(ntr)
        tot_loss, tot_hits = _train_epoch(state, xs, ys, perm, task.batch_size, lr)
        val_loss, val_acc = evaluate(state, task, "val")
        if not math.isfinite(val_loss):
            raise FloatingPointError(
                f"training diverged at epoch {state.epoch}: non-finite loss"
            )
        state.history.append((state.epoch, "train", tot_loss / ntr, 100.0 * tot_hits / ntr))
        state.history.append((state.epoch, "val", val_loss, val_acc))
        state.epoch += 1
    return state


def train_stage1(task: ToyTask, epochs: int = 30) -> TrainState:
    """Warmup training without range constraints."""
    return train_epochs(init_state(task), task, epochs, _LR_STAGE1)


def train_stage2(state: TrainState, task: ToyTask, epochs: int = 10) -> TrainState:
    """Enable the 8-bit clip and retrain; requires a warmup-stage state.

    With ``epochs=0`` the clip is switched on without any retraining,
    which is the ablation baseline.
    """
    if state.stage != STAGE_WARMUP:
        raise ValueError(f"stage-2 training requires a warmup state, got {state.stage!r}")
    out = state.clone()
    out.stage = STAGE_CLIPPED
    return train_epochs(out, task, epochs, _LR_STAGE2)


def bn_quantize_retrain(
    state: TrainState,
    task: ToyTask,
    epochs_per_layer: int = 2,
) -> tuple[TrainState, list]:
    """Quantize batch-norm layers front to back with interleaved retraining.

    Per layer: fit the shared 16-bit format, replace the float parameters
    with their quantized values, freeze them, then retrain the remaining
    layers. Returns the quantized state and the exported integer tables
    in layer order.
    """
    if state.stage != STAGE_CLIPPED:
        raise ValueError(f"quantization requires a clipped-stage state, got {state.stage!r}")
    out = state.clone()
    exported = []
    for blk in out.blocks:
        if blk.bn is None:
            continue
        qbn, noisy = quantize_bn(blk.bn.inference_params())
        blk.bn.gamma = noisy.gamma.astype(np.float32)
        blk.bn.beta = noisy.beta.astype(np.float32)
        blk.bn.frozen = True
        blk.bn.frozen_mu = noisy.mu.astype(np.float32)
        blk.bn.frozen_sigma = noisy.sigma.astype(np.float32)
        blk.bn.qbn = qbn
        exported.append(qbn)
        train_epochs(out, task, epochs_per_layer, _LR_STAGE2 * 0.5)
    out.stage = STAGE_QUANTIZED
    return out, exported


# -- evaluation and prediction -----------------------------------------------


def evaluate(state: TrainState, task: ToyTask, split: str = "val"):
    """Mean loss and accuracy (percent) of the eval-mode forward pass."""
    if split == "train":
        xs, ys = task.train_images, task.train_labels
    elif split == "val":
        xs, ys = task.val_images, task.val_labels
    else:
        raise ValueError(f"unknown split {split!r}")
    tot_loss, hits = 0.0, 0
    for lo in range(0, xs.shape[0], _EVAL_BATCH):
        xb, yb = xs[lo : lo + _EVAL_BATCH], ys[lo : lo + _EVAL_BATCH]
        _, _, logits, _ = _forward(state, xb, training=False)
        loss, _ = _softmax_ce(logits, yb)
        tot_loss += loss * len(yb)
        hits += int((logits.argmax(axis=1) == yb).sum())
    return tot_loss / xs.shape[0], 100.0 * hits / xs.shape[0]


def head_logits(state: TrainState, trunk_values) -> np.ndarray:
    """Readout logits from a trunk feature map (any integer-exact dtype)."""
    g = trunk_values.astype(np.float32).mean(axis=(1, 2))
    return g @ state.head_w + state.head_b


def predict_classes(state: TrainState, images) -> np.ndarray:
    """Class predictions under the model's current arithmetic.

    Quantized residual models run their deployment export through the dense
    reference (:func:`netgraph.run_float_reference`, not the packed engine);
    all other stages use the eval-mode binarized forward pass.
    """
    if state.stage == STAGE_QUANTIZED and state.variant == "resnet":
        trunk = run_float_reference(export_resnet_model(state), images)
        return head_logits(state, trunk).argmax(axis=1)
    _, _, logits, _ = _forward(state, images, training=False)
    return logits.argmax(axis=1)


# -- export ------------------------------------------------------------------


def _export_blocks(state: TrainState):
    for blk in state.blocks:
        yield pack_weights(blk.weight), blk.spec, blk


def export_float_model(state: TrainState) -> Model:
    """Store the trunk with float batch-norm records (pre-conversion form)."""
    blocks = []
    for kernel, spec, blk in _export_blocks(state):
        bn = blk.bn.inference_params() if blk.bn is not None else None
        blocks.append(FloatBlock(kernel, spec, bn))
    return Model(blocks)


def export_vgg_model(state: TrainState) -> Model:
    """Deployment model with threshold binarization between blocks: the float
    export converted as ``bitflow convert --mode vgg-threshold`` does."""
    if state.variant != "vgg":
        raise ValueError("threshold export needs a vgg-variant state")
    if state.stage == STAGE_WARMUP:
        raise ValueError("export requires clip-stage training (warmup numerics differ)")
    return convert_model(export_float_model(state), "vgg-threshold")[0]


def export_resnet_model(state: TrainState) -> Model:
    """Deployment model with 16-bit fixed-point batch norm per block."""
    if state.variant != "resnet":
        raise ValueError("fixed-point export needs a resnet-variant state")
    if state.stage != STAGE_QUANTIZED:
        raise ValueError("export requires a quantized state")
    blocks = []
    for kernel, spec, blk in _export_blocks(state):
        blocks.append(ResnetBlock(kernel, spec, blk.bn.qbn))
    return Model(blocks)


def write_curves_csv(state: TrainState, path) -> None:
    """Dump the recorded training curves as epoch,split,loss,accuracy rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "split", "loss", "accuracy"])
        for epoch, split, loss, acc in state.history:
            writer.writerow([epoch, split, f"{loss:.6f}", f"{acc:.3f}"])
