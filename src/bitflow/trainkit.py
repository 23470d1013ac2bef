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
bit for bit. Convolutions run as :func:`binconv.im2col` matmuls over +-1
values padded with -1, so they are exact in float32 and agree with the
packed integer engine wherever both apply.
"""

from __future__ import annotations

import copy
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .binconv import ConvSpec, conv_float_oracle, im2col
from .bitcore import I8FeatureMap, pack_weights
from .bnquant import BNParams, QBNParams, bn_q_forward, compute_threshold, quantize_bn
from .netgraph import FloatBlock, Model, ResnetBlock, VggBlock

DEFAULT_SEED = 0xB17F10

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.1

STAGE_WARMUP = "warmup"
STAGE_CLIPPED = "clipped"
STAGE_QUANTIZED = "quantized"


# -- surrogate ops -----------------------------------------------------------


def ste_sign(x):
    """Sign forward (sign(0) = +1) with the straight-through gradient mask.

    Returns (values in {-1, +1}, mask in {0, 1}); the mask is 1 exactly
    where -1 <= x <= 1, boundaries included.
    """
    x = np.asarray(x)
    values = np.where(x >= 0, 1.0, -1.0).astype(np.float32)
    mask = (np.abs(x) <= 1.0).astype(np.uint8)
    return values, mask


def clip_i8_surrogate(x):
    """Symmetric 8-bit clip with a pass-through gradient inside the range.

    Returns (max(min(127, x), -127), mask); mask is 1 iff -127 <= x <= 127.
    """
    x = np.asarray(x)
    values = np.clip(x, -127.0, 127.0)
    mask = (np.abs(x) <= 127.0).astype(np.uint8)
    return values, mask


def _hard_tanh(x):
    """The function whose derivative ``ste_sign``'s mask stands for."""
    return np.clip(x, -1.0, 1.0), ste_sign(x)[1]


# finite differences skip this band of |x| around each op's clamp corners
_KINK_BANDS = {"sign": (0.99, 1.01), "clip": (126.0, 128.0)}


def grad_check(op: str, points, step: float = 1e-4) -> dict:
    """Central finite differences of a surrogate forward vs its mask.

    The forward and the mask come from ``ste_sign`` and
    ``clip_i8_surrogate``, the ops ``_forward`` trains with. Points inside
    the kink band around the clamp corners are skipped; the report carries
    the worst absolute error over the rest.
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
    fd = (surrogate(pts + step)[0] - surrogate(pts - step)[0]) / (2.0 * step)
    err = np.abs(fd - surrogate(pts)[1].astype(np.float64))
    return {"op": op, "checked": int(pts.size), "max_abs_err": float(err.max())}


# -- toy task ----------------------------------------------------------------

_PAIR_CENTERS = [(4, 4), (4, 12), (12, 4), (12, 12), (8, 8)]
_PAIR_RADII = (2.0, 3.4)


@dataclass
class ToyTask:
    """Seeded synthetic 10-class image task (16x16x8) with a fixed split."""

    seed: int
    variant: str  # "vgg" | "resnet"
    images: np.ndarray
    labels: np.ndarray
    n_train: int
    widths: tuple
    acc_window: int
    beta_spread: float
    batch_size: int
    epochs_stage1: int
    epochs_stage2: int
    lr_stage1: float
    lr_stage2: float

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
    acc_window: int = 8,
    beta_spread: float = 3.0,
    noise: float = 1.2,
    batch_size: int = 100,
    epochs_stage1: int = 30,
    epochs_stage2: int = 10,
    lr_stage1: float = 0.02,
    lr_stage2: float = 0.012,
) -> ToyTask:
    """Build the deterministic toy classification task from one seed."""
    if variant not in ("vgg", "resnet"):
        raise ValueError(f"unknown variant {variant!r}")
    if widths is None:
        widths = (64, 64, 32) if variant == "vgg" else (8, 8, 8)
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
        widths=tuple(widths),
        acc_window=acc_window,
        beta_spread=beta_spread,
        batch_size=batch_size,
        epochs_stage1=epochs_stage1,
        epochs_stage2=epochs_stage2,
        lr_stage1=lr_stage1,
        lr_stage2=lr_stage2,
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

    def inference_params(self) -> BNParams:
        """Effective per-channel parameters at inference time."""
        if self.frozen:
            mu, sigma = self.frozen_mu, self.frozen_sigma
        else:
            mu = self.run_mu
            sigma = np.sqrt(self.run_var + _BN_EPS)
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
    stride: tuple = (1, 1)
    pad: tuple | None = None  # None means shape-preserving

    @property
    def spec(self) -> ConvSpec:
        fh, fw = self.weight.shape[1], self.weight.shape[2]
        pad = ((fh - 1) // 2, (fw - 1) // 2) if self.pad is None else self.pad
        return ConvSpec(stride=self.stride, spatial_pad=pad)


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
    if task.variant == "vgg":
        c0, c1, c2 = task.widths
        w = task.acc_window
        geometry = [
            (c0, 3, (1, 1), None, True, 0.0),
            (c1, w, (w, w), (0, 0), True, task.beta_spread),
            (c2, 3, (1, 1), None, False, 0.0),
        ]
    else:
        geometry = [(cin, 3, (1, 1), None, True, 0.0) for _ in task.widths]
    gamma_init = 24.0 if task.variant == "resnet" else 1.0
    for cout, fsz, stride, pad, with_bn, spread in geometry:
        w = rng.uniform(-0.5, 0.5, size=(cout, fsz, fsz, cin)).astype(np.float32)
        bn = _fresh_bn(cout, spread, gamma_init) if with_bn else None
        blocks.append(ConvBlock(weight=w, bn=bn, stride=stride, pad=pad))
        cin = cout
    head_w = (rng.standard_normal((cin, 10)) / math.sqrt(cin)).astype(np.float32)
    head_b = np.zeros(10, dtype=np.float32)
    return TrainState(task.variant, blocks, head_w, head_b)


# -- conv plumbing -----------------------------------------------------------


def _col2im(dcols, in_shape, fh, fw, spec: ConvSpec):
    """Adjoint of :func:`binconv.im2col`: add row gradients back onto the
    input positions they were read from (padding is dropped)."""
    n, h, w, c = in_shape
    _, oh, ow, _ = dcols.shape
    (sh, sw), (ph, pw) = spec.stride, spec.spatial_pad
    dap = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=np.float32)
    taps = dcols.reshape(n, oh, ow, fh, fw, c)
    for i in range(fh):
        for j in range(fw):
            dap[
                :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, :
            ] += taps[:, :, :, i, j]
    return dap[:, ph : ph + h, pw : pw + w, :]


def _bn_forward(bn: BNLayer, x, training: bool):
    if bn.frozen:
        y = bn.gamma * (x - bn.frozen_mu) / bn.frozen_sigma + bn.beta
        return y, {"frozen_sigma": bn.frozen_sigma}
    if not training:
        sigma = np.sqrt(bn.run_var + _BN_EPS)
        return bn.gamma * (x - bn.run_mu) / sigma + bn.beta, None
    axes = (0, 1, 2)
    mu = x.mean(axes)
    var = x.var(axes)
    sigma = np.sqrt(var + _BN_EPS)
    xhat = (x - mu) / sigma
    bn.run_mu += _BN_MOMENTUM * (mu - bn.run_mu)
    bn.run_var += _BN_MOMENTUM * (var - bn.run_var)
    return bn.gamma * xhat + bn.beta, {"xhat": xhat, "sigma": sigma}


def _bn_backward(bn: BNLayer, cache, dy):
    if bn.frozen:
        return dy * (bn.gamma / cache["frozen_sigma"]), None, None
    axes = (0, 1, 2)
    xhat, sigma = cache["xhat"], cache["sigma"]
    dgamma = (dy * xhat).sum(axes)
    dbeta = dy.sum(axes)
    dxhat = dy * bn.gamma
    dx = (dxhat - dxhat.mean(axes) - xhat * (dxhat * xhat).mean(axes)) / sigma
    return dx, dgamma.astype(np.float32), dbeta.astype(np.float32)


def _forward(state: TrainState, x, training: bool):
    """Run the block stack; returns (trunk, head input, logits, caches)."""
    clip_on = state.stage != STAGE_WARMUP
    resnet = state.variant == "resnet"
    h = np.where(x >= 0, 1.0, -1.0).astype(np.float32) if resnet else x
    caches = []
    for blk in state.blocks:
        a, amask = ste_sign(h)
        wb, wmask = ste_sign(blk.weight)
        wmat = wb.reshape(wb.shape[0], -1).T  # (K, O)
        cols = im2col(a, wb.shape[1], wb.shape[2], blk.spec)
        f = cols @ wmat
        if clip_on:
            fc, cmask = clip_i8_surrogate(f)
            fc = fc.astype(np.float32)
        else:
            fc, cmask = f, None
        if blk.bn is not None:
            y, bncache = _bn_forward(blk.bn, fc, training)
        else:
            y, bncache = fc, None
        zmask = omask = None
        if resnet:
            z = y
            if clip_on:
                z, zmask = clip_i8_surrogate(y)
                z = z.astype(np.float32)
            out = z + h
            if clip_on:
                out, omask = clip_i8_surrogate(out)
                out = out.astype(np.float32)
        else:
            out = y
        caches.append(
            {
                "h_in": h,
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
        h = out
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
    grads = {
        ("head_w",): (g.T @ dlogits).astype(np.float32),
        ("head_b",): dlogits.sum(axis=0).astype(np.float32),
    }
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
                grads[("bn_gamma", bi)] = dgamma
                grads[("bn_beta", bi)] = dbeta
        else:
            dfc = dy
        df = dfc * cache["cmask"] if cache["cmask"] is not None else dfc
        k = cache["wmat"].shape[0]
        o = blk.weight.shape[0]
        dwmat = cache["cols"].reshape(-1, k).T @ df.reshape(-1, o)
        dw = dwmat.T.reshape(blk.weight.shape) * cache["wmask"]
        grads[("weight", bi)] = dw.astype(np.float32)
        if bi > 0 or resnet:
            dcols = df @ cache["wmat"].T
            fh, fw = blk.weight.shape[1], blk.weight.shape[2]
            da = _col2im(dcols, cache["h_in"].shape, fh, fw, blk.spec)
            dh_prev = da * cache["amask"]
            if resnet:
                dh_prev = dh_prev + dshort
            dh = dh_prev.astype(np.float32)
    return grads


def _apply_grads(state: TrainState, grads, lr, momentum=0.9):
    for key, grad in grads.items():
        if key == ("head_w",):
            param = state.head_w
        elif key == ("head_b",):
            param = state.head_b
        elif key[0] == "weight":
            param = state.blocks[key[1]].weight
        elif key[0] == "bn_gamma":
            param = state.blocks[key[1]].bn.gamma
        else:
            param = state.blocks[key[1]].bn.beta
        buf = state.momenta.get(key)
        if buf is None:
            buf = state.momenta[key] = np.zeros_like(param)
        buf *= momentum
        buf -= lr * grad
        param += buf
        if key[0] == "weight":
            # keep latent weights inside the straight-through window
            np.clip(param, -1.0, 1.0, out=param)


def _cosine_lr(lr0, e, total):
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * e / max(total, 1)))


def train_epochs(state: TrainState, task: ToyTask, epochs: int, lr0: float) -> TrainState:
    """Run the optimizer in place for ``epochs`` epochs at cosine-decayed lr.

    Shuffling is seeded by (task seed, starting epoch), so a resumed run
    replays the same batch order regardless of stage flags.
    """
    xs, ys = task.train_images, task.train_labels
    ntr = xs.shape[0]
    rng = np.random.default_rng((int(task.seed) * 1000003 + state.epoch) & (2**63 - 1))
    for e in range(epochs):
        lr = _cosine_lr(lr0, e, epochs)
        perm = rng.permutation(ntr)
        tot_loss, tot_hits = 0.0, 0
        for lo in range(0, ntr, task.batch_size):
            idx = perm[lo : lo + task.batch_size]
            xb, yb = xs[idx], ys[idx]
            trunk, g, logits, caches = _forward(state, xb, training=True)
            loss, dlogits = _softmax_ce(logits, yb)
            if not math.isfinite(loss):
                raise FloatingPointError(
                    f"training diverged at epoch {state.epoch}: non-finite loss"
                )
            grads = _backward(state, caches, trunk.shape, g, dlogits)
            _apply_grads(state, grads, lr)
            tot_loss += loss * len(idx)
            tot_hits += int((logits.argmax(axis=1) == yb).sum())
        val_loss, val_acc = evaluate(state, task, "val")
        if not math.isfinite(val_loss):
            raise FloatingPointError(
                f"training diverged at epoch {state.epoch}: non-finite loss"
            )
        state.history.append((state.epoch, "train", tot_loss / ntr, 100.0 * tot_hits / ntr))
        state.history.append((state.epoch, "val", val_loss, val_acc))
        state.epoch += 1
    return state


def train_stage1(task: ToyTask, epochs: int | None = None, lr: float | None = None) -> TrainState:
    """Warmup training without range constraints."""
    state = init_state(task)
    return train_epochs(
        state,
        task,
        task.epochs_stage1 if epochs is None else epochs,
        task.lr_stage1 if lr is None else lr,
    )


def train_stage2(
    state: TrainState, task: ToyTask, epochs: int | None = None, lr: float | None = None
) -> TrainState:
    """Enable the 8-bit clip and retrain; requires a warmup-stage state.

    With ``epochs=0`` the clip is switched on without any retraining,
    which is the ablation baseline.
    """
    if state.stage != STAGE_WARMUP:
        raise ValueError(f"stage-2 training requires a warmup state, got {state.stage!r}")
    out = state.clone()
    out.stage = STAGE_CLIPPED
    return train_epochs(
        out,
        task,
        task.epochs_stage2 if epochs is None else epochs,
        task.lr_stage2 if lr is None else lr,
    )


def bn_quantize_retrain(
    state: TrainState,
    task: ToyTask,
    epochs_per_layer: int = 2,
    lr: float | None = None,
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
    lr = task.lr_stage2 * 0.5 if lr is None else lr
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
        if epochs_per_layer:
            train_epochs(out, task, epochs_per_layer, lr)
    out.stage = STAGE_QUANTIZED
    return out, exported


# -- evaluation and prediction -----------------------------------------------


def evaluate(state: TrainState, task: ToyTask, split: str = "val", batch: int = 200):
    """Mean loss and accuracy (percent) of the eval-mode forward pass."""
    if split == "train":
        xs, ys = task.train_images, task.train_labels
    elif split == "val":
        xs, ys = task.val_images, task.val_labels
    else:
        raise ValueError(f"unknown split {split!r}")
    tot_loss, hits = 0.0, 0
    for lo in range(0, xs.shape[0], batch):
        xb, yb = xs[lo : lo + batch], ys[lo : lo + batch]
        _, _, logits, _ = _forward(state, xb, training=False)
        loss, _ = _softmax_ce(logits, yb)
        tot_loss += loss * len(yb)
        hits += int((logits.argmax(axis=1) == yb).sum())
    return tot_loss / xs.shape[0], 100.0 * hits / xs.shape[0]


def head_logits(state: TrainState, trunk_values) -> np.ndarray:
    """Readout logits from a trunk feature map (any integer-exact dtype)."""
    g = trunk_values.astype(np.float32).mean(axis=(1, 2))
    return g @ state.head_w + state.head_b


def _integer_trunk(state: TrainState, x) -> np.ndarray:
    """Deployment-arithmetic forward pass for a quantized residual model.

    Convolutions run on the dense oracle (independent of the packed
    engine), batch norm as the 16-bit integer multiply-add.
    """
    h = I8FeatureMap(np.where(x >= 0, 1, -1).astype(np.int8))
    for blk in state.blocks:
        a = np.where(h.values >= 0, 1, -1).astype(np.int8)
        wb = np.where(blk.weight >= 0, 1, -1).astype(np.int8)
        f = conv_float_oracle(a, wb, blk.spec).values
        conv = I8FeatureMap(np.clip(f, -127, 127).astype(np.int8))
        z = bn_q_forward(conv, blk.bn.qbn)
        summed = z.values.astype(np.int16) + h.values.astype(np.int16)
        h = I8FeatureMap(np.clip(summed, -127, 127).astype(np.int8))
    return h.values


def predict_classes(state: TrainState, images) -> np.ndarray:
    """Class predictions under the model's current arithmetic.

    Quantized residual models run the integer deployment path; all other
    stages use the eval-mode binarized forward pass.
    """
    if state.stage == STAGE_QUANTIZED and state.variant == "resnet":
        return head_logits(state, _integer_trunk(state, images)).argmax(axis=1)
    _, _, logits, _ = _forward(state, images, training=False)
    return logits.argmax(axis=1)


# -- export ------------------------------------------------------------------


def _export_blocks(state: TrainState):
    for blk in state.blocks:
        yield pack_weights(blk.weight.astype(np.float64)), blk.spec, blk


def export_float_model(state: TrainState) -> Model:
    """Store the trunk with float batch-norm records (pre-conversion form)."""
    blocks = []
    for kernel, spec, blk in _export_blocks(state):
        bn = blk.bn.inference_params() if blk.bn is not None else None
        blocks.append(FloatBlock(kernel, spec, bn))
    return Model(blocks)


def export_vgg_model(state: TrainState) -> Model:
    """Deployment model with threshold binarization between blocks."""
    if state.variant != "vgg":
        raise ValueError("threshold export needs a vgg-variant state")
    if state.stage == STAGE_WARMUP:
        raise ValueError("export requires clip-stage training (warmup numerics differ)")
    blocks = []
    for kernel, spec, blk in _export_blocks(state):
        thr = compute_threshold(blk.bn.inference_params()) if blk.bn is not None else None
        blocks.append(VggBlock(kernel, spec, thr))
    return Model(blocks)


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
