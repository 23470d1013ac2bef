"""Batch normalization math for the 8-bit inference pipeline.

Three flavors of the same per-channel affine map gamma*(x - mu)/sigma + beta:

* ``bn_float``: the real-valued reference.
* threshold reduction: when the next operation is a sign binarization,
  sign(BN(x)) collapses to an integer comparison x >= tau (or x <= tau for
  negative gamma). Because inputs are 8-bit integers, integerizing tau
  with ceil/floor per direction makes the comparison *exactly* equivalent
  to sign(BN(x)), with sign(0) = +1.
* 16-bit fixed point: all four parameters share one Q-format per layer
  (1 sign bit, ``range_bits`` integer bits, ``frac_bits = 15 - range_bits``
  fractional bits). Deployment folds the four parameters into a
  multiplier/bias pair (m, c), re-quantized to a fresh 16-bit format, so
  the inference kernel is a 16-bit multiply-add with one final rounding,
  never a division.

Rounding is half away from zero everywhere, which keeps the zero point
representation unaltered.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bitcore import (
    I8_MAX,
    BitPlaneTensor,
    I8FeatureMap,
    budget_slices,
    pack_bitplanes,
    saturate_into,
    words_per_pixel,
)

GE = 0  # emit +1 when x >= tau
LE = 1  # emit +1 when x <= tau

_I16_MIN, _I16_MAX = -32768, 32767
_I8 = np.iinfo(np.int8)


@dataclass(frozen=True, eq=False)
class BNParams:
    """Per-channel batch-norm parameters; sigma must be strictly positive."""

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        arrays = (self.gamma, self.beta, self.mu, self.sigma)
        n = self.gamma.shape[0]
        if any(a.ndim != 1 or a.shape[0] != n for a in arrays):
            raise ValueError("batch-norm parameters must be equal-length vectors")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("batch-norm parameters must be finite")
        if (self.sigma <= 0).any():
            raise ValueError("sigma must be strictly positive")

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True, eq=False)
class ThresholdParams:
    """Integer thresholds replacing BN + sign.

    ``tau`` lies in [-128, +128]. ``direction`` is GE where gamma/sigma >= 0
    and LE where it is negative. A GE channel with tau <= -127 or tau = 128,
    and an LE channel with tau = -128 or tau >= 127, is constant over the
    clipped 8-bit input (:meth:`constant_channels`). Both tables are
    read-only once checked, and construction prepares what
    :func:`threshold_bits` compares with: ``le``, True on LE channels, and
    ``i8_limits``, :meth:`limits` clipped to int8.
    """

    tau: np.ndarray  # int16
    direction: np.ndarray  # uint8, GE/LE
    le: np.ndarray = field(init=False, repr=False)
    i8_limits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.tau.shape != self.direction.shape or self.tau.ndim != 1:
            raise ValueError("tau and direction must be equal-length vectors")
        if self.tau.dtype != np.int16 or self.direction.dtype != np.uint8:
            raise ValueError("tau must be int16 and direction uint8")
        if (np.abs(self.tau.astype(np.int32)) > 128).any():
            raise ValueError("tau out of [-128, 128]")
        if (self.direction > LE).any():
            raise ValueError("invalid threshold direction flags")
        le = self.direction == LE
        # two ufuncs, not np.clip, whose wrapper costs more than the clip here
        limits = np.minimum(np.maximum(self.limits(), _I8.min), _I8.max).astype(np.int8)
        for a in (self.tau, self.direction, le, limits):
            a.setflags(write=False)
        object.__setattr__(self, "le", le)
        object.__setattr__(self, "i8_limits", limits)

    @property
    def channels(self) -> int:
        return self.tau.shape[0]

    def limits(self) -> np.ndarray:
        """Per channel, the int16 ``tau - 1 + le`` (``le`` = 1 on LE
        channels) that :func:`threshold_bits` compares against: a channel
        emits ``(x > limit) ^ le``."""
        return self.tau - 1 + (self.direction == LE)

    def constant_channels(self) -> np.ndarray:
        """Channels whose comparison gives one answer over the whole clipped
        8-bit input: ``x > limit`` always holds on [-I8_MAX, I8_MAX] when the
        limit lies below ``-I8_MAX``, and never when it is ``I8_MAX`` or more."""
        limit = self.limits()
        return np.flatnonzero((limit < -I8_MAX) | (limit >= I8_MAX))


@dataclass(frozen=True)
class QFormat:
    """Signed 16-bit fixed-point split: 1 sign bit, range_bits integer bits,
    frac_bits fractional bits."""

    range_bits: int

    def __post_init__(self):
        if not 0 <= self.range_bits <= 15:
            raise ValueError(f"range_bits must be in [0, 15], got {self.range_bits}")

    @property
    def frac_bits(self) -> int:
        return 15 - self.range_bits

    @property
    def resolution(self) -> float:
        return 2.0 ** (-self.frac_bits)

    def dequantize(self, ints: np.ndarray) -> np.ndarray:
        return np.asarray(ints, dtype=np.float64) * self.resolution


@dataclass(frozen=True, eq=False)
class QBNParams:
    """Quantized batch-norm tables.

    The four parameter vectors share ``fmt``; the folded deployment pair
    (m = gamma/sigma, c = beta - gamma*mu/sigma) shares ``deploy_fmt``.
    All integers fit signed 16-bit.
    """

    fmt: QFormat
    gamma_q: np.ndarray
    beta_q: np.ndarray
    mu_q: np.ndarray
    sigma_q: np.ndarray
    deploy_fmt: QFormat
    m_q: np.ndarray
    c_q: np.ndarray

    def __post_init__(self):
        tables = (self.gamma_q, self.beta_q, self.mu_q, self.sigma_q, self.m_q, self.c_q)
        n = self.gamma_q.shape[0]
        for t in tables:
            if t.dtype != np.int16 or t.shape != (n,):
                raise ValueError("quantized tables must be int16 vectors of equal length")

    @property
    def channels(self) -> int:
        return self.gamma_q.shape[0]


def bn_float(x, p: BNParams):
    """Real-valued batch norm gamma*(x - mu)/sigma + beta; ``x`` is
    (..., channels) and the parameters broadcast along the last axis. It
    runs in that operation order in one float64 buffer of the broadcast
    shape, so an 8-bit ``x`` is never copied to float64 first."""
    y = np.empty(np.broadcast_shapes(np.shape(x), p.mu.shape), np.float64)
    np.subtract(x, p.mu, out=y, dtype=np.float64)
    np.multiply(p.gamma, y, out=y)
    y /= p.sigma
    y += p.beta
    return y


def compute_threshold(p: BNParams) -> ThresholdParams:
    """Reduce BN + sign to integer threshold comparisons.

    The real threshold is tau = mu - beta*sigma/gamma: for positive gamma
    the decision is x >= ceil(tau), for negative gamma x <= floor(tau).
    Because inputs are 8-bit integers, the integer threshold is located
    directly against the reference decision bn_float(x) >= 0 on the
    integer grid, so the comparison matches the float route bit for bit
    even when tau falls within rounding distance of an integer.

    gamma == 0 channels are constant (+1 when beta >= 0, -1 otherwise);
    the grid search already encodes them as GE comparisons that always
    (tau -128) or never (tau 128) hold. ``netgraph.convert_model`` reports
    them.
    """
    gamma = np.asarray(p.gamma, dtype=np.float64)
    direction = np.where(gamma < 0, LE, GE).astype(np.uint8)
    grid = np.arange(-128, 129, dtype=np.float64)[:, None]
    fires = bn_float(grid, p) >= 0  # (257, channels); monotone per channel
    ge = direction == GE
    first = fires.argmax(axis=0)  # index of the first firing input
    last = 256 - fires[::-1].argmax(axis=0)  # index of the last firing input
    any_fire = fires.any(axis=0)
    tau_int = np.where(ge, first - 128, last - 128)
    # a channel that never fires is constant -1: encode as an
    # unsatisfiable comparison on either side
    tau_int = np.where(any_fire, tau_int, np.where(ge, 128, -128))
    return ThresholdParams(tau_int.astype(np.int16), direction)


def threshold_bits(values: np.ndarray, t: ThresholdParams) -> np.ndarray:
    """Per-channel comparison bits for int8 activations (..., channels).

    One compare per value, with no product array: ``x >= tau`` is
    ``x > tau - 1``, and ``x <= tau`` is the negation of ``x > tau``, so
    with ``le`` = 1 on LE channels both read ``(x > tau - 1 + le) ^ le``
    (:meth:`ThresholdParams.limits`). The limit clips to int8 without
    changing any decision, because ``values`` lies in [-127, 127] (the
    :class:`I8FeatureMap` invariant); ``t`` holds the clipped limits and
    the LE mask ready, as ``apply_threshold`` calls this once a slab.
    """
    bits = values > t.i8_limits
    return np.bitwise_xor(bits, t.le, out=bits)


def apply_threshold(x: I8FeatureMap, t: ThresholdParams) -> BitPlaneTensor:
    """Binarize an 8-bit feature map by per-channel threshold comparison.

    The pixels are compared and packed in :func:`budget_slices` slabs into
    one word map, so no full-size bit map is made."""
    if x.channels != t.channels:
        raise ValueError(
            f"threshold channels {t.channels} != feature channels {x.channels}"
        )
    src = x.values.reshape(-1, x.channels)
    words = np.empty((*x.dims[:3], words_per_pixel(x.channels)), np.uint64)
    dst = words.reshape(len(src), words.shape[-1])
    # a pixel's scratch: its comparison bits, then its packed and word-padded bytes
    for s in budget_slices(len(src), x.channels + 2 * dst.itemsize * dst.shape[1]):
        dst[s] = pack_bitplanes(threshold_bits(src[s], t))
    return BitPlaneTensor(x.dims, words)


def qformat_fit(values) -> QFormat:
    """Fit one Q-format to a set of vectors.

    Per vector: range_bits = clip(ceil(log2(max|value|)), 0, 15); the
    layer format takes the maximum over all vectors, and
    frac_bits = 15 - range_bits.
    """
    if isinstance(values, np.ndarray):
        values = [values]
    values = [np.asarray(v, dtype=np.float64) for v in values]
    if not values or any(v.size == 0 for v in values):
        raise ValueError("cannot fit a format to empty input")
    range_bits = 0
    for v in values:
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        peak = max(abs(float(v.min())), abs(float(v.max())))
        if peak > 0:
            range_bits = max(range_bits, min(15, max(0, int(np.ceil(np.log2(peak))))))
    return QFormat(range_bits)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with ties away from zero, as float."""
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def quantize_values(values: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Quantize reals to integers in ``fmt``; int32 result, fit not checked."""
    scaled = round_half_away(np.asarray(values, dtype=np.float64) * 2.0**fmt.frac_bits)
    return scaled.astype(np.int32)


def _fits_i16(ints: np.ndarray) -> bool:
    return bool((ints >= _I16_MIN).all() and (ints <= _I16_MAX).all())


def _fit_i16(vectors, overflow: str) -> tuple[QFormat, list]:
    """Quantize vectors in one fitted format, re-fitting with one more
    integer bit while rounding at the range boundary overflows 16 bits."""
    fmt = qformat_fit(vectors)
    while True:
        ints = [quantize_values(v, fmt) for v in vectors]
        if all(_fits_i16(i) for i in ints):
            return fmt, ints
        if fmt.range_bits >= 15:
            raise OverflowError(overflow)
        fmt = QFormat(fmt.range_bits + 1)


def quantize_bn(p: BNParams) -> tuple[QBNParams, BNParams]:
    """Quantize BN parameters to shared 16-bit fixed point.

    Returns the integer tables plus a noise-injected float copy (the
    dequantized parameters) for retraining. If rounding at the range
    boundary overflows 16 bits, the format is re-fit with one more
    integer bit.
    """
    params = [p.gamma, p.beta, p.mu, p.sigma]
    fmt, ints = _fit_i16(params, "batch-norm parameter exceeds 16-bit fixed point")
    gamma_q, beta_q, mu_q, sigma_q = ints
    if (sigma_q == 0).any():
        # keep sigma positive at one LSB so the fold stays finite
        bumped = np.flatnonzero(sigma_q == 0)
        warnings.warn(
            f"sigma rounded to zero on channels {bumped.tolist()}; "
            "bumped to one quantization step",
            RuntimeWarning,
            stacklevel=2,
        )
        sigma_q[bumped] = 1

    noisy = BNParams(
        fmt.dequantize(gamma_q),
        fmt.dequantize(beta_q),
        fmt.dequantize(mu_q),
        fmt.dequantize(sigma_q),
    )
    m = noisy.gamma / noisy.sigma
    c = noisy.beta - noisy.gamma * noisy.mu / noisy.sigma
    deploy_fmt, (m_q, c_q) = _fit_i16([m, c], "folded multiplier/bias exceeds 16-bit fixed point")

    qbn = QBNParams(
        fmt,
        gamma_q.astype(np.int16),
        beta_q.astype(np.int16),
        mu_q.astype(np.int16),
        sigma_q.astype(np.int16),
        deploy_fmt,
        m_q.astype(np.int16),
        c_q.astype(np.int16),
    )
    return qbn, noisy


def bn_q_forward(x: I8FeatureMap, q: QBNParams) -> I8FeatureMap:
    """Fixed-point batch norm: round_to_nearest(m*x + c) clamped to [-127, 127].

    The pixels run in :func:`budget_slices` slabs through one int32 and one
    bool scratch, reused for every slab, and each slab is clamped straight
    into the int8 result, so no full-size wide map is made. Per slab
    ``t = m*x + c`` is an int32 multiply-add over the 16-bit tables, rounded
    half away from zero on the shared fractional scale as
    ``(t + half - [t < 0]) >> f``, which is ``((|t| + half) >> f) * sign(t)``.
    """
    if x.channels != q.channels:
        raise ValueError(f"qbn channels {q.channels} != feature channels {x.channels}")
    f = q.deploy_fmt.frac_bits
    src = x.values.reshape(-1, x.channels)
    out = np.empty(x.dims, np.int8)
    dst = out.reshape(src.shape)
    slabs = budget_slices(len(src), 5 * x.channels)  # an int32 and a bool per value
    t_buf = np.empty((slabs[0].stop, x.channels), np.int32)
    neg_buf = np.empty(t_buf.shape, np.bool_)
    for s in slabs:
        t, neg = t_buf[: s.stop - s.start], neg_buf[: s.stop - s.start]
        np.multiply(src[s], q.m_q, out=t, dtype=np.int32)
        t += q.c_q
        if f:  # at f = 0, t is already whole
            t -= np.less(t, 0, out=neg)
            t += (1 << f) >> 1
            t >>= f
        saturate_into(t, dst[s])
    return I8FeatureMap(out)


def bn_q_error_bounds(q: QBNParams, p: BNParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel quantization errors (eps_m, eps_c) of the folded pair
    relative to the real parameters ``p``."""
    m_true = p.gamma / p.sigma
    c_true = p.beta - p.gamma * p.mu / p.sigma
    eps_m = np.abs(q.deploy_fmt.dequantize(q.m_q) - m_true)
    eps_c = np.abs(q.deploy_fmt.dequantize(q.c_q) - c_true)
    return eps_m, eps_c
