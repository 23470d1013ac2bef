"""Tests for batch-norm math: float reference, thresholds, fixed point."""

import tracemalloc

import numpy as np
import pytest

from bitflow import bnquant
from bitflow.binconv import ConvSpec
from bitflow.bitcore import (
    TILE_BYTE_BUDGET,
    I8FeatureMap,
    pack_bitplanes,
    pack_weights,
    unpack_bits,
)
from bitflow.bnquant import (
    GE,
    LE,
    BNParams,
    QFormat,
    apply_threshold,
    bn_float,
    bn_q_error_bounds,
    bn_q_forward,
    compute_threshold,
    qformat_fit,
    quantize_bn,
    quantize_values,
    threshold_bits,
    ThresholdParams,
)
from bitflow.netgraph import Model, ResnetBlock, VggBlock, model_from_bytes, model_to_bytes


def params(gamma, beta, mu, sigma):
    mk = lambda v: np.atleast_1d(np.asarray(v, dtype=np.float64))
    return BNParams(mk(gamma), mk(beta), mk(mu), mk(sigma))


def random_params(rng, channels):
    gamma = rng.uniform(-10, 10, channels)
    gamma[gamma == 0] = 1.0
    return BNParams(
        gamma,
        rng.uniform(-20, 20, channels),
        rng.uniform(-20, 20, channels),
        rng.uniform(0.01, 10, channels),
    )


class TestBnFloat:
    def test_identity(self):
        assert bn_float(5.0, params(1, 0, 0, 1)).tolist() == [5.0]

    def test_hand_evaluated(self):
        assert bn_float(1.0, params(2, 1, 3, 4)).tolist() == [0.0]

    def test_centering(self):
        p = params(3.5, -2.25, 7.0, 0.5)
        assert bn_float(7.0, p).tolist() == [-2.25]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = random_params(rng, 6)
        x = rng.integers(-127, 128, size=(2, 3, 3, 6))
        full = bn_float(x, p)
        for c in range(6):
            want = p.gamma[c] * (x[..., c] - p.mu[c]) / p.sigma[c] + p.beta[c]
            assert np.array_equal(full[..., c], want)


class TestComputeThreshold:
    def test_origin(self):
        t = compute_threshold(params(1, 0, 0, 1))
        assert t.tau[0] == 0 and t.direction[0] == GE

    def test_hand_evaluated(self):
        # tau = 3 - 1 * (4/2) = 1, positive gamma keeps GE
        t = compute_threshold(params(2, 1, 3, 4))
        assert t.tau[0] == 1 and t.direction[0] == GE

    def test_negative_gamma_flips_direction(self):
        t = compute_threshold(params(-1, 0, 0, 2))
        assert t.tau[0] == 0 and t.direction[0] == LE
        x = I8FeatureMap(np.array([-3, 0, 3], dtype=np.int8).reshape(1, 1, 3, 1))
        got = unpack_bits(apply_threshold(x, t))
        assert got.ravel().tolist() == [1, 1, -1]

    def test_gamma_zero_constant_channels(self):
        p = params([0.0, 0.0], [1.0, -1.0], [0.0, 0.0], [1.0, 1.0])
        t = compute_threshold(p)  # convert_model reports these channels, not this
        x = I8FeatureMap(
            np.array([[-127, -127], [127, 127]], dtype=np.int8).reshape(1, 1, 2, 2)
        )
        got = unpack_bits(apply_threshold(x, t))
        assert got[0, 0, :, 0].tolist() == [1, 1]  # beta >= 0 -> +1
        assert got[0, 0, :, 1].tolist() == [-1, -1]  # beta < 0 -> -1

    def test_out_of_range_tau_becomes_constant(self):
        t = compute_threshold(params(1, -1000, 0, 1))  # tau = 1000 -> clamp 128
        assert t.tau[0] == 128
        x = I8FeatureMap(np.full((1, 1, 1, 1), 127, dtype=np.int8))
        assert unpack_bits(apply_threshold(x, t))[0, 0, 0, 0] == -1

    def test_constant_channels_are_those_beyond_the_clipped_range(self):
        # GE at -127 and LE at 127 hold for every input in [-127, 127]
        tau = np.array([-128, -127, 0, 127, 128, 5, -127, 127], dtype=np.int16)
        t = ThresholdParams(tau, np.array([GE, LE, GE, GE, LE, GE, GE, LE], dtype=np.uint8))
        assert t.constant_channels().tolist() == [0, 4, 6, 7]
        x = I8FeatureMap(np.arange(-127, 128, dtype=np.int8).reshape(1, 255, 1, 1))
        for c in range(t.channels):
            one = ThresholdParams(tau[c : c + 1], t.direction[c : c + 1])
            bits = unpack_bits(apply_threshold(x, one))
            assert (np.unique(bits).size == 1) == (c in (0, 4, 6, 7))

    def test_constant_channels_match_the_compare_for_every_tau(self):
        tau = np.repeat(np.arange(-128, 129, dtype=np.int16), 2)
        direction = np.tile(np.array([GE, LE], dtype=np.uint8), 257)
        t = ThresholdParams(tau, direction)
        grid = np.arange(-127, 128, dtype=np.int8)
        x = I8FeatureMap(np.repeat(grid[:, None], 514, axis=1).reshape(1, 255, 1, 514))
        bits = unpack_bits(apply_threshold(x, t)).reshape(255, 514)
        constant = (bits == bits[0]).all(axis=0)
        assert np.array_equal(t.constant_channels(), np.flatnonzero(constant))
        pairs = {(int(tau[c]), int(direction[c])) for c in t.constant_channels()}
        assert pairs == {(-128, GE), (-127, GE), (128, GE), (-128, LE), (127, LE), (128, LE)}

    def test_direction_other_than_ge_or_le_rejected(self):
        tau = np.zeros(2, dtype=np.int16)
        with pytest.raises(ValueError, match="invalid threshold direction"):
            ThresholdParams(tau, np.array([GE, 2], dtype=np.uint8))
        ThresholdParams(tau, np.array([GE, LE], dtype=np.uint8))


class TestThresholdEquivalence:
    def test_simple_cases(self):
        t = compute_threshold(params(2, 1, 3, 4))  # tau = 1, GE
        x = I8FeatureMap(np.array([5, 0], dtype=np.int8).reshape(1, 1, 2, 1))
        got = unpack_bits(apply_threshold(x, t)).ravel()
        assert got.tolist() == [1, -1]

    def test_exhaustive_agreement(self):
        rng = np.random.default_rng(0xB17F10)
        grid = np.arange(-127, 128, dtype=np.int8)
        for _ in range(40):
            p = random_params(rng, 25)
            t = compute_threshold(p)
            x = I8FeatureMap(np.tile(grid[None, :, None], (1, 1, 1, 25)).reshape(1, 255, 1, 25))
            got = unpack_bits(apply_threshold(x, t)).reshape(255, 25)
            ref = np.where(bn_float(x.values, p) >= 0, 1, -1)
            assert np.array_equal(got, ref.reshape(255, 25))

    def test_one_compare_matches_two_comparison_definition(self):
        # every tau in [-128, 128] in both directions, every int8 input
        tau = np.repeat(np.arange(-128, 129, dtype=np.int16), 2)
        direction = np.tile(np.array([GE, LE], dtype=np.uint8), 257)
        x = np.arange(-127, 128, dtype=np.int8)[:, None]
        got = threshold_bits(x, ThresholdParams(tau, direction))
        want = np.where(direction == LE, x <= tau, x >= tau)
        assert got.shape == (255, 514)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("direction", [GE, LE])
    def test_prepared_limits_are_the_limits_clipped_to_int8(self, direction):
        # every tau in [-128, 128]: construction prepares what each
        # threshold_bits call used to derive
        tau = np.arange(-128, 129, dtype=np.int16)
        t = ThresholdParams(tau, np.full(tau.shape, direction, dtype=np.uint8))
        assert t.i8_limits.dtype == np.int8
        assert np.array_equal(t.i8_limits, np.clip(t.limits(), -128, 127))
        assert np.array_equal(t.le, np.full(tau.shape, direction == LE))

    def test_tables_are_read_only_once_prepared(self):
        # a write to tau or direction would leave the prepared limits stale
        t = ThresholdParams(np.zeros(3, np.int16), np.array([GE, LE, GE], np.uint8))
        for a in (t.tau, t.direction, t.le, t.i8_limits):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    def test_exact_tie_at_zero(self):
        # bn(1) == 0 exactly; sign(0) = +1 must hold on both routes
        p = params(2, 1, 3, 4)
        t = compute_threshold(p)
        x = I8FeatureMap(np.array([[1]], dtype=np.int8).reshape(1, 1, 1, 1))
        assert unpack_bits(apply_threshold(x, t))[0, 0, 0, 0] == 1
        assert bn_float(1, p).tolist() == [0.0]

    def test_agreement_at_range_boundary(self):
        # thresholds engineered to land around +-127/+-128, where clamping
        # and the constant-channel encoding meet
        rng = np.random.default_rng(0x5EED)
        grid = np.arange(-127, 128, dtype=np.int8)
        for target in (-129.0, -128.0, -127.5, -127.0, -126.5, 126.5, 127.0, 127.5, 128.0, 129.0):
            for gamma in (1.0, -1.0, 2.5, -0.3):
                for _ in range(20):
                    sigma = float(rng.uniform(0.2, 5))
                    beta = float(rng.uniform(-10, 10))
                    # solve mu so that mu - beta*sigma/gamma == target
                    mu = target + beta * sigma / gamma
                    p = params(gamma, beta, mu, sigma)
                    t = compute_threshold(p)
                    x = I8FeatureMap(grid.reshape(1, 255, 1, 1))
                    got = unpack_bits(apply_threshold(x, t)).ravel()
                    ref = np.where(bn_float(grid, p) >= 0, 1, -1)
                    assert np.array_equal(got, ref), (target, gamma, beta, sigma)


class TestQFormat:
    def test_fit_midrange(self):
        fmt = qformat_fit(np.array([3.7, -1.0]))
        assert fmt.range_bits == 2 and fmt.frac_bits == 13

    def test_fit_clips_low(self):
        fmt = qformat_fit(np.array([0.4, -0.2]))
        assert fmt.range_bits == 0 and fmt.frac_bits == 15

    def test_fit_clips_high(self):
        fmt = qformat_fit(np.array([40000.0]))
        assert fmt.range_bits == 15 and fmt.frac_bits == 0

    def test_fit_takes_max_over_vectors(self):
        fmt = qformat_fit([np.array([0.3]), np.array([5.0]), np.array([-0.1])])
        assert fmt.range_bits == 3

    def test_exported_integer(self):
        assert quantize_values(np.array([1.0]), QFormat(2))[0] == 8192

    def test_zero_is_exact(self):
        for rb in (0, 5, 15):
            assert quantize_values(np.array([0.0]), QFormat(rb))[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            qformat_fit(np.array([]))


class TestQuantizeBN:
    def test_error_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = random_params(rng, 8)
            qbn, noisy = quantize_bn(p)
            step = 2.0 ** (-qbn.fmt.frac_bits)
            for orig, noised in (
                (p.gamma, noisy.gamma),
                (p.beta, noisy.beta),
                (p.mu, noisy.mu),
                (p.sigma, noisy.sigma),
            ):
                assert np.all(np.abs(noised - orig) <= step / 2 + 1e-12)

    def test_all_integers_fit_16bit(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            qbn, _ = quantize_bn(random_params(rng, 8))
            for t in (qbn.gamma_q, qbn.beta_q, qbn.mu_q, qbn.sigma_q, qbn.m_q, qbn.c_q):
                assert t.dtype == np.int16

    def test_boundary_refit(self):
        # max |value| = 4.0 fits range 2 by the log rule but rounds to
        # 32768, one past int16, so the format must widen by one bit
        p = params(4.0, 0.0, 0.0, 1.0)
        qbn, noisy = quantize_bn(p)
        assert qbn.fmt.range_bits == 3
        assert qbn.gamma_q[0] == 16384
        assert noisy.gamma[0] == 4.0

    def test_parameter_overflow_raises(self):
        # 1e6 needs 20 integer bits; the widest format has 15
        with pytest.raises(OverflowError, match="batch-norm parameter exceeds"):
            quantize_bn(params(1e6, 0.0, 0.0, 1.0))

    def test_folded_overflow_raises(self):
        # every parameter fits 15 integer bits, but c = -gamma*mu/sigma
        # = -4e8 does not
        with pytest.raises(OverflowError, match="folded multiplier/bias exceeds"):
            quantize_bn(params(20000.0, 0.0, 20000.0, 1.0))

    def test_exactly_representable_params_get_zero_noise(self):
        p = params(1.0, -0.5, 2.0, 1.0)
        qbn, noisy = quantize_bn(p)
        assert noisy.gamma[0] == 1.0 and noisy.beta[0] == -0.5
        assert noisy.mu[0] == 2.0 and noisy.sigma[0] == 1.0

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(3)
        qbn, _ = quantize_bn(random_params(rng, 5))
        kernel = pack_weights(rng.choice([-1.0, 1.0], size=(5, 3, 3, 5)))
        blk = ResnetBlock(kernel, ConvSpec(spatial_pad=(1, 1)), qbn)
        back = model_from_bytes(model_to_bytes(Model([blk]))).blocks[0].qbn
        assert back.fmt == qbn.fmt and back.deploy_fmt == qbn.deploy_fmt
        for a, b in (
            (back.gamma_q, qbn.gamma_q),
            (back.beta_q, qbn.beta_q),
            (back.mu_q, qbn.mu_q),
            (back.sigma_q, qbn.sigma_q),
            (back.m_q, qbn.m_q),
            (back.c_q, qbn.c_q),
        ):
            assert np.array_equal(a, b)

    @pytest.mark.filterwarnings("ignore:layer 0. thresholds beyond")
    def test_threshold_serialization_roundtrip(self):
        rng = np.random.default_rng(4)
        t = compute_threshold(random_params(rng, 9))
        kernel = pack_weights(rng.choice([-1.0, 1.0], size=(9, 3, 3, 4)))
        blk = VggBlock(kernel, ConvSpec(spatial_pad=(1, 1)), t)
        back = model_from_bytes(model_to_bytes(Model([blk]))).blocks[0].thr
        assert np.array_equal(back.tau, t.tau)
        assert np.array_equal(back.direction, t.direction)

    def test_sigma_bump_warns_and_roundtrips(self):
        # sigma 1e-9 rounds to zero in the fitted format, so it is bumped
        # to one quantization step
        p = BNParams(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2), np.array([1e-9, 1.0]))
        with pytest.warns(RuntimeWarning, match="sigma rounded to zero on channels \\[0\\]"):
            qbn, noisy = quantize_bn(p)
        assert qbn.sigma_q[0] == 1 and noisy.sigma[0] == qbn.fmt.resolution
        kernel = pack_weights(np.ones((2, 3, 3, 2)))
        blk = ResnetBlock(kernel, ConvSpec(spatial_pad=(1, 1)), qbn)
        back = model_from_bytes(model_to_bytes(Model([blk]))).blocks[0].qbn
        assert back.sigma_q[0] == 1 and back.fmt == qbn.fmt
        assert np.array_equal(back.m_q, qbn.m_q) and np.array_equal(back.c_q, qbn.c_q)


class TestBnQForward:
    def _identity_qbn(self):
        qbn, _ = quantize_bn(params(1.0, 0.0, 0.0, 1.0))
        return qbn

    def test_identity(self):
        x = I8FeatureMap(np.array([[37]], dtype=np.int8).reshape(1, 1, 1, 1))
        assert bn_q_forward(x, self._identity_qbn()).values[0, 0, 0, 0] == 37

    def test_exact_half_multiplier(self):
        qbn, _ = quantize_bn(params(1.0, 0.0, 0.0, 2.0))  # m = 0.5 exactly
        x = I8FeatureMap(np.array([[100]], dtype=np.int8).reshape(1, 1, 1, 1))
        assert bn_q_forward(x, qbn).values[0, 0, 0, 0] == 50

    def test_output_saturation(self):
        qbn, _ = quantize_bn(params(1.0, 100.0, 0.0, 1.0))  # m=1, c=100
        x = I8FeatureMap(np.array([[100]], dtype=np.int8).reshape(1, 1, 1, 1))
        assert bn_q_forward(x, qbn).values[0, 0, 0, 0] == 127

    def test_error_bound_vs_float(self):
        rng = np.random.default_rng(5)
        grid = np.arange(-127, 128, dtype=np.int8)
        for _ in range(30):
            p = random_params(rng, 10)
            qbn, _ = quantize_bn(p)
            eps_m, eps_c = bn_q_error_bounds(qbn, p)
            x = I8FeatureMap(np.tile(grid[None, :, None], (1, 1, 10)).reshape(1, 255, 1, 10))
            got = bn_q_forward(x, qbn).values.astype(np.float64)
            ref = np.clip(bn_float(x.values, p), -127, 127)
            bound = np.abs(x.values) * eps_m + eps_c + 0.5
            assert np.all(np.abs(got - ref) <= bound + 1e-9)

    def test_monotonicity(self):
        rng = np.random.default_rng(6)
        grid = np.arange(-127, 128, dtype=np.int8)
        for _ in range(30):
            p = random_params(rng, 6)
            qbn, _ = quantize_bn(p)
            x = I8FeatureMap(np.tile(grid[None, :, None], (1, 1, 6)).reshape(1, 255, 1, 6))
            y = bn_q_forward(x, qbn).values.reshape(255, 6).astype(np.int32)
            diffs = np.diff(y, axis=0)
            for c in range(6):
                if qbn.m_q[c] >= 0:
                    assert np.all(diffs[:, c] >= 0)
                else:
                    assert np.all(diffs[:, c] <= 0)

    def test_channel_mismatch(self):
        x = I8FeatureMap(np.zeros((1, 1, 1, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            bn_q_forward(x, self._identity_qbn())

    def test_rounding_half_away_from_zero(self):
        # hand-built tables at one fractional bit: m = 0.5, c = 0, so
        # odd inputs land exactly on .5 and must round away from zero
        mk = lambda v: np.array([v], dtype=np.int16)
        qbn = bnquant.QBNParams(
            QFormat(14), mk(1), mk(0), mk(0), mk(1), QFormat(14), mk(1), mk(0)
        )
        x = I8FeatureMap(
            np.array([1, -1, 3, -3, 2, -2], dtype=np.int8).reshape(1, 1, 6, 1)
        )
        got = bn_q_forward(x, qbn).values.ravel().tolist()
        assert got == [1, -1, 2, -2, 1, -1]

    def test_matches_the_closed_form_for_every_input_and_width(self):
        # edge tables in every (m, c) pair, wide random tables, and narrow
        # ones that put many products on an exact rounding tie
        rng = np.random.default_rng(0xB17)
        edge = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
        m = np.concatenate([
            np.repeat(edge, 5),
            rng.integers(-32768, 32768, 20, dtype=np.int16),
            rng.integers(-9, 10, 20, dtype=np.int16),
        ])
        c = np.concatenate([
            np.tile(edge, 5),
            rng.integers(-32768, 32768, 20, dtype=np.int16),
            rng.integers(-300, 301, 20, dtype=np.int16),
        ])
        grid = np.arange(-127, 128, dtype=np.int8)
        x = np.repeat(grid[:, None], m.size, axis=1).reshape(1, 255, 1, m.size)
        for f in range(16):
            got = bn_q_forward(I8FeatureMap(x), deploy_qbn(m, c, f)).values
            assert np.array_equal(got, closed_form_bn_q(x, m, c, f)), f


def deploy_qbn(m, c, f):
    """Tables whose deployment pair is (m, c) at ``f`` fractional bits; the
    parameter tables, which ``bn_q_forward`` never reads, repeat ``m``."""
    fmt = QFormat(15 - f)
    return bnquant.QBNParams(fmt, m, m, m, m, fmt, m, c)


def closed_form_bn_q(x, m, c, f):
    """``((|t| + half) >> f) * sign(t)`` for ``t = m*x + c`` in int64,
    ``half = (1 << f) >> 1``, clipped to [-127, 127]."""
    t = m.astype(np.int64) * x.astype(np.int64) + c.astype(np.int64)
    y = ((np.abs(t) + ((1 << f) >> 1)) >> f) * np.sign(t)
    return np.clip(y, -127, 127).astype(np.int8)


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestSlabs:
    """``bn_q_forward`` and ``apply_threshold`` walk the flattened
    ``(pixels, channels)`` map in slabs of ``TILE_BYTE_BUDGET`` scratch. Each
    value takes at least a byte of scratch, so a map of more values than the
    budget has bytes spans more than one slab."""

    C = 72  # two words per pixel, the second one partly padding

    @pytest.mark.parametrize(
        "shape",
        [
            # at least three slabs, and a prime excess so the last is ragged
            (5 * TILE_BYTE_BUDGET // (2 * C) + 7, 1, 1, C),
            # one image: the slabs cut its pixels
            (1, 2, TILE_BYTE_BUDGET // (2 * C) + 13, C),
        ],
        ids=["images", "batch-1"],
    )
    def test_slabs_match_one_shot(self, shape):
        rng = np.random.default_rng(shape[0])
        x = rng.integers(-127, 128, shape, dtype=np.int8)
        assert x.size > TILE_BYTE_BUDGET
        m = rng.integers(-32768, 32768, self.C, dtype=np.int16)
        c = rng.integers(-32768, 32768, self.C, dtype=np.int16)
        got = bn_q_forward(I8FeatureMap(x), deploy_qbn(m, c, 11)).values
        assert np.array_equal(got, closed_form_bn_q(x, m, c, 11))
        tau = rng.integers(-128, 129, self.C).astype(np.int16)
        direction = rng.integers(0, 2, self.C).astype(np.uint8)
        got = apply_threshold(I8FeatureMap(x), ThresholdParams(tau, direction)).words
        want = pack_bitplanes(np.where(direction == LE, x <= tau, x >= tau))
        assert np.array_equal(got, want)

    def test_empty_maps_pass_through(self):
        x = I8FeatureMap(np.zeros((0, 2, 2, self.C), dtype=np.int8))
        m = np.ones(self.C, dtype=np.int16)
        assert bn_q_forward(x, deploy_qbn(m, m, 3)).dims == (0, 2, 2, self.C)
        t = ThresholdParams(np.zeros(self.C, dtype=np.int16), np.zeros(self.C, dtype=np.uint8))
        assert apply_threshold(x, t).words.shape == (0, 2, 2, 2)

    def test_working_set_stays_within_the_budget(self):
        # the resnet-body map for batch norm, the vgg-toy stem's output
        # at 32x32 for the threshold pack
        rng = np.random.default_rng(12)
        x = I8FeatureMap(rng.integers(-127, 128, (8, 14, 14, 256), dtype=np.int8))
        qbn = deploy_qbn(
            rng.integers(-32768, 32768, 256, dtype=np.int16),
            rng.integers(-32768, 32768, 256, dtype=np.int16),
            9,
        )
        peak = traced_peak(lambda: bn_q_forward(x, qbn))
        assert peak <= x.values.nbytes + 1.5 * TILE_BYTE_BUDGET
        x = I8FeatureMap(rng.integers(-127, 128, (100, 32, 32, 64), dtype=np.int8))
        t = ThresholdParams(
            rng.integers(-128, 129, 64).astype(np.int16), rng.integers(0, 2, 64).astype(np.uint8)
        )
        peak = traced_peak(lambda: apply_threshold(x, t))
        assert peak <= 100 * 32 * 32 * 8 + 1.5 * TILE_BYTE_BUDGET  # one word a pixel
