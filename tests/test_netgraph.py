"""Tests for block execution, model composition and the file format."""

import hashlib
import struct
import warnings
import zlib

import numpy as np
import pytest

import bitflow.netgraph as ng
from bitflow import binconv
from bitflow.binconv import ConvSpec, conv_float_oracle, conv_i8
from bitflow.bitcore import I8FeatureMap, pack_activations, pack_weights, unpack_bits
from bitflow.benchcli import random_model
from bitflow.bnquant import (
    GE,
    LE,
    BNParams,
    ThresholdParams,
    apply_threshold,
    bn_float,
    compute_threshold,
    bn_q_error_bounds,
    quantize_bn,
)
from bitflow.netgraph import (
    FloatBlock,
    GraphError,
    Model,
    ModelFormatError,
    ResnetBlock,
    VggBlock,
    convert_model,
    load_model,
    model_from_bytes,
    model_to_bytes,
    run_float_reference,
    run_model,
    run_resnet_block,
    run_vgg_block,
    save_model,
)


def bn(rng, channels, gamma_span=3.0):
    gamma = rng.uniform(-gamma_span, gamma_span, channels)
    gamma[np.abs(gamma) < 0.05] = 0.5
    return BNParams(
        gamma,
        rng.uniform(-2, 2, channels),
        rng.uniform(-8, 8, channels),
        rng.uniform(0.5, 4, channels),
    )


def float_vgg_model(rng, depth=2, cin=6, width=None, hw=8):
    """Random float model: inner blocks with BN, bare terminal conv."""
    blocks = []
    c = cin
    for d in range(depth):
        cout = width if width is not None else int(rng.integers(2, 65))
        w = rng.standard_normal((cout, 3, 3, c))
        spec = ConvSpec(spatial_pad=(1, 1))
        blocks.append(
            FloatBlock(pack_weights(w), spec, bn(rng, cout) if d < depth - 1 else None)
        )
        c = cout
    return Model(blocks)


def float_resnet_model(rng, depth=2, c=6):
    blocks = []
    for _ in range(depth):
        w = rng.standard_normal((c, 3, 3, c))
        blocks.append(FloatBlock(pack_weights(w), ConvSpec(spatial_pad=(1, 1)), bn(rng, c)))
    return Model(blocks)


def in_range_thresholds(model):
    """True when every converted threshold stays inside the clipped range."""
    for blk in model.blocks:
        if isinstance(blk, VggBlock) and blk.thr is not None:
            if np.any(np.abs(blk.thr.tau.astype(np.int32)) > 127):
                return False
    return True


class TestVggBlock:
    def test_identity_bn_equals_sign_of_conv(self):
        rng = np.random.default_rng(1)
        c = 5
        w = rng.standard_normal((c, 3, 3, c))
        thr = compute_threshold(
            BNParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c))
        )
        blk = VggBlock(pack_weights(w), ConvSpec(spatial_pad=(1, 1)), thr)
        x = I8FeatureMap(rng.integers(-127, 128, size=(1, 6, 6, c)).astype(np.int8))
        got = unpack_bits(run_vgg_block(x, blk))
        conv = conv_i8(pack_activations(x.values), blk.kernel, blk.spec)
        assert np.array_equal(got, np.where(conv.values >= 0, 1, -1))

    def test_saturating_sum_does_not_cross_threshold(self):
        # true sum 225 clips to 127; tau = 100 still reads +1
        c = 25
        w = np.ones((1, 3, 3, c))
        thr = compute_threshold(
            BNParams(np.ones(1), np.array([-100.0]), np.zeros(1), np.ones(1))
        )
        assert thr.tau[0] == 100
        blk = VggBlock(pack_weights(w), ConvSpec(), thr)
        x = I8FeatureMap(np.full((1, 3, 3, c), 1, dtype=np.int8))
        assert unpack_bits(run_vgg_block(x, blk))[0, 0, 0, 0] == 1

    def test_stacked_blocks_match_float_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(12):
            fm = float_vgg_model(rng, depth=int(rng.integers(2, 5)))
            model, _ = convert_model(fm, "vgg-threshold")
            if not in_range_thresholds(model):
                continue
            x = rng.standard_normal((2, 8, 8, 6))
            got = run_model(model, x).values
            want = run_float_reference(fm, x, "vgg")
            assert np.array_equal(got.astype(np.float64), want)

    def test_threshold_channel_mismatch(self):
        rng = np.random.default_rng(3)
        thr = compute_threshold(bn(rng, 4))
        with pytest.raises(GraphError):
            VggBlock(pack_weights(np.ones((5, 3, 3, 4))), ConvSpec(), thr)


class TestResnetBlock:
    def test_identity_qbn_zero_shortcut(self):
        rng = np.random.default_rng(4)
        c = 6
        w = rng.standard_normal((c, 3, 3, c))
        qbn, _ = quantize_bn(BNParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c)))
        blk = ResnetBlock(pack_weights(w), ConvSpec(spatial_pad=(1, 1)), qbn)
        x = I8FeatureMap(np.zeros((1, 5, 5, c), dtype=np.int8))
        got = run_resnet_block(x, blk)
        conv = conv_i8(pack_activations(x.values), blk.kernel, blk.spec)
        assert np.array_equal(got.values, conv.values)

    def test_saturating_add(self):
        # batch norm pinned at constant 100 (m=0, c=100) plus a shortcut of
        # 100 must saturate to 127, not wrap
        c = 4
        qbn, _ = quantize_bn(
            BNParams(np.zeros(c), np.full(c, 100.0), np.zeros(c), np.ones(c))
        )
        blk = ResnetBlock(
            pack_weights(np.ones((c, 3, 3, c))), ConvSpec(spatial_pad=(1, 1)), qbn
        )
        x = I8FeatureMap(np.full((1, 4, 4, c), 100, dtype=np.int8))
        out = run_resnet_block(x, blk)
        assert np.all(out.values == 127)

    def test_against_float_reference_bound(self):
        # single block, both routes see the same input: quantized batch
        # norm deviates from the float pipeline by at most the per-channel
        # bound |x|*eps_m + eps_c + 0.5, and the saturating add preserves it
        rng = np.random.default_rng(5)
        for _ in range(15):
            fm = float_resnet_model(rng, depth=1)
            model, _ = convert_model(fm, "resnet-qbn")
            x = rng.standard_normal((1, 6, 6, 6))
            got = run_model(model, x).values.astype(np.float64)
            want = run_float_reference(fm, x, "resnet")
            eps_m, eps_c = bn_q_error_bounds(model.blocks[0].qbn, fm.blocks[0].bn)
            bound = 127 * eps_m + eps_c + 0.5
            assert np.all(np.abs(got - want) <= bound + 1.0)

    def test_stacked_blocks_execute(self):
        rng = np.random.default_rng(50)
        fm = float_resnet_model(rng, depth=3)
        model, _ = convert_model(fm, "resnet-qbn")
        x = rng.standard_normal((2, 6, 6, 6))
        out = run_model(model, x)
        assert out.dims == (2, 6, 6, 6)
        assert int(np.abs(out.values).max()) <= 127

    def test_shape_preserving_required(self):
        rng = np.random.default_rng(6)
        qbn, _ = quantize_bn(bn(rng, 4))
        with pytest.raises(GraphError):
            ResnetBlock(pack_weights(np.ones((4, 3, 3, 4))), ConvSpec(), qbn)
        with pytest.raises(GraphError):
            ResnetBlock(
                pack_weights(np.ones((5, 3, 3, 4))), ConvSpec(spatial_pad=(1, 1)), qbn
            )

    @pytest.mark.parametrize(
        "out,f,stride,pad",
        [(4, 3, 2, 1), (4, 4, 1, 1), (4, 2, 1, 0), (5, 3, 1, 1)],
        ids=["stride-2", "even-4x4", "even-2x2", "channel-change"],
    )
    def test_output_dims_must_equal_input_dims(self, out, f, stride, pad):
        # each case breaks one condition; qbn matches the output channels
        rng = np.random.default_rng(8)
        qbn, _ = quantize_bn(bn(rng, out))
        spec = ConvSpec((stride, stride), (pad, pad))
        with pytest.raises(GraphError, match="identity shortcut"):
            ResnetBlock(pack_weights(np.ones((out, f, f, 4))), spec, qbn)

    def test_rejects_packed_input(self):
        rng = np.random.default_rng(7)
        qbn, _ = quantize_bn(bn(rng, 4))
        blk = ResnetBlock(pack_weights(np.ones((4, 3, 3, 4))), ConvSpec(spatial_pad=(1, 1)), qbn)
        bits = pack_activations(np.ones((1, 4, 4, 4)))
        with pytest.raises(GraphError):
            run_resnet_block(bits, blk)


def _tables(cls, rng, channels):
    if cls is VggBlock:
        return compute_threshold(bn(rng, channels))
    if cls is ResnetBlock:
        return quantize_bn(bn(rng, channels))[0]
    return bn(rng, channels)


class TestConstruction:
    @pytest.mark.parametrize("cls", [VggBlock, ResnetBlock, FloatBlock])
    @pytest.mark.parametrize("pad", [(3, 1), (1, 3)], ids=["rows", "cols"])
    def test_padding_not_below_filter_raises(self, cls, pad):
        rng = np.random.default_rng(22)
        kernel = pack_weights(rng.standard_normal((4, 3, 3, 4)))
        with pytest.raises(GraphError):
            cls(kernel, ConvSpec(spatial_pad=pad), _tables(cls, rng, 4))

    @pytest.mark.parametrize("cls", [VggBlock, FloatBlock])
    @pytest.mark.parametrize("stride", [(4, 1), (1, 4)], ids=["rows", "cols"])
    def test_stride_above_filter_raises(self, cls, stride):
        rng = np.random.default_rng(23)
        kernel = pack_weights(rng.standard_normal((4, 3, 3, 4)))
        with pytest.raises(GraphError, match="stride"):
            cls(kernel, ConvSpec(stride), _tables(cls, rng, 4))
        cls(kernel, ConvSpec((3, 3)), _tables(cls, rng, 4))  # stride == filter is fine

    @pytest.mark.parametrize("cls", [VggBlock, ResnetBlock, FloatBlock])
    def test_table_channels_must_match_the_conv(self, cls):
        rng = np.random.default_rng(24)
        kernel = pack_weights(rng.standard_normal((4, 3, 3, 4)))
        field = ng._LAYOUT[cls][1]
        with pytest.raises(GraphError, match=f"{field} channels 5 != conv output channels 4"):
            cls(kernel, ConvSpec(spatial_pad=(1, 1)), _tables(cls, rng, 5))

    def test_model_needs_known_blocks(self):
        blk = VggBlock(pack_weights(np.ones((2, 3, 3, 2))), ConvSpec())
        with pytest.raises(GraphError, match="model has no layers"):
            Model([])
        with pytest.raises(GraphError, match="layer 1 has unknown type object"):
            Model([blk, object()])

    def test_blocks_cannot_change_after_the_checks(self):
        # a list would let an unknown block in (a raw KeyError on save) or
        # empty the model (a zero-layer file the loader rejects)
        blk = VggBlock(pack_weights(np.ones((2, 3, 3, 2))), ConvSpec())
        blocks = [blk]
        m = Model(blocks)
        blocks.append(object())
        assert m.blocks == (blk,)
        with pytest.raises(AttributeError):
            m.blocks.append(object())
        with pytest.raises(AttributeError):
            m.blocks.clear()
        with pytest.raises(AttributeError):
            m.blocks = []
        assert model_from_bytes(model_to_bytes(m)).blocks[0].kernel.dims == (2, 3, 3, 2)


class TestRunModel:
    def test_empty_model_rejected(self):
        with pytest.raises(GraphError):
            run_model(Model([]), np.ones((1, 4, 4, 2)))

    @pytest.mark.parametrize("shape", [(4, 4, 2), (1, 1, 4, 4, 2), ()])
    def test_non_nhwc_input_rejected(self, shape):
        blk = VggBlock(pack_weights(np.ones((2, 1, 1, 2))), ConvSpec(), None)
        with pytest.raises(GraphError, match="input must be NHWC"):
            run_model(Model([blk]), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        blk = VggBlock(pack_weights(np.ones((2, 1, 1, 2))), ConvSpec(), None)
        x = np.ones((1, 3, 3, 2))
        x[0, 1, 2, 1] = bad
        with pytest.raises(GraphError, match="input must be finite"):
            run_model(Model([blk]), x)

    @pytest.mark.parametrize("dtype", [complex, object, str])
    def test_non_real_input_rejected_before_the_shape_check(self, monkeypatch, dtype):
        # -1j >= 0 is False, so a complex zero would binarize to -1
        blk = VggBlock(pack_weights(np.ones((2, 1, 1, 2))), ConvSpec(), None)
        x = np.full((1, 3, 3, 2), -1j if dtype is complex else 1, dtype=dtype)

        def no_shape_check(*args):
            raise AssertionError("block_shapes ran")

        monkeypatch.setattr(ng, "block_shapes", no_shape_check)
        with pytest.raises(GraphError, match="bool, integer or real floating"):
            run_model(Model([blk]), x)

    @pytest.mark.parametrize("dtype", [bool, np.int8])
    def test_bool_and_integer_inputs_run(self, dtype):
        rng = np.random.default_rng(10)
        blk = VggBlock(pack_weights(rng.standard_normal((3, 3, 3, 2))), ConvSpec(), None)
        x = rng.integers(-1, 2, size=(1, 5, 5, 2)).astype(dtype)
        want = run_model(Model([blk]), x.astype(np.float64)).values
        assert np.array_equal(run_model(Model([blk]), x).values, want)

    def test_single_block_equals_direct_call(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 3, 3, 4))
        blk = VggBlock(pack_weights(w), ConvSpec(spatial_pad=(1, 1)), None)
        x = rng.standard_normal((1, 6, 6, 4))
        via_model = run_model(Model([blk]), x)
        direct = run_vgg_block(I8FeatureMap(np.where(x >= 0, 1, -1).astype(np.int8)), blk)
        assert np.array_equal(via_model.values, direct.values)

    def test_mixed_model_equals_sequential(self):
        rng = np.random.default_rng(9)
        c = 6
        qbn1, _ = quantize_bn(bn(rng, c))
        qbn2, _ = quantize_bn(bn(rng, c))
        thr = compute_threshold(bn(rng, c))
        spec = ConvSpec(spatial_pad=(1, 1))
        blocks = [
            ResnetBlock(pack_weights(rng.standard_normal((c, 3, 3, c))), spec, qbn1),
            ResnetBlock(pack_weights(rng.standard_normal((c, 3, 3, c))), spec, qbn2),
            VggBlock(pack_weights(rng.standard_normal((c, 3, 3, c))), spec, thr),
            VggBlock(pack_weights(rng.standard_normal((4, 3, 3, c))), spec, None),
        ]
        x = rng.standard_normal((2, 7, 7, c))
        got = run_model(Model(blocks), x)
        h = I8FeatureMap(np.where(x >= 0, 1, -1).astype(np.int8))
        h = run_resnet_block(h, blocks[0])
        h = run_resnet_block(h, blocks[1])
        h = run_vgg_block(h, blocks[2])
        h = run_vgg_block(h, blocks[3])
        assert np.array_equal(got.values, h.values)

    @pytest.mark.parametrize("threads", [0, 65, 10**6, 2.5])
    def test_out_of_range_threads_rejected_before_any_pool(self, monkeypatch, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(binconv, "ThreadPoolExecutor", no_pool)
        model = random_model(np.random.default_rng(3))
        x = np.ones((1, 40, 4, model.blocks[0].kernel.in_channels))
        with pytest.raises(GraphError, match=r"threads must be in \[1, 64\]"):
            run_model(model, x, threads=threads)

    @pytest.mark.parametrize("seed,first", [(3, ResnetBlock), (1, VggBlock)])
    def test_empty_batch_rejected(self, seed, first):
        model = random_model(np.random.default_rng(seed))
        assert type(model.blocks[0]) is first
        x = np.zeros((0, 12, 12, model.blocks[0].kernel.in_channels))
        with pytest.raises(GraphError, match="batch must be at least 1, got 0"):
            run_model(model, x)

    def test_model_must_end_in_i8(self, monkeypatch):
        rng = np.random.default_rng(10)
        thr = compute_threshold(bn(rng, 3))
        blk = VggBlock(pack_weights(rng.standard_normal((3, 3, 3, 2))), ConvSpec(), thr)
        ran = []
        monkeypatch.setattr(ng, "run_vgg_block", lambda *a, **kw: ran.append(a))
        with pytest.raises(GraphError):
            run_model(Model([blk]), np.ones((1, 5, 5, 2)))
        assert ran == []

    def test_residual_after_packed_block_rejected_before_running(self, monkeypatch):
        rng = np.random.default_rng(12)
        spec = ConvSpec(spatial_pad=(1, 1))
        thr = compute_threshold(bn(rng, 3))
        qbn, _ = quantize_bn(bn(rng, 3))
        blocks = [
            VggBlock(pack_weights(rng.standard_normal((3, 3, 3, 3))), spec, thr),
            ResnetBlock(pack_weights(rng.standard_normal((3, 3, 3, 3))), spec, qbn),
        ]
        ran = []
        monkeypatch.setattr(ng, "run_vgg_block", lambda *a, **kw: ran.append(a))
        monkeypatch.setattr(ng, "run_resnet_block", lambda *a, **kw: ran.append(a))
        with pytest.raises(GraphError, match="layer 1: residual blocks need an 8-bit input"):
            run_model(Model(blocks), np.ones((1, 5, 5, 3)))
        assert ran == []

    def test_float_blocks_rejected(self):
        rng = np.random.default_rng(11)
        fm = float_vgg_model(rng, depth=1)
        with pytest.raises(GraphError):
            run_model(fm, np.ones((1, 8, 8, 6)))

    def test_input_too_small_is_a_graph_error(self):
        blk = VggBlock(pack_weights(np.ones((2, 5, 5, 3))), ConvSpec(), None)
        with pytest.raises(GraphError, match="layer 0: non-positive output dims 0x0"):
            run_model(Model([blk]), np.ones((1, 4, 4, 3)))

    def test_channel_mismatch_is_a_graph_error(self):
        blk = VggBlock(pack_weights(np.ones((2, 3, 3, 2))), ConvSpec(), None)
        with pytest.raises(GraphError, match="channel mismatch: input 5, kernel 2"):
            run_model(Model([blk]), np.ones((1, 6, 6, 5)))

    def test_huge_stride_file_is_a_graph_error_before_any_block_runs(self, tmp_path):
        # a 3x3 stride-2**20 window skips nearly every input pixel: the block
        # cannot be built, and a CRC-valid file holding one does not load
        rng = np.random.default_rng(15)
        kernel = pack_weights(rng.standard_normal((3, 3, 3, 2)))
        with pytest.raises(GraphError, match="stride"):
            VggBlock(kernel, ConvSpec((1 << 20,) * 2))
        buf = bytearray(model_to_bytes(Model([VggBlock(kernel, ConvSpec())])))
        # block header after the 8-byte file header: sh at 17, sw at 21
        struct.pack_into("<2I", buf, 8 + 17, 1 << 20, 1 << 20)
        buf[-4:] = struct.pack("<I", zlib.crc32(bytes(buf[:-4])))
        (tmp_path / "m.bdf").write_bytes(bytes(buf))
        with pytest.raises(ModelFormatError, match="stride"):
            load_model(tmp_path / "m.bdf")

    def test_huge_output_is_a_graph_error_before_any_block_runs(self, tmp_path, monkeypatch):
        # ~1 MB of kernels grow a 1x1x1 input to F x F, then to 512
        # channels: 2**41 elements, over bitcore's 2**40 limit
        f = 1 << 16
        save_model(Model([
            VggBlock(pack_weights(np.ones((1, f, 1, 1))), ConvSpec(spatial_pad=(f - 1, 0))),
            VggBlock(pack_weights(np.ones((1, 1, f, 1))), ConvSpec(spatial_pad=(0, f - 1))),
            VggBlock(pack_weights(np.ones((512, 1, 1, 1))), ConvSpec()),
        ]), tmp_path / "m.bdf")
        assert (tmp_path / "m.bdf").stat().st_size < 2 << 20
        model = load_model(tmp_path / "m.bdf")
        ran = []
        monkeypatch.setattr(ng, "run_vgg_block", lambda *a, **kw: ran.append(a))
        with pytest.raises(GraphError, match=f"layer 2: output 1x{f}x{f}x512 exceeds"):
            run_model(model, np.ones((1, 1, 1, 1)))
        assert ran == []


    def test_block_shapes_are_the_dims_run_model_produces(self):
        # the toy VGG geometry: 3x3 stem 8->64, 8x8 stride-8 64->64, 3x3
        # terminal 64->32
        rng = np.random.default_rng(21)
        blocks = [
            VggBlock(pack_weights(rng.standard_normal((64, 3, 3, 8))),
                     ConvSpec(spatial_pad=(1, 1)), compute_threshold(bn(rng, 64))),
            VggBlock(pack_weights(rng.standard_normal((64, 8, 8, 64))),
                     ConvSpec((8, 8)), compute_threshold(bn(rng, 64))),
            VggBlock(pack_weights(rng.standard_normal((32, 3, 3, 64))),
                     ConvSpec(spatial_pad=(1, 1))),
        ]
        x = rng.standard_normal((2, 16, 16, 8))
        shapes = ng.block_shapes(Model(blocks), x.shape)
        assert shapes == [(2, 16, 16, 64), (2, 2, 2, 64), (2, 2, 2, 32)]
        h = I8FeatureMap(np.where(x >= 0, 1, -1).astype(np.int8))
        for blk, dims in zip(blocks, shapes):
            h = run_vgg_block(h, blk)
            assert h.dims == dims
        assert run_model(Model(blocks), x).dims == shapes[-1]


class TestFloatReference:
    def test_equals_run_model_on_converted_models(self):
        rng = np.random.default_rng(16)
        for trial in range(8):
            vgg, _ = convert_model(float_vgg_model(rng, depth=int(rng.integers(1, 4))),
                                   "vgg-threshold")
            res, _ = convert_model(float_resnet_model(rng, depth=int(rng.integers(1, 4))),
                                   "resnet-qbn")
            x = rng.standard_normal((2, 8, 8, 6))
            for model in (vgg, res):
                want = run_model(model, x).values
                got = run_float_reference(model, x)
                assert got.dtype == np.int8 and np.array_equal(got, want)

    def test_equals_run_model_on_a_mixed_model(self):
        rng = np.random.default_rng(17)
        c, spec = 5, ConvSpec(spatial_pad=(1, 1))
        qbn, _ = quantize_bn(bn(rng, c, gamma_span=20.0))
        model = Model([
            VggBlock(pack_weights(rng.standard_normal((c, 3, 3, 3))), spec, None),
            ResnetBlock(pack_weights(rng.standard_normal((c, 3, 3, c))), spec, qbn),
            VggBlock(pack_weights(rng.standard_normal((c, 3, 3, c))), spec,
                     compute_threshold(bn(rng, c))),
            VggBlock(pack_weights(rng.standard_normal((4, 3, 3, c))), spec, None),
        ])
        x = rng.standard_normal((3, 7, 7, 3))
        assert np.array_equal(run_float_reference(model, x), run_model(model, x).values)

    @pytest.mark.parametrize("mode", [None, "bogus"])
    def test_float_blocks_need_a_mode(self, mode):
        fm = float_vgg_model(np.random.default_rng(18), depth=2)
        with pytest.raises(ValueError, match="unknown mode"):
            run_float_reference(fm, np.ones((1, 8, 8, 6)), mode)

    def test_mode_is_not_needed_without_float_blocks(self):
        model, _ = convert_model(float_vgg_model(np.random.default_rng(19)), "vgg-threshold")
        x = np.ones((1, 8, 8, 6))
        assert np.array_equal(run_float_reference(model, x, "bogus"), run_model(model, x).values)

    def test_vgg_mode_signs_after_a_last_batch_norm_are_int8(self):
        rng = np.random.default_rng(21)
        spec = ConvSpec(spatial_pad=(1, 1))
        w, p = rng.standard_normal((4, 3, 3, 6)), bn(rng, 4)
        x = rng.standard_normal((2, 8, 8, 6))
        got = run_float_reference(Model([FloatBlock(pack_weights(w), spec, p)]), x, "vgg")
        conv = conv_float_oracle(np.where(x >= 0, 1, -1), np.where(w >= 0, 1, -1), spec).values
        want = np.where(bn_float(np.clip(conv, -127, 127), p) >= 0, 1, -1)
        assert got.dtype == np.int8 and np.array_equal(got, want)

    def test_unknown_block_type_is_a_graph_error(self):
        rng = np.random.default_rng(20)
        blk = VggBlock(pack_weights(rng.standard_normal((3, 3, 3, 2))), ConvSpec(), None)
        with pytest.raises(GraphError, match="layer 1 has unknown type object"):
            run_float_reference(Model([blk, object()]), np.ones((1, 5, 5, 2)))


class TestConvertModel:
    def test_identity_bn_gives_zero_ge_thresholds(self):
        c = 4
        fm = Model(
            [
                FloatBlock(
                    pack_weights(np.ones((c, 3, 3, c))),
                    ConvSpec(spatial_pad=(1, 1)),
                    BNParams(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c)),
                )
            ]
        )
        model, report = convert_model(fm, "vgg-threshold")
        thr = model.blocks[0].thr
        assert np.array_equal(thr.tau, np.zeros(c, dtype=np.int16))
        assert np.all(thr.direction == 0)
        assert report.warning_count == 0

    def test_gamma_zero_reported(self):
        c = 3
        g = np.array([1.0, 0.0, 2.0])
        fm = Model(
            [
                FloatBlock(
                    pack_weights(np.ones((c, 3, 3, c))),
                    ConvSpec(spatial_pad=(1, 1)),
                    BNParams(g, np.ones(c), np.zeros(c), np.ones(c)),
                )
            ]
        )
        model, report = convert_model(fm, "vgg-threshold")
        assert report.gamma_zero_channels == [(0, 1)]
        assert report.constant_channels == []  # reported once, as gamma == 0
        assert report.warning_count == 1

    @pytest.mark.parametrize("mode", ["vgg-threshold", "resnet-qbn"])
    def test_converted_blocks_pass_through_unchanged(self, mode):
        rng = np.random.default_rng(14)
        vgg, _ = convert_model(float_vgg_model(rng, cin=6, width=6), "vgg-threshold")
        res, _ = convert_model(float_resnet_model(rng, depth=1), "resnet-qbn")
        blocks = [res.blocks[0], *vgg.blocks]
        model, report = convert_model(Model(blocks), mode)
        assert all(got is want for got, want in zip(model.blocks, blocks))
        assert len(model.blocks) == len(blocks) and report.warning_count == 0

    def test_resnet_tables_roundtrip(self):
        rng = np.random.default_rng(12)
        fm = float_resnet_model(rng, depth=1)
        model, _ = convert_model(fm, "resnet-qbn")
        back = model_from_bytes(model_to_bytes(model))
        q0, q1 = model.blocks[0].qbn, back.blocks[0].qbn
        for a, b in ((q0.gamma_q, q1.gamma_q), (q0.m_q, q1.m_q), (q0.c_q, q1.c_q)):
            assert np.array_equal(a, b)
        assert q0.fmt == q1.fmt and q0.deploy_fmt == q1.deploy_fmt


# Offset of the byte after the kernel words in a one-block file with two
# kernel words (8-byte file header, 33-byte block header); the tables follow it.
_TABLES = 8 + 33 + 2 * 8


def _put(fmt, offset, value):
    def edit(body):
        struct.pack_into(fmt, body, offset, value)
        return body

    return edit


class TestSerialization:
    def _roundtrip(self, model):
        return model_from_bytes(model_to_bytes(model))

    # model_to_bytes of 100 random_model(default_rng(23)) models, recorded
    # before blocks held a fused kernel form: the form is not in the file
    MODEL_BYTES_SHA256 = "cd80d223505d5986ca3daf8eca402d38a965fd5fbee1012960587d9e2334dd9e"

    def test_model_bytes_unchanged_by_the_fused_form(self):
        rng = np.random.default_rng(23)
        h = hashlib.sha256()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(100):
                h.update(model_to_bytes(random_model(rng)))
        assert h.hexdigest() == self.MODEL_BYTES_SHA256

    def test_loaded_blocks_carry_equal_fused_forms(self):
        rng = np.random.default_rng(24)
        fm = float_vgg_model(rng, depth=3)
        assert all(blk.fused is None for blk in fm.blocks)
        models = [random_model(rng) for _ in range(30)]
        models += [convert_model(fm, "vgg-threshold")[0],
                   convert_model(float_resnet_model(rng, c=70), "resnet-qbn")[0]]
        for model in models:
            for blk, back in zip(model.blocks, self._roundtrip(model).blocks):
                a, b = blk.fused, back.fused
                assert a is not b
                assert a.dims == b.dims == blk.kernel.dims
                assert a.words_per_site == b.words_per_site == blk.kernel.words_per_site
                assert a.kinv.dtype == b.kinv.dtype == a.word == b.word
                assert np.array_equal(a.kinv, b.kinv)
                assert (a.lane, a.acc, a.bias, a.wrap) == (b.lane, b.acc, b.bias, b.wrap)

    def test_bytes_stable_on_resave(self):
        rng = np.random.default_rng(13)
        fm = float_vgg_model(rng)
        model, _ = convert_model(fm, "vgg-threshold")
        b1 = model_to_bytes(model)
        b2 = model_to_bytes(model_from_bytes(b1))
        assert b1 == b2

    def test_save_load_file(self, tmp_path):
        rng = np.random.default_rng(14)
        model, _ = convert_model(float_vgg_model(rng), "vgg-threshold")
        path = tmp_path / "m.bdf"
        save_model(model, path)
        back = load_model(path)
        x = rng.standard_normal((1, 8, 8, 6))
        assert np.array_equal(run_model(model, x).values, run_model(back, x).values)

    def test_truncated_rejected(self):
        rng = np.random.default_rng(15)
        model, _ = convert_model(float_vgg_model(rng), "vgg-threshold")
        buf = model_to_bytes(model)
        with pytest.raises(ModelFormatError):
            model_from_bytes(buf[: len(buf) // 2])

    def test_bad_magic_rejected(self):
        with pytest.raises(ModelFormatError):
            model_from_bytes(b"XXXX" + b"\x00" * 16)

    def test_bad_version_rejected(self):
        rng = np.random.default_rng(16)
        model, _ = convert_model(float_vgg_model(rng), "vgg-threshold")
        buf = bytearray(model_to_bytes(model))
        buf[4] = 99  # version field
        import zlib as _z, struct as _s

        buf[-4:] = _s.pack("<I", _z.crc32(bytes(buf[:-4])))
        with pytest.raises(ModelFormatError):
            model_from_bytes(bytes(buf))

    def test_dirty_pad_bits_rejected(self):
        blk = VggBlock(pack_weights(np.ones((1, 1, 1, 4))), ConvSpec())
        buf = bytearray(model_to_bytes(Model([blk])))
        model_from_bytes(bytes(buf))
        # magic + version + layer count (8 bytes), block header (33 bytes),
        # then the one kernel word, whose top byte holds only pad bits
        buf[8 + 33 + 7] ^= 0x80
        buf[-4:] = struct.pack("<I", zlib.crc32(bytes(buf[:-4])))
        with pytest.raises(ModelFormatError, match="pad bits"):
            model_from_bytes(bytes(buf))

    @pytest.mark.parametrize("field,value", [(25, 3), (29, 3), (25, 1 << 30)])
    def test_padding_not_below_filter_rejected(self, field, value):
        blk = VggBlock(pack_weights(np.ones((1, 3, 3, 4))), ConvSpec(spatial_pad=(2, 2)))
        buf = bytearray(model_to_bytes(Model([blk])))
        model_from_bytes(bytes(buf))
        # block header after the 8-byte file header: tag, out, fh, fw, cin,
        # sh, sw at offsets 0-24, then ph at 25 and pw at 29
        struct.pack_into("<I", buf, 8 + field, value)
        buf[-4:] = struct.pack("<I", zlib.crc32(bytes(buf[:-4])))
        with pytest.raises(ModelFormatError, match="padding"):
            model_from_bytes(bytes(buf))

    def test_single_byte_corruption_detected(self):
        rng = np.random.default_rng(17)
        model, _ = convert_model(float_vgg_model(rng), "vgg-threshold")
        buf = model_to_bytes(model)
        for _ in range(60):
            pos = int(rng.integers(0, len(buf)))
            flip = 1 << int(rng.integers(0, 8))
            bad = bytearray(buf)
            bad[pos] ^= flip
            with pytest.raises(ModelFormatError):
                model_from_bytes(bytes(bad))

    def test_constant_threshold_warning_on_load(self):
        c = 2
        blk = FloatBlock(
            pack_weights(np.ones((c, 3, 3, c))),
            ConvSpec(spatial_pad=(1, 1)),
            BNParams(np.ones(c), np.array([-1000.0, 0.0]), np.zeros(c), np.ones(c)),
        )
        terminal = FloatBlock(pack_weights(np.ones((c, 3, 3, c))), ConvSpec(spatial_pad=(1, 1)))
        model, report = convert_model(Model([blk, terminal]), "vgg-threshold")
        assert report.constant_channels == [(0, 0)]
        with pytest.warns(RuntimeWarning):
            model_from_bytes(model_to_bytes(model))

    def test_thresholds_at_the_clipped_edge_are_reported_constant(self):
        # tau -127 on GE and 127 on LE: one answer over [-127, 127]
        c = 3
        blk = FloatBlock(
            pack_weights(np.ones((c, 3, 3, c))),
            ConvSpec(spatial_pad=(1, 1)),
            BNParams(
                np.array([1.0, -1.0, 1.0]), np.zeros(c), np.array([-127.5, 127.5, 0.0]), np.ones(c)
            ),
        )
        terminal = FloatBlock(pack_weights(np.ones((c, 3, 3, c))), ConvSpec(spatial_pad=(1, 1)))
        model, report = convert_model(Model([blk, terminal]), "vgg-threshold")
        thr = model.blocks[0].thr
        assert thr.tau.tolist() == [-127, 127, 0] and thr.direction.tolist() == [GE, LE, GE]
        assert report.constant_channels == [(0, 0), (0, 1)]

    def test_zero_fraction_formats_roundtrip_and_run(self):
        # gamma 20000 and m = gamma/sigma 20000 need all 15 integer bits, so
        # both formats have 0 fractional bits and the residual byte reads 0
        c = 4
        p = BNParams(
            np.array([20000.0, 3.0, -2.0, 1.0]),
            np.array([0.0, 40.0, -7.0, 0.5]),
            np.array([0.0, 1.0, 2.0, -3.0]),
            np.array([1.0, 2.0, 0.5, 1.0]),
        )
        qbn, _ = quantize_bn(p)
        assert qbn.fmt.frac_bits == 0 and qbn.deploy_fmt.frac_bits == 0
        rng = np.random.default_rng(18)
        kernel = pack_weights(rng.standard_normal((c, 3, 3, c)))
        model = Model([ResnetBlock(kernel, ConvSpec(spatial_pad=(1, 1)), qbn)])
        buf = model_to_bytes(model)
        assert buf[8 + 33 + c * 9 * 8] == 0  # the byte after the kernel words
        back = model_from_bytes(buf).blocks[0].qbn
        assert back.fmt == qbn.fmt and back.deploy_fmt == qbn.deploy_fmt
        for name in ("gamma_q", "beta_q", "mu_q", "sigma_q", "m_q", "c_q"):
            assert np.array_equal(getattr(back, name), getattr(qbn, name))
        x = rng.standard_normal((2, 5, 5, c))
        got = run_model(model_from_bytes(buf), x).values
        assert np.array_equal(got, run_float_reference(model, x))
        assert np.abs(got).max() == 127  # m = 20000 saturates channel 0

    @pytest.mark.parametrize(
        "kind,edit,message",
        [
            ("vgg", lambda b: b[:7], "too short"),
            ("vgg", lambda b: b[:-1], "truncated"),
            ("vgg", lambda b: b + b"\x00", "trailing bytes"),
            ("vgg", _put("<B", 8, 9), "unknown layer tag 9"),
            ("vgg", _put("<I", 9, 0), "bad kernel dims"),
            ("vgg", _put("<I", 21, 0), "bad kernel dims"),
            ("vgg", _put("<I", 8 + 17, 2), "stride"),
            ("vgg", lambda b: _put("<H", 6, 0)(b[:8]), "no layers"),
            ("vgg", _put("<B", _TABLES, 2), "bad threshold flag"),
            ("float", _put("<B", _TABLES, 2), "bad batch-norm flag"),
            ("vgg", _put("<B", _TABLES + 1 + 2 * 2 + 1, 2), "invalid threshold direction"),
            ("vgg", _put("<h", _TABLES + 1, 129), "tau out of"),
            ("float", _put("<d", _TABLES + 1 + 3 * 16, 0.0), "sigma must be strictly positive"),
            ("float", _put("<d", _TABLES + 1 + 3 * 16, np.nan), "must be finite"),
        ],
        ids=[
            "too-short", "truncated", "trailing", "tag", "zero-out", "zero-cin",
            "stride", "no-layers",
            "vgg-flag", "float-flag", "direction", "tau", "sigma-zero", "sigma-nan",
        ],
    )
    def test_crc_valid_file_rejected(self, kind, edit, message):
        k = pack_weights(np.ones((2, 1, 1, 4)))
        if kind == "vgg":
            thr = ThresholdParams(np.array([3, -3], np.int16), np.array([GE, LE], np.uint8))
            blk = VggBlock(k, ConvSpec(), thr)
        else:
            blk = FloatBlock(k, ConvSpec(), BNParams(*np.ones((4, 2))))
        buf = bytearray(model_to_bytes(Model([blk])))
        model_from_bytes(bytes(buf))
        body = bytes(edit(buf[:-4]))
        with pytest.raises(ModelFormatError, match=message):
            model_from_bytes(body + struct.pack("<I", zlib.crc32(body)))

    def test_fuzzed_files_reject_cleanly_or_resave_identically(self):
        # 1-3 random byte edits with the CRC recomputed, so the structural
        # checks behind it are what the edits meet
        rng = np.random.default_rng(19)
        loaded = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for _ in range(1000):
                buf = bytearray(model_to_bytes(random_model(rng)))
                for _ in range(int(rng.integers(1, 4))):
                    buf[int(rng.integers(0, len(buf) - 4))] = int(rng.integers(0, 256))
                body = bytes(buf[:-4])
                blob = body + struct.pack("<I", zlib.crc32(body))
                try:
                    model = model_from_bytes(blob)
                except ModelFormatError:
                    continue
                loaded += 1
                assert model_to_bytes(model) == blob
        assert 0 < loaded < 200
