"""Two tables of hostile arguments, one row per entry point and input:
integers, and map shapes with an empty dim.

Every row must raise ``ValueError`` (``GraphError`` from ``run_model``)
before any work starts. In an integer row's place the same entry point
must accept a numpy integer (a pair of them for a pair), and in a shape
row's place the same shape with no empty dim."""

import numpy as np
import pytest

from bitflow import benchcli, binconv, netgraph, trainkit
from bitflow.binconv import (
    ConvSpec,
    conv_float_oracle,
    conv_fused,
    conv_i32,
    fuse_kernel,
    im2col,
    output_shape,
    tile_plan,
)
from bitflow.bitcore import (
    BitPlaneTensor,
    I8FeatureMap,
    PackedKernelSet,
    pack_activations,
    pack_weights,
    words_per_pixel,
)
from bitflow.bnquant import QFormat
from bitflow.netgraph import GraphError, Model, VggBlock, run_float_reference, run_model

_X = np.ones((1, 4, 4, 4), dtype=np.int8)
_K = pack_weights(np.ones((2, 3, 3, 4)))
_SPEC = ConvSpec(spatial_pad=(1, 1))


def _bench(**kw):
    config = benchcli.BenchConfig("t", 4, 4, 4, 2)
    return benchcli.run_bench([config], ["i8-fused"], **{"repeats": 5, "warmup": 0, **kw})


def _kernel(out):
    return PackedKernelSet((out, 3, 3, 4), np.zeros((int(out), 3, 3, 1), np.uint64))


# (id, call taking the argument, hostile value, numpy integer that must pass);
# a "-pair" row takes a pair, and a bad one is not a pair at all
ROWS = [
    ("run_model-threads", lambda v: run_model(Model([VggBlock(_K, _SPEC)]), _X, threads=v),
     True, np.int64(2)),
    ("conv_fused-threads",
     lambda v: conv_fused(I8FeatureMap(_X), None, fuse_kernel(_K), _SPEC, threads=v),
     True, np.uint8(2)),
    ("conv_i32-threads", lambda v: conv_i32(pack_activations(_X), _K, _SPEC, threads=v),
     True, np.uint8(2)),
    ("run_bench-threads", lambda v: _bench(threads=v), True, np.uint8(1)),
    ("make_toy_task-n_train", lambda v: trainkit.make_toy_task(n_train=v), 100.5, np.int64(20)),
    ("make_toy_task-n_val", lambda v: trainkit.make_toy_task(n_val=v), True, np.uint8(10)),
    ("make_toy_task-batch_size", lambda v: trainkit.make_toy_task(batch_size=v), 2.5,
     np.uint8(50)),
    ("ConvSpec-float", lambda v: ConvSpec((v, 1)), 1.5, np.uint8(2)),
    ("ConvSpec-bool", lambda v: ConvSpec((v, 1)), True, np.int64(2)),
    ("run_bench-seed-negative", lambda v: _bench(seed=v), -1, np.uint8(7)),
    ("run_bench-seed-bool", lambda v: _bench(seed=v), True, np.int64(7)),
    ("run_bench-repeats", lambda v: _bench(repeats=v), 5.5, np.uint8(5)),
    ("run_bench-warmup", lambda v: _bench(warmup=v), True, np.uint8(1)),
    ("BenchConfig-height", lambda v: benchcli.BenchConfig("t", v, 4, 4, 2), 4.5, np.uint8(4)),
    ("QFormat", QFormat, 2.5, np.uint8(3)),
    ("PackedKernelSet-zero-dim", _kernel, 0, np.int64(2)),
    ("PackedKernelSet-float-dim", _kernel, 2.0, np.uint8(2)),
    ("conv_fused-tile_rows-float",
     lambda v: conv_fused(I8FeatureMap(_X), None, fuse_kernel(_K), _SPEC, tile_rows=v),
     2.5, np.uint8(2)),
    ("conv_fused-tile_rows-bool",
     lambda v: conv_fused(I8FeatureMap(_X), None, fuse_kernel(_K), _SPEC, tile_rows=v),
     True, np.int64(1)),
    ("tile_plan-tile_rows-str", lambda v: tile_plan(_X.shape, fuse_kernel(_K), _SPEC, v),
     "3", np.int64(3)),
    ("ConvSpec-stride-pair", lambda v: ConvSpec(v), 2, (np.uint8(2), 1)),
    ("ConvSpec-spatial_pad-pair", lambda v: ConvSpec(spatial_pad=v), (1, 1, 1),
     (np.int64(1), 0)),
]


def _rejected_before_any_work(monkeypatch, call, error, match):
    def work(*args, **kwargs):
        raise AssertionError("work started before the argument was checked")

    with monkeypatch.context() as patch:
        for module, attr in ((benchcli, "_build_workload"), (binconv, "_run_row_spans"),
                             (binconv, "gemm_rows"), (netgraph, "run_vgg_block"),
                             (trainkit, "class_templates")):
            patch.setattr(module, attr, work)
        with pytest.raises(error, match=match):
            call()


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_hostile_integer_is_rejected_before_any_work(monkeypatch, row):
    name, call, bad, good = row
    error = GraphError if name.startswith("run_model") else ValueError
    match = "a pair of integers" if name.endswith("-pair") else "as an integer"
    _rejected_before_any_work(monkeypatch, lambda: call(bad), error, match)
    call(good)


# A 3x3 pad-2 block turns a map of height or width 0 into a map of padding alone.
_PAD2_MODEL = Model([VggBlock(_K, ConvSpec(spatial_pad=(2, 2)))])
_EMPTY = {"batch": (0, 4, 4, 4), "height": (1, 0, 4, 4), "width": (1, 4, 0, 4)}
_CHECKED = "at least 1"  # the shape rule's wording; packed dims keep check_int's
_PACKED = r"in \[1, inf\) as an integer"

# (entry point, call taking an NHWC shape, error, wording)
_SHAPE_CALLS = [
    ("output_shape", lambda d: output_shape(d, _K.dims, _SPEC), ValueError, _CHECKED),
    ("tile_plan", lambda d: tile_plan(d, fuse_kernel(_K), _SPEC), ValueError, _CHECKED),
    ("im2col", lambda d: im2col(np.ones(d, np.float32), 3, 3, _SPEC), ValueError, _CHECKED),
    ("conv_float_oracle", lambda d: conv_float_oracle(np.ones(d), np.ones((2, 3, 3, 4)), _SPEC),
     ValueError, _CHECKED),
    ("pack_activations", lambda d: pack_activations(np.ones(d)), ValueError, _PACKED),
    ("run_model", lambda d: run_model(_PAD2_MODEL, np.ones(d)), GraphError, _CHECKED),
    ("run_float_reference", lambda d: run_float_reference(_PAD2_MODEL, np.ones(d)),
     ValueError, _CHECKED),
]
_CONSTRUCTORS = [
    ("I8FeatureMap", lambda d: I8FeatureMap(np.ones(d, np.int8)), ValueError, _CHECKED),
    ("BitPlaneTensor",
     lambda d: BitPlaneTensor(d, np.zeros((*d[:3], words_per_pixel(d[3])), np.uint64)),
     ValueError, _PACKED),
]
# (id, call, NHWC shape with one empty dim, the dim's name, error, wording)
SHAPE_ROWS = [
    (f"{entry}-{dim}", call, dims, dim, error, wording)
    for entry, call, error, wording in _SHAPE_CALLS + _CONSTRUCTORS
    for dim, dims in _EMPTY.items()
] + [
    (f"{entry}-channels", call, (1, 4, 4, 0), "channels", error, wording)
    for entry, call, error, wording in _CONSTRUCTORS
]


@pytest.mark.parametrize("row", SHAPE_ROWS, ids=[r[0] for r in SHAPE_ROWS])
def test_empty_dim_is_rejected_before_any_work(monkeypatch, row):
    _, call, dims, dim, error, wording = row
    _rejected_before_any_work(monkeypatch, lambda: call(dims), error,
                              f"{dim} must be {wording}, got 0")
    call(tuple(d or 2 for d in dims))


def test_numpy_integers_are_kept_as_python_ints():
    # kept as uint8, range_bits would wrap frac_bits' negation: resolution 2**244
    assert QFormat(np.uint8(3)).resolution == 2.0**-12
    spec = ConvSpec((np.uint8(2), np.int64(1)), [np.uint8(1), 0])
    assert spec.stride == (2, 1) and spec.spatial_pad == (1, 0)
    assert all(type(v) is int for v in (*spec.stride, *spec.spatial_pad))
    k = _kernel(np.uint8(2))
    assert k.dims == (2, 3, 3, 4) and all(type(d) is int for d in k.dims)
    cfg = benchcli.BenchConfig("t", np.uint8(4), np.int64(4), 4, 2, stride=np.uint8(1))
    assert type(cfg.height) is int and type(cfg.spec.stride[0]) is int
