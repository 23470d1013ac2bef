"""One table of hostile integer arguments, one row per entry point and input.

Every row must raise ``ValueError`` (``GraphError`` from ``run_model``)
before any work starts, and the same entry point must accept a numpy
integer in the argument's place."""

import numpy as np
import pytest

from bitflow import benchcli, binconv, netgraph, trainkit
from bitflow.binconv import ConvSpec, conv_fused, conv_i32, fuse_kernel
from bitflow.bitcore import I8FeatureMap, PackedKernelSet, pack_activations, pack_weights
from bitflow.bnquant import QFormat
from bitflow.netgraph import GraphError, Model, VggBlock, run_model

_X = np.ones((1, 4, 4, 4), dtype=np.int8)
_K = pack_weights(np.ones((2, 3, 3, 4)))
_SPEC = ConvSpec(spatial_pad=(1, 1))


def _bench(**kw):
    config = benchcli.BenchConfig("t", 4, 4, 4, 2)
    return benchcli.run_bench([config], ["i8-fused"], **{"repeats": 5, "warmup": 0, **kw})


def _kernel(out):
    return PackedKernelSet((out, 3, 3, 4), np.zeros((int(out), 3, 3, 1), np.uint64))


# (id, call taking the argument, hostile value, numpy integer that must pass)
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
]


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_hostile_integer_is_rejected_before_any_work(monkeypatch, row):
    name, call, bad, good = row

    def work(*args, **kwargs):
        raise AssertionError("work started before the argument was checked")

    with monkeypatch.context() as patch:
        for module, attr in ((benchcli, "_build_workload"), (binconv, "_run_row_spans"),
                             (netgraph, "run_vgg_block"), (trainkit, "class_templates")):
            patch.setattr(module, attr, work)
        error = GraphError if name.startswith("run_model") else ValueError
        with pytest.raises(error, match="as an integer"):
            call(bad)
    call(good)


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
