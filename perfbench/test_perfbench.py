"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import generator
import run
from tracer import Tracer, TracerError, self_times

from bitflow import netgraph
from bitflow.bitcore import I8FeatureMap

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", sorted(generator.INFERENCE))
def test_generator_gives_same_bytes_in_separate_processes(tmp_path, workload):
    outs = []
    for hashseed in (1, 2):  # string hashing differs between the two processes
        out = tmp_path / str(hashseed)
        subprocess.run(
            [sys.executable, str(HERE / "generator.py"), "--workload", workload,
             "--seed", "11", "--out", str(out)],
            check=True, timeout=300, env=dict(os.environ, PYTHONHASHSEED=str(hashseed)),
        )
        outs.append(out)
    a, b = outs
    assert (a / "model.bdf").read_bytes() == (b / "model.bdf").read_bytes()
    with np.load(a / "data.npz") as da, np.load(b / "data.npz") as db:
        for key in ("inputs", "refs"):
            assert np.array_equal(da[key], db[key])
    generator.generate(workload, 12, tmp_path / "other")
    assert (tmp_path / "other" / "model.bdf").read_bytes() != (a / "model.bdf").read_bytes()


@pytest.mark.parametrize("fault", ["flip", "raise"])
def test_bad_calls_are_counted_as_failed(monkeypatch, fault):
    real = netgraph.run_model
    calls = []

    def faulty(model, x, threads=1):
        out = real(model, x, threads=threads)
        calls.append(1)
        if len(calls) <= run.SETUP_REPS or len(calls) % 3:
            return out
        if fault == "raise":
            raise RuntimeError("injected")
        v = out.values.copy()
        v.flat[0] = -v.flat[0] if v.flat[0] else 1  # one element flipped
        return I8FeatureMap(v)

    monkeypatch.setattr(netgraph, "run_model", faulty)
    tally = run.Tally()
    run.inference("single-image", 3, 0.3, tally, None)
    assert tally.attempted == len(calls) > run.SETUP_REPS + 3
    assert tally.failed == sum(1 for c in range(run.SETUP_REPS + 1, len(calls) + 1) if c % 3 == 0)


def _traced_run(model, x, threads):
    tracer = Tracer()
    tracer.request = 0
    tracer.install()
    try:
        netgraph.run_model(model, x, threads=threads)
    finally:
        tracer.uninstall()
    return tracer.spans


def test_self_times_add_up_to_the_run_model_span(tmp_path):
    real = netgraph.run_model
    generator.generate("single-image", 5, tmp_path)
    model = netgraph.load_model(tmp_path / "model.bdf")
    with np.load(tmp_path / "data.npz") as data:
        spans = _traced_run(model, data["inputs"][0], threads=1)
    assert netgraph.run_model is real
    (root,) = [s for s in spans if s.parent == -1]
    assert root.name == "netgraph.run_model"
    assert sum(self_times(spans)) == pytest.approx(root.end - root.start, rel=1e-9)
    names = {s.name for s in spans}
    assert {
        "netgraph.run_vgg_block",
        "binconv.conv_fused",
        "binconv.conv_i8",
        "bnquant.apply_threshold",
        "bitcore.pack_bitplanes",
    } <= names


def test_worker_thread_spans_hang_under_their_conv():
    rng = np.random.default_rng(0)
    source = generator.resnet_float_model(rng, blocks=1)
    model, _ = netgraph.convert_model(source, "resnet-qbn")
    spans = _traced_run(model, rng.standard_normal((1, 4, 4, 256)), threads=2)
    packs = [s for s in spans if s.name == "bitcore.pack_bitplanes"]
    assert len(packs) > 1
    assert all(spans[s.parent].name == "binconv.conv_fused" for s in packs)


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.delattr(netgraph, "conv_i8")
    with pytest.raises(TracerError, match="netgraph.conv_i8"):
        Tracer().install()


def test_end_to_end_gives_every_gated_metric_and_p1_tracks_the_fast_calls():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # 97 slow calls of 4 ms and 3 fast ones of 2 ms: the median stays slow,
    # the 1st percentile is a fast call
    records = [{"s": 0.004, "busy_s": 0.004, "images": 1, "traced": False}] * 97
    records += [{"s": 0.002, "busy_s": 0.002, "images": 1, "traced": False}] * 3
    values, rows = run.end_to_end("single-image", [0.5, 0.4, 0.6], records, {})
    assert {m["name"] for m in spec["end_to_end"]} <= set(values)
    assert values["latency_ms_p1"] == pytest.approx(2.0)
    assert values["latency_ms_p50"] == pytest.approx(4.0)
    assert values["setup_s"] == 0.5
    assert {name for name, *_ in rows} >= {"images_per_s", "latency_ms_p50"}
