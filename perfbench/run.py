"""End-to-end and per-layer benchmark of the bitflow engine.

    python3 perfbench/run.py --workload vgg-toy --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one client in one process; the engine
gets at most ``nproc`` threads. Inference models are built from the seed by
``generator.py`` in a child process, so the timed process loads only a BDF1
file and the generated inputs. Every call's output is checked against a
reference computed outside the timed phase.

Workloads (why each exists):

* ``vgg-toy``: toy VGG at batch 100, threads=1. The 8-channel stem's
  ``conv_fused`` does almost all the work using 8 of every 64 packed bits;
  narrow-channel, GEMM-crossover and tiling changes show here.
* ``resnet-body``: 4 residual blocks at 256 channels, 14x14, batch 8,
  threads=min(2, nproc). Multi-word lane accumulation, the row-tile thread
  pool, ``bn_q_forward`` and the shortcut add; no thresholds, no staged path.
* ``single-image``: the vgg-toy model at batch 1, threads=1. Per-call cost
  and the staged ``conv_i8``/``apply_threshold`` path dominate, so per-call
  set-up bought for batch throughput shows as latency.
* ``train-toy``: ``make_toy_task`` (vgg), ``train_stage1``, ``train_stage2``,
  ``export_vgg_model``, a BDF1 round trip and ``run_model`` on the
  validation split. trainkit runs its own im2col path and never calls binconv.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median of
several set-ups: ``load_model`` through the first, untimed ``run_model``; for
train-toy task generation and ``init_state``), ``latency_ms_p1`` (1st
percentile of per-call latency; a call is one task-to-deployed-model cycle
on train-toy) and ``peak_rss_mb``. The report lines before the result also
give sample counts, ``images_per_s`` (images over the summed call times;
training images over training time on train-toy), ``latency_ms_p50``,
``failed_frac``, ``latency_ms_p99`` where at least ten samples lie beyond
it, and on train-toy ``train_images_per_s`` and ``val_accuracy_pct``.

With ``--trace 1`` every second call runs under the span tracer
(``tracer.py``) and it reports the per-layer metrics, including the tracing
overhead ``trace.overhead_pct``: the loss of images per second of the traced
calls against the untraced ones. Spans are written to ``.perfbench/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import generator
from generator import INFERENCE, ROOT
from tracer import Tracer, layer_metrics

from bitflow import netgraph, trainkit

OUT = ROOT / ".perfbench"
SETUP_REPS = 5

# train-toy: task size and epochs per stage, small enough for about thirty
# complete cycles in one run, so the 1st percentile of cycle time rests on
# more than the single fastest cycle
TRAIN_TASK = {"n_train": 200, "n_val": 100}
TRAIN_EPOCHS = (1, 1)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Tally:
    """Calls attempted and failed (raised, or output differs from the reference)."""

    attempted: int = 0
    failed: int = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def closed_loop(run, check, seconds: float, tally: Tally, tracer: Tracer | None = None):
    """Call ``run(i)`` back to back for ``seconds``; one client, closed loop.

    ``run`` returns a record with its latency ``s``; ``check(record)`` then
    compares the output with its reference, outside the timed call and the
    tracer. With a tracer every odd call is traced and the even ones are not.
    No call starts that the previous call's duration says would end past
    ``seconds``.
    """
    records = []
    deadline = time.perf_counter() + seconds
    i, last = 0, 0.0
    while i < 2 or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        traced = tracer is not None and i % 2 == 1
        try:
            if traced:
                tracer.request = i
                tracer.install()
            try:
                rec = run(i)
            finally:
                if traced:
                    tracer.uninstall()
            ok = bool(check(rec))
        except Exception:
            if tally.failed == 0:
                traceback.print_exc(file=sys.stderr)
            tally.add(False)
        else:
            tally.add(ok)
            rec["traced"] = traced
            records.append(rec)
        i += 1
        last = time.perf_counter() - started
    if not records:
        sys.exit("perfbench: every call raised")
    return records


def inference(workload: str, seed: int, seconds: float, tally: Tally, tracer):
    shape = INFERENCE[workload]
    threads = min(2, nproc()) if workload == "resnet-body" else 1
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        subprocess.run(
            [sys.executable, str(Path(generator.__file__)), "--workload", workload,
             "--seed", str(seed), "--out", str(work)],
            check=True,
        )
        with np.load(work / "data.npz") as data:
            inputs, refs = data["inputs"], data["refs"]
        setup = []
        for rep in range(SETUP_REPS):
            if tracer is not None:
                tracer.request = -1 - rep
                tracer.install()
            try:
                t0 = time.perf_counter()
                model = netgraph.load_model(work / "model.bdf")
                out = netgraph.run_model(model, inputs[0], threads=threads)
                setup.append(time.perf_counter() - t0)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            tally.add(np.array_equal(out.values, refs[0]))
    finally:
        shutil.rmtree(work)

    def run(i):
        x = inputs[i % shape.pool]
        t0 = time.perf_counter()
        out = netgraph.run_model(model, x, threads=threads)
        s = time.perf_counter() - t0
        return {"s": s, "busy_s": s, "images": shape.batch, "i": i, "out": out.values}

    def check(rec):
        return np.array_equal(rec.pop("out"), refs[rec["i"] % shape.pool])

    return setup, closed_loop(run, check, seconds, tally, tracer), {}


def train_toy(seed: int, seconds: float, tally: Tally, tracer):
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        task = trainkit.make_toy_task(seed, **TRAIN_TASK)
        trainkit.init_state(task)
        setup.append(time.perf_counter() - t0)
    e1, e2 = TRAIN_EPOCHS
    refs = {}
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"train-toy-{seed}-", dir=OUT))

    def run(i):
        t0 = time.perf_counter()
        state = trainkit.train_stage2(trainkit.train_stage1(task, epochs=e1), task, epochs=e2)
        train_s = time.perf_counter() - t0
        netgraph.save_model(trainkit.export_vgg_model(state), work / "model.bdf")
        out = netgraph.run_model(netgraph.load_model(work / "model.bdf"), task.val_images)
        return {"s": time.perf_counter() - t0, "busy_s": train_s, "images": task.n_train * (e1 + e2),
                "state": state, "out": out.values}

    def check(rec):
        state, out = rec.pop("state"), rec.pop("out")
        source = trainkit.export_float_model(state)
        key = netgraph.model_to_bytes(source)
        if key not in refs:
            refs[key] = netgraph.run_float_reference(source, task.val_images, "vgg")
        hits = trainkit.head_logits(state, out).argmax(axis=1) == task.val_labels
        rec["acc"] = 100.0 * float(hits.mean())
        return np.array_equal(out, refs[key])

    try:
        records = closed_loop(run, check, seconds, tally, tracer)
    finally:
        shutil.rmtree(work)
    extra = {"val_accuracy_pct": statistics.median(r["acc"] for r in records)}
    return setup, records, extra


def images_per_s(records) -> float:
    """Images over busy seconds, all calls together."""
    return sum(r["images"] for r in records) / sum(r["busy_s"] for r in records)


def end_to_end(workload, setup, records, extra) -> tuple[dict, list]:
    """Metric values, plus report rows (name, value, unit, samples).

    The gated call time is ``latency_ms_p1``, the 1st percentile of per-call
    latency. On a shared host a short call runs in a fast and a slow state
    (2.4 ms and 4.3 ms for single-image on a 2-vCPU KVM guest), and the
    share of calls in each changes from run to run, so the median and the
    mean of a run follow that share; the 1st percentile stays in the fast
    state while at least 1% of calls see it. With fewer than a hundred
    calls it lies between the two fastest. ``images_per_s`` and
    ``latency_ms_p50`` are reported beside it.
    """
    plain = [r for r in records if not r["traced"]]
    lat_ms = sorted(1e3 * r["s"] for r in plain)
    values = {
        "setup_s": statistics.median(setup),
        "latency_ms_p1": statistics.quantiles(lat_ms, n=100, method="inclusive")[0],
        "images_per_s": images_per_s(plain),
        "latency_ms_p50": statistics.median(lat_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    rows = [
        ("setup_s", values["setup_s"], "s", len(setup)),
        ("latency_ms_p1", values["latency_ms_p1"], "ms", len(lat_ms)),
        ("images_per_s", values["images_per_s"], "1/s", len(plain)),
        ("latency_ms_p50", values["latency_ms_p50"], "ms", len(lat_ms)),
    ]
    if len(lat_ms) >= 1000:  # at least ten samples beyond p99
        p99 = statistics.quantiles(lat_ms, n=100, method="inclusive")[98]
        rows.append(("latency_ms_p99", p99, "ms", len(lat_ms)))
    if workload == "train-toy":
        rows.append(("train_images_per_s", values["images_per_s"], "1/s", len(plain)))
        rows.append(("val_accuracy_pct", extra["val_accuracy_pct"], "%", len(plain)))
    rows.append(("peak_rss_mb", values["peak_rss_mb"], "MB", 1))
    return values, rows


def per_layer(tracer: Tracer, records) -> dict:
    values = layer_metrics(tracer.spans)
    plain = images_per_s([r for r in records if not r["traced"]])
    traced = images_per_s([r for r in records if r["traced"]])
    values["trace.overhead_pct"] = 100.0 * (plain - traced) / plain
    return values


def blas_threads():
    """Thread count reported by the OpenBLAS this process loaded, else the
    environment's setting."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unknown"


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown"  # not a git checkout of its own


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tally = Tally()
    tracer = Tracer() if args.trace else None
    if args.workload == "train-toy":
        setup, records, extra = train_toy(args.seed, args.seconds, tally, tracer)
    else:
        setup, records, extra = inference(args.workload, args.seed, args.seconds, tally, tracer)

    if tracer is None:
        wanted = spec["end_to_end"]
        values, rows = end_to_end(args.workload, setup, records, extra)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            sys.exit(f"perfbench: metrics not computed: {', '.join(missing)}")
    else:
        wanted = spec["per_layer"]
        layers = per_layer(tracer, records)
        # a layer this workload never calls reads 0
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
        rows = [(m["name"], values[m["name"]], m["unit"], int(layers["trace.requests"])) for m in wanted]
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, value, unit, n in rows:
        print(f"  {name:34s} {value:14.6g} {unit:5s} n={n}")
    print(f"  {'failed_frac':34s} {tally.failed / tally.attempted:14.6g} {'':5s} n={tally.attempted}")
    host = {
        "git_sha": git_sha(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("host " + json.dumps(host))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
