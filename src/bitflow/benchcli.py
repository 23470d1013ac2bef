"""Command-line front end: latency benchmarks, model conversion, validation.

``bench`` times convolution macro-blocks (binarize + pad + convolve +
saturate) over a suite of layer shapes. Engine variants are only timed
after their outputs are proven equivalent under the clamp law on the same
seeded workload. The default suite mirrors the nine 3x3 body convolutions
of an 18-layer residual classifier (C in {64,128,256,512}, spatial
{56,28,14,7}); the ratio column reports the staged 32-bit path's median
over each variant's median, so values above 1 mean faster than staged.

``convert`` rewrites float batch-norm records into deployment form
(thresholds or 16-bit fixed point); ``validate`` replays the oracle
equivalence sweeps, the same ones the acceptance criteria run, and exits
non-zero on the first mismatch.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import bitcore, bnquant, netgraph
from .binconv import ConvSpec, conv_float_oracle, conv_fused, conv_i8, conv_i32, staged_conv_i8
from .bitcore import I8FeatureMap, pack_activations, pack_weights

DEFAULT_SEED = 0xB17F10
SEED_ENV_VAR = "BITFLOW_SEED"

CSV_HEADER = "config,variant,median_us,min_us,max_us,ratio"
VARIANTS = ("i8-fused", "i32-staged", "float-reference")
BASELINE_VARIANT = "i32-staged"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


@dataclass
class BenchConfig:
    """One benchmarked layer shape plus measurement policy."""

    name: str
    height: int
    width: int
    c_in: int
    c_out: int
    filter: int = 3
    stride: int = 1
    pad: int = 1
    repeats: int = 15
    warmup: int = 3
    threads: int = 1

    def __post_init__(self):
        if min(self.height, self.width, self.c_in, self.c_out, self.filter) <= 0:
            raise ValueError(f"{self.name}: non-positive shape field")
        if self.stride < 1 or self.pad < 0:
            raise ValueError(f"{self.name}: bad stride/pad")
        if self.repeats < 5:
            raise ValueError(f"{self.name}: repeats must be >= 5")

    @property
    def spec(self) -> ConvSpec:
        return ConvSpec((self.stride, self.stride), (self.pad, self.pad))


@dataclass
class BenchRow:
    config: str
    variant: str
    median_us: float
    min_us: float
    max_us: float
    ratio: float | None


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            ratio = f"{r.ratio:.4f}" if r.ratio is not None else ""
            lines.append(
                f"{r.config},{r.variant},{r.median_us:.3f},{r.min_us:.3f},"
                f"{r.max_us:.3f},{ratio}"
            )
        return "\n".join(lines) + "\n"


def default_suite(repeats: int = 15, warmup: int = 3, threads: int = 1) -> list:
    """Nine residual-body conv shapes (stage convs and downsamplers)."""
    shapes = [
        ("c01", 56, 64, 64, 1),
        ("c02", 56, 64, 64, 1),
        ("c03", 56, 64, 128, 2),
        ("c04", 28, 128, 128, 1),
        ("c05", 28, 128, 256, 2),
        ("c06", 14, 256, 256, 1),
        ("c07", 14, 256, 512, 2),
        ("c08", 7, 512, 512, 1),
        ("c09", 7, 512, 512, 1),
    ]
    return [
        BenchConfig(name, hw, hw, cin, cout, 3, stride, 1, repeats, warmup, threads)
        for name, hw, cin, cout, stride in shapes
    ]


def parse_config_file(path, repeats=15, warmup=3, threads=1) -> list:
    """Parse key=value stanzas separated by blank lines."""
    configs = []
    stanza: dict = {}

    def flush():
        if not stanza:
            return
        configs.append(
            BenchConfig(
                name=stanza.get("id", f"c{len(configs) + 1:02d}"),
                height=int(stanza["h"]),
                width=int(stanza["w"]),
                c_in=int(stanza["cin"]),
                c_out=int(stanza["cout"]),
                filter=int(stanza.get("filter", 3)),
                stride=int(stanza.get("stride", 1)),
                pad=int(stanza.get("pad", 1)),
                repeats=int(stanza.get("repeats", repeats)),
                warmup=int(stanza.get("warmup", warmup)),
                threads=int(stanza.get("threads", threads)),
            )
        )
        stanza.clear()

    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                if not line:
                    flush()
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            stanza[key.strip()] = value.strip()
    flush()
    return configs


def _build_workload(cfg: BenchConfig, seed: int):
    rng = np.random.default_rng(np.uint64(seed) ^ np.uint64(zlib.crc32(cfg.name.encode())))
    x = I8FeatureMap(
        rng.integers(-127, 128, size=(1, cfg.height, cfg.width, cfg.c_in)).astype(np.int8)
    )
    w = rng.choice([-1.0, 1.0], size=(cfg.c_out, cfg.filter, cfg.filter, cfg.c_in))
    return x, pack_weights(w), w


def _variant_runner(variant: str, cfg: BenchConfig, x, kernel, w_float):
    spec = cfg.spec
    if variant == "i8-fused":
        return lambda: conv_fused(x, None, kernel, spec, threads=cfg.threads)
    if variant == "i32-staged":
        return lambda: staged_conv_i8(x, None, kernel, spec, threads=cfg.threads)
    if variant == "float-reference":
        signs = np.where(x.values >= 0, 1, -1).astype(np.int8)
        wi = w_float.astype(np.int8)
        return lambda: I8FeatureMap(
            np.clip(conv_float_oracle(signs, wi, spec).values, -127, 127).astype(np.int8)
        )
    raise ValueError(f"unknown variant {variant!r}")


def check_agreement(cfg: BenchConfig, variants, seed: int):
    """Clamp-law equivalence of every requested variant on the workload.

    Returns None on agreement, else a human-readable first-diff summary.
    """
    x, kernel, w_float = _build_workload(cfg, seed)
    reference = np.clip(
        conv_i32(pack_activations(x.values), kernel, cfg.spec).values, -127, 127
    ).astype(np.int8)
    for variant in variants:
        got = _variant_runner(variant, cfg, x, kernel, w_float)().values
        if not np.array_equal(got, reference):
            idx = tuple(int(i) for i in np.argwhere(got != reference)[0])
            return (
                f"{cfg.name}/{variant}: first diff at {idx}: "
                f"got {got[idx]}, want {reference[idx]}"
            )
    return None


def _time_fn(fn, repeats: int, warmup: int):
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - t0) / 1000.0)
    return statistics.median(times), min(times), max(times)


def run_bench(configs, variants, seed: int = DEFAULT_SEED) -> BenchReport:
    """Agreement-check then time every (config, variant) pair."""
    report = BenchReport()
    for cfg in configs:
        problem = check_agreement(cfg, variants, seed)
        if problem is not None:
            raise RuntimeError(f"variant disagreement, no timing: {problem}")
        x, kernel, w_float = _build_workload(cfg, seed)
        medians = {}
        rows = []
        for variant in variants:
            fn = _variant_runner(variant, cfg, x, kernel, w_float)
            med, lo, hi = _time_fn(fn, cfg.repeats, cfg.warmup)
            medians[variant] = med
            rows.append(BenchRow(cfg.name, variant, med, lo, hi, None))
        base = medians.get(BASELINE_VARIANT, medians[variants[0]])
        for row in rows:
            row.ratio = base / row.median_us
        report.rows.extend(rows)
    return report


# -- validation sweeps --------------------------------------------------------


@dataclass
class SweepResult:
    name: str
    checked: int
    failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failure is None


# Case ranges of the sweeps; the acceptance criteria draw the same cases.
_CONV_MAX_HW = 16
_FUSION_TILE_ROWS = (1, 2, 3, None)
_THRESHOLD_CHUNK = 500
_CORRUPT_EVERY = 5


def _random_bn(rng, c: int, beta: float, mu: float, sigma: float) -> bnquant.BNParams:
    """Batch norm with gamma in [-3, 3] (1 where |gamma| < 0.05), beta in
    [-beta, beta], mu in [-mu, mu] and sigma in [0.5, sigma]."""
    gamma = rng.uniform(-3, 3, c)
    gamma[np.abs(gamma) < 0.05] = 1.0
    return bnquant.BNParams(
        gamma, rng.uniform(-beta, beta, c), rng.uniform(-mu, mu, c), rng.uniform(0.5, sigma, c)
    )


def conv_sweep(rng, n_configs: int, max_c: int = 256) -> SweepResult:
    """conv_i32 vs the dense oracle, the clamp law, and the parity law."""
    for i in range(n_configs):
        fh = int(rng.choice([1, 3, 5]))
        fw = int(rng.choice([1, 3, 5]))
        h = int(rng.integers(fh, _CONV_MAX_HW + 1))
        w = int(rng.integers(fw, _CONV_MAX_HW + 1))
        cin = int(rng.integers(1, max_c + 1))
        out = int(rng.integers(1, 7))
        spec = ConvSpec(
            (int(rng.integers(1, 3)), int(rng.integers(1, 3))),
            (int(rng.integers(0, 2)), int(rng.integers(0, 2))),
        )
        a = rng.choice([-1, 1], size=(1, h, w, cin)).astype(np.int8)
        wt = rng.choice([-1, 1], size=(out, fh, fw, cin)).astype(np.int8)
        x = bitcore.pack_activations(a)
        k = bitcore.pack_weights(wt)
        wide = conv_i32(x, k, spec).values
        want = conv_float_oracle(a, wt, spec).values
        if not np.array_equal(wide, want):
            idx = tuple(int(v) for v in np.argwhere(wide != want)[0])
            return SweepResult(
                "conv-exactness",
                i,
                f"config {i} ({h}x{w}x{cin}, {fh}x{fw}): first diff at {idx}: "
                f"got {wide[idx]}, want {want[idx]}",
            )
        narrow = conv_i8(x, k, spec).values
        if not np.array_equal(narrow, np.clip(wide, -127, 127)):  # so -128 never appears
            return SweepResult("conv-exactness", i, f"config {i}: clamp law violated")
        if np.any(wide % 2 != (fh * fw * cin) % 2):
            return SweepResult("conv-exactness", i, f"config {i}: parity law violated")
    return SweepResult("conv-exactness", n_configs)


def fusion_sweep(rng, n_configs: int) -> SweepResult:
    """conv_fused vs the staged binarize/pack/pad/convolve pipeline."""
    checked = 0
    for i in range(n_configs):
        h = int(rng.integers(4, 14))
        w = int(rng.integers(4, 14))
        cin = int(rng.integers(1, 97))
        out = int(rng.integers(1, 7))
        spec = ConvSpec(
            (int(rng.integers(1, 3)), 1), (int(rng.integers(0, 2)), 1)
        )
        vals = rng.integers(-127, 128, size=(1, h, w, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        k = bitcore.pack_weights(rng.choice([-1.0, 1.0], size=(out, 3, 3, cin)))
        thr = None
        if rng.random() < 0.5:
            thr = bnquant.compute_threshold(_random_bn(rng, cin, 5, 20, 5))
        staged = staged_conv_i8(x, thr, k, spec).values
        for tile in _FUSION_TILE_ROWS:
            fused = conv_fused(x, thr, k, spec, tile_rows=tile).values
            checked += 1
            if not np.array_equal(fused, staged):
                idx = tuple(int(v) for v in np.argwhere(fused != staged)[0])
                failure = f"config {i} tile {tile}: first diff at {idx}"
                return SweepResult("fusion-transparency", checked, failure)
    return SweepResult("fusion-transparency", checked)


def threshold_sweep(rng, n_sets: int) -> SweepResult:
    """Integer thresholds vs sign of float batch norm, exhaustive inputs,
    over parameter sets that include both gamma signs."""
    grid = np.arange(-127, 128, dtype=np.int8)
    done = positive = 0
    while done < n_sets:
        n = min(_THRESHOLD_CHUNK, n_sets - done)
        gamma = rng.uniform(-10, 10, n)
        gamma[gamma == 0] = 1.0
        positive += int((gamma > 0).sum())
        p = bnquant.BNParams(
            gamma,
            rng.uniform(-20, 20, n),
            rng.uniform(-20, 20, n),
            rng.uniform(0.01, 10, n),
        )
        t = bnquant.compute_threshold(p)
        x = I8FeatureMap(np.tile(grid[None, :, None], (1, 1, n)).reshape(1, 255, 1, n))
        got = bitcore.unpack_bits(bnquant.apply_threshold(x, t))
        ref = np.where(bnquant.bn_float(x.values, p) >= 0, 1, -1).astype(np.int8)
        if not np.array_equal(got, ref):
            ch = int(np.flatnonzero((got != ref).any(axis=(0, 1, 2)))[0])
            return SweepResult(
                "threshold-equivalence",
                done,
                f"channel {done + ch}: gamma={p.gamma[ch]}, beta={p.beta[ch]}, "
                f"mu={p.mu[ch]}, sigma={p.sigma[ch]}",
            )
        done += n
    both = 0 < positive < n_sets
    failure = None if both else f"{positive} of {n_sets} gamma positive, need both signs"
    return SweepResult("threshold-equivalence", n_sets, failure)


def random_model(rng) -> netgraph.Model:
    """Small random deployment model ending in an 8-bit-emitting block.

    Residual blocks need an 8-bit input, so they never follow an inner
    (bit-emitting) block.
    """
    cin = int(rng.integers(1, 10))
    blocks = []
    depth = int(rng.integers(1, 4))
    c = cin
    carries_i8 = True
    for d in range(depth):
        last = d == depth - 1
        if carries_i8 and rng.random() < 0.5:
            qbn, _ = bnquant.quantize_bn(_random_bn(rng, c, 2, 8, 4))
            blocks.append(
                netgraph.ResnetBlock(
                    pack_weights(rng.choice([-1.0, 1.0], size=(c, 3, 3, c))),
                    ConvSpec(spatial_pad=(1, 1)),
                    qbn,
                )
            )
        else:
            cout = int(rng.integers(1, 10))
            thr = None
            if not last:
                thr = bnquant.compute_threshold(_random_bn(rng, cout, 2, 8, 4))
            blocks.append(
                netgraph.VggBlock(
                    pack_weights(rng.choice([-1.0, 1.0], size=(cout, 3, 3, c))),
                    ConvSpec(spatial_pad=(1, 1)),
                    thr,
                )
            )
            c = cout
            carries_i8 = thr is None
    return netgraph.Model(blocks)


def serialization_sweep(rng, n_models: int) -> SweepResult:
    """Save/load roundtrips with behavioral equality plus corruption probes."""
    import warnings

    for i in range(n_models):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = random_model(rng)
            blob = netgraph.model_to_bytes(model)
            back = netgraph.model_from_bytes(blob)
            if netgraph.model_to_bytes(back) != blob:
                return SweepResult("serialization", i, f"model {i}: bytes not stable")
            first = model.blocks[0].kernel.in_channels
            x = rng.standard_normal((1, 6, 6, first))
            a = netgraph.run_model(model, x).values
            b = netgraph.run_model(back, x).values
            if not np.array_equal(a, b):
                return SweepResult("serialization", i, f"model {i}: behavioral diff")
            if i % _CORRUPT_EVERY == 0:
                bad = bytearray(blob)
                pos = int(rng.integers(0, len(bad)))
                bad[pos] ^= 1 << int(rng.integers(0, 8))
                try:
                    netgraph.model_from_bytes(bytes(bad))
                except netgraph.ModelFormatError:
                    pass
                else:
                    return SweepResult(
                        "serialization", i, f"model {i}: corruption at byte {pos} missed"
                    )
    return SweepResult("serialization", n_models)


def _staged_model_output(model: netgraph.Model, x: np.ndarray) -> np.ndarray:
    """``run_model``'s result rebuilt block by block on the staged path:
    staged_conv_i8, then threshold hand-off, or bn_q_forward and the
    saturating shortcut add."""
    h = I8FeatureMap(np.where(x >= 0, 1, -1).astype(np.int8))
    thr = None
    for blk in model.blocks:
        y = staged_conv_i8(h, thr, blk.kernel, blk.spec)
        if isinstance(blk, netgraph.ResnetBlock):
            z = bnquant.bn_q_forward(y, blk.qbn).values.astype(np.int16)
            y = I8FeatureMap(np.clip(z + h.values, -127, 127).astype(np.int8))
            thr = None
        else:
            thr = blk.thr
        h = y
    return h.values


# Largest validation input (elements) a model file may ask for.
_MAX_MODEL_INPUT = 1 << 24


def model_input_size(model: netgraph.Model) -> tuple[int, int]:
    """Smallest input, at least 8x8, that every block maps to a non-empty
    output: walk the blocks backwards from a 1x1 output, per axis
    ``need = (need - 1) * stride + filter - 2 * pad``."""
    need = [1, 1]
    for blk in reversed(model.blocks):
        filt = blk.kernel.dims[1:3]
        for ax in (0, 1):
            grown = (need[ax] - 1) * blk.spec.stride[ax] + filt[ax]
            need[ax] = max(1, grown - 2 * blk.spec.spatial_pad[ax])
    return max(8, need[0]), max(8, need[1])


def validate_model_file(path, rng) -> SweepResult:
    """Structure, roundtrip and executor-vs-staged agreement for one model,
    on one input sized by :func:`model_input_size`."""
    model = netgraph.load_model(path)
    blob = netgraph.model_to_bytes(model)
    if netgraph.model_to_bytes(netgraph.model_from_bytes(blob)) != blob:
        return SweepResult("model-file", 0, "re-save is not byte stable")
    if not model.blocks:
        return SweepResult("model-file", 0, "model has no layers")
    h, w = model_input_size(model)
    cin = model.blocks[0].kernel.in_channels
    if h * w * cin > _MAX_MODEL_INPUT:
        return SweepResult("model-file", 1, f"model needs a {h}x{w}x{cin} input, too large")
    x = rng.standard_normal((1, h, w, cin))
    try:
        got = netgraph.run_model(model, x).values
    except netgraph.GraphError as exc:
        return SweepResult("model-file", 1, f"model does not run: {exc}")
    want = _staged_model_output(model, x)
    if not np.array_equal(got, want):
        diff = tuple(int(i) for i in np.argwhere(got != want)[0])
        return SweepResult(
            "model-file", 1, f"executor differs from the staged path, first diff at {diff}"
        )
    return SweepResult("model-file", 2)


# -- commands -----------------------------------------------------------------


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value, 0) if isinstance(value, str) else int(value)
    env = os.environ.get(SEED_ENV_VAR)
    if env:
        return int(env, 0)
    return DEFAULT_SEED


def cmd_bench(args) -> int:
    seed = _resolve_seed(getattr(args, "seed", None))
    if args.config:
        configs = parse_config_file(args.config, args.repeats, args.warmup, args.threads)
    else:
        configs = default_suite(args.repeats, args.warmup, args.threads)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            print(f"unknown variant {v!r}; choose from {', '.join(VARIANTS)}", file=sys.stderr)
            return EXIT_USAGE
    try:
        report = run_bench(configs, variants, seed)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"{'config':<8}{'variant':<18}{'median_us':>12}{'min_us':>12}{'max_us':>12}{'ratio':>8}")
    for r in report.rows:
        print(
            f"{r.config:<8}{r.variant:<18}{r.median_us:>12.1f}{r.min_us:>12.1f}"
            f"{r.max_us:>12.1f}{r.ratio:>8.3f}"
        )
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())
        print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_convert(args) -> int:
    try:
        model = netgraph.load_model(args.model_in)
    except (netgraph.ModelFormatError, OSError) as exc:
        print(f"error: cannot load {args.model_in}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    converted, report = netgraph.convert_model(model, args.mode)
    netgraph.save_model(converted, args.model_out)
    print(f"converted {len(converted.blocks)} layers -> {args.model_out}")
    for layer, channel in report.gamma_zero_channels:
        print(f"warning: layer {layer} channel {channel}: gamma == 0, output constant")
    for layer, channel in report.constant_channels:
        print(
            f"warning: layer {layer} channel {channel}: threshold beyond the "
            "clipped range, output constant"
        )
    print(f"{report.warning_count} warning(s)")
    return EXIT_OK


def cmd_validate(args) -> int:
    seed = _resolve_seed(getattr(args, "seed", None))
    tiny = args.sizes == "tiny"

    def rng():  # a fresh stream per sweep, as the acceptance criteria draw
        return np.random.default_rng(np.uint64(seed))

    suites = [
        conv_sweep(rng(), 60 if tiny else 1000, max_c=96 if tiny else 256),
        fusion_sweep(rng(), 25 if tiny else 200),
        threshold_sweep(rng(), 500 if tiny else 10_000),
        serialization_sweep(rng(), 40 if tiny else 1000),
    ]
    if args.model:
        suites.append(validate_model_file(args.model, rng()))
    failed = False
    for result in suites:
        mark = "PASS" if result.ok else "FAIL"
        detail = f" ({result.checked} checked)" if result.ok else f": {result.failure}"
        print(f"[{mark}] {result.name}{detail}")
        failed = failed or not result.ok
    return EXIT_MISMATCH if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bitflow", description="binary convolution engine tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="time convolution variants")
    bench.add_argument("--config", help="key=value stanza file, one config per stanza")
    bench.add_argument("--variants", default="i8-fused,i32-staged")
    bench.add_argument("--repeats", type=int, default=15)
    bench.add_argument("--warmup", type=int, default=3)
    bench.add_argument("--threads", type=int, default=1)
    bench.add_argument("--csv", help="write rows to this path")
    bench.add_argument("--seed", help="workload seed (overrides BITFLOW_SEED)")
    bench.set_defaults(func=cmd_bench)

    convert = sub.add_parser("convert", help="float batch norm to deployment tables")
    convert.add_argument("--in", dest="model_in", required=True)
    convert.add_argument("--out", dest="model_out", required=True)
    convert.add_argument(
        "--mode", required=True, choices=("vgg-threshold", "resnet-qbn")
    )
    convert.set_defaults(func=cmd_convert)

    validate = sub.add_parser("validate", help="oracle equivalence sweeps")
    validate.add_argument("--sizes", choices=("tiny", "full"), default="full")
    validate.add_argument("--seed", help="sweep seed (overrides BITFLOW_SEED)")
    validate.add_argument("--model", help="also validate this model file")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
