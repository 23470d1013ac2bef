"""Command-line front end: latency benchmarks, model conversion, validation.

``bench`` times convolution macro-blocks (binarize + pad + convolve +
saturate) over a suite of layer shapes. Engine variants are only timed
after their outputs are proven equivalent under the clamp law on the same
seeded workload. The default suite mirrors the nine 3x3 body convolutions
of an 18-layer residual classifier (C in {64,128,256,512}, spatial
{56,28,14,7}). Each row's ratio, printed and written to the ``--json``
record, is the staged 32-bit path's median over the variant's median, so
values above 1 mean faster than staged.

``convert`` rewrites float batch-norm records into deployment form
(thresholds or 16-bit fixed point); ``validate`` checks a ``--model`` file
first and stops there if it fails, then replays the oracle equivalence
sweeps, the same ones the acceptance criteria run, and exits non-zero if
any finds a mismatch.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import binconv, bitcore, bnquant, netgraph
from .binconv import (
    ConvSpec, check_threads, conv_float_oracle, conv_fused, conv_i8, conv_i32, staged_conv_i8,
)
from .bitcore import I8_MAX, I8FeatureMap, check_int, pack_weights, pm1
from .trainkit import DEFAULT_SEED, check_seed

VARIANTS = ("i8-fused", "i32-staged", "float-reference")
BASELINE_VARIANT = "i32-staged"

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

# Largest repeat (and warmup) count a bench run accepts, so an absurd value
# is a usage error, not a run that lasts until it is killed. The thread count
# is bounded by binconv.check_threads.
_MAX_REPEATS = 10_000

# Largest array (elements) a bench stanza or a model file's validation input
# may ask for.
_MAX_MODEL_INPUT = 1 << 24


@dataclass
class BenchConfig:
    """One benchmarked layer shape, at batch 1, of positive integer sizes and
    the geometry ``ConvSpec`` and ``output_shape`` accept. A shape whose padded
    input, kernel, output or ``float-reference`` im2col rows hold more than
    ``_MAX_MODEL_INPUT`` elements is rejected before anything is built."""

    name: str
    height: int
    width: int
    c_in: int
    c_out: int
    filter: int = 3
    stride: int = 1
    pad: int = 1
    spec: ConvSpec = field(init=False)

    def __post_init__(self):
        try:
            for size in ("height", "width", "c_in", "c_out", "filter"):
                setattr(self, size, check_int(getattr(self, size), size, 1))
            self.spec = ConvSpec((self.stride, self.stride), (self.pad, self.pad))
            x_dims, f = (1, self.height, self.width, self.c_in), self.filter
            _, oh, ow, _ = binconv.output_shape(x_dims, (self.c_out, f, f, self.c_in), self.spec)
        except ValueError as exc:
            raise ValueError(f"{self.name}: {exc}") from None
        taps = self.filter * self.filter * self.c_in
        hp, wp = (side + 2 * self.spec.spatial_pad[0] for side in (self.height, self.width))
        sizes = {"padded input": hp * wp * self.c_in, "kernel": self.c_out * taps,
                 "output": oh * ow * self.c_out, "im2col rows": oh * ow * taps}
        for what, size in sizes.items():
            if size > _MAX_MODEL_INPUT:
                raise ValueError(f"{self.name}: {what} of {size} elements, over {_MAX_MODEL_INPUT}")


@dataclass
class BenchRow:
    config: str
    variant: str
    median_us: float
    min_us: float
    max_us: float
    ratio: float | None
    minor_faults_per_call: float  # page faults served without I/O, per timed call


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    blas_threads: int | None = None  # the OpenBLAS thread count the rows ran at

    def to_json(self, argv, seed: int) -> str:
        """The rows beside what produced them: git sha, numpy version, CPU
        count, the OpenBLAS thread count the variants ran at, the command
        and the workload seed."""
        record = {
            "git_sha": _git_sha(Path(__file__).resolve().parents[2]),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "blas_threads": self.blas_threads,
            "argv": ["bitflow", *argv],
            "seed": seed,
            "rows": [asdict(r) for r in self.rows],
        }
        return json.dumps(record, indent=2) + "\n"


def _git_sha(root: Path) -> str | None:
    """HEAD of the git checkout rooted at ``root``, suffixed ``-dirty`` when
    tracked files differ from it, else None (an installed copy, or a tree
    inside another repository)."""

    def git(*cmd):
        out = subprocess.run(
            ["git", "-C", str(root), *cmd], capture_output=True, text=True, timeout=30
        )
        return out.stdout.split() if out.returncode == 0 else None

    try:
        found = git("rev-parse", "--show-toplevel", "HEAD")
        if not found or len(found) != 2 or Path(found[0]).resolve() != root.resolve():
            return None
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None
    return found[1] + ("-dirty" if dirty else "")


def _openblas():
    """Thread-count getter and setter of the OpenBLAS this process loaded,
    else None (no OpenBLAS found, or no ``/proc/self/maps`` to find it in)."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
        for lib in libs:
            dll = ctypes.CDLL(lib)
            for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
                get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    except OSError:
        pass
    return None


@contextmanager
def _blas_threads_at(n: int):
    """Run the body with the loaded OpenBLAS at ``n`` threads and yield the
    count it reports, restoring the previous count after; yield None and
    change nothing when no OpenBLAS is found."""
    found = _openblas()
    if found is None:
        yield None
        return
    get, put = found
    old = get()
    put(n)
    try:
        yield get()
    finally:
        put(old)


def default_suite() -> list:
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
        BenchConfig(name, hw, hw, cin, cout, 3, stride, 1)
        for name, hw, cin, cout, stride in shapes
    ]


# Stanza key -> BenchConfig field; h, w, cin and cout are required, and a
# key not listed here is an error, not a setting silently left at its default.
_STANZA_KEYS = {"id": "name", "h": "height", "w": "width", "cin": "c_in", "cout": "c_out",
                "filter": "filter", "stride": "stride", "pad": "pad"}


def parse_config_file(path) -> list:
    """Parse key=value stanzas separated by blank lines; a key may appear
    once per stanza and an id, given or defaulted, once per file."""
    configs = []
    stanza: dict = {}

    def flush():
        if not stanza:
            return
        where = f"config stanza {len(configs) + 1}"
        unknown = [k for k in stanza if k not in _STANZA_KEYS]
        if unknown:
            keys = " ".join(_STANZA_KEYS)
            raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}; keys are {keys}")
        missing = [k for k in ("h", "w", "cin", "cout") if k not in stanza]
        if missing:
            raise ValueError(f"{where}: missing key(s) {', '.join(missing)}")
        fields = {_STANZA_KEYS[k]: v if k == "id" else int(v) for k, v in stanza.items()}
        fields.setdefault("name", f"c{len(configs) + 1:02d}")
        if any(c.name == fields["name"] for c in configs):
            raise ValueError(f"{where}: id {fields['name']} repeated")
        configs.append(BenchConfig(**fields))
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
            key, value = (part.strip() for part in line.split("=", 1))
            if key in stanza:
                raise ValueError(f"config stanza {len(configs) + 1}: key {key} repeated")
            stanza[key] = value
    flush()
    if not configs:
        raise ValueError(f"{path}: no config stanza")
    return configs


def _build_workload(cfg: BenchConfig, seed: int):
    rng = np.random.default_rng(np.uint64(seed) ^ np.uint64(zlib.crc32(cfg.name.encode())))
    x = I8FeatureMap(
        rng.integers(-I8_MAX, I8_MAX + 1, size=(1, cfg.height, cfg.width, cfg.c_in)).astype(np.int8)
    )
    w = rng.choice([-1.0, 1.0], size=(cfg.c_out, cfg.filter, cfg.filter, cfg.c_in))
    return x, pack_weights(w), w


def _variant_runner(variant: str, cfg: BenchConfig, x, kernel, w_float, threads: int):
    spec = cfg.spec
    if variant == "i8-fused":  # the fused form built once, untimed, as a block builds it
        fused = binconv.fuse_kernel(kernel)
        return lambda: conv_fused(x, None, fused, spec, threads=threads)
    if variant == "i32-staged":
        return lambda: staged_conv_i8(x, None, kernel, spec, threads=threads)
    # float-reference: signs and (K, out) weights built once, untimed
    signs, wmat = pm1(x.values >= 0), w_float.reshape(cfg.c_out, -1).T.astype(np.float32)

    def dense():
        f = binconv.gemm_rows(binconv.im2col(signs, cfg.filter, cfg.filter, spec), wmat)
        return I8FeatureMap.saturate(f)
    return dense


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _first_diff(got: np.ndarray, want: np.ndarray) -> str:
    """Where two same-shaped arrays first differ, and both values there."""
    idx = tuple(int(i) for i in np.argwhere(got != want)[0])
    return f"first diff at {idx}: got {got[idx]}, want {want[idx]}"


def run_bench(
    configs, variants, seed: int = DEFAULT_SEED,
    repeats: int = 15, warmup: int = 3, threads: int = 1,
) -> BenchReport:
    """Agreement-check then time every (config, variant) pair.

    Per config each variant's runner is called once and its output compared
    with the staged binarize/pack/convolve/clamp pipeline on one thread; a
    disagreement raises before anything is timed. Then every variant warms
    up, and each repeat times every variant once in turn, so a burst of
    host load spreads over all of them. The process's minor page faults are
    read just outside each timed call, and each row gives their mean per
    call. The loaded OpenBLAS runs at ``threads`` threads meanwhile, and the
    report records that count. A seed or count that ``check_int`` rejects, or
    an unknown or repeated variant name, raises ``ValueError`` before any
    workload is built.
    """
    seed, threads = check_seed(seed), check_threads(threads)
    repeats = check_int(repeats, "repeats", 5, _MAX_REPEATS)
    warmup = check_int(warmup, "warmup", 0, _MAX_REPEATS)
    if not variants or len(set(variants)) < len(variants):
        raise ValueError(f"variants must be one or more distinct names, got {list(variants)}")
    for v in variants:
        if v not in VARIANTS:
            raise ValueError(f"unknown variant {v!r}; choose from {', '.join(VARIANTS)}")
    with _blas_threads_at(threads) as blas:  # float-reference's GEMMs at `threads`
        report = BenchReport(blas_threads=blas)
        for cfg in configs:
            x, kernel, w_float = _build_workload(cfg, seed)
            runners = [_variant_runner(v, cfg, x, kernel, w_float, threads) for v in variants]
            want = staged_conv_i8(x, None, kernel, cfg.spec).values
            for variant, fn in zip(variants, runners):
                got = fn().values
                if not np.array_equal(got, want):
                    raise RuntimeError(
                        f"variant disagreement, no timing: {cfg.name}/{variant}: "
                        f"{_first_diff(got, want)}"
                    )
            for fn in runners:
                for _ in range(warmup):
                    fn()
            times = [[] for _ in runners]
            faults = [0] * len(runners)
            for _ in range(repeats):
                for k, (fn, samples) in enumerate(zip(runners, times)):
                    f0 = _minor_faults()
                    t0 = time.perf_counter_ns()
                    fn()
                    samples.append((time.perf_counter_ns() - t0) / 1000.0)
                    faults[k] += _minor_faults() - f0
            rows = [
                BenchRow(cfg.name, v, statistics.median(t), min(t), max(t), None, f / repeats)
                for v, t, f in zip(variants, times, faults)
            ]
            base = next((r for r in rows if r.variant == BASELINE_VARIANT), rows[0]).median_us
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
        spec = ConvSpec((rng.integers(1, 3), rng.integers(1, 3)),
                        (rng.integers(0, 2), rng.integers(0, 2)))
        a = rng.choice([-1, 1], size=(1, h, w, cin)).astype(np.int8)
        wt = rng.choice([-1, 1], size=(out, fh, fw, cin)).astype(np.int8)
        x = bitcore.pack_activations(a)
        k = bitcore.pack_weights(wt)
        wide = conv_i32(x, k, spec).values
        want = conv_float_oracle(a, wt, spec).values
        if not np.array_equal(wide, want):
            where = f"config {i} ({h}x{w}x{cin}, {fh}x{fw})"
            return SweepResult("conv-exactness", i, f"{where}: {_first_diff(wide, want)}")
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
        spec = ConvSpec((rng.integers(1, 3), 1), (rng.integers(0, 2), 1))
        vals = rng.integers(-I8_MAX, I8_MAX + 1, size=(1, h, w, cin)).astype(np.int8)
        x = I8FeatureMap(vals)
        k = bitcore.pack_weights(rng.choice([-1.0, 1.0], size=(out, 3, 3, cin)))
        thr = None
        if rng.random() < 0.5:
            thr = bnquant.compute_threshold(_random_bn(rng, cin, 5, 20, 5))
        staged = staged_conv_i8(x, thr, k, spec).values
        fk = binconv.fuse_kernel(k)
        for tile in _FUSION_TILE_ROWS:
            fused = conv_fused(x, thr, fk, spec, tile_rows=tile).values
            checked += 1
            if not np.array_equal(fused, staged):
                failure = f"config {i} tile {tile}: {_first_diff(fused, staged)}"
                return SweepResult("fusion-transparency", checked, failure)
    return SweepResult("fusion-transparency", checked)


def threshold_sweep(rng, n_sets: int) -> SweepResult:
    """Integer thresholds vs sign of float batch norm, exhaustive inputs,
    over parameter sets that include both gamma signs."""
    grid = np.arange(-I8_MAX, I8_MAX + 1, dtype=np.int8)
    done = positive = 0
    while done < n_sets:
        n = min(_THRESHOLD_CHUNK, n_sets - done)
        gamma = rng.uniform(-10, 10, n)
        gamma[gamma == 0] = 1.0
        positive += int((gamma > 0).sum())
        p = bnquant.BNParams(gamma, rng.uniform(-20, 20, n), rng.uniform(-20, 20, n),
                             rng.uniform(0.01, 10, n))
        t = bnquant.compute_threshold(p)
        x = I8FeatureMap(np.tile(grid[None, :, None], (1, 1, n)).reshape(1, grid.size, 1, n))
        got = bitcore.unpack_bits(bnquant.apply_threshold(x, t))
        ref = pm1(bnquant.bn_float(x.values, p) >= 0)
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
        if carries_i8 and rng.random() < 0.5:
            cls, cout = netgraph.ResnetBlock, c
            tables, _ = bnquant.quantize_bn(_random_bn(rng, c, 2, 8, 4))
        else:  # an inner vgg block emits bits, the last one 8 bits
            cls, cout = netgraph.VggBlock, int(rng.integers(1, 10))
            last = d == depth - 1
            tables = None if last else bnquant.compute_threshold(_random_bn(rng, cout, 2, 8, 4))
        kernel = pack_weights(rng.choice([-1.0, 1.0], size=(cout, 3, 3, c)))
        blocks.append(cls(kernel, ConvSpec(spatial_pad=(1, 1)), tables))
        c, carries_i8 = cout, cls is netgraph.ResnetBlock or tables is None
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
    """Structure, roundtrip and ``run_model`` against the dense reference
    for one model, on one input sized by :func:`model_input_size`."""
    try:
        model = netgraph.load_model(path)
    except (netgraph.ModelFormatError, OSError) as exc:
        return SweepResult("model-file", 0, f"cannot load {path}: {exc}")
    blob = netgraph.model_to_bytes(model)
    if netgraph.model_to_bytes(netgraph.model_from_bytes(blob)) != blob:
        return SweepResult("model-file", 0, "re-save is not byte stable")
    h, w = model_input_size(model)
    cin = model.blocks[0].kernel.in_channels
    if h * w * cin > _MAX_MODEL_INPUT:
        return SweepResult("model-file", 1, f"model needs a {h}x{w}x{cin} input, too large")
    try:
        shapes = netgraph.block_shapes(model, (1, h, w, cin))
    except netgraph.GraphError as exc:
        return SweepResult("model-file", 1, f"model does not run: {exc}")
    for i, (blk, dims) in enumerate(zip(model.blocks, shapes)):
        # past 2**24 values the reference's im2col rows are inexact or huge
        sites, taps = dims[1] * dims[2], int(np.prod(blk.kernel.dims[1:]))
        if sites * taps >= binconv.ORACLE_MAX_TAPS:
            why = f"layer {i}: {sites} sites x {taps} taps, too many for the dense reference"
            return SweepResult("model-file", 1, why)
    x = rng.standard_normal((1, h, w, cin))
    got = netgraph.run_model(model, x).values
    want = netgraph.run_float_reference(model, x)
    if not np.array_equal(got, want):
        why = f"executor differs from the dense reference, {_first_diff(got, want)}"
        return SweepResult("model-file", 1, why)
    return SweepResult("model-file", 2)


# -- commands -----------------------------------------------------------------


def cmd_bench(args) -> int:
    configs = parse_config_file(args.config) if args.config else default_suite()
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    try:
        report = run_bench(
            configs, variants, args.seed,
            repeats=args.repeats, warmup=args.warmup, threads=args.threads,
        )
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    print(
        f"{'config':<8}{'variant':<18}{'median_us':>12}{'min_us':>12}{'max_us':>12}{'ratio':>8}"
        f"{'faults':>9}"
    )
    for r in report.rows:
        print(
            f"{r.config:<8}{r.variant:<18}{r.median_us:>12.1f}{r.min_us:>12.1f}"
            f"{r.max_us:>12.1f}{r.ratio:>8.3f}{r.minor_faults_per_call:>9.1f}"
        )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json(args.argv, args.seed))
        print(f"wrote {args.json}")
    return EXIT_OK


def cmd_convert(args) -> int:
    try:
        model = netgraph.load_model(args.model_in)
    except (netgraph.ModelFormatError, OSError) as exc:
        print(f"error: cannot load {args.model_in}: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    try:
        converted, report = netgraph.convert_model(model, args.mode)
    except netgraph.GraphError as exc:
        print(f"error: cannot convert {args.model_in}: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    tiny = args.sizes == "tiny"

    def rng():  # a fresh stream per sweep, as the acceptance criteria draw
        return np.random.default_rng(np.uint64(args.seed))

    def report(result: SweepResult) -> bool:
        mark = "PASS" if result.ok else "FAIL"
        detail = f" ({result.checked} checked)" if result.ok else f": {result.failure}"
        print(f"[{mark}] {result.name}{detail}")
        return result.ok

    if args.model and not report(validate_model_file(args.model, rng())):
        return EXIT_MISMATCH
    passed = [
        report(conv_sweep(rng(), 60 if tiny else 1000, max_c=96 if tiny else 256)),
        report(fusion_sweep(rng(), 25 if tiny else 200)),
        report(threshold_sweep(rng(), 500 if tiny else 10_000)),
        report(serialization_sweep(rng(), 40 if tiny else 1000)),
    ]
    return EXIT_OK if all(passed) else EXIT_MISMATCH


def _seed(text: str) -> int:
    """A ``--seed``: an integer literal (decimal, 0x hex, ...) ``check_seed`` accepts."""
    seed = int(text, 0)
    try:
        return check_seed(seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    bench.add_argument("--json", help="write rows, git sha, numpy version and CPU count here")
    bench.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="workload seed")
    bench.set_defaults(func=cmd_bench)

    convert = sub.add_parser("convert", help="float batch norm to deployment tables")
    convert.add_argument("--in", dest="model_in", required=True)
    convert.add_argument("--out", dest="model_out", required=True)
    convert.add_argument("--mode", required=True, choices=("vgg-threshold", "resnet-qbn"))
    convert.set_defaults(func=cmd_convert)

    validate = sub.add_parser("validate", help="oracle equivalence sweeps")
    validate.add_argument("--sizes", choices=("tiny", "full"), default="full")
    validate.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="sweep seed")
    validate.add_argument("--model", help="also validate this model file")
    validate.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
