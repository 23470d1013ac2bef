"""Seeded models, input batches and reference outputs for the inference workloads.

Every model and input comes from ``np.random.default_rng(seed)`` and nothing
else, in particular not from Python's per-process string hashing, so the same
seed gives the same bytes in every process. Run as a script it writes one
workload's files; the timed process then loads only the BDF1 model file and
the ``.npz`` of inputs and references:

    python3 perfbench/generator.py --workload vgg-toy --seed 1 --out DIR

References are computed here, outside any timed phase:

* vgg models: ``netgraph.run_float_reference`` of the float source model,
  exact by threshold equivalence;
* resnet models: a dense chain of ``binconv.conv_float_oracle``, the 8-bit
  clamp, ``bnquant.bn_q_forward`` and the saturating shortcut add (the float
  reference uses real batch norm, so it does not match fixed point).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def import_engine():
    """Put the checkout's ``src`` first on the path and check that ``bitflow``
    is imported from there, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "bitflow" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bitflow sources under {src}")
    sys.path.insert(0, str(src))
    import bitflow

    if Path(bitflow.__file__).resolve().parent != src / "bitflow":
        sys.exit(f"perfbench: bitflow imported from {bitflow.__file__}, not {src}")


import_engine()

from bitflow.binconv import ConvSpec, conv_float_oracle  # noqa: E402
from bitflow.bitcore import I8FeatureMap, pack_weights, unpack_weights  # noqa: E402
from bitflow.bnquant import BNParams, bn_q_forward  # noqa: E402
from bitflow.netgraph import (  # noqa: E402
    FloatBlock,
    Model,
    convert_model,
    run_float_reference,
    save_model,
)


@dataclass(frozen=True)
class InferenceShape:
    mode: str  # "vgg" | "resnet"
    batch: int
    pool: int  # distinct input batches the timed loop cycles through
    image: tuple  # (height, width, channels)


INFERENCE = {
    "vgg-toy": InferenceShape("vgg", 100, 4, (16, 16, 8)),
    "resnet-body": InferenceShape("resnet", 8, 4, (14, 14, 256)),
    "single-image": InferenceShape("vgg", 1, 16, (16, 16, 8)),
}


def _bn(rng, channels, gamma_lo, gamma_hi, mu_max, sigma_lo, sigma_hi, beta_max):
    """Float batch norm with bounded tables, so every vgg threshold stays
    inside the 8-bit range and no channel is constant."""
    sign = rng.choice([-1.0, 1.0], size=channels)
    return BNParams(
        gamma=sign * rng.uniform(gamma_lo, gamma_hi, size=channels),
        beta=np.clip(rng.normal(0.0, beta_max / 2, size=channels), -beta_max, beta_max),
        mu=np.clip(rng.normal(0.0, mu_max / 2, size=channels), -mu_max, mu_max),
        sigma=rng.uniform(sigma_lo, sigma_hi, size=channels),
    )


def _block(rng, cout, f, cin, stride, pad, bn):
    w = rng.standard_normal((cout, f, f, cin))
    return FloatBlock(pack_weights(w), ConvSpec((stride, stride), (pad, pad)), bn)


def vgg_float_model(rng) -> Model:
    """The trainkit toy VGG geometry: 3x3 stem 8->64, 8x8 stride-8
    accumulator 64->64, 3x3 terminal 64->32."""
    return Model(
        [
            _block(rng, 64, 3, 8, 1, 1, _bn(rng, 64, 0.5, 1.5, 8, 4, 12, 0.5)),
            _block(rng, 64, 8, 64, 8, 0, _bn(rng, 64, 0.5, 1.5, 30, 30, 90, 0.5)),
            _block(rng, 32, 3, 64, 1, 1, None),
        ]
    )


def resnet_float_model(rng, blocks=4, channels=256) -> Model:
    """Shape-preserving 3x3 blocks; gamma is large enough that the qbn
    output and the shortcut sum use the 8-bit range and sometimes saturate."""
    return Model(
        [
            _block(rng, channels, 3, channels, 1, 1, _bn(rng, channels, 8, 24, 20, 20, 60, 4))
            for _ in range(blocks)
        ]
    )


def resnet_reference(model: Model, x: np.ndarray) -> np.ndarray:
    """Dense-oracle chain for a converted residual model."""
    h = np.where(x >= 0, 1, -1).astype(np.int8)
    for blk in model.blocks:
        a = np.where(h >= 0, 1, -1).astype(np.int8)
        conv = conv_float_oracle(a, unpack_weights(blk.kernel), blk.spec).values
        z = bn_q_forward(I8FeatureMap(np.clip(conv, -127, 127).astype(np.int8)), blk.qbn)
        h = np.clip(z.values.astype(np.int16) + h, -127, 127).astype(np.int8)
    return h


def generate(workload: str, seed: int, out_dir: Path) -> None:
    """Write ``model.bdf`` and ``data.npz`` (inputs, refs) for one workload."""
    shape = INFERENCE[workload]
    rng = np.random.default_rng(seed)
    if shape.mode == "vgg":
        source = vgg_float_model(rng)
        model, _ = convert_model(source, "vgg-threshold")
    else:
        model, _ = convert_model(resnet_float_model(rng), "resnet-qbn")
    inputs = rng.standard_normal((shape.pool, shape.batch) + shape.image).astype(np.float32)
    flat = inputs.reshape((-1,) + shape.image)
    if shape.mode == "vgg":
        refs = run_float_reference(source, flat, "vgg")
    else:
        refs = resnet_reference(model, flat)
    refs = refs.astype(np.int8).reshape((shape.pool, shape.batch) + refs.shape[1:])
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(model, out_dir / "model.bdf")
    np.savez(out_dir / "data.npz", inputs=inputs, refs=refs)


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(INFERENCE))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
