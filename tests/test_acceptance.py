"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
captured output). Training-based criteria share module-scoped runs of the
seeded toy tasks. The equivalence criteria (1/2, 3, 5, 10) run the
``benchcli`` sweeps that ``bitflow validate --sizes full`` runs, each on a
fresh ``default_rng(SEED)``.
"""

import time
import warnings

import numpy as np
import pytest

from bitflow import benchcli, bnquant, netgraph
from bitflow import trainkit as tk

SEED = 0xB17F10


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# -- shared sweeps -----------------------------------------------------------


@pytest.fixture(scope="module")
def conv_sweep():
    t0 = time.time()
    result = benchcli.conv_sweep(np.random.default_rng(SEED), 1000)
    return result, time.time() - t0


@pytest.fixture(scope="module")
def vgg_runs():
    task = tk.make_toy_task(seed=SEED)
    t0 = time.time()
    s1 = tk.train_stage1(task)
    _, acc1 = tk.evaluate(s1, task, "val")
    ablated = tk.train_stage2(s1, task, epochs=0)
    _, acc_ablated = tk.evaluate(ablated, task, "val")
    s2 = tk.train_stage2(s1, task)
    _, acc2 = tk.evaluate(s2, task, "val")
    elapsed = time.time() - t0
    return {
        "task": task,
        "s1": s1,
        "s2": s2,
        "acc1": acc1,
        "acc_ablated": acc_ablated,
        "acc2": acc2,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def resnet_runs():
    task = tk.make_toy_task(seed=SEED, variant="resnet", noise=0.5)
    s2 = tk.train_stage2(tk.train_stage1(task, epochs=15), task, epochs=5)
    quantized, tables = tk.bn_quantize_retrain(s2, task, epochs_per_layer=2)
    return {"task": task, "s2": s2, "quantized": quantized, "tables": tables}


# -- criteria ----------------------------------------------------------------


def test_criterion_01_conv_exactness(conv_sweep):
    result, elapsed = conv_sweep
    ok = result.ok and result.checked == 1000 and elapsed < 60
    report(
        1,
        ok,
        f"conv_i32 == dense oracle with the parity law on {result.checked} configs, "
        f"{elapsed:.1f}s (< 60s); {result.failure or 'no mismatch'}",
    )


def test_criterion_02_clamp_law(conv_sweep):
    result, _ = conv_sweep
    ok = result.ok and result.checked == 1000
    report(
        2,
        ok,
        f"conv_i8 == clamp(conv_i32), so -128 never appears, on {result.checked} "
        f"configs; {result.failure or 'no mismatch'}",
    )


def test_criterion_03_threshold_equivalence():
    result = benchcli.threshold_sweep(np.random.default_rng(SEED), 10_000)
    ok = result.ok and result.checked == 10_000
    report(
        3,
        ok,
        f"{result.checked} parameter sets x 255 exhaustive inputs, both gamma "
        f"signs required; {result.failure or 'no mismatch'}",
    )


def test_criterion_04_quantization_properties():
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    all_fit = True
    for _ in range(300):
        gamma = rng.uniform(-10, 10, 8)
        gamma[gamma == 0] = 1.0
        p = bnquant.BNParams(
            gamma,
            rng.uniform(-20, 20, 8),
            rng.uniform(-20, 20, 8),
            rng.uniform(0.01, 10, 8),
        )
        qbn, noisy = bnquant.quantize_bn(p)
        half_step = 2.0 ** (-qbn.fmt.frac_bits - 1)
        for orig, noised in (
            (p.gamma, noisy.gamma),
            (p.beta, noisy.beta),
            (p.mu, noisy.mu),
            (p.sigma, noisy.sigma),
        ):
            err = np.abs(noised - orig).max()
            worst_rel = max(worst_rel, err / half_step if half_step else 0.0)
        for tbl in (qbn.gamma_q, qbn.beta_q, qbn.mu_q, qbn.sigma_q, qbn.m_q, qbn.c_q):
            all_fit = all_fit and tbl.dtype == np.int16
    low = bnquant.qformat_fit(np.array([0.4]))
    high = bnquant.qformat_fit(np.array([40000.0]))
    bounds_ok = low.frac_bits == 15 and high.frac_bits == 0
    # sigma bumps can exceed the rounding half-width by design; exclude them
    ok = worst_rel <= 1.0 + 1e-9 and all_fit and bounds_ok
    report(
        4,
        ok,
        f"per-parameter error <= 2^(-frac-1) (worst {worst_rel:.3f} of bound), "
        f"all integers int16: {all_fit}, clip extremes frac_bits "
        f"{low.frac_bits}/{high.frac_bits}",
    )


def test_criterion_05_fusion_transparency():
    result = benchcli.fusion_sweep(np.random.default_rng(SEED), 200)
    ok = result.ok and result.checked == 200 * 4
    report(
        5,
        ok,
        f"200 configs x 4 tile sizes, {result.checked} checked; "
        f"{result.failure or 'no mismatch'}",
    )


def test_criterion_06_two_stage_training_proxy(vgg_runs):
    acc1, acc2 = vgg_runs["acc1"], vgg_runs["acc2"]
    drop = acc1 - vgg_runs["acc_ablated"]
    ok = (
        acc2 >= acc1 - 1.0
        and drop > 1.0
        and vgg_runs["elapsed"] <= 900
    )
    report(
        6,
        ok,
        f"stage1 {acc1:.2f}%, stage2 {acc2:.2f}% (>= stage1 - 1.0), "
        f"no-retraining ablation loses {drop:.2f} points (> 1.0), "
        f"runtime {vgg_runs['elapsed']:.0f}s (<= 900s)",
    )


def test_criterion_07_train_infer_parity(vgg_runs, resnet_runs):
    # stage-2 threshold export
    task, s2 = vgg_runs["task"], vgg_runs["s2"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = tk.export_vgg_model(s2)
        out = netgraph.run_model(model, task.val_images)
    vgg_net = tk.head_logits(s2, out.values).argmax(axis=1)
    vgg_train = tk.predict_classes(s2, task.val_images)
    vgg_same = int(np.array_equal(vgg_net, vgg_train))
    # quantized fixed-point export
    rtask, rq = resnet_runs["task"], resnet_runs["quantized"]
    rmodel = tk.export_resnet_model(rq)
    rout = netgraph.run_model(rmodel, rtask.val_images)
    res_net = tk.head_logits(rq, rout.values).argmax(axis=1)
    res_train = tk.predict_classes(rq, rtask.val_images)
    res_same = int(np.array_equal(res_net, res_train))
    ok = bool(vgg_same and res_same)
    report(
        7,
        ok,
        f"threshold export: {np.mean(vgg_net == vgg_train) * 100:.1f}% identical "
        f"predictions on {len(vgg_net)} samples; fixed-point export: "
        f"{np.mean(res_net == res_train) * 100:.1f}% identical on {len(res_net)}",
    )


def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(SEED)
    sign_pts = np.concatenate([np.linspace(-4, 4, 801), rng.uniform(-5, 5, 500)])
    clip_pts = np.concatenate([np.linspace(-300, 300, 1201), rng.uniform(-400, 400, 500)])
    sign_report = tk.grad_check("sign", sign_pts)
    clip_report = tk.grad_check("clip", clip_pts)
    ok = sign_report["max_abs_err"] <= 1e-6 and clip_report["max_abs_err"] <= 1e-6
    report(
        8,
        ok,
        f"sign surrogate max err {sign_report['max_abs_err']:.2e} "
        f"({sign_report['checked']} pts), clip max err "
        f"{clip_report['max_abs_err']:.2e} ({clip_report['checked']} pts), both <= 1e-6",
    )


def test_criterion_09_performance():
    suite = benchcli.default_suite()
    variants = ["i8-fused", "i32-staged", "float-reference"]
    result = benchcli.run_bench(suite, variants, seed=SEED, repeats=11, warmup=2)
    wins = 0
    gemm_wins = 0  # reported beside the gate, not gated
    ratios = []
    for cfg in suite:
        rows = {r.variant: r for r in result.rows if r.config == cfg.name}
        fused = rows["i8-fused"].median_us
        staged = rows["i32-staged"].median_us
        wins += int(fused <= staged)
        gemm_wins += int(fused <= rows["float-reference"].median_us)
        ratios.append(staged / fused)
    geomean = float(np.exp(np.mean(np.log(ratios))))
    ok = wins >= 5  # at least half of the nine configs
    report(
        9,
        ok,
        f"i8-fused <= i32-staged on {wins}/9 configs (need >= 5), "
        f"geomean speedup {geomean:.2f}x (1.2x expected, hardware dependent); "
        f"i8-fused <= float-reference on {gemm_wins}/9",
    )


def test_criterion_10_serialization():
    result = benchcli.serialization_sweep(np.random.default_rng(SEED), 1000)
    ok = result.ok and result.checked == 1000
    report(
        10,
        ok,
        f"{result.checked} save/load roundtrips with equal bytes and outputs, "
        f"a single-bit corruption of every fifth file rejected; "
        f"{result.failure or 'no failure'}",
    )
