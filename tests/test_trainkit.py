"""Tests for surrogate ops, the toy task, and the two-stage trainer."""

import numpy as np
import pytest

from bitflow import netgraph as ng
from bitflow.bitcore import unpack_weights
from bitflow import trainkit as tk
from bitflow.trainkit import (
    bn_quantize_retrain,
    clip_i8_surrogate,
    evaluate,
    grad_check,
    head_logits,
    make_toy_task,
    predict_classes,
    ste_sign,
    train_stage1,
    train_stage2,
    write_curves_csv,
)


def small_vgg_task(seed=11, **kw):
    args = dict(
        seed=seed,
        n_train=300,
        n_val=120,
        widths=(32, 32, 24),
        batch_size=50,
        epochs_stage1=3,
        epochs_stage2=2,
    )
    args.update(kw)
    return make_toy_task(**args)


def small_resnet_task(seed=13, **kw):
    args = dict(
        seed=seed,
        variant="resnet",
        n_train=300,
        n_val=120,
        noise=0.5,
        batch_size=50,
        epochs_stage1=3,
        epochs_stage2=2,
    )
    args.update(kw)
    return make_toy_task(**args)


class TestSurrogates:
    def test_ste_sign_values(self):
        v, m = ste_sign(np.array([0.5, 2.0, -1.0, 0.0, -3.0]))
        assert v.tolist() == [1.0, 1.0, -1.0, 1.0, -1.0]
        assert m.tolist() == [1, 0, 1, 1, 0]

    def test_ste_boundaries_inclusive(self):
        _, m = ste_sign(np.array([-1.0, 1.0, -1.0001, 1.0001]))
        assert m.tolist() == [1, 1, 0, 0]

    def test_clip_values(self):
        v, m = clip_i8_surrogate(np.array([50.0, 200.0, -200.0, 127.0, -127.0]))
        assert v.tolist() == [50.0, 127.0, -127.0, 127.0, -127.0]
        assert m.tolist() == [1, 0, 0, 1, 1]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_surrogates_equal_the_where_formulas(self, dtype):
        # sign and masks against the np.where/astype forms they replace, bit
        # for bit: zeros of both signs, +-1 and +-127, each with its nearest
        # neighbours in the dtype, then random values around both windows
        edges = np.array([0.0, -0.0, 1.0, -1.0, 127.0, -127.0], dtype=dtype)
        rng = np.random.default_rng(17)
        x = np.concatenate(
            [
                edges,
                np.nextafter(edges, dtype(np.inf)),
                np.nextafter(edges, dtype(-np.inf)),
                rng.uniform(-2, 2, 3000).astype(dtype),
                (rng.standard_normal(3000) * 150).astype(dtype),
            ]
        ).reshape(2, -1)
        v, m = ste_sign(x)
        assert (v.dtype, m.dtype) == (np.float32, np.uint8)
        assert v.tobytes() == np.where(x >= 0, 1.0, -1.0).astype(np.float32).tobytes()
        assert m.tobytes() == (np.abs(x) <= 1.0).astype(np.uint8).tobytes()
        c, cm = clip_i8_surrogate(x)
        assert (c.dtype, cm.dtype) == (dtype, np.uint8)
        assert c.tobytes() == np.clip(x, -127.0, 127.0).tobytes()
        assert cm.tobytes() == (np.abs(x) <= 127.0).astype(np.uint8).tobytes()

    def test_grad_check_sign(self):
        pts = np.linspace(-3, 3, 401)
        report = grad_check("sign", pts)
        assert report["max_abs_err"] <= 1e-6
        assert report["checked"] > 300

    def test_grad_check_clip(self):
        pts = np.concatenate([np.linspace(-200, 200, 801), [50.0, -200.0]])
        report = grad_check("clip", pts)
        assert report["max_abs_err"] <= 1e-6

    @pytest.mark.parametrize(
        "op,name,wrong_mask",
        [
            ("sign", "ste_sign", lambda x: np.abs(x) <= 2.0),
            ("clip", "clip_i8_surrogate", lambda x: np.abs(x) <= 200.0),
        ],
    )
    def test_grad_check_sees_the_training_masks(self, monkeypatch, op, name, wrong_mask):
        real = getattr(tk, name)

        def wrong(x):
            values, _ = real(x)
            return values, wrong_mask(np.asarray(x)).astype(np.uint8)

        monkeypatch.setattr(tk, name, wrong)
        pts = np.linspace(-300, 300, 1201) if op == "clip" else np.linspace(-3, 3, 401)
        assert grad_check(op, pts)["max_abs_err"] > 1e-6

    def test_grad_check_unknown_op(self):
        with pytest.raises(ValueError):
            grad_check("tanh", np.zeros(3))


class TestToyTask:
    def test_reproducible_from_seed(self):
        a = make_toy_task(seed=99, n_train=50, n_val=20)
        b = make_toy_task(seed=99, n_train=50, n_val=20)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = make_toy_task(seed=1, n_train=50, n_val=20)
        b = make_toy_task(seed=2, n_train=50, n_val=20)
        assert not np.array_equal(a.images, b.images)

    def test_shapes_and_split(self):
        t = make_toy_task(n_train=80, n_val=40)
        assert t.images.shape == (120, 16, 16, 8)
        assert t.train_images.shape[0] == 80 and t.val_images.shape[0] == 40

    def test_linearly_separable_by_construction(self):
        # nearest-template (a linear classifier) solves the task
        t = make_toy_task(seed=5, n_train=50, n_val=300)
        templates = tk.class_templates(np.random.default_rng(np.uint64(5)))
        scores = np.einsum("nhwc,khwc->nk", t.val_images, templates)
        acc = (scores.argmax(1) == t.val_labels).mean()
        assert acc >= 0.95

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_toy_task(variant="transformer")


class TestTraining:
    def test_zero_epochs_keeps_init(self):
        task = small_vgg_task()
        s = train_stage1(task, epochs=0)
        assert s.epoch == 0 and s.history == []
        assert s.stage == tk.STAGE_WARMUP

    def test_seeded_runs_identical(self):
        task = small_vgg_task()
        a = train_stage1(task, epochs=2)
        b = train_stage1(task, epochs=2)
        assert a.history == b.history
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.weight, bb.weight)

    def test_loss_decreases(self):
        task = small_vgg_task(n_train=400, noise=0.6, epochs_stage1=8)
        s = train_stage1(task)
        losses = [r[2] for r in s.history if r[1] == "train"]
        assert np.mean(losses[-2:]) < np.mean(losses[:2])

    def test_divergence_reported(self):
        task = small_vgg_task()
        state = tk.init_state(task)
        state.head_w[0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            tk.train_epochs(state, task, 1, 0.01)

    def test_stage2_requires_warmup(self):
        task = small_vgg_task()
        s1 = train_stage1(task, epochs=1)
        s2 = train_stage2(s1, task, epochs=0)
        assert s2.stage == tk.STAGE_CLIPPED
        with pytest.raises(ValueError):
            train_stage2(s2, task, epochs=0)

    def test_stage2_does_not_mutate_input_state(self):
        task = small_vgg_task()
        s1 = train_stage1(task, epochs=1)
        w_before = s1.blocks[0].weight.copy()
        train_stage2(s1, task, epochs=1)
        assert s1.stage == tk.STAGE_WARMUP
        assert np.array_equal(s1.blocks[0].weight, w_before)

    def test_clip_inactive_equivalence(self):
        # all conv sums and residual values stay far inside [-127, 127],
        # so clipped-stage updates must replay warmup updates exactly
        task = small_resnet_task(widths=(8, 8))
        s1 = train_stage1(task, epochs=1)
        for blk in s1.blocks:
            blk.bn.gamma[:] = 1.0
        cont = s1.clone()
        tk.train_epochs(cont, task, 1, 0.01)
        clipped = s1.clone()
        clipped.stage = tk.STAGE_CLIPPED
        tk.train_epochs(clipped, task, 1, 0.01)
        for ba, bb in zip(cont.blocks, clipped.blocks):
            assert np.array_equal(ba.weight, bb.weight)
        assert cont.history[-2:] == clipped.history[-2:]

    def test_history_schema_and_csv(self, tmp_path):
        task = small_vgg_task()
        s = train_stage1(task, epochs=2)
        assert {row[1] for row in s.history} == {"train", "val"}
        path = tmp_path / "curves.csv"
        write_curves_csv(s, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy"
        assert len(lines) == 1 + len(s.history)


class TestQuantizeRetrain:
    def test_requires_clipped_stage(self):
        task = small_resnet_task()
        s1 = train_stage1(task, epochs=1)
        with pytest.raises(ValueError):
            bn_quantize_retrain(s1, task)

    def test_freezes_all_layers_in_order(self):
        task = small_resnet_task()
        s2 = train_stage2(train_stage1(task, epochs=2), task, epochs=1)
        sq, tables = bn_quantize_retrain(s2, task, epochs_per_layer=1)
        assert sq.stage == tk.STAGE_QUANTIZED
        assert len(tables) == len(sq.blocks)
        assert all(blk.bn.frozen for blk in sq.blocks)
        assert all(blk.bn.qbn is not None for blk in sq.blocks)

    def test_exact_params_get_zero_noise(self):
        task = small_resnet_task()
        s2 = train_stage2(train_stage1(task, epochs=1), task, epochs=0)
        for blk in s2.blocks:
            blk.bn.gamma[:] = 1.0
            blk.bn.beta[:] = -0.5
            blk.bn.run_mu[:] = 2.0
            blk.bn.run_var[:] = 4.0 - tk._BN_EPS
        before = evaluate(s2, task, "val")
        sq, _ = bn_quantize_retrain(s2, task, epochs_per_layer=0)
        for blk in sq.blocks:
            assert blk.bn.gamma[0] == 1.0 and blk.bn.beta[0] == -0.5
            assert blk.bn.frozen_mu[0] == 2.0 and blk.bn.frozen_sigma[0] == 2.0
        assert evaluate(sq, task, "val") == before

    def test_single_bn_model_one_cycle(self):
        task = small_resnet_task(widths=(8,))
        s2 = train_stage2(train_stage1(task, epochs=1), task, epochs=1)
        sq, tables = bn_quantize_retrain(s2, task, epochs_per_layer=1)
        assert len(tables) == 1


class TestExportParity:
    def test_vgg_export_parity(self):
        task = small_vgg_task(epochs_stage1=4)
        s2 = train_stage2(train_stage1(task), task)
        model = tk.export_vgg_model(s2)
        out = ng.run_model(model, task.val_images)
        net_preds = head_logits(s2, out.values).argmax(axis=1)
        assert np.array_equal(net_preds, predict_classes(s2, task.val_images))

    def test_vgg_export_requires_clip_stage(self):
        task = small_vgg_task()
        s1 = train_stage1(task, epochs=1)
        with pytest.raises(ValueError):
            tk.export_vgg_model(s1)

    def test_resnet_export_parity(self):
        task = small_resnet_task(epochs_stage1=4)
        s2 = train_stage2(train_stage1(task), task)
        sq, _ = bn_quantize_retrain(s2, task, epochs_per_layer=1)
        model = tk.export_resnet_model(sq)
        out = ng.run_model(model, task.val_images)
        net_preds = head_logits(sq, out.values).argmax(axis=1)
        assert np.array_equal(net_preds, predict_classes(sq, task.val_images))

    def test_resnet_export_field_by_field(self):
        # predict_classes runs this export, so parity with run_model does
        # not check it; compare every block with the state it came from
        task = small_resnet_task()
        s2 = train_stage2(train_stage1(task, epochs=1), task, epochs=1)
        sq, _ = bn_quantize_retrain(s2, task, epochs_per_layer=0)
        model = tk.export_resnet_model(sq)
        assert len(model.blocks) == len(sq.blocks)
        for exported, blk in zip(model.blocks, sq.blocks):
            assert isinstance(exported, ng.ResnetBlock)
            signs = np.where(blk.weight >= 0, 1, -1)
            assert np.array_equal(unpack_weights(exported.kernel), signs)
            assert exported.spec == blk.spec
            assert exported.qbn is blk.bn.qbn

    def test_resnet_export_requires_quantized(self):
        task = small_resnet_task()
        s2 = train_stage2(train_stage1(task, epochs=1), task, epochs=0)
        with pytest.raises(ValueError):
            tk.export_resnet_model(s2)

    def test_float_model_roundtrips(self, tmp_path):
        task = small_vgg_task()
        s2 = train_stage2(train_stage1(task, epochs=2), task, epochs=1)
        fm = tk.export_float_model(s2)
        path = tmp_path / "float.bdf"
        ng.save_model(fm, path)
        back = ng.load_model(path)
        converted, _ = ng.convert_model(back, "vgg-threshold")
        direct, _ = ng.convert_model(fm, "vgg-threshold")
        x = task.val_images[:16]
        assert np.array_equal(
            ng.run_model(converted, x).values, ng.run_model(direct, x).values
        )
