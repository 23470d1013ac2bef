"""Tests for surrogate ops, the toy task, and the two-stage trainer."""

import copy
import tracemalloc

import numpy as np
import pytest

from bitflow import netgraph as ng
from bitflow.binconv import ConvSpec, gemm_rows, im2col
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
        # sign and masks against the np.where/np.abs forms they replace, bit
        # for bit: zeros of both signs, +-1, +-127, +-inf and NaN, each with
        # its nearest neighbours in the dtype, then random values around
        # both windows
        edges = np.array(
            [0.0, -0.0, 1.0, -1.0, 127.0, -127.0, np.inf, -np.inf, np.nan], dtype=dtype
        )
        rng = np.random.default_rng(17)
        x = np.concatenate(
            [
                edges,
                np.nextafter(edges, dtype(np.inf)),
                np.nextafter(edges, dtype(-np.inf)),
                rng.uniform(-2, 2, 3000).astype(dtype),
                (rng.standard_normal(3000) * 150).astype(dtype),
            ]
        ).reshape(3, -1)
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
        ids=["sign-window-2", "clip-window-200"],
    )
    def test_grad_check_sees_the_training_masks(self, monkeypatch, op, name, wrong_mask):
        real = getattr(tk, name)

        def wrong(x):
            values, _ = real(x)
            return values, wrong_mask(np.asarray(x)).astype(np.uint8)

        monkeypatch.setattr(tk, name, wrong)
        pts = np.linspace(-300, 300, 1201) if op == "clip" else np.linspace(-3, 3, 401)
        assert grad_check(op, pts)["max_abs_err"] > 1e-6

    @pytest.mark.parametrize("variant", ["vgg", "resnet"])
    def test_training_forward_caches_the_surrogates_masks(self, monkeypatch, variant):
        # _forward forms its masks in place; each must equal ste_sign's or
        # clip_i8_surrogate's mask of the same values, replayed here block
        # by block. Weights over [-3, 3] put some past either sign window,
        # resnet betas of 110 some past the clip; the clip is forced on
        task = small_vgg_task() if variant == "vgg" else small_resnet_task()
        state = tk.init_state(task)
        state.stage = tk.STAGE_CLIPPED
        for blk in state.blocks:
            blk.weight *= 6
            if variant == "resnet":
                blk.bn.beta[::2] = 110.0
        monkeypatch.setattr(tk, "clip_free", lambda taps: False)
        x = task.train_images[:50]
        replay = state.clone()  # batch norm updates its running statistics
        caches = tk._forward(state, x, True)[3]
        h = ste_sign(x)[0] if variant == "resnet" else x
        for bi, (blk, cache) in enumerate(zip(replay.blocks, caches)):
            a, amask = ste_sign(h)
            wb, wmask = ste_sign(blk.weight)
            f = gemm_rows(im2col(a, *wb.shape[1:3], blk.spec), wb.reshape(len(wb), -1).T)
            f, cmask = clip_i8_surrogate(f)
            y = tk._bn_forward(blk.bn, f, True)[0] if blk.bn is not None else f
            want = {"amask": amask if bi else None, "wmask": wmask, "cmask": cmask}
            if variant == "resnet":
                y, want["zmask"] = clip_i8_surrogate(y)
                y, want["omask"] = clip_i8_surrogate(y + h)
            for name in ("amask", "wmask", "cmask", "zmask", "omask"):
                got, mask = cache[name], want.get(name)
                assert (got is None) == (mask is None), (bi, name)
                if mask is not None:
                    assert got.dtype == np.uint8 and np.array_equal(got, mask), (bi, name)
            h = y
        # every mask the test sets out to bite holds both values somewhere
        clip_masks = ("zmask", "omask") if variant == "resnet" else ("cmask",)
        for name in ("amask", "wmask", *clip_masks):
            seen = {int(v) for c in caches if c[name] is not None for v in np.unique(c[name])}
            assert seen == {0, 1}, name

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

    @pytest.mark.parametrize(
        "name,value",
        [
            ("n_train", 0),
            ("n_val", 0),
            ("batch_size", 0),
            ("batch_size", -5),
            ("n_train", -3),
            ("noise", -0.5),
            ("noise", float("nan")),
            ("noise", float("inf")),
            ("widths", (16, 16)),  # resnet blocks keep the input's 8 channels
            ("widths", (8, 4, 8)),
            ("widths", ()),
            ("seed", -1),  # the task's stream takes a uint64 seed
            ("seed", 2**64),
            ("seed", 1.5),  # not truncated to seed 1
            ("seed", True),  # not stored as seed 1
            ("vgg_widths", (64, 64)),  # the vgg stack has three blocks
            ("vgg_widths", (8, 8, -1)),
            ("vgg_widths", (0, 64, 32)),
        ],
    )
    def test_degenerate_sizes_are_rejected(self, name, value):
        if name == "seed":
            with pytest.raises(ValueError, match=r"seed must be in \[0, 18446744073709551615\]"):
                make_toy_task(seed=value)
            return
        if name == "vgg_widths":
            with pytest.raises(ValueError, match="vgg widths must be"):
                make_toy_task(widths=value)
            return
        if name == "widths":
            with pytest.raises(ValueError, match="resnet widths"):
                make_toy_task(variant="resnet", widths=value)
            return
        with pytest.raises(ValueError, match=f"{name} must be"):
            make_toy_task(**{name: value})


class TestTraining:
    def test_zero_epochs_keeps_init(self):
        task = small_vgg_task()
        s = train_stage1(task, epochs=0)
        assert s.epoch == 0 and s.history == []
        assert s.stage == tk.STAGE_WARMUP

    @pytest.mark.parametrize("epochs", [-1, 2.5, True])
    def test_bad_epoch_counts_are_rejected(self, epochs):
        # -1 used to train nothing, 2.5 to end in a raw TypeError from range
        task = small_vgg_task()
        s2 = train_stage2(train_stage1(task, epochs=0), task, epochs=0)
        runs = [
            lambda: train_stage1(task, epochs=epochs),
            lambda: train_stage2(train_stage1(task, epochs=0), task, epochs=epochs),
            lambda: tk.train_epochs(tk.init_state(task), task, epochs, 0.01),
            lambda: bn_quantize_retrain(s2, task, epochs_per_layer=epochs),
        ]
        for run in runs:
            with pytest.raises(ValueError, match=r"epochs must be in \[0, inf\) as an integer"):
                run()

    def test_seeded_runs_identical(self):
        task = small_vgg_task()
        a = train_stage1(task, epochs=2)
        b = train_stage1(task, epochs=2)
        assert a.history == b.history
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.weight, bb.weight)

    def test_loss_decreases(self):
        task = small_vgg_task(n_train=400, noise=0.6)
        s = train_stage1(task, epochs=8)
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
        task = small_vgg_task()
        s2 = train_stage2(train_stage1(task, epochs=4), task, epochs=2)
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
        task = small_resnet_task()
        s2 = train_stage2(train_stage1(task, epochs=4), task, epochs=2)
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


# -- numerics of the training step -----------------------------------------
#
# _ref_col2im is trainkit's earlier _col2im, kept verbatim: the shipped one
# computes in fewer full-size passes and must give the same bytes.
# _ref_bn_forward and _ref_bn_backward state the shipped batch norm's
# formulas plainly, one expression each, with the same reductions, so a
# training run through them proves the fused in-place code equals its plain
# form byte for byte. _xhat_bn_forward and _xhat_bn_backward are the earlier
# batch norm, verbatim but for tk. prefixes and a type hint: it cached xhat, took
# four reductions in the backward, and gave the same bytes as the textbook
# expressions; the shipped pair must agree with it within float32 rounding.
# The references take the shipped buffer arguments and leave them alone.


def _ref_col2im(dcols, in_shape, fh, fw, spec):
    n, h, w, c = in_shape
    _, oh, ow, _ = dcols.shape
    (sh, sw), (ph, pw) = spec.stride, spec.spatial_pad
    dap = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=np.float32)
    taps = dcols.reshape(n, oh, ow, fh, fw, c)
    for i in range(fh):
        for j in range(fw):
            dap[
                :, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, :
            ] += taps[:, :, :, i, j]
    return dap[:, ph : ph + h, pw : pw + w, :]


def _ref_bn_forward(bn, x, training, out=None, xc=None):
    if bn.frozen:
        y = bn.gamma * (x - bn.frozen_mu) / bn.frozen_sigma + bn.beta
        return y, {"frozen_sigma": bn.frozen_sigma}
    if not training:
        sigma = np.sqrt(bn.run_var + tk._BN_EPS)
        return bn.gamma * (x - bn.run_mu) / sigma + bn.beta, None
    axes = (0, 1, 2)
    n = x.size // x.shape[3]
    mu = x.mean(axes)
    xc = x - mu
    var = np.einsum("nhwc,nhwc->c", xc, xc) / n
    sigma = np.sqrt(var + tk._BN_EPS)
    bn.run_mu += tk._BN_MOMENTUM * (mu - bn.run_mu)
    bn.run_var += tk._BN_MOMENTUM * (var - bn.run_var)
    return xc * (bn.gamma / sigma) + bn.beta, {"xc": xc, "sigma": sigma}


def _ref_bn_backward(bn, cache, dy):
    if bn.frozen:
        return dy * (bn.gamma / cache["frozen_sigma"]), None, None
    axes = (0, 1, 2)
    n = dy.size // dy.shape[3]
    xc, sigma = cache["xc"], cache["sigma"]
    dbeta = dy.sum(axes)
    dgamma = np.einsum("nhwc,nhwc->c", dy, xc) / sigma
    # (gamma / sigma) * (dy - (dbeta / n + xhat * dgamma / n)), xhat = xc / sigma
    dx = (dy - (xc * (dgamma / (n * sigma)) + dbeta / n)) * (bn.gamma / sigma)
    return dx, dgamma.astype(np.float32), dbeta.astype(np.float32)


def _xhat_bn_forward(bn, x, training: bool):
    """``gamma * (x - mu) / sigma + beta`` per channel, in place in fresh
    buffers and in that operation order; training mode uses and caches
    batch statistics and updates the running ones."""
    if bn.frozen or not training:
        mu, sigma = bn._stored_stats()
        y = x - mu
        np.multiply(bn.gamma, y, out=y)
        y /= sigma
        y += bn.beta
        return y, {"frozen_sigma": sigma} if bn.frozen else None
    axes = (0, 1, 2)
    mu = x.mean(axes)
    xhat = x - mu
    # x.var(axes) is exactly this: the mean of the squared deviations
    sq = np.square(xhat)
    var = sq.mean(axes)
    sigma = np.sqrt(var + tk._BN_EPS)
    xhat /= sigma
    bn.run_mu += tk._BN_MOMENTUM * (mu - bn.run_mu)
    bn.run_var += tk._BN_MOMENTUM * (var - bn.run_var)
    y = np.multiply(bn.gamma, xhat, out=sq)
    y += bn.beta
    return y, {"xhat": xhat, "sigma": sigma}


def _xhat_bn_backward(bn, cache, dy):
    """(dx, dgamma, dbeta) of :func:`_bn_forward`, in two full-size buffers."""
    if bn.frozen:
        return dy * (bn.gamma / cache["frozen_sigma"]), None, None
    axes = (0, 1, 2)
    xhat, sigma = cache["xhat"], cache["sigma"]
    prod = np.multiply(dy, xhat)
    dgamma = prod.sum(axes)
    dbeta = dy.sum(axes)
    # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / sigma
    dx = np.multiply(dy, bn.gamma)
    mean_dxhat = dx.mean(axes)
    np.multiply(dx, xhat, out=prod)
    mean_prod = prod.mean(axes)
    np.multiply(xhat, mean_prod, out=prod)
    dx -= mean_dxhat
    dx -= prod
    dx /= sigma
    return dx, dgamma.astype(np.float32), dbeta.astype(np.float32)


# (fh, fw, (sh, sw), (ph, pw), input h, w): overlapping, strided,
# non-overlapping with and without gaps between windows, rows past the last
# window, and strides that split the filter into uneven cells per axis
COL2IM_GEOMETRIES = {
    "3x3-pad1": (3, 3, (1, 1), (1, 1), 7, 6),
    "3x3-stride2": (3, 3, (2, 2), (1, 1), 9, 8),
    "8x8-stride8": (8, 8, (8, 8), (0, 0), 17, 16),
    "2x2-stride3": (2, 2, (3, 3), (0, 0), 8, 10),
    "3x3-stride3-pad1": (3, 3, (3, 3), (1, 1), 7, 8),
    "1x1-stride2": (1, 1, (2, 2), (0, 0), 5, 6),
    "5x3-stride2x1": (5, 3, (2, 1), (0, 0), 10, 7),
    "3x4-stride1x3-pad0x2": (3, 4, (1, 3), (0, 2), 6, 9),
    "5x5-stride2-pad2": (5, 5, (2, 2), (2, 2), 9, 8),
}


class TestCol2im:
    @staticmethod
    def _operands(geometry, seed):
        fh, fw, stride, pad, h, w = COL2IM_GEOMETRIES[geometry]
        spec = ConvSpec(stride=stride, spatial_pad=pad)
        rng = np.random.default_rng(seed)
        x = rng.integers(-3, 4, size=(2, h, w, 3)).astype(np.float32)
        rows = im2col(x, fh, fw, spec)
        g = rng.integers(-3, 4, size=rows.shape).astype(np.float32)
        return x, rows, g, (fh, fw, spec)

    @pytest.mark.parametrize("geometry", sorted(COL2IM_GEOMETRIES))
    def test_adjoint_of_im2col(self, geometry):
        # im2col pads with -1, an affine offset that im2col(0) removes;
        # integer operands keep every sum exact
        x, rows, g, (fh, fw, spec) = self._operands(geometry, 23)
        linear = rows - im2col(np.zeros_like(x), fh, fw, spec)
        back = tk._col2im(g, x.shape, fh, fw, spec)
        assert back.shape == x.shape and back.dtype == np.float32
        lhs = (linear.astype(np.float64) * g).sum()
        assert lhs == (x.astype(np.float64) * back).sum()

    @pytest.mark.parametrize("geometry", sorted(COL2IM_GEOMETRIES))
    def test_bytes_equal_the_pertap_loop(self, geometry):
        x, _, g, (fh, fw, spec) = self._operands(geometry, 29)
        # signed zeros: the loop adds onto +0.0, so a -0.0 tap lands as +0.0
        g[g == 1] = -0.0
        g[g == 2] = 0.0
        got = tk._col2im(g, x.shape, fh, fw, spec)
        assert got.tobytes() == _ref_col2im(g, x.shape, fh, fw, spec).tobytes()
        # a buffer of the input's shape takes the sum where the grid is the
        # input itself (the vgg 8x8 stride-8 block), and is left alone elsewhere
        out = np.full(x.shape, np.nan, dtype=np.float32)
        into = tk._col2im(g, x.shape, fh, fw, spec, out=out)
        assert into.tobytes() == got.tobytes()
        assert np.shares_memory(into, out) or np.isnan(out).all()
        assert np.shares_memory(into, out) or geometry != "8x8-stride8"


class TestBatchNormGradients:
    """_bn_backward against central differences of sum(w * _bn_forward(x))."""

    @staticmethod
    def _layer(c, frozen):
        rng = np.random.default_rng(41)
        bn = tk.BNLayer(
            gamma=rng.uniform(0.5, 2.0, c),
            beta=rng.uniform(-1.0, 1.0, c),
            run_mu=np.zeros(c),
            run_var=np.ones(c),
        )
        if frozen:
            bn.frozen = True
            bn.frozen_mu = rng.uniform(-1.0, 1.0, c)
            bn.frozen_sigma = rng.uniform(0.5, 2.0, c)
        return bn

    @pytest.mark.parametrize("frozen", [False, True], ids=["training", "frozen"])
    def test_matches_finite_differences(self, frozen):
        rng = np.random.default_rng(43)
        x = rng.standard_normal((3, 4, 4, 5)) * 2.0 + 0.5
        x[..., 2] = 1.25  # a constant channel: its batch variance is 0
        w = rng.standard_normal(x.shape)
        bn = self._layer(x.shape[3], frozen)

        def loss(x_, gamma=None, beta=None):
            # forward on a copy: training mode updates the running stats
            layer = copy.deepcopy(bn)
            if gamma is not None:
                layer.gamma, layer.beta = gamma, beta
            return float((w * tk._bn_forward(layer, x_, True)[0]).sum())

        def central(f, v, step=1e-6):
            grad = np.zeros_like(v)
            for i in np.ndindex(v.shape):
                up, down = v.copy(), v.copy()
                up[i] += step
                down[i] -= step
                grad[i] = (f(up) - f(down)) / (2 * step)
            return grad

        layer = copy.deepcopy(bn)
        _, cache = tk._bn_forward(layer, x, True)
        dx, dgamma, dbeta = tk._bn_backward(layer, cache, w)
        assert np.allclose(dx, central(loss, x), rtol=1e-6, atol=1e-6)
        if frozen:
            assert dgamma is None and dbeta is None
            return
        fd_gamma = central(lambda g: loss(x, g, bn.beta), bn.gamma)
        fd_beta = central(lambda b: loss(x, bn.gamma, b), bn.beta)
        assert np.allclose(dgamma, fd_gamma, rtol=1e-5, atol=1e-5)
        assert np.allclose(dbeta, fd_beta, rtol=1e-5, atol=1e-5)
        assert dx[..., 2].any()  # the constant channel still passes gradient


# Agreement with the earlier batch norm in float32 (epsilon 1.2e-7): y within
# 1e-6 of its largest magnitude, dx within 1e-5 of each channel's largest
# magnitude, and every per-channel sum (dgamma, dbeta, the batch variance)
# within 1e-4 of the sum of its terms' magnitudes.
_BN_Y_TOL = 1e-6
_BN_DX_TOL = 1e-5
_BN_SUM_TOL = 1e-4


class TestBatchNormAgreement:
    """The shipped batch norm against the earlier xhat-caching pair, one call
    at the vgg stem's shape, (100, 16, 16, 64) float32."""

    @staticmethod
    def _operands(mode="training"):
        rng = np.random.default_rng(47)
        # the stem's GEMM output over 72 taps: even integers in [-72, 72]
        x = (2 * rng.integers(-36, 37, size=(100, 16, 16, 64))).astype(np.float32)
        x[..., 9] = 6.0  # a constant channel: its batch variance is 0
        dy = (rng.standard_normal(x.shape) * 1e-4).astype(np.float32)
        bn = tk.BNLayer(
            gamma=rng.uniform(0.5, 2.0, 64).astype(np.float32),
            beta=rng.uniform(-1.0, 1.0, 64).astype(np.float32),
            run_mu=rng.uniform(-4.0, 4.0, 64).astype(np.float32),
            run_var=rng.uniform(100.0, 900.0, 64).astype(np.float32),
        )
        if mode == "frozen":
            bn.frozen = True
            bn.frozen_mu = rng.uniform(-4.0, 4.0, 64).astype(np.float32)
            bn.frozen_sigma = rng.uniform(10.0, 30.0, 64).astype(np.float32)
        return x, dy, bn

    def test_training_agrees_within_float32_rounding(self):
        x, dy, bn = self._operands()
        old, new = copy.deepcopy(bn), copy.deepcopy(bn)
        y_ref, cache_ref = _xhat_bn_forward(old, x, True)
        y, cache = tk._bn_forward(new, x, True)
        assert y.dtype == np.float32
        assert np.abs(y - y_ref).max() <= _BN_Y_TOL * np.abs(y_ref).max()
        assert new.run_mu.tobytes() == old.run_mu.tobytes()
        var_terms = np.square(x.astype(np.float64) - x.mean((0, 1, 2), dtype=np.float64))
        var_scale = tk._BN_MOMENTUM * var_terms.mean((0, 1, 2))
        assert (np.abs(new.run_var - old.run_var) <= _BN_SUM_TOL * var_scale).all()

        dx_ref, dgamma_ref, dbeta_ref = _xhat_bn_backward(old, cache_ref, dy)
        dy_before = dy.copy()
        dx, dgamma, dbeta = tk._bn_backward(new, cache, dy)
        assert dy.tobytes() == dy_before.tobytes()
        assert dx.dtype == dgamma.dtype == dbeta.dtype == np.float32
        axes = (0, 1, 2)
        dx_err = np.abs(dx - dx_ref).max(axes)
        assert (dx_err <= _BN_DX_TOL * np.abs(dx_ref).max(axes)).all()
        assert dx_ref[..., 9].any()  # the constant channel passes gradient
        dgamma_scale = np.abs(dy.astype(np.float64) * cache_ref["xhat"]).sum(axes)
        assert (np.abs(dgamma - dgamma_ref) <= _BN_SUM_TOL * dgamma_scale).all()
        dbeta_scale = np.abs(dy.astype(np.float64)).sum(axes)
        assert (np.abs(dbeta - dbeta_ref) <= _BN_SUM_TOL * dbeta_scale).all()

    @pytest.mark.parametrize("mode", ["eval", "frozen"])
    def test_eval_and_frozen_keep_their_bytes(self, mode):
        x, dy, bn = self._operands(mode)
        training = mode == "frozen"  # a frozen layer ignores the batch
        y_ref, cache_ref = _xhat_bn_forward(copy.deepcopy(bn), x, training)
        y, cache = tk._bn_forward(bn, x, training)
        assert y.dtype == y_ref.dtype and y.tobytes() == y_ref.tobytes()
        if mode == "frozen":
            dx_ref = _xhat_bn_backward(bn, cache_ref, dy)[0]
            assert tk._bn_backward(bn, cache, dy)[0].tobytes() == dx_ref.tobytes()


def _state_arrays(state):
    """Every trained array and the history, keyed by where it lives."""
    out = {"head_w": state.head_w, "head_b": state.head_b}
    for i, blk in enumerate(state.blocks):
        out[f"weight{i}"] = blk.weight
        bn = blk.bn
        if bn is None:
            continue
        for name in ("gamma", "beta", "run_mu", "run_var", "frozen_mu", "frozen_sigma"):
            if getattr(bn, name) is not None:
                out[f"{name}{i}"] = getattr(bn, name)
        if bn.qbn is not None:
            for name in ("gamma_q", "beta_q", "mu_q", "sigma_q", "m_q", "c_q"):
                out[f"{name}{i}"] = getattr(bn.qbn, name)
    for key, buf in state.momenta.items():
        out[f"momentum{key}"] = buf
    out["history"] = np.array([(e, loss, acc) for e, _, loss, acc in state.history])
    return out


class TestTrainingBitIdentity:
    """Training with the shipped numerics equals training with the
    references above, byte for byte, in every stage and BN mode."""

    @staticmethod
    def _use_references(monkeypatch):
        monkeypatch.setattr(tk, "_bn_forward", _ref_bn_forward)
        monkeypatch.setattr(tk, "_bn_backward", _ref_bn_backward)
        # the earlier backward multiplied the mask into a fresh contiguous
        # array; the copy stands for it, so the strided in-place result of
        # the shipped _col2im is compared against that layout too
        monkeypatch.setattr(
            tk,
            "_col2im",
            lambda *args, out=None: np.ascontiguousarray(_ref_col2im(*args)),
        )
        # and every buffer of a step is fresh, none handed on from the last
        monkeypatch.setattr(
            tk._StepBuffers, "take", lambda self, shape, dtype: np.empty(shape, dtype)
        )

    @staticmethod
    def _assert_same(shipped, reference):
        a, b = _state_arrays(shipped), _state_arrays(reference)
        assert a.keys() == b.keys()
        for key in a:
            assert a[key].dtype == b[key].dtype, key
            assert a[key].tobytes() == b[key].tobytes(), key
        assert shipped.history == reference.history

    @staticmethod
    def _vgg(task):
        return train_stage2(train_stage1(task, epochs=1), task, epochs=1)

    @staticmethod
    def _resnet(task):
        s2 = train_stage2(train_stage1(task, epochs=1), task, epochs=1)
        return bn_quantize_retrain(s2, task, epochs_per_layer=1)[0]

    def _compare(self, monkeypatch, variant, n_train):
        if variant == "vgg":
            task, run = small_vgg_task(n_train=n_train, n_val=100), self._vgg
        else:
            task, run = small_resnet_task(n_train=n_train, n_val=100), self._resnet
        shipped = run(task)
        with monkeypatch.context() as m:
            self._use_references(m)
            reference = run(task)
        self._assert_same(shipped, reference)

    @pytest.mark.parametrize("variant", ["vgg", "resnet"])
    def test_training_is_bit_identical(self, monkeypatch, variant):
        self._compare(monkeypatch, variant, 200)

    @pytest.mark.parametrize("variant", ["vgg", "resnet"])
    def test_ragged_last_batch_is_bit_identical(self, monkeypatch, variant):
        # 130 images at batch 50: the last batch of 30 fits none of the
        # previous step's buffers, so it allocates its own
        self._compare(monkeypatch, variant, 130)


class TestBufferOwnership:
    """The training step writes over a full-size map only where nothing else
    reads it, and the clip it skips could not have bitten."""

    @pytest.mark.parametrize("training", [True, False], ids=["training", "eval"])
    @pytest.mark.parametrize("variant", ["vgg", "resnet"])
    def test_forward_leaves_its_batch_unchanged(self, variant, training):
        task = small_vgg_task() if variant == "vgg" else small_resnet_task()
        state = tk.init_state(task)
        state.stage = tk.STAGE_CLIPPED
        batch = task.train_images[:50].copy()
        tk._forward(state, batch, training)
        assert batch.tobytes() == task.train_images[:50].tobytes()

    def test_evaluate_repeats_and_keeps_the_images(self):
        task = small_vgg_task()
        images = task.images.copy()
        state = train_stage1(task, epochs=1)  # evaluates the val split too
        first = evaluate(state, task, "val")
        assert evaluate(state, task, "val") == first
        assert task.images.tobytes() == images.tobytes()

    def test_evaluate_reads_either_split_and_rejects_others(self):
        task = small_vgg_task(n_train=60, n_val=20)
        state = tk.init_state(task)
        loss, acc = evaluate(state, task, "train")
        logits = tk._forward(state, task.train_images, False)[2]
        assert loss == pytest.approx(tk._softmax_ce(logits, task.train_labels)[0])
        assert acc == pytest.approx(100.0 * (logits.argmax(1) == task.train_labels).mean())
        with pytest.raises(ValueError, match="unknown split 'test'"):
            evaluate(state, task, "test")

    def test_evaluate_drops_each_blocks_rows_after_its_gemm(self):
        # one eval batch of the train-toy task's 100 validation images: the
        # stem's rows (7.0 MiB), its output (6.25 MiB) and block 1's rows
        # (6.25 MiB) were all alive at once, a 20.5 MiB traced peak; with each
        # block's rows dropped after its GEMM it is 14.1 MiB
        task = make_toy_task(seed=4747, n_train=200, n_val=100)
        state = tk.init_state(task)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            evaluate(state, task, "val")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 17 * 2**20

    def test_clip_forced_on_every_block_changes_no_byte(self, monkeypatch):
        # block 1 reads 8 * 8 * 2 = 128 taps; a large stem beta makes every
        # input sign +1 and non-negative weights make every weight sign +1,
        # so its sums are 128, one past the clip
        task = small_vgg_task(widths=(2, 8, 8), n_train=200, n_val=100)
        s1 = train_stage1(task, epochs=1)
        s1.blocks[0].bn.beta[:] = 50.0
        np.abs(s1.blocks[1].weight, out=s1.blocks[1].weight)
        probe = s1.clone()
        probe.stage = tk.STAGE_CLIPPED
        caches = tk._forward(probe, task.train_images[:50], True)[3]
        assert not caches[1]["cmask"].any()
        shipped = train_stage2(s1, task, epochs=1)
        monkeypatch.setattr(tk, "clip_free", lambda taps: False)
        forced = train_stage2(s1, task, epochs=1)
        TestTrainingBitIdentity._assert_same(shipped, forced)

    def test_training_peak_stays_under_the_bound(self):
        # the two stages of perfbench's train-toy cycle (200 training and 100
        # validation images at batch 100), where each float32 map of the stem
        # is 6.25 MiB: a fresh buffer per map traces 75.3 MiB, one owner per
        # map 52.8 MiB
        task = make_toy_task(seed=4747, n_train=200, n_val=100)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            train_stage2(train_stage1(task, epochs=1), task, epochs=1)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    def test_steps_reuse_their_buffers_and_leave_none_behind(self):
        # stage 1 of the same task: with each step's buffers allocated fresh
        # while the previous step's caches still lived, its traced peak was
        # 50.5 MiB; handing them on gives 37.3 MiB. What stays live after it
        # (the state and its history) was 2.19 MiB either way, and the
        # smallest full-size buffer of a step is 0.78 MiB.
        task = make_toy_task(seed=4747, n_train=200, n_val=100)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state = train_stage1(task, epochs=1)
            live, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert state.epoch == 1
        assert peak < 44 * 2**20
        assert live < 2.25 * 2**20
