"""Tests for the bench/convert/validate command line."""

import os
import subprocess
import sys

import numpy as np
import pytest

from bitflow import benchcli, netgraph, trainkit
from bitflow.benchcli import (
    BenchConfig,
    conv_sweep,
    default_suite,
    fusion_sweep,
    main,
    parse_config_file,
    run_bench,
    serialization_sweep,
    threshold_sweep,
)


def tiny_config(**kw):
    args = dict(name="t1", height=8, width=8, c_in=16, c_out=8, repeats=5, warmup=1)
    args.update(kw)
    return BenchConfig(**args)


class TestConfigs:
    def test_default_suite_has_nine_rows(self):
        suite = default_suite()
        assert len(suite) == 9
        assert {c.filter for c in suite} == {3}
        assert {c.c_in for c in suite} <= {64, 128, 256, 512}

    def test_repeats_floor(self):
        with pytest.raises(ValueError):
            tiny_config(repeats=4)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            tiny_config(c_in=0)

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "suite.cfg"
        path.write_text(
            "# comment\nid=a\nh=8\nw=8\ncin=16\ncout=4\n\nid=b\nh=6\nw=6\ncin=8\ncout=2\nstride=2\n"
        )
        configs = parse_config_file(path)
        assert [c.name for c in configs] == ["a", "b"]
        assert configs[1].stride == 2

    def test_parse_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a config\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestBench:
    def test_rows_and_ratio(self):
        report = run_bench([tiny_config()], ["i8-fused", "i32-staged"], seed=1)
        assert len(report.rows) == 2
        staged = next(r for r in report.rows if r.variant == "i32-staged")
        assert staged.ratio == pytest.approx(1.0)
        for r in report.rows:
            assert r.min_us <= r.median_us <= r.max_us

    def test_csv_schema(self):
        report = run_bench([tiny_config()], ["i8-fused", "i32-staged"], seed=1)
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "config,variant,median_us,min_us,max_us,ratio"
        assert len(lines) == 3

    def test_float_reference_agrees(self):
        report = run_bench([tiny_config()], ["float-reference", "i32-staged"], seed=2)
        assert len(report.rows) == 2

    def test_stability_of_seeded_medians(self):
        # identical seeds run identical work; medians agree within timer
        # jitter (5%) whenever the host itself is that quiet
        cfg = tiny_config(height=14, width=14, c_in=128, c_out=32, repeats=15, warmup=3)
        samples = [
            run_bench([cfg], ["i8-fused"], seed=3).rows[0].median_us for _ in range(4)
        ]
        floor = (max(samples) - min(samples)) / max(samples)
        if floor > 0.05:
            pytest.skip(f"host timing noise {floor:.1%} exceeds the 5% budget")
        a, b = samples[:2]
        assert abs(a - b) / max(a, b) <= 0.05

    def test_agreement_failure_blocks_timing(self, monkeypatch):
        real = benchcli.conv_fused

        def broken(x, thr, k, spec, tile_rows=None, threads=1):
            out = real(x, thr, k, spec, tile_rows=tile_rows, threads=threads).values.copy()
            out[0, 0, 0, 0] = 0
            from bitflow.bitcore import I8FeatureMap

            return I8FeatureMap(out)

        monkeypatch.setattr(benchcli, "conv_fused", broken)
        with pytest.raises(RuntimeError, match="first diff"):
            run_bench([tiny_config()], ["i8-fused"], seed=4)


_WORKLOAD_DIGEST = """
import hashlib
from bitflow.benchcli import _build_workload, default_suite
h = hashlib.sha256()
for cfg in default_suite():
    x, k, w = _build_workload(cfg, 5)
    h.update(x.values.tobytes() + k.words.tobytes() + w.tobytes())
print(h.hexdigest())
"""


class TestWorkload:
    def test_identical_across_hash_seeds(self):
        src = os.path.dirname(os.path.dirname(benchcli.__file__))
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            run = subprocess.run(
                [sys.executable, "-c", _WORKLOAD_DIGEST],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.add(run.stdout.strip())
        assert len(digests) == 1


class TestCli:
    def test_bench_cli_csv(self, tmp_path, capsys):
        csv = tmp_path / "out.csv"
        code = main(
            ["bench", "--variants", "i8-fused,i32-staged", "--repeats", "5",
             "--warmup", "1", "--csv", str(csv), "--config", str(_write_cfg(tmp_path))]
        )
        assert code == 0
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "config,variant,median_us,min_us,max_us,ratio"
        out = capsys.readouterr().out
        assert "median_us" in out

    def test_bench_keeps_stanza_settings(self, tmp_path, monkeypatch):
        seen = []

        def fake_run_bench(configs, variants, seed):
            seen.extend(configs)
            return benchcli.BenchReport([])

        monkeypatch.setattr(benchcli, "run_bench", fake_run_bench)
        path = tmp_path / "two.cfg"
        path.write_text("id=a\nh=8\nw=8\ncin=16\ncout=4\nrepeats=7\nthreads=2\n\n"
                        "id=b\nh=8\nw=8\ncin=16\ncout=4\n")
        assert main(["bench", "--repeats", "9", "--config", str(path)]) == 0
        assert [(c.repeats, c.threads) for c in seen] == [(7, 2), (9, 1)]

    def test_bench_unknown_variant(self, tmp_path):
        code = main(["bench", "--variants", "cuda", "--config", str(_write_cfg(tmp_path))])
        assert code == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--bogus-flag"])
        assert err.value.code == 2

    def test_validate_tiny_passes(self, capsys):
        import time

        t0 = time.time()
        assert main(["validate", "--sizes", "tiny", "--seed", "7"]) == 0
        assert time.time() - t0 < 10.0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4

    def test_validate_model_file(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        model = benchcli.random_model(rng)
        path = tmp_path / "m.bdf"
        netgraph.save_model(model, path)
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 5

    def test_validate_model_catches_fused_fault(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(13)
        blk = netgraph.VggBlock(
            benchcli.pack_weights(rng.standard_normal((4, 3, 3, 5))),
            benchcli.ConvSpec(spatial_pad=(1, 1)),
        )
        path = tmp_path / "m.bdf"
        netgraph.save_model(netgraph.Model([blk]), path)
        real = netgraph.conv_fused

        def flip_one(*args, **kwargs):
            v = real(*args, **kwargs).values.copy()
            v[0, 0, 0, 0] = -127 if v[0, 0, 0, 0] > 0 else 127
            return benchcli.I8FeatureMap(v)

        monkeypatch.setattr(netgraph, "conv_fused", flip_one)
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] model-file" in out and "staged path" in out

    def test_validate_model_that_cannot_run_fails_cleanly(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        fm = netgraph.Model([netgraph.FloatBlock(
            benchcli.pack_weights(rng.standard_normal((4, 3, 3, 5))),
            benchcli.ConvSpec(spatial_pad=(1, 1)),
        )])
        path = tmp_path / "f.bdf"
        netgraph.save_model(fm, path)
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 1
        assert "does not run" in capsys.readouterr().out

    def _save(self, tmp_path, *blocks):
        rng = np.random.default_rng(15)
        model = netgraph.Model([
            netgraph.VggBlock(
                benchcli.pack_weights(rng.standard_normal((cout, f, f, cin))),
                benchcli.ConvSpec((stride, stride), (pad, pad)),
            )
            for cin, cout, f, stride, pad in blocks
        ])
        path = tmp_path / "m.bdf"
        netgraph.save_model(model, path)
        return model, path

    def test_validate_model_larger_than_default_input(self, tmp_path, capsys):
        model, path = self._save(tmp_path, (3, 4, 9, 1, 0))
        assert benchcli.model_input_size(model) == (9, 9)
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] model-file" in out and out.count("[PASS]") == 5

    def test_validate_model_chain_sizes_input(self, tmp_path, capsys):
        # 5x5 unpadded needs 5 rows; the 3x3 stride-2 pad-1 block ahead of
        # it needs (5 - 1) * 2 + 3 - 2 = 9
        model, path = self._save(tmp_path, (2, 3, 3, 2, 1), (3, 4, 5, 1, 0))
        assert benchcli.model_input_size(model) == (9, 9)
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 0
        assert "[PASS] model-file" in capsys.readouterr().out

    def test_validate_model_small_filters_keep_8x8(self, tmp_path):
        model, _ = self._save(tmp_path, (2, 3, 3, 1, 1), (3, 4, 1, 1, 0))
        assert benchcli.model_input_size(model) == (8, 8)

    def test_validate_model_needing_a_huge_input_fails_cleanly(self, tmp_path, capsys):
        _, path = self._save(tmp_path, (2, 3, 3, 1 << 20, 0), (3, 4, 3, 1, 0))
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 1
        assert "[FAIL] model-file" in capsys.readouterr().out

    def test_validate_detects_injected_fault(self, monkeypatch, capsys):
        import dataclasses

        real = benchcli.bitcore.pack_weights

        def off_by_one(w):
            k = real(w)
            return dataclasses.replace(k, pad_correction=k.pad_correction + 1)

        monkeypatch.setattr(benchcli.bitcore, "pack_weights", off_by_one)
        assert main(["validate", "--sizes", "tiny", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "first diff" in out

    def test_validate_seed_env(self, monkeypatch):
        monkeypatch.setenv("BITFLOW_SEED", "0x123")
        assert benchcli._resolve_seed(None) == 0x123
        monkeypatch.delenv("BITFLOW_SEED")
        assert benchcli._resolve_seed(None) == 0xB17F10

    def test_convert_cli(self, tmp_path, capsys):
        task = trainkit.make_toy_task(
            seed=3, n_train=100, n_val=40, widths=(16, 16, 8),
            batch_size=50, epochs_stage1=1, epochs_stage2=1,
        )
        s2 = trainkit.train_stage2(trainkit.train_stage1(task), task)
        fm = trainkit.export_float_model(s2)
        src = tmp_path / "float.bdf"
        dst = tmp_path / "thr.bdf"
        netgraph.save_model(fm, src)
        code = main(["convert", "--in", str(src), "--out", str(dst), "--mode", "vgg-threshold"])
        assert code == 0
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            model = netgraph.load_model(dst)
        assert isinstance(model.blocks[0], netgraph.VggBlock)

    def test_convert_gamma_zero_warning(self, tmp_path, capsys):
        c = 3
        gamma = np.array([1.0, 0.0, 2.0])
        blk = netgraph.FloatBlock(
            benchcli.pack_weights(np.ones((c, 3, 3, c))),
            benchcli.ConvSpec(spatial_pad=(1, 1)),
            benchcli.bnquant.BNParams(gamma, np.ones(c), np.zeros(c), np.ones(c)),
        )
        src = tmp_path / "f.bdf"
        netgraph.save_model(netgraph.Model([blk]), src)
        code = main(["convert", "--in", str(src), "--out", str(tmp_path / "o.bdf"),
                     "--mode", "vgg-threshold"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 warning(s)" in out or "gamma == 0" in out

    def test_convert_missing_file(self, capsys):
        assert main(["convert", "--in", "/nonexistent", "--out", "/tmp/x",
                     "--mode", "vgg-threshold"]) == 1


class TestSweeps:
    def test_conv_sweep_passes(self):
        rng = np.random.default_rng(5)
        result = conv_sweep(rng, 30, max_c=96)
        assert result.ok and result.checked == 30

    def test_fusion_sweep_passes(self):
        rng = np.random.default_rng(6)
        result = fusion_sweep(rng, 10)
        assert result.ok and result.checked == 40

    def test_threshold_sweep_passes(self):
        rng = np.random.default_rng(7)
        result = threshold_sweep(rng, 300)
        assert result.ok

    def test_threshold_sweep_reports_a_flipped_bit(self, monkeypatch):
        real = benchcli.bnquant.threshold_bits

        def flip_first(values, t):
            bits = real(values, t)
            bits.flat[0] = not bits.flat[0]
            return bits

        monkeypatch.setattr(benchcli.bnquant, "threshold_bits", flip_first)
        result = threshold_sweep(np.random.default_rng(7), 300)
        assert not result.ok and result.failure.startswith("channel 0:")

    def test_threshold_sweep_needs_both_gamma_signs(self):
        result = threshold_sweep(np.random.default_rng(7), 1)
        assert not result.ok and "both signs" in result.failure

    def test_serialization_sweep_passes(self):
        rng = np.random.default_rng(8)
        result = serialization_sweep(rng, 25)
        assert result.ok


def _write_cfg(tmp_path):
    path = tmp_path / "one.cfg"
    path.write_text("id=t\nh=8\nw=8\ncin=16\ncout=4\n")
    return path
