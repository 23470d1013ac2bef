"""Tests for the bench/convert/validate command line."""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from bitflow import benchcli, binconv, bitcore, netgraph, trainkit
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
    args = dict(name="t1", height=8, width=8, c_in=16, c_out=8)
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
            run_bench([tiny_config()], ["i8-fused"], seed=1, repeats=4)

    @pytest.mark.parametrize(
        "name,bad,good",
        [
            ("repeats", 4, 5),
            ("repeats", benchcli._MAX_REPEATS + 1, benchcli._MAX_REPEATS),
            ("warmup", -1, 0),
            ("warmup", benchcli._MAX_REPEATS + 1, benchcli._MAX_REPEATS),
            ("threads", 0, 1),
            ("threads", binconv.MAX_THREADS + 1, binconv.MAX_THREADS),
        ],
        ids=["repeats-floor", "repeats-ceiling", "warmup-floor", "warmup-ceiling",
             "threads-floor", "threads-ceiling"],
    )
    def test_counts_are_bounded_before_any_workload_is_built(
        self, monkeypatch, name, bad, good
    ):
        built = []
        monkeypatch.setattr(benchcli, "_build_workload", lambda cfg, seed: built.append(cfg))
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match=name):
            run_bench([tiny_config()], ["i8-fused"], seed=1, **{name: bad})
        assert built == [] and threading.active_count() == threads_before
        # the bound itself is accepted; no config, so nothing runs
        assert run_bench([], ["i8-fused"], seed=1, **{name: good}).rows == []

    def test_unknown_variant_is_rejected_before_any_workload_is_built(self, monkeypatch):
        def build(cfg, seed):
            raise AssertionError("workload built")

        monkeypatch.setattr(benchcli, "_build_workload", build)
        why = "unknown variant 'bogus'; choose from i8-fused, i32-staged, float-reference"
        with pytest.raises(ValueError, match=why):
            run_bench([tiny_config()], ["bogus"], seed=1)

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

    def test_recorded_suite_is_the_default_suite_then_the_stem(self):
        root = Path(__file__).resolve().parents[1]
        configs = parse_config_file(root / "bench_suite.cfg")
        assert configs[:9] == default_suite()
        assert [c.name for c in configs[9:]] == ["stem"]

    def test_parse_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not a config\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestBench:
    def test_rows_and_ratio(self):
        report = run_bench([tiny_config()], ["i8-fused", "i32-staged"], seed=1, repeats=5, warmup=1)
        assert len(report.rows) == 2
        staged = next(r for r in report.rows if r.variant == "i32-staged")
        assert staged.ratio == pytest.approx(1.0)
        for r in report.rows:
            assert r.min_us <= r.median_us <= r.max_us

    def test_float_reference_agrees(self):
        variants = ["float-reference", "i32-staged"]
        report = run_bench([tiny_config()], variants, seed=2, repeats=5, warmup=1)
        assert len(report.rows) == 2

    @pytest.mark.parametrize(
        "shape",
        [{}, {"stride": 2}, {"pad": 0}, {"filter": 1, "pad": 0}, {"c_in": 512}],
        ids=["same", "stride2", "unpadded", "1x1", "clamped"],
    )
    def test_float_reference_runner_times_no_oracle_call(self, monkeypatch, shape):
        cfg = tiny_config(**shape)
        x, kernel, w = benchcli._build_workload(cfg, 6)
        run = benchcli._variant_runner("float-reference", cfg, x, kernel, w, 1)

        def refuse(*_):
            raise AssertionError("the timed dense call ran the oracle")

        monkeypatch.setattr(benchcli, "conv_float_oracle", refuse)
        want = benchcli.staged_conv_i8(x, None, kernel, cfg.spec).values
        assert np.array_equal(run().values, want)

    def test_stability_of_seeded_medians(self):
        # identical seeds run identical work; medians agree within timer
        # jitter (5%) whenever the host itself is that quiet. A shared host
        # has noisy spells; each set of samples takes ~0.2 s, so up to 20
        # sets wait a few seconds for a quiet one before skipping.
        cfg = tiny_config(height=14, width=14, c_in=128, c_out=32)
        for _ in range(20):
            samples = [
                run_bench([cfg], ["i8-fused"], seed=3).rows[0].median_us for _ in range(4)
            ]
            floor = (max(samples) - min(samples)) / max(samples)
            if floor <= 0.05:
                break
        else:
            pytest.skip(f"host timing noise {floor:.1%} exceeds the 5% budget")
        a, b = samples[:2]
        assert abs(a - b) / max(a, b) <= 0.05

    def test_repeats_interleave_variants_after_all_warm_up(self, monkeypatch):
        calls = []
        out = bitcore.I8FeatureMap(np.zeros((1, 1, 1, 1), dtype=np.int8))
        monkeypatch.setattr(benchcli, "staged_conv_i8", lambda *a, **kw: out)
        monkeypatch.setattr(
            benchcli, "_variant_runner", lambda v, *_: lambda: calls.append(v) or out
        )
        variants = ["i8-fused", "i32-staged", "float-reference"]
        report = run_bench([tiny_config()], variants, seed=1, repeats=5, warmup=2)
        warmup = [v for v in variants for _ in range(2)]
        # one checked call per variant, then the warmups, then the repeats
        assert calls == variants + warmup + variants * 5
        assert [r.variant for r in report.rows] == variants

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
    def test_bench_cli_json(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        argv = ["bench", "--repeats", "5", "--warmup", "1", "--seed", "3",
                "--json", str(path), "--config", str(_write_cfg(tmp_path))]
        assert main(argv) == 0
        assert "median_us" in capsys.readouterr().out
        record = json.loads(path.read_text())
        assert record["numpy"] == np.__version__
        assert record["cpu_count"] == os.cpu_count()
        threads = record["blas_threads"]
        assert threads is None or (type(threads) is int and threads >= 1)
        assert record["argv"] == ["bitflow", *argv]
        assert record["seed"] == 3
        sha = record["git_sha"]
        assert sha is None or re.fullmatch(r"[0-9a-f]{40}(-dirty)?", sha)
        rows = record["rows"]
        assert [(r["config"], r["variant"]) for r in rows] == [
            ("t", "i8-fused"), ("t", "i32-staged")
        ]
        for r in rows:
            assert list(r) == [
                "config", "variant", "median_us", "min_us", "max_us", "ratio",
                "minor_faults_per_call",
            ]
            assert 0 < r["min_us"] <= r["median_us"] <= r["max_us"]
            assert r["minor_faults_per_call"] >= 0

    def test_bench_runs_blas_at_the_thread_count_then_restores_it(self, tmp_path, monkeypatch):
        found = benchcli._openblas()
        if found is None:
            pytest.skip("no OpenBLAS in this process")
        get = found[0]
        old = get()
        want = 1 if old != 1 else 2
        seen = []
        real = binconv.gemm_rows
        monkeypatch.setattr(binconv, "gemm_rows", lambda *a: seen.append(get()) or real(*a))
        path = tmp_path / "out.json"
        argv = ["bench", "--repeats", "5", "--warmup", "0", "--threads", str(want),
                "--variants", "float-reference", "--json", str(path),
                "--config", str(_write_cfg(tmp_path))]
        assert main(argv) == 0
        assert len(seen) == 6 and set(seen) == {want}  # agreement check + 5 timed calls
        assert get() == old
        assert json.loads(path.read_text())["blas_threads"] == want
        # a run that stops on a disagreement restores the count too
        monkeypatch.setattr(binconv, "gemm_rows", lambda *a: -real(*a))
        assert main(argv) == 1
        assert get() == old

    def test_git_sha_marks_a_changed_tree(self, tmp_path):
        def git(*cmd):
            subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                            "-c", "user.email=t@t", *cmd], check=True, capture_output=True)

        git("init", "-q")
        (tmp_path / "f").write_text("a")
        git("add", "f")
        git("commit", "-q", "-m", "one")
        sha = benchcli._git_sha(tmp_path)
        assert re.fullmatch(r"[0-9a-f]{40}", sha)
        (tmp_path / "new").write_text("untracked files do not count")
        assert benchcli._git_sha(tmp_path) == sha
        (tmp_path / "f").write_text("b")
        assert benchcli._git_sha(tmp_path) == sha + "-dirty"
        (tmp_path / "sub").mkdir()
        assert benchcli._git_sha(tmp_path / "sub") is None  # not the checkout's root

    @pytest.mark.parametrize(
        "text,why",
        [
            ("id=a\nw=8\ncin=16\ncout=4\n", "missing key(s) h"),
            ("id=a\nh=8\nw=8\ncin=16\ncout=4\nstrid=2\n", "unknown key(s) strid"),
            ("id=a\nh=8\nw=8\ncin=16\ncout=4\nrepeats=7\n", "unknown key(s) repeats"),
            ("id=a\nh=8\nw=8\ncin=16\ncout=4\nh=16\n", "stanza 1: key h repeated"),
            ("id=a\nh=8\nw=8\ncin=16\ncout=4\n\nid=a\nh=8\nw=8\ncin=8\ncout=4\n",
             "stanza 2: id a repeated"),
            ("h=8\nw=8\ncin=16\ncout=4\n\nid=c01\nh=8\nw=8\ncin=8\ncout=4\n",
             "stanza 2: id c01 repeated"),
            # each of the next four is over exactly one bound of 2**24 elements
            ("id=a\nh=4096\nw=4096\ncin=1\ncout=1\nfilter=1\nstride=4096\npad=1\n",
             "a: padded input of 16793604 elements"),
            ("id=a\nh=64\nw=64\ncin=1\ncout=4097\nfilter=64\npad=0\n",
             "a: kernel of 16781312 elements"),
            ("id=a\nh=64\nw=64\ncin=1\ncout=4097\nfilter=1\npad=0\n",
             "a: output of 16781312 elements"),
            ("id=a\nh=512\nw=512\ncin=8\ncout=1\n", "a: im2col rows of 18874368 elements"),
            ("id=a\nh=1000000\nw=1000000\ncin=512\ncout=512\n", "a: output 1x1000000x1000000x512"),
            ("id=a\nh=4\nw=4\ncin=1\ncout=1\nfilter=7\n", "a: non-positive output dims 0x0"),
        ],
        ids=["no-h", "strid", "repeats", "repeated-key", "repeated-id", "repeated-default-id",
             "padded-input", "kernel", "output", "im2col-rows", "huge", "filter"],
    )
    def test_bench_bad_stanza_is_a_usage_error(self, tmp_path, monkeypatch, capsys, text, why):
        built = []
        monkeypatch.setattr(benchcli, "_build_workload", lambda cfg, seed: built.append(cfg))
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["bench", "--config", str(path)]) == 2
        assert why in capsys.readouterr().err
        assert built == []

    def test_bench_missing_config_is_a_usage_error(self, tmp_path, capsys):
        assert main(["bench", "--config", str(tmp_path / "missing.cfg")]) == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_seed_parses_decimal_and_hex(self):
        parser = benchcli.build_parser()
        assert parser.parse_args(["validate"]).seed == 0xB17F10
        assert parser.parse_args(["bench", "--seed", "0x123"]).seed == 0x123
        assert parser.parse_args(["validate", "--seed", "291"]).seed == 0x123
        assert parser.parse_args(["bench", "--seed", "0"]).seed == 0
        assert parser.parse_args(["validate", "--seed", hex((1 << 64) - 1)]).seed == (1 << 64) - 1
        with pytest.raises(SystemExit) as err:
            parser.parse_args(["bench", "--seed", "seven"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command", ["bench", "validate"])
    @pytest.mark.parametrize("seed", ["-1", "0x10000000000000000", str(1 << 64)])
    def test_seed_outside_uint64_is_a_usage_error(self, capsys, command, seed):
        with pytest.raises(SystemExit) as err:
            main([command, "--seed", seed])
        assert err.value.code == 2
        assert "seed must be in [0, 18446744073709551615]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--threads", "0"), ("--warmup", "-5"), ("--repeats", "100000000000000"),
         ("--threads", "65"), ("--threads", "100000")],
    )
    def test_bench_count_out_of_range_is_a_usage_error(self, tmp_path, capsys, flag, value):
        threads_before = threading.active_count()
        argv = ["bench", flag, value, "--config", str(_write_cfg(tmp_path))]
        assert main(argv) == 2
        assert f"{flag[2:]} must be in" in capsys.readouterr().err
        assert threading.active_count() == threads_before

    def test_bench_fractional_threads_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["bench", "--threads", "2.5", "--config", str(_write_cfg(tmp_path))])
        assert err.value.code == 2
        assert "invalid int value: '2.5'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,why",
        [(["--variants", ","], "variants must be one or more distinct names"),
         (["--variants", "i8-fused,i8-fused"], "variants must be one or more distinct names"),
         (["--config", os.devnull], "no config stanza"),
         (["--variants", "i8-fused,bogus"],
          "unknown variant 'bogus'; choose from i8-fused, i32-staged, float-reference")],
        ids=["no-variant", "repeated-variant", "no-stanza", "unknown-variant"],
    )
    def test_bench_without_distinct_work_is_a_usage_error(self, monkeypatch, capsys, argv, why):
        built = []
        monkeypatch.setattr(benchcli, "_build_workload", lambda cfg, seed: built.append(cfg))
        assert main(["bench", *argv]) == 2
        assert why in capsys.readouterr().err
        assert built == []

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
        assert "[FAIL] model-file" in out and "dense reference" in out

    def test_validate_model_catches_a_fault_the_packed_kernels_share(
        self, tmp_path, monkeypatch, capsys
    ):
        # the staged and fused kernels share the match bias; the dense
        # reference does not, so an off-by-one there is caught
        path = tmp_path / "m.bdf"
        netgraph.save_model(benchcli.random_model(np.random.default_rng(12)), path)
        real = binconv._match_bias
        monkeypatch.setattr(binconv, "_match_bias", lambda *a: real(*a) + 1)
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 1
        assert "[FAIL] model-file: executor differs" in capsys.readouterr().out

    @pytest.mark.parametrize("cin", [74_566, 70_000])
    def test_validate_model_too_large_for_the_reference_fails_cleanly(self, tmp_path, capsys, cin):
        # 15x15x74566 = 2**24 + 134 taps: the dense reference cannot be
        # exact; 15x15x70000 taps at 64 sites would be 4 GiB of im2col rows.
        # The 8x8 inputs are small enough to draw.
        out, f = 1, 15
        words = np.zeros((out, f, f, bitcore.words_per_pixel(cin)), dtype=np.uint64)
        kernel = bitcore.PackedKernelSet((out, f, f, cin), words)
        blk = netgraph.VggBlock(kernel, benchcli.ConvSpec(spatial_pad=(7, 7)))
        path = tmp_path / "big.bdf"
        netgraph.save_model(netgraph.Model([blk]), path)
        assert path.stat().st_size < 3 << 20
        model = netgraph.load_model(path)
        assert benchcli.model_input_size(model) == (8, 8)
        assert 8 * 8 * cin <= benchcli._MAX_MODEL_INPUT
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        assert not benchcli.validate_model_file(path, rng).ok
        assert rng.bit_generator.state == before  # no input was drawn
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 0
        assert f"[FAIL] model-file: layer 0: 64 sites x {f * f * cin} taps" in out

    @pytest.mark.parametrize("how", ["truncated", "missing"])
    def test_validate_model_that_cannot_load_fails_cleanly(self, tmp_path, capsys, how):
        path = tmp_path / "m.bdf"
        if how == "truncated":
            netgraph.save_model(benchcli.random_model(np.random.default_rng(12)), path)
            path.write_bytes(path.read_bytes()[:40])
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 0
        assert f"[FAIL] model-file: cannot load {path}" in out

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
        # four 8x8 stride-8 blocks map a 4096x4096 input to 1x1
        model, path = self._save(tmp_path, *[(2, 2, 8, 8, 0)] * 4)
        assert benchcli.model_input_size(model) == (4096, 4096)
        assert 4096 * 4096 * 2 > benchcli._MAX_MODEL_INPUT
        assert main(["validate", "--sizes", "tiny", "--seed", "7",
                     "--model", str(path)]) == 1
        assert "[FAIL] model-file: model needs a 4096x4096x2 input" in capsys.readouterr().out

    def test_validate_model_with_misfit_layers_fails_before_drawing(self, tmp_path):
        # the second block wants 4 input channels, the first emits 3
        _, path = self._save(tmp_path, (2, 3, 3, 1, 1), (4, 4, 3, 1, 1))
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        result = benchcli.validate_model_file(path, rng)
        assert rng.bit_generator.state == before
        assert result.failure == "model does not run: layer 1: channel mismatch: input 3, kernel 4"

    def test_validate_detects_injected_fault(self, monkeypatch, capsys):
        real = binconv._match_bias

        def off_by_one(*args):
            return real(*args) + 1

        monkeypatch.setattr(binconv, "_match_bias", off_by_one)
        assert main(["validate", "--sizes", "tiny", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "first diff" in out

    def test_convert_cli(self, tmp_path, capsys):
        task = trainkit.make_toy_task(
            seed=3, n_train=100, n_val=40, widths=(16, 16, 8),
            batch_size=50,
        )
        s2 = trainkit.train_stage2(trainkit.train_stage1(task, epochs=1), task, epochs=1)
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
        assert "1 warning(s)" in out and "gamma == 0" in out

    def test_convert_unquantizable_batch_norm_exits_2(self, tmp_path, capsys):
        # gamma 1e6 exceeds 16-bit fixed point: an error naming the layer,
        # no traceback and no output file
        c = 4
        blk = netgraph.FloatBlock(
            benchcli.pack_weights(np.ones((c, 3, 3, c))),
            benchcli.ConvSpec(spatial_pad=(1, 1)),
            benchcli.bnquant.BNParams(np.full(c, 1e6), np.zeros(c), np.zeros(c), np.ones(c)),
        )
        src, dst = tmp_path / "f.bdf", tmp_path / "o.bdf"
        netgraph.save_model(netgraph.Model([blk]), src)
        code = main(["convert", "--in", str(src), "--out", str(dst), "--mode", "resnet-qbn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot convert") and "layer 0: batch-norm parameter" in err
        assert not dst.exists()

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
