"""End-to-end CLI tests through main()."""

import json

import numpy as np
import pytest

from ctmar import io as tio
from ctmar.cli import main
from ctmar.model import ModelConfig, build_model, preset, save_checkpoint

BASE8 = ModelConfig(base_channels=8, num_blocks=(1, 1, 1, 1), num_heads=(1, 1, 1, 1))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSynth:
    def test_writes_dataset(self, tmp_path, capsys):
        code, out, _ = run(capsys, "synth", "--pairs", "2", "--size", "32",
                           "--seed", "3", "--out", str(tmp_path / "ds"))
        assert code == 0
        assert "manifest" in out
        assert len(list((tmp_path / "ds").glob("*.mtsr"))) == 4

    def test_idempotent_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "synth", "--pairs", "2", "--size", "32", "--seed", "7",
            "--out", str(a))
        run(capsys, "synth", "--pairs", "2", "--size", "32", "--seed", "7",
            "--out", str(b))
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_bad_size_exits_nonzero(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--pairs", "1", "--size", "30",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("pairs,size", [("0", "32"), ("-1", "32"), ("1", "0")])
    def test_empty_or_degenerate_dataset_rejected(self, tmp_path, capsys, pairs, size):
        code, _, err = run(capsys, "synth", "--pairs", pairs, "--size", size,
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x").exists()


class TestCount:
    def test_preset_table(self, capsys):
        code, out, _ = run(capsys, "count", "--preset", "all", "--res", "400")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("preset")]
        assert len(lines) == 3

    def test_table2_has_eight_rows(self, capsys):
        code, out, _ = run(capsys, "count", "--ablation", "table2", "--res", "400")
        assert code == 0
        body = out.splitlines()
        rows = [ln for ln in body if ln and not ln.startswith(("config:", "variant"))]
        assert len(rows) == 8
        assert rows[0].startswith("input MA")
        assert rows[1].startswith("baseline")
        assert rows[2].startswith("S↓2")
        assert rows[3].startswith("C↓2")

    def test_csv_mode(self, capsys):
        code, out, _ = run(capsys, "count", "--ablation", "table3a", "--csv")
        assert code == 0
        lines = [ln for ln in out.splitlines() if "," in ln and not ln.startswith("config")]
        assert lines[0] == "variant,params,flops_mac"
        assert len(lines) == 5


class TestInfer:
    def test_untrained_checkpoint_is_identity(self, tmp_path, capsys):
        model = build_model(preset("T"), seed=1)
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(model, ckpt)
        rng = np.random.default_rng(0)
        slice_hu = (rng.random((32, 32)).astype(np.float32) * 3800.0 - 1000.0)
        src = tmp_path / "in.mtsr"
        dst = tmp_path / "out.mtsr"
        tio.save_tensor(src, slice_hu)
        code, _, _ = run(capsys, "infer", "--ckpt", str(ckpt), "--input", str(src),
                         "--output", str(dst))
        assert code == 0
        np.testing.assert_array_equal(tio.load_tensor(dst), slice_hu)

    def test_missing_checkpoint_errors(self, tmp_path, capsys):
        code, _, err = run(capsys, "infer", "--ckpt", str(tmp_path / "nope.mckp"),
                           "--input", "x", "--output", "y")
        assert code == 1
        assert "error:" in err

    def test_corrupt_checkpoint_header_errors(self, tmp_path, capsys):
        """One bit turns the header's "manifest" into "mcnifest"; or the
        version byte says 1, a layout without a payload CRC."""
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(build_model(preset("T"), seed=1), ckpt)
        good = ckpt.read_bytes()
        flipped = bytearray(good)
        flipped[flipped.index(b'"manifest"') + 2] ^= 0x02
        src = tmp_path / "in.mtsr"
        tio.save_tensor(src, np.zeros((32, 32), dtype=np.float32))
        for raw, expected in [(bytes(flipped), "corrupt header"),
                              (good[:4] + b"\x01" + good[5:], "unsupported checkpoint version 1")]:
            ckpt.write_bytes(raw)
            code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--input", str(src),
                               "--output", str(tmp_path / "out.mtsr"))
            assert code == 1
            assert err.startswith("error:") and expected in err
            assert len(err.strip().splitlines()) == 1

    def test_non_finite_input_rejected(self, tmp_path, capsys):
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(build_model(preset("T"), seed=1), ckpt)
        src = tmp_path / "in.mtsr"
        dst = tmp_path / "out.mtsr"
        tio.save_tensor(src, np.full((64, 64), np.nan, dtype=np.float32))
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--input", str(src),
                           "--output", str(dst))
        assert code == 1
        assert err.startswith("error:") and "non-finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not dst.exists()

    def test_non_finite_output_rejected(self, tmp_path, capsys):
        """A checkpoint whose head bias is NaN loads (its CRC is valid), but
        the slice it restores is all NaN: no file, one error line."""
        model = build_model(BASE8, seed=1)
        model.outro.bias.data[:] = np.nan
        ckpt = tmp_path / "nan.mckp"
        save_checkpoint(model, ckpt)
        src, dst = tmp_path / "in.mtsr", tmp_path / "out.mtsr"
        tio.save_tensor(src, np.zeros((32, 32), dtype=np.float32))
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--input", str(src),
                           "--output", str(dst))
        assert code == 1
        assert err.startswith("error:") and "restored slice has non-finite" in err
        assert len(err.strip().splitlines()) == 1
        assert not dst.exists()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_f64_checkpoint_restores_bit_exactly(self, tmp_path, capsys, dtype):
        """A float64 model takes the slice in float64; untrained, it is the identity."""
        ckpt = tmp_path / "f64.mckp"
        save_checkpoint(build_model(BASE8, seed=1, dtype="f64"), ckpt)
        slice_hu = np.random.default_rng(3).uniform(-1000.0, 2800.0, (32, 24)).astype(dtype)
        src, dst = tmp_path / "in.mtsr", tmp_path / "out.mtsr"
        tio.save_tensor(src, slice_hu)
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--input", str(src),
                           "--output", str(dst))
        assert code == 0, err
        restored = tio.load_tensor(dst)
        assert restored.dtype == dtype
        np.testing.assert_array_equal(restored, slice_hu)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 8)])
    def test_empty_slice_rejected(self, tmp_path, capsys, shape):
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(build_model(BASE8, seed=1), ckpt)
        src, dst = tmp_path / "in.mtsr", tmp_path / "out.mtsr"
        tio.save_tensor(src, np.zeros(shape, dtype=np.float32))
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--input", str(src),
                           "--output", str(dst))
        assert code == 1
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert not dst.exists()


class TestEvalAndTrain:
    def test_train_then_eval(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "synth", "--pairs", "3", "--size", "32", "--seed", "2",
            "--out", str(ds))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"base_channels": 8, "expansion": 2.0, "ffn_kernel": 3, '
                       '"spatial_ratio": 2, "channel_ratio": 2, '
                       '"num_blocks": [1, 1, 1, 1], "num_heads": [1, 1, 1, 1], '
                       '"fixed_width": false}')
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "train", "--data", str(ds), "--config", str(cfg),
                           "--epochs", "1", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "model_final.mckp").exists()
        csv_path = tmp_path / "metrics.csv"
        code, out, _ = run(capsys, "eval", "--ckpt", str(out_dir / "model_final.mckp"),
                           "--data", str(ds), "--split", "test",
                           "--out", str(csv_path))
        assert code == 0
        assert out.splitlines()[1] == "image_id,psnr_db,ssim"
        assert "mean," in out
        assert csv_path.exists()

    @pytest.mark.parametrize("cfg_text,field", [
        ('{"base_channels": 8}', "num_blocks"),
        ('{"base_channels": 8, "expansion": 2.0, "ffn_kernel": 3, "spatial_ratio": 2, '
         '"channel_ratio": 2, "num_blocks": [1, 1, 1, 1], "num_heads": [1, 1, 1, 1], '
         '"fixed_width": false, "bogus": 1}', "bogus"),
    ], ids=["missing", "unknown"])
    def test_config_fields_checked(self, tmp_path, capsys, cfg_text, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(cfg_text)
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "ds"),
                           "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error:") and field in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit,needle", [
        ({"base_channels": 8.0}, "integers"), ({"num_blocks": [1, 1, 1.5, 1]}, "integers"),
        ({"expansion": 0.01}, "expansion"), ({"fixed_width": 0}, "boolean"),
        ({"spatial_ratio": 2.0}, "integers"),
    ], ids=["float-width", "float-count", "zero-hidden", "int-flag", "float-ratio"])
    def test_config_field_types_checked(self, tmp_path, capsys, edit, needle):
        cfg = tmp_path / "cfg.json"
        fields = dict(base_channels=8, expansion=2.0, ffn_kernel=3, spatial_ratio=2,
                      channel_ratio=2, num_blocks=[1, 1, 1, 1], num_heads=[1, 1, 1, 1],
                      fixed_width=False)
        cfg.write_text(json.dumps({**fields, **edit}))
        code, _, err = run(capsys, "train", "--data", str(tmp_path / "ds"),
                           "--config", str(cfg), "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error:") and needle in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_non_positive_max_steps_rejected(self, tmp_path, capsys, steps):
        code, out, err = run(capsys, "train", "--data", str(tmp_path / "ds"),
                             "--max-steps", steps, "--out", str(tmp_path / "run"))
        assert code == 1
        assert err.startswith("error:") and "must be None or a positive integer" in err
        assert len(err.strip().splitlines()) == 1
        assert "finished" not in out and not (tmp_path / "run").exists()

    def test_eval_non_finite_slice_rejected(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "synth", "--pairs", "3", "--size", "32", "--seed", "2",
            "--out", str(ds))
        tio.save_tensor(ds / "0002_ma.mtsr", np.full((32, 32), np.nan, dtype=np.float32))
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(build_model(preset("T"), seed=1), ckpt)
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(ds))
        assert code == 1
        assert err.startswith("error:") and "0002" in err and "non-finite" in err
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out

    @staticmethod
    def _dataset_and_checkpoint(tmp_path, capsys):
        ds = tmp_path / "ds"
        run(capsys, "synth", "--pairs", "3", "--size", "32", "--seed", "2",
            "--out", str(ds))
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(build_model(preset("T"), seed=1), ckpt)
        return ds, ckpt

    def test_eval_non_finite_output_rejected(self, tmp_path, capsys):
        """A NaN head bias restores every slice to NaN; eval names the first pair
        instead of printing NaN metrics."""
        ds, _ = self._dataset_and_checkpoint(tmp_path, capsys)
        model = build_model(BASE8, seed=1)
        model.outro.bias.data[:] = np.nan
        ckpt = tmp_path / "nan.mckp"
        save_checkpoint(model, ckpt)
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(ds))
        assert code == 1
        assert err.startswith(f"error: {ds} pair 0002:") and "non-finite" in err
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out and "0002," not in out

    def test_eval_non_finite_clean_slice_rejected(self, tmp_path, capsys):
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        tio.save_tensor(ds / "0002_clean.mtsr", np.full((32, 32), np.nan, dtype=np.float32))
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(ds))
        assert code == 1
        assert err.startswith(f"error: {ds} pair 0002:") and "non-finite" in err
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out

    @pytest.mark.parametrize("edit,needle", [
        (lambda pairs: pairs[2].pop("split"), "split"),
        (lambda pairs: pairs[2].update(bogus=1), "bogus"),
        (lambda pairs: pairs[2].update(clean_path="../outside.mtsr"), "outside"),
        (lambda pairs: pairs.__setitem__(2, ["0002_clean.mtsr", "0002_ma.mtsr"]),
         "not a JSON object"),
        (lambda pairs: pairs[2].update(pair_id=[1]), "pair_id [1] is not int"),
        (lambda pairs: pairs[2].update(clean_path=5), "clean_path 5 is not str"),
        (lambda pairs: pairs[2].update(split="holdout"), "split 'holdout' is not one of"),
    ], ids=["missing", "unknown", "outside", "not-object", "pair-id-list", "path-int",
            "split-unknown"])
    def test_eval_bad_manifest_pair_rejected(self, tmp_path, capsys, edit, needle):
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        # a readable slice outside the dataset, so only the path check can refuse it
        tio.save_tensor(tmp_path / "outside.mtsr", tio.load_tensor(ds / "0002_clean.mtsr"))
        manifest = json.loads((ds / "manifest.json").read_text())
        edit(manifest["pairs"])
        (ds / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(ds))
        assert code == 1
        assert err.startswith("error:") and "pair 2" in err and needle in err
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out

    @pytest.mark.parametrize("edit,needle", [
        (lambda m: {k: v for k, v in m.items() if k != "size"}, "missing fields ['size']"),
        (lambda m: {**m, "bogus": 1}, "unknown fields ['bogus']"),
        (lambda m: [m], "the top level is not a JSON object"),
        (lambda m: {**m, "pairs": "0000_clean.mtsr"}, "pairs is not a JSON list"),
    ], ids=["missing", "unknown", "not-object", "pairs-not-list"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_bad_manifest_rejected(self, tmp_path, capsys, edit, needle, command):
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        manifest = edit(json.loads((ds / "manifest.json").read_text()))
        (ds / "manifest.json").write_text(json.dumps(manifest))
        args = (["--ckpt", str(ckpt)] if command == "eval"
                else ["--preset", "T", "--epochs", "1", "--out", str(tmp_path / "run")])
        code, _, err = run(capsys, command, "--data", str(ds), *args)
        assert code == 1
        assert err.startswith(f"error: {ds / 'manifest.json'}: ") and needle in err
        assert len(err.strip().splitlines()) == 1


class TestGradcheckCommand:
    def test_reports_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--seed", "1", "--samples", "4")
        assert code == 0
        assert "PASS" in out
        assert "max relative error" in out

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_fewer_than_one_sample_rejected(self, capsys, samples):
        code, out, err = run(capsys, "gradcheck", "--samples", samples)
        assert code == 1
        assert err.startswith("error:") and f"at least 1 sample, got {samples}" in err
        assert len(err.strip().splitlines()) == 1
        assert "sampled" not in out


class TestParser:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--pairs" in out and "default 8" in out

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--bogus"])
        assert exc.value.code != 0

    def test_resolved_config_printed(self, capsys):
        code, out, _ = run(capsys, "count", "--preset", "T")
        assert code == 0
        assert out.startswith("config:")
