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

    @pytest.mark.parametrize("value", [1e30, 1e20, 2801.0, -1001.0])
    def test_slice_outside_hu_window_refused(self, tmp_path, capsys, value):
        """The HU contract is refuse, not clip: one finite pixel outside
        [-1000, 2800] HU ends the run with one error line that names the
        slice's min and max, and no output file. No overflow warning is
        printed on the way."""
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(build_model(BASE8, seed=1), ckpt)
        slice_hu = np.random.default_rng(4).uniform(-1000.0, 2800.0, (32, 32)).astype(np.float32)
        slice_hu[5, 7] = value
        src, dst = tmp_path / "in.mtsr", tmp_path / "out.mtsr"
        tio.save_tensor(src, slice_hu)
        code, _, err = run(capsys, "infer", "--ckpt", str(ckpt), "--input", str(src),
                           "--output", str(dst))
        assert code == 1
        assert err.startswith("error: slice spans") and len(err.strip().splitlines()) == 1
        assert f"{slice_hu.min():g} to {slice_hu.max():g} HU" in err
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

    @pytest.mark.parametrize("value", [1e30, 3000.0])
    def test_eval_clean_slice_outside_hu_window_rejected(self, tmp_path, capsys, value):
        """The clean slice is held to the MA slice's HU window: a finite value
        outside it is refused, not scored."""
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        clean = tio.load_tensor(ds / "0002_clean.mtsr")
        clean[5, 7] = value
        tio.save_tensor(ds / "0002_clean.mtsr", clean)
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(ds))
        assert code == 1
        assert err.startswith(f"error: {ds} pair 0002: clean slice spans")
        assert f"to {value:g} HU" in err
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out

    def test_eval_slice_outside_hu_window_names_pair(self, tmp_path, capsys):
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        ma = tio.load_tensor(ds / "0002_ma.mtsr")
        ma[0, 0] = 3000.0
        tio.save_tensor(ds / "0002_ma.mtsr", ma)
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(ds))
        assert code == 1
        assert err.startswith(f"error: {ds} pair 0002: slice spans") and "to 3000 HU" in err
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out

    def test_eval_metric_refusal_names_pair(self, tmp_path, capsys):
        """An 8x8 slice restores, but SSIM's 11x11 window cannot score it;
        the error names the dataset and the pair like every other refusal."""
        ds = tmp_path / "ds"
        run(capsys, "synth", "--pairs", "1", "--size", "8", "--out", str(ds))
        ckpt = tmp_path / "t.mckp"
        save_checkpoint(build_model(BASE8, seed=1), ckpt)
        code, out, err = run(capsys, "eval", "--ckpt", str(ckpt), "--data", str(ds),
                             "--split", "train")
        assert code == 1
        assert err.startswith(f"error: {ds} pair 0000:") and "11x11 window" in err
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out

    @pytest.mark.parametrize("edit,needle", [
        (lambda pairs: pairs[2].pop("split"), "split"),
        (lambda pairs: pairs[2].update(bogus=1), "bogus"),
        (lambda pairs: pairs[2].update(clean_path="../outside.mtsr"), "outside"),
        (lambda pairs: pairs.__setitem__(2, ["0002_clean.mtsr", "0002_ma.mtsr"]),
         "not a JSON object"),
        (lambda pairs: pairs[2].update(pair_id=[1]), "pair 2 pair_id [1] is not 2"),
        (lambda pairs: pairs[2].update(clean_path=5),
         "pair 2 clean_path 5 is not '0002_clean.mtsr'"),
        (lambda pairs: pairs[2].update(split="holdout"), "pair 2 split 'holdout' is not 'test'"),
        (lambda pairs: pairs[2].update(pair_id=5), "pair 2 pair_id 5 is not 2"),
        (lambda pairs: pairs.__setitem__(2, dict(pairs[1])), "pair 2 pair_id 1 is not 2"),
        (lambda pairs: pairs[2].update(clean_path="0001_clean.mtsr"),
         "pair 2 clean_path '0001_clean.mtsr' is not '0002_clean.mtsr'"),
        (lambda pairs: pairs[2].update(clean_path="0001_ma.mtsr"),
         "pair 2 clean_path '0001_ma.mtsr' is not '0002_clean.mtsr'"),
        (lambda pairs: pairs[2].update(ma_path="./0002_clean.mtsr"),
         "pair 2 ma_path './0002_clean.mtsr' is not '0002_ma.mtsr'"),
    ], ids=["missing", "unknown", "outside", "not-object", "pair-id-list", "path-int",
            "split-unknown", "pair-id-position", "duplicate-record", "shared-path",
            "cross-wired", "clean-is-ma"])
    def test_eval_bad_manifest_pair_rejected(self, tmp_path, capsys, edit, needle):
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        # a readable slice outside the dataset, so a refusal is not for a missing file
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
        (lambda m: {**m, "size": "32"}, "size '32' is not a positive multiple of 8"),
        (lambda m: {**m, "size": 32.0}, "size 32.0 is not a positive multiple of 8"),
        (lambda m: {**m, "size": 36}, "size 36 is not a positive multiple of 8"),
        (lambda m: {**m, "size": 0}, "size 0 is not a positive multiple of 8"),
        (lambda m: {**m, "n_pairs": 99}, "n_pairs 99 but 3 pairs listed"),
        (lambda m: {**m, "spacing": None}, "spacing None is not 160 / 32 = 5.0 mm"),
        (lambda m: {**m, "spacing": 5.01}, "spacing 5.01 is not 160 / 32 = 5.0 mm"),
        (lambda m: {**m, "size": 64}, "spacing 5.0 is not 160 / 64 = 2.5 mm"),
        (lambda m: "{not json", "not UTF-8 JSON"),
    ], ids=["missing", "unknown", "not-object", "pairs-not-list", "size-str", "size-float",
            "size-36", "size-0", "n-pairs", "spacing-null", "spacing-off", "size-not-spacing",
            "not-json"])
    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_bad_manifest_rejected(self, tmp_path, capsys, edit, needle, command):
        """An edit returns the manifest to write as JSON, or its raw text."""
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        manifest = edit(json.loads((ds / "manifest.json").read_text()))
        (ds / "manifest.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
        args = (["--ckpt", str(ckpt)] if command == "eval"
                else ["--preset", "T", "--epochs", "1", "--out", str(tmp_path / "run")])
        code, _, err = run(capsys, command, "--data", str(ds), *args)
        assert code == 1
        assert err.startswith(f"error: {ds / 'manifest.json'}: ") and needle in err
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("command,pair", [("eval", 2), ("train", 0)])
    @pytest.mark.parametrize("edit,shape", [
        (lambda ds, pair: tio.save_tensor(ds / f"{pair:04d}_ma.mtsr",
                                          np.zeros((32, 24), dtype=np.float32)), "(32, 24)"),
        (lambda ds, pair: (ds / "manifest.json").write_text(json.dumps(
            {**json.loads((ds / "manifest.json").read_text()), "size": 64, "spacing": 2.5})),
         "(32, 32)"),
    ], ids=["slice-32x24", "manifest-size-64"])
    def test_slice_shape_must_match_manifest_size(self, tmp_path, capsys, edit, shape,
                                                  command, pair):
        """A slice that is not (size, size) is refused when its pair is loaded,
        with one error line that names its file and shape."""
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        edit(ds, pair)
        args = (["--ckpt", str(ckpt)] if command == "eval"
                else ["--preset", "T", "--epochs", "1", "--out", str(tmp_path / "run")])
        code, out, err = run(capsys, command, "--data", str(ds), *args)
        assert code == 1
        assert err.startswith(f"error: {ds / f'{pair:04d}_ma.mtsr'}: pair {pair} slice has "
                              f"shape {shape}, not (")
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out and "finished" not in out

    @pytest.mark.parametrize("command,pair", [("eval", 2), ("train", 0)], ids=["eval", "train"])
    @pytest.mark.parametrize("role,what", [("ma", "slice"), ("clean", "clean slice")],
                             ids=["ma", "clean"])
    @pytest.mark.parametrize("value,needle", [(np.nan, "has non-finite values"),
                                              (1e30, "spans"), (3000.0, "spans")],
                             ids=["nan", "1e30", "3000"])
    def test_slice_outside_hu_window_refused(self, tmp_path, capsys, value, needle,
                                             role, what, command, pair):
        """Either slice of a pair that is not finite, or lies outside the
        [-1000, 2800] HU window, is refused when its pair is loaded: train
        writes no checkpoint and eval scores nothing."""
        ds, ckpt = self._dataset_and_checkpoint(tmp_path, capsys)
        slice_hu = tio.load_tensor(ds / f"{pair:04d}_{role}.mtsr")
        slice_hu[5, 7] = value
        tio.save_tensor(ds / f"{pair:04d}_{role}.mtsr", slice_hu)
        args = (["--ckpt", str(ckpt)] if command == "eval"
                else ["--preset", "T", "--epochs", "1", "--out", str(tmp_path / "run")])
        code, out, err = run(capsys, command, "--data", str(ds), *args)
        assert code == 1
        assert err.startswith(f"error: {ds} pair {pair:04d}: {what} {needle}")
        assert len(err.strip().splitlines()) == 1
        assert "mean," not in out and "finished" not in out
        assert not (tmp_path / "run" / "model_final.mckp").exists()


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
