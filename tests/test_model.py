"""Architecture tests: presets, shapes, identity-at-init, checkpoints, gradients."""

import math
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from ctmar import tensor as tensor_module
from ctmar.model import (
    ChannelAttention,
    CheckpointError,
    ConfigError,
    ConvFeedForward,
    Downsample,
    MARNet,
    ModelConfig,
    STAGES,
    TransformerBlock,
    Upsample,
    _checkpoint_header,
    build_model,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from ctmar.complexity import count_params, estimate_flops
from ctmar.tensor import ShapeError, Tensor, no_grad, tmean, tabs
from ctmar.train import normalize, restore_slice

TINY = ModelConfig(base_channels=8, num_blocks=(1, 1, 1, 1), num_heads=(1, 1, 1, 1))


def rand_image(rng, h=16, w=16, dtype=np.float32):
    return Tensor(rng.normal(size=(1, 1, h, w)).astype(dtype))


class TestConfig:
    def test_presets(self):
        large = preset("L")
        assert large.num_blocks == (1, 2, 4, 8)
        assert large.num_blocks[2] == 4
        assert large.num_heads == (1, 2, 4, 8)
        base = preset("B")
        assert base.num_blocks == (1, 2, 3, 4)
        assert base.num_heads[3] == 8
        tiny = preset("T")
        assert tiny.fixed_width is True
        assert tiny.num_heads == (1, 1, 1, 1)
        for cfg in (large, base, tiny):
            assert (cfg.base_channels, cfg.expansion, cfg.ffn_kernel) == (48, 2.0, 7)
            assert cfg.spatial_ratio == cfg.channel_ratio == 2

    def test_level_channels(self):
        assert preset("L").level_channels == (48, 96, 192, 384)
        assert preset("T").level_channels == (48, 48, 48, 48)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("XL")

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            ModelConfig(ffn_kernel=4)
        with pytest.raises(ConfigError):
            ModelConfig(spatial_ratio=3)
        with pytest.raises(ConfigError):
            ModelConfig(base_channels=6, num_heads=(4, 4, 4, 4))  # 6 % 4 != 0
        with pytest.raises(ConfigError):
            ModelConfig(base_channels=4, channel_ratio=4, num_heads=(2, 2, 2, 2))

    @pytest.mark.parametrize("field,value", [
        ("base_channels", 8.0), ("base_channels", True), ("ffn_kernel", 3.0),
        ("spatial_ratio", 2.0), ("channel_ratio", 2.0), ("channel_ratio", "2"),
        ("num_blocks", [1, 1, 1.5, 1]), ("num_heads", [1, 1, 1, True]),
        ("fixed_width", 0), ("fixed_width", "false"), ("expansion", 0.01),
        ("expansion", 0.0625), ("expansion", 0.0), ("expansion", -2.0),
        ("expansion", float("inf")), ("expansion", float("nan")), ("expansion", "2"),
        ("expansion", True), ("expansion", 1e308),
    ])
    def test_from_dict_rejects_bad_field_types(self, field, value):
        fields = dict(TINY.to_dict(), **{field: value})
        with pytest.raises(ConfigError):
            ModelConfig.from_dict(fields)

    def test_list_counts_stored_as_tuples(self):
        listed = ModelConfig(num_blocks=[1, 2, 4, 8], num_heads=[1, 2, 4, 8])
        assert listed.num_blocks == (1, 2, 4, 8) and listed.num_heads == (1, 2, 4, 8)
        assert listed == preset("L")
        assert hash(listed) == hash(preset("L"))

    def test_one_channel_feed_forward_accepted(self):
        cfg = ModelConfig.from_dict(dict(TINY.to_dict(), expansion=0.1))   # round(0.8) = 1
        assert build_model(cfg).enc1[0].ffn.conv_dw.weight.shape[0] == 1


def run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this source tree; returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_package_exports_resolve_on_plain_import():
    out = run_python("import ctmar\n"
                     "print([n for n in ctmar.__all__ if not hasattr(ctmar, n)])")
    assert out.strip() == "[]"


def test_scipy_loads_only_where_it_computes():
    """Importing ctmar and its CLI, writing a dataset and an f32 gelu load
    numpy only; an f64 gelu then loads scipy.special, and a 7x7 depth-wise
    conv scipy.fft."""
    out = run_python(textwrap.dedent("""
        import sys, tempfile
        import numpy as np
        import ctmar, ctmar.cli
        from ctmar.simulate import make_dataset
        from ctmar.tensor import Tensor, conv2d, gelu

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("scipy"))

        with tempfile.TemporaryDirectory() as d:
            make_dataset(1, 16, 0, d)
        gelu(Tensor(np.ones(4, np.float32)))
        print(loaded())
        gelu(Tensor(np.ones(4)))
        print("scipy.special" in loaded(), "scipy.fft" in loaded())
        conv2d(Tensor(np.ones((1, 2, 8, 8), np.float32)),
               Tensor(np.ones((2, 1, 7, 7), np.float32)), groups=2)
        print("scipy.fft" in loaded())
        """))
    assert out.splitlines() == ["[]", "True False", "True"], out


class TestLevelTransitions:
    def test_downsample_channel_law(self):
        rng = np.random.default_rng(0)
        down = Downsample(48, 96).initialize(rng, "f32")
        out = down.forward(Tensor(rng.normal(size=(1, 48, 64, 64)).astype(np.float32)))
        assert out.shape == (1, 96, 32, 32)

    def test_downsample_fixed_width(self):
        rng = np.random.default_rng(0)
        down = Downsample(48, 48).initialize(rng, "f32")
        out = down.forward(Tensor(rng.normal(size=(1, 48, 64, 64)).astype(np.float32)))
        assert out.shape == (1, 48, 32, 32)

    def test_up_down_shape_inverse(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(1, 16, 8, 8)).astype(np.float32))
        down = Downsample(16, 32).initialize(rng, "f32")
        up = Upsample(32, 16).initialize(rng, "f32")
        assert up.forward(down.forward(x)).shape == x.shape


class TestChannelAttention:
    def test_projection_shapes(self):
        rng = np.random.default_rng(2)
        attn = ChannelAttention(48, heads=1, spatial_ratio=2, channel_ratio=2) \
            .initialize(rng, "f32")
        x = Tensor(rng.normal(size=(1, 48, 64, 64)).astype(np.float32))
        q, k, v = attn.project_qkv(x)
        assert q.shape == (1, 1, 48, 1024)
        assert k.shape == (1, 1, 24, 1024)
        assert v.shape == (1, 1, 24, 4096)
        assert attn.forward(x).shape == (1, 48, 64, 64)

    def test_attention_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        attn = ChannelAttention(16, heads=2, spatial_ratio=2, channel_ratio=2) \
            .initialize(rng, "f32")
        x = Tensor(rng.normal(size=(1, 16, 8, 8)).astype(np.float32))
        from ctmar.tensor import matmul, softmax, texp, transpose
        q, k, v = attn.project_qkv(x)
        scale = texp(-attn.temperature) * (1.0 / math.sqrt(q.shape[-1]))
        scores = matmul(q, transpose(k, (0, 1, 3, 2))) * scale
        a = softmax(scores)
        assert a.shape == (1, 2, 8, 4)
        np.testing.assert_allclose(a.data.sum(axis=-1), 1.0, atol=1e-6)

    def _identity_projections(self, attn, channels):
        eye = np.eye(channels, dtype=np.float32)[:, :, None, None]
        dw = np.zeros((channels, 1, 3, 3), dtype=np.float32)
        dw[:, 0, 1, 1] = 1.0
        attn.q_proj.weight.data = eye.copy()
        attn.k_proj.weight.data = eye.copy()
        attn.v_proj.weight.data = eye.copy()
        attn.out_proj.weight.data = eye.copy()
        attn.q_dw.weight.data = dw.copy()
        attn.k_dw.weight.data = dw.copy()
        attn.v_dw.weight.data = dw.copy()

    def test_dense_attention_oracle(self):
        """With identity projections and unit temperature the module must equal
        a looped softmax(X X^T) X evaluation on the flattened input."""
        rng = np.random.default_rng(4)
        c, h, w = 4, 4, 4
        attn = ChannelAttention(c, heads=1, spatial_ratio=1, channel_ratio=1).initialize(rng, "f32")
        self._identity_projections(attn, c)
        # cancel the 1/sqrt(S') factor so the score scale is exactly 1
        attn.temperature.data = np.full((1, 1, 1), -0.5 * math.log(h * w), dtype=np.float32)

        x = rng.normal(size=(1, c, h, w)).astype(np.float32)
        out = attn.forward(Tensor(x)).data

        flat = x[0].reshape(c, h * w).astype(np.float64)
        scores = np.empty((c, c))
        for i in range(c):
            for j in range(c):
                scores[i, j] = sum(flat[i, p] * flat[j, p] for p in range(h * w))
        expect = np.empty_like(flat)
        for i in range(c):
            row = np.exp(scores[i] - scores[i].max())
            row /= row.sum()
            for p in range(h * w):
                expect[i, p] = sum(row[j] * flat[j, p] for j in range(c))
        np.testing.assert_allclose(out.reshape(c, h * w), expect, rtol=1e-4, atol=1e-5)


class TestConvFeedForward:
    def test_zero_weights_zero_output(self):
        rng = np.random.default_rng(5)
        ffn = ConvFeedForward(8, 2.0, 7).initialize(rng, "f32")
        for conv in (ffn.conv_in, ffn.conv_dw, ffn.conv_out):
            conv.weight.data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 8, 16, 16)).astype(np.float32))
        np.testing.assert_array_equal(ffn.forward(x).data, np.zeros_like(x.data))

    def test_shape_preserved(self):
        rng = np.random.default_rng(6)
        ffn = ConvFeedForward(6, 2.0, 5).initialize(rng, "f32")
        x = Tensor(rng.normal(size=(2, 6, 12, 20)).astype(np.float32))
        assert ffn.forward(x).shape == x.shape

    def test_scalar_trace_through_gelu(self):
        """Single pixel, 1x1 kernels: the whole module is a scalar formula."""
        rng = np.random.default_rng(7)
        ffn = ConvFeedForward(1, 2.0, 1).initialize(rng, "f32")
        a, b = 0.7, -1.1
        c, d = 1.3, 0.4
        e, f = -0.6, 2.0
        ffn.conv_in.weight.data = np.array([[[[a]]], [[[b]]]], dtype=np.float32)
        ffn.conv_dw.weight.data = np.array([[[[c]]], [[[d]]]], dtype=np.float32)
        ffn.conv_out.weight.data = np.array([[[[e], ], [[f], ]]], dtype=np.float32).reshape(1, 2, 1, 1)
        x = 0.9

        def g(v):
            return v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))

        expected = e * g(c * g(a * x)) + f * g(d * g(b * x))
        out = ffn.forward(Tensor(np.array([[[[x]]]], dtype=np.float32)))
        assert out.data[0, 0, 0, 0] == pytest.approx(expected, rel=1e-5)


class TestTransformerBlock:
    def test_zero_weights_residual_identity(self):
        rng = np.random.default_rng(8)
        block = TransformerBlock(8, 2, TINY).initialize(rng, "f32")
        for _, t in block.named_params():
            if t.ndim == 4:  # conv weights only; norms keep gamma=1
                t.data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 8, 16, 16)).astype(np.float32))
        np.testing.assert_array_equal(block.forward(x).data, x.data)

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(9)
        block = TransformerBlock(8, 1, TINY).initialize(rng, "f32")
        x = Tensor(rng.normal(size=(1, 8, 8, 8)).astype(np.float32))
        first = block.forward(x).data
        second = block.forward(x).data
        np.testing.assert_array_equal(first, second)

    def test_tape_holds_only_what_its_backwards_read(self, traced_memory):
        """One recorded block of criterion 8's model at its level-1 shape,
        (2, 16, 64, 64) f32, reduced to its mean, so that only the tape
        keeps arrays alive. It may hold:
        - per norm, ``xhat``, the output the next convs read and the
          one-channel inverse deviations;
        - the attention's projections: the strided depth-wise q and k maps
          their 1x1 convs read, q, the v projection the depth-wise v conv
          reads and v; also the transposed keys and the mixed map
          ``out_proj`` reads;
        - per GELU, its derivative and its output, which the next conv reads.
        64 KiB covers the Python objects and the channel-by-channel arrays
        (scores, softmax, temperature)."""
        config = ModelConfig(base_channels=16, num_heads=(1, 1, 1, 1))
        n, c, size = 2, 16, 64
        rng = np.random.default_rng(19)
        block = TransformerBlock(c, 1, config).initialize(rng, "f32")
        x = Tensor(rng.normal(size=(n, c, size, size)).astype(np.float32))
        plane = n * size * size * np.dtype(np.float32).itemsize
        coarse = plane // config.spatial_ratio ** 2
        hidden, reduced = block.ffn.conv_in.weight.shape[0], block.attn.reduced
        norms = 2 * (2 * c + 1) * plane
        attention = (3 * c + reduced) * coarse + (2 * reduced + c) * plane
        ffn = 2 * 2 * hidden * plane
        bound = norms + attention + ffn + 64 * 1024
        _, retained, _ = traced_memory(lambda: tmean(block.forward(x)))
        assert retained <= bound, (retained, bound)


class TestMARNet:
    def test_identity_at_init_all_presets(self):
        rng = np.random.default_rng(10)
        for name in ("L", "B", "T"):
            model = build_model(preset(name), seed=3)
            x = rand_image(rng, 64, 64)
            out = model.forward(x)
            np.testing.assert_array_equal(out.data, x.data)

    def test_unseeded_model_holds_float64_zeros(self):
        for name, t in MARNet(TINY).named_params():
            assert t.data.dtype == np.float64, name
            # norms start at gamma = 1; every other parameter at zero
            np.testing.assert_array_equal(t.data, 1.0 if name.endswith("gamma") else 0.0)

    def test_float32_build_peak(self):
        """A float32 preset-L build holds one float64 draw at a time. The f32
        tree is 46 MiB; drawing the whole float64 tree before casting it
        raised the peak by 93 MiB."""
        out = run_python("import resource\n"
                         "from ctmar.model import build_model, preset\n"
                         "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                         "build_model(preset('L'), seed=3)\n"
                         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
        rise_mib = int(out) / 1024      # ru_maxrss counts KiB on Linux
        assert rise_mib < 65, rise_mib

    def test_shape_preserved_batched(self):
        model = build_model(TINY, seed=0)
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(2, 1, 24, 32)).astype(np.float32))
        assert model.forward(x).shape == (2, 1, 24, 32)

    @pytest.mark.parametrize("extent", [64, 96, 128])
    def test_shape_preserved_standard_extents(self, extent):
        model = build_model(TINY, seed=0)
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(1, 1, extent, extent)).astype(np.float32))
        assert model.forward(x).shape == (1, 1, extent, extent)

    def test_head_schedule_does_not_change_shape(self):
        rng = np.random.default_rng(12)
        x = rand_image(rng, 16, 16)
        for heads in [(1, 1, 1, 1), (2, 2, 2, 2), (1, 2, 4, 8)]:
            cfg = ModelConfig(base_channels=16, num_blocks=(1, 1, 1, 1), num_heads=heads)
            out = build_model(cfg, seed=1).forward(x)
            assert out.shape == x.shape

    def test_indivisible_input_rejected(self):
        """Extents must be positive multiples of 8: 20, 0 and 0x8 are refused."""
        model = build_model(TINY, seed=0)
        for shape in [(1, 1, 20, 20), (1, 1, 0, 0), (1, 1, 0, 8), (2, 1, 8, 0)]:
            with pytest.raises(ShapeError):
                model.forward(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_rank3_input_rejected(self):
        """forward takes (N,1,H,W) only: a (1,H,W) slice or a 2-channel batch is refused."""
        model = build_model(TINY, seed=0)
        for shape in [(1, 16, 16), (1, 2, 16, 16), (16, 16)]:
            with pytest.raises(ShapeError):
                model.forward(Tensor(np.zeros(shape, dtype=np.float32)))

    def test_zero_input_response_repeatable(self):
        model = build_model(TINY, seed=5)
        zero = Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32))
        first = model.forward(zero).data
        second = model.forward(zero).data
        np.testing.assert_array_equal(first, second)

    def test_param_names_unique_and_ordered(self):
        model = build_model(TINY, seed=0)
        names = [n for n, _ in model.named_params()]
        assert len(names) == len(set(names))
        assert names == [n for n, _ in model.named_params()]
        assert names[0] == "intro.weight"
        assert names[-1] == "outro.bias"
        # the stage table names the model's top-level modules and the cost breakdown
        prefixes = list(dict.fromkeys(n.split(".")[0] for n in names))
        assert prefixes == [key for key, _, _ in STAGES]
        assert prefixes == list(estimate_flops(TINY, 32, 32).breakdown)

    def test_spatial_reduction_is_parameter_neutral(self):
        base = ModelConfig(base_channels=16, num_blocks=(1, 1, 1, 1),
                           num_heads=(1, 1, 1, 1), spatial_ratio=1, channel_ratio=1)
        strided = ModelConfig(base_channels=16, num_blocks=(1, 1, 1, 1),
                              num_heads=(1, 1, 1, 1), spatial_ratio=2, channel_ratio=1)
        assert count_params(build_model(base)) == count_params(build_model(strided))

    def test_channel_reduction_strictly_shrinks(self):
        counts = []
        for rc in (1, 2, 4, 8):
            cfg = ModelConfig(base_channels=32, num_blocks=(1, 1, 1, 1),
                              num_heads=(1, 1, 1, 1), channel_ratio=rc)
            counts.append(count_params(build_model(cfg)))
        assert all(a > b for a, b in zip(counts, counts[1:]))


def t_with_drawn_head(seed):
    """Preset T with its zeroed head redrawn, so the output is not the input."""
    model = build_model(preset("T"), seed=seed)
    w = model.outro.weight
    rng = np.random.default_rng(seed)
    w.data = rng.uniform(-1.0, 1.0, size=w.shape).astype(np.float32) / math.sqrt(w.data[0].size)
    return model


class TestNoGradInference:
    def test_forward_bit_identical_in_scope(self):
        """Without a tape the feed-forward overwrites one hidden map in place;
        the output bits must match the recorded forward's. At 128x128 the
        level-1 FFT conv runs its 96 channels in seven blocks, so a block
        written over before it is read would show. The input and every
        parameter must be left as they were."""
        model = t_with_drawn_head(4)
        params_before = {name: t.data.copy() for name, t in model.named_params()}
        for size, blocks in ((32, 1), (128, 7)):
            # the level-1 FFT conv's channels per block, as _conv_dw_fft picks them
            extent = next_fast_len(size + model.config.ffn_kernel // 2, real=True)
            per_block = tensor_module._FFT_BLOCK // (extent * (extent // 2 + 1))
            assert -(-model.enc1[0].ffn.conv_dw.weight.shape[0] // per_block) == blocks
            x = rand_image(np.random.default_rng(15), size, size)
            x_before = x.data.copy()
            recorded = model.forward(x)
            assert recorded._backward_fn is not None
            with no_grad():
                out = model.forward(x)
            assert out._backward_fn is None and not out.requires_grad
            assert not np.array_equal(out.data, x.data)
            np.testing.assert_array_equal(out.data, recorded.data)
            np.testing.assert_array_equal(x.data, x_before)
            for name, t in model.named_params():
                np.testing.assert_array_equal(t.data, params_before[name], err_msg=name)

    def test_restore_slice_leaves_grads_and_flags(self):
        model = t_with_drawn_head(5)
        sentinels = {name: np.full(t.shape, 7.0, dtype=t.data.dtype)
                     for name, t in model.named_params()}
        for name, t in model.named_params():
            t.grad = sentinels[name]
        hu = np.random.default_rng(16).uniform(-1000, 2800, size=(32, 32))
        restore_slice(model, hu)
        for name, t in model.named_params():
            assert t.requires_grad
            assert t.grad is sentinels[name]
            np.testing.assert_array_equal(t.grad, 7.0)

    def test_restore_slice_peak_memory_below_half_of_recording(self, traced_memory):
        model = t_with_drawn_head(6)
        hu = np.random.default_rng(17).uniform(-1000, 2800, size=(64, 64))
        x = normalize(hu, np.float32)[None, None]
        recording = traced_memory(lambda: model.forward(Tensor(x)))[2]
        tape_free = traced_memory(lambda: restore_slice(model, hu))[2]
        assert tape_free < 0.5 * recording, (tape_free, recording)

    def test_restore_slice_peak_memory_bounded_by_shapes(self, traced_memory):
        """Preset T, one 128x128 f32 slice. The busiest moments are in the
        level-1 blocks (128x128, 48 channels, hidden width 96). The peak
        must stay within:
        - one hidden-width map: without a tape, GELU, the 7x7 depth-wise
          conv and GELU overwrite conv_in's output;
        - two model-width maps: the post-attention residual that
          TransformerBlock.forward adds back, and conv_out's output. No
          caller keeps a block's input (MARNet.forward hands it over and
          the block drops it at its first residual add), and the norm2
          output goes once conv_in has read it;
        - the FFT's channel-block workspace: each spectrum block has at most
          _FFT_BLOCK complex64 values, and the loop holds at most four
          block-sized arrays (the previous block's spectrum, the new one,
          the tap spectrum or the cropped inverse, and the column pass's
          result where scipy does not overwrite in place);
        - a few single-channel f64 planes of the slice: four at most.
        A channel norm holds its input and two more model-width maps (the
        centred map, divided in place, and the squares, which the output
        overwrites), less than this sum.
        """
        model = t_with_drawn_head(7)
        size, width = 128, 48
        hidden = int(round(model.config.expansion * width))
        plane = size * size * np.dtype(np.float32).itemsize
        bound = (hidden * plane + 2 * width * plane
                 + 4 * tensor_module._FFT_BLOCK * np.dtype(np.complex64).itemsize
                 + 4 * size * size * np.dtype(np.float64).itemsize)
        hu = np.random.default_rng(18).uniform(-1000, 2800, size=(size, size))
        peak = traced_memory(lambda: restore_slice(model, hu))[2]
        assert peak <= bound, (peak, bound)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        for dtype in ("f32", "f64"):
            model = build_model(TINY, seed=7, dtype=dtype)
            x = rand_image(rng, dtype=model.outro.weight.data.dtype)
            before = model.forward(x).data
            path = tmp_path / f"model-{dtype}.mckp"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            # the loaded model keeps the file's dtype
            assert {t.dtype_name for t in loaded.params()} == {dtype}
            after = loaded.forward(x).data
            np.testing.assert_array_equal(before, after)
            assert loaded.config == model.config

    def test_mixed_dtypes_rejected_before_write(self, tmp_path):
        path = tmp_path / "model.mckp"
        model = build_model(TINY, seed=1)
        save_checkpoint(model, path)
        before = path.read_bytes()
        model.outro.weight.data = model.outro.weight.data.astype(np.float64)
        with pytest.raises(CheckpointError, match=r"mix dtypes \['f32', 'f64'\]"):
            save_checkpoint(model, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.mckp"]

    def test_param_count_preserved(self, tmp_path):
        model = build_model(TINY, seed=1)
        path = tmp_path / "model.mckp"
        save_checkpoint(model, path)
        assert count_params(load_checkpoint(path)) == count_params(model)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.mckp"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @staticmethod
    def rewrite_header(path, mutate, version=None):
        """Re-encode the JSON header after ``mutate(header)``, keeping the payload;
        a list that ``mutate`` returns is written in place of the header."""
        import json as _json
        raw = path.read_bytes()
        old_version, header_len = struct.unpack("<BI", raw[4:9])
        header = _json.loads(raw[9:9 + header_len])
        edited = mutate(header)
        body = _json.dumps(edited if isinstance(edited, list) else header).encode()
        path.write_bytes(raw[:4] + struct.pack("<BI", version or old_version, len(body))
                         + body + raw[9 + header_len:])

    @pytest.mark.parametrize("mutate", [
        lambda h: h.pop("dtype"),
        lambda h: h.update(note="extra"),
        lambda h: h.update(dtype="f16"),
        lambda h: h.update(manifest={"name": "intro.weight"}),
        lambda h: h["manifest"][0].update(offset="0"),
        lambda h: h["manifest"][0].pop("dtype"),
        lambda h: h["manifest"][1].update(extra=1),
        lambda h: h.update(crc32="0"),
        lambda h: [h],
        lambda h: h.update(crc32=True),
        lambda h: h.update(dtype=["f32"]),
        lambda h: h["config"].pop("fixed_width"),
    ], ids=["no-dtype", "extra-key", "bad-dtype", "manifest-not-list", "offset-not-int",
            "entry-no-dtype", "entry-extra-key", "crc-not-int", "header-list", "crc-bool",
            "dtype-list", "config-missing-field"])
    def test_corrupt_header_rejected(self, tmp_path, mutate):
        """Every header that is not the one save_checkpoint writes is refused
        as a corrupt header, whatever part of it was edited."""
        path = tmp_path / "model.mckp"
        save_checkpoint(build_model(TINY, seed=1), path)
        self.rewrite_header(path, mutate)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)

    def test_deeply_nested_header_rejected(self, tmp_path):
        """JSON nested past the parser's recursion limit is a corrupt header
        too, not a RecursionError."""
        path = tmp_path / "model.mckp"
        body = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(b"MCKP" + struct.pack("<BI", 2, len(body)) + body)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)

    def test_corrupt_header_bit_flip_rejected(self, tmp_path):
        """One bit turns "manifest" into "mcnifest"."""
        path = tmp_path / "model.mckp"
        save_checkpoint(build_model(TINY, seed=1), path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b'"manifest"') + 2
        raw[at] ^= 0x02
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)

    def test_corrupt_header_length_rejected(self, tmp_path):
        """A header length past the end of the file is reported as such,
        before any read is sized from it."""
        path = tmp_path / "model.mckp"
        save_checkpoint(build_model(TINY, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[8] ^= 0x80                          # top bit of the u32 header length
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated header"):
            load_checkpoint(path)

    def test_corrupt_payload_bit_rejected(self, tmp_path):
        """A flipped value bit fails the version 2 payload CRC32."""
        path = tmp_path / "model.mckp"
        save_checkpoint(build_model(TINY, seed=1), path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="CRC32"):
            load_checkpoint(path)

    def test_version_1_refused(self, tmp_path):
        """A version 1 file has no payload CRC, so it cannot be verified:
        it is refused, with or without a crc32 key in its header."""
        path = tmp_path / "model.mckp"
        save_checkpoint(build_model(TINY, seed=3), path)
        self.rewrite_header(path, lambda h: h.pop("crc32"), version=1)
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)
        self.rewrite_header(path, lambda h: h.update(crc32=0))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
            load_checkpoint(path)

    def test_record_dtype_must_match_header(self, tmp_path):
        """The header is outside the CRC: relabelling an f64 payload as f32,
        with the f32 offsets, keeps the CRC valid and the header what
        save_checkpoint writes, and the load is refused, not cast."""
        path = tmp_path / "model.mckp"
        save_checkpoint(build_model(TINY, seed=1, dtype="f64"), path)
        self.rewrite_header(path, lambda header: header.update(
            _checkpoint_header(MARNet(TINY), "f32", header["crc32"])))
        with pytest.raises(CheckpointError, match="float64, not f32"):
            load_checkpoint(path)

    @settings(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncation_or_bit_flip_raises_only_checkpoint_error(self, tmp_path, data):
        """Cut a checkpoint at any length, or flip any one bit: load_checkpoint
        raises CheckpointError and nothing else. A payload flip fails the
        CRC32; a header flip fails the JSON, the rebuild of the header from
        its config, dtype and crc32, or the comparison with that rebuilt
        header (a sweep over all 79,240 bits before this file's payload
        found none that loads)."""
        path = tmp_path / "model.mckp"
        if not path.exists():
            save_checkpoint(build_model(TINY, seed=1), path)
            (tmp_path / "good.mckp").write_bytes(path.read_bytes())
        raw = bytearray((tmp_path / "good.mckp").read_bytes())
        payload_start = 9 + int.from_bytes(raw[5:9], "little")
        if data.draw(st.booleans(), label="truncate"):
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="length")])
            with pytest.raises(CheckpointError):
                load_checkpoint(path)
            return
        # half the flips land in the payload, half before it
        if data.draw(st.booleans(), label="in payload"):
            bit = data.draw(st.integers(8 * payload_start, 8 * len(raw) - 1), label="bit")
        else:
            bit = data.draw(st.integers(0, 8 * payload_start - 1), label="bit")
        raw[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError,
                           match="CRC32" if bit >= 8 * payload_start else None):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        model = build_model(TINY, seed=1)
        path = tmp_path / "model.mckp"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 40])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_manifest_sizes_match_count(self, tmp_path):
        import json as _json
        import struct as _struct
        model = build_model(TINY, seed=2)
        path = tmp_path / "model.mckp"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        header_len = _struct.unpack("<I", raw[5:9])[0]
        header = _json.loads(raw[9:9 + header_len])
        total = sum(int(np.prod(e["shape"])) if e["shape"] else 1
                    for e in header["manifest"])
        assert total == count_params(model)


class TestGradientIntegrity:
    def test_backward_matches_finite_differences_small(self):
        cfg = ModelConfig(base_channels=4, num_blocks=(1, 1, 1, 1),
                          num_heads=(1, 1, 1, 1), ffn_kernel=3)
        model = build_model(cfg, seed=11, dtype="f64")
        rng = np.random.default_rng(14)
        # move the zeroed head off the identity point so gradients reach
        # every upstream parameter
        model.outro.weight.data = rng.normal(size=model.outro.weight.shape) * 0.2
        x = Tensor(rng.normal(size=(1, 1, 8, 8)))
        target = Tensor(rng.normal(size=(1, 1, 8, 8)) + 2.0)

        loss = tmean(tabs(model.forward(x) - target))
        loss.backward()

        named = list(model.named_params())
        flat = [(n, t, i) for n, t in named for i in range(t.size)]
        picks = rng.choice(len(flat), size=12, replace=False)
        worst = 0.0
        for idx in picks:
            name, tensor, i = flat[idx]
            ad = tensor.grad.ravel()[i]
            orig = tensor.data.ravel()[i]
            h = 1e-5
            for delta, sign in ((h, 1), (-2 * h, -1)):
                tensor.data.ravel()[i] += delta
                val = tmean(tabs(model.forward(Tensor(x.data.copy())) - target)).item()
                if sign > 0:
                    fp = val
                else:
                    fm = val
            tensor.data.ravel()[i] = orig
            fd = (fp - fm) / (2 * h)
            rel = abs(ad - fd) / max(abs(ad), abs(fd), 1e-6)
            worst = max(worst, rel)
        assert worst < 1e-4, f"max relative error {worst:.2e}"
