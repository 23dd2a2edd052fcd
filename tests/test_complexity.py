"""Cost-accounting tests: closed forms, trends, cross-checks against built models."""

import numpy as np
import pytest

from ctmar.complexity import (
    attention_cost_comparison,
    count_params,
    estimate_flops,
    expansion_variants,
    kernel_variants,
    reduction_variants,
)
from ctmar.model import ModelConfig, build_model, preset
from ctmar.tensor import Tensor


SMALL = ModelConfig(base_channels=16, num_blocks=(1, 1, 1, 1), num_heads=(1, 1, 1, 1))
# configs whose executed ops are counted: two small nets and every Table II/III row
EXECUTED = ([("SMALL", SMALL), ("T", preset("T"))] + reduction_variants()
            + kernel_variants() + expansion_variants())


class TestClosedForms:
    def test_single_conv_flops(self):
        # one 3x3 conv, 1 -> 48 channels, same padding on 400x400
        cfg = preset("T")
        rep = estimate_flops(cfg, 400, 400)
        assert rep.breakdown["intro"][1] == 48 * 9 * 160000
        assert rep.breakdown["intro"][1] == pytest.approx(69.12e6)

    def test_single_1x1_conv_params(self):
        # bias-free 1x1 conv 48 -> 96 inside down1 of a fixed-width=False T-like net
        cfg = ModelConfig()
        rep = estimate_flops(cfg, 64, 64)
        # down1 maps 4*48 -> 96: params 4*48*96; a plain 48->96 1x1 would be 4608
        assert 48 * 96 == 4608
        assert rep.breakdown["down1"][0] == 4 * 48 * 96

    def test_pure_conv_toy_net_hand_sum(self):
        """intro+outro of a reduced net equal the hand-computed closed form."""
        cfg = SMALL
        rep = estimate_flops(cfg, 32, 32)
        assert rep.breakdown["intro"] == (16 * 9 + 16, 16 * 9 * 32 * 32)
        assert rep.breakdown["outro"] == (16 * 9 + 1, 16 * 9 * 32 * 32)


class TestAttentionCostComparison:
    def test_reference_point(self):
        channel, spatial = attention_cost_comparison(48, 24, 64, 64, 32, 32)
        assert channel == 5_898_240
        assert spatial == 805_306_368

    def test_crossover_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = int(rng.integers(8, 128))
            cp = max(1, c // 2)
            h = int(rng.integers(16, 256))
            hp = max(1, h // 2)
            channel, spatial = attention_cost_comparison(c, cp, h, h, hp, hp)
            hw, hpwp = h * h, hp * hp
            if hw > cp * (1 + hpwp / hw):
                assert channel < spatial

    def test_no_reduction_limit(self):
        c, h = 32, 40
        channel, _ = attention_cost_comparison(c, c, h, h, h, h)
        assert channel == 2 * c * c * h * h


class TestTrends:
    def test_breakdown_sums_equal_totals(self):
        for cfg in (preset("L"), preset("T"), SMALL):
            rep = estimate_flops(cfg, 64, 64)
            assert rep.params == sum(p for p, _ in rep.breakdown.values())
            assert rep.flops == sum(f for _, f in rep.breakdown.values())

    def test_conv_terms_scale_4x_when_doubling(self):
        """With no reduction, every layer is stride-1; cost scales exactly x4."""
        cfg = ModelConfig(base_channels=16, num_blocks=(1, 1, 1, 1),
                          num_heads=(1, 1, 1, 1), spatial_ratio=1, channel_ratio=1)
        small = estimate_flops(cfg, 32, 32)
        big = estimate_flops(cfg, 64, 64)
        # attention matmul terms also scale linearly in S here, softmax does not
        for name in small.breakdown:
            p_small, _ = small.breakdown[name]
            p_big, _ = big.breakdown[name]
            assert p_small == p_big
        conv_only = ["intro", "down1", "down2", "down3", "up1", "up2", "up3",
                     "reduce1", "reduce2", "reduce3", "outro"]
        for name in conv_only:
            assert big.breakdown[name][1] == 4 * small.breakdown[name][1]

    def test_kernel_param_trend(self):
        counts = [estimate_flops(cfg, 400, 400).params for _, cfg in kernel_variants()]
        assert all(a < b for a, b in zip(counts, counts[1:]))
        delta = counts[3] - counts[2]
        assert abs(delta - 0.33e6) <= 0.2 * 0.33e6

    def test_expansion_param_values(self):
        targets = [8.48e6, 11.76e6, 15.04e6, 18.32e6]
        for (_, cfg), target in zip(expansion_variants(), targets):
            got = estimate_flops(cfg, 400, 400).params
            assert abs(got - target) <= 0.15 * target

    def test_reduction_param_signs(self):
        rows = [(name, estimate_flops(cfg, 400, 400).params)
                for name, cfg in reduction_variants()]
        base = rows[0][1]
        assert rows[1][1] == base                       # spatial stride is free
        assert rows[2][1] < base                        # channel shrink saves
        sweep = [p for name, p in rows[3:]]
        assert all(a > b for a, b in zip(sweep, sweep[1:]))


class TestCrossChecks:
    @pytest.mark.parametrize("cfg", [
        SMALL,
        preset("T"),
        ModelConfig(base_channels=8, num_blocks=(2, 1, 2, 1), num_heads=(1, 2, 1, 2),
                    ffn_kernel=5, expansion=1.5, spatial_ratio=4, channel_ratio=2),
    ])
    def test_estimate_matches_built_model(self, cfg):
        assert estimate_flops(cfg, 64, 64).params == count_params(build_model(cfg))

    @pytest.mark.parametrize("cfg", [cfg for _, cfg in EXECUTED],
                             ids=[name for name, _ in EXECUTED])
    def test_executed_macs_match_breakdown(self, cfg, monkeypatch):
        """MACs counted from the ops a real 32x32 forward runs, per breakdown key.

        conv2d counts output size x C_in/groups x k^2, matmul output size
        x K, and gelu, layernorm and softmax one unit per output element.
        """
        import ctmar.model as model_module

        counts = {}
        keys = [None]      # breakdown key of the open top-level module

        def counted(fn, per_output):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[keys[-1]] = counts.get(keys[-1], 0) + out.size * per_output(*args)
                return out
            return wrapper

        monkeypatch.setattr(model_module, "conv2d", counted(
            model_module.conv2d, lambda x, weight, *rest: int(np.prod(weight.shape[1:]))))
        monkeypatch.setattr(model_module, "matmul", counted(
            model_module.matmul, lambda a, b: a.shape[-1]))
        for name in ("gelu", "layernorm_channels", "softmax"):
            monkeypatch.setattr(model_module, name, counted(
                getattr(model_module, name), lambda *args: 1))

        model = build_model(cfg)
        estimate = estimate_flops(cfg, 32, 32).breakdown
        for key in estimate:
            part = getattr(model, key)
            for module in part if isinstance(part, list) else [part]:
                def forward(x, _inner=module.forward, _key=key):
                    keys.append(_key)
                    try:
                        return _inner(x)
                    finally:
                        keys.pop()

                module.forward = forward
        model.forward(Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32)))
        assert counts == {key: flops for key, (_, flops) in estimate.items()}

    def test_indivisible_resolution_rejected(self):
        for res in (100, 0, -8):
            with pytest.raises(ValueError):
                estimate_flops(SMALL, res, res)
