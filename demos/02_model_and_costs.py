#!/usr/bin/env python3
"""Build the restoration network, inspect its cost, sweep the ablations.

Run: python3 demos/02_model_and_costs.py
"""

import numpy as np

from ctmar import Tensor, attention_cost_comparison, build_model, count_params, \
    estimate_flops, preset
from ctmar.complexity import expansion_variants, kernel_variants, reduction_variants

# The three stock sizes. The tiny one keeps 48 channels at every level.
print(f"{'preset':<8}{'params (M)':>12}{'FLOPs (G, MAC) @400^2':>24}")
for name in ("L", "B", "T"):
    cfg = preset(name)
    rep = estimate_flops(cfg, 400, 400)
    model = build_model(cfg, seed=0)
    assert count_params(model) == rep.params
    print(f"{name:<8}{rep.params / 1e6:>12.2f}{rep.flops / 1e9:>24.2f}")

# A fresh model is the identity restorer: the output head starts at zero.
# forward takes a batch of slices, (N, 1, H, W).
model = build_model(preset("T"), seed=0)
x = Tensor(np.random.default_rng(1).normal(size=(1, 1, 64, 64)).astype(np.float32))
assert np.array_equal(model.forward(x).data, x.data)
print("\nfresh model restores the input bit-exactly (zeroed residual head)")

# Why channel-wise attention pays off: similarity over channels replaces
# the quadratic-in-pixels similarity of a spatial transformer.
channel, spatial = attention_cost_comparison(48, 24, 64, 64, 32, 32)
print(f"\nattention MACs at 48ch/64^2: channel-wise {channel:,} "
      f"vs spatial {spatial:,} ({spatial / channel:.0f}x)")

# The attention down-sampling sweep: spatial striding is parameter-free,
# channel reduction sheds parameters; both cut FLOPs.
print(f"\n{'variant':<14}{'params (M)':>12}{'FLOPs (G)':>12}")
for name, cfg in reduction_variants():
    rep = estimate_flops(cfg, 400, 400)
    print(f"{name:<14}{rep.params / 1e6:>12.2f}{rep.flops / 1e9:>12.2f}")

# Feed-forward sweeps: kernel size grows cost quadratically but gently
# (depth-wise), the expansion factor linearly and steeply.
for title, rows in (("kernel", kernel_variants()), ("expansion", expansion_variants())):
    print(f"\n{title:<14}{'params (M)':>12}{'FLOPs (G)':>12}")
    for name, cfg in rows:
        rep = estimate_flops(cfg, 400, 400)
        print(f"{name:<14}{rep.params / 1e6:>12.2f}{rep.flops / 1e9:>12.2f}")
