"""Parameter counting and analytic FLOP estimation.

Costs are reported in multiply-accumulate units (1 MAC = 1 FLOP unit);
elementwise activations, normalizations and softmax are charged one
unit per output element. The estimator walks the model's stage table
``model.STAGES``, which the model is also built and run from, so its
parameter totals agree with ``count_params`` to the last scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from .model import STAGES, MARNet, ModelConfig, level_plans, preset


@dataclass
class CostReport:
    """Exact parameter count and analytic cost in MACs, with a per-module breakdown."""

    params: int
    flops: float
    breakdown: Dict[str, Tuple[int, float]] = field(default_factory=dict)


def count_params(model: MARNet) -> int:
    """Total learnable scalars, including the per-head attention temperatures."""
    return sum(t.size for _, t in model.named_params())


def _conv(c_in: int, c_out: int, k: int, h_out: int, w_out: int,
          groups: int = 1, bias: bool = False) -> Tuple[int, float]:
    params = c_out * (c_in // groups) * k * k + (c_out if bias else 0)
    flops = float((c_in // groups) * c_out * k * k) * h_out * w_out
    return params, flops


def _attention(c: int, heads: int, rs: int, rc: int, h: int, w: int) -> Tuple[int, float]:
    hp = (h - 1) // rs + 1
    wp = (w - 1) // rs + 1
    cp = c // rc
    d, dp = c // heads, cp // heads
    parts = [
        _conv(c, c, 3, hp, wp, groups=c),      # strided q depth-wise
        _conv(c, c, 1, hp, wp),                # q projection at reduced grid
        _conv(c, c, 3, hp, wp, groups=c),      # strided k depth-wise
        _conv(c, cp, 1, hp, wp),               # k projection, reduced width
        _conv(c, cp, 1, h, w),                 # v projection, reduced width
        _conv(cp, cp, 3, h, w, groups=cp),     # v depth-wise at full grid
        _conv(c, c, 1, h, w),                  # output projection
    ]
    params = sum(p for p, _ in parts) + heads           # log-temperatures
    flops = sum(f for _, f in parts)
    flops += float(heads * d * dp) * (hp * wp + h * w)   # scores and mixing matmuls
    flops += float(heads * d * dp)                       # softmax, 1/element
    return params, flops


def _feed_forward(c: int, expansion: float, kernel: int, h: int, w: int) -> Tuple[int, float]:
    hidden = int(round(expansion * c))
    parts = [
        _conv(c, hidden, 1, h, w),
        _conv(hidden, hidden, kernel, h, w, groups=hidden),
        _conv(hidden, c, 1, h, w),
    ]
    params = sum(p for p, _ in parts)
    flops = sum(f for _, f in parts) + 2.0 * hidden * h * w   # two GELUs
    return params, flops


def _block(c: int, heads: int, config: ModelConfig, h: int, w: int) -> Tuple[int, float]:
    ap, af = _attention(c, heads, config.spatial_ratio, config.channel_ratio, h, w)
    fp, ff = _feed_forward(c, config.expansion, config.ffn_kernel, h, w)
    params = ap + fp + 2 * c                 # two bias-free channel norms
    flops = af + ff + 2.0 * c * h * w
    return params, flops


def estimate_flops(config: ModelConfig, height: int, width: int) -> CostReport:
    """Analytic cost of one forward pass on a height x width slice."""
    if min(height, width) < 8 or height % 8 or width % 8:
        raise ValueError(f"spatial extents {height}x{width} must be positive multiples of 8")
    plans = level_plans(config)
    grid = [(height // p.divisor, width // p.divisor) for p in plans]
    breakdown: Dict[str, Tuple[int, float]] = {}
    for key, kind, level in STAGES:
        c = plans[level].channels
        if kind == "blocks":
            params, flops = _block(c, plans[level].heads, config, *grid[level])
            cost = (params * plans[level].blocks, flops * plans[level].blocks)
        elif kind == "down":
            cost = _conv(4 * plans[level - 1].channels, c, 1, *grid[level])
        elif kind == "up":        # the conv runs before the shuffle, on the coarser grid
            cost = _conv(plans[level + 1].channels, 4 * c, 1, *grid[level + 1])
        elif kind == "reduce":
            cost = _conv(2 * c, c, 1, *grid[level])
        elif kind == "intro":
            cost = _conv(1, c, 3, *grid[level], bias=True)
        else:
            cost = _conv(c, 1, 3, *grid[level], bias=True)
        breakdown[key] = cost

    params = sum(p for p, _ in breakdown.values())
    flops = sum(f for _, f in breakdown.values())
    return CostReport(params=params, flops=flops, breakdown=breakdown)


def attention_cost_comparison(c: int, c_reduced: int, h: int, w: int,
                              h_reduced: int, w_reduced: int) -> Tuple[int, int]:
    """MACs of the channel-similarity attention versus a spatial one.

    Channel route: a C x C' similarity contracted over the reduced grid
    plus mixing over the full grid. Spatial route: the (HW) x (HW)
    similarity a position-wise attention would need.
    """
    if min(c, c_reduced, h, w, h_reduced, w_reduced) < 1:
        raise ValueError("extents must be positive")
    channel_cost = c * c_reduced * (h_reduced * w_reduced) + c * c_reduced * (h * w)
    spatial_cost = c * (h * w) ** 2
    return channel_cost, spatial_cost


# -- ablation sweeps -----------------------------------------------------------


def reduction_variants() -> List[Tuple[str, ModelConfig]]:
    """The attention down-sampling sweep on the L preset (baseline first)."""
    base = preset("L")
    rows = [("baseline", replace(base, spatial_ratio=1, channel_ratio=1))]
    rows.append(("S↓2", replace(base, spatial_ratio=2, channel_ratio=1)))
    rows.append(("C↓2", replace(base, spatial_ratio=1, channel_ratio=2)))
    for r in (2, 4, 8, 16):
        rows.append((f"S↓{r} C↓{r}",
                     replace(base, spatial_ratio=r, channel_ratio=r)))
    return rows


def kernel_variants() -> List[Tuple[str, ModelConfig]]:
    """Feed-forward kernel-size sweep on the L preset."""
    base = preset("L")
    return [(f"p={p}", replace(base, ffn_kernel=p)) for p in (3, 5, 7, 9)]


def expansion_variants() -> List[Tuple[str, ModelConfig]]:
    """Feed-forward expansion-factor sweep on the L preset."""
    base = preset("L")
    return [(f"gamma={g}", replace(base, expansion=float(g))) for g in (1, 2, 3, 4)]
