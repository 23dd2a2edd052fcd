"""Parameter counting and analytic FLOP estimation.

Costs are reported in multiply-accumulate units (1 MAC = 1 FLOP unit);
elementwise activations, normalizations and softmax are charged one
unit per output element. The estimator holds no per-module formula: it
builds the model and walks the stage table ``model.STAGES`` that the
model is built and run from. Each stage's parameters are read off the
built tensors, and its MACs come from the ``macs`` method that each
module keeps next to its ``forward``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Tuple

from .model import STAGES, MARNet, ModelConfig, preset


@dataclass
class CostReport:
    """Exact parameter count and analytic cost in MACs, with a per-module breakdown."""

    params: int
    flops: float
    breakdown: Dict[str, Tuple[int, float]] = field(default_factory=dict)


def count_params(model: MARNet) -> int:
    """Total learnable scalars, including the per-head attention temperatures."""
    return sum(t.size for _, t in model.named_params())


def estimate_flops(config: ModelConfig, height: int, width: int) -> CostReport:
    """Analytic cost of one forward pass on a height x width slice.

    Builds ``MARNet(config, None)``, so each call pays for one model
    build with zeroed weights. Then it sums, per ``STAGES`` key, the sizes of
    the stage's parameters and its modules' ``macs`` at the grid the
    stage runs on: ``down`` halves the grid and ``up`` doubles it.
    """
    if min(height, width) < 8 or height % 8 or width % 8:
        raise ValueError(f"spatial extents {height}x{width} must be positive multiples of 8")
    model = MARNet(config, None)
    breakdown: Dict[str, Tuple[int, float]] = {}
    h, w = height, width
    for key, kind, _ in STAGES:
        part = getattr(model, key)
        modules = part if kind == "blocks" else [part]
        breakdown[key] = (sum(t.size for m in modules for t in m.params()),
                          float(sum(m.macs(h, w) for m in modules)))
        if kind == "down":
            h, w = h // 2, w // 2
        elif kind == "up":
            h, w = 2 * h, 2 * w

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
    ratios = [("baseline", 1, 1), ("S↓2", 2, 1), ("C↓2", 1, 2)]
    ratios += [(f"S↓{r} C↓{r}", r, r) for r in (2, 4, 8, 16)]
    return [(name, replace(preset("L"), spatial_ratio=s, channel_ratio=c))
            for name, s, c in ratios]


def kernel_variants() -> List[Tuple[str, ModelConfig]]:
    """Feed-forward kernel-size sweep on the L preset."""
    base = preset("L")
    return [(f"p={p}", replace(base, ffn_kernel=p)) for p in (3, 5, 7, 9)]


def expansion_variants() -> List[Tuple[str, ModelConfig]]:
    """Feed-forward expansion-factor sweep on the L preset."""
    base = preset("L")
    return [(f"gamma={g}", replace(base, expansion=float(g))) for g in (1, 2, 3, 4)]
