"""CT metal artifact reduction at desk scale.

A numpy/scipy library bundling:

- a minimal dense-tensor core with reverse-mode autodiff (`ctmar.tensor`),
- a channel-attention U-Net restoration transformer (`ctmar.model`),
- an exact parameter / analytic FLOP accountant (`ctmar.complexity`),
- a parallel-beam sinogram simulator for synthetic metal-artifact
  training pairs (`ctmar.simulate`),
- an Adam + cosine-restart training loop and PSNR/SSIM evaluation
  (`ctmar.train`, `ctmar.metrics`),
- a command-line front end (`ctmar.cli`).
"""

__version__ = "0.1.0"

from .complexity import CostReport, attention_cost_comparison, count_params, estimate_flops
from .model import MARNet, ModelConfig, build_model, load_checkpoint, preset, save_checkpoint
from .tensor import (Tensor, conv2d, finite_diff_grad, gelu, layernorm_channels, matmul,
                     pixel_shuffle, pixel_unshuffle, softmax)

__all__ = ["Tensor", "conv2d", "finite_diff_grad", "gelu", "layernorm_channels", "matmul",
           "pixel_shuffle", "pixel_unshuffle", "softmax",
           "MARNet", "ModelConfig", "build_model", "load_checkpoint", "preset",
           "save_checkpoint",
           "CostReport", "attention_cost_comparison", "count_params", "estimate_flops",
           "__version__"]
