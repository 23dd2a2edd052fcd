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

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; imported on first access
# (PEP 562), so ``import ctmar.cli`` loads no numpy before the CLI has
# applied MARFORMER_THREADS
_EXPORTS = {
    **dict.fromkeys(["Tensor", "conv2d", "finite_diff_grad", "gelu", "layernorm_channels",
                     "matmul", "pixel_shuffle", "pixel_unshuffle", "softmax"], "tensor"),
    **dict.fromkeys(["MARNet", "ModelConfig", "build_model", "load_checkpoint", "preset",
                     "save_checkpoint"], "model"),
    **dict.fromkeys(["CostReport", "attention_cost_comparison", "count_params",
                     "estimate_flops"], "complexity"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
