"""Spans around calls into ctmar, recorded from the benchmark's side.

``Tracer.install`` replaces, in every loaded ``ctmar`` module, each
public function of ``tensor``, ``model``, ``train``, ``simulate``,
``metrics`` and ``io`` with a timing wrapper. Names bound by
``from .tensor import ...`` are replaced too, because the wrapper goes
wherever the original function object is found. It also wraps
``Tensor.backward``, ``Adam.step`` and ``MARNet.forward``, the backward
closure of every recorded result, and (``Tracer.wrap_model``) the
forward of every module named by the ``estimate_flops`` breakdown.

Spans live in memory as (name, start, end, parent, value, key) and are
written out when the run ends. ``summarize`` turns them into the
per-layer metrics: seconds and counts per item of the timed section.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from pathlib import Path

KINDS = ("conv_dw7", "conv_dw3_s2", "conv_dw3", "conv_1x1", "conv_3x3", "matmul",
         "gelu", "layernorm", "softmax", "shape", "elementwise")
MAC_KINDS = KINDS[:6]
KEYS = ("intro", "enc1", "down1", "enc2", "down2", "enc3", "down3", "bottleneck",
        "up3", "reduce3", "dec3", "up2", "reduce2", "dec2", "up1", "reduce1", "dec1",
        "outro")
LAYERS = ("tensor", "model", "train", "simulate", "metrics", "io")
# ops charged one unit per output element, like the cost accountant
UNIT_KINDS = ("gelu", "layernorm", "softmax")
OP_KINDS = {
    "matmul": "matmul", "gelu": "gelu", "layernorm_channels": "layernorm",
    "softmax": "softmax", "reshape": "shape", "transpose": "shape", "concat": "shape",
    "pixel_shuffle": "shape", "pixel_unshuffle": "shape", "add": "elementwise",
    "sub": "elementwise", "mul": "elementwise", "neg": "elementwise",
    "texp": "elementwise", "tabs": "elementwise", "tsum": "elementwise",
    "tmean": "elementwise",
}
SIMULATE_FUNCS = ("radon_forward", "fbp_reconstruct", "jaw_phantom", "random_metal_mask")


def per_layer_names() -> list:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for kind in KINDS:
        names += [f"tensor.{kind}.fwd_s", f"tensor.{kind}.bwd_s", f"tensor.{kind}.calls"]
    names += [f"tensor.{kind}.gmac_per_s" for kind in MAC_KINDS]
    names += ["tensor.tape_nodes", "tensor.backward_walk_s"]
    for key in KEYS:
        names += [f"model.{key}.fwd_s", f"model.{key}.gmac_per_s"]
    names += ["model.macs", "train.forward_s", "train.backward_s", "train.adam_s",
              "model.save_checkpoint_s", "model.load_checkpoint_s",
              "metrics.ssim_s", "metrics.psnr_s"]
    names += ["simulate.radon_forward_s", "simulate.radon_forward.calls",
              "simulate.fbp_reconstruct_s", "simulate.jaw_phantom_s",
              "simulate.random_metal_mask_s"]
    names += ["io.save_tensor_s", "io.load_tensor_s", "io.bytes_written", "io.bytes_read"]
    return names


def unit_of(name: str) -> str:
    if name.endswith("gmac_per_s"):
        return "GMAC/s"
    if name.endswith("_s"):
        return "s"
    return {"model.macs": "MAC", "io.bytes_written": "B", "io.bytes_read": "B"}.get(name, "count")


def conv_kind(weight_shape: tuple, stride: int, groups: int) -> str:
    """The op kind of a conv call, from its groups, kernel and stride."""
    c_out, c_in_per_group, k, _ = weight_shape
    if groups == 1:
        kind = {1: "conv_1x1", 3: "conv_3x3"}.get(k)
        if kind and stride == 1:
            return kind
    elif c_in_per_group == 1 and c_out == groups:
        kind = {(7, 1): "conv_dw7", (3, 2): "conv_dw3_s2", (3, 1): "conv_dw3"}.get((k, stride))
        if kind:
            return kind
    raise ValueError(f"no op kind for a conv with weight {weight_shape}, "
                     f"stride {stride}, groups {groups}")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, value, key)
        self.stack: list = []      # indices of open spans
        self.keys: list = []       # breakdown keys of open module forwards

    # -- recording ---------------------------------------------------------------

    def call(self, name, fn, args, kwargs, measure=None):
        """Run ``fn`` inside a span; ``measure(result)`` gives the span's value."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        key = self.keys[-1] if self.keys else None
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, 0, key)
        if measure is not None:
            self.spans[idx] = (name, start, end, parent, measure(result), key)
        return result

    def _wrap(self, name, fn, measure=None):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, measure)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _wrap_op(self, fn_name, fn):
        tracer = self
        fixed_kind = OP_KINDS.get(fn_name)
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            if fixed_kind is None:       # conv2d: the kind depends on the call
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                weight = a["weight"].shape
                kind = conv_kind(weight, a["stride"], a["groups"])
                per_output = weight[1] * weight[2] * weight[3]
            elif fixed_kind == "matmul":
                kind = fixed_kind
                per_output = (args[0] if args else kwargs["a"]).shape[-1]
            else:
                kind = fixed_kind
                per_output = 1 if kind in UNIT_KINDS else 0
            out = tracer.call("op." + kind, fn, args, kwargs,
                              lambda result: result.size * per_output)
            if out._backward_fn is not None:
                out._backward_fn = tracer._wrap("bwd." + kind, out._backward_fn)
                # a zero-length marker counts the recorded tape node
                tracer.spans.append(("tape", 0.0, 0.0, tracer.stack[-1] if tracer.stack
                                     else -1, 1, None))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn_name
        return wrapper

    # -- installation --------------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of the six layers wherever they are bound."""
        import ctmar.model
        import ctmar.train

        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"ctmar.{layer}"]
            for fn_name, fn in vars(module).items():
                if fn_name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                if layer == "tensor" and (fn_name in OP_KINDS or fn_name == "conv2d"):
                    replacements[id(fn)] = self._wrap_op(fn_name, fn)
                else:
                    measure = _IO_MEASURES.get(fn_name) if layer == "io" else None
                    replacements[id(fn)] = self._wrap(f"{layer}.{fn_name}", fn, measure)
        # each wrapper holds its original alive, so these ids stay unique
        for module_name, module in list(sys.modules.items()):
            if module_name != "ctmar" and not module_name.startswith("ctmar."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
        for cls, method, name in ((ctmar.model.Tensor, "backward", "tensor.backward"),
                                  (ctmar.train.Adam, "step", "train.adam_step"),
                                  (ctmar.model.MARNet, "forward", "model.forward")):
            setattr(cls, method, self._wrap(name, getattr(cls, method)))

    def wrap_model(self, model) -> None:
        """Wrap the forward of each module (each block, for a block list) of the breakdown."""
        tracer = self
        for key in KEYS:
            part = getattr(model, key)
            for module in part if isinstance(part, list) else [part]:
                inner = module.forward

                def forward(*args, _inner=inner, _key=key, **kwargs):
                    tracer.keys.append(_key)
                    try:
                        return tracer.call("model." + _key, _inner, args, kwargs)
                    finally:
                        tracer.keys.pop()

                module.forward = forward

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "value", "key"],
                       "spans": self.spans}, fh)


def _bytes_read(result):
    return 7 + 4 * result.ndim + result.nbytes


_IO_MEASURES = {"write_tensor": lambda result: result, "read_tensor": _bytes_read}


def summarize(spans: list, items: int, estimate: dict) -> tuple:
    """(per-layer metrics, MAC comparison) of the spans under ``bench.timed``.

    ``estimate`` maps each breakdown key to the accountant's MACs per item.
    Load-checkpoint time is taken from ``bench.setup`` and reported per load.
    """
    root = [0] * len(spans)
    child_time = [0.0] * len(spans)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child_time[parent] += end - start
    phase = {i: spans[i][0] for i in set(root)}

    totals: dict = {}
    macs_by_key = {key: 0 for key in KEYS}
    macs_by_kind = {kind: 0 for kind in MAC_KINDS}
    macs_total = 0
    loads = []

    def add(metric, amount):
        totals[metric] = totals.get(metric, 0.0) + amount

    for i, (name, start, end, parent, value, key) in enumerate(spans):
        where = phase[root[i]]
        duration = end - start
        parent_name = spans[parent][0] if parent >= 0 else ""
        if where == "bench.setup" and name == "model.load_checkpoint":
            loads.append(duration)
        if where != "bench.timed":
            continue
        layer, _, rest = name.partition(".")
        if name == "tape":
            add("tensor.tape_nodes", 1)
        elif layer == "op":
            add(f"tensor.{rest}.fwd_s", duration)
            add(f"tensor.{rest}.calls", 1)
            macs_total += value
            if rest in MAC_KINDS:
                macs_by_kind[rest] += value
            if key is not None:
                macs_by_key[key] += value
        elif layer == "bwd":
            add(f"tensor.{rest}.bwd_s", duration)
        elif name == "tensor.backward":
            add("tensor.backward_walk_s", duration - child_time[i])
        elif layer == "model" and rest in KEYS:
            add(f"model.{rest}.fwd_s", duration)
        elif name in ("model.save_checkpoint", "metrics.ssim", "metrics.psnr"):
            add(name + "_s", duration)
        elif layer == "simulate" and rest in SIMULATE_FUNCS:
            add(f"{name}_s", duration - child_time[i])
            if rest == "radon_forward":
                add("simulate.radon_forward.calls", 1)
        elif layer == "io" and not parent_name.startswith("io."):
            side = "save" if rest in ("save_tensor", "write_tensor") else "load"
            add(f"io.{side}_tensor_s", duration)
        if layer == "io" and rest in ("write_tensor", "read_tensor"):
            add("io.bytes_written" if rest == "write_tensor" else "io.bytes_read", value)
        if parent_name == "train.train":
            phase_metric = {"model.forward": "train.forward_s",
                            "tensor.backward": "train.backward_s",
                            "train.adam_step": "train.adam_s"}.get(name)
            if phase_metric:
                add(phase_metric, duration)

    metrics = {name: totals.get(name, 0.0) / items for name in per_layer_names()}
    for kind in MAC_KINDS:
        seconds = totals.get(f"tensor.{kind}.fwd_s", 0.0)
        metrics[f"tensor.{kind}.gmac_per_s"] = macs_by_kind[kind] / seconds / 1e9 if seconds else 0.0
    for key in KEYS:
        seconds = totals.get(f"model.{key}.fwd_s", 0.0)
        metrics[f"model.{key}.gmac_per_s"] = macs_by_key[key] / seconds / 1e9 if seconds else 0.0
    metrics["model.macs"] = macs_total / items
    metrics["model.load_checkpoint_s"] = sum(loads) / len(loads) if loads else 0.0
    comparison = {key: {"counted": macs_by_key[key] / items, "estimated": estimate.get(key, 0.0)}
                  for key in KEYS} if estimate else {}
    return metrics, comparison
