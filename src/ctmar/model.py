"""Channel-attention restoration transformer for CT slices.

A three-level U-Net of transformer blocks. Each block pairs a
dimension-reduced channel self-attention (similarity is channels x
channels, with queries/keys computed at a spatially strided resolution
and keys/values at a reduced channel width) with a wide-kernel
convolutional feed-forward. The network predicts a residual that is
added back onto the input slice, so a freshly built model (zeroed
output head) is exactly the identity restorer.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import partial
from io import BytesIO
from pathlib import Path
from typing import Iterator, Tuple, Union

import numpy as np

from . import io as tio
from .tensor import (
    FFT_MIN_KERNEL,
    Tensor,
    ShapeError,
    _as_dtype,
    _conv_dw_fft,
    _gelu_into,
    _records,
    concat,
    conv2d,
    gelu,
    layernorm_channels,
    matmul,
    pixel_shuffle,
    pixel_unshuffle,
    reshape,
    softmax,
    texp,
    transpose,
)

_ALLOWED_RATIOS = (1, 2, 4, 8, 16)
CKPT_MAGIC = b"MCKP"
CKPT_VERSION = 2                   # v2 adds the payload's CRC32; v1 has none, so it is refused
_CRC_CHUNK = 1 << 20               # bytes per read while checking the payload CRC
_json = partial(json.dumps, sort_keys=True)     # the header's text, for writing and comparing


class ConfigError(ValueError):
    """Raised on inconsistent architecture hyperparameters."""


class CheckpointError(ValueError):
    """Raised on corrupt or mismatched checkpoint files."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``num_blocks``/``num_heads`` give the per-level settings for the
    three encoder-decoder levels plus the bottleneck (index 3). With
    ``fixed_width`` every level keeps ``base_channels`` channels;
    otherwise level k has ``base_channels * 2**k`` and the bottleneck
    eight times the base width.
    """

    base_channels: int = 48
    expansion: float = 2.0
    ffn_kernel: int = 7
    spatial_ratio: int = 2
    channel_ratio: int = 2
    num_blocks: Tuple[int, int, int, int] = (1, 2, 4, 8)
    num_heads: Tuple[int, int, int, int] = (1, 2, 4, 8)
    fixed_width: bool = False

    def __post_init__(self):
        # frozen: the per-level counts become tuples, so equality and hash see values
        object.__setattr__(self, "num_blocks", tuple(self.num_blocks))
        object.__setattr__(self, "num_heads", tuple(self.num_heads))
        if len(self.num_blocks) != 4 or len(self.num_heads) != 4:
            raise ConfigError("num_blocks and num_heads must have four entries")
        counts = (self.base_channels, self.ffn_kernel, self.spatial_ratio,
                  self.channel_ratio, *self.num_blocks, *self.num_heads)
        if any(type(n) is not int for n in counts) or type(self.fixed_width) is not bool:
            raise ConfigError("widths, kernel, ratios and counts must be integers "
                              "and fixed_width a boolean")
        if min(self.base_channels, *self.num_blocks, *self.num_heads) < 1:
            raise ConfigError("base_channels and the block and head counts must be positive")
        if self.ffn_kernel < 1 or self.ffn_kernel % 2 == 0:
            raise ConfigError("ffn_kernel must be a positive odd integer")
        if self.spatial_ratio not in _ALLOWED_RATIOS:
            raise ConfigError(f"spatial_ratio must be one of {_ALLOWED_RATIOS}")
        if self.channel_ratio not in _ALLOWED_RATIOS:
            raise ConfigError(f"channel_ratio must be one of {_ALLOWED_RATIOS}")
        # base_channels is the narrowest level, so this bounds every FFN width
        if type(self.expansion) not in (int, float) \
                or not math.isfinite(self.expansion * self.base_channels) \
                or round(self.expansion * self.base_channels) < 1:
            raise ConfigError("expansion must be a finite number that leaves the "
                              "feed-forward at least one channel wide")
        for ch, heads in zip(self.level_channels, self.num_heads):
            if ch % heads:
                raise ConfigError(f"{ch} channels not divisible by {heads} heads")
            if ch % (self.channel_ratio * heads):
                raise ConfigError(
                    f"{ch} channels not divisible by channel_ratio*heads = "
                    f"{self.channel_ratio * heads}")

    @property
    def level_channels(self) -> Tuple[int, int, int, int]:
        """Channel widths for levels 1..3 and the bottleneck."""
        if self.fixed_width:
            return (self.base_channels,) * 4
        c = self.base_channels
        return (c, 2 * c, 4 * c, 8 * c)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        """Inverse of ``to_dict``; every field must be given, and no other."""
        names = {f.name for f in dataclasses.fields(ModelConfig)}
        given = set(d) if isinstance(d, dict) else set()
        if given != names:
            raise ConfigError(f"config fields missing {sorted(names - given)}, "
                              f"unknown {sorted(given - names)}")
        try:
            return ModelConfig(**d)
        except TypeError as exc:
            raise ConfigError(f"bad config value ({exc})") from exc


# The U-Net's top-level stages in execution order, as (key, kind, level). The key
# names the model attribute and the cost-breakdown entry; the level indexes the
# config's ``level_channels``, ``num_blocks`` and ``num_heads``. ``down`` pushes a
# skip that ``reduce`` pops and concatenates; it halves the grid and ``up`` doubles it.
STAGES = (("intro", "intro", 0),
          ("enc1", "blocks", 0), ("down1", "down", 1), ("enc2", "blocks", 1),
          ("down2", "down", 2), ("enc3", "blocks", 2), ("down3", "down", 3),
          ("bottleneck", "blocks", 3),
          ("up3", "up", 2), ("reduce3", "reduce", 2), ("dec3", "blocks", 2),
          ("up2", "up", 1), ("reduce2", "reduce", 1), ("dec2", "blocks", 1),
          ("up1", "up", 0), ("reduce1", "reduce", 0), ("dec1", "blocks", 0),
          ("outro", "outro", 0))


_PRESETS = {
    "L": dict(num_blocks=(1, 2, 4, 8), num_heads=(1, 2, 4, 8), fixed_width=False),
    "B": dict(num_blocks=(1, 2, 3, 4), num_heads=(1, 2, 4, 8), fixed_width=False),
    "T": dict(num_blocks=(1, 2, 3, 4), num_heads=(1, 1, 1, 1), fixed_width=True),
}


def preset(name: str) -> ModelConfig:
    """Stock configurations: L (large), B (base), T (tiny, fixed 48-wide)."""
    key = name.strip().upper()
    if key not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of L, B, T")
    return ModelConfig(**_PRESETS[key])


# -- module tree ----------------------------------------------------------------


class Module:
    """Minimal parameter container; children are discovered in insertion order.

    A module's ``macs(h, w)`` is its forward cost on an h x w input (see ``complexity``).
    """

    def named_params(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, value in self.__dict__.items():
            path = f"{prefix}{name}"
            if isinstance(value, Tensor):
                if value.requires_grad:
                    yield path, value
            elif isinstance(value, Module):
                yield from value.named_params(f"{path}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_params(f"{path}.{i}.")

    def params(self) -> list:
        return [t for _, t in self.named_params()]

    def initialize(self, rng: np.random.Generator, dtype: str) -> "Module":
        """Draw each conv (4-D) weight from uniform(+-1/sqrt(fan_in)) in float64 and
        cast every parameter to ``dtype`` ("f32" or "f64"), one at a time; returns self."""
        for t in self.params():
            data = t.data
            if data.ndim == 4:
                bound = 1.0 / math.sqrt(t.size // t.shape[0])
                data = rng.uniform(-bound, bound, size=t.shape)
            t.data = data.astype(_as_dtype(dtype), copy=False)
        return self


class Conv2d(Module):
    def __init__(self, c_in: int, c_out: int, k: int, stride: int = 1, groups: int = 1,
                 bias: bool = False):
        self.weight = Tensor(np.zeros(0), requires_grad=True)
        # a zero-stride placeholder: ``initialize`` and ``load_checkpoint``
        # replace it, so a model that is only measured or compared allocates
        # no conv weights
        self.weight.data = np.broadcast_to(0.0, (c_out, c_in // groups, k, k))
        self.bias = Tensor(np.zeros(c_out), requires_grad=True) if bias else None
        self.stride = stride
        self.groups = groups

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride, groups=self.groups)

    def macs(self, h: int, w: int) -> int:
        return self.weight.size * ((h - 1) // self.stride + 1) * ((w - 1) // self.stride + 1)


class ChannelLayerNorm(Module):
    """Bias-free per-pixel normalization across channels."""

    def __init__(self, channels: int):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return layernorm_channels(x, self.gamma)

    def macs(self, h: int, w: int) -> int:
        return self.gamma.size * h * w


class ChannelAttention(Module):
    """Self-attention whose similarity matrix lives on the channel axis.

    Queries/keys are computed at a 1/spatial_ratio resolution (the 3x3
    depth-wise projection conv takes the stride, so the reduction costs
    no extra parameters) and keys/values at channels/channel_ratio
    width. Values keep full resolution, so the output stays (N,C,H,W).
    Each branch reduces before it projects: Q/K run the strided
    depth-wise conv first, V shrinks channels first.
    """

    def __init__(self, channels: int, heads: int, spatial_ratio: int, channel_ratio: int):
        reduced = channels // channel_ratio
        self.q_dw = Conv2d(channels, channels, 3, stride=spatial_ratio, groups=channels)
        self.q_proj = Conv2d(channels, channels, 1)
        self.k_dw = Conv2d(channels, channels, 3, stride=spatial_ratio, groups=channels)
        self.k_proj = Conv2d(channels, reduced, 1)
        self.v_proj = Conv2d(channels, reduced, 1)
        self.v_dw = Conv2d(reduced, reduced, 3, stride=1, groups=reduced)
        self.out_proj = Conv2d(channels, channels, 1)
        # one learnable log-temperature per head; zero means the scores
        # are scaled by exactly 1/sqrt(#query positions)
        self.temperature = Tensor(np.zeros((heads, 1, 1)), requires_grad=True)
        self.heads = heads
        self.channels = channels
        self.reduced = reduced

    def project_qkv(self, x: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """Head-split projections: q (N,h,d,S'), k (N,h,d',S'), v (N,h,d',S)."""
        n = x.shape[0]
        h = self.heads
        q = self.q_proj.forward(self.q_dw.forward(x))
        k = self.k_proj.forward(self.k_dw.forward(x))
        v = self.v_dw.forward(self.v_proj.forward(x))
        sp = q.shape[-2] * q.shape[-1]
        s = v.shape[-2] * v.shape[-1]
        q = reshape(q, (n, h, self.channels // h, sp))
        k = reshape(k, (n, h, self.reduced // h, sp))
        v = reshape(v, (n, h, self.reduced // h, s))
        return q, k, v

    def forward(self, x: Tensor) -> Tensor:
        n, c, height, width = x.shape
        q, k, v = self.project_qkv(x)
        del x           # each map goes once its last reader has run; unrecorded, it is freed
        scale = texp(-self.temperature) * (1.0 / math.sqrt(q.shape[-1]))
        scores = matmul(q, transpose(k, (0, 1, 3, 2))) * scale
        del q, k
        mixed = matmul(softmax(scores), v)
        del v
        return self.out_proj.forward(reshape(mixed, (n, c, height, width)))

    def macs(self, h: int, w: int) -> int:
        # Q/K project at the strided grid; the score and mixing matmuls contract
        # over it and over the full grid; softmax is one unit per score
        hp, wp = (h - 1) // self.q_dw.stride + 1, (w - 1) // self.q_dw.stride + 1
        pairs = self.channels * self.reduced // self.heads
        return (self.q_dw.macs(h, w) + self.q_proj.macs(hp, wp) + self.k_dw.macs(h, w)
                + self.k_proj.macs(hp, wp) + self.v_proj.macs(h, w) + self.v_dw.macs(h, w)
                + self.out_proj.macs(h, w) + pairs * (hp * wp + h * w + 1))


class ConvFeedForward(Module):
    """Expand channels, GELU, wide depth-wise conv, GELU, shrink."""

    def __init__(self, channels: int, expansion: float, kernel: int):
        hidden = int(round(expansion * channels))
        self.conv_in = Conv2d(channels, hidden, 1)
        self.conv_dw = Conv2d(hidden, hidden, kernel, groups=hidden)
        self.conv_out = Conv2d(hidden, channels, 1)

    def forward(self, x: Tensor) -> Tensor:
        if _records(x, self.conv_in.weight) or self.conv_dw.weight.shape[-1] < FFT_MIN_KERNEL:
            # nested, so no name holds a hidden activation its consumer is done with
            return self.conv_out.forward(gelu(self.conv_dw.forward(gelu(self.conv_in.forward(x)))))
        # no tape, so nothing reads conv_in's fresh output but this chain: GELU,
        # the FFT depth-wise conv and GELU overwrite it, one hidden-width map
        x = self.conv_in.forward(x)
        _gelu_into(x.data, x.data)
        _conv_dw_fft(x.data, self.conv_dw.weight.data, x.data)
        _gelu_into(x.data, x.data)
        return self.conv_out.forward(x)

    def macs(self, h: int, w: int) -> int:
        gelus = 2 * self.conv_dw.weight.shape[0] * h * w      # both at the hidden width
        return gelus + sum(c.macs(h, w) for c in (self.conv_in, self.conv_dw, self.conv_out))


class TransformerBlock(Module):
    """Pre-norm residual pair: attention then feed-forward."""

    def __init__(self, channels: int, heads: int, config: ModelConfig):
        self.norm1 = ChannelLayerNorm(channels)
        self.attn = ChannelAttention(channels, heads, config.spatial_ratio, config.channel_ratio)
        self.norm2 = ChannelLayerNorm(channels)
        self.ffn = ConvFeedForward(channels, config.expansion, config.ffn_kernel)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn.forward(self.norm1.forward(x))
        return x + self.ffn.forward(self.norm2.forward(x))

    def macs(self, h: int, w: int) -> int:
        return sum(part.macs(h, w) for part in (self.norm1, self.attn, self.norm2, self.ffn))


class Downsample(Module):
    """Pixel-unshuffle by 2, then a 1x1 conv from 4*C_in to C_out."""

    def __init__(self, c_in: int, c_out: int):
        self.proj = Conv2d(4 * c_in, c_out, 1)

    def forward(self, x: Tensor) -> Tensor:
        return self.proj.forward(pixel_unshuffle(x))

    def macs(self, h: int, w: int) -> int:
        return self.proj.macs(h // 2, w // 2)


class Upsample(Module):
    """1x1 conv from C_in to 4*C_out, then pixel-shuffle by 2."""

    def __init__(self, c_in: int, c_out: int):
        self.proj = Conv2d(c_in, 4 * c_out, 1)

    def forward(self, x: Tensor) -> Tensor:
        return pixel_shuffle(self.proj.forward(x))

    def macs(self, h: int, w: int) -> int:
        return self.proj.macs(h, w)


class MARNet(Module):
    """The end-to-end restorer: encoder levels, bottleneck, decoder, residual add.

    Parameters start as float64 zeros (ones for the norm gains), the conv
    weights as read-only zero-stride views that allocate nothing:
    ``build_model`` draws and casts them, ``load_checkpoint`` replaces them
    and the cost accountant reads only their sizes.
    """

    def __init__(self, config: ModelConfig):
        chans = config.level_channels
        self.config = config
        for key, kind, level in STAGES:
            c = chans[level]
            if kind == "blocks":
                part = [TransformerBlock(c, config.num_heads[level], config)
                        for _ in range(config.num_blocks[level])]
            elif kind == "down":
                part = Downsample(chans[level - 1], c)
            elif kind == "up":
                part = Upsample(chans[level + 1], c)
            elif kind == "reduce":
                part = Conv2d(2 * c, c, 1)
            elif kind == "intro":
                part = Conv2d(1, c, 3, bias=True)
            else:   # outro
                part = Conv2d(c, 1, 3, bias=True)
            setattr(self, key, part)

    def forward(self, image: Tensor) -> Tensor:
        """Restore a batch of slices (N,1,H,W), H and W positive multiples of 8."""
        if image.ndim != 4 or image.shape[1] != 1:
            raise ShapeError(f"expected (N,1,H,W), got {image.shape}")
        h, w = image.shape[2:]
        if h % 8 or w % 8 or min(h, w) < 8:
            raise ShapeError(f"spatial extents {h}x{w} must be positive multiples of 8")
        # the stage input lives only in ``live`` until it is popped into a call, and
        # CPython moves call arguments into the callee's frame, so each stage can
        # drop its input once it has read it
        live, skips = [image], []
        for key, kind, _ in STAGES:
            part = getattr(self, key)
            if kind == "down":
                skips.append(live[0])
            elif kind == "reduce":
                live.append(concat([live.pop(), skips.pop()], axis=1))
            for module in part if kind == "blocks" else [part]:
                live.append(module.forward(live.pop()))
        return image + live.pop()


def build_model(config: ModelConfig, seed: int = 0, dtype: str = "f32") -> MARNet:
    """A seeded model in ``dtype`` whose output head is zeroed, so the untrained
    network adds a zero residual: the identity restorer."""
    model = MARNet(config).initialize(np.random.default_rng(seed), dtype)
    model.outro.weight.data.fill(0.0)     # drawn last, so no other draw moves
    return model


# -- checkpoints ------------------------------------------------------------------


def _checkpoint_header(model: MARNet, dtype: str, crc: int) -> dict:
    """The JSON header ``save_checkpoint`` writes for ``model`` in ``dtype``: one
    manifest entry per parameter in ``named_params`` order, each MTSR1 record
    starting right after the last."""
    entries, offset = [], 0
    for name, t in model.named_params():
        entries.append({"name": name, "offset": offset, "shape": list(t.shape), "dtype": dtype})
        offset += tio._record_size(t.shape, _as_dtype(dtype))
    return {"config": model.config.to_dict(), "crc32": crc, "dtype": dtype, "manifest": entries}


def save_checkpoint(model: MARNet, path: Union[str, Path]) -> None:
    """Atomically write config, a tensor manifest, the payload's CRC32 and
    the MTSR1-encoded parameters (MCKP version 2), all in one dtype: mixed
    dtypes raise CheckpointError before anything is written."""
    dtypes = sorted({t.dtype_name for t in model.params()})
    if len(dtypes) != 1:
        raise CheckpointError(f"{path}: parameters mix dtypes {dtypes}")
    payload = BytesIO()
    for t in model.params():
        tio.write_tensor(payload, t.data)
    header_bytes = _json(_checkpoint_header(model, dtypes[0],
                                            zlib.crc32(payload.getbuffer()))).encode("utf-8")
    with tio._atomic_write(path) as tmp, open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC + struct.pack("<BI", CKPT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload.getbuffer())


def load_checkpoint(path: Union[str, Path]) -> MARNet:
    """Rebuild a model from a version 2 checkpoint in its dtype, bit-exactly.

    The header must be exactly the one ``save_checkpoint`` writes for its
    config, dtype and integer CRC32, compared as JSON text; the payload must
    match that CRC32, checked in one streaming pass before any tensor is
    read, and each tensor must have its parameter's shape and the header's
    dtype. Every defect, a version 1 file (no CRC) too, raises
    CheckpointError.
    """
    with open(path, "rb") as fh:
        head = fh.read(9)
        if len(head) != 9 or head[:4] != CKPT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        version, header_len = struct.unpack("<BI", head[4:])
        if version != CKPT_VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        if header_len > os.fstat(fh.fileno()).st_size - 9:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            config = ModelConfig.from_dict(header["config"])
            # every block has parameters, so a config with more blocks than
            # the manifest has entries cannot be this file's
            if sum(config.num_blocks) > len(header["manifest"]):
                raise ValueError(f"{sum(config.num_blocks)} blocks but "
                                 f"{len(header['manifest'])} manifest entries")
            model = MARNet(config)
            want = _checkpoint_header(model, header["dtype"], header["crc32"])
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
        if type(header["crc32"]) is not int or _json(header) != _json(want):
            raise CheckpointError(f"{path}: corrupt header (not the one save_checkpoint "
                                  f"writes for its config, dtype and crc32)")
        crc = 0
        while chunk := fh.read(_CRC_CHUNK):
            crc = zlib.crc32(chunk, crc)
        if crc != header["crc32"]:
            raise CheckpointError(f"{path}: payload CRC32 {crc:08x} does not match "
                                  f"the header's {header['crc32']:08x}")
        fh.seek(9 + header_len)
        for name, t in model.named_params():
            try:
                arr = tio.read_tensor(fh)
            except tio.FormatError as exc:
                raise CheckpointError(f"{path}: corrupt tensor {name!r} ({exc})") from exc
            if arr.shape != t.shape:
                raise CheckpointError(f"{path}: shape mismatch for {name!r}")
            if arr.dtype != _as_dtype(header["dtype"]):     # the CRC does not cover the header
                raise CheckpointError(f"{path}: {name!r} is {arr.dtype}, not {header['dtype']}")
            t.data = arr
    return model
