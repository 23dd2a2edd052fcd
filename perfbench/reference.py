"""Computations made apart from ctmar, used to check its outputs.

Nothing here imports ctmar. Each function restates a documented
definition: the MTSR1 and MCKP file layouts, the restoration network's
block description, PSNR/SSIM, the cosine-with-restart schedule, the
dataset split rule and the projection of a uniform disc.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.signal import correlate2d
from scipy.special import erf

MTSR_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


# -- file formats -----------------------------------------------------------------


def mtsr_bytes(array: np.ndarray) -> bytes:
    """One MTSR1 record: magic, version 1, dtype code, rank, u32 extents, payload."""
    arr = np.ascontiguousarray(array, dtype="<f4")
    head = b"MTSR" + struct.pack("<BBB", 1, 0, arr.ndim)
    return head + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes()


def parse_mtsr(buf: bytes, offset: int = 0) -> tuple:
    """(array, dtype code, bytes consumed) of the record at ``offset``."""
    if buf[offset:offset + 4] != b"MTSR":
        raise ValueError("not an MTSR1 record")
    version, code, rank = struct.unpack_from("<BBB", buf, offset + 4)
    if version != 1 or code not in MTSR_DTYPES:
        raise ValueError(f"unexpected MTSR1 version {version} or dtype code {code}")
    shape = struct.unpack_from(f"<{rank}I", buf, offset + 7)
    start = offset + 7 + 4 * rank
    dt = MTSR_DTYPES[code]
    count = int(np.prod(shape)) if rank else 1
    end = start + count * dt.itemsize
    if end > len(buf):
        raise ValueError("truncated MTSR1 payload")
    arr = np.frombuffer(buf, dtype=dt, count=count, offset=start).reshape(shape)
    return arr, code, end - offset


def read_mtsr(path: Path) -> tuple:
    """(array, dtype code) of a one-record MTSR1 file."""
    buf = Path(path).read_bytes()
    arr, code, used = parse_mtsr(buf)
    if used != len(buf):
        raise ValueError(f"{path}: trailing bytes after the record")
    return arr, code


def read_mckp(path: Path) -> tuple:
    """(config dict, {parameter name: f64 array}) of an MCKP checkpoint.

    Layout: magic ``MCKP``, u8 version, u32 header length, a JSON header
    holding the config and a name/offset/shape manifest, then the MTSR1
    records at their offsets from the end of the header.
    """
    buf = Path(path).read_bytes()
    if buf[:4] != b"MCKP":
        raise ValueError(f"{path}: not a checkpoint")
    _, header_len = struct.unpack_from("<BI", buf, 4)
    header = json.loads(buf[9:9 + header_len].decode("utf-8"))
    base = 9 + header_len
    params = {}
    for entry in header["manifest"]:
        arr, _, _ = parse_mtsr(buf, base + entry["offset"])
        if list(arr.shape) != entry["shape"]:
            raise ValueError(f"{path}: shape mismatch for {entry['name']}")
        params[entry["name"]] = arr.astype(np.float64)
    return header["config"], params


# -- the restoration network, from its block description ---------------------------


def _conv(x, w, b=None, stride=1):
    """Zero-padded 'same' cross-correlation, dense or depth-wise, then stride.

    ``x`` is (C,H,W); ``w`` is (O, C, k, k) for a dense conv or (C, 1, k, k)
    for a depth-wise one (one filter per channel).
    """
    out_ch, in_per_group, k, _ = w.shape
    if k == 1 and in_per_group == x.shape[0]:
        y = np.tensordot(w[:, :, 0, 0], x, axes=(1, 0))
    elif in_per_group == 1 and out_ch == x.shape[0]:
        y = np.stack([correlate2d(x[c], w[c, 0], mode="same") for c in range(out_ch)])
    else:
        y = np.stack([sum(correlate2d(x[c], w[o, c], mode="same") for c in range(x.shape[0]))
                      for o in range(out_ch)])
    y = y[:, ::stride, ::stride]
    if b is not None:
        y = y + b[:, None, None]
    return y


def _layernorm(x, gamma, eps=1e-6):
    mu = x.mean(axis=0)
    var = ((x - mu) ** 2).mean(axis=0)
    return (x - mu) / np.sqrt(var + eps) * gamma[:, None, None]


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _unshuffle(x):
    """(C,H,W) -> (4C, H/2, W/2); pixel (dy,dx) of each 2x2 block goes to channel 4c+2dy+dx."""
    c, h, w = x.shape
    out = np.empty((c, 4, h // 2, w // 2))
    for dy in range(2):
        for dx in range(2):
            out[:, 2 * dy + dx] = x[:, dy::2, dx::2]
    return out.reshape(4 * c, h // 2, w // 2)


def _shuffle(x):
    """Exact inverse of ``_unshuffle``."""
    c4, h, w = x.shape
    src = x.reshape(c4 // 4, 4, h, w)
    out = np.empty((c4 // 4, 2 * h, 2 * w))
    for dy in range(2):
        for dx in range(2):
            out[:, dy::2, dx::2] = src[:, 2 * dy + dx]
    return out


def _attention(x, p, prefix, spatial_ratio):
    """Channel self-attention: Q/K from a strided 3x3 depth-wise conv then a
    1x1 projection (K to reduced width), V from a 1x1 projection to reduced
    width then a 3x3 depth-wise conv; scores are channels x reduced channels
    per head, scaled by exp(-temperature)/sqrt(#query positions)."""
    c, h, w = x.shape
    t = p[prefix + "temperature"]
    heads = t.shape[0]
    q = _conv(_conv(x, p[prefix + "q_dw.weight"], stride=spatial_ratio), p[prefix + "q_proj.weight"])
    k = _conv(_conv(x, p[prefix + "k_dw.weight"], stride=spatial_ratio), p[prefix + "k_proj.weight"])
    v = _conv(_conv(x, p[prefix + "v_proj.weight"]), p[prefix + "v_dw.weight"])
    positions = q.shape[1] * q.shape[2]
    q = q.reshape(heads, c // heads, positions)
    k = k.reshape(heads, k.shape[0] // heads, positions)
    v = v.reshape(heads, v.shape[0] // heads, h * w)
    scores = q @ k.transpose(0, 2, 1) * (np.exp(-t) / math.sqrt(positions))
    mixed = (_softmax(scores) @ v).reshape(c, h, w)
    return _conv(mixed, p[prefix + "out_proj.weight"])


def _block(x, p, prefix, spatial_ratio):
    """Pre-norm residual pair: attention, then expand/GELU/depth-wise/GELU/shrink."""
    x = x + _attention(_layernorm(x, p[prefix + "norm1.gamma"]), p, prefix + "attn.",
                       spatial_ratio)
    y = _layernorm(x, p[prefix + "norm2.gamma"])
    y = _gelu(_conv(y, p[prefix + "ffn.conv_in.weight"]))
    y = _gelu(_conv(y, p[prefix + "ffn.conv_dw.weight"]))
    return x + _conv(y, p[prefix + "ffn.conv_out.weight"])


def _level(x, p, key, spatial_ratio):
    i = 0
    while f"{key}.{i}.norm1.gamma" in p:
        x = _block(x, p, f"{key}.{i}.", spatial_ratio)
        i += 1
    if i == 0:
        raise ValueError(f"checkpoint has no blocks under {key!r}")
    return x


def restore_reference(config: dict, params: dict, hu: np.ndarray) -> np.ndarray:
    """Restore one (H,W) HU slice in f64: a three-level U-Net of transformer
    blocks around a bottleneck, predicting a residual added to the input.

    Intensities enter divided by 4096 and leave multiplied by it.
    """
    p, rs = params, config["spatial_ratio"]
    image = hu.astype(np.float64)[None] / 4096.0
    x = _conv(image, p["intro.weight"], p["intro.bias"])
    e1 = _level(x, p, "enc1", rs)
    e2 = _level(_conv(_unshuffle(e1), p["down1.proj.weight"]), p, "enc2", rs)
    e3 = _level(_conv(_unshuffle(e2), p["down2.proj.weight"]), p, "enc3", rs)
    b = _level(_conv(_unshuffle(e3), p["down3.proj.weight"]), p, "bottleneck", rs)
    d3 = np.concatenate([_shuffle(_conv(b, p["up3.proj.weight"])), e3])
    d3 = _level(_conv(d3, p["reduce3.weight"]), p, "dec3", rs)
    d2 = np.concatenate([_shuffle(_conv(d3, p["up2.proj.weight"])), e2])
    d2 = _level(_conv(d2, p["reduce2.weight"]), p, "dec2", rs)
    d1 = np.concatenate([_shuffle(_conv(d2, p["up1.proj.weight"])), e1])
    d1 = _level(_conv(d1, p["reduce1.weight"]), p, "dec1", rs)
    residual = _conv(d1, p["outro.weight"], p["outro.bias"])
    return (image + residual)[0] * 4096.0


# -- restoration metrics --------------------------------------------------------------


def psnr(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """10 log10(range^2 / MSE), capped at 100 dB for identical inputs."""
    mse = float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))
    return 100.0 if mse == 0.0 else 10.0 * math.log10(data_range ** 2 / mse)


def ssim(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """Mean SSIM map: 11x11 Gaussian window (sigma 1.5, unit sum), K1 0.01,
    K2 0.03, local statistics over valid window positions only."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    g = np.exp(-((np.arange(11) - 5.0) ** 2) / (2.0 * 1.5 ** 2))
    win = np.outer(g, g) / np.outer(g, g).sum()

    def local(img):
        return correlate2d(img, win, mode="valid")

    mu_a, mu_b = local(a), local(b)
    var_a = local(a * a) - mu_a ** 2
    var_b = local(b * b) - mu_b ** 2
    cov = local(a * b) - mu_a * mu_b
    c1, c2 = (0.01 * data_range) ** 2, (0.03 * data_range) ** 2
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float(np.mean(num / den))


# -- training schedule, split rule, projection ---------------------------------------


def sgdr_lr(step: int, steps_per_epoch: int, period_epochs: int,
            lr_max: float, lr_min: float) -> float:
    """Cosine annealing with a warm restart every ``period_epochs`` epochs
    (SGDR), at 0-based ``step`` with the position inside an epoch counted
    in whole batches."""
    epoch, batch = divmod(step, steps_per_epoch)
    t = (epoch % period_epochs + batch / steps_per_epoch) / period_epochs
    return lr_min + (lr_max - lr_min) * (1.0 + math.cos(math.pi * t)) / 2.0


def split_of(index: int, n_pairs: int) -> str:
    """The manifest rule: the first 75 % (at least one) train, up to 87.5 %
    (at least the second pair) val, the rest test."""
    if index < max(1, math.floor(0.75 * n_pairs)):
        return "train"
    if index < max(2, math.floor(0.875 * n_pairs)):
        return "val"
    return "test"


def disc_projection(offsets: np.ndarray, radius: float, mu: float) -> np.ndarray:
    """Line integral of a uniform disc at signed distance ``t``: 2 mu sqrt(r^2 - t^2)."""
    return 2.0 * mu * np.sqrt(np.clip(radius ** 2 - offsets ** 2, 0.0, None))
