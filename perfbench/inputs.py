"""Seeded inputs for the workloads, made before the workload process starts.

The phantoms and their metal-artifact counterparts are drawn here with
numpy alone, so the program under test receives only finished files and
its own simulator plays no part in them. Pairs are written as MTSR1
slices with a manifest in the layout ``ctmar.simulate.load_manifest``
reads.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from reference import mtsr_bytes, split_of

HU_MIN, HU_MAX = -1000.0, 2800.0


def _ellipse(yy, xx, cy, cx, ry, rx, angle=0.0):
    ca, sa = math.cos(angle), math.sin(angle)
    u = ((xx - cx) * ca + (yy - cy) * sa) / rx
    v = (-(xx - cx) * sa + (yy - cy) * ca) / ry
    return u * u + v * v <= 1.0


def phantom_pair(rng: np.random.Generator, size: int) -> tuple:
    """(MA slice, clean slice, metal pixel count), f32 HU.

    The clean slice is a soft-tissue oval with a bony arch and a row of
    teeth. The MA slice adds a metal disc on one tooth, saturated at
    2800 HU, a dark shift over the body and a dark halo round the metal,
    and alternating dark/bright streaks through it.
    """
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.full((size, size), HU_MIN)
    cy, cx = size * rng.uniform(0.48, 0.54), size * rng.uniform(0.47, 0.53)
    img[_ellipse(yy, xx, cy, cx, size * 0.40, size * 0.36)] = rng.uniform(20.0, 60.0)
    arch = size * rng.uniform(0.24, 0.28)
    angles = np.linspace(0.15 * math.pi, 0.85 * math.pi, int(rng.integers(8, 13)))
    teeth = []
    for a in angles:
        ty, tx = cy + 0.04 * size + 0.8 * arch * math.sin(a), cx + arch * math.cos(a)
        img[_ellipse(yy, xx, ty, tx, size * 0.045, size * 0.045)] = rng.uniform(600.0, 1000.0)
        r = size * rng.uniform(0.022, 0.032)
        img[_ellipse(yy, xx, ty, tx, r, r, rng.uniform(0, math.pi))] = rng.uniform(1400.0, 2400.0)
        teeth.append((ty, tx))
    clean = np.clip(gaussian_filter(img, sigma=max(0.6, size / 128.0)), HU_MIN, HU_MAX)

    my, mx = teeth[int(rng.integers(len(teeth)))]
    metal = _ellipse(yy, xx, my, mx, *(2 * [max(2.0, size * rng.uniform(0.02, 0.04))]))
    along = np.hypot(xx - mx, yy - my)
    body = gaussian_filter((clean > -500.0).astype(np.float64), sigma=2.0)
    ma = clean - rng.uniform(100.0, 200.0) * body \
        - rng.uniform(200.0, 400.0) * np.exp(-(along / (0.15 * size)) ** 2)
    for k, theta in enumerate(rng.uniform(0, math.pi, size=int(rng.integers(4, 9)))):
        dist = (xx - mx) * math.sin(theta) - (yy - my) * math.cos(theta)
        sign = 1.0 if k % 2 else -1.0
        ma += sign * rng.uniform(300.0, 800.0) * np.exp(-(dist / 1.5) ** 2) \
            * np.exp(-along / (0.5 * size))
    ma = np.clip(ma, HU_MIN, HU_MAX)
    ma[metal] = HU_MAX
    return ma.astype(np.float32), clean.astype(np.float32), int(metal.sum())


def write_dataset(out_dir: Path, n_pairs: int, size: int, seed: int) -> None:
    """``n_pairs`` seeded pairs plus ``manifest.json`` in ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(n_pairs):
        ma, clean, metal = phantom_pair(np.random.default_rng([seed, i]), size)
        clean_name, ma_name = f"{i:04d}_clean.mtsr", f"{i:04d}_ma.mtsr"
        (out_dir / clean_name).write_bytes(mtsr_bytes(clean))
        (out_dir / ma_name).write_bytes(mtsr_bytes(ma))
        pairs.append({"pair_id": i, "clean_path": clean_name, "ma_path": ma_name,
                      "split": split_of(i, n_pairs), "mask_pixel_count": metal})
    manifest = {"size": size, "seed": seed, "spacing": 160.0 / size,
                "n_pairs": n_pairs, "pairs": pairs}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))


def write_checkpoint(path: Path, preset_name: str, seed: int) -> None:
    """A seeded checkpoint of a preset with a non-zero output head.

    A freshly built model has a zeroed head and restores every slice to
    itself; drawing the head like any other conv makes restored slices
    differ from their inputs.
    """
    from ctmar.model import build_model, preset, save_checkpoint

    model = build_model(preset(preset_name), seed=seed)
    rng = np.random.default_rng([seed, 1])
    w = model.outro.weight
    bound = 1.0 / math.sqrt(w.data[0].size)
    w.data = rng.uniform(-bound, bound, size=w.shape).astype(w.data.dtype)
    model.outro.bias.data = rng.uniform(-bound, bound, size=1).astype(w.data.dtype)
    save_checkpoint(model, path)
