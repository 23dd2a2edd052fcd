"""Synthetic sinogram-domain metal-artifact simulation.

A deliberately simplified parallel-beam pipeline for desk-scale
training pairs: procedural jaw-like phantoms in Hounsfield units,
attenuation conversion, ray-marched forward projection, a smooth
beam-hardening distortion on metal-crossing rays, and Ram-Lak filtered
back-projection. Cone-beam geometry, polychromatic spectra and scatter
are out of scope; the streak/flare morphology is what matters here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from . import io as tio

MU_WATER = 0.0192          # attenuation of water, 1/mm
HU_MIN = -1000.0
HU_MAX = 2800.0
METAL_HU = 30000.0         # metal's pre-clip insertion value
METAL_PIXELS = (10, 200)   # least and most implant pixels in a metal-artifact slice
FIELD_MM = 160.0           # physical field of view represented by a slice
BEAM_HARDENING = 0.3       # strength of the s + b s^2 / (1 + s) distortion on metal rays
_SAMPLE_BLOCK = 1 << 13    # samples per bilinear block; its temporaries stay in cache


@dataclass
class Sinogram:
    """Parallel-beam line integrals: n_angles x n_detectors, angles uniform on [0, pi)."""

    values: np.ndarray
    spacing: float          # detector pitch == pixel pitch, in mm


@dataclass
class SimParams:
    n_angles: int = 180

    def __post_init__(self):
        if self.n_angles < 8:
            raise ValueError("n_angles must be at least 8")


def hu_to_mu(hu: np.ndarray) -> np.ndarray:
    """Attenuation coefficients (1/mm) after clipping HU to the scanner window."""
    return MU_WATER * (1.0 + np.clip(hu, HU_MIN, HU_MAX) / 1000.0)


def mu_to_hu(mu: np.ndarray) -> np.ndarray:
    return 1000.0 * (mu / MU_WATER - 1.0)


def _default_detectors(size: int) -> int:
    return int(math.ceil(size * math.sqrt(2.0)))


def _slab(origin: np.ndarray, direction: float, lo: float,
          hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """The interval [t0, t1] of t with lo <= origin + t * direction <= hi,
    per origin; t0 > t1 where there is none."""
    if direction == 0.0:
        # an axis-parallel ray is inside for every t or for none
        inside = (origin >= lo) & (origin <= hi)
        return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
    if direction < 0.0:
        lo, hi = hi, lo
    return (lo - origin) / direction, (hi - origin) / direction


def _bilinear(mu: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``mu`` sampled bilinearly at (rows, cols), bit-equal to scipy's
    ``map_coordinates(mu, [rows, cols], order=1, mode="constant", cval=0.0)``
    for a finite square ``mu``.

    It repeats that routine's arithmetic: for the fraction f of a
    coordinate, the weights are w0 = 1 - f and w1 = 1 - w0; each tap adds
    (v * w_row) * w_col to 0.0, in the order (0,0), (0,1), (1,0), (1,1);
    a sample outside [0, size-1] on either axis is 0.0. At exactly
    size-1, scipy reads the weight-0 second tap from the mirrored pixel,
    while here a zero row and column past the far edges serve it; both
    add a zero of either sign, which leaves a sum that started at 0.0
    unchanged, as long as the pixel is finite.
    """
    size = mu.shape[0]
    width = size + 1
    # a second zero row past the far edge gives the all-zero 2x2 footprint
    # that outside samples read
    padded = np.zeros((size + 2, width))
    padded[:size, :size] = mu
    flat = padded.reshape(-1)
    outside = size * width
    last = size - 1.0
    out = np.empty(rows.size)
    for lo in range(0, rows.size, _SAMPLE_BLOCK):
        y, x = rows[lo:lo + _SAMPLE_BLOCK], cols[lo:lo + _SAMPLE_BLOCK]
        fy, fx = np.floor(y), np.floor(x)
        wy0 = 1.0 - (y - fy)
        wy1 = 1.0 - wy0
        wx0 = 1.0 - (x - fx)
        wx1 = 1.0 - wx0
        inside = (y >= 0.0) & (y <= last) & (x >= 0.0) & (x <= last)
        tap = np.where(inside, fy * width + fx, outside).astype(np.intp)
        acc = flat[tap] * wy0
        acc *= wx0
        acc += 0.0      # scipy's sum starts at 0.0, so a -0.0 term reads +0.0
        acc += (flat[tap + 1] * wy0) * wx1
        tap += width
        acc += (flat[tap] * wy1) * wx0
        acc += (flat[tap + 1] * wy1) * wx1
        out[lo:lo + _SAMPLE_BLOCK] = acc
    return out


def radon_forward(mu: np.ndarray, params: SimParams, spacing: float) -> Sinogram:
    """Line integrals by bilinear ray marching at half-pixel steps.

    Each sub-ray is sampled only over its support: the march steps whose
    point lies in the bounding box of the non-zero pixels, widened by one
    pixel, plus one step of slack at each end for rounding. A bilinear
    sample whose 2x2 footprint misses every non-zero pixel is exactly 0.0,
    so the skipped samples are the zeros a full-grid march would have
    taken. They are scattered into a zeroed (sub-ray, step) buffer and
    reduced over the same array in the same order, which makes the
    sinogram byte-identical to sampling every step of every ray.

    The samples are scipy's order-1 spline interpolation with
    ``mode="constant"`` and ``cval=0.0``, as ``map_coordinates`` computes
    it: ``_bilinear`` repeats its weights, products and order of
    summation, so each sample is bit-equal to that routine's. The image
    must be finite: an inf or NaN pixel would make the two differ, and a
    line integral through it means nothing.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise ValueError(f"expected a square image, got {mu.shape}")
    if not np.isfinite(mu).all():
        raise ValueError("radon_forward needs a finite image; it holds inf or NaN")
    size = mu.shape[0]
    n_det = _default_detectors(size)
    center = (size - 1) / 2.0
    det = np.arange(n_det) - (n_det - 1) / 2.0
    step = 0.5
    half_span = size * math.sqrt(2.0) / 2.0
    march = np.arange(-half_span, half_span + step, step)

    # the non-zero pixels' bounding box, widened by one pixel: a sample
    # outside it has a 2x2 footprint of zeros; an all-zero image gets an
    # inverted box, which no ray enters
    rows = np.flatnonzero(mu.any(axis=1))
    cols = np.flatnonzero(mu.any(axis=0))
    x0, x1, y0, y1 = ((cols[0] - 1.0, cols[-1] + 1.0, rows[0] - 1.0, rows[-1] + 1.0)
                      if rows.size else (np.inf, -np.inf, np.inf, -np.inf))

    # each detector reading averages two half-offset sub-rays, which kills
    # the worst lattice-alias error of the bilinear footprint
    sub = np.concatenate([det - 0.25, det + 0.25])
    row_base = np.arange(sub.size) * march.size
    buf = np.empty(sub.size * march.size, dtype=np.float64)
    sino = np.empty((params.n_angles, n_det), dtype=np.float64)
    angles = np.arange(params.n_angles) * math.pi / params.n_angles
    for i, theta in enumerate(angles):
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        # detector axis (cos, sin); ray direction perpendicular to it:
        # px = center + sub * cos_t - march * sin_t
        # py = center + sub * sin_t + march * cos_t
        # summed left to right, so every kept sample's coordinates are
        # bit-equal to the full-grid march's
        ox, oy = center + sub * cos_t, center + sub * sin_t
        tx0, tx1 = _slab(ox, -sin_t, x0, x1)
        ty0, ty1 = _slab(oy, cos_t, y0, y1)
        # one step of slack at each end absorbs rounding in the division
        first = np.ceil((np.maximum(tx0, ty0) - march[0]) / step) - 1
        last = np.floor((np.minimum(tx1, ty1) - march[0]) / step) + 1
        first = np.clip(first, 0, march.size).astype(np.intp)
        last = np.clip(last, -1, march.size - 1).astype(np.intp)
        count = np.maximum(last - first + 1, 0)
        # step index k of every kept sample, sub-ray by sub-ray
        k = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - first, count)
        march_k = march[k]
        coords = np.empty((2, k.size))
        np.add(np.repeat(oy, count), march_k * cos_t, out=coords[0])
        np.subtract(np.repeat(ox, count), march_k * sin_t, out=coords[1])
        del march_k     # the working set stays below the full grid's
        k += np.repeat(row_base, count)     # flat (sub-ray, step) index
        buf.fill(0.0)
        buf[k] = _bilinear(mu, coords[0], coords[1])
        rays = buf.reshape(2, n_det, march.size).sum(axis=2) * step * spacing
        sino[i] = 0.5 * (rays[0] + rays[1])
    return Sinogram(values=sino, spacing=spacing)


def _ramp_kernel(size: int) -> np.ndarray:
    """Discrete Ram-Lak kernel (spatial form whose FFT is the band-limited ramp)."""
    kernel = np.zeros(size)
    kernel[0] = 0.25
    odd = np.arange(1, size // 2 + 1, 2)
    kernel[odd] = -1.0 / (math.pi * odd) ** 2
    kernel[-odd] = -1.0 / (math.pi * odd) ** 2
    return kernel


def fbp_reconstruct(sino: Sinogram, size: int) -> np.ndarray:
    """Ramp-filtered back-projection onto a size x size grid; returns attenuation in 1/mm."""
    n_angles, n_det = sino.values.shape
    # frequency-domain ramp, zero-padded to the next power of two >= 2 n_det
    padded = max(64, 1 << int(math.ceil(math.log2(2 * n_det))))
    ramp = np.real(np.fft.fft(_ramp_kernel(padded)))
    proj = np.zeros((n_angles, padded))
    proj[:, :n_det] = sino.values / sino.spacing     # to per-pixel units
    filtered = np.real(np.fft.ifft(np.fft.fft(proj, axis=1) * ramp[None, :], axis=1))
    filtered = filtered[:, :n_det]

    center = (size - 1) / 2.0
    det_center = (n_det - 1) / 2.0
    ys, xs = np.mgrid[0:size, 0:size]
    xs = xs - center
    ys = ys - center
    recon = np.zeros((size, size), dtype=np.float64)
    angles = np.arange(n_angles) * math.pi / n_angles
    for i, theta in enumerate(angles):
        t = xs * math.cos(theta) + ys * math.sin(theta) + det_center
        recon += np.interp(t.ravel(), np.arange(n_det), filtered[i],
                           left=0.0, right=0.0).reshape(size, size)
    # the projections were rescaled to pixel-unit path lengths before
    # filtering, so the back-projection already returns mu in 1/mm
    return recon * (math.pi / n_angles)


def simulate_ma_pair(clean: np.ndarray, metal_mask: np.ndarray) -> np.ndarray:
    """The MA slice in HU: the square HU slice ``clean`` degraded with
    inserted metal plus beam hardening, at a pixel pitch of
    ``FIELD_MM / size``.

    The metal's attenuation is taken from the unclipped ``METAL_HU``,
    so the reconstruction saturates the display window at the implant;
    the returned MA slice is clipped back to [-1000, 2800] HU.
    """
    mask = np.asarray(metal_mask).astype(bool)
    if mask.shape != clean.shape:
        raise ValueError(f"mask shape {mask.shape} does not match image {clean.shape}")
    n_metal = int(mask.sum())
    if n_metal < METAL_PIXELS[0]:
        raise ValueError(f"metal mask has {n_metal} pixels; a metal-artifact "
                         f"slice needs at least {METAL_PIXELS[0]}")

    params = SimParams()
    spacing = FIELD_MM / clean.shape[0]
    mu = hu_to_mu(clean)
    mu[mask] = MU_WATER * (1.0 + METAL_HU / 1000.0)
    sino = radon_forward(mu, params, spacing)
    hits = radon_forward(mask.astype(np.float64), params, spacing).values > 1e-9
    s = sino.values
    s[hits] = s[hits] + BEAM_HARDENING * s[hits] ** 2 / (1.0 + s[hits])

    ma_hu = np.clip(mu_to_hu(fbp_reconstruct(sino, clean.shape[0])), HU_MIN, HU_MAX)
    # the implant itself always reads as saturated metal
    ma_hu[mask] = HU_MAX
    return ma_hu


# -- procedural phantoms -----------------------------------------------------------


def _fill_ellipse(img: np.ndarray, cy: float, cx: float, ry: float, rx: float,
                  value: float, angle: float = 0.0) -> None:
    h, w = img.shape
    ys, xs = np.mgrid[0:h, 0:w]
    y = ys - cy
    x = xs - cx
    ca, sa = math.cos(angle), math.sin(angle)
    u = (x * ca + y * sa) / rx
    v = (-x * sa + y * ca) / ry
    img[u * u + v * v <= 1.0] = value


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """scipy.ndimage's ``gaussian_filter(img, sigma)`` bit for bit: kernel, edges, sum order."""
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w /= w.sum()
    for t in range(2):          # axis 0, then axis 1 through the transpose
        p, n = np.pad(img.T if t else img, ((r, r), (0, 0)), mode="symmetric"), img.shape[t]
        img = p[r:r + n] * w[r]
        for j in range(r):      # scipy's order: the centre tap, then pairs from the outside in
            img += (p[j:j + n] + p[2 * r - j:2 * r - j + n]) * w[j]
    return np.ascontiguousarray(img.T)


def smooth_phantom(size: int, seed: int) -> np.ndarray:
    """A smooth soft-tissue HU phantom for reconstruction sanity checks."""
    rng = np.random.default_rng(seed)
    img = np.full((size, size), HU_MIN)
    _fill_ellipse(img, size * 0.5, size * 0.5, size * 0.40, size * 0.36, 0.0)
    _fill_ellipse(img, size * 0.42, size * 0.48, size * 0.16, size * 0.20,
                  80.0, angle=rng.uniform(0, math.pi))
    _fill_ellipse(img, size * 0.62, size * 0.55, size * 0.10, size * 0.08, -60.0)
    return np.clip(_gaussian_blur(img, size / 48.0), HU_MIN, HU_MAX)


def jaw_phantom(size: int, rng: np.random.Generator) -> np.ndarray:
    """A dental-slice lookalike in HU: soft-tissue oval, bony arch, bright teeth."""
    img = np.full((size, size), HU_MIN)
    jitter = lambda s: 1.0 + rng.uniform(-s, s)
    cy, cx = size * 0.52 * jitter(0.03), size * 0.5 * jitter(0.03)
    _fill_ellipse(img, cy, cx, size * 0.40 * jitter(0.05), size * 0.36 * jitter(0.05),
                  rng.uniform(20.0, 60.0))
    # bony arch under the tooth row
    arch_r = size * 0.26 * jitter(0.05)
    arch_cy = cy + size * 0.04
    n_teeth = int(rng.integers(8, 13))
    tooth_angles = np.linspace(math.pi * 0.15, math.pi * 0.85, n_teeth)
    for a in tooth_angles:
        by = arch_cy + arch_r * math.sin(a) * 0.8
        bx = cx + arch_r * math.cos(a)
        _fill_ellipse(img, by, bx, size * 0.045, size * 0.045, rng.uniform(600.0, 1000.0))
    for a in tooth_angles:
        ty = arch_cy + arch_r * math.sin(a) * 0.8
        tx = cx + arch_r * math.cos(a)
        r_tooth = size * rng.uniform(0.022, 0.032)
        _fill_ellipse(img, ty, tx, r_tooth, r_tooth * jitter(0.2),
                      rng.uniform(1400.0, 2400.0), angle=rng.uniform(0, math.pi))
    return np.clip(_gaussian_blur(img, max(0.6, size / 128.0)), HU_MIN, HU_MAX)


def random_metal_mask(hu: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A blob of ``METAL_PIXELS`` implant pixels centred on a bright (tooth) structure."""
    size = hu.shape[0]
    bright = np.argwhere(hu > 1200.0)
    if len(bright):
        cy, cx = bright[rng.integers(len(bright))]
    else:
        cy, cx = size // 2, size // 2
    target = int(rng.integers(METAL_PIXELS[0], METAL_PIXELS[1] + 1))
    radius = max(1.9, math.sqrt(target / math.pi))
    ys, xs = np.mgrid[0:size, 0:size]
    mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2
    # grow until the in-bounds blob clears the floor
    while mask.sum() < METAL_PIXELS[0]:
        radius += 0.5
        mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= radius ** 2
    return mask


# -- dataset generation --------------------------------------------------------------


@dataclass
class PairRecord:
    pair_id: int
    clean_path: str
    ma_path: str
    split: str
    mask_pixel_count: int


@dataclass
class DatasetManifest:
    size: int
    seed: int
    spacing: float
    n_pairs: int
    pairs: List[PairRecord] = field(default_factory=list)

    def split_pairs(self, split: str) -> List[PairRecord]:
        return [p for p in self.pairs if p.split == split]


MANIFEST_NAME = "manifest.json"
SPLITS = ("train", "val", "test")


def _pair_record(index: int, n_pairs: int, mask_pixel_count: int) -> PairRecord:
    """Pair ``index`` of an ``n_pairs`` dataset as ``make_dataset`` writes it: the first
    three quarters (one pair at least) train, up to seven eighths val, the rest test."""
    split = ("train" if index < max(1, int(n_pairs * 0.75))
             else "val" if index < max(2, int(n_pairs * 0.875)) else "test")
    return PairRecord(pair_id=index, clean_path=f"{index:04d}_clean.mtsr",
                      ma_path=f"{index:04d}_ma.mtsr", split=split,
                      mask_pixel_count=mask_pixel_count)


def make_dataset(n_pairs: int, size: int, seed: int,
                 out_dir: Union[str, Path]) -> DatasetManifest:
    """Write ``n_pairs`` clean/MA MTSR1 pairs plus a manifest; fully seeded."""
    if n_pairs < 1 or size < 8 or size % 8:
        raise ValueError(f"need n_pairs >= 1 and a size that is a positive multiple of 8, "
                         f"got n_pairs={n_pairs}, size={size}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = DatasetManifest(size=size, seed=seed, spacing=FIELD_MM / size,
                               n_pairs=n_pairs)
    for i in range(n_pairs):
        rng = np.random.default_rng(seed ^ i)
        clean = jaw_phantom(size, rng)
        mask = random_metal_mask(clean, rng)
        ma = simulate_ma_pair(clean, mask)
        record = _pair_record(i, n_pairs, int(mask.sum()))
        tio.save_tensor(out / record.clean_path, clean.astype(np.float32))
        tio.save_tensor(out / record.ma_path, ma.astype(np.float32))
        manifest.pairs.append(record)
    with tio._atomic_write(out / MANIFEST_NAME) as tmp, open(tmp, "w", encoding="utf-8") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _check_fields(path: Path, what: str, entry, cls) -> None:
    """``entry`` must be a JSON object with exactly the fields of ``cls``."""
    if not isinstance(entry, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    names = {f.name for f in fields(cls)}
    problems = [f"{kind} fields {sorted(keys)}" for kind, keys in
                (("missing", names - entry.keys()), ("unknown", entry.keys() - names)) if keys]
    if problems:
        raise ValueError(f"{path}: {what} has {' and '.join(problems)}")


def load_manifest(data_dir: Union[str, Path]) -> DatasetManifest:
    """Read and validate a dataset's manifest: exactly DatasetManifest's fields,
    an integer seed, a size that is a positive multiple of 8 with the spacing
    ``FIELD_MM / size``, and ``n_pairs`` pairs that are what ``make_dataset``
    writes (``_pair_record``) but for an integer ``mask_pixel_count``."""
    path = Path(data_dir) / MANIFEST_NAME
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    _check_fields(path, "the top level", payload, DatasetManifest)
    size, pairs = payload["size"], payload.pop("pairs")
    if type(size) is not int or size < 8 or size % 8:
        raise ValueError(f"{path}: size {size!r} is not a positive multiple of 8")
    if json.dumps(payload["spacing"]) != json.dumps(FIELD_MM / size):
        raise ValueError(f"{path}: spacing {payload['spacing']!r} is not "
                         f"{FIELD_MM:g} / {size} = {FIELD_MM / size!r} mm")
    if type(payload["seed"]) is not int:
        raise ValueError(f"{path}: seed {payload['seed']!r} is not int")
    if not isinstance(pairs, list):
        raise ValueError(f"{path}: pairs is not a JSON list")
    if payload["n_pairs"] != len(pairs) or type(payload["n_pairs"]) is not int:
        raise ValueError(f"{path}: n_pairs {payload['n_pairs']!r} but {len(pairs)} pairs listed")
    records = []
    for i, entry in enumerate(pairs):
        _check_fields(path, f"pair {i}", entry, PairRecord)
        if type(entry["mask_pixel_count"]) is not int:
            raise ValueError(f"{path}: pair {i} mask_pixel_count "
                             f"{entry['mask_pixel_count']!r} is not int")
        record = _pair_record(i, len(pairs), entry["mask_pixel_count"])
        for key, value in asdict(record).items():
            if json.dumps(entry[key]) != json.dumps(value):     # so 1.0 and true are not 1
                raise ValueError(f"{path}: pair {i} {key} {entry[key]!r} is not {value!r}")
        records.append(record)
    # the names are fixed, but a slice file may be a link to another or out of the directory
    base = path.parent.resolve()
    files = {(base / name).resolve() for r in records for name in (r.clean_path, r.ma_path)}
    if len(files) != 2 * len(records) or not all(f.is_relative_to(base) for f in files):
        raise ValueError(f"{path}: the slice paths name a file twice or outside {base}")
    return DatasetManifest(**payload, pairs=records)


def _check_hu(hu: np.ndarray, what: str) -> None:
    """ValueError unless every value of ``hu`` is finite and inside [HU_MIN, HU_MAX]."""
    if not np.isfinite(hu).all():
        raise ValueError(f"{what} has non-finite values")
    if (hu < HU_MIN).any() or (hu > HU_MAX).any():
        raise ValueError(f"{what} spans {hu.min():g} to {hu.max():g} HU, outside the "
                         f"{HU_MIN:g} to {HU_MAX:g} HU window")


def load_pair(data_dir: Union[str, Path], record: PairRecord,
              size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (MA, clean) slices of ``record``; ValueError unless each is (size, size),
    finite and inside the HU window."""
    slices = []
    for key, what in (("ma_path", "slice"), ("clean_path", "clean slice")):
        where = Path(data_dir) / getattr(record, key)
        arr = tio.load_tensor(where)
        if arr.shape != (size, size):
            raise ValueError(f"{where}: pair {record.pair_id} slice has shape "
                             f"{arr.shape}, not ({size}, {size})")
        _check_hu(arr, f"{data_dir} pair {record.pair_id:04d}: {what}")
        slices.append(arr)
    return slices[0], slices[1]
