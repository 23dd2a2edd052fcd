"""Synthetic sinogram-domain metal-artifact simulation.

A deliberately simplified parallel-beam pipeline for desk-scale
training pairs: procedural jaw-like phantoms in Hounsfield units,
attenuation conversion, forward projection as strip integrals of square
pixels, a smooth beam-hardening distortion on metal-crossing rays, and
Ram-Lak filtered back-projection. Cone-beam geometry, polychromatic
spectra and scatter are out of scope; the streak/flare morphology is
what matters here.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from . import io as tio

MU_WATER = 0.0192          # attenuation of water, 1/mm
HU_MIN = -1000.0
HU_MAX = 2800.0
METAL_HU = 30000.0         # metal's pre-clip insertion value
METAL_PIXELS = (10, 200)   # least and most implant pixels in a metal-artifact slice
FIELD_MM = 160.0           # physical field of view represented by a slice
BEAM_HARDENING = 0.3       # strength of the s + b s^2 / (1 + s) distortion on metal rays


@dataclass
class Sinogram:
    """Parallel-beam line integrals: n_angles x n_detectors, angles uniform on [0, pi)."""

    values: np.ndarray
    spacing: float          # detector pitch == pixel pitch, in mm
    hits: Optional[np.ndarray] = None   # the rays through radon_forward's traced pixels


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


def _shadow_tails(t: np.ndarray, narrow: float, wide: float, out: np.ndarray) -> None:
    """Writes to ``out`` the mass beyond offset ``t`` >= 0 from the centre of
    box(narrow) convolved with box(wide), two unit-area boxes with
    0 <= narrow <= wide: the shadow of a unit square pixel on a detector
    axis at angle theta, for the widths |cos theta| and |sin theta|. The
    shadow is a trapezoid with a flat top of half-width (wide - narrow) / 2
    and linear edges ``narrow`` long; every term below is nonnegative."""
    flat = 0.5 * (wide - narrow)
    np.maximum(np.subtract(flat, t, out=out), 0.0, out=out)
    out /= wide
    if narrow > 0.0:            # at theta = 0 the shadow is the wide box, with no edges
        edge = np.clip(flat + narrow - t, 0.0, narrow)
        edge *= edge
        edge /= 2.0 * narrow * wide
        out += edge


def radon_forward(mu: np.ndarray, params: SimParams, spacing: float,
                  traced: Optional[np.ndarray] = None) -> Sinogram:
    """Parallel-beam projections of ``mu`` as exact strip integrals.

    Image model: pixel (row, col) is a square of side ``spacing`` mm and
    uniform attenuation ``mu[row, col]`` (1/mm), centred on (col, row) in
    pixel units. Detector model: at angle theta, detector j reads the mean
    line integral over a one-pixel-wide strip of rays perpendicular to
    (cos theta, sin theta), centred at offset j - (n_det - 1) / 2 from the
    image centre along that axis. So each pixel adds ``mu * spacing`` times
    the area of its square inside the strip, in square pixels.

    A pixel's shadow on the detector axis is a unit-area trapezoid at most
    sqrt(2) wide, centred inside the strip of detector j, so it falls on
    detectors j - 1, j and j + 1 only: the shadow's two tails beyond the
    strip's edges go to the outer two and the rest, at least half of it, to
    detector j. Every detector row sums to ``mu.sum() * spacing``; the
    corner pixels' shadows reach size / sqrt(2) from the centre, inside
    the row's half-width n_det / 2. Zero pixels cost nothing. The image
    must be finite: a line integral through an inf or NaN pixel means
    nothing. A boolean image ``traced`` (the metal) adds ``hits``, the
    rays where ``radon_forward(traced.astype(float), ...).values > 1e-9``,
    summed in this pass from the same strip weights in the same order.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1]:
        raise ValueError(f"expected a square image, got {mu.shape}")
    if not np.isfinite(mu).all():
        raise ValueError("radon_forward needs a finite image; it holds inf or NaN")
    size = mu.shape[0]
    n_det = _default_detectors(size)
    rows, cols = np.nonzero(mu if traced is None else (mu != 0) | traced)
    mass = mu[rows, cols] * spacing
    center = (size - 1) / 2.0
    x, y = cols - center, rows - center
    weights = np.empty((3, rows.size))
    sino = np.empty((params.n_angles, n_det), dtype=np.float64)
    picked = None if traced is None else np.flatnonzero(traced[rows, cols])
    hits = None if traced is None else np.empty((params.n_angles, n_det), dtype=bool)
    for i in range(params.n_angles):
        theta = i * math.pi / params.n_angles
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        # a pixel centre's detector coordinate plus 0.5: its floor is the
        # detector j whose strip holds the centre, and j + 1 the index of
        # that strip in a row padded with one detector at each end
        offset = x * cos_t
        offset += y * sin_t
        offset += n_det / 2.0
        near = np.floor(offset)
        offset -= near          # the centre's distance from the strip's lower edge
        # the tails beyond the strip's lower and upper edges
        narrow, wide = sorted((abs(cos_t), abs(sin_t)))
        _shadow_tails(offset, narrow, wide, out=weights[0])
        _shadow_tails(1.0 - offset, narrow, wide, out=weights[2])
        np.subtract(1.0, weights[0], out=weights[1])
        weights[1] -= weights[2]
        bins = near.astype(np.intp) + np.arange(3)[:, None]
        if traced is not None:
            hits[i] = np.bincount(bins[:, picked].ravel(), (weights[:, picked] * spacing).ravel(),
                                  minlength=n_det + 2)[1:-1] > 1e-9
        weights *= mass
        sino[i] = np.bincount(bins.ravel(), weights.ravel(), minlength=n_det + 2)[1:-1]
    return Sinogram(values=sino, spacing=spacing, hits=hits)


def _ramp_kernel(size: int) -> np.ndarray:
    """Discrete Ram-Lak kernel (spatial form whose FFT is the band-limited ramp)."""
    kernel = np.zeros(size)
    kernel[0] = 0.25
    odd = np.arange(1, size // 2 + 1, 2)
    kernel[odd] = -1.0 / (math.pi * odd) ** 2
    kernel[-odd] = -1.0 / (math.pi * odd) ** 2
    return kernel


def fbp_reconstruct(sino: Sinogram, size: int) -> np.ndarray:
    """Ramp-filtered back-projection onto a size x size grid; returns attenuation in 1/mm.
    A sinogram of fewer than ``_default_detectors(size)`` detectors is refused."""
    n_angles, n_det = sino.values.shape
    if n_det < _default_detectors(size):
        raise ValueError(f"{size}x{size} needs {_default_detectors(size)} detectors, got {n_det}")
    # frequency-domain ramp, zero-padded to the next power of two >= 2 n_det
    padded = max(64, 1 << int(math.ceil(math.log2(2 * n_det))))
    spectrum = np.fft.rfft(sino.values / sino.spacing, n=padded, axis=1)     # per-pixel units
    spectrum *= np.fft.rfft(_ramp_kernel(padded)).real
    # a copy, so that only the (n_angles, n_det) filtered projections stay
    # alive through the back-projection
    filtered = np.fft.irfft(spectrum, n=padded, axis=1)[:, :n_det].copy()
    del spectrum

    axis = np.arange(size) - (size - 1) / 2.0
    recon = np.zeros((size, size), dtype=np.float64)
    t, low, high, j = (np.empty((size, size), dtype) for dtype in (float, float, float, np.intp))
    for i, theta in enumerate(np.arange(n_angles) * math.pi / n_angles):
        np.add(axis * math.cos(theta), (axis * math.sin(theta))[:, None], out=t)
        t += (n_det - 1) / 2.0
        # with the detectors checked above, t lies in [0.207, n_det - 1.207]: j = int(t) is its
        # floor, below is np.interp's formula, and "clip" only skips the checked mode's copy
        np.copyto(j, t, casting="unsafe")
        np.take(filtered[i], j, out=low, mode="clip")
        np.take(filtered[i, 1:], j, out=high, mode="clip")
        high -= low
        high *= np.subtract(t, j, out=t)
        high += low
        recon += high
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

    mu = hu_to_mu(clean)
    mu[mask] = MU_WATER * (1.0 + METAL_HU / 1000.0)
    sino = radon_forward(mu, SimParams(), FIELD_MM / clean.shape[0], traced=mask)
    metal = sino.values[sino.hits]
    sino.values[sino.hits] = metal + BEAM_HARDENING * metal ** 2 / (1.0 + metal)

    ma_hu = np.clip(mu_to_hu(fbp_reconstruct(sino, clean.shape[0])), HU_MIN, HU_MAX)
    # the implant itself always reads as saturated metal
    ma_hu[mask] = HU_MAX
    return ma_hu


# -- procedural phantoms -----------------------------------------------------------


def _fill_ellipse(img: np.ndarray, cy: float, cx: float, ry: float, rx: float,
                  value: float, angle: float = 0.0) -> None:
    """Set ``value`` where u^2 + v^2 <= 1, testing only the window of rows and columns
    within max(rx, ry) + 1 of the centre, clipped to the image: none outside can pass."""
    r = max(rx, ry) + 1.0
    window = tuple(slice(*np.clip([math.floor(c - r), math.ceil(c + r) + 1], 0, n))
                   for c, n in zip((cy, cx), img.shape))
    ys, xs = np.ogrid[window]
    y, x = ys - cy, xs - cx
    ca, sa = math.cos(angle), math.sin(angle)
    u = (x * ca + y * sa) / rx
    v = (-x * sa + y * ca) / ry
    img[window][u * u + v * v <= 1.0] = value


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
    if n_pairs < 1 or size < 8 or size % 8 or seed < 0:
        raise ValueError(f"need n_pairs >= 1, a size that is a positive multiple of 8 and a "
                         f"seed >= 0, got n_pairs={n_pairs}, size={size}, seed={seed}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = DatasetManifest(size=size, seed=seed, spacing=FIELD_MM / size,
                               n_pairs=n_pairs)
    for i in range(n_pairs):
        rng = np.random.default_rng([seed, i])
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
    """Read and validate a dataset's manifest: UTF-8 JSON with exactly
    DatasetManifest's fields, an integer seed, a size that is a positive
    multiple of 8 with the spacing ``FIELD_MM / size``, and ``n_pairs`` pairs
    that are what ``make_dataset`` writes (``_pair_record``) but for an
    integer ``mask_pixel_count``."""
    path = Path(data_dir) / MANIFEST_NAME
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:     # undecodable, malformed or too deep
        raise ValueError(f"{path}: not UTF-8 JSON ({exc})") from exc
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
