"""Restoration quality metrics: PSNR and SSIM.

SSIM follows the standard recipe: an 11x11 Gaussian window with sigma
1.5, K1 = 0.01, K2 = 0.03, local statistics taken over valid window
positions only, and the mean of the resulting map reported.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PSNR_CAP_DB = 100.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


def psnr(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    """10 log10(range^2 / MSE); identical inputs report the 100 dB cap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if data_range <= 0:
        raise ValueError("data_range must be positive")
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return PSNR_CAP_DB
    return 10.0 * math.log10(data_range ** 2 / mse)


def _gaussian_kernel(size: int = SSIM_WINDOW, sigma: float = SSIM_SIGMA) -> np.ndarray:
    """The 1-D factor of the window: the window is the outer product of it with itself."""
    half = (size - 1) / 2.0
    g = np.exp(-((np.arange(size) - half) ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def _local_stats(img: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Window-weighted sums at every valid position (no padding), as one
    pass of the separable window's factor ``g`` along each axis."""
    rows = sliding_window_view(img, g.size, axis=1) @ g
    return sliding_window_view(rows, g.size, axis=0) @ g


def ssim(a: np.ndarray, b: np.ndarray, data_range: float) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.ndim != 2:
        raise ValueError(f"ssim expects 2-D images, got {a.shape}")
    if min(a.shape) < SSIM_WINDOW:
        raise ValueError(f"image smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} window")
    if data_range <= 0:
        raise ValueError("data_range must be positive")

    g = _gaussian_kernel()
    mu_a = _local_stats(a, g)
    mu_b = _local_stats(b, g)
    var_a = _local_stats(a * a, g) - mu_a ** 2
    var_b = _local_stats(b * b, g) - mu_b ** 2
    cov = _local_stats(a * b, g) - mu_a * mu_b

    c1 = (SSIM_K1 * data_range) ** 2
    c2 = (SSIM_K2 * data_range) ** 2
    num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
    den = (mu_a ** 2 + mu_b ** 2 + c1) * (var_a + var_b + c2)
    return float((num / den).mean())
