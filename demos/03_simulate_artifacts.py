#!/usr/bin/env python3
"""The synthetic metal-artifact pipeline, step by step.

Phantom -> attenuation -> sinogram -> beam hardening on metal rays ->
filtered back-projection -> streaky MA slice. Saves PNG previews when
matplotlib is installed.

Run: python3 demos/03_simulate_artifacts.py
"""

import numpy as np

from ctmar.metrics import psnr
from ctmar.simulate import (FIELD_MM, SimParams, fbp_reconstruct, hu_to_mu, jaw_phantom,
                            mu_to_hu, radon_forward, random_metal_mask,
                            simulate_ma_pair, smooth_phantom)

rng = np.random.default_rng(42)

# 1. Reconstruction sanity: project a smooth phantom and invert. Phantoms
#    are HU arrays; a pixel is FIELD_MM / size millimetres wide.
phantom = smooth_phantom(128, seed=1)
mu = hu_to_mu(phantom)
sino = radon_forward(mu, SimParams(n_angles=360), FIELD_MM / 128)
recon = mu_to_hu(fbp_reconstruct(sino, 128))
print(f"round trip PSNR on a smooth phantom: "
      f"{psnr(recon, phantom, 3800.0):.1f} dB")

# 2. A jaw-like slice with teeth, then a small implant on one of them.
jaw = jaw_phantom(64, rng)
mask = random_metal_mask(jaw, rng)
print(f"jaw phantom: {int((jaw > 1200).sum())} bright tooth pixels, "
      f"implant of {int(mask.sum())} px")

# 3. Degrade: the implant saturates the HU window and its rays are
#    beam-hardened, which smears streaks across the whole slice.
ma = simulate_ma_pair(jaw, mask)
diff = ma - jaw
print(f"MA slice: PSNR vs clean {psnr(ma, jaw, 3800.0):.1f} dB, "
      f"streak std outside the implant {diff[~mask].std():.0f} HU, "
      f"{int((ma >= 2800).sum())} px at the window top")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 4, figsize=(14, 3.6))
    for ax, (img, title) in zip(axes, [
            (jaw, "clean"), (ma, "with metal artifacts"),
            (diff, "difference"), (sino.values, "sinogram (smooth phantom)")]):
        ax.imshow(img, cmap="gray", aspect="auto")
        ax.set_title(title)
        ax.axis("off")
    fig.tight_layout()
    fig.savefig("demo_artifacts.png", dpi=110)
    print("previews saved to demo_artifacts.png")
except ImportError:
    print("matplotlib not installed; skipping previews")
