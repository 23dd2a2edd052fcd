#!/usr/bin/env python3
"""A miniature end-to-end run: synthesize, train briefly, evaluate.

Uses a small model and a few dozen steps so it finishes in about a
minute; real runs just raise the epochs and model size.

Run: python3 demos/04_train_and_eval.py
"""

import tempfile
from pathlib import Path

from ctmar.model import ModelConfig, build_model, load_checkpoint
from ctmar.simulate import make_dataset
from ctmar.train import TrainConfig, evaluate, train

# the dataset, checkpoints and loss curve live only as long as the demo
with tempfile.TemporaryDirectory(prefix="ctmar_demo_") as tmp:
    data = Path(tmp) / "data"
    run = Path(tmp) / "run"

    make_dataset(n_pairs=6, size=32, seed=7, out_dir=data)

    config = ModelConfig(base_channels=8, num_blocks=(1, 1, 1, 1), num_heads=(1, 1, 1, 1))
    model = build_model(config, seed=0)

    before = evaluate(model, data, split="train")
    print(f"before training: {before.mean_psnr:.2f} dB / SSIM {before.mean_ssim:.4f} "
          f"(identity restorer, so this is the MA input quality)")

    cfg = TrainConfig(epochs=40, batch_size=3, seed=1)
    model, curve = train(model, data, cfg, out_dir=run)
    print(f"trained {len(curve)} steps; loss {curve[0].loss:.5f} -> {curve[-1].loss:.5f}")

    after = evaluate(load_checkpoint(run / "model_final.mckp"), data, split="train")
    print(f"after training:  {after.mean_psnr:.2f} dB / SSIM {after.mean_ssim:.4f}")

print("loss curve, first and last steps (step, lr, loss):")
for point in curve[:3] + curve[-3:]:
    print(f"  {point.step:4d}  {point.lr:.3e}  {point.loss:.5f}")
