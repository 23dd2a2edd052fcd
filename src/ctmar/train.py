"""Training and evaluation: Adam, cosine annealing with warm restarts, L1 loss.

The network operates on window-normalized intensities. Slices are
stored in HU; dividing by 4096 (an exact power of two, so the round
trip is bit-exact) brings the [-1000, 2800] window into roughly unit
range. Metrics are reported on HU values with the 3800 HU window as
the PSNR/SSIM data range.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import metrics
from .model import MARNet, ModelConfig, build_model, save_checkpoint
from .simulate import load_manifest, load_pair
from .tensor import Tensor, central_difference, no_grad, tabs, tmean

NORM_SCALE = 1.0 / 4096.0          # exact in binary floating point
HU_DATA_RANGE = 3800.0             # the clipped scanner window
ADAM_BETAS = (0.9, 0.99)
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the loss stops being finite."""


@dataclass
class TrainConfig:
    lr_max: float = 1e-3
    lr_min: float = 1e-7
    restart_period: int = 30       # epochs per cosine cycle
    batch_size: int = 2            # desk-scale default
    epochs: int = 30
    max_steps: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.lr_min < self.lr_max:
            raise ValueError("need 0 < lr_min < lr_max")
        if self.restart_period < 1 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("restart_period, batch_size >= 1 and epochs >= 0 required")
        steps = self.max_steps
        if steps is not None and (type(steps) is not int or steps < 1):
            raise ValueError(f"max_steps must be None or a positive integer, got {steps!r}")


def cosine_lr(fraction: float, lr_max: float, lr_min: float) -> float:
    """Annealed rate at a position inside one restart period (0 = fresh start)."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * fraction))


def l1_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean absolute difference; the subgradient at ties is zero."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    return tmean(tabs(pred - target))


class Adam:
    """Bias-corrected Adam with ``ADAM_BETAS`` and ``ADAM_EPS`` over a fixed parameter list."""

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self, lr: float) -> None:
        beta1, beta2 = ADAM_BETAS
        self.t += 1
        bc1 = 1.0 - beta1 ** self.t
        bc2 = 1.0 - beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"gradient shape {g.shape} != param {p.data.shape}")
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# -- data plumbing ----------------------------------------------------------------


def normalize(hu: np.ndarray, dtype: np.dtype) -> np.ndarray:
    return (hu * NORM_SCALE).astype(dtype)


def denormalize(x: np.ndarray) -> np.ndarray:
    return x / NORM_SCALE


def load_split(data_dir: Union[str, Path], split: str) -> List[Tuple[str, np.ndarray, np.ndarray]]:
    """(pair id, MA slice, clean slice) for a dataset split, in HU."""
    rows = []
    for record in load_manifest(data_dir).split_pairs(split):
        ma, clean = load_pair(data_dir, record)
        rows.append((f"{record.pair_id:04d}", ma, clean))
    if not rows:
        raise ValueError(f"dataset at {data_dir} has no pairs in split {split!r}")
    return rows


# -- training loop ------------------------------------------------------------------


@dataclass
class CurvePoint:
    step: int
    epoch: int
    lr: float
    loss: float


def write_curve_csv(path: Union[str, Path], curve: Sequence[CurvePoint]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "epoch", "lr", "loss"])
        for point in curve:
            writer.writerow([point.step, point.epoch, f"{point.lr:.10g}",
                             f"{point.loss:.10g}"])


def train(model: MARNet, data_dir: Union[str, Path], cfg: TrainConfig,
          out_dir: Optional[Union[str, Path]] = None, log: Optional[Callable[[str], None]] = None
          ) -> Tuple[MARNet, List[CurvePoint]]:
    """Optimize the model on the train split; deterministic for a fixed seed.

    Emits one curve point per step and, when ``out_dir`` is given, a
    loss CSV plus a checkpoint refreshed at every epoch end.
    """
    pairs = load_split(data_dir, "train")
    dtype = model.intro.weight.data.dtype
    inputs = np.stack([normalize(ma, dtype) for _, ma, _ in pairs])[:, None]
    targets = np.stack([normalize(clean, dtype) for _, _, clean in pairs])[:, None]

    rng = np.random.default_rng(cfg.seed)
    adam = Adam(model.params())
    steps_per_epoch = math.ceil(len(pairs) / cfg.batch_size)
    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    curve: List[CurvePoint] = []
    step = 0
    done = False
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        for batch_idx in range(steps_per_epoch):
            pick = order[batch_idx * cfg.batch_size:(batch_idx + 1) * cfg.batch_size]
            fraction = ((epoch % cfg.restart_period) + batch_idx / steps_per_epoch) \
                / cfg.restart_period
            lr = cosine_lr(fraction, cfg.lr_max, cfg.lr_min)

            pred = model.forward(Tensor(inputs[pick]))
            loss = l1_loss(pred, Tensor(targets[pick]))
            loss_val = loss.item()
            if not math.isfinite(loss_val):
                raise TrainingDiverged(
                    f"non-finite loss {loss_val} at step {step} (epoch {epoch}, "
                    f"lr {lr:.3e}); try a lower lr_max or check the dataset")
            adam.zero_grad()
            loss.backward()
            adam.step(lr)

            step += 1
            curve.append(CurvePoint(step=step, epoch=epoch, lr=lr, loss=loss_val))
            if cfg.max_steps is not None and step >= cfg.max_steps:
                done = True
                break
        if log is not None:
            recent = [p.loss for p in curve[-steps_per_epoch:]]
            log(f"epoch {epoch}: loss {sum(recent) / len(recent):.6f} lr {lr:.3e}")
        if out is not None:
            save_checkpoint(model, out / "model_last.mckp")
        if done:
            break
    if out is not None:
        save_checkpoint(model, out / "model_final.mckp")
        write_curve_csv(out / "loss_curve.csv", curve)
    return model, curve


# -- evaluation ---------------------------------------------------------------------


@dataclass
class MetricsReport:
    """Per-image PSNR/SSIM rows plus their means, on HU values over ``HU_DATA_RANGE``."""

    rows: List[Tuple[str, float, float]] = field(default_factory=list)
    mean_psnr: float = 0.0
    mean_ssim: float = 0.0


def restore_slice(model: MARNet, hu: np.ndarray) -> np.ndarray:
    """Run one (H,W) HU slice through the model in its parameter dtype,
    recording no tape; returns HU. ValueError if the normalized slice or
    the restored one is not finite."""
    x = normalize(hu, model.intro.weight.data.dtype)
    if not np.isfinite(x).all():
        raise ValueError("slice has non-finite values")
    with no_grad():
        out = model.forward(Tensor(x[None, None])).data[0, 0]
    if not np.isfinite(out).all():
        raise ValueError("restored slice has non-finite values")
    return denormalize(out)


def evaluate(model: MARNet, data_dir: Union[str, Path], split: str = "test") -> MetricsReport:
    report = MetricsReport()
    for image_id, ma, clean in load_split(data_dir, split):
        try:
            if not np.isfinite(clean).all():
                raise ValueError("clean slice has non-finite values")
            restored = restore_slice(model, ma)
        except ValueError as exc:
            raise ValueError(f"{data_dir} pair {image_id}: {exc}") from exc
        report.rows.append((image_id,
                            metrics.psnr(restored, clean, HU_DATA_RANGE),
                            metrics.ssim(restored, clean, HU_DATA_RANGE)))
    report.mean_psnr = sum(r[1] for r in report.rows) / len(report.rows)
    report.mean_ssim = sum(r[2] for r in report.rows) / len(report.rows)
    return report


def write_metrics_csv(path: Union[str, Path], report: MetricsReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "psnr_db", "ssim"])
        for image_id, p, s in report.rows:
            writer.writerow([image_id, f"{p:.6f}", f"{s:.8f}"])
        writer.writerow(["mean", f"{report.mean_psnr:.6f}", f"{report.mean_ssim:.8f}"])


# -- gradient self-check ---------------------------------------------------------------


GRADCHECK_CONFIG = ModelConfig(base_channels=8, num_blocks=(1, 1, 1, 1),
                               num_heads=(1, 1, 1, 1))


def gradient_check(seed: int = 0, n_samples: int = 50) -> dict:
    """End-to-end L1-loss gradients vs central differences (step 1e-5), in f64.

    Builds the reduced configuration, runs it on one 16x16 slice, samples
    ``n_samples`` (at least 1) parameter scalars across every tensor, and
    returns the worst relative error together with per-sample details.
    """
    if n_samples < 1:
        raise ValueError(f"gradient check needs at least 1 sample, got {n_samples}")
    model = build_model(GRADCHECK_CONFIG, seed=seed, dtype="f64")
    rng = np.random.default_rng(seed + 1)
    # the head is built zeroed (identity restorer), which would block
    # gradient flow to everything upstream; move off that point first
    model.outro.initialize(rng, "f64")
    x_data = rng.normal(size=(1, 1, 16, 16))
    # keep residuals away from the L1 kink so the oracle stays smooth
    target_data = x_data + rng.choice([-1.0, 1.0], size=x_data.shape) * \
        rng.uniform(0.5, 1.5, size=x_data.shape)

    def loss_value() -> float:
        with no_grad():
            return l1_loss(model.forward(Tensor(x_data.copy())),
                           Tensor(target_data.copy())).item()

    loss = l1_loss(model.forward(Tensor(x_data.copy())), Tensor(target_data.copy()))
    loss.backward()

    named = list(model.named_params())
    flat_index = [(name, t, i) for name, t in named for i in range(t.size)]
    picks = rng.choice(len(flat_index), size=min(n_samples, len(flat_index)),
                       replace=False)
    samples = []
    for idx in picks:
        name, tensor, i = flat_index[idx]
        analytic = float(tensor.grad.ravel()[i])
        numeric = central_difference(loss_value, tensor.data, i, 1e-5)
        # the 1e-6 floor reflects the f64 central-difference noise floor
        # (~1e-12 absolute); below it, "relative" error is meaningless
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        samples.append({"param": name, "index": int(i), "analytic": analytic,
                        "numeric": numeric, "rel_error": rel})
    worst = max(samples, key=lambda s: s["rel_error"])
    return {"max_rel_error": worst["rel_error"], "worst_param": worst["param"],
            "n_samples": len(samples), "samples": samples}
