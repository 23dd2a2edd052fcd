"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The overfit criterion (8) trains for 500 Adam
steps and dominates the runtime. `test_criterion_8_same_phase_rule` runs
criterion 8's smoothness rule on synthetic curves, without training.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from ctmar import metrics
from ctmar.complexity import (
    attention_cost_comparison,
    count_params,
    estimate_flops,
    expansion_variants,
    kernel_variants,
    reduction_variants,
)
from ctmar.model import ModelConfig, build_model, preset
from ctmar.simulate import (
    SimParams,
    fbp_reconstruct,
    hu_to_mu,
    load_manifest,
    load_pair,
    make_dataset,
    mu_to_hu,
    radon_forward,
    smooth_phantom,
)
from ctmar.tensor import Tensor
from ctmar.train import (
    CurvePoint,
    TrainConfig,
    cosine_lr,
    gradient_check,
    load_split,
    normalize,
    restore_slice,
    train,
)

from test_metrics import ssim_reference

REPO_ROOT = Path(__file__).resolve().parents[1]

# Table I cost columns (params in M); FLOPs targets are exercised via Table II.
PRESET_PARAM_TARGETS = {"L": 11.76e6, "B": 6.88e6, "T": 0.40e6}
# Table II: FLOPs(G) at 400x400 on the L preset, baseline first.
TABLE2_FLOPS = [82.00, 67.17, 71.06, 60.25, 54.60, 52.63, 51.80]
# Table III-b: params(M) at expansion 1..4.
TABLE3B_PARAMS = [8.48e6, 11.76e6, 15.04e6, 18.32e6]

OVERFIT_MODEL = ModelConfig(base_channels=16, num_heads=(1, 1, 1, 1))
# Criterion 8's smoothness rule: mean loss over 50-step windows, each at least
# 2 % below the window at the same point of the previous cosine cycle.
SMOOTH_WINDOW = 50
SAME_PHASE_BOUND = 1.0 / 1.02


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{suffix}")
    assert passed, f"criterion {number} ({name}) failed{suffix}"


def same_phase_ratios(curve) -> list:
    """Mean loss of each window over that of the same-length slice one
    restart period earlier, for every window that starts a period or more in.

    Windows are ``SMOOTH_WINDOW`` steps counted from step 0. The period is
    read from the lr trace: the first step whose lr is above the one before.
    Empty when the trace has no restart.
    """
    lrs = [p.lr for p in curve]
    period = next((i for i in range(1, len(lrs)) if lrs[i] > lrs[i - 1]), None)
    if period is None:
        return []
    losses = np.array([p.loss for p in curve])
    ratios = []
    for start in range(0, len(losses), SMOOTH_WINDOW):
        if start >= period:
            window = losses[start:start + SMOOTH_WINDOW]
            earlier = losses[start - period:start - period + len(window)]
            ratios.append(float(window.mean() / earlier.mean()))
    return ratios


def same_phase_ok(ratios: list) -> bool:
    return bool(ratios) and max(ratios) <= SAME_PHASE_BOUND


@pytest.fixture(scope="module")
def overfit_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "pairs64"
    make_dataset(8, 64, seed=11, out_dir=out)
    return out


def test_criterion_1_parameter_reproduction():
    t0 = time.perf_counter()
    counts = {}
    for name, target in PRESET_PARAM_TARGETS.items():
        counts[name] = count_params(build_model(preset(name), seed=0))
    elapsed = time.perf_counter() - t0
    within = all(abs(counts[n] - t) <= 0.15 * t
                 for n, t in PRESET_PARAM_TARGETS.items())
    ordered = counts["T"] < counts["B"] < counts["L"]
    report(1, "parameter reproduction (presets)",
           within and ordered and elapsed < 1.0,
           f"L={counts['L']/1e6:.2f}M B={counts['B']/1e6:.2f}M "
           f"T={counts['T']/1e6:.3f}M in {elapsed:.2f}s")


def test_criterion_2_ablation_parameter_structure():
    rows = [(name, estimate_flops(cfg, 400, 400).params)
            for name, cfg in reduction_variants()]
    base = rows[0][1]
    s2_equal = abs(rows[1][1] - base) <= 0.01 * base
    c2_smaller = rows[2][1] < base
    sweep = [p for _, p in rows[3:]]
    non_increasing = all(a >= b for a, b in zip(sweep, sweep[1:]))
    report(2, "ablation parameter structure",
           s2_equal and c2_smaller and non_increasing,
           f"baseline={base/1e6:.2f}M S2={rows[1][1]/1e6:.2f}M "
           f"sweep={[round(p/1e6, 2) for p in sweep]}")


def test_criterion_3_flop_reproduction():
    rows = [(name, estimate_flops(cfg, 400, 400).flops)
            for name, cfg in reduction_variants()]
    flops = [f for _, f in rows]
    base = flops[0]
    ok = True
    details = []
    for got, target in zip(flops, TABLE2_FLOPS):
        got_red = 100.0 * (got - base) / base
        target_red = 100.0 * (target - TABLE2_FLOPS[0]) / TABLE2_FLOPS[0]
        ok &= abs(got_red - target_red) <= 5.0                      # +/-5 pp
        ok &= abs(got - target * 1e9) <= 0.20 * target * 1e9        # +/-20 %
        details.append(f"{got_red:+.1f}/{target_red:+.1f}")
    report(3, "FLOP reproduction (downsample sweep, 400x400)", ok,
           "reductions got/target %: " + " ".join(details[1:]))


def test_criterion_4_feedforward_trends():
    kernel_params = [estimate_flops(cfg, 400, 400).params
                     for _, cfg in kernel_variants()]
    strictly_up = all(a < b for a, b in zip(kernel_params, kernel_params[1:]))
    delta = kernel_params[3] - kernel_params[2]
    delta_ok = abs(delta - 0.33e6) <= 0.20 * 0.33e6
    gamma_params = [estimate_flops(cfg, 400, 400).params
                    for _, cfg in expansion_variants()]
    gamma_ok = all(abs(got - target) <= 0.15 * target
                   for got, target in zip(gamma_params, TABLE3B_PARAMS))
    report(4, "feed-forward kernel/expansion trends",
           strictly_up and delta_ok and gamma_ok,
           f"p-sweep={[round(p/1e6, 2) for p in kernel_params]} "
           f"d(p9-p7)={delta/1e6:.2f}M "
           f"gamma={[round(p/1e6, 2) for p in gamma_params]}")


def test_criterion_5_attention_complexity_claim():
    t0 = time.perf_counter()
    channel, spatial = attention_cost_comparison(48, 24, 64, 64, 32, 32)
    exact = channel == 5_898_240 and spatial == 805_306_368
    sweep_ok = True
    for hw in range(32, 257, 16):
        for c in range(16, 97, 8):
            ch, sp = attention_cost_comparison(c, c // 2, hw, hw, hw // 2, hw // 2)
            sweep_ok &= ch < sp
    elapsed = time.perf_counter() - t0
    report(5, "attention complexity claim", exact and sweep_ok and elapsed < 1.0,
           f"channel={channel} spatial={spatial} sweep in {elapsed:.2f}s")


def test_criterion_6_gradient_integrity():
    t0 = time.perf_counter()
    result = gradient_check(seed=3, n_samples=50)
    elapsed = time.perf_counter() - t0
    report(6, "gradient integrity (reduced config, f64)",
           result["max_rel_error"] < 1e-4 and elapsed < 300.0,
           f"max rel err {result['max_rel_error']:.2e} over "
           f"{result['n_samples']} params in {elapsed:.0f}s")


def test_criterion_7_identity_at_init():
    rng = np.random.default_rng(21)
    ok = True
    for name in ("L", "B", "T"):
        model = build_model(preset(name), seed=9)
        for _ in range(3):
            x = Tensor(rng.normal(size=(1, 1, 64, 64)).astype(np.float32) * 500.0)
            ok &= bool(np.array_equal(model.forward(x).data, x.data))
    report(7, "identity at initialization (bit-exact, all presets)", ok)


@pytest.mark.slow
def test_criterion_8_overfit_smoke(overfit_dataset):
    t0 = time.perf_counter()
    model = build_model(OVERFIT_MODEL, seed=1)
    pairs = load_split(overfit_dataset, "train")

    def train_set_l1(m):
        total = 0.0
        for _, ma, clean in pairs:
            pred = m.forward(Tensor(normalize(ma, np.float32)[None, None]))
            total += float(np.abs(pred.data[0, 0] - normalize(clean, np.float32)).mean())
        return total / len(pairs)

    initial_l1 = train_set_l1(model)
    cfg = TrainConfig(epochs=200, max_steps=500, seed=2)   # paper constants otherwise
    _, curve = train(model, overfit_dataset, cfg)
    final_l1 = train_set_l1(model)

    # The lr warm-restarts every 30 epochs (90 steps here), and the loss rises
    # after each restart by design, so neighbouring windows need not fall.
    # Windows one restart period apart sit at the same point of the schedule;
    # each must lie at least 2 % below its counterpart one period earlier.
    ratios = same_phase_ratios(curve)
    smooth_ok = same_phase_ok(ratios)
    smooth_detail = (f"{len(ratios)} same-phase windows, worst ratio "
                     f"{max(ratios):.3f} (bound {SAME_PHASE_BOUND:.3f})"
                     if ratios else "no warm restart in the lr trace")

    psnr_ma, psnr_restored = [], []
    for _, ma, clean in pairs:
        restored = restore_slice(model, ma)
        psnr_ma.append(metrics.psnr(ma, clean, 3800.0))
        psnr_restored.append(metrics.psnr(restored, clean, 3800.0))
    gain = float(np.mean(psnr_restored) - np.mean(psnr_ma))
    elapsed = time.perf_counter() - t0

    report(8, "overfit smoke test (500 steps)",
           final_l1 <= 0.10 * initial_l1 and gain >= 3.0
           and smooth_ok and elapsed < 1200.0,
           f"L1 {initial_l1:.5f}->{final_l1:.5f} "
           f"({100 * final_l1 / initial_l1:.1f}%), PSNR gain {gain:+.2f} dB, "
           f"{smooth_detail}, {elapsed:.0f}s")


def sawtooth_curve(n_steps: int, period: int, decay: float) -> list:
    """Loss that anneals with each cosine cycle and jumps at each restart;
    every cycle runs at ``decay`` times the level of the one before."""
    curve = []
    for i in range(n_steps):
        cycle, pos = divmod(i, period)
        lr = cosine_lr(pos / period, 1e-3, 1e-7)
        curve.append(CurvePoint(step=i + 1, epoch=i // 3, lr=lr,
                                loss=decay ** cycle * (0.2 + lr / 1e-3)))
    return curve


@pytest.mark.parametrize("period, decay, passes", [
    (90, 0.8, True),      # each cycle ends lower than the one before
    (90, 1.0, False),     # cycles repeat at the same level
    (500, 0.8, False),    # a single cosine cycle: no restart to align on
])
def test_criterion_8_same_phase_rule(period, decay, passes):
    ratios = same_phase_ratios(sawtooth_curve(500, period, decay))
    assert same_phase_ok(ratios) == passes


def test_criterion_9_simulator_sanity(overfit_dataset):
    phantom = smooth_phantom(128, seed=5)
    mu = hu_to_mu(phantom)
    sino = radon_forward(mu, SimParams(n_angles=360), phantom.spacing)
    recon = mu_to_hu(fbp_reconstruct(sino, 128))
    roundtrip = metrics.psnr(recon, phantom.pixels, 3800.0)

    manifest = load_manifest(overfit_dataset)
    n_tensor_files = len(list(Path(overfit_dataset).glob("*.mtsr")))
    metal_ok = True
    streak_ok = True
    for record in manifest.pairs:
        ma, clean = load_pair(overfit_dataset, record)
        hot = ma >= 2800.0
        metal_ok &= int(hot.sum()) >= 10
        streak_ok &= float(np.abs((ma - clean) * ~hot).sum()) > 0.0
    report(9, "simulator sanity",
           roundtrip >= 30.0 and metal_ok and streak_ok and n_tensor_files == 16,
           f"roundtrip {roundtrip:.1f} dB, {len(manifest.pairs)} MA slices checked, "
           f"{n_tensor_files} tensor files")


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(33)
    ok = True
    worst_p, worst_s = 0.0, 0.0
    for _ in range(20):
        a = rng.random((24, 24)) * 3800.0 - 1000.0
        b = a + rng.normal(size=(24, 24)) * rng.uniform(20.0, 400.0)
        # independent direct-formula references
        mse = float(((a - b) ** 2).mean())
        psnr_ref = 10.0 * math.log10(3800.0 ** 2 / mse)
        ssim_ref = ssim_reference(a, b, 3800.0)
        dp = abs(metrics.psnr(a, b, 3800.0) - psnr_ref)
        ds = abs(metrics.ssim(a, b, 3800.0) - ssim_ref)
        worst_p, worst_s = max(worst_p, dp), max(worst_s, ds)
        ok &= dp <= 1e-6 and ds <= 1e-6
        ok &= metrics.psnr(a, b, 3800.0) == metrics.psnr(b, a, 3800.0)
    x = rng.random((16, 16))
    ok &= metrics.ssim(x, x, 1.0) == pytest.approx(1.0, abs=1e-12)
    report(10, "metric oracles (20 pairs)", ok,
           f"max |dPSNR|={worst_p:.1e} max |dSSIM|={worst_s:.1e}")


def test_criterion_11_non_reproducibility_statement():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    ok = ("not\nreproduction targets" in readme
          or "not reproduction targets" in readme
          or "**not\nreproduction targets**" in readme) and "private" in readme
    report(11, "non-reproducibility statement documented", ok,
           "README states clinical-quality figures are out of scope")
