"""Output checks, run after the workload process has ended.

Each check compares an output with a computation made here, apart from
the program, or with a property of the method; none compares with a
stored copy of an earlier output. Every function returns the list of
failures, empty when the outputs are right.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from reference import (disc_projection, psnr, read_mckp, read_mtsr, restore_reference,
                       sgdr_lr, split_of, ssim)

HU_MIN, HU_MAX, HU_RANGE = -1000.0, 2800.0, 3800.0
LOSS_WINDOW = 3            # steps averaged at each end of a training round
# PSNR/SSIM restated here sum in another order than ctmar.metrics; in f64
# that moved SSIM by 3e-15 on the test slices, far inside these
PSNR_TOL_DB, SSIM_TOL = 1e-9, 1e-9
# restored HU of the f32 program against the f64 reference, as a share of
# the largest restored residual; see README.md for how it was chosen
REFERENCE_TOL = 1e-4
# uniform disc: worst error of a projection inside the disc's inner part,
# as a share of its peak 2 mu r; see README.md
DISC_TOL = 0.02


def check_train(work: Path, spec: dict, result: dict) -> list:
    failures = []
    first = result["rounds"][0]["curve"]
    for r, rnd in enumerate(result["rounds"]):
        curve = rnd["curve"]
        if len(curve) != spec["steps"]:
            failures.append(f"round {r}: {len(curve)} steps, expected {spec['steps']}")
            continue
        losses = [point[3] for point in curve]
        if not all(math.isfinite(x) for x in losses):
            failures.append(f"round {r}: non-finite loss")
        for i, (_, _, lr, _) in enumerate(curve):
            want = sgdr_lr(i, 1, spec["restart_period"], spec["lr_max"], spec["lr_min"])
            if not math.isclose(lr, want, rel_tol=1e-12, abs_tol=0.0):
                failures.append(f"round {r} step {i}: lr {lr!r}, schedule gives {want!r}")
        head = sum(losses[:LOSS_WINDOW]) / LOSS_WINDOW
        tail = sum(losses[-LOSS_WINDOW:]) / LOSS_WINDOW
        if not tail < head:
            failures.append(f"round {r}: loss did not fall ({head:.6g} -> {tail:.6g})")
        if curve != first:
            failures.append(f"round {r}: curve differs from round 0 from the same start")

    from ctmar.model import load_checkpoint
    from ctmar.tensor import Tensor
    reloaded = load_checkpoint(work / "train_out" / "model_final.mckp")
    again = reloaded.forward(Tensor(np.load(work / "probe_input.npy"))).data
    if not np.array_equal(again, np.load(work / "probe_in_memory.npy")):
        failures.append("reloaded final checkpoint does not reproduce the in-memory forward")
    return failures


def check_infer(work: Path, spec: dict, result: dict) -> list:
    failures = []
    data = work / "data"
    manifest = json.loads((data / "manifest.json").read_text())
    test = [p for p in manifest["pairs"] if p["split"] == "test"]
    restored = np.load(work / "restored.npy")
    if len(restored) != len(test) * len(result["rounds"]):
        return [f"{len(restored)} restored slices for {len(result['rounds'])} rounds "
                f"of {len(test)}"]
    k = 0
    for r, rnd in enumerate(result["rounds"]):
        if [row[0] for row in rnd["rows"]] != [f"{p['pair_id']:04d}" for p in test]:
            failures.append(f"round {r}: report rows {[row[0] for row in rnd['rows']]}")
            continue
        for (image_id, got_psnr, got_ssim), pair in zip(rnd["rows"], test):
            out = restored[k]
            k += 1
            clean, _ = read_mtsr(data / pair["clean_path"])
            ma, _ = read_mtsr(data / pair["ma_path"])
            if np.array_equal(out, ma):
                failures.append(f"round {r} image {image_id}: restored equals its input")
            if abs(got_psnr - psnr(out, clean, HU_RANGE)) > PSNR_TOL_DB:
                failures.append(f"round {r} image {image_id}: PSNR {got_psnr!r}, "
                                f"definition gives {psnr(out, clean, HU_RANGE)!r}")
            if abs(got_ssim - ssim(out, clean, HU_RANGE)) > SSIM_TOL:
                failures.append(f"round {r} image {image_id}: SSIM {got_ssim!r}, "
                                f"definition gives {ssim(out, clean, HU_RANGE)!r}")

    config, params = read_mckp(work / "model.mckp")
    x = np.load(work / "check_slice.npy")
    want = restore_reference(config, params, x)
    got = np.load(work / "check_restored.npy")
    scale = float(np.max(np.abs(want - x)))
    err = float(np.max(np.abs(got - want)))
    if got.shape != want.shape or not err <= REFERENCE_TOL * scale:
        failures.append(f"restored check slice differs from the reference forward by "
                        f"{err:.3g} HU (bound {REFERENCE_TOL * scale:.3g} HU)")
    return failures


def check_disc_projection() -> list:
    """radon_forward of a uniform disc against 2 mu sqrt(r^2 - t^2)."""
    from ctmar.simulate import SimParams, radon_forward

    size, radius, mu = 128, 40.0, 0.02
    c = (size - 1) / 2.0
    yy, xx = np.mgrid[0:size, 0:size]
    disc = np.where((yy - c) ** 2 + (xx - c) ** 2 <= radius ** 2, mu, 0.0)
    sino = radon_forward(disc, SimParams(n_angles=36), spacing=1.0).values
    t = np.arange(sino.shape[1]) - (sino.shape[1] - 1) / 2.0
    inner = np.abs(t) <= radius - 2.0
    err = np.max(np.abs(sino[:, inner] - disc_projection(t[inner], radius, mu)[None]))
    if not err <= DISC_TOL * 2 * mu * radius:
        return [f"disc projection off by {err:.4g} (bound {DISC_TOL * 2 * mu * radius:.4g})"]
    return []


def check_synth(work: Path, spec: dict, result: dict) -> list:
    failures = check_disc_projection()
    seen = {}
    for rnd in result["rounds"]:
        out = Path(rnd["dir"])
        manifest = json.loads((out / "manifest.json").read_text())
        n = spec["pairs"]
        if manifest["n_pairs"] != n or len(manifest["pairs"]) != n:
            failures.append(f"{out.name}: manifest lists {len(manifest['pairs'])} pairs, not {n}")
            continue
        for i, pair in enumerate(manifest["pairs"]):
            where = f"{out.name} pair {i}"
            if pair["split"] != split_of(i, n):
                failures.append(f"{where}: split {pair['split']}, rule gives {split_of(i, n)}")
            slices = {}
            for role in ("clean", "ma"):
                arr, code = read_mtsr(out / pair[f"{role}_path"])
                if code != 0 or arr.shape != (spec["size"], spec["size"]):
                    failures.append(f"{where} {role}: dtype code {code}, shape {arr.shape}")
                elif not (arr.min() >= HU_MIN and arr.max() <= HU_MAX):
                    failures.append(f"{where} {role}: values outside [{HU_MIN}, {HU_MAX}] HU")
                slices[role] = arr
            if int(np.sum(slices["ma"] == HU_MAX)) < pair["mask_pixel_count"]:
                failures.append(f"{where}: fewer than {pair['mask_pixel_count']} metal pixels")
            if np.array_equal(slices["ma"], slices["clean"]):
                failures.append(f"{where}: MA slice equals the clean slice")
            digest = hashlib.sha256(slices["clean"].tobytes()).hexdigest()
            if digest in seen:
                failures.append(f"{where}: same clean slice as {seen[digest]}")
            seen[digest] = where
        counts = {s: sum(p["split"] == s for p in manifest["pairs"])
                  for s in ("train", "val", "test")}
        want = {s: sum(split_of(i, n) == s for i in range(n)) for s in ("train", "val", "test")}
        if counts != want:
            failures.append(f"{out.name}: split counts {counts}, rule gives {want}")
    return failures


CHECKS = {"train": check_train, "infer": check_infer, "synth": check_synth}
