"""Command-line front end.

Subcommands: synth (dataset generation), train, infer, eval, count
(parameter/FLOP tables for the presets and ablation sweeps) and
gradcheck (finite-difference gradient audit). BLAS parallelism follows
the standard variables (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``),
which must be set before ``ctmar`` starts.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as tio
from .complexity import estimate_flops, expansion_variants, kernel_variants, reduction_variants
from .model import ModelConfig, build_model, load_checkpoint, preset
from .simulate import SPLITS, make_dataset
from .train import (HU_DATA_RANGE, TrainConfig, evaluate, gradient_check, restore_slice, train,
                    write_metrics_csv)


# -- subcommand handlers -------------------------------------------------------------


def cmd_synth(args) -> int:
    manifest = make_dataset(args.pairs, args.size, args.seed, args.out)
    print(f"wrote {2 * manifest.n_pairs} tensors + manifest to {args.out}")
    for split in SPLITS:
        print(f"  {split}: {len(manifest.split_pairs(split))} pairs")
    return 0


def cmd_train(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = ModelConfig.from_dict(json.load(fh))
    else:
        config = preset(args.preset)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch, seed=args.seed,
                      max_steps=args.max_steps)
    model = build_model(config, seed=args.seed)
    model, curve = train(model, args.data, cfg, out_dir=args.out, log=print)
    if curve:
        print(f"finished {len(curve)} steps; final loss {curve[-1].loss:.6f}")
    print(f"checkpoint and loss curve written to {args.out}")
    return 0


def cmd_infer(args) -> int:
    model = load_checkpoint(args.ckpt)
    arr = tio.load_tensor(args.input)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise ValueError(f"input tensor must be (H,W) or (1,H,W), got {arr.shape}")
    restored = restore_slice(model, arr)
    tio.save_tensor(args.output, restored.astype(arr.dtype))
    print(f"restored slice written to {args.output}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.ckpt)
    report = evaluate(model, args.data, split=args.split)
    print("image_id,psnr_db,ssim")
    for image_id, p, s in report.rows:
        print(f"{image_id},{p:.6f},{s:.8f}")
    print(f"mean,{report.mean_psnr:.6f},{report.mean_ssim:.8f}")
    print(f"# data_range = {HU_DATA_RANGE} HU")
    if args.out:
        write_metrics_csv(args.out, report)
        print(f"# written to {args.out}")
    return 0


def _cost_rows(args):
    res = args.res
    if args.ablation == "table2":
        rows = [("input MA", None)] + reduction_variants()
    elif args.ablation == "table3a":
        rows = kernel_variants()
    elif args.ablation == "table3b":
        rows = expansion_variants()
    else:
        names = ("L", "B", "T") if args.preset == "all" else (args.preset,)
        rows = [(f"preset {n}", preset(n)) for n in names]
    out = []
    for name, cfg in rows:
        if cfg is None:
            out.append((name, None, None))
        else:
            rep = estimate_flops(cfg, res, res)
            out.append((name, rep.params, rep.flops))
    return out


def cmd_count(args) -> int:
    rows = _cost_rows(args)
    if args.csv:
        print("variant,params,flops_mac")
        for name, params, flops in rows:
            p = "" if params is None else str(params)
            f = "" if flops is None else f"{flops:.0f}"
            print(f"{name},{p},{f}")
    else:
        print(f"{'variant':<16} {'Params(M)':>10} {'FLOPs(G, MAC)':>14}")
        for name, params, flops in rows:
            p = "-" if params is None else f"{params / 1e6:.2f}"
            f = "-" if flops is None else f"{flops / 1e9:.2f}"
            print(f"{name:<16} {p:>10} {f:>14}")
    return 0


def cmd_gradcheck(args) -> int:
    result = gradient_check(seed=args.seed, n_samples=args.samples)
    print(f"sampled {result['n_samples']} parameters")
    print(f"max relative error: {result['max_rel_error']:.3e} "
          f"(worst: {result['worst_param']})")
    ok = result["max_rel_error"] < 1e-4
    print("PASS" if ok else "FAIL", "(threshold 1e-4)")
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctmar",
        description="CT metal artifact reduction: synthesize data, train, "
                    "restore, evaluate, and account for model complexity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic clean/MA dataset")
    p.add_argument("--pairs", type=int, default=8, help="number of pairs (default 8)")
    p.add_argument("--size", type=int, default=64,
                   help="slice extent, divisible by 8 (default 64)")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model on a synthesized dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--preset", default="T", choices=["L", "B", "T"],
                       help="architecture preset (default T)")
    group.add_argument("--config", help="JSON file with a full model config")
    p.add_argument("--epochs", type=int, default=30, help="epochs (default 30)")
    p.add_argument("--batch", type=int, default=2, help="batch size (default 2)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="optional hard cap on optimizer steps")
    p.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="restore one slice from an MTSR1 tensor")
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--input", required=True, help="input MTSR1 tensor (HU)")
    p.add_argument("--output", required=True, help="output MTSR1 tensor (HU)")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="PSNR/SSIM of a checkpoint on a dataset split")
    p.add_argument("--ckpt", required=True, help="checkpoint file")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", default="test", choices=SPLITS,
                   help="dataset split (default test)")
    p.add_argument("--out", default=None, help="optional CSV output path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("count", help="parameter/FLOP tables (1 MAC = 1 FLOP unit)")
    p.add_argument("--preset", default="all", choices=["L", "B", "T", "all"],
                   help="preset to report (default all)")
    p.add_argument("--ablation", default=None,
                   choices=["table2", "table3a", "table3b"],
                   help="report an ablation sweep instead of presets: attention "
                        "down-sampling, feed-forward kernel size, or expansion")
    p.add_argument("--res", type=int, default=400,
                   help="input extent for FLOPs (default 400)")
    p.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("gradcheck", help="finite-difference audit of the autodiff")
    p.add_argument("--seed", type=int, default=0, help="seed (default 0)")
    p.add_argument("--samples", type=int, default=50,
                   help="parameter scalars to probe (default 50)")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("config:", json.dumps(resolved, default=str, sort_keys=True))
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
