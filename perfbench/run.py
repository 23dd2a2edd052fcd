"""Benchmark entry point: one workload per invocation.

    python3 perfbench/run.py --workload {train,infer,synth} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a source tree that has ``src/ctmar``. The
inputs are made from ``--seed`` here, the workload runs in a child
process (``workload.py``), its outputs are checked here, and the last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``). See README.md.
"""

from __future__ import annotations

import os

# fixed before numpy loads, here and in every child process
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_runs"
SETUP_REPEATS = 4          # set-up-only processes, plus the measured one
DEADLINE_S = 170.0         # the whole invocation stays inside 180 s

TRAIN_MODEL = {"base_channels": 16, "num_heads": [1, 1, 1, 1]}
TRAIN_SIZE, TRAIN_BATCH, TRAIN_STEPS = 64, 2, 30
INFER_PRESET, INFER_SIZE, INFER_PAIRS, CHECK_SIZE = "L", 128, 9, 64
SYNTH_SIZE, SYNTH_PAIRS = 128, 2


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def make_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's seeded inputs into ``work``; returns the spec the child reads."""
    import numpy as np
    from inputs import phantom_pair, write_checkpoint, write_dataset
    from reference import read_mtsr

    if workload == "train":
        write_dataset(work / "data", 3, TRAIN_SIZE, seed)   # 2 train pairs: one step per epoch
        ma, _ = read_mtsr(work / "data" / "0000_ma.mtsr")
        np.save(work / "probe_input.npy", (ma * np.float32(1 / 4096))[None, None])
        return {"data": str(work / "data"), "model": TRAIN_MODEL, "model_seed": seed,
                "train_seed": seed + 1, "steps": TRAIN_STEPS, "batch": TRAIN_BATCH,
                "size": TRAIN_SIZE, "lr_max": 1e-3, "lr_min": 1e-7, "restart_period": 30}
    if workload == "infer":
        write_dataset(work / "data", INFER_PAIRS, INFER_SIZE, seed)   # 2 test slices
        write_checkpoint(work / "model.mckp", INFER_PRESET, seed)
        ma, _, _ = phantom_pair(np.random.default_rng([seed, 2]), CHECK_SIZE)
        np.save(work / "check_slice.npy", ma)
        return {"data": str(work / "data"), "checkpoint": str(work / "model.mckp"),
                "size": INFER_SIZE}
    return {"pairs": SYNTH_PAIRS, "size": SYNTH_SIZE, "seed": seed}


def spawn(args, work: Path, result: Path, trace: int, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", str(args.seconds), "--trace", str(trace),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(result.read_text())


def main() -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("train", "infer", "synth"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "ctmar" / "__init__.py").is_file():
        return fail(f"no ctmar source tree at {ROOT / 'src' / 'ctmar'}")
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = make_inputs(args.workload, args.seed, work)
    (work / "spec.json").write_text(json.dumps(spec))

    setups = []
    if not args.trace:
        for k in range(SETUP_REPEATS):
            setups.append(spawn(args, work, work / f"setup_{k}.json", 0, True, 20.0)["setup_s"])
    remaining = DEADLINE_S - (time.monotonic() - started)
    result = spawn(args, work, work / "result.json", args.trace, False, remaining)
    setups.append(result["setup_s"])

    from checks import CHECKS
    failures = CHECKS[args.workload](work, spec, result)
    for message in failures:
        print(f"perfbench: check failed: {message}", file=sys.stderr)

    rounds = result["rounds"]
    attempted = sum(r["items"] for r in rounds)
    items_per_s = attempted / sum(r["end"] - r["start"] for r in rounds)
    if args.trace:
        from tracing import per_layer_names, unit_of
        metrics = {name: {"value": result["per_layer"][name], "unit": unit_of(name)}
                   for name in per_layer_names()}
        summary = {"traced_items_per_s": items_per_s, "mac_check": result["mac_check"]}
        (work / "trace_summary.json").write_text(json.dumps(summary, indent=1))
        print(f"perfbench: traced items_per_s {items_per_s:.6g}", file=sys.stderr)
        for key, macs in result["mac_check"].items():
            if macs["counted"] != macs["estimated"]:
                print(f"perfbench: {key}: {macs['counted']:.0f} MACs counted per item, "
                      f"estimate_flops gives {macs['estimated']:.0f}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "items/s"},
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        }
    # the large generated inputs are not kept; results and traces are
    for name in ("data", "model.mckp", "train_out"):
        path = work / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    for path in work.glob("synth_*"):
        shutil.rmtree(path)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
