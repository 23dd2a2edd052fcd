"""One workload in its own process: set up, run timed rounds, save outputs.

Started by ``run.py`` with the BLAS thread count already fixed in the
environment. ``--spawned`` is the monotonic clock reading taken just
before this process was started, so ``setup_s`` runs from process start
to the first item. With ``--setup-only`` the process exits there.

Every round does the same operations: ``train`` runs ``ctmar.train.train``
from the same initial weights, ``infer`` runs ``ctmar.train.evaluate``
over the test split, ``synth`` runs ``ctmar.simulate.make_dataset`` on a
fresh seed. Rounds start until ``--seconds`` have passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mib() -> float:
    """VmHWM of this process image; unlike ru_maxrss it excludes the parent's
    memory carried over by the fork before exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


# -- per-workload set-up and rounds ------------------------------------------------------


def setup_train(spec, ctmar):
    config = ctmar.model.ModelConfig(**spec["model"])
    model = ctmar.model.build_model(config, seed=spec["model_seed"])
    initial = [p.data.copy() for p in model.params()]
    cfg = ctmar.train.TrainConfig(epochs=spec["steps"], seed=spec["train_seed"],
                                  batch_size=spec["batch"], lr_max=spec["lr_max"],
                                  lr_min=spec["lr_min"], restart_period=spec["restart_period"])
    return {"model": model, "initial": initial, "cfg": cfg}


def round_train(state, spec, ctmar, work):
    model = state["model"]
    for p, init in zip(model.params(), state["initial"]):
        p.data = init.copy()
        p.grad = None
    start = monotonic()
    _, curve = ctmar.train.train(model, spec["data"], state["cfg"], out_dir=work / "train_out")
    return {"start": start, "end": monotonic(), "items": len(curve) * spec["batch"],
            "curve": [[p.step, p.epoch, p.lr, p.loss] for p in curve]}


def setup_infer(spec, ctmar):
    return {"model": ctmar.model.load_checkpoint(spec["checkpoint"])}


def round_infer(state, spec, ctmar, work):
    start = monotonic()
    report = ctmar.train.evaluate(state["model"], spec["data"], split="test")
    return {"start": start, "end": monotonic(), "items": len(report.rows),
            "rows": [list(row) for row in report.rows]}


def setup_synth(spec, ctmar):
    return {"round": 0}


def round_synth(state, spec, ctmar, work):
    # make_dataset seeds pair i with (seed ^ i), so datasets whose seeds differ
    # in the low bits share pairs; multiples of the power-of-two pair count,
    # distinct per run seed and round, keep every pair apart
    seed = (spec["seed"] * 1000 + state["round"]) * spec["pairs"]
    out = work / f"synth_{state['round']:03d}"
    state["round"] += 1
    start = monotonic()
    ctmar.simulate.make_dataset(spec["pairs"], spec["size"], seed, out)
    return {"start": start, "end": monotonic(), "items": spec["pairs"], "dir": str(out),
            "seed": seed}


WORKLOADS = {"train": (setup_train, round_train), "infer": (setup_infer, round_infer),
             "synth": (setup_synth, round_synth)}


# -- outputs for the checks, made after the timed section --------------------------------


def finish_train(state, spec, ctmar, work, np):
    """The in-memory model's forward on the first training input, for the reload check."""
    x = np.load(work / "probe_input.npy")
    out = state["model"].forward(ctmar.tensor.Tensor(x))
    np.save(work / "probe_in_memory.npy", out.data)


def finish_infer(state, spec, ctmar, work, np):
    x = np.load(work / "check_slice.npy")
    np.save(work / "check_restored.npy", ctmar.train.restore_slice(state["model"], x))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--spawned", required=True, type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args()

    import numpy as np
    import ctmar.complexity
    import ctmar.io
    import ctmar.metrics
    import ctmar.model
    import ctmar.simulate
    import ctmar.tensor
    import ctmar.train

    if Path(ctmar.__file__).resolve().parents[1] != ROOT / "src":
        raise RuntimeError(f"ctmar imported from {ctmar.__file__}, not from {ROOT / 'src'}")

    spec = json.loads((args.work / "spec.json").read_text())
    setup, run_round = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    def traced(name, fn, *fn_args):
        return tracer.call(name, fn, fn_args, {}) if tracer else fn(*fn_args)

    # evaluate() does not return restored slices; keep them for the metric check
    restored = []
    if args.workload == "infer":
        inner = ctmar.train.restore_slice

        def capture(*a, **kw):
            out = inner(*a, **kw)
            restored.append(out)
            return out

        ctmar.train.restore_slice = capture

    state = traced("bench.setup", setup, spec, ctmar)
    if tracer and "model" in state:
        tracer.wrap_model(state["model"])
    first_item = monotonic()
    result = {"setup_s": first_item - args.spawned}
    if args.setup_only:
        args.result.write_text(json.dumps(result))
        return 0

    def timed():
        rounds = []
        while not rounds or monotonic() - first_item < args.seconds:
            rounds.append(run_round(state, spec, ctmar, args.work))
        return rounds

    rounds = traced("bench.timed", timed)
    result["peak_rss_mib"] = peak_rss_mib()
    result["rounds"] = rounds
    if restored:
        np.save(args.work / "restored.npy", np.stack(restored))
    finish = {"train": finish_train, "infer": finish_infer}.get(args.workload)
    if finish:
        finish(state, spec, ctmar, args.work, np)

    if tracer:
        from tracing import summarize
        items = sum(r["items"] for r in rounds)
        estimate = {}
        if "model" in state:
            report = ctmar.complexity.estimate_flops(state["model"].config,
                                                     spec["size"], spec["size"])
            estimate = {key: flops for key, (_, flops) in report.breakdown.items()}
        tracer.write(args.work / "trace.json")
        result["per_layer"], result["mac_check"] = summarize(tracer.spans, items, estimate)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
