"""Paired in-process timings of two revisions: ``Model.predict``, sequence
synthesis, a ``model.train`` call, or one ``compute_metrics`` call.

    python3 tools/pair_predict.py --base HEAD~1 --change HEAD \
        --workload train_deterministic --pairs 960 --scratch /tmp/pairs
    python3 tools/pair_predict.py --base HEAD~1 --change HEAD \
        --unit synth --pairs 960 --scratch /tmp/pairs
    python3 tools/pair_predict.py --base HEAD~1 --change HEAD \
        --unit step --workload train_diffusion --pairs 30 --scratch /tmp/pairs
    python3 tools/pair_predict.py --base HEAD~1 --change HEAD \
        --unit metrics --pairs 300 --scratch /tmp/pairs

Run it from the repository root. Each revision's committed files are
exported with ``git archive`` into its own directory under ``--scratch``
(``bench_pairs.export``), and each side's ``meshmotion`` is imported under
its own package name (``meshmotion_base``, ``meshmotion_change``), so both
run in this one process, on the same host state.

The default unit, ``predict``, runs the same untrained model (the default
``ModelConfig``, diffusion on or off as the workload's) on the same 16
held-out sequences (16 frames, ``occlusion_prob=0.3``, ``blur_width=3``,
generated by the change's ``synth`` from ``--seed``). The ``synth`` unit
makes one sequence per call on each side's own default graph:
``generate_sequence`` (16 frames) then ``corrupt_sequence`` at perfbench's
corruption (``occlusion_prob=0.3``, ``blur_width=3``), for perfbench's 128
set-up sequences of ``--seed`` in turn (motion seed ``seed * 100_000 + i``,
corruption seed that plus 50,000); ``--workload`` does not apply to it.
The ``step`` unit is one default ``model.train`` call of the workload's
model, 60 steps with diffusion or without (``STEPS``; a diffusion step,
which scores the block at one sampled step, costs under twice a
deterministic one), on perfbench's 64 training sequences of ``--seed``
(made as the ``synth`` unit makes them, by the change's ``synth``); its
default is 30 pairs. The ``metrics`` unit is one ``compute_metrics`` call,
with each side's own joint regressor, over perfbench's 64 held-out
sequences of ``--seed`` (motion seeds ``seed * 100_000 + 64`` on, made as the
``synth`` unit makes them), predicted once, before any pair, by the change's
untrained model of the workload; its default is 300 pairs.

Pair j runs item j mod the item count once on each side, the base first
when j is even, after 8 untimed pairs (1 for the ``step`` unit). Every pair
checks that the two outputs (the prediction, the ground truth, observations
and mask, or the training losses) are bit-identical and stops with an error
when they are not; rows of metrics must match in MPVPE and MPJPE bit for
bit and in PA-MPJPE within a relative 1e-12 (``metrics_match``), since
the two revisions may align frames by different exact methods. The summary
printed as one JSON line holds the median over pairs of the change's
seconds over the base's, the share of pairs the change was faster in, and
each side's median seconds. Pairs taken back to back cancel most of the
host's drift, so this resolves effects of a few percent that separate
perfbench runs cannot.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, export, scratch_dirs  # noqa: E402

WORKLOADS = {"train_diffusion": True, "train_deterministic": False}   # name -> diffusion_on
SEQUENCES = 16   # held-out sequences, predicted in turn
SYNTH_SEQUENCES = 128   # perfbench's set-up sequences per seed, made in turn
TRAIN_SEQUENCES = 64   # perfbench's training sequences per seed, then its held-out ones
STEPS = 60   # train_steps of one step unit, on either workload
HELDOUT_SEQUENCES = 64   # the metrics unit's: perfbench's train_deterministic held-out set
WARMUP = {"predict": 8, "synth": 8, "step": 1, "metrics": 8}   # untimed pairs: caches fill
PAIRS = {"predict": 960, "synth": 960, "step": 30, "metrics": 300}   # timed pairs by default
PA_RTOL = 1e-12   # of the metrics unit's PA-MPJPE


def import_package(src: Path, name: str):
    """The ``meshmotion`` package under ``src`` imported as ``name``, with its
    ``model``, ``synth`` and ``metrics`` modules loaded; its modules import each other
    relatively, so none of them reaches another side's."""
    spec = importlib.util.spec_from_file_location(
        name, src / "meshmotion" / "__init__.py",
        submodule_search_locations=[str(src / "meshmotion")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("model", "synth", "metrics"):
        importlib.import_module(f"{name}.{module}")
    return package


def heldout(synth, graph, seed: int, count: int, frames: int = 16) -> list:
    """``count`` corrupted sequences; sequence i has motion seed
    ``seed * 1000 + i`` and corruption seed that plus 500."""
    corruption = synth.CorruptionConfig(occlusion_prob=0.3, blur_width=3)
    out = []
    for i in range(count):
        clean = synth.generate_sequence(synth.MotionConfig(graph=graph, frames=frames),
                                        seed=seed * 1000 + i)
        out.append(synth.corrupt_sequence(clean, graph, corruption, seed=seed * 1000 + i + 500))
    return out


def perfbench_sequence(synth, graph, seed: int, i: int, frames: int = 16):
    """Sequence i of perfbench's set-up for ``seed``: motion seed
    ``seed * 100_000 + i`` and corruption seed that plus 50,000."""
    clean = synth.generate_sequence(synth.MotionConfig(graph=graph, frames=frames),
                                    seed=seed * 100_000 + i)
    return synth.corrupt_sequence(clean, graph,
                                  synth.CorruptionConfig(occlusion_prob=0.3, blur_width=3),
                                  seed=seed * 100_000 + i + 50_000)


def scored_heldout(package, diffusion_on: bool, seed: int, count: int = HELDOUT_SEQUENCES,
                   frames: int = 16) -> tuple[list, list]:
    """The predictions and ground truths of perfbench's first ``count``
    held-out sequences of ``seed`` (:func:`perfbench_sequence` from 64 on),
    predicted in turn (sequence i with seed i) by ``package``'s untrained
    default model, diffusion on or off."""
    model = package.model.build_model(package.model.ModelConfig(diffusion_on=diffusion_on))
    seqs = [perfbench_sequence(package.synth, model.graph, seed, TRAIN_SEQUENCES + i, frames)
            for i in range(count)]
    return [model.predict(seq, seed=i) for i, seq in enumerate(seqs)], [s.gt_vertices for s in seqs]


def synth_unit(package, seed: int, frames: int = 16):
    """``make(i, j)``: the ground truth, observations and mask of
    :func:`perfbench_sequence` i, made by ``package``'s ``synth`` on its own
    default graph (``j`` is unused)."""
    graph = package.body_graph.generate_toy_body()

    def make(i, j):
        seq = perfbench_sequence(package.synth, graph, seed, i, frames)
        return seq.gt_vertices, seq.observations, seq.occlusion_mask
    return make


def step_unit(package, config: dict):
    """``run(dataset, j)``: the losses, as an array, of one ``model.train``
    call of ``package`` at ``ModelConfig(**config)`` on ``dataset`` (``j`` is
    unused)."""
    model = package.model
    cfg = model.ModelConfig(**config)

    def run(dataset, j):
        return np.array(model.train(cfg, dataset)[1])
    return run


def metrics_unit(package):
    """``run(scored, j)``: ``package``'s ``compute_metrics`` rows for the
    (predictions, ground truths) pair ``scored``, with its own joint
    regressor on its own default graph (``j`` is unused)."""
    metrics = package.metrics
    regressor = metrics.build_joint_regressor(package.body_graph.generate_toy_body())

    def run(scored, j):
        return metrics.compute_metrics(*scored, regressor)
    return run


def metrics_match(a, b) -> bool:
    """Whether two lists of ``PoseError`` rows hold the same MPVPE and MPJPE
    bit for bit and PA-MPJPE within ``PA_RTOL``."""
    a, b = (np.array([row.as_tuple() for row in rows]) for rows in (a, b))
    return (a.shape == b.shape and identical(a[:, :2].copy(), b[:, :2].copy())
            and bool(np.all(np.abs(a[:, 2] - b[:, 2]) <= PA_RTOL * np.abs(b[:, 2]))))


def identical(a, b) -> bool:
    """Whether two outputs, each an array or a tuple of arrays, hold the
    same dtypes, shapes and bytes."""
    a, b = (x if isinstance(x, tuple) else (x,) for x in (a, b))
    return len(a) == len(b) and all(x.dtype == y.dtype and x.shape == y.shape
                                    and x.tobytes() == y.tobytes() for x, y in zip(a, b))


def time_pairs(run: dict, items: list, pairs: int, warmup: int = 0,
               clock=time.perf_counter, same=identical) -> dict[str, list[float]]:
    """Seconds per side of ``pairs`` timed pairs, after ``warmup`` untimed
    ones. ``run[side](item, j)`` returns an array or a tuple of arrays; pair
    j runs item j mod len(items) with j on both sides, the base first when
    j is even, and raises ``AssertionError`` unless ``same`` holds for the
    two outputs (by default, they are equal bit for bit)."""
    times = {side: [] for side in SIDES}
    for j in range(warmup + pairs):
        item = items[j % len(items)]
        out = {}
        for side in (SIDES if j % 2 == 0 else SIDES[::-1]):
            t0 = clock()
            out[side] = run[side](item, j)
            if j >= warmup:
                times[side].append(clock() - t0)
        if not same(out["base"], out["change"]):
            raise AssertionError(f"pair {j}: the outputs differ")
    return times


def summarize(base: list[float], change: list[float]) -> dict:
    """The median over pairs of change / base, the pairs and the share of
    pairs the change took less time in (ties count for neither side), and
    each side's median; the medians and share are None for no pairs."""
    n = len(base)
    wins = sum(c < b for b, c in zip(base, change, strict=True))
    return {
        "pairs": n,
        "median_pair_ratio": float(np.median(np.divide(change, base))) if n else None,
        "change_wins": wins,
        "win_share": wins / n if n else None,
        "base_median_s": float(np.median(base)) if n else None,
        "change_median_s": float(np.median(change)) if n else None,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--unit", choices=sorted(WARMUP), default="predict")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="train_deterministic",
                   help="the predict, step or metrics unit's model")
    p.add_argument("--pairs", type=int,
                   help="timed pairs (default: 960, 30 for --unit step, 300 for --unit metrics)")
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--scratch", required=True, type=Path,
                   help="new directory for the two exported trees")
    args = p.parse_args(argv)

    dirs = scratch_dirs(args.scratch)
    revs, run = {}, {}
    for side, rev in (("base", args.base), ("change", args.change)):
        revs[side] = export(rev, dirs[side])
        package = import_package(dirs[side] / "src", f"meshmotion_{side}")
        diffusion_on = WORKLOADS[args.workload]
        if args.unit == "synth":
            run[side] = synth_unit(package, args.seed)
        elif args.unit == "step":
            run[side] = step_unit(package, {"diffusion_on": diffusion_on,
                                            "train_steps": STEPS})
        elif args.unit == "metrics":
            run[side] = metrics_unit(package)
        else:
            model = package.model.build_model(
                package.model.ModelConfig(diffusion_on=diffusion_on))
            run[side] = model.predict
    labels = {"unit": args.unit}
    if args.unit == "synth":
        items = list(range(SYNTH_SEQUENCES))
    else:
        labels["workload"] = args.workload
        graph = package.body_graph.generate_toy_body()
        if args.unit == "predict":
            items = heldout(package.synth, graph, args.seed, SEQUENCES)
        elif args.unit == "step":
            items = [[perfbench_sequence(package.synth, graph, args.seed, i)
                      for i in range(TRAIN_SEQUENCES)]]
        else:
            items = [scored_heldout(package, diffusion_on, args.seed)]
    pairs = PAIRS[args.unit] if args.pairs is None else args.pairs
    compare = {"same": metrics_match} if args.unit == "metrics" else {}
    times = time_pairs(run, items, pairs, WARMUP[args.unit], **compare)
    print(json.dumps({"base": revs["base"], "change": revs["change"], **labels,
                      **summarize(times["base"], times["change"])}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
