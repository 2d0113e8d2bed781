"""The benchmark's workloads and the run that measures and checks one of them.

Every workload runs two phases on synthetic corrupted sequences (occlusion
on, ``blur_width=3``) generated from the workload seed:

- setup: imports, ``build_model``, dataset synthesis and a warm-up
  training step;
- rounds, each of which trains and then runs ``evaluate()`` passes over
  the held-out set.

Work budgets are fixed counts derived from ``--seconds`` through the nominal
unit costs below, so a seed always gives the same losses and predictions.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import time
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from meshmotion import autodiff, body_graph, diffusion, metrics, model, part_loss, synth

import hostspeed
import stats
import tracing

MODULES = (autodiff, body_graph, diffusion, metrics, model, part_loss, synth)
FAILURES = (model.TrainingDivergence, autodiff.NumericsError, metrics.MetricsError)

# 64 training sequences keep the spread of held-out error across seeds
# near 5% (MPVPE) and 11% (PA-MPJPE) on train_deterministic; 16 gave 12%/29%
TRAIN_SEQS = 64
SETUP_SAMPLES = 3   # set-ups per untraced run; setup_s is their median

FRAMES = 16
# Seconds per unit of work measured on a 2-core Xeon with numpy 2.4 and
# OpenBLAS on one thread: a training step or a whole 200-step train() call,
# and one predict plus its metrics. They only size the fixed budgets.
NOMINAL_S = {
    "train_diffusion": {"train": 0.95, "predict": 0.14},
    "train_deterministic": {"train": 7.5, "predict": 0.0047},
}
# steps per train() call when the budget is in steps: 12 leave 11 steady
# steps, which is what a tail needs
ROUND_STEPS = 12
TRAIN_SHARE = 0.75   # of --seconds; evaluate() passes get the rest


@dataclass(frozen=True)
class Workload:
    name: str
    diffusion_on: bool
    heldout: int
    train_unit: str   # budget in "step"s of one train() call per round, or whole "call"s

    def config(self) -> model.ModelConfig:
        # the model seed stays at its default: the workload seed varies the data
        return model.ModelConfig(diffusion_on=self.diffusion_on)

    def budget(self, seconds: float) -> tuple[int, int, int]:
        """(rounds, training units per round, evaluate() passes per round).

        A round trains and then evaluates, so every metric samples the whole
        run rather than one stretch of it.
        """
        cost = NOMINAL_S[self.name]
        units = seconds * TRAIN_SHARE / cost["train"]
        if self.train_unit == "step":
            rounds, per_round = max(2, round(units / ROUND_STEPS)), ROUND_STEPS
        else:
            rounds, per_round = max(2, round(units)), 1
        passes = seconds * (1.0 - TRAIN_SHARE) / (cost["predict"] * self.heldout)
        return rounds, per_round, max(1, round(passes / rounds))


WORKLOADS = {w.name: w for w in (
    Workload("train_diffusion", diffusion_on=True, heldout=16, train_unit="step"),
    Workload("train_deterministic", diffusion_on=False, heldout=64, train_unit="call"),
)}


# ---------------------------------------------------------------------------
# inputs


def make_sequences(graph, seed: int, first: int, count: int, frames: int) -> list:
    """``count`` corrupted sequences; sequence i uses motion seed
    ``seed * 100_000 + first + i``, so disjoint ``first`` ranges give
    disjoint sets."""
    corruption = synth.CorruptionConfig(occlusion_prob=0.3, blur_width=3)
    out = []
    for i in range(first, first + count):
        base = seed * 100_000 + i
        clean = synth.generate_sequence(synth.MotionConfig(graph=graph, frames=frames), seed=base)
        out.append(synth.corrupt_sequence(clean, graph, corruption, seed=base + 50_000))
    return out


@dataclass
class Inputs:
    config: model.ModelConfig
    train_set: list
    heldout: list
    warm_losses: list


def set_up(w: Workload, seed: int) -> Inputs:
    """Everything a run needs before its main phase, warm-up included."""
    cfg = w.config()
    graph = model.build_model(cfg).graph
    train_set = make_sequences(graph, seed, 0, TRAIN_SEQS, FRAMES)
    heldout = make_sequences(graph, seed, TRAIN_SEQS, w.heldout, FRAMES)
    _, warm_losses = model.train(dataclasses.replace(cfg, train_steps=1), train_set)
    return Inputs(cfg, train_set, heldout, warm_losses)


# ---------------------------------------------------------------------------
# timing samples are (start, end, seconds): seconds is end - start, less any
# host-speed sampling inside the interval


Timed = tuple[float, float, float]


# probes that stay on in every run: one clock read per step or predict, and
# in untraced runs the host-speed samples between them, which no step or
# predict time includes; in traced runs they would land inside spans


class Probes:
    def __init__(self, host: hostspeed.HostSpeed | None):
        self.host = host
        # per step: when it ended, and when the clock resumed after any
        # host-speed sample taken there
        self.step_ends: list[tuple[float, float]] = []
        self.predicts: list[Timed] = []
        self.predictions: list[tuple] = []   # (sequence, seed, output)

    def _between_units(self) -> None:
        if self.host is not None:
            self.host.sample_if_due()

    def install(self, patches: tracing.Patches) -> None:
        def adam_step(fn):
            def wrapper(opt):
                fn(opt)
                end = time.perf_counter()
                self._between_units()
                self.step_ends.append((end, time.perf_counter()))
            return wrapper

        def predict(fn):
            def wrapper(m, seq, seed=0):
                t0 = time.perf_counter()
                out = fn(m, seq, seed)
                t1 = time.perf_counter()
                self.predicts.append((t0, t1, t1 - t0))
                self.predictions.append((seq, seed, out))
                self._between_units()
                return out
            return wrapper

        patches.wrap(model.Adam, "step", adam_step)
        patches.wrap(model.Model, "predict", predict)

    def take(self):
        out = (self.step_ends, self.predicts, self.predictions)
        self.step_ends, self.predicts, self.predictions = [], [], []
        return out


class Checks:
    """Output checks; every failed unit (step or predict) counts once."""

    def __init__(self, n_vertices: int):
        self.n_vertices = n_vertices
        self.failed = 0
        self.notes: list[str] = []
        self.first_prediction: dict[tuple, bytes] = {}
        self.loss_trajectory: list[float] = []

    def fail(self, units: int, note: str) -> None:
        self.failed += units
        self.notes.append(note)

    def losses(self, losses: list[float], where: str) -> None:
        bad = int(np.sum(~np.isfinite(losses)))
        if bad:
            self.fail(bad, f"{where}: {bad} non-finite losses")
        differ = sum(a.hex() != b.hex() for a, b in zip(self.loss_trajectory, losses))
        if differ:
            self.fail(differ, f"{where}: {differ} losses differ from an earlier "
                      "train() call with the same seed")
        if len(losses) > len(self.loss_trajectory):
            self.loss_trajectory = list(losses)

    def predictions(self, outputs, where: str) -> None:
        for seq, seed, out in outputs:
            want = (seq.frames, self.n_vertices, 3)
            if out.shape != want or not np.all(np.isfinite(out)):
                self.fail(1, f"{where}: prediction shape {out.shape} (want {want}) "
                          "or non-finite values")
                continue
            key = (id(seq), seed)
            blob = np.ascontiguousarray(out).tobytes()
            if self.first_prediction.setdefault(key, blob) != blob:
                self.fail(1, f"{where}: prediction for sequence seed {seed} differs from "
                          "an earlier predict of the same input")

    def digests(self) -> dict[str, str]:
        losses = hashlib.sha256(np.asarray(self.loss_trajectory, "<f8").tobytes())
        preds = hashlib.sha256(b"".join(self.first_prediction.values()))
        return {"losses": losses.hexdigest()[:16], "predictions": preds.hexdigest()[:16]}


def _steady(step_ends: list[tuple[float, float]], calls: int, steps: int) -> list[Timed]:
    """Steps without each train() call's step 0, which includes build_model;
    ``step_ends`` holds (end, resume) stamps of every call's steps."""
    out = []
    for c in range(calls):
        stamps = step_ends[c * steps:(c + 1) * steps]
        out += [(resume, end, end - resume) for (_, resume), (end, _) in zip(stamps, stamps[1:])]
    return out


def _timings(setups: list[Timed], steps: list[Timed], predicts: list[Timed],
             passes: list[Timed], batch: int, seconds) -> dict[str, tuple[float, str]]:
    """The timing metrics, with ``seconds`` giving each sample's seconds."""
    step_s = [seconds(*x) for x in steps]
    predict_s = [seconds(*x) for x in predicts]
    return {
        "setup_s": (statistics.median(seconds(*x) for x in setups), "s"),
        "main_seq_per_s": (batch * len(step_s) / sum(step_s), "seq/s"),
        "main_step_p50_s": (statistics.median(step_s), "s"),
        "main_step_tail_s": (stats.tail(step_s)[0], "s"),
        "predict_seq_p50_s": (statistics.median(predict_s), "s"),
        "predict_seq_tail_s": (stats.tail(predict_s)[0], "s"),
        "eval_seq_per_s": (len(predict_s) / sum(seconds(*x) for x in passes), "seq/s"),
    }


# ---------------------------------------------------------------------------
# the run


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


class Run:
    """One invocation: set-up, rounds, checks, then metrics and a report."""

    def __init__(self, w: Workload, seed: int, seconds: int, trace: bool,
                 started: float, out_dir: Path):
        self.w, self.seed, self.seconds, self.trace = w, seed, seconds, trace
        self.started, self.out_dir = started, out_dir
        self.rounds, self.train_units, self.passes = w.budget(seconds)
        self.host = hostspeed.HostSpeed()
        self.probes = Probes(None if trace else self.host)
        self.tracer = tracing.Tracer()
        self.attempted = 0
        self.pending = 0
        self.checks = Checks(w.config().n_vertices)

    def execute(self) -> tuple[dict, dict]:
        probe_patches = tracing.Patches()
        trace_patches = tracing.Patches()
        self.probes.install(probe_patches)
        try:
            return self._phases(trace_patches)
        except FAILURES as exc:
            self.checks.fail(self.pending, f"{type(exc).__name__}: {exc}")
            return {}, self._report_common()
        finally:
            trace_patches.undo()
            probe_patches.undo()

    def _start_tracing(self, patches: tracing.Patches) -> None:
        if self.trace:
            tracing.install(self.tracer, patches, _module_namespace())

    def _phases(self, patches: tracing.Patches) -> tuple[dict, dict]:
        w, tracer = self.w, self.tracer
        self._start_tracing(patches)
        # every set-up sample counts the imports, which happen once per process
        imports_s = time.perf_counter() - self.started
        setups: list[Timed] = []
        for _ in range(1 if self.trace else SETUP_SAMPLES):
            self.host.sample(3)
            self._attempt(1)
            t0, sampling = time.perf_counter(), self.host.spent_s
            with tracer.span("setup"):
                inputs = set_up(w, self.seed)
            t1 = time.perf_counter()
            setups.append((t0, t1, imports_s + t1 - t0 - (self.host.spent_s - sampling)))
            patches.undo()
            self.probes.take()
            self.checks.losses(inputs.warm_losses, "warm-up")
        self.host.sample(3)

        # with tracing, the first half of the rounds is the untraced reference
        traced_from = self.rounds // 2 if self.trace else self.rounds
        steps: dict[bool, list[Timed]] = {False: [], True: []}
        predicts, passes, main_spans = [], [], []
        for r in range(self.rounds):
            if r == traced_from:
                self._start_tracing(patches)
            with tracer.span("train") as span:
                timed, trained = self._train(inputs, self.train_units)
            steps[r >= traced_from] += timed
            main_spans.append(span)
            with tracer.span("eval"):
                agg, timed_passes, timed = self._evaluate(trained, inputs.heldout, self.passes)
            passes += timed_passes
            predicts += timed
        patches.undo()
        self.host.sample()

        if self.trace:
            traced_s, untraced_s = (statistics.median(s for _, _, s in steps[k])
                                    for k in (True, False))
            overhead = traced_s / untraced_s - 1.0
            result_metrics = tracing.per_layer_metrics(
                tracer, main_spans[traced_from:], "model.adam_step", overhead)
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path = self.out_dir / f"spans-{w.name}-seed{self.seed}.json.gz"
            with gzip.open(path, "wt") as fh:
                json.dump(tracer.to_json(), fh)
            return result_metrics, {"spans_file": str(path), **self._report_common()}

        timed = (setups, steps[False], predicts, passes, inputs.config.batch_size)
        # every sample reads as at the reference host speed
        result_metrics = _timings(*timed, self.host.scaled)
        # not gated: on train_deterministic a predict takes about 2.5 ms and
        # its tail is one 3-4 ms scheduling gap or none (see README.md)
        predict_tail_s, _ = result_metrics.pop("predict_seq_tail_s")
        unscaled = _timings(*timed, lambda start, end, seconds: seconds)
        _, main_pct, main_n = stats.tail([seconds for _, _, seconds in steps[False]])
        _, pred_pct, pred_n = stats.tail([seconds for _, _, seconds in predicts])
        result_metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        result_metrics["heldout_mpvpe_mm"] = (agg.mpvpe, "mm")
        report = {
            "host_speed": self.host.report(),
            "unscaled": {name: value for name, (value, _) in unscaled.items()},
            "tails": {
                "main_step_tail_s": {"percentile": main_pct, "samples": main_n},
                "predict_seq_tail_s": {"value": predict_tail_s, "percentile": pred_pct,
                                       "samples": pred_n},
            },
            "setup_samples_s": [seconds for _, _, seconds in setups],
            # not gated: its spread across seeds exceeds any allowed bound
            "heldout_pa_mpjpe_mm": agg.pa_mpjpe,
            **self._report_common(),
        }
        return result_metrics, report

    def _train(self, inputs: Inputs, units: int) -> tuple[list[Timed], model.Model]:
        """Train for ``units`` steps or calls; returns the steady steps and
        the trained model."""
        if self.w.train_unit == "step":
            steps, calls = units, 1
        else:
            steps, calls = inputs.config.train_steps, units
        cfg = dataclasses.replace(inputs.config, train_steps=steps)
        trained = None
        for _ in range(calls):
            self._attempt(steps)
            trained, losses = model.train(cfg, inputs.train_set)
            self.checks.losses(losses, "main")
        step_ends, _, _ = self.probes.take()
        return _steady(step_ends, calls, steps), trained

    def _evaluate(self, trained, heldout, passes: int) -> tuple[object, list[Timed],
                                                                list[Timed]]:
        """Aggregate error, the evaluate() passes and the predicts."""
        timed, agg = [], None
        for _ in range(passes):
            self._attempt(len(heldout))
            t0, sampling = time.perf_counter(), self.host.spent_s
            agg, _ = model.evaluate(trained, heldout)
            t1 = time.perf_counter()
            timed.append((t0, t1, t1 - t0 - (self.host.spent_s - sampling)))
        _, predicts, outputs = self.probes.take()
        self.checks.predictions(outputs, "eval")
        return agg, timed, predicts

    def _attempt(self, units: int) -> None:
        """Count ``units`` as attempted; they all fail if the next call raises."""
        self.attempted += units
        self.pending = units

    def _report_common(self) -> dict:
        losses = self.checks.loss_trajectory
        return {
            "workload": self.w.name,
            "seconds": self.seconds,
            "trace": self.trace,
            "budget": {"rounds": self.rounds, "train_units_per_round": self.train_units,
                       "eval_passes_per_round": self.passes},
            "environment": environment(self.seed),
            "failed_frac": self.checks.failed / max(self.attempted, 1),
            "loss_first_last": [losses[0], losses[-1]] if losses else [],
            "digests": self.checks.digests(),
            "check_notes": self.checks.notes,
        }


def _module_namespace():
    return types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
