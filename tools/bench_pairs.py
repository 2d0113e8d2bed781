"""Alternating base/change runs of perfbench, summarised as one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --change HEAD \
        --workload train_deterministic --workload train_diffusion \
        --seeds 2101-2110 --seconds 40 --scratch /tmp/bench --out BENCH_21.json

Run it from the repository root. Each revision's committed files are
exported with ``git archive`` into its own directory under ``--scratch``,
``base/`` and ``change/``, which must not exist yet (an export, unlike a worktree, leaves nothing registered in the repository),
so each side runs its own sources and its own copy of perfbench. A run is

    python3 perfbench/run.py --workload W --seed S --seconds N --trace T

from that directory, with T from ``--trace`` (0 by default). Pair j of a
workload runs both sides on the j-th seed; the base goes first when j is
even and the change first when j is odd. Of each run,
the last two lines of standard output are kept: perfbench's JSON report and
its result line.

The output holds, per workload, every pair (metrics, digests, output checks
and wall time of both runs) and a summary per end-to-end metric of
``BENCHMARK.json`` (per per-layer metric with ``--trace 1``, which prints
those instead): each side's median and quartiles, the pairs the change
won (ties count for neither), the relative change of the medians, the
median over pairs of the change's value over the base's (a ratio within
each pair cancels the host's drift between pairs), whether
the medians differ by more than the base's interquartile range, whether
the change's median is worse than the base's by more than the metric's
``bound`` times the base median, and whether the metric is unresolved: the
base's interquartile range exceeds that bound, so a change within the bound
cannot be told from noise, unless every change run beats every base run
(both None for the per-layer metrics, which have no bound); and each side's
share of failed operations over all its runs. With ``--trace 1`` each
summary also holds a ``census`` block: per side, the median
``autodiff.records_per_step`` and the median
``autodiff.fwd.<category>.calls`` of every category, so a bench record
reads beside the per-op record census the tests pin. It is rewritten after
every pair, so an interrupted series keeps what it ran.

When the series ends, one verdict line per workload goes to standard error:
the pairs with equal loss digests and those with equal prediction digests,
counted apart, the metrics worse than their bound, the
unresolved metrics, the runs that were not correct, and each side's failed
share, flagged "(change higher)" when the change's is higher than the
base's. The tool exits 1 when any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("base", "change")
DIGESTS = ("losses", "predictions")  # perfbench's output digests, counted apart


def parse_run(stdout: str) -> dict:
    """One perfbench run from its standard output: the result line (last)
    and the report (the line before it). ``setup_samples_s`` holds the
    report's unscaled set-up samples, whose host-scaled median is
    ``setup_s``; a traced run reports none (None)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"expected a report and a result line, got {len(lines)} lines")
    try:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        return {"correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics,
                "digests": report["digests"], "budget": report["budget"],
                "environment": report["environment"],
                "setup_samples_s": report.get("setup_samples_s")}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"not a perfbench report and result: {exc!r}") from exc


def spread(values) -> dict | None:
    """Median and quartiles (linear interpolation) of a side's runs; None
    when it has none."""
    if len(values) == 0:
        return None
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric named in ``better`` ("lower" or "higher"): each side's
    spread, the pairs the change won, the relative change of the medians,
    the median over pairs of change / base (None where a base value is 0),
    whether their gap exceeds the base's interquartile range, whether the
    change's median is worse, in that direction, by more than the metric's
    ``bounds`` entry times the base median, and whether the metric is
    ``unresolved``: the base's interquartile range exceeds that bound times
    the base median and not every change run beats every base run (both
    None for a metric without a bound). Also counts, per digest in
    ``DIGESTS``, the pairs whose digests match, so a change that moves only
    its predictions shows as such, and the failed runs, and gives each side's
    summed failed operations over its summed attempted ones (None when it
    attempted none). With no pairs, every spread and comparison is None and
    every count 0."""
    bounds = bounds or {}
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        b, c = spread(base), spread(change)
        metrics[name] = {
            "better": direction,
            "base": b,
            "change": c,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
            "pairs": len(pairs),
            "median_change_frac": None,
            "median_pair_ratio": None,
            "gap_exceeds_base_iqr": None,
            "worse_beyond_bound": None,
            "unresolved": None,
        }
        if not pairs:
            continue
        metrics[name].update({
            "median_change_frac": (c["median"] - b["median"]) / b["median"]
            if b["median"] else None,
            "median_pair_ratio": float(np.median([y / x for x, y in zip(base, change)]))
            if all(base) else None,
            "gap_exceeds_base_iqr": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
        })
        if name in bounds:
            allowed = bounds[name] * abs(b["median"])
            metrics[name].update({
                "worse_beyond_bound": sign * (b["median"] - c["median"]) > allowed,
                "unresolved": (b["q3"] - b["q1"] > allowed
                               and min(sign * y for y in change) <= max(sign * x for x in base)),
            })
    return {
        "pairs": len(pairs),
        "digests_equal": {d: sum(p["base"]["digests"][d] == p["change"]["digests"][d]
                                 for p in pairs) for d in DIGESTS},
        "runs_not_correct": sum(not p[side]["correct"] for p in pairs for side in SIDES),
        "failed_share": {side: _failed_share([p[side] for p in pairs]) for side in SIDES},
        "metrics": metrics,
    }


def census(pairs: list[dict]) -> dict:
    """Per side of traced ``pairs``: the median records per step and, per
    tape-op category, the median forward calls per step; empty for no pairs."""
    if not pairs:
        return {}
    out = {}
    for side in SIDES:
        runs = [p[side]["metrics"] for p in pairs]
        categories = [name.split(".")[2] for name in runs[0]
                      if name.startswith("autodiff.fwd.") and name.endswith(".calls")]
        out[side] = {
            "records_per_step": float(np.median([r["autodiff.records_per_step"] for r in runs])),
            "fwd_calls": {c: float(np.median([r[f"autodiff.fwd.{c}.calls"] for r in runs]))
                          for c in categories},
        }
    return out


def verdict(workload: str, pairs: list[dict], summary: dict) -> str:
    """One line on a workload's finished series, from its pairs and their
    ``summarize`` output."""
    worse = [name for name, m in summary["metrics"].items() if m["worse_beyond_bound"]]
    unresolved = [name for name, m in summary["metrics"].items() if m["unresolved"]]
    wrong = [f"seed {p['seed']} {side}" for p in pairs for side in SIDES
             if not p[side]["correct"]]
    base, change = (summary["failed_share"][side] for side in SIDES)
    higher = " (change higher)" if (change or 0.0) > (base or 0.0) else ""
    n, equal = summary["pairs"], summary["digests_equal"]
    return (f"{workload}: equal loss digests in {equal['losses']} of {n} pairs, "
            f"equal prediction digests in {equal['predictions']} of {n}; "
            f"worse beyond bound: {', '.join(worse) or 'none'}; "
            f"unresolved: {', '.join(unresolved) or 'none'}; "
            f"not correct: {', '.join(wrong) or 'none'}; "
            f"failed share: base {_share(base)}, change {_share(change)}{higher}")


def _share(x: float | None) -> str:
    return "none" if x is None else f"{x:.3g}"


def _failed_share(runs: list[dict]) -> float | None:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else None


def run_pairs(workloads, seeds, run, on_pair) -> dict[str, list[dict]]:
    """``run(side, workload, seed)`` -> ``parse_run`` record for every pair,
    alternating which side goes first; ``on_pair`` sees the results so far."""
    results = {w: [] for w in workloads}
    for workload in workloads:
        for j, seed in enumerate(seeds):
            order = SIDES if j % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(side, workload, seed)
            results[workload].append(pair)
            on_pair(results)
    return results


def scratch_dirs(scratch: Path) -> dict[str, Path]:
    """Each side's export directory under ``scratch``. Stops, before either
    side is exported, with a message naming the first that already exists."""
    dirs = {side: scratch / side for side in SIDES}
    for d in dirs.values():
        if d.exists():
            raise SystemExit(f"{d} already exists: remove it or pass a new --scratch")
    return dirs


def export(rev: str, dest: Path) -> dict:
    """The committed files of ``rev`` in ``dest``; returns the commit and the
    hash of its ``src`` tree."""
    dest.mkdir(parents=True, exist_ok=False)
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)

    def rev_parse(what):
        return subprocess.run(["git", "rev-parse", what], check=True, capture_output=True,
                              text=True).stdout.strip()
    return {"rev": rev, "commit": rev_parse(f"{rev}^{{commit}}"),
            "src_tree": rev_parse(f"{rev}:src")}


def targets(spec: dict, trace: int) -> tuple[dict[str, str], dict[str, float]]:
    """The metrics a run prints, each with its direction, and their bounds:
    ``BENCHMARK.json``'s end-to-end metrics, or with ``trace`` its per-layer
    metrics, which have none."""
    metrics = spec["per_layer" if trace else "end_to_end"]
    return ({m["name"]: m["better"] for m in metrics},
            {m["name"]: m["bound"] for m in metrics if "bound" in m})


def perfbench_runner(dirs: dict[str, Path], seconds: int, trace: int):
    def run(side, workload, seed):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=dirs[side], capture_output=True, text=True)
        wall = time.perf_counter() - t0
        try:
            record = parse_run(proc.stdout)
        except ValueError:
            sys.stderr.write(proc.stderr[-2000:])
            raise
        record.update(returncode=proc.returncode, wall_s=wall)
        print(f"{workload} seed {seed} {side}: {wall:.0f} s, exit {proc.returncode}",
              file=sys.stderr, flush=True)
        return record
    return run


def parse_seeds(text: str) -> list[int]:
    """"3,5,9-11" -> [3, 5, 9, 10, 11]. A descending range, which names no
    seed, or a seed named twice, which would run one pair twice, raises
    ``argparse.ArgumentTypeError``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        lo, hi = int(lo), int(hi or lo)
        if hi < lo:
            raise argparse.ArgumentTypeError(f"descending seed range {part!r}")
        seeds.extend(range(lo, hi + 1))
    if len(set(seeds)) < len(seeds):
        repeated = sorted({s for s in seeds if seeds.count(s) > 1})
        raise argparse.ArgumentTypeError(f"seeds named more than once: {repeated}")
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help='e.g. "2101-2110"')
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--scratch", required=True, type=Path,
                   help="new directory for the two exported trees")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced runs, summarised on the per-layer metrics")
    args = p.parse_args(argv)

    dirs = scratch_dirs(args.scratch)
    revs = {side: export(rev, dirs[side])
            for side, rev in (("base", args.base), ("change", args.change))}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    better, bounds = targets(spec, args.trace)

    def workload_summary(pairs):
        summary = summarize(pairs, better, bounds)
        if args.trace:
            summary["census"] = census(pairs)
        return summary

    def write(results):
        doc = {"base": revs["base"], "change": revs["change"], "seconds": args.seconds,
               "trace": args.trace,
               "order": "pair j runs the base first when j is even",
               "workloads": {w: {"summary": workload_summary(pairs), "pairs": pairs}
                             for w, pairs in results.items() if pairs}}
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    results = run_pairs(args.workload, args.seeds,
                        perfbench_runner(dirs, args.seconds, args.trace), write)
    not_correct = 0
    for workload, pairs in results.items():
        summary = summarize(pairs, better, bounds)
        print(verdict(workload, pairs, summary), file=sys.stderr)
        not_correct += summary["runs_not_correct"]
    return 1 if not_correct else 0


if __name__ == "__main__":
    sys.exit(main())
