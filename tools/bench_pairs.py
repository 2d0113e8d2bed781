"""Alternating base/change runs of perfbench, summarised as one JSON file.

    python3 tools/bench_pairs.py --base HEAD~1 --change HEAD \
        --workload train_deterministic --workload train_diffusion \
        --seeds 2101-2110 --seconds 40 --scratch /tmp/bench --out BENCH_21.json

Run it from the repository root. Each revision's committed files are
exported with ``git archive`` into its own directory under ``--scratch``
(an export, unlike a worktree, leaves nothing registered in the repository),
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
won (ties count for neither), the relative change of the medians, whether
the medians differ by more than the base's interquartile range, and whether
the change's median is worse than the base's by more than the metric's
``bound`` times the base median (None for the per-layer metrics, which
have no bound); and each side's share of failed operations
over all its runs. It is rewritten after every pair, so an interrupted
series keeps what it ran.

When the series ends, one verdict line per workload goes to standard error:
the pairs with equal digests, the metrics worse than their bound, and the
runs that were not correct. The tool exits 1 when any run was not correct.
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


def parse_run(stdout: str) -> dict:
    """One perfbench run from its standard output: the result line (last)
    and the report (the line before it)."""
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
                "environment": report["environment"]}
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"not a perfbench report and result: {exc!r}") from exc


def spread(values) -> dict:
    """Median and quartiles (linear interpolation) of a side's runs."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric named in ``better`` ("lower" or "higher"): each side's
    spread, the pairs the change won, the relative change of the medians,
    whether their gap exceeds the base's interquartile range, and whether the
    change's median is worse, in that direction, by more than the metric's
    ``bounds`` entry times the base median (None for a metric without a
    bound). Also counts the pairs whose loss and prediction digests match
    and the failed runs, and gives each side's summed failed operations over
    its summed attempted ones (None when it attempted none)."""
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
            "median_change_frac": (c["median"] - b["median"]) / b["median"]
            if b["median"] else None,
            "gap_exceeds_base_iqr": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
            "worse_beyond_bound": (sign * (b["median"] - c["median"])
                                   > bounds[name] * abs(b["median"]))
            if name in bounds else None,
        }
    return {
        "pairs": len(pairs),
        "digests_equal": sum(p["base"]["digests"] == p["change"]["digests"] for p in pairs),
        "runs_not_correct": sum(not p[side]["correct"] for p in pairs for side in SIDES),
        "failed_share": {side: _failed_share([p[side] for p in pairs]) for side in SIDES},
        "metrics": metrics,
    }


def verdict(workload: str, pairs: list[dict], summary: dict) -> str:
    """One line on a workload's finished series, from its pairs and their
    ``summarize`` output."""
    worse = [name for name, m in summary["metrics"].items() if m["worse_beyond_bound"]]
    wrong = [f"seed {p['seed']} {side}" for p in pairs for side in SIDES
             if not p[side]["correct"]]
    return (f"{workload}: equal digests in {summary['digests_equal']} of "
            f"{summary['pairs']} pairs; worse beyond bound: {', '.join(worse) or 'none'}; "
            f"not correct: {', '.join(wrong) or 'none'}")


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
    """"3,5,9-11" -> [3, 5, 9, 10, 11]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
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

    dirs = {side: args.scratch / side for side in SIDES}
    revs = {side: export(rev, dirs[side])
            for side, rev in (("base", args.base), ("change", args.change))}
    spec = json.loads((dirs["change"] / "BENCHMARK.json").read_text())
    better, bounds = targets(spec, args.trace)

    def write(results):
        doc = {"base": revs["base"], "change": revs["change"], "seconds": args.seconds,
               "trace": args.trace,
               "order": "pair j runs the base first when j is even",
               "workloads": {w: {"summary": summarize(pairs, better, bounds), "pairs": pairs}
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
