"""tools/bench_pairs.py parses recorded perfbench output and summarises
alternating pairs; no perfbench run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bp = _load()
BASE = bp.parse_run((DATA / "perfbench_base_run.txt").read_text())
CHANGE = bp.parse_run((DATA / "perfbench_change_run.txt").read_text())
# traced runs (--trace 1) of train_deterministic, seed 5, --seconds 4
TRACE_TEXT = {side: (DATA / f"perfbench_{side}_trace.txt").read_text() for side in bp.SIDES}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_parse_run_reads_the_result_and_report_lines():
    assert CHANGE["correct"] is True
    assert (CHANGE["attempted"], CHANGE["failed"]) == (659, 0)
    assert CHANGE["metrics"]["eval_seq_per_s"] == 878.9215950784392
    assert CHANGE["metrics"]["heldout_mpvpe_mm"] == 113.19403641615263
    assert len(CHANGE["metrics"]) == 8
    assert CHANGE["digests"] == {"losses": "c17eef9f0a2eb9e8", "predictions": "26bc98b2dab330de"}
    assert CHANGE["budget"]["eval_passes_per_round"] == 2
    assert CHANGE["environment"]["seed"] == 5
    assert BASE["digests"] == CHANGE["digests"]
    assert BASE["metrics"]["eval_seq_per_s"] == 578.1013054309277
    assert CHANGE["setup_samples_s"] == [0.5184975869997288, 0.3968740799900843,
                                         0.4019803619958111]
    assert bp.parse_run(TRACE_TEXT["change"])["setup_samples_s"] is None


@pytest.mark.parametrize("text", [
    "",
    (DATA / "perfbench_change_run.txt").read_text().splitlines()[-1],
    "setup_s 0.4 s\n{\"report\": {}}\n{\"correct\": true}\n",
    "{\"report\": {\"digests\": {}}}\nnot json\n",
])
def test_parse_run_rejects_what_is_not_a_report_and_result(text):
    with pytest.raises(ValueError):
        bp.parse_run(text)


def test_pairs_alternate_which_side_runs_first():
    calls, seen = [], []

    def run(side, workload, seed):
        calls.append((workload, seed, side))
        return {"side": side}

    results = bp.run_pairs(["w1", "w2"], [7, 8, 9], run,
                           lambda r: seen.append(sum(map(len, r.values()))))
    assert calls[:6] == [("w1", 7, "base"), ("w1", 7, "change"), ("w1", 8, "change"),
                         ("w1", 8, "base"), ("w1", 9, "base"), ("w1", 9, "change")]
    assert len(calls) == 12 and calls[6] == ("w2", 7, "base")
    assert seen == [1, 2, 3, 4, 5, 6]
    assert [p["first"] for p in results["w2"]] == ["base", "change", "base"]
    assert all(p["base"] == {"side": "base"} and p["change"] == {"side": "change"}
               for pairs in results.values() for p in pairs)


def _scaled(record, **factors):
    out = dict(record, metrics=dict(record["metrics"]))
    for name, f in factors.items():
        out["metrics"][name] *= f
    return out


def test_summary_counts_wins_by_direction_and_reports_spreads():
    pairs = [{"seed": s, "first": "base", "base": BASE,
              "change": _scaled(BASE, eval_seq_per_s=f, main_step_p50_s=g)}
             for s, f, g in ((1, 1.5, 1.1), (2, 1.2, 0.9), (3, 0.9, 0.8), (4, 1.0, 1.0))]
    # the third pair's change moves its predictions only, the fourth's both
    pairs[2]["change"] = dict(pairs[2]["change"], digests=dict(BASE["digests"], predictions="y"))
    pairs[3]["change"] = dict(pairs[3]["change"], digests={"losses": "x", "predictions": "y"},
                              correct=False)
    better = {"eval_seq_per_s": "higher", "main_step_p50_s": "lower"}
    summary = bp.summarize(pairs, better)
    assert summary["pairs"] == 4
    assert summary["digests_equal"] == {"losses": 3, "predictions": 2}
    assert summary["runs_not_correct"] == 1
    ev = summary["metrics"]["eval_seq_per_s"]
    assert ev["better"] == "higher"
    assert ev["change_wins"] == 2  # 1.5 and 1.2 win, 0.9 loses, 1.0 ties
    assert ev["pairs"] == 4
    base = BASE["metrics"]["eval_seq_per_s"]
    assert ev["base"] == {"median": base, "q1": base, "q3": base}
    assert ev["change"]["median"] == pytest.approx(base * 1.1)  # of 0.9, 1.0, 1.2, 1.5
    assert ev["change"]["q1"] == pytest.approx(base * 0.975)
    assert ev["change"]["q3"] == pytest.approx(base * 1.275)
    assert ev["median_change_frac"] == pytest.approx(0.1)
    assert ev["median_pair_ratio"] == pytest.approx(1.1)
    assert ev["gap_exceeds_base_iqr"] is True
    step = summary["metrics"]["main_step_p50_s"]
    assert step["change_wins"] == 2  # 0.9 and 0.8 are faster
    assert step["median_change_frac"] == pytest.approx(-0.05)
    assert step["median_pair_ratio"] == pytest.approx(0.95)  # of 0.8, 0.9, 1.0, 1.1
    assert summary["failed_share"] == {"base": 0.0, "change": 0.0}


def test_pair_ratios_cancel_drift_between_pairs():
    # the host slows by 2x from pair to pair while the change is 10% faster
    # in each: the medians overlap, the median pair ratio reads 0.9
    pairs = [{"seed": s, "first": "base", "base": _scaled(BASE, main_step_p50_s=f),
              "change": _scaled(BASE, main_step_p50_s=0.9 * f)}
             for s, f in ((1, 1.0), (2, 2.0), (3, 4.0))]
    step = bp.summarize(pairs, {"main_step_p50_s": "lower"})["metrics"]["main_step_p50_s"]
    assert step["median_pair_ratio"] == pytest.approx(0.9)
    assert step["gap_exceeds_base_iqr"] is False
    # a ratio over a base value of 0 is undefined
    pairs[1]["base"] = _scaled(BASE, main_step_p50_s=0.0)
    step = bp.summarize(pairs, {"main_step_p50_s": "lower"})["metrics"]["main_step_p50_s"]
    assert step["median_pair_ratio"] is None


def test_summary_reports_each_sides_failed_share_over_all_its_runs():
    # both recorded runs attempted 659 operations and failed none; one copy
    # of the change run fails 33 of its 659
    failing = dict(CHANGE, failed=33)
    pairs = [{"seed": 1, "first": "base", "base": BASE, "change": CHANGE},
             {"seed": 2, "first": "change", "base": BASE, "change": failing}]
    summary = bp.summarize(pairs, {"eval_seq_per_s": "higher"})
    assert summary["failed_share"]["base"] == 0.0
    assert summary["failed_share"]["change"] == pytest.approx(33 / (2 * 659))
    assert bp.summarize([], {})["failed_share"] == {"base": None, "change": None}


def test_summary_flags_a_median_worse_than_its_bound():
    # BENCHMARK.json's end-to-end metrics and bounds on the two recorded
    # runs: the change run is worse than the base by no bound (its peak RSS
    # is 0.02% higher), so each metric is pushed in turn, once within its
    # bound and once past it, in the direction it gets worse
    better, bounds = bp.targets(SPEC, 0)
    assert bounds["peak_rss_mb"] == 0.1 and bounds["main_seq_per_s"] == 0.25

    def flags(change):
        pairs = [{"seed": 1, "first": "base", "base": BASE, "change": change}]
        summary = bp.summarize(pairs, better, bounds)["metrics"]
        return {name: m["worse_beyond_bound"] for name, m in summary.items()}

    assert flags(CHANGE) == dict.fromkeys(better, False)
    for name in ("peak_rss_mb", "main_step_p50_s", "main_seq_per_s", "eval_seq_per_s"):
        worse = 1.0 + bounds[name] if better[name] == "lower" else 1.0 - bounds[name]
        for margin, flagged in ((0.99, False), (1.01, True)):
            # the base's value times (1 ± bound), nudged 1% of the bound
            # inside or outside it
            factor = 1.0 + (worse - 1.0) * margin
            target = BASE["metrics"][name] * factor
            pushed = _scaled(CHANGE, **{name: target / CHANGE["metrics"][name]})
            got = flags(pushed)
            assert got[name] is flagged, (name, margin)
            assert not any(v for k, v in got.items() if k != name)
    # a metric without a bound gets None
    pairs = [{"seed": 1, "first": "base", "base": BASE, "change": CHANGE}]
    summary = bp.summarize(pairs, {"setup_s": "lower"})
    assert summary["metrics"]["setup_s"]["worse_beyond_bound"] is None


@pytest.mark.parametrize("name", ["main_step_p50_s", "eval_seq_per_s"])
def test_summary_flags_a_metric_whose_base_spread_exceeds_its_bound(name):
    # base runs at 0.8, 1.0, 1.2 and 1.4 times the recorded value: quartiles
    # 0.95 and 1.25, an IQR of 0.3 against 0.25 times the median of 1.1
    better, bounds = bp.targets(SPEC, 0)
    sign = 1.0 if better[name] == "higher" else -1.0

    def summary(base_factors, change_factors):
        pairs = [{"seed": s, "first": "base", "base": _scaled(BASE, **{name: f}),
                  "change": _scaled(BASE, **{name: g})}
                 for s, (f, g) in enumerate(zip(base_factors, change_factors))]
        return pairs, bp.summarize(pairs, {name: better[name]}, {name: bounds[name]})

    wide = (0.8, 1.0, 1.2, 1.4)
    pairs, same = summary(wide, wide)
    assert same["metrics"][name]["unresolved"] is True
    assert same["metrics"][name]["worse_beyond_bound"] is False
    assert f"; unresolved: {name}; " in bp.verdict("w", pairs, same)
    # resolved when every change run beats every base run, not when most do
    for beyond, unresolved in ((0.1, False), (-0.1, True)):
        edge = max(wide) if sign > 0 else min(wide)
        _, m = summary(wide, [edge + sign * beyond] * 4)
        assert m["metrics"][name]["unresolved"] is unresolved
    # a base spread within the bound resolves
    _, narrow = summary((1.0, 1.05, 1.1, 1.15), wide)
    assert narrow["metrics"][name]["unresolved"] is False
    # a metric without a bound is neither
    pairs = [{"seed": 1, "first": "base", "base": BASE, "change": CHANGE}]
    assert bp.summarize(pairs, {name: better[name]})["metrics"][name]["unresolved"] is None


def test_traced_pairs_summarise_the_per_layer_metrics_without_bounds():
    better, bounds = bp.targets(SPEC, 1)
    assert list(better) == [m["name"] for m in SPEC["per_layer"]] and bounds == {}
    pairs = [{"seed": 5, "first": "base", **{s: bp.parse_run(TRACE_TEXT[s]) for s in bp.SIDES}}]
    summary = bp.summarize(pairs, better, bounds)
    assert summary["digests_equal"] == {"losses": 1, "predictions": 1}
    assert summary["metrics"].keys() == better.keys()
    assert summary["failed_share"] == {"base": 0.0, "change": 0.0}
    assert all(m["worse_beyond_bound"] is None and m["unresolved"] is None
               for m in summary["metrics"].values())
    records = summary["metrics"]["autodiff.records_per_step"]
    assert records["base"]["median"] == records["change"]["median"] == 47.0
    assert records["median_change_frac"] == 0.0


def test_no_pairs_summarise_to_zero_pairs_and_an_empty_census():
    better, bounds = bp.targets(SPEC, 0)
    summary = bp.summarize([], better, bounds)
    assert (summary["pairs"], summary["runs_not_correct"]) == (0, 0)
    assert summary["digests_equal"] == {"losses": 0, "predictions": 0}
    assert summary["failed_share"] == {"base": None, "change": None}
    assert set(summary["metrics"]) == set(better)
    for name, m in summary["metrics"].items():
        assert m == {"better": better[name], "base": None, "change": None, "change_wins": 0,
                     "pairs": 0, "median_change_frac": None, "median_pair_ratio": None,
                     "gap_exceeds_base_iqr": None, "worse_beyond_bound": None,
                     "unresolved": None}
    assert bp.census([]) == {}
    assert bp.verdict("w", [], summary) == ("w: equal loss digests in 0 of 0 pairs, equal "
                                            "prediction digests in 0 of 0; worse beyond "
                                            "bound: none; unresolved: none; not correct: none; "
                                            "failed share: base none, change none")


def test_census_reads_each_sides_median_records_and_calls_per_category():
    # the recorded traced pair, and the same pair with a second change run
    # whose matmul count is 5: the change's median is then 7
    traced = {s: bp.parse_run(TRACE_TEXT[s]) for s in bp.SIDES}
    pairs = [{"seed": 5, "first": "base", **traced}]
    want = {"records_per_step": 47.0,
            "fwd_calls": {"conv3d": 2.0, "matmul": 9.0, "attention": 0.0, "softmax": 0.0,
                          "layer_norm": 0.0, "transpose": 5.0, "reshape": 6.0,
                          "elementwise": 33.0}}
    assert bp.census(pairs) == {"base": want, "change": want}
    fewer = dict(traced["change"], metrics=dict(traced["change"]["metrics"]))
    fewer["metrics"]["autodiff.fwd.matmul.calls"] = 5.0
    pairs.append({"seed": 6, "first": "change", "base": traced["base"], "change": fewer})
    got = bp.census(pairs)
    assert got["base"] == want
    assert got["change"]["fwd_calls"] == dict(want["fwd_calls"], matmul=7.0)
    # in the category order of BENCHMARK.json's per-layer metrics
    assert list(got["change"]["fwd_calls"]) == [
        m["name"].split(".")[2] for m in SPEC["per_layer"]
        if m["name"].startswith("autodiff.fwd.") and m["name"].endswith(".calls")]


@pytest.mark.parametrize("trace", [0, 1])
def test_main_writes_a_census_only_for_traced_runs(monkeypatch, tmp_path, trace):
    runs = ({s: bp.parse_run(TRACE_TEXT[s]) for s in bp.SIDES} if trace
            else {"base": BASE, "change": CHANGE})

    def fake_export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(SPEC))
        return {"rev": rev}

    monkeypatch.setattr(bp, "export", fake_export)
    monkeypatch.setattr(bp, "perfbench_runner",
                        lambda dirs, seconds, trace: lambda side, workload, seed: runs[side])
    out = tmp_path / "bench.json"
    assert bp.main(["--base", "a", "--change", "b", "--workload", "w", "--seeds", "7",
                    "--seconds", "1", "--scratch", str(tmp_path / "s"), "--out", str(out),
                    "--trace", str(trace)]) == 0
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    if trace:
        assert summary["census"] == bp.census([{"seed": 7, "first": "base", **runs}])
    else:
        assert "census" not in summary


def test_runner_passes_the_trace_flag(monkeypatch, tmp_path):
    calls = []

    def fake_run(cmd, cwd, **_):
        calls.append((cmd, cwd))
        return bp.subprocess.CompletedProcess(cmd, 0, TRACE_TEXT["change"], "")

    monkeypatch.setattr(bp.subprocess, "run", fake_run)
    record = bp.perfbench_runner({"change": tmp_path}, 20, 1)("change", "train_diffusion", 3)
    assert calls == [([bp.sys.executable, "perfbench/run.py", "--workload", "train_diffusion",
                       "--seed", "3", "--seconds", "20", "--trace", "1"], tmp_path)]
    assert record["returncode"] == 0 and record["metrics"]["autodiff.records_per_step"] == 47.0


def test_seed_lists_and_ranges():
    assert bp.parse_seeds("3,5,9-11") == [3, 5, 9, 10, 11]
    assert bp.parse_seeds("2101-2103") == [2101, 2102, 2103]


def test_verdict_names_equal_digests_worse_metrics_and_wrong_runs():
    better, bounds = bp.targets(SPEC, 0)
    pairs = [{"seed": 1, "first": "base", "base": BASE, "change": CHANGE}]
    line = bp.verdict("train_deterministic", pairs, bp.summarize(pairs, better, bounds))
    assert line == ("train_deterministic: equal loss digests in 1 of 1 pairs, "
                    "equal prediction digests in 1 of 1; worse beyond bound: none; "
                    "unresolved: none; not correct: none; failed share: base 0, change 0")
    # a second pair whose change run is wrong, differs in its digests, has
    # half the base's training throughput and failed 33 of its 659
    # operations
    slow = dict(_scaled(CHANGE, main_seq_per_s=0.5), correct=False, failed=33,
                digests={"losses": "x", "predictions": "y"})
    pairs.append({"seed": 2, "first": "change", "base": BASE, "change": slow})
    pairs.append({"seed": 3, "first": "base", "base": BASE, "change": slow})
    line = bp.verdict("w", pairs, bp.summarize(pairs, better, bounds))
    assert line == ("w: equal loss digests in 1 of 3 pairs, equal prediction digests in 1 "
                    "of 3; worse beyond bound: main_seq_per_s; "
                    "unresolved: none; not correct: seed 2 change, seed 3 change; "
                    "failed share: base 0, change 0.0334 (change higher)")
    # a lower or equal share is not flagged, and a side that attempted
    # nothing has no share
    for base_failed, change_failed, shares in ((33, 0, "base 0.0501, change 0"),
                                               (33, 33, "base 0.0501, change 0.0501")):
        pairs = [{"seed": 1, "first": "base", "base": dict(BASE, failed=base_failed),
                  "change": dict(CHANGE, failed=change_failed)}]
        line = bp.verdict("w", pairs, bp.summarize(pairs, better, bounds))
        assert line.endswith(f"; failed share: {shares}")
    pairs = [{"seed": 1, "first": "base", "base": dict(BASE, attempted=0, failed=0),
              "change": CHANGE}]
    line = bp.verdict("w", pairs, bp.summarize(pairs, better, bounds))
    assert line.endswith("; failed share: base none, change 0")


@pytest.mark.parametrize("correct,code", [(True, 0), (False, 1)])
def test_main_prints_a_verdict_per_workload_and_exits_1_on_a_wrong_run(
        monkeypatch, tmp_path, capsys, correct, code):
    def fake_export(rev, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(json.dumps(SPEC))
        return {"rev": rev}

    def fake_runner(dirs, seconds, trace):
        return lambda side, workload, seed: (
            BASE if side == "base" else dict(CHANGE, correct=correct or seed != 8))

    monkeypatch.setattr(bp, "export", fake_export)
    monkeypatch.setattr(bp, "perfbench_runner", fake_runner)
    out = tmp_path / "bench.json"
    assert bp.main(["--base", "a", "--change", "b", "--workload", "w1", "--workload", "w2",
                    "--seeds", "7-8", "--seconds", "1", "--scratch", str(tmp_path / "s"),
                    "--out", str(out)]) == code
    wrong = "none" if correct else "seed 8 change"
    assert capsys.readouterr().err.splitlines() == [
        f"{w}: equal loss digests in 2 of 2 pairs, equal prediction digests in 2 of 2; "
        f"worse beyond bound: none; unresolved: none; "
        f"not correct: {wrong}; failed share: base 0, change 0" for w in ("w1", "w2")]
    assert json.loads(out.read_text())["workloads"].keys() == {"w1", "w2"}
