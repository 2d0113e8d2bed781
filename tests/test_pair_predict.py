"""tools/pair_predict.py: its summary of synthetic timings, its alternating
pairs on stand-in predictors, its import of a source tree under its own
package name, and its synth, step and metrics units on that tree imported
twice; no revision is exported."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from meshmotion import metrics
from meshmotion import model as model_module
from meshmotion import synth

ROOT = Path(__file__).resolve().parent.parent


def _load():
    spec = importlib.util.spec_from_file_location("pair_predict", ROOT / "tools" / "pair_predict.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pp = _load()


def test_summary_of_synthetic_timings():
    base = [1.0, 2.0, 4.0, 1.0, 3.0]
    change = [0.9, 1.6, 4.4, 1.0, 2.7]   # ratios 0.9, 0.8, 1.1, 1.0, 0.9
    summary = pp.summarize(base, change)
    assert summary == {"pairs": 5, "median_pair_ratio": pytest.approx(0.9),
                       "change_wins": 3, "win_share": 0.6,
                       "base_median_s": 2.0, "change_median_s": 1.6}


def test_summary_of_no_pairs():
    assert pp.summarize([], []) == {"pairs": 0, "median_pair_ratio": None, "change_wins": 0,
                                    "win_share": None, "base_median_s": None,
                                    "change_median_s": None}


def test_summary_rejects_unpaired_timings():
    with pytest.raises(ValueError):
        pp.summarize([1.0, 2.0], [1.0])


def _stand_ins(calls, change_offset=0.0):
    # predictors that log (side, sequence, seed) and return the sequence plus
    # the offset on the change side
    def side(name, offset):
        def predict(seq, seed):
            calls.append((name, seq, seed))
            return np.array([seq + offset])
        return predict
    return {"base": side("base", 0.0), "change": side("change", change_offset)}


def test_pairs_alternate_sides_and_skip_the_warmup():
    calls = []
    ticks = iter(range(100))
    times = pp.time_pairs(_stand_ins(calls), [10, 20, 30], pairs=3, warmup=1,
                          clock=lambda: float(next(ticks)))
    assert calls == [("base", 10, 0), ("change", 10, 0), ("change", 20, 1), ("base", 20, 1),
                     ("base", 30, 2), ("change", 30, 2), ("change", 10, 3), ("base", 10, 3)]
    # each timed predict reads the clock twice in a row
    assert times == {"base": [1.0, 1.0, 1.0], "change": [1.0, 1.0, 1.0]}


def test_pairs_stop_when_the_predictions_differ():
    with pytest.raises(AssertionError, match="pair 0"):
        pp.time_pairs(_stand_ins([], change_offset=1.0), [1.0], pairs=2)


def test_a_source_tree_imports_under_its_own_package_name():
    name = "meshmotion_pair_test"
    try:
        package = pp.import_package(ROOT / "src", name)
        assert package.model is not model_module
        assert package.model.ad.__name__ == f"{name}.autodiff"
        config = dict(diffusion_on=False)
        theirs = package.model.build_model(package.model.ModelConfig(**config))
        ours = model_module.build_model(model_module.ModelConfig(**config))
        seq = pp.heldout(package.synth, theirs.graph, seed=3, count=1, frames=4)[0]
        np.testing.assert_array_equal(theirs.predict(seq, 1), ours.predict(seq, 1))
    finally:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]


@pytest.fixture
def two_trees():
    """This source tree imported under two package names, as the two sides
    of a pairing; both are removed from ``sys.modules`` afterwards."""
    names = ("meshmotion_pair_base", "meshmotion_pair_change")
    try:
        yield [pp.import_package(ROOT / "src", name) for name in names]
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] in names]:
            del sys.modules[key]


def test_synth_pairs_alternate_and_match_bit_for_bit(two_trees):
    base, change = two_trees
    run = {"base": pp.synth_unit(base, seed=3, frames=4),
           "change": pp.synth_unit(change, seed=3, frames=4)}
    times = pp.time_pairs(run, [0, 1, 2], pairs=4, warmup=1)
    assert [len(t) for t in times.values()] == [4, 4]
    gt, obs, mask = run["change"](2, 0)
    assert gt.shape == obs.shape == (4, 96, 3) and mask.shape == (4, 96)
    want = change.synth.generate_sequence(
        change.synth.MotionConfig(graph=change.body_graph.generate_toy_body(), frames=4),
        seed=300_002)
    np.testing.assert_array_equal(gt, want.gt_vertices)


def test_synth_pairs_stop_when_the_sequences_differ(two_trees, monkeypatch):
    base, change = two_trees
    monkeypatch.setattr(change.synth, "_ROOT_TRAVEL", 260.0)
    run = {"base": pp.synth_unit(base, seed=3, frames=4),
           "change": pp.synth_unit(change, seed=3, frames=4)}
    with pytest.raises(AssertionError, match="pair 0: the outputs differ"):
        pp.time_pairs(run, [0, 1], pairs=2)


# a tiny model: 16 vertices, 2 diffusion steps, 2 training steps
TINY = dict(vertices_per_part=2, coarse_per_part=1, channels=4, height=2, width=4,
            diffusion_steps=2, encoder_hidden=6, context_rows=2, batch_size=2, train_steps=2)


def _tiny_set(package, count=3, frames=4):
    graph = package.body_graph.generate_toy_body(2, 1)
    return [pp.perfbench_sequence(package.synth, graph, 3, i, frames) for i in range(count)]


def test_step_pairs_alternate_and_match_bit_for_bit(two_trees):
    base, change = two_trees
    run = {"base": pp.step_unit(base, TINY), "change": pp.step_unit(change, TINY)}
    dataset = _tiny_set(change)
    times = pp.time_pairs(run, [dataset], pairs=2, warmup=1)
    assert [len(t) for t in times.values()] == [2, 2]
    _, want = change.model.train(change.model.ModelConfig(**TINY), dataset)
    np.testing.assert_array_equal(run["base"](dataset, 0), want)
    assert len(want) == 2


def test_step_pairs_stop_when_the_losses_differ(two_trees):
    base, change = two_trees
    run = {"base": pp.step_unit(base, TINY),
           "change": pp.step_unit(change, {**TINY, "learning_rate": 1e-2})}
    with pytest.raises(AssertionError, match="pair 0: the outputs differ"):
        pp.time_pairs(run, [_tiny_set(change)], pairs=1)


def test_step_unit_trains_on_perfbench_sequences(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    graph = model_module.build_model(model_module.ModelConfig(**TINY)).graph
    want = workloads.make_sequences(graph, 3, 0, 2, 4)
    for i, seq in enumerate(want):
        got = pp.perfbench_sequence(synth, graph, 3, i, 4)
        for name in ("gt_vertices", "observations", "occlusion_mask"):
            np.testing.assert_array_equal(getattr(got, name), getattr(seq, name))


@pytest.mark.parametrize("workload", ["train_diffusion", "train_deterministic"])
def test_a_step_unit_trains_60_steps_on_either_workload(monkeypatch, workload, capsys):
    # main with --unit step hands the workload's model and STEPS to the unit
    import meshmotion

    configs = []
    monkeypatch.setattr(pp, "export", lambda rev, path: rev)
    monkeypatch.setattr(pp, "import_package", lambda src, name: meshmotion)
    monkeypatch.setattr(pp, "step_unit", lambda package, config: configs.append(config))
    monkeypatch.setattr(pp, "time_pairs", lambda run, items, pairs, warmup: {
        "base": [1.0] * pairs, "change": [1.0] * pairs})
    assert pp.main(["--base", "a", "--change", "b", "--unit", "step", "--workload", workload,
                    "--pairs", "2", "--scratch", "unused"]) == 0
    want = {"diffusion_on": workload == "train_diffusion", "train_steps": 60}
    assert configs == [want, want]
    assert '"pairs": 2' in capsys.readouterr().out


def test_main_stops_before_any_export_when_a_side_directory_exists(monkeypatch, tmp_path):
    (tmp_path / "change").mkdir()
    monkeypatch.setattr(pp, "export", lambda rev, path: pytest.fail(f"exported {path}"))
    with pytest.raises(SystemExit, match=f"^{tmp_path / 'change'} already exists"):
        pp.main(["--base", "a", "--change", "b", "--scratch", str(tmp_path)])


def _rows(values):
    return [metrics.PoseError(*row) for row in values]


def test_metrics_rows_match_in_bits_and_pa_within_its_tolerance():
    base = _rows([[10.0, 5.0, 3.0], [12.0, 6.0, 4.0]])
    assert pp.metrics_match(base, _rows([[10.0, 5.0, 3.0 * (1 + 9e-13)], [12.0, 6.0, 4.0]]))
    assert not pp.metrics_match(base, _rows([[10.0, 5.0, 3.0 * (1 + 2e-12)], [12.0, 6.0, 4.0]]))
    assert not pp.metrics_match(base, _rows([[10.0, np.nextafter(5.0, 6.0), 3.0],
                                             [12.0, 6.0, 4.0]]))
    assert not pp.metrics_match(base, _rows([[np.nextafter(10.0, 9.0), 5.0, 3.0],
                                             [12.0, 6.0, 4.0]]))
    assert not pp.metrics_match(base, base[:1])


def test_metrics_pairs_alternate_and_match(two_trees):
    base, change = two_trees
    run = {"base": pp.metrics_unit(base), "change": pp.metrics_unit(change)}
    scored = pp.scored_heldout(change, False, seed=3, count=3, frames=4)
    times = pp.time_pairs(run, [scored], pairs=3, warmup=1, same=pp.metrics_match)
    assert [len(t) for t in times.values()] == [3, 3]
    rows = run["change"](scored, 0)
    assert [r.as_tuple() for r in rows] == [
        r.as_tuple() for r in change.metrics.compute_metrics(
            *scored, change.metrics.build_joint_regressor(change.body_graph.generate_toy_body()))]


def test_metrics_pairs_stop_when_an_mpjpe_differs(two_trees, monkeypatch):
    base, change = two_trees
    compute = change.metrics.compute_metrics

    def one_ulp_off(*args):
        rows = compute(*args)
        rows[0].mpjpe = np.nextafter(rows[0].mpjpe, np.inf)
        return rows

    monkeypatch.setattr(change.metrics, "compute_metrics", one_ulp_off)
    run = {"base": pp.metrics_unit(base), "change": pp.metrics_unit(change)}
    scored = pp.scored_heldout(change, False, seed=3, count=2, frames=4)
    with pytest.raises(AssertionError, match="pair 0: the outputs differ"):
        pp.time_pairs(run, [scored], pairs=1, same=pp.metrics_match)


def test_metrics_unit_scores_perfbench_heldout_sequences(monkeypatch):
    import meshmotion

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    preds, gts = pp.scored_heldout(meshmotion, False, seed=3, count=2, frames=4)
    model = model_module.build_model(model_module.ModelConfig(diffusion_on=False))
    want = workloads.make_sequences(model.graph, 3, workloads.TRAIN_SEQS, 2, 4)
    assert workloads.TRAIN_SEQS == pp.TRAIN_SEQUENCES
    for i, seq in enumerate(want):
        np.testing.assert_array_equal(gts[i], seq.gt_vertices)
        np.testing.assert_array_equal(preds[i], model.predict(seq, seed=i))


def test_a_metrics_unit_scores_64_sequences_of_the_workloads_model(monkeypatch, capsys):
    import meshmotion

    calls = []
    monkeypatch.setattr(pp, "export", lambda rev, path: rev)
    monkeypatch.setattr(pp, "import_package", lambda src, name: meshmotion)
    monkeypatch.setattr(pp, "scored_heldout",
                        lambda package, diffusion_on, seed: calls.append((diffusion_on, seed)))
    monkeypatch.setattr(pp, "time_pairs", lambda run, items, pairs, warmup, same: calls.append(
        (pairs, warmup, same)) or {"base": [1.0] * pairs, "change": [1.0] * pairs})
    assert pp.main(["--base", "a", "--change", "b", "--unit", "metrics", "--seed", "12",
                    "--scratch", "unused"]) == 0
    assert calls == [(False, 12), (300, 8, pp.metrics_match)]
    assert pp.HELDOUT_SEQUENCES == 64
    assert '"unit": "metrics"' in capsys.readouterr().out
