import warnings

import numpy as np
import pytest

from oracle_ops import gradcheck
from meshmotion.autodiff import Tape, Tensor
from meshmotion.body_graph import DEFAULT_PARTS
from meshmotion.metrics import PoseError, compute_metrics
from meshmotion.model import (
    Adam,
    ConfigError,
    MeanPosePredictor,
    ModelConfig,
    TrainingDivergence,
    build_model,
    evaluate,
    train,
)
from meshmotion.synth import CorruptionConfig, MotionConfig, corrupt_sequence, generate_sequence


def tiny_config(**over) -> ModelConfig:
    base = dict(
        vertices_per_part=2,    # n = 16
        coarse_per_part=1,      # n_coarse = 8
        channels=4,
        height=2,
        width=4,
        diffusion_steps=2,
        encoder_hidden=6,
        train_steps=20,
        batch_size=2,
        context_rows=2,
        seed=0,
    )
    base.update(over)
    cfg = ModelConfig(**base)
    cfg.validate()
    return cfg


def make_dataset(config: ModelConfig, count: int, frames: int = 3, seed0: int = 0,
                 occlusion: float = 0.0):
    model = build_model(config)
    graph = model.graph
    seqs = []
    for i in range(count):
        seq = generate_sequence(MotionConfig(graph=graph, frames=frames), seed=seed0 + i)
        if occlusion > 0:
            seq = corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=occlusion),
                                   seed=seed0 + 1000 + i)
        seqs.append(seq)
    return model, seqs


def test_config_grid_invariant():
    with pytest.raises(ConfigError):
        tiny_config(height=3)  # 3*4 != 8


@pytest.mark.parametrize("over", [
    dict(vertices_per_part=1),                     # a part chain needs 2 vertices
    dict(context_rows=0),                          # attention over an empty context table
    dict(coarse_per_part=0, height=0),             # the grid matches the 0 coarse sites
    dict(coarse_per_part=13, height=8, width=13),  # more coarse than fine per part
    dict(learning_rate=float("nan")),              # non-finite at step 0
    dict(learning_rate=float("inf")),
    dict(learning_rate=-1.0),                      # trains uphill
    dict(part_loss_weight=float("nan")),
    dict(part_loss_weight=-0.1),
    dict(train_steps=-5),                          # would train for no step at all
    dict(height=-4, width=-6),                     # negative, though the product is 24
    dict(seed=-1),                                 # numpy seeds are non-negative
], ids=[f"over{i}" for i in (4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 17, 18)])  # a case keeps its id
def test_config_rejects_unbuildable_settings(over):
    cfg = ModelConfig(**over)
    with pytest.raises(ConfigError):
        cfg.validate()
    with pytest.raises(ConfigError):
        build_model(cfg)


def test_config_accepts_zero_training_settings():
    # zero is a valid rate, weight and step count: only NaN, Inf and
    # negatives are rejected
    cfg = tiny_config(learning_rate=0.0, part_loss_weight=0.0, train_steps=0)
    _, data = make_dataset(cfg, 2)
    _, losses = train(cfg, data)
    assert losses == []


def test_config_context_rows_unused_without_diffusion():
    ModelConfig(diffusion_on=False, context_rows=0).validate()


def test_build_determinism():
    cfg = tiny_config()
    a, b = build_model(cfg), build_model(cfg)
    sa, sb = a.param_slots(), b.param_slots()
    assert sorted(sa) == sorted(sb)
    for name in sa:
        ta = sa[name][0][sa[name][1]]
        tb = sb[name][0][sb[name][1]]
        assert ta.shape == tb.shape
        np.testing.assert_array_equal(ta.data, tb.data)


def test_no_schedule_allocated_when_diffusion_off():
    model = build_model(tiny_config(diffusion_on=False))
    assert not hasattr(model.core, "schedule")
    assert model.context_p is None


def test_forward_shape_contract():
    cfg = ModelConfig(seed=1, diffusion_steps=2, train_steps=1)
    cfg.validate()
    model = build_model(cfg)
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=4), seed=0)
    pred = model.predict(seq, seed=0)
    assert pred.shape == (4, 96, 3)


@pytest.mark.parametrize("obs_shape, mask_shape", [
    ((1, 3, 16, 2), (1, 3, 16)),    # two coordinates per vertex
    ((1, 3, 16, 3), (1, 3, 15)),    # mask one vertex short
    ((3, 16, 3), (3, 16)),          # no batch axis
    ((1, 3, 12, 3), (1, 3, 12)),    # another vertex count
])
def test_forward_rejects_malformed_sequences(obs_shape, mask_shape):
    model = build_model(tiny_config())
    with pytest.raises(ConfigError, match="must be"):
        model.forward(np.zeros(obs_shape), np.zeros(mask_shape), seed=0)


@pytest.mark.parametrize("gt_shape", [(1, 3, 16, 3), (2, 3, 17, 3)],
                         ids=["batch_of_one", "one_vertex_more"])
def test_loss_rejects_ground_truth_of_another_shape(gt_shape):
    model = build_model(tiny_config())
    out = model.forward(np.zeros((2, 3, 16, 3)), np.zeros((2, 3, 16)), seed=0)
    with pytest.raises(ConfigError, match="must be the prediction's"):
        model.loss(out, np.zeros(gt_shape))


def test_train_rejects_sequences_of_different_shapes():
    cfg = tiny_config(train_steps=1)
    _, short = make_dataset(cfg, 1, frames=3)
    _, longer = make_dataset(cfg, 1, frames=4)
    with pytest.raises(ConfigError, match="differ in shape"):
        train(cfg, short + longer)


@pytest.mark.parametrize("depth", [1, 2])
def test_part_starts_match_the_label_oracle(depth):
    # oracle: label each vertex with its part and each coarse vertex with the
    # part of its pooled group (read off the down matrix), then start a
    # segment wherever a level's label changes
    model = build_model(ModelConfig(hierarchy_depth=depth))
    graph = model.graph
    part_labels = np.repeat(np.arange(len(DEFAULT_PARTS)), model.config.vertices_per_part)
    coarse_labels = part_labels[np.argmax(graph.down_matrix.data > 0, axis=1)]
    labels = (coarse_labels, part_labels)
    want = [np.flatnonzero(np.diff(level, prepend=-1)) for level in labels[2 - depth:]]
    assert len(model.part_starts) == depth
    for got, expected in zip(model.part_starts, want):
        np.testing.assert_array_equal(got, expected)


def test_a_zero_part_loss_weight_leaves_the_part_term_out():
    # a weight of 0 records no part loss and changes no prediction; the
    # default weight records one part loss per hierarchy level
    m_on, m_off = build_model(tiny_config()), build_model(tiny_config(part_loss_weight=0.0))
    seq = generate_sequence(MotionConfig(graph=m_on.graph, frames=3), seed=5)
    np.testing.assert_array_equal(m_on.predict(seq, seed=2), m_off.predict(seq, seed=2))
    obs, mask = seq.observations[None], seq.occlusion_mask[None]
    for model, kl_records in ((m_on, 2), (m_off, 0)):
        with Tape() as tape:
            model.loss(model.forward(obs, mask, seed=2), seq.gt_vertices[None])
        assert [r.name for r in tape.records].count("segment_softmax_kl") == kl_records


def test_predict_deterministic():
    model = build_model(tiny_config())
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=3), seed=6)
    np.testing.assert_array_equal(model.predict(seq, seed=3), model.predict(seq, seed=3))


def test_train_zero_learning_rate_constant_loss():
    # full-batch mode: the per-step loss is a pure function of the parameters
    cfg = tiny_config(learning_rate=0.0, train_steps=5, batch_size=4)
    _, seqs = make_dataset(cfg, 4)
    _, losses = train(cfg, seqs)
    assert len(losses) == 5
    assert max(losses) - min(losses) < 1e-12


def test_train_same_seed_identical_curves():
    cfg = tiny_config(train_steps=6)
    _, seqs = make_dataset(cfg, 4)
    _, la = train(cfg, seqs)
    _, lb = train(cfg, seqs)
    assert la == lb


def test_train_reduces_loss_and_beats_mean_pose():
    cfg = tiny_config(train_steps=200, batch_size=4, learning_rate=5e-3)
    model0, seqs = make_dataset(cfg, 32, frames=3, seed0=50)
    model, losses = train(cfg, seqs)
    assert losses[-1] < 0.5 * losses[0]

    baseline = MeanPosePredictor(seqs, model.regressor)
    base_err, _ = evaluate(baseline, seqs)
    model_err, _ = evaluate(model, seqs)
    assert model_err.mpvpe < base_err.mpvpe


def test_train_divergence_reports_step():
    cfg = tiny_config(learning_rate=1e150, train_steps=10)
    _, seqs = make_dataset(cfg, 4)
    # numpy's overflow warning must not pre-empt the typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDivergence) as exc:
            train(cfg, seqs)
    assert exc.value.step >= 0


@pytest.mark.parametrize("diffusion_on", [False, True], ids=["deterministic", "diffusion"])
def test_end_to_end_gradcheck_miniature(diffusion_on):
    # total training loss gradient vs central differences, n=16, T=2,
    # diffusion_steps=2, C=4. The variance-derived part weights are pinned at
    # their base values (they carry no gradient by construction). No central
    # difference here steps across a relu kink: the deterministic case reads
    # about 2e-5.
    cfg = tiny_config(diffusion_on=diffusion_on)
    model, seqs = make_dataset(cfg, 2, frames=2)
    obs = np.stack([s.observations for s in seqs])
    mask = np.stack([s.occlusion_mask for s in seqs])
    gt = np.stack([s.gt_vertices for s in seqs])

    slots = model.param_slots()
    names = sorted(slots)
    base_out = model.forward(obs, mask, seed=7)
    lam = model.part_weight_levels(base_out)

    def run(*params):
        for name, p in zip(names, params):
            holder, key = slots[name]
            holder[key] = p
        out = model.forward(obs, mask, seed=7)
        return model.loss(out, gt, part_weights=lam)

    inputs = [slots[n][0][slots[n][1]].data for n in names]
    err = gradcheck(run, inputs, max_coords=4)
    assert err < 1e-4


def test_evaluate_identity_stub_zero_error():
    cfg = tiny_config()
    model, _ = make_dataset(cfg, 1)
    seqs = [generate_sequence(MotionConfig(graph=model.graph, frames=3), seed=i)
            for i in range(3)]

    class IdentityStub:
        regressor = model.regressor

        def predict(self, seq, seed=0):
            return seq.observations  # clean observations equal ground truth

    agg, rows = evaluate(IdentityStub(), seqs)
    assert agg.mpvpe == 0.0 and agg.mpjpe == 0.0 and agg.pa_mpjpe < 1e-9
    assert len(rows) == 3 and all(isinstance(r, PoseError) for r in rows)
    del IdentityStub.regressor
    with pytest.raises(ConfigError, match="no joint regressor"):
        evaluate(IdentityStub(), seqs)


def test_evaluate_aggregate_is_mean_of_rows():
    cfg = tiny_config()
    model, seqs = make_dataset(cfg, 3)
    agg, rows = evaluate(model, seqs)
    vals = np.array([r.as_tuple() for r in rows])
    np.testing.assert_allclose(agg.as_tuple(), vals.mean(axis=0), atol=1e-12)


def test_evaluate_idempotent():
    cfg = tiny_config()
    model, seqs = make_dataset(cfg, 2)
    a1, r1 = evaluate(model, seqs)
    a2, r2 = evaluate(model, seqs)
    assert a1.as_tuple() == a2.as_tuple()
    for x, y in zip(r1, r2):
        assert x.as_tuple() == y.as_tuple()


def test_evaluate_rows_equal_per_sequence_metrics_bit_for_bit():
    # one batched metrics pass over 3-, 5- and 16-frame sequences scores
    # each row as that sequence's own compute_metrics call; predict runs
    # once per sequence, in order, seeded with the index
    cfg = tiny_config()
    model, _ = make_dataset(cfg, 1)
    seqs = [corrupt_sequence(generate_sequence(MotionConfig(graph=model.graph, frames=t),
                                               seed=30 + i),
                             model.graph, CorruptionConfig(occlusion_prob=0.3), seed=60 + i)
            for i, t in enumerate((3, 16, 5, 3, 16, 5, 16))]
    calls = []

    class Recording:
        regressor = model.regressor

        def predict(self, seq, seed=0):
            calls.append((seq, seed))
            return model.predict(seq, seed=seed)

    agg, rows = evaluate(Recording(), seqs)
    assert [(id(seq), seed) for seq, seed in calls] == [(id(s), i) for i, s in enumerate(seqs)]
    assert len(rows) == len(seqs)
    for i, (row, seq) in enumerate(zip(rows, seqs)):
        alone = compute_metrics([model.predict(seq, seed=i)], [seq.gt_vertices],
                                model.regressor)[0]
        assert row.as_tuple() == alone.as_tuple()
    means = np.array([r.as_tuple() for r in rows]).mean(axis=0)
    assert agg.as_tuple() == tuple(float(m) for m in means)


def test_adam_skips_gradless_params():
    t = Tensor(np.ones(3), requires_grad=True)
    holder = {"w": t}
    opt = Adam({"w": (holder, "w")}, lr=0.1)
    opt.step()
    np.testing.assert_array_equal(holder["w"].data, np.ones(3))
