import hashlib
import warnings
import zlib

import numpy as np
import pytest

from oracle_ops import SlotAdam, gradcheck
from meshmotion import autodiff as ad
from meshmotion import model as model_module
from meshmotion.autodiff import NumericsError, Tape, Tensor
from meshmotion.body_graph import DEFAULT_PARTS
from meshmotion.metrics import PoseError, compute_metrics
from meshmotion.model import (
    MM_SCALE,
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


@pytest.mark.parametrize("over", [
    dict(seed=1.5), dict(channels=2.5), dict(encoder_hidden=3.5), dict(context_rows=1.5),
    dict(diffusion_steps=2.5),   # each failed inside numpy while building
    dict(train_steps=1.5), dict(batch_size=2.5),   # each built and failed inside train
    # a Python bool is an int, but counts and seeds no more than np.True_ does
    dict(channels=True), dict(seed=False), dict(batch_size=True), dict(train_steps=True),
    dict(hierarchy_depth=True),
], ids=["seed", "channels", "encoder_hidden", "context_rows", "diffusion_steps", "train_steps",
        "batch_size", "bool_channels", "bool_seed", "bool_batch_size", "bool_train_steps",
        "bool_hierarchy_depth"])
def test_config_rejects_a_count_that_is_not_an_integer(over):
    cfg = ModelConfig(**over)
    with pytest.raises(ConfigError, match=f"{next(iter(over))} must be an integer"):
        cfg.validate()
    with pytest.raises(ConfigError):
        build_model(cfg)
    # numpy integers are integers
    ModelConfig(**{name: np.int64(round(v + 0.5)) for name, v in over.items()}).validate()


@pytest.mark.parametrize("over, field", [
    (dict(diffusion_on="no"), "diffusion_on"),       # truthy: trained a diffusion model
    (dict(diffusion_on=2), "diffusion_on"),
    (dict(learning_rate=True), "learning_rate"),     # ran at rate 1.0
    (dict(learning_rate="0.1"), "learning_rate"),    # a bare TypeError from math.isfinite
    (dict(part_loss_weight=None), "part_loss_weight"),
], ids=["diffusion_on_str", "diffusion_on_int", "bool_rate", "str_rate", "none_weight"])
def test_config_rejects_a_setting_of_the_wrong_type(over, field):
    cfg = ModelConfig(**over)
    with pytest.raises(ConfigError, match=f"^{field} must be a "):
        cfg.validate()
    with pytest.raises(ConfigError, match=f"^{field} must be a "):
        build_model(cfg)


def test_config_accepts_numpy_bools_and_reals():
    ModelConfig(diffusion_on=np.False_, learning_rate=np.float32(1e-3),
                part_loss_weight=1).validate()


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
    assert not hasattr(model.core, "alpha_bar")
    assert not hasattr(model.core, "p")  # no context table either


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


@pytest.mark.parametrize("diffusion_on", [True, False], ids=["diffusion", "deterministic"])
def test_empty_batch_or_sequence_raises_config_error(diffusion_on):
    # B = 0 or T = 0 is named at the model's edge, not deep in the encoder
    model = build_model(tiny_config(diffusion_on=diffusion_on))
    for b, t in ((0, 3), (1, 0)):
        with pytest.raises(ConfigError, match=f"got B={b} and T={t}$"):
            model.forward(np.zeros((b, t, 16, 3)), np.zeros((b, t, 16)), seed=0)
    empty = generate_sequence(MotionConfig(graph=model.graph, frames=3), seed=0)
    empty = type(empty)(*(a[:0] for a in (empty.gt_vertices, empty.observations,
                                          empty.occlusion_mask)))
    with pytest.raises(ConfigError, match="got B=1 and T=0$"):
        model.predict(empty)
    with pytest.raises(ConfigError, match="got B=1 and T=0$"):
        evaluate(model, [empty])


# (3, 2) and (1, 6) hold the batch's 6 frames, grouped into other sequences
@pytest.mark.parametrize("gt_shape", [(1, 3, 16, 3), (2, 3, 17, 3), (3, 2, 16, 3), (1, 6, 16, 3)],
                         ids=["batch_of_one", "one_vertex_more", "regrouped", "one_sequence"])
def test_loss_rejects_ground_truth_of_another_shape(gt_shape):
    model = build_model(tiny_config())
    out = model.forward(np.zeros((2, 3, 16, 3)), np.zeros((2, 3, 16)), seed=0)
    with pytest.raises(ConfigError, match="must be the prediction's"):
        model.loss(out, np.zeros(gt_shape))


@pytest.mark.parametrize("seed", [-1, 1.5, True])
@pytest.mark.parametrize("diffusion_on", [True, False], ids=["diffusion", "deterministic"])
def test_forward_rejects_a_seed_that_is_not_a_non_negative_integer(diffusion_on, seed):
    # the deterministic core reads no seed, yet rejects the same ones
    model = build_model(tiny_config(diffusion_on=diffusion_on))
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=3), seed=0)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        model.forward(seq.observations[None], seq.occlusion_mask[None], seed=seed)
    with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
        model.predict(seq, seed=seed)


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


# the tape records of one default training step, counted per op; an exact
# census also pins the step's total (54 with diffusion, 33 without), and a
# change to it reads per op. Without diffusion: encoder, graph+time stack
# (two temporal attention layers), head, one part-loss record per level, and
# two lincombs: the levels' sum and the weighted term. With it, the block
# adds one denoiser call at the sampled step (two cross-attention layers,
# each projecting its context inside its record, and the predictor's
# graph+time pass and norm) and six lincombs: the two closed-form noisings,
# the norm shift, x0_hat, the block loss's difference and its weighted term.
DEFAULT_STEP_CENSUS = {
    "diffusion": {
        "matmul": 8, "lincomb": 8, "reshape": 8, "relu": 7, "transpose": 7,
        "attention_layer": 5, "affine": 3, "conv3d": 3, "mse": 2, "segment_softmax_kl": 2,
        "layer_norm": 1,
    },
    "deterministic": {
        "reshape": 6, "matmul": 5, "relu": 5, "transpose": 5, "affine": 3, "conv3d": 2,
        "attention_layer": 2, "segment_softmax_kl": 2, "lincomb": 2, "mse": 1,
    },
}


@pytest.mark.parametrize("workload", sorted(DEFAULT_STEP_CENSUS))
def test_default_step_census(default_step, workload):
    census, _, _ = default_step(workload)
    assert census == DEFAULT_STEP_CENSUS[workload]


# NaN/Inf scans (_check_finite calls) of one default predict of a 16-frame
# sequence (one denoiser call) and of one default training step's taped
# forward and loss (one denoiser call): reshape, transpose and relu make
# none, and each layer_norm scans its standard deviation and its output
DEFAULT_SCANS = {"diffusion": (44, 53), "deterministic": (20, 25)}
# and the gradient scans of that step's backward: the seed's, and one per
# gradient a record returns unless reshape, transpose or relu returns it
# (81 of the diffusion step's 103 gradients, 40 of the deterministic 56; an
# attention layer returns two context gradients, its keys' and its values')
DEFAULT_GRADIENT_SCANS = {"diffusion": 1 + 81, "deterministic": 1 + 40}


@pytest.mark.parametrize("workload", sorted(DEFAULT_SCANS))
def test_default_scan_counts(monkeypatch, workload):
    config = ModelConfig(diffusion_on=workload == "diffusion")
    model = build_model(config)
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=16), seed=5)
    obs = np.random.default_rng(32).standard_normal((config.batch_size, 16,
                                                     config.n_vertices, 3)) * 100.0
    scans = []
    check = ad._check_finite
    monkeypatch.setattr(ad, "_check_finite", lambda *args: scans.append(args[:2]) or check(*args))
    model.predict(seq, seed=1)
    predicted = len(scans)
    with Tape() as tape:
        loss = model.loss(model.forward(obs, np.zeros(obs.shape[:3]), seed=0), obs + 1.0)
    assert (predicted, len(scans) - predicted) == DEFAULT_SCANS[workload]
    assert not {name for name, _ in scans} & {"reshape", "transpose", "relu"}
    # each record input takes one gradient in this step
    scanned = sum(t is not None for r in tape.records
                  if r.name not in ("reshape", "transpose", "relu") for t in r.inputs)
    isfinite, grad_scans = np.isfinite, []
    with monkeypatch.context() as patch:
        patch.setattr(np, "isfinite", lambda x: grad_scans.append(x.shape) or isfinite(x))
        tape.backward(loss)
    assert len(grad_scans) == 1 + scanned == DEFAULT_GRADIENT_SCANS[workload]


# the default initial parameters: the sha256 of the sorted per-slot digests
# (each of a slot's shape and bytes), so slot names and order do not count,
# but a refactor that moves a draw does
DEFAULT_PARAMS_SHA256 = {
    "diffusion": "7f9695ba2efb1d57dbfff78f642ca6b34e0c7c62f7ed6f859abb8ace7b1df6e9",
    "deterministic": "914e09d4c8fa3892aa38724764eca9c785d8416e4389b49fe21d326c83e81d28",
}


@pytest.mark.parametrize("workload", sorted(DEFAULT_PARAMS_SHA256))
def test_default_initial_parameters_are_pinned(workload):
    model = build_model(ModelConfig(diffusion_on=workload == "diffusion"))
    digests = sorted(
        hashlib.sha256(repr(h[k].shape).encode() + h[k].data.tobytes()).hexdigest()
        for h, k in model.param_slots().values())
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == DEFAULT_PARAMS_SHA256[workload]


def test_predict_builds_no_block_loss(monkeypatch):
    # the forward of a training step takes one mse, at its sampled step; a
    # default predict takes none
    model = build_model(ModelConfig())
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=4), seed=8)
    calls = []
    mse = ad.mse
    monkeypatch.setattr(ad, "mse", lambda *args: calls.append(1) or mse(*args))
    model.predict(seq, seed=1)
    assert calls == []
    model.forward(seq.observations[None], seq.occlusion_mask[None], seed=1)
    assert len(calls) == 1


@pytest.mark.parametrize("diffusion_on", [False, True], ids=["deterministic", "diffusion"])
def test_untaped_ops_pass_no_backward(monkeypatch, diffusion_on):
    model = build_model(tiny_config(diffusion_on=diffusion_on))
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=3), seed=4)
    backwards = []
    result = ad._result

    def recording(name, inputs, out, backward):
        backwards.append((name, backward))
        return result(name, inputs, out, backward)

    monkeypatch.setattr(ad, "_result", recording)
    model.predict(seq, seed=2)
    assert len(backwards) > 10
    assert [name for name, backward in backwards if backward is not None] == []


@pytest.mark.parametrize("config", [ModelConfig(), tiny_config()], ids=["default", "tiny"])
def test_predict_equals_the_taped_loss_building_forward(config):
    # backward closures change no bit of the prediction: a taped forward
    # without the block loss returns the same estimate at the last step
    # (with it, the block scores its sampled step)
    model = build_model(config)
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=5), seed=9)
    with Tape() as tape:
        out = model.forward(seq.observations[None], seq.occlusion_mask[None], seed=4,
                            block_loss=False)
    assert len(tape.records) > 30
    want = (out["pred_scaled"].data * (1.0 / MM_SCALE)).reshape(seq.observations.shape)
    np.testing.assert_array_equal(model.predict(seq, seed=4), want)


@pytest.mark.parametrize("diffusion_on", [False, True], ids=["deterministic", "diffusion"])
def test_loss_rejects_a_diffusion_forward_without_its_block_loss(diffusion_on):
    model = build_model(tiny_config(diffusion_on=diffusion_on))
    seq = generate_sequence(MotionConfig(graph=model.graph, frames=3), seed=3)
    out = model.forward(seq.observations[None], seq.occlusion_mask[None], seed=0,
                        block_loss=False)
    assert out["eps_loss"] is None
    if diffusion_on:
        with pytest.raises(ConfigError, match="block loss"):
            model.loss(out, seq.gt_vertices[None])
    else:
        # the deterministic core has no block loss to leave out
        assert model.loss(out, seq.gt_vertices[None]).item() > 0.0


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


def _slot_values(slots):
    return {name: holder[key].data for name, (holder, key) in slots.items()}


@pytest.mark.parametrize("diffusion_on", [False, True], ids=["deterministic", "diffusion"])
def test_flat_adam_matches_the_per_slot_reference(diffusion_on):
    # the default slots over six steps, every slot with a gradient in each,
    # of magnitudes from 1e-6 to 10
    config = ModelConfig(diffusion_on=diffusion_on)
    flat_slots, ref_slots = (build_model(config).param_slots() for _ in range(2))
    flat, ref = Adam(flat_slots, lr=config.learning_rate), SlotAdam(ref_slots, lr=config.learning_rate)
    names = list(flat_slots)
    rng = np.random.default_rng(36)
    for _ in range(6):
        for name in names:
            holder, key = flat_slots[name]
            g = rng.standard_normal(holder[key].shape) * 10.0 ** rng.integers(-6, 2)
            holder[key].grad = g
            ref_slots[name][0][ref_slots[name][1]].grad = g
        flat.step()
        ref.step()
        after, want = _slot_values(flat_slots), _slot_values(ref_slots)
        for name in names:
            np.testing.assert_array_equal(after[name], want[name])
            assert not after[name].flags.writeable
        np.testing.assert_array_equal(flat.m, np.concatenate([ref.m[n].ravel() for n in names]))
        np.testing.assert_array_equal(flat.v, np.concatenate([ref.v[n].ravel() for n in names]))


def _stepped_adam():
    """An Adam over two slots after one step, each slot's new tensor given a
    gradient, and a copy of its state: the step count, the flat vectors and
    the slots' tensors."""
    holder = {"a": Tensor(np.ones(2), requires_grad=True),
              "b": Tensor(np.ones(3), requires_grad=True)}
    opt = Adam({k: (holder, k) for k in holder}, lr=0.1)
    holder["a"].grad, holder["b"].grad = np.full(2, 0.5), np.full(3, -2.0)
    opt.step()
    holder["a"].grad, holder["b"].grad = np.full(2, 0.5), np.full(3, -2.0)
    return opt, holder, (opt.t, opt.flat.copy(), opt.m.copy(), opt.v.copy(), dict(holder))


def _assert_unchanged(opt, holder, state):
    t, flat, m, v, tensors = state
    assert opt.t == t
    for got, want in zip((opt.flat, opt.m, opt.v), (flat, m, v)):
        np.testing.assert_array_equal(got, want)
    assert holder == tensors


def test_adam_rejects_a_slot_without_a_gradient_before_any_change():
    opt, holder, state = _stepped_adam()
    holder["b"].grad = None
    with pytest.raises(ConfigError, match="^parameter slot 'b' has no gradient$"):
        opt.step()
    _assert_unchanged(opt, holder, state)


def test_adam_rejects_a_replaced_slot_before_any_change():
    # a replaced tensor of the same shape, with a gradient, is still refused
    opt, holder, state = _stepped_adam()
    holder["a"] = Tensor(np.zeros(2), requires_grad=True)
    holder["a"].grad = np.ones(2)
    state = (*state[:4], dict(holder))
    with pytest.raises(ConfigError, match="^parameter slot 'a' was replaced since the last step$"):
        opt.step()
    _assert_unchanged(opt, holder, state)


def test_adam_raises_the_reference_error_on_a_non_finite_update():
    # an infinite step raises before any slot changes, as the per-slot
    # update's tensor does
    messages = []
    for optimizer in (Adam, SlotAdam):
        holder = {"a": Tensor(np.ones(2), requires_grad=True),
                  "b": Tensor(np.ones(3), requires_grad=True)}
        kept = dict(holder)
        opt = optimizer({k: (holder, k) for k in holder}, lr=np.inf)
        holder["a"].grad, holder["b"].grad = np.zeros(2), np.ones(3)
        with pytest.raises(NumericsError) as exc, np.errstate(invalid="ignore"):
            opt.step()
        messages.append(str(exc.value))
        if optimizer is Adam:
            assert holder == kept
    assert messages[0] == messages[1]


def _minibatch(config, dataset):
    """The first step's batch of ``train``, its noise seed and its stacked
    observations, masks and ground truth."""
    idx = np.random.default_rng(config.seed).choice(len(dataset), size=config.batch_size,
                                                    replace=False)
    noise_seed = config.seed * 1_000_003 + int(zlib.crc32(idx.astype("<i8").tobytes()))
    stacked = [np.stack([getattr(dataset[i], name) for i in idx])
               for name in ("observations", "occlusion_mask", "gt_vertices")]
    return noise_seed, *stacked


@pytest.mark.parametrize("diffusion_on", [False, True], ids=["deterministic", "diffusion"])
def test_train_writes_the_rows_forward_builds(monkeypatch, diffusion_on):
    # a step runs Model.forward on its stacked minibatch, so a traced step
    # has a model.forward span; the encoder's input rows are the raw array
    # the first Linear takes
    cfg = tiny_config(diffusion_on=diffusion_on, train_steps=1, batch_size=3)
    _, seqs = make_dataset(cfg, 5, frames=4, occlusion=0.4)
    calls, rows = [], []
    forward, linear = model_module.Model.forward, model_module.Linear.__call__

    def recording(self, observations, mask, seed, *, block_loss=True):
        calls.append((observations, mask, seed, block_loss))
        return forward(self, observations, mask, seed, block_loss=block_loss)

    def encoder_input(self, x):
        if isinstance(x, np.ndarray):
            rows.append(x)
        return linear(self, x)

    monkeypatch.setattr(model_module.Model, "forward", recording)
    monkeypatch.setattr(model_module.Linear, "__call__", encoder_input)
    train(cfg, seqs)
    noise_seed, obs, mask, _ = _minibatch(cfg, seqs)
    (got_obs, got_mask, got_seed, block_loss), = calls
    np.testing.assert_array_equal(got_obs, obs)
    np.testing.assert_array_equal(got_mask, mask)
    assert got_seed == noise_seed and block_loss is True
    assert mask.any()
    want = np.concatenate([obs.reshape(12, 48) * MM_SCALE, mask.reshape(12, 16)], axis=1)
    (trained,) = rows
    np.testing.assert_array_equal(trained, want)


@pytest.mark.parametrize("diffusion_on", [False, True], ids=["deterministic", "diffusion"])
def test_a_train_step_equals_the_reference_step_on_stacked_arrays(diffusion_on):
    cfg = tiny_config(diffusion_on=diffusion_on, train_steps=1, batch_size=3)
    _, seqs = make_dataset(cfg, 5, frames=4, occlusion=0.4)
    trained, losses = train(cfg, seqs)

    noise_seed, obs, mask, gt = _minibatch(cfg, seqs)
    model = build_model(cfg)
    slots = model.param_slots()
    with Tape() as tape:
        loss = model.loss(model.forward(obs, mask, seed=noise_seed), gt)
    tape.backward(loss)
    SlotAdam(slots, lr=cfg.learning_rate).step()
    assert losses == [loss.item()]
    got = _slot_values(trained.param_slots())
    for name, value in _slot_values(slots).items():
        np.testing.assert_array_equal(got[name], value)


def test_train_rejects_sequences_the_model_cannot_take():
    # checked once, before the first step, with the forward's message: so
    # also when there is no step
    _, seqs = make_dataset(tiny_config(), 2)
    short = [type(s)(s.gt_vertices[:, :12], s.observations[:, :12], s.occlusion_mask[:, :12])
             for s in seqs]
    for steps in (1, 0):
        with pytest.raises(ConfigError, match=r"must be \(B, T, 16, 3\) and \(B, T, 16\)"):
            train(tiny_config(train_steps=steps), short)
