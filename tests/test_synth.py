import numpy as np
import pytest

from meshmotion.body_graph import DEFAULT_PARTS, generate_toy_body
from meshmotion.metrics import build_joint_regressor
from meshmotion.synth import (
    CorruptionConfig,
    MotionConfig,
    SynthError,
    corrupt_sequence,
    generate_sequence,
)


@pytest.fixture(scope="module")
def graph():
    return generate_toy_body()


def test_same_seed_bitwise_identical(graph):
    cfg = MotionConfig(graph=graph, frames=8)
    a = generate_sequence(cfg, seed=42)
    b = generate_sequence(cfg, seed=42)
    np.testing.assert_array_equal(a.gt_vertices, b.gt_vertices)
    np.testing.assert_array_equal(a.gt_joints, b.gt_joints)
    c = generate_sequence(cfg, seed=43)
    assert not np.array_equal(a.gt_vertices, c.gt_vertices)


def test_frame_count_contract(graph):
    for T in (2, 5, 16):
        seq = generate_sequence(MotionConfig(graph=graph, frames=T), seed=0)
        assert seq.frames == T
        assert seq.gt_vertices.shape == (T, graph.n_vertices, 3)


def test_bone_lengths_constant(graph):
    # distance-recomputation oracle over designated within-part joint pairs
    reg = build_joint_regressor(graph)
    cfg = MotionConfig(graph=graph, frames=10)
    worst = 0.0
    for seed in range(100):
        seq = generate_sequence(cfg, seed=seed, regressor=reg)
        for a, b in reg.bone_pairs:
            lengths = np.linalg.norm(seq.gt_joints[:, a] - seq.gt_joints[:, b], axis=1)
            worst = max(worst, float(lengths.max() - lengths.min()))
    assert worst < 1e-6


def test_joints_consistent_with_regressor(graph):
    reg = build_joint_regressor(graph)
    seq = generate_sequence(MotionConfig(graph=graph, frames=4), seed=7)
    np.testing.assert_allclose(seq.gt_joints, reg(seq.gt_vertices), atol=1e-9)


def test_velocity_cap(graph):
    cfg = MotionConfig(graph=graph, frames=12, angle_amplitude=2.5,
                       root_travel=2000.0, max_joint_step=25.0)
    for seed in range(10):
        seq = generate_sequence(cfg, seed=seed)
        steps = np.linalg.norm(np.diff(seq.gt_joints, axis=0), axis=2)
        assert steps.max() <= cfg.max_joint_step + 1e-9


def test_generation_config_errors(graph):
    with pytest.raises(SynthError):
        generate_sequence(MotionConfig(graph=graph, frames=1), seed=0)
    with pytest.raises(SynthError):
        generate_sequence(MotionConfig(graph=graph, max_joint_step=0.0), seed=0)
    custom = generate_toy_body(4, 2, parts=("a", "b"))
    with pytest.raises(SynthError):
        generate_sequence(MotionConfig(graph=custom), seed=0)
    # a part the motion plan does not pose would have no ground truth
    extra = generate_toy_body(parts=DEFAULT_PARTS + ("tail",))
    with pytest.raises(SynthError):
        generate_sequence(MotionConfig(graph=extra), seed=0)


def test_noop_corruption_is_identity(graph):
    seq = generate_sequence(MotionConfig(graph=graph, frames=6), seed=1)
    out = corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=0.0, blur_width=1), seed=0)
    np.testing.assert_array_equal(out.observations, seq.observations)
    assert out.occlusion_mask.sum() == 0


def test_corruption_rejects_a_sequence_of_another_vertex_count(graph):
    # parts past the sequence's last vertex would slice to nothing, leaving
    # most of every event unapplied
    small = generate_sequence(MotionConfig(graph=generate_toy_body(2, 1), frames=4), seed=0)
    with pytest.raises(SynthError, match="16 vertices"):
        corrupt_sequence(small, graph, CorruptionConfig(occlusion_prob=1.0), seed=0)


def test_full_occlusion_of_one_part(graph):
    # every frame starts a one-frame event that zeroes one whole part
    seq = generate_sequence(MotionConfig(graph=graph, frames=5), seed=2)
    cfg = CorruptionConfig(occlusion_prob=1.0, severity_range=(1.0, 1.0), max_span=1,
                           blur_width=1)
    out = corrupt_sequence(seq, graph, cfg, seed=3)
    for f in range(seq.frames):
        masked = out.occlusion_mask[f] == 1.0
        assert np.all((out.occlusion_mask[f] == 0.0) | masked)
        hit = [ids for ids in graph.part_vertices() if masked[ids].any()]
        assert len(hit) == 1
        ids = hit[0]
        assert np.all(masked[ids]) and masked.sum() == len(ids)
        assert np.all(out.observations[f, ids] == 0.0)
        np.testing.assert_array_equal(out.observations[f, ~masked],
                                      seq.gt_vertices[f, ~masked])


def test_blur_preserves_linear_ramp_interior(graph):
    # box filters reproduce linear-in-time signals away from the edges
    seq = generate_sequence(MotionConfig(graph=graph, frames=8), seed=3)
    ramp = np.linspace(0, 700, 8)[:, None, None] * np.ones((8, graph.n_vertices, 3))
    seq.observations[:] = ramp
    seq.gt_vertices[:] = ramp
    cfg = CorruptionConfig(occlusion_prob=0.0, blur_width=3)
    out = corrupt_sequence(seq, graph, cfg, seed=0)
    np.testing.assert_allclose(out.observations[1:-1], ramp[1:-1], atol=1e-9)
    assert not np.allclose(out.observations[0], ramp[0])


def test_corruption_never_touches_gt(graph):
    seq = generate_sequence(MotionConfig(graph=graph, frames=6), seed=4)
    before = seq.gt_vertices.copy()
    out = corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=0.8, blur_width=3), seed=5)
    np.testing.assert_array_equal(out.gt_vertices, before)
    np.testing.assert_array_equal(seq.gt_vertices, before)


def test_log_replay_audit(graph):
    # without blur, occlusion is the only change: observations equal ground
    # truth exactly where the mask is 0 and are 0 where it is 1, and an event
    # masks a leading run of its part's vertices
    rng = np.random.default_rng(6)
    for trial in range(50):
        frames = int(rng.integers(4, 12))
        seq = generate_sequence(MotionConfig(graph=graph, frames=frames), seed=trial)
        cfg = CorruptionConfig(
            occlusion_prob=float(rng.uniform(0, 1)),
            blur_width=1,
            severity_range=(0.3, 1.0),
            max_span=int(rng.integers(1, 4)),
        )
        out = corrupt_sequence(seq, graph, cfg, seed=trial + 100)
        occluded = out.occlusion_mask == 1.0
        assert np.all(occluded | (out.occlusion_mask == 0.0))
        np.testing.assert_array_equal(out.observations[~occluded], seq.gt_vertices[~occluded])
        assert np.all(out.observations[occluded] == 0.0)
        for ids in graph.part_vertices():
            assert np.all(np.diff(out.occlusion_mask[:, ids], axis=1) <= 0.0)


def test_blur_width_must_fit(graph):
    seq = generate_sequence(MotionConfig(graph=graph, frames=4), seed=0)
    with pytest.raises(SynthError):
        corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=0.0, blur_width=5), seed=0)
    with pytest.raises(SynthError):
        CorruptionConfig(blur_width=2).validate()
    with pytest.raises(SynthError):
        CorruptionConfig(occlusion_prob=1.5).validate()
