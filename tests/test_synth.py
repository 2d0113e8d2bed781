import numpy as np
import pytest

from meshmotion import body_graph, synth
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
    c = generate_sequence(cfg, seed=43)
    assert not np.array_equal(a.gt_vertices, c.gt_vertices)


def test_frame_count_contract(graph):
    for T in (2, 5, 16):
        seq = generate_sequence(MotionConfig(graph=graph, frames=T), seed=0)
        assert seq.frames == T
        assert seq.gt_vertices.shape == (T, graph.n_vertices, 3)


def test_bone_lengths_constant(graph):
    # distance-recomputation oracle over every pair of joints whose regressor
    # rows lie in one rigid group: the 8 bones along the torso, head, arms
    # and legs, and shoulder to wrist on each arm
    reg = build_joint_regressor(graph)
    group_of = [next(i for i, g in enumerate(graph.rigid_groups)
                     if np.isin(np.flatnonzero(row), g.vertices).all())
                for row in reg.matrix]
    pairs = [(a, b) for a in range(len(group_of)) for b in range(a + 1, len(group_of))
             if group_of[a] == group_of[b]]
    assert len(pairs) == 10
    cfg = MotionConfig(graph=graph, frames=10)
    worst = 0.0
    for seed in range(100):
        joints = reg(generate_sequence(cfg, seed=seed).gt_vertices)
        for a, b in pairs:
            lengths = np.linalg.norm(joints[:, a] - joints[:, b], axis=1)
            worst = max(worst, float(lengths.max() - lengths.min()))
    assert worst < 1e-6


def _distances(points):
    """(T, k, 3) points -> (T, k, k) pairwise distances per frame."""
    return np.linalg.norm(points[:, :, None] - points[:, None], axis=-1)


def test_rigid_groups_keep_their_shape(graph):
    # every rigid group moves as one body over all frames, and each hand or
    # foot half keeps its distances to its pivot, the last vertex of its arm
    # or leg: every frame composes a child with its own parent frame
    parts = dict(zip(DEFAULT_PARTS, graph.part_vertices()))
    hands, feet = parts.pop("hands"), parts.pop("feet")
    halves = {"left_arm": hands[:len(hands) // 2], "right_arm": hands[len(hands) // 2:],
              "left_leg": feet[:len(feet) // 2], "right_leg": feet[len(feet) // 2:]}
    groups = [*parts.values(), *halves.values()]
    cfg = MotionConfig(graph=graph, frames=9)
    worst = 0.0
    for seed in range(10):
        verts = generate_sequence(cfg, seed=seed).gt_vertices
        for ids in groups:
            d = _distances(verts[:, ids])
            worst = max(worst, float(np.abs(d - d[0]).max()))
        for limb, ids in halves.items():
            to_pivot = np.linalg.norm(verts[:, ids] - verts[:, parts[limb][-1:]], axis=-1)
            worst = max(worst, float(np.abs(to_pivot - to_pivot[0]).max()))
    assert worst < 1e-6


def test_velocity_cap(graph, monkeypatch):
    # the cap binds at the default amplitudes: each sequence is posed more
    # than once, its motion shrunk until its joints move at most the cap
    reg = build_joint_regressor(graph)
    poses = []

    def counting(_):
        def regress(verts):
            poses.append(verts)
            return reg(verts)
        return regress

    monkeypatch.setattr(synth, "build_joint_regressor", counting)
    cfg = MotionConfig(graph=graph, frames=12)
    for seed in range(10):
        poses.clear()
        joints = reg(generate_sequence(cfg, seed=seed).gt_vertices)
        steps = np.linalg.norm(np.diff(joints, axis=0), axis=2)
        assert steps.max() <= synth._MAX_JOINT_STEP + 1e-9
        assert len(poses) > 1


def test_generation_config_errors(graph):
    with pytest.raises(SynthError):
        generate_sequence(MotionConfig(graph=graph, frames=1), seed=0)


def test_a_reused_graph_poses_as_a_fresh_one(graph):
    # every sequence shares the graph's rig, so posing must leave it as built
    cfg = MotionConfig(graph=graph, frames=7)
    for seed in range(3):
        fresh = generate_sequence(MotionConfig(graph=generate_toy_body(), frames=7), seed=seed)
        np.testing.assert_array_equal(generate_sequence(cfg, seed=seed).gt_vertices,
                                      fresh.gt_vertices)


def test_generation_builds_no_rig(graph, monkeypatch):
    # the rest pose and the group tree are built with the graph, not per call
    want = generate_sequence(MotionConfig(graph=graph, frames=5), seed=8).gt_vertices

    def refuse(*args, **kwargs):
        raise AssertionError("rig rebuilt during generation")

    monkeypatch.setattr(body_graph, "_chain", refuse)
    monkeypatch.setattr(body_graph, "RigidGroup", refuse)
    monkeypatch.setattr(body_graph, "generate_toy_body", refuse)
    got = generate_sequence(MotionConfig(graph=graph, frames=5), seed=8).gt_vertices
    np.testing.assert_array_equal(got, want)


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


def test_full_occlusion_of_one_part(graph, monkeypatch):
    # every frame starts a one-frame event that zeroes one whole part
    monkeypatch.setattr(synth, "_SEVERITY_RANGE", (1.0, 1.0))
    monkeypatch.setattr(synth, "_MAX_SPAN", 1)
    seq = generate_sequence(MotionConfig(graph=graph, frames=5), seed=2)
    cfg = CorruptionConfig(occlusion_prob=1.0, blur_width=1)
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
        cfg = CorruptionConfig(occlusion_prob=float(rng.uniform(0, 1)), blur_width=1)
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


@pytest.mark.parametrize("make", [
    lambda graph: MotionConfig(graph=graph, frames=2.5).validate(),
    lambda graph: MotionConfig(graph=graph, frames=1).validate(),
    lambda graph: CorruptionConfig(blur_width=3.0).validate(),
    lambda graph: CorruptionConfig(blur_width=0).validate(),
], ids=["fractional_frames", "one_frame", "float_blur_width", "zero_blur_width"])
def test_counts_must_be_integers_in_range(graph, make):
    with pytest.raises(SynthError):
        make(graph)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_seeds_must_be_non_negative_integers(graph, seed):
    seq = generate_sequence(MotionConfig(graph=graph, frames=4), seed=0)
    with pytest.raises(SynthError, match="seed"):
        generate_sequence(MotionConfig(graph=graph, frames=4), seed=seed)
    with pytest.raises(SynthError, match="seed"):
        corrupt_sequence(seq, graph, CorruptionConfig(), seed=seed)


def test_numpy_integer_counts_and_seeds_are_accepted(graph):
    seq = generate_sequence(MotionConfig(graph=graph, frames=np.int64(4)), seed=np.int64(7))
    np.testing.assert_array_equal(
        seq.gt_vertices, generate_sequence(MotionConfig(graph=graph, frames=4), seed=7).gt_vertices)
    out = corrupt_sequence(seq, graph, CorruptionConfig(blur_width=np.int64(3)), seed=np.uint8(2))
    ref = corrupt_sequence(seq, graph, CorruptionConfig(blur_width=3), seed=2)
    np.testing.assert_array_equal(out.observations, ref.observations)
