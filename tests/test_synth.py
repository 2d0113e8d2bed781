import dataclasses
import hashlib

import numpy as np
import pytest

from meshmotion import body_graph, synth
from meshmotion.body_graph import DEFAULT_PARTS, BodyGraph, generate_toy_body
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
    pose = synth._pose

    def counting(*args):
        verts = pose(*args)
        poses.append(verts)
        return verts

    monkeypatch.setattr(synth, "_pose", counting)
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


def _cache_misses():
    return [f.cache_info().misses for f in (synth._rig, synth._spline_tables, synth._blur_taps)]


def test_generation_builds_no_rig(graph, monkeypatch):
    # the rest pose and the group tree are built with the graph; after one
    # warm call, the graph's tables, the spline system and the blur taps
    # for its frame count and width come from the caches
    corruption = CorruptionConfig(occlusion_prob=1.0, blur_width=3)
    want = generate_sequence(MotionConfig(graph=graph, frames=5), seed=8)
    want = corrupt_sequence(want, graph, corruption, seed=9)
    misses = _cache_misses()

    def refuse(*args, **kwargs):
        raise AssertionError("rig rebuilt during generation")

    monkeypatch.setattr(body_graph, "_chain", refuse)
    monkeypatch.setattr(body_graph, "RigidGroup", refuse)
    monkeypatch.setattr(body_graph, "generate_toy_body", refuse)
    monkeypatch.setattr(synth, "build_joint_regressor", refuse)
    monkeypatch.setattr(BodyGraph, "part_vertices", refuse)
    got = generate_sequence(MotionConfig(graph=graph, frames=5), seed=8)
    got = corrupt_sequence(got, graph, corruption, seed=9)
    for name in ("gt_vertices", "observations", "occlusion_mask"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert _cache_misses() == misses


def _arrays(table):
    """Every array in a cached table, looking into dataclasses and tuples."""
    if isinstance(table, np.ndarray):
        return [table]
    if dataclasses.is_dataclass(table):
        table = tuple(vars(table).values())
    return [a for item in table for a in _arrays(item)] if isinstance(table, tuple) else []


def test_every_cached_table_is_read_only(graph):
    tables = [synth._rig(graph), synth._spline_tables(synth._SPLINE_CONTROLS, 7),
              synth._blur_taps(7, 3)]
    arrays = [a for table in tables for a in _arrays(table)]
    assert len(arrays) == 24
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0


def _generate(graph, seed, frames=6):
    seq = generate_sequence(MotionConfig(graph=graph, frames=frames), seed=seed)
    return corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=0.5, blur_width=3),
                            seed=seed + 1)


def test_interleaved_graphs_generate_as_each_alone():
    # more graphs than the table cache holds, so entries are also evicted
    # and rebuilt while the graphs take turns
    graphs = [generate_toy_body(vpp, 1) for vpp in range(2, 12)]
    alone = []
    for g in graphs:
        synth._rig.cache_clear()
        alone.append([_generate(g, seed) for seed in range(2)])
    synth._rig.cache_clear()
    for seed in range(2):
        for g, want in zip(graphs, alone):
            got = _generate(g, seed)
            for name in ("gt_vertices", "observations", "occlusion_mask"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want[seed], name))


def _reference_pose(graph, axes, angles, root):
    """The group-by-group posing loop: (T, n, 3) vertices; each group's
    rotation about its 1-D-normalized axis composed onto its parent's."""
    def axis_angle(axis, theta):
        axis = axis / np.linalg.norm(axis)
        k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        s, c = np.sin(theta)[:, None, None], np.cos(theta)[:, None, None]
        return np.eye(3) + s * k + (1 - c) * (k @ k)

    groups, rest = graph.rigid_groups, graph.rest_pose
    verts = np.empty((angles.shape[1], graph.n_vertices, 3))
    world = []
    for g, axis, angle in zip(groups, axes, angles):
        local_r = axis_angle(axis, angle)
        if g.parent is None:
            r = axis_angle(np.array(synth._YAW_AXIS), angles[-1]) @ local_r
            pivot_world = g.pivot + root
        else:
            pr, porg = world[g.parent]
            r = pr @ local_r
            pivot_world = pr @ (g.pivot - groups[g.parent].pivot) + porg
        world.append((r, pivot_world))
        verts[:, g.vertices] = (rest[g.vertices] - g.pivot) @ r.transpose(0, 2, 1) + pivot_world[:, None]
    return verts


@pytest.mark.parametrize("vpp,frames", [(12, 16), (4, 2), (5, 9), (13, 5)])
def test_pose_equals_the_group_loop_bit_for_bit(vpp, frames):
    g = generate_toy_body(vpp, 1)
    rng = np.random.default_rng(vpp * 100 + frames)
    for _ in range(5):
        axes = np.stack([gr.axis for gr in g.rigid_groups]) + 0.15 * rng.standard_normal((10, 3))
        axes = np.stack([a / np.linalg.norm(a) for a in axes])
        angles = rng.uniform(-1.0, 1.0, size=(len(axes) + 1, frames))
        root = rng.uniform(-300.0, 300.0, size=(frames, 3))
        k = synth._skew(np.concatenate([synth._unit_rows(axes), [synth._YAW_AXIS]]))
        got = synth._pose(synth._rig(g), k, k @ k, angles, root)
        assert got.tobytes() == _reference_pose(g, axes, angles, root).tobytes()


def test_unit_rows_divide_by_the_1d_norm_bit_for_bit():
    v = np.random.default_rng(0).standard_normal((2000, 3)) * 7.0
    want = np.stack([row / np.linalg.norm(row) for row in v])
    assert synth._unit_rows(v).tobytes() == want.tobytes()


@pytest.mark.parametrize("frames,width", [(2, 1), (4, 3), (16, 3), (16, 5), (9, 7)])
def test_blur_equals_the_frame_loop_bit_for_bit(graph, frames, width):
    seq = generate_sequence(MotionConfig(graph=graph, frames=frames), seed=frames + width)
    out = corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=0.0, blur_width=width),
                           seed=0)
    gt, half = seq.gt_vertices, width // 2
    padded = np.concatenate([np.repeat(gt[:1], half, axis=0), gt,
                             np.repeat(gt[-1:], half, axis=0)])
    kernel = np.ones(width) / width
    want = np.stack([np.tensordot(kernel, padded[f:f + width], axes=(0, 0))
                     for f in range(frames)])
    assert out.observations.tobytes() == want.tobytes()


def _digest(graph, frames, corruption, motion_seeds, corruption_seeds):
    """sha256 over each sequence's ground truth, observations and mask, as
    little-endian float64 bytes, in that order."""
    h = hashlib.sha256()
    for ms, cs in zip(motion_seeds, corruption_seeds, strict=True):
        seq = corrupt_sequence(generate_sequence(MotionConfig(graph=graph, frames=frames), seed=ms),
                               graph, corruption, seed=cs)
        for a in (seq.gt_vertices, seq.observations, seq.occlusion_mask):
            h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


# digests computed with the group-by-group, frame-by-frame generator
_GOLDEN = {
    # perfbench's seed-11 training set: 64 sequences of 16 frames
    "perfbench_seed_11": (
        12, 16, 0.3, 3, range(1_100_000, 1_100_064), range(1_150_000, 1_150_064),
        "f0e9b7c529846dec34b1009afc1c6d7e729e3981e0e088a89e8ec94b0a374b2b"),
    "two_frames": (12, 2, 0.3, 1, range(200, 208), range(300, 308),
                   "062529177521687a27746628e5b0c8d82143a28fc09275b6b977995bd3e8d2ad"),
    "five_frames": (12, 5, 0.3, 3, range(200, 208), range(300, 308),
                    "74626029126068de085ed19105a34f4c700907229b7edc7c87b78bb8138eba8a"),
    "blur_width_1": (12, 16, 0.3, 1, range(200, 208), range(300, 308),
                     "7a4be824b466f7d30a10a0ac833603379fc1301a516d34907d599d820f3d9884"),
    "blur_width_5": (12, 16, 0.3, 5, range(200, 208), range(300, 308),
                     "f0217e80ce9d0d96de56e59c0f5a29aa639eda1501953ee968ae0a3072d30d2b"),
    "no_occlusion": (12, 16, 0.0, 3, range(200, 208), range(300, 308),
                     "2ca0fc7e1aba2dba147c6533c7b4d8eb9d5458994d5e1c14f5108f5c1311f904"),
    "occlusion_every_frame": (12, 16, 1.0, 3, range(200, 208), range(300, 308),
                              "531c43484902ce70744cb7ef95fb9f28c9493a2a872eba8a697dd5a62a64238f"),
    "four_vertices_per_part": (4, 16, 0.3, 3, range(200, 208), range(300, 308),
                               "405b221b80fb08c6e006e0f55e56ea35eeab82906fb6d723e3122a70b31fb0f1"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_golden_dataset_digest(case):
    vpp, frames, occlusion, width, motion_seeds, corruption_seeds, want = _GOLDEN[case]
    corruption = CorruptionConfig(occlusion_prob=occlusion, blur_width=width)
    got = _digest(generate_toy_body(vertices_per_part=vpp), frames, corruption,
                  motion_seeds, corruption_seeds)
    assert got == want


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
    lambda graph: CorruptionConfig(blur_width=True).validate(),
], ids=["fractional_frames", "one_frame", "float_blur_width", "zero_blur_width",
        "bool_blur_width"])
def test_counts_must_be_integers_in_range(graph, make):
    with pytest.raises(SynthError):
        make(graph)


@pytest.mark.parametrize("make", [
    lambda graph: CorruptionConfig(occlusion_prob=None).validate(),
    lambda graph: CorruptionConfig(occlusion_prob="0.3").validate(),
    lambda graph: CorruptionConfig(occlusion_prob=True).validate(),
    lambda graph: CorruptionConfig(occlusion_prob=np.bool_(False)).validate(),
    lambda graph: CorruptionConfig(occlusion_prob=float("nan")).validate(),
    lambda graph: CorruptionConfig(occlusion_prob=-0.1).validate(),
    lambda graph: MotionConfig(graph=None).validate(),
    lambda graph: MotionConfig(graph=graph.rest_pose).validate(),
    lambda graph: generate_sequence(MotionConfig(graph=None), seed=0),
], ids=["none_prob", "string_prob", "bool_prob", "numpy_bool_prob", "nan_prob",
        "negative_prob", "none_graph", "array_graph", "generate_on_none_graph"])
def test_config_fields_must_have_their_types(graph, make):
    with pytest.raises(SynthError):
        make(graph)


def test_real_occlusion_probabilities_are_accepted(graph):
    seq = generate_sequence(MotionConfig(graph=graph, frames=4), seed=0)
    for p in (0, 1, 0.5, np.float32(0.25), np.float64(0.75)):
        CorruptionConfig(occlusion_prob=p).validate()
    ref = corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=0.25), seed=3)
    out = corrupt_sequence(seq, graph, CorruptionConfig(occlusion_prob=np.float64(0.25)), seed=3)
    np.testing.assert_array_equal(out.occlusion_mask, ref.occlusion_mask)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
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
