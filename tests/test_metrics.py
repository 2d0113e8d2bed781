import math
import warnings

import numpy as np
import pytest

from meshmotion.body_graph import DEFAULT_PARTS, generate_toy_body
from meshmotion.synth import MotionConfig, generate_sequence
from meshmotion.metrics import (
    AlignmentError,
    MetricsError,
    PoseError,
    _JOINT_SPECS,
    _lengths,
    apply_similarity,
    build_joint_regressor,
    compute_metrics,
    procrustes_align,
)


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def _random_rotation(rng):
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _oracle_procrustes(p, q):
    # the per-frame alignment compute_metrics ran before it was batched
    mu_p, mu_q = p.mean(axis=0), q.mean(axis=0)
    x, y = p - mu_p, q - mu_q
    u, s, vt = np.linalg.svd(x.T @ y)
    d = np.ones(3)
    if np.linalg.det(vt.T @ u.T) < 0:
        d[-1] = -1.0
    rot = vt.T @ np.diag(d) @ u.T
    scale = float((s * d).sum() / (x**2).sum())
    return scale, rot, mu_q - scale * rot @ mu_p


def _oracle_metrics(pred, gt, regressor):
    # frame-by-frame loop: mean over frames of (MPVPE, MPJPE, PA-MPJPE)
    vals = []
    for p, g in zip(pred, gt):
        pj = np.einsum("jn,nk->jk", regressor.matrix, p)
        gj = np.einsum("jn,nk->jk", regressor.matrix, g)
        root = regressor.root_joint
        s, r, t = _oracle_procrustes(pj, gj)
        vals.append((np.linalg.norm(p - g, axis=1).mean(),
                     np.linalg.norm((pj - pj[root]) - (gj - gj[root]), axis=1).mean(),
                     np.linalg.norm(s * pj @ r.T + t - gj, axis=1).mean()))
    return np.mean(vals, axis=0)


def test_procrustes_identity():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((6, 3))
    s, r, t = procrustes_align(p, p)
    assert abs(s - 1.0) < 1e-12
    np.testing.assert_allclose(r, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(t, np.zeros(3), atol=1e-12)
    np.testing.assert_allclose(apply_similarity(p, s, r, t), p, atol=1e-12)


def test_procrustes_recovers_known_transform():
    rng = np.random.default_rng(1)
    p = rng.standard_normal((8, 3))
    r0 = _rotation([0.3, 1.0, -0.2], 0.8)
    t0 = np.array([5.0, -2.0, 1.0])
    q = 2.0 * p @ r0.T + t0
    s, r, t = procrustes_align(p, q)
    assert abs(s - 2.0) < 1e-9
    np.testing.assert_allclose(r, r0, atol=1e-9)
    np.testing.assert_allclose(t, t0, atol=1e-9)
    residual = np.linalg.norm(apply_similarity(p, s, r, t) - q)
    assert residual < 1e-9


def test_procrustes_rejects_reflection():
    # mirroring a chiral cloud cannot be matched by a proper rotation; the
    # restricted optimum found by rotation sampling confirms the residual
    rng = np.random.default_rng(2)
    p = rng.standard_normal((5, 3))
    q = p.copy()
    q[:, 0] *= -1.0
    s, r, t = procrustes_align(p, q)
    assert np.linalg.det(r) > 0.99
    res = ((apply_similarity(p, s, r, t) - q) ** 2).sum()
    assert res > 1e-3

    best = np.inf
    for _ in range(2000):
        rr = _random_rotation(rng)
        x = p - p.mean(axis=0)
        y = q - q.mean(axis=0)
        num = (x @ rr.T * y).sum()
        ss = max(num / (x**2).sum(), 1e-6)
        best = min(best, ((ss * x @ rr.T - y) ** 2).sum())
    assert res <= best + 1e-6


def test_procrustes_matches_exhaustive_rotation_search():
    rng = np.random.default_rng(3)
    p = rng.standard_normal((5, 3))
    q = rng.standard_normal((5, 3))
    s, r, t = procrustes_align(p, q)
    res = ((apply_similarity(p, s, r, t) - q) ** 2).sum()
    best = np.inf
    for _ in range(10_000):
        rr = _random_rotation(rng)
        x = p - p.mean(axis=0)
        y = q - q.mean(axis=0)
        num = (x @ rr.T * y).sum()
        ss = num / (x**2).sum()
        best = min(best, ((ss * x @ rr.T - y) ** 2).sum())
    # sampled search can only approach the closed-form optimum from above
    assert res <= best + 1e-9
    assert best - res < 0.05 * abs(best)


def test_procrustes_degenerate_inputs():
    with pytest.raises(AlignmentError):
        procrustes_align(np.ones((4, 3)), np.random.default_rng(4).standard_normal((4, 3)))
    line = np.outer(np.arange(4.0), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(AlignmentError):
        procrustes_align(line, np.random.default_rng(5).standard_normal((4, 3)))
    with pytest.raises(MetricsError):
        procrustes_align(np.zeros((2, 3)), np.zeros((2, 3)))


def test_pose_error_invariants():
    with pytest.raises(MetricsError):
        PoseError(mpvpe=-1.0, mpjpe=1.0, pa_mpjpe=0.5)


def test_displaced_limb_evaluates():
    # Procrustes minimizes the squared joint error, not the mean joint
    # distance, so one displaced limb can leave PA-MPJPE above MPJPE
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    gt = generate_sequence(MotionConfig(graph=graph), seed=0).gt_vertices
    arm = graph.part_vertices()[DEFAULT_PARTS.index("left_arm")]
    pred = gt.copy()
    pred[0, arm, 0] += 100.0
    err = compute_metrics([pred], [gt], reg)[0]
    assert err.pa_mpjpe > err.mpjpe > 0.0


def test_regressor_rows_convex():
    reg = build_joint_regressor(generate_toy_body())
    assert reg.matrix.shape[0] == 14
    assert np.all(reg.matrix >= 0)
    np.testing.assert_allclose(reg.matrix.sum(axis=1), np.ones(14), atol=1e-12)


def test_pelvis_and_chest_sit_where_the_rest_pose_puts_them():
    # the torso chain runs from the pelvis up to the neck: the MPJPE root is
    # its lowest joint, and the chest is the torso joint next to the neck
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    names = [spec[0] for spec in _JOINT_SPECS]
    joints = dict(zip(names, reg(graph.rest_pose)))
    assert reg.root_joint == names.index("pelvis")
    torso = [name for name, part, _ in _JOINT_SPECS if part == "torso"]
    assert min(torso, key=lambda name: joints[name][1]) == "pelvis"
    neck = joints["neck"]
    assert np.linalg.norm(joints["chest"] - neck) < np.linalg.norm(joints["pelvis"] - neck)


def test_regressor_of_another_vertex_count_raises():
    # a 96-vertex regressor on 16-vertex frames would otherwise fail inside
    # numpy's matmul
    reg = build_joint_regressor(generate_toy_body())
    small = generate_sequence(MotionConfig(graph=generate_toy_body(2, 1), frames=3), seed=0)
    for verts in (small.gt_vertices, small.gt_vertices[0][None]):
        with pytest.raises(MetricsError, match="expects 96 vertices, got 16"):
            compute_metrics([verts], [verts], reg)


def test_metrics_identity():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    rng = np.random.default_rng(6)
    verts = rng.standard_normal((4, graph.n_vertices, 3)) * 100
    err = compute_metrics([verts], [verts], reg)[0]
    assert err.mpvpe == 0.0
    assert err.mpjpe == 0.0
    assert err.pa_mpjpe < 1e-9  # SVD roundoff only


def test_metrics_constant_offset():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    rng = np.random.default_rng(7)
    gt = rng.standard_normal((2, graph.n_vertices, 3)) * 100
    offset = np.zeros(3)
    offset[0] = 10.0
    err = compute_metrics([gt + offset], [gt], reg)[0]
    assert abs(err.mpvpe - 10.0) < 1e-9
    assert err.mpjpe < 1e-9
    assert err.pa_mpjpe < 1e-9


def test_metrics_rotation_removed_only_by_procrustes():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    rng = np.random.default_rng(8)
    gt = rng.standard_normal((3, graph.n_vertices, 3)) * 100
    rot = _rotation([0.0, 1.0, 0.0], math.radians(30))
    pred = gt @ rot.T
    err = compute_metrics([pred], [gt], reg)[0]
    assert err.pa_mpjpe < 1e-9
    assert err.mpjpe > 1.0


def test_pa_invariant_under_similarity_transforms():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    rng = np.random.default_rng(9)
    gt = rng.standard_normal((2, graph.n_vertices, 3)) * 100
    pred = gt + rng.standard_normal(gt.shape) * 5
    base = compute_metrics([pred], [gt], reg)[0].pa_mpjpe
    for _ in range(100):
        s = float(rng.uniform(0.5, 2.0))
        r = _random_rotation(rng)
        t = rng.standard_normal(3) * 50
        transformed = s * pred @ r.T + t
        err = compute_metrics([transformed], [gt], reg)[0].pa_mpjpe
        assert abs(err - base) < 1e-9


def test_mpjpe_translation_invariant_not_rotation_invariant():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    rng = np.random.default_rng(10)
    gt = rng.standard_normal((2, graph.n_vertices, 3)) * 100
    pred = gt + rng.standard_normal(gt.shape) * 5
    base = compute_metrics([pred], [gt], reg)[0].mpjpe
    shifted = compute_metrics([pred + np.array([30.0, -7.0, 12.0])], [gt], reg)[0].mpjpe
    assert abs(shifted - base) < 1e-9
    rotated = compute_metrics([pred @ _rotation([1, 0, 0], 0.5).T], [gt], reg)[0].mpjpe
    assert abs(rotated - base) > 1e-3


def test_pa_never_exceeds_mpjpe_random_pairs():
    # prediction pairs carry a global similarity misalignment plus moderate
    # noise, the error family PA alignment is designed to remove; for pure
    # heavy iid noise the mean-norm orderings of the two alignment
    # conventions can genuinely flip
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        gt = rng.standard_normal((graph.n_vertices, 3)) * 100
        noise = rng.standard_normal(gt.shape) * rng.uniform(1, 15)
        s = rng.uniform(0.8, 1.25)
        r = _random_rotation(rng)
        t = rng.standard_normal(3) * 50
        pred = s * (gt + noise) @ r.T + t
        err = compute_metrics([pred[None]], [gt[None]], reg)[0]
        assert err.pa_mpjpe <= err.mpjpe + 1e-9


def test_metrics_input_validation():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    with pytest.raises(MetricsError):
        compute_metrics([np.zeros((2, 5, 3))], [np.zeros((2, 6, 3))], reg)
    bad = np.zeros((graph.n_vertices, 3))
    bad[0, 0] = np.nan
    with pytest.raises(MetricsError):
        compute_metrics([bad[None]], [np.zeros_like(bad)[None]], reg)


def test_batched_metrics_match_per_frame_oracle():
    # noisy similarity transforms of real motion, some frames mirrored
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    rng = np.random.default_rng(12)
    for seed in range(60):
        gt = generate_sequence(MotionConfig(graph=graph, frames=16), seed=seed).gt_vertices
        pred = gt + rng.standard_normal(gt.shape) * rng.uniform(1, 60)
        for f in range(len(pred)):
            scale, rot = rng.uniform(0.7, 1.4), _random_rotation(rng)
            pred[f] = scale * pred[f] @ rot.T + rng.standard_normal(3) * 80
        mirrored = rng.random(len(pred)) < 0.3
        pred[mirrored, :, 0] *= -1.0
        got = compute_metrics([pred], [gt], reg)[0].as_tuple()
        np.testing.assert_allclose(got, _oracle_metrics(pred, gt, reg), rtol=1e-12)


def test_stacked_procrustes_equals_per_set_calls():
    rng = np.random.default_rng(13)
    p = rng.standard_normal((3, 5, 8, 3))
    q = 1.7 * p @ _random_rotation(rng).T + rng.standard_normal(p.shape) * 0.3
    q[1, 2, :, 1] *= -1.0  # one mirrored set
    s, r, t = procrustes_align(p, q)
    assert s.shape == (3, 5) and r.shape == (3, 5, 3, 3) and t.shape == (3, 5, 3)
    aligned = apply_similarity(p, s, r, t)
    for i in np.ndindex(3, 5):
        si, ri, ti = procrustes_align(p[i], q[i])
        assert isinstance(si, float)
        np.testing.assert_allclose(s[i], si, rtol=1e-12)
        np.testing.assert_allclose(r[i], ri, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(t[i], ti, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(aligned[i], apply_similarity(p[i], si, ri, ti),
                                   rtol=1e-12, atol=1e-12)
        assert np.linalg.det(ri) > 0.99


def test_svd_count_does_not_grow_with_frames(monkeypatch):
    # one batched alignment per sequence: a per-frame loop would call the
    # SVD once per frame
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    gt = generate_sequence(MotionConfig(graph=graph, frames=16), seed=1).gt_vertices
    pred = gt + np.random.default_rng(14).standard_normal(gt.shape) * 10
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    counts = []
    for frames in (1, 16):
        calls.clear()
        compute_metrics([pred[:frames]], [gt[:frames]], reg)
        counts.append(len(calls))
    assert counts[0] >= 1
    assert counts[0] == counts[1]


def _noisy_set(graph, frames, seed):
    # predictions: noisy similarity transforms of real motion, some mirrored
    rng = np.random.default_rng(seed)
    gts, preds = [], []
    for k, t in enumerate(frames):
        gt = generate_sequence(MotionConfig(graph=graph, frames=t), seed=seed + k).gt_vertices
        pred = gt + rng.standard_normal(gt.shape) * rng.uniform(1, 60)
        for f in range(t):
            pred[f] = rng.uniform(0.7, 1.4) * pred[f] @ _random_rotation(rng).T \
                + rng.standard_normal(3) * 80
        pred[rng.random(t) < 0.3, :, 0] *= -1.0
        gts.append(gt)
        preds.append(pred)
    return preds, gts


def test_list_form_rows_equal_single_sequence_calls_bit_for_bit():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    preds, gts = _noisy_set(graph, (3, 16, 2, 5, 16, 3), seed=40)
    preds.append(preds[2][:1])  # one frame
    gts.append(gts[2][:1])
    rows = compute_metrics(preds, gts, reg)
    assert len(rows) == len(preds)
    for row, pred, gt in zip(rows, preds, gts):
        assert isinstance(row, PoseError)
        assert row.as_tuple() == compute_metrics([pred], [gt], reg)[0].as_tuple()
    np.testing.assert_allclose(rows[1].as_tuple(), _oracle_metrics(preds[1], gts[1], reg),
                               rtol=1e-12)
    assert compute_metrics([], [], reg) == []


def test_row_lengths_equal_numpy_norm_bit_for_bit():
    rng = np.random.default_rng(41)
    d = rng.standard_normal((64, 14, 3)) * np.exp(rng.uniform(-30, 30, (64, 14, 1)))
    d[0, :3] = [[0.0, -0.0, 0.0], [1e200, 1.0, 0.0], [np.inf, np.nan, 1.0]]
    with np.errstate(all="ignore"):
        got, want = _lengths(d), np.linalg.norm(d, axis=-1)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_svd_count_does_not_grow_with_sequences(monkeypatch):
    # the list form aligns every frame of every sequence in one batched
    # pass: a per-sequence loop would call the SVDs once per sequence
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    preds, gts = _noisy_set(graph, (16, 3, 5, 16, 16, 5, 3, 16), seed=42)
    svd = np.linalg.svd
    calls = []

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    counts = []
    for count in (1, 8):
        calls.clear()
        assert len(compute_metrics(preds[:count], gts[:count], reg)) == count
        counts.append(len(calls))
    assert counts[0] >= 1
    assert counts[0] == counts[1]


def test_list_form_errors_name_the_sequence_and_its_frame():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    preds, gts = _noisy_set(graph, (16, 3, 5, 16), seed=43)

    def with_frame(k, f, value):
        bad = [p.copy() for p in preds]
        bad[k][f] = value
        return bad

    with pytest.raises(AlignmentError, match="^sequence 2, frame 4: all source points coincident"):
        compute_metrics(with_frame(2, 4, 5.0), gts, reg)
    line = np.outer(np.arange(graph.n_vertices, dtype=float), [1.0, 2.0, -1.0])
    with pytest.raises(AlignmentError, match="^sequence 3, frame 0: source points are collinear"):
        compute_metrics(with_frame(3, 0, line), gts, reg)
    nan_frame = preds[1][2].copy()
    nan_frame[5, 1] = np.nan
    with pytest.raises(MetricsError, match="^sequence 1, frame 2: non-finite coordinates$"):
        compute_metrics(with_frame(1, 2, nan_frame), gts, reg)
    bad_gt = [g.copy() for g in gts]
    bad_gt[3][15, 0, 0] = np.inf
    with pytest.raises(MetricsError, match="^sequence 3, frame 15: non-finite coordinates$"):
        compute_metrics(preds, bad_gt, reg)
    off_joint = int(np.flatnonzero(reg.matrix.sum(axis=0) == 0)[0])
    huge = preds[2][1].copy()
    huge[off_joint, 0] = 1e200
    with pytest.raises(MetricsError, match="^sequence 2, frame 1: pose error is not finite"):
        compute_metrics(with_frame(2, 1, huge), gts, reg)
    with pytest.raises(MetricsError, match="^sequence 1: shape mismatch"):
        compute_metrics(preds, [gts[0], gts[1][:2], gts[2], gts[3]], reg)
    with pytest.raises(MetricsError, match="^sequence 0: expected"):
        compute_metrics([np.zeros(5)], [np.zeros(5)], reg)
    with pytest.raises(MetricsError, match=r"^sequence 1: expected .* got \(0, 96, 3\)$"):
        compute_metrics(preds[:1] + [preds[1][:0]], gts[:1] + [gts[1][:0]], reg)
    with pytest.raises(MetricsError, match="^sequence 0: regressor expects"):
        compute_metrics([gts[0][:, :-1]], [gts[0][:, :-1]], reg)
    with pytest.raises(MetricsError, match="as long as the 4 predictions"):
        compute_metrics(preds, gts[:3], reg)
    with pytest.raises(MetricsError, match="as long as the 4 predictions"):
        compute_metrics(preds, gts[0], reg)
    with pytest.raises(MetricsError, match="^expected a list of predictions, got ndarray"):
        compute_metrics(preds[0], gts[0], reg)
    # a list of one names its sequence 0
    with pytest.raises(MetricsError, match="^sequence 0, frame 2: non-finite coordinates$"):
        compute_metrics([with_frame(1, 2, nan_frame)[1]], [gts[1]], reg)
    with pytest.raises(AlignmentError, match="^sequence 0, frame 4: all source points coincident"):
        compute_metrics([with_frame(2, 4, 5.0)[2]], [gts[2]], reg)


def test_alignment_error_names_the_degenerate_frame():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    gt = generate_sequence(MotionConfig(graph=graph, frames=16), seed=2).gt_vertices
    pred = gt + np.random.default_rng(15).standard_normal(gt.shape) * 10
    collapsed = pred.copy()
    collapsed[7] = 5.0  # every vertex, hence every joint, at one point
    with pytest.raises(MetricsError, match="^sequence 0, frame 7: all source points coincident"):
        compute_metrics([collapsed], [gt], reg)
    line = pred.copy()
    line[7] = np.outer(np.arange(graph.n_vertices, dtype=float), [1.0, 2.0, -1.0])
    with pytest.raises(AlignmentError, match="^sequence 0, frame 7: source points are collinear"):
        compute_metrics([line], [gt], reg)
    assert issubclass(AlignmentError, MetricsError)


def test_overflowing_errors_raise_metrics_error():
    graph = generate_toy_body()
    reg = build_joint_regressor(graph)
    gt = generate_sequence(MotionConfig(graph=graph, frames=4), seed=3).gt_vertices
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(MetricsError, match="not finite"):
            compute_metrics([gt * 1e160], [gt], reg)
        with pytest.raises(MetricsError, match="^frame 2: point moments"):
            procrustes_align(gt[:, :5] * np.array([1, 1, 1e160, 1])[:, None, None], gt[:, :5])
        # finite moments, but the scale from a tight set onto a huge one overflows
        rng = np.random.default_rng(16)
        with pytest.raises(MetricsError, match="^similarity transform is not finite"):
            procrustes_align(rng.standard_normal((6, 3)) * 1e-8,
                             rng.standard_normal((6, 3)) * 1e301)
    # the square of one vertex error overflows; the regressor ignores that
    # vertex, so the joints align finely
    off_joint = int(np.flatnonzero(reg.matrix.sum(axis=0) == 0)[0])
    pred = gt.copy()
    pred[2, off_joint, 0] = 1e200
    with pytest.raises(MetricsError, match="^sequence 0, frame 2: pose error is not finite"):
        compute_metrics([pred], [gt], reg)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_pose_error_rejects_non_finite(bad):
    with pytest.raises(MetricsError, match="finite"):
        PoseError(mpvpe=1.0, mpjpe=bad, pa_mpjpe=0.5)
