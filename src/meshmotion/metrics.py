"""Pose evaluation: vertex error, root-aligned joint error, and
Procrustes-aligned joint error, all in millimeters.

Joints regress from mesh vertices through a sparse convex-weight matrix; the
toy regressor places 14 joints on single-part vertex groups so rigid part
motion keeps designated bone lengths constant.

``compute_metrics`` scores a list of sequences in one batched pass. Each
sequence gets its input checks, its per-frame vertex error and its two
joint regressions; the vertex arrays are never stacked. The joints of every
frame of every sequence are then concatenated, and the root-aligned and
Procrustes joint errors run over all of them at once: one rank SVD, one
cross-covariance SVD and one determinant, stacked over the frames, so their
count grows neither with T nor with the number of sequences. Each
sequence's result is the mean of its own frames' slice, so it is the same,
bit for bit, as scoring that sequence in a list of one. Errors are typed:
every failure is a ``MetricsError``; ``AlignmentError``, its subclass, marks
a degenerate frame. Every error names the sequence, and the first failing
frame where there is one ("sequence 3: ", "sequence 3, frame 7: ").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body_graph import DEFAULT_PARTS, BodyGraph


class MetricsError(ValueError):
    """Invalid metric computation input."""


class AlignmentError(MetricsError):
    """Degenerate input to Procrustes alignment."""


@dataclass
class PoseError:
    """Per-sequence error aggregate (millimeters)."""

    mpvpe: float
    mpjpe: float
    pa_mpjpe: float

    def __post_init__(self):
        values = self.as_tuple()
        if not all(math.isfinite(v) for v in values):
            raise MetricsError(f"errors must be finite, got {values}")
        if min(values) < 0:
            raise MetricsError("errors must be nonnegative")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.mpvpe, self.mpjpe, self.pa_mpjpe)


@dataclass
class JointRegressor:
    """Sparse convex mapping from mesh vertices to joints."""

    matrix: np.ndarray  # (n_joints, n_vertices), rows nonnegative, sum to 1
    bone_pairs: tuple[tuple[int, int], ...]  # rigid (same body part) joint pairs
    root_joint: int = 0

    def __post_init__(self):
        if np.any(self.matrix < 0):
            raise MetricsError("regressor rows must be nonnegative")
        if not np.allclose(self.matrix.sum(axis=1), 1.0, atol=1e-12):
            raise MetricsError("regressor rows must sum to 1")

    def __call__(self, vertices: np.ndarray) -> np.ndarray:
        """(..., n, 3) vertices -> (..., n_joints, 3) joints."""
        return np.matmul(self.matrix, vertices)


_JOINT_SPECS = (
    # name, part, where along the part chain (0 start .. 1 end)
    ("pelvis", "torso", 0.0),
    ("chest", "torso", 1.0),
    ("neck", "head", 0.0),
    ("head_top", "head", 1.0),
    ("left_shoulder", "left_arm", 0.0),
    ("left_elbow", "left_arm", 0.5),
    ("left_wrist", "left_arm", 1.0),
    ("right_shoulder", "right_arm", 0.0),
    ("right_elbow", "right_arm", 0.5),
    ("right_wrist", "right_arm", 1.0),
    ("left_knee", "left_leg", 0.5),
    ("left_ankle", "left_leg", 1.0),
    ("right_knee", "right_leg", 0.5),
    ("right_ankle", "right_leg", 1.0),
)

_BONES = (
    ("pelvis", "chest"),
    ("neck", "head_top"),
    ("left_shoulder", "left_elbow"),
    ("left_elbow", "left_wrist"),
    ("right_shoulder", "right_elbow"),
    ("right_elbow", "right_wrist"),
    ("left_knee", "left_ankle"),
    ("right_knee", "right_ankle"),
)


def build_joint_regressor(graph: BodyGraph) -> JointRegressor:
    """14 joints averaged over small single-part vertex groups."""
    parts = dict(zip(DEFAULT_PARTS, graph.part_vertices()))
    n = graph.n_vertices
    rows = []
    for _, part, frac in _JOINT_SPECS:
        ids = parts[part]
        group = max(1, len(ids) // 4)
        lo = max(0, round(frac * (len(ids) - 1)) - (group - 1) // 2)
        members = ids[lo:lo + group]
        row = np.zeros(n)
        row[members] = 1.0 / len(members)
        rows.append(row)
    name_idx = {spec[0]: i for i, spec in enumerate(_JOINT_SPECS)}
    bones = tuple((name_idx[a], name_idx[b]) for a, b in _BONES)
    return JointRegressor(matrix=np.array(rows), bone_pairs=bones,
                          root_joint=name_idx["pelvis"])


def _frame_name(i: tuple[int, ...]) -> str:
    """Error prefix for the set at leading index ``i`` ("frame 7: "; empty
    for a single set)."""
    return f"frame {', '.join(str(int(j)) for j in i)}: " if i else ""


def _sequence_frame_name(lengths: list[int]):
    """Error prefix for a frame of the concatenated frames of sequences
    with these lengths ("sequence 3, frame 7: ")."""
    ends = np.cumsum(lengths)

    def name(i: tuple[int, ...]) -> str:
        k = int(np.searchsorted(ends, i[0], side="right"))
        return f"sequence {k}, frame {int(i[0] - (ends[k] - lengths[k]))}: "
    return name


def _first(mask, name) -> tuple[tuple[int, ...], str]:
    """Leading index of the first set where ``mask`` holds, and the error
    prefix ``name`` gives it."""
    i = np.unravel_index(np.argmax(mask), np.shape(mask))
    return i, name(i)


def procrustes_align(p: np.ndarray, q: np.ndarray):
    """Similarity transform (s, R, t) minimizing ||s R p_i + t - q_i||^2.

    Points are rows: one pair of (k, 3) sets, k >= 3, or stacks (..., k, 3)
    aligned set by set in one batched pass, with s, R and t carrying the
    leading axes (a single pair gives a float s). R is a proper rotation
    (det = +1, reflections corrected by flipping the smallest singular
    direction). ``AlignmentError`` names the first set whose source points
    coincide or are collinear; moments or a transform that overflow raise
    ``MetricsError``.
    """
    return _align(p, q, _frame_name)


def _align(p, q, name):
    """``procrustes_align``, with its errors prefixed by ``name``."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim < 2 or p.shape[-1] != 3:
        raise MetricsError(f"point sets must be matching (..., k, 3) arrays, "
                           f"got {p.shape}, {q.shape}")
    if p.shape[-2] < 3:
        raise MetricsError(f"need at least 3 points, got {p.shape[-2]}")
    with np.errstate(all="ignore"):
        mu_p = p.mean(axis=-2, keepdims=True)
        mu_q = q.mean(axis=-2, keepdims=True)
        x = p - mu_p
        y = q - mu_q
        var_p = (x**2).sum(axis=(-2, -1))
        h = np.swapaxes(x, -1, -2) @ y  # (..., 3, 3)
        finite = np.isfinite(var_p) & np.isfinite(h).all(axis=(-2, -1))
        if not finite.all():
            raise MetricsError(_first(~finite, name)[1] + "point moments are not finite")
        coincident = var_p < 1e-18
        degenerate = coincident | (np.linalg.matrix_rank(x, tol=1e-12) < 2)
        if degenerate.any():
            i, at = _first(degenerate, name)
            raise AlignmentError(at + ("all source points coincident; alignment undefined"
                                       if coincident[i] else
                                       "source points are collinear; rotation not identifiable"))
        u, s, vt = np.linalg.svd(h)
        v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
        d = np.ones(s.shape)
        d[..., -1] = np.where(np.linalg.det(v @ ut) < 0, -1.0, 1.0)
        rot = (v * d[..., None, :]) @ ut
        scale = (s * d).sum(axis=-1) / var_p
        t = mu_q[..., 0, :] - ((scale[..., None, None] * rot) @ np.swapaxes(mu_p, -1, -2))[..., 0]
        finite = np.isfinite(scale) & np.isfinite(t).all(axis=-1)
        if not finite.all():
            raise MetricsError(_first(~finite, name)[1] + "similarity transform is not finite")
    return (float(scale) if p.ndim == 2 else scale), rot, t


def apply_similarity(p: np.ndarray, scale, rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """s R p_i + t for (..., k, 3) points; (s, R, t) carry the leading axes."""
    scale = np.asarray(scale)[..., None, None]
    return scale * p @ np.swapaxes(rot, -1, -2) + np.asarray(t)[..., None, :]


def _lengths(d: np.ndarray) -> np.ndarray:
    """Euclidean lengths of (..., 3) rows: bit for bit
    ``np.linalg.norm(d, axis=-1)``, without numpy's slow reduction over a
    3-wide axis."""
    sq = d * d
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


def compute_metrics(pred_vertices: list, gt_vertices: list,
                    regressor: JointRegressor) -> list[PoseError]:
    """Frame-averaged vertex/joint errors, one ``PoseError`` per sequence.

    Takes a list of (T, n, 3) predictions and an equally long list of
    ground truths, in mm, one pair per sequence, of any lengths; all frames
    are scored in one batched pass (see the module docstring). A frame whose
    error is not finite (coordinates so large that their squares overflow),
    a degenerate alignment or a non-finite coordinate raises
    ``MetricsError`` naming the sequence and frame; a malformed pair or a
    regressor built for another vertex count, naming the sequence.
    """
    if not isinstance(pred_vertices, list):
        raise MetricsError(f"expected a list of predictions, got {type(pred_vertices).__name__}")
    if not isinstance(gt_vertices, list) or len(gt_vertices) != len(pred_vertices):
        raise MetricsError("expected a list of ground truths as long as the "
                           f"{len(pred_vertices)} predictions")
    if not pred_vertices:
        return []
    parts = [_per_sequence(p, g, regressor, k)
             for k, (p, g) in enumerate(zip(pred_vertices, gt_vertices))]
    lengths = [len(m) for m, _, _ in parts]
    name = _sequence_frame_name(lengths)
    mpvpe, pj, gj = (np.concatenate(a) for a in zip(*parts))
    with np.errstate(all="ignore"):
        root = regressor.root_joint
        pj_rooted = pj - pj[:, root:root + 1]
        gj_rooted = gj - gj[:, root:root + 1]
        mpjpe = _lengths(pj_rooted - gj_rooted).mean(axis=1)
        s, r, t = _align(pj, gj, name)
        pa = _lengths(apply_similarity(pj, s, r, t) - gj).mean(axis=1)
        vals = np.stack([mpvpe, mpjpe, pa], axis=1)  # (frames, 3)
        finite = np.isfinite(vals).all(axis=1)
        if not finite.all():
            raise MetricsError(_first(~finite, name)[1] + "pose error is not finite")
        rows, lo = [], 0
        for count in lengths:
            means = vals[lo:lo + count].mean(axis=0)
            rows.append(PoseError(mpvpe=means[0], mpjpe=means[1], pa_mpjpe=means[2]))
            lo += count
    return rows


def _per_sequence(pred_vertices, gt_vertices, regressor: JointRegressor, seq: int):
    """Sequence ``seq``'s checked inputs -> its (T,) vertex errors and its
    (T, J, 3) predicted and true joints."""
    at = f"sequence {seq}: "
    pred = np.asarray(pred_vertices, dtype=np.float64)
    gt = np.asarray(gt_vertices, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricsError(f"{at}shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.ndim != 3 or pred.shape[0] < 1 or pred.shape[2] != 3:
        raise MetricsError(f"{at}expected (T, n, 3) vertices with T >= 1, got {pred.shape}")
    bad = ~(np.isfinite(pred) & np.isfinite(gt)).all(axis=(1, 2))
    if bad.any():
        raise MetricsError(f"sequence {seq}, frame {int(np.argmax(bad))}: non-finite coordinates")
    if regressor.matrix.shape[1] != pred.shape[1]:
        raise MetricsError(f"{at}regressor expects {regressor.matrix.shape[1]} vertices, "
                           f"got {pred.shape[1]}")
    with np.errstate(all="ignore"):
        return _lengths(pred - gt).mean(axis=1), regressor(pred), regressor(gt)
