"""Pose evaluation: vertex error, root-aligned joint error, and
Procrustes-aligned joint error, all in millimeters.

Joints regress from mesh vertices through a sparse convex-weight matrix; the
toy regressor places 14 joints on single-part vertex groups so rigid part
motion keeps designated bone lengths constant.

``compute_metrics`` scores every frame of a sequence in one vectorized pass:
one batched joint regression, one batched Procrustes alignment (its SVDs
stacked over the frames, so their count does not grow with T) and per-frame
errors averaged at the end. Errors are typed: every failure is a
``MetricsError``; ``AlignmentError``, its subclass, marks a degenerate
frame, and both name the first failing frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .body_graph import BodyGraph


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
    joint_names: tuple[str, ...]
    bone_pairs: tuple[tuple[int, int], ...]  # rigid (same body part) joint pairs
    root_joint: int = 0

    def __post_init__(self):
        if np.any(self.matrix < 0):
            raise MetricsError("regressor rows must be nonnegative")
        if not np.allclose(self.matrix.sum(axis=1), 1.0, atol=1e-12):
            raise MetricsError("regressor rows must sum to 1")

    @property
    def n_joints(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, vertices: np.ndarray) -> np.ndarray:
        """(..., n, 3) vertices -> (..., n_joints, 3) joints."""
        return np.matmul(self.matrix, vertices)


_JOINT_SPECS = (
    # name, part, where along the part chain (0 start .. 1 end)
    ("pelvis", "torso", 1.0),
    ("chest", "torso", 0.0),
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
    parts = dict(zip(graph.part_names, graph.part_vertices()))
    missing = [part for _, part, _ in _JOINT_SPECS if part not in parts]
    if missing:
        raise MetricsError(f"graph lacks parts required for joints: {sorted(set(missing))}")
    n = graph.n_vertices
    rows = []
    names = []
    for name, part, frac in _JOINT_SPECS:
        ids = parts[part]
        group = max(1, len(ids) // 4)
        lo = max(0, round(frac * (len(ids) - 1)) - (group - 1) // 2)
        members = ids[lo:lo + group]
        row = np.zeros(n)
        row[members] = 1.0 / len(members)
        rows.append(row)
        names.append(name)
    name_idx = {nm: i for i, nm in enumerate(names)}
    bones = tuple((name_idx[a], name_idx[b]) for a, b in _BONES)
    return JointRegressor(matrix=np.array(rows), joint_names=tuple(names),
                          bone_pairs=bones, root_joint=name_idx["pelvis"])


def _first(mask) -> tuple[tuple[int, ...], str]:
    """Leading index of the first set where ``mask`` holds, and an error
    prefix naming it ("frame 7: "; empty for a single set)."""
    i = np.unravel_index(np.argmax(mask), np.shape(mask))
    return i, (f"frame {', '.join(str(int(j)) for j in i)}: " if i else "")


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
            raise MetricsError(_first(~finite)[1] + "point moments are not finite")
        coincident = var_p < 1e-18
        degenerate = coincident | (np.linalg.matrix_rank(x, tol=1e-12) < 2)
        if degenerate.any():
            i, at = _first(degenerate)
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
            raise MetricsError(_first(~finite)[1] + "similarity transform is not finite")
    return (float(scale) if p.ndim == 2 else scale), rot, t


def apply_similarity(p: np.ndarray, scale, rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    """s R p_i + t for (..., k, 3) points; (s, R, t) carry the leading axes."""
    scale = np.asarray(scale)[..., None, None]
    return scale * p @ np.swapaxes(rot, -1, -2) + np.asarray(t)[..., None, :]


def compute_metrics(pred_vertices, gt_vertices, regressor: JointRegressor) -> PoseError:
    """Frame-averaged vertex/joint errors; inputs are (T, n, 3) or (n, 3) mm.

    All T frames are scored in one vectorized pass. A frame whose error is
    not finite (coordinates so large that their squares overflow) raises
    ``MetricsError`` naming it, as does a degenerate alignment.
    """
    pred = np.asarray(pred_vertices, dtype=np.float64)
    gt = np.asarray(gt_vertices, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricsError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if not (np.isfinite(pred).all() and np.isfinite(gt).all()):
        raise MetricsError("non-finite coordinates")
    if pred.ndim == 2:
        pred, gt = pred[None], gt[None]
    if pred.ndim != 3 or pred.shape[2] != 3:
        raise MetricsError(f"expected (T, n, 3) vertices, got {pred.shape}")
    with np.errstate(all="ignore"):
        mpvpe = np.linalg.norm(pred - gt, axis=2).mean(axis=1)
        pj = regressor(pred)
        gj = regressor(gt)
        root = regressor.root_joint
        pj_rooted = pj - pj[:, root:root + 1]
        gj_rooted = gj - gj[:, root:root + 1]
        mpjpe = np.linalg.norm(pj_rooted - gj_rooted, axis=2).mean(axis=1)
        s, r, t = procrustes_align(pj, gj)
        pa = np.linalg.norm(apply_similarity(pj, s, r, t) - gj, axis=2).mean(axis=1)
        vals = np.stack([mpvpe, mpjpe, pa], axis=1)  # (T, 3)
        finite = np.isfinite(vals).all(axis=1)
        if not finite.all():
            raise MetricsError(_first(~finite)[1] + "pose error is not finite")
        means = vals.mean(axis=0)
    return PoseError(mpvpe=means[0], mpjpe=means[1], pa_mpjpe=means[2])
