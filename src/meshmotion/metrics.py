"""Pose evaluation: vertex error, root-aligned joint error, and
Procrustes-aligned joint error, all in millimeters.

Joints regress from mesh vertices through a sparse convex-weight matrix; the
toy regressor places 14 joints on single-part vertex groups so rigid part
motion keeps designated bone lengths constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body_graph import BodyGraph


class AlignmentError(ValueError):
    """Degenerate input to Procrustes alignment."""


class MetricsError(ValueError):
    """Invalid metric computation input."""


@dataclass
class PoseError:
    """Per-sequence error aggregate (millimeters)."""

    mpvpe: float
    mpjpe: float
    pa_mpjpe: float

    def __post_init__(self):
        if min(self.mpvpe, self.mpjpe, self.pa_mpjpe) < 0:
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
        return np.einsum("jn,...nk->...jk", self.matrix, vertices)


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
    ranges = dict(zip(graph.part_names, graph.part_ranges()))
    missing = [part for _, part, _ in _JOINT_SPECS if part not in ranges]
    if missing:
        raise MetricsError(f"graph lacks parts required for joints: {sorted(set(missing))}")
    n = graph.n_vertices
    rows = []
    names = []
    for name, part, frac in _JOINT_SPECS:
        s, e = ranges[part]
        count = e - s + 1
        group = max(1, count // 4)
        center = s + round(frac * (count - 1))
        lo = max(s, center - (group - 1) // 2)
        hi = min(e, lo + group - 1)
        row = np.zeros(n)
        row[lo:hi + 1] = 1.0 / (hi - lo + 1)
        rows.append(row)
        names.append(name)
    name_idx = {nm: i for i, nm in enumerate(names)}
    bones = tuple((name_idx[a], name_idx[b]) for a, b in _BONES)
    return JointRegressor(matrix=np.array(rows), joint_names=tuple(names),
                          bone_pairs=bones, root_joint=name_idx["pelvis"])


def procrustes_align(p: np.ndarray, q: np.ndarray):
    """Similarity transform (s, R, t) minimizing ||s R p_i + t - q_i||^2.

    R is a proper rotation (det = +1, reflections corrected by flipping the
    smallest singular direction). Points are rows (k, 3), k >= 3.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 2 or p.shape[1] != 3:
        raise MetricsError(f"point sets must be matching (k, 3) arrays, got {p.shape}, {q.shape}")
    if p.shape[0] < 3:
        raise MetricsError(f"need at least 3 points, got {p.shape[0]}")
    mu_p = p.mean(axis=0)
    mu_q = q.mean(axis=0)
    x = p - mu_p
    y = q - mu_q
    var_p = (x**2).sum()
    if var_p < 1e-18:
        raise AlignmentError("all source points coincident; alignment undefined")
    h = x.T @ y  # (3, 3)
    u, s, vt = np.linalg.svd(h)
    if np.linalg.matrix_rank(x, tol=1e-12) < 2:
        raise AlignmentError("source points are collinear; rotation not identifiable")
    d = np.ones(3)
    if np.linalg.det(vt.T @ u.T) < 0:
        d[-1] = -1.0
    rot = vt.T @ np.diag(d) @ u.T
    scale = float((s * d).sum() / var_p)
    t = mu_q - scale * rot @ mu_p
    return scale, rot, t


def apply_similarity(p: np.ndarray, scale: float, rot: np.ndarray, t: np.ndarray) -> np.ndarray:
    return scale * p @ rot.T + t


def _frame_errors(pred: np.ndarray, gt: np.ndarray, regressor: JointRegressor):
    mpvpe = float(np.linalg.norm(pred - gt, axis=1).mean())
    pj = regressor(pred)
    gj = regressor(gt)
    root = regressor.root_joint
    pj_rooted = pj - pj[root]
    gj_rooted = gj - gj[root]
    mpjpe = float(np.linalg.norm(pj_rooted - gj_rooted, axis=1).mean())
    s, r, t = procrustes_align(pj, gj)
    pa = float(np.linalg.norm(apply_similarity(pj, s, r, t) - gj, axis=1).mean())
    return mpvpe, mpjpe, pa


def compute_metrics(pred_vertices, gt_vertices, regressor: JointRegressor) -> PoseError:
    """Frame-averaged vertex/joint errors; inputs are (T, n, 3) or (n, 3) mm."""
    pred = np.asarray(pred_vertices, dtype=np.float64)
    gt = np.asarray(gt_vertices, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricsError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if not (np.all(np.isfinite(pred)) and np.all(np.isfinite(gt))):
        raise MetricsError("non-finite coordinates")
    if pred.ndim == 2:
        pred, gt = pred[None], gt[None]
    if pred.ndim != 3 or pred.shape[2] != 3:
        raise MetricsError(f"expected (T, n, 3) vertices, got {pred.shape}")
    vals = np.array([_frame_errors(pred[t], gt[t], regressor) for t in range(pred.shape[0])])
    means = vals.mean(axis=0)
    return PoseError(mpvpe=means[0], mpjpe=means[1], pa_mpjpe=means[2])
