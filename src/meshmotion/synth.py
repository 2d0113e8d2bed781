"""Synthetic articulated motion sequences with ground truth and corrupted
observations.

The body graph's rigid-group tree (``BodyGraph.rigid_groups`` over its
``rest_pose``, both built once with the graph) moves along smooth
cubic-spline angle trajectories, posed for the whole sequence at once: a
group's T rotations are one (T, 3, 3) stack. Observations start as the clean
vertex coordinates; corruption zeroes occluded part entries behind a sentinel
mask channel and box-blurs along time. Ground truth is never touched by
corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body_graph import BodyGraph
from .metrics import build_joint_regressor

_SPLINE_CONTROLS = 4  # control values per angle or travel curve
_ANGLE_AMPLITUDE = 0.5  # radians
_ROOT_TRAVEL = 250.0  # mm over the whole sequence
_MAX_JOINT_STEP = 40.0  # mm per frame velocity cap
_SEVERITY_RANGE = (0.5, 1.0)  # fraction of a part an occlusion event hides
_MAX_SPAN = 4  # contiguous frames per occlusion event


class SynthError(ValueError):
    """Invalid generation or corruption configuration."""


def _check_int(name: str, value, minimum: int) -> None:
    """Raise :class:`SynthError` unless ``value``, a count or a seed, is an
    integer of at least ``minimum``."""
    if not isinstance(value, (int, np.integer)):
        raise SynthError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise SynthError(f"{name} must be at least {minimum}, got {value}")


@dataclass
class MotionConfig:
    graph: BodyGraph
    frames: int = 16

    def validate(self) -> None:
        _check_int("frames", self.frames, 2)


@dataclass
class CorruptionConfig:
    occlusion_prob: float = 0.3       # per frame
    blur_width: int = 1               # odd, frames

    def validate(self) -> None:
        if not (0.0 <= self.occlusion_prob <= 1.0):
            raise SynthError(f"occlusion_prob {self.occlusion_prob} outside [0, 1]")
        _check_int("blur_width", self.blur_width, 1)
        if self.blur_width % 2 == 0:
            raise SynthError(f"blur width must be odd, got {self.blur_width}")


@dataclass
class MotionSequence:
    gt_vertices: np.ndarray           # (T, n, 3) mm
    observations: np.ndarray          # (T, n, 3) mm, corrupted copy
    occlusion_mask: np.ndarray        # (T, n) 1.0 where occluded

    @property
    def frames(self) -> int:
        return self.gt_vertices.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.gt_vertices.shape[1]


def _natural_cubic_spline(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Natural cubic splines through equally spaced control values: a (C, n+1)
    stack of control rows gives the (C, len(ts)) curves, one solve per row."""
    n = values.shape[1] - 1
    xs = np.linspace(0.0, 1.0, n + 1)
    h = xs[1] - xs[0]
    # solve for second derivatives (natural boundary conditions)
    a = np.zeros((n + 1, n + 1))
    rhs = np.zeros(values.shape)
    a[0, 0] = a[n, n] = 1.0
    for i in range(1, n):
        a[i, i - 1] = h
        a[i, i] = 4.0 * h
        a[i, i + 1] = h
        rhs[:, i] = 6.0 * ((values[:, i + 1] - values[:, i]) / h
                           - (values[:, i] - values[:, i - 1]) / h)
    m = np.linalg.solve(a, rhs[..., None])[..., 0]
    idx = np.clip(np.searchsorted(xs, ts, side="right") - 1, 0, n - 1)
    x0 = xs[idx]
    d = ts - x0
    y0, y1 = values[:, idx], values[:, idx + 1]
    m0, m1 = m[:, idx], m[:, idx + 1]
    return (y0
            + d * ((y1 - y0) / h - h * (2 * m0 + m1) / 6.0)
            + d**2 * m0 / 2.0
            + d**3 * (m1 - m0) / (6.0 * h))


def _axis_angle(axis: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """(T, 3, 3) Rodrigues rotations about ``axis`` by each of the (T,) angles."""
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    s, c = np.sin(angles)[:, None, None], np.cos(angles)[:, None, None]
    return np.eye(3) + s * k + (1 - c) * (k @ k)


def generate_sequence(config: MotionConfig, seed: int) -> MotionSequence:
    """Deterministic kinematic-tree motion with clean observations: (T, n, 3)
    vertices posed for all T frames at once, their motion shrunk until the
    default regressor's joints move at most ``_MAX_JOINT_STEP`` mm per frame.
    A seed that is not a non-negative integer raises ``SynthError``."""
    config.validate()
    _check_int("seed", seed, 0)
    graph = config.graph
    rest, groups = graph.rest_pose, graph.rigid_groups
    regressor = build_joint_regressor(graph)
    rng = np.random.default_rng(seed)
    T = config.frames
    ts = np.linspace(0.0, 1.0, T)

    # seeded per-group axes (slightly perturbed defaults) and unit spline
    # curves, solved once: one angle curve per group then the root's yaw, and
    # the root's travel per axis; each velocity-cap pass only scales them
    axes = []
    controls = []
    for g in groups:
        axis = g.axis + 0.15 * rng.standard_normal(3)
        axes.append(axis / np.linalg.norm(axis))
        controls.append(rng.uniform(-1.0, 1.0, size=_SPLINE_CONTROLS))
    root_controls = rng.uniform(-1.0, 1.0, size=(3, _SPLINE_CONTROLS))
    controls.append(rng.uniform(-1.0, 1.0, size=_SPLINE_CONTROLS))
    angle_curves = _natural_cubic_spline(np.stack(controls), ts)
    travel_curves = _natural_cubic_spline(root_controls, ts).T

    def pose(angles, root, yaw):
        verts = np.empty((T, graph.n_vertices, 3))
        world = []  # per group: (T, 3, 3) rotations and (T, 3) pivot positions
        for g, axis, angle in zip(groups, axes, angles):
            local_r = _axis_angle(axis, angle)
            if g.parent is None:
                r = _axis_angle(np.array([0.0, 1.0, 0.0]), yaw) @ local_r
                pivot_world = g.pivot + root
            else:
                pr, porg = world[g.parent]
                r = pr @ local_r
                pivot_world = pr @ (g.pivot - groups[g.parent].pivot) + porg
            world.append((r, pivot_world))
            verts[:, g.vertices] = ((rest[g.vertices] - g.pivot) @ r.transpose(0, 2, 1)
                                    + pivot_world[:, None])
        return verts

    # conservative velocity-cap enforcement: shrink motion amplitude until the
    # realized max per-frame joint displacement fits
    scale = 1.0
    for _ in range(12):
        angles = (scale * _ANGLE_AMPLITUDE) * angle_curves
        verts = pose(angles, (scale * _ROOT_TRAVEL) * travel_curves, angles[-1])
        joints = regressor(verts)
        step = np.linalg.norm(np.diff(joints, axis=0), axis=2).max()
        if step <= _MAX_JOINT_STEP:
            break
        scale *= 0.95 * _MAX_JOINT_STEP / step
    else:
        raise SynthError("could not satisfy the velocity cap")

    return MotionSequence(
        gt_vertices=verts,
        observations=verts.copy(),
        occlusion_mask=np.zeros((T, graph.n_vertices)),
    )


# ---------------------------------------------------------------------------
# corruption


def corrupt_sequence(seq: MotionSequence, graph: BodyGraph,
                     config: CorruptionConfig, seed: int) -> MotionSequence:
    """New sequence with corrupted observations; ground truth untouched.

    The clean vertices are box-blurred along time (edge frames repeated),
    then each frame starts an occlusion event with ``occlusion_prob``: one
    part, a severity in ``_SEVERITY_RANGE`` and a span of 1 to ``_MAX_SPAN``
    frames, drawn in that order. An event zeroes the first
    ceil(severity · part size) vertices of its part and sets their mask
    entries to 1 over the span. Deterministic per seed.
    A sequence whose vertex count differs from the graph's, or a seed that
    is not a non-negative integer, raises ``SynthError``.
    """
    config.validate()
    _check_int("seed", seed, 0)
    if seq.n_vertices != graph.n_vertices:
        raise SynthError(f"sequence has {seq.n_vertices} vertices, graph has {graph.n_vertices}")
    rng = np.random.default_rng(seed)
    obs = seq.gt_vertices.copy()
    T, n, _ = obs.shape
    width = config.blur_width
    if width > 1:
        if width >= T:
            raise SynthError(f"blur width {width} must be < {T} frames")
        half = width // 2
        padded = np.concatenate([
            np.repeat(obs[:1], half, axis=0), obs, np.repeat(obs[-1:], half, axis=0)
        ])
        kernel = np.ones(width) / width
        for f in range(T):
            obs[f] = np.tensordot(kernel, padded[f:f + width], axes=(0, 0))
    mask = np.zeros((T, n))
    parts = graph.part_vertices()
    for f in range(T):
        if rng.random() < config.occlusion_prob:
            ids = parts[int(rng.integers(len(parts)))]
            severity = float(rng.uniform(*_SEVERITY_RANGE))
            span = int(rng.integers(1, _MAX_SPAN + 1))
            hidden = ids[:int(np.ceil(severity * len(ids)))]
            obs[f:f + span, hidden] = 0.0
            mask[f:f + span, hidden] = 1.0
    return MotionSequence(
        gt_vertices=seq.gt_vertices,
        observations=obs,
        occlusion_mask=mask,
    )
