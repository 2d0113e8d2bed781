"""Synthetic articulated motion sequences with ground truth and corrupted
observations.

A rigid-group kinematic tree (torso root; head, arms, legs; hands/feet split
left/right onto their parent limbs) moves along smooth cubic-spline angle
trajectories. Observations start as the clean vertex coordinates; corruption
zeroes occluded part entries behind a sentinel mask channel and box-blurs
along time. Ground truth is never touched by corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .body_graph import BodyGraph, DEFAULT_PARTS
from .metrics import JointRegressor, build_joint_regressor


class SynthError(ValueError):
    """Invalid generation or corruption configuration."""


@dataclass
class MotionConfig:
    graph: BodyGraph
    frames: int = 16
    angle_amplitude: float = 0.5      # radians
    root_travel: float = 250.0        # mm over the whole sequence
    max_joint_step: float = 40.0      # mm per frame velocity cap
    spline_controls: int = 4

    def validate(self) -> None:
        if self.frames < 2:
            raise SynthError(f"need at least 2 frames, got {self.frames}")
        if self.angle_amplitude < 0 or self.root_travel < 0:
            raise SynthError("amplitudes must be nonnegative")
        if self.max_joint_step <= 0:
            raise SynthError("velocity cap must be positive")
        if self.spline_controls < 2:
            raise SynthError("need at least 2 spline control points")


@dataclass
class CorruptionConfig:
    occlusion_prob: float = 0.3       # per frame
    blur_width: int = 1               # odd, frames
    severity_range: tuple[float, float] = (0.5, 1.0)
    max_span: int = 4                 # contiguous frames per occlusion event

    def validate(self) -> None:
        if not (0.0 <= self.occlusion_prob <= 1.0):
            raise SynthError(f"occlusion_prob {self.occlusion_prob} outside [0, 1]")
        if self.blur_width < 1 or self.blur_width % 2 == 0:
            raise SynthError(f"blur width must be odd and >= 1, got {self.blur_width}")
        lo, hi = self.severity_range
        if not (0.0 <= lo <= hi <= 1.0):
            raise SynthError(f"severity range {self.severity_range} invalid")
        if self.max_span < 1:
            raise SynthError("max_span must be >= 1")


@dataclass
class MotionSequence:
    gt_vertices: np.ndarray           # (T, n, 3) mm
    gt_joints: np.ndarray             # (T, n_joints, 3) mm
    observations: np.ndarray          # (T, n, 3) mm, corrupted copy
    occlusion_mask: np.ndarray        # (T, n) 1.0 where occluded

    @property
    def frames(self) -> int:
        return self.gt_vertices.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.gt_vertices.shape[1]

    @property
    def n_joints(self) -> int:
        return self.gt_joints.shape[1]


# ---------------------------------------------------------------------------
# rest pose and rigid groups


@dataclass
class _Group:
    name: str
    vertices: np.ndarray      # global vertex ids
    parent: int | None        # index into the group list
    pivot: np.ndarray         # rest-space rotation center
    axis: np.ndarray          # default rotation axis


def _chain(rest: np.ndarray, ids: np.ndarray, start, direction, length, wobble=12.0):
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    k = len(ids)
    ts = np.linspace(0.0, 1.0, k)
    side = np.cross(direction, [0.0, 0.0, 1.0])
    if np.linalg.norm(side) < 1e-9:
        side = np.cross(direction, [0.0, 1.0, 0.0])
    side = side / np.linalg.norm(side)
    for i, (vid, t) in enumerate(zip(ids, ts)):
        # deterministic skinning offsets give the chain a little body
        off = wobble * np.sin(2.1 * i + 0.7) * side
        rest[vid] = np.asarray(start, dtype=np.float64) + t * length * direction + off


def _body_plan(graph: BodyGraph) -> tuple[np.ndarray, list[_Group]]:
    """Rest-pose vertex positions (mm) and the rigid group tree."""
    if set(graph.part_names) != set(DEFAULT_PARTS):
        raise SynthError(
            "motion generation needs the default humanoid part set "
            f"{DEFAULT_PARTS}; got {graph.part_names}"
        )
    ranges = dict(zip(graph.part_names, graph.part_ranges()))

    def ids(part):
        s, e = ranges[part]
        return np.arange(s, e + 1)

    rest = np.zeros((graph.n_vertices, 3))
    torso = ids("torso")
    head = ids("head")
    larm, rarm = ids("left_arm"), ids("right_arm")
    lleg, rleg = ids("left_leg"), ids("right_leg")
    hands, feet = ids("hands"), ids("feet")
    half_h = len(hands) // 2
    half_f = len(feet) // 2
    lhand, rhand = hands[:half_h], hands[half_h:]
    lfoot, rfoot = feet[:half_f], feet[half_f:]

    _chain(rest, torso, (0, 0, 0), (0, 1, 0), 550)            # pelvis up to neck
    _chain(rest, head, (0, 570, 0), (0, 1, 0), 240)
    _chain(rest, larm, (-90, 520, 0), (-1, -0.25, 0.1), 540)
    _chain(rest, rarm, (90, 520, 0), (1, -0.25, 0.1), 540)
    _chain(rest, lleg, (-70, -20, 0), (-0.08, -1, 0.05), 800)
    _chain(rest, rleg, (70, -20, 0), (0.08, -1, 0.05), 800)
    _chain(rest, lhand, rest[larm[-1]] + [0, -20, 0], (-0.6, -1, 0.2), 150, wobble=5)
    _chain(rest, rhand, rest[rarm[-1]] + [0, -20, 0], (0.6, -1, 0.2), 150, wobble=5)
    _chain(rest, lfoot, rest[lleg[-1]] + [0, -20, 0], (0, -0.2, 1), 220, wobble=5)
    _chain(rest, rfoot, rest[rleg[-1]] + [0, -20, 0], (0, -0.2, 1), 220, wobble=5)

    groups = [
        _Group("torso", torso, None, rest[torso[0]].copy(), np.array([0.0, 1.0, 0.0])),
        _Group("head", head, 0, rest[head[0]].copy(), np.array([1.0, 0.0, 0.0])),
        _Group("left_arm", larm, 0, rest[larm[0]].copy(), np.array([0.0, 0.0, 1.0])),
        _Group("right_arm", rarm, 0, rest[rarm[0]].copy(), np.array([0.0, 0.0, 1.0])),
        _Group("left_leg", lleg, 0, rest[lleg[0]].copy(), np.array([1.0, 0.0, 0.0])),
        _Group("right_leg", rleg, 0, rest[rleg[0]].copy(), np.array([1.0, 0.0, 0.0])),
    ]
    groups.append(_Group("left_hand", lhand, 2, rest[larm[-1]].copy(), np.array([1.0, 0.0, 0.0])))
    groups.append(_Group("right_hand", rhand, 3, rest[rarm[-1]].copy(), np.array([1.0, 0.0, 0.0])))
    groups.append(_Group("left_foot", lfoot, 4, rest[lleg[-1]].copy(), np.array([1.0, 0.0, 0.0])))
    groups.append(_Group("right_foot", rfoot, 5, rest[rleg[-1]].copy(), np.array([1.0, 0.0, 0.0])))
    return rest, groups


def _natural_cubic_spline(values: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Evaluate the natural cubic spline through equally spaced control values."""
    n = len(values) - 1
    xs = np.linspace(0.0, 1.0, n + 1)
    h = xs[1] - xs[0]
    # solve for second derivatives (natural boundary conditions)
    a = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    a[0, 0] = a[n, n] = 1.0
    for i in range(1, n):
        a[i, i - 1] = h
        a[i, i] = 4.0 * h
        a[i, i + 1] = h
        rhs[i] = 6.0 * ((values[i + 1] - values[i]) / h - (values[i] - values[i - 1]) / h)
    m = np.linalg.solve(a, rhs)
    idx = np.clip(np.searchsorted(xs, ts, side="right") - 1, 0, n - 1)
    x0 = xs[idx]
    d = ts - x0
    y0, y1 = values[idx], values[idx + 1]
    m0, m1 = m[idx], m[idx + 1]
    return (y0
            + d * ((y1 - y0) / h - h * (2 * m0 + m1) / 6.0)
            + d**2 * m0 / 2.0
            + d**3 * (m1 - m0) / (6.0 * h))


def _axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def generate_sequence(config: MotionConfig, seed: int,
                      regressor: JointRegressor | None = None) -> MotionSequence:
    """Deterministic kinematic-tree motion with clean observations."""
    config.validate()
    graph = config.graph
    rest, groups = _body_plan(graph)
    if regressor is None:
        regressor = build_joint_regressor(graph)
    rng = np.random.default_rng(seed)
    T = config.frames
    ts = np.linspace(0.0, 1.0, T)

    # seeded per-group axes (slightly perturbed defaults) and angle splines
    axes = []
    controls = []
    for g in groups:
        axis = g.axis + 0.15 * rng.standard_normal(3)
        axes.append(axis / np.linalg.norm(axis))
        controls.append(rng.uniform(-1.0, 1.0, size=config.spline_controls))
    root_controls = rng.uniform(-1.0, 1.0, size=(3, config.spline_controls))
    yaw_controls = rng.uniform(-1.0, 1.0, size=config.spline_controls)

    def trajectories(angle_scale: float, travel_scale: float):
        angles = np.stack([
            angle_scale * config.angle_amplitude * _natural_cubic_spline(c, ts)
            for c in controls
        ])
        root = np.stack([
            travel_scale * config.root_travel * _natural_cubic_spline(c, ts)
            for c in root_controls
        ], axis=1)
        yaw = angle_scale * config.angle_amplitude * _natural_cubic_spline(yaw_controls, ts)
        return angles, root, yaw

    def pose(angles, root, yaw):
        verts = np.empty((T, graph.n_vertices, 3))
        for f in range(T):
            rots: list[np.ndarray] = []
            orgs: list[np.ndarray] = []
            for gi, g in enumerate(groups):
                local_r = _axis_angle(axes[gi], angles[gi, f])
                if g.parent is None:
                    r = _axis_angle(np.array([0.0, 1.0, 0.0]), yaw[f]) @ local_r
                    pivot_world = g.pivot + root[f]
                else:
                    pr, porg = rots[g.parent], orgs[g.parent]
                    r = pr @ local_r
                    pivot_world = pr @ (g.pivot - groups[g.parent].pivot) + porg
                rots.append(r)
                orgs.append(pivot_world)
                verts[f, g.vertices] = (rest[g.vertices] - g.pivot) @ r.T + pivot_world
        return verts

    # conservative velocity-cap enforcement: shrink motion amplitude until the
    # realized max per-frame joint displacement fits
    scale = 1.0
    for _ in range(12):
        angles, root, yaw = trajectories(scale, scale)
        verts = pose(angles, root, yaw)
        joints = regressor(verts)
        step = np.linalg.norm(np.diff(joints, axis=0), axis=2).max() if T > 1 else 0.0
        if step <= config.max_joint_step:
            break
        scale *= 0.95 * config.max_joint_step / step
    else:
        raise SynthError("could not satisfy the velocity cap")

    return MotionSequence(
        gt_vertices=verts,
        gt_joints=joints,
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
    part, a severity and a span of frames, drawn in that order. An event
    zeroes the first ceil(severity · part size) vertices of its part and
    sets their mask entries to 1 over the span. Deterministic per seed.
    """
    config.validate()
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
    ranges = graph.part_ranges()
    for f in range(T):
        if rng.random() < config.occlusion_prob:
            part = int(rng.integers(graph.n_parts))
            severity = float(rng.uniform(*config.severity_range))
            span = int(rng.integers(1, config.max_span + 1))
            s, e = ranges[part]
            count = int(np.ceil(severity * (e - s + 1)))
            obs[f:f + span, s:s + count] = 0.0
            mask[f:f + span, s:s + count] = 1.0
    return MotionSequence(
        gt_vertices=seq.gt_vertices,
        gt_joints=seq.gt_joints,
        observations=obs,
        occlusion_mask=mask,
    )
