"""Synthetic articulated motion sequences with ground truth and corrupted
observations.

The body graph's rigid-group tree (``BodyGraph.rigid_groups`` over its
``rest_pose``, both built once with the graph) moves along smooth
cubic-spline angle trajectories. Observations start as the clean vertex
coordinates; corruption zeroes occluded part entries behind a sentinel mask
channel and box-blurs along time. Ground truth is never touched by
corruption.

What does not depend on a seed is built once and kept read-only, in
``functools.lru_cache`` tables: per graph (``_rig``) each group's rest
offsets from its pivot, stacked by vertex count, each pivot's offset from
its parent's, the tree's levels, the default joint regressor and the part
ranges; per (control count, frames) the spline system and its evaluation
tables (``_spline_tables``); per (frames, blur width) the blur taps
(``_blur_taps``). A sequence then costs a few array passes: its seeded
draws, one spline solve over all its curves, and per pose one Rodrigues
call for every group's local rotation and the root's yaw, one batched
matmul per tree level and one per group vertex count. Corruption blurs all
frames with one matrix-vector product and zeroes each occlusion event as a
slice. Every array equals, bit for bit, what posing group by group and
blurring frame by frame computed, since each element goes through the same
floating-point operations in the same order.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .body_graph import BodyGraph, is_integer
from .metrics import build_joint_regressor

_SPLINE_CONTROLS = 4  # control values per angle or travel curve
_ANGLE_AMPLITUDE = 0.5  # radians
_ROOT_TRAVEL = 250.0  # mm over the whole sequence
_MAX_JOINT_STEP = 40.0  # mm per frame velocity cap
_SEVERITY_RANGE = (0.5, 1.0)  # fraction of a part an occlusion event hides
_MAX_SPAN = 4  # contiguous frames per occlusion event
_YAW_AXIS = (0.0, 1.0, 0.0)  # the root turns about the vertical


class SynthError(ValueError):
    """Invalid generation or corruption configuration."""


def _check_int(name: str, value, minimum: int) -> None:
    """Raise :class:`SynthError` unless ``value``, a count or a seed, is an
    integer of at least ``minimum``."""
    if not is_integer(value):
        raise SynthError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise SynthError(f"{name} must be at least {minimum}, got {value}")


@dataclass
class MotionConfig:
    graph: BodyGraph
    frames: int = 16

    def validate(self) -> None:
        if not isinstance(self.graph, BodyGraph):
            raise SynthError(f"graph must be a BodyGraph, got {type(self.graph).__name__}")
        _check_int("frames", self.frames, 2)


@dataclass
class CorruptionConfig:
    occlusion_prob: float = 0.3       # per frame
    blur_width: int = 1               # odd, frames

    def validate(self) -> None:
        p = self.occlusion_prob
        if isinstance(p, (bool, np.bool_)) or not isinstance(p, numbers.Real):
            raise SynthError(f"occlusion_prob must be a real number, got {p!r}")
        if not (0.0 <= p <= 1.0):
            raise SynthError(f"occlusion_prob {p} outside [0, 1]")
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


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True)
class _Rig:
    """The seed-independent posing tables of one graph; every array is
    read-only. Groups are indexed as in ``BodyGraph.rigid_groups``."""

    axes: np.ndarray                 # (G, 3) default rotation axes
    roots: np.ndarray                # ids of the groups without a parent
    root_pivots: np.ndarray          # (R, 1, 3) their pivots
    # one entry per tree depth below the roots, parents first: the groups,
    # their parents and their (g, 3, 1) pivots less their parents' pivots
    levels: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    # one entry per group vertex count k: the groups, their (g, k, 3)
    # rest vertices less their pivots, and those vertices' ids in that order
    classes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    regressor: np.ndarray            # (J, n) default joint regressor matrix
    parts: tuple[tuple[int, int], ...]  # each part's first vertex and size


@functools.lru_cache(maxsize=1)
def _rig(graph: BodyGraph) -> _Rig:
    """``graph``'s posing tables, built on its first sequence. The cache
    keeps its graph alive, so it holds one: a process poses one graph at a
    time, and a switch costs one rebuild (about 0.2 ms)."""
    groups = graph.rigid_groups
    depth = []
    for g in groups:  # parents come first
        depth.append(0 if g.parent is None else depth[g.parent] + 1)
    depth = np.array(depth)
    roots = np.flatnonzero(depth == 0)
    levels = []
    for d in range(1, depth.max() + 1):
        ids = np.flatnonzero(depth == d)
        parents = np.array([groups[i].parent for i in ids])
        offsets = np.stack([groups[i].pivot - groups[groups[i].parent].pivot
                            for i in ids])[..., None]
        _read_only(ids, parents, offsets)
        levels.append((ids, parents, offsets))
    classes = []
    for k in sorted({len(g.vertices) for g in groups}):
        ids = np.array([i for i, g in enumerate(groups) if len(g.vertices) == k])
        offsets = np.stack([graph.rest_pose[groups[i].vertices] - groups[i].pivot
                            for i in ids])
        vertices = np.concatenate([groups[i].vertices for i in ids])
        _read_only(ids, offsets, vertices)
        classes.append((ids, offsets, vertices))
    starts = graph.part_starts.tolist()
    parts = tuple((s, e - s) for s, e in zip(starts, starts[1:] + [graph.n_vertices]))
    axes = np.stack([g.axis for g in groups])
    root_pivots = np.stack([groups[i].pivot for i in roots])[:, None]
    regressor = build_joint_regressor(graph).matrix
    _read_only(axes, roots, root_pivots, regressor)
    return _Rig(axes, roots, root_pivots, tuple(levels), tuple(classes), regressor, parts)


@functools.lru_cache(maxsize=16)
def _spline_tables(controls: int, frames: int) -> tuple:
    """Natural cubic splines through ``controls`` equally spaced values on
    [0, 1], evaluated at ``frames`` equally spaced times: the knot spacing
    h, the second-derivative system's matrix, and per time its interval's
    first knot index and the next one, its offset d from that knot, d² and
    d³; every array read-only."""
    n = controls - 1
    xs = np.linspace(0.0, 1.0, n + 1)
    h = xs[1] - xs[0]
    a = np.zeros((n + 1, n + 1))
    a[0, 0] = a[n, n] = 1.0
    for i in range(1, n):
        a[i, i - 1:i + 2] = h, 4.0 * h, h
    ts = np.linspace(0.0, 1.0, frames)
    idx = np.clip(np.searchsorted(xs, ts, side="right") - 1, 0, n - 1)
    d = ts - xs[idx]
    tables = (a, idx, idx + 1, d, d**2, d**3)
    _read_only(*tables)
    return (h, *tables)


def _natural_cubic_spline(values: np.ndarray, frames: int) -> np.ndarray:
    """Natural cubic splines through equally spaced control values: a (C, n+1)
    stack of control rows gives the (C, frames) curves, one solve per row."""
    h, a, i0, i1, d, d2, d3 = _spline_tables(values.shape[1], frames)
    # solve for second derivatives (natural boundary conditions)
    rhs = np.zeros(values.shape)
    rhs[:, 1:-1] = 6.0 * ((values[:, 2:] - values[:, 1:-1]) / h
                          - (values[:, 1:-1] - values[:, :-2]) / h)
    m = np.linalg.solve(a, rhs[..., None])[..., 0]
    y0, y1 = values[:, i0], values[:, i1]
    m0, m1 = m[:, i0], m[:, i1]
    return (y0
            + d * ((y1 - y0) / h - h * (2 * m0 + m1) / 6.0)
            + d2 * m0 / 2.0
            + d3 * (m1 - m0) / (6.0 * h))


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Each row of the (m, 3) ``v`` divided by its ``np.linalg.norm``, by the
    norm's own arithmetic: the square root of the row's BLAS dot product
    with itself, one vector-vector matmul item per row. A norm along an axis
    (``axis=-1``) sums in another order and may differ in the last bit."""
    return v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]


def _skew(u: np.ndarray) -> np.ndarray:
    """(m, 3, 3) cross-product matrices of the (m, 3) vectors ``u``."""
    k = np.zeros((len(u), 3, 3))
    k[:, 0, 1], k[:, 0, 2] = -u[:, 2], u[:, 1]
    k[:, 1, 0], k[:, 1, 2] = u[:, 2], -u[:, 0]
    k[:, 2, 0], k[:, 2, 1] = -u[:, 1], u[:, 0]
    return k


def _pose(rig: _Rig, k: np.ndarray, kk: np.ndarray, angles: np.ndarray,
          root: np.ndarray) -> np.ndarray:
    """(T, n, 3) vertices of one pose. Row i of the (G + 1, T) ``angles``
    turns group i about its unit axis, whose (G + 1, 3, 3) cross-product
    matrices are ``k`` and their squares ``kk``; the last row is the root's
    yaw; ``root`` (T, 3) is the root's travel.

    One Rodrigues call makes every local rotation; each tree level composes
    its groups onto their parents' world rotations and pivots in one matmul
    each, and each group vertex count places its groups' vertices in one."""
    T = angles.shape[1]
    s, c = np.sin(angles)[..., None, None], np.cos(angles)[..., None, None]
    local = np.eye(3) + s * k[:, None] + (1 - c) * kk[:, None]   # (G + 1, T, 3, 3)
    world = np.empty(local[:-1].shape)
    pivots = np.empty(world.shape[:-1])
    world[rig.roots] = local[-1] @ local[rig.roots]
    pivots[rig.roots] = rig.root_pivots + root
    for ids, parents, offsets in rig.levels:
        parent_r = world[parents]
        world[ids] = parent_r @ local[ids]
        pivots[ids] = (parent_r.reshape(len(ids), -1, 3) @ offsets).reshape(
            len(ids), T, 3) + pivots[parents]
    verts = np.empty((T, rig.regressor.shape[1], 3))
    for ids, offsets, vertices in rig.classes:
        # (g, 3, 3T): column 3t + j of group i's block is row j of its
        # frame-t rotation, so one product per group places all T frames
        columns = world[ids].transpose(0, 3, 1, 2).reshape(len(ids), 3, 3 * T)
        placed = (offsets @ columns).reshape(len(ids), -1, T, 3) + pivots[ids][:, None]
        verts[:, vertices] = placed.transpose(2, 0, 1, 3).reshape(T, -1, 3)
    return verts


def generate_sequence(config: MotionConfig, seed: int) -> MotionSequence:
    """Deterministic kinematic-tree motion with clean observations: (T, n, 3)
    vertices posed for all T frames at once, their motion shrunk until the
    default regressor's joints move at most ``_MAX_JOINT_STEP`` mm per frame.
    A seed that is not a non-negative integer raises ``SynthError``.

    The graph's tables (``_rig``) and the spline tables for T frames
    (``_spline_tables``) are built on the first call and reused. Each call
    draws its groups' axes and control values group by group, solves every
    angle and travel curve at once, and each velocity-cap pass poses all
    groups with ``_pose``. The result equals posing and composing one group
    at a time bit for bit."""
    config.validate()
    _check_int("seed", seed, 0)
    rig = _rig(config.graph)
    rng = np.random.default_rng(seed)
    T = config.frames
    G = len(rig.axes)

    # seeded per-group axes (slightly perturbed defaults) and unit spline
    # curves, solved once: one angle curve per group then the root's yaw, and
    # the root's travel per axis; each velocity-cap pass only scales them
    noise = np.empty((G, 3))
    controls = np.empty((G + 4, _SPLINE_CONTROLS))
    for i in range(G):
        noise[i] = rng.standard_normal(3)
        controls[i] = rng.uniform(-1.0, 1.0, size=_SPLINE_CONTROLS)
    controls[G + 1:] = rng.uniform(-1.0, 1.0, size=(3, _SPLINE_CONTROLS))
    controls[G] = rng.uniform(-1.0, 1.0, size=_SPLINE_CONTROLS)
    curves = _natural_cubic_spline(controls, T)
    angle_curves, travel_curves = curves[:G + 1], curves[G + 1:].T

    # each seeded axis is normalized once when drawn and once more where it
    # builds its rotation
    axes = rig.axes + 0.15 * noise
    k = _skew(np.concatenate([_unit_rows(_unit_rows(axes)), [_YAW_AXIS]]))
    kk = k @ k

    # conservative velocity-cap enforcement: shrink motion amplitude until the
    # realized max per-frame joint displacement fits
    scale = 1.0
    for _ in range(12):
        verts = _pose(rig, k, kk, (scale * _ANGLE_AMPLITUDE) * angle_curves,
                      (scale * _ROOT_TRAVEL) * travel_curves)
        joints = np.matmul(rig.regressor, verts)
        step = np.linalg.norm(np.diff(joints, axis=0), axis=2).max()
        if step <= _MAX_JOINT_STEP:
            break
        scale *= 0.95 * _MAX_JOINT_STEP / step
    else:
        raise SynthError("could not satisfy the velocity cap")

    return MotionSequence(
        gt_vertices=verts,
        observations=verts.copy(),
        occlusion_mask=np.zeros((T, verts.shape[1])),
    )


# ---------------------------------------------------------------------------
# corruption


@functools.lru_cache(maxsize=16)
def _blur_taps(frames: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The (width, frames) source frame of each box-blur tap, edge frames
    repeated, and the (width,) kernel; both read-only."""
    taps = np.clip(np.arange(frames) + np.arange(width)[:, None] - width // 2, 0, frames - 1)
    kernel = np.ones(width) / width
    _read_only(taps, kernel)
    return taps, kernel


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

    The blur of every frame is one product of the kernel with the stacked
    shifted frames (``_blur_taps``, built once per (T, width)); the draws
    stay frame by frame, and each event zeroes a slice of the graph's
    cached part ranges. The result equals blurring frame by frame bit for
    bit.
    """
    config.validate()
    _check_int("seed", seed, 0)
    if seq.n_vertices != graph.n_vertices:
        raise SynthError(f"sequence has {seq.n_vertices} vertices, graph has {graph.n_vertices}")
    rng = np.random.default_rng(seed)
    gt = seq.gt_vertices
    T, n, _ = gt.shape
    width = config.blur_width
    if width > 1:
        if width >= T:
            raise SynthError(f"blur width {width} must be < {T} frames")
        taps, kernel = _blur_taps(T, width)
        obs = np.dot(kernel, gt[taps].reshape(width, -1)).reshape(T, n, 3)
    else:
        obs = gt.copy()
    mask = np.zeros((T, n))
    parts = _rig(graph).parts
    for f in range(T):
        if rng.random() < config.occlusion_prob:
            start, size = parts[int(rng.integers(len(parts)))]
            severity = float(rng.uniform(*_SEVERITY_RANGE))
            span = int(rng.integers(1, _MAX_SPAN + 1))
            hidden = slice(start, start + math.ceil(severity * size))
            obs[f:f + span, hidden] = 0.0
            mask[f:f + span, hidden] = 1.0
    return MotionSequence(
        gt_vertices=gt,
        observations=obs,
        occlusion_mask=mask,
    )
