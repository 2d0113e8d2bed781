"""Articulated body mesh as an explicit graph: normalized adjacency,
graph convolution, coarse/fine linear resampling, and the humanoid rig that
poses it.

The toy body generator builds a deterministic connected mesh of the
``DEFAULT_PARTS``, standing in for a licensed full-resolution body model. Its
parts are contiguous vertex segments (given by their starts,
``part_starts``) whose vertices pool into coarse vertices that never cross a
part (``coarse_of``). One table, ``_RIG``, states the humanoid once: ten
rigid groups (the parts, with the hands and feet each split into a left and
a right half), how each joins its parent group in the mesh, and its
rest-pose chain. The graph carries the rest pose and the rigid-group tree
built from it, as a template and a kinematic tree ship with a body model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

DEFAULT_PARTS = (
    "head",
    "torso",
    "left_arm",
    "right_arm",
    "left_leg",
    "right_leg",
    "hands",
    "feet",
)

_X, _Y, _Z = (1, 0, 0), (0, 1, 0), (0, 0, 1)

# The rigid groups, parents first, one row each: the part, or which half of
# it (0 left, 1 right, split at vertices_per_part // 2); the parent group; the
# parent's vertex that the group's first vertex joins in the mesh (an index
# into the parent's vertices, clamped to them); the default rotation axis; and
# the rest chain's start, direction, length (mm) and wobble. A whole part's
# chain starts at ``start`` and turns about its first vertex; a half's starts
# at its join vertex plus ``start`` and turns about the join vertex.
_RIG = (
    ("torso", None, None, None, _Y, (0, 0, 0), (0, 1, 0), 550, 12.0),  # pelvis up to neck
    ("head", None, 0, 0, _X, (0, 570, 0), (0, 1, 0), 240, 12.0),
    ("left_arm", None, 0, 1, _Z, (-90, 520, 0), (-1, -0.25, 0.1), 540, 12.0),
    ("right_arm", None, 0, 2, _Z, (90, 520, 0), (1, -0.25, 0.1), 540, 12.0),
    ("left_leg", None, 0, -2, _X, (-70, -20, 0), (-0.08, -1, 0.05), 800, 12.0),
    ("right_leg", None, 0, -1, _X, (70, -20, 0), (0.08, -1, 0.05), 800, 12.0),
    ("hands", 0, 2, -1, _X, (0, -20, 0), (-0.6, -1, 0.2), 150, 5.0),
    ("hands", 1, 3, -1, _X, (0, -20, 0), (0.6, -1, 0.2), 150, 5.0),
    ("feet", 0, 4, -1, _X, (0, -20, 0), (0, -0.2, 1), 220, 5.0),
    ("feet", 1, 5, -1, _X, (0, -20, 0), (0, -0.2, 1), 220, 5.0),
)


class GraphError(ValueError):
    """Invalid graph construction input."""


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, as a count or a seed
    must be; a bool, Python's or numpy's, is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class RigidGroup:
    """One rigid piece of the rig; its arrays are read-only.

    The group turns about ``pivot`` (rest-space mm) with its own rotation
    composed onto its ``parent``'s (an index into ``BodyGraph.rigid_groups``;
    None for the root).
    """

    vertices: np.ndarray                 # vertex ids
    parent: int | None
    pivot: np.ndarray                    # (3,)
    axis: np.ndarray                     # (3,) default rotation axis

    def __post_init__(self):
        for a in (self.vertices, self.pivot, self.axis):
            a.setflags(write=False)


@dataclass(eq=False)
class BodyGraph:
    """Vertex/edge structure, part layout, resampling matrices and rig.

    Each part of ``DEFAULT_PARTS`` is one contiguous segment of vertex ids:
    ``part_starts`` holds the first vertex of each part, increasing from 0.
    Each vertex pools into the coarse vertex ``coarse_of`` names; a coarse
    group never crosses a part, so the coarse parts start at
    ``coarse_of[part_starts]``. ``rest_pose`` and ``rigid_groups`` (parents
    first) are built once with the graph and shared, read-only, by every
    sequence posed on it. A graph compares and hashes by identity, so
    ``synth`` caches the posing tables it derives from them per graph.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    part_starts: np.ndarray              # (n_parts,) first vertex of each part
    coarse_of: np.ndarray                # (n,) coarse vertex each vertex pools into
    down_matrix: Tensor                  # (n_coarse, n)
    up_matrix: Tensor                    # (n, n_coarse) 0/1: vertex i copies coarse_of[i]
    rest_pose: np.ndarray                # (n, 3) mm
    rigid_groups: tuple[RigidGroup, ...]

    @property
    def n_coarse(self) -> int:
        return self.down_matrix.shape[0]

    def part_vertices(self) -> list[np.ndarray]:
        """Vertex ids of each part, in ``DEFAULT_PARTS`` order."""
        return np.split(np.arange(self.n_vertices), self.part_starts[1:])

    def coarse_adjacency(self) -> Tensor:
        """Normalized adjacency over coarse vertices, projected from fine edges.

        Coarse vertices i, j connect when any fine edge links their pooled
        groups.
        """
        coarse_edges = set()
        for i, j in self.edges:
            ci, cj = self.coarse_of[i], self.coarse_of[j]
            if ci != cj:
                coarse_edges.add((min(ci, cj), max(ci, cj)))
        return build_adjacency(sorted(coarse_edges), self.n_coarse)


def build_adjacency(edges, n_vertices: int) -> Tensor:
    """Symmetrically normalized adjacency D^-1/2 (A+I) D^-1/2.

    ``edges`` are undirected vertex index pairs; self-loops are added
    internally and must not appear in the input. The count and every vertex
    index must be integers (:func:`is_integer`): a float or a bool raises
    ``GraphError`` rather than being read as an index.
    """
    if not is_integer(n_vertices) or n_vertices < 1:
        raise GraphError(f"n_vertices must be a positive integer, got {n_vertices!r}")
    seen = set()
    a = np.zeros((n_vertices, n_vertices), dtype=np.float64)
    for i, j in edges:
        if not (is_integer(i) and is_integer(j)):
            raise GraphError(f"edge ({i!r}, {j!r}) has a vertex index that is not an integer")
        i, j = int(i), int(j)
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise GraphError(f"edge ({i}, {j}) out of range for {n_vertices} vertices")
        if i == j:
            raise GraphError(f"self-loop ({i}, {j}) not accepted; loops are added internally")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise GraphError(f"duplicate edge {key}")
        seen.add(key)
        a[i, j] = 1.0
        a[j, i] = 1.0
    a += np.eye(n_vertices)
    d = 1.0 / np.sqrt(a.sum(axis=1))
    return Tensor(d[:, None] * a * d[None, :])


# Every layer calls ``ad.relu`` directly and nothing in this package reads
# this table. It stays because the benchmark's tracer (perfbench/tracing.py)
# wraps each entry and fails without it.
_ACTIVATIONS = {"relu": ad.relu}


class GraphConvLayer:
    """One graph convolution over a fixed graph: relu(adjacency @ Y @ weight)."""

    def __init__(self, c_in: int, c_out: int, adjacency: Tensor, *, rng: np.random.Generator):
        scale = 1.0 / np.sqrt(c_in)
        self.c_in = c_in
        self.adjacency = adjacency
        self.p = {"weight": Tensor(rng.standard_normal((c_in, c_out)) * scale,
                                   requires_grad=True)}

    def apply(self, y: Tensor) -> Tensor:
        """relu(adjacency @ y @ weight); y is (..., n, c_in)."""
        w = self.p["weight"]
        if y.shape[-1] != self.c_in:
            raise ShapeError(f"feature width {y.shape[-1]} != layer c_in {self.c_in}")
        if y.shape[-2] != self.adjacency.shape[0]:
            raise ShapeError(
                f"row count {y.shape[-2]} != adjacency size {self.adjacency.shape[0]}"
            )
        return ad.relu(ad.matmul(ad.matmul(self.adjacency, y), w))


def _part_edges(start: int, count: int) -> list[tuple[int, int]]:
    """Chain plus second-neighbor struts inside one part's index range."""
    edges = [(start + i, start + i + 1) for i in range(count - 1)]
    edges += [(start + i, start + i + 2) for i in range(count - 2)]
    return edges


def _chain(rest: np.ndarray, ids: np.ndarray, start, direction, length, wobble):
    """Lay vertices ``ids`` of ``rest`` along a straight chain from ``start``."""
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    k = len(ids)
    ts = np.linspace(0.0, 1.0, k)[:, None]
    side = np.cross(direction, [0.0, 0.0, 1.0])
    if np.linalg.norm(side) < 1e-9:
        side = np.cross(direction, [0.0, 1.0, 0.0])
    side = side / np.linalg.norm(side)
    # deterministic skinning offsets give the chain a little body
    off = (wobble * np.sin(2.1 * np.arange(k) + 0.7))[:, None] * side
    rest[ids] = np.asarray(start, dtype=np.float64) + ts * length * direction + off


def generate_toy_body(vertices_per_part: int = 12, coarse_per_part: int = 3) -> BodyGraph:
    """Deterministic humanoid mesh graph of ``vertices_per_part`` per part.

    Part k of ``DEFAULT_PARTS`` is the vertex segment starting at
    k · vertices_per_part, a chain with second-neighbor struts. One pass over
    ``_RIG`` then joins each rigid group's first vertex to its parent group
    (the nine attachment edges), lays out the rest pose and builds the
    rigid-group tree. Each part pools into ``coarse_per_part`` consecutive
    coarse vertices (``coarse_of``). A count that is not an integer raises
    ``GraphError`` naming it.
    """
    for name, value in (("vertices_per_part", vertices_per_part),
                        ("coarse_per_part", coarse_per_part)):
        if not is_integer(value):
            raise GraphError(f"{name} must be an integer, got {value!r}")
    vpp = vertices_per_part
    if vpp < 2:
        raise GraphError(f"need at least 2 vertices per part, got {vpp}")
    if not (1 <= coarse_per_part <= vpp):
        raise GraphError(f"coarse_per_part {coarse_per_part} outside [1, {vpp}]")

    n = len(DEFAULT_PARTS) * vpp
    part_starts = np.arange(len(DEFAULT_PARTS)) * vpp
    ids = dict(zip(DEFAULT_PARTS, np.split(np.arange(n), part_starts[1:])))
    edges = [e for s in part_starts for e in _part_edges(int(s), vpp)]

    rest = np.zeros((n, 3))
    groups: list[RigidGroup] = []
    for part, half, parent, join, axis, start, direction, length, wobble in _RIG:
        vs = ids[part] if half is None else np.split(ids[part], [vpp // 2])[half]
        pivot = vs[0]
        if parent is not None:
            joinable = groups[parent].vertices
            at = joinable[min(join, len(joinable) - 1)]
            edges.append((int(vs[0]), int(at)))
            if half is not None:
                start, pivot = rest[at] + start, at
        _chain(rest, vs, start, direction, length, wobble)
        groups.append(RigidGroup(vs, parent, rest[pivot], np.array(axis, dtype=np.float64)))
    rest.setflags(write=False)

    # coarse pooling: consecutive near-uniform groups inside each part
    sizes = np.tile([len(g) for g in np.array_split(np.arange(vpp), coarse_per_part)],
                    len(DEFAULT_PARTS))
    coarse_of = np.repeat(np.arange(sizes.size), sizes)
    down = np.zeros((sizes.size, n), dtype=np.float64)
    down[coarse_of, np.arange(n)] = 1.0 / sizes[coarse_of]
    up = np.zeros((n, sizes.size), dtype=np.float64)
    up[np.arange(n), coarse_of] = 1.0

    return BodyGraph(
        n_vertices=n,
        edges=tuple(sorted((min(i, j), max(i, j)) for i, j in edges)),
        part_starts=part_starts,
        coarse_of=coarse_of,
        down_matrix=Tensor(down),
        up_matrix=Tensor(up),
        rest_pose=rest,
        rigid_groups=tuple(groups),
    )
