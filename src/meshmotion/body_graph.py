"""Articulated body mesh as an explicit graph: normalized adjacency,
graph convolution, and coarse/fine linear resampling.

The toy body generator builds a deterministic connected mesh with contiguous
per-part vertex ranges, standing in for a licensed full-resolution body model.
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

class GraphError(ValueError):
    """Invalid graph construction input."""


@dataclass(frozen=True)
class ToyBodyConfig:
    parts: tuple[str, ...] = DEFAULT_PARTS
    vertices_per_part: int = 12
    coarse_per_part: int = 3

    @property
    def n_vertices(self) -> int:
        return len(self.parts) * self.vertices_per_part

    @property
    def n_coarse(self) -> int:
        return len(self.parts) * self.coarse_per_part


@dataclass
class BodyGraph:
    """Vertex/edge structure with normalized adjacency and resampling matrices."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    adjacency_norm: Tensor               # (n, n)
    part_labels: np.ndarray              # (n,) int label ids
    part_names: tuple[str, ...]
    down_matrix: Tensor                  # (n_coarse, n)
    up_matrix: Tensor                    # (n, n_coarse)

    @property
    def n_coarse(self) -> int:
        return self.down_matrix.shape[0]

    @property
    def n_parts(self) -> int:
        return len(self.part_names)

    def part_ranges(self) -> list[tuple[int, int]]:
        """Inclusive (start, end) vertex index range per part label."""
        ranges = []
        for label in range(self.n_parts):
            idx = np.flatnonzero(self.part_labels == label)
            if idx.size == 0:
                raise GraphError(f"part label {label} has no vertices")
            if not np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)):
                raise GraphError(f"part label {label} is not contiguous")
            ranges.append((int(idx[0]), int(idx[-1])))
        return ranges

    def coarse_labels(self) -> np.ndarray:
        """Part label of each coarse vertex (label of its pooled group)."""
        down = self.down_matrix.data
        labels = np.empty(down.shape[0], dtype=np.int64)
        for c in range(down.shape[0]):
            members = np.flatnonzero(down[c] > 0)
            labels[c] = self.part_labels[members[0]]
        return labels

    def coarse_adjacency(self) -> Tensor:
        """Normalized adjacency over coarse vertices, projected from fine edges.

        Coarse vertices i, j connect when any fine edge links their pooled
        groups.
        """
        down = self.down_matrix.data
        owner = np.full(self.n_vertices, -1, dtype=np.int64)
        for c in range(down.shape[0]):
            owner[np.flatnonzero(down[c] > 0)] = c
        coarse_edges = set()
        for i, j in self.edges:
            ci, cj = owner[i], owner[j]
            if ci != cj:
                coarse_edges.add((min(ci, cj), max(ci, cj)))
        return build_adjacency(sorted(coarse_edges), down.shape[0])


def build_adjacency(edges, n_vertices: int) -> Tensor:
    """Symmetrically normalized adjacency D^-1/2 (A+I) D^-1/2.

    ``edges`` are undirected vertex index pairs; self-loops are added
    internally and must not appear in the input.
    """
    if n_vertices < 1:
        raise GraphError(f"n_vertices must be positive, got {n_vertices}")
    seen = set()
    a = np.zeros((n_vertices, n_vertices), dtype=np.float64)
    for i, j in edges:
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


_ACTIVATIONS = {
    "relu": ad.relu,
    "gelu": ad.gelu,
}


def resolve_activation(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise GraphError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")


class GraphConvLayer:
    """One graph convolution: activation(adjacency @ Y @ weight)."""

    def __init__(self, c_in: int, c_out: int, activation: str = "relu",
                 rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        scale = 1.0 / np.sqrt(c_in)
        self.c_in = c_in
        self.activation = activation
        self.p = {"weight": Tensor(rng.standard_normal((c_in, c_out)) * scale,
                                   requires_grad=True)}

    def apply(self, adjacency: Tensor, y: Tensor) -> Tensor:
        """activation(adjacency @ y @ weight); y is (..., n, c_in)."""
        w = self.p["weight"]
        if y.shape[-1] != self.c_in:
            raise ShapeError(f"feature width {y.shape[-1]} != layer c_in {self.c_in}")
        if y.shape[-2] != adjacency.shape[0]:
            raise ShapeError(
                f"row count {y.shape[-2]} != adjacency size {adjacency.shape[0]}"
            )
        act = resolve_activation(self.activation)
        return act(ad.matmul(ad.matmul(adjacency, y), w))


def _part_edges(start: int, count: int) -> list[tuple[int, int]]:
    """Chain plus second-neighbor struts inside one part's index range."""
    edges = [(start + i, start + i + 1) for i in range(count - 1)]
    edges += [(start + i, start + i + 2) for i in range(count - 2)]
    return edges


def generate_toy_body(config: ToyBodyConfig | None = None) -> BodyGraph:
    """Deterministic articulated mesh graph with contiguous part ranges.

    Parts are chains attached to the root part (the second entry, 'torso', in
    the default list; the first part when only generic names are given), with
    terminal parts ('hands'/'feet') split across both arms/legs when present.
    """
    if config is None:
        config = ToyBodyConfig()
    parts = config.parts
    vpp = config.vertices_per_part
    if len(parts) < 2:
        raise GraphError(f"need at least 2 parts, got {len(parts)}")
    if vpp < 2:
        raise GraphError(f"need at least 2 vertices per part, got {vpp}")
    if not (1 <= config.coarse_per_part <= vpp):
        raise GraphError(
            f"coarse_per_part {config.coarse_per_part} outside [1, {vpp}]"
        )

    n = config.n_vertices
    starts = {name: i * vpp for i, name in enumerate(parts)}
    labels = np.repeat(np.arange(len(parts)), vpp)

    edges: list[tuple[int, int]] = []
    for name in parts:
        edges += _part_edges(starts[name], vpp)

    # attach non-root parts to the root chain; use humanoid attachments when
    # the default names are present, otherwise fan out along the root
    root = "torso" if "torso" in parts else parts[0]
    rs = starts[root]
    if set(DEFAULT_PARTS) <= set(parts):
        half = vpp // 2
        attach = [
            (starts["head"], rs),
            (starts["left_arm"], rs + 1),
            (starts["right_arm"], rs + 2),
            (starts["left_leg"], rs + vpp - 2),
            (starts["right_leg"], rs + vpp - 1),
            (starts["hands"], starts["left_arm"] + vpp - 1),
            (starts["hands"] + half, starts["right_arm"] + vpp - 1),
            (starts["feet"], starts["left_leg"] + vpp - 1),
            (starts["feet"] + half, starts["right_leg"] + vpp - 1),
        ]
    else:
        others = [p for p in parts if p != root]
        attach = [
            (starts[p], rs + (k * (vpp - 1)) // max(1, len(others) - 1) if len(others) > 1 else rs)
            for k, p in enumerate(others)
        ]
    edges += [(a, b) for a, b in attach if a != b]

    adjacency = build_adjacency(edges, n)

    # coarse pooling: consecutive uniform groups inside each part
    groups: list[np.ndarray] = []
    for label in range(len(parts)):
        vertex_ids = np.arange(label * vpp, (label + 1) * vpp)
        groups += [g for g in np.array_split(vertex_ids, config.coarse_per_part)]
    down = np.zeros((len(groups), n), dtype=np.float64)
    for c, g in enumerate(groups):
        down[c, g] = 1.0 / len(g)
    up = np.linalg.pinv(down)

    return BodyGraph(
        n_vertices=n,
        edges=tuple(sorted((min(i, j), max(i, j)) for i, j in edges)),
        adjacency_norm=adjacency,
        part_labels=labels,
        part_names=tuple(parts),
        down_matrix=Tensor(down),
        up_matrix=Tensor(up),
    )
