"""Articulated body mesh as an explicit graph: normalized adjacency,
graph convolution, and coarse/fine linear resampling.

The toy body generator builds a deterministic connected mesh whose parts are
contiguous vertex segments (given by their starts, ``part_starts``) and whose
vertices pool into coarse vertices that never cross a part (``coarse_of``),
standing in for a licensed full-resolution body model.
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


@dataclass
class BodyGraph:
    """Vertex/edge structure, part layout and coarse/fine resampling matrices.

    Each part is one contiguous segment of vertex ids: ``part_starts`` holds
    the first vertex of each part, increasing from 0. Each vertex pools into
    the coarse vertex ``coarse_of`` names; a coarse group never crosses a
    part, so the coarse parts start at ``coarse_of[part_starts]``.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    part_names: tuple[str, ...]
    part_starts: np.ndarray              # (n_parts,) first vertex of each part
    coarse_of: np.ndarray                # (n,) coarse vertex each vertex pools into
    down_matrix: Tensor                  # (n_coarse, n)
    up_matrix: Tensor                    # (n, n_coarse)

    @property
    def n_coarse(self) -> int:
        return self.down_matrix.shape[0]

    def part_vertices(self) -> list[np.ndarray]:
        """Vertex ids of each part, in ``part_names`` order."""
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


def generate_toy_body(vertices_per_part: int = 12, coarse_per_part: int = 3,
                      parts: tuple[str, ...] = DEFAULT_PARTS) -> BodyGraph:
    """Deterministic articulated mesh graph of ``vertices_per_part`` per part.

    Part k is the vertex segment starting at k · vertices_per_part. Parts are
    chains attached to the root part ('torso' when present, else the first
    part). With the default names present, the humanoid parts attach at their
    joints, with terminal parts ('hands'/'feet') split across both arms/legs;
    every other part fans out along the root. Each part pools into
    ``coarse_per_part`` consecutive coarse vertices (``coarse_of``).
    """
    vpp = vertices_per_part
    if len(parts) < 2:
        raise GraphError(f"need at least 2 parts, got {len(parts)}")
    if len(set(parts)) != len(parts):
        raise GraphError(f"part names must be distinct, got {parts}")
    if vpp < 2:
        raise GraphError(f"need at least 2 vertices per part, got {vpp}")
    if not (1 <= coarse_per_part <= vpp):
        raise GraphError(f"coarse_per_part {coarse_per_part} outside [1, {vpp}]")

    n = len(parts) * vpp
    starts = {name: i * vpp for i, name in enumerate(parts)}

    edges: list[tuple[int, int]] = []
    for name in parts:
        edges += _part_edges(starts[name], vpp)

    root = "torso" if "torso" in parts else parts[0]
    rs = starts[root]
    humanoid = set(DEFAULT_PARTS) <= set(parts)
    if humanoid:
        half = vpp // 2
        edges += [
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
    # every part without a humanoid joint fans out along the root
    others = [p for p in parts if p != root and not (humanoid and p in DEFAULT_PARTS)]
    edges += [(starts[p], rs + k * (vpp - 1) // max(1, len(others) - 1))
              for k, p in enumerate(others)]

    # coarse pooling: consecutive near-uniform groups inside each part
    sizes = np.tile([len(g) for g in np.array_split(np.arange(vpp), coarse_per_part)],
                    len(parts))
    coarse_of = np.repeat(np.arange(sizes.size), sizes)
    down = np.zeros((sizes.size, n), dtype=np.float64)
    down[coarse_of, np.arange(n)] = 1.0 / sizes[coarse_of]
    up = np.linalg.pinv(down)

    return BodyGraph(
        n_vertices=n,
        edges=tuple(sorted((min(i, j), max(i, j)) for i, j in edges)),
        part_names=tuple(parts),
        part_starts=np.arange(len(parts)) * vpp,
        coarse_of=coarse_of,
        down_matrix=Tensor(down),
        up_matrix=Tensor(up),
    )
