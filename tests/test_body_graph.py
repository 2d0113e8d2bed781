import numpy as np
import pytest

from oracle_ops import gradcheck
from meshmotion import autodiff as ad
from meshmotion.autodiff import ShapeError, Tensor
from meshmotion.body_graph import (
    DEFAULT_PARTS,
    GraphConvLayer,
    GraphError,
    build_adjacency,
    generate_toy_body,
)


def test_adjacency_single_edge():
    # degrees are 2 after self-loops: every entry 1/sqrt(2*2) or diag 1/2 + ...
    out = build_adjacency([(0, 1)], 2)
    np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_adjacency_no_edges_is_identity():
    out = build_adjacency([], 3)
    np.testing.assert_allclose(out.data, np.eye(3), atol=1e-15)


def test_adjacency_triangle_uniform():
    out = build_adjacency([(0, 1), (1, 2), (0, 2)], 3)
    np.testing.assert_allclose(out.data, np.full((3, 3), 1 / 3), atol=1e-15)


def test_adjacency_symmetric_entries_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        out = build_adjacency(sorted(pairs), n).data
        np.testing.assert_allclose(out, out.T, atol=1e-15)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_adjacency_row_sums_on_regular_graphs():
    # for k-regular graphs D^-1/2 (A+I) D^-1/2 rows sum to exactly 1
    ring = [(i, (i + 1) % 6) for i in range(6)]
    out = build_adjacency(ring, 6).data
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-12)
    tri = build_adjacency([(0, 1), (1, 2), (0, 2)], 3).data
    np.testing.assert_allclose(tri.sum(axis=1), np.ones(3), atol=1e-12)


def test_adjacency_input_errors():
    with pytest.raises(GraphError):
        build_adjacency([(0, 5)], 3)
    with pytest.raises(GraphError):
        build_adjacency([(1, 1)], 3)
    with pytest.raises(GraphError):
        build_adjacency([(0, 1), (1, 0)], 3)


def test_graph_conv_identity_composition():
    adjacency = build_adjacency([], 3)
    layer = GraphConvLayer(1, 1, adjacency, rng=np.random.default_rng(0))
    layer.p["weight"] = Tensor(np.eye(1), requires_grad=True)
    y = np.array([[1.0], [2.0], [3.0]])
    out = layer.apply(Tensor(y))
    np.testing.assert_allclose(out.data, y, atol=1e-15)


def test_graph_conv_two_vertex_example():
    adjacency = build_adjacency([(0, 1)], 2)
    layer = GraphConvLayer(1, 1, adjacency, rng=np.random.default_rng(0))
    layer.p["weight"] = Tensor([[1.0]], requires_grad=True)
    out = layer.apply(Tensor([[2.0], [4.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-15)


def test_graph_conv_permutation_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = 5
        pairs = sorted({(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5})
        adjacency = build_adjacency(pairs, n).data
        y = rng.standard_normal((n, 3))
        w = rng.standard_normal((3, 2))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]

        def forward(a_mat, y_mat):
            return np.maximum(a_mat @ y_mat @ w, 0.0)

        base = forward(adjacency, y)
        permuted = forward(p @ adjacency @ p.T, p @ y)
        np.testing.assert_allclose(permuted, p @ base, atol=1e-9)


def test_graph_conv_weight_gradient():
    adjacency = build_adjacency([(0, 1), (1, 2)], 3)
    rng = np.random.default_rng(2)
    y = rng.standard_normal((3, 4))
    w0 = rng.standard_normal((4, 2))
    layer = GraphConvLayer(4, 2, adjacency, rng=np.random.default_rng(0))

    def op(w):
        layer.p["weight"] = w
        return layer.apply(ad.constant(y))

    assert gradcheck(op, [w0]) < 1e-4


def test_graph_conv_shape_errors():
    adjacency = build_adjacency([(0, 1)], 2)
    layer = GraphConvLayer(3, 2, adjacency, rng=np.random.default_rng(0))
    with pytest.raises(ShapeError):
        layer.apply(Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        layer.apply(Tensor(np.zeros((5, 3))))


def test_spectral_boundedness():
    # repeated application never exceeds input sup-norm times max row sum
    rng = np.random.default_rng(3)
    graph = generate_toy_body()
    a = build_adjacency(graph.edges, graph.n_vertices).data
    row_max = a.sum(axis=1).max()
    x = rng.standard_normal(graph.n_vertices)
    bound = np.abs(x).max()
    for _ in range(50):
        x = a @ x
        bound = bound * row_max
        assert np.abs(x).max() <= bound + 1e-9


def test_resample_down_up_reproduces_coarse_signal():
    graph = generate_toy_body()
    rng = np.random.default_rng(4)
    coarse = rng.standard_normal((graph.n_coarse, 3))
    lifted = ad.matmul(graph.up_matrix, coarse)
    back = ad.matmul(graph.down_matrix, lifted)
    np.testing.assert_allclose(back.data, coarse, atol=1e-9)


def test_resample_constant_per_part():
    graph = generate_toy_body()
    consts = np.arange(len(DEFAULT_PARTS), dtype=float) + 1.0
    y = np.concatenate([np.full(len(ids), c) for c, ids in zip(consts, graph.part_vertices())])
    down = ad.matmul(graph.down_matrix, y[:, None]).data
    coarse_sizes = np.diff(graph.coarse_of[graph.part_starts], append=graph.n_coarse)
    np.testing.assert_allclose(down, np.repeat(consts, coarse_sizes)[:, None], atol=1e-12)


def test_resample_matches_dense_oracle():
    graph = generate_toy_body()
    rng = np.random.default_rng(5)
    y = rng.standard_normal((graph.n_vertices, 2))
    out = ad.matmul(graph.down_matrix, y)
    np.testing.assert_allclose(out.data, graph.down_matrix.data @ y, atol=1e-12)
    coarse = rng.standard_normal((graph.n_coarse, 2))
    out_up = ad.matmul(graph.up_matrix, coarse)
    np.testing.assert_allclose(out_up.data, graph.up_matrix.data @ coarse, atol=1e-12)


def test_resample_errors():
    graph = generate_toy_body()
    with pytest.raises(ShapeError):
        ad.matmul(graph.down_matrix, np.zeros((5, 3)))
    with pytest.raises(ShapeError):
        ad.matmul(graph.up_matrix, np.zeros((graph.n_vertices, 3)))


def test_resample_is_differentiable():
    graph = generate_toy_body(2, 1)
    rng = np.random.default_rng(6)
    y = rng.standard_normal((graph.n_vertices, 2))
    assert gradcheck(lambda t: ad.matmul(graph.down_matrix, t), [y]) < 1e-4


def test_toy_body_default_dimensions():
    graph = generate_toy_body()
    assert graph.n_vertices == 96
    assert graph.n_coarse == 24
    parts = graph.part_vertices()
    assert len(parts) == 8
    assert np.concatenate(parts).tolist() == list(range(96))


def test_toy_body_deterministic():
    a = generate_toy_body()
    b = generate_toy_body()
    assert a.edges == b.edges
    np.testing.assert_array_equal(a.down_matrix.data, b.down_matrix.data)
    np.testing.assert_array_equal(a.part_starts, b.part_starts)
    np.testing.assert_array_equal(a.coarse_of, b.coarse_of)


def _component_count(edges, n):
    """Connected components = zero eigenvalues of the edge Laplacian D - A."""
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, j] = lap[j, i] = -1.0
    lap -= np.diag(lap.sum(axis=1))
    return int((np.linalg.eigvalsh(lap) < 1e-9).sum())


def test_toy_body_connected():
    assert _component_count([(0, 1)], 3) == 2  # the oracle sees a split
    for vpp in (2, 3, 12):
        graph = generate_toy_body(vpp, 1)
        assert _component_count(graph.edges, graph.n_vertices) == 1


@pytest.mark.parametrize("vpp", [2, 3, 12])
def test_inter_part_edges_join_a_group_to_its_rig_parent(vpp):
    # the rigid groups partition the vertices, parents first; every edge
    # between two parts runs from some group's first vertex to a vertex of
    # that group's parent, one edge per non-root group. With 2 vertices per
    # part the right arm's join must stay inside the torso.
    graph = generate_toy_body(vpp, 1)
    groups = graph.rigid_groups
    owner = np.full(graph.n_vertices, -1)
    for k, group in enumerate(groups):
        assert (owner[group.vertices] == -1).all()
        assert group.parent is None if k == 0 else 0 <= group.parent < k
        owner[group.vertices] = k
    assert (owner >= 0).all()
    part_of = np.arange(graph.n_vertices) // vpp
    inter = [(i, j) for i, j in graph.edges if part_of[i] != part_of[j]]
    joined = sorted(int(owner[a]) for i, j in inter for a, b in ((i, j), (j, i))
                    if groups[owner[a]].vertices[0] == a and groups[owner[a]].parent == owner[b])
    assert len(inter) == 9
    assert joined == list(range(1, len(groups)))


def test_rig_arrays_are_read_only():
    graph = generate_toy_body()
    with pytest.raises(ValueError, match="read-only"):
        graph.rest_pose[0, 0] = 1.0
    for group in graph.rigid_groups:
        for name in ("vertices", "pivot", "axis"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(group, name)[0] = 0


def test_toy_body_config_errors():
    with pytest.raises(GraphError):
        generate_toy_body(vertices_per_part=1)
    with pytest.raises(GraphError):
        generate_toy_body(4, 5)


def test_coarse_adjacency_structure():
    graph = generate_toy_body()
    coarse = graph.coarse_adjacency().data
    assert coarse.shape == (24, 24)
    np.testing.assert_allclose(coarse, coarse.T, atol=1e-12)
    assert (coarse.diagonal() > 0).all()


@pytest.mark.parametrize("vpp, cpp", [(12, 3), (2, 1)])
def test_part_layout(vpp, cpp):
    graph = generate_toy_body(vpp, cpp)
    n = graph.n_vertices
    np.testing.assert_array_equal(graph.part_starts, np.arange(len(DEFAULT_PARTS)) * vpp)
    np.testing.assert_array_equal(np.concatenate(graph.part_vertices()), np.arange(n))
    assert np.all(np.diff(graph.coarse_of) >= 0)
    down = graph.down_matrix.data
    for c in range(graph.n_coarse):
        np.testing.assert_array_equal(np.flatnonzero(down[c]), np.flatnonzero(graph.coarse_of == c))
    assert np.all(np.diff(graph.coarse_of[graph.part_starts]) > 0)
