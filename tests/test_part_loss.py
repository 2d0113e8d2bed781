import math

import numpy as np
import pytest

import oracle_ops as oracle
from oracle_ops import gradcheck
from meshmotion import autodiff as ad
from meshmotion.autodiff import PROB_FLOOR, ShapeError, Tensor
from meshmotion.body_graph import generate_toy_body
from meshmotion.model import MM_SCALE, ModelConfig, build_model
from meshmotion.part_loss import hh_loss, part_weights_from_variance


# Reference: the part loss built op by op, one softmax and one KL term per
# part in a Python loop. hh_loss computes the same sum as one segmented record.

def part_kl(y_pred: Tensor | np.ndarray, y_true: Tensor | np.ndarray) -> Tensor:
    """sum(y_true * (log y_true - log y_pred)) with 0*log 0 = 0.

    Predictions are floored at 1e-12 inside the log. Batched rows average.
    """
    y_pred, y_true = ad.as_tensor(y_pred), ad.as_tensor(y_true)
    if y_pred.shape != y_true.shape:
        raise ShapeError(f"support mismatch: {y_pred.shape} vs {y_true.shape}")
    log_pred = oracle.log(oracle.clip_min(y_pred, PROB_FLOOR))
    # 0*log 0 = 0 on the target side: floor inside the log, zero outside
    log_true = Tensor(np.log(np.maximum(y_true.data, PROB_FLOOR)))
    per_entry = ad.mul(y_true, oracle.sub(log_true, log_pred))
    summed = ad.sum_(per_entry, axis=per_entry.ndim - 1)
    return oracle.mean(summed) if summed.ndim > 0 else summed


def softmax_pool(vertex_features, starts) -> list[Tensor]:
    """Per part, softmax over that part's vertex scores (feature row L2 norms).

    ``vertex_features`` is (S, n, F); the parts are the vertex segments that
    begin at ``starts``. Returns one (S, k_p) probability tensor per part.
    """
    feats = ad.as_tensor(vertex_features)
    sq = ad.sum_(ad.mul(feats, feats), axis=2)
    scores = oracle.sqrt(oracle.add(sq, 1e-12))  # (S, n)
    ends = [*starts[1:], feats.shape[1]]
    return [ad.softmax(oracle.take_slice(scores, 1, s, e)) for s, e in zip(starts, ends)]


def hh_loss_loop(pred_features, true_features, starts, weights) -> Tensor:
    pred = softmax_pool(pred_features, starts)
    true = softmax_pool(Tensor(ad.as_tensor(true_features).data), starts)
    total = None
    for p in range(len(starts)):
        term = ad.mul(part_kl(pred[p], true[p]), float(weights[p]))
        total = term if total is None else oracle.add(total, term)
    return total


def default_level():
    """The default body's part starts and vertex count."""
    graph = generate_toy_body()
    return graph.part_starts, graph.n_vertices


def test_part_kl_identity_is_zero():
    p = np.array([0.2, 0.3, 0.5])
    assert abs(part_kl(p, p).item()) < 1e-15


def test_part_kl_point_mass_vs_uniform():
    got = part_kl(np.array([0.5, 0.5]), np.array([1.0, 0.0])).item()
    assert abs(got - math.log(2)) < 1e-12


def test_part_kl_direct_evaluation():
    # oracle: 0.5*ln 2 + 0.5*ln(2/3)
    got = part_kl(np.array([0.25, 0.75]), np.array([0.5, 0.5])).item()
    want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(got - want) < 1e-12
    assert abs(want - 0.1438) < 1e-4


def test_part_kl_nonnegative_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(10_000):
        k = int(rng.integers(2, 6))
        a = rng.random(k) + 1e-3
        b = rng.random(k) + 1e-3
        a, b = a / a.sum(), b / b.sum()
        val = part_kl(a, b).item()
        assert val >= -1e-12
        if np.max(np.abs(a - b)) > 1e-9:
            assert val > 0.0
    same = rng.random(5) + 1e-3
    same = same / same.sum()
    assert abs(part_kl(same, same).item()) < 1e-9


def test_part_kl_support_mismatch():
    with pytest.raises(ShapeError):
        part_kl(np.ones(3) / 3, np.ones(4) / 4)


def test_part_kl_gradient():
    rng = np.random.default_rng(3)
    pred = rng.random(5) + 0.1
    pred = pred / pred.sum()
    true = rng.random(5) + 0.1
    true = true / true.sum()
    assert gradcheck(lambda p: part_kl(p, true), [pred]) < 1e-4


def _assert_probability_rows(dist):
    for p in dist:
        assert np.all(p.data >= 0)
        np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, rtol=0, atol=1e-9)


def test_softmax_pool_constant_features_uniform():
    feats = np.ones((1, 10, 2)) * 3.0
    dist = softmax_pool(feats, [0, 4])
    _assert_probability_rows(dist)
    np.testing.assert_allclose(dist[0].data, np.full((1, 4), 0.25), atol=1e-12)
    np.testing.assert_allclose(dist[1].data, np.full((1, 6), 1 / 6), atol=1e-12)


def test_softmax_pool_single_vertex_part():
    dist = softmax_pool(np.random.default_rng(4).standard_normal((1, 3, 2)), [0, 1])
    np.testing.assert_allclose(dist[0].data, [[1.0]], atol=1e-15)


def test_softmax_pool_matches_loop_oracle():
    rng = np.random.default_rng(5)
    feats = rng.standard_normal((2, 8, 3))
    dist = softmax_pool(feats, [0, 3, 7])
    _assert_probability_rows(dist)
    for pi, (s, e) in enumerate([(0, 2), (3, 6), (7, 7)]):
        for b in range(2):
            scores = np.sqrt((feats[b, s:e + 1] ** 2).sum(axis=1) + 1e-12)
            ex = np.exp(scores - scores.max())
            np.testing.assert_allclose(dist[pi].data[b], ex / ex.sum(), atol=1e-12)


def test_softmax_pool_uncovered_vertex_errors():
    # a part that starts past the features' last vertex
    with pytest.raises(ShapeError):
        softmax_pool(np.zeros((1, 4, 2)), [0, 6])


def test_part_weights_zero_variance_fallback():
    lam = part_weights_from_variance(np.ones((1, 4, 3)), [0, 2])
    np.testing.assert_allclose(lam, [1.0, 1.0], atol=1e-15)


def test_part_weights_normalization_arithmetic():
    # one part with variance 3v, three parts with v -> [2, 2/3, 2/3, 2/3]
    feats = np.zeros((1, 8, 1))
    feats[0, 0:2, 0] = [-math.sqrt(3), math.sqrt(3)]  # variance 3
    feats[0, 2:4, 0] = [-1, 1]                        # variance 1
    feats[0, 4:6, 0] = [-1, 1]
    feats[0, 6:8, 0] = [-1, 1]
    lam = part_weights_from_variance(feats, [0, 2, 4, 6])
    np.testing.assert_allclose(lam, [2.0, 2 / 3, 2 / 3, 2 / 3], atol=1e-12)


def test_part_weights_sum_to_m():
    rng = np.random.default_rng(6)
    starts, n = default_level()
    for _ in range(10):
        feats = rng.standard_normal((3, n, 4))
        lam = part_weights_from_variance(feats, starts)
        assert np.all(lam >= 0)
        assert abs(lam.sum() - len(starts)) < 1e-9


def _part_weights_reference(feats, starts):
    # the numpy reductions part_weights_from_variance replaced: per-vertex
    # sums over rows and channels as one reduction over axes (0, 2)
    sizes = np.diff(starts, append=feats.shape[1])
    seg = np.repeat(np.arange(sizes.size), sizes)
    counts = sizes * (feats.shape[0] * feats.shape[2])
    means = np.add.reduceat(feats.sum(axis=(0, 2)), starts) / counts
    centred = feats - means[seg][:, None]
    variances = np.add.reduceat((centred * centred).sum(axis=(0, 2)), starts) / counts
    return variances * (sizes.size / variances.sum())


@pytest.mark.parametrize("level", ["coarse", "fine"])
def test_part_weights_match_numpy_sums_at_the_model_shapes(level):
    # the default model's levels: (64, 24, 8) coarse and (64, 96, 8) fine features
    graph = generate_toy_body()
    starts = graph.coarse_of[graph.part_starts] if level == "coarse" else graph.part_starts
    n = graph.n_coarse if level == "coarse" else graph.n_vertices
    feats = np.random.default_rng(15).standard_normal((64, n, 8)) * 2.0 + 1.0
    np.testing.assert_allclose(part_weights_from_variance(feats, starts),
                               _part_weights_reference(feats, starts), rtol=1e-12)


def test_part_weights_need_rows_by_vertices_by_channels():
    with pytest.raises(ShapeError, match=r"\(S, n, F\) features, got \(96, 3\)"):
        part_weights_from_variance(np.ones((96, 3)), [0, 48])


@pytest.mark.parametrize("starts", [[5, 50], [0, 50, 40], [0, 96]],
                         ids=["first-not-0", "decreasing", "past-the-end"])
def test_malformed_part_starts_raise_one_shape_error(starts):
    # part weights and the segmented KL share one starts check and message
    feats = np.ones((2, 96, 3))
    with pytest.raises(ShapeError) as weights_error:
        part_weights_from_variance(feats, starts)
    with pytest.raises(ShapeError) as kl_error:
        ad.segment_softmax_kl(feats, feats, starts, np.ones(len(starts)))
    assert str(weights_error.value) == str(kl_error.value)
    assert "do not split 96 vertices" in str(weights_error.value)


def test_segment_tables_build_once_per_starts_and_cache_no_failure():
    # part weights and the segmented KL share the tables of one (starts, n)
    starts, n = default_level()
    tables = ad._checked_segments
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((2, n, 3))
    before = tables.cache_info()
    for _ in range(3):
        hh_loss(feats, feats[::-1], starts, part_weights_from_variance(feats, starts))
    after = tables.cache_info()
    assert after.hits - before.hits >= 5
    assert after.misses - before.misses <= 1
    checked, sizes, seg = ad._segment_tables(list(starts), n)
    np.testing.assert_array_equal(checked, starts)
    np.testing.assert_array_equal(sizes, np.diff(starts, append=n))
    np.testing.assert_array_equal(seg, np.repeat(np.arange(len(starts)), sizes))
    assert not any(t.flags.writeable for t in (checked, sizes, seg))
    size, messages = tables.cache_info().currsize, []
    for _ in range(2):
        with pytest.raises(ShapeError) as exc:
            hh_loss(feats, feats, [0, 50, 40], np.ones(3))
        messages.append(str(exc.value))
    assert messages == ["segment starts [0, 50, 40] do not split 96 vertices"] * 2
    assert tables.cache_info().currsize == size


def test_hh_loss_zero_at_identity():
    # the target's scores run the prediction's kernels, so identical features
    # give identical distributions and a loss of exactly 0
    rng = np.random.default_rng(7)
    starts, n = default_level()
    for rows, channels in ((2, 3), (64, 3), (64, 8)):
        feats = rng.standard_normal((rows, n, channels))
        lam = part_weights_from_variance(feats, starts)
        assert hh_loss(feats, feats, starts, lam).item() == 0.0


def test_hh_loss_single_part_equals_part_kl():
    rng = np.random.default_rng(8)
    pred = rng.standard_normal((1, 6, 2))
    true = rng.standard_normal((1, 6, 2))
    got = hh_loss(pred, true, [0], np.ones(1)).item()
    want = part_kl(softmax_pool(pred, [0])[0],
                   softmax_pool(true, [0])[0]).item()
    assert abs(got - want) < 1e-12


def test_hh_loss_two_part_weighted_oracle():
    rng = np.random.default_rng(9)
    pred = rng.standard_normal((1, 6, 2))
    true = rng.standard_normal((1, 6, 2))
    got = hh_loss(pred, true, [0, 3], np.array([2.0, 0.5])).item()
    pd, td = softmax_pool(pred, [0, 3]), softmax_pool(true, [0, 3])
    want = 2.0 * part_kl(pd[0], td[0]).item() \
        + 0.5 * part_kl(pd[1], td[1]).item()
    assert abs(got - want) < 1e-12


def test_hh_loss_gradient():
    rng = np.random.default_rng(10)
    pred = rng.standard_normal((1, 6, 3))
    true = rng.standard_normal((1, 6, 3))
    lam = part_weights_from_variance(rng.standard_normal((1, 6, 3)), [0, 3])
    err = gradcheck(lambda p: hh_loss(p, true, [0, 3], lam), [pred])
    assert err < 1e-4


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("weighting", ["variance", "fixed"])
def test_hh_loss_matches_loop_oracle(rows, weighting):
    rng = np.random.default_rng(12)
    starts, n = default_level()
    pred, true, gtm = (rng.standard_normal((rows, n, 4)) for _ in range(3))
    if weighting == "fixed":
        lam = rng.random(len(starts)) * 2.0
    else:
        lam = part_weights_from_variance(gtm, starts)
    got = hh_loss(pred, true, starts, lam).item()
    want = hh_loss_loop(pred, true, starts, lam).item()
    assert want > 0.0
    assert abs(got - want) < 1e-12


def test_hh_loss_gradient_matches_loop_oracle():
    rng = np.random.default_rng(13)
    starts, n = default_level()
    pred, true, gtm = (rng.standard_normal((2, n, 3)) for _ in range(3))
    lam = part_weights_from_variance(gtm, starts)
    grads = []
    for fn in (hh_loss, hh_loss_loop):
        x = Tensor(pred, requires_grad=True)
        with ad.Tape() as tape:
            loss = fn(x, true, starts, lam)
        tape.backward(loss)
        grads.append(x.grad)
    np.testing.assert_allclose(grads[0], grads[1], rtol=0, atol=1e-12)


def scores_kl(scores, target_scores, starts, weights) -> Tensor:
    """The segmented KL on (S, n) vertex scores, one record with the op's own
    numpy expressions."""
    x, q_scores = scores, target_scores.data
    n, rows = x.shape[1], x.shape[0]
    seg = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
    p = ad._segment_softmax(x.data, starts, seg)
    q = ad._segment_softmax(q_scores, starts, seg)
    per_entry = q * (np.log(np.maximum(q, PROB_FLOOR)) - np.log(np.maximum(p, PROB_FLOOR)))
    out = np.add.reduceat(per_entry, starts, axis=1).mean(axis=0) @ weights

    def backward(g):
        qk = q * (p > PROB_FLOOR) * (weights / rows)[seg]
        return g * (p * np.add.reduceat(qk, starts, axis=1)[:, seg] - qk), None

    return ad._result("scores_kl", (x, target_scores), out, backward)


def hh_loss_composite(pred_features, true_features, starts, weights) -> Tensor:
    """hh_loss as five records: each side's scores from mul, sum_, add and
    sqrt (the target's record nothing), then the KL on the scores."""
    def scores(f):
        return oracle.sqrt(oracle.add(ad.sum_(ad.mul(f, f), axis=2), 1e-12))

    return scores_kl(scores(pred_features), scores(true_features),
                     starts, weights)


@pytest.mark.parametrize("level", ["coarse", "fine"])
def test_hh_loss_is_bit_identical_to_the_five_record_composite(level):
    # the default model's levels: (64, 24, 8) latents against (64, 24, 3)
    # positions, and (64, 96, 3) positions against positions
    graph = generate_toy_body()
    rng = np.random.default_rng(16)
    if level == "coarse":
        starts, n, channels = graph.coarse_of[graph.part_starts], graph.n_coarse, 8
    else:
        starts, n, channels = graph.part_starts, graph.n_vertices, 3
    pred = rng.standard_normal((64, n, channels))
    true = rng.standard_normal((64, n, 3)) * 0.5
    lam = part_weights_from_variance(rng.standard_normal((64, n, 8)), starts)
    values, grads, counts = [], [], []
    for fn in (hh_loss, hh_loss_composite):
        x = Tensor(pred, requires_grad=True)
        with ad.Tape() as tape:
            loss = fn(x, true, starts, lam)
        counts.append(len(tape.records))
        tape.backward(loss)
        values.append(loss.item())
        grads.append(x.grad)
    assert counts == [1, 5]
    assert values[0] == values[1] and values[0] > 0.0
    np.testing.assert_array_equal(grads[0], grads[1])


def test_hh_loss_records_do_not_grow_with_parts():
    # one segmented record per level: a per-part loop would add records per part
    rng = np.random.default_rng(14)
    feats = rng.standard_normal((2, 16, 3))
    counts = []
    for starts in (np.array([0, 8]), np.arange(0, 16, 2)):
        lam = part_weights_from_variance(feats, starts)
        with ad.Tape() as tape:
            hh_loss(Tensor(feats, requires_grad=True), feats[::-1], starts, lam)
        counts.append(len(tape.records))
    assert counts[0] >= 1
    assert counts[0] == counts[1]


def test_hh_loss_uncovered_vertex_errors():
    # prediction and target must cover the same vertices
    with pytest.raises(ShapeError):
        hh_loss(np.ones((1, 6, 2)), np.ones((1, 4, 2)), [0], np.ones(1))
    with pytest.raises(ShapeError):
        hh_loss(np.ones((1, 4, 2)), np.ones((1, 6, 2)), [0], np.ones(1))


@pytest.mark.parametrize("depth", [1, 2])
def test_hierarchical_loss_sums_levels(depth):
    # Model.loss with only the part term switched on: one hh_loss per level,
    # coarse then fine, each weighted by its own feature variance (two coarse
    # vertices per part, so the coarse term is not trivially zero); depth 1
    # keeps the fine level only
    model = build_model(ModelConfig(vertices_per_part=4, coarse_per_part=2, height=4,
                                    width=4, channels=4, diffusion_on=False,
                                    hierarchy_depth=depth,
                                    part_loss_weight=1.0))
    graph = model.graph
    rng = np.random.default_rng(11)
    out = {
        "batch": (1, 2),
        "pred_scaled": Tensor(rng.standard_normal((2, graph.n_vertices, 3))),
        "coarse_feats": Tensor(rng.standard_normal((2, graph.n_coarse, 4))),
        "fine_feats": Tensor(rng.standard_normal((2, graph.n_vertices, 4))),
        "eps_loss": None,
    }
    gt = rng.standard_normal((1, 2, graph.n_vertices, 3)) * 100.0
    total = model.loss(out, gt).item()
    pinned = model.loss(out, gt, part_weights=model.part_weight_levels(out)).item()
    assert pinned == total

    fine_starts = graph.part_starts
    coarse_starts = np.arange(0, graph.n_coarse, 2)
    gt_fine = gt.reshape(2, graph.n_vertices, 3) * MM_SCALE
    pf, ff = out["pred_scaled"], out["fine_feats"].data
    want = hh_loss(pf, gt_fine, fine_starts, part_weights_from_variance(ff, fine_starts)).item()
    if depth == 2:
        gt_coarse = graph.down_matrix.data @ gt_fine
        pc = out["coarse_feats"]
        want = (hh_loss(pc, gt_coarse, coarse_starts,
                        part_weights_from_variance(pc.data, coarse_starts)).item() + want)
    want += ad.mse(pf, gt_fine).item()  # the vertex term, the loss's unit
    assert abs(total - want) < 1e-12
