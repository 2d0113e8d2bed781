import contextlib
import math
import tracemalloc

import numpy as np
import pytest

import oracle_ops as oracle
from oracle_ops import GradcheckError, gradcheck
from meshmotion import autodiff as ad
from meshmotion.autodiff import (
    NumericsError,
    ShapeError,
    Tape,
    Tensor,
    attention,
    conv3d,
    layer_norm,
    segment_softmax_kl,
    softmax,
)
from meshmotion.model import ModelConfig, build_model
from meshmotion.synth import MotionConfig, generate_sequence


def test_every_all_entry_resolves():
    # perfbench's tracer wraps every name in __all__ by getattr, so a stale
    # entry would break each traced run while the rest of this suite passes
    assert [name for name in ad.__all__ if not hasattr(ad, name)] == []


def test_matmul_identity():
    m = np.arange(9, dtype=float).reshape(3, 3) + 1.0
    out = ad.matmul(np.eye(3), m)
    np.testing.assert_array_equal(out.data, m)


def test_matmul_small_case():
    # dense arithmetic oracle: [[1,2],[3,4]] @ [[0],[1]]
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0], [1.0]])
    expected = a @ b
    out = ad.matmul(a, b)
    np.testing.assert_array_equal(out.data, expected)
    np.testing.assert_array_equal(expected, [[2.0], [4.0]])


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    err = gradcheck(ad.matmul, [a, b])
    assert err < 1e-6


@pytest.mark.parametrize("needs", [(True, False), (False, True), (True, True)],
                         ids=["a", "b", "both"])
def test_matmul_gradients_with_a_shared_matrix(needs):
    # a (2, 3, 4, 5) batch times one (5, 6) matrix: the matrix's gradient sums
    # over all 24 rows of the batch
    rng = np.random.default_rng(8)
    a_t, b_t = (Tensor(rng.standard_normal(s), requires_grad=r)
                for s, r in zip(((2, 3, 4, 5), (5, 6)), needs))
    g = rng.standard_normal((2, 3, 4, 6))
    with Tape() as tape:
        ad.matmul(a_t, b_t)
    ga, gb = tape.records[0].backward(g)
    for got, needed, ref in ((ga, needs[0], np.einsum("ijmn,kn->ijmk", g, b_t.data)),
                             (gb, needs[1], np.einsum("ijmk,ijmn->kn", a_t.data, g))):
        if needed:
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        else:
            assert got is None


def test_matmul_with_a_shared_matrix_gradcheck():
    rng = np.random.default_rng(9)
    assert gradcheck(ad.matmul, [rng.standard_normal((2, 3, 4, 5)),
                                 rng.standard_normal((5, 6))]) < 1e-6


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_softmax_constant_row():
    out = softmax([5.0, 5.0, 5.0])
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_large_values_no_overflow():
    out = softmax([1000.0, 1000.0])
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    # closed-form oracle: softmax([0, ln 3]) = [1/(1+3), 3/(1+3)]
    out = softmax([0.0, math.log(3.0)])
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ndim = rng.integers(1, 4)
        shape = tuple(rng.integers(1, 6, size=ndim))
        x = rng.standard_normal(shape) * 10
        sums = softmax(x).data.sum(axis=-1)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


def test_softmax_rejects_an_empty_axis():
    for shape in [(3, 2, 0), ()]:
        with pytest.raises(ShapeError, match="non-empty last axis"):
            softmax(np.zeros(shape))


# a sum takes one axis or None: a tuple, such as one that repeats an axis,
# is rejected
@pytest.mark.parametrize("op", [ad.sum_])
@pytest.mark.parametrize("axis", [(0, 0), (1, 2, 1)])
def test_reductions_reject_a_repeated_axis(op, axis):
    with pytest.raises(ShapeError, match=r"axis \(%s\) is not an int" % ", ".join(map(str, axis))):
        op(np.ones((2, 3, 4)), axis=axis)


def _unbroadcast_reference(g, shape):
    # the numpy reductions _unbroadcast replaced: sum the added leading axes,
    # then every length-1 axis of the target that g does not share
    g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def _random(shape):
    return np.random.default_rng(30).standard_normal(shape)


def _transposed(shape):
    # a non-contiguous g of the given shape
    return _random(shape[::-1]).T


@pytest.mark.parametrize("g,shape", [
    (_random((4, 16, 24, 8)), (8,)),     # layer_norm gamma/beta of the diffusion block
    (_random((64, 96, 3)), (3,)),        # the head's bias
    (np.arange(12.0).reshape(3, 4), ()),
    (np.ones((0, 4, 3)), (4, 3)),
    (np.ones((0, 4, 3)), (3,)),
    (np.ones((2, 0, 3)), (1, 3)),
    (np.arange(120.0).reshape(2, 3, 4, 5), (1, 4, 1)),
    (np.arange(120.0).reshape(2, 3, 4, 5), (3, 1, 5)),
    (np.arange(24.0).reshape(2, 3, 4), (1, 1, 4)),
    (_transposed((6, 8, 5)), (5,)),
    (_transposed((6, 8, 5)), (1, 8, 1)),
    (np.arange(6.0).reshape(2, 3), (2, 3)),
], ids=["layer-norm", "head-bias", "scalar", "zero-lead", "zero-lead-extra", "zero-middle",
        "ones-after-lead", "one-inside", "ones-lead", "non-contiguous", "non-contiguous-ones",
        "same"])
def test_unbroadcast_matches_numpy_sums(g, shape):
    got = ad._unbroadcast(g, shape)
    assert got.shape == shape
    np.testing.assert_allclose(got, _unbroadcast_reference(g, shape), rtol=1e-12)


def test_sum_over_the_last_axis_matches_numpy_at_the_head_shape():
    x = np.random.default_rng(32).standard_normal((64, 96, 3))
    np.testing.assert_allclose(ad.sum_(x, axis=2).data, x.sum(axis=2), rtol=1e-12)


def test_attention_single_key_returns_value_row():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((4, 5))
    k = rng.standard_normal((1, 5))
    v = rng.standard_normal((1, 3))
    out = attention(q, k, v)
    np.testing.assert_allclose(out.data, np.repeat(v, 4, axis=0), atol=1e-12)


def test_attention_identical_keys_average_values():
    rng = np.random.default_rng(4)
    q = rng.standard_normal((2, 4))
    k = np.tile(rng.standard_normal((1, 4)), (5, 1))
    v = rng.standard_normal((5, 3))
    out = attention(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.mean(axis=0), (2, 1)), atol=1e-12)


def _attention_oracle(q, k, v):
    # brute-force transcription of softmax(QK^T/sqrt(d))V
    d = q.shape[-1]
    scores = q @ k.T / math.sqrt(d)
    scores = scores - scores.max(axis=-1, keepdims=True)
    w = np.exp(scores)
    w = w / w.sum(axis=-1, keepdims=True)
    return w @ v


def test_attention_matches_formula_oracle():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((2, 4))
    k = rng.standard_normal((2, 4))
    v = rng.standard_normal((2, 3))
    out = attention(q, k, v)
    np.testing.assert_allclose(out.data, _attention_oracle(q, k, v), atol=1e-12)


def test_attention_output_in_value_hull():
    rng = np.random.default_rng(6)
    for _ in range(25):
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 1))
        out = attention(q, k, v).data
        assert out.min() >= v.min() - 1e-12
        assert out.max() <= v.max() + 1e-12


def test_attention_width_mismatch():
    with pytest.raises(ShapeError):
        attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))


@pytest.mark.parametrize("q_shape,k_shape,v_shape", [
    ((2, 4), (0, 4), (0, 3)),   # no keys
    ((2, 0), (3, 0), (3, 3)),   # no features: the 1/sqrt(d) scale is undefined
])
def test_attention_rejects_zero_keys_or_features(q_shape, k_shape, v_shape):
    with pytest.raises(ShapeError, match="at least one key and one feature"):
        attention(np.zeros(q_shape), np.zeros(k_shape), np.zeros(v_shape))


def test_gradcheck_flags_sign_flipped_backward():
    def bad_scale(x):
        # deliberately wrong backward: sign-flipped gradient
        return ad._result("bad_scale", (x,), 2.0 * x.data, lambda g: (-2.0 * g,))

    x = np.array([1.0, -2.0, 3.0])
    assert abs(gradcheck(bad_scale, [x]) - 2.0) < 1e-6
    assert abs(gradcheck(bad_scale, [x], max_coords=1) - 2.0) < 1e-6
    # a subset of no coordinates would verify nothing and read 0
    for max_coords in (0, -1):
        with pytest.raises(ValueError, match="checks no coordinate"):
            gradcheck(bad_scale, [x], max_coords=max_coords)


def test_gradcheck_reports_nonfinite():
    def exploding(x):
        return ad._result("exploding", (x,), x.data.copy(), lambda g: (g * np.inf,))

    with pytest.raises((GradcheckError, NumericsError)):
        gradcheck(exploding, [np.ones(2)])


# public autodiff names that are not differentiable ops
NOT_OPS = {"as_tensor"}


def self_attention_layer(x, wq, wk, wv, wo):
    # the attention layer with x as its own context: the temporal attention
    return ad.attention_layer(x, x, wq, wk, wv, wo)


def _gradcheck_table(rng):
    """Gradcheck cases (op, inputs) keyed by the differentiable op, of ``ad.__all__``
    or ``oracle_ops``, they check; a second case of an op is keyed ``name[case]``."""
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    x = rng.standard_normal((n, m))
    y = rng.standard_normal((n, m))
    pos = np.abs(x) + 0.5
    away_from_zero = x + 0.1 * np.sign(x)
    w, bias = rng.standard_normal((m, 3)), rng.standard_normal(3)
    wide, ln_weight = rng.standard_normal((n, 5)) * 2 + 1, rng.standard_normal((n, 5))
    value = rng.standard_normal((n + 1, 3))
    conv_x, conv_k = rng.standard_normal((1, 2, 3, 2, 2)), rng.standard_normal((2, 2, 3, 1, 1))
    feats, target_feats = rng.standard_normal((n, m, 2)), rng.standard_normal((n, m, 3))
    return {
        "add": (oracle.add, [x, y]),
        "mul": (ad.mul, [x, y]),
        "sub": (oracle.sub, [x, y]),
        "div": (oracle.div, [x, pos]),
        "lincomb": (lambda a, b: ad.lincomb(a, 0.7, b, -1.3), [x, y]),
        "mse": (lambda a: ad.mse(a, y), [x]),
        "matmul": (lambda a, b: ad.matmul(a, ad.transpose(b, (1, 0))), [x, y]),
        "affine": (ad.affine, [x, w, bias]),
        "relu": (ad.relu, [away_from_zero]),
        "exp": (oracle.exp, [x]),
        "log": (oracle.log, [pos]),
        "sqrt": (oracle.sqrt, [pos]),
        "clip_min": (lambda a: oracle.clip_min(a, 0.0), [away_from_zero]),
        "reshape": (lambda a: ad.reshape(a, (m, n)), [x]),
        "transpose": (lambda a: ad.transpose(a, (1, 0)), [x]),
        "sum_": (lambda a: ad.sum_(a, axis=0), [x]),
        "sum_[last axis]": (lambda a: ad.mul(ad.sum_(a, axis=1), y[:, 0]), [x]),
        "mean": (lambda a: oracle.mean(a, axis=1), [x]),
        "softmax": (lambda a: ad.mul(softmax(a), y), [x]),
        "take_slice": (lambda a: oracle.take_slice(a, 1, 0, max(1, m - 1)), [x]),
        "layer_norm": (lambda a, g, b: ad.mul(layer_norm(a, g, b), ln_weight),
                       [wide, rng.standard_normal(5), rng.standard_normal(5)]),
        "segment_softmax_kl": (lambda a: segment_softmax_kl(a, target_feats, [0, 1],
                                                            [0.7, 1.3]),
                               [feats]),
        "conv3d": (conv3d, [conv_x, conv_k]),
        "attention": (attention, [x, rng.standard_normal((n + 1, m)), value]),
        "attention_layer": (ad.attention_layer,
                            [x, value, w, rng.standard_normal((3, 3)),
                             rng.standard_normal((3, 2)), rng.standard_normal((2, m))]),
        "attention_layer[self]": (self_attention_layer,
                                  [x, w, rng.standard_normal((m, 3)),
                                   rng.standard_normal((m, 2)), rng.standard_normal((2, m))]),
    }


def test_every_differentiable_op_has_a_gradcheck_entry():
    ops = {name for name in ad.__all__ if not isinstance(getattr(ad, name), type)} - NOT_OPS
    ops |= set(oracle.__all__)
    named = {key.split("[")[0] for key in _gradcheck_table(np.random.default_rng(0))}
    assert sorted(ops - named) == []
    assert sorted(named - ops) == []


@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_random_shapes(seed):
    for name, (op, args) in _gradcheck_table(np.random.default_rng(seed)).items():
        assert gradcheck(op, args) < 1e-4, name


def test_softmax_sum_composition_gradient():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 5))
    # weighted sum keeps the gradient nonzero (a plain sum of softmax rows is
    # constant, so its relative error only measures finite-difference noise)
    err = gradcheck(lambda a: ad.mul(softmax(a), w), [x])
    assert err < 1e-5
    # degenerate constant composition stays at the noise floor
    assert gradcheck(lambda a: ad.sum_(softmax(a)), [x]) < 1e-2


def test_layer_norm_gradient_and_normalization():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 6)) * 3 + 2
    gamma = rng.standard_normal(6)
    beta = rng.standard_normal(6)
    out = layer_norm(x, np.ones(6), np.zeros(6))
    np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-4)
    assert gradcheck(layer_norm, [x, gamma, beta]) < 1e-4


def test_conv3d_matches_loop_oracle():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 4, 3, 3))
    k = rng.standard_normal((2, 3, 3, 1, 3))
    out = _channels_first(conv3d(_channels_last(x), k).data)

    # direct loop transcription of same-padded correlation
    B, Ci, T, H, W = x.shape
    Co = k.shape[0]
    kt, kh, kw = k.shape[2:]
    pt, ph, pw = kt // 2, kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    expected = np.zeros((B, Co, T, H, W))
    for b in range(B):
        for o in range(Co):
            for t in range(T):
                for hh in range(H):
                    for ww in range(W):
                        patch = xp[b, :, t:t + kt, hh:hh + kh, ww:ww + kw]
                        expected[b, o, t, hh, ww] = (patch * k[o]).sum()
    np.testing.assert_allclose(out, expected, atol=1e-12)


def _channels_last(x):
    # (B, C, T, H, W), the layout of the loop and shift-matrix oracles, to the
    # (B, T, H, W, C) grid conv3d takes
    return np.transpose(x, (0, 2, 3, 4, 1))


def _channels_first(x):
    return np.transpose(x, (0, 4, 1, 2, 3))


def test_conv3d_gradients():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 2, 3, 2, 2))
    k = rng.standard_normal((2, 2, 3, 1, 1))
    assert gradcheck(conv3d, [x, k]) < 1e-4


def test_conv3d_rejects_even_kernel():
    with pytest.raises(ShapeError):
        conv3d(np.zeros((1, 1, 4, 4, 4)), np.zeros((1, 1, 2, 3, 3)))


def test_conv3d_reads_input_channels_on_the_last_axis():
    # a (B, C, T, H, W) input whose axis 1 matches C_in is rejected
    with pytest.raises(ShapeError, match="channel mismatch"):
        conv3d(np.zeros((1, 2, 3, 3, 4)), np.zeros((1, 2, 3, 3, 3)))


# ---------------------------------------------------------------------------
# fused kernels: gradchecks, and value/gradient agreement with the same
# functions composed from primitive ops


def _softmax_composite(a):
    # over the last axis
    e = oracle.exp(oracle.sub(a, Tensor(a.data.max(axis=-1, keepdims=True))))
    return oracle.div(e, ad.reshape(ad.sum_(e, axis=a.ndim - 1), a.shape[:-1] + (1,)))


def _layer_norm_composite(a, gamma, beta, eps=1e-5):
    ax = a.ndim - 1
    d = oracle.sub(a, oracle.mean(a, axis=ax, keepdims=True))
    v = oracle.mean(ad.mul(d, d), axis=ax, keepdims=True)
    return oracle.add(ad.mul(oracle.div(d, oracle.sqrt(oracle.add(v, eps))), gamma), beta)


def _conv3d_composite(x, kernel):
    # one constant 0/1 shift matrix per kernel tap moves every input cell to
    # the output cell it feeds (zero padding = no entry), then the tap's
    # (C_out, C_in) slice mixes channels
    b, c, t, h, w = x.shape
    o, _, kt, kh, kw = kernel.shape
    n = t * h * w
    flat = ad.reshape(x, (b, c, n))
    taps = ad.reshape(kernel, (o, c, kt * kh * kw))
    cells = list(np.ndindex(t, h, w))
    out = None
    for tap, (i, j, l) in enumerate(np.ndindex(kt, kh, kw)):
        shift = np.zeros((n, n))
        for dst, (tt, hh, ww) in enumerate(cells):
            src = (tt + i - kt // 2, hh + j - kh // 2, ww + l - kw // 2)
            if 0 <= src[0] < t and 0 <= src[1] < h and 0 <= src[2] < w:
                shift[np.ravel_multi_index(src, (t, h, w)), dst] = 1.0
        k_tap = ad.reshape(oracle.take_slice(taps, 2, tap, tap + 1), (o, c))
        term = ad.matmul(k_tap, ad.matmul(flat, shift))
        out = term if out is None else oracle.add(out, term)
    return ad.reshape(out, (b, o, t, h, w))


def _value_and_grads(op, arrays, upstream):
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = op(*tensors)
    tape.backward(out, seed=upstream)
    return out.data, [t.grad for t in tensors]


def _assert_matches_composite(fused, composite, arrays, seed):
    # rtol 1e-12, with an absolute floor of 1e-12 of each array's largest
    # entry for elements that cancel to about zero
    upstream = np.random.default_rng(seed).standard_normal(fused(*arrays).shape)
    got = _value_and_grads(fused, arrays, upstream)
    ref = _value_and_grads(composite, arrays, upstream)
    for g, r in zip([got[0], *got[1]], [ref[0], *ref[1]]):
        np.testing.assert_allclose(g, r, rtol=1e-12, atol=1e-12 * np.abs(r).max())


ATTENTION_CASES = [
    # (query, key, value)
    ((2, 3, 4), (2, 5, 4), (2, 5, 6)),
    ((2, 3, 4, 4), (5, 4), (5, 4)),    # one (L, C) table shared by a 4-D query
]
# the case ids are kept from when the cases also ran with two heads
ATTENTION_IDS = ["q_shape0-k_shape0-v_shape0-1", "q_shape2-k_shape2-v_shape2-1"]


@pytest.mark.parametrize("q_shape,k_shape,v_shape", ATTENTION_CASES, ids=ATTENTION_IDS)
def test_attention_gradcheck(q_shape, k_shape, v_shape):
    rng = np.random.default_rng(21)
    args = [rng.standard_normal(s) for s in (q_shape, k_shape, v_shape)]
    assert gradcheck(attention, args) < 1e-5


def test_attention_rejects_leading_axes_that_do_not_broadcast():
    with pytest.raises(ShapeError):
        attention(np.zeros((2, 3, 4)), np.zeros((3, 5, 4)), np.zeros((3, 5, 4)))


# the id is kept from when the softmax axis was a parameter
@pytest.mark.parametrize("fused,composite", [(softmax, _softmax_composite)],
                         ids=["2-softmax-_softmax_composite"])
def test_softmax_matches_composite(fused, composite):
    x = np.random.default_rng(24).standard_normal((3, 4, 5)) * 4
    _assert_matches_composite(fused, composite, [x], 2)


# the default ModelConfig's (B=4) and predict's (B=1) shapes: context
# attention scores (B, T, S, L=4), dependency attention (B, T, S, S=24) and
# temporal attention (B, S, T, T=16); the ids are kept from when the softmax
# axis was a parameter
@pytest.mark.parametrize("shape", [(4, 16, 24, 24), (1, 24, 16, 16), (4, 16, 24, 4)],
                         ids=["shape0-3", "shape1-3", "shape2-3"])
def test_softmax_matches_composite_at_model_shapes(shape):
    x = np.random.default_rng(37).standard_normal(shape) * 4
    _assert_matches_composite(softmax, _softmax_composite, [x], 6)


@pytest.mark.parametrize("batch", [4, 1])
def test_layer_norm_matches_composite_at_model_shapes(batch):
    rng = np.random.default_rng(38)
    args = [rng.standard_normal((batch, 16, 24, 8)) * 3, rng.standard_normal(8),
            rng.standard_normal(8)]
    _assert_matches_composite(layer_norm, _layer_norm_composite, args, 7)


def test_layer_norm_4d_tokens_gradcheck():
    rng = np.random.default_rng(25)
    x = rng.standard_normal((2, 3, 4, 5)) * 2 + 1
    gamma = rng.standard_normal(5)
    beta = rng.standard_normal(5)
    w = rng.standard_normal((2, 3, 4, 5))

    def op(a, g, b):
        return ad.mul(layer_norm(a, g, b), w)

    assert gradcheck(op, [x, gamma, beta]) < 1e-5
    # the gamma/beta gradients in closed form: sum over tokens of w * xhat and w
    xhat = (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    g_t, b_t = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
    with Tape() as tape:
        out = op(x, g_t, b_t)
    tape.backward(out)
    np.testing.assert_allclose(g_t.grad, (w * xhat).sum(axis=(0, 1, 2)), rtol=1e-12)
    np.testing.assert_allclose(b_t.grad, w.sum(axis=(0, 1, 2)), rtol=1e-12)


def test_layer_norm_matches_composite():
    rng = np.random.default_rng(26)
    args = [rng.standard_normal((2, 3, 4, 5)) * 3, rng.standard_normal(5), rng.standard_normal(5)]
    _assert_matches_composite(layer_norm, _layer_norm_composite, args, 3)


def test_layer_norm_rejects_affine_that_grows_the_input():
    with pytest.raises(ShapeError):
        layer_norm(np.zeros((3, 4)), np.ones((2, 3, 4)), np.zeros(4))


def test_layer_norm_rejects_zero_channels():
    with pytest.raises(ShapeError, match="empty channel axis"):
        layer_norm(np.zeros((3, 0)), np.ones(0), np.zeros(0))


CONV_CASE = ((2, 3, 4, 5, 2), (3, 2, 3, 3, 3))   # B=2, grid 3x4x5, C_in=2 -> C_out=3
DEFAULT_CONV_CASE = ((4, 16, 4, 6, 8), (8, 8, 3, 3, 3))   # the default ModelConfig's


def _draw_conv_case(rng, case):
    # the input is drawn in the oracles' (B, C, T, H, W) layout, then moved
    # channels-last
    b, t, h, w, c = case[0]
    x = _channels_last(rng.standard_normal((b, c, t, h, w)))
    return x, rng.standard_normal(case[1])


def _conv3d_composite_last(x, kernel):
    # the shift-matrix oracle with the layout moved at its boundary
    x = ad.transpose(x, (0, 4, 1, 2, 3))
    return ad.transpose(_conv3d_composite(x, kernel), (0, 2, 3, 4, 1))


def test_conv3d_cubic_kernel_gradcheck():
    rng = np.random.default_rng(27)
    x, k = _draw_conv_case(rng, CONV_CASE)
    assert gradcheck(conv3d, [x, k]) < 1e-5


def test_conv3d_matches_composite():
    rng = np.random.default_rng(28)
    x, k = _draw_conv_case(rng, CONV_CASE)
    _assert_matches_composite(conv3d, _conv3d_composite_last, [x, k], 4)


def test_conv3d_matches_composite_at_the_default_model_shape():
    # T = 16 >> kT, so every temporal tap reads its frames at a row offset of
    # many whole frames into the patch matrix
    rng = np.random.default_rng(32)
    x, k = _draw_conv_case(rng, DEFAULT_CONV_CASE)
    _assert_matches_composite(conv3d, _conv3d_composite_last, [x, k], 5)


@pytest.mark.parametrize("x_shape,k_shape", [
    ((2, 3, 3, 5, 2), (2, 2, 1, 3, 5)),
    ((2, 4, 3, 2, 2), (3, 2, 5, 1, 3)),
    ((1, 2, 3, 4, 2), (2, 2, 5, 1, 3)),   # kT = 5 > T = 2: two taps see only padding
])
def test_conv3d_asymmetric_kernel_gradcheck(x_shape, k_shape):
    rng = np.random.default_rng(33)
    x, k = _draw_conv_case(rng, (x_shape, k_shape))
    assert gradcheck(conv3d, [x, k]) < 1e-5


def _conv3d_backward_oracle(x, k, g):
    # per kernel tap (i, j, l): the tap's window of the padded input against
    # g gives the tap's kernel gradient, and g times the tap's (C_out, C_in)
    # slice lands on the same window of the padded input gradient
    kt, kh, kw = k.shape[2:]
    _, t, h, w, _ = x.shape
    xp = np.pad(x, ((0, 0), (kt // 2,) * 2, (kh // 2,) * 2, (kw // 2,) * 2, (0, 0)))
    gxp, gk = np.zeros(xp.shape), np.zeros(k.shape)
    for i, j, l in np.ndindex(kt, kh, kw):
        win = (slice(None), slice(i, i + t), slice(j, j + h), slice(l, l + w))
        gk[:, :, i, j, l] = np.einsum("bthwo,bthwc->oc", g, xp[win])
        gxp[win] += np.einsum("bthwo,oc->bthwc", g, k[:, :, i, j, l])
    return gxp[:, kt // 2:kt // 2 + t, kh // 2:kh // 2 + h, kw // 2:kw // 2 + w], gk


@pytest.mark.parametrize("case", [
    CONV_CASE,
    ((2, 4, 3, 2, 2), (3, 2, 5, 1, 3)),   # kT = 5 > T = 4, a 1x3 spatial kernel
    DEFAULT_CONV_CASE,
], ids=["cubic", "asymmetric", "default"])
def test_conv3d_backward_matches_the_tap_loop_oracle(case):
    rng = np.random.default_rng(36)
    x, k = _draw_conv_case(rng, case)
    g = rng.standard_normal(case[0][:4] + (case[1][0],))
    _, (gx, gk) = _value_and_grads(conv3d, [x, k], g)
    for got, want in zip((gx, gk), _conv3d_backward_oracle(x, k, g)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("grads", ["both", "input", "kernel"])
def test_conv3d_backward_builds_one_patch_matrix(monkeypatch, grads):
    # the forward builds x's patch matrix; the backward builds g's alone and
    # reads both gradients off it
    shapes = []
    patches = ad._spatial_patches

    def counted(a, *extents):
        shapes.append(a.shape)
        return patches(a, *extents)

    monkeypatch.setattr(ad, "_spatial_patches", counted)
    x, k = _draw_conv_case(np.random.default_rng(37), CONV_CASE)
    x = Tensor(x, requires_grad=grads != "kernel")
    k = Tensor(k, requires_grad=grads != "input")
    with Tape() as tape:
        out = conv3d(x, k)
    tape.backward(out)
    assert shapes == [x.shape, out.shape]
    assert (x.grad is not None, k.grad is not None) == (grads != "kernel", grads != "input")


@pytest.mark.parametrize("kernel", [(1, 1, 1), (3, 3, 3), (1, 3, 5), (5, 1, 3)],
                         ids=lambda k: "x".join(map(str, k)))
@pytest.mark.parametrize("grid", [(1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 3, 5), (1, 2, 4, 2),
                                  (2, 3, 2, 3)], ids=lambda g: "x".join(map(str, g)))
@pytest.mark.parametrize("channels", [1, 3])
def test_spatial_patches_equal_the_sliding_window_oracle(grid, kernel, channels):
    # B=1 with T of 1 and 2, a 1x1 grid and H != W, and one B=2 grid
    x = np.random.default_rng(38).standard_normal(grid + (channels,))
    got = ad._spatial_patches(x, *kernel)
    want = oracle.spatial_patches(x, *kernel)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_spatial_patch_windows_are_cached_once_per_key_and_read_only():
    ad._window_cells.cache_clear()
    rng = np.random.default_rng(39)
    # other batch, frame and channel counts and temporal extents share the
    # (H, W, kH, kW) key
    for shape, kernel in [((1, 2, 3, 4, 2), (3, 3, 5)), ((2, 5, 3, 4, 1), (1, 3, 5))]:
        ad._spatial_patches(rng.standard_normal(shape), *kernel)
    info = ad._window_cells.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    cells = ad._window_cells(3, 4, 3, 5)
    assert cells.shape == (3 * 4 * 3 * 5,) and not cells.flags.writeable
    with pytest.raises(ValueError):
        cells[0] = 0


def test_conv3d_holds_no_patch_matrix_on_the_tape():
    # after a taped call only the output (and the record) stays allocated:
    # the backward builds its own patch matrix instead of keeping one
    rng = np.random.default_rng(34)
    x, k = (Tensor(a, requires_grad=True) for a in _draw_conv_case(rng, DEFAULT_CONV_CASE))
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = conv3d(x, k)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape.records) == 1
    assert held <= 1.1 * out.data.nbytes


@pytest.mark.parametrize("op,shapes,held_outputs", [
    (softmax, ((4, 16, 24, 24),), 1.0),
    # the output, plus the (B, T, S, 1) standard deviations that the
    # backward reads
    (layer_norm, ((4, 16, 24, 8), (8,), (8,)), 1.125),
], ids=["softmax", "layer_norm"])
def test_kernel_holds_no_scratch_array_on_the_tape(op, shapes, held_outputs):
    # softmax works on a transposed scratch copy of its input; after the
    # call only what the backward reads stays allocated
    rng = np.random.default_rng(40)
    tensors = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = op(*tensors)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tape.records) == 1
    assert held <= 1.05 * held_outputs * out.data.nbytes


def _assert_bit_identical(fused, composite, arrays, seed):
    upstream = np.random.default_rng(seed).standard_normal(fused(*arrays).shape)
    got = _value_and_grads(fused, arrays, upstream)
    ref = _value_and_grads(composite, arrays, upstream)
    for g, r in zip([got[0], *got[1]], [ref[0], *ref[1]]):
        np.testing.assert_array_equal(g, r)


TOKENS = (4, 16, 24, 8)   # the default ModelConfig's (B, T, S, C) latent tokens


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.95), (1.0, -0.02)],
                         ids=["noise_step", "reverse_step"])
def test_lincomb_is_bit_identical_to_its_composites(alpha, beta):
    rng = np.random.default_rng(41)
    args = [rng.standard_normal(TOKENS) for _ in range(2)]

    def fused(a, b):
        return ad.lincomb(a, alpha, b, beta)

    _assert_bit_identical(fused, lambda a, b: oracle.add(ad.mul(a, alpha), ad.mul(b, beta)),
                          args, 9)
    if alpha == 1.0:
        # the form a − b·c
        _assert_bit_identical(fused, lambda a, b: oracle.sub(a, ad.mul(b, -beta)), args, 9)


# a + b is a unit-weight lincomb: the model's norm shift adds a (C,)
# embedding, and the loss's running sums add scalars; here one operand is
# broadcast over the default tokens
@pytest.mark.parametrize("shapes", [(TOKENS, (8,)), ((8,), TOKENS)],
                         ids=["b_broadcast", "a_broadcast"])
def test_unit_lincomb_is_bit_identical_to_add(shapes):
    rng = np.random.default_rng(45)
    args = [rng.standard_normal(s) for s in shapes]
    _assert_bit_identical(lambda a, b: ad.lincomb(a, 1.0, b, 1.0), oracle.add, args, 12)


@pytest.mark.parametrize("shape", [TOKENS, (64, 96, 3)], ids=["eps_term", "vertex_term"])
def test_mse_is_bit_identical_to_its_composite(shape):
    rng = np.random.default_rng(42)
    target = rng.standard_normal(shape)

    def composite(p):
        d = oracle.sub(p, Tensor(target))
        return oracle.mean(ad.mul(d, d))

    _assert_bit_identical(lambda p: ad.mse(p, target), composite,
                          [rng.standard_normal(shape)], 10)


def _stored_layer_norm(x, gamma, beta, g, eps=1e-5):
    # layer_norm with its normalized input held for the backward
    inv_c = np.full(x.shape[-1], 1.0 / x.shape[-1])
    normed = x - ad._row_dot(x, inv_c)
    std = np.sqrt(ad._row_dot(normed * normed, inv_c) + eps)
    normed /= std
    out = normed * gamma
    out += beta
    gn = g * gamma
    ga = gn - ad._row_dot(gn, inv_c)
    ga -= normed * ad._row_dot(gn * normed, inv_c)
    ga /= std
    return out, [ga, ad._unbroadcast(g * normed, gamma.shape), ad._unbroadcast(g, beta.shape)]


def _stored_relu(x, g):
    mask = x > 0.0
    return x * mask, [g * mask]


# the latent tokens and the encoder's hidden rows of the default model
@pytest.mark.parametrize("op,stored,shapes", [
    (layer_norm, _stored_layer_norm, (TOKENS, (8,), (8,))),
    (ad.relu, _stored_relu, (TOKENS,)),
    (ad.relu, _stored_relu, ((64, 64),)),
], ids=["layer_norm", "relu_tokens", "relu_encoder"])
def test_recomputing_backward_is_bit_identical_to_the_stored_one(op, stored, shapes):
    rng = np.random.default_rng(44)
    arrays = [rng.standard_normal(s) * 3 for s in shapes]
    upstream = rng.standard_normal(shapes[0])
    out, grads = _value_and_grads(op, arrays, upstream)
    want_out, want_grads = stored(*arrays, upstream)
    for got, want in zip([out, *grads], [want_out, *want_grads]):
        np.testing.assert_array_equal(got, want)


# the default model's Linear layers (encoder, head) and attention output
# projections plus their residual, over (B, T, S, C) and (B, S, T, C) tokens
@pytest.mark.parametrize("shapes", [
    ((64, 384), (384, 64), (64,)), ((64, 64), (64, 192), (192,)), ((64, 96, 8), (8, 3), (3,)),
    (TOKENS, (8, 8), TOKENS), ((4, 24, 16, 8), (8, 8), (4, 24, 16, 8)),
], ids=["enc1", "enc2", "head", "attention", "time_attention"])
def test_affine_is_bit_identical_to_its_composite(shapes):
    rng = np.random.default_rng(43)
    args = [rng.standard_normal(s) for s in shapes]
    _assert_bit_identical(ad.affine, lambda x, w, c: oracle.add(ad.matmul(x, w), c), args, 11)


@pytest.mark.parametrize("op", [ad.mul, lambda a, b: ad.lincomb(a, 0.5, b, 2.0)],
                         ids=["mul", "lincomb"])
def test_elementwise_ops_name_both_shapes_when_operands_do_not_broadcast(op):
    with pytest.raises(ShapeError, match=r"\(2, 3\) and \(4,\) do not broadcast"):
        op(np.ones((2, 3)), np.ones(4))


@pytest.mark.parametrize("op,shapes", [
    (ad.mse, ((2, 3), (3,))),                 # no broadcasting against the target
    (ad.mse, ((2, 3), (2, 4))),
    (ad.affine, ((2, 3), (4, 5), (5,))),      # inner dimensions disagree
    (ad.affine, ((2, 3), (2, 3, 5), (5,))),   # w is not a matrix
    (ad.affine, ((3,), (3, 5), (5,))),        # x has no row axis
    (ad.affine, ((2, 3), (3, 5), (4,))),      # c does not broadcast
    (ad.affine, ((2, 3), (3, 5), (7, 2, 5))), # c would grow the product
    (lambda a, b: ad.lincomb(a, 1.0, b, 1.0),
     ((2, 3), (4, 2, 2))),                    # the operands do not broadcast
    # attention_layer (x, context c, wq, wk, wv, wo)
    (ad.attention_layer, ((2, 3), (5, 4), (4, 3), (4, 3), (4, 3), (3, 3))),     # wq does not take x
    (ad.attention_layer, ((2, 3), (5, 4), (3, 3), (4, 2), (4, 3), (3, 3))),     # keys of another width
    (ad.attention_layer, ((2, 3), (5, 4), (3, 3), (3, 3), (4, 3), (3, 3))),     # wk does not take c
    (ad.attention_layer, ((2, 3), (5, 4), (3, 3), (4, 3), (4, 2), (3, 3))),     # wo does not take o
    (ad.attention_layer, ((2, 3), (5, 4), (3, 3), (4, 3), (4, 3), (3, 4))),     # wo would widen x
    (ad.attention_layer, ((2, 3), (4, 5, 4), (3, 3), (4, 3), (4, 3), (3, 3))),  # it would grow x
    # the same op with x as its own context (x, wq, wk, wv, wo)
    (self_attention_layer, ((3,), (3, 3), (3, 3), (3, 3), (3, 3))),       # x has no row axis
    (self_attention_layer, ((2, 3), (4, 3), (3, 3), (3, 3), (3, 3))),     # wq does not take x
    (self_attention_layer, ((2, 3), (3, 3), (4, 3), (3, 3), (3, 3))),     # wk does not take x
    (self_attention_layer, ((2, 3), (3, 3), (3, 3), (4, 3), (3, 3))),     # wv does not take x
    (self_attention_layer, ((2, 3), (3, 3), (2, 3, 3), (3, 3), (3, 3))),  # wk is no matrix
    (self_attention_layer, ((2, 3), (3, 3), (3, 4), (3, 3), (3, 3))),     # keys of another width
    (self_attention_layer, ((2, 3), (3, 3), (3, 3), (3, 2), (3, 3))),     # wo does not take v
    (self_attention_layer, ((2, 3), (3, 3), (3, 3), (3, 3), (3, 4))),     # wo would widen x
    (self_attention_layer, ((0, 3), (3, 3), (3, 3), (3, 3), (3, 3))),     # no key to attend to
    (ad.attention_layer, ((2, 3), (4,), (3, 3), (4, 3), (4, 3), (3, 3))),  # context has no row axis
])
def test_fused_ops_reject_bad_shapes(op, shapes):
    # the shape checks are cached per shape signature and a failed check is
    # not, so the same bad call raises again, with the same message
    messages = []
    for _ in range(2):
        with pytest.raises(ShapeError) as exc:
            op(*(np.ones(s) for s in shapes))
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_a_failed_self_attention_check_caches_nothing():
    # a wk that does not take x, the layer's own context, fails the one
    # cached check, which keeps nothing of it and raises the same message
    # again
    check = ad._check_attention_layer
    size = check.cache_info().currsize
    x, w = np.ones((2, 3)), np.ones((3, 3))
    messages = []
    for _ in range(2):
        with pytest.raises(ShapeError) as exc:
            ad.attention_layer(x, x, w, np.ones((4, 3)), w, w)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert "wk, wv (D, ·), got (2, 3), (4, 3) and (3, 3)" in messages[0]
    assert check.cache_info().currsize == size


def test_shape_checks_run_once_per_shape_signature():
    # the attention op runs one cached check, its context's and wk's and
    # wv's too, with x as its own context and with another context
    rng = np.random.default_rng(44)
    x, w = rng.standard_normal((2, 5, 3)), rng.standard_normal((3, 3))
    context = rng.standard_normal((4, 3))
    check = ad._check_attention_layer
    for op in (lambda: ad.attention_layer(x, x, w, w, w, w),
               lambda: ad.attention_layer(x, context, w, w, w, w)):
        before = check.cache_info()
        for _ in range(3):
            op()
        after = check.cache_info()
        assert after.hits - before.hits >= 2
        assert after.misses - before.misses <= 1


@pytest.mark.parametrize("op,args", [
    (lambda a, b: ad.lincomb(a, 10.0, b, 1.0), ([1e308], [1.0])),
    (ad.mse, ([1e200], [0.0])),
    (ad.affine, ([[1e200]], [[1e200]], [0.0])),
], ids=["lincomb", "mse", "affine"])
def test_fused_ops_raise_on_overflow(op, args):
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        op(*(np.array(a) for a in args))


def test_conv3d_composite_oracle_matches_tap_loop():
    # the shift-matrix oracle itself against a direct tap loop on a small case
    rng = np.random.default_rng(29)
    x = rng.standard_normal((1, 2, 2, 3, 2))
    k = rng.standard_normal((2, 2, 3, 1, 3))
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (0, 0), (1, 1)))
    expected = np.zeros((1, 2, 2, 3, 2))
    for i, j, l in np.ndindex(3, 1, 3):
        expected += np.einsum("oc,bcthw->bothw", k[:, :, i, j, l],
                              xp[:, :, i:i + 2, j:j + 3, l:l + 2])
    got = _conv3d_composite(x, k).data
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("name,op,shapes", [
    ("conv3d", conv3d, CONV_CASE),
    ("softmax", softmax, ((3, 4, 5),)),
    ("layer_norm", layer_norm, ((2, 3, 4, 5), (5,), (5,))),
    ("segment_softmax_kl",
     lambda a, b: segment_softmax_kl(a, b, [0, 2, 3], [1.0, 0.5, 2.0]),
     ((3, 5, 2), (3, 5, 4))),
    ("lincomb", lambda a, b: ad.lincomb(a, 0.5, b, -2.0), ((3, 4), (3, 4))),
    ("mse", lambda a: ad.mse(a, np.ones((3, 4))), ((3, 4),)),
    ("affine", ad.affine, ((2, 3, 4), (4, 5), (2, 3, 5))),
    ("attention_layer", ad.attention_layer,
     ((2, 3, 4), (6, 3), (4, 5), (3, 5), (3, 2), (2, 4))),
    ("attention_layer", self_attention_layer, ((2, 3, 4), (4, 5), (4, 5), (4, 2), (2, 4))),
], ids=["conv3d-conv3d-shapes0", "softmax-<lambda>-shapes1",
        # the id is kept from when a log_softmax case came before it
        "layer_norm-layer_norm-shapes3", "segment_softmax_kl-<lambda>-shapes4",
        "lincomb", "mse", "affine", "attention_layer", "self_attention_layer"])
def test_fused_kernel_records_once(name, op, shapes):
    rng = np.random.default_rng(30)
    tensors = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    with Tape() as tape:
        op(*tensors)
    assert [r.name for r in tape.records] == [name]


def _row_norms(f):
    # the op's vertex scores, written out
    return np.sqrt((f * f).sum(axis=-1) + 1e-12)


def test_segment_softmax_kl_gradcheck_with_floored_prediction():
    # segments of 3, 1 and 4 vertices; in row 1 the last segment's prediction
    # puts below 1e-14 on three vertices, below the floor, so the keep mask
    # matters
    rng = np.random.default_rng(33)
    feats = rng.standard_normal((3, 8, 2))
    feats[1, 4:] = [[35.0, 0.0], [0.3, -0.4], [0.0, 1.0], [-1.2, 1.6]]
    target = rng.standard_normal((3, 8, 2))
    starts, weights = [0, 3, 4], [0.7, 1.3, 2.0]
    p_last = np.exp(_row_norms(feats[1, 4:]) - 35.0)
    assert np.sum(p_last / p_last.sum() < ad.PROB_FLOOR) == 3
    err = gradcheck(lambda x: segment_softmax_kl(x, target, starts, weights), [feats])
    assert err < 1e-4


def test_segment_softmax_kl_gradcheck_target_of_other_width():
    # 5 prediction channels against 3 target channels, as the coarse level
    # compares latents with positions; row 0's second segment is floored
    rng = np.random.default_rng(37)
    feats = rng.standard_normal((2, 6, 5)) * 0.5
    feats[0, 2] = [30.0, 0.0, 0.0, 0.0, 0.0]
    target = rng.standard_normal((2, 6, 3))
    starts, weights = [0, 2], [1.5, 0.5]
    p_row = np.exp(_row_norms(feats[0, 2:]) - _row_norms(feats[0, 2:]).max())
    assert np.sum(p_row / p_row.sum() < ad.PROB_FLOOR) == 3
    err = gradcheck(lambda x: segment_softmax_kl(x, target, starts, weights), [feats])
    assert err < 1e-4


def test_segment_softmax_kl_target_gradient_is_none():
    rng = np.random.default_rng(34)
    x, t = (Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True) for _ in range(2))
    with Tape() as tape:
        out = segment_softmax_kl(x, t, [0, 1], [1.0, 1.0])
    assert tape.records[0].backward(np.ones(()))[1] is None
    tape.backward(out)
    assert x.grad is not None and t.grad is None


@pytest.mark.parametrize("shapes,starts,weights", [
    (((2, 5, 3), (2, 4, 3)), [0, 2], [1.0, 1.0]),    # operands disagree in vertices
    (((2, 5), (2, 5)), [0, 2], [1.0, 1.0]),          # scores, not (S, n, F) features
    (((2, 5, 3), (2, 5, 3)), [1, 3], [1.0, 1.0]),    # first segment does not start at 0
    (((2, 5, 3), (2, 5, 3)), [0, 3, 3], [1.0] * 3),  # empty segment
    (((2, 5, 3), (2, 5, 3)), [0, 5], [1.0, 1.0]),    # segment past the last vertex
    (((2, 5, 3), (2, 5, 3)), [0, 2], [1.0]),         # one weight short
    (((2, 5, 3), (3, 5, 3)), [0, 2], [1.0, 1.0]),    # operands disagree in rows
])
def test_segment_softmax_kl_rejects_bad_shapes(shapes, starts, weights):
    rng = np.random.default_rng(35)
    x, t = (rng.standard_normal(s) for s in shapes)
    with pytest.raises(ShapeError):
        segment_softmax_kl(x, t, starts, weights)


@pytest.mark.parametrize("weight", [np.inf, np.nan])
def test_segment_softmax_kl_raises_on_non_finite_result(weight):
    rng = np.random.default_rng(36)
    x, t = rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 4, 3))
    with pytest.raises(NumericsError):
        segment_softmax_kl(x, t, [0, 2], [weight, 1.0])


# the id is kept from when a two-head case followed this one
@pytest.mark.parametrize("names", [["transpose", "matmul", "mul", "softmax", "matmul"]],
                         ids=["1-names0"])
def test_attention_records_scores_softmax_matmul(names):
    rng = np.random.default_rng(31)
    q, k, v = (Tensor(rng.standard_normal(s), requires_grad=True)
               for s in ((2, 3, 4, 4), (5, 4), (5, 4)))
    with Tape() as tape:
        attention(q, k, v)
    assert [r.name for r in tape.records] == names


def test_layer_norm_raises_when_the_variance_overflows():
    # (x - mean)^2 overflows; the output would otherwise be beta alone
    x = np.random.default_rng(32).standard_normal((3, 4)) * 1e160
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        layer_norm(x, np.ones(4), np.zeros(4))


def _count_scans(monkeypatch):
    # every (op, what) pair _check_finite scans, in call order
    scans = []
    check = ad._check_finite

    def counted(name, what, arr):
        scans.append((name, what))
        return check(name, what, arr)

    monkeypatch.setattr(ad, "_check_finite", counted)
    return scans


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_reshape_transpose_and_relu_make_no_scan(monkeypatch, taped):
    # their outputs are finite because their operands are
    x = Tensor(np.random.default_rng(42).standard_normal((2, 3, 4)), requires_grad=True)
    scans = _count_scans(monkeypatch)
    with Tape() if taped else contextlib.nullcontext():
        ad.relu(ad.transpose(ad.reshape(x, (6, 4)), (1, 0)))
    assert scans == []


def test_layer_norm_scans_its_standard_deviation_then_its_output(monkeypatch):
    # at any gamma; a large output that stays finite passes
    x = np.random.default_rng(44).standard_normal((3, 8))
    scans = _count_scans(monkeypatch)
    unit = layer_norm(x, np.ones(8), np.zeros(8))
    large = layer_norm(x, np.full(8, 1e300), np.zeros(8))
    assert scans == [("layer_norm", "standard deviation"), ("layer_norm", "output")] * 2
    np.testing.assert_array_equal(large.data, unit.data * 1e300)


@pytest.mark.parametrize("gamma,beta", [(1e300, np.finfo(np.float64).max), (1e308, 0.0)],
                         ids=["beta_at_the_maximum", "gamma_alone"])
def test_layer_norm_raises_when_its_output_overflows(gamma, beta):
    # each row one spike: its normalized entry is √7 ≈ 2.65, the others -1/√7
    x = np.eye(8)[:3] * 5.0
    with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match=r"^op 'layer_norm' produced a non-finite output$"):
        layer_norm(x, np.full(8, gamma), np.full(8, beta))


def test_attention_raises_when_a_score_overflows():
    # one score overflows to -inf next to a finite one; softmax would give it weight 0
    q = np.array([[1e160, 0.0]])
    k = np.array([[-1e160, 0.0], [1.0, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        attention(q, k, np.ones((2, 2)))


def test_attention_layer_raises_when_a_score_overflows():
    # as above, with the query and the context projected by the identity
    x = np.array([[1e160, 0.0]])
    context = np.array([[-1e160, 0.0], [1.0, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericsError,
                                                   match="'attention_layer'.* score"):
        ad.attention_layer(x, context, np.eye(2), np.eye(2), np.eye(2), np.eye(2))


@pytest.mark.parametrize("stage,wq,wo", [
    ("query projection", 1e200, 1.0),
    ("output", 1.0, 1e200),
], ids=["query_projection", "output"])
def test_attention_layer_names_the_stage_that_overflows(stage, wq, wo):
    # finite scores and values make the weights and W v finite; past the
    # finite key and value projections only the q projection and the output
    # projection can overflow
    x = np.array([[1e200, 1.0]])
    context, wv = np.array([[0.0, 1.0], [0.0, -1.0]]), np.full((2, 2), 1e200)
    with np.errstate(over="ignore"), pytest.raises(NumericsError,
                                                   match=f"'attention_layer'.* {stage}"):
        ad.attention_layer(x, context, np.eye(2) * wq, np.eye(2), wv, np.eye(2) * wo)


@pytest.mark.parametrize("stage,wq,wk,wv", [
    ("key projection", 1.0, 1e200, 1.0),
    ("value projection", 1.0, 1.0, 1e200),
    ("query projection", 1e200, 1.0, 1.0),
], ids=["key_projection", "value_projection", "query_projection"])
def test_self_attention_layer_names_the_stage_that_overflows(stage, wq, wk, wv):
    # the keys and values are checked as the two products' records would be,
    # before the query
    x = np.array([[1e200, 1.0], [1.0, 1.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericsError,
                                                   match=f"'attention_layer'.* {stage}"):
        self_attention_layer(x, np.eye(2) * wq, np.eye(2) * wk, np.eye(2) * wv, np.eye(2))


def _attention_layer_composite(x, context, wq, wk, wv, wo):
    # the keys' and values' products are recorded before the query's, so
    # the tape sums the query's gradient into x before theirs
    k, v = ad.matmul(context, wk), ad.matmul(context, wv)
    return ad.affine(attention(ad.matmul(x, wq), k, v), wo, x)


def _self_attention_layer_composite(x, wq, wk, wv, wo):
    return _attention_layer_composite(x, x, wq, wk, wv, wo)


# (x, context): the default model's context table (4, C), the dependencies
# of each frame (B, T, S, C) and a context of temporal (B, S, T, C) tokens;
# and a table of one row, whose softmax is 1 everywhere
ATTENTION_LAYER_SHAPES = {
    "context": ((4, 16, 24, 8), (4, 8)),
    "dependency": ((4, 16, 24, 8), (4, 16, 24, 8)),
    "temporal": ((4, 24, 16, 8), (4, 24, 16, 8)),
    "one_key": ((4, 16, 24, 8), (1, 8)),
}


def _scores_with_extreme_rows(shape, scale):
    # normal scores times ``scale``; where there are three rows or more, the
    # first reaches from -700 to 700, the second is 708 throughout (the
    # row's exp-sum would overflow without the max shift) and the third
    # alternates between -700 and 700
    scores = np.random.default_rng(47).standard_normal(shape) * scale
    rows = scores.reshape(-1, shape[-1])
    if len(rows) >= 3:
        rows[0] = np.linspace(-700.0, 700.0, shape[-1])
        rows[1] = 708.0
        rows[2] = np.where(np.arange(shape[-1]) % 2, 700.0, -700.0)
    return scores


# the model's score shapes at B=4 and B=1 (context, dependency and temporal
# attention), and a one-key layer
@pytest.mark.parametrize("shape", [(4, 16, 24, 4), (4, 16, 24, 24), (4, 24, 16, 16),
                                   (1, 16, 24, 4), (1, 16, 24, 24), (1, 24, 16, 16),
                                   (2, 5, 1)])
@pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
def test_the_rebuilt_softmax_equals_the_forwards_bit_for_bit(shape, scale):
    scores = _scores_with_extreme_rows(shape, scale)
    w, m, s = ad._softmax_rows(scores)
    rows = math.prod(shape[:-1])
    assert m.shape == s.shape == (rows,)
    rebuilt = ad._softmax_rebuild(scores.copy(), m, s)
    assert rebuilt.shape == shape
    assert rebuilt.tobytes() == np.ascontiguousarray(w).tobytes()
    np.testing.assert_allclose(rebuilt.sum(axis=-1), 1.0, rtol=1e-12)


@pytest.mark.parametrize("layout", list(ATTENTION_LAYER_SHAPES))
def test_attention_layer_is_bit_identical_to_its_composite(layout):
    rng = np.random.default_rng(45)
    x, context = (rng.standard_normal(s) for s in ATTENTION_LAYER_SHAPES[layout])
    weights = [rng.standard_normal((8, 8)) for _ in range(4)]
    _assert_bit_identical(ad.attention_layer, _attention_layer_composite,
                          [x, context, *weights], 12)


# which of (x, wq, wk, wv, wo) take a gradient, each with a constant context
# and with one that takes a gradient; the first is the sinusoid test's
# block, whose first query is a constant
@pytest.mark.parametrize("wants", ["-qkvo", "x----", "-q--o", "--k--", "---v-", "----o"])
def test_attention_layer_skips_the_gradients_no_input_takes(wants):
    rng = np.random.default_rng(46)
    arrays = [rng.standard_normal(s) for s in ((2, 3, 4), (5, 3), (4, 4), (3, 4), (3, 4), (4, 4))]
    upstream = rng.standard_normal((2, 3, 4))
    for context in "-c":
        _assert_same_gradients_skipped(ad.attention_layer, _attention_layer_composite, arrays,
                                       wants[0] + context + wants[1:], upstream)


def _assert_same_gradients_skipped(fused, composite, arrays, wants, upstream):
    # ``wants`` marks each input that takes a gradient with a letter and
    # each that does not with "-": the fused op and the composite give the
    # same value and the same gradients, and None for the same inputs
    results = []
    for op in (fused, composite):
        tensors = [Tensor(a, requires_grad=c != "-") for a, c in zip(arrays, wants)]
        with Tape() as tape:
            out = op(*tensors)
        tape.backward(out, seed=upstream)
        results.append([out.data] + [t.grad for t in tensors])
    got, want = results
    for c, g, w in zip("o" + wants, got, want):
        if c == "-":
            assert g is None and w is None
        else:
            np.testing.assert_array_equal(g, w)


# (x, wq, wk, wv, wo): the default model's temporal attention over
# (B, S, T, C) tokens, the frames of one site, and a miniature layer whose
# query, key and value widths differ from x's
SELF_ATTENTION_SHAPES = {
    "temporal": ((4, 24, 16, 8), (8, 8), (8, 8), (8, 8), (8, 8)),
    "frames": ((5, 4), (4, 3), (4, 3), (4, 2), (2, 4)),
    "miniature": ((2, 3, 4), (4, 5), (4, 5), (4, 2), (2, 4)),
}


@pytest.mark.parametrize("layout", list(SELF_ATTENTION_SHAPES))
def test_self_attention_layer_is_bit_identical_to_its_composite(layout):
    rng = np.random.default_rng(48)
    arrays = [rng.standard_normal(s) for s in SELF_ATTENTION_SHAPES[layout]]
    _assert_bit_identical(self_attention_layer, _self_attention_layer_composite, arrays, 13)


# which of (x, wq, wk, wv, wo) take a gradient: a constant x, constant key
# and value weights, constant query and output weights, and each weight alone
@pytest.mark.parametrize("wants", ["-qkvo", "xq--o", "x-kv-", "-q---", "--k--", "---v-",
                                   "----o", "x----"])
def test_self_attention_layer_skips_the_gradients_no_input_takes(wants):
    rng = np.random.default_rng(49)
    arrays = [rng.standard_normal(s) for s in SELF_ATTENTION_SHAPES["miniature"]]
    _assert_same_gradients_skipped(self_attention_layer, _self_attention_layer_composite,
                                   arrays, wants, rng.standard_normal(arrays[0].shape))


def test_reshape_roundtrip_identity():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 4, 5))
    back = ad.reshape(ad.reshape(x, (12, 5)), (3, 4, 5))
    np.testing.assert_array_equal(back.data, x)


def test_reshape_rejects_implicit_axes():
    with pytest.raises(ShapeError):
        ad.reshape(np.zeros((2, 3)), (-1, 3))


def test_nonfinite_result_raises():
    # NaN out of sqrt (run under np.errstate), and Inf out of an overflowing product
    with pytest.raises(NumericsError):
        oracle.sqrt(Tensor([4.0, -1.0]))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        ad.mul([1e200], 1e200)
    with pytest.raises(NumericsError):
        Tensor([np.nan])


def test_tape_accumulates_repeated_use():
    # a value used twice receives the sum of both contributions
    x = Tensor([3.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
    tape.backward(y)
    np.testing.assert_allclose(x.grad, [6.0])


def test_tape_reverse_order_and_additivity():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        a = ad.mul(x, 3.0)   # 3x
        b = ad.mul(x, 5.0)   # 5x
        c = ad.lincomb(a, 1.0, b, 1.0)     # 8x
    tape.backward(c)
    np.testing.assert_allclose(x.grad, [8.0])
    assert [r.name for r in tape.records] == ["mul", "mul", "lincomb"]


def test_backward_frees_intermediate_gradients():
    # a 100-mul chain: at most a few gradient-sized arrays are alive at once,
    # not one per record, and only the leaf keeps its gradient
    x = Tensor(np.linspace(-1.0, 1.0, 10_000), requires_grad=True)
    with Tape() as tape:
        y = x
        for _ in range(100):
            y = ad.mul(y, 0.99)
    tracemalloc.start()
    try:
        tape.backward(y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.data.nbytes
    assert all(rec.output.grad is None for rec in tape.records)
    np.testing.assert_allclose(x.grad, np.full(x.shape, 0.99**100), rtol=1e-12)


@pytest.mark.parametrize("root", ["leaf", "record_output"])
def test_backward_from_a_leaf_or_a_record_output(root):
    # the seed goes into the root's slot: a leaf's own grad, or the slot of
    # the record that made it; the later sum record gets no gradient
    x = Tensor([2.0, -1.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, x)
        ad.sum_(y)
    tape.backward(x if root == "leaf" else y, seed=np.array([1.0, 3.0]))
    want = [1.0, 3.0] if root == "leaf" else [4.0, -6.0]
    np.testing.assert_array_equal(x.grad, want)
    assert y.grad is None
    assert all(rec.output.grad is None for rec in tape.records)
    with pytest.raises(RuntimeError, match="already"):
        tape.backward(y)
    np.testing.assert_array_equal(x.grad, want)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("root", ["leaf", "record_output"])
def test_backward_rejects_a_non_finite_seed(root, bad):
    # the seed is blamed, not the first op it reaches; a leaf root on an
    # empty tape would otherwise take it as its gradient
    x = Tensor([2.0, -1.0], requires_grad=True)
    with Tape() as tape:
        y = ad.mul(x, 3.0) if root == "record_output" else x
    with pytest.raises(NumericsError, match="non-finite backward seed"):
        tape.backward(y, seed=np.array([bad, 1.0]))
    assert x.grad is None


def _gradient_scans(monkeypatch, tape, root) -> int:
    """The NaN/Inf scans (``np.isfinite`` calls) of ``tape.backward(root)``,
    the seed's included."""
    isfinite, calls = np.isfinite, []
    with monkeypatch.context() as patch:
        patch.setattr(np, "isfinite", lambda x: calls.append(x.shape) or isfinite(x))
        tape.backward(root)
    return len(calls)


@pytest.mark.parametrize("op", ["reshape", "transpose", "relu"])
def test_backward_scans_no_gradient_out_of_reshape_transpose_or_relu(monkeypatch, op):
    # they move or mask a finite upstream gradient, as their forwards move or
    # mask a finite value: only the seed is scanned, and a mul after one adds
    # the scan of its own gradient
    x = Tensor([[1.0, -2.0, 3.0], [-4.0, 5.0, 6.0]], requires_grad=True)
    run = {"reshape": lambda t: ad.reshape(t, (3, 2)),
           "transpose": lambda t: ad.transpose(t, (1, 0)),
           "relu": ad.relu}[op]
    with Tape() as tape:
        y = run(x)
    assert _gradient_scans(monkeypatch, tape, y) == 1
    x.grad = None
    with Tape() as tape:
        y = run(ad.mul(x, 2.0))
    assert _gradient_scans(monkeypatch, tape, y) == 2
    np.testing.assert_array_equal(x.grad, 2.0 * (x.data > 0.0 if op == "relu" else 1.0))


def test_backward_names_an_arithmetic_op_whose_gradient_overflows():
    # reshape passes the huge upstream gradient on unscanned; the mul that
    # reads it overflows and is named
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = ad.reshape(ad.mul(x, 1e300), (2, 1))
    with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match=r"^non-finite gradient out of op 'mul'$"):
        tape.backward(y, seed=np.full((2, 1), 1e10))
    assert x.grad is None


def test_second_backward_raises_and_leaves_gradients_alone():
    x = Tensor([2.0, -1.0], requires_grad=True)
    with Tape() as tape:
        y = ad.sum_(ad.mul(x, x))
    tape.backward(y)
    with pytest.raises(RuntimeError, match="already"):
        tape.backward(y)
    np.testing.assert_array_equal(x.grad, [4.0, -2.0])


def test_no_recording_outside_tape():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, 2.0)
    assert not y.requires_grad


def test_tensor_data_read_only():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_backward_returns_none_for_constant_inputs():
    # a scalar operand, a constant matrix or a constant conv input gets no
    # gradient computed
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    kernel = Tensor(np.ones((1, 1, 1, 1, 3)), requires_grad=True)
    with Tape() as tape:
        ad.mul(2.0, x)
        ad.matmul(x, np.ones((3, 3)))
        ad.conv3d(np.ones((1, 1, 1, 2, 1)), kernel)
        ad.lincomb(np.ones((2, 3)), 0.5, x, 2.0)
        ad.affine(np.ones((4, 2)), x, np.ones(3))
        ad.mse(x, np.zeros((2, 3)))
    g = {rec.name: rec.backward(np.ones(rec.output.shape)) for rec in tape.records}
    assert g["mul"][0] is None and g["mul"][1] is not None
    assert g["matmul"][0] is not None and g["matmul"][1] is None
    assert g["conv3d"][0] is None and g["conv3d"][1] is not None
    assert g["lincomb"][0] is None and g["lincomb"][1] is not None
    assert g["affine"][0] is None and g["affine"][1] is not None and g["affine"][2] is None
    # the mse target is no record input at all
    assert [rec.inputs for rec in tape.records if rec.name == "mse"] == [(x,)]


def _default_step(model, frames=16):
    # one default training step's forward and loss on a synthetic batch of
    # 16-frame (or ``frames``-frame) sequences; the caller runs the backward
    seqs = [generate_sequence(MotionConfig(graph=model.graph, frames=frames), seed=i)
            for i in range(model.config.batch_size)]
    obs = np.stack([s.observations for s in seqs])
    gt = np.stack([s.gt_vertices for s in seqs])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with Tape() as tape:
            loss = model.loss(model.forward(obs, np.zeros(obs.shape[:3]), seed=3), gt)
    return tape, loss


def _leaf_grads(model):
    return {k: holder[key].grad for k, (holder, key) in model.param_slots().items()}


def test_skipping_constant_gradients_keeps_a_default_step_bit_identical(monkeypatch):
    # reference: ad.as_tensor wraps every raw operand the model passes as a
    # tensor that takes a gradient, so the records keep the noise draw, the
    # step embedding and the encoder input they take as operands, and every
    # backward computes their gradients too; a third run copies every
    # gradient a leaf takes, so no leaf gradient shares memory with an array
    # a backward returned
    config = ModelConfig()
    grads = []
    accumulate = Tensor.accumulate_grad
    for mode in ("skip", "flag", "copy"):
        constants = []
        flag = mode == "flag"

        def counted(x):
            if isinstance(x, Tensor):
                return x
            constants.append(Tensor(x, requires_grad=flag))
            return constants[-1]

        with monkeypatch.context() as patch:
            patch.setattr(ad, "as_tensor", counted)
            if mode == "copy":
                patch.setattr(Tensor, "accumulate_grad",
                              lambda self, g: accumulate(self, g.copy()))
            model = build_model(config)
            tape, loss = _default_step(model)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                tape.backward(loss)
        # the encoder input, the step embedding, the noise draw (wrapped by
        # each of the two closed-form noisings), the block loss's zero target
        # and the three targets of the vertex and part terms
        assert len(constants) == 8
        if mode == "flag":
            # the noise draws, the embedding and the encoder input took one
            assert sum(t.grad is not None for t in constants) == 4
        grads.append(_leaf_grads(model))
    skipped, full, copied = grads
    assert skipped.keys() == full.keys() == copied.keys()
    for k in skipped:
        assert (skipped[k] is None) == (full[k] is None) == (copied[k] is None), k
        if skipped[k] is not None:
            np.testing.assert_array_equal(skipped[k], full[k], err_msg=k)
            np.testing.assert_array_equal(skipped[k], copied[k], err_msg=k)


def test_freeing_values_during_the_forward_changes_no_number(monkeypatch):
    # a default diffusion step, then the same step with every record output
    # kept alive until backward ends: the loss and every gradient agree bit
    # for bit
    config = ModelConfig()
    runs = []
    result = ad._result
    for keep in (False, True):
        kept = []

        def keeping(*args):
            kept.append(result(*args))
            return kept[-1]

        with monkeypatch.context() as patch:
            if keep:
                patch.setattr(ad, "_result", keeping)
            model = build_model(config)
            tape, loss = _default_step(model)
            freed = sum(rec.output.data.size != math.prod(rec.output.shape)
                        for rec in tape.records)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                tape.backward(loss)
        runs.append((freed, loss.data, _leaf_grads(model)))
    (freed, loss, grads), (freed_kept, loss_kept, grads_kept) = runs
    # 31 of the step's 54 values are freed, among them the 6 relu outputs
    # of the three graph+time passes and the 3 temporal attention outputs no
    # backward reads
    assert freed == 31 and freed_kept == 0
    np.testing.assert_array_equal(loss, loss_kept)
    assert grads.keys() == grads_kept.keys()
    for k in grads:
        assert (grads[k] is None) == (grads_kept[k] is None), k
        if grads[k] is not None:
            np.testing.assert_array_equal(grads[k], grads_kept[k], err_msg=k)


def _traced_step_peak(frames):
    # tracemalloc's peak over the forward, loss and backward of one default
    # diffusion step on ``frames``-frame sequences
    model = build_model(ModelConfig())
    tracemalloc.start()
    try:
        tape, loss = _default_step(model, frames)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            tape.backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_a_default_diffusion_step_peaks_under_6_mb():
    # it peaks at 4.98 MB, as it did with the cross-attentions keeping their
    # keys and values; with the context's products run in backward before
    # the attention's scratch arrays are freed it peaked at 5.17 MB
    assert _traced_step_peak(16) <= 6 * 2**20


def test_a_32_frame_diffusion_step_peaks_under_12_5_mb():
    # temporal attention's scores grow with the square of the frames: this
    # step peaks at 10.44 MB, and peaked at 10.81 MB with the cross-attentions
    # keeping their keys and values
    assert _traced_step_peak(32) <= 12.5 * 2**20
