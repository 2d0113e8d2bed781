import math

import numpy as np
import pytest

from meshmotion import autodiff as ad
from meshmotion.autodiff import (
    GradcheckError,
    NumericsError,
    ShapeError,
    Tape,
    Tensor,
    attention,
    concat,
    conv3d,
    gradcheck,
    layer_norm,
    log_softmax,
    softmax,
    take_slice,
)


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


def test_matmul_shape_error_reports_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))


def test_softmax_constant_row():
    out = softmax(ad.constant([5.0, 5.0, 5.0]), axis=0)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_large_values_no_overflow():
    out = softmax(ad.constant([1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    # closed-form oracle: softmax([0, ln 3]) = [1/(1+3), 3/(1+3)]
    out = softmax(ad.constant([0.0, math.log(3.0)]), axis=0)
    np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ndim = rng.integers(1, 4)
        shape = tuple(rng.integers(1, 6, size=ndim))
        axis = int(rng.integers(0, ndim))
        x = rng.standard_normal(shape) * 10
        out = softmax(ad.constant(x), axis=axis)
        sums = out.data.sum(axis=axis)
        np.testing.assert_allclose(sums, np.ones_like(sums), atol=1e-12)


def test_softmax_rejects_negative_axis():
    with pytest.raises(ShapeError):
        softmax(ad.constant([[1.0, 2.0]]), axis=-1)


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


def test_attention_multihead_is_independent_slices():
    rng = np.random.default_rng(8)
    q = rng.standard_normal((3, 6))
    k = rng.standard_normal((4, 6))
    v = rng.standard_normal((4, 6))
    out = attention(q, k, v, heads=2).data
    expected = np.concatenate(
        [_attention_oracle(q[:, :3], k[:, :3], v[:, :3]),
         _attention_oracle(q[:, 3:], k[:, 3:], v[:, 3:])],
        axis=1,
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_attention_width_mismatch():
    with pytest.raises(ShapeError):
        attention(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)))


def test_gradcheck_flags_sign_flipped_backward():
    def bad_scale(x):
        # deliberately wrong backward: sign-flipped gradient
        return ad._result("bad_scale", (x,), 2.0 * x.data, lambda g: (-2.0 * g,))

    err = gradcheck(bad_scale, [np.array([1.0, -2.0, 3.0])])
    assert abs(err - 2.0) < 1e-6


def test_gradcheck_rejects_bad_h():
    with pytest.raises(ValueError):
        gradcheck(ad.relu, [np.ones(3)], h=0.1)


def test_gradcheck_reports_nonfinite():
    def exploding(x):
        return ad._result("exploding", (x,), x.data.copy(), lambda g: (g * np.inf,))

    with pytest.raises((GradcheckError, NumericsError)):
        gradcheck(exploding, [np.ones(2)])


@pytest.mark.parametrize("seed", range(10))
def test_primitive_gradients_random_shapes(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(2, 5))
    x = rng.standard_normal((n, m))
    y = rng.standard_normal((n, m))
    pos = np.abs(x) + 0.5

    checks = [
        (lambda a, b: ad.add(a, b), [x, y]),
        (lambda a, b: ad.mul(a, b), [x, y]),
        (lambda a, b: ad.sub(a, b), [x, y]),
        (lambda a, b: ad.div(a, b), [x, pos]),
        (lambda a, b: ad.matmul(a, ad.transpose(b, (1, 0))), [x, y]),
        (lambda a: ad.relu(a), [x + 0.1 * np.sign(x)]),
        (lambda a: ad.gelu(a), [x]),
        (lambda a: ad.exp(a), [x]),
        (lambda a: ad.log(a), [pos]),
        (lambda a: ad.sqrt(a), [pos]),
        (lambda a: ad.reshape(a, (m, n)), [x]),
        (lambda a: ad.transpose(a, (1, 0)), [x]),
        (lambda a: ad.sum_(a, axis=0), [x]),
        (lambda a: ad.mean(a, axis=1), [x]),
        (lambda a: ad.variance(a, axis=1), [x]),
        (lambda a: ad.mul(softmax(a, axis=1), y), [x]),
        (lambda a: ad.mul(log_softmax(a, axis=1), y), [x]),
        (lambda a: take_slice(a, 1, 0, max(1, m - 1)), [x]),
        (lambda a, b: concat([a, b], axis=0), [x, y]),
    ]
    for op, args in checks:
        assert gradcheck(op, args) < 1e-4


def test_softmax_sum_composition_gradient():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((3, 5))
    w = rng.standard_normal((3, 5))
    # weighted sum keeps the gradient nonzero (a plain sum of softmax rows is
    # constant, so its relative error only measures finite-difference noise)
    err = gradcheck(lambda a: ad.mul(softmax(a, axis=1), w), [x])
    assert err < 1e-5
    # degenerate constant composition stays at the noise floor
    assert gradcheck(lambda a: ad.sum_(softmax(a, axis=1)), [x]) < 1e-2


def test_layer_norm_gradient_and_normalization():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 6)) * 3 + 2
    gamma = rng.standard_normal(6)
    beta = rng.standard_normal(6)
    out = layer_norm(ad.constant(x), ad.constant(np.ones(6)), ad.constant(np.zeros(6)))
    np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=1), 1.0, atol=1e-4)
    assert gradcheck(layer_norm, [x, gamma, beta]) < 1e-4


def test_conv3d_matches_loop_oracle():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 4, 3, 3))
    k = rng.standard_normal((2, 3, 3, 1, 3))
    out = conv3d(x, k).data

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


def test_conv3d_gradients():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((1, 2, 3, 2, 2))
    k = rng.standard_normal((2, 2, 3, 1, 1))
    assert gradcheck(conv3d, [x, k]) < 1e-4


def test_conv3d_rejects_even_kernel():
    with pytest.raises(ShapeError):
        conv3d(np.zeros((1, 1, 4, 4, 4)), np.zeros((1, 1, 2, 3, 3)))


# ---------------------------------------------------------------------------
# fused kernels: gradchecks, and value/gradient agreement with the same
# functions composed from primitive ops


def _softmax_composite(a, axis):
    e = ad.exp(ad.sub(a, ad.constant(a.data.max(axis=axis, keepdims=True))))
    return ad.div(e, ad.sum_(e, axis=axis, keepdims=True))


def _log_softmax_composite(a, axis):
    z = ad.sub(a, ad.constant(a.data.max(axis=axis, keepdims=True)))
    return ad.sub(z, ad.log(ad.sum_(ad.exp(z), axis=axis, keepdims=True)))


def _layer_norm_composite(a, gamma, beta, eps=1e-5):
    ax = a.ndim - 1
    d = ad.sub(a, ad.mean(a, axis=ax, keepdims=True))
    v = ad.mean(ad.mul(d, d), axis=ax, keepdims=True)
    return ad.add(ad.mul(ad.div(d, ad.sqrt(ad.add(v, eps))), gamma), beta)


def _attention_composite(q, k, v, heads):
    dh, dvh = q.shape[-1] // heads, v.shape[-1] // heads
    outs = []
    for h in range(heads):
        qh = take_slice(q, q.ndim - 1, h * dh, (h + 1) * dh)
        kh = take_slice(k, k.ndim - 1, h * dh, (h + 1) * dh)
        vh = take_slice(v, v.ndim - 1, h * dvh, (h + 1) * dvh)
        kt = ad.transpose(kh, (*range(kh.ndim - 2), kh.ndim - 1, kh.ndim - 2))
        scores = ad.mul(ad.matmul(qh, kt), 1.0 / math.sqrt(dh))
        outs.append(ad.matmul(_softmax_composite(scores, scores.ndim - 1), vh))
    return concat(outs, axis=outs[0].ndim - 1)


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
        k_tap = ad.reshape(take_slice(taps, 2, tap, tap + 1), (o, c))
        term = ad.matmul(k_tap, ad.matmul(flat, ad.constant(shift)))
        out = term if out is None else ad.add(out, term)
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
    # (query, key, value, heads)
    ((2, 3, 4), (2, 5, 4), (2, 5, 6), 1),
    ((2, 3, 4), (2, 5, 4), (2, 5, 6), 2),
    ((2, 3, 4, 4), (5, 4), (5, 4), 1),    # one (L, C) table shared by a 4-D query
    ((2, 3, 4, 4), (5, 4), (5, 4), 2),
]


@pytest.mark.parametrize("q_shape,k_shape,v_shape,heads", ATTENTION_CASES)
def test_attention_gradcheck(q_shape, k_shape, v_shape, heads):
    rng = np.random.default_rng(21)
    args = [rng.standard_normal(s) for s in (q_shape, k_shape, v_shape)]
    assert gradcheck(lambda q, k, v: attention(q, k, v, heads=heads), args) < 1e-5


@pytest.mark.parametrize("q_shape,k_shape,v_shape,heads", ATTENTION_CASES)
def test_attention_matches_composite(q_shape, k_shape, v_shape, heads):
    rng = np.random.default_rng(22)
    args = [rng.standard_normal(s) for s in (q_shape, k_shape, v_shape)]
    _assert_matches_composite(lambda q, k, v: attention(q, k, v, heads=heads),
                              lambda q, k, v: _attention_composite(q, k, v, heads), args, 1)


def test_attention_rejects_leading_axes_that_do_not_broadcast():
    with pytest.raises(ShapeError):
        attention(np.zeros((2, 3, 4)), np.zeros((3, 5, 4)), np.zeros((3, 5, 4)))


@pytest.mark.parametrize("fn", [softmax, log_softmax])
def test_softmax_non_last_axis_gradcheck(fn):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 4, 5))
    w = rng.standard_normal((3, 4, 5))
    assert gradcheck(lambda a: ad.mul(fn(a, axis=1), w), [x]) < 1e-5


@pytest.mark.parametrize("fused,composite", [(softmax, _softmax_composite),
                                             (log_softmax, _log_softmax_composite)])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_softmax_matches_composite(fused, composite, axis):
    x = np.random.default_rng(24).standard_normal((3, 4, 5)) * 4
    _assert_matches_composite(lambda a: fused(a, axis), lambda a: composite(a, axis), [x], 2)


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
        out = op(ad.constant(x), g_t, b_t)
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


CONV_CASE = ((2, 2, 3, 4, 5), (3, 2, 3, 3, 3))   # B=2, C_in=2 -> C_out=3, grid 3x4x5


def test_conv3d_cubic_kernel_gradcheck():
    rng = np.random.default_rng(27)
    x, k = (rng.standard_normal(s) for s in CONV_CASE)
    assert gradcheck(conv3d, [x, k]) < 1e-5


def test_conv3d_matches_composite():
    rng = np.random.default_rng(28)
    x, k = (rng.standard_normal(s) for s in CONV_CASE)
    _assert_matches_composite(conv3d, _conv3d_composite, [x, k], 4)


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
    got = _conv3d_composite(ad.constant(x), ad.constant(k)).data
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("name,op,shapes", [
    ("conv3d", conv3d, CONV_CASE),
    ("softmax", lambda a: softmax(a, axis=1), ((3, 4, 5),)),
    ("log_softmax", lambda a: log_softmax(a, axis=1), ((3, 4, 5),)),
    ("layer_norm", layer_norm, ((2, 3, 4, 5), (5,), (5,))),
])
def test_fused_kernel_records_once(name, op, shapes):
    rng = np.random.default_rng(30)
    tensors = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    with Tape() as tape:
        op(*tensors)
    assert [r.name for r in tape.records] == [name]



@pytest.mark.parametrize("heads,names", [
    (1, ["attention_scores", "softmax", "matmul"]),
    (2, ["reshape", "transpose"] * 3 + ["attention_scores", "softmax", "matmul",
                                        "transpose", "reshape"]),
])
def test_attention_records_scores_softmax_matmul(heads, names):
    rng = np.random.default_rng(31)
    q, k, v = (Tensor(rng.standard_normal(s), requires_grad=True)
               for s in ((2, 3, 4, 4), (5, 4), (5, 4)))
    with Tape() as tape:
        attention(q, k, v, heads=heads)
    assert [r.name for r in tape.records] == names


def test_layer_norm_raises_when_the_variance_overflows():
    # (x - mean)^2 overflows; the output would otherwise be beta alone
    x = np.random.default_rng(32).standard_normal((3, 4)) * 1e160
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        layer_norm(x, np.ones(4), np.zeros(4))


def test_attention_raises_when_a_score_overflows():
    # one score overflows to -inf next to a finite one; softmax would give it weight 0
    q = np.array([[1e160, 0.0]])
    k = np.array([[-1e160, 0.0], [1.0, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        attention(q, k, np.ones((2, 2)))

def test_reshape_roundtrip_identity():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((3, 4, 5))
    back = ad.reshape(ad.reshape(ad.constant(x), (12, 5)), (3, 4, 5))
    np.testing.assert_array_equal(back.data, x)


def test_reshape_rejects_implicit_axes():
    with pytest.raises(ShapeError):
        ad.reshape(ad.constant(np.zeros((2, 3))), (-1, 3))


def test_nonfinite_result_raises():
    with pytest.raises(NumericsError):
        ad.log(ad.constant([0.0, 1.0]))
    with pytest.raises(NumericsError):
        ad.exp(ad.constant([1e309 / 1e300]))
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
        c = ad.add(a, b)     # 8x
    tape.backward(c)
    np.testing.assert_allclose(x.grad, [8.0])
    assert [r.name for r in tape.records] == ["mul", "mul", "add"]


def test_no_recording_outside_tape():
    x = Tensor([1.0], requires_grad=True)
    y = ad.mul(x, 2.0)
    assert not y.requires_grad


def test_tensor_data_read_only():
    t = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 5.0
