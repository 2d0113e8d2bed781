"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every differentiable operation records itself on the active :class:`Tape`;
``Tape.backward`` replays the records in exact reverse execution order and
accumulates gradients additively. ``softmax``, ``log_softmax``,
``layer_norm`` and ``conv3d`` are one record each with an analytic backward;
``attention`` is a scores record, a ``softmax`` and a ``matmul``. Any op that
produces a non-finite value raises :class:`NumericsError` immediately instead
of letting NaN/Inf spread; callers that want that error as the only signal run
a whole step under ``np.errstate`` (see ``model.train``).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "NumericsError",
    "ShapeError",
    "GradcheckError",
    "as_tensor",
    "constant",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "relu",
    "gelu",
    "exp",
    "log",
    "sqrt",
    "clip_min",
    "reshape",
    "transpose",
    "sum_",
    "mean",
    "variance",
    "take_slice",
    "concat",
    "softmax",
    "log_softmax",
    "layer_norm",
    "conv3d",
    "attention",
    "gradcheck",
]


class NumericsError(ArithmeticError):
    """An operation produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class GradcheckError(AssertionError):
    """Gradient verification hit non-finite values."""


class Tensor:
    """Immutable dense float64 array, optionally tracked for gradients.

    ``data`` is a row-major, read-only numpy array. ``grad`` is populated by
    ``Tape.backward`` and is the only mutable state.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.all(np.isfinite(arr)):
            raise NumericsError("tensor constructed with non-finite values")
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.shape}"
            )
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x, requires_grad: bool = False) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x, requires_grad=requires_grad)


def constant(x) -> Tensor:
    """Wrap raw data as a non-differentiable tensor."""
    return as_tensor(x)


class _Record:
    __slots__ = ("name", "inputs", "output", "backward")

    def __init__(self, name, inputs, output, backward):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.backward = backward


class Tape:
    """Ordered record of executed differentiable ops.

    Use as a context manager around a forward pass; ``backward`` walks the
    records strictly in reverse execution order. One tape per training step.
    """

    _stack: list["Tape"] = []

    def __init__(self):
        self.records: list[_Record] = []

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = Tape._stack.pop()
        assert popped is self

    @classmethod
    def active(cls) -> "Tape | None":
        return cls._stack[-1] if cls._stack else None

    def backward(self, root: Tensor, seed: np.ndarray | None = None) -> None:
        """Propagate gradients from ``root`` back through all records."""
        if seed is None:
            seed = np.ones(root.shape, dtype=np.float64)
        root.accumulate_grad(np.asarray(seed, dtype=np.float64))
        for rec in reversed(self.records):
            g = rec.output.grad
            if g is None:
                continue
            grads = rec.backward(g)
            for t, gi in zip(rec.inputs, grads):
                if gi is None or not t.requires_grad:
                    continue
                if not np.all(np.isfinite(gi)):
                    raise NumericsError(f"non-finite gradient out of op '{rec.name}'")
                t.accumulate_grad(gi)


def _result(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward) -> Tensor:
    if not np.all(np.isfinite(out_data)):
        raise NumericsError(f"op '{name}' produced non-finite values")
    out = Tensor.__new__(Tensor)
    arr = np.asarray(out_data, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    if arr.base is not None and arr.base.flags.writeable:
        arr = arr.copy()
    if arr.flags.writeable:
        arr.flags.writeable = False
    out.data = arr
    out.grad = None
    tape = Tape.active()
    out.requires_grad = tape is not None and any(t.requires_grad for t in inputs)
    if out.requires_grad:
        tape.records.append(_Record(name, inputs, out, backward))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_shape(*shapes) -> tuple[int, ...] | None:
    """The numpy broadcast of ``shapes``, or None where they do not broadcast."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        return None


def _check_axis(axis: int, ndim: int) -> int:
    if not isinstance(axis, (int, np.integer)) or axis < 0 or axis >= ndim:
        raise ShapeError(f"axis {axis} out of range for rank {ndim} (negative axes unsupported)")
    return int(axis)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result("add", (a, b), out, backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _result("sub", (a, b), out, backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _result("mul", (a, b), out, backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data

    def backward(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _result("div", (a, b), out, backward)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return _result("neg", (a,), -a.data, lambda g: (-g,))


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return _result("relu", (a,), a.data * mask, lambda g: (g * mask,))


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    a = as_tensor(a)
    x = a.data
    u = _GELU_C * (x + 0.044715 * x**3)
    th = np.tanh(u)
    out = 0.5 * x * (1.0 + th)

    def backward(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        return (g * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th**2) * du),)

    return _result("gelu", (a,), out, backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _result("exp", (a,), out, lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)

    def backward(g):
        return (g / a.data,)

    return _result("log", (a,), out, backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)

    def backward(g):
        return (g * 0.5 / out,)

    return _result("sqrt", (a,), out, backward)


def clip_min(a, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient flows only where a > floor."""
    a = as_tensor(a)
    mask = a.data > floor
    out = np.where(mask, a.data, floor)
    return _result("clip_min", (a,), out, lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"reshape to {shape}: implicit/non-positive axes unsupported")
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} (size {a.size}) to {shape}")
    old = a.shape
    return _result("reshape", (a,), a.data.reshape(shape), lambda g: (g.reshape(old),))


def transpose(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation of rank {a.ndim}")
    inv = np.argsort(axes)
    return _result("transpose", (a,), np.transpose(a.data, axes), lambda g: (np.transpose(g, inv),))


def take_slice(a, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start, stop) along one axis."""
    a = as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    if not (0 <= start < stop <= a.shape[axis]):
        raise ShapeError(f"slice [{start}:{stop}) out of bounds for axis {axis} of {a.shape}")
    idx = tuple(slice(None) if i != axis else slice(start, stop) for i in range(a.ndim))

    def backward(g):
        full = np.zeros(a.shape, dtype=np.float64)
        full[idx] = g
        return (full,)

    return _result("slice", (a,), a.data[idx], backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = tuple(as_tensor(t) for t in tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    axis = _check_axis(axis, tensors[0].ndim)
    sizes = [t.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            g[tuple(slice(None) if i != axis else slice(offsets[j], offsets[j + 1])
                    for i in range(g.ndim))]
            for j in range(len(tensors))
        )

    return _result("concat", tensors, out, backward)


# ---------------------------------------------------------------------------
# reductions


def _norm_axes(axis, ndim) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, (int, np.integer)):
        return (_check_axis(int(axis), ndim),)
    return tuple(_check_axis(int(x), ndim) for x in axis)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    out = a.data.sum(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _result("sum", (a,), out, backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _norm_axes(axis, a.ndim)
    count = math.prod(a.shape[i] for i in axes)
    out = a.data.mean(axis=axes, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, a.shape).copy(),)

    return _result("mean", (a,), out, backward)


def variance(a, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance, built from differentiable primitives."""
    a = as_tensor(a)
    m = mean(a, axis=axis, keepdims=True)
    d = sub(a, m)
    v = mean(mul(d, d), axis=axis, keepdims=keepdims)
    return v


# ---------------------------------------------------------------------------
# matmul / softmax / attention / normalization / convolution


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _result("matmul", (a, b), out, backward)


def softmax(a, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtraction); one record."""
    a = as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        return (out * (g - (g * out).sum(axis=axis, keepdims=True)),)

    return _result("softmax", (a,), out, backward)


def log_softmax(a, axis: int) -> Tensor:
    """log(softmax(a)) computed as (a - c) - log(sum(exp(a - c))), c = max; one record."""
    a = as_tensor(a)
    axis = _check_axis(axis, a.ndim)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    out = z - np.log(np.exp(z).sum(axis=axis, keepdims=True))

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _result("log_softmax", (a,), out, backward)


def layer_norm(a, gamma, beta, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine; one record.

    ``gamma`` and ``beta`` must broadcast against ``a`` without growing it.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    if a.ndim < 1 or _broadcast_shape(a.shape, gamma.shape, beta.shape) != a.shape:
        raise ShapeError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} "
                         f"do not broadcast onto input {a.shape}")
    ax = a.ndim - 1
    d = a.data - a.data.mean(axis=ax, keepdims=True)
    std = np.sqrt((d * d).mean(axis=ax, keepdims=True) + eps)
    if not np.all(np.isfinite(std)):
        # d * d overflowed: the output would be beta alone, silently
        raise NumericsError("op 'layer_norm' produced a non-finite standard deviation")
    normed = d / std
    out = normed * gamma.data + beta.data

    def backward(g):
        gn = g * gamma.data
        ga = (gn - gn.mean(axis=ax, keepdims=True)
              - normed * (gn * normed).mean(axis=ax, keepdims=True)) / std
        return ga, _unbroadcast(g * normed, gamma.shape), _unbroadcast(g, beta.shape)

    return _result("layer_norm", (a, gamma, beta), out, backward)


def _split_heads(t: Tensor, heads: int) -> Tensor:
    """(..., L, d) -> (..., heads, L, d // heads) by reshape and transpose;
    head h holds features [h·d_h, (h+1)·d_h)."""
    *lead, n, d = t.shape
    split = reshape(t, (*lead, n, heads, d // heads))
    r = split.ndim
    return transpose(split, (*range(r - 3), r - 2, r - 3, r - 1))


def _merge_heads(t: Tensor) -> Tensor:
    """(..., heads, L, d_h) -> (..., L, heads·d_h); inverse of :func:`_split_heads`."""
    r = t.ndim
    t = transpose(t, (*range(r - 3), r - 2, r - 3, r - 1))
    return reshape(t, (*t.shape[:-2], t.shape[-2] * t.shape[-1]))


def _scaled_scores(q: Tensor, k: Tensor, scale: float) -> Tensor:
    """scale · Q K^T over the last two axes as one record; leading axes broadcast."""
    out = np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * scale

    def backward(g):
        gs = g * scale
        gq = np.matmul(gs, k.data)
        gk = np.matmul(np.swapaxes(gs, -1, -2), q.data)
        return _unbroadcast(gq, q.shape), _unbroadcast(gk, k.shape)

    return _result("attention_scores", (q, k), out, backward)


def attention(query, key, value, heads: int = 1) -> Tensor:
    """Scaled dot-product attention softmax(QK^T/sqrt(d_h))V in three records.

    Operates on the last two axes (sequence, features); leading axes
    broadcast, so key/value may be shared across a batched query. The tape
    gets the scores S = QK^T/sqrt(d_h) as one record (backward
    gQ = gS K / sqrt(d_h), gK = gS^T Q / sqrt(d_h)), then one
    :func:`softmax` record for the weights W, then one :func:`matmul` record
    for W V; each gradient is summed over the leading axes its operand was
    broadcast along, so a shared (L, C) key/value table gets its gradient.
    With ``heads`` > 1, reshape and transpose records split the feature axes
    to (..., heads, L, d_h) before the scores and merge them after W V: head
    h attends with features [h·d_h, (h+1)·d_h) and the head outputs sit side
    by side in the result.
    """
    q, k, v = as_tensor(query), as_tensor(key), as_tensor(value)
    if q.ndim < 2 or k.ndim < 2 or v.ndim < 2:
        raise ShapeError("attention operands need rank >= 2")
    d = q.shape[-1]
    if k.shape[-1] != d:
        raise ShapeError(f"query/key feature widths disagree: {d} vs {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"key/value lengths disagree: {k.shape[-2]} vs {v.shape[-2]}")
    dv = v.shape[-1]
    if heads < 1 or d % heads or dv % heads:
        raise ShapeError(f"head count {heads} must divide feature widths {d} and {dv}")
    if _broadcast_shape(q.shape[:-2], k.shape[:-2], v.shape[:-2]) is None:
        raise ShapeError(f"attention leading axes do not broadcast: "
                         f"{q.shape}, {k.shape}, {v.shape}")
    if heads > 1:
        q, k, v = (_split_heads(t, heads) for t in (q, k, v))
    scores = _scaled_scores(q, k, 1.0 / math.sqrt(d // heads))
    out = matmul(softmax(scores, axis=scores.ndim - 1), v)
    return _merge_heads(out) if heads > 1 else out


def _patches(x: np.ndarray, kt: int, kh: int, kw: int) -> np.ndarray:
    """Patch matrix (im2col) of a channels-last grid under 'same' zero padding.

    ``x`` is (B, T, H, W, C); row (b, t, h, w) of the (B·T·H·W, kT·kH·kW·C)
    result holds the padded window starting at (t, h, w), in (kT, kH, kW, C)
    order, so each row's innermost kW·C values are one contiguous run of the
    padded grid.
    """
    b, t, h, w, c = x.shape
    pt, ph, pw = kt // 2, kh // 2, kw // 2
    xp = np.zeros((b, t + 2 * pt, h + 2 * ph, w + 2 * pw, c))
    xp[:, pt:pt + t, ph:ph + h, pw:pw + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kt, kh, kw), axis=(1, 2, 3))
    # win: (B, T, H, W, C, kT, kH, kW)
    return win.transpose(0, 1, 2, 3, 5, 6, 7, 4).reshape(b * t * h * w, kt * kh * kw * c)


def conv3d(x, kernel) -> Tensor:
    """3D convolution over (T, H, W) with 'same' zero padding, stride 1; one record.

    ``x`` is (B, C_in, T, H, W); ``kernel`` is (C_out, C_in, kT, kH, kW) with
    odd kernel extents. Inside the op the grid is channels-last: the forward
    is one GEMM of the input's patch matrix (im2col, see :func:`_patches`)
    against the kernel. The backward rebuilds that patch matrix, rather than
    holding it for the life of the tape, for the kernel gradient
    g2^T @ patches (g2: the output gradient as (B·T·H·W, C_out)). The input
    gradient is the same-padded correlation of g with the flipped kernel,
    C_in and C_out swapped, through the same patch helper.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 5 or kernel.ndim != 5:
        raise ShapeError(f"conv3d expects 5-D input/kernel, got {x.shape}, {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape[1]} vs kernel {kernel.shape[1]}")
    c_out, c_in, kt, kh, kw = kernel.shape
    if kt % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv3d kernel extents must be odd, got {(kt, kh, kw)}")
    B, _, T, H, W = x.shape
    x_last = np.transpose(x.data, (0, 2, 3, 4, 1))                 # (B, T, H, W, C_in)
    k_last = np.transpose(kernel.data, (0, 2, 3, 4, 1)).reshape(c_out, -1)
    out = np.matmul(_patches(x_last, kt, kh, kw), k_last.T)        # (B·T·H·W, C_out)
    out = np.transpose(out.reshape(B, T, H, W, c_out), (0, 4, 1, 2, 3))

    def backward(g):
        g_last = np.transpose(g, (0, 2, 3, 4, 1))                  # (B, T, H, W, C_out)
        gk = np.matmul(g_last.reshape(-1, c_out).T, _patches(x_last, kt, kh, kw))
        gk = np.transpose(gk.reshape(c_out, kt, kh, kw, c_in), (0, 4, 1, 2, 3))
        flipped = kernel.data[:, :, ::-1, ::-1, ::-1]
        k_back = np.transpose(flipped, (1, 2, 3, 4, 0)).reshape(c_in, -1)
        gx = np.matmul(_patches(g_last, kt, kh, kw), k_back.T)     # (B·T·H·W, C_in)
        return np.transpose(gx.reshape(B, T, H, W, c_in), (0, 4, 1, 2, 3)), gk

    return _result("conv3d", (x, kernel), out, backward)


# ---------------------------------------------------------------------------
# gradient verification


def gradcheck(
    op: Callable[..., Tensor],
    inputs: Sequence,
    h: float = 1e-5,
    floor: float = 1e-8,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare tape gradients of sum(op(*inputs)) against central differences.

    Returns the worst elementwise relative error under a denominator floor.
    ``max_coords`` limits finite differencing to a random coordinate subset
    per input (for large parameter sets); None checks every coordinate.
    """
    if not (1e-6 <= h <= 1e-3):
        raise ValueError(f"perturbation h={h} outside [1e-6, 1e-3]")
    tensors = tuple(Tensor(as_tensor(x).data, requires_grad=True) for x in inputs)
    with Tape() as tape:
        out = op(*tensors)
        total = sum_(out)
    tape.backward(total)

    def f(arrays) -> float:
        return float(op(*(constant(a) for a in arrays)).data.sum())

    worst = 0.0
    if rng is None:
        rng = np.random.default_rng(0)
    for i, t in enumerate(tensors):
        analytic = t.grad if t.grad is not None else np.zeros(t.shape)
        if not np.all(np.isfinite(analytic)):
            raise GradcheckError(f"non-finite analytic gradient for input {i}")
        flat = analytic.reshape(-1)
        coords = np.arange(t.size)
        if max_coords is not None and t.size > max_coords:
            coords = rng.choice(t.size, size=max_coords, replace=False)
        for c in coords:
            base = [u.data.copy() for u in tensors]
            base[i].reshape(-1)[c] += h
            up = f(base)
            base = [u.data.copy() for u in tensors]
            base[i].reshape(-1)[c] -= h
            down = f(base)
            numeric = (up - down) / (2.0 * h)
            if not math.isfinite(numeric):
                raise GradcheckError(f"non-finite numeric gradient at input {i}, coord {c}")
            denom = max(floor, abs(flat[c]), abs(numeric))
            worst = max(worst, abs(flat[c] - numeric) / denom)
    return worst
