"""Ops only the tests' reference composites use, on autodiff's record API. Each
takes Tensors and runs the numpy expressions, in the order, of the library op
it was, so the composites stay bit-identical. It checks no operand and returns
a gradient for every input; the tape drops those of inputs that take none.

Also the gradient checker, :func:`gradcheck`, which the tests run on every op
and on the model's layers; ``__all__`` lists the ops only."""

import math

import numpy as np

from meshmotion import autodiff as ad

__all__ = ["sub", "div", "exp", "log", "clip_min", "take_slice", "mean"]


def sub(a, b):
    return ad._result("sub", (a, b), a.data - b.data, lambda g: (
        ad._unbroadcast(g, a.shape), ad._unbroadcast(-g, b.shape)))


def div(a, b):
    ax, bx = a.data, b.data
    return ad._result("div", (a, b), ax / bx, lambda g: (
        ad._unbroadcast(g / bx, a.shape), ad._unbroadcast(-g * ax / (bx * bx), b.shape)))


def exp(a):
    out = np.exp(a.data)
    return ad._result("exp", (a,), out, lambda g: (g * out,))


def log(a):
    x = a.data
    return ad._result("log", (a,), np.log(x), lambda g: (g / x,))


def clip_min(a, floor):
    mask = a.data > floor
    return ad._result("clip_min", (a,), np.where(mask, a.data, floor), lambda g: (g * mask,))


def take_slice(a, axis, start, stop):
    idx = (slice(None),) * axis + (slice(start, stop),)

    def backward(g):
        full = np.zeros(a.shape)
        full[idx] = g
        return (full,)

    return ad._result("slice", (a,), a.data[idx], backward)


def mean(a, axis=None, keepdims=False):
    axes = tuple(range(a.ndim)) if axis is None else (axis,)
    count = math.prod(a.shape[i] for i in axes)
    return ad._result("mean", (a,), a.data.mean(axis=axes, keepdims=keepdims), lambda g: (
        np.broadcast_to((g if keepdims else np.expand_dims(g, axes)) / count, a.shape).copy(),))


class GradcheckError(AssertionError):
    """Gradient verification hit non-finite values."""


_GRADCHECK_FLOOR = 1e-8  # gradcheck's least relative-error denominator
_GRADCHECK_H = 1e-5  # gradcheck's central-difference step


def gradcheck(op, inputs, max_coords=None):
    """Compare tape gradients of sum(op(*inputs)) against central differences.

    Returns the worst elementwise relative error under a denominator floor.
    ``max_coords`` limits finite differencing to a coordinate subset per
    input (for large parameter sets), drawn from one generator seeded 0;
    None checks every coordinate, and a value below 1 raises ``ValueError``.
    """
    if max_coords is not None and max_coords < 1:
        raise ValueError(f"max_coords={max_coords} checks no coordinate")
    tensors = tuple(ad.Tensor(ad.as_tensor(x).data, requires_grad=True) for x in inputs)
    with ad.Tape() as tape:
        out = op(*tensors)
        total = ad.sum_(out)
    tape.backward(total)

    def f(arrays) -> float:
        return float(op(*(ad.constant(a) for a in arrays)).data.sum())

    worst = 0.0
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
            base[i].reshape(-1)[c] += _GRADCHECK_H
            up = f(base)
            base = [u.data.copy() for u in tensors]
            base[i].reshape(-1)[c] -= _GRADCHECK_H
            down = f(base)
            numeric = (up - down) / (2.0 * _GRADCHECK_H)
            if not math.isfinite(numeric):
                raise GradcheckError(f"non-finite numeric gradient at input {i}, coord {c}")
            denom = max(_GRADCHECK_FLOOR, abs(flat[c]), abs(numeric))
            worst = max(worst, abs(flat[c] - numeric) / denom)
    return worst
