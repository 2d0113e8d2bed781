"""Ops only the tests' reference composites use, on autodiff's record API. Each
takes Tensors and runs the numpy expressions, in the order, of the library op
it was, so the composites stay bit-identical. It checks no operand and returns
a gradient for every input; the tape drops those of inputs that take none."""

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
