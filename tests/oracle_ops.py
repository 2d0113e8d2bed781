"""Ops only the tests' reference composites use, on autodiff's record API. Each
takes Tensors (``add`` also raw operands, since composites add scalars) and
runs the numpy expressions, in the order, of the library op it was, so the
composites stay bit-identical; ``add`` is the reference for a unit-weight
``lincomb``. It checks no operand and returns a gradient for every input; the
tape drops those of inputs that take none.

Also the gradient checker, :func:`gradcheck`, which the tests run on every op
and on the model's layers; :class:`SlotAdam`, the per-slot Adam step that
``model.Adam``'s one flat pass must match bit for bit; and
:func:`spatial_patches`, the sliding-window patch matrix that conv3d's
gather must match bit for bit; and :func:`noise_by_steps`, the per-step
noising loop over explicitly given per-step factors, whose marginal
``diffusion.forward_noise_step`` forms in closed form from their running
products, the schedule's abar. ``__all__`` lists the ops only."""

import math

import numpy as np

from meshmotion import autodiff as ad

__all__ = ["add", "sub", "div", "exp", "log", "sqrt", "clip_min", "take_slice", "mean"]


def add(a, b):
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    return ad._result("add", (a, b), a.data + b.data, lambda g: (
        ad._unbroadcast(g, a.shape), ad._unbroadcast(g, b.shape)))


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


def sqrt(a):
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.data)
    return ad._result("sqrt", (a,), out, lambda g: (g * 0.5 / out,))


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


def spatial_patches(x, kt, kh, kw):
    """conv3d's spatial patch matrix of the (B, T, H, W, C) ``x`` as a
    sliding-window view of the padded grid, transposed to (kH, kW, C)
    columns and reshaped to (B, T+kT-1, H·W, kH·kW·C)."""
    b, t, h, w, c = x.shape
    pt, ph, pw = kt // 2, kh // 2, kw // 2
    xp = np.zeros((b, t + 2 * pt, h + 2 * ph, w + 2 * pw, c))
    xp[:, pt:pt + t, ph:ph + h, pw:pw + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    # win: (B, T+kT-1, H, W, C, kH, kW)
    return win.transpose(0, 1, 2, 3, 5, 6, 4).reshape(b, t + 2 * pt, h * w, kh * kw * c)


def noise_by_steps(x0, alphas, draws):
    """z_t of the per-step noising recurrence over the per-step factors
    ``alphas`` (alpha_s = abar_s / abar_(s-1)), one draw per step:
    z_s = sqrt(1 - alpha_s) draw_s + sqrt(alpha_s) z_{s-1} for s = 1..t, with
    t = len(alphas), from z_0 = ``x0``; its marginal is q(z_t | x0), with
    abar_t the product of ``alphas``."""
    z = np.asarray(x0, dtype=np.float64)
    for a, draw in zip(alphas, draws, strict=True):
        z = draw * math.sqrt(1.0 - a) + z * math.sqrt(a)
    return z


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
        return float(op(*(ad.Tensor(a) for a in arrays)).data.sum())

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


class SlotAdam:
    """Adam one parameter slot at a time: moments keyed by slot name, and
    each slot replaced by a fresh tensor of its new value.
    The textbook per-element expressions, in the order ``model.Adam`` must
    reproduce."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, slots, lr=1e-3):
        self.slots = slots
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(holder[key].shape) for k, (holder, key) in slots.items()}
        self.v = {k: np.zeros(holder[key].shape) for k, (holder, key) in slots.items()}

    def step(self):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, (holder, key) in self.slots.items():
            t = holder[key]
            g = t.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            new = t.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
            holder[key] = ad.Tensor(new, requires_grad=True)
