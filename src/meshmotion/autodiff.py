"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every differentiable operation records itself on the active :class:`Tape`;
``Tape.backward`` replays the records in exact reverse execution order and
accumulates gradients additively. Only leaves keep ``.grad`` after backward:
tensors no record produced, such as parameters. A record output's gradient is
freed once that record's backward has run, so backward holds the gradients
still to be used, not one per record. A backward returns None for an input
that does not require a gradient (noise draws, targets, scalars), so
constants cost no gradient arithmetic.

An op run with no tape active (``Model.predict``, ``evaluate``, a gradient
check's finite differences) keeps its value only: it returns through
:func:`_result` before it builds its backward closure or computes what only
that closure reads (gradient shapes, kept operands), so untaped ops run the
same value expressions at less fixed cost. The shape checks that are pure
functions of shapes (:func:`_broadcast_shape`, :func:`_check_attention` and
:func:`_check_attention_layer`) are cached once per shape signature, and the
segment tables that
``segment_softmax_kl`` and ``part_loss.part_weights_from_variance`` read
(the checked starts, the segment sizes and each column's segment) once per
(starts, n) (:func:`_segment_tables`); a check that fails caches nothing and
raises again on every bad call.

The tape holds gradient slots, not values. A record's output tensor points at
its slot (:class:`_Slot`: the gradient, the shape and a weak reference to the
value), and a record's inputs and output are slots; a leaf is its own slot.
So a value lives only as long as the model code or a backward closure holds
it, and each closure keeps only what its backward reads, as each op's
docstring states: ``matmul``, ``affine`` and ``mul`` keep an operand only
when the other operand takes a gradient, ``lincomb`` and ``sum_`` keep
shapes, ``softmax`` its output, and ``relu`` its one-byte mask. A value
the model code has dropped is freed during the forward unless a backward
reads it: the noise predictor's output (the ``lincomb`` that adds it keeps
shapes), and a ``relu`` input and output inside the graph+time pass (the
relu keeps its mask, and the graph convolution's product keeps its constant
adjacency). An input that takes no gradient is stored as None, so a constant
such as a noise draw is freed once the forward has used it. A constant needs
no op of its own: it passes as a raw array, which each op wraps
(:func:`as_tensor`) as a tensor that takes no gradient. ``layer_norm``
recomputes its full-size intermediates from the input in backward, and
``attention_layer`` its key, value and query projections, scores, softmax
weights W and W v, with the forward's expressions in the same order, instead
of holding them. And the model's hot composites are one record each, so an
intermediate that no backward reads is no record output. Each has an analytic backward that
runs the same numpy expressions in the same order as the primitives it
replaces: ``lincomb`` (a·alpha + b·beta, a noising step or the v-form
estimate; a + b is a unit-weight lincomb, the one sum op), ``mse`` (the
mean squared error against a constant target), ``affine`` (x @ w + c, a linear
layer), ``softmax``, ``layer_norm``, ``conv3d``, ``segment_softmax_kl`` (the
weighted KL between segment-wise softmaxes of (S, n, F) feature-row norms,
the part loss of one level) and ``attention_layer``.

``attention_layer`` is the one attention op, the residual layer
x + softmax((x @ wq) kᵀ/√d) v @ wo of arXiv 1706.03762 with
k = context @ wk and v = context @ wv projected inside the record. It serves
the model's cross-attentions, whose context is the diffusion block's learned
table or its dependencies, and its temporal attention, whose context is x
itself. It keeps x, the context and the four weights and, of the softmax,
only each row's max and exp-sum, from which backward rebuilds W bit for
bit; it recomputes the keys and values. ``attention``, the reference
composite, is a ``transpose`` of the keys, a ``matmul``, a ``mul`` by 1/√d,
a ``softmax`` and a ``matmul``. ``matmul``, ``affine`` and every product
inside ``attention_layer`` take their gradients from one routine,
:func:`_matmul_grads`. ``conv3d`` takes and returns a channels-last
(B, T, H, W, C) grid and lowers to GEMMs on a spatial-only patch matrix, one
GEMM per temporal tap, with no transpose of the grid on either side.

An op that produces a non-finite value raises :class:`NumericsError`
immediately, naming itself, instead of letting NaN/Inf spread; callers that
want that error as the only signal run a whole step under ``np.errstate``
(see ``model.train``). Every ``Tensor`` holds finite values, so only an op
whose arithmetic can overflow or make a NaN scans what it makes. One rule
serves values and gradients: :func:`_result` scans each op's output and
``Tape.backward`` each gradient a record returns, unless the op is in
``_UNSCANNED``; ``attention_layer`` also scans its projections and scores,
and ``layer_norm`` its standard deviation. The three ops in ``_UNSCANNED``
cannot make a NaN/Inf from finite operands, forward or backward:
``reshape`` and ``transpose`` move values or a gradient, and ``relu``
multiplies them by 0 or 1. That spares 16 of the 56 gradient scans of a
default deterministic step and 22 of the 103 of a diffusion step. Operands
that do not fit the op raise :class:`ShapeError` naming their shapes.

Layout rule for the kernels a training step runs (``matmul``,
``layer_norm``, ``attention_layer``'s :func:`_softmax_rows`, and
:func:`_unbroadcast`, which sums every bias and shift gradient over the axes
broadcasting added): no numpy reduction over a short last axis, one GEMM
for a shared operand's gradient, and no product that reads a transposed
right operand. ``softmax`` and ``sum_``, which no step calls, follow it
too. numpy reduces a 3- to 24-wide last axis row by row, several times
slower than the same sum as a GEMV against a ones or 1/C vector, or a
reduction over the leading axis of a copy with the reduced axis first. A
2-D matrix that every leading index shares (a weight, a shared key or value
table) gets its gradient as one GEMM over the flattened rows, not as a
batch of small products summed afterwards. And numpy's matmul takes a slow
path when its right operand is a transposed view: a (1536, 8) @ (8, 8)ᵀ
weight's x-gradient takes 10–12 µs, against 5–6 µs with a contiguous copy of
wᵀ, so every such operand (:func:`_matmul_grads`, :func:`_scores`) is copied
first. With the scan rule above, this took a default deterministic step's
backward from 2.69 to 2.47 ms (medians of 30 paired 60-step ``model.train``
calls on a 2-core Xeon, OpenBLAS on one thread); every loss and gradient of
the default configuration is bit-identical.

Tolerances are module constants, not arguments: ``PROB_FLOOR`` in
``segment_softmax_kl``'s logs, ``_SCORE_EPS`` under its row norms and
``_LN_EPS`` in ``layer_norm``. The gradient checker that verifies every op
against central differences lives with the tests (``tests/oracle_ops.py``).
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "NumericsError",
    "ShapeError",
    "as_tensor",
    "mul",
    "lincomb",
    "mse",
    "matmul",
    "affine",
    "relu",
    "reshape",
    "transpose",
    "sum_",
    "softmax",
    "segment_softmax_kl",
    "layer_norm",
    "conv3d",
    "attention",
    "attention_layer",
]


class NumericsError(ArithmeticError):
    """An operation produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class Tensor:
    """Immutable dense float64 array, optionally tracked for gradients.

    ``data`` is a row-major, read-only numpy array. A leaf (a tensor no
    record produced, such as a parameter) is its own gradient slot: the tape
    holds the leaf itself and ``Tape.backward`` accumulates into its
    ``grad``, the only mutable state. A leaf's ``grad`` may share memory with
    an array a record's backward returned, so it is read-only by convention:
    accumulation builds a new array rather than adding in place, and no
    reader writes into it. A record's output points at its :class:`_Slot`
    instead, which takes its gradients during backward; its own ``grad``
    stays None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if not np.isfinite(arr).all():
            raise NumericsError("tensor constructed with non-finite values")
        arr.flags.writeable = False
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._slot: _Slot | None = None

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

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match tensor shape {self.shape}"
            )
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


_FREED = np.empty(0)
_FREED.flags.writeable = False


class _Slot:
    """Where a record's output takes its gradient: ``grad``, ``shape`` and a
    weak reference to the value.

    The tape holds slots, not values, so a value lives only as long as the
    model code or some backward closure holds it. ``data`` is the value while
    it is alive and a zero-size array once it has been freed.
    """

    __slots__ = ("grad", "shape", "_value")

    def __init__(self, value: np.ndarray):
        self.grad: np.ndarray | None = None
        self.shape = value.shape
        self._value = weakref.ref(value)

    @property
    def data(self) -> np.ndarray:
        value = self._value()
        return _FREED if value is None else value

    accumulate_grad = Tensor.accumulate_grad


def _slot_of(t: Tensor) -> Tensor | _Slot:
    """Where ``t``'s gradient goes: its record's slot, or the leaf itself."""
    return t if t._slot is None else t._slot


def as_tensor(x) -> Tensor:
    """``x`` itself if it is a :class:`Tensor`, else raw data wrapped as a
    tensor that takes no gradient: how every op takes a constant operand."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _leaf_view(arr: np.ndarray) -> Tensor:
    """A leaf that takes a gradient, over ``arr`` itself: no copy and no
    check. The caller hands in a finite, C-contiguous float64 view whose
    base is read-only, so no one can write it again (``model.Adam`` gives
    each parameter slot such a view of its flat parameter vector)."""
    out = Tensor.__new__(Tensor)
    out.data = arr
    out.requires_grad = True
    out.grad = None
    out._slot = None
    return out


class _Record:
    """One executed op: ``inputs`` and ``output`` are gradient slots (a leaf
    is its own), with None for an input that takes no gradient."""

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
        self._backward_ran = False

    def __enter__(self) -> "Tape":
        Tape._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = Tape._stack.pop()
        assert popped is self

    def backward(self, root: Tensor, seed: np.ndarray | None = None) -> None:
        """Propagate gradients from ``root`` back through all records.

        ``root`` is a record's output or a leaf; ``seed`` (ones by default)
        goes into its slot. Accumulates into the ``.grad`` of every leaf.
        Each record's slot releases its gradient once that record's backward
        has run (every consumer of that output was recorded later and so has
        already run), so after backward only leaves keep ``.grad``. A record
        input that took no gradient is None and gets nothing. Backward reads
        no record's value, only what each closure kept, so values freed
        during the forward change no number. A tape runs backward once: a
        second call raises ``RuntimeError`` instead of adding the gradient to
        every leaf again. A seed holding a NaN or Inf raises
        :class:`NumericsError` naming the seed, not the first op it reaches.

        Each gradient a record returns is scanned for NaN/Inf
        (:class:`NumericsError` naming the op) unless the record's op is in
        ``_UNSCANNED``, the rule :func:`_result` applies to values:
        ``reshape`` and ``transpose`` move a finite gradient and ``relu``
        masks it, so theirs are finite when the upstream one is.
        """
        if self._backward_ran:
            raise RuntimeError("backward already ran on this tape")
        seed = (np.ones(root.shape, dtype=np.float64) if seed is None
                else np.asarray(seed, dtype=np.float64))
        if not np.isfinite(seed).all():
            raise NumericsError("non-finite backward seed")
        self._backward_ran = True
        _slot_of(root).accumulate_grad(seed)
        for rec in reversed(self.records):
            g = rec.output.grad
            if g is None:
                continue
            grads = rec.backward(g)
            rec.output.grad = None
            scan = rec.name not in _UNSCANNED
            for t, gi in zip(rec.inputs, grads):
                if t is None or gi is None:
                    continue
                if scan and not np.isfinite(gi).all():
                    raise NumericsError(f"non-finite gradient out of op '{rec.name}'")
                t.accumulate_grad(gi)


def _check_finite(name: str, what: str, arr: np.ndarray) -> None:
    """Raise :class:`NumericsError`, naming op ``name`` and ``what`` of it
    ``arr`` is, if ``arr`` holds a NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NumericsError(f"op '{name}' produced a non-finite {what}")


# ops whose output _result and whose gradients Tape.backward do not scan: a
# reshape or transpose moves its operand's values or its gradient, and relu
# multiplies them by 0 or 1, so from finite operands (every Tensor's, every
# scanned gradient) they make no NaN/Inf
_UNSCANNED = frozenset({"reshape", "transpose", "relu"})


def _result(name: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward) -> Tensor:
    """``out_data`` as op ``name``'s read-only output, recorded with
    ``backward`` when a tape is active and some input takes a gradient.

    The output is scanned for NaN/Inf (:class:`NumericsError`, "op 'name'
    produced a non-finite output") unless ``name`` is in ``_UNSCANNED``:
    ``reshape``, ``transpose`` and ``relu``, whose outputs are finite because
    their operands are. Every other op, whose arithmetic can overflow or make
    a NaN, is scanned here.

    With no tape active an op passes None for ``backward``: it returns its
    value here before it builds its closure or computes what only the
    closure reads, so an untaped op keeps nothing but its value.
    """
    arr = out_data
    if type(arr) is not np.ndarray or arr.dtype != np.float64:
        arr = np.asarray(arr, dtype=np.float64)
    if name not in _UNSCANNED:
        _check_finite(name, "output", arr)
    out = Tensor.__new__(Tensor)
    if arr.ndim > 0 and not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    if arr.base is not None and arr.base.flags.writeable:
        arr = arr.copy()
    if arr.flags.writeable:
        arr.flags.writeable = False
    out.data = arr
    out.grad = None
    stack = Tape._stack
    out.requires_grad = bool(stack) and any(t.requires_grad for t in inputs)
    out._slot = None
    if out.requires_grad:
        # the record holds slots, not values; a constant input is not kept
        # at all: no gradient goes to it
        out._slot = _Slot(arr)
        inputs = tuple(_slot_of(t) if t.requires_grad else None for t in inputs)
        stack[-1].records.append(_Record(name, inputs, out._slot, backward))
    return out


def _grad_shape(t: Tensor) -> tuple[int, ...] | None:
    """``t``'s shape if it takes a gradient, else None: what a backward that
    only unbroadcasts ``g`` onto ``t`` needs to keep of it."""
    return t.shape if t.requires_grad else None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded.

    The leading run of expanded axes (the axes broadcasting added, and any
    length-1 axes of ``shape`` right after them) sums as one GEMV of a ones
    vector against the flattened rows. Only a length-1 axis of ``shape``
    after one it keeps takes a numpy reduction.
    """
    if g.shape == shape:
        return g
    padded = (1,) * (g.ndim - len(shape)) + tuple(shape)
    k = 0
    while k < g.ndim and padded[k] == 1:
        k += 1
    if k:
        lead, rest = math.prod(g.shape[:k]), g.shape[k:]
        # the row width is explicit: reshape(0, -1) of a zero-size g raises
        g = (np.ones(lead) @ g.reshape(lead, math.prod(rest))).reshape(rest)
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, padded[k:]))
                 if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


_SHAPE_CACHE = 256  # shape signatures each cached shape check keeps


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _broadcast_shape(*shapes) -> tuple[int, ...] | None:
    """The numpy broadcast of ``shapes``, or None where they do not broadcast."""
    try:
        return np.broadcast_shapes(*shapes)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# elementwise ops


def _no_broadcast(name: str, a: Tensor, b: Tensor) -> ShapeError:
    return ShapeError(f"{name}: operand shapes {a.shape} and {b.shape} do not broadcast")


# the binary ops let numpy find a broadcast mismatch and translate its
# ValueError, so the happy path pays for no shape check


def mul(a, b) -> Tensor:
    """a · b, broadcasting; the backward keeps each operand only when the
    other takes a gradient."""
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data * b.data
    except ValueError:
        raise _no_broadcast("mul", a, b) from None
    if not Tape._stack:
        return _result("mul", (a, b), out, None)
    sa, sb = _grad_shape(a), _grad_shape(b)
    ax = a.data if sb is not None else None
    bx = b.data if sa is not None else None

    def backward(g):
        return (None if sa is None else _unbroadcast(g * bx, sa),
                None if sb is None else _unbroadcast(g * ax, sb))

    return _result("mul", (a, b), out, backward)


def _times(x: np.ndarray, c: float) -> np.ndarray:
    """x·c; a product by 1 is exact, so it is skipped and ``x`` returned."""
    return x if c == 1.0 else x * c


def lincomb(a, alpha: float, b, beta: float) -> Tensor:
    """a·alpha + b·beta for scalar coefficients; one record.

    The one sum op: a + b is ``lincomb(a, 1.0, b, 1.0)``. A product by a
    coefficient of exactly 1 is skipped in the forward and the backward, so
    a unit-weight lincomb runs a + b's expressions at its cost. The backward
    keeps the operands' shapes, not the operands, so a constant operand is
    freed once the forward has used it.

    The value and each gradient are bit-identical to the sum of
    ``mul(a, alpha)`` and ``mul(b, beta)``: the backward reduces a broadcast
    operand's gradient first and then scales it, as that composite does. With
    alpha = 1 and beta = -c it also equals a − b·c bit for bit, since
    a·1 = a and negation is exact.
    """
    a, b = as_tensor(a), as_tensor(b)
    alpha, beta = float(alpha), float(beta)
    try:
        out = _times(a.data, alpha) + _times(b.data, beta)
    except ValueError:
        raise _no_broadcast("lincomb", a, b) from None
    if not Tape._stack:
        return _result("lincomb", (a, b), out, None)
    sa, sb = _grad_shape(a), _grad_shape(b)

    def backward(g):
        return (None if sa is None else _times(_unbroadcast(g, sa), alpha),
                None if sb is None else _times(_unbroadcast(g, sb), beta))

    return _result("lincomb", (a, b), out, backward)


def mse(pred, target) -> Tensor:
    """mean((pred - target)²) over every element against a constant target; one record.

    ``target`` has ``pred``'s shape and is not a record input: it carries no
    gradient, and the tape keeps only the difference the backward reads. The
    value and gradient are bit-identical to the mean of ``mul(d, d)``, with
    d = pred − target, in three records.
    """
    p, target = as_tensor(pred), as_tensor(target).data
    if target.shape != p.shape:
        raise ShapeError(f"mse: prediction {p.shape} and target {target.shape} differ in shape")
    d = p.data - target
    out = (d * d).mean(axis=tuple(range(d.ndim)))
    if not Tape._stack:
        return _result("mse", (p,), out, None)
    count = d.size

    def backward(g):
        half = g / count * d
        return (half + half,)

    return _result("mse", (p,), out, backward)


def relu(a) -> Tensor:
    """max(a, 0). The backward keeps the boolean mask a > 0, one byte per
    element, not the input."""
    a = as_tensor(a)
    mask = a.data > 0.0
    return _result("relu", (a,), a.data * mask,
                   (lambda g: (g * mask,)) if Tape._stack else None)


# ---------------------------------------------------------------------------
# shape ops


def reshape(a, shape: Sequence[int]) -> Tensor:
    """A view of ``a`` in ``shape``; the backward keeps the old shape."""
    a = as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if any(s <= 0 for s in shape):
        raise ShapeError(f"reshape to {shape}: implicit/non-positive axes unsupported")
    if math.prod(shape) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} (size {a.size}) to {shape}")
    old = a.shape
    return _result("reshape", (a,), a.data.reshape(shape),
                   (lambda g: (g.reshape(old),)) if Tape._stack else None)


def transpose(a, axes: Sequence[int]) -> Tensor:
    """``a`` with its axes permuted; the backward keeps the inverse permutation."""
    a = as_tensor(a)
    axes = tuple(int(x) for x in axes)
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"axes {axes} is not a permutation of rank {a.ndim}")
    out = np.transpose(a.data, axes)
    if not Tape._stack:
        return _result("transpose", (a,), out, None)
    inv = np.argsort(axes)
    return _result("transpose", (a,), out, lambda g: (np.transpose(g, inv),))


# ---------------------------------------------------------------------------
# reductions


def _row_dot(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The last axis of ``x`` against the vector ``v``, kept as length 1: one GEMV
    over the flattened rows, where a numpy reduction would walk each short row."""
    rows = math.prod(x.shape[:-1])
    return (x.reshape(rows, v.size) @ v).reshape(x.shape[:-1] + (1,))


def sum_(a, axis: int | None = None) -> Tensor:
    """Sum over one ``axis`` (all axes for None). A sum over the last axis alone
    is one GEMV against a ones vector (:func:`_row_dot`). The backward keeps
    the input's shape."""
    a = as_tensor(a)
    if axis is None:
        axes = tuple(range(a.ndim))
    elif isinstance(axis, (int, np.integer)) and 0 <= axis < a.ndim:
        axes = (int(axis),)
    else:
        raise ShapeError(f"axis {axis} is not an int in [0, {a.ndim}) (negative axes unsupported)")
    shape = a.shape
    out = (_row_dot(a.data, np.ones(shape[-1])).reshape(shape[:-1]) if axes == (a.ndim - 1,)
           else a.data.sum(axis=axes))
    return _result("sum", (a,), out,
                   (lambda g: (np.broadcast_to(np.expand_dims(g, axes), shape).copy(),))
                   if Tape._stack else None)


# ---------------------------------------------------------------------------
# matmul / softmax / attention / normalization / convolution


def _matmul_grads(g, a, b, sa, sb, shared: bool):
    """The gradients of a @ b for the upstream ``g``: None for an operand
    whose shape ``sa`` or ``sb`` is None (it takes no gradient), so each
    operand is read only for the other's gradient.

    With ``shared`` (``b`` is a 2-D matrix that every leading index of ``a``
    shares: a weight, or a shared table of keys or values) each gradient is
    one GEMM over the flattened rows of ``a`` and ``g``: the ``b`` gradient
    sums over those rows inside the GEMM instead of summing a batch of
    products after.

    It serves every product on the tape: ``matmul``, ``affine`` and those
    inside ``attention_layer``, whose scores pass kᵀ as ``b``. The ``a``
    gradient g bᵀ reads a contiguous copy of bᵀ (for a kᵀ view, k itself),
    never the transposed view, on which numpy's matmul takes a slow path
    (see the module docstring's layout rule).
    """
    ga = gb = None
    if shared:
        # g is a's leading axes by b's columns
        rows = math.prod(g.shape[:-1])
        g_rows = g.reshape(rows, g.shape[-1])
        if sa is not None:
            ga = (g_rows @ np.ascontiguousarray(b.T)).reshape(sa)
        if sb is not None:
            gb = a.reshape(rows, sb[0]).T @ g_rows
        return ga, gb
    if sa is not None:
        ga = _unbroadcast(np.matmul(g, np.ascontiguousarray(np.swapaxes(b, -1, -2))), sa)
    if sb is not None:
        gb = _unbroadcast(np.matmul(np.swapaxes(a, -1, -2), g), sb)
    return ga, gb


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast.

    A 2-D ``b`` shared by every leading index of ``a`` gets its gradient as
    one GEMM (:func:`_matmul_grads`). The backward keeps each operand only
    for the other's gradient: a constant ``a`` such as an adjacency matrix
    keeps ``a`` and frees ``b``.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs rank >= 2 operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    if not Tape._stack:
        return _result("matmul", (a, b), out, None)
    sa, sb = _grad_shape(a), _grad_shape(b)
    ax = a.data if sb is not None else None
    bx = b.data if sa is not None else None
    shared = b.ndim == 2
    return _result("matmul", (a, b), out,
                   lambda g: _matmul_grads(g, ax, bx, sa, sb, shared))


def affine(x, w, c) -> Tensor:
    """x @ w + c for a 2-D ``w``; one record.

    ``c`` is a bias or a residual: it broadcasts onto the product without
    growing it. The value and each gradient are bit-identical to
    ``matmul(x, w)`` with ``c`` added after; the product's own output, which
    no backward reads, is not kept on the tape. The backward keeps ``x`` only
    for the ``w`` gradient and ``w`` only for the ``x`` gradient, and of
    ``c`` its shape.
    """
    x, w, c = as_tensor(x), as_tensor(w), as_tensor(c)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"affine needs x (..., k) of rank >= 2 and w (k, m), "
                         f"got {x.shape} @ {w.shape}")
    out = np.matmul(x.data, w.data)
    try:
        out += c.data
    except ValueError:
        raise ShapeError(f"affine: c {c.shape} does not broadcast onto x @ w "
                         f"{out.shape} without growing it") from None
    if not Tape._stack:
        return _result("affine", (x, w, c), out, None)
    sx, sw, sc = _grad_shape(x), _grad_shape(w), _grad_shape(c)
    xx = x.data if sw is not None else None
    wx = w.data if sx is not None else None

    def backward(g):
        gx, gw = _matmul_grads(g, xx, wx, sx, sw, True)
        return gx, gw, None if sc is None else _unbroadcast(g, sc)

    return _result("affine", (x, w, c), out, backward)


def softmax(a) -> Tensor:
    """Numerically stable softmax over the last axis (max-subtraction); one record.

    The input's rows of length n are copied to an (n, rows) array with the
    softmax axis first. The max, the subtraction, exp and the sum then run
    over axis 0, on whole contiguous rows and in place; the result is
    written back in the input's layout. The backward keeps the output, not
    the input; its sum Σ g·out over the last axis is one GEMV against a ones
    vector (:func:`_row_dot`).
    """
    a = as_tensor(a)
    if a.ndim == 0 or a.shape[-1] == 0:
        raise ShapeError(f"softmax needs a non-empty last axis, got {a.shape}")
    out = np.ascontiguousarray(_softmax_rows(a.data)[0])
    return _result("softmax", (a,), out,
                   (lambda g: (_softmax_grad(g, out),)) if Tape._stack else None)


def _softmax_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable softmax over the last axis of ``x``, through a transposed
    scratch copy (see :func:`softmax`), with each row's max and exp-sum.

    Returns W, a strided view of the scratch in ``x``'s shape, and the max m
    and sum s as (rows,) vectors, where rows is every axis of ``x`` but the
    last, flattened. :func:`_softmax_rebuild` remakes W from the scores and
    these two vectors bit for bit.
    """
    n = x.shape[-1]
    w = x.reshape(-1, n).T.copy()
    m = w.max(axis=0)
    w -= m
    np.exp(w, out=w)
    s = w.sum(axis=0)
    w /= s
    return w.T.reshape(x.shape), m, s


def _softmax_rebuild(scores: np.ndarray, m: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The softmax W of ``scores`` from the row max ``m`` and exp-sum ``s`` that
    :func:`_softmax_rows` returned for them; overwrites ``scores`` with W.

    W = exp(scores − m) / s, one element at a time with the forward's own
    subtraction, exp and division, so it equals the forward's W bit for bit:
    the row layout changes the order of no sum, only where each element sits.
    """
    w = scores.reshape(-1, scores.shape[-1])
    w -= m[:, None]
    np.exp(w, out=w)
    w /= s[:, None]
    return scores


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The softmax input's gradient from the upstream ``g`` and the output."""
    # g may be a leaf's .grad: it is read, never written
    gi = g - _row_dot(g * out, np.ones(out.shape[-1]))
    gi *= out
    return gi


def _segment_softmax(x: np.ndarray, starts: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Stable softmax over each contiguous column segment of the (S, n) ``x``."""
    e = np.exp(x - np.maximum.reduceat(x, starts, axis=1)[:, seg])
    return e / np.add.reduceat(e, starts, axis=1)[:, seg]


def _segment_tables(starts, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``starts`` checked to split ``n`` vertices into contiguous segments
    (one-dimensional, increasing, first 0, last below n), as read-only index
    arrays: the starts, the segment sizes and each column's segment.

    Built once per (starts, n) (:func:`_checked_segments`); starts that fail
    the check cache nothing and raise again on every call.
    """
    arr = np.asarray(starts, dtype=np.intp)
    if arr.ndim != 1:
        raise ShapeError(f"segment starts {arr.tolist()} do not split {n} vertices")
    return _checked_segments(tuple(arr.tolist()), n)


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _checked_segments(starts: tuple[int, ...], n: int):
    arr = np.array(starts, dtype=np.intp)
    if arr.size == 0 or arr[0] != 0 or np.any(np.diff(arr) <= 0) or arr[-1] >= n:
        raise ShapeError(f"segment starts {list(starts)} do not split {n} vertices")
    sizes = np.diff(arr, append=n)
    seg = np.repeat(np.arange(arr.size), sizes)
    for table in (arr, sizes, seg):
        table.flags.writeable = False
    return arr, sizes, seg


PROB_FLOOR = 1e-12  # probabilities are floored here inside a log (segment_softmax_kl)
_SCORE_EPS = 1e-12  # added to a squared feature-row norm under segment_softmax_kl's root
_LN_EPS = 1e-5  # added to the variance under layer_norm's square root


def _row_norms(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sqrt(Σ f² + ``_SCORE_EPS``) over the last axis of ``f``, the sum one GEMV
    (:func:`_row_dot`), written into ``out``."""
    return np.sqrt(_row_dot(f * f, np.ones(f.shape[-1])).reshape(f.shape[:-1]) + _SCORE_EPS,
                   out=out)


def segment_softmax_kl(features, target_features, starts, weights) -> Tensor:
    """Σ_p w_p · mean over rows of KL(softmax_p(target) ‖ softmax_p(scores)); one record.

    ``features`` is (S, n, F) and ``target_features`` (S, n, F'); the
    channel counts may differ. Each vertex row scores its norm
    sqrt(Σ f² + ``_SCORE_EPS``). The n score columns split into contiguous
    segments p that begin at ``starts`` (increasing, the first 0), and each
    row takes a softmax q (target) and p (prediction) over each segment.
    ``weights`` holds one w_p per segment. Both sides are floored at
    ``PROB_FLOOR`` inside the log, so the target's 0·log 0 counts as 0. The
    target is detached: its gradient is None.

    With keep = p > PROB_FLOOR and c each column's segment weight over S, the
    score gradient is gs = g·(−q·keep·c + p·Σ_seg q·keep·c), so it flows only
    where the prediction is above the floor. The features gradient chains
    gs·0.5/score, h = that times f, and h + h: the arithmetic of the
    composite that scores with ``mul``, ``sum_``, the tests' reference
    ``add`` (``tests/oracle_ops.py``) and a square root before the KL, so the
    value and the gradient are bit-identical to it.
    (The tape sums that composite's two h into f's gradient as h + h when
    the op is the last record that reads f, as in the model.) The two
    sides' scores are softmaxed as one stacked (2S, n) pass, whose rows are
    independent, so p and q are the bits two passes give. The backward
    keeps both softmaxes, the weights, the scores (both sides', in the one
    stacked array) and, when they take a gradient, the features.
    """
    x, t = as_tensor(features), as_tensor(target_features)
    if x.ndim != 3 or t.ndim != 3 or x.shape[:2] != t.shape[:2]:
        raise ShapeError(f"segment_softmax_kl needs (S, n, F) and (S, n, F') features, "
                         f"got {x.shape} and {t.shape}")
    rows, n = x.shape[:2]
    starts, _, seg = _segment_tables(starts, n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != starts.shape:
        raise ShapeError(f"{w.size} weights for {starts.size} segments")
    scores = np.empty((2, rows, n))
    score = _row_norms(x.data, scores[0])
    _row_norms(t.data, scores[1])
    p, q = _segment_softmax(scores.reshape(2 * rows, n), starts, seg).reshape(2, rows, n)
    per_entry = q * (np.log(np.maximum(q, PROB_FLOOR)) - np.log(np.maximum(p, PROB_FLOOR)))
    out = np.add.reduceat(per_entry, starts, axis=1).mean(axis=0) @ w
    if not Tape._stack:
        return _result("segment_softmax_kl", (x, t), out, None)
    f = x.data if x.requires_grad else None

    def backward(g):
        if f is None:
            return None, None
        qk = q * (p > PROB_FLOOR) * (w / rows)[seg]
        gs = g * (p * np.add.reduceat(qk, starts, axis=1)[:, seg] - qk)
        h = (gs * 0.5 / score)[..., None] * f
        return h + h, None

    return _result("segment_softmax_kl", (x, t), out, backward)


def layer_norm(a, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine; one record.

    ``gamma`` and ``beta`` must broadcast against ``a`` without growing it.
    The two channel means of the forward, and the two of the backward, are
    each one GEMV of the flattened rows against a 1/C vector
    (:func:`_row_dot`), not a reduction over the short channel axis. The
    record keeps the input, ``gamma`` and the (..., 1) standard deviation,
    and of ``beta`` its shape: the backward recomputes the normalized input
    from ``a`` with the forward's own operations, so it holds no full-size
    copy.

    The standard deviation is scanned for NaN/Inf, where an overflowing
    squared deviation shows, and then :func:`_result` scans the output, as
    it scans every arithmetic op's.
    """
    a, gamma, beta = as_tensor(a), as_tensor(gamma), as_tensor(beta)
    if a.ndim < 1 or _broadcast_shape(a.shape, gamma.shape, beta.shape) != a.shape:
        raise ShapeError(f"layer_norm: gamma {gamma.shape} / beta {beta.shape} "
                         f"do not broadcast onto input {a.shape}")
    c = a.shape[-1]
    if c == 0:
        raise ShapeError(f"layer_norm over the empty channel axis of {a.shape}")
    inv_c = np.full(c, 1.0 / c)
    x, gd = a.data, gamma.data

    def centered() -> np.ndarray:
        return x - _row_dot(x, inv_c)

    normed = centered()
    std = np.sqrt(_row_dot(normed * normed, inv_c) + _LN_EPS)
    # where the squared deviation overflowed, the output would be beta alone
    _check_finite("layer_norm", "standard deviation", std)
    normed /= std
    out = normed * gd
    out += beta.data
    if not Tape._stack:
        return _result("layer_norm", (a, gamma, beta), out, None)
    sg, sb = gamma.shape, beta.shape

    def backward(g):
        normed = centered()
        normed /= std
        gn = g * gd
        ga = gn - _row_dot(gn, inv_c)
        ga -= normed * _row_dot(gn * normed, inv_c)
        ga /= std
        return ga, _unbroadcast(g * normed, sg), _unbroadcast(g, sb)

    return _result("layer_norm", (a, gamma, beta), out, backward)


def _scores(q: np.ndarray, k: np.ndarray, scale: float) -> np.ndarray:
    """scale · Q K^T over the last two axes; leading axes broadcast.

    The product reads a contiguous copy of K^T, not the transposed view (see
    the module docstring's layout rule), and the scale is applied in place.
    """
    scores = np.matmul(q, np.ascontiguousarray(np.swapaxes(k, -1, -2)))
    scores *= scale
    return scores


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _check_attention(name: str, q_shape: tuple[int, ...], k_shape: tuple[int, ...],
                     v_shape: tuple[int, ...]) -> None:
    """Raise :class:`ShapeError` unless a query of ``q_shape`` can attend to
    keys of ``k_shape`` and values of ``v_shape``."""
    if len(q_shape) < 2 or len(k_shape) < 2 or len(v_shape) < 2:
        raise ShapeError(f"{name} operands need rank >= 2")
    d = q_shape[-1]
    if k_shape[-1] != d:
        raise ShapeError(f"{name}: query/key feature widths disagree: {d} vs {k_shape[-1]}")
    if k_shape[-2] != v_shape[-2]:
        raise ShapeError(f"{name}: key/value lengths disagree: {k_shape[-2]} vs {v_shape[-2]}")
    if k_shape[-2] == 0 or d == 0:
        raise ShapeError(f"{name} needs at least one key and one feature, got keys {k_shape}")
    if _broadcast_shape(q_shape[:-2], k_shape[:-2], v_shape[:-2]) is None:
        raise ShapeError(f"{name} leading axes do not broadcast: "
                         f"{q_shape}, {k_shape}, {v_shape}")


def attention(query, key, value) -> Tensor:
    """Scaled dot-product attention softmax(QK^T/sqrt(d))V in five records.

    The reference composite of :func:`attention_layer`, which the model
    calls. Operates on the last two axes (sequence, features); leading axes
    broadcast, so key/value may be shared across a batched query. The tape
    gets K^T (a :func:`transpose`), QK^T (a :func:`matmul`), its scaling by
    1/sqrt(d) (a :func:`mul`), the weights W (a :func:`softmax`) and W V (a
    :func:`matmul`); each gradient is summed over the leading axes its
    operand was broadcast along, so a shared (L, C) key/value table gets its
    gradient as one GEMM over all query rows. No backward reads the scores
    (the softmax keeps its output), so they are freed once the softmax has
    run.
    """
    q, k, v = as_tensor(query), as_tensor(key), as_tensor(value)
    _check_attention("attention", q.shape, k.shape, v.shape)
    k_t = transpose(k, (*range(k.ndim - 2), k.ndim - 1, k.ndim - 2))
    scores = mul(matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    return matmul(softmax(scores), v)


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _check_attention_layer(x_shape: tuple[int, ...], c_shape: tuple[int, ...],
                           wq_shape: tuple[int, ...], wk_shape: tuple[int, ...],
                           wv_shape: tuple[int, ...], wo_shape: tuple[int, ...]) -> None:
    """Raise :class:`ShapeError` unless an ``x_shape`` input projected by a
    ``wq_shape`` weight can attend to a ``c_shape`` context that ``wk_shape``
    and ``wv_shape`` weights project to keys and values, the context's
    leading axes broadcast onto ``x_shape``'s without growing them, and a
    ``wo_shape`` weight maps the attended values back to ``x_shape``'s
    width."""
    name = "attention_layer"
    if len(x_shape) < 2 or len(wq_shape) != 2 or wq_shape[0] != x_shape[-1]:
        raise ShapeError(f"{name} needs x (..., n, C) and wq (C, d), "
                         f"got {x_shape} and {wq_shape}")
    if len(c_shape) < 2 or any(len(w) != 2 or w[0] != c_shape[-1] for w in (wk_shape, wv_shape)):
        raise ShapeError(f"{name} needs a context (..., L, D) and wk, wv (D, ·), "
                         f"got {c_shape}, {wk_shape} and {wv_shape}")
    k_shape, v_shape = c_shape[:-1] + wk_shape[1:], c_shape[:-1] + wv_shape[1:]
    _check_attention(name, x_shape[:-1] + wq_shape[1:], k_shape, v_shape)
    if wo_shape != (v_shape[-1], x_shape[-1]):
        raise ShapeError(f"{name} needs wo (e, C) for values (..., L, e) "
                         f"and x (..., n, C), got {wo_shape}, {v_shape} and {x_shape}")
    if _broadcast_shape(x_shape[:-2], c_shape[:-2]) != x_shape[:-2]:
        raise ShapeError(f"{name}: a context {c_shape} "
                         f"would grow the query's leading axes {x_shape[:-2]}")


def attention_layer(x, context, wq, wk, wv, wo) -> Tensor:
    """One residual attention layer, x + softmax((x @ wq) kᵀ / √d) v @ wo
    with k = context @ wk and v = context @ wv; one record.

    ``x`` is the (..., n, C) query, ``wq`` its (C, d) projection and ``wo``
    the (e, C) output projection. ``wk`` (D, d) and ``wv`` (D, e) project
    the (..., L, D) ``context``, whose leading axes broadcast onto ``x``'s
    without growing them, so one (L, D) table can serve every query.
    Self-attention passes ``x`` as its own context.

    Forward and backward run the numpy expressions of the composite
    ``affine(attention(matmul(x, wq), k, v), wo, x)``, with
    k = ``matmul(context, wk)`` and v = ``matmul(context, wv)`` recorded
    before it, in its order. The key, value and query projections and the scores are checked to be
    finite, named after the op. W and W v need no check: with finite scores
    each row of W lies in [0, 1] and sums to 1, so W v, a convex combination
    of the rows of the finite v, is finite too.

    The record's inputs are (x, wq, context, wv, context, wk, wo): the
    context is listed once per projection, so the tape adds its value
    gradient and then its key gradient, and, when the context is ``x``,
    both after the residual's plus the query projection's. That is the
    order in which the tape sums the composite's records, so the value and
    every gradient are bit-identical to it when this layer is the last
    record that reads ``x``, as in the model.

    The record keeps ``x``, the context, the four weights and, of the
    softmax, only each row's max and exp-sum: two (rows,) vectors, where W
    and the scores grow with the square of the sequence length. Backward
    recomputes k, v, q and the scores with the forward's own expressions
    and rebuilds W = exp(scores − m) / s (:func:`_softmax_rebuild`) bit for
    bit: the forward's max and sum are the only reductions, and they are
    kept, while the subtraction, exp and division act on one element at a
    time and give the same bits in either layout. (A log-sum-exp would not:
    exp(x − lse) is not exp(x − m) / s bit for bit.)
    """
    x, context, wq, wk, wv, wo = (as_tensor(t) for t in (x, context, wq, wk, wv, wo))
    name = "attention_layer"
    _check_attention_layer(x.shape, context.shape, wq.shape, wk.shape, wv.shape, wo.shape)
    xx, cx, wqx, wkx, wvx, wox = x.data, context.data, wq.data, wk.data, wv.data, wo.data
    k = np.matmul(cx, wkx)
    _check_finite(name, "key projection", k)
    v = np.matmul(cx, wvx)
    _check_finite(name, "value projection", v)
    q = np.matmul(xx, wqx)
    _check_finite(name, "query projection", q)
    scale = 1.0 / math.sqrt(wqx.shape[1])
    scores = _scores(q, k, scale)
    _check_finite(name, "score", scores)
    w, m, s = _softmax_rows(scores)
    out = np.matmul(np.matmul(w, v), wox)
    out += xx
    inputs = (x, wq, context, wv, context, wk, wo)
    if not Tape._stack:
        return _result(name, inputs, out, None)
    sx, sc, swq, swk, swv, swo = (_grad_shape(t) for t in (x, context, wq, wk, wv, wo))
    # each intermediate's shape where its gradient is needed, else None
    sk = k.shape if sc is not None or swk is not None else None
    sv = v.shape if sc is not None or swv is not None else None
    sq = q.shape if sx is not None or swq is not None else None
    sw = w.shape if sq is not None or sk is not None else None
    so = x.shape[:-1] + v.shape[-1:] if sw is not None or sv is not None else None
    sk_t = None if sk is None else sk[:-2] + (sk[-1], sk[-2])

    def attention_grads(g):
        # the gradients of x, wq, the keys, the values and wo; a function of
        # its own, so that W and the other scratch arrays are freed before
        # the context's two products run
        k, v, q = np.matmul(cx, wkx), np.matmul(cx, wvx), np.matmul(xx, wqx)
        w = _softmax_rebuild(_scores(q, k, scale), m, s)
        o = None if swo is None else np.matmul(w, v)
        go, gwo = _matmul_grads(g, o, wox, so, swo, True)
        gx = gwq = gk = gv = None
        if so is not None:
            gw, gv = _matmul_grads(go, w, v, sw, sv, v.ndim == 2)
            if sw is not None:
                gs = _softmax_grad(gw, w)
                gs *= scale
                gq, gk = _matmul_grads(gs, q, np.swapaxes(k, -1, -2), sq, sk_t, k.ndim == 2)
                gk = None if gk is None else np.swapaxes(gk, -1, -2)
                if sq is not None:
                    gx, gwq = _matmul_grads(gq, xx, wqx, sx, swq, True)
        if sx is not None:
            gx = g + gx
        return gx, gwq, gk, gv, gwo

    def backward(g):
        gx, gwq, gk, gv, gwo = attention_grads(g)
        gc_v, gwv = (None, None) if gv is None else _matmul_grads(gv, cx, wvx, sc, swv, True)
        gc_k, gwk = (None, None) if gk is None else _matmul_grads(gk, cx, wkx, sc, swk, True)
        return gx, gwq, gc_v, gwv, gc_k, gwk, gwo

    return _result(name, inputs, out, backward)


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _window_cells(h: int, w: int, kh: int, kw: int) -> np.ndarray:
    """Read-only flat indices, into an (H+kH-1, W+kW-1) padded plane, of the
    (kH, kW) window that starts at each cell (h, w): H·W·kH·kW entries in
    (h, w, kH, kW) order."""
    rows = np.arange(h)[:, None, None, None] + np.arange(kh)[:, None]
    cols = np.arange(w)[:, None, None] + np.arange(kw)
    cells = (rows * (w + kw - 1) + cols).reshape(-1)
    cells.flags.writeable = False
    return cells


def _spatial_patches(x: np.ndarray, kt: int, kh: int, kw: int) -> np.ndarray:
    """Spatial patch matrix of a channels-last grid under 'same' zero padding.

    ``x`` is (B, T, H, W, C). The grid is padded once on all three axes; then
    every padded frame gives one row per cell (h, w), holding the (kH, kW)
    window that starts there in (kH, kW, C) order. The result is
    (B, T+kT-1, H·W, kH·kW·C): kH·kW·C columns, not kT·kH·kW·C, because
    temporal tap i reads frames i..i+T-1 of it as a view.

    The rows are one ``np.take`` of C-wide cells from each flattened padded
    plane, through an index table built once per (H, W, kH, kW)
    (:func:`_window_cells`). It only copies values, so the matrix equals a
    sliding-window view's, transposed and reshaped, bit for bit.
    """
    b, t, h, w, c = x.shape
    pt, ph, pw = kt // 2, kh // 2, kw // 2
    xp = np.zeros((b, t + 2 * pt, h + 2 * ph, w + 2 * pw, c))
    xp[:, pt:pt + t, ph:ph + h, pw:pw + w] = x
    planes = xp.reshape(b, t + 2 * pt, -1, c)
    return np.take(planes, _window_cells(h, w, kh, kw), axis=2).reshape(
        b, t + 2 * pt, h * w, kh * kw * c)


def _tap_rows(p: np.ndarray, i: int, t: int) -> np.ndarray:
    """Frames i..i+t-1 of a spatial patch matrix as (B, t·H·W, columns); a view."""
    return p[:, i:i + t].reshape(p.shape[0], -1, p.shape[3])


def _correlate(p: np.ndarray, taps: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Same-padded correlation of a (B, T, H, W, C) grid, given as its spatial
    patch matrix ``p``, with ``taps``, a kernel laid out as
    (kT, kH·kW·C, C_out): one GEMM per temporal tap, summed into one
    (B, T, H, W, C_out) output. ``shape`` is the grid's (B, T, H, W)."""
    b, t = shape[:2]
    out = np.empty(tuple(shape) + (taps.shape[2],))
    rows = out.reshape(b, math.prod(shape[1:]), taps.shape[2])    # a view: writes land in out
    np.matmul(_tap_rows(p, 0, t), taps[0], out=rows)
    for i in range(1, taps.shape[0]):
        rows += np.matmul(_tap_rows(p, i, t), taps[i])
    return out


def conv3d(x, kernel) -> Tensor:
    """3D convolution over (T, H, W) with 'same' zero padding, stride 1; one record.

    ``x`` is a channels-last grid (B, T, H, W, C_in) and the result is
    (B, T, H, W, C_out); ``kernel`` is (C_out, C_in, kT, kH, kW) with odd
    extents. The forward builds the input's spatial patch matrix (see
    :func:`_spatial_patches`) and runs one GEMM per temporal tap against that
    tap's (kH·kW·C_in, C_out) slice of the kernel. The backward builds one
    patch matrix, of the output gradient g. The input gradient correlates it
    with the flipped kernel, C_in and C_out swapped. The kernel gradient of
    tap i is x's rows transposed times tap kT-1-i of it, summed over B; its
    columns run over the spatial offsets flipped. The record keeps ``x``
    only for the kernel gradient and the kernel only for the input gradient.
    """
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 5 or kernel.ndim != 5:
        raise ShapeError(f"conv3d expects 5-D input/kernel, got {x.shape}, {kernel.shape}")
    c_out, c_in, kt, kh, kw = kernel.shape
    if kt % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ShapeError(f"conv3d kernel extents must be odd, got {(kt, kh, kw)}")
    if x.shape[4] != c_in:
        raise ShapeError(f"channel mismatch: input {x.shape[4]} vs kernel {c_in}")
    grid = x.shape[:4]
    taps = np.transpose(kernel.data, (2, 3, 4, 1, 0)).reshape(kt, kh * kw * c_in, c_out)
    out = _correlate(_spatial_patches(x.data, kt, kh, kw), taps, grid)
    if not Tape._stack:
        return _result("conv3d", (x, kernel), out, None)
    xx = x.data if kernel.requires_grad else None
    kx = kernel.data if x.requires_grad else None

    def backward(g):
        pg = _spatial_patches(g, kt, kh, kw)
        gx = gk = None
        if kx is not None:
            flipped = kx[:, :, ::-1, ::-1, ::-1]
            back = np.transpose(flipped, (2, 3, 4, 0, 1)).reshape(kt, kh * kw * c_out, c_in)
            gx = _correlate(pg, back, grid)
        if xx is not None:
            x_cols = np.swapaxes(xx.reshape(grid[0], math.prod(grid[1:]), c_in), 1, 2)
            gk = np.stack([np.matmul(x_cols, _tap_rows(pg, kt - 1 - i, grid[1])).sum(axis=0)
                           for i in range(kt)])
            gk = gk.reshape(kt, c_in, kh, kw, c_out)[:, :, ::-1, ::-1]
            gk = np.transpose(gk, (4, 1, 0, 2, 3))
        return gx, gk

    return _result("conv3d", (x, kernel), out, backward)
