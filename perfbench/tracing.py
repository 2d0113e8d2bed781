"""In-memory spans around meshmotion's module boundaries, installed from outside.

A span is (name, kind, start, end, parent). Kinds:

- ``phase``: a benchmark phase (setup, main, eval).
- ``layer``: a call into a meshmotion module boundary, e.g. ``diffusion.noise_step``.
- ``op``: a call of a public ``autodiff`` op (``autodiff.fwd.<fn>``) or one tape
  record's backward closure (``autodiff.bwd.<record name>``).

Self time is computed within a kind: a span's self time is its duration minus
the durations of the spans of the same kind directly nested in it. So a
layer's self time includes the autodiff ops it runs but not a nested layer,
and an op's self time excludes nested ops. Elementwise ops called inside
``attention``, ``softmax`` or ``layer_norm`` are credited to that op, so each
composite op's row covers the primitives it records; ``matmul``,
``transpose``, ``reshape`` and ``conv3d`` always keep their own row. A tape
record's backward is credited the same way as the forward op that recorded it.

Nothing here edits meshmotion's source: wrappers replace module, class and
dict attributes through :class:`Patches`, which restores every original.
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

OP_CATEGORIES = ("conv3d", "matmul", "attention", "softmax", "layer_norm",
                 "transpose", "reshape", "elementwise")
_OWN_CATEGORY = {
    "conv3d": "conv3d",
    "matmul": "matmul",
    "attention": "attention",
    "softmax": "softmax",
    "log_softmax": "softmax",
    "layer_norm": "layer_norm",
    "transpose": "transpose",
    "reshape": "reshape",
}
_COMPOSITE_ROWS = {f"autodiff.fwd.{c}": c for c in ("attention", "softmax", "layer_norm")}
# public autodiff functions that are not differentiable ops
_NOT_OPS = {"Tensor", "Tape", "NumericsError", "ShapeError", "GradcheckError",
            "as_tensor", "constant", "gradcheck"}

def op_category(fn_name: str) -> str:
    return _OWN_CATEGORY.get(fn_name, "elementwise")


class Tracer:
    """Spans kept in parallel lists; nothing is written until :meth:`to_json`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.kin: list[int] = []       # innermost open span of the same kind
        self.credit: list[str] = []    # row the self time is credited to
        self.owner: list[str] = []     # layer whose record a backward span runs
        self._open: list[int] = []
        self._open_by_kind: dict[str, list[int]] = {"phase": [], "layer": [], "op": []}
        # tape record id -> (record, credited op row, creating layer)
        self.tags: dict[int, tuple] = {}
        self.tape_records: list[int] = []
        self.tape_bytes: list[int] = []

    def open(self, name: str, kind: str, credit: str | None = None, owner: str = "") -> int:
        i = len(self.names)
        same = self._open_by_kind[kind]
        self.names.append(name)
        self.kinds.append(kind)
        self.parents.append(self._open[-1] if self._open else -1)
        self.kin.append(same[-1] if same else -1)
        self.credit.append(name if credit is None else credit)
        self.owner.append(owner)
        self.ends.append(float("nan"))
        self._open.append(i)
        same.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        if self._open.pop() != i or self._open_by_kind[self.kinds[i]].pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "phase"):
        i = self.open(name, kind)
        try:
            yield i
        finally:
            self.close(i)

    def innermost(self, kind: str) -> int:
        stack = self._open_by_kind[kind]
        return stack[-1] if stack else -1

    def self_times(self) -> np.ndarray:
        """Per span: duration minus the directly nested spans of its kind."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        kin = np.asarray(self.kin, dtype=np.int64)
        nested = np.zeros(len(dur))
        has = kin >= 0
        np.add.at(nested, kin[has], dur[has])
        return dur - nested

    def within(self, i: int) -> np.ndarray:
        """Mask of the spans nested inside span ``i`` (``i`` itself excluded)."""
        starts, ends = np.asarray(self.starts), np.asarray(self.ends)
        mask = (starts >= starts[i]) & (ends <= ends[i])
        mask[i] = False
        return mask

    def to_json(self) -> dict:
        return {
            "fields": ["name", "kind", "start", "end", "parent"],
            "spans": [[n, k, s, e, p] for n, k, s, e, p in zip(
                self.names, self.kinds, self.starts, self.ends, self.parents)],
        }


class Patches:
    """Replacements of module, class and dict attributes, undone in reverse."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, name: str, value) -> None:
        if isinstance(owner, dict):
            old = owner[name]
            owner[name] = value
        else:
            old = vars(owner)[name]
            setattr(owner, name, value)
        self._undo.append((owner, name, old))

    def wrap(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        old = owner[name] if isinstance(owner, dict) else vars(owner)[name]
        self.set(owner, name, functools.wraps(old)(make(old)))

    def undo(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)


def _layer(tracer: Tracer, name: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            i = tracer.open(name, "layer")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
        return wrapper
    return make


def _instance_layer(tracer: Tracer, names: dict):
    """Layer span named by the instance a method runs on; unnamed instances
    run without a span."""
    def make(fn):
        def wrapper(self, *args, **kwargs):
            name = names.get(id(self))
            if name is None or name[0] is not self:
                return fn(self, *args, **kwargs)
            i = tracer.open(name[1], "layer")
            try:
                return fn(self, *args, **kwargs)
            finally:
                tracer.close(i)
        return wrapper
    return make


def _op(tracer: Tracer, tape_stack: list, fn_name: str):
    own = op_category(fn_name)
    span_name = "autodiff.fwd." + fn_name

    def make(fn):
        def wrapper(*args, **kwargs):
            tape = tape_stack[-1] if tape_stack else None
            n0 = len(tape.records) if tape is not None else 0
            cat = own
            if own == "elementwise":
                outer = tracer.innermost("op")
                if outer >= 0:
                    cat = _COMPOSITE_ROWS.get(tracer.credit[outer], own)
            i = tracer.open(span_name, "op", credit="autodiff.fwd." + cat)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)
                if tape is not None and len(tape.records) > n0:
                    layer = tracer.innermost("layer")
                    owner = tracer.names[layer] if layer >= 0 else ""
                    for rec in tape.records[n0:]:
                        tracer.tags.setdefault(id(rec), (rec, cat, owner))
        return wrapper
    return make


def _tape_backward(tracer: Tracer):
    def make(fn):
        def wrapper(self, root, seed=None):
            tracer.tape_records.append(len(self.records))
            tracer.tape_bytes.append(sum(r.output.data.nbytes for r in self.records))
            for rec in self.records:
                tag = tracer.tags.get(id(rec))
                cat, owner = (tag[1], tag[2]) if tag and tag[0] is rec else (
                    op_category(rec.name), "")
                rec.backward = _timed_backward(tracer, rec.name, cat, owner, rec.backward)
            tracer.tags.clear()
            i = tracer.open("autodiff.backward", "layer")
            try:
                return fn(self, root, seed)
            finally:
                tracer.close(i)
        return wrapper
    return make


def _timed_backward(tracer: Tracer, rec_name: str, cat: str, owner: str, fn):
    name, credit = "autodiff.bwd." + rec_name, "autodiff.bwd." + cat

    def backward(g):
        i = tracer.open(name, "op", credit=credit, owner=owner)
        try:
            return fn(g)
        finally:
            tracer.close(i)
    return backward


def install(tracer: Tracer, patches: Patches, mm) -> None:
    """Wrap meshmotion's boundaries; ``mm`` holds the imported modules as
    attributes ``autodiff``, ``body_graph``, ``diffusion``, ``metrics``,
    ``model``, ``part_loss`` and ``synth``."""
    ad, dif, model = mm.autodiff, mm.diffusion, mm.model
    instances: dict[int, tuple] = {}

    def build_model(fn):
        def wrapper(config):
            m = fn(config)
            named = [(m.enc1, "model.encoder"), (m.enc2, "model.encoder"),
                     (m.head, "model.head")]
            if isinstance(m.core, dif.DiffusionBlock):
                named += [(m.core.context_attn, "diffusion.context_attn"),
                          (m.core.cond_attn, "diffusion.cond_attn")]
            for obj, name in named:
                instances[id(obj)] = (obj, name)
            return m
        return wrapper

    tape_stack = ad.Tape._stack
    for fn_name in ad.__all__:
        if fn_name not in _NOT_OPS:
            patches.wrap(ad, fn_name, _op(tracer, tape_stack, fn_name))
    acts = mm.body_graph._ACTIVATIONS
    for key, fn in list(acts.items()):
        if fn.__module__ == ad.__name__:
            patches.wrap(acts, key, _op(tracer, tape_stack, fn.__name__))
    patches.wrap(ad.Tape, "backward", _tape_backward(tracer))

    layers = [
        (mm.synth, "generate_sequence", "synth.generate"),
        (mm.synth, "corrupt_sequence", "synth.corrupt"),
        (mm.metrics, "compute_metrics", "metrics.compute"),
        (model, "compute_metrics", "metrics.compute"),
        (mm.part_loss, "hh_loss", "part_loss.hh_loss"),
        (model, "hh_loss", "part_loss.hh_loss"),
        (mm.body_graph.GraphConvLayer, "apply", "body_graph.graph_conv"),
        (dif, "forward_noise_step", "diffusion.noise_step"),
        (dif, "reverse_step", "diffusion.reverse_step"),
        (dif, "rearrange", "diffusion.rearrange"),
        (dif.DiffusionBlock, "__call__", "diffusion.block"),
        (dif.FeatureStack, "__call__", "diffusion.feature_stack"),
        (dif.NoisePredictor, "__call__", "diffusion.noise_predictor"),
        (model.Model, "forward", "model.forward"),
        (model.Model, "loss", "model.loss"),
        (model.Model, "predict", "model.predict"),
        (model.Adam, "step", "model.adam_step"),
    ]
    for owner, attr, name in layers:
        patches.wrap(owner, attr, _layer(tracer, name))
    patches.wrap(dif.AttentionLayer, "__call__", _instance_layer(tracer, instances))
    patches.wrap(model.Linear, "__call__", _instance_layer(tracer, instances))
    patches.wrap(model, "build_model", build_model)


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("diffusion.block", "diffusion.noise_step", "diffusion.context_attn",
          "diffusion.feature_stack", "diffusion.cond_attn", "diffusion.noise_predictor",
          "diffusion.reverse_step", "diffusion.rearrange", "body_graph.graph_conv",
          "part_loss.hh_loss", "model.encoder", "model.head", "model.loss")
PER_SEQ = (("synth.generate", "synth.generate.s_per_seq"),
           ("synth.corrupt", "synth.corrupt.s_per_seq"),
           ("metrics.compute", "metrics.compute.s_per_seq"))


def per_layer_metrics(tracer: Tracer, main: list[int], unit_name: str,
                      overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Metrics per unit of work (train step or predict call) in the ``main``
    spans.

    Every name is always present, with zero where the layer never ran.
    """
    names = np.asarray(tracer.names)
    credit = np.asarray(tracer.credit)
    owner = np.asarray(tracer.owner)
    self_t = tracer.self_times()
    inside = np.zeros(len(names), dtype=bool)
    for i in main:
        inside |= tracer.within(i)
    units = int(np.sum(inside & (names == unit_name)))
    per = 1.0 / max(units, 1)
    out: dict[str, tuple[float, str]] = {}

    def rows(prefix: str, mask: np.ndarray):
        return {
            "calls": (float(np.sum(mask & (names == prefix))) * per, "count"),
            "self_s": (float(self_t[mask & (credit == prefix)].sum()) * per, "s"),
        }

    # tape sizes are listed per Tape.backward call, in the order of its spans
    is_back = names == "autodiff.backward"
    keep = inside[is_back]
    recs = np.asarray(tracer.tape_records, dtype=np.float64)[keep]
    mbs = np.asarray(tracer.tape_bytes, dtype=np.float64)[keep] / 2**20
    out["autodiff.records_per_step"] = (float(recs.mean()) if keep.any() else 0.0, "count")
    out["autodiff.tape_mb_per_step"] = (float(mbs.mean()) if keep.any() else 0.0, "MB")
    for key, val in rows("autodiff.backward", inside).items():
        out[f"autodiff.backward.{key}"] = val
    kinds = np.asarray(tracer.kinds)
    ops = inside & (kinds == "op")
    fwd = ops & np.char.startswith(names, "autodiff.fwd.")
    bwd = ops & np.char.startswith(names, "autodiff.bwd.")
    # a forward call counts for its own op unless a composite op absorbed it;
    # a backward call is one tape record, counted where its time is credited
    own = np.full(len(names), "", dtype=object)
    own[fwd] = [f"autodiff.fwd.{op_category(n.rsplit('.', 1)[1])}" for n in names[fwd]]
    for direction, mask in (("fwd", fwd), ("bwd", bwd)):
        for cat in OP_CATEGORIES:
            row = f"autodiff.{direction}.{cat}"
            credited = mask & (credit == row)
            calls = credited & (own == row) if direction == "fwd" else credited
            out[f"{row}.calls"] = (float(calls.sum()) * per, "count")
            out[f"{row}.self_s"] = (float(self_t[credited].sum()) * per, "s")
    for layer in LAYERS:
        for key, val in rows(layer, inside).items():
            out[f"{layer}.{key}"] = val
        out[f"{layer}.bwd_s"] = (float(self_t[bwd & (owner == layer)].sum()) * per, "s")
    for key, val in rows("model.adam_step", inside).items():
        out[f"model.adam_step.{key}"] = val
    for layer, metric in PER_SEQ:
        calls = int(np.sum(names == layer))
        total = float(self_t[credit == layer].sum())
        out[metric] = (total / calls if calls else 0.0, "s/seq")
    unit_time = sum(tracer.ends[i] - tracer.starts[i] for i in main) * per
    diffusion = sum(out[f"{layer}.{key}"][0] for layer in LAYERS
                    if layer.startswith("diffusion.") for key in ("self_s", "bwd_s"))
    out["diffusion.unit_share"] = (diffusion / unit_time if units else 0.0, "fraction")
    out["trace.overhead_frac"] = (overhead_frac, "fraction")
    return out
