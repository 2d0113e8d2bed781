"""End-to-end model assembly, training, and evaluation.

Pipeline: per-frame MLP encoder over masked vertex observations -> latent
grid whose spatial sites are coarse mesh vertices -> diffusion block (or the
deterministic graph+time stack when diffusion is off) -> linear up-projection
to fine vertices -> per-vertex regression head. Training optimizes vertex
error plus optional part-distribution and diffusion block terms with Adam.
Each layer holds the tables it reads (the block its context, the noise
predictor its step embeddings); both cores are built from the coarse adjacency.

Training and prediction run one forward, ``Model.forward``: ``train`` stacks
each minibatch and passes it in, so a traced training step shows the same
``model.forward`` span a prediction does. ``Adam`` updates every parameter
slot in one pass over flat vectors, bit for bit the per-slot update.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor
from .body_graph import DEFAULT_PARTS, generate_toy_body, is_integer
from .diffusion import DiffusionBlock, FeatureStack, make_schedule
from .metrics import JointRegressor, PoseError, build_joint_regressor, compute_metrics
from .part_loss import hh_loss, part_weights_from_variance
from .synth import MotionSequence

MM_SCALE = 1e-3  # mm -> model units
# weight of the diffusion block's term, the mean squared error of its x0
# estimate at the sampled step; the vertex term is the loss's unit, and
# Adam's step ignores a common scale of all terms
EPS_LOSS_WEIGHT = 0.1

# numpy floating-point errors stay silent over a whole training step or
# prediction: the NumericsError that autodiff raises on a non-finite result or
# gradient is the one signal, so a caller who turns warnings into errors still
# gets the typed error (and TrainingDivergence out of train)
_FP_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


# the ModelConfig fields that count something or seed a generator
_INT_FIELDS = ("vertices_per_part", "coarse_per_part", "channels", "height", "width",
               "diffusion_steps", "hierarchy_depth", "context_rows", "encoder_hidden",
               "train_steps", "batch_size", "seed")


class ConfigError(ValueError):
    """Inconsistent model configuration."""


class TrainingDivergence(RuntimeError):
    """A training step produced a non-finite value; ``message`` names the op."""

    def __init__(self, step: int, message: str):
        self.step = step
        super().__init__(f"training diverged at step {step}: {message}")


@dataclass
class ModelConfig:
    vertices_per_part: int = 12
    coarse_per_part: int = 3
    channels: int = 8
    height: int = 4
    width: int = 6
    diffusion_steps: int = 50
    hierarchy_depth: int = 2
    diffusion_on: bool = True
    context_rows: int = 4
    encoder_hidden: int = 64
    learning_rate: float = 3e-3
    train_steps: int = 200
    batch_size: int = 4
    part_loss_weight: float = 0.1
    seed: int = 0

    @property
    def n_vertices(self) -> int:
        return len(DEFAULT_PARTS) * self.vertices_per_part

    @property
    def n_coarse(self) -> int:
        return len(DEFAULT_PARTS) * self.coarse_per_part

    def validate(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.vertices_per_part < 2:
            raise ConfigError(f"need at least 2 vertices per part, got {self.vertices_per_part}")
        if not (1 <= self.coarse_per_part <= self.vertices_per_part):
            raise ConfigError(f"coarse_per_part {self.coarse_per_part} outside "
                              f"[1, {self.vertices_per_part}]")
        if min(self.height, self.width) < 1 or self.height * self.width != self.n_coarse:
            raise ConfigError(
                f"latent grid {self.height}x{self.width} must be positive and equal "
                f"the coarse vertex count {self.n_coarse}"
            )
        if self.hierarchy_depth not in (1, 2):
            raise ConfigError(f"hierarchy depth must be 1 or 2, got {self.hierarchy_depth}")
        if self.diffusion_on and self.diffusion_steps < 2:
            raise ConfigError("diffusion needs at least 2 steps")
        if min(self.channels, self.encoder_hidden, self.batch_size) < 1:
            raise ConfigError("channels, encoder_hidden and batch_size must be positive")
        if self.diffusion_on and self.context_rows < 1:
            raise ConfigError(f"diffusion needs context_rows >= 1, got {self.context_rows}")
        for name in ("learning_rate", "part_loss_weight"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        for name in ("train_steps", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")


class Linear:
    """x @ w + b as one ``affine`` record, with w drawn at 1/sqrt(n_in) scale
    and b zero."""

    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.p = {
            "w": Tensor(rng.standard_normal((n_in, n_out)) / math.sqrt(n_in),
                        requires_grad=True),
            "b": Tensor(np.zeros(n_out), requires_grad=True),
        }

    def __call__(self, x: Tensor) -> Tensor:
        return ad.affine(x, self.p["w"], self.p["b"])


class Model:
    """Assembled pipeline; parameters live in per-layer dicts."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        graph = self.graph = generate_toy_body(config.vertices_per_part, config.coarse_per_part)
        self.regressor = build_joint_regressor(graph)
        # each part-loss level's parts as the starts of their vertex segments:
        # coarse then fine, the last hierarchy_depth of them
        self.part_starts = [graph.coarse_of[graph.part_starts],
                            graph.part_starts][2 - config.hierarchy_depth:]
        rng = np.random.default_rng(config.seed)

        n = graph.n_vertices
        c, h, w = config.channels, config.height, config.width
        self.enc1 = Linear(4 * n, config.encoder_hidden, rng)
        self.enc2 = Linear(config.encoder_hidden, c * h * w, rng)
        self.head = Linear(c, 3, rng)

        coarse_adj = graph.coarse_adjacency()
        if config.diffusion_on:
            schedule = make_schedule(config.diffusion_steps)
            self.core = DiffusionBlock(c, (h, w), coarse_adj, schedule, config.context_rows,
                                       rng=rng)
        else:
            self.core = FeatureStack(c, (h, w), coarse_adj, rng)

    def param_slots(self) -> dict[str, tuple[dict, str]]:
        slots: dict[str, tuple[dict, str]] = {}
        for name, layer in (("enc1", self.enc1), ("enc2", self.enc2), ("head", self.head)):
            for k in layer.p:
                slots[f"{name}.{k}"] = (layer.p, k)
        for i, layer in enumerate(self.core.layers()):
            for k in layer.p:
                slots[f"core.{i}.{k}"] = (layer.p, k)
        return slots

    def forward(self, observations: np.ndarray, mask: np.ndarray, seed: int, *,
                block_loss: bool = True) -> dict:
        """observations (B, T, n, 3) mm and mask (B, T, n) -> prediction dict.

        Any other shape, B or T of 0, or a seed that is not a non-negative
        integer raises ``ConfigError``. With diffusion on, ``seed`` draws the
        block's noise and, with ``block_loss``, its training step: the
        prediction then decodes the block's x0 estimate at that step, and
        ``eps_loss`` holds the block's term. ``block_loss=False`` (prediction)
        decodes the block's estimate at the last step instead and builds no
        block loss (``eps_loss`` is None), which :meth:`loss` then rejects.
        Without diffusion ``block_loss`` changes no bit.
        """
        cfg = self.config
        obs = np.asarray(observations, dtype=np.float64)
        msk = np.asarray(mask)
        B, T = self._batch_dims(obs.shape, msk.shape)
        if not is_integer(seed) or seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
        c, h, w = cfg.channels, cfg.height, cfg.width
        n = self.graph.n_vertices

        # the encoder's (B·T, 4n) input rows: per frame, its observations
        # in model units, flattened, then its n mask values
        frame_in = np.concatenate([obs.reshape(B * T, 3 * n) * MM_SCALE,
                                   msk.reshape(B * T, n)], axis=1)
        x = self.enc2(ad.relu(self.enc1(frame_in)))
        # enc2's columns are channel-major: read them as (B, T, C, S)
        tokens = ad.transpose(ad.reshape(x, (B, T, c, h * w)), (0, 1, 3, 2))

        if cfg.diffusion_on:
            tokens, eps_loss = self.core(tokens, seed, block_loss=block_loss)
        else:
            tokens = self.core(tokens)
            eps_loss = None

        coarse_feats = ad.reshape(tokens, (B * T, h * w, c))
        fine_feats = ad.matmul(self.graph.up_matrix, coarse_feats)  # (B*T, n, C)
        pred_scaled = self.head(fine_feats)                         # model units
        return {
            "batch": (B, T),
            "pred_scaled": pred_scaled,
            "coarse_feats": coarse_feats,
            "fine_feats": fine_feats,
            "eps_loss": eps_loss,
        }

    def _batch_dims(self, obs_shape: tuple[int, ...], mask_shape: tuple[int, ...]):
        """(B, T) of (B, T, n, 3) observations and a (B, T, n) mask; any other
        shapes, or B or T of 0, raise ``ConfigError``."""
        n = self.graph.n_vertices
        if len(obs_shape) != 4 or obs_shape[2:] != (n, 3) or mask_shape != obs_shape[:3]:
            raise ConfigError(f"observations {obs_shape} and mask {mask_shape} must be "
                              f"(B, T, {n}, 3) and (B, T, {n})")
        B, T = obs_shape[:2]
        if B == 0 or T == 0:
            raise ConfigError(f"observations need B >= 1 sequences of T >= 1 frames, "
                              f"got B={B} and T={T}")
        return B, T

    def loss(self, out: dict, gt_vertices: np.ndarray,
             part_weights: list[np.ndarray] | None = None) -> Tensor:
        """Composite training objective on one batch: the vertex MSE, plus
        ``part_loss_weight`` times the part term, plus ``EPS_LOSS_WEIGHT``
        times the diffusion block's term (the mean squared error of its x0
        estimate at the step the forward sampled).

        The part term sums one :func:`hh_loss` per level of ``part_starts``,
        coarse then fine; a ``part_loss_weight`` of 0 leaves it out.
        ``part_weights`` gives each level's part weights; by default they
        derive from the current features through :meth:`part_weight_levels`.
        The weights carry no gradient either way; passing them in lets finite
        differencing match. ``gt_vertices`` must be the prediction's
        (B, T, n, 3) in mm, with (B, T) the batch ``out["batch"]``; any other
        shape raises ``ConfigError``, as does a diffusion forward built
        without its block loss.
        """
        cfg = self.config
        if cfg.diffusion_on and out["eps_loss"] is None:
            raise ConfigError("this forward built no diffusion block loss "
                              "(block_loss=False); the loss needs its block term")
        gt = np.asarray(gt_vertices, dtype=np.float64)
        rows, n, _ = out["pred_scaled"].shape
        want = (*out["batch"], n, 3)
        if gt.shape != want:
            raise ConfigError(f"gt_vertices {gt.shape} must be the prediction's {want}")
        gt_scaled = gt.reshape(rows, n, 3) * MM_SCALE
        total = ad.mse(out["pred_scaled"], gt_scaled)
        if cfg.part_loss_weight > 0.0:
            if part_weights is None:
                part_weights = self.part_weight_levels(out)
            levels = [(out["pred_scaled"], gt_scaled)]
            if cfg.hierarchy_depth == 2:
                gt_coarse = np.matmul(self.graph.down_matrix.data, gt_scaled)
                levels.insert(0, (out["coarse_feats"], gt_coarse))
            part_term = None
            for (pred, true), starts, lam in zip(levels, self.part_starts, part_weights,
                                                 strict=True):
                term = hh_loss(pred, true, starts, lam)
                part_term = term if part_term is None else ad.lincomb(part_term, 1.0, term, 1.0)
            total = ad.lincomb(total, 1.0, part_term, cfg.part_loss_weight)
        if out["eps_loss"] is not None:
            total = ad.lincomb(total, 1.0, out["eps_loss"], EPS_LOSS_WEIGHT)
        return total

    def part_weight_levels(self, out: dict) -> list[np.ndarray]:
        """Variance-derived part weights per level of ``part_starts`` at this output."""
        feats = (out["coarse_feats"].data, out["fine_feats"].data)[-len(self.part_starts):]
        return [part_weights_from_variance(f, starts)
                for f, starts in zip(feats, self.part_starts)]

    def predict(self, seq: MotionSequence, seed: int = 0) -> np.ndarray:
        """(T, n, 3) mm prediction for one sequence; no tape, no mutation.

        The forward builds no diffusion block loss: the block returns its
        denoiser's estimate at the last step, from the input noised by the
        draw ``seed`` makes. With no tape active each op keeps only its value.
        """
        with np.errstate(**_FP_QUIET):
            out = self.forward(seq.observations[None], seq.occlusion_mask[None], seed=seed,
                               block_loss=False)
        return (out["pred_scaled"].data * (1.0 / MM_SCALE)).reshape(seq.observations.shape)


def build_model(config: ModelConfig) -> Model:
    return Model(config)


class Adam:
    """Adam (arXiv 1412.6980) over named parameter slots, in one flat pass.

    The parameters and the two moments ``m`` and ``v`` are flat vectors laid
    out slot after slot, in slot order. A step gathers the gradients of the
    slots that have one into a flat vector, once, and updates the moments in
    place with the per-slot update's per-element expressions, in its order,
    so each value is the same bits as a per-slot loop's. A slot without a
    gradient keeps its value and its moments. The new parameters are a fresh
    flat vector, checked once for finiteness (``NumericsError``, before any
    slot changes) and made read-only; each slot with a gradient then gets a
    new tensor over its reshaped view, so a tensor once handed out is never
    written. A slot whose tensor was replaced from outside counts with its
    new value, or raises ``ShapeError`` if its shape changed. The moment
    decays and the denominator floor are the usual 0.9, 0.999 and 1e-8.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, slots: dict[str, tuple[dict, str]], lr: float = 1e-3):
        self.slots = slots
        self.lr = lr
        self.t = 0
        # the tensor each slot held when ``flat`` last took its value
        self._tensors = [holder[key] for holder, key in slots.values()]
        self._bounds = [0, *np.cumsum([t.size for t in self._tensors]).tolist()]
        # (the leading zeros(0) gives no slots an empty vector)
        self.flat = np.concatenate([np.zeros(0), *(t.data.reshape(-1) for t in self._tensors)])
        self.flat.flags.writeable = False
        self.m = np.zeros(self.flat.size)
        self.v = np.zeros(self.flat.size)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bounds = self._bounds
        grads = np.empty(self.flat.size)
        live = []  # (index, holder, key) of each slot with a gradient
        runs = []  # [lo, hi) of each run of adjacent slots with a gradient
        for i, (name, (holder, key)) in enumerate(self.slots.items()):
            t, lo, hi = holder[key], bounds[i], bounds[i + 1]
            if t is not self._tensors[i]:
                if t.shape != self._tensors[i].shape:
                    raise ShapeError(f"parameter slot {name!r} changed shape from "
                                     f"{self._tensors[i].shape} to {t.shape}")
                if not self.flat.flags.writeable:
                    self.flat = self.flat.copy()
                self.flat[lo:hi] = t.data.reshape(-1)
                self._tensors[i] = t
            if t.grad is not None:
                grads[lo:hi] = t.grad.reshape(-1)
                live.append((i, holder, key))
                if runs and runs[-1][1] == lo:
                    runs[-1][1] = hi
                else:
                    runs.append([lo, hi])
        if not live:
            return
        flat, new = self.flat, np.empty(self.flat.size)
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        done = 0
        for lo, hi in runs:
            new[done:lo] = flat[done:lo]
            g, m, v, out = grads[lo:hi], self.m[lo:hi], self.v[lo:hi], new[lo:hi]
            # m = b1 m + (1 - b1) g and v = b2 v + (1 - b2) g g, with out as scratch
            np.multiply(g, 1 - b1, out=out)
            m *= b1
            m += out
            np.multiply(g, 1 - b2, out=out)
            out *= g
            v *= b2
            v += out
            # flat - lr (m / c1) / (sqrt(v / c2) + EPS), the step formed in g
            np.divide(m, c1, out=g)
            g *= self.lr
            np.divide(v, c2, out=out)
            np.sqrt(out, out=out)
            out += self.EPS
            g /= out
            np.subtract(flat[lo:hi], g, out=out)
            done = hi
        new[done:] = flat[done:]
        if not np.isfinite(new).all():
            raise ad.NumericsError("tensor constructed with non-finite values")
        new.flags.writeable = False
        for i, holder, key in live:
            view = new[bounds[i]:bounds[i + 1]].reshape(self._tensors[i].shape)
            holder[key] = self._tensors[i] = ad._leaf_view(view)
        self.flat = new


def train(config: ModelConfig, dataset: list[MotionSequence]) -> tuple[Model, list[float]]:
    """Fixed-step Adam training; deterministic per config seed.

    Each step stacks its minibatch and runs :meth:`Model.forward` on it, then
    :meth:`Model.loss`, the tape's backward and one :class:`Adam` step. The
    sequences must share one shape, which the model's forward takes; either
    failing raises ``ConfigError`` before the first step, even with
    ``train_steps`` 0.
    """
    if not dataset:
        raise ConfigError("empty training dataset")
    shapes = {(s.observations.shape, s.occlusion_mask.shape, s.gt_vertices.shape)
              for s in dataset}
    if len(shapes) > 1:
        raise ConfigError(f"training sequences differ in shape: {sorted(shapes)}")
    model = build_model(config)
    (obs_shape, mask_shape, _), = shapes
    model._batch_dims((1, *obs_shape), (1, *mask_shape))
    slots = model.param_slots()
    opt = Adam(slots, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for step in range(config.train_steps):
        if config.batch_size >= len(dataset):
            idx = np.arange(len(dataset))  # full batch, no sampling state
        else:
            idx = rng.choice(len(dataset), size=config.batch_size, replace=False)
        obs = np.stack([dataset[i].observations for i in idx])
        mask = np.stack([dataset[i].occlusion_mask for i in idx])
        gt = np.stack([dataset[i].gt_vertices for i in idx])
        # noise keyed to the batch composition: full-batch training sees a
        # fixed realization (so zero lr gives a flat curve), minibatches vary
        noise_seed = config.seed * 1_000_003 + int(zlib.crc32(idx.astype("<i8").tobytes()))
        try:
            with np.errstate(**_FP_QUIET):
                with Tape() as tape:
                    out = model.forward(obs, mask, noise_seed)
                    loss = model.loss(out, gt)
                value = loss.item()
                tape.backward(loss)
                opt.step()
        except ad.NumericsError as exc:
            raise TrainingDivergence(step, str(exc)) from exc
        losses.append(value)
    return model, losses


def evaluate(model, dataset: list[MotionSequence]) -> tuple[PoseError, list[PoseError]]:
    """Mean pose error over sequences and one ``PoseError`` per sequence,
    in order; any object with ``.predict`` and ``.regressor`` works.

    Sequence i is predicted with ``seed=i``, in order. The predictions are
    then scored together in one ``compute_metrics`` call: one batched
    alignment pass over every frame of the set. A metrics error names the
    sequence by its index in ``dataset``, and the frame where there is one.
    """
    if not dataset:
        raise ConfigError("empty evaluation dataset")
    regressor = getattr(model, "regressor", None)
    if regressor is None:
        raise ConfigError("no joint regressor: the predictor must carry .regressor")
    preds = [model.predict(seq, seed=i) for i, seq in enumerate(dataset)]
    errors = compute_metrics(preds, [seq.gt_vertices for seq in dataset], regressor)
    means = np.array([e.as_tuple() for e in errors]).mean(axis=0)
    agg = PoseError(mpvpe=float(means[0]), mpjpe=float(means[1]), pa_mpjpe=float(means[2]))
    return agg, errors


class MeanPosePredictor:
    """Constant baseline: predicts the training-set mean pose every frame."""

    def __init__(self, dataset: list[MotionSequence], regressor: JointRegressor):
        self.mean_pose = np.mean([s.gt_vertices.mean(axis=0) for s in dataset], axis=0)
        self.regressor = regressor

    def predict(self, seq: MotionSequence, seed: int = 0) -> np.ndarray:
        return np.tile(self.mean_pose[None], (seq.frames, 1, 1))
