"""End-to-end model assembly, training, and evaluation.

Pipeline: per-frame MLP encoder over masked vertex observations -> latent
grid whose spatial sites are coarse mesh vertices -> diffusion block (or the
deterministic graph+time stack when diffusion is off) -> linear up-projection
to fine vertices -> per-vertex regression head. Training optimizes vertex
error plus optional part-distribution and noise-prediction terms with Adam.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .body_graph import DEFAULT_PARTS, generate_toy_body
from .diffusion import DiffusionBlock, FeatureStack, make_schedule
from .metrics import JointRegressor, PoseError, build_joint_regressor, compute_metrics
from .part_loss import hh_loss, part_weights_from_variance
from .synth import MotionSequence

MM_SCALE = 1e-3  # mm -> model units
# weight of the diffusion block's noise-prediction term; the vertex term is
# the loss's unit, and Adam's step ignores a common scale of all terms
EPS_LOSS_WEIGHT = 0.1

# numpy floating-point errors stay silent over a whole training step or
# prediction: the NumericsError that autodiff raises on a non-finite result or
# gradient is the one signal, so a caller who turns warnings into errors still
# gets the typed error (and TrainingDivergence out of train)
_FP_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


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

        if config.diffusion_on:
            self.core = DiffusionBlock(
                self.graph, c, (h, w), make_schedule(config.diffusion_steps), rng=rng,
            )
            self.context_p = {
                "rows": Tensor(rng.standard_normal((config.context_rows, c)) * 0.3,
                               requires_grad=True),
            }
        else:
            self.core = FeatureStack(c, (h, w), graph.coarse_adjacency(), rng)
            self.context_p = None

    def param_slots(self) -> dict[str, tuple[dict, str]]:
        slots: dict[str, tuple[dict, str]] = {}
        for name, layer in (("enc1", self.enc1), ("enc2", self.enc2), ("head", self.head)):
            for k in layer.p:
                slots[f"{name}.{k}"] = (layer.p, k)
        for i, layer in enumerate(self.core.layers()):
            for k in layer.p:
                slots[f"core.{i}.{k}"] = (layer.p, k)
        if self.context_p is not None:
            slots["context.rows"] = (self.context_p, "rows")
        return slots

    def forward(self, observations: np.ndarray, mask: np.ndarray, seed: int) -> dict:
        """observations (B, T, n, 3) mm and mask (B, T, n) -> prediction dict.

        Any other shape raises ``ConfigError``.
        """
        cfg = self.config
        obs = np.asarray(observations, dtype=np.float64)
        msk = np.asarray(mask, dtype=np.float64)
        n = self.graph.n_vertices
        if obs.ndim != 4 or obs.shape[2:] != (n, 3) or msk.shape != obs.shape[:3]:
            raise ConfigError(f"observations {obs.shape} and mask {msk.shape} must be "
                              f"(B, T, {n}, 3) and (B, T, {n})")
        B, T = obs.shape[:2]
        c, h, w = cfg.channels, cfg.height, cfg.width

        frame_in = np.concatenate([
            obs.reshape(B * T, n * 3) * MM_SCALE,
            msk.reshape(B * T, n),
        ], axis=1)
        x = self.enc2(ad.relu(self.enc1(ad.constant(frame_in))))
        # enc2's columns are channel-major: read them as (B, T, C, S)
        tokens = ad.transpose(ad.reshape(x, (B, T, c, h * w)), (0, 1, 3, 2))

        if cfg.diffusion_on:
            tokens, eps_loss = self.core(tokens, self.context_p["rows"], seed)
        else:
            tokens = self.core(tokens)
            eps_loss = None

        coarse_feats = ad.reshape(tokens, (B * T, h * w, c))
        fine_feats = ad.matmul(self.graph.up_matrix, coarse_feats)  # (B*T, n, C)
        pred_scaled = self.head(fine_feats)                         # model units
        return {
            "pred_scaled": pred_scaled,
            "coarse_feats": coarse_feats,
            "fine_feats": fine_feats,
            "eps_loss": eps_loss,
        }

    def loss(self, out: dict, gt_vertices: np.ndarray,
             part_weights: list[np.ndarray] | None = None) -> Tensor:
        """Composite training objective on one batch: the vertex MSE, plus
        ``part_loss_weight`` times the part term, plus ``EPS_LOSS_WEIGHT``
        times the diffusion block's noise-prediction term.

        The part term sums one :func:`hh_loss` per level of ``part_starts``,
        coarse then fine; a ``part_loss_weight`` of 0 leaves it out.
        ``part_weights`` gives each level's part weights; by default they derive from the current features through
        :meth:`part_weight_levels`. The weights carry no gradient either way;
        passing them in lets finite differencing match. ``gt_vertices`` must
        be the prediction's (B, T, n, 3) in mm; any other shape raises
        ``ConfigError``.
        """
        cfg = self.config
        gt = np.asarray(gt_vertices, dtype=np.float64)
        rows, n, _ = out["pred_scaled"].shape
        if gt.ndim != 4 or gt.shape[2:] != (n, 3) or gt.shape[0] * gt.shape[1] != rows:
            raise ConfigError(f"gt_vertices {gt.shape} must be the prediction's (B, T, n, 3), "
                              f"with B*T = {rows} and n = {n}")
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
                part_term = term if part_term is None else ad.add(part_term, term)
            total = ad.add(total, ad.mul(part_term, cfg.part_loss_weight))
        if out["eps_loss"] is not None:
            total = ad.add(total, ad.mul(out["eps_loss"], EPS_LOSS_WEIGHT))
        return total

    def part_weight_levels(self, out: dict) -> list[np.ndarray]:
        """Variance-derived part weights per level of ``part_starts`` at this output."""
        feats = (out["coarse_feats"].data, out["fine_feats"].data)[-len(self.part_starts):]
        return [part_weights_from_variance(f, starts)
                for f, starts in zip(feats, self.part_starts)]

    def predict(self, seq: MotionSequence, seed: int = 0) -> np.ndarray:
        """(T, n, 3) mm prediction for one sequence; no tape, no mutation."""
        with np.errstate(**_FP_QUIET):
            out = self.forward(seq.observations[None], seq.occlusion_mask[None], seed=seed)
        return (out["pred_scaled"].data * (1.0 / MM_SCALE)).reshape(seq.observations.shape)


def build_model(config: ModelConfig) -> Model:
    return Model(config)


class Adam:
    """Adaptive first-order optimizer over named parameter slots.

    Parameters are replaced with fresh tensors each step (tensors themselves
    stay immutable); optimizer moments are keyed by slot name. The moment
    decays and the denominator floor are the usual 0.9, 0.999 and 1e-8.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, slots: dict[str, tuple[dict, str]], lr: float = 1e-3):
        self.slots = slots
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros(holder[key].shape) for k, (holder, key) in slots.items()}
        self.v = {k: np.zeros(holder[key].shape) for k, (holder, key) in slots.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for name, (holder, key) in self.slots.items():
            t = holder[key]
            g = t.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            new = t.data - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)
            holder[key] = Tensor(new, requires_grad=True)


def _batch_arrays(dataset: list[MotionSequence], idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    obs = np.stack([dataset[i].observations for i in idx])
    mask = np.stack([dataset[i].occlusion_mask for i in idx])
    gt = np.stack([dataset[i].gt_vertices for i in idx])
    return obs, mask, gt


def train(config: ModelConfig, dataset: list[MotionSequence]) -> tuple[Model, list[float]]:
    """Fixed-step Adam training; deterministic per config seed."""
    if not dataset:
        raise ConfigError("empty training dataset")
    shapes = {(s.observations.shape, s.occlusion_mask.shape, s.gt_vertices.shape)
              for s in dataset}
    if len(shapes) > 1:
        raise ConfigError(f"training sequences differ in shape: {sorted(shapes)}")
    model = build_model(config)
    slots = model.param_slots()
    opt = Adam(slots, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    losses: list[float] = []
    for step in range(config.train_steps):
        if config.batch_size >= len(dataset):
            idx = np.arange(len(dataset))  # full batch, no sampling state
        else:
            idx = rng.choice(len(dataset), size=config.batch_size, replace=False)
        obs, mask, gt = _batch_arrays(dataset, idx)
        # noise keyed to the batch composition: full-batch training sees a
        # fixed realization (so zero lr gives a flat curve), minibatches vary
        noise_seed = config.seed * 1_000_003 + int(zlib.crc32(idx.astype("<i8").tobytes()))
        try:
            with np.errstate(**_FP_QUIET):
                with Tape() as tape:
                    out = model.forward(obs, mask, seed=noise_seed)
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
