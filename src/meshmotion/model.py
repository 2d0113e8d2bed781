"""End-to-end model assembly, training, and evaluation.

Pipeline: per-frame MLP encoder over masked vertex observations -> latent
grid whose spatial sites are coarse mesh vertices -> diffusion block (or the
deterministic graph+time stack when diffusion is off) -> linear up-projection
to fine vertices -> per-vertex regression head. Training optimizes vertex
error plus optional part-distribution and noise-prediction terms with Adam.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .body_graph import (
    DEFAULT_PARTS,
    BodyGraph,
    ToyBodyConfig,
    generate_toy_body,
    resolve_activation,
)
from .diffusion import DiffusionBlock, FeatureStack, SequenceContext, make_schedule
from .metrics import JointRegressor, PoseError, build_joint_regressor, compute_metrics
from .part_loss import PartLabelMap, hh_loss, part_map_from_ranges, part_weights_from_variance
from .synth import MotionSequence

_CKPT_MAGIC = b"MMCK"
_CKPT_VERSION = 1

MM_SCALE = 1e-3  # mm -> model units

# numpy floating-point errors stay silent over a whole training step or
# prediction: the NumericsError that autodiff raises on a non-finite result or
# gradient is the one signal, so a caller who turns warnings into errors still
# gets the typed error (and TrainingDivergence out of train)
_FP_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


class ConfigError(ValueError):
    """Inconsistent model configuration."""


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during training."""

    def __init__(self, step: int, message: str = ""):
        self.step = step
        super().__init__(f"training diverged at step {step}" + (f": {message}" if message else ""))


@dataclass
class ModelConfig:
    parts: tuple[str, ...] = DEFAULT_PARTS
    vertices_per_part: int = 12
    coarse_per_part: int = 3
    adjacency_norm: str = "sym"
    channels: int = 8
    height: int = 4
    width: int = 6
    diffusion_steps: int = 50
    schedule: str = "linear"
    heads: int = 1
    hierarchy_depth: int = 2
    diffusion_on: bool = True
    part_loss_on: bool = True
    activation: str = "relu"
    context_rows: int = 4
    encoder_hidden: int = 64
    conv_kernel: int = 3
    learning_rate: float = 3e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    train_steps: int = 200
    batch_size: int = 4
    vertex_loss_weight: float = 1.0
    part_loss_weight: float = 0.1
    eps_loss_weight: float = 0.1
    seed: int = 0

    @property
    def n_vertices(self) -> int:
        return len(self.parts) * self.vertices_per_part

    @property
    def n_coarse(self) -> int:
        return len(self.parts) * self.coarse_per_part

    def validate(self) -> None:
        if self.height * self.width != self.n_coarse:
            raise ConfigError(
                f"latent grid {self.height}x{self.width} must equal the coarse "
                f"vertex count {self.n_coarse}"
            )
        if self.hierarchy_depth not in (1, 2):
            raise ConfigError(f"hierarchy depth must be 1 or 2, got {self.hierarchy_depth}")
        if self.diffusion_on and self.diffusion_steps < 2:
            raise ConfigError("diffusion needs at least 2 steps")
        if min(self.channels, self.encoder_hidden, self.batch_size) < 1:
            raise ConfigError("channels, encoder_hidden and batch_size must be positive")

    def body_config(self) -> ToyBodyConfig:
        return ToyBodyConfig(
            parts=self.parts,
            vertices_per_part=self.vertices_per_part,
            coarse_per_part=self.coarse_per_part,
            normalization=self.adjacency_norm,
        )

    def to_json(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["parts"] = list(self.parts)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ModelConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        doc = dict(doc)
        if "parts" in doc:
            doc["parts"] = tuple(doc["parts"])
        cfg = cls(**doc)
        cfg.validate()
        return cfg


def config_hash(config: ModelConfig) -> str:
    canon = json.dumps(config.to_json(), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


class Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator):
        self.p = {
            "w": Tensor(rng.standard_normal((n_in, n_out)) / math.sqrt(n_in),
                        requires_grad=True),
            "b": Tensor(np.zeros(n_out), requires_grad=True),
        }

    def __call__(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.p["w"]), self.p["b"])


class Model:
    """Assembled pipeline; parameters live in per-layer dicts."""

    def __init__(self, config: ModelConfig):
        config.validate()
        self.config = config
        self.graph = generate_toy_body(config.body_config())
        self.regressor = build_joint_regressor(self.graph)
        self.fine_map = part_map_from_ranges(self.graph.part_ranges())
        self.coarse_map = part_map_from_ranges(self.graph.coarse_part_ranges())
        rng = np.random.default_rng(config.seed)

        n = self.graph.n_vertices
        c, h, w = config.channels, config.height, config.width
        self.enc1 = Linear(4 * n, config.encoder_hidden, rng)
        self.enc2 = Linear(config.encoder_hidden, c * h * w, rng)
        self.head = Linear(c, 3, rng)

        if config.diffusion_on:
            self.schedule = make_schedule(config.diffusion_steps, config.schedule)
            self.core = DiffusionBlock(
                self.graph, c, (h, w), self.schedule, kernel=config.conv_kernel,
                heads=config.heads, activation=config.activation, rng=rng,
            )
            self.context_p = {
                "rows": Tensor(rng.standard_normal((config.context_rows, c)) * 0.3,
                               requires_grad=True),
            }
        else:
            self.schedule = None
            self.core = FeatureStack(c, (h, w), config.conv_kernel, config.heads,
                                     config.activation, rng)
            self.context_p = None
            self.coarse_adj = self.graph.coarse_adjacency()

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
        """observations (B, T, n, 3) mm and mask (B, T, n) -> prediction dict."""
        cfg = self.config
        obs = np.asarray(observations, dtype=np.float64)
        msk = np.asarray(mask, dtype=np.float64)
        B, T, n, _ = obs.shape
        if n != self.graph.n_vertices:
            raise ConfigError(f"sequence has {n} vertices, model expects {self.graph.n_vertices}")
        c, h, w = cfg.channels, cfg.height, cfg.width

        frame_in = np.concatenate([
            obs.reshape(B * T, n * 3) * MM_SCALE,
            msk.reshape(B * T, n),
        ], axis=1)
        act = resolve_activation(cfg.activation)
        x = self.enc2(act(self.enc1(ad.constant(frame_in))))
        # enc2's columns are channel-major: read them as (B, T, C, S)
        tokens = ad.transpose(ad.reshape(x, (B, T, c, h * w)), (0, 1, 3, 2))

        if cfg.diffusion_on:
            ctx = SequenceContext(rows=self.context_p["rows"])
            tokens, eps_loss = self.core(tokens, ctx, seed)
        else:
            tokens = self.core(tokens, self.coarse_adj)
            eps_loss = None

        coarse_feats = ad.reshape(tokens, (B * T, h * w, c))
        fine_feats = ad.matmul(self.graph.up_matrix, coarse_feats)  # (B*T, n, C)
        pred_scaled = self.head(fine_feats)                         # model units
        pred_mm = ad.reshape(ad.mul(pred_scaled, 1.0 / MM_SCALE), (B, T, n, 3))
        return {
            "pred_mm": pred_mm,
            "pred_scaled": pred_scaled,
            "coarse_feats": coarse_feats,
            "fine_feats": fine_feats,
            "eps_loss": eps_loss,
        }

    def loss(self, out: dict, gt_vertices: np.ndarray,
             fixed_part_weights: list[np.ndarray] | None = None) -> Tensor:
        """Composite training objective on one batch.

        ``fixed_part_weights`` pins the per-level part weights instead of
        deriving them from the current features (the weights carry no
        gradient either way; pinning lets finite differencing match).
        """
        cfg = self.config
        B, T, n, _ = gt_vertices.shape
        gt_scaled = np.asarray(gt_vertices, dtype=np.float64).reshape(B * T, n, 3) * MM_SCALE
        diff = ad.sub(out["pred_scaled"], ad.constant(gt_scaled))
        total = ad.mul(ad.mean(ad.mul(diff, diff)), cfg.vertex_loss_weight)
        if cfg.part_loss_on:
            levels = []
            if cfg.hierarchy_depth >= 2:
                gt_coarse = np.einsum("cn,bnk->bck", self.graph.down_matrix.data, gt_scaled)
                levels.append((out["coarse_feats"], gt_coarse, self.coarse_map,
                               out["coarse_feats"].data))
            levels.append((out["pred_scaled"], gt_scaled, self.fine_map,
                           out["fine_feats"].data))
            part_term = None
            for li, (pred, true, pmap, gtm) in enumerate(levels):
                if fixed_part_weights is not None:
                    pmap = PartLabelMap(ranges=pmap.ranges,
                                        weights=np.asarray(fixed_part_weights[li]))
                    term = hh_loss(pred, true, pmap, gtm_features=None)
                else:
                    term = hh_loss(pred, true, pmap, gtm)
                part_term = term if part_term is None else ad.add(part_term, term)
            total = ad.add(total, ad.mul(part_term, cfg.part_loss_weight))
        if cfg.diffusion_on and out["eps_loss"] is not None:
            total = ad.add(total, ad.mul(out["eps_loss"], cfg.eps_loss_weight))
        return total

    def part_weight_levels(self, out: dict) -> list[np.ndarray]:
        """Variance-derived part weights per hierarchy level at this output."""
        levels = []
        if self.config.hierarchy_depth >= 2:
            levels.append(part_weights_from_variance(out["coarse_feats"].data, self.coarse_map))
        levels.append(part_weights_from_variance(out["fine_feats"].data, self.fine_map))
        return levels

    def predict(self, seq: MotionSequence, seed: int = 0) -> np.ndarray:
        """(T, n, 3) mm prediction for one sequence; no tape, no mutation."""
        with np.errstate(**_FP_QUIET):
            out = self.forward(seq.observations[None], seq.occlusion_mask[None], seed=seed)
        return out["pred_mm"].data[0]


def build_model(config: ModelConfig) -> Model:
    return Model(config)


class Adam:
    """Adaptive first-order optimizer over named parameter slots.

    Parameters are replaced with fresh tensors each step (tensors themselves
    stay immutable); optimizer moments are keyed by slot name.
    """

    def __init__(self, slots: dict[str, tuple[dict, str]], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.slots = slots
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros(holder[key].shape) for k, (holder, key) in slots.items()}
        self.v = {k: np.zeros(holder[key].shape) for k, (holder, key) in slots.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, (holder, key) in self.slots.items():
            t = holder[key]
            g = t.grad
            if g is None:
                continue
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1**self.t)
            v_hat = self.v[name] / (1 - b2**self.t)
            new = t.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
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
    model = build_model(config)
    slots = model.param_slots()
    opt = Adam(slots, lr=config.learning_rate, beta1=config.adam_beta1,
               beta2=config.adam_beta2, eps=config.adam_eps)
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
                if not math.isfinite(value):
                    raise TrainingDivergence(step)
                tape.backward(loss)
                opt.step()
        except ad.NumericsError as exc:
            raise TrainingDivergence(step, str(exc)) from exc
        losses.append(value)
    return model, losses


def evaluate(model, dataset: list[MotionSequence],
             regressor: JointRegressor | None = None) -> tuple[PoseError, list[tuple[str, PoseError]]]:
    """Mean pose error over sequences; any object with .predict works."""
    if not dataset:
        raise ConfigError("empty evaluation dataset")
    if regressor is None:
        regressor = getattr(model, "regressor", None)
    if regressor is None:
        raise ConfigError("no joint regressor: pass one or use a model that carries it")
    rows = []
    for i, seq in enumerate(dataset):
        pred = model.predict(seq, seed=i)
        rows.append((f"seq{i:04d}", compute_metrics(pred, seq.gt_vertices, regressor)))
    vals = np.array([r.as_tuple() for _, r in rows])
    means = vals.mean(axis=0)
    agg = PoseError(mpvpe=float(means[0]), mpjpe=float(means[1]), pa_mpjpe=float(means[2]))
    return agg, rows


class MeanPosePredictor:
    """Constant baseline: predicts the training-set mean pose every frame."""

    def __init__(self, dataset: list[MotionSequence], regressor: JointRegressor):
        self.mean_pose = np.mean([s.gt_vertices.mean(axis=0) for s in dataset], axis=0)
        self.regressor = regressor

    def predict(self, seq: MotionSequence, seed: int = 0) -> np.ndarray:
        return np.tile(self.mean_pose[None], (seq.frames, 1, 1))


# ---------------------------------------------------------------------------
# checkpoint container


def save_model(model: Model, path: str | Path) -> None:
    slots = model.param_slots()
    cfg_blob = json.dumps(model.config.to_json(), sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(cfg_blob)))
        fh.write(cfg_blob)
        fh.write(struct.pack("<I", len(slots)))
        for name in sorted(slots):
            holder, key = slots[name]
            arr = np.ascontiguousarray(holder[key].data, dtype="<f8")
            nb = name.encode()
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_model(path: str | Path) -> Model:
    raw = Path(path).read_bytes()
    if raw[:4] != _CKPT_MAGIC:
        raise ConfigError(f"'{path}': bad checkpoint magic {raw[:4]!r}")
    version, cfg_len = struct.unpack("<II", raw[4:12])
    if version != _CKPT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    offset = 12
    config = ModelConfig.from_json(json.loads(raw[offset:offset + cfg_len].decode()))
    offset += cfg_len
    (count,) = struct.unpack("<I", raw[offset:offset + 4])
    offset += 4
    model = build_model(config)
    slots = model.param_slots()
    for _ in range(count):
        (nlen,) = struct.unpack("<I", raw[offset:offset + 4])
        offset += 4
        name = raw[offset:offset + nlen].decode()
        offset += nlen
        (ndim,) = struct.unpack("<I", raw[offset:offset + 4])
        offset += 4
        shape = struct.unpack(f"<{ndim}I", raw[offset:offset + 4 * ndim])
        offset += 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(raw, dtype="<f8", count=size, offset=offset).reshape(shape)
        offset += size * 8
        if name not in slots:
            raise ConfigError(f"checkpoint parameter {name!r} unknown to this config")
        holder, key = slots[name]
        holder[key] = Tensor(arr.copy(), requires_grad=True)
    return model
