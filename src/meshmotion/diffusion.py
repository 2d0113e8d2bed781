"""Temporally-conditioned latent diffusion over per-frame mesh latents.

Forward noising mixes Gaussian noise into the latent step by step while a
cross-attention layer injects a learned sequence context; a graph+time
feature stack summarizes temporal dependencies per spatial site; the reverse
chain denoises conditioned on those dependencies.

Every layer works on one token layout, (B, T, S, C): frames x sites x
channels. The S sites are the coarse mesh vertices; only the 3D convolution
sees them as an H x W grid, and it takes that grid channels-last,
(B, T, H, W, C), so the tokens reach it through a reshape alone (S = H*W, see
:func:`rearrange`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .body_graph import BodyGraph, GraphConvLayer

_KERNEL = 3  # every 3D convolution's extent along T, H and W
_TAIL = 0.05  # the cumulative signal fraction the last noising step keeps


class ScheduleError(ValueError):
    """Invalid diffusion schedule parameters."""


@dataclass
class DiffusionSchedule:
    """Per-step signal-keep coefficients and their cumulative products.

    ``alpha[t-1]`` is the step-t coefficient; ``alpha_bar``, the running
    products, is computed from it at construction. Steps are 1-indexed in
    the step functions.
    """

    alpha: np.ndarray
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        self.alpha_bar = np.cumprod(self.alpha)

    @property
    def n_steps(self) -> int:
        return len(self.alpha)

    def validate(self) -> None:
        if self.n_steps < 2:
            raise ScheduleError(f"need at least 2 steps, got {self.n_steps}")
        if np.any(self.alpha <= 0.0) or np.any(self.alpha > 1.0):
            raise ScheduleError("alpha values must lie in (0, 1]")


def _linear_betas(n_steps: int) -> np.ndarray:
    """Linearly spaced betas in [1e-4, 0.02], rescaled so the cumulative
    signal fraction at the last step hits ``_TAIL``."""
    base = np.linspace(1e-4, 0.02, n_steps)

    def tail(scale: float) -> float:
        return float(np.prod(1.0 - np.clip(base * scale, 0.0, 0.999)))

    lo, hi = 1.0, 1.0
    while tail(hi) > _TAIL and hi < 1e6:
        hi *= 2.0
    if tail(lo) < _TAIL:
        hi = lo
        lo = 1e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail(mid) > _TAIL:
            lo = mid
        else:
            hi = mid
    return np.clip(base * hi, 1e-8, 0.999)


def make_schedule(n_steps: int) -> DiffusionSchedule:
    if n_steps < 2:
        raise ScheduleError(f"need at least 2 steps, got {n_steps}")
    sched = DiffusionSchedule(alpha=1.0 - _linear_betas(n_steps))
    sched.validate()
    return sched


def _check_step(t: int, schedule: DiffusionSchedule) -> int:
    if not (1 <= t <= schedule.n_steps):
        raise ScheduleError(f"step {t} outside [1, {schedule.n_steps}]")
    return int(t)


def forward_noise_step(x_prev, t: int, schedule: DiffusionSchedule, noise) -> Tensor:
    """One noising step: sqrt(1-alpha_t) * noise + sqrt(alpha_t) * x_prev.

    One ``lincomb`` record. The noise draw is a constant operand: the record
    does not keep it, so it is freed once this step has used it.
    """
    x_prev, noise = ad.as_tensor(x_prev), ad.as_tensor(noise)
    if noise.shape != x_prev.shape:
        raise ShapeError(f"noise shape {noise.shape} != input shape {x_prev.shape}")
    t = _check_step(t, schedule)
    a = float(schedule.alpha[t - 1])
    return ad.lincomb(noise, math.sqrt(1.0 - a), x_prev, math.sqrt(a))


def reverse_step(
    z_t,
    t: int,
    eps_pred,
    schedule: DiffusionSchedule,
    noise,
) -> Tensor:
    """One denoising step.

    Deterministic part: (z_t - (1-alpha_t)/sqrt(1-alpha_bar_t) * eps_pred)
    / sqrt(alpha_t). The additive term scales a standard Gaussian draw by
    sqrt(1-alpha_t) * sqrt(1-alpha_bar_{t-1}) / sqrt(1-alpha_bar_t), which
    equals the posterior standard deviation. The draw is forced to zero at
    t = 1, where ``noise`` is not read and may be None; elsewhere a missing
    or misshapen draw raises ``ShapeError``.

    One record: ``lincomb(z_t, 1, eps_pred, -coef, scale=1/sqrt(alpha_t),
    shift=sigma * draw)``, with no shift where there is no draw. It evaluates
    the same expressions in the same order as a ``lincomb`` for the corrected
    state followed by one that scales it and adds the scaled draw, without
    keeping the corrected state or the draw on the tape.
    """
    z_t, eps_pred = ad.as_tensor(z_t), ad.as_tensor(eps_pred)
    if eps_pred.shape != z_t.shape:
        raise ShapeError(f"eps shape {eps_pred.shape} != input shape {z_t.shape}")
    t = _check_step(t, schedule)
    a = float(schedule.alpha[t - 1])
    abar = float(schedule.alpha_bar[t - 1])
    abar_prev = float(schedule.alpha_bar[t - 2]) if t > 1 else 1.0

    one_m_abar = 1.0 - abar
    if one_m_abar <= 0.0:
        eps_coef = 0.0  # alpha_t = 1 collapses both correction terms
        sigma = 0.0
    else:
        eps_coef = (1.0 - a) / math.sqrt(one_m_abar)
        sigma = math.sqrt(1.0 - a) * math.sqrt(1.0 - abar_prev) / math.sqrt(one_m_abar)
    shift = None
    if t > 1 and sigma != 0.0:
        if noise is None:
            raise ShapeError(f"step {t} needs a noise draw of shape {z_t.shape}, got None")
        noise = ad.as_tensor(noise)
        if noise.shape != z_t.shape:
            raise ShapeError(f"noise shape {noise.shape} != input shape {z_t.shape}")
        shift = noise.data * sigma
    return ad.lincomb(z_t, 1.0, eps_pred, -eps_coef, scale=1.0 / math.sqrt(a), shift=shift)


# ---------------------------------------------------------------------------
# attention layers and the feature stack


def _init(rng: np.random.Generator, shape, scale=None) -> Tensor:
    if scale is None:
        scale = 1.0 / math.sqrt(shape[0])
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class AttentionLayer:
    """Residual scaled dot-product attention with learned projections.

    ``keys_values`` projects a context to keys and values; the call attends a
    query to them. A caller that attends to the same context many times
    projects it once and passes the pair to every call. Output projection
    starts at zero so a fresh layer is the identity map. A call is one
    ``attention_layer`` record: the query projection, the attention, the
    output projection and the residual. Beside x, wq, k, v and wo the tape
    keeps only each softmax row's max and exp-sum.
    """

    def __init__(self, width: int, rng: np.random.Generator):
        self.width = width
        self.p = {
            "wq": _init(rng, (width, width)),
            "wk": _init(rng, (width, width)),
            "wv": _init(rng, (width, width)),
            "wo": Tensor(np.zeros((width, width)), requires_grad=True),
        }

    def keys_values(self, context: Tensor) -> tuple[Tensor, Tensor]:
        if context.shape[-1] != self.width:
            raise ShapeError(f"context width {context.shape[-1]} != layer width {self.width}")
        return ad.matmul(context, self.p["wk"]), ad.matmul(context, self.p["wv"])

    def __call__(self, query: Tensor, k: Tensor, v: Tensor) -> Tensor:
        return ad.attention_layer(query, self.p["wq"], k, v, self.p["wo"])


def step_embeddings(n_steps: int, channels: int) -> np.ndarray:
    """Sinusoidal embeddings of the diffusion steps 1..n_steps, read-only;
    row t - 1 embeds step t."""
    half = (channels + 1) // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / max(1, half))
    ang = np.arange(1, n_steps + 1)[:, None] * freqs
    table = np.ascontiguousarray(np.concatenate([np.sin(ang), np.cos(ang)], axis=1)[:, :channels])
    table.flags.writeable = False
    return table


def rearrange(x: Tensor, grid: tuple[int, int] | None = None) -> Tensor:
    """Tokens (B, T, S, C) <-> the channels-last conv3d grid (B, T, H, W, C).

    One differentiable reshape each way, with no transpose. With
    ``grid=(H, W)`` tokens go to the grid, site s landing in cell
    (s // W, s % W); without it a grid goes back to tokens.
    """
    if grid is None:
        if x.ndim != 5:
            raise ShapeError(f"expected a (B, T, H, W, C) grid, got {x.shape}")
        b, t, h, w, c = x.shape
        return ad.reshape(x, (b, t, h * w, c))
    h, w = grid
    if x.ndim != 4 or x.shape[2] != h * w:
        raise ShapeError(f"expected (B, T, {h * w}, C) tokens for grid {h}x{w}, got {x.shape}")
    b, t, _, c = x.shape
    return ad.reshape(x, (b, t, h, w, c))


class GraphTimePass:
    """One modeling pass over (B, T, S, C) tokens: 3D conv over the
    (T, H, W) grid, per-frame graph conv over ``coarse_adj`` (the coarse
    mesh), then temporal self-attention across frames, independently per site."""

    def __init__(self, channels: int, grid: tuple[int, int], coarse_adj: Tensor,
                 rng: np.random.Generator):
        k3 = (channels, channels, _KERNEL, _KERNEL, _KERNEL)
        self.grid = grid
        self.p = {"conv_kernel": _init(rng, k3, scale=1.0 / math.sqrt(channels * _KERNEL**3))}
        self.graph = GraphConvLayer(channels, channels, coarse_adj, rng=rng)
        self.time_attn = AttentionLayer(channels, rng=rng)

    def layers(self):
        return [self, self.graph, self.time_attn]

    def __call__(self, x: Tensor) -> Tensor:
        x = rearrange(ad.relu(ad.conv3d(rearrange(x, self.grid), self.p["conv_kernel"])))
        x = self.graph.apply(x)
        x = ad.transpose(x, (0, 2, 1, 3))                     # (B, S, T, C)
        return ad.transpose(self.time_attn(x, *self.time_attn.keys_values(x)), (0, 2, 1, 3))


class FeatureStack:
    """Two graph+time passes applied back to back (independent weights)."""

    def __init__(self, channels: int, grid: tuple[int, int], coarse_adj: Tensor,
                 rng: np.random.Generator):
        self.passes = [GraphTimePass(channels, grid, coarse_adj, rng) for _ in range(2)]

    def layers(self):
        out = []
        for p in self.passes:
            out += p.layers()
        return out

    def __call__(self, x: Tensor) -> Tensor:
        for p in self.passes:
            x = p(x)
        return x


class NoisePredictor:
    """Estimates the noise component of a latent at a given diffusion step.

    Input normalization -> 3D conv -> per-frame graph conv -> temporal
    self-attention -> linear head (zero-init). The step's sinusoidal
    embedding (a row of :func:`step_embeddings`) joins the normalization's
    shift, so it adds to the channel axis through a (C,) record rather than
    a full-size one.
    """

    def __init__(self, channels: int, grid: tuple[int, int], coarse_adj: Tensor,
                 rng: np.random.Generator):
        self.pass_ = GraphTimePass(channels, grid, coarse_adj, rng)
        self.p = {
            "ln_gamma": Tensor(np.ones(channels), requires_grad=True),
            "ln_beta": Tensor(np.zeros(channels), requires_grad=True),
            "head": Tensor(np.zeros((channels, channels)), requires_grad=True),
        }

    def layers(self):
        return [self] + self.pass_.layers()

    def __call__(self, x: Tensor, embedding: np.ndarray) -> Tensor:
        shift = ad.add(self.p["ln_beta"], ad.constant(embedding))
        x = ad.layer_norm(x, self.p["ln_gamma"], shift)
        return ad.matmul(self.pass_(x), self.p["head"])


class DiffusionBlock:
    """Full noising/denoising block over (B, T, S, C) latent tokens.

    Forward: per-step noise mixing, each step followed by cross-attention
    against the learned sequence context, an (L, C) table of rows. A two-pass
    graph+time stack then summarizes temporal dependencies, which condition
    every reverse step through cross-attention before the denoising update.
    Each call projects the context and the dependencies to keys and values
    once, before the chain that attends to them.
    Deterministic given the seed; returns the denoised tokens plus the mean
    squared error between the predicted noise and the noise component of the
    live state, (z_t - sqrt(alpha_bar_t) x0) / sqrt(1 - alpha_bar_t), averaged
    over the reverse steps (training signal for the predictor): each step's
    term joins a running sum, which is scaled by 1 / n_steps at the end.
    """

    def __init__(self, graph: BodyGraph, channels: int, grid: tuple[int, int],
                 schedule: DiffusionSchedule, *, rng: np.random.Generator):
        h, w = grid
        if h * w != graph.n_coarse:
            raise ShapeError(
                f"latent grid {h}x{w} must match coarse vertex count {graph.n_coarse}"
            )
        self.schedule = schedule
        coarse_adj = graph.coarse_adjacency()  # one constant for the stack and the predictor
        self.n_sites = graph.n_coarse
        self.context_attn = AttentionLayer(channels, rng=rng)
        self.stack = FeatureStack(channels, grid, coarse_adj, rng)
        self.cond_attn = AttentionLayer(channels, rng=rng)
        self.predictor = NoisePredictor(channels, grid, coarse_adj, rng)
        self.step_embedding = step_embeddings(schedule.n_steps, channels)

    def layers(self):
        return ([self.context_attn, self.cond_attn]
                + self.stack.layers() + self.predictor.layers())

    def __call__(self, x0: Tensor, context: Tensor, seed: int) -> tuple[Tensor, Tensor]:
        if x0.ndim != 4 or x0.shape[2] != self.n_sites:
            raise ShapeError(
                f"block input must be (B, T, {self.n_sites}, C) tokens, got {x0.shape}"
            )
        b, t, s, c = x0.shape
        rng = np.random.default_rng(seed)
        sched = self.schedule

        def draw() -> Tensor:
            # a channels-first draw keeps each seed's noise on the same elements
            return ad.constant(np.swapaxes(rng.standard_normal((b, t, c, s)), 2, 3))

        # forward noising with context cross-attention after every step
        ctx_kv = self.context_attn.keys_values(context)
        x = x0
        for step in range(1, sched.n_steps + 1):
            x = self.context_attn(forward_noise_step(x, step, sched, draw()), *ctx_kv)

        # temporal dependency summary from the noised latent
        deps_kv = self.cond_attn.keys_values(self.stack(x))

        # conditioned reverse chain; the predictor trains toward the noise
        # component of the live state, (z_t - sqrt(abar_t) x0)/sqrt(1-abar_t),
        # whose exact prediction recovers x0 at the final step
        z = x
        eps_sum = None
        for step in range(sched.n_steps, 0, -1):
            z = self.cond_attn(z, *deps_kv)
            eps_hat = self.predictor(z, self.step_embedding[step - 1])
            abar = float(sched.alpha_bar[step - 1])
            if 1.0 - abar > 0.0:
                target = (z.data - math.sqrt(abar) * x0.data) / math.sqrt(1.0 - abar)
            else:
                target = np.zeros_like(x0.data)
            term = ad.mse(eps_hat, target)
            eps_sum = term if eps_sum is None else ad.add(eps_sum, term)
            z = reverse_step(z, step, eps_hat, sched, draw() if step > 1 else None)

        return z, ad.mul(eps_sum, 1.0 / sched.n_steps)
