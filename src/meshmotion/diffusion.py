"""Temporally-conditioned latent diffusion over per-frame mesh latents.

One denoiser serves training and prediction. It estimates the clean latent
x0 from a noised latent z_t at step t, in the v-form of arXiv 2202.00512:
x0_hat = sqrt(abar_t) z_t + sqrt(1 - abar_t) F(z_t, t), where F attends to a
learned sequence context, then to the temporal dependencies a graph+time
feature stack summarizes from the fully noised latent z_T, and ends in the
noise predictor. Noising is the closed-form DDPM marginal q(z_t | x0) (arXiv
2006.11239). Training scores x0_hat at one sampled step; prediction returns
the estimate at the last step, x0_hat(z_T, T). Both read the schedule only
through its cumulative signal fractions abar_1..abar_T, the read-only array
:func:`make_schedule` returns, and call the denoiser once per forward.

Every layer works on one token layout, (B, T, S, C): frames x sites x
channels. The S sites are the coarse mesh vertices; only the 3D convolution
sees them as an H x W grid, and it takes that grid channels-last,
(B, T, H, W, C), so the tokens reach it through a reshape alone (S = H*W, see
:func:`rearrange`).
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .body_graph import GraphConvLayer, is_integer

_KERNEL = 3  # every 3D convolution's extent along T, H and W
_TAIL = 0.05  # the cumulative signal fraction the last noising step keeps


class ScheduleError(ValueError):
    """Invalid diffusion schedule parameters."""


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


def make_schedule(n_steps: int) -> np.ndarray:
    """The cumulative signal fractions abar_1..abar_n of the linear-beta
    schedule of ``n_steps`` steps, read-only; entry t - 1 is step t's.
    ``n_steps`` must be an integer of at least 2 (``ScheduleError``)."""
    if not is_integer(n_steps):
        raise ScheduleError(f"n_steps must be an integer, got {n_steps!r}")
    if n_steps < 2:
        raise ScheduleError(f"need at least 2 steps, got {n_steps}")
    alpha_bar = np.cumprod(1.0 - _linear_betas(n_steps))
    alpha_bar.flags.writeable = False
    return alpha_bar


def _check_step(t: int, alpha_bar: np.ndarray) -> int:
    """``t`` as an int, checked to be a whole step in [1, len(alpha_bar)]: a
    fractional step such as 1.5, or a bool (Python's or numpy's), raises
    rather than run step 1; a whole float such as 2.0 is step 2."""
    n = len(alpha_bar)
    if isinstance(t, (bool, np.bool_)) or not (1 <= t <= n) or t != int(t):
        raise ScheduleError(f"step {t} is not a whole step in [1, {n}]")
    return int(t)


def forward_noise_step(x0, t: int, alpha_bar: np.ndarray, noise) -> Tensor:
    """q(z_t | x0) in closed form: sqrt(abar_t) * x0 + sqrt(1-abar_t) * noise,
    with abar_t = ``alpha_bar[t - 1]``.

    One ``lincomb`` record. The noise draw is a constant operand: the record
    does not keep it, so it is freed once the block has used it.
    """
    x0, noise = ad.as_tensor(x0), ad.as_tensor(noise)
    if noise.shape != x0.shape:
        raise ShapeError(f"noise shape {noise.shape} != input shape {x0.shape}")
    t = _check_step(t, alpha_bar)
    abar = float(alpha_bar[t - 1])
    return ad.lincomb(noise, math.sqrt(1.0 - abar), x0, math.sqrt(abar))


def reverse_step(z_t, t: int, x0_hat, alpha_bar: np.ndarray, t_prev: int) -> Tensor:
    """One deterministic DDIM step (eta = 0, arXiv 2010.02502) from step t to
    step t_prev < t, over the cumulative fractions ``alpha_bar``.

    The noise the estimate implies, eps = (z_t - sqrt(abar_t) x0_hat) /
    sqrt(1-abar_t), is carried to t_prev: sqrt(abar_prev) x0_hat +
    sqrt(1-abar_prev) eps. ``t_prev`` 0 is the clean end (abar_0 = 1), where
    the step returns x0_hat. Where 1 - abar_t is 0, z_t is clean and the
    step returns sqrt(abar_prev) x0_hat.

    One record: ``lincomb(z_t, c, x0_hat, sqrt(abar_prev) - c sqrt(abar_t))``
    with c = sqrt(1-abar_prev) / sqrt(1-abar_t).

    No model code calls it: prediction returns the denoiser's estimate at the
    last step. It stays because perfbench's tracer wraps
    ``diffusion.reverse_step`` by name, so deleting it would stop every
    traced run.
    """
    z_t, x0_hat = ad.as_tensor(z_t), ad.as_tensor(x0_hat)
    if x0_hat.shape != z_t.shape:
        raise ShapeError(f"x0_hat shape {x0_hat.shape} != input shape {z_t.shape}")
    t = _check_step(t, alpha_bar)
    if isinstance(t_prev, (bool, np.bool_)) or t_prev != 0:
        t_prev = _check_step(t_prev, alpha_bar)
    if not t_prev < t:
        raise ScheduleError(f"step {t} cannot step to {t_prev}: the sampler steps down")
    abar = float(alpha_bar[t - 1])
    abar_prev = float(alpha_bar[t_prev - 1]) if t_prev else 1.0
    c = math.sqrt(1.0 - abar_prev) / math.sqrt(1.0 - abar) if abar < 1.0 else 0.0
    return ad.lincomb(z_t, c, x0_hat, math.sqrt(abar_prev) - c * math.sqrt(abar))


# ---------------------------------------------------------------------------
# attention layers and the feature stack


def _init(rng: np.random.Generator, shape, scale=None) -> Tensor:
    if scale is None:
        scale = 1.0 / math.sqrt(shape[0])
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=True)


class AttentionLayer:
    """Residual scaled dot-product attention with learned projections.

    A call attends a query to a context, which is the query itself for
    self-attention, as one ``attention_layer`` record: the key, value and
    query projections, the attention, the output projection and the
    residual. Beside the query, the context and the four weights the tape
    keeps only each softmax row's max and exp-sum. Output projection starts
    at zero so a fresh layer is the identity map.
    """

    def __init__(self, width: int, rng: np.random.Generator):
        self.p = {
            "wq": _init(rng, (width, width)),
            "wk": _init(rng, (width, width)),
            "wv": _init(rng, (width, width)),
            "wo": Tensor(np.zeros((width, width)), requires_grad=True),
        }

    def __call__(self, query: Tensor, context: Tensor) -> Tensor:
        p = self.p
        return ad.attention_layer(query, context, p["wq"], p["wk"], p["wv"], p["wo"])


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
    mesh), then temporal self-attention across frames, independently per site.

    The time attention passes the tokens as their own context, one
    ``attention_layer`` record that keeps its input rather than its keys and
    values."""

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
        return ad.transpose(self.time_attn(x, x), (0, 2, 1, 3))


class FeatureStack:
    """Two graph+time passes applied back to back (independent weights)."""

    def __init__(self, channels: int, grid: tuple[int, int], coarse_adj: Tensor,
                 rng: np.random.Generator):
        self.passes = [GraphTimePass(channels, grid, coarse_adj, rng) for _ in range(2)]

    def layers(self):
        return [layer for p in self.passes for layer in p.layers()]

    def __call__(self, x: Tensor) -> Tensor:
        for p in self.passes:
            x = p(x)
        return x


class NoisePredictor:
    """The denoiser's last stage: F(z, t), the term that x0_hat adds to
    sqrt(abar_t) z, scaled by sqrt(1 - abar_t) (see :class:`DiffusionBlock`).

    Input normalization -> 3D conv -> per-frame graph conv -> temporal
    self-attention -> linear head (zero-init, so a fresh block's x0_hat is
    sqrt(abar_t) z). It owns the step embeddings (:func:`step_embeddings`);
    step t's row joins the normalization's shift, so it adds to the channel
    axis through a (C,) record, not a full-size one.
    """

    def __init__(self, channels: int, grid: tuple[int, int], coarse_adj: Tensor,
                 n_steps: int, rng: np.random.Generator):
        self.pass_ = GraphTimePass(channels, grid, coarse_adj, rng)
        self.p = {
            "ln_gamma": Tensor(np.ones(channels), requires_grad=True),
            "ln_beta": Tensor(np.zeros(channels), requires_grad=True),
            "head": Tensor(np.zeros((channels, channels)), requires_grad=True),
        }
        self.embeddings = step_embeddings(n_steps, channels)

    def layers(self):
        return [self] + self.pass_.layers()

    def __call__(self, x: Tensor, step: int) -> Tensor:
        shift = ad.lincomb(self.p["ln_beta"], 1.0, self.embeddings[step - 1], 1.0)
        x = ad.layer_norm(x, self.p["ln_gamma"], shift)
        return ad.matmul(self.pass_(x), self.p["head"])


class DiffusionBlock:
    """Noising and denoising over (B, T, S, C) latent tokens.

    Built from its sublayers' inputs (channels, the (H, W) grid, the coarse
    adjacency), the schedule's cumulative fractions ``alpha_bar`` (see
    :func:`make_schedule`) and the row count of the learned sequence
    context, a (context_rows, C) table it owns as ``p["context"]``.

    A call draws one standard Gaussian eps from ``seed`` and noises the
    input x0 to the last step in closed form, z_T = q(z_T | x0) through
    :func:`forward_noise_step`. The two-pass graph+time stack summarizes
    z_T's temporal dependencies, and :meth:`x0_hat`, the one denoiser both
    modes use, estimates x0 from a noised z conditioned on them.

    With ``block_loss`` (training) the call draws one step t in [1, n_steps]
    from the same generator, forms z_t from the same eps, and returns
    x0_hat(z_t, t) with the block loss mean((x0_hat - x0)²), all on the
    tape. With ``block_loss=False`` (``Model.predict``) it returns
    x0_hat(z_T, n_steps) and None: what training returns for a draw of
    t = n_steps. Deterministic given the seed.
    """

    def __init__(self, channels: int, grid: tuple[int, int], coarse_adj: Tensor,
                 alpha_bar: np.ndarray, context_rows: int, *, rng: np.random.Generator):
        h, w = grid
        self.n_sites = coarse_adj.shape[0]
        if h * w != self.n_sites:
            raise ShapeError(f"latent grid {h}x{w} must match coarse vertex count {self.n_sites}")
        self.alpha_bar = alpha_bar
        self.context_attn = AttentionLayer(channels, rng=rng)
        self.stack = FeatureStack(channels, grid, coarse_adj, rng)
        self.cond_attn = AttentionLayer(channels, rng=rng)
        self.predictor = NoisePredictor(channels, grid, coarse_adj, len(alpha_bar), rng)
        self.p = {"context": _init(rng, (context_rows, channels), scale=0.3)}

    def layers(self):
        return ([self.context_attn, self.cond_attn]
                + self.stack.layers() + self.predictor.layers() + [self])

    def x0_hat(self, z: Tensor, t: int, deps: Tensor) -> Tensor:
        """The estimate of x0 from z at step t: sqrt(abar_t) z + sqrt(1-abar_t)
        F(z, t), with F attending z to the learned context, then to ``deps``
        (the feature stack's summary of z_T), then the noise predictor; each
        attention layer projects its context to keys and values inside its
        record. A step t that is not a whole step in [1, n_steps] raises
        ``ScheduleError``."""
        t = _check_step(t, self.alpha_bar)
        abar = float(self.alpha_bar[t - 1])
        f = self.predictor(self.cond_attn(self.context_attn(z, self.p["context"]), deps), t)
        return ad.lincomb(z, math.sqrt(abar), f, math.sqrt(1.0 - abar))

    def __call__(self, x0: Tensor, seed: int, *,
                 block_loss: bool = True) -> tuple[Tensor, Tensor | None]:
        if x0.ndim != 4 or x0.shape[2] != self.n_sites:
            raise ShapeError(
                f"block input must be (B, T, {self.n_sites}, C) tokens, got {x0.shape}"
            )
        b, t, s, c = x0.shape
        n = len(self.alpha_bar)
        rng = np.random.default_rng(seed)
        # a channels-first draw keeps each seed's noise on the same elements
        eps = np.swapaxes(rng.standard_normal((b, t, c, s)), 2, 3)
        z_T = forward_noise_step(x0, n, self.alpha_bar, eps)
        deps = self.stack(z_T)
        if not block_loss:
            return self.x0_hat(z_T, n, deps), None
        step = int(rng.integers(1, n + 1))
        x0_hat = self.x0_hat(forward_noise_step(x0, step, self.alpha_bar, eps), step, deps)
        return x0_hat, ad.mse(ad.lincomb(x0_hat, 1.0, x0, -1.0), np.zeros(x0.shape))
