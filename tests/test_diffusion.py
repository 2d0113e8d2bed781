import hashlib
import math
import types
import weakref

import numpy as np
import pytest

import oracle_ops as oracle
from oracle_ops import gradcheck
from meshmotion import autodiff as ad
from meshmotion import diffusion
from meshmotion.autodiff import ShapeError, Tape, Tensor
from meshmotion.body_graph import generate_toy_body
from meshmotion.diffusion import (
    AttentionLayer,
    DiffusionBlock,
    GraphTimePass,
    ScheduleError,
    forward_noise_step,
    make_schedule,
    rearrange,
    reverse_step,
    step_embeddings,
)
from meshmotion.model import ModelConfig, build_model


@pytest.mark.parametrize("n_steps", [2, 5, 10, 50, 100], ids=lambda n: f"{n}-linear")
def test_schedule_invariants(n_steps):
    alpha_bar = make_schedule(n_steps)
    assert alpha_bar.shape == (n_steps,) and not alpha_bar.flags.writeable
    assert np.all((alpha_bar > 0.0) & (alpha_bar < 1.0))
    assert np.all(np.diff(alpha_bar) < 0)
    assert alpha_bar[-1] < 0.1


def test_default_schedule_is_pinned():
    # the default model's 50 steps, the bits every loss and prediction reads
    digest = hashlib.sha256(make_schedule(50).tobytes()).hexdigest()
    assert digest == "28c64c4f2538ff08dc91ca3ecd2a0eb052bba40d487720e645dfdab07dccc676"


def test_schedule_rejects_tiny():
    with pytest.raises(ScheduleError):
        make_schedule(1)
    # each failed inside numpy, or would have counted True as 1
    for n_steps in (2.5, 3.0, True):
        with pytest.raises(ScheduleError, match="^n_steps must be an integer"):
            make_schedule(n_steps)


def test_forward_noise_alpha_one_is_identity():
    x = np.arange(6, dtype=float).reshape(2, 3)
    out = forward_noise_step(x, 1, np.ones(2), np.ones((2, 3)))
    np.testing.assert_array_equal(out.data, x)


def test_forward_noise_alpha_zero_is_pure_noise():
    eps = np.random.default_rng(0).standard_normal((2, 3))
    out = forward_noise_step(np.ones((2, 3)), 1, np.zeros(2), eps)
    np.testing.assert_array_equal(out.data, eps)


def test_forward_noise_shape_error():
    sched = make_schedule(5)
    with pytest.raises(ShapeError):
        forward_noise_step(np.zeros((2, 2)), 1, sched, np.zeros(3))


def test_forward_noise_iterated_statistics_monte_carlo():
    # q(z_t | x0) in closed form against the per-step noising loop it
    # replaces: both have mean sqrt(abar_t) x0 and variance 1 - abar_t
    sched = make_schedule(10)
    alphas = sched / np.r_[1.0, sched[:-1]]   # the per-step factors abar_t / abar_(t-1)
    rng = np.random.default_rng(123)
    n, x0 = 100_000, 1.7
    for t in (1, 4, 10):
        closed = forward_noise_step(np.full(n, x0), t, sched, rng.standard_normal(n)).data
        looped = oracle.noise_by_steps(np.full(n, x0), alphas[:t], rng.standard_normal((t, n)))
        abar = sched[t - 1]
        exp_mean, exp_var = math.sqrt(abar) * x0, 1.0 - abar
        # 3-sigma Monte-Carlo bounds on each sample's mean and variance
        mean_tol = 3.0 * math.sqrt(exp_var / n)
        var_tol = 3.0 * exp_var * math.sqrt(2.0 / (n - 1))
        for z in (closed, looped):
            assert abs(z.mean() - exp_mean) < mean_tol
            assert abs(z.var() - exp_var) < var_tol
        # and the two samples against each other, at the same 3 sigma
        assert abs(closed.mean() - looped.mean()) < math.sqrt(2.0) * mean_tol
        assert abs(closed.var() - looped.var()) < math.sqrt(2.0) * var_tol


def test_forward_noise_is_the_recurrence_with_one_draw_where_alpha_is_one():
    # with every alpha but the first equal to 1 the recurrence adds its one
    # draw at step 1, and the closed form is that same expression
    rng = np.random.default_rng(124)
    x0, draw = rng.standard_normal((2, 5))
    closed = forward_noise_step(x0, 3, np.full(3, 0.6), draw).data
    looped = oracle.noise_by_steps(x0, [0.6, 1.0, 1.0], [draw, np.zeros(5), np.zeros(5)])
    np.testing.assert_array_equal(closed, looped)


def _ddim_oracle(z, x0_hat, alpha_bar, alpha_bar_prev):
    # scalar transcription of the DDIM update through the implied noise
    eps = (z - math.sqrt(alpha_bar) * x0_hat) / math.sqrt(1.0 - alpha_bar)
    return math.sqrt(alpha_bar_prev) * x0_hat + math.sqrt(1.0 - alpha_bar_prev) * eps


def test_reverse_step_alpha_one_is_identity():
    # with no noise in the schedule z_t is clean, and the step returns the
    # estimate: z itself where the estimate is z, as an alpha-one denoiser's is
    sched = np.ones(2)
    z, x0_hat = np.arange(4, dtype=float), np.ones(4)
    for t, t_prev in ((2, 1), (2, 0), (1, 0)):
        np.testing.assert_array_equal(reverse_step(z, t, z, sched, t_prev).data, z)
        np.testing.assert_array_equal(reverse_step(z, t, x0_hat, sched, t_prev).data, x0_hat)


def test_reverse_step_zero_eps_zero_noise():
    # an estimate that implies zero noise, x0_hat = z / sqrt(abar_t), carries
    # no noise to step t - 1: the step rescales z by 1 / sqrt(alpha_t), with
    # alpha_t = abar_t / abar_(t-1)
    sched = make_schedule(5)
    z = np.array([1.0, -2.0])
    x0_hat = z / math.sqrt(sched[2])
    out = reverse_step(z, 3, x0_hat, sched, 2)
    np.testing.assert_allclose(out.data, z / math.sqrt(sched[2] / sched[1]), atol=1e-15)


def test_reverse_step_to_the_clean_end_returns_the_estimate():
    sched = make_schedule(5)
    rng = np.random.default_rng(8)
    z, x0_hat = rng.standard_normal((2, 3, 4))
    for t in (1, 3, 5):
        np.testing.assert_array_equal(reverse_step(z, t, x0_hat, sched, 0).data, x0_hat)


def test_reverse_step_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    sched = make_schedule(20)
    for _ in range(1000):
        t = int(rng.integers(1, 21))
        t_prev = int(rng.integers(0, t))
        z, x0_hat = (float(v) for v in rng.standard_normal(2))
        ab = float(sched[t - 1])
        abp = float(sched[t_prev - 1]) if t_prev else 1.0
        got = reverse_step(np.array([z]), t, np.array([x0_hat]), sched, t_prev)
        assert abs(got.data[0] - _ddim_oracle(z, x0_hat, ab, abp)) < 1e-12


def test_reverse_recovers_x0_from_single_step():
    # given the true x0, one reverse step from step 1 undoes one forward step;
    # from any z_t = q(z_t | x0) with noise eps it lands on z_t_prev with the
    # same eps
    sched = make_schedule(50)
    rng = np.random.default_rng(9)
    x0, eps = rng.standard_normal((2, 3, 2))
    for t, t_prev in ((50, 45), (12, 6), (6, 1), (1, 0)):
        z = forward_noise_step(x0, t, sched, eps)
        want = forward_noise_step(x0, t_prev, sched, eps).data if t_prev else x0
        np.testing.assert_allclose(reverse_step(z, t, x0, sched, t_prev).data, want,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("t_prev", [3, 4, 1.5, -1, False, np.False_])
def test_reverse_step_steps_down_to_a_whole_step(t_prev):
    # the target step lies below t: 0 (the clean end) or a whole step
    with pytest.raises(ScheduleError):
        reverse_step(np.zeros(2), 3, np.zeros(2), make_schedule(5), t_prev)


def _denoise(t, sched):
    # a fresh block's denoiser at step t, on the block's (1, 2, 8, 4) tokens
    _, block, _ = _block_setup(n_steps=len(sched))
    z = _tokens((1, 2, 8, 4), np.random.default_rng(32))
    return block.x0_hat(z, t, block.stack(z))


@pytest.mark.parametrize("t", [6, 1.5, True, np.True_, 0])
@pytest.mark.parametrize("step", [
    lambda t, sched: forward_noise_step(np.zeros(2), t, sched, np.zeros(2)),
    lambda t, sched: reverse_step(np.zeros(2), t, np.zeros(2), sched, 0),
    _denoise,
], ids=["forward_noise_step", "reverse_step", "x0_hat"])
def test_reverse_step_range_error(step, t):
    # a step past the schedule, or between two steps, is no step to run, and
    # a bool is no step though True == 1; step 0 would read the last step's
    # coefficient and embedding, wrapped around
    with pytest.raises(ScheduleError, match=f"step {t} is not a whole step"):
        step(t, make_schedule(5))


def test_a_whole_float_step_runs_that_step():
    sched = make_schedule(5)
    np.testing.assert_array_equal(forward_noise_step(np.zeros(2), 2.0, sched, np.ones(2)).data,
                                  forward_noise_step(np.zeros(2), 2, sched, np.ones(2)).data)
    np.testing.assert_array_equal(reverse_step(np.ones(2), 2.0, np.ones(2), sched, 1.0).data,
                                  reverse_step(np.ones(2), 2, np.ones(2), sched, 1).data)


# ---------------------------------------------------------------------------
# tokens <-> conv3d grid


def _tokens(shape, rng):
    return Tensor(rng.standard_normal(shape))


def test_rearrange_roundtrip_identity():
    rng = np.random.default_rng(10)
    x = _tokens((2, 3, 6, 4), rng)
    grid = rearrange(x, (2, 3))
    assert grid.shape == (2, 3, 2, 3, 4)
    np.testing.assert_array_equal(rearrange(grid).data, x.data)
    np.testing.assert_array_equal(rearrange(rearrange(grid), (2, 3)).data, grid.data)


def test_rearrange_index_arithmetic():
    # B=1, T=2, S=2, C=1 with sites [a, b] in frame 0 and [c, d] in frame 1:
    # on a 1x2 grid, cell w=1 must carry [b, d] over time
    x = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 2, 2, 1))
    grid = rearrange(x, (1, 2)).data
    assert grid.shape == (1, 2, 1, 2, 1)
    np.testing.assert_array_equal(grid[0, :, 0, 0, 0], [1.0, 3.0])  # site 0
    np.testing.assert_array_equal(grid[0, :, 0, 1, 0], [2.0, 4.0])  # site 1
    # in general the token at (b, t, s) is grid cell (t, s // W, s % W)
    rng = np.random.default_rng(11)
    x = _tokens((2, 3, 6, 4), rng)
    grid = rearrange(x, (2, 3)).data
    for b in range(2):
        for t in range(3):
            for site in range(6):
                np.testing.assert_array_equal(grid[b, t, site // 3, site % 3],
                                              x.data[b, t, site])


def test_rearrange_rejects_mismatched_grid():
    rng = np.random.default_rng(12)
    x = _tokens((1, 2, 6, 4), rng)
    with pytest.raises(ShapeError):
        rearrange(x, (2, 2))
    with pytest.raises(ShapeError):
        rearrange(x)


# ---------------------------------------------------------------------------
# temporal attention: AttentionLayer over the T axis of (B, S, T, C)


def test_temporal_attention_single_step_is_linear_map():
    rng = np.random.default_rng(12)
    layer = AttentionLayer(4, rng=rng)
    x = Tensor(rng.standard_normal((1, 6, 1, 4)))
    out = layer(x, x).data
    # attention over one time step weights its single value by 1
    wv, wo = layer.p["wv"].data, layer.p["wo"].data
    np.testing.assert_allclose(out, x.data + (x.data @ wv) @ wo, atol=1e-12)


def test_temporal_attention_identical_steps_identical_rows():
    rng = np.random.default_rng(13)
    layer = AttentionLayer(3, rng=rng)
    layer.p["wo"] = Tensor(rng.standard_normal((3, 3)) * 0.3, requires_grad=True)
    row = rng.standard_normal((1, 5, 1, 3))
    x = Tensor(np.repeat(row, 2, axis=2))
    out = layer(x, x).data
    np.testing.assert_allclose(out[:, :, 0, :], out[:, :, 1, :], atol=1e-12)


def test_temporal_attention_matches_per_site_loop():
    rng = np.random.default_rng(14)
    layer = AttentionLayer(3, rng=rng)
    layer.p["wo"] = Tensor(rng.standard_normal((3, 3)) * 0.3, requires_grad=True)
    x = Tensor(rng.standard_normal((1, 4, 3, 3)))
    out = layer(x, x).data
    for site in range(4):
        frames = Tensor(x.data[0, site])
        per_site = layer(frames, frames).data
        np.testing.assert_allclose(out[0, site], per_site, atol=1e-12)


def test_graph_time_pass_matches_per_site_replay():
    # conv over the (T, H, W) grid, graph conv within each frame, then
    # attention over frames within each site, replayed step by step
    rng = np.random.default_rng(15)
    graph = generate_toy_body(2, 1)
    adj = graph.coarse_adjacency()
    layer = GraphTimePass(3, (2, 4), adj, rng)
    layer.time_attn.p["wo"] = Tensor(rng.standard_normal((3, 3)) * 0.3, requires_grad=True)
    x = rng.standard_normal((2, 3, 8, 3))
    out = layer(Tensor(x)).data

    grid = x.reshape(2, 3, 2, 4, 3)                      # (B, T, H, W, C)
    conv = np.maximum(ad.conv3d(grid, layer.p["conv_kernel"]).data, 0.0)
    feats = conv.reshape(2, 3, 8, 3)
    feats = np.maximum(adj.data @ feats @ layer.graph.p["weight"].data, 0.0)
    for b in range(2):
        for site in range(8):
            frames = Tensor(feats[b, :, site])
            want = layer.time_attn(frames, frames).data
            np.testing.assert_allclose(out[b, :, site], want, atol=1e-12)


def test_graph_time_pass_transposes_only_around_the_time_attention():
    # the tokens reach the channels-last conv3d grid by reshape alone, so the
    # pass records exactly the two transposes around the time attention
    rng = np.random.default_rng(16)
    graph = generate_toy_body(2, 1)
    layer = GraphTimePass(3, (2, 4), graph.coarse_adjacency(), rng)
    x = Tensor(rng.standard_normal((2, 3, 8, 3)), requires_grad=True)
    with Tape() as tape:
        layer(x)
    assert [r.name for r in tape.records].count("transpose") == 2
    with Tape() as tape:
        rearrange(rearrange(x, (2, 4)))
    assert [r.name for r in tape.records] == ["reshape", "reshape"]


# ---------------------------------------------------------------------------
# the full block


def _block_setup(seed=0, channels=4, n_steps=2, grid=(1, 8)):
    graph = generate_toy_body(2, 1)
    sched = make_schedule(n_steps)
    rng = np.random.default_rng(seed)
    block = DiffusionBlock(channels, grid, graph.coarse_adjacency(), sched, 3, rng=rng)
    return graph, block, block.p["context"]


def test_block_same_seed_bitwise_identical():
    _, block, ctx = _block_setup()
    rng = np.random.default_rng(20)
    x = _tokens((1, 2, 8, 4), rng)
    out1, loss1 = block(x, seed=5)
    out2, loss2 = block(x, seed=5)
    np.testing.assert_array_equal(out1.data, out2.data)
    assert loss1.item() == loss2.item()


def test_block_without_its_loss_denoises_to_the_same_bits():
    # without its loss the block returns its estimate at the last step, taped
    # or not, and a loss-building call before it changes none of its bits
    _, block, _ = _block_setup(n_steps=3)
    block.predictor.p["head"] = Tensor(np.random.default_rng(21).standard_normal((4, 4)),
                                       requires_grad=True)
    x = _tokens((1, 2, 8, 4), np.random.default_rng(22))
    bare, no_loss = block(x, seed=6, block_loss=False)
    with Tape():
        _, loss = block(x, seed=6)
        taped, taped_no_loss = block(x, seed=6, block_loss=False)
    assert loss.shape == () and no_loss is None and taped_no_loss is None
    np.testing.assert_array_equal(taped.data, bare.data)


def _recording(monkeypatch, name):
    # diffusion.<name> wrapped to append each call's step argument and output
    calls, fn = [], getattr(diffusion, name)

    def wrapper(*args):
        calls.append((args[1], fn(*args)))
        return calls[-1][1]
    monkeypatch.setattr(diffusion, name, wrapper)
    return calls


def test_training_forward_equals_the_samplers_last_step(monkeypatch):
    # a training call returns x0_hat(z_t, t) at its sampled step, and a DDIM
    # step from (z_t, t) to the clean end returns the same bits
    _, block, _ = _block_setup(n_steps=3)
    block.predictor.p["head"] = Tensor(np.random.default_rng(21).standard_normal((4, 4)),
                                       requires_grad=True)
    x = _tokens((1, 2, 8, 4), np.random.default_rng(22))
    drawn = set()
    for seed in range(8):
        with monkeypatch.context() as patch:
            noised = _recording(patch, "forward_noise_step")
            with Tape():
                out, loss = block(x, seed=seed)
        (n, z_T), (t, z_t) = noised
        assert n == 3 and loss.shape == ()
        want = reverse_step(z_t, t, block.x0_hat(z_t, t, block.stack(z_T)), block.alpha_bar, 0)
        np.testing.assert_array_equal(out.data, want.data)
        drawn.add(t)
    assert drawn == {1, 2, 3}


def test_prediction_runs_the_sampler_from_the_noised_input():
    # one draw noises the input to the last step, and prediction returns the
    # estimate there, of the denoiser that z_T conditions
    _, block, _ = _block_setup(n_steps=3)
    block.predictor.p["head"] = Tensor(np.random.default_rng(21).standard_normal((4, 4)),
                                       requires_grad=True)
    x = _tokens((1, 2, 8, 4), np.random.default_rng(22))
    out, loss = block(x, seed=6, block_loss=False)
    assert loss is None
    eps = np.swapaxes(np.random.default_rng(6).standard_normal((1, 2, 4, 8)), 2, 3)
    z_T = forward_noise_step(x, 3, block.alpha_bar, eps)
    np.testing.assert_array_equal(out.data, block.x0_hat(z_T, 3, block.stack(z_T)).data)


def test_a_training_call_that_draws_the_last_step_returns_the_prediction(monkeypatch):
    # the two modes score one estimate: a training call whose step draw is
    # t = n returns, bit for bit, what a prediction with its seed returns
    _, block, _ = _block_setup(n_steps=3)
    block.predictor.p["head"] = Tensor(np.random.default_rng(21).standard_normal((4, 4)),
                                       requires_grad=True)
    x = _tokens((1, 2, 8, 4), np.random.default_rng(22))
    for seed in range(30):
        with monkeypatch.context() as patch:
            noised = _recording(patch, "forward_noise_step")
            with Tape():
                out, _ = block(x, seed=seed)
        if noised[1][0] == 3:
            break
    assert noised[1][0] == 3
    predicted, _ = block(x, seed=seed, block_loss=False)
    np.testing.assert_array_equal(out.data, predicted.data)


def test_the_trained_step_is_drawn_from_the_seed(monkeypatch):
    _, block, _ = _block_setup(n_steps=3)
    x = _tokens((1, 2, 8, 4), np.random.default_rng(24))
    runs = []
    for _ in range(2):
        with monkeypatch.context() as patch:
            noised = _recording(patch, "forward_noise_step")
            for seed in range(30):
                block(x, seed=seed)
        runs.append([t for t, _ in noised[1::2]])
    assert [t for t, _ in noised[::2]] == [3] * 30
    first, again = runs
    assert first == again and set(first) == {1, 2, 3}


def test_block_shape_preserved():
    _, block, ctx = _block_setup(grid=(2, 4))
    rng = np.random.default_rng(21)
    x = _tokens((2, 3, 8, 4), rng)
    out, eps_loss = block(x, seed=1)
    assert out.shape == x.shape
    assert eps_loss.shape == ()


def test_block_rejects_grid_vertex_mismatch():
    graph, block, ctx = _block_setup()
    with pytest.raises(ShapeError):
        DiffusionBlock(4, (1, 7), graph.coarse_adjacency(), make_schedule(2), 3,
                       rng=np.random.default_rng(0))
    rng = np.random.default_rng(22)
    with pytest.raises(ShapeError):
        block(_tokens((1, 2, 7, 4), rng), seed=0)


def test_block_projects_each_context_once_per_call():
    # the context and the dependency summary are projected to keys and values
    # once per call, and each mode calls the denoiser once
    _, block, ctx = _block_setup(n_steps=3)
    x = _tokens((1, 2, 8, 4), np.random.default_rng(25))
    for block_loss in (True, False):
        with Tape() as tape:
            block(x, seed=4, block_loss=block_loss)
        for layer in (block.context_attn, block.cond_attn):
            for key in ("wq", "wk", "wv"):
                w = layer.p[key]
                assert sum(any(t is w for t in rec.inputs) for rec in tape.records) == 1


def test_chain_records_one_per_noise_step_and_one_per_reverse_step(monkeypatch):
    # every chain step's records, read off the tape around each step call
    _, block, ctx = _block_setup(n_steps=3)
    x = Tensor(np.random.default_rng(26).standard_normal((1, 2, 8, 4)), requires_grad=True)
    steps = {"forward_noise_step": [], "reverse_step": []}

    def recording(fn, calls):
        def wrapper(*args, **kwargs):
            n0 = len(tape.records)
            out = fn(*args, **kwargs)
            calls.append([r.name for r in tape.records[n0:]])
            return out
        return wrapper

    for name, calls in steps.items():
        monkeypatch.setattr(diffusion, name, recording(getattr(diffusion, name), calls))
    # training noises to z_T and to the sampled z_t, steps no sampler step
    # and scores one block loss term
    with Tape() as tape:
        block(x, seed=4)
    assert steps == {"forward_noise_step": [["lincomb"]] * 2, "reverse_step": []}
    assert [r.name for r in tape.records].count("mse") == 1
    # prediction noises to z_T only and steps no reverse step, with no loss
    steps["forward_noise_step"].clear()
    with Tape() as tape:
        block(x, seed=4, block_loss=False)
    assert steps == {"forward_noise_step": [["lincomb"]], "reverse_step": []}
    assert [r.name for r in tape.records].count("mse") == 0


@pytest.mark.parametrize("which", ["miniature", "default"])
def test_each_attention_layer_call_records_one_attention_layer(
        monkeypatch, record_attention_calls, default_step, which):
    # one per stack pass, then the one denoiser call's context call,
    # conditioning call and predictor's, in training and in prediction:
    # temporal or cross, each call is one record
    want = [["attention_layer"]] * 5
    if which == "default":
        _, calls, _ = default_step("diffusion")
        assert calls == want
        return
    _, block, ctx = _block_setup(n_steps=3)
    x = Tensor(np.random.default_rng(31).standard_normal((1, 2, 8, 4)), requires_grad=True)
    for block_loss in (True, False):
        with Tape() as tape, monkeypatch.context() as patch:
            calls = record_attention_calls(patch, tape)
            block(x, seed=4, block_loss=block_loss)
        assert calls == want


def _eps_form_reverse_step(z_t, t, x0_hat, alpha_bar, t_prev):
    # the DDIM update through the implied noise, as two records
    abar = float(alpha_bar[t - 1])
    abar_prev = float(alpha_bar[t_prev - 1]) if t_prev else 1.0
    r = 1.0 / math.sqrt(1.0 - abar)
    eps = ad.lincomb(z_t, r, x0_hat, -math.sqrt(abar) * r)
    return ad.lincomb(x0_hat, math.sqrt(abar_prev), eps, math.sqrt(1.0 - abar_prev))


@pytest.mark.parametrize("t,t_prev", [(50, 45), (2, 1), (1, 0)])
def test_one_record_reverse_step_matches_the_eps_form_update(t, t_prev):
    # the default schedule at the default model's (B, T, S, C) tokens: value
    # and both gradients agree with the two-record form to rounding
    sched = make_schedule(50)
    rng = np.random.default_rng(28)
    shape = (4, 16, 24, 8)
    arrays = [rng.standard_normal(shape) for _ in range(2)]
    upstream = rng.standard_normal(shape)
    results = []
    for step in (reverse_step, _eps_form_reverse_step):
        z, x0_hat = (Tensor(a, requires_grad=True) for a in arrays)
        with Tape() as tape:
            out = step(z, t, x0_hat, sched, t_prev)
        tape.backward(out, seed=upstream)
        results.append((len(tape.records), out.data, z.grad, x0_hat.grad))
    (n_one, *got), (n_two, *want) = results
    assert (n_one, n_two) == (1, 2)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-10)


def _two_record_reverse_step(z_t, t, x0_hat, alpha_bar, t_prev):
    # the DDIM update as two records: the scaled state, then the scaled
    # estimate added to it
    abar = float(alpha_bar[t - 1])
    abar_prev = float(alpha_bar[t_prev - 1]) if t_prev else 1.0
    c = math.sqrt(1.0 - abar_prev) / math.sqrt(1.0 - abar)
    return ad.lincomb(ad.mul(z_t, c), 1.0, x0_hat, math.sqrt(abar_prev) - c * math.sqrt(abar))


@pytest.mark.parametrize("t", [50, 2, 1])
def test_one_record_reverse_step_is_bit_identical_to_two_records(t):
    # the default schedule at the default model's (B, T, S, C) tokens, from t
    # to the step the sampler takes next
    t_prev = {50: 45, 2: 1, 1: 0}[t]
    sched = make_schedule(50)
    rng = np.random.default_rng(28)
    shape = (4, 16, 24, 8)
    arrays = [rng.standard_normal(shape) for _ in range(2)]
    upstream = rng.standard_normal(shape)
    results = []
    for step in (reverse_step, _two_record_reverse_step):
        z, x0_hat = (Tensor(a, requires_grad=True) for a in arrays)
        with Tape() as tape:
            out = step(z, t, x0_hat, sched, t_prev)
        tape.backward(out, seed=upstream)
        results.append((len(tape.records), out.data, z.grad, x0_hat.grad))
    (n_one, *got), (n_two, *want) = results
    assert (n_one, n_two) == (1, 2)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _closure_arrays(fn):
    # every array a backward closure holds, through nested closures and the
    # tensors it holds
    for cell in fn.__closure__ or ():
        v = cell.cell_contents
        if isinstance(v, Tensor):
            v = v.data
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, types.FunctionType):
            yield from _closure_arrays(v)


@pytest.mark.parametrize("which", ["miniature", "default"])
def test_the_tape_keeps_only_what_backward_reads(monkeypatch, which):
    constants = []
    # values no backward reads: the noise predictor's output, which x0_hat
    # adds, and the relu outputs after conv3d (a 5-D grid) and graph conv
    # (4-D tokens); the encoder's relu output (2-D) is read by its next layer
    dead = {"predicted": [], "relu": []}
    as_tensor, relu = ad.as_tensor, ad.relu
    predictor = diffusion.NoisePredictor.__call__

    def tracked(x):
        # the constants: every raw operand an op wraps
        t = as_tensor(x)
        if t is not x:
            constants.append((t.ndim, weakref.ref(t.data)))
        return t

    def tracked_predictor(self, *args):
        out = predictor(self, *args)
        dead["predicted"].append(weakref.ref(out.data))
        return out

    def tracked_relu(a):
        out = relu(a)
        if a.ndim >= 4:
            dead["relu"].append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ad, "as_tensor", tracked)
    monkeypatch.setattr(diffusion.NoisePredictor, "__call__", tracked_predictor)
    monkeypatch.setattr(ad, "relu", tracked_relu)
    if which == "miniature":
        _, block, ctx = _block_setup(n_steps=3)
        x = Tensor(np.random.default_rng(29).standard_normal((1, 2, 8, 4)), requires_grad=True)
        with Tape() as tape:
            block(x, seed=4)
    else:
        config = ModelConfig()
        model = build_model(config)
        obs = np.random.default_rng(30).standard_normal((config.batch_size, 16,
                                                         config.n_vertices, 3)) * 100.0
        with Tape() as tape:
            model.forward(obs, np.zeros(obs.shape[:3]), seed=0)
    # the records hold gradient slots, never a value tensor: a record's
    # output is a slot, and an input is a slot, a leaf that takes a
    # gradient, or None where no gradient goes
    for rec in tape.records:
        assert isinstance(rec.output, ad._Slot)
        for t in rec.inputs:
            assert t is None or isinstance(t, ad._Slot) or (t.requires_grad and t._slot is None)
    # the 4-D constants, the noise draw (an operand of both closed-form
    # noisings) and the block loss's zero target, are freed before backward
    draws = [ref for ndim, ref in constants if ndim == 4]
    assert len(draws) == 3
    assert all(ref() is None for ref in draws)
    # so are the values no backward reads: the one denoiser call's predictor
    # output; two relus per graph+time pass (two in the stack, one in the
    # predictor)
    assert [len(dead[k]) for k in dead] == [1, 6]
    for kind, refs in dead.items():
        assert all(ref() is None for ref in refs), kind
    # an attention layer keeps its query, its context, its four weights
    # and, of its softmax, only each row's max and exp-sum, two (rows,)
    # vectors: never an array of the keys', the values' or the scores' shape
    # (the scores or the weights W), the projected query or W v, unless it
    # is the query or the context itself. The denoiser's context and
    # conditioning calls, one per stack pass and the predictor's, whose
    # context is the query
    layers = [rec for rec in tape.records if rec.name == "attention_layer"]
    assert len(layers) == 5
    assert [rec.inputs[2] is rec.inputs[0] for rec in layers] == [True] * 2 + [False] * 2 + [True]
    for rec in layers:
        inputs = [t.data for t in rec.inputs]
        x, wq, c, wv, _, wk, wo = inputs
        assert inputs[4] is c
        kept = (x, c, wq, wk, wv, wo)
        # each array once, though nested closures may share it
        held = list({id(a): a for a in _closure_arrays(rec.backward)}.values())
        assert len(held) == len({id(t) for t in kept}) + 2
        assert all(any(a is t for a in held) for t in kept)
        stats = [a for a in held if not any(a is t for t in kept)]
        lead = np.broadcast_shapes(x.shape[:-2], c.shape[:-2])
        rows = math.prod(lead) * x.shape[-2]
        assert [(a.dtype, a.shape) for a in stats] == [(np.float64, (rows,))] * 2
        derived = {c.shape[:-1] + (wk.shape[1],), c.shape[:-1] + (wv.shape[1],),
                   x.shape[:-1] + (wq.shape[1],), lead + (x.shape[-2], c.shape[-2])}
        assert all(a is x or a is c or a.shape not in derived for a in held)
    # a product with a constant left operand (the graph conv's adjacency,
    # the up matrix) keeps that 2-D matrix only, never the right operand
    products = [rec for rec in tape.records if rec.name == "matmul" and rec.inputs[0] is None]
    assert products
    for rec in products:
        assert all(a.ndim == 2 for a in _closure_arrays(rec.backward))
    # layer_norm keeps its input and recomputes its full-size intermediates
    # from it in backward
    norms = [rec for rec in tape.records if rec.name == "layer_norm"]
    assert norms
    for rec in norms:
        x, size = rec.inputs[0].data, math.prod(rec.output.shape)
        assert all(a is x or a.size < size for a in _closure_arrays(rec.backward))
    # relu keeps one boolean mask of its input's shape and no float array
    relus = [rec for rec in tape.records if rec.name == "relu"]
    assert relus
    for rec in relus:
        (mask,) = _closure_arrays(rec.backward)
        assert mask.dtype == np.bool_ and mask.shape == rec.output.shape


def test_step_embeddings_are_one_read_only_row_per_step():
    table = step_embeddings(5, 3)
    assert table.shape == (5, 3) and not table.flags.writeable
    # step t's sines and cosines at the two frequencies 1 and 10000^(-1/2)
    freqs = np.array([1.0, 0.01])
    np.testing.assert_allclose(table[3], [math.sin(4 * freqs[0]), math.sin(4 * freqs[1]),
                                          math.cos(4 * freqs[0])], rtol=1e-15)


def test_a_default_forward_adds_the_step_embedding_to_the_norm_shift(default_step):
    # the embedding joins ln_beta in a (C,) unit-weight lincomb, one per
    # denoiser call (one in a training step), so the sum never grows to the
    # latent's size
    config = ModelConfig()
    _, _, records = default_step("diffusion")
    shifts = [(name, shape) for name, shape, takes_beta in records if takes_beta]
    assert shifts == [("lincomb", (config.channels,))]


def test_block_alpha_one_equals_deterministic_path():
    # an all-ones schedule adds no noise, and x0_hat = 1·z + 0·F(z, t) is z:
    # both modes return the input, whatever the layers compute
    graph, block, ctx = _block_setup()
    block.alpha_bar = np.ones(2)
    rng = np.random.default_rng(23)
    for layer in (block.context_attn, block.cond_attn):
        layer.p["wo"] = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    block.predictor.p["head"] = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
    x = _tokens((1, 2, 8, 4), rng)
    out, loss = block(x, seed=3)
    np.testing.assert_array_equal(out.data, x.data)
    assert loss.item() == 0.0
    out, _ = block(x, seed=3, block_loss=False)
    np.testing.assert_array_equal(out.data, x.data)


def test_block_gradcheck_miniature():
    graph, block, ctx = _block_setup(channels=2)
    rng = np.random.default_rng(24)
    x0 = rng.standard_normal((1, 2, 8, 2))

    wq = block.cond_attn.p["wq"].data
    head = np.zeros_like(block.predictor.p["head"].data)

    def run(x, wq_t, head_t):
        block.cond_attn.p["wq"] = wq_t
        block.predictor.p["head"] = head_t
        out, eps_loss = block(x, seed=11)
        return oracle.add(ad.sum_(out), eps_loss)

    err = gradcheck(run, [x0, wq, head], max_coords=10)
    assert err < 1e-4


def test_block_trains_on_sinusoid_latents():
    # learnability floor: 200 steps of fitting sinusoid latents must beat 25%
    # of the error carried by the fully noised input
    from meshmotion.model import Adam

    graph, block, ctx = _block_setup(channels=4, n_steps=4)
    b, t, s, c = 2, 4, 8, 4
    phases = np.arange(b * t).reshape(b, t, 1, 1)
    sites = np.arange(s)[None, None, :, None]
    chan = np.arange(c)[None, None, None, :]
    x0 = np.sin(0.7 * phases + 0.9 * sites + 0.5 * chan)
    tokens = Tensor(x0)

    slots = {}
    for i, layer in enumerate(block.layers()):
        for k in layer.p:
            slots[f"l{i}.{k}"] = (layer.p, k)

    opt = Adam(slots, lr=3e-3)
    target = Tensor(x0)
    for step in range(200):
        with Tape() as tape:
            out, eps_loss = block(tokens, seed=100 + step)
            loss = oracle.add(ad.mse(out, target), ad.mul(eps_loss, 0.1))
        tape.backward(loss)
        opt.step()

    # the estimate at the last step, what prediction returns
    out, _ = block(tokens, seed=999, block_loss=False)
    final_mse = float(((out.data - x0) ** 2).mean())

    # raw noised input at the last step (no denoising at all): the block's
    # one draw, in its (B, T, C, S) order
    eps = np.swapaxes(np.random.default_rng(999).standard_normal((b, t, c, s)), 2, 3)
    noised = forward_noise_step(x0, len(block.alpha_bar), block.alpha_bar, eps).data
    noised_mse = float(((noised - x0) ** 2).mean())
    assert final_mse < 0.25 * noised_mse
