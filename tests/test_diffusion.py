import math
import types
import weakref

import numpy as np
import pytest

from oracle_ops import gradcheck
from meshmotion import autodiff as ad
from meshmotion import diffusion
from meshmotion.autodiff import ShapeError, Tape, Tensor
from meshmotion.body_graph import generate_toy_body
from meshmotion.diffusion import (
    AttentionLayer,
    DiffusionBlock,
    DiffusionSchedule,
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
    sched = make_schedule(n_steps)
    assert sched.n_steps == n_steps
    assert np.all(sched.alpha > 0.0) and np.all(sched.alpha <= 1.0)
    # independent cumulative-product oracle
    np.testing.assert_allclose(sched.alpha_bar, np.cumprod(sched.alpha), atol=1e-15, rtol=0)
    assert np.all(np.diff(sched.alpha_bar) < 0)
    assert sched.alpha_bar[0] == sched.alpha[0]
    assert sched.alpha_bar[-1] < 0.1


def test_schedule_rejects_tiny():
    with pytest.raises(ScheduleError):
        make_schedule(1)


# the ids are kept from when each case gave its alpha_bar too
@pytest.mark.parametrize("alpha", [
    [0.9],                                   # one step
    [0.9, 0.0],                              # alpha outside (0, 1]
    [0.9, 1.5],
], ids=["alpha0-alpha_bar0", "alpha1-alpha_bar1", "alpha2-alpha_bar2"])
def test_schedule_validate_raises_schedule_error(alpha):
    sched = DiffusionSchedule(alpha=np.array(alpha))
    with pytest.raises(ScheduleError):
        sched.validate()


def test_forward_noise_alpha_one_is_identity():
    sched = DiffusionSchedule(alpha=np.array([1.0, 1.0]))
    x = np.arange(6, dtype=float).reshape(2, 3)
    out = forward_noise_step(x, 1, sched, np.ones((2, 3)))
    np.testing.assert_array_equal(out.data, x)


def test_forward_noise_alpha_zero_is_pure_noise():
    sched = DiffusionSchedule(alpha=np.array([0.0, 0.0]))
    eps = np.random.default_rng(0).standard_normal((2, 3))
    out = forward_noise_step(np.ones((2, 3)), 1, sched, eps)
    np.testing.assert_array_equal(out.data, eps)


def test_forward_noise_shape_error():
    sched = make_schedule(5)
    with pytest.raises(ShapeError):
        forward_noise_step(np.zeros((2, 2)), 1, sched, np.zeros(3))


def test_forward_noise_iterated_statistics_monte_carlo():
    # closed-form q(x_t | x_0): mean sqrt(abar_t) x0, variance 1 - abar_t
    sched = make_schedule(10)
    rng = np.random.default_rng(123)
    n = 100_000
    x0 = 1.7
    x = np.full(n, x0)
    t_check = 4
    for t in range(1, t_check + 1):
        x = forward_noise_step(x, t, sched, rng.standard_normal(n)).data
    abar = sched.alpha_bar[t_check - 1]
    exp_mean = math.sqrt(abar) * x0
    exp_var = 1.0 - abar
    # 3-sigma Monte-Carlo bounds
    mean_tol = 3.0 * math.sqrt(exp_var / n)
    var_tol = 3.0 * exp_var * math.sqrt(2.0 / (n - 1))
    assert abs(x.mean() - exp_mean) < mean_tol
    assert abs(x.var() - exp_var) < var_tol


def _reverse_oracle(z, t, eps, alpha, alpha_bar, alpha_bar_prev, draw):
    # scalar transcription of the denoising update
    det = (z - (1.0 - alpha) / math.sqrt(1.0 - alpha_bar) * eps) / math.sqrt(alpha)
    sig = math.sqrt(1.0 - alpha) * math.sqrt(1.0 - alpha_bar_prev) / math.sqrt(1.0 - alpha_bar)
    return det + (sig * draw if t > 1 else 0.0)


def test_reverse_step_alpha_one_is_identity():
    sched = DiffusionSchedule(alpha=np.array([1.0, 1.0]))
    z = np.arange(4, dtype=float)
    out = reverse_step(z, 2, np.ones(4), sched, np.ones(4))
    np.testing.assert_array_equal(out.data, z)


def test_reverse_step_zero_eps_zero_noise():
    sched = make_schedule(5)
    z = np.array([1.0, -2.0])
    out = reverse_step(z, 3, np.zeros(2), sched, np.zeros(2))
    np.testing.assert_allclose(out.data, z / math.sqrt(sched.alpha[2]), atol=1e-15)


def test_reverse_step_matches_scalar_oracle():
    rng = np.random.default_rng(7)
    sched = make_schedule(20)
    for _ in range(1000):
        t = int(rng.integers(1, 21))
        z = float(rng.standard_normal())
        eps = float(rng.standard_normal())
        draw = float(rng.standard_normal())
        a = float(sched.alpha[t - 1])
        ab = float(sched.alpha_bar[t - 1])
        abp = float(sched.alpha_bar[t - 2]) if t > 1 else 1.0
        got = reverse_step(np.array([z]), t, np.array([eps]), sched, np.array([draw]))
        want = _reverse_oracle(z, t, eps, a, ab, abp, draw)
        assert abs(got.data[0] - want) < 1e-12


def test_reverse_recovers_x0_from_single_step():
    # with the exact injected noise, one reverse step undoes one forward step
    sched = make_schedule(5)
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal((3, 2))
    eps = rng.standard_normal((3, 2))
    x1 = forward_noise_step(x0, 1, sched, eps)
    back = reverse_step(x1, 1, eps, sched, np.zeros((3, 2)))
    np.testing.assert_allclose(back.data, x0, atol=1e-9)


def test_reverse_step_needs_a_draw_where_it_adds_noise():
    sched = make_schedule(5)
    z = np.array([1.0, -2.0])
    with pytest.raises(ShapeError, match=r"^step 3 needs a noise draw of shape \(2,\), got None$"):
        reverse_step(z, 3, np.zeros(2), sched, None)
    # step 1 adds no noise, so it reads no draw
    np.testing.assert_array_equal(reverse_step(z, 1, np.ones(2), sched, None).data,
                                  reverse_step(z, 1, np.ones(2), sched, np.zeros(2)).data)


def test_reverse_step_range_error():
    sched = make_schedule(5)
    with pytest.raises(ScheduleError):
        reverse_step(np.zeros(2), 6, np.zeros(2), sched, np.zeros(2))


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
    out = layer(x, *layer.keys_values(x)).data
    # attention over one time step weights its single value by 1
    wv, wo = layer.p["wv"].data, layer.p["wo"].data
    np.testing.assert_allclose(out, x.data + (x.data @ wv) @ wo, atol=1e-12)


def test_temporal_attention_identical_steps_identical_rows():
    rng = np.random.default_rng(13)
    layer = AttentionLayer(3, rng=rng)
    layer.p["wo"] = Tensor(rng.standard_normal((3, 3)) * 0.3, requires_grad=True)
    row = rng.standard_normal((1, 5, 1, 3))
    x = Tensor(np.repeat(row, 2, axis=2))
    out = layer(x, *layer.keys_values(x)).data
    np.testing.assert_allclose(out[:, :, 0, :], out[:, :, 1, :], atol=1e-12)


def test_temporal_attention_matches_per_site_loop():
    rng = np.random.default_rng(14)
    layer = AttentionLayer(3, rng=rng)
    layer.p["wo"] = Tensor(rng.standard_normal((3, 3)) * 0.3, requires_grad=True)
    x = Tensor(rng.standard_normal((1, 4, 3, 3)))
    out = layer(x, *layer.keys_values(x)).data
    for site in range(4):
        frames = Tensor(x.data[0, site])
        per_site = layer(frames, *layer.keys_values(frames)).data
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
            want = layer.time_attn(frames, *layer.time_attn.keys_values(frames)).data
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
    block = DiffusionBlock(graph, channels, grid, sched, rng=rng)
    ctx = Tensor(rng.standard_normal((3, channels)) * 0.3, requires_grad=True)
    return graph, block, ctx


def test_block_same_seed_bitwise_identical():
    _, block, ctx = _block_setup()
    rng = np.random.default_rng(20)
    x = _tokens((1, 2, 8, 4), rng)
    out1, loss1 = block(x, ctx, seed=5)
    out2, loss2 = block(x, ctx, seed=5)
    np.testing.assert_array_equal(out1.data, out2.data)
    assert loss1.item() == loss2.item()


def test_block_shape_preserved():
    _, block, ctx = _block_setup(grid=(2, 4))
    rng = np.random.default_rng(21)
    x = _tokens((2, 3, 8, 4), rng)
    out, eps_loss = block(x, ctx, seed=1)
    assert out.shape == x.shape
    assert eps_loss.shape == ()


def test_block_rejects_grid_vertex_mismatch():
    graph, block, ctx = _block_setup()
    with pytest.raises(ShapeError):
        DiffusionBlock(graph, 4, (1, 7), make_schedule(2), rng=np.random.default_rng(0))
    rng = np.random.default_rng(22)
    with pytest.raises(ShapeError):
        block(_tokens((1, 2, 7, 4), rng), ctx, seed=0)


def test_block_projects_each_context_once_per_call():
    # the context and the dependency summary are projected to keys and values
    # once per call, not once per chain step
    _, block, ctx = _block_setup(n_steps=3)
    x = _tokens((1, 2, 8, 4), np.random.default_rng(25))
    with Tape() as tape:
        block(x, ctx, seed=4)
    for layer in (block.context_attn, block.cond_attn):
        for key in ("wk", "wv"):
            w = layer.p[key]
            assert sum(any(t is w for t in rec.inputs) for rec in tape.records) == 1
        assert sum(any(t is layer.p["wq"] for t in rec.inputs) for rec in tape.records) == 3


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
    with Tape() as tape:
        block(x, ctx, seed=4)
    assert steps["forward_noise_step"] == [["lincomb"]] * 3
    # t = 3, 2 add the scaled draw as the shift; t = 1 has none
    assert steps["reverse_step"] == [["lincomb"]] * 3
    # one eps term per reverse step
    assert [r.name for r in tape.records].count("mse") == 3


@pytest.mark.parametrize("which", ["miniature", "default"])
def test_each_attention_layer_call_records_one_attention_layer(monkeypatch, which):
    calls = []
    layer_call = AttentionLayer.__call__

    def recording(self, *args):
        n0 = len(tape.records)
        out = layer_call(self, *args)
        calls.append([r.name for r in tape.records[n0:]])
        return out

    monkeypatch.setattr(AttentionLayer, "__call__", recording)
    if which == "miniature":
        _, block, ctx = _block_setup(n_steps=3)
        x = Tensor(np.random.default_rng(31).standard_normal((1, 2, 8, 4)), requires_grad=True)
        with Tape() as tape:
            block(x, ctx, seed=4)
        # one per noise step, two per reverse step, one per stack pass
        assert calls == [["attention_layer"]] * (3 * 3 + 2)
    else:
        config = ModelConfig()
        model = build_model(config)
        obs = np.random.default_rng(32).standard_normal((config.batch_size, 16,
                                                         config.n_vertices, 3)) * 100.0
        with Tape() as tape:
            model.loss(model.forward(obs, np.zeros(obs.shape[:3]), seed=0),
                       obs + 1.0)
        # 50 context, 50 conditioning and 52 temporal attention calls
        assert calls == [["attention_layer"]] * 152
        assert len(tape.records) == 1102


def _two_record_reverse_step(z_t, t, eps_pred, schedule, noise):
    # the reverse step as two records: the corrected state, then its scaling
    # plus the scaled draw (a mul where there is no draw)
    a = float(schedule.alpha[t - 1])
    abar = float(schedule.alpha_bar[t - 1])
    abar_prev = float(schedule.alpha_bar[t - 2]) if t > 1 else 1.0
    eps_coef = (1.0 - a) / math.sqrt(1.0 - abar)
    sigma = math.sqrt(1.0 - a) * math.sqrt(1.0 - abar_prev) / math.sqrt(1.0 - abar)
    corrected = ad.lincomb(z_t, 1.0, eps_pred, -eps_coef)
    if t == 1:
        return ad.mul(corrected, 1.0 / math.sqrt(a))
    return ad.lincomb(corrected, 1.0 / math.sqrt(a), ad.constant(noise), sigma)


@pytest.mark.parametrize("t", [50, 2, 1])
def test_one_record_reverse_step_is_bit_identical_to_two_records(t):
    # the default schedule at the default model's (B, T, S, C) tokens
    sched = make_schedule(50)
    rng = np.random.default_rng(28)
    shape = (4, 16, 24, 8)
    arrays = [rng.standard_normal(shape) for _ in range(2)]
    draw, upstream = rng.standard_normal(shape), rng.standard_normal(shape)
    results = []
    for step in (reverse_step, _two_record_reverse_step):
        z, eps = (Tensor(a, requires_grad=True) for a in arrays)
        with Tape() as tape:
            out = step(z, t, eps, sched, draw)
        tape.backward(out, seed=upstream)
        results.append((len(tape.records), out.data, z.grad, eps.grad))
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
    # values no backward reads: the predicted noise and the relu outputs
    # after conv3d (a 5-D grid) and graph conv (4-D tokens); the encoder's
    # relu output (2-D) is read by its next layer
    dead = {"eps_hat": [], "relu": []}
    constant, relu = ad.constant, ad.relu
    predictor = diffusion.NoisePredictor.__call__

    def tracked(x):
        t = constant(x)
        constants.append((t.ndim, weakref.ref(t.data)))
        return t

    def tracked_predictor(self, *args):
        out = predictor(self, *args)
        dead["eps_hat"].append(weakref.ref(out.data))
        return out

    def tracked_relu(a):
        out = relu(a)
        if a.ndim >= 4:
            dead["relu"].append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ad, "constant", tracked)
    monkeypatch.setattr(diffusion.NoisePredictor, "__call__", tracked_predictor)
    monkeypatch.setattr(ad, "relu", tracked_relu)
    if which == "miniature":
        _, block, ctx = _block_setup(n_steps=3)
        x = Tensor(np.random.default_rng(29).standard_normal((1, 2, 8, 4)), requires_grad=True)
        n_steps = 3
        with Tape() as tape:
            block(x, ctx, seed=4)
    else:
        config = ModelConfig()
        model = build_model(config)
        obs = np.random.default_rng(30).standard_normal((config.batch_size, 16,
                                                         config.n_vertices, 3)) * 100.0
        n_steps = config.diffusion_steps
        with Tape() as tape:
            model.forward(obs, np.zeros(obs.shape[:3]), seed=0)
    # the records hold gradient slots, never a value tensor: a record's
    # output is a slot, and an input is a slot, a leaf that takes a
    # gradient, or None where no gradient goes
    for rec in tape.records:
        assert isinstance(rec.output, ad._Slot)
        for t in rec.inputs:
            assert t is None or isinstance(t, ad._Slot) or (t.requires_grad and t._slot is None)
    # the noise draws, the only 4-D constants, are freed before backward
    draws = [ref for ndim, ref in constants if ndim == 4]
    assert len(draws) == 2 * n_steps - 1
    assert all(ref() is None for ref in draws)
    # so are the values no backward reads: one predicted noise per reverse
    # step; two relus per graph+time pass
    assert [len(dead[k]) for k in dead] == [n_steps, 2 * (n_steps + 2)]
    for kind, refs in dead.items():
        assert all(ref() is None for ref in refs), kind
    # an attention layer keeps its query, keys, values and both weights, and
    # of its softmax only each row's max and exp-sum, two (rows,) vectors:
    # never an array of the scores' shape (the scores or the weights W), the
    # projected query or W v. One per noise step, two per reverse step and
    # one per stack pass
    layers = [rec for rec in tape.records if rec.name == "attention_layer"]
    assert len(layers) == 3 * n_steps + 2
    for rec in layers:
        x, wq, k, v, wo = (t.data for t in rec.inputs)
        held = list(_closure_arrays(rec.backward))
        assert len(held) == 7
        assert all(any(a is t for a in held) for t in (x, wq, k, v, wo))
        stats = [a for a in held if not any(a is t for t in (x, wq, k, v, wo))]
        lead = np.broadcast_shapes(x.shape[:-2], k.shape[:-2])
        rows = math.prod(lead) * x.shape[-2]
        assert [(a.dtype, a.shape) for a in stats] == [(np.float64, (rows,))] * 2
        assert all(a.shape != lead + (x.shape[-2], k.shape[-2]) for a in held)
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


def test_a_default_forward_adds_the_step_embedding_to_the_norm_shift():
    # the embedding joins ln_beta in a (C,) add, one per reverse step, so no
    # add record of the default diffusion forward grows to the latent's size
    config = ModelConfig()
    model = build_model(config)
    obs = np.random.default_rng(27).standard_normal((config.batch_size, 16,
                                                     config.n_vertices, 3)) * 100.0
    with Tape() as tape:
        model.forward(obs, np.zeros(obs.shape[:3]), seed=0)
    adds = [rec for rec in tape.records if rec.name == "add"]
    beta = model.core.predictor.p["ln_beta"]
    assert sum(any(t is beta for t in rec.inputs) for rec in adds) == config.diffusion_steps
    assert max(math.prod(rec.output.shape) for rec in adds) <= config.channels


def test_block_alpha_one_equals_deterministic_path():
    # an all-ones schedule and a zero-init predictor collapse the noising and
    # denoising arithmetic, leaving only the attention/feature path
    graph, block, ctx = _block_setup()
    block.schedule = DiffusionSchedule(alpha=np.ones(2))
    rng = np.random.default_rng(23)
    x = _tokens((1, 2, 8, 4), rng)
    out, _ = block(x, ctx, seed=3)

    # manual replay without any noise arithmetic
    v = x
    for _ in range(2):
        v = block.context_attn(v, *block.context_attn.keys_values(ctx))
    deps = block.stack(v)
    z = v
    for _ in range(2):
        z = block.cond_attn(z, *block.cond_attn.keys_values(deps))
    np.testing.assert_allclose(out.data, z.data, atol=1e-12)


def test_block_gradcheck_miniature():
    graph, block, ctx = _block_setup(channels=2)
    rng = np.random.default_rng(24)
    x0 = rng.standard_normal((1, 2, 8, 2))

    wq = block.cond_attn.p["wq"].data
    head = np.zeros_like(block.predictor.p["head"].data)

    def run(x, wq_t, head_t):
        block.cond_attn.p["wq"] = wq_t
        block.predictor.p["head"] = head_t
        out, eps_loss = block(x, ctx, seed=11)
        return ad.add(ad.sum_(out), eps_loss)

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
    holder = {"rows": ctx}
    slots["ctx.rows"] = (holder, "rows")

    opt = Adam(slots, lr=3e-3)
    target = Tensor(x0)
    for step in range(200):
        with Tape() as tape:
            out, eps_loss = block(tokens, holder["rows"], seed=100 + step)
            loss = ad.add(ad.mse(out, target), ad.mul(eps_loss, 0.1))
        tape.backward(loss)
        opt.step()

    out, _ = block(tokens, holder["rows"], seed=999)
    final_mse = float(((out.data - x0) ** 2).mean())

    # raw noised input at the last step (no denoising at all)
    # (noise drawn in the block's (B, T, C, S) order)
    rng = np.random.default_rng(999)
    noised = x0.copy()
    for tt in range(1, block.schedule.n_steps + 1):
        eps = np.swapaxes(rng.standard_normal((b, t, c, s)), 2, 3)
        noised = forward_noise_step(noised, tt, block.schedule, eps).data
    noised_mse = float(((noised - x0) ** 2).mean())
    assert final_mse < 0.25 * noised_mse
