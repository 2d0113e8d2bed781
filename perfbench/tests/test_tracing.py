import time

import numpy as np
import pytest

import tracing
import workloads
from meshmotion import autodiff as ad
from meshmotion.model import ModelConfig
from tracing import Patches, Tracer

TINY = dict(vertices_per_part=2, coarse_per_part=1, channels=4, height=2, width=4,
            diffusion_steps=2, encoder_hidden=6, context_rows=2, train_steps=3)


def test_self_time_is_span_minus_nested_spans_of_its_kind():
    clock = iter([0, 1, 2, 4, 7, 8, 9, 10, 12, 15, 16, 20, 30, 31])
    tr = Tracer(clock=lambda: float(next(clock)))
    main = tr.open("main", "phase")                       # 0 .. 31
    a = tr.open("layer.a", "layer")                       # 1 .. 30
    att = tr.open("autodiff.fwd.attention", "op")         # 2 .. 15
    mm = tr.open("autodiff.fwd.matmul", "op")             # 4 .. 7
    tr.close(mm)
    sm = tr.open("autodiff.fwd.softmax", "op")            # 8 .. 12
    ex = tr.open("autodiff.fwd.exp", "op")                # 9 .. 10
    tr.close(ex)
    tr.close(sm)
    tr.close(att)
    b = tr.open("layer.b", "layer")                       # 16 .. 20
    tr.close(b)
    tr.close(a)
    tr.close(main)
    self_t = tr.self_times()
    assert self_t[mm] == 3 and self_t[ex] == 1
    assert self_t[sm] == 4 - 1
    assert self_t[att] == 13 - 3 - 4
    # a layer's self time keeps the ops it ran and drops the nested layer
    assert self_t[a] == 29 - 4 and self_t[b] == 4
    assert self_t[main] == 31
    assert tr.parents[ex] == sm and tr.parents[sm] == att and tr.parents[att] == a


@pytest.fixture
def traced():
    tracer, patches = Tracer(), Patches()
    tracing.install(tracer, patches, workloads._module_namespace())
    yield tracer
    patches.undo()


def test_attention_span_nests_softmax_and_matmul(traced):
    tracer = traced
    x = ad.Tensor(np.random.default_rng(0).standard_normal((5, 4)), requires_grad=True)
    with ad.Tape() as tape:
        loss = ad.sum_(ad.attention(x, x, x))
    tape.backward(loss)

    names, parents = tracer.names, tracer.parents
    att = names.index("autodiff.fwd.attention")
    children = [i for i, p in enumerate(parents) if p == att]
    assert {"autodiff.fwd.softmax", "autodiff.fwd.matmul"} <= {names[i] for i in children}
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    assert tracer.self_times()[att] == pytest.approx(dur[att] - sum(dur[i] for i in children))

    # softmax's primitives are credited to softmax, forward and backward
    sm = names.index("autodiff.fwd.softmax")
    assert all(tracer.credit[i] == "autodiff.fwd.softmax"
               for i, p in enumerate(parents) if p == sm)
    assert "autodiff.bwd.softmax" in tracer.credit
    assert "autodiff.bwd.matmul" in tracer.credit
    assert names.count("autodiff.backward") == 1


def _snapshot():
    """Every module attribute, class attribute and module-level dict entry."""
    snap = {}
    for mod in workloads.MODULES:
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                snap.update({(mod.__name__, name, k): v for k, v in vars(value).items()})
            if isinstance(value, dict):
                snap.update({(mod.__name__, name, "[]", k): v for k, v in value.items()})
    return snap


@pytest.mark.parametrize("name,trace", [("train_diffusion", True), ("train_deterministic", True),
                                        ("train_diffusion", False)])
def test_run_removes_every_wrapper(name, trace, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads.Workload, "config",
                        lambda self: ModelConfig(diffusion_on=self.diffusion_on, **TINY))
    monkeypatch.setattr(workloads, "SETUP_SAMPLES", 2)
    before = _snapshot()
    w = workloads.WORKLOADS[name]
    run = workloads.Run(w, seed=3, seconds=1, trace=trace,
                        started=time.perf_counter(), out_dir=tmp_path)
    metrics, report = run.execute()

    assert run.checks.failed == 0, report["check_notes"]
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
    if trace:
        assert metrics["autodiff.records_per_step"][0] > 0
        predictor_calls = metrics["diffusion.noise_predictor.calls"][0]
        assert predictor_calls > 0 if w.diffusion_on else predictor_calls == 0
        assert list(tmp_path.glob("spans-*.json.gz"))
    else:
        assert all(value > 0 for value, _ in metrics.values())
        assert len(report["setup_samples_s"]) == 2
