"""Fixtures shared by more than one test module."""

from collections import Counter

import numpy as np
import pytest

from meshmotion.autodiff import Tape
from meshmotion.diffusion import AttentionLayer
from meshmotion.model import ModelConfig, build_model


@pytest.fixture(scope="session")
def record_attention_calls():
    """``record(patch, tape)`` wraps ``AttentionLayer.__call__`` through the
    ``MonkeyPatch`` ``patch`` and returns the list it appends to, in call
    order: per call, the names of the records it wrote on ``tape``."""
    def record(patch, tape):
        calls = []
        call = AttentionLayer.__call__

        def recording(self, *args):
            n0 = len(tape.records)
            out = call(self, *args)
            calls.append([r.name for r in tape.records[n0:]])
            return out

        patch.setattr(AttentionLayer, "__call__", recording)
        return calls

    return record


@pytest.fixture(scope="session")
def default_step(record_attention_calls):
    """``default_step(workload)`` for "diffusion" or "deterministic": one
    default training step's forward and loss, run once per workload and
    kept for the session as its per-op record census (a ``Counter`` of
    record names), its attention calls (see ``record_attention_calls``) and,
    per record, its name, its output shape and whether it takes the noise
    predictor's ``ln_beta``. The tape itself is not kept."""
    steps = {}

    def run(workload):
        if workload not in steps:
            config = ModelConfig(diffusion_on=workload == "diffusion")
            model = build_model(config)
            obs = np.random.default_rng(32).standard_normal((config.batch_size, 16,
                                                             config.n_vertices, 3)) * 100.0
            with Tape() as tape, pytest.MonkeyPatch.context() as patch:
                calls = record_attention_calls(patch, tape)
                model.loss(model.forward(obs, np.zeros(obs.shape[:3]), seed=0), obs + 1.0)
            beta = model.core.predictor.p["ln_beta"] if config.diffusion_on else None
            records = [(r.name, r.output.shape, any(t is beta for t in r.inputs))
                       for r in tape.records]
            steps[workload] = Counter(name for name, _, _ in records), calls, records
        return steps[workload]

    return run
