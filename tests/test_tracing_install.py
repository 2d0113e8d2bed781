"""perfbench's tracer installs on the live modules and undoes cleanly.

The tracer wraps meshmotion by name: every op in ``autodiff.__all__``,
``diffusion.rearrange``, module functions and layer methods. Installing it
here makes a source change that removes or renames one of those names fail
the tests, not only a traced benchmark run. Training, like prediction, runs
through ``Model.forward``, so both show its span.
"""

import importlib.util
import types
from pathlib import Path

import numpy as np

from meshmotion import autodiff, body_graph, diffusion, metrics, model, part_loss, synth

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
MODULES = (autodiff, body_graph, diffusion, metrics, model, part_loss, synth)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes():
    # every module attribute, every attribute of the modules' own classes and
    # the activation table: all the places the tracer may patch
    found = {}
    for m in MODULES:
        for name, value in vars(m).items():
            found[(m.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == m.__name__:
                for attr, member in vars(value).items():
                    found[(m.__name__, name, attr)] = member
    for key, fn in body_graph._ACTIVATIONS.items():
        found[("activation", key)] = fn
    return found


def test_tracer_installs_on_the_live_modules_and_undoes():
    tracing = _load_tracing()
    namespace = types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    before = _attributes()
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches, namespace)
    try:
        assert diffusion.rearrange is not before[("meshmotion.diffusion", "rearrange")]
        assert autodiff.conv3d is not before[("meshmotion.autodiff", "conv3d")]
        x = autodiff.Tensor(np.zeros((1, 2, 6, 3)), requires_grad=True)
        with autodiff.Tape():
            diffusion.rearrange(diffusion.rearrange(x, (2, 3)))
    finally:
        patches.undo()
    assert tracer.names.count("diffusion.rearrange") == 2
    assert tracer.names.count("autodiff.fwd.reshape") == 2
    after = _attributes()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_training_and_prediction_each_trace_a_model_forward_span():
    # train runs Model.forward on each step's minibatch, as predict does
    tracing = _load_tracing()
    namespace = types.SimpleNamespace(**{m.__name__.rsplit(".", 1)[1]: m for m in MODULES})
    config = model.ModelConfig(vertices_per_part=2, coarse_per_part=1, channels=4, height=2,
                               width=4, diffusion_steps=2, encoder_hidden=6, context_rows=2,
                               train_steps=2, batch_size=2)
    graph = body_graph.generate_toy_body(2, 1)
    data = [synth.generate_sequence(synth.MotionConfig(graph=graph, frames=3), seed=s)
            for s in range(3)]
    tracer, patches = tracing.Tracer(), tracing.Patches()
    tracing.install(tracer, patches, namespace)
    try:
        trained, losses = model.train(config, data)
        trained.predict(data[0])
    finally:
        patches.undo()
    assert len(losses) == 2
    assert tracer.names.count("model.forward") == 3
    # the tracer wraps each block attention layer's __call__(query, context)
    # by instance: one span per denoiser call, and five attention layer
    # records per forward
    assert tracer.names.count("diffusion.context_attn") == 3
    assert tracer.names.count("diffusion.cond_attn") == 3
    assert tracer.names.count("autodiff.fwd.attention_layer") == 5 * 3
