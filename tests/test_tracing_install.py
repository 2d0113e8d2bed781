"""perfbench's tracer installs on the live modules and undoes cleanly.

The tracer wraps meshmotion by name: every op in ``autodiff.__all__``,
``diffusion.rearrange``, module functions and layer methods. Installing it
here makes a source change that removes or renames one of those names fail
the tests, not only a traced benchmark run.
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
