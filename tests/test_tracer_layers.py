"""The benchmark's traced run (``perfbench/run.py --trace 1``) patches every
name listed in ``perfbench/tracer.LAYERS``; a refactor that deletes or
renames one of them breaks the traced run, so each must still resolve, and
to a plain function: the tracer wraps ``cls.__dict__[attr]`` and calls it,
so a property or cached_property under a traced name would raise
``TypeError`` on every call of a traced run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_names_resolve(layer):
    module_name, timed, counted = LAYERS[layer]
    module = importlib.import_module(module_name)
    missing = []
    for name in sorted(set(timed) | set(counted)):
        if "." in name:
            cls_name, attr = name.split(".")
            raw = getattr(module, cls_name, object).__dict__.get(attr)
            if not (inspect.isfunction(raw) or isinstance(raw, staticmethod)):
                missing.append(name)
        elif not inspect.isfunction(getattr(module, name, None)):
            missing.append(name)
    assert not missing, f"{module_name} lacks functions {missing}"
