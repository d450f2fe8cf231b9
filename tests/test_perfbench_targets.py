"""The benchmark's traced mode wraps program entry points by name.

``perfbench/layers.py`` replaces each ``_TARGETS`` attribute on its owner
with a span wrapper, looking it up in the owner's ``__dict__``, and wraps
generator functions per ``next()``. A renamed or deleted target would
only fail the benchmark's own suite and its traced runs, so this checks
the lookup ``traced()`` does against the program as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from repro.mapspace.generator import MapSpace

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._TARGETS


def test_every_target_is_an_attribute_of_its_owner():
    targets = _targets()
    assert targets
    missing = []
    for module_name, class_name, attr, _, _ in targets:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        if attr not in owner.__dict__:
            missing.append(f"{module_name}.{class_name or ''}.{attr}")
    assert not missing


def test_enumeration_is_still_a_generator_function():
    assert inspect.isgeneratorfunction(MapSpace.iter_prefix_batches)
