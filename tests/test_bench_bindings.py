"""The benchmark's tracer patches library bindings by name; every one must exist.

perfbench/tracer.py wraps each (module, attribute) in BINDINGS with a span
recorder, so a renamed or removed entry point would break the traced
benchmark run without failing any library test. The file is read, not edited.
"""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", os.path.join(ROOT, "perfbench", "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the file runs
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracer = _load_tracer()
    assert tracer.BINDINGS
    missing = [
        f"{mod.__name__}.{attr}" for mod, attr, _ in tracer.BINDINGS if not callable(getattr(mod, attr, None))
    ]
    assert not missing, f"tracer binds names the library no longer has: {missing}"
