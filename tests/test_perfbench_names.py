"""Guard for the benchmark's tracer: ``perfbench/tracer.py`` looks up every
name in its ``TRACED`` table with ``getattr`` when it installs, and the
benchmark's environment record reads ``kernels.BACKEND`` and
``kernels.HAVE_NUMBA``, so deleting any of them breaks the traced run."""

import importlib
import importlib.util
from pathlib import Path

from memoryflow import kernels

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for qualified in tracer.TRACED:
        module, attr = qualified.split(".")
        found = getattr(importlib.import_module(f"memoryflow.{module}"), attr, None)
        assert callable(found), qualified


def test_environment_record_names_exist():
    assert isinstance(kernels.BACKEND, str)
    assert isinstance(kernels.HAVE_NUMBA, bool)
