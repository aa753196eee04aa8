"""The benchmark's tracer patches ``countqe`` functions by module attribute.

Renaming or removing one of them breaks ``perfbench/run.py --trace 1``; this
test makes that a tier-1 failure.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

MODULES = [
    importlib.import_module(f"countqe.{name}")
    for name in ("cli", "elim", "formula", "sets", "verify")
]


def test_every_trace_point_patches_and_restores():
    before = [dict(vars(module)) for module in MODULES]
    tracer = Tracer()
    try:
        layers.install(tracer)
        patched = [
            (module.__name__, attr)
            for module, saved in zip(MODULES, before)
            for attr, value in vars(module).items()
            if saved.get(attr) is not value
        ]
        assert len(patched) == 26, patched
    finally:
        tracer.restore()
    for module, saved in zip(MODULES, before):
        assert all(vars(module)[attr] is value for attr, value in saved.items())
