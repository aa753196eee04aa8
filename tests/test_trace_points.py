"""The benchmark's tracer patches ``countqe`` functions by module attribute.

Renaming or removing one of them breaks ``perfbench/run.py --trace 1``; this
test makes that a tier-1 failure.  A name that the package no longer
defines but the tracer still patches is kept as a ``None`` placeholder, and
only as long as some patch names it.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracing import Tracer  # noqa: E402

import countqe  # noqa: E402
from countqe import cli  # noqa: E402

THREE_PERIODS = Path(__file__).resolve().parent / "fixtures" / "three_periods.sl"

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


class _Recorder:
    """A tracer that records each patch instead of making it."""

    def __init__(self):
        self.patched = set()

    def patch(self, module, attr, *args, **kwargs):
        self.patched.add((module.__name__, attr))


def _placeholders(module) -> set:
    return {
        (module.__name__, attr)
        for attr, value in vars(module).items()
        if value is None and not attr.startswith("__")
    }


def test_every_placeholder_is_a_patch_target():
    recorder = _Recorder()
    layers.install(recorder)
    for module in MODULES:
        assert _placeholders(module) <= recorder.patched, module.__name__


def test_no_export_is_a_placeholder():
    assert _placeholders(countqe) == set()


def test_traced_check_reads_the_oracle(capsys):
    # The oracle hook reads WitnessCount's window, per_component and stable.
    tracer = Tracer()
    try:
        layers.install(tracer)
        code = cli.main(["check", str(THREE_PERIODS), "--trials", "3"])
        metrics = layers.layer_metrics(tracer.new_round())
    finally:
        tracer.restore()
    assert code == 0, capsys.readouterr().err
    assert metrics["verify.oracle.calls"][0] > 0
