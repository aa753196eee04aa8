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
