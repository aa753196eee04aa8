"""Tests of the benchmark's own machinery; none of them runs countqe."""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from harness import Pace, Runner, tail_percentile  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    Presentation,
    Workload,
    make_workload,
    presentation_text,
    rank,
    sweep,
)


# --- the sweep generator ----------------------------------------------------------


def test_sweep_is_deterministic_per_seed():
    assert sweep(7) == sweep(7)
    assert make_workload("sweep", 7) == make_workload("sweep", 7)
    assert sweep(7) != sweep(8)


def test_sweep_shape_does_not_depend_on_seed():
    names = [[p.name for p in sweep(seed)] for seed in (0, 1, 2)]
    assert names[0] == names[1] == names[2]


def test_fixed_workloads_ignore_the_seed():
    for name in ("twosided", "halfline"):
        assert make_workload(name, 1) == make_workload(name, 2)


def test_sweep_components_are_simple():
    for pres in sweep(3):
        comps = pres.text.split("component\n")[1:]
        assert len(comps) == pres.components
        for comp in comps:
            periods = [
                tuple(int(v) for v in line.split()[1:])
                for line in comp.splitlines()
                if line.startswith("period")
            ]
            assert rank(periods) == len(periods)


# --- spans and self time ---------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    outer = tracer.enter("outer")
    clock.now = 1.0
    child = tracer.enter("child")
    clock.now = 3.0
    grandchild = tracer.enter("grandchild")
    clock.now = 3.5
    tracer.exit(grandchild)
    clock.now = 4.0
    tracer.exit(child)
    clock.now = 4.5
    tally = tracer.enter("tally")
    clock.now = 5.0
    tracer.exit(tally, record=False)
    clock.now = 6.0
    tracer.exit(outer)

    stats = tracer.stats
    assert stats.seconds["outer"] == 6.0
    assert stats.self_seconds["outer"] == 6.0 - 3.0 - 0.5
    assert stats.seconds["child"] == 3.0
    assert stats.self_seconds["child"] == 2.5
    assert stats.self_seconds["grandchild"] == 0.5
    assert stats.calls["tally"] == 1
    recorded = {span[3]: span for span in tracer.spans}
    assert set(recorded) == {"outer", "child", "grandchild"}
    assert recorded["grandchild"][1] == recorded["child"][0]
    assert recorded["child"][1] == recorded["outer"][0]


def test_patch_passes_through_and_restores():
    class Module:
        pass

    module = Module()

    def depth(n):
        return 0 if n == 0 else 1 + module.depth(n - 1)

    def boom():
        raise KeyError("x")

    module.depth = depth
    module.boom = boom
    tracer = Tracer()
    tracer.patch(module, "depth", "depth", outermost=True)
    tracer.patch(module, "boom", "boom")
    assert module.depth(50) == 50
    assert tracer.stats.calls["depth"] == 1  # recursive calls are not spans
    try:
        module.boom()
    except KeyError:
        pass
    else:
        raise AssertionError("exception swallowed")
    assert tracer.stats.calls["boom"] == 1 and not tracer.stack
    tracer.restore()
    assert module.depth is depth and module.boom is boom


# --- statistics -------------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(39))) is None
    assert tail_percentile(list(range(40))) == (75, 29)
    assert tail_percentile(list(range(100))) == (90, 89)
    assert tail_percentile(list(range(1000))) == (99, 989)


def test_pace_means_the_samples_around_a_call():
    pace = Pace()
    pace.samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (3.0, 9.0), (10.0, 4.0)]
    # Samples within a second of the call; 9.0 is over three times the fastest.
    assert pace.seconds(1.5, 2.5) == 2.0
    # No sample near the call: the median of all of them.
    assert pace.seconds(50.0, 51.0) == 2.0


def test_relative_divides_each_call_by_the_pace_around_it(tmp_path):
    pace = Pace()
    pace.samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 2.0), (10.0, 2.5)]
    runner = Runner(fake_main, Workload("fake", (), trials=1), tmp_path)
    runner.calls["check"] = [[(0.0, 2.0), (10.0, 12.0)]]
    [passed] = runner.relative("check", pace)
    assert abs(passed - (2.0 / (5.0 / 3.0) + 2.0 / 2.5)) < 1e-12


def test_pace_samples_at_least_once_and_stops():
    interval = sys.getswitchinterval()
    with Pace() as pace:
        time.sleep(0.01)
    assert pace.samples
    assert not pace._thread.is_alive()
    assert sys.getswitchinterval() == interval


# --- failure accounting -------------------------------------------------------------


def fake_main(argv):
    """Stands in for countqe.cli.main; 'crash' fails to read back."""
    command, source = argv[0], Path(argv[1])
    out = Path(argv[argv.index("--output") + 1])
    if command == "eliminate":
        out.write_text("E c . c = 1\n# total nodes: 5 (estimated 6)\n")
    elif command == "parse":
        if source.stem == "crash":
            raise RecursionError("maximum recursion depth exceeded")
        out.write_text(source.read_text() + "\n")
    else:
        trials = int(argv[argv.index("--trials") + 1])
        rows = [f"{i} | x1=0 | 1 | yes | 1 | ok" for i in range(trials)]
        out.write_text(
            "trial | assignment | oracle | stable | formula | verdict\n"
            + "\n".join(rows)
            + f"\nsummary: trials={trials} mismatches=0 overlaps=0 unstable=0\n"
        )
    return 0


def test_forced_exception_counts_as_one_failed_operation(tmp_path):
    text = presentation_text("Z", [((0,), [(1,)])])
    presentations = tuple(Presentation(name, text, 1) for name in ("a", "crash", "b"))
    runner = Runner(fake_main, Workload("fake", presentations, trials=2), tmp_path)
    runner.write_inputs()
    runner.run_round()
    runner.run_pass("reparse")

    # One round: 3 eliminates, 3 parses, 3 checks of 1 + 2 trials each.
    assert runner.census.attempted == {"eliminate": 3, "reparse": 3, "check": 9}
    assert runner.census.failed == {"eliminate": 0, "reparse": 1, "check": 0}
    assert runner.ok_share() == 1 - 1 / 15
    # The counts are the first round's, so they do not grow with the run.
    assert (runner.attempted, runner.failed) == (15, 1)
    assert runner.correct, runner.problems
    assert len(runner.samples["reparse"]) == 2


def test_later_pass_failing_otherwise_is_incorrect(tmp_path):
    text = presentation_text("Z", [((0,), [(1,)])])
    runner = Runner(fake_main, Workload("fake", (Presentation("a", text, 1),), trials=1), tmp_path)
    runner.write_inputs()
    runner.run_round()
    Path(runner.path(runner.workload.presentations[0], "formula")).rename(tmp_path / "gone")
    runner.run_pass("reparse")

    assert (runner.attempted, runner.failed) == (4, 0)
    assert not runner.correct
    assert "reparse a: 1 of 1 operations failed" in runner.problems[0]
