"""Passes of ``countqe.cli.main`` calls, their checks and their statistics.

One caller runs every call in turn (a closed loop).  A pass runs one
command over every presentation of the workload:

* ``eliminate``: ``eliminate --report``; the printed formula is kept for
  the reparse pass.
* ``reparse``: ``parse --file --roundtrip`` over every eliminated formula;
  the output must equal the input text (print, parse, print again).
* ``check``: ``check`` with the workload's fixed trial count and seed;
  every trial's verdict is read back.

Operations are invocations and ``check`` trials.  An operation fails on an
unexpected exit code or an uncaught exception, which is counted and the
pass goes on with the next operation.  A trial also fails on a ``mismatch``,
``overlap`` or ``unstable-bad`` verdict.  Outputs that are wrong (such as a
verdict of that kind, a roundtrip that changes the text, or a later pass
that prints something else or fails otherwise than the first) clear
``correct``.  Every pass repeats the first round's operations, so the
operation counts are those of the first pass of each phase: they repeat
exactly from run to run.

Timings are also given relative to the machine's pace: a ``Pace`` thread
times a fixed yardstick on the caller's CPU a few times a second, and each
call's seconds are divided by the mean yardstick seconds around it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import math
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import fmean, median

PHASES = ("eliminate", "reparse", "check")
SAMPLE_EVERY_S = 0.1
SAMPLE_PAD_S = 1.0
BAD_VERDICTS = frozenset({"mismatch", "overlap", "unstable-bad"})
_TOTAL_NODES = re.compile(r"^# total nodes: (\d+) \(estimated (\d+)\)$", re.M)


def tail_percentile(samples, ladder=(75, 90, 95, 99, 99.9)):
    """The highest percentile of ``ladder`` with at least ten samples beyond
    it, as (percentile, nearest-rank value); None when there is none."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in ladder:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def yardstick() -> float:
    """Seconds for a fixed piece of pure-Python work of the program's kind.

    It builds small exact fractions, tuples and dicts, prints them as text
    and reads the text back, in a few milliseconds, and imports nothing of
    ``countqe``: its time moves with the machine only, never with the
    program.
    """
    start = time.perf_counter()
    rows = []
    for i in range(1, 600):
        value = Fraction(i, 7) + Fraction(3, i + 1)
        rows.append({"name": f"x{i % 13}", "coeffs": (i, value.numerator % 97, -i)})
    text = " & ".join(f"{r['name']}*{r['coeffs'][1]} <= {r['coeffs'][0]}" for r in rows)
    parsed = [part.split(" <= ") for part in text.split(" & ")]
    sum(int(bound) - len(term) for term, bound in parsed)
    return time.perf_counter() - start


def move_to_quietest_cpu(cpus) -> None:
    """Pin this process to whichever of ``cpus`` runs the yardstick fastest.

    On a shared virtual machine each virtual CPU competes with different
    neighbours, and the same call can take 1.5 times longer on one than on
    the other for seconds at a time.  Choosing before every pass keeps the
    program on the least disturbed one; its own work is unchanged.
    """
    if len(cpus) < 2:
        return
    timings = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = min(yardstick(), yardstick())
    os.sched_setaffinity(0, {min(timings, key=timings.get)})


class Pace:
    """Times the yardstick every ``SAMPLE_EVERY_S`` from a thread of its own.

    On a shared virtual machine the same pure-Python work runs at two
    speeds, about 1.8 times apart, and switches between them within
    seconds, so a call of several seconds averages a mix that differs from
    run to run.  The thread follows the calling thread's CPU, and while it
    runs the interpreter's switch interval is long enough that the caller
    cannot break into a yardstick.  Use it as a context manager; it stops
    and joins the thread on the way out.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._caller = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="pace", daemon=True)
        self._interval = sys.getswitchinterval()

    def __enter__(self):
        sys.setswitchinterval(0.05)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._interval)

    def _run(self) -> None:
        while True:
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, os.sched_getaffinity(self._caller))
            start = time.perf_counter()
            # The caller waits for the interpreter lock meanwhile, so
            # pausing the collector cannot touch its run; and since the
            # yardstick frees all it allocates, the program's collections
            # come when they would have come without it.
            collecting = gc.isenabled()
            gc.disable()
            try:
                seconds = yardstick()
            finally:
                if collecting:
                    gc.enable()
            self.samples.append((start, seconds))
            if self._stop.wait(SAMPLE_EVERY_S):
                return

    def seconds(self, start: float, end: float) -> float:
        """The mean yardstick seconds of the samples taken within
        ``SAMPLE_PAD_S`` of ``[start, end]``, leaving out any over three
        times the fastest sample (a yardstick the operating system
        interrupted)."""
        fastest = min(s for _, s in self.samples)
        near = [
            s for t, s in self.samples
            if start - SAMPLE_PAD_S <= t <= end + SAMPLE_PAD_S and s <= 3 * fastest
        ]
        return fmean(near) if near else median(s for _, s in self.samples)


@dataclass
class Census:
    """What the first pass of each phase produced; later passes must agree."""

    outputs: dict = field(default_factory=dict)
    formulas: dict = field(default_factory=dict)
    nodes: dict = field(default_factory=dict)
    estimates: dict = field(default_factory=dict)
    bytes: dict = field(default_factory=dict)
    attempted: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)


class Runner:
    """Runs passes of one workload against an imported ``countqe.cli``."""

    def __init__(self, main, workload, workdir: Path, before_pass=None):
        self.main = main
        self.before_pass = before_pass
        self.workload = workload
        self.workdir = workdir
        self.tracer = None
        self.census = Census()
        self.problems: list[str] = []
        self.samples = {phase: [] for phase in PHASES}
        self.traced_samples = {phase: [] for phase in PHASES}
        self.calls = {phase: [] for phase in PHASES}
        self._timed: list[tuple[float, float]] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def attempted(self) -> int:
        """Operations of the first pass of each phase."""
        return sum(self.census.attempted.values())

    @property
    def failed(self) -> int:
        return sum(self.census.failed.values())

    def path(self, pres, suffix: str) -> str:
        return str(self.workdir / f"{pres.name}.{suffix}")

    def write_inputs(self) -> None:
        for pres in self.workload.presentations:
            Path(self.path(pres, "sl")).write_text(pres.text, encoding="utf-8")

    # --- one call -------------------------------------------------------------

    def _call(self, argv):
        """Run ``main(argv)``; returns (exit code or exception name, seconds).

        The output file (after ``--output``) is removed first, so a failed
        call cannot leave an earlier pass's output behind, and a garbage
        collection first makes every call start from the same heap."""
        Path(argv[argv.index("--output") + 1]).unlink(missing_ok=True)
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                status = self.main(argv)
        except Exception as exc:  # the program's crash is a failed operation
            status = type(exc).__name__
        except SystemExit as exc:
            status = f"SystemExit({exc.code})"
        end = time.perf_counter()
        self._timed.append((start, end))
        return status, end - start

    def _problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def _same_as_census(self, key, text: str) -> None:
        first = self.census.outputs.setdefault(key, text)
        if first != text:
            self._problem(f"{key[0]} {key[1]}: output differs from the first pass")

    # --- passes ------------------------------------------------------------------

    def run_pass(self, phase: str) -> None:
        """One pass of ``phase``; its sample is the seconds spent inside
        ``main``, and the start and end of each call are kept for
        ``relative``."""
        if self.before_pass is not None:
            self.before_pass()
        self._timed = []
        step = getattr(self, f"_{phase}")
        attempted = failed = 0
        seconds = 0.0
        for pres in self.workload.presentations:
            if self.tracer is not None:
                self.tracer.op += 1
                if phase != "reparse":
                    self.tracer.stats.counts["sets.components"] += pres.components
            a, f, s = step(pres)
            attempted += a
            failed += f
            seconds += s
            first = self.census.outcomes.setdefault((phase, pres.name), (a, f))
            if first != (a, f):
                self._problem(
                    f"{phase} {pres.name}: {f} of {a} operations failed, "
                    f"{first[1]} of {first[0]} in the first pass"
                )
        self.census.attempted.setdefault(phase, attempted)
        self.census.failed.setdefault(phase, failed)
        if self.tracer is None:
            self.samples[phase].append(seconds)
            self.calls[phase].append(self._timed)
        else:
            self.traced_samples[phase].append(seconds)

    def _eliminate(self, pres):
        out = self.path(pres, "out")
        status, seconds = self._call(["eliminate", self.path(pres, "sl"), "--report", "--output", out])
        if status != 0:
            return 1, 1, seconds
        text = Path(out).read_text(encoding="utf-8")
        self._same_as_census(("eliminate", pres.name), text)
        if pres.name not in self.census.formulas:
            formula = text.split("\n", 1)[0]
            match = _TOTAL_NODES.search(text)
            if match is None:
                self._problem(f"eliminate {pres.name}: no '# total nodes' line")
                return 1, 0, seconds
            self.census.formulas[pres.name] = formula
            self.census.nodes[pres.name] = int(match.group(1))
            self.census.estimates[pres.name] = int(match.group(2))
            self.census.bytes[pres.name] = len(formula.encode("utf-8"))
            Path(self.path(pres, "formula")).write_text(formula, encoding="utf-8")
        return 1, 0, seconds

    def _reparse(self, pres):
        formula = self.census.formulas.get(pres.name)
        if formula is None:  # eliminate failed: nothing to read back
            return 1, 1, 0.0
        out = self.path(pres, "reparsed")
        argv = ["parse", self.path(pres, "formula"), "--file", "--roundtrip", "--output", out]
        status, seconds = self._call(argv)
        if status != 0:
            if status == 3:
                self._problem(f"parse {pres.name}: roundtrip mismatch")
            return 1, 1, seconds
        if Path(out).read_text(encoding="utf-8") != formula + "\n":
            self._problem(f"parse {pres.name}: printing the parsed formula changed the text")
        return 1, 0, seconds

    def _check(self, pres):
        trials = self.workload.trials
        out = self.path(pres, "check")
        argv = [
            "check", self.path(pres, "sl"), "--trials", str(trials),
            "--seed", str(self.workload.check_seed), "--output", out,
        ]
        status, seconds = self._call(argv)
        if not isinstance(status, int):
            return 1 + trials, 1 + trials, seconds
        text = Path(out).read_text(encoding="utf-8") if Path(out).exists() else ""
        self._same_as_census(("check", pres.name), text)
        verdicts = [line.rsplit(" | ", 1)[1] for line in text.splitlines()[1:] if " | " in line]
        bad = sum(1 for v in verdicts if v in BAD_VERDICTS)
        if bad:
            self._problem(f"check {pres.name}: {bad} trial(s) disagree with the oracle")
        expected = (
            f"summary: trials={trials} mismatches={verdicts.count('mismatch')} "
            f"overlaps={verdicts.count('overlap')} "
            f"unstable={verdicts.count('unstable-ok') + verdicts.count('unstable-bad')}"
        )
        if text and (len(verdicts) != trials or expected not in text):
            self._problem(f"check {pres.name}: trial table and summary disagree")
        failed_trials = bad + max(trials - len(verdicts), 0)
        return 1 + trials, int(status != 0) + failed_trials, seconds

    # --- scheduling ---------------------------------------------------------------

    def run_round(self) -> None:
        for phase in PHASES:
            self.run_pass(phase)

    def relative(self, phase: str, pace: Pace) -> list[float]:
        """Each untraced pass of ``phase`` in yardsticks: the sum over its
        calls of the call's seconds over ``pace``'s yardstick seconds
        around that call."""
        return [
            sum((end - start) / pace.seconds(start, end) for start, end in calls)
            for calls in self.calls[phase]
        ]

    def median_pass(self, phase: str, traced: bool = False) -> float:
        """The median seconds of the run's passes of ``phase``."""
        return median((self.traced_samples if traced else self.samples)[phase])

    def fill(self, deadline: float, after_pass=None) -> None:
        """More passes until ``deadline``: always the phase that has had
        the least time so far, so that each gets about a third of the run
        and short passes get many samples; a phase is skipped once its
        median pass would overrun.  ``after_pass()`` runs after every
        pass."""
        open_phases = list(PHASES)
        while open_phases:
            phase = min(open_phases, key=lambda p: sum(self.samples[p]))
            if time.perf_counter() + median(self.samples[phase]) > deadline:
                open_phases.remove(phase)
                continue
            self.run_pass(phase)
            if after_pass is not None:
                after_pass()

    def rounds_until(self, deadline: float) -> None:
        """Whole untraced rounds while the median round still fits before
        ``deadline``."""
        while True:
            round_s = sum(median(self.samples[p]) for p in PHASES)
            if time.perf_counter() + round_s > deadline:
                return
            self.run_round()

    def ok_share(self) -> float:
        return 1.0 - self.failed / self.attempted

    def trace_with(self, tracer) -> None:
        """Send every later call through ``tracer``, as span ``cli.main``."""
        self.tracer = tracer
        self.main = tracer.wrap(self.main, "cli.main")
