"""The countqe benchmark: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload twosided --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  Scratch files go to ``.perfbench/`` under
the checkout; the traced run also leaves its spans there.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))

from harness import PHASES, Pace, Runner, median, move_to_quietest_cpu, tail_percentile  # noqa: E402
from layers import install, layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402


def import_cli():
    """Import ``countqe.cli`` afresh from the checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "countqe" or m.startswith("countqe.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("countqe.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"countqe was imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(name: str, seed: int, workdir: Path, before_pass=None):
    """Import the package, generate the inputs and write them to files;
    returns the runner and the seconds that took."""
    start = time.perf_counter()
    cli = import_cli()
    runner = Runner(cli.main, make_workload(name, seed), workdir, before_pass=before_pass)
    runner.write_inputs()
    return runner, time.perf_counter() - start


def describe(name: str, samples, unit: str = "s") -> str:
    line = f"# {name}: median {median(samples):.6f} {unit} over {len(samples)} samples"
    tail = tail_percentile(samples)
    if tail is not None:
        line += f", p{tail[0]:g} {tail[1]:.6f} {unit}"
    return line


def end_to_end(runner: Runner, setups, relative) -> dict:
    census = runner.census
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": (median(setups), "s")}
    for phase in PHASES:
        metrics[f"{phase}_rel"] = (median(relative[phase]), "yardsticks")
    metrics["output_nodes"] = (sum(census.nodes.values()), "count")
    metrics["output_bytes"] = (sum(census.bytes.values()), "B")
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    metrics["ok_share"] = (runner.ok_share(), "ratio")
    return metrics


def traced(runner: Runner, deadline: float, spans_path: Path) -> dict:
    """Rounds with every layer patched; per-layer medians over rounds plus
    the tracing overhead against the untraced rounds."""
    tracer = Tracer()
    install(tracer)
    runner.trace_with(tracer)
    rounds = []
    try:
        while True:
            runner.run_round()
            rounds.append(layer_metrics(tracer.new_round()))
            round_s = sum(median(runner.traced_samples[p]) for p in PHASES)
            if time.perf_counter() + round_s > deadline:
                break
    finally:
        tracer.restore()
    tracer.write_spans(spans_path)
    metrics = {
        name: (median([r[name][0] for r in rounds]), unit)
        for name, (_, unit) in rounds[0].items()
    }
    for phase in PHASES:
        overhead = runner.median_pass(phase, traced=True) - runner.median_pass(phase)
        metrics[f"trace.overhead_s.{phase}_s"] = (overhead, "s")
    print(f"# traced rounds: {len(rounds)}; spans written to {spans_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "countqe").is_dir():
        print(f"error: no countqe sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        runner, setup_s = set_up(
            args.workload, args.seed, Path(tmp), before_pass=lambda: move_to_quietest_cpu(cpus)
        )
        setups = [setup_s]
        relative = {}
        begin = time.perf_counter()
        deadline = begin + args.seconds
        if args.trace:
            runner.run_round()
            runner.rounds_until(begin + args.seconds / 2)
            metrics = traced(
                runner, deadline, SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl"
            )
        else:
            again = Path(tmp, "again")
            again.mkdir()

            def set_up_again():
                # Spread over the run, so one busy spell cannot cover them all.
                done = (time.perf_counter() - begin) / args.seconds
                if len(setups) < SETUP_REPEATS and done >= len(setups) / SETUP_REPEATS:
                    setups.append(set_up(args.workload, args.seed, again)[1])

            with Pace() as pace:
                runner.run_round()
                runner.fill(deadline, after_pass=set_up_again)
            relative = {phase: runner.relative(phase, pace) for phase in PHASES}
            metrics = end_to_end(runner, setups, relative)

    census = runner.census
    for pres in runner.workload.presentations:
        print(
            f"# {pres.name}: nodes {census.nodes.get(pres.name)} "
            f"(estimated {census.estimates.get(pres.name)}) "
            f"bytes {census.bytes.get(pres.name)}"
        )
    print(describe("setup_s", setups))
    for phase in PHASES:
        print(describe(f"{phase}_s", runner.samples[phase]))
        if relative:
            print(describe(f"{phase}_rel", relative[phase], "yardsticks"))
        if args.trace:
            print(describe(f"{phase}_s traced", runner.traced_samples[phase]))
    for problem in runner.problems:
        print(f"# incorrect: {problem}")
    print(f"# wall {time.perf_counter() - start:.1f} s")
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
