#!/usr/bin/env python3
"""masksim benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload closed_loop --seed 1 --seconds 15 --trace 0

Run from the root of a masksim checkout; the program is imported from
``src/`` there.  Scratch files go to ``.bench_work/`` and the traced run's
spans to ``.bench_out/``, both under the checkout.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones, from rounds run with every
traced function wrapped.  Everything else goes to standard error.  Exit
code 0 means a result was printed; 2 means no result (for instance, no
masksim sources next to the benchmark).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def seconds_since_process_start() -> float:
    """Wall time since this process started, from the kernel's start stamp."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_rounds(workload, seconds: float, results: dict) -> list[float]:
    """Run whole rounds until their timed parts add up to ``seconds``;
    returns each round's timed seconds."""
    spent, times = 0.0, []
    while spent < seconds or not times:
        gc.collect()
        took, attempted, failed = workload.run_round()
        workload.rounds += 1
        results["attempted"] += attempted
        results["failed"] += failed
        spent += took
        times.append(took)
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "masksim" / "__init__.py").is_file():
        print(f"error: no masksim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import masksim
    if not Path(masksim.__file__).resolve().is_relative_to(SRC):
        print(f"error: masksim imported from {masksim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        try:
            workload.setup()
        except workloads.SetupError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 2
        setup_s = seconds_since_process_start()
        results = {"attempted": 0, "failed": 0}
        if args.trace:
            metrics, problems = traced_run(workload, args.seconds, results)
        else:
            times = timed_rounds(workload, args.seconds, results)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            problems = []
            rates = [workload.agent_steps / t for t in times if t > 0]
            metrics = {
                "setup_s": (setup_s, "s"),
                "agent_steps_per_s": (statistics.median(rates) if rates
                                      else 0.0, "agent-steps/s"),
                "peak_rss_mb": (peak_rss * 1024 / 1e6, "MB"),
                "snapshot_mb": (workload.snapshot_bytes() / 1e6
                                if workload.first is not None else 0.0, "MB"),
            }
            print(f"{args.workload}: {workload.rounds} rounds, "
                  f"round seconds {[round(t, 3) for t in times]}",
                  file=sys.stderr)
        problems = workload.problems() + problems
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_run(workload, seconds: float, results: dict):
    """Alternate untraced and traced rounds until their timed parts add up
    to ``seconds``; per-layer metrics come from the traced rounds and the
    overhead from comparing the two kinds, which alternating keeps apart
    from drift in the machine's speed."""
    tracer = tracing.Tracer()
    tracer.channel_kinds = workload.channel_kinds()
    plain, traced = [], []
    while sum(plain) + sum(traced) < seconds or not traced:
        plain += timed_rounds(workload, 0, results)
        tracer.install()
        tracer.recording = True
        try:
            traced += timed_rounds(workload, 0, results)
        finally:
            tracer.recording = False
            tracer.uninstall()
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.save(out / f"spans-{workload.name}.npz")

    metrics = tracing.layer_metrics(tracer, len(traced), workload.agent_steps,
                                    workload.snapshot_bytes(),
                                    workload.layer_facts())
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
    print(f"{workload.name}: {len(plain)} untraced rounds "
          f"{[round(t, 3) for t in plain]}, {len(traced)} traced rounds "
          f"{[round(t, 3) for t in traced]}", file=sys.stderr)

    problems = []
    for name, want in workload.expected_calls().items():
        got = metrics[name][0]
        status = "ok" if got == want else "MISMATCH"
        print(f"call count {name}: {got:g} per round, make-up gives "
              f"{want:g}: {status}", file=sys.stderr)
        if got != want:
            problems.append(f"{name} is {got:g} per round, the workload's "
                            f"make-up gives {want:g}")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main())
