#!/usr/bin/env python3
"""Benchmark of the simulator's host cost, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload burst-vllm --seed 1 --seconds 30 --trace 0

One process per run; every workload runs inline (no worker pool).
``--trace 0`` reports the end-to-end metrics: set-up time (the median of
several fresh processes, from process start to the first simulated event,
each scaled like host time below), then untraced repeats of the workload
for ``--seconds`` seconds.  Host time
is the median over the repeats of each one's host time scaled by the speed
of a fixed reference program sampled inside it (:mod:`hostclock`): on a
shared host, contention slows every instruction in phases that can outlast
a whole run, and the scaling cancels most of them.  The throughputs are
simulated work per scaled host second.
``--trace 1``
alternates untraced repeats with repeats traced by
:class:`layertrace.LayerTracer` and reports the per-layer split of the
traced ones (medians) plus the tracing overhead.  Every repeat checks its outputs
(request conservation, an outcome digest equal across repeats and between
traced and untraced runs; on the tier, a warm pass equal to the cold one).
The last line of standard output is one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Throwaway directories (the tier's result caches) live here during a run.
WORK_DIR = HERE / ".work"

#: ``(name, unit, better)`` of the end-to-end metrics.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("scaled_wall_s", "s", "lower"),
    ("sim_requests_per_s", "1/s", "higher"),
    ("sim_output_tokens_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)
WORKLOAD_NAMES = ("burst-vllm", "burst-kunserve", "tier-telemetry")

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 7
#: Repeats measured at least, however long they take.
MIN_REPEATS = 3
MIN_TRACED = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the repeats of one run measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer split")
    parser.add_argument("--size", choices=("bench", "tiny"), default="bench",
                        help="input size; tiny is for smoke tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class FirstEvent(BaseException):
    """Raised at the first simulated event of a set-up probe (not an
    ``Exception``, so no handler inside the simulator swallows it)."""


def probe_setup(args: argparse.Namespace) -> int:
    """Child process: set the workload up, report when its first event runs."""
    from repro.simulation.event_loop import EventLoop

    reached: List[float] = []

    def first_event(loop, *_args, **_kwargs):
        reached.append(time.monotonic())
        raise FirstEvent

    EventLoop.run = first_event
    import workloads

    WORK_DIR.mkdir(exist_ok=True)
    try:
        workloads.WORKLOADS[args.workload].run(args.seed, args.size, WORK_DIR)
    except FirstEvent:
        pass
    if not reached:
        print("set-up probe: the workload never started its event loop", file=sys.stderr)
        return 1
    print(f"first_event {reached[0]!r}")
    return 0


def measure_setup(args: argparse.Namespace) -> List[float]:
    """Seconds from spawning a fresh process to its first simulated event,
    scaled by the reference's speed just before and just after it."""
    from hostclock import reference_s, scaled

    command = [
        sys.executable, str(HERE / "run.py"), "--probe-setup",
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
    ]
    times = []
    after = reference_s()
    for _ in range(SETUP_PROBES):
        before = after
        start = time.monotonic()
        proc = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        reached = float(proc.stdout.strip().splitlines()[-1].split()[1])
        after = reference_s()
        times.append(scaled([(0.0, before), (reached - start, after)]))
    return times


class Runner:
    """Runs repeats of one workload and checks each one's outputs."""

    def __init__(self, args: argparse.Namespace) -> None:
        import workloads

        self.args = args
        self.spec = workloads.WORKLOADS[args.workload]
        self.reference: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.first = None

    def attempt(
        self,
        label: str,
        call: Optional[Callable[[Callable], object]] = None,
        clock=None,
    ):
        """One checked repeat; ``(outcome, host seconds)`` or ``None``."""
        gc.collect()
        self.attempted += 1
        run = lambda: self.spec.run(self.args.seed, self.args.size, WORK_DIR, clock)  # noqa: E731
        start = time.perf_counter()
        try:
            outcome = call(run) if call is not None else run()
        except Exception:
            self.failed += 1
            print(f"{label} repeat raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        total_s = time.perf_counter() - start
        problems = list(outcome.problems)
        digest = outcome.digest()
        if self.reference is None:
            self.reference = digest
            self.first = outcome
        elif digest != self.reference:
            problems.append(f"{label} outcome digest {digest} != {self.reference}")
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {problem}", file=sys.stderr)
            return None
        return outcome, total_s


def end_to_end(args: argparse.Namespace, runner: Runner) -> Dict[str, float]:
    from hostclock import ScaledClock

    setups = measure_setup(args)
    clock = ScaledClock()
    walls = []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
        done = runner.attempt("untraced", clock=clock)
        if done is not None:
            walls.append(done[0].scaled_s)
        if runner.attempted > 4 * MIN_REPEATS and not walls:
            break
    if not walls:
        return {}
    wall_s = statistics.median(walls)
    return {
        "setup_s": statistics.median(setups),
        "scaled_wall_s": wall_s,
        "sim_requests_per_s": runner.first.finished / wall_s,
        "sim_output_tokens_per_s": runner.first.output_tokens / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(args: argparse.Namespace, runner: Runner) -> Dict[str, float]:
    import layers
    from layertrace import LayerTracer

    tracer = LayerTracer()

    def traced(run):
        tracer.install()
        tracer.reset()
        try:
            return tracer.run(run)
        finally:
            tracer.uninstall()

    plain: List[Tuple[object, float]] = []
    spans: List[Tuple[float, Dict[str, float]]] = []
    deadline = time.perf_counter() + args.seconds
    while (len(spans) < MIN_TRACED or len(plain) < MIN_TRACED
           or time.perf_counter() < deadline):
        done = runner.attempt("untraced")
        if done is not None:
            plain.append(done)
        done = runner.attempt("traced", traced)
        if done is not None:
            split = tracer.split()
            counts = {k: v for k, v in split.items() if not k.endswith("self_s")}
            if spans and counts != {k: v for k, v in spans[0][1].items()
                                    if not k.endswith("self_s")}:
                runner.failed += 1
                print("check failed: traced work counts differ between repeats",
                      file=sys.stderr)
            else:
                spans.append((done[1], split))
        if runner.attempted > 8 * MIN_TRACED and not (plain and spans):
            break
    if not (plain and spans):
        return {}
    for layer in tracer.absent:
        print(f"layer absent from this code: {layer}")
    metrics = {
        name: statistics.median(split[name] for _, split in spans)
        for name in spans[0][1]
    }
    metrics["fleet.shed"] = float(runner.first.shed)
    for name in ("sweeps.cold_s", "sweeps.warm_s", "sweeps.cache_hit_ratio"):
        metrics[name] = statistics.median(o.sweeps.get(name, 0.0) for o, _ in plain)
    metrics["bench.trace_overhead_ratio"] = (
        min(total for total, _ in spans) / min(total for _, total in plain)
    )
    expected = [name for name, _, _ in layers.per_layer_metrics()]
    return {name: metrics[name] for name in expected}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        return probe_setup(args)

    import layers

    WORK_DIR.mkdir(exist_ok=True)
    try:
        runner = Runner(args)
        if args.trace:
            values = per_layer(args, runner)
            units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
        else:
            values = end_to_end(args, runner)
            units = {name: unit for name, unit, _ in END_TO_END}
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if not values:
        print("error: no repeat passed its checks", file=sys.stderr)
        return 1

    first = runner.first
    print(
        f"{args.workload} seed {args.seed}: simulated submitted={first.submitted} "
        f"finished={first.finished} shed={first.shed} "
        f"output_tokens={first.output_tokens} digest={first.digest()}"
    )
    print(f"failed_ratio = {runner.failed / runner.attempted:.4f} "
          f"({runner.failed}/{runner.attempted} repeats)")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
