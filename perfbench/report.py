#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise every metric.

Usage (from the repository root)::

    python3 perfbench/report.py --seeds 1 2 3 4 5 --seconds 30 --trace 0 1
    python3 perfbench/report.py --seeds $(seq 1 10) --baseline perfbench/baseline.json

Each ``(workload, seed, trace)`` is one ``run.py`` process, run one after
another.  For every metric the report prints the median over seeds and
the spread, the distance between the first and third quartiles as a share
of the median.  ``--baseline`` also writes those figures, with the host
they were measured on, the workloads and the layer predictions, to a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(bench.WORKLOAD_NAMES),
                        choices=bench.WORKLOAD_NAMES)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0, 1])
    parser.add_argument("--baseline", type=Path, default=None,
                        help="write the summary to this JSON file")
    args = parser.parse_args(argv)

    summary: Dict[str, Dict] = {}
    failures = 0
    for workload in args.workloads:
        per_metric: Dict[str, List[float]] = {}
        units: Dict[str, str] = {}
        for trace in args.trace:
            for seed in args.seeds:
                start = time.perf_counter()
                result = run_once(workload, seed, args.seconds, trace)
                failures += result["failed"]
                print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
                      f"{result['failed']}/{result['attempted']} failed "
                      f"({time.perf_counter() - start:.1f} s)", flush=True)
                for name, metric in result["metrics"].items():
                    per_metric.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        summary[workload] = {
            name: {"unit": units[name], **summarise(values)}
            for name, values in per_metric.items()
        }
        print(f"\n{workload}: median over {len(args.seeds)} seeds, spread = IQR / median")
        for name, figures in summary[workload].items():
            print(f"  {name:<36} {figures['median']:>14.6g} {figures['unit']:<6} "
                  f"spread {figures['spread']:.4f}")
        print(flush=True)

    if args.baseline is not None:
        sys.path.insert(0, str(bench.SRC))
        import layers
        import workloads

        document = {
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
            },
            "seconds": args.seconds,
            "seeds": args.seeds,
            "workloads": {
                name: {"why": spec.why, "seed": "--seed selects the arrival trace "
                       "and every simulated random draw"}
                for name, spec in workloads.WORKLOADS.items()
                if name in args.workloads
            },
            "predictions": list(layers.PREDICTIONS),
            "metrics": summary,
        }
        args.baseline.write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.baseline}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
