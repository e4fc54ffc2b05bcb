#!/usr/bin/env python3
"""Check the traced per-layer split against a cProfile grouped by module.

Usage (from the repository root)::

    python3 perfbench/profile_split.py --workload burst-kunserve --seed 1

Runs the workload once to warm up, once under :class:`LayerTracer` and
once under ``cProfile``, and prints each layer's share of host time from
both.  cProfile time of code outside ``repro`` (builtins, the standard
library, numpy) is charged to the layers of its direct callers, in
proportion to the time each caller spent in it.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import shutil
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))

import layers  # noqa: E402
from layertrace import LayerTracer  # noqa: E402


def module_of(filename: str) -> str:
    path = Path(filename)
    try:
        relative = path.resolve().relative_to(bench.SRC)
    except (ValueError, OSError):
        return ""
    parts = relative.with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def profile_split(profile: cProfile.Profile) -> Dict[str, float]:
    """Host seconds per layer from a profile's own (``tottime``) times."""
    stats = pstats.Stats(profile).stats
    per_layer: Dict[str, float] = defaultdict(float)

    def layer(func) -> str:
        return layers.layer_of(module_of(func[0])) or ""

    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        own = layer(func)
        if own:
            per_layer[own] += tottime
            continue
        caller_time = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(caller_time.values())
        for caller, spent in caller_time.items():
            per_layer[layer(caller) or "other"] += tottime * spent / total if total else 0.0
        if not caller_time:
            per_layer["other"] += tottime
    return dict(per_layer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    import workloads

    spec = workloads.WORKLOADS[args.workload]
    bench.WORK_DIR.mkdir(exist_ok=True)
    try:
        spec.run(args.seed, "bench", bench.WORK_DIR)
        tracer = LayerTracer()
        tracer.install()
        try:
            tracer.run(lambda: spec.run(args.seed, "bench", bench.WORK_DIR))
        finally:
            tracer.uninstall()
        traced = {layer: tracer.split()[f"{layer}.self_s"] for layer in layers.LAYERS}
        profile = cProfile.Profile()
        profile.runcall(spec.run, args.seed, "bench", bench.WORK_DIR)
        profiled = profile_split(profile)
    finally:
        shutil.rmtree(bench.WORK_DIR, ignore_errors=True)

    traced_total = sum(traced.values())
    profiled_total = sum(profiled.values())
    print(f"{args.workload} seed {args.seed}: traced {traced_total:.3f} s, "
          f"cProfile {profiled_total:.3f} s")
    print(f"{'layer':<22} {'traced s':>9} {'share':>7} {'cProfile s':>11} {'share':>7}")
    for layer in sorted(layers.LAYERS, key=lambda name: -traced[name]):
        t, p = traced[layer], profiled.get(layer, 0.0)
        if t == 0 and p == 0:
            continue
        print(f"{layer:<22} {t:>9.3f} {t / traced_total:>7.1%} "
              f"{p:>11.3f} {p / profiled_total:>7.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
