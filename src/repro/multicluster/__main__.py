"""CLI entry point: ``python -m repro.multicluster``.

Sweeps scenarios across cluster counts × global routers × placement
policies (the fleet-of-fleets grid) through the unified sweep engine
(:mod:`repro.sweeps`) and writes ``MULTICLUSTER_results.json`` to the
repository root (see ``--output``).  Unchanged cells are served from the
on-disk result cache (``.repro_cache/``); disable with ``--no-cache``,
inspect with ``--cache-stats``, purge with ``--clear-cache``.
``--list-routers`` / ``--list-placements`` show the registries.
"""

from __future__ import annotations

import argparse
import sys

from repro.multicluster.placement import list_placements
from repro.multicluster.routing import list_global_routers
from repro.multicluster.schema import validate_document
from repro.multicluster.sweep import (
    DEFAULT_CLUSTER_COUNTS,
    DEFAULT_POLICIES,
    DEFAULT_SCENARIOS,
    MULTICLUSTER_SCALES,
    format_results,
    run_multicluster_sweep,
    stream_cell_metrics,
    write_results,
)
from repro.policies import make_policy
from repro.scenarios.registry import list_scenarios
from repro.sweeps import effective_worker_count
from repro.sweeps.cli import add_cache_arguments, clear_cache, print_cache_stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.multicluster",
        description="Sweep scenarios across cluster counts, global routers and "
        "placement policies in parallel and write MULTICLUSTER_results.json.",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(MULTICLUSTER_SCALES),
        default="quick",
        help="sweep scale, instances per cluster (default: quick)",
    )
    parser.add_argument(
        "--scenarios",
        nargs="*",
        default=None,
        metavar="NAME",
        help=f"scenarios to sweep (default: {' '.join(DEFAULT_SCENARIOS)})",
    )
    parser.add_argument(
        "--policies",
        nargs="*",
        default=None,
        metavar="POLICY",
        help=f"overload-policy keys (default: {' '.join(DEFAULT_POLICIES)})",
    )
    parser.add_argument(
        "--cluster-counts",
        nargs="*",
        type=int,
        default=None,
        metavar="N",
        help="cluster shard counts (default: "
        f"{' '.join(str(c) for c in DEFAULT_CLUSTER_COUNTS)})",
    )
    parser.add_argument(
        "--routers",
        nargs="*",
        default=None,
        metavar="ROUTER",
        help="global router strategies (default: all registered)",
    )
    parser.add_argument(
        "--placements",
        nargs="*",
        default=None,
        metavar="POLICY",
        help="placement policies (default: all registered)",
    )
    parser.add_argument("--seed", type=int, default=42, help="sweep seed")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: min(grid size, CPU count))",
    )
    parser.add_argument(
        "--sequential",
        action="store_true",
        help="run every cell inline in this process (equivalent to --workers 1)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write MULTICLUSTER_results.json (default: repository root)",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="additionally replay the first grid cell inline, streaming live "
        "Prometheus text scrapes (per-shard + tier series) to FILE",
    )
    add_cache_arguments(parser)
    parser.add_argument(
        "--list-routers",
        action="store_true",
        help="list global router strategies and exit",
    )
    parser.add_argument(
        "--list-placements",
        action="store_true",
        help="list placement policies and exit",
    )
    args = parser.parse_args(argv)

    if args.list_routers:
        for name in list_global_routers():
            print(name)
        return 0
    if args.list_placements:
        for name in list_placements():
            print(name)
        return 0
    if args.clear_cache:
        return clear_cache(args)

    try:
        for policy in args.policies or ():
            make_policy(policy)  # fail fast on typos before spawning workers
        max_workers = 1 if args.sequential else args.workers
        if max_workers is None:
            names = args.scenarios or list(DEFAULT_SCENARIOS)
            grid = (
                len([n for n in names if n in list_scenarios()])
                * len(args.policies or DEFAULT_POLICIES)
                * len(
                    args.cluster_counts
                    if args.cluster_counts is not None
                    else DEFAULT_CLUSTER_COUNTS
                )
                * len(args.routers if args.routers is not None else list_global_routers())
                * len(
                    args.placements
                    if args.placements is not None
                    else list_placements()
                )
            )
            max_workers = max(1, min(grid, effective_worker_count()))
        document = run_multicluster_sweep(
            scenarios=args.scenarios,
            policies=args.policies,
            cluster_counts=args.cluster_counts,
            routers=args.routers,
            placements=args.placements,
            scale=MULTICLUSTER_SCALES[args.scale],
            seed=args.seed,
            max_workers=max_workers,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
        )
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    problems = validate_document(document)
    if problems:
        print("schema violations:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    path = write_results(document, args.output)
    print(format_results(document))
    if args.cache_stats:
        print_cache_stats(document, args)
    if args.metrics_out:
        from pathlib import Path

        scrapes = stream_cell_metrics(
            (args.scenarios or list(DEFAULT_SCENARIOS))[0],
            (args.policies or list(DEFAULT_POLICIES))[0],
            (
                args.cluster_counts
                if args.cluster_counts is not None
                else list(DEFAULT_CLUSTER_COUNTS)
            )[0],
            (args.routers if args.routers is not None else list_global_routers())[0],
            (args.placements if args.placements is not None else list_placements())[0],
            MULTICLUSTER_SCALES[args.scale],
            args.seed,
            Path(args.metrics_out),
        )
        print(f"streamed {scrapes} metric scrapes to {args.metrics_out}")
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
