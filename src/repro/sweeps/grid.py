"""The sweep grid engine behind every sweep command.

A :class:`Grid` describes one sweep: its document file, its quick/full
scales, the settings every cell shares and its :class:`Axis` list.  An axis
carries its flag, its default, its known-value check and the change it
applies to a cell's :class:`~repro.serving.config.ServingConfig` or
frontend.  Each package (``repro.scenarios``, ``repro.fleet``,
``repro.multicluster``, ``repro.chaos``, ``repro.serve`` and the paper's
figures in ``repro.experiments``) keeps only its grid, in its ``grid``
module, and a ``__main__`` that hands the grid to :func:`main`.  This
module does the rest once:

* checks the axis values (unknown values raise :class:`KeyError`; empty
  axes, repeated values and malformed values raise :class:`ValueError`);
* materialises each cell (:func:`materialise`) and derives the cell's cache
  key from what it materialised: the scenario's workload factory, the
  policy, the whole ``ServingConfig``, the frontend and the scale
  (:func:`cell_task`), so cells with equal keys run once;
* runs a cell on the single-cluster, tier or online system, with the span
  tracer, the in-sweep alerts and the ``--metrics-out`` stream wired here
  (:func:`run_cell`);
* derives each scenario's SLOs, then assembles, validates, strips, writes
  and prints the document (:func:`run_grid`, :func:`validate_document`,
  :func:`strip_wall_clock`, :func:`write_results`, :func:`format_results`);
* builds the command line (:func:`main`).

Every document shares one layout, schema version 1 (keys are only ever
added, except that the scenario document dropped its ``"fleet"`` and
``"multicluster"`` keys, always ``null``, with the options that set them)::

    {
      "schema_version": 1, "repro_version": str, "seed": int,
      "scale": {"name", "num_instances", "trace_duration_s", "drain_timeout_s"},
      <one key per axis>: [value, ...],   # the grid's axes, in order
      <one key per fixed setting>: value,
      "trace": bool,                      # grids with a --trace option
      "alerts": true,                     # only when the alerts probe ran
      "entries": [{<the grid's entry fields, in order>,
                   "stage_breakdown": {...},   # traced cells only
                   "alerts": {...}}, ...],     # alert cells only
      "cache_hits": int, "cache_misses": int, "wall_s_total": float
    }

Each grid module documents its own entry fields.  A cell's SLOs follow the
paper's Figure 13 convention: within one scenario, the best cell's P50
TTFT and TPOT, each scaled by the scenario's ``slo_scale`` (and by each of
the grid's ``slo_factors``, for figure 13's violation curve).

Determinism: cells are seeded independently of execution order, results
are normalised through JSON whether computed or served from the cache, and
the document is assembled in grid order.  So a document is bit-identical
across runs, worker counts and cold vs. warm caches, except for the keys
:func:`strip_wall_clock` removes.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import enum
import itertools
import json
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.chaos.config import fault_schedule_preset
from repro.engine.metrics import nearest_rank
from repro.experiments.runner import ExperimentScale, build_serving_config
from repro.fleet.config import AdmissionConfig, FleetConfig
from repro.multicluster.config import MultiClusterConfig
from repro.policies import make_policy
from repro.scenarios.registry import ScenarioSpec, get_scenario, list_scenarios
from repro.serving.config import ServingConfig
from repro.serving.system import ClusterServingSystem
from repro.sweeps.cache import ResultCache, default_cache_dir
from repro.sweeps.executor import run_tasks
from repro.sweeps.task import SweepTask
from repro.version import __version__
from repro.workloads.slo import baseline_p50, slo_violation_ratio

#: Current schema version of every sweep document.
SCHEMA_VERSION = 1

#: Keys of a document's scale block.
SCALE_KEYS = ("name", "num_instances", "trace_duration_s", "drain_timeout_s")

#: Entry and document keys carrying host-side accounting (wall-clock and
#: cache counts): excluded from determinism checks, so a warm rerun
#: compares equal to the cold run that filled its cache.
WALL_CLOCK_ENTRY_KEYS = ("wall_s",)
WALL_CLOCK_DOCUMENT_KEYS = ("wall_s_total", "cache_hits", "cache_misses")

#: Default location of every result document: the repository root.
REPO_ROOT = Path(__file__).resolve().parents[3]

#: The open-loop frontend: replay the scenario trace on its own schedule.
OPEN_LOOP = "open"

#: Admission settings of the fleet, multicluster and chaos cells (per
#: cluster): tight enough that bounded queues and shedding are exercised
#: under bursts, loose enough that steady cells behave like the plain
#: dispatcher.
SWEEP_ADMISSION = AdmissionConfig(max_queue_depth=512, max_group_waiting=64, ttft_shed_s=60.0)

#: Server-side latency percentiles (seconds) and throughput every cell reports.
SUMMARY_KEYS = (
    "ttft_p50", "ttft_p90", "ttft_p99", "tpot_p50", "tpot_p90", "tpot_p99",
    "throughput_tokens_per_s",
)
#: The entry fields the engine derives per scenario: the SLO factor, the
#: absolute TTFT and TPOT SLOs (factor x the scenario's best-cell P50),
#: the share of requests violating either, and its complement.
SLO_KEYS = ("slo_scale", "ttft_slo_s", "tpot_slo_s", "slo_violation_ratio", "slo_attainment")
#: Fleet and tier counters, reported as integers; the byte counters stay floats.
COUNT_STATS = (
    "admitted", "shed", "queue_peak", "scale_up_events", "scale_down_events",
    "final_groups", "local_routed", "remote_routed", "remote_scale_ups", "rerouted",
    "lost_to_fault", "migrated_sessions", "migration_hits", "displaced",
    "instance_kills", "cluster_outages", "wan_degrades",
)
BYTE_STATS = ("cross_cluster_bytes", "dispatch_bytes", "migration_bytes")
#: What a single-cluster cell reports besides the summary keys, for the
#: paper's figures (see :func:`_cluster_measures`).
CLUSTER_KEYS = (
    "ttft_p999", "mean_ttft", "mean_bubble_fraction", "drops", "restores", "migrations",
    "kv_capacity_first_gb", "kv_capacity_peak_gb", "peak_demand_ratio",
    "memory_exhausted_at_s",
)

#: Probe options a grid may offer, in command-line order.
PROBES = ("metrics_out", "trace", "trace_out", "alerts")


# ----------------------------------------------------------------------
# Cells, settings, axes, grids
# ----------------------------------------------------------------------
@dataclass
class Cell:
    """One materialised grid cell: everything its run depends on.

    ``values`` holds the cell's axis values and the grid's fixed settings,
    keyed by entry field.  ``frontend`` is ``None`` to replay the workload,
    :data:`OPEN_LOOP` to serve it online on its own schedule, or a
    :class:`~repro.serve.config.ClientPopulationConfig` for closed-loop
    clients, who run until ``horizon_s``.
    """

    values: Dict[str, Any]
    spec: ScenarioSpec
    policy: str
    config: ServingConfig
    scale: ExperimentScale
    seed: int
    frontend: Any = None
    horizon_s: Optional[float] = None

    def tune_fleet(self, **changes: Any) -> None:
        """Change fields of the cell's fleet layer (created on first use)."""
        self.config.fleet = dataclasses.replace(self.config.fleet or FleetConfig(), **changes)

    def tune_tier(self, **changes: Any) -> None:
        """Change fields of the cell's multicluster tier (created on first use)."""
        self.config.multicluster = dataclasses.replace(
            self.config.multicluster or MultiClusterConfig(), **changes
        )


#: A setting's or axis' change to a cell: ``apply(cell, value)``.
Apply = Callable[[Cell, Any], None]


def fleet_change(name: str) -> Apply:
    """An :data:`Apply` setting one field of the cell's fleet layer."""
    return lambda cell, value: cell.tune_fleet(**{name: value})


def tier_change(name: str) -> Apply:
    """An :data:`Apply` setting one field of the cell's multicluster tier."""
    return lambda cell, value: cell.tune_tier(**{name: value})


def apply_faults(cell: Cell, name: str) -> None:
    """An :data:`Apply` materialising a fault preset against the cell's topology.

    Deterministic in (preset, scale, seed): strike times scale with the
    trace and the ``churn`` preset samples its hazard process from the
    cell seed.
    """
    tier = cell.config.multicluster
    schedule = fault_schedule_preset(
        name,
        duration_s=cell.scale.trace_duration_s,
        num_clusters=tier.num_clusters if tier is not None else 1,
        instances_per_cluster=cell.scale.num_instances,
        seed=cell.seed,
    )
    cell.config.chaos = schedule if schedule else None


@dataclass(frozen=True)
class Setting:
    """A value every cell of a grid shares, in the document and each entry."""

    name: str
    value: Any
    apply: Apply


@dataclass(frozen=True)
class Axis:
    """One swept dimension of a grid.

    Attributes:
        name: document key, :func:`run_grid` keyword and ``--flag``.
        field: entry key of a cell's value.
        apply: the change a value makes to a cell (``None``: the engine
            reads the value itself, as for the scenario and the policy).
        default: values when none are given; a sequence or a callable
            returning one (read when the grid runs, so registries can grow).
        known: the accepted values; others raise :class:`KeyError`.
        parse: canonicalises one value; raises :class:`ValueError` on a
            malformed one.
        pinned: ``pinned(values)`` gives the one value this axis takes in a
            cell whose earlier values are ``values``, or ``None``.
        by_scenario: when no values are given, ``by_scenario(spec, scale)``
            gives the values each scenario sweeps at the grid's scale.
    """

    name: str
    field: str
    apply: Optional[Apply] = None
    default: Any = ()
    known: Optional[Callable[[], Sequence[Any]]] = None
    parse: Callable[[Any], Any] = str
    pinned: Optional[Callable[[Mapping[str, Any]], Any]] = None
    by_scenario: Optional[Callable[[ScenarioSpec, ExperimentScale], Sequence[Any]]] = None
    metavar: str = "NAME"
    help: str = ""

    def check(self, value: Any) -> Any:
        """The canonical form of ``value``; raises on unknown values."""
        value = self.parse(value)
        if self.known is not None and value not in self.known():
            known = ", ".join(str(v) for v in self.known())
            raise KeyError(f"unknown {self.name} [{value!r}]; known: {known}")
        return value

    def defaults(self) -> List[Any]:
        return list(self.default() if callable(self.default) else self.default)


def _policy_key(name: str) -> str:
    make_policy(name)  # raises KeyError for unknown policies
    return name


#: The two axes every grid starts with.
SCENARIOS = Axis(
    "scenarios", "scenario", known=list_scenarios, default=list_scenarios,
    help="scenarios to sweep",
)
POLICIES = Axis(
    "policies", "policy", parse=_policy_key, default=("vllm",), metavar="POLICY",
    help="overload-policy keys",
)

#: A command's listing option: ``(flag, what it lists, lines to print)``.
Listing = Tuple[str, str, Callable[[], Iterable[str]]]


def _no_change(cell: Cell) -> None:
    pass


@dataclass(frozen=True)
class Grid:
    """One sweep command's grid (see the module docstring).

    Attributes:
        name: the package, so the command is ``python -m repro.<name>``.
        document: the result document's file name.
        description: the command's ``--help`` summary.
        scales: ``quick``/``full`` cell sizes (:func:`sweep_scales`).
        axes: swept axes, scenario and policy first.
        entry_fields: the keys of each entry, in order.
        fixed: settings every cell shares, applied before the axes.
        base: changes every cell gets first, kept out of the document.
        probes: the subset of :data:`PROBES` the command offers.
        replay: index of the cell ``--metrics-out``/``--trace-out`` replay.
        listings: the command's ``--list*`` options.
        columns: the printed table, ``(entry field, heading, format)``.
        scenario: resolves a scenario name (default: the registry; a grid
            with scenarios of its own resolves them itself).
        slo_factors: SLO factors at which each entry also reports its
            violation ratio, as ``slo_violation_x<factor>``.
    """

    name: str
    document: str
    description: str
    scales: Mapping[str, ExperimentScale]
    axes: Tuple[Axis, ...]
    entry_fields: Tuple[str, ...]
    fixed: Tuple[Setting, ...] = ()
    base: Callable[[Cell], None] = _no_change
    probes: Tuple[str, ...] = ()
    replay: int = 0
    listings: Tuple[Listing, ...] = ()
    columns: Tuple[Tuple[str, str, str], ...] = ()
    scenario: Callable[[str], ScenarioSpec] = get_scenario
    slo_factors: Tuple[int, ...] = ()


def sweep_scales(name: str, *, quick_drain_s: float = 30.0, full_drain_s: float = 90.0):
    """A grid's two scales: 2 instances and 30 s of trace, or 4 and 90 s."""
    return {
        "quick": ExperimentScale(f"{name}-quick", 2, 30.0, quick_drain_s),
        "full": ExperimentScale(f"{name}-full", 4, 90.0, full_drain_s),
    }


# ----------------------------------------------------------------------
# Materialising cells
# ----------------------------------------------------------------------
def build_cell_config(spec: ScenarioSpec, scale: ExperimentScale, *, seed: int = 42) -> ServingConfig:
    """ServingConfig for one scenario at one scale."""
    return build_serving_config(
        spec.model, spec.gpus_per_instance, spec.token_budget, scale, seed=seed
    )


def tier_workload_scale(scale: ExperimentScale, num_clusters: int) -> ExperimentScale:
    """The tier's workload sizing: ``scale.num_instances`` sizes one shard
    and the workload is generated for all of them, so offered load tracks
    total capacity and cluster counts compare shardings of one deployment."""
    return dataclasses.replace(
        scale,
        name=f"{scale.name}-x{num_clusters}",
        num_instances=scale.num_instances * num_clusters,
    )


def materialise(
    grid: Grid, values: Mapping[str, Any], scale: ExperimentScale, seed: int = 42
) -> Cell:
    """Check one cell's values (keyed by entry field) and build the cell."""
    checked: Dict[str, Any] = {}
    for axis in grid.axes:
        checked[axis.field] = axis.check(values[axis.field])
        pin = axis.pinned(checked) if axis.pinned is not None else None
        if pin is not None and checked[axis.field] != pin:
            raise ValueError(
                f"{axis.field} {checked[axis.field]!r} does not apply to this cell, "
                f"which takes {pin!r}"
            )
    spec = grid.scenario(checked["scenario"])
    cell = Cell(
        values={**checked, **{setting.name: setting.value for setting in grid.fixed}},
        spec=spec,
        policy=checked["policy"],
        config=build_cell_config(spec, scale, seed=seed),
        scale=scale,
        seed=seed,
    )
    grid.base(cell)
    for setting in grid.fixed:
        setting.apply(cell, setting.value)
    for axis in grid.axes:
        if axis.apply is not None:
            axis.apply(cell, checked[axis.field])
    return cell


def _checked(axis: Axis, given: Sequence[Any]) -> List[Any]:
    """``given`` checked value by value; empty or repeating lists raise."""
    values = [axis.check(value) for value in given]
    if not values:
        raise ValueError(f"the {axis.name} axis needs at least one value")
    repeated = [value for index, value in enumerate(values) if value in values[:index]]
    if repeated:
        raise ValueError(f"repeated {axis.name} values {repeated}: each cell would run twice")
    return values


def _axis_values(axis: Axis, given: Any) -> Any:
    """An axis' checked values, or ``None`` for a per-scenario axis left
    to its scenarios."""
    if given is None:
        if axis.by_scenario is not None:
            return None
        given = axis.defaults()
    return _checked(axis, given)


def grid_cells(
    grid: Grid, scale: ExperimentScale, seed: int = 42, **given: Any
) -> Tuple[Dict[str, Any], List[Cell]]:
    """The checked axis values and the materialised cells, in grid order.

    ``given`` maps axis names to values; an axis left out takes its
    default.
    """
    unknown = sorted(set(given) - {axis.name for axis in grid.axes})
    if unknown:
        raise TypeError(f"the {grid.name} grid has no axes {unknown}")
    chosen = {axis.name: _axis_values(axis, given.get(axis.name)) for axis in grid.axes}
    combos: List[Dict[str, Any]] = [{}]
    for axis in grid.axes:
        expanded = []
        for combo in combos:
            values = chosen[axis.name]
            if values is None:
                spec = grid.scenario(combo["scenario"])
                values = _checked(axis, axis.by_scenario(spec, scale))
            pin = axis.pinned(combo) if axis.pinned is not None else None
            if pin is not None:
                values = [pin]
            expanded.extend({**combo, axis.field: value} for value in values)
        combos = expanded
    return chosen, [materialise(grid, combo, scale, seed) for combo in combos]


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


def spec_fingerprint(spec: ScenarioSpec) -> Dict[str, Any]:
    """JSON-able fingerprint of what a scenario adds to its cells' config:
    its workload factory's import path.

    The name is left out: two scenarios with one factory run the same cell
    under the same policy, config and scale.  The model and the serving
    knobs are in the cell's ``ServingConfig``; the SLO factor enters only
    when the document is assembled; and code changes inside a factory are
    covered by the package source fingerprint every task hash carries
    (:func:`repro.sweeps.task.source_fingerprint`).
    """
    factory = spec.workload_factory
    return {
        "factory": f"{getattr(factory, '__module__', '?')}:"
        f"{getattr(factory, '__qualname__', repr(factory))}",
    }


def _system_kind(cell: Cell) -> str:
    """The cell's label in its cache entry.  The config and frontend
    already determine it, so it adds nothing to the hash; ``python -m
    repro.obs profile`` groups cells by it, totalling cost per kind and
    comparing a cell's events/s only with cells of its kind."""
    if cell.frontend is not None:
        return "online"
    return "tier" if cell.config.multicluster is not None else "cluster"


def cell_task(cell: Cell, *, trace: bool = False, alerts: bool = False) -> SweepTask:
    """One cell as a cacheable sweep task, keyed by what it materialised.

    The trace and alerts probes key only the cells that use them, so a
    plain cell's entry is the same with or without the probes existing.
    """
    key: Dict[str, Any] = {
        "kind": f"{_system_kind(cell)}-cell",
        "scenario": spec_fingerprint(cell.spec),
        "policy": cell.policy,
        "config": _jsonable(cell.config),
        "frontend": _jsonable(cell.frontend),
        "horizon_s": cell.horizon_s,
        "scale": _jsonable(cell.scale),
    }
    if trace:
        key["trace"] = trace
    if alerts:
        key["alerts"] = True
    return SweepTask(
        runner="repro.sweeps.grid:run_task",
        params={"cell": cell, "trace": trace, "alerts": alerts},
        key=key,
        seed=cell.seed,
        label="/".join(str(value) for value in cell.values.values()),
    )


# ----------------------------------------------------------------------
# Running cells
# ----------------------------------------------------------------------
def run_cell(
    cell: Cell,
    *,
    trace: bool = False,
    alerts: bool = False,
    metrics_out: Optional[Path] = None,
    on_tracer: Optional[Callable[[Any], None]] = None,
) -> Dict[str, Any]:
    """Run one cell; returns its measurements as a JSON-able dict.

    The cell runs on the tier when its config has a ``multicluster``
    section, online when it has a frontend, and on one cluster otherwise.
    Besides the entry fields it derives, the dict keeps the run's whole
    ``summary`` and, for fleet and tier cells, the whole ``stats``; entries
    read only their own fields, so neither block reaches a document.
    ``trace=True`` attaches a span tracer and adds a ``stage_breakdown``.
    ``on_tracer`` receives the tracer as it attaches; without it nothing
    can export the spans, so the tracer records no detail spans.
    ``alerts=True`` evaluates the default alert rules over the monitor's
    typed series into an ``alerts`` block.  ``metrics_out`` streams the
    scrapes (with the stage histogram when tracing, and the client series
    for closed-loop clients) to a file and reports their count as
    ``scrapes``.
    """
    tier = cell.config.multicluster
    workload_scale = tier_workload_scale(cell.scale, tier.num_clusters) if tier else cell.scale
    workload = cell.spec.build_workload(workload_scale, cell.seed)
    start = time.perf_counter()
    if tier is not None:
        from repro.multicluster.system import MultiClusterSystem

        system = MultiClusterSystem(cell.config, lambda: make_policy(cell.policy))
        initial_groups = system.initial_group_count()
    else:
        system = ClusterServingSystem(cell.config, make_policy(cell.policy))
        initial_groups = len(system.groups)
    tracer = None
    if trace:
        tracer = system.attach_tracer(details=on_tracer is not None)
        if on_tracer is not None:
            on_tracer(tracer)
    frontend = None
    if cell.frontend == OPEN_LOOP:
        from repro.serve.gateway import OnlineGateway
        from repro.serve.sources import workload_arrivals

        frontend = OnlineGateway(system, workload_arrivals(workload))
    elif cell.frontend is not None:
        from repro.serve.clients import ClosedLoopPopulation

        frontend = ClosedLoopPopulation(system, workload, cell.frontend, seed=cell.seed)
    if alerts or metrics_out is not None:
        from repro.metrics import client_metrics_source, trace_metrics_source

        monitor = system.attach_metrics(path=metrics_out)
        if metrics_out is not None and tracer is not None:
            monitor.add_source(trace_metrics_source(tracer))
        if frontend is not None and cell.frontend != OPEN_LOOP:
            monitor.add_source(client_metrics_source(frontend))
    if frontend is None:
        result = system.run(workload)
    else:
        result = system.run_online([frontend], until=cell.horizon_s, workload_name=workload.name)
    wall_s = time.perf_counter() - start

    config = cell.config
    measured: Dict[str, Any] = {
        "policy_name": result.system_name,
        "workload": workload.name,
        "requests": result.submitted_requests,
        "finished": result.finished_requests,
        "completion_ratio": result.completion_ratio,
        "initial_groups": initial_groups,
        "fault_events": len(config.chaos.events) if config.chaos else 0,
        **{key: result.summary[key] for key in SUMMARY_KEYS},
        "summary": result.summary,
    }
    stats = system.stats() if tier else system.fleet.stats() if system.fleet else None
    if stats is not None:
        measured["stats"] = stats
        measured.update({key: int(stats[key]) for key in COUNT_STATS if key in stats})
        measured.update({key: stats[key] for key in BYTE_STATS if key in stats})
        measured["incomplete"] = (
            measured["requests"] - measured["finished"] - measured["shed"]
            - measured.get("lost_to_fault", 0)
        )
    if tier is not None:
        requests = measured["requests"]
        measured["cross_cluster_ratio"] = stats["remote_routed"] / requests if requests else 0.0
        measured["recovery_transient_s"] = system.recovery_transient_s(result.records)
    if tier is None:
        measured.update(_cluster_measures(result))
    latencies = tuple((r.ttft, r.mean_tpot) for r in result.records)
    if frontend is not None:
        latencies = _measure_clients(cell, result, frontend, measured, latencies)
    measured["latencies"] = latencies
    measured["wall_s"] = wall_s
    if tracer is not None:
        from repro.trace import LatencyAttribution

        measured["stage_breakdown"] = LatencyAttribution.from_tracer(tracer).stage_breakdown()
    if alerts:
        from repro.obs import AlertEngine, alerts_block

        engine = AlertEngine()
        measured["alerts"] = alerts_block(engine.evaluate(monitor.series), engine.rules)
    if metrics_out is not None:
        measured["scrapes"] = monitor.scrapes
    return measured


def _cluster_measures(result) -> Dict[str, Any]:
    """The :data:`CLUSTER_KEYS` of a single-cluster run.

    From the monitor's KV memory samples: the first and peak capacity,
    the peak demand over the first capacity (0 without one), and the
    first sample whose used memory reaches 98 % of its capacity (``None``:
    never).  Migrations count every request move between groups.
    """
    metrics = result.metrics
    ttfts = metrics.ttft_values()
    capacity = metrics.memory_capacity.points()
    first_capacity = capacity[0].value if capacity else 0.0
    capacity_at = {point.time: point.value for point in capacity}
    exhausted_at = next(
        (p.time for p in metrics.memory_used.points()
         if capacity_at.get(p.time, 0.0) > 0 and p.value >= 0.98 * capacity_at[p.time]),
        None,
    )
    kinds = [event["kind"] for event in metrics.events]
    return {
        "ttft_p999": result.summary["ttft_p999"],
        "mean_ttft": sum(ttfts) / max(1, len(ttfts)),
        "mean_bubble_fraction": result.summary["mean_bubble_fraction"],
        "drops": kinds.count("drop"),
        "restores": kinds.count("restore_end"),
        "migrations": sum(record.migration_count for record in result.records),
        "kv_capacity_first_gb": first_capacity / 1e9,
        "kv_capacity_peak_gb": metrics.memory_capacity.max() / 1e9,
        "peak_demand_ratio": (
            metrics.memory_demand.max() / first_capacity if first_capacity > 0 else 0.0
        ),
        "memory_exhausted_at_s": exhausted_at,
    }


def _measure_clients(cell: Cell, result, frontend, measured: Dict[str, Any], latencies) -> Tuple:
    """Add what the clients of an online cell saw, and return the latency
    pairs its SLOs use: one ``(client_ttft, mean_tpot)`` pair per intent
    for closed-loop clients, the per-request ``latencies`` when the loop
    is open."""
    submitted, finished, shed = result.submitted_requests, result.finished_requests, measured["shed"]
    if cell.frontend == OPEN_LOOP:
        # One attempt per intent; every shed is abandoned on the spot
        # (nobody is there to retry it).
        counts = {
            "offered": submitted, "issued": submitted, "retries": 0, "retry_pending": 0,
            "gave_up": shed, "client_incomplete": submitted - finished - shed,
        }
        e2es = [r.e2e_latency for r in result.records if r.e2e_latency is not None]
    else:
        stats = frontend.stats()
        counts = {
            key: stats[key]
            for key in ("offered", "issued", "retries", "retry_pending", "gave_up", "client_incomplete")
        }
        latencies = frontend.client_latency_pairs()
        e2es = list(frontend.client_e2e_latencies())
    ttfts = [ttft for ttft, _ in latencies if ttft is not None]
    measured.update(
        mode=OPEN_LOOP if cell.frontend == OPEN_LOOP else "closed",
        horizon_s=cell.horizon_s,
        submitted=submitted,
        **counts,
        goodput_per_submitted=finished / submitted if submitted else 1.0,
        client_ttft_p50=nearest_rank(ttfts, 50),
        client_ttft_p90=nearest_rank(ttfts, 90),
        client_ttft_p99=nearest_rank(ttfts, 99),
        client_e2e_p50=nearest_rank(e2es, 50),
    )
    return latencies


def run_task(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Sweep-engine runner of :func:`cell_task` tasks."""
    return run_cell(params["cell"], trace=params["trace"], alerts=params["alerts"])


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
def _entries(grid: Grid, cells: Sequence[Cell], payloads: Sequence[Dict]) -> List[Dict]:
    """Entries in grid order, with SLOs derived per scenario."""
    entries = []
    pairs = zip(cells, payloads)
    for _, group in itertools.groupby(pairs, key=lambda pair: pair[0].spec.name):
        group = list(group)
        slo_scale = group[0][0].spec.slo_scale
        best_ttft, best_tpot = baseline_p50([payload["latencies"] for _, payload in group])
        slo = {
            "slo_scale": slo_scale,
            "ttft_slo_s": slo_scale * best_ttft,
            "tpot_slo_s": slo_scale * best_tpot,
        }
        for cell, payload in group:
            latencies = payload["latencies"]
            violation = slo_violation_ratio(
                latencies, ttft_slo_s=slo["ttft_slo_s"], tpot_slo_s=slo["tpot_slo_s"]
            )
            curve = {
                f"slo_violation_x{factor:g}": slo_violation_ratio(
                    latencies, ttft_slo_s=factor * best_ttft, tpot_slo_s=factor * best_tpot
                )
                for factor in grid.slo_factors
            }
            values = {
                **payload, **cell.values, **slo, **curve,
                "slo_violation_ratio": violation, "slo_attainment": 1.0 - violation,
            }
            entry = {key: values[key] for key in grid.entry_fields}
            for block in ("stage_breakdown", "alerts"):
                if payload.get(block):
                    entry[block] = payload[block]
            entries.append(entry)
    return entries


def run_grid(
    grid: Grid,
    *,
    scale: Optional[ExperimentScale] = None,
    seed: int = 42,
    max_workers: Optional[int] = None,
    use_cache: bool = False,
    cache_dir: Optional[Path] = None,
    trace: bool = False,
    alerts: bool = False,
    **axes: Any,
) -> Dict:
    """Sweep a grid; returns its result document.

    Args:
        grid: the grid to sweep.
        scale: cell size (default: the grid's ``quick`` scale).
        seed: sweep seed; every cell derives its randomness from it.
        max_workers: worker processes; ``1`` runs cells inline, ``None``
            sizes the pool to the grid (capped by the CPUs this process
            may use).
        use_cache: serve unchanged cells from the on-disk result cache and
            store fresh ones (the commands enable it by default; the Python
            API does not, so tests measure real execution unless they opt in).
        cache_dir: cache location (default ``.repro_cache/`` at the
            repository root, or ``$REPRO_CACHE_DIR``).
        trace: trace every cell and add its ``stage_breakdown``.
        alerts: add every cell's ``alerts`` timeline.
        axes: values per axis name; an axis left out takes its default.
    """
    for probe, on in (("trace", trace), ("alerts", alerts)):
        if on and probe not in grid.probes:
            raise ValueError(f"the {grid.name} grid has no {probe} probe")
    scale = scale or grid.scales["quick"]
    chosen, cells = grid_cells(grid, scale, seed, **axes)
    tasks = [cell_task(cell, trace=trace, alerts=alerts) for cell in cells]
    start = time.perf_counter()
    outcome = run_tasks(
        tasks, max_workers=max_workers, cache=ResultCache(cache_dir) if use_cache else None
    )
    wall_s_total = time.perf_counter() - start

    document: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "repro_version": __version__,
        "seed": seed,
        "scale": {key: getattr(scale, key) for key in SCALE_KEYS},
    }
    for axis in grid.axes:
        values = chosen[axis.name]
        if values is None:
            values = list(dict.fromkeys(cell.values[axis.field] for cell in cells))
        document[axis.name] = values
    document.update({setting.name: setting.value for setting in grid.fixed})
    if "trace" in grid.probes:
        document["trace"] = bool(trace)
    if alerts:
        document["alerts"] = True
    document["entries"] = _entries(grid, cells, outcome.results)
    document["cache_hits"] = outcome.cache_hits
    document["cache_misses"] = outcome.cache_misses
    document["wall_s_total"] = wall_s_total
    return document


def document_keys(grid: Grid) -> Tuple[str, ...]:
    """The top-level keys every document of ``grid`` must carry."""
    return (
        "schema_version", "repro_version", "seed", "scale",
        *(axis.name for axis in grid.axes),
        *(setting.name for setting in grid.fixed),
        "entries", "wall_s_total",
    )


def validate_document(grid: Grid, document: Dict) -> List[str]:
    """Schema violations of a document (empty when it is valid)."""
    problems = [f"missing top-level key {key!r}" for key in document_keys(grid) if key not in document]
    if document.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"schema_version is {document.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    scale = document.get("scale", {})
    problems.extend(f"missing scale key {key!r}" for key in SCALE_KEYS if key not in scale)
    for axis in grid.axes:
        if axis.name in document and not isinstance(document[axis.name], list):
            problems.append(f"{axis.name} must be a list")
    entries = document.get("entries", [])
    if not isinstance(entries, list):
        return problems + ["entries must be a list"]
    for index, entry in enumerate(entries):
        problems.extend(
            f"entry {index} missing {key!r}" for key in grid.entry_fields if key not in entry
        )
    return problems


def strip_wall_clock(document: Dict) -> Dict:
    """A deep copy of ``document`` without its host-side accounting keys.

    Two sweeps of the same grid and seed must compare equal after this.
    """
    stripped = copy.deepcopy(document)
    for key in WALL_CLOCK_DOCUMENT_KEYS:
        stripped.pop(key, None)
    for entry in stripped.get("entries", []):
        for key in WALL_CLOCK_ENTRY_KEYS:
            entry.pop(key, None)
    return stripped


def write_results(grid: Grid, document: Dict, path: Optional[Path] = None) -> Path:
    """Write a document (default: the grid's file at the repository root)."""
    target = Path(path) if path is not None else REPO_ROOT / grid.document
    target.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return target


def format_results(grid: Grid, document: Dict) -> str:
    """Human-readable table of a document."""
    scale = document["scale"]
    lines = [
        f"repro {document['repro_version']} · scale {scale['name']} "
        f"({scale['num_instances']} instances, {scale['trace_duration_s']:.0f}s trace) "
        f"· seed {document['seed']} · {len(document['entries'])} cells "
        f"in {document['wall_s_total']:.1f}s"
    ]
    widths = [re.sub(r"(\.\d+)?[a-z%]$", "", spec) for _, _, spec in grid.columns]
    lines.append(" ".join(f"{heading:{width}}" for (_, heading, _), width in zip(grid.columns, widths)))
    for entry in document["entries"]:
        lines.append(" ".join(
            format("-", width) if entry[key] is None else format(entry[key], spec)
            for (key, _, spec), width in zip(grid.columns, widths)
        ))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _parser(grid: Grid) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.{grid.name}", description=grid.description
    )
    parser.add_argument(
        "--scale", choices=sorted(grid.scales), default="quick",
        help="sweep scale (default: quick)",
    )
    for axis in grid.axes:
        if axis.by_scenario is not None:
            default = "each scenario's own set"
        elif callable(axis.default):
            default = "all registered"
        else:
            default = " ".join(str(value) for value in axis.default)
        parser.add_argument(
            f"--{axis.name.replace('_', '-')}", nargs="*",
            default=None, metavar=axis.metavar, help=f"{axis.help} (default: {default})",
        )
    parser.add_argument("--seed", type=int, default=42, help="sweep seed")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes (default: min(grid size, CPU count))",
    )
    parser.add_argument(
        "--sequential", action="store_true",
        help="run every cell inline in this process (equivalent to --workers 1)",
    )
    parser.add_argument(
        "--output", default=None,
        help=f"where to write {grid.document} (default: repository root)",
    )
    replayed = "last" if grid.replay == -1 else "first"
    probe_help = {
        "metrics_out": f"additionally replay the {replayed} grid cell inline, streaming "
        "live Prometheus text scrapes to FILE",
        "trace": "attach a per-request span tracer to every cell and add a "
        "stage_breakdown block (per-stage latency attribution) to each entry"
        + ("; with --metrics-out, also streams the stage-duration histogram"
           if "metrics_out" in grid.probes else ""),
        "trace_out": f"additionally replay the {replayed} grid cell inline with "
        "tracing on and write its Chrome trace-event JSON to FILE",
        "alerts": "replay the default alert-rule pack (repro.obs) over every cell's "
        "metric stream and add an alerts block (firing/resolved timeline) to each entry",
    }
    for probe in PROBES:
        if probe in grid.probes:
            flag = f"--{probe.replace('_', '-')}"
            if probe.endswith("_out"):
                parser.add_argument(flag, default=None, metavar="FILE", help=probe_help[probe])
            else:
                parser.add_argument(flag, action="store_true", help=probe_help[probe])
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell instead of serving unchanged cells from the "
        "on-disk result cache",
    )
    parser.add_argument(
        "--cache-stats", action="store_true", help="print cache hit/miss counts after the sweep"
    )
    parser.add_argument("--clear-cache", action="store_true", help="purge the result cache and exit")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: .repro_cache/ at the repository root, "
        "or $REPRO_CACHE_DIR)",
    )
    for flag, what, _ in grid.listings:
        parser.add_argument(flag, action="store_true", help=f"list {what} and exit")
    return parser


def main(grid: Grid, argv: Optional[Sequence[str]] = None) -> int:
    """The grid's command: ``python -m repro.<grid.name>``."""
    args = _parser(grid).parse_args(argv)
    for flag, _, lines in grid.listings:
        if getattr(args, flag.lstrip("-").replace("-", "_")):
            for line in lines():
                print(line)
            return 0
    if args.clear_cache:
        cache = ResultCache(args.cache_dir)
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    scale = grid.scales[args.scale]
    axes = {axis.name: getattr(args, axis.name) for axis in grid.axes}
    probes = {probe: getattr(args, probe) for probe in ("trace", "alerts") if probe in grid.probes}
    try:
        document = run_grid(
            grid,
            scale=scale,
            seed=args.seed,
            max_workers=1 if args.sequential else args.workers,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            **probes,
            **axes,
        )
    except (KeyError, ValueError) as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    problems = validate_document(grid, document)
    if problems:
        print("schema violations:", *problems, sep="\n  ", file=sys.stderr)
        return 1
    path = write_results(grid, document, args.output)
    print(format_results(grid, document))
    if args.cache_stats:
        cells = document["cache_hits"] + document["cache_misses"]
        print(
            f"cache: {document['cache_hits']}/{cells} cells served from "
            f"{args.cache_dir or default_cache_dir()}"
            + (" (caching disabled)" if args.no_cache else "")
        )
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if metrics_out or trace_out:
        cell = grid_cells(grid, scale, args.seed, **axes)[1][grid.replay]
        if metrics_out:
            measured = run_cell(cell, trace=probes.get("trace", False), metrics_out=Path(metrics_out))
            print(f"streamed {measured['scrapes']} metric scrapes to {metrics_out}")
        if trace_out:
            from repro.trace import write_chrome_trace

            tracers: List[Any] = []
            run_cell(cell, trace=True, on_tracer=tracers.append)
            spans = tracers[0].spans()
            write_chrome_trace(spans, Path(trace_out))
            print(f"wrote Chrome trace ({len(spans)} spans) to {trace_out}")
    print(f"\nwrote {path}")
    return 0
