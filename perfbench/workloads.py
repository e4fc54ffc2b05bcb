"""The benchmark's workloads, each a function of ``(seed, size, work_dir, clock)``.

* ``burst-vllm`` and ``burst-kunserve`` replay the ``burstgpt-14b``
  preset (an open-loop BurstGPT arrival schedule, 90 s of trace plus 90 s
  of drain on 4 single-GPU instances) under vLLM with data parallelism
  and under KunServe.  Same trace, same seed: only the overload policy
  differs.
* ``tier-telemetry`` runs a small grid through the chaos and serve sweep
  commands, inline and sequentially, with span tracing and alerts on:
  two 2-shard chaos cells (elastic fleet, ``cluster-outage``, ``sticky``
  and ``migrate``; open loop) and one closed-loop serve cell (16
  clients, ``backoff`` retries, backpressure on).  It runs cold into a
  throwaway cache directory, then warm out of it.

Each run returns an :class:`Outcome`: simulated counts that must repeat
exactly for a seed, the host time of the simulation proper (as measured by
the :class:`~hostclock.ScaledClock` passed in), and the correctness
problems found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import runpy
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.engine.metrics import MetricsCollector
from repro.experiments.runner import (
    ExperimentScale,
    WORKLOAD_PRESETS,
    build_preset_workload,
    build_system_config,
)
from repro.policies import make_policy
from repro.serving.system import ClusterServingSystem

from hostclock import ScaledClock

#: Input sizes: ``bench`` is what the benchmark measures, ``tiny`` is for
#: smoke tests of the benchmark itself.
BURST_SCALES: Dict[str, ExperimentScale] = {
    "bench": ExperimentScale("perfbench", num_instances=4, trace_duration_s=90.0,
                             drain_timeout_s=90.0),
    "tiny": ExperimentScale("perfbench-tiny", num_instances=2, trace_duration_s=8.0,
                            drain_timeout_s=8.0),
}
BURST_PRESET = "burstgpt-14b"

#: The tier grid's sweep commands; ``tiny`` keeps one chaos cell.
TIER_CHAOS_ARGS: Dict[str, List[str]] = {
    "bench": [
        "--scale", "quick", "--scenarios", "steady-poisson", "--policies", "vllm",
        "--faults", "cluster-outage", "--migrations", "sticky", "migrate",
    ],
    "tiny": [
        "--scale", "quick", "--scenarios", "steady-poisson", "--policies", "vllm",
        "--faults", "cluster-outage", "--migrations", "sticky",
    ],
}
TIER_SERVE_ARGS: List[str] = [
    "--scale", "quick", "--scenarios", "spike-train", "--policies", "vllm",
    "--clients", "16", "--retries", "backoff", "--backpressure", "on",
]
#: Options every tier command gets: one process, both probes on.
TIER_COMMON_ARGS: List[str] = ["--sequential", "--trace", "--alerts"]


@dataclass
class Outcome:
    """One workload run: simulated results, host time, problems found."""

    submitted: int
    finished: int
    shed: int
    output_tokens: int
    ttft_p50: Optional[float]
    ttft_p99: Optional[float]
    ttft_samples: int
    #: host seconds of the simulation proper, plain and scaled.
    wall_s: float
    scaled_s: float = 0.0
    #: digest of everything else the run simulated (tier documents).
    documents: str = ""
    #: host-side figures of the sweep layer (tier only).
    sweeps: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)

    def digest(self) -> str:
        """Hash of the simulated outcome; equal across repeats of a seed."""
        material = {
            "submitted": self.submitted,
            "finished": self.finished,
            "shed": self.shed,
            "output_tokens": self.output_tokens,
            "ttft_p50": self.ttft_p50,
            "ttft_p99": self.ttft_p99,
            "ttft_samples": self.ttft_samples,
            "documents": self.documents,
        }
        text = json.dumps(material, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile; ``None`` on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# burst-vllm / burst-kunserve
# ----------------------------------------------------------------------
def run_burst(
    policy: str, seed: int, size: str = "bench", clock: Optional[ScaledClock] = None
) -> Outcome:
    """Replay the BurstGPT preset on one multi-instance cluster."""
    clock = clock or ScaledClock(sample=False)
    preset = WORKLOAD_PRESETS[BURST_PRESET]
    scale = BURST_SCALES[size]
    workload = build_preset_workload(preset, scale, seed=seed)
    system = ClusterServingSystem(
        build_system_config(preset, scale, seed=seed), make_policy(policy)
    )
    with clock.measure() as measured:
        result = system.run(workload)

    records = result.records
    finished = [r for r in records if r.finished]
    unfinished = len(records) - len(finished)
    ttfts = [r.ttft for r in records if r.ttft is not None]
    problems = []
    if result.submitted_requests != len(workload.requests):
        problems.append(
            f"submitted {result.submitted_requests} != workload {len(workload.requests)}"
        )
    if result.submitted_requests != len(finished) + unfinished:
        problems.append(
            f"submitted {result.submitted_requests} != finished {len(finished)}"
            f" + unfinished {unfinished}"
        )
    if result.finished_requests != len(finished):
        problems.append(
            f"reported finished {result.finished_requests} != records {len(finished)}"
        )
    return Outcome(
        submitted=result.submitted_requests,
        finished=len(finished),
        shed=0,
        output_tokens=sum(r.output_tokens for r in finished),
        ttft_p50=percentile(ttfts, 50),
        ttft_p99=percentile(ttfts, 99),
        ttft_samples=len(ttfts),
        wall_s=measured.wall_s,
        scaled_s=measured.scaled_s,
        problems=problems,
    )


# ----------------------------------------------------------------------
# tier-telemetry
# ----------------------------------------------------------------------
class RecordTally:
    """Counts what every simulated system records, through the collectors'
    public ``record_request``; the sweep documents carry no token counts."""

    def __init__(self) -> None:
        self.finished = 0
        self.output_tokens = 0
        self.ttfts: List[float] = []

    @contextlib.contextmanager
    def installed(self):
        original = MetricsCollector.record_request

        def record_request(collector, request):
            record = original(collector, request)
            if record.finished:
                self.finished += 1
                self.output_tokens += record.output_tokens
            if record.ttft is not None:
                self.ttfts.append(record.ttft)
            return record

        MetricsCollector.record_request = record_request
        try:
            yield self
        finally:
            MetricsCollector.record_request = original


def run_command(module: str, argv: List[str]) -> None:
    """Run ``python -m <module> <argv>`` inline, its table output discarded."""
    saved = sys.argv
    sys.argv = [module, *argv]
    code: Any = 0
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        code = exit_.code
    finally:
        sys.argv = saved
    if code not in (0, None):
        raise RuntimeError(f"python -m {module} {' '.join(argv)} exited with {code}")


def strip_host_fields(document: Dict[str, Any]) -> Dict[str, Any]:
    """The document without host-side accounting (``wall_s*``, cache counts)."""
    def keep(key: str) -> bool:
        return not key.startswith("wall_s") and key not in ("cache_hits", "cache_misses")

    stripped = {k: v for k, v in document.items() if keep(k)}
    stripped["entries"] = [
        {k: v for k, v in entry.items() if keep(k)} for entry in document["entries"]
    ]
    return stripped


def _tier_pass(root: Path, label: str, seed: int, size: str) -> Dict[str, Dict]:
    cache = root / "cache"
    documents = {}
    for module, args in (("repro.chaos", TIER_CHAOS_ARGS[size]),
                         ("repro.serve", TIER_SERVE_ARGS)):
        output = root / f"{label}-{module}.json"
        run_command(module, [
            *args, *TIER_COMMON_ARGS, "--seed", str(seed),
            "--cache-dir", str(cache), "--output", str(output),
        ])
        documents[module] = json.loads(output.read_text())
    return documents


def tier_problems(cold: Dict[str, Dict], warm: Dict[str, Dict], tally: RecordTally) -> List[str]:
    """Conservation per entry, the tally against the documents, and a warm
    pass that is all cache hits and equal to the cold one."""
    problems = []
    finished = 0
    for entry in cold["repro.chaos"]["entries"]:
        parts = [entry[k] for k in ("finished", "shed", "lost_to_fault", "incomplete")]
        if min(parts) < 0 or sum(parts) != entry["requests"]:
            problems.append(f"chaos entry does not conserve requests: {entry['requests']} vs {parts}")
        finished += entry["finished"]
    for entry in cold["repro.serve"]["entries"]:
        parts = [entry[k] for k in ("finished", "shed", "incomplete")]
        if min(parts) < 0 or sum(parts) != entry["submitted"]:
            problems.append(f"serve entry does not conserve requests: {entry['submitted']} vs {parts}")
        finished += entry["finished"]
    if tally.finished != finished:
        problems.append(f"collectors recorded {tally.finished} finished, documents {finished}")
    for module, document in warm.items():
        cells = len(document["entries"])
        if document["cache_hits"] != cells or document["cache_misses"] != 0:
            problems.append(
                f"{module} warm pass served {document['cache_hits']}/{cells} cells from cache"
            )
        if strip_host_fields(document) != strip_host_fields(cold[module]):
            problems.append(f"{module} warm document differs from the cold one")
    return problems


def run_tier(
    seed: int,
    size: str = "bench",
    work_dir: Optional[Path] = None,
    clock: Optional[ScaledClock] = None,
) -> Outcome:
    """Cold then warm pass of the tier grid through a throwaway cache."""
    clock = clock or ScaledClock(sample=False)
    root = Path(tempfile.mkdtemp(prefix="tier-", dir=work_dir))
    try:
        tally = RecordTally()
        with tally.installed(), clock.measure() as cold_pass:
            cold = _tier_pass(root, "cold", seed, size)
        with clock.measure() as warm_pass:
            warm = _tier_pass(root, "warm", seed, size)
    finally:
        shutil.rmtree(root, ignore_errors=True)

    entries = cold["repro.chaos"]["entries"] + cold["repro.serve"]["entries"]
    stripped = json.dumps(
        {module: strip_host_fields(doc) for module, doc in cold.items()}, sort_keys=True
    )
    cells = sum(len(doc["entries"]) for doc in warm.values())
    hits = sum(doc["cache_hits"] for doc in warm.values())
    return Outcome(
        submitted=sum(e.get("requests", e.get("submitted", 0)) for e in entries),
        finished=sum(e["finished"] for e in entries),
        shed=sum(e["shed"] for e in entries),
        output_tokens=tally.output_tokens,
        ttft_p50=percentile(tally.ttfts, 50),
        ttft_p99=percentile(tally.ttfts, 99),
        ttft_samples=len(tally.ttfts),
        wall_s=cold_pass.wall_s + warm_pass.wall_s,
        scaled_s=cold_pass.scaled_s + warm_pass.scaled_s,
        documents=hashlib.sha256(stripped.encode()).hexdigest()[:16],
        sweeps={
            "sweeps.cold_s": cold_pass.wall_s,
            "sweeps.warm_s": warm_pass.wall_s,
            "sweeps.cache_hit_ratio": hits / cells if cells else 0.0,
        },
        problems=tier_problems(cold, warm, tally),
    )


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    run: Callable[..., Outcome]


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            "burst-vllm",
            "BurstGPT replay under vLLM: preemption churn puts the scheduler and "
            "latency model first; network and KunServe core idle (control)",
            lambda seed, size="bench", work_dir=None, clock=None: run_burst(
                "vllm", seed, size, clock
            ),
        ),
        WorkloadSpec(
            "burst-kunserve",
            "same trace under KunServe: parameter drop, KV exchange, lookahead "
            "microbatches and restore fire; network fabric joins the scheduler",
            lambda seed, size="bench", work_dir=None, clock=None: run_burst(
                "kunserve", seed, size, clock
            ),
        ),
        WorkloadSpec(
            "tier-telemetry",
            "chaos and closed-loop serve cells with trace and alerts on, cold then "
            "warm cache: fleet, tier, telemetry and sweep layers do the work",
            run_tier,
        ),
    )
}
