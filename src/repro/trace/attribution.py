"""Latency attribution: fold stage spans into per-stage time decomposition.

:class:`LatencyAttribution` consumes spans (from a live
:class:`~repro.trace.tracer.Tracer` or a spans JSONL file) and answers
"which stage ate the time": per finished request a ``{stage: seconds}``
decomposition whose TTFT stages sum to the recorded TTFT and whose full
sum is the recorded E2E latency, and per population the aggregated
p50/p90/p99 per stage — the ``stage_breakdown`` block the serve and chaos
sweeps embed when run with ``--trace``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List

from repro.engine.metrics import nearest_rank
from repro.trace.spans import STAGE_DECODE, STAGE_ORDER, TTFT_STAGES, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.tracer import Tracer


class LatencyAttribution:
    """Per-stage time decomposition over a set of spans."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self._roots: Dict[int, Span] = {}
        self._stages: Dict[int, List[Span]] = {}
        for span in spans:
            if span.kind == "root":
                self._roots[span.request_id] = span
            elif span.kind == "stage":
                self._stages.setdefault(span.request_id, []).append(span)

    @classmethod
    def from_tracer(cls, tracer: "Tracer") -> "LatencyAttribution":
        # Detail spans are never read here: leave them out of the sort.
        return cls(tracer.request_spans())

    @classmethod
    def from_jsonl(cls, path) -> "LatencyAttribution":
        from repro.trace.export import read_spans_jsonl

        return cls(read_spans_jsonl(path))

    # ------------------------------------------------------------------
    # Per-request decomposition
    # ------------------------------------------------------------------
    def finished_request_ids(self) -> List[int]:
        return sorted(
            rid
            for rid, root in self._roots.items()
            if root.meta.get("status") == "finished"
        )

    def per_request(self) -> Dict[int, Dict[str, float]]:
        """``{request_id: {stage: seconds, "ttft_s": ..., "e2e_s": ...}}``.

        Stage keys follow :data:`repro.trace.spans.STAGE_ORDER`; stages a
        request never entered are absent.  ``ttft_s`` / ``e2e_s`` are the
        *recorded* request latencies carried on the root span, which the
        stage sums reconcile against.
        """
        decomposition: Dict[int, Dict[str, float]] = {}
        for rid in self.finished_request_ids():
            root = self._roots[rid]
            stages: Dict[str, float] = {}
            for span in self._stages.get(rid, ()):
                stages[span.name] = stages.get(span.name, 0.0) + (span.end_s - span.start_s)
            entry = {name: stages[name] for name in STAGE_ORDER if name in stages}
            entry.update(
                {name: value for name, value in stages.items() if name not in STAGE_ORDER}
            )
            entry["ttft_s"] = float(root.meta.get("ttft_s", 0.0))
            entry["e2e_s"] = float(root.meta.get("e2e_s", 0.0))
            decomposition[rid] = entry
        return decomposition

    def reconcile(self, *, rel_tol: float = 1e-9, abs_tol: float = 1e-6) -> List[str]:
        """Check stage sums against recorded TTFT / E2E per finished request.

        Returns human-readable problems; empty means every finished request
        reconciles (the tentpole acceptance criterion).
        """
        return _reconcile(self.per_request(), rel_tol, abs_tol)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Per-stage ``{count, total_s, mean_s, p50_s, p90_s, p99_s}``."""
        return _aggregate(self.per_request())

    def stage_breakdown(self) -> Dict:
        """The JSON block embedded in traced sweep entries."""
        per_request = self.per_request()
        ttft_values = [entry["ttft_s"] for entry in per_request.values()]
        e2e_values = [entry["e2e_s"] for entry in per_request.values()]
        return {
            "requests": len(per_request),
            "reconciled": len(per_request) - len(_reconcile(per_request)),
            "ttft_p50": nearest_rank(ttft_values, 50.0),
            "ttft_p99": nearest_rank(ttft_values, 99.0),
            "e2e_p50": nearest_rank(e2e_values, 50.0),
            "e2e_p99": nearest_rank(e2e_values, 99.0),
            "stages": _aggregate(per_request),
        }


def _reconcile(
    per_request: Dict[int, Dict[str, float]], rel_tol: float = 1e-9, abs_tol: float = 1e-6
) -> List[str]:
    problems: List[str] = []
    for rid, entry in per_request.items():
        stage_sum = sum(
            value for name, value in entry.items() if name in STAGE_ORDER
        )
        ttft_sum = sum(
            entry.get(name, 0.0) for name in TTFT_STAGES
        )
        for label, total, expected in (
            ("e2e", stage_sum, entry["e2e_s"]),
            ("ttft", ttft_sum, entry["ttft_s"]),
        ):
            tolerance = abs_tol + rel_tol * max(1.0, abs(expected))
            if abs(total - expected) > tolerance:
                problems.append(
                    f"request {rid}: stage {label} sum {total!r} != recorded "
                    f"{expected!r}"
                )
    return problems


def _aggregate(per_request: Dict[int, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    by_stage: Dict[str, List[float]] = {}
    for entry in per_request.values():
        for name in STAGE_ORDER:
            if name in entry:
                by_stage.setdefault(name, []).append(entry[name])
    aggregated: Dict[str, Dict[str, float]] = {}
    for name in STAGE_ORDER:
        values = by_stage.get(name)
        if not values:
            continue
        aggregated[name] = {
            "count": len(values),
            "total_s": sum(values),
            "mean_s": sum(values) / len(values),
            "p50_s": nearest_rank(values, 50.0),
            "p90_s": nearest_rank(values, 90.0),
            "p99_s": nearest_rank(values, 99.0),
        }
    return aggregated


def diff_stage_breakdowns(
    base: Dict, current: Dict, *, rel_threshold: float = 0.05, abs_floor_s: float = 1e-4
) -> List[Dict[str, float]]:
    """Attribute a latency delta between two ``stage_breakdown`` blocks.

    Compares ``mean_s`` and ``p99_s`` per stage in :data:`STAGE_ORDER`
    (then any extra stages, name-sorted) and returns one record per stage
    metric whose relative change exceeds ``rel_threshold`` and whose
    absolute change exceeds ``abs_floor_s`` — the attribution the diff
    doctor (:mod:`repro.obs.diff`) prints as, e.g., "decode mean_s +31%".
    Stages present on only one side are reported with the missing side's
    value as 0.  Records are sorted by absolute relative change,
    largest first.
    """
    base_stages = base.get("stages") or {}
    current_stages = current.get("stages") or {}
    ordered = [name for name in STAGE_ORDER if name in base_stages or name in current_stages]
    ordered += sorted(
        name
        for name in set(base_stages) | set(current_stages)
        if name not in STAGE_ORDER
    )
    records: List[Dict[str, float]] = []
    for name in ordered:
        before = base_stages.get(name) or {}
        after = current_stages.get(name) or {}
        for metric in ("mean_s", "p99_s"):
            old = float(before.get(metric) or 0.0)
            new = float(after.get(metric) or 0.0)
            delta = new - old
            if abs(delta) <= abs_floor_s:
                continue
            rel = delta / old if old > 0 else float("inf")
            if abs(rel) <= rel_threshold:
                continue
            records.append(
                {
                    "stage": name,
                    "metric": metric,
                    "base": old,
                    "current": new,
                    "delta_s": delta,
                    "rel": rel,
                }
            )
    records.sort(key=lambda r: (-abs(r["rel"]), r["stage"], r["metric"]))
    return records
