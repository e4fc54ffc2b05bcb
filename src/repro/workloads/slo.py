"""SLO-attainment accounting (Figure 13, last column).

The paper defines the SLO for scale factor ``N`` as ``N`` times the P50
latency of the *best baseline*, separately for TTFT and TPOT, and counts a
request as violating when either metric exceeds its SLO.  Chat workloads
use a tight factor of 5; document summarisation a looser factor of 10.

Both functions read one ``(ttft, mean_tpot)`` pair per request, ``None``
where the request has no such latency: the form in which sweep cells
ship their latencies between worker processes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.engine.metrics import percentile

#: Typical SLO scale factors marked in the paper's plots.
CHAT_SLO_SCALE = 5.0
SUMMARY_SLO_SCALE = 10.0

#: One request's ``(ttft, mean_tpot)``.
LatencyPair = Tuple[Optional[float], Optional[float]]


def baseline_p50(cells: Sequence[Sequence[LatencyPair]]) -> Tuple[float, float]:
    """P50 TTFT / TPOT of the best cell (the SLO reference point).

    Each metric's baseline is the lowest P50 over the cells with data for
    it, 0.0 when no cell has any.
    """
    best_ttft = float("inf")
    best_tpot = float("inf")
    for pairs in cells:
        ttfts = [ttft for ttft, _ in pairs if ttft is not None]
        tpots = [tpot for _, tpot in pairs if tpot is not None]
        if ttfts:
            best_ttft = min(best_ttft, percentile(ttfts, 50))
        if tpots:
            best_tpot = min(best_tpot, percentile(tpots, 50))
    if best_ttft == float("inf"):
        best_ttft = 0.0
    if best_tpot == float("inf"):
        best_tpot = 0.0
    return best_ttft, best_tpot


def slo_violation_ratio(
    pairs: Sequence[LatencyPair], *, ttft_slo_s: float, tpot_slo_s: float
) -> float:
    """Fraction of requests violating either SLO: no first token, a TTFT
    above ``ttft_slo_s``, or a mean TPOT above ``tpot_slo_s``.

    A latency above a zero SLO violates it; no requests, no violations.
    """
    if not pairs:
        return 0.0
    violations = 0
    for ttft, tpot in pairs:
        if ttft is None or ttft > ttft_slo_s or (tpot is not None and tpot > tpot_slo_s):
            violations += 1
    return violations / len(pairs)
