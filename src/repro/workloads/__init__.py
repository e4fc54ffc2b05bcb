"""Workloads: arrival traces, dataset length distributions, SLO accounting.

The paper drives every experiment with the BurstGPT arrival trace (spiked,
bursty request rates) combined with request length distributions from three
datasets (BurstGPT, ShareGPT, LongBench).  Neither the trace file nor the
datasets ship with this reproduction, so this package generates synthetic
equivalents matched to the published statistics:

* BurstGPT arrivals: bursty rate with ~2x spikes at unpredictable times and
  a mean request "stay time" of ~11 s (§2.2);
* BurstGPT dataset: mean input 642 / output 262 tokens;
* ShareGPT dataset: mean input 1,660 / output 373, inputs capped at 4 K;
* LongBench dataset: mean input 5,900 / output 499 (document summarisation).
"""

from repro.workloads.trace import ArrivalTrace, TracedRequest, Workload
from repro.workloads.burstgpt import (
    BurstSpec,
    burstgpt_arrival_trace,
    extreme_burst_trace,
    long_run_arrival_trace,
)
from repro.workloads.datasets import (
    DatasetSpec,
    BURSTGPT_DATASET,
    SHAREGPT_DATASET,
    LONGBENCH_DATASET,
    DATASETS,
    sample_lengths,
)
from repro.workloads.upscaler import upscale_trace, scale_to_average_rate
from repro.workloads.slo import baseline_p50, slo_violation_ratio

__all__ = [
    "ArrivalTrace",
    "TracedRequest",
    "Workload",
    "BurstSpec",
    "burstgpt_arrival_trace",
    "long_run_arrival_trace",
    "extreme_burst_trace",
    "DatasetSpec",
    "BURSTGPT_DATASET",
    "SHAREGPT_DATASET",
    "LONGBENCH_DATASET",
    "DATASETS",
    "sample_lengths",
    "upscale_trace",
    "scale_to_average_rate",
    "baseline_p50",
    "slo_violation_ratio",
]
