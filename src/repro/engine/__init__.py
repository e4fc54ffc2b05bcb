"""vLLM-class serving-engine substrate.

Implements, at iteration granularity, the serving engine the paper builds
on: requests with prefill/decode phases, continuous batching with chunked
prefill (Sarathi-style token budgets), a paged KV cache per serving group,
a roofline latency model calibrated to the testbed GPUs, pipeline-parallel
execution with microbatches and bubble accounting, tensor parallelism
inside an instance, and metric collection (TTFT / TPOT / throughput /
memory timelines).
"""

from repro.engine.request import Request, RequestState
from repro.engine.batch import IterationBatch, MicroBatch, ScheduledChunk
from repro.engine.latency_model import LatencyModel
from repro.engine.tensor_parallel import allreduce_time
from repro.engine.pipeline import PipelineExecution, PipelineStats
from repro.engine.chunked_prefill import token_count_microbatches
from repro.engine.metrics import MetricsCollector, RequestRecord, percentile
from repro.engine.scheduler import ContinuousBatchingScheduler, PreemptionMode, SchedulerConfig
from repro.engine.instance import ServingInstance
from repro.engine.group import ServingGroup

__all__ = [
    "Request",
    "RequestState",
    "IterationBatch",
    "MicroBatch",
    "ScheduledChunk",
    "LatencyModel",
    "allreduce_time",
    "PipelineExecution",
    "PipelineStats",
    "token_count_microbatches",
    "MetricsCollector",
    "RequestRecord",
    "percentile",
    "ContinuousBatchingScheduler",
    "PreemptionMode",
    "SchedulerConfig",
    "ServingInstance",
    "ServingGroup",
]
