"""InferCept baseline: optimised KV-cache swapping to host DRAM.

When the KV cache fills up, the victim request's cache is written out to
host memory over PCIe instead of being discarded, and read back when space
frees up.  Swapping avoids recomputation but does not create new memory:
queued requests still wait for ongoing ones to finish, and swapped-out
requests pay the transfer both ways (the TPOT hit visible in Figure 13).
"""

from __future__ import annotations

import dataclasses

from repro.engine.scheduler import PreemptionMode, SchedulerConfig
from repro.policies.base import OverloadPolicy


class InferCeptPolicy(OverloadPolicy):
    """Data-parallel deployment with swap-based preemption.

    **When selected:** the KV-swapping baseline in Figures 12/13 and the
    ablations; ``make_policy("infercept")``.

    **What it models:** vLLM's layout with the preemption mode flipped to
    SWAP — a full KV cache evicts the latest-arrived running request by
    writing its cache to host DRAM over PCIe (a stall on the victim, plus
    PCIe occupancy in the network fabric) and swaps it back in once free
    blocks rise above the scheduler's ``SWAP_IN_WATERMARK`` (5 %) of
    capacity.  Compared with recompute it trades GPU FLOPs for PCIe
    bandwidth; compared with KunServe it creates no *new* memory, so
    queueing delays under a cluster-wide burst remain.
    """

    name = "InferCept"

    def scheduler_config(self, base: SchedulerConfig) -> SchedulerConfig:
        return dataclasses.replace(base, preemption_mode=PreemptionMode.SWAP)
