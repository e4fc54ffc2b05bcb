"""Roofline execution-time model ("the GPU" of the simulation).

This model plays the role the real GPU kernels play in the paper's testbed:
given a batch (prefill chunks plus a summary of its decode steps) and the
number of resident layers, it returns how long the iteration takes.  It is the ground
truth against which the *scheduling* cost model of §4.3 (``repro.core.
cost_model``) is fitted and evaluated (Figure 15).

The model is a classic roofline:

* compute time  = (linear FLOPs + attention FLOPs) / effective FLOP/s
* memory time   = (weight bytes + KV-cache bytes read) / effective bandwidth
* iteration time = max(compute, memory) + TP all-reduce + fixed overheads

Weight bytes are counted once per microbatch (requests in a batch share the
parameter loads — the effect the ``-(|b_k|-1)γ`` term of Eq. 3 models).

Exactness.  Every per-chunk roofline term is an integer: the per-token
FLOP and KV-byte constants and ``q_dim`` are ints, and the attention term
``4n(p + (n+1)/2)qL`` equals ``2n(2p + n + 1)qL``.  The batch totals are
therefore summed as Python ints and converted to float once.  While a
total stays below 2**53, every partial sum of the per-chunk terms
(:meth:`LatencyModel.chunk_compute_flops` and the KV-byte methods) added
as floats is an exactly representable integer, so such a float sum is the
same in any order and equals the single conversion bit for bit.  That is
what lets a batch's decode steps be priced from their count and
prefix-token sum alone (the scheduler records both), exactly as if each
were a one-token chunk.
Totals of 2**53 or more, which no simulated workload reaches (it takes a
Llama-405B-class batch with multi-million-token prefixes), are rounded
once, to the float nearest the exact total.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.cluster.gpu import GPUSpec
from repro.engine.batch import ScheduledChunk
from repro.engine.tensor_parallel import tp_layer_comm_time
from repro.models.memory import kv_bytes_per_token_per_layer, param_bytes_per_layer
from repro.models.spec import ModelSpec


# The roofline's constants, calibrated so that a Qwen-2.5-14B on an A800
# matches the magnitudes the paper reports (§5.3): ~220 ms for a typical
# LongBench prefill and ~60 ms decode iterations at large batch sizes.

#: Fractions of the GPU's peak FLOP/s and HBM bandwidth a pass attains.
COMPUTE_EFFICIENCY = 0.85
MEMORY_EFFICIENCY = 0.80
#: Fixed seconds per full-model pass, per chunk or decode step in it, and
#: per layer it executes.
ITERATION_OVERHEAD_S = 0.004
PER_CHUNK_OVERHEAD_S = 0.00005
PER_LAYER_OVERHEAD_S = 1.5e-5


class LatencyModel:
    """Analytical execution-time model for one serving instance's GPUs."""

    #: batch_time memo entries kept before the cache is dropped wholesale
    #: (decode batches mutate their shape every iteration, so the cache must
    #: not grow without bound over long simulations).
    _CACHE_LIMIT = 65536

    def __init__(self, gpu: GPUSpec, model: ModelSpec, *, tp_degree: int = 1) -> None:
        if tp_degree < 1:
            raise ValueError("tp_degree must be >= 1")
        self.gpu = gpu
        self.model = model
        self.tp_degree = tp_degree
        self._layer_param_bytes = param_bytes_per_layer(model)
        self._kv_bytes_per_token_layer = kv_bytes_per_token_per_layer(model)
        self._flops_per_token_layer = model.flops_per_token_per_layer()
        self._q_dim = model.q_dim
        #: effective hardware rates aggregated over the TP group, fixed at
        #: construction: every priced pass divides by them.
        self.effective_flops: float = gpu.flops * COMPUTE_EFFICIENCY * tp_degree
        self.effective_bandwidth: float = gpu.hbm_bandwidth * MEMORY_EFFICIENCY * tp_degree
        #: memo of batch_time results keyed by the batch's shape signature.
        #: Iteration times depend only on chunk shapes, so identical batches
        #: (common in steady-state decode and in profiling sweeps) are
        #: computed once.
        self._batch_time_cache: dict = {}

    # ------------------------------------------------------------------
    # Per-chunk cost pieces
    # ------------------------------------------------------------------
    def chunk_compute_flops(self, chunk: ScheduledChunk, num_layers: int) -> float:
        """FLOPs to execute ``chunk`` through ``num_layers`` layers."""
        linear = chunk.new_tokens * self._flops_per_token_layer * num_layers
        # Attention: each new token attends over the prefix and (causally)
        # over half the chunk itself on average; score + value multiply.
        attended = chunk.prefix_tokens + (chunk.new_tokens + 1) / 2.0
        attn = 4.0 * chunk.new_tokens * attended * self.model.q_dim * num_layers
        return linear + attn

    def chunk_kv_read_bytes(self, chunk: ScheduledChunk, num_layers: int) -> float:
        """KV-cache bytes attention reads for ``chunk``."""
        context = chunk.prefix_tokens + chunk.new_tokens
        return context * self._kv_bytes_per_token_layer * num_layers

    def chunk_kv_write_bytes(self, chunk: ScheduledChunk, num_layers: int) -> float:
        """KV-cache bytes written for the chunk's new tokens."""
        return chunk.new_tokens * self._kv_bytes_per_token_layer * num_layers

    # ------------------------------------------------------------------
    # Batch execution time
    # ------------------------------------------------------------------
    def batch_time(
        self,
        chunks: Iterable[ScheduledChunk],
        num_layers: Optional[int] = None,
        *,
        include_lm_head: bool = True,
        decodes: Tuple[int, int] = (0, 0),
    ) -> float:
        """Execution time of one microbatch over ``num_layers`` layers.

        ``num_layers`` defaults to the full model (non-pipelined execution);
        pipeline stages pass their own layer count.  ``chunks`` are the
        prefill chunks; ``decodes`` is the ``(count, prefix-token sum)`` of
        the decode steps batched with them, priced in closed form.
        """
        chunk_list = chunks if type(chunks) is list else list(chunks)
        if num_layers is None:
            num_layers = self.model.num_layers
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if not chunk_list and not decodes[0]:
            return 0.0

        # Decode prefixes grow every iteration, so a batch with decodes
        # essentially never repeats its shape — for those, building and
        # probing the memo key is pure overhead.  Pure-prefill batches
        # (admission bursts, profiling sweeps, cost-model calibration) do
        # repeat and keep the memo.
        cache_key = None
        if not decodes[0]:
            cache_key = (
                num_layers,
                include_lm_head,
                tuple((c.prefix_tokens, c.new_tokens) for c in chunk_list),
            )
            cached = self._batch_time_cache.get(cache_key)
            if cached is not None:
                return cached

        total_flops, total_bytes, total_tokens = self._chunk_totals(
            chunk_list, num_layers, decodes
        )
        duration = self._roofline(
            total_flops, total_bytes, total_tokens, len(chunk_list) + decodes[0],
            num_layers, include_lm_head,
        )
        if cache_key is not None:
            if len(self._batch_time_cache) >= self._CACHE_LIMIT:
                self._batch_time_cache.clear()
            self._batch_time_cache[cache_key] = duration
        return duration

    def decode_batch_time(
        self, count: int, prefix_sum: int, num_layers: int, *, include_lm_head: bool = True
    ) -> float:
        """Execution time of ``count >= 1`` decode steps alone, whose prefixes
        sum to ``prefix_sum``: ``batch_time([], num_layers, decodes=(count,
        prefix_sum))`` without the chunk-list handling, float for float.
        A quiet decode pass is priced here."""
        flops = (
            count * self._flops_per_token_layer + 4 * (prefix_sum + count) * self._q_dim
        ) * num_layers
        kv_bytes = (prefix_sum + 2 * count) * self._kv_bytes_per_token_layer * num_layers
        return self._roofline(
            float(flops), float(kv_bytes), count, count, num_layers, include_lm_head
        )

    def batch_time_pair(
        self,
        chunks: Iterable[ScheduledChunk],
        num_layers: Optional[int] = None,
        *,
        decodes: Tuple[int, int] = (0, 0),
    ) -> "tuple[float, float, int]":
        """``(batch_time(lm_head=False), batch_time(lm_head=True), tokens)``.

        Pipeline stages holding the same layer count differ only by the
        lm-head flag, and the lm-head FLOPs are added *after* the per-chunk
        aggregation — so both durations come from one pass over the chunks
        with bit-identical arithmetic to two separate calls.  The
        batch's total new-token count falls out of the same pass and is
        returned so callers sizing activation transfers do not re-sum.
        """
        chunk_list = chunks if type(chunks) is list else list(chunks)
        if num_layers is None:
            num_layers = self.model.num_layers
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if not chunk_list and not decodes[0]:
            return 0.0, 0.0, 0

        total_flops, total_bytes, total_tokens = self._chunk_totals(
            chunk_list, num_layers, decodes
        )
        items = len(chunk_list) + decodes[0]
        without_head = self._roofline(
            total_flops, total_bytes, total_tokens, items, num_layers, False
        )
        with_head = self._roofline(total_flops, total_bytes, total_tokens, items, num_layers, True)
        return without_head, with_head, total_tokens

    def _roofline(
        self,
        flops: float,
        kv_bytes: float,
        tokens: int,
        items: int,
        num_layers: int,
        include_lm_head: bool,
    ) -> float:
        """A microbatch's time from its chunk and decode totals (``items``
        counts the chunks and the decodes)."""
        model = self.model
        # Weights are streamed once per microbatch, shared by all chunks.
        total_bytes = kv_bytes + self._layer_param_bytes * num_layers
        # Activations read/written per token per layer (two residual streams).
        total_bytes += 4.0 * tokens * model.hidden_size * model.dtype_bytes * num_layers
        if include_lm_head:
            flops += 2.0 * tokens * model.vocab_size * model.hidden_size
        compute_time = flops / self.effective_flops
        memory_time = total_bytes / self.effective_bandwidth
        comm_time = 0.0  # tp_layer_comm_time(...) * num_layers with one GPU
        if self.tp_degree > 1:
            comm_time = tp_layer_comm_time(
                tokens, model.hidden_size, model.dtype_bytes, self.gpu.nvlink_bandwidth,
                self.tp_degree,
            ) * num_layers
        # Fixed overheads (scheduling, sampling, kernel launches) scale with
        # the fraction of the model executed, so a pipeline stage holding
        # half the layers pays roughly half the per-iteration overhead.
        layer_fraction = num_layers / model.num_layers
        overhead = (
            ITERATION_OVERHEAD_S * layer_fraction
            + PER_CHUNK_OVERHEAD_S * items * layer_fraction
            + PER_LAYER_OVERHEAD_S * num_layers
        )
        return max(compute_time, memory_time) + comm_time + overhead

    def _chunk_totals(
        self, chunk_list: List[ScheduledChunk], num_layers: int, decodes: Tuple[int, int]
    ) -> Tuple[float, float, int]:
        """``(FLOPs, KV bytes read and written, new tokens)`` of the chunks
        and the decodes.

        Sums exact integers and converts each total once (the module
        docstring says why that equals summing per-chunk floats).  A decode
        step (``n = 1``) contributes ``4(p + 1)`` attention units and
        ``p + 2`` KV units, so the decodes' share follows from their count
        and prefix sum.
        """
        count, prefix_sum = decodes
        tokens = count
        attn_units = 4 * (prefix_sum + count)
        kv_units = prefix_sum + 2 * count
        for chunk in chunk_list:
            new_tokens = chunk.new_tokens
            prefix = chunk.prefix_tokens
            tokens += new_tokens
            attn_units += 2 * new_tokens * (2 * prefix + new_tokens + 1)
            kv_units += prefix + 2 * new_tokens
        flops = (tokens * self._flops_per_token_layer + attn_units * self._q_dim) * num_layers
        kv_bytes = kv_units * self._kv_bytes_per_token_layer * num_layers
        return float(flops), float(kv_bytes), tokens

    def prefill_time(self, prompt_tokens: int, *, prefix_tokens: int = 0) -> float:
        """Convenience: full-model time of a single prefill chunk."""
        from repro.engine.request import Request  # local import to avoid cycle

        request = Request(arrival_time=0.0, prompt_tokens=max(1, prompt_tokens + prefix_tokens), max_output_tokens=1)
        chunk = ScheduledChunk(
            request=request, prefix_tokens=prefix_tokens, new_tokens=prompt_tokens
        )
        return self.batch_time([chunk])

    def decode_time(self, context_tokens: int, batch_size: int = 1) -> float:
        """Convenience: full-model time of a decode iteration."""
        return self.batch_time([], decodes=(batch_size, batch_size * context_tokens))
