"""Microbatch execution cost model (§4.3, Eq. 1–3).

The lookahead batch formulation needs to predict how long a microbatch will
take.  Token-count proxies miss the quadratic attention terms, so the paper
retrofits a cost model::

    cost(c_ij) = alpha * (p_ij * c_ij  +  (c_ij^2 + c_ij) / 2)   # attention
               + beta * c_ij                                      # FFN
               + gamma                                            # fixed

    cost(b_k)  = sum_{c in b_k} cost(c)  -  (|b_k| - 1) * lam     # shared
                                                                  # weight loads

The hyper-parameters (alpha, beta, gamma, lam) are fitted offline with least
squares over profiling samples.  In this reproduction the profiling samples
are produced by the roofline :class:`~repro.engine.latency_model.LatencyModel`
(the "real GPU" of the simulation), so Figure 15 compares the fitted model
against that ground truth, including the no-attention baseline cost model
used by prior work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.engine.batch import ScheduledChunk
from repro.engine.latency_model import LatencyModel
from repro.engine.request import Request


@dataclass(frozen=True)
class CostModelParams:
    """Fitted hyper-parameters of the cost model."""

    alpha: float
    beta: float
    gamma: float
    lam: float


@dataclass(frozen=True)
class ProfilingSample:
    """One offline profiling measurement: a microbatch and its latency."""

    chunks: tuple
    measured_time: float

    @property
    def num_chunks(self) -> int:
        return len(self.chunks)


def _chunk_features(prefix_tokens: float, chunk_tokens: float) -> np.ndarray:
    """Per-chunk feature vector for (alpha, beta, gamma) of Eq. 1."""
    attention = prefix_tokens * chunk_tokens + (chunk_tokens ** 2 + chunk_tokens) / 2.0
    return np.array([attention, chunk_tokens, 1.0], dtype=float)


class BatchCostModel:
    """Eq. 1–3 cost model with fitted parameters."""

    #: chunk_cost memo entries kept before the cache is reset (the lookahead
    #: splitter evaluates the same (prefix, tokens) pairs many times while
    #: binary-searching split points).
    _CACHE_LIMIT = 65536

    def __init__(self, params: CostModelParams) -> None:
        self.params = params
        self._chunk_cost_cache: dict = {}

    # ------------------------------------------------------------------
    # Cost evaluation
    # ------------------------------------------------------------------
    def chunk_cost(self, prefix_tokens: int, chunk_tokens: int) -> float:
        """Cost (seconds) of one chunk: Eq. 1."""
        if chunk_tokens <= 0:
            return 0.0
        key = (prefix_tokens, chunk_tokens)
        cached = self._chunk_cost_cache.get(key)
        if cached is not None:
            return cached
        # Scalar form of ``alpha . _chunk_features`` — the array allocation
        # is too expensive for a function this hot.
        attention = prefix_tokens * chunk_tokens + (chunk_tokens ** 2 + chunk_tokens) / 2.0
        cost = float(
            self.params.alpha * attention + self.params.beta * chunk_tokens + self.params.gamma
        )
        if len(self._chunk_cost_cache) >= self._CACHE_LIMIT:
            self._chunk_cost_cache.clear()
        self._chunk_cost_cache[key] = cost
        return cost

    def chunk_cost_of(self, chunk: ScheduledChunk) -> float:
        return self.chunk_cost(chunk.prefix_tokens, chunk.new_tokens)

    def microbatch_cost(self, chunks: Iterable[ScheduledChunk]) -> float:
        """Cost of a microbatch: Eq. 3 (with the shared-weight-load term)."""
        chunk_list = list(chunks)
        if not chunk_list:
            return 0.0
        total = sum(self.chunk_cost_of(chunk) for chunk in chunk_list)
        return total - (len(chunk_list) - 1) * self.params.lam


class NoAttentionCostModel(BatchCostModel):
    """The prior-work baseline that ignores attention cost entirely.

    NanoFlow-style models estimate microbatch time from the token count
    alone (a linear model); the paper shows this deviates by up to 48–74 %
    for long prompts / prefixes.
    """

    def chunk_cost(self, prefix_tokens: int, chunk_tokens: int) -> float:
        if chunk_tokens <= 0:
            return 0.0
        return float(self.params.beta * chunk_tokens + self.params.gamma)


# ----------------------------------------------------------------------
# Offline profiling and least-squares fitting
# ----------------------------------------------------------------------
def _make_chunk(prefix_tokens: int, chunk_tokens: int) -> ScheduledChunk:
    request = Request(
        arrival_time=0.0,
        prompt_tokens=max(1, prefix_tokens + chunk_tokens),
        max_output_tokens=1,
    )
    return ScheduledChunk(request=request, prefix_tokens=prefix_tokens, new_tokens=chunk_tokens)


def generate_profiling_samples(
    latency_model: LatencyModel,
    *,
    prompt_lengths: Sequence[int] = (128, 256, 512, 1024, 2048, 4096, 6144, 8192),
    prefix_lengths: Sequence[int] = (0, 512, 1024, 2048, 4096),
    batch_sizes: Sequence[int] = (1, 2, 4, 8),
    decode_contexts: Sequence[int] = (256, 1024, 4096),
) -> List[ProfilingSample]:
    """Run the offline profiling sweep (§4.3) against the roofline model.

    Produces single-chunk samples covering prompt/prefix lengths plus
    multi-chunk samples (for the shared-weight-load term) and decode-heavy
    samples so the fit covers the batching regimes seen online.
    """
    samples: List[ProfilingSample] = []
    for prompt in prompt_lengths:
        for prefix in prefix_lengths:
            chunk = _make_chunk(prefix, prompt)
            time = latency_model.batch_time([chunk])
            samples.append(ProfilingSample(chunks=((prefix, prompt),), measured_time=time))
    for batch_size in batch_sizes:
        if batch_size < 2:
            continue
        for prompt in prompt_lengths[:4]:
            chunks = [_make_chunk(0, prompt) for _ in range(batch_size)]
            time = latency_model.batch_time(chunks)
            samples.append(
                ProfilingSample(chunks=tuple((0, prompt) for _ in range(batch_size)), measured_time=time)
            )
    for context in decode_contexts:
        for batch_size in batch_sizes:
            # One-token chunks are priced exactly as decode steps.
            chunks = [_make_chunk(context, 1) for _ in range(batch_size)]
            time = latency_model.batch_time(chunks)
            samples.append(
                ProfilingSample(chunks=tuple((context, 1) for _ in range(batch_size)), measured_time=time)
            )
    return samples


def fit_cost_model(samples: Sequence[ProfilingSample]) -> CostModelParams:
    """Least-squares fit of (alpha, beta, gamma, lam) over profiling samples.

    Each sample contributes one row: the microbatch cost is linear in the
    four parameters, with the lam feature equal to ``-(num_chunks - 1)``.
    """
    if not samples:
        raise ValueError("need at least one profiling sample to fit")
    rows = []
    targets = []
    for sample in samples:
        attention = 0.0
        tokens = 0.0
        count = float(sample.num_chunks)
        for prefix, chunk in sample.chunks:
            features = _chunk_features(prefix, chunk)
            attention += features[0]
            tokens += features[1]
        rows.append([attention, tokens, count, -(count - 1.0)])
        targets.append(sample.measured_time)
    design = np.asarray(rows, dtype=float)
    target = np.asarray(targets, dtype=float)
    solution, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    alpha, beta, gamma, lam = (float(x) for x in solution)
    # Clamp to physically meaningful values (costs cannot be negative).
    return CostModelParams(
        alpha=max(alpha, 0.0),
        beta=max(beta, 0.0),
        gamma=max(gamma, 0.0),
        lam=max(lam, 0.0),
    )


def fit_from_latency_model(latency_model: LatencyModel) -> BatchCostModel:
    """Convenience: profile the roofline model and fit the cost model."""
    samples = generate_profiling_samples(latency_model)
    return BatchCostModel(fit_cost_model(samples))


def mean_relative_error(
    model: BatchCostModel, latency_model: LatencyModel, samples: Optional[Sequence[ProfilingSample]] = None
) -> float:
    """Mean relative deviation of the cost model vs. the ground truth."""
    if samples is None:
        samples = generate_profiling_samples(latency_model)
    errors = []
    for sample in samples:
        chunks = [_make_chunk(prefix, tokens) for prefix, tokens in sample.chunks]
        predicted = model.microbatch_cost(chunks)
        actual = sample.measured_time
        if actual > 0:
            errors.append(abs(predicted - actual) / actual)
    return float(np.mean(errors)) if errors else 0.0
