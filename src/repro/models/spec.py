"""Transformer model specifications.

A :class:`ModelSpec` captures exactly the architectural facts that matter
for serving-system memory and latency accounting:

* how many decoder layers there are (parameters are dropped and pipelined at
  layer granularity, §4.1);
* the attention geometry (heads, KV heads for GQA / MLA latent width), which
  determines KV-cache bytes per token;
* the hidden and FFN sizes, which determine per-token FLOPs;
* the datatype width.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class AttentionKind(enum.Enum):
    """Attention variants with different KV-cache footprints."""

    MHA = "mha"
    GQA = "gqa"
    MLA = "mla"


@dataclass(frozen=True)
class ParallelismConfig:
    """How one serving instance of the model is laid out on GPUs.

    ``tensor_parallel`` GPUs split every layer; ``expert_parallel`` is the
    intra-instance layout used by the MoE models in Table 1 (it does not
    change the per-instance memory total, only how it is spread).  Pipeline
    parallelism across instances is *not* configured here — it is the
    dynamic state KunServe manipulates at run time.
    """

    tensor_parallel: int = 1
    expert_parallel: int = 1

    def __post_init__(self) -> None:
        if self.tensor_parallel < 1:
            raise ValueError("tensor_parallel must be >= 1")
        if self.expert_parallel < 1:
            raise ValueError("expert_parallel must be >= 1")

    @property
    def gpus_per_instance(self) -> int:
        return max(self.tensor_parallel, self.expert_parallel)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description of one LLM.

    Attributes:
        name: model name as reported in the paper.
        num_layers: number of decoder layers.
        hidden_size: model (residual stream) width.
        num_heads: query heads.
        num_kv_heads: key/value heads (== num_heads for MHA, smaller for GQA).
        head_dim: per-head dimension.
        intermediate_size: FFN inner width (per expert for MoE).
        vocab_size: vocabulary size (for the LM head cost).
        dtype_bytes: bytes per parameter / activation element (2 for BF16).
        attention: attention variant; MLA stores a compressed latent instead
            of per-head K/V.
        mla_latent_dim: width of the compressed KV latent (MLA only).
        total_params: total parameter count; if omitted it is estimated from
            the architecture.
        param_bytes_override: exact parameter-memory bytes; Table 1 reports
            measured sizes, so the catalog pins these to the paper's numbers.
        moe_num_experts: number of experts (1 for dense models).
        moe_active_experts: experts activated per token.
        default_parallelism: the per-instance layout used in the paper.
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    num_kv_heads: int
    head_dim: int
    intermediate_size: int
    vocab_size: int = 152064
    dtype_bytes: int = 2
    attention: AttentionKind = AttentionKind.GQA
    mla_latent_dim: int = 0
    total_params: Optional[float] = None
    param_bytes_override: Optional[int] = None
    moe_num_experts: int = 1
    moe_active_experts: int = 1
    default_parallelism: ParallelismConfig = field(default_factory=ParallelismConfig)

    def __post_init__(self) -> None:
        if self.num_layers <= 0:
            raise ValueError("num_layers must be positive")
        if self.num_kv_heads > self.num_heads:
            raise ValueError("num_kv_heads cannot exceed num_heads")
        if self.num_heads % self.num_kv_heads != 0:
            raise ValueError("num_heads must be a multiple of num_kv_heads")
        if self.attention == AttentionKind.MLA and self.mla_latent_dim <= 0:
            raise ValueError("MLA models must set mla_latent_dim")
        if self.dtype_bytes not in (1, 2, 4):
            raise ValueError(f"unsupported dtype width: {self.dtype_bytes}")

    # ------------------------------------------------------------------
    # Derived architecture quantities
    # ------------------------------------------------------------------
    @property
    def q_dim(self) -> int:
        """Total query projection width."""
        return self.num_heads * self.head_dim

    @property
    def kv_dim(self) -> int:
        """Total key (or value) projection width."""
        return self.num_kv_heads * self.head_dim

    @property
    def is_moe(self) -> bool:
        return self.moe_num_experts > 1

    def estimated_params(self) -> float:
        """Estimate the total parameter count from the architecture.

        Used only when ``total_params`` is not given; per-layer attention +
        FFN weights plus embeddings/LM head.
        """
        if self.total_params is not None:
            return self.total_params
        attn = self.hidden_size * (self.q_dim + 2 * self.kv_dim) + self.q_dim * self.hidden_size
        ffn_single = 3 * self.hidden_size * self.intermediate_size
        ffn = ffn_single * self.moe_num_experts
        per_layer = attn + ffn
        embeddings = 2 * self.vocab_size * self.hidden_size
        return per_layer * self.num_layers + embeddings

    def flops_per_token(self) -> float:
        """Dense FLOPs to push one token through the whole model.

        Uses the standard ``2 * active_params`` approximation; MoE models
        only activate ``moe_active_experts`` of their experts per token.
        """
        attn = self.hidden_size * (self.q_dim + 2 * self.kv_dim) + self.q_dim * self.hidden_size
        ffn = 3 * self.hidden_size * self.intermediate_size * self.moe_active_experts
        per_layer = 2 * (attn + ffn)
        head = 2 * self.vocab_size * self.hidden_size
        return per_layer * self.num_layers + head

    def flops_per_token_per_layer(self) -> float:
        """Dense FLOPs for one token through a single decoder layer."""
        attn = self.hidden_size * (self.q_dim + 2 * self.kv_dim) + self.q_dim * self.hidden_size
        ffn = 3 * self.hidden_size * self.intermediate_size * self.moe_active_experts
        return 2 * (attn + ffn)

    def activation_bytes_per_token(self) -> int:
        """Bytes of the residual-stream activation forwarded between
        pipeline stages for one token."""
        return self.hidden_size * self.dtype_bytes

    def __str__(self) -> str:
        return self.name
