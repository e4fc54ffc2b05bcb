"""Table 1: parameter memory usage ratio of popular models.

For every catalogued model: parameter memory, GPUs per serving instance,
and the fraction of the instance's HBM the parameters occupy — the headroom
KunServe can reclaim by dropping replicas.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.report import format_table
from repro.models.catalog import MODEL_CATALOG, TABLE1_GPUS_PER_INSTANCE
from repro.models.memory import param_bytes, parameter_memory_ratio

#: Table 1 reports ratios against the marketing capacity (80 GB decimal).
GPU_HBM_BYTES_DECIMAL = 80 * 10 ** 9

#: The ratios Table 1 reports (tests/test_experiments.py and
#: benchmarks/test_bench_table1.py compare the computed ones against them).
PAPER_RATIOS = {
    "Qwen-2.5-14B": 34.4,
    "Qwen-2.5-72B": 42.3,
    "Llama-3.1-405B": 59.1,
    "Qwen-3-235B": 74.8,
    "DeepSeek-V3-671B": 61.4,
}


def run_table1(gpu_hbm_bytes: int = GPU_HBM_BYTES_DECIMAL) -> List[Dict[str, object]]:
    """Compute the Table 1 rows from the model catalog."""
    rows = []
    for name, spec in MODEL_CATALOG.items():
        gpus = TABLE1_GPUS_PER_INSTANCE[name]
        ratio = parameter_memory_ratio(spec, gpu_hbm_bytes, gpus)
        rows.append(
            {
                "model": name,
                "model_size_gb": param_bytes(spec) / 1e9,
                "gpus_per_instance": gpus,
                "instance_hbm_gb": gpus * gpu_hbm_bytes / 1e9,
                "param_ratio_pct": 100.0 * ratio,
                "paper_ratio_pct": PAPER_RATIOS[name],
            }
        )
    return rows


def format_table1(rows=None) -> str:
    if rows is None:
        rows = run_table1()
    return format_table(
        rows,
        columns=[
            "model",
            "model_size_gb",
            "gpus_per_instance",
            "instance_hbm_gb",
            "param_ratio_pct",
            "paper_ratio_pct",
        ],
    )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    print(format_table1())
