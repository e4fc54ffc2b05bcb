import json
import shutil
import subprocess
import sys

import pytest

import layers
import run
from conftest import BENCH_DIR, REPO_ROOT


def bench(*args, cwd=REPO_ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric_and_passes_its_checks(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = layers.per_layer_metrics() if trace else run.END_TO_END
    assert {name: unit for name, unit, _ in table} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    assert not (BENCH_DIR / ".work").exists()


def test_fails_cleanly_without_the_simulator(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "burst-vllm", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
