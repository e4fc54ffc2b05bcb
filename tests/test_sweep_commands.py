"""The surfaces of the six grid commands.

Each command is driven the way ``python -m`` drives it (through
:mod:`runpy`), so these tests hold whatever the commands are built from:
their option strings, the ``--metrics-out`` stream of the fleet and
multicluster commands, serve's ``--trace-out`` Chrome trace, and the
import weight the burst workloads pay for the package.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import runpy
import subprocess
import sys

import pytest

from repro.metrics.plot import parse_scrape_stream
from repro.trace import validate_chrome_trace

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

CACHE_OPTIONS = ["--no-cache", "--cache-stats", "--clear-cache", "--cache-dir"]
COMMON_OPTIONS = ["--seed", "--workers", "--sequential", "--output"]

#: Every command's option strings, in parser order.
OPTIONS = {
    "repro.experiments": [
        "-h", "--help", "--scale", "--scenarios", "--policies", *COMMON_OPTIONS,
        "--trace", *CACHE_OPTIONS,
    ],
    "repro.scenarios": [
        "-h", "--help", "--scale", "--scenarios", "--policies", *COMMON_OPTIONS,
        *CACHE_OPTIONS, "--list",
    ],
    "repro.fleet": [
        "-h", "--help", "--scale", "--scenarios", "--policies", "--routers",
        "--autoscalers", "--faults", *COMMON_OPTIONS, "--metrics-out", "--alerts",
        *CACHE_OPTIONS, "--list-routers", "--list-autoscalers", "--list-faults",
    ],
    "repro.multicluster": [
        "-h", "--help", "--scale", "--scenarios", "--policies", "--cluster-counts",
        "--routers", "--placements", *COMMON_OPTIONS, "--metrics-out",
        *CACHE_OPTIONS, "--list-routers", "--list-placements",
    ],
    "repro.chaos": [
        "-h", "--help", "--scale", "--scenarios", "--policies", "--faults",
        "--migrations", *COMMON_OPTIONS, "--metrics-out", "--trace", "--alerts",
        *CACHE_OPTIONS, "--list-faults", "--list-migrations",
    ],
    "repro.serve": [
        "-h", "--help", "--scale", "--scenarios", "--policies", "--clients",
        "--retries", "--backpressure", *COMMON_OPTIONS, "--metrics-out", "--trace",
        "--trace-out", "--alerts", *CACHE_OPTIONS, "--list-retries",
        "--list-backpressure",
    ],
}


def run_command(module: str, argv) -> int:
    """``python -m <module> <argv>`` in this process; returns the exit code."""
    saved = sys.argv
    sys.argv = [module, *argv]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as exit_:
        return exit_.code or 0
    finally:
        sys.argv = saved
    return 0


class _Parsed(Exception):
    """Carries the parser out of a command at its ``parse_args`` call."""


@pytest.mark.parametrize("module", sorted(OPTIONS))
def test_each_command_keeps_its_options(module, monkeypatch):
    def capture(parser, *args, **kwargs):
        raise _Parsed(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed) as parsed:
        run_command(module, [])
    parser = parsed.value.args[0]
    options = [option for action in parser._actions for option in action.option_strings]
    assert options == OPTIONS[module]


QUICK = ["--scale", "quick", "--sequential", "--no-cache"]


@pytest.mark.parametrize(
    "module, grid, tier",
    [
        (
            "repro.fleet",
            ["--scenarios", "spike-train", "--policies", "vllm", "--routers",
             "least_loaded", "--autoscalers", "elastic", "--faults", "instance-kill"],
            False,
        ),
        (
            "repro.multicluster",
            ["--scenarios", "steady-poisson", "--policies", "vllm", "--cluster-counts",
             "2", "--routers", "spillover", "--placements", "cost_weighted"],
            True,
        ),
    ],
)
def test_metrics_out_streams_scrapes(module, grid, tier, tmp_path):
    stream = tmp_path / "metrics.prom"
    code = run_command(
        module,
        [*grid, *QUICK, "--output", str(tmp_path / "doc.json"), "--metrics-out", str(stream)],
    )
    assert code == 0
    series = parse_scrape_stream(stream.read_text())
    submitted = series['repro_requests_submitted_total{cluster="0"}']
    assert len(submitted) > 1 and submitted[-1][1] > 0
    assert any(name.startswith("repro_queue_depth") for name in series)
    if tier:
        # The tier's own series ride along with each shard's.
        assert 'repro_requests_submitted_total{cluster="1"}' in series
        assert any(name.startswith("repro_cluster_alive") for name in series)
        assert "repro_cross_cluster_bytes_total" in series


def test_serve_trace_out_writes_a_valid_chrome_trace(tmp_path):
    trace = tmp_path / "trace.json"
    code = run_command(
        "repro.serve",
        ["--scenarios", "spike-train", "--policies", "vllm", "--clients", "16",
         "--retries", "backoff", "--backpressure", "on", *QUICK, "--trace",
         "--trace-out", str(trace), "--output", str(tmp_path / "doc.json")],
    )
    assert code == 0
    document = json.loads(trace.read_text())
    assert validate_chrome_trace(document) == []
    assert document["traceEvents"]


def test_burst_workload_imports_load_no_sweep_code():
    # The burst workloads build systems from these two modules; their
    # set-up time must not pay for the sweep engine.
    probe = (
        "import sys, repro.serving.system, repro.experiments.runner; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.sweeps')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", sorted(OPTIONS))
def test_a_grid_loads_no_other_commands_grid(module):
    # Cell changes two grids share live in the engine, so one command
    # never builds another command's grid.
    probe = (
        f"import sys, {module}.grid; "
        "print(sorted(m for m in sys.modules if m.endswith('.grid')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == str(sorted([f"{module}.grid", "repro.sweeps.grid"]))


#: The figures grid has scenarios of its own; the others share the registry's.
SCENARIO_OF = {"repro.experiments": "ablation"}


@pytest.mark.parametrize("module", sorted(OPTIONS))
def test_a_repeated_axis_value_exits_2(module, tmp_path, capsys):
    output = tmp_path / "doc.json"
    scenario = SCENARIO_OF.get(module, "spike-train")
    code = run_command(
        module, ["--scenarios", scenario, scenario, *QUICK, "--output", str(output)]
    )
    assert code == 2
    assert "repeated" in capsys.readouterr().err
    assert not output.exists()
