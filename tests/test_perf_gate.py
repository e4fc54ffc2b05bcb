"""Tests for ``scripts/perf_gate.py`` (the performance gate's decision).

The script is stdlib-only and lives outside the package so CI can run it
without PYTHONPATH setup; these tests load it by path and feed its
decision synthetic run JSON, with no benchmark subprocess.
"""

from __future__ import annotations

import importlib.util
import pathlib

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "perf_gate.py"
_spec = importlib.util.spec_from_file_location("perf_gate", _SCRIPT)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

#: The shape of ``BENCHMARK.json``, cut to one metric of each kind.
SPEC = {
    "workloads": [{"name": "burst-vllm"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "scaled_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "sim_requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "engine.scheduler.self_s", "unit": "s", "better": "lower"},
        {"name": "cluster.calls", "unit": "count", "better": "lower"},
        {"name": "metrics.text_bytes", "unit": "bytes", "better": "lower"},
    ],
}

BASE_TIME = {"setup_s": 0.2, "scaled_wall_s": 1.0, "sim_requests_per_s": 1000.0}
BASE_WORK = {"engine.scheduler.self_s": 0.3, "cluster.calls": 500.0,
             "metrics.text_bytes": 4096.0}


def run(values, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 3,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in values.items()},
    }


def decide(head_time=None, head_work=None, added=(), head_run=None):
    """The gate's rows (by metric), problems and status for one workload:
    three base runs at ``BASE_TIME`` against three head runs."""
    head_time = {**BASE_TIME, **(head_time or {})}
    runs = {"burst-vllm": {
        "base_time": [run(BASE_TIME)] * 3,
        "head_time": [run(head_time)] * 2 + [head_run or run(head_time)],
        "base_work": run(BASE_WORK),
        "head_work": run({**BASE_WORK, **(head_work or {})}),
    }}
    rows, problems, status = perf_gate.gate(SPEC, runs, list(added))
    return {row[1]: row[5] for row in rows}, problems, status


class TestTime:
    def test_within_bound_passes(self):
        verdicts, problems, status = decide(
            {"scaled_wall_s": 1.2, "sim_requests_per_s": 800.0}
        )
        assert status == 0 and problems == []
        assert verdicts["scaled_wall_s"] == verdicts["sim_requests_per_s"] == "ok"

    def test_lower_is_better_metric_beyond_bound_fails(self):
        verdicts, _, status = decide({"scaled_wall_s": 1.3})
        assert status == 1
        assert verdicts["scaled_wall_s"] == "FAIL"
        assert verdicts["sim_requests_per_s"] == "ok"

    def test_higher_is_better_metric_beyond_bound_fails(self):
        verdicts, _, status = decide({"sim_requests_per_s": 700.0})
        assert status == 1
        assert verdicts["sim_requests_per_s"] == "FAIL"
        # Moving the better way by any amount is no regression.
        verdicts, _, status = decide({"scaled_wall_s": 0.1, "sim_requests_per_s": 9000.0})
        assert status == 0

    def test_setup_s_never_fails(self):
        verdicts, _, status = decide({"setup_s": 10.0})
        assert status == 0
        assert verdicts["setup_s"] == "not gated"

    def test_a_failing_head_run_fails(self):
        for bad in (run(BASE_TIME, correct=False), run(BASE_TIME, failed=1)):
            verdicts, problems, status = decide(head_run=bad)
            assert status == 1
            assert len(problems) == 1 and "head time run" in problems[0]
            assert "FAIL" not in verdicts.values()

    def test_a_failing_base_run_exits_2(self):
        runs = {"burst-vllm": {
            "base_time": [run(BASE_TIME), run(BASE_TIME, failed=2), run(BASE_TIME)],
            "head_time": [run(BASE_TIME)] * 3,
            "base_work": run(BASE_WORK),
            "head_work": run(BASE_WORK),
        }}
        assert perf_gate.gate(SPEC, runs, [])[2] == 2


class TestWork:
    def test_a_count_rise_fails(self):
        verdicts, _, status = decide(head_work={"cluster.calls": 501.0})
        assert status == 1
        assert verdicts["cluster.calls"] == "FAIL"
        # Only counts and bytes are gated on work; self time is not.
        assert "engine.scheduler.self_s" not in verdicts

    def test_a_rise_named_by_an_added_changes_line_passes(self, tmp_path):
        base, head = tmp_path / "base", tmp_path / "head"
        base.mkdir(), head.mkdir()
        (base / "CHANGES.md").write_text("- older entry naming burst-vllm cluster.calls\n")
        (head / "CHANGES.md").write_text(
            "- older entry naming burst-vllm cluster.calls\n"
            "- one more `multicluster.calls` on `burst-vllm`.\n"
            "- `burst-vllm` `cluster.calls` rises by one: a new route.\n"
            "- `tier-telemetry` `metrics.text_bytes` grows with the new series.\n"
        )
        added = perf_gate.added_lines(base, head)
        assert len(added) == 3
        # A line must name both the metric (as a whole word) and the workload.
        verdicts, _, status = decide(head_work={"cluster.calls": 501.0}, added=added[:1])
        assert (verdicts["cluster.calls"], status) == ("FAIL", 1)
        verdicts, _, status = decide(head_work={"metrics.text_bytes": 5000.0}, added=added)
        assert (verdicts["metrics.text_bytes"], status) == ("FAIL", 1)
        verdicts, _, status = decide(head_work={"cluster.calls": 501.0}, added=added)
        assert status == 0
        assert verdicts["cluster.calls"] == "rise named in CHANGES.md"

    def test_a_count_fall_passes(self):
        verdicts, _, status = decide(
            head_work={"cluster.calls": 10.0, "metrics.text_bytes": 0.0}
        )
        assert status == 0
        assert verdicts["cluster.calls"] == verdicts["metrics.text_bytes"] == "ok"

    def test_a_metric_new_to_the_head_passes_and_a_missing_one_fails(self):
        # The base may predate a metric; the head must report every one
        # its BENCHMARK.json declares.
        rows, _, status = perf_gate.gate(SPEC, {"burst-vllm": {
            "base_time": [run(BASE_TIME)], "head_time": [run(BASE_TIME)],
            "base_work": run({"metrics.text_bytes": 1.0}),
            "head_work": run({"cluster.calls": 5.0}),
        }}, [])
        verdicts = {row[1]: row[5] for row in rows}
        assert verdicts["cluster.calls"] == "new"
        assert verdicts["metrics.text_bytes"] == "FAIL (missing)"
        assert status == 1


def test_usage_errors_exit_2(tmp_path, capsys):
    assert perf_gate.main([]) == 2
    assert perf_gate.main([str(tmp_path), str(tmp_path)]) == 2
    assert "no perfbench/run.py" in capsys.readouterr().err


def test_rows_print_base_head_change_and_verdict():
    rows, _, _ = perf_gate.gate(SPEC, {"burst-vllm": {
        "base_time": [run(BASE_TIME)], "head_time": [run({**BASE_TIME, "scaled_wall_s": 1.5})],
        "base_work": run(BASE_WORK), "head_work": run(BASE_WORK),
    }}, [])
    text = perf_gate.format_rows(rows)
    line = next(line for line in text.splitlines() if "scaled_wall_s" in line)
    assert line.split()[2:] == ["1", "1.5", "+50.0%", "FAIL"]
    assert len(text.splitlines()) == 1 + 3 + 2  # header, 3 time rows, 2 work rows
