"""The paper's claims, checked against the committed figures document.

Every test reads ``FIGURES_results.json`` (``python -m repro.experiments
--scale full``: 8 instances, a 130 s trace, seed 42) and runs no
simulation.  A claim the simulator does not reproduce there is a strict
``xfail`` whose reason quotes the document's numbers, so a change that
makes it hold fails here until its marker goes.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments import figure14
from repro.obs import diff_documents

DOCUMENT = json.loads(
    (pathlib.Path(__file__).resolve().parents[1] / "FIGURES_results.json").read_text()
)


def cell(scenario: str, policy: str) -> dict:
    (entry,) = (
        e for e in DOCUMENT["entries"] if e["scenario"] == scenario and e["policy"] == policy
    )
    return entry


def test_the_document_is_the_full_scale_run_at_seed_42():
    assert DOCUMENT["scale"]["name"] == "full"
    assert DOCUMENT["seed"] == 42


def test_the_document_diffs_clean_against_itself():
    # NaN is not equal to itself; "never exhausted" is stored as null.
    report = diff_documents(DOCUMENT, DOCUMENT, rel_threshold=0.0)
    assert report["cells_compared"] == len(DOCUMENT["entries"])
    assert report["findings"] == []


def _xfail(reason: str):
    return pytest.mark.xfail(strict=True, reason=reason)


@pytest.mark.parametrize(
    "workload",
    [
        pytest.param("burstgpt-14b", marks=_xfail(
            "KunServe's TTFT p99 is 127.5 s, the worst of the five; vLLM (PP) has 60.8 s"
        )),
        pytest.param("sharegpt-14b", marks=_xfail(
            "KunServe's TTFT p99 is 30.7 s; vLLM (PP) has 8.54 s"
        )),
        pytest.param("longbench-14b", marks=_xfail(
            "KunServe's TTFT p99 is 12.7 s; vLLM (PP) has 6.18 s"
        )),
    ],
)
def test_kunserve_has_the_lowest_ttft_p99_on_each_overloaded_14b_workload(workload):
    kunserve = cell(workload, "kunserve")["ttft_p99"]
    for baseline in ("vllm", "vllm-pp", "infercept", "llumnix"):
        assert kunserve < cell(workload, baseline)["ttft_p99"], baseline


#: Each ablation step and the row it must improve on: "+Dynamic drop"
#: against vLLM (DP), each later step against the step before it.
IMPROVES_ON = {
    "kunserve-drop-only": "vllm",
    "kunserve-no-lookahead": "kunserve-drop-only",
    "kunserve": "kunserve-no-lookahead",
}


@pytest.mark.parametrize(
    "step",
    [
        "kunserve-drop-only",
        "kunserve-no-lookahead",
        pytest.param("kunserve", marks=_xfail(
            "+Lookahead raises TTFT p99 (12.712 against 12.708 s) and the mean "
            "bubble (5.64 against 4.85 %)"
        )),
    ],
)
def test_each_ablation_step_lowers_ttft_p99_or_the_mean_bubble(step):
    row, before = cell(figure14.SCENARIO, step), cell(figure14.SCENARIO, IMPROVES_ON[step])
    assert (
        row["ttft_p99"] < before["ttft_p99"]
        or row["mean_bubble_fraction"] < before["mean_bubble_fraction"]
    )


@_xfail("KunServe drops twice and never restores, so it equals KunServe w/o restore: "
        "TTFT p99 294.2 s for both")
def test_restoration_fires_and_beats_kunserve_without_it():
    kunserve = cell("burst-waves", "kunserve")
    assert kunserve["restores"] >= 1
    assert kunserve["ttft_p99"] < cell("burst-waves", "kunserve-no-restore")["ttft_p99"]


@_xfail("neither system exhausts its memory: both peak at 1,385 GB of KV capacity")
def test_vllm_exhausts_its_memory_and_kunserve_stands_to_the_end():
    assert cell("extreme-burst", "vllm")["memory_exhausted_at_s"] is not None
    assert cell("extreme-burst", "kunserve")["memory_exhausted_at_s"] is None


def test_llumnix_migrates_in_some_figure_cell():
    migrations = {
        e["scenario"]: e["migrations"] for e in DOCUMENT["entries"] if e["policy"] == "llumnix"
    }
    assert any(migrations.values()), migrations
