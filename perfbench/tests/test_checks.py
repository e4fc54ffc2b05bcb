import argparse
import copy
import dataclasses

import pytest

import run
import workloads


def outcome(**changes):
    base = workloads.Outcome(
        submitted=100, finished=98, shed=0, output_tokens=12345,
        ttft_p50=0.25, ttft_p99=3.5, ttft_samples=98, wall_s=1.0,
    )
    return dataclasses.replace(base, **changes)


@pytest.mark.parametrize("field,value", [
    ("submitted", 101), ("finished", 97), ("shed", 1), ("output_tokens", 12346),
    ("ttft_p50", 0.25000001), ("ttft_p99", 3.4), ("ttft_samples", 97),
    ("documents", "other"),
])
def test_digest_catches_a_perturbed_outcome(field, value):
    assert outcome(**{field: value}).digest() != outcome().digest()


def test_digest_ignores_host_time():
    assert outcome(wall_s=7.0, sweeps={"sweeps.cold_s": 1.0}).digest() == outcome().digest()


class FakeSpec:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def run(self, seed, size, work_dir, clock=None):
        return self.outcomes.pop(0)


def runner_over(outcomes):
    runner = run.Runner(argparse.Namespace(workload="burst-vllm", seed=1, size="tiny"))
    runner.spec = FakeSpec(outcomes)
    return runner


def test_runner_counts_a_repeat_whose_digest_moved_as_failed():
    runner = runner_over([outcome(), outcome(), outcome(finished=97), outcome()])
    results = [runner.attempt("untraced") for _ in range(4)]
    assert [r is not None for r in results] == [True, True, False, True]
    assert (runner.attempted, runner.failed) == (4, 1)


def test_runner_counts_reported_problems_and_exceptions_as_failed():
    runner = runner_over([outcome(problems=["submitted 100 != finished 98 + unfinished 1"])])
    assert runner.attempt("untraced") is None
    runner.spec = FakeSpec([])  # pop from an empty list raises
    assert runner.attempt("untraced") is None
    assert (runner.attempted, runner.failed) == (2, 2)


def tier_documents():
    chaos = {
        "cache_hits": 0, "cache_misses": 2, "wall_s_total": 1.0,
        "entries": [
            {"requests": 10, "finished": 7, "shed": 1, "lost_to_fault": 2,
             "incomplete": 0, "wall_s": 0.5},
            {"requests": 10, "finished": 10, "shed": 0, "lost_to_fault": 0,
             "incomplete": 0, "wall_s": 0.5},
        ],
    }
    serve = {
        "cache_hits": 0, "cache_misses": 1, "wall_s_total": 1.0,
        "entries": [{"submitted": 5, "finished": 4, "shed": 0, "incomplete": 1,
                     "wall_s": 0.7}],
    }
    cold = {"repro.chaos": chaos, "repro.serve": serve}
    warm = copy.deepcopy(cold)
    for document in warm.values():
        document["cache_hits"] = len(document["entries"])
        document["cache_misses"] = 0
        document["wall_s_total"] = 0.001
        for entry in document["entries"]:
            entry["wall_s"] = 0.0
    tally = workloads.RecordTally()
    tally.finished = 21
    return cold, warm, tally


def test_consistent_tier_documents_pass():
    assert workloads.tier_problems(*tier_documents()) == []


def test_tier_checks_catch_each_kind_of_problem():
    cold, warm, tally = tier_documents()
    cold["repro.chaos"]["entries"][0]["finished"] = 6
    assert any("conserve" in p for p in workloads.tier_problems(cold, warm, tally))

    cold, warm, tally = tier_documents()
    tally.finished = 20
    assert any("collectors" in p for p in workloads.tier_problems(cold, warm, tally))

    cold, warm, tally = tier_documents()
    warm["repro.serve"]["cache_hits"] = 0
    warm["repro.serve"]["cache_misses"] = 1
    assert any("from cache" in p for p in workloads.tier_problems(cold, warm, tally))

    cold, warm, tally = tier_documents()
    warm["repro.chaos"]["entries"][1]["finished"] = 9
    assert any("differs" in p for p in workloads.tier_problems(cold, warm, tally))
