"""Tests for the unified sweep engine (``repro.sweeps``).

Covers the content-hash contract of :class:`SweepTask` (config / seed /
package source / version sensitivity), the on-disk result cache (hit,
miss, invalidation, corrupted-entry recovery, atomicity basics), the
executor (order preservation, inline vs. pooled determinism, cache
integration) and the cgroup-aware worker sizing helper.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import repro
import repro.version as repro_version
from repro.experiments.runner import ExperimentScale
from repro.sweeps import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    SweepTask,
    canonical_json,
    effective_worker_count,
    run_tasks,
    source_fingerprint,
)
from repro.sweeps import executor as executor_module

#: Scale small enough that a real sweep cell completes in under a second.
TINY_SCALE = ExperimentScale(
    name="sweeps-tiny",
    num_instances=2,
    trace_duration_s=5.0,
    drain_timeout_s=5.0,
)


def echo_runner(params, seed):
    """Trivial runner used by the engine tests (importable by workers)."""
    return {"echo": dict(params.get("payload", {})), "seed": seed}


def make_task(payload=None, seed=1, key=None):
    payload = payload if payload is not None else {"x": 1}
    return SweepTask(
        runner="tests.test_sweeps:echo_runner",
        params={"payload": payload},
        key=key if key is not None else {"payload": payload},
        seed=seed,
    )


class TestSourceFingerprint:
    """Every source file of the package is part of every task hash."""

    def test_fingerprint_is_part_of_hash_material(self):
        material = make_task().hash_material()
        assert material["source"] == source_fingerprint()
        assert material["repro_version"] == repro_version.__version__
        assert material["cache_format_version"] == CACHE_FORMAT_VERSION

    def test_fingerprint_is_memoised(self, monkeypatch):
        first = source_fingerprint()

        def unreadable(path):
            raise AssertionError(f"{path} re-read after the first fingerprint")

        monkeypatch.setattr(pathlib.Path, "read_bytes", unreadable)
        assert source_fingerprint() == first

    def test_editing_another_module_changes_the_task_hash(self, tmp_path):
        # The runner lives in repro.sweeps.grid; the edit is to the
        # scheduler it calls into, in a copy of the package.
        shutil.copytree(
            pathlib.Path(repro.__file__).parent,
            tmp_path / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        task = SweepTask(
            runner="repro.sweeps.grid:run_task", params={}, key={"k": 1}
        )

        def content_hash_in_copy() -> str:
            env = dict(os.environ, PYTHONPATH=str(tmp_path))
            out = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "from repro.sweeps import SweepTask; "
                    f"print(SweepTask(runner={task.runner!r}, params={{}}, "
                    "key={'k': 1}).content_hash())",
                ],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            return out.stdout.strip()

        # An unedited copy elsewhere on disk hashes the same as this process.
        assert content_hash_in_copy() == task.content_hash()
        scheduler = tmp_path / "repro" / "engine" / "scheduler.py"
        scheduler.write_text(scheduler.read_text() + "\n# edited\n")
        assert content_hash_in_copy() != task.content_hash()

    def test_fingerprint_survives_hash_randomisation(self):
        # Every new interpreter draws its own string-hash seed; a key that
        # depended on it would make each process miss the whole cache.
        src_dir = str(pathlib.Path(repro.__file__).parents[1])
        task = make_task(payload={"b": 2, "a": 1, "policies": ["vllm", "kunserve"]})

        def hashes_under(hash_seed: int) -> tuple:
            env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=src_dir)
            out = subprocess.run(
                [
                    sys.executable,
                    "-c",
                    "from repro.sweeps import SweepTask, source_fingerprint; "
                    f"print(source_fingerprint(), SweepTask(runner={task.runner!r}, "
                    f"params={{}}, key={task.key!r}, seed={task.seed}).content_hash())",
                ],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            return tuple(out.stdout.split())

        expected = (source_fingerprint(), task.content_hash())
        assert {hashes_under(seed) for seed in (1, 2, 3)} == {expected}

    def test_version_bump_remains_the_manual_override(self, monkeypatch):
        # The source hash refines, not replaces, version invalidation.
        base = make_task().content_hash()
        fingerprint = source_fingerprint()
        monkeypatch.setattr(repro_version, "__version__", "888.0.0")
        assert source_fingerprint() == fingerprint
        assert make_task().content_hash() != base


class TestTaskHash:
    def test_hash_is_stable_and_deterministic(self):
        assert make_task().content_hash() == make_task().content_hash()

    def test_hash_changes_on_config_seed_and_runner(self):
        base = make_task().content_hash()
        assert make_task(payload={"x": 2}).content_hash() != base
        assert make_task(seed=2).content_hash() != base
        other_runner = SweepTask(
            runner="tests.test_sweeps:other", params={}, key={"payload": {"x": 1}}, seed=1
        )
        assert other_runner.content_hash() != base

    def test_hash_changes_on_repro_version_bump(self, monkeypatch):
        base = make_task().content_hash()
        monkeypatch.setattr(repro_version, "__version__", "999.0.0")
        assert make_task().content_hash() != base

    def test_hash_ignores_params_and_label(self):
        # Identity is the JSON key, not the picklable params or the label.
        a = SweepTask(runner="m:f", params={"heavy": object()}, key={"k": 1}, seed=1)
        b = SweepTask(runner="m:f", params={}, key={"k": 1}, seed=1, label="pretty")
        assert a.content_hash() == b.content_hash()

    def test_non_json_key_is_rejected_at_hash_time(self):
        task = SweepTask(runner="m:f", params={}, key={"bad": object()}, seed=1)
        with pytest.raises(TypeError):
            task.content_hash()

    def test_runner_reference_must_name_a_function(self):
        with pytest.raises(ValueError):
            SweepTask(runner="not-a-reference", params={}, key={}, seed=1)

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        assert cache.load(task) is None
        cache.store(task, {"value": 3.25})
        assert cache.load(task) == {"value": 3.25}
        assert cache.stats() == {"hits": 1, "misses": 1, "stores": 1}

    def test_config_and_seed_changes_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(make_task(), {"value": 1})
        assert cache.load(make_task(payload={"x": 2})) is None
        assert cache.load(make_task(seed=9)) is None
        assert cache.load(make_task()) == {"value": 1}

    def test_repro_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.store(make_task(), {"value": 1})
        monkeypatch.setattr(repro_version, "__version__", "999.0.0")
        assert cache.load(make_task()) is None

    def test_corrupted_entry_recovers_to_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        path = cache.store(task, {"value": 1})
        path.write_text("{not json at all")
        assert cache.load(task) is None  # corrupt -> miss
        assert not path.exists()  # ...and the bad entry is gone
        # The executor recomputes and re-stores transparently.
        outcome = run_tasks([task], max_workers=1, cache=cache)
        assert outcome.cache_hits == 0 and outcome.cache_misses == 1
        assert outcome.results[0]["echo"] == {"x": 1}
        assert cache.load(task) == outcome.results[0]

    def test_non_utf8_entry_recovers_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        path = cache.store(task, {"value": 1})
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert cache.load(task) is None
        assert not path.exists()

    def test_wrong_format_version_is_discarded(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = make_task()
        path = cache.store(task, {"value": 1})
        entry = json.loads(path.read_text())
        entry["cache_format_version"] = CACHE_FORMAT_VERSION + 1
        path.write_text(json.dumps(entry))
        assert cache.load(task) is None

    def test_first_store_prunes_entries_of_other_source_fingerprints(self, tmp_path):
        current = tmp_path / f"{source_fingerprint()}-{'0' * 24}.json"
        stale = tmp_path / f"{'f' * 16}-{'0' * 24}.json"
        for path in (current, stale):
            path.write_text("{}")
        ResultCache(tmp_path).store(make_task(), {"value": 1})
        assert current.exists() and not stale.exists()

    def test_clear_purges_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(make_task(), {"value": 1})
        cache.store(make_task(seed=2), {"value": 2})
        assert cache.clear() == 2
        assert cache.load(make_task()) is None

    def test_unwritable_cache_degrades_to_uncached_execution(self, tmp_path):
        # A cache root that cannot exist (its parent is a regular file):
        # mkdir/replace raise OSError for any user, root included.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")
        task = make_task()
        assert cache.store(task, {"value": 1}) is None  # no raise
        outcome = run_tasks([task], max_workers=1, cache=cache)
        assert outcome.results[0]["echo"] == {"x": 1}

    def test_model_architecture_is_part_of_the_cell_key(self):
        import dataclasses as dc

        from repro.scenarios.grid import GRID
        from repro.sweeps.grid import build_cell_config, cell_task, materialise

        cell = materialise(GRID, {"scenario": "steady-poisson", "policy": "vllm"}, TINY_SCALE, 1)
        base = cell_task(cell).content_hash()
        spec = dc.replace(
            cell.spec, model=dc.replace(cell.spec.model, num_layers=cell.spec.model.num_layers + 1)
        )
        # Same scenario name, other architecture: the materialised config
        # carries the model, so the key changes with it.
        other = dc.replace(cell, spec=spec, config=build_cell_config(spec, TINY_SCALE, seed=1))
        assert cell_task(other).content_hash() != base

    def test_default_dir_honours_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        cache = ResultCache()
        assert cache.root == tmp_path / "elsewhere"


class TestExecutor:
    def test_results_come_back_in_task_order(self, tmp_path):
        tasks = [make_task(payload={"x": i}, seed=i) for i in range(5)]
        outcome = run_tasks(tasks, max_workers=1)
        assert [r["echo"]["x"] for r in outcome.results] == list(range(5))
        assert outcome.cache_hits == 0 and outcome.cache_misses == 5

    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [make_task(payload={"x": i}, seed=i) for i in range(3)]
        cold = run_tasks(tasks, max_workers=1, cache=cache)
        warm = run_tasks(tasks, max_workers=1, cache=cache)
        assert cold.cache_misses == 3 and warm.cache_hits == 3
        assert warm.results == cold.results

    def test_partial_invalidation_recomputes_only_changed_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = [make_task(payload={"x": i}, seed=i) for i in range(3)]
        run_tasks(tasks, max_workers=1, cache=cache)
        changed = [tasks[0], make_task(payload={"x": 99}, seed=1), tasks[2]]
        outcome = run_tasks(changed, max_workers=1, cache=cache)
        assert outcome.cache_hits == 2 and outcome.cache_misses == 1
        assert outcome.results[1]["echo"] == {"x": 99}

    def test_equal_tasks_run_once_and_count_per_task(self, tmp_path, monkeypatch):
        ran = []
        execute = executor_module.execute_task
        monkeypatch.setattr(
            executor_module, "execute_task", lambda task: ran.append(task) or execute(task)
        )
        cache = ResultCache(tmp_path)
        tasks = [make_task(payload={"x": x}) for x in (1, 2, 1)]
        cold = run_tasks(tasks, max_workers=1, cache=cache)
        assert len(ran) == 2
        assert (cold.cache_hits, cold.cache_misses) == (0, 3)
        assert cold.results[2] == cold.results[0] and cold.results[2] is not cold.results[0]
        warm = run_tasks(tasks, max_workers=1, cache=cache)
        assert len(ran) == 2
        assert (warm.cache_hits, warm.cache_misses) == (3, 0)
        assert warm.results == cold.results

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_tasks([make_task()], max_workers=0)

    def test_pooled_execution_matches_inline(self, tmp_path):
        # Real simulator cells through the shared warm pool: same payloads
        # as inline execution, in the same order.
        from repro.scenarios.grid import GRID
        from repro.sweeps.grid import cell_task, grid_cells

        _, cells = grid_cells(
            GRID, TINY_SCALE, 3, scenarios=["steady-poisson"], policies=["vllm", "kunserve"]
        )
        tasks = [cell_task(cell) for cell in cells]
        inline = run_tasks(tasks, max_workers=1)
        pooled = run_tasks(tasks, max_workers=2)
        # wall_s and the profile block are wall-clock measurements — the
        # only payload fields allowed to differ between executions.
        strip = lambda cell: {
            k: v for k, v in cell.items() if k not in ("wall_s", "profile")
        }
        assert [strip(c) for c in inline.results] == [strip(c) for c in pooled.results]

    def test_explicit_worker_cap_survives_a_larger_shared_pool(self):
        # A pre-existing bigger warm pool must not oversubscribe a later
        # call's explicit max_workers: execution goes through the bounded
        # window, and results still come back complete and in order.
        executor_module.shared_pool(3)
        tasks = [make_task(payload={"x": i}, seed=10 + i) for i in range(5)]
        outcome = run_tasks(tasks, max_workers=2)
        assert [r["echo"]["x"] for r in outcome.results] == list(range(5))
        executor_module.shutdown_shared_pool()

    def test_shared_pool_is_reused_between_sweeps(self):
        first = executor_module.shared_pool(2)
        second = executor_module.shared_pool(2)
        assert first is second
        smaller = executor_module.shared_pool(1)
        assert smaller is first  # shrinking reuses the warm pool
        larger = executor_module.shared_pool(3)
        assert larger is not first  # growing recreates it
        executor_module.shutdown_shared_pool()


class TestWorkerSizing:
    def test_effective_worker_count_is_positive(self):
        assert effective_worker_count() >= 1

    def test_cgroup_quota_clamps(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_cgroup_cpu_quota", lambda: 1)
        assert effective_worker_count() == 1

    def test_cgroup_v2_parsing(self, monkeypatch):
        readings = {"/sys/fs/cgroup/cpu.max": "150000 100000"}
        monkeypatch.setattr(
            executor_module, "_read_sys_file", lambda path: readings.get(path)
        )
        assert executor_module._cgroup_cpu_quota() == 2  # ceil(1.5)
        readings["/sys/fs/cgroup/cpu.max"] = "max 100000"
        assert executor_module._cgroup_cpu_quota() is None


class TestGrid:
    """The grid engine's validation pass, on every command's grid."""

    @staticmethod
    def grids():
        from repro.chaos.grid import GRID as CHAOS
        from repro.fleet.grid import GRID as FLEET
        from repro.multicluster.grid import GRID as MULTICLUSTER
        from repro.scenarios.grid import GRID as SCENARIOS
        from repro.serve.grid import GRID as SERVE

        return (SCENARIOS, FLEET, MULTICLUSTER, CHAOS, SERVE)

    def test_repeated_axis_values_are_rejected_on_every_grid(self):
        from repro.sweeps.grid import grid_cells, run_grid

        for grid in self.grids():
            for axis in grid.axes:
                value = axis.defaults()[0]
                with pytest.raises(ValueError, match="repeated"):
                    grid_cells(grid, TINY_SCALE, **{axis.name: [value, value]})
            # Nothing runs: the check comes before the first cell.
            with pytest.raises(ValueError, match="repeated"):
                run_grid(grid, scale=TINY_SCALE, scenarios=["spike-train"] * 2)
        # Values repeat once canonicalised, too.
        with pytest.raises(ValueError, match="repeated"):
            grid_cells(self.grids()[-1], TINY_SCALE, clients=[4, "4"])

    def test_a_scenario_policy_set_that_repeats_is_rejected(self, monkeypatch):
        import dataclasses as dc

        from repro.scenarios import get_scenario
        from repro.scenarios import registry as registry_module
        from repro.sweeps.grid import grid_cells

        twice = dc.replace(
            get_scenario("steady-poisson"), name="policy-twice", policies=("vllm", "vllm")
        )
        monkeypatch.setitem(registry_module._REGISTRY, twice.name, twice)
        with pytest.raises(ValueError, match="repeated"):
            grid_cells(self.grids()[0], TINY_SCALE, scenarios=["policy-twice"])

    @pytest.mark.parametrize("registry", ["routers", "global_routers", "placements", "scenarios"])
    def test_each_registry_is_keyed_by_its_entries_names(self, registry):
        from repro.fleet import routing
        from repro.multicluster import placement
        from repro.multicluster import routing as global_routing
        from repro.scenarios import registry as scenarios

        entries, listed = {
            "routers": (routing._ROUTERS, routing.list_routers),
            "global_routers": (global_routing._GLOBAL_ROUTERS, global_routing.list_global_routers),
            "placements": (placement._PLACEMENTS, placement.list_placements),
            "scenarios": (scenarios._REGISTRY, scenarios.list_scenarios),
        }[registry]
        assert list(entries) == listed()
        assert [entry.name for entry in entries.values()] == listed()

    def test_unknown_axis_keywords_are_rejected(self):
        from repro.sweeps.grid import run_grid

        for grid in self.grids():
            with pytest.raises(TypeError):
                run_grid(grid, scale=TINY_SCALE, no_such_axis=["x"])
