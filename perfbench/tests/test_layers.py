import json

import pytest

import layers
import run
from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "repro"


def repro_modules():
    names = []
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_package_has_its_own_table_entry():
    # A new package must be placed in a layer on purpose, not fall into the
    # catch-all ``repro`` entry.
    packages = sorted(p.name for p in PACKAGE.iterdir()
                      if p.is_dir() and (p / "__init__.py").exists())
    modules = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
    missing = [name for name in packages + modules
               if f"repro.{name}" not in layers.MODULE_LAYERS]
    assert missing == []


@pytest.mark.parametrize("module", repro_modules())
def test_every_module_maps_to_a_known_layer(module):
    assert layers.layer_of(module) in layers.LAYERS


def test_table_values_and_targets_are_known_layers():
    assert set(layers.MODULE_LAYERS.values()) <= set(layers.LAYERS)
    for module, _owner, _attrs in layers.SPANS:
        assert layers.layer_of(module) in layers.LAYERS


def test_every_counter_sits_on_a_traced_target():
    targets = {
        (module, f"{owner}.{attr}" if owner else attr)
        for module, owner, attrs in layers.SPANS
        for attr in attrs
    }
    targets.update(layers.RETURNED_CALLABLES)
    assert set(layers.COUNTERS) <= targets


def test_benchmark_json_matches_the_code():
    import workloads

    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        assert workload["why"] == workloads.WORKLOADS[workload["name"]].why
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        metric for metric in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.per_layer_metrics()
    )
