"""Every target ``perfbench`` wraps exists in the simulator.

``perfbench/layertrace.py`` marks a layer absent and carries on when a
name it wraps is gone, so renaming, say, ``Autoscaler.tick`` or
``GlobalRouter.route`` would drop that work from the perf gate without
a failure.  These tests load ``perfbench/layers.py`` by path (it imports
only ``typing``) and resolve every target of its three tables the way
the tracer does.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import pathlib

_LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
_spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

# The tracer imports every target module before wrapping, so subclasses
# defined elsewhere are registered when it walks a class tree.
_MODULES = {
    name: importlib.import_module(name)
    for name in sorted(
        {entry[0] for entry in layers.SPANS}
        | {entry[0] for entry in layers.CALLBACK_ARGS}
        | {entry[0] for entry in layers.RETURNED_CALLABLES}
    )
}


def _class_tree(cls: type):
    order, todo = [], [cls]
    while todo:
        klass = todo.pop(0)
        if klass not in order:
            order.append(klass)
            todo.extend(klass.__subclasses__())
    return order


def _defines(cls: type, attr: str) -> bool:
    """Whether the class or a subclass defines ``attr`` (a ``prefix*``
    matches any callable with that prefix), as the tracer selects it."""
    for klass in _class_tree(cls):
        names = vars(klass)
        if attr.endswith("*"):
            if any(n.startswith(attr[:-1]) and callable(v) for n, v in names.items()):
                return True
        elif attr in names:
            return True
    return False


def test_every_span_target_resolves():
    missing = []
    for module_name, owner, attrs in layers.SPANS:
        module = _MODULES[module_name]
        if owner is None:
            missing += [
                f"{module_name}.{a}" for a in attrs if not callable(getattr(module, a, None))
            ]
            continue
        cls = getattr(module, owner, None)
        if not isinstance(cls, type):
            missing.append(f"{module_name}.{owner}")
            continue
        missing += [f"{module_name}.{owner}.{a}" for a in attrs if not _defines(cls, a)]
    assert missing == []


def test_every_callback_target_takes_its_callback_where_the_table_says():
    wrong = []
    for module_name, owner, attr, position, keyword, _ in layers.CALLBACK_ARGS:
        method = getattr(getattr(_MODULES[module_name], owner, None), attr, None)
        if method is None:
            wrong.append(f"{module_name}.{owner}.{attr} is missing")
            continue
        parameters = list(inspect.signature(method).parameters)
        if len(parameters) <= position or parameters[position] != keyword:
            wrong.append(f"{module_name}.{owner}.{attr} takes {parameters}")
    assert wrong == []


def test_every_returned_callable_factory_resolves():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in layers.RETURNED_CALLABLES
        if not callable(getattr(_MODULES[module_name], attr, None))
    ]
    assert missing == []

