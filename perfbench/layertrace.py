"""A layer tracer installed from outside the simulator.

:class:`LayerTracer` replaces the public functions and methods listed in
:mod:`layers` with wrappers that record one span per call: name, start,
end and parent (the span open when the call began).  Spans live in flat
arrays for the life of one traced run; :meth:`LayerTracer.split` turns
them into per-layer self time (a span's duration minus the part its
child spans cover) and call counts.  Everything is restored on
:meth:`LayerTracer.uninstall`, so the untraced runs of the same process
execute the simulator's own code.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import layers as layer_table

#: Name of the root span: its self time is the residual no span covers.
ROOT = "other:root"

#: Attribute marking a callback this tracer already wrapped.
_TRACED = "__perfbench_traced__"


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    Spans come from one thread of synchronous calls, so children are
    disjoint and nested inside their parent; ``parents[i]`` is the index of
    span ``i``'s parent, or ``-1`` for a root.
    """
    durations = ends - starts
    nested = parents >= 0
    covered = np.bincount(
        parents[nested], weights=durations[nested], minlength=len(durations)
    )
    return durations - covered


def _qualname(fn: Any) -> Tuple[str, str]:
    target = getattr(fn, "__func__", fn)
    module = getattr(target, "__module__", None) or type(target).__module__
    name = getattr(target, "__qualname__", None) or type(target).__qualname__
    return module, name


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_layers: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._code_ids: Dict[Any, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self._stack: List[int] = [-1]
        self.counts: Counter = Counter()
        #: layers with at least one wrap target missing from the code.
        self.absent: List[str] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop recorded spans and counts (in place: wrappers hold them)."""
        del self.starts[:]
        del self.ends[:]
        del self.parents[:]
        del self.name_ids[:]
        del self._stack[1:]
        self.counts.clear()

    def name_id(self, name: str, layer: Optional[str] = None) -> int:
        """Id of a span name ``module:qualname``; its layer comes from the module."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._name_ids[name] = nid
            self.names.append(name)
            if layer is None:
                layer = layer_table.layer_of(name.partition(":")[0]) or "other"
            self.name_layers.append(layer)
        return nid

    def _spanned(
        self,
        fn: Callable,
        nid: int,
        counters: Sequence[Tuple[str, Callable]] = (),
    ) -> Callable:
        starts, ends, parents, names = self.starts, self.ends, self.parents, self.name_ids
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            for metric, count in counters:
                counts[metric] += count(args, result)
            return result

        return span

    def traced_callback(self, callback: Callable, event: bool = False) -> Callable:
        """``callback`` wrapped in a span named by its defining module."""
        if getattr(callback, _TRACED, False):
            return callback
        target = getattr(callback, "__func__", callback)
        key = getattr(target, "__code__", None) or type(target)
        nid = self._code_ids.get(key)
        if nid is None:
            module, name = _qualname(callback)
            nid = self._code_ids[key] = self.name_id(f"{module}:{name}")
        counters = []
        metric = layer_table.CALLBACK_COUNTERS.get(self.names[nid].partition(":")[0])
        if metric is not None:
            counters.append((metric, layer_table.one))
        if event:
            counters.append((layer_table.EVENTS_COUNTER, layer_table.one))
        wrapped = self._spanned(callback, nid, counters)
        setattr(wrapped, _TRACED, True)
        return wrapped

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call ``fn`` under the root span."""
        return self._spanned(fn, self.name_id(ROOT, "other"))()

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target in :mod:`layers` that exists in the code."""
        # Import every target module before wrapping anything: a module
        # imported later that binds a wrapped function by name would keep
        # the wrapper after :meth:`uninstall`.
        module_names = {entry[0] for entry in layer_table.SPANS}
        module_names.update(entry[0] for entry in layer_table.CALLBACK_ARGS)
        module_names.update(entry[0] for entry in layer_table.RETURNED_CALLABLES)
        for module_name in sorted(module_names):
            try:
                importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, owner, attrs in layer_table.SPANS:
            for attr in attrs:
                key = (module_name, f"{owner}.{attr}" if owner else attr)
                counters = layer_table.COUNTERS.get(key, ())
                self._install_target(module_name, owner, attr, counters)
        for module_name, owner, attr, position, keyword, event in layer_table.CALLBACK_ARGS:
            self._install_target(
                module_name, owner, attr, (), callback_arg=(position, keyword, event)
            )
        for module_name, attr in layer_table.RETURNED_CALLABLES:
            counters = layer_table.COUNTERS.get((module_name, attr), ())
            self._install_target(module_name, None, attr, (), returns=counters)

    def _install_target(
        self,
        module_name: str,
        owner: Optional[str],
        attr: str,
        counters: Sequence[Tuple[str, Callable]],
        *,
        callback_arg: Optional[Tuple[int, str, bool]] = None,
        returns: Optional[Sequence[Tuple[str, Callable]]] = None,
    ) -> None:
        layer = layer_table.layer_of(module_name) or "other"
        module = sys.modules.get(module_name)
        if module is None:
            self._mark_absent(layer, f"{module_name} (module)")
            return
        if owner is None:
            fn = getattr(module, attr, None)
            if not callable(fn):
                self._mark_absent(layer, f"{module_name}.{attr}")
                return
            self._rebind_function(fn, self._wrapper(fn, counters, callback_arg, returns))
            return
        cls = getattr(module, owner, None)
        if not isinstance(cls, type):
            self._mark_absent(layer, f"{module_name}.{owner}")
            return
        found = False
        for klass in self._class_tree(cls):
            for name in self._select(klass, attr):
                raw = klass.__dict__[name]
                if isinstance(raw, (staticmethod, classmethod)):
                    fn = raw.__func__
                    new = type(raw)(self._wrapper(fn, counters, callback_arg, returns))
                elif callable(raw):
                    new = self._wrapper(raw, counters, callback_arg, returns)
                else:
                    continue
                self._patches.append((klass, name, raw))
                setattr(klass, name, new)
                found = True
        if not found:
            self._mark_absent(layer, f"{module_name}.{owner}.{attr}")

    @staticmethod
    def _class_tree(cls: type) -> List[type]:
        seen, order, todo = set(), [], [cls]
        while todo:
            klass = todo.pop(0)
            if klass in seen:
                continue
            seen.add(klass)
            order.append(klass)
            todo.extend(klass.__subclasses__())
        return order

    @staticmethod
    def _select(klass: type, attr: str) -> List[str]:
        if attr.endswith("*"):
            prefix = attr[:-1]
            return [
                name for name, value in klass.__dict__.items()
                if name.startswith(prefix) and callable(value)
            ]
        return [attr] if attr in klass.__dict__ else []

    def _wrapper(self, fn, counters, callback_arg, returns) -> Callable:
        module, name = _qualname(fn)
        span = self._spanned(fn, self.name_id(f"{module}:{name}"), counters)
        if callback_arg is not None:
            position, keyword, event = callback_arg
            traced = self.traced_callback

            def with_traced_callback(*args, **kwargs):
                if len(args) > position:
                    args = list(args)
                    args[position] = traced(args[position], event)
                elif keyword in kwargs:
                    kwargs[keyword] = traced(kwargs[keyword], event)
                return span(*args, **kwargs)

            return functools.wraps(fn)(with_traced_callback)
        if returns is not None:
            def with_traced_result(*args, **kwargs):
                made = span(*args, **kwargs)
                made_module, made_name = _qualname(made)
                nid = self.name_id(f"{made_module}:{made_name}")
                return self._spanned(made, nid, returns)

            return functools.wraps(fn)(with_traced_result)
        return span

    def _rebind_function(self, fn: Callable, wrapper: Callable) -> None:
        # Modules that imported the function by name hold their own reference.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, key, fn))
                    setattr(module, key, wrapper)

    def _mark_absent(self, layer: str, target: str) -> None:
        if layer not in self.absent:
            self.absent.append(layer)
        print(f"layer trace: {target} not found; {layer} marked absent", file=sys.stderr)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def split(self) -> Dict[str, float]:
        """Per-layer ``self_s`` and ``calls`` plus the counters, for the
        spans recorded since the last :meth:`reset`."""
        layer_index = {layer: i for i, layer in enumerate(layer_table.LAYERS)}
        name_layer = np.array(
            [layer_index[layer] for layer in self.name_layers], dtype=np.int64
        )
        names = np.frombuffer(self.name_ids, dtype=np.int64)
        span_layers = name_layer[names] if len(names) else names
        own = self_times(
            np.frombuffer(self.starts),
            np.frombuffer(self.ends),
            np.frombuffer(self.parents, dtype=np.int64),
        )
        size = len(layer_table.LAYERS)
        self_s = np.bincount(span_layers, weights=own, minlength=size)
        root = self._name_ids.get(ROOT)
        not_root = names != root if root is not None else np.ones(len(names), bool)
        calls = np.bincount(span_layers[not_root], minlength=size)
        result: Dict[str, float] = {}
        for layer, i in layer_index.items():
            result[f"{layer}.self_s"] = float(self_s[i])
            if layer != "other":
                result[f"{layer}.calls"] = float(calls[i])
        for name in layer_table.counter_units():
            result[name] = float(self.counts.get(name, 0))
        return result
