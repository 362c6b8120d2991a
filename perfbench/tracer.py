"""Per-layer spans recorded from outside the program.

`Tracer.install()` wraps every public function of the layer modules and
puts the wrapper in place of each binding of the original in the
`charmarch` package: module attributes (which covers names imported into
another module and the re-exports of `charmarch`) and values of
module-level dicts (the CLI command table).  `uninstall()` puts the
originals back.  Spans are kept in memory as
(name, start, end, parent index, job id).
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("sysmodel", "matkit", "canonical", "wellposed", "charsolve",
          "energymon", "cli")


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


class Tracer:
    """Span recorder.  `observers` maps a span name to a callable
    (args, kwargs, result) -> {counter: increment}, run after the call."""

    def __init__(self, observers):
        self.spans = []
        self.counters = {}
        self.job = None
        self._stack = []
        self._observers = observers
        self._patched = []

    def wrap(self, name, fn):
        """`fn` recording a span named `name` per call."""
        observe = self._observers.get(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if observe is not None:
                for key, inc in observe(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + inc
            return result
        return wrapper

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"charmarch.{layer}"]
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "charmarch" and not modname.startswith("charmarch."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((vars(module), attr, obj))
                    setattr(module, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._patched.append((obj, key, val))
                            obj[key] = wrappers[id(val)][1]

    def uninstall(self):
        for table, key, original in reversed(self._patched):
            table[key] = original
        self._patched.clear()

    def self_times(self):
        """{name: (self seconds, calls)} summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            s, n = out.get(name, (0.0, 0))
            out[name] = (s + (end - start) - child[i], n + 1)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
