"""Spans around loccdist's public functions, recorded from outside the package.

`Tracer.install` wraps each target function, method or class attribute and
rebinds the wrapper in every module namespace that holds the original, so
calls through `from .x import y` bindings and calls within a module are both
caught.  Spans (name, start, end, parent span, work unit) are kept in flat
arrays and written out after the run; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import sys
import time
from array import array


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # One entry per span, in start order; a span's id is its index.
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.unit = array("l")
        self._stack: list[int] = []
        self.current_unit = -1
        # name -> values returned by that target's observer, one per call.
        self.observed: dict[str, list] = {}
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn, observe=None):
        """A wrapper of fn that records one span per call under name.

        observe(args, kwargs, result), when given, returns a value stored in
        self.observed[name] for every call that returns.
        """
        idx = self._name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
            self.observed[name] = []
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(idx)
            self.parent.append(stack[-1] if stack else -1)
            self.unit.append(self.current_unit)
            self.end.append(math.nan)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if observe is not None:
                self.observed[name].append(observe(args, kwargs, result))
            return result

        return wrapper

    def install(self, targets: dict, package: str) -> None:
        """Wrap every target of the form "module.function" or "module.Class.attr".

        Modules are resolved under package; a function's wrapper replaces
        every binding of the original in the package's loaded modules.
        """
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for target, observe in targets.items():
            module_name, *path = target.split(".")
            owner = importlib.import_module(f"{package}.{module_name}")
            if len(path) == 1:
                original = getattr(owner, path[0])
                wrapper = self.wrap(target, original, observe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
            elif len(path) == 2:
                cls = getattr(owner, path[0])
                original = cls.__dict__[path[1]]
                setattr(cls, path[1], self.wrap(target, original, observe))
                self._restore.append((cls, path[1], original))
            else:
                raise ValueError(f"cannot resolve trace target {target!r}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        children: dict[int, list[int]] = {}
        for sid, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(sid)
        out = []
        for sid in range(len(self.start)):
            lo, hi = self.start[sid], self.end[sid]
            covered = 0.0
            cursor = lo
            for c in sorted(children.get(sid, ()), key=self.start.__getitem__):
                a, b = max(self.start[c], cursor), min(self.end[c], hi)
                if b > a:
                    covered += b - a
                    cursor = b
            out.append((hi - lo) - covered)
        return out

    def summary(self) -> dict:
        """name -> {"calls", "total_s", "self_s", "durations"} over all spans."""
        out = {
            n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            for n in self.names
        }
        for sid, self_s in enumerate(self.self_times()):
            rec = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += self_s
            rec["durations"].append(dur)
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: [id, name, start, end, parent, unit]."""
        with gzip.open(path, "wt") as fh:
            for sid in range(len(self.start)):
                fh.write(json.dumps([
                    sid, self.names[self.name[sid]], self.start[sid],
                    self.end[sid], self.parent[sid], self.unit[sid],
                ]) + "\n")
