"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` patches public functions and methods of the program
with wrappers that open a span on entry and close it on return.  Spans
stay in memory; :meth:`Tracer.write` dumps them at the end of a run.
:meth:`Tracer.uninstall` puts every original back, so code measured
without a tracer runs unwrapped and pays nothing.

A span's *self time* is its duration minus the durations of its direct
children.  Every traced pass is a root span named ``pass``; its own
self time is the time no layer accounts for (``unattributed_s``), so
the layers' self times plus ``unattributed_s`` add up to the pass wall
time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from typing import Callable, Dict, List

PASS = "pass"

#: span: [name, start, end, parent span or None]
Span = list


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        #: (owner, attribute, original, owner had it in its own dict)
        self._patches: List[tuple] = []

    # ----------------------------------------------------------- spans

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = [name, self.clock(), 0.0, stack[-1] if stack else None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span[2] = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    # -------------------------------------------------------- wrappers

    def wrap_callable(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def replace(self, owner, attr: str, new) -> None:
        had = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr), had))
        setattr(owner, attr, new)

    def patch(self, owner, attr: str, name: str) -> None:
        """Trace calls to ``owner.attr`` (a method or function)."""
        self.replace(owner, attr,
                     self.wrap_callable(getattr(owner, attr), name))

    def patch_function(self, module, attr: str, name: str) -> None:
        """Trace a module-level function everywhere the program holds
        it: in *module* and in every loaded ``repro`` module that
        imported it by name."""
        original = getattr(module, attr)
        traced = self.wrap_callable(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            if getattr(mod, attr, None) is original:
                self.replace(mod, attr, traced)

    def patch_counter(self, module, attr: str,
                      observe: Callable[[object], None]) -> None:
        """Call ``observe(result)`` after each call of a module-level
        function, without opening a span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            observe(result)
            return result

        self.replace(module, attr, counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, had = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -------------------------------------------------------- analysis

    def breakdown(self) -> "Breakdown":
        """Self time per span name, grouped by traced pass."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            parent = span[3]
            if parent is not None:
                key = id(parent)
                child_time[key] = (child_time.get(key, 0.0)
                                   + span[2] - span[1])
        roots: Dict[int, Span] = {}
        per_pass: Dict[int, Dict[str, float]] = {}
        counts: Dict[int, Dict[str, int]] = {}
        for span in self.spans:
            root = span
            while root[3] is not None:
                root = root[3]
            if root[0] != PASS:
                continue
            key = id(root)
            roots[key] = root
            self_time = span[2] - span[1] - child_time.get(id(span), 0.0)
            name = "unattributed_s" if span is root else span[0]
            layers = per_pass.setdefault(key, {})
            layers[name] = layers.get(name, 0.0) + self_time
            calls = counts.setdefault(key, {})
            calls[name] = calls.get(name, 0) + 1
        walls = [roots[key][2] - roots[key][1] for key in roots]
        return Breakdown([per_pass[key] for key in roots],
                         [counts[key] for key in roots], walls)

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        index = {id(span): n for n, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for n, span in enumerate(self.spans):
                parent = span[3]
                handle.write(json.dumps({
                    "id": n, "name": span[0],
                    "start": span[1], "end": span[2],
                    "parent": None if parent is None
                    else index[id(parent)]}) + "\n")


class Breakdown:
    """Per-pass self times and span counts, averaged over passes by
    :meth:`mean` and :meth:`mean_calls`."""

    def __init__(self, passes: List[Dict[str, float]],
                 calls: List[Dict[str, int]], walls: List[float]):
        self.passes = passes
        self.calls = calls
        self.walls = walls

    def mean(self, name: str) -> float:
        if not self.passes:
            return 0.0
        return sum(p.get(name, 0.0) for p in self.passes) / len(self.passes)

    def mean_calls(self, name: str) -> float:
        if not self.calls:
            return 0.0
        return sum(c.get(name, 0) for c in self.calls) / len(self.calls)

    def mean_wall(self) -> float:
        return sum(self.walls) / len(self.walls) if self.walls else 0.0

    def names(self) -> List[str]:
        seen: Dict[str, None] = {}
        for layers in self.passes:
            seen.update(dict.fromkeys(layers))
        return sorted(seen)


class NullTracer:
    """Stands in for a :class:`Tracer` in untraced runs."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null
