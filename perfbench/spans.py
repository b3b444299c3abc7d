"""Spans around calls into the program's modules, and their self times.

`Tracer` keeps spans in memory as (name, start, end, parent). `patch`
replaces a function on every loaded `negtext` module that binds it
(callers look functions up in their own module's namespace after
`from .x import f`), or a method on its class, with a wrapper that opens
a span around the call. `restore` undoes every patch.
"""
from __future__ import annotations

import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        # scratch values that span-name callables share, e.g. the current batch
        self.context: dict[str, object] = {}

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def write(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans():
                fh.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0,
                         "parent": parent}
                    )
                    + "\n"
                )


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover.

    `spans` is a sequence of (name, start, end, parent index). Child
    intervals are clipped to the parent and merged before subtracting,
    so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total time and total self time."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, selfs):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def _wrap(tracer: Tracer, fn, name, after=None):
    """`name` is a span name or a callable of the call's arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name(*args, **kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(tracer, result, *args, **kwargs)
        return result

    return wrapper


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op minus a bare one.

    The best of `repeats` rounds each, so the figure is the wrapper's own
    cost, not the machine's noise.
    """

    def noop():
        return None

    wrapped = _wrap(Tracer(), noop, "noop")

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - start)
        return min(times)

    return max(0.0, best(wrapped) - best(noop)) / calls


class Patches:
    """Installed wrappers; `restore` puts every original back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, tracer, module: str, attr: str, name, after=None):
        original = getattr(sys.modules[module], attr)
        wrapper = _wrap(tracer, original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "negtext" and not mod_name.startswith("negtext."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def method(self, tracer, cls, attr: str, name, after=None):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, original, name, after))

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
