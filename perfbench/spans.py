"""In-memory spans around library functions, installed from outside the library.

The package's modules import each other's functions by name
(``from .geometry import mvee``), so wrapping only the defining module would
miss most calls.  ``Tracer.install`` therefore rebinds the name at every
module that holds a reference to the original function object.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a top-level call
    item: int


class Tracer:
    """Records one span per wrapped call plus per-name work counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, work=None, span: bool = True):
        """Wrapper that counts calls of ``fn`` and, if ``span``, times them.

        ``work(args, kwargs, result)`` returns ``(counter, amount)`` pairs that
        are added to ``counts`` under ``name.counter`` after each call.
        """
        counts, stack, spans, clock = self.counts, self._stack, self.spans, time.perf_counter

        if not span:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            rec = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.item)
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if work is not None:
                for counter, amount in work(args, kwargs, result):
                    counts[f"{name}.{counter}"] += amount
            return result

        return spanned

    def install(self, modules, original, wrapper) -> int:
        """Rebind every module attribute that is ``original`` to ``wrapper``.

        Returns the number of lookup sites rebound.
        """
        sites = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
                    sites += 1
        return sites

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(a, s.start), min(b, s.end)) for a, b in children.get(i, ()) if b > s.start and a < s.end
        ]
        out.append((s.end - s.start) - union_length(clipped))
    return out
