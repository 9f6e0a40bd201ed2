"""Out-of-tree tracing: wraps the public functions of each layer from outside.

A :class:`Tracer` replaces class or module attributes of the program with
timing wrappers and puts the originals back on :meth:`Tracer.uninstall`.
Nothing in ``src/`` is instrumented.  Two kinds of record are kept:

* **aggregates** (:class:`Stat`) for every wrapped boundary -- call count,
  inclusive time, self time (inclusive time minus the inclusive time of
  wrapped calls made inside it) and, where the boundary returns a success
  flag, how many calls succeeded.  The hot boundaries are called 10^5-10^6
  times per workload, so they keep nothing per call.
* **spans** (name, start, end, parent, job id) only at job and phase
  granularity, held in memory and written out by the caller at the end.

Wrapped calls must all run on one thread at a time (the simulator and the
sweep engine are serial, and the service runs its engine on one executor
thread); the self-time stack is shared.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


class Stat:
    """Aggregate record of one traced boundary."""

    __slots__ = ("calls", "ok", "inclusive", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.ok = 0
        self.inclusive = 0.0
        self.self_time = 0.0


@dataclass
class Span:
    """One job- or phase-level interval."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]


class Tracer:
    """Installs timing wrappers and collects aggregates and spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        self.spans: List[Span] = []
        #: Job id attached to spans opened while a job span is open.
        self.job: Optional[str] = None
        # One child-time accumulator per wrapped call in progress.
        self._stack: List[float] = []
        # Ids of the spans in progress (innermost last).
        self._open: List[int] = []
        self._ids = itertools.count()
        self._patches: List[Tuple[Any, str, Any]] = []

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def export_stats(self) -> Dict[str, List[float]]:
        """The aggregates as JSON-ready ``[calls, ok, inclusive, self]``."""
        return {
            name: [stat.calls, stat.ok, stat.inclusive, stat.self_time]
            for name, stat in self.stats.items()
        }

    def merge_stats(self, exported: Dict[str, List[float]]) -> None:
        """Add aggregates exported by another process's tracer."""
        for name, (calls, ok, inclusive, self_time) in exported.items():
            stat = self.stat(name)
            stat.calls += int(calls)
            stat.ok += int(ok)
            stat.inclusive += inclusive
            stat.self_time += self_time

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        ok: Optional[Callable[[Any], bool]] = None,
        span: bool = False,
        job: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording into ``name``.

        ``owner`` is a class (the attribute must be defined on the class
        itself) or a module.  ``ok(result)`` marks a call as successful;
        ``span`` also records a full span per call; ``job(*args)`` names the
        job the call belongs to (its spans and those nested in it carry the
        id); ``after(args, result)`` observes each completed call.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot wrap {owner!r}.{attr}")
        stat = self.stat(name)
        stack = self._stack
        clock = self.clock
        tracer = self

        if not (span or job or after):
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stat.calls += 1
                    stat.inclusive += elapsed
                    stat.self_time += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                if ok is not None and ok(result):
                    stat.ok += 1
                return result
        else:
            def wrapper(*args, **kwargs):
                outer_job = tracer.job
                if job is not None:
                    tracer.job = job(*args, **kwargs)
                opened = tracer._open_span() if span else None
                stack.append(0.0)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = clock()
                    elapsed = end - start
                    stat.calls += 1
                    stat.inclusive += elapsed
                    stat.self_time += elapsed - stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    if opened is not None:
                        tracer._close_span(opened, name, start, end)
                    tracer.job = outer_job
                if ok is not None and ok(result):
                    stat.ok += 1
                if after is not None:
                    after(args, result)
                return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _open_span(self) -> Tuple[int, Optional[int]]:
        parent = self._open[-1] if self._open else None
        span_id = next(self._ids)
        self._open.append(span_id)
        return span_id, parent

    def _close_span(
        self, opened: Tuple[int, Optional[int]], name: str, start: float, end: float
    ) -> None:
        span_id, parent = opened
        self._open.remove(span_id)
        self.spans.append(Span(span_id, name, start, end, parent, self.job))

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        job: Optional[str] = None,
    ) -> int:
        """Record a finished span explicitly (client-side service jobs)."""
        span_id = next(self._ids)
        self.spans.append(Span(span_id, name, start, end, parent, job))
        return span_id

    def phase(self, name: str) -> "_Phase":
        """Context manager recording one phase span around its body."""
        return _Phase(self, name)

    def span_records(self) -> List[Dict[str, object]]:
        """Every span as a dict, with its self time, ordered by start."""
        own = span_self_times(self.spans)
        return [
            {
                "id": span.id,
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "job": span.job,
                "self": own[span.id],
            }
            for span in sorted(self.spans, key=lambda s: (s.start, s.id))
        ]


class _Phase:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> int:
        self.opened = self.tracer._open_span()
        self.start = self.tracer.clock()
        return self.opened[0]

    def __exit__(self, *exc_info) -> None:
        self.tracer._close_span(self.opened, self.name, self.start, self.tracer.clock())


def span_self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once)."""
    spans = list(spans)
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    own: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        own[span.id] = (span.end - span.start) - covered
    return own
