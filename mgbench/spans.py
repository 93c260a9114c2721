"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is ``(name, layer, start, end, id, parent, rid)``; the spans of
one request share ``rid``.  They are kept in memory, written out once
when the run ends, and folded into per-layer *self time*: a span's
duration minus the part of its interval that its child spans cover.

The untraced run uses a disabled recorder: :meth:`Spans.span` then
returns a shared no-op context and nothing is stored or wrapped.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

_NULL = contextlib.nullcontext("")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    span_id: str
    parent: Optional[str] = None
    rid: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)


class Spans:
    """Span recorder; thread-safe appends, nesting tracked per thread."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_id(self) -> str:
        return f"s{next(self._ids)}"

    def add(self, span: Span) -> None:
        with self._lock:
            self.records.append(span)

    def span(
        self,
        name: str,
        layer: str,
        rid: Optional[str] = None,
        parent: Optional[str] = None,
        **attrs: object,
    ) -> "contextlib.AbstractContextManager[str]":
        """Context manager timing one call; yields the span id."""
        if not self.enabled:
            return _NULL
        return self._timed(name, layer, rid, parent, attrs)

    @contextlib.contextmanager
    def _timed(
        self,
        name: str,
        layer: str,
        rid: Optional[str],
        parent: Optional[str],
        attrs: Dict[str, object],
    ) -> Iterator[str]:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = self.new_id()
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.add(Span(name, layer, start, end, sid, parent, rid, dict(attrs)))

    # -- analysis ------------------------------------------------------
    def _self(self) -> Iterator[Tuple[Span, float]]:
        """Each span with its self time (children's cover subtracted)."""
        children: Dict[str, List[Tuple[float, float]]] = {}
        for s in self.records:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        for s in self.records:
            covered = _covered(s.start, s.end, children.get(s.span_id, []))
            yield s, (s.end - s.start) - covered

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer."""
        out: Dict[str, float] = {}
        for s, secs in self._self():
            out[s.layer] = out.get(s.layer, 0.0) + secs
        return out

    def self_times_of(self, name: str) -> List[float]:
        """Self time of every span with this name."""
        return [secs for s, secs in self._self() if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in sorted(self.records, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")


def _covered(start: float, end: float, intervals: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_s = cur_e = None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= a:
            continue
        if cur_e is None or a > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = a, b
        else:
            cur_e = max(cur_e, b)
    if cur_e is not None:
        total += cur_e - cur_s
    return total
