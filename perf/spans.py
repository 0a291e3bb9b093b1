"""Outside-in spans: wrap a function where its caller looks it up.

:class:`Recorder` keeps spans in memory (name, start, end, parent) and
:class:`Patches` swaps a module or class attribute for a wrapper that
opens a span around the original call, then puts every original back.
Nothing here knows about ``repro``; ``layers`` says what to wrap.

A span's *self time* is its duration minus the part of it that its
child spans cover.  Self times of all spans plus the time outside every
root span add up to the traced wall time; :func:`reconcile` checks it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from typing import Callable, Dict, List, Optional


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: Counts recorded at the boundary (cells, instructions, hits, ...).
    attrs: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """An in-memory span log with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def open(self, name: str) -> Span:
        parent = self.current
        span = Span(
            id=len(self.spans), name=name,
            parent=parent.id if parent else None, start=self.clock(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed while {popped.name!r} was open"
            )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


def _covered(intervals: List[tuple]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span, by span id."""
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.id: span.duration - _covered(children.get(span.id, []))
        for span in spans
    }


def reconcile(spans: List[Span], wall: float) -> Dict[str, float]:
    """Check that span self times and unattributed time add up to
    ``wall`` (the traced region).  Unattributed time is the part of the
    region that no root span covers.  Returns the totals and the
    relative error of the sum."""
    attributed = sum(self_times(spans).values())
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    unattributed = wall - _covered(roots)
    error = abs(attributed + unattributed - wall) / wall if wall else 0.0
    return {
        "attributed_s": attributed,
        "unattributed_s": unattributed,
        "unattributed_frac": unattributed / wall if wall else 0.0,
        "sum_error_frac": error,
    }


_INHERITED = object()


class Patches:
    """Attribute swaps that are undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(
        self,
        owner,
        attr: str,
        recorder: Recorder,
        name,
        on_exit: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a spanned wrapper.

        ``name`` is a span name or a function of the call's
        ``(args, kwargs)`` returning one.  ``on_exit(span, args, kwargs,
        result)`` runs after a call that returned, to record counts.
        Return values and exceptions pass through unchanged."""
        # Restore the raw attribute (a class may hold a descriptor), or
        # delete the wrapper when the attribute was inherited.
        saved = vars(owner).get(attr, _INHERITED)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = recorder.open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                recorder.close(span)
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        self.replace(owner, attr, wrapper, saved)

    def replace(self, owner, attr: str, value, saved=None) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        if saved is None:
            saved = vars(owner).get(attr, _INHERITED)
        self._saved.append((owner, attr, saved))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, saved = self._saved.pop()
            if saved is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
