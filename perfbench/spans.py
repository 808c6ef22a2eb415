"""In-memory span recorder for the traced benchmark run.

A span is one timed call: a name, a start and an end (``perf_counter``
seconds), the span that was open when it started, and the request it
belongs to (the root span's id).  The open span lives in a
:class:`contextvars.ContextVar`, so each thread (and each asyncio task)
sees only its own parents.  Spans are kept in flat arrays while the run
executes, a few dozen bytes each; self times are computed afterwards,
once, by :func:`self_time_columns`.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float
    request: int  # the id of the root span this span belongs to


class Tracer:
    """Records spans and counters for one traced run.

    Args:
        max_spans: Recording stops once this many spans are kept, so a
            long traced phase cannot exhaust memory; :attr:`full` tells
            the load loop to end the phase.
    """

    def __init__(self, max_spans: int = 1_000_000):
        self.max_spans = max_spans
        self.counts: dict[str, float] = defaultdict(float)
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._columns = self._empty()
        # (open span id, request id) of the calling context.
        self._current = contextvars.ContextVar("perfbench_span", default=(0, 0))

    @staticmethod
    def _empty() -> tuple[array, ...]:
        # id, parent, name code, start, end, request
        return (array("q"), array("q"), array("H"), array("d"), array("d"), array("q"))

    def __len__(self) -> int:
        return len(self._columns[0])

    @property
    def full(self) -> bool:
        return len(self) >= self.max_spans

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``.

        A call made with no span open starts a new request: the span is a
        root and its id becomes the request id of every span under it.
        """
        code = self._code(name)
        parent, request = self._current.get()
        span_id = next(self._ids)
        request = request or span_id
        token = self._current.set((span_id, request))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._current.reset(token)
            ids, parents, codes, starts, ends, requests = self._columns
            if len(ids) < self.max_spans:
                ids.append(span_id)
                parents.append(parent)
                codes.append(code)
                starts.append(start)
                ends.append(end)
                requests.append(request)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span named ``name``.

        The wrapper is a plain function, so it also works as a method
        when stored on a class (``self`` arrives as the first argument).
        """
        call = self.call

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return call(name, fn, *args, **kwargs)

        return traced

    def add(self, counter: str, value: float = 1.0) -> None:
        self.counts[counter] += value

    @property
    def spans(self) -> list[Span]:
        names = self.names
        return [
            Span(span_id, parent, names[code], start, end, request)
            for span_id, parent, code, start, end, request in zip(*self._columns)
        ]

    def keep(self, requests: set[int]) -> None:
        """Drop every span outside the given requests."""
        kept = self._empty()
        for row in zip(*self._columns):
            if row[5] in requests:
                for column, value in zip(kept, row):
                    column.append(value)
        self._columns = kept

    def columns(self) -> tuple[array, ...]:
        """(ids, parents, name codes, starts, ends, requests); name codes
        index :attr:`names`."""
        return self._columns

    def write(self, path: str | Path) -> None:
        """Write every span as one JSON line (id, parent, name, start,
        end, request)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def self_time_columns(
    ids: Iterable[int],
    parents: Iterable[int],
    starts: Iterable[float],
    ends: Iterable[float],
) -> list[float]:
    """Each span's duration minus the time its child spans cover, in
    input order.

    Children that overlap each other (a fan-out on threads) are merged
    first, so overlapping time is subtracted once; a child reaching past
    its parent is clipped to the parent's interval.
    """
    ids, parents, starts, ends = list(ids), list(parents), list(starts), list(ends)
    position = {span_id: index for index, span_id in enumerate(ids)}
    children: dict[int, list[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent in position:
            children[position[parent]].append(index)
    result = [end - start for start, end in zip(starts, ends)]
    for index, kids in children.items():
        start, end = starts[index], ends[index]
        intervals = sorted(
            (max(starts[kid], start), min(ends[kid], end)) for kid in kids
        )
        covered = 0.0
        run_start = run_end = None
        for child_start, child_end in intervals:
            if child_end <= child_start:
                continue
            if run_end is None or child_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = child_start, child_end
            else:
                run_end = max(run_end, child_end)
        if run_end is not None:
            covered += run_end - run_start
        result[index] -= covered
    return result

