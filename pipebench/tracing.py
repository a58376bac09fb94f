"""Span tracing installed from the benchmark's own files.

Only the traced run installs anything.  The ``install_*`` functions
wrap public entry points of each layer and patch every name where its
caller looks it up (a module global for functions imported by name,
the class attribute for methods), so the program itself is unchanged.
Spans hold a name, start, end and parent span, live in per-thread
in-memory columns, and are written out once when the process ends.

A span's self time is its duration minus the part of that interval
its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Collect spans per thread plus a few counters, in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[Dict[str, Any]] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _columns(self) -> Dict[str, Any]:
        columns = getattr(self._local, "columns", None)
        if columns is None:
            columns = {
                "thread": threading.current_thread().name,
                "name": array("i"),
                "start": array("d"),
                "end": array("d"),
                "parent": array("i"),
                "stack": [],
            }
            self._local.columns = columns
            with self._lock:
                self._threads.append(columns)
        return columns

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter (spans record time, counters record work)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        """Keep the largest value seen for ``name``."""
        with self._lock:
            if value > self.counters.get(name, 0):
                self.counters[name] = value

    def wrap(
        self,
        name: str,
        function: Callable,
        name_of: Optional[Callable[..., str]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``function`` recording one span per call.

        ``name_of(*args)`` picks the span name per call when given;
        ``after(result, *args)`` runs once the span has closed, so its
        own cost is not charged to the span.
        """
        fixed = self._name_id(name)
        name_id = self._name_id
        columns_of = self._columns
        clock = time.perf_counter

        def traced(*args, **kwargs):
            columns = columns_of()
            stack = columns["stack"]
            index = len(columns["start"])
            columns["name"].append(
                fixed if name_of is None else name_id(name_of(*args))
            )
            columns["parent"].append(stack[-1] if stack else -1)
            columns["end"].append(0.0)
            stack.append(index)
            columns["start"].append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                columns["end"][index] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = function
        return traced

    def dump(self) -> Dict[str, Any]:
        """Every span and counter as one JSON-ready document."""
        with self._lock:
            threads = list(self._threads)
            counters = dict(self.counters)
            names = list(self.names)
        return {
            "names": names,
            "counters": counters,
            "threads": [
                {
                    "thread": columns["thread"],
                    "name": columns["name"].tolist(),
                    "start": columns["start"].tolist(),
                    "end": columns["end"].tolist(),
                    "parent": columns["parent"].tolist(),
                }
                for columns in threads
            ],
        }

    def write(self, path) -> None:
        """Write :meth:`dump` to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.dump(), handle)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def wrap(self, recorder, owner, attribute, name, **options) -> None:
        original = getattr(owner, attribute)
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(name, original, **options))

    def undo(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install_server(recorder: SpanRecorder) -> Patches:
    """Wrap the server-process layers: protocol, gateway, router,
    reorder buffer, transport encode, shard fold and merge."""
    from repro.net import server
    from repro.net.protocol import FrameType
    from repro.service.gateway import ServiceGateway
    from repro.service.merge import EventTimeMerger, GlobalMerger
    from repro.service.partition import Router
    from repro.service.shard import ShardState
    from repro.service.transport.shm import ShardChannel
    from repro.stream.outoforder import TimestampReorderBuffer

    patches = Patches()
    patches.wrap(
        recorder, server, "try_decode_frame_traced", "net.protocol.decode"
    )
    patches.wrap(
        recorder, server, "encode_answers", "net.protocol.encode_answers"
    )
    patches.wrap(
        recorder, server, "encode_frame", "net.server.encode_reply",
        name_of=lambda frame_type, *rest: (
            "net.protocol.encode_answers_frame"
            if frame_type is FrameType.ANSWERS
            else "net.server.encode_reply"
        ),
    )
    for method in ("submit_many", "submit_events", "submit_column"):
        patches.wrap(
            recorder, ServiceGateway, method, "service.gateway.submit"
        )
    patches.wrap(
        recorder, ServiceGateway, "poll_traced", "service.gateway.poll"
    )
    for method in ("put", "put_many", "put_column", "put_event", "flush"):
        patches.wrap(recorder, Router, method, "service.partition")

    def buffered(result, buffer, *rest):
        recorder.high_water("stream.outoforder.buffered", len(buffer))

    for method in ("push_into", "push_many_into"):
        patches.wrap(
            recorder, TimestampReorderBuffer, method, "stream.outoforder",
            after=buffered,
        )

    def encoded(result, channel, batch):
        recorder.count("service.transport.bytes", len(result[0]))
        recorder.count("service.transport.records", len(batch))

    patches.wrap(
        recorder, ShardChannel, "encode_batch", "service.transport.encode",
        after=encoded,
    )
    patches.wrap(recorder, ShardState, "process", "service.shard.fold")

    def merged(result, *rest):
        recorder.count("service.merge.answers", len(result))

    for merger in (GlobalMerger, EventTimeMerger):
        patches.wrap(
            recorder, merger, "on_output", "service.merge", after=merged
        )
    return patches


def install_client(recorder: SpanRecorder) -> Patches:
    """Wrap the generator's client encode (``encode_frame`` and
    ``pack_column`` as the client module looks them up)."""
    from repro.net import client

    def sent(result, *rest):
        recorder.count("net.client.bytes", len(result))

    patches = Patches()
    patches.wrap(
        recorder, client, "encode_frame", "net.client.encode", after=sent
    )
    patches.wrap(
        recorder, client, "pack_column", "net.client.pack_column"
    )
    return patches


def install_engine(recorder: SpanRecorder) -> Patches:
    """Wrap ``StreamEngine.feed_many`` for the in-process workload."""
    from repro.stream.engine import StreamEngine

    patches = Patches()
    patches.wrap(
        recorder, StreamEngine, "feed_many", "stream.engine.feed_many"
    )
    return patches


# -- analysis -------------------------------------------------------


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children are clipped to their parent's interval and overlapping
    children are merged first, so a covered instant is subtracted once.
    """
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = start
        ordered = sorted(children.get(index, ()), key=starts.__getitem__)
        for child in ordered:
            low = max(starts[child], reach)
            high = min(ends[child], end)
            if high > low:
                covered += high - low
                reach = high
        result.append((end - start) - covered)
    return result


def quantile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(fraction * len(ordered) + 0.5) - 1
    rank = max(0, min(len(ordered) - 1, rank))
    return ordered[rank]


def span_table(dump: Dict[str, Any]) -> Dict[str, Any]:
    """Per span name: calls, total, self time and duration quantiles.

    ``"spans"`` maps each name to its figures; ``"threads"`` gives each
    thread's summed self time.
    """
    names = dump["names"]
    durations: Dict[str, List[float]] = {}
    selfs: Dict[str, float] = {}
    threads = []
    for thread in dump["threads"]:
        own = self_times(thread["start"], thread["end"], thread["parent"])
        threads.append(
            {
                "thread": thread["thread"],
                "self_s": sum(own),
            }
        )
        for name_id, start, end, spent in zip(
            thread["name"], thread["start"], thread["end"], own
        ):
            name = names[name_id]
            durations.setdefault(name, []).append(end - start)
            selfs[name] = selfs.get(name, 0.0) + spent
    spans = {
        name: {
            "calls": len(values),
            "total_s": sum(values),
            "self_s": selfs[name],
            "p50_ms": quantile(values, 0.50) * 1e3,
            "p99_ms": quantile(values, 0.99) * 1e3,
        }
        for name, values in durations.items()
    }
    return {"spans": spans, "threads": threads}
