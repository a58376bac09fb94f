"""Single-node oracles, compact answer columns, and latency attribution.

Answers are kept as three parallel columns — window position (or end
timestamp), query index, value — so a run with millions of answers
stays small in memory.  Every oracle runs after the measured phases;
its time is in no metric.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.stream.sink import Sink

from workloads import ENGINE_POOL, FRAME_RECORDS, LATENESS, Workload


class Answers:
    """Answer columns: position/end, query index, value."""

    def __init__(self, time_mode: bool = False, float_values: bool = False):
        self.positions = array("d" if time_mode else "q")
        self.queries = array("B")
        self.values = array("d" if float_values else "q")

    def __len__(self) -> int:
        return len(self.positions)

    def add(self, position, query: int, value) -> None:
        self.positions.append(position)
        self.queries.append(query)
        self.values.append(value)

    def rows(self) -> List[Tuple[Any, int, Any]]:
        return list(zip(self.positions, self.queries, self.values))


def query_specs(workload: Workload) -> Dict[Any, int]:
    """Wire query spec -> query index, as ``encode_answers`` marshals it."""
    specs = {}
    for index, query in enumerate(queries_of(workload)):
        if workload.mode == "time":
            spec = (
                "time", query.range_seconds, query.slide_seconds, query.name
            )
        else:
            spec = (query.range_size, query.slide, query.name)
        specs[spec] = index
    return specs


class CompactSink(Sink):
    """Engine sink writing into :class:`Answers` columns."""

    def __init__(self, answers: Answers, index_of: Dict[Any, int]):
        self.answers = answers
        self._index_of = index_of

    def emit(self, position, query, answer) -> None:
        self.answers.add(position, self._index_of[query], answer)


def queries_of(workload: Workload):
    from repro.windows.query import Query
    from repro.windows.timebased import TimeQuery

    if workload.mode == "time":
        return [TimeQuery(r, s) for r, s in workload.queries]
    return [Query(int(r), int(s)) for r, s in workload.queries]


def count_oracle(workload: Workload, values: Sequence[int]) -> Answers:
    """``StreamEngine`` over the arrival-order stream (count mode)."""
    from repro.operators.registry import get_operator
    from repro.stream.engine import StreamEngine

    queries = queries_of(workload)
    answers = Answers()
    sink = CompactSink(answers, {q: i for i, q in enumerate(queries)})
    engine = StreamEngine(
        queries, get_operator(workload.operator), sinks=[sink]
    )
    for start in range(0, len(values), 4096):
        engine.feed_many(list(values[start : start + 4096]))
    return answers


def time_oracle(
    workload: Workload, timestamps: Sequence[float], values: Sequence[int]
) -> Answers:
    """``EventTimeEngine`` over the timestamp-sorted stream (time mode)."""
    from repro.operators.registry import get_operator
    from repro.stream.engine import EventTimeEngine

    queries = queries_of(workload)
    index_of = {q: i for i, q in enumerate(queries)}
    engine = EventTimeEngine(queries, get_operator(workload.operator))
    answers = Answers(time_mode=True)
    ordered = sorted(zip(timestamps, values))
    for start in range(0, len(ordered), 4096):
        batch = ordered[start : start + 4096]
        for end, query, value in engine.feed_many(batch):
            answers.add(end, index_of[query], value)
    for end, query, value in engine.finish():
        answers.add(end, index_of[query], value)
    return answers


def compare(expected: Answers, got: Answers) -> Optional[str]:
    """``None`` when both hold the same answers, else the first mismatch.

    Emission order may differ only among answers of the same window
    position; values must be equal exactly.
    """
    if (
        expected.positions == got.positions
        and expected.queries == got.queries
        and expected.values == got.values
    ):
        return None
    want = sorted(expected.rows())
    have = sorted(got.rows())
    for index, (a, b) in enumerate(zip(want, have)):
        if a != b:
            return f"answer {index}: expected {a}, got {b}"
    if len(want) != len(have):
        return f"expected {len(want)} answers, got {len(have)}"
    return None


def closing_frames(
    workload: Workload,
    positions: Sequence[Any],
    timestamps: Optional[Sequence[float]] = None,
) -> List[int]:
    """Frame ordinal (among accepted frames) of each answer's closing record.

    ``positions`` are answer positions (count mode) or window ends (time
    mode).  The closing record is, in count mode, the record at the
    answer's position; in time mode, the first record in arrival order
    whose timestamp is at or past the window end plus the lateness
    bound — the arrival that moves the watermark past the window.
    ``timestamps`` are the accepted arrival-order timestamps (time mode).
    """
    size = FRAME_RECORDS
    if workload.mode != "time":
        return [(position - 1) // size for position in positions]
    high = list(accumulate(timestamps, max))
    return [bisect_left(high, end + LATENESS) // size for end in positions]


class PeriodicOracle:
    """Exact answers for an endless cyclic repetition of a pool.

    With values ``pool[(i - 1) % P]`` at position ``i``, ``P`` a
    multiple of every slide and at least every range, the window ending
    at ``p > P`` holds the same values as the one ending at ``p - P``.
    Answers of feed call ``k`` (``chunk`` records each) therefore equal
    those of call ``c + (k - c) % c`` for ``k >= 2c``, with ``c =
    P / chunk``, shifted by whole periods — so running the oracle over
    two periods checks every answer of an arbitrarily long run.
    """

    def __init__(self, workload: Workload, pool: Sequence[float], chunk: int):
        from repro.operators.registry import get_operator
        from repro.stream.engine import StreamEngine

        if ENGINE_POOL % chunk or any(
            ENGINE_POOL % slide or ENGINE_POOL < range_
            for range_, slide in workload.queries
        ):
            raise ValueError(
                "pool must be a multiple of every slide and chunk"
            )
        queries = queries_of(workload)
        engine = StreamEngine(
            queries,
            get_operator(workload.operator),
            mode="independent",
            algorithm="twostacks",
        )
        self.chunk = chunk
        self.cycle = ENGINE_POOL // chunk
        self._index_of = {q: i for i, q in enumerate(queries)}
        self._calls = []
        for call in range(2 * self.cycle):
            answers = Answers(float_values=True)
            engine.sinks = [CompactSink(answers, self._index_of)]
            start = (call % self.cycle) * chunk
            engine.feed_many(pool[start : start + chunk])
            self._calls.append(answers)

    def check(
        self, call: int, emitted: List[Tuple[int, Any, Any]]
    ) -> Optional[str]:
        """Compare one feed call's ``(position, query, value)`` answers."""
        mapped = call
        if call >= 2 * self.cycle:
            mapped = self.cycle + (call - self.cycle) % self.cycle
        shift = (call - mapped) * self.chunk
        expected = self._calls[mapped]
        index_of = self._index_of
        values = array("d", [value for _, _, value in emitted])
        positions = array("q", [p - shift for p, _, _ in emitted])
        queries = array("B", [index_of[q] for _, q, _ in emitted])
        if (
            values == expected.values
            and positions == expected.positions
            and queries == expected.queries
        ):
            return None
        got = Answers(float_values=True)
        for position, query, value in emitted:
            got.add(position - shift, index_of[query], value)
        problem = compare(expected, got)
        if problem is not None:
            return f"feed_many call {call}: {problem}"
        return None
