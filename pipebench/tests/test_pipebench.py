"""Smoke-scale tests of the pipeline benchmark's own machinery.

Run from the root of a checkout::

    python3 -m pytest pipebench/tests -q
"""

from __future__ import annotations

import sys
from array import array
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import paths  # noqa: E402,F401  (puts src/ on sys.path)

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from loadgen import Session, run_capacity  # noqa: E402
from procs import ServerProcess  # noqa: E402
from workloads import (  # noqa: E402
    EVENT_TICK,
    FRAME_RECORDS,
    LATENESS,
    MAX_DISPLACEMENT,
    WORKLOADS,
    engine_pool,
    generate,
)


# -- self time ------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert tracing.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # Children overlap each other and run past the parent's end.
    starts = [0.0, 1.0, 2.0, 8.0]
    ends = [10.0, 5.0, 6.0, 12.0]
    parents = [-1, 0, 0, 0]
    own = tracing.self_times(starts, ends, parents)
    # Covered: [1, 6] and [8, 10] -> 7 of the root's 10 seconds.
    assert own[0] == pytest.approx(3.0)


def test_recorder_spans_nest_and_self_times_fit_in_wall():
    recorder = tracing.SpanRecorder()

    def inner():
        return 1

    traced_inner = recorder.wrap("inner", inner)

    def outer():
        return traced_inner() + traced_inner()

    assert recorder.wrap("outer", outer)() == 2
    table = tracing.span_table(recorder.dump())
    spans = table["spans"]
    assert spans["outer"]["calls"] == 1
    assert spans["inner"]["calls"] == 2
    assert spans["outer"]["self_s"] <= spans["outer"]["total_s"]
    assert not run.wall_check("test", table, spans["outer"]["total_s"])


def _table(*threads):
    """A span table over threads given as ``(start, end, parent)`` lists."""
    return tracing.span_table(
        {
            "names": ["layer"],
            "counters": {},
            "threads": [
                {
                    "thread": f"t{index}",
                    "name": [0] * len(spans),
                    "start": [start for start, _, _ in spans],
                    "end": [end for _, end, _ in spans],
                    "parent": [parent for _, _, parent in spans],
                }
                for index, spans in enumerate(threads)
            ],
        }
    )


def test_wall_check_fails_when_layer_self_times_pass_wall_time():
    # Two threads each 6 s inside a layer during a 10 s pass: 12 s of
    # self time cannot fit, so the spans double-count.
    table = _table([(0.0, 6.0, -1)], [(3.0, 9.0, -1)])
    assert run.wall_check("server", table, 10.0)
    assert run.wall_check("server", table, 11.5, tolerance=0.0)
    # Nested spans on one thread count once.
    nested = _table([(0.0, 6.0, -1), (1.0, 5.0, 0)])
    assert run.wall_check("server", nested, 6.0) == []
    # The tolerance admits the GIL's hand-off overlap, no more.
    assert run.wall_check("server", table, 11.0, tolerance=0.10) == []


def test_cross_check_tolerates_histogram_overhead_only():
    # The histogram brackets the call, so spans a little below pass...
    assert run.cross_check([("merge", 0.85, 1.0)]) == []
    # ...but spans past it (double counting) or far below it fail.
    assert run.cross_check([("merge", 1.2, 1.0)])
    assert run.cross_check([("merge", 0.3, 1.0)])


def test_host_slowdown_uses_the_samples_inside_each_window():
    unit = hostspeed.REFERENCE_SECONDS
    samples = [(0.1, unit), (0.2, 3 * unit), (0.3, unit), (1.5, 2 * unit)]
    windows = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    # Medians: of (1, 3, 1) units, of (2), and none -> the fallback.
    assert run.window_slowdowns(windows, samples, fallback=5.0) == [
        1.0, 2.0, 5.0
    ]


def test_a_stall_inside_the_open_loop_invalidates_the_run():
    interval = 0.04
    on_time = [0.0001] * 100
    run.check_schedule(on_time, interval)
    # The generator stalls mid-phase, then catches up by the last frame.
    stalled = on_time[:50] + [0.09, 0.05, 0.01] + on_time[53:]
    with pytest.raises(run.BenchmarkError, match="frame 50"):
        run.check_schedule(stalled, interval)


# -- oracle ---------------------------------------------------------


def _service_like(answers):
    copy = oracle.Answers(time_mode=answers.positions.typecode == "d")
    for row in answers.rows():
        copy.add(*row)
    return copy


def test_count_oracle_catches_one_corrupted_answer():
    workload = WORKLOADS["keyed_batch"]
    records = generate(workload, 8192, seed=3)
    expected = oracle.count_oracle(workload, records.values)
    got = _service_like(expected)
    assert oracle.compare(expected, got) is None
    got.values[len(got) // 2] += 1
    assert "expected" in oracle.compare(expected, got)


def test_count_oracle_catches_a_missing_answer():
    workload = WORKLOADS["keyed_batch"]
    records = generate(workload, 8192, seed=3)
    expected = oracle.count_oracle(workload, records.values)
    got = _service_like(expected)
    for column in (got.positions, got.queries, got.values):
        del column[-1]
    assert oracle.compare(expected, got) is not None


def test_periodic_oracle_catches_one_corrupted_answer():
    workload = WORKLOADS["engine_multiquery"]
    pool = engine_pool(seed=5)
    size = FRAME_RECORDS
    checker = oracle.PeriodicOracle(workload, pool, size)
    from repro.operators.registry import get_operator
    from repro.stream.engine import StreamEngine
    from repro.stream.sink import CollectSink

    sink = CollectSink()
    engine = StreamEngine(
        oracle.queries_of(workload), get_operator("max"), sinks=[sink]
    )
    # Three periods: calls past the second map back onto the oracle.
    for call in range(3 * checker.cycle):
        engine.feed_many(pool[(call % checker.cycle) * size :][:size])
        assert checker.check(call, sink.answers) is None
        if call == 3 * checker.cycle - 1:
            position, query, value = sink.answers[7]
            sink.answers[7] = (position, query, value + 1.0)
            assert checker.check(call, sink.answers) is not None
        sink.answers.clear()


# -- latency attribution ---------------------------------------------


def test_closing_frame_count_mode_is_the_answer_position():
    workload = WORKLOADS["keyed_batch"]
    size = FRAME_RECORDS
    # Positions are 1-based: the last record of frame 0 is position
    # ``size``, the first of frame 1 is ``size + 1``.
    positions = array("q", [1, size, size + 1, 3 * size])
    assert oracle.closing_frames(workload, positions) == [0, 0, 1, 2]


def test_closing_frame_time_mode_waits_for_lateness():
    workload = WORKLOADS["event_inline"]
    size = FRAME_RECORDS
    records = generate(workload, 4 * size, seed=9)
    stamps = list(records.timestamps)
    # Window ending at 1.024 s closes with the first arrival at or past
    # 1.024 + lateness = 1.088 s: base record 1088 (t = 1.0885 s),
    # unless a displaced later record arrives first.
    end = 1.024
    closing = next(i for i, t in enumerate(stamps) if t >= end + LATENESS)
    assert oracle.closing_frames(workload, array("d", [end]), stamps) == [
        closing // size
    ]
    assert closing // size == 1
    # Displacement never delays the closing record by more than the
    # displacement bound.
    base = round((end + LATENESS) / EVENT_TICK)
    assert abs(closing - base) <= MAX_DISPLACEMENT


def test_displaced_records_stay_within_the_lateness_bound():
    records = generate(WORKLOADS["event_inline"], 20000, seed=4)
    high = float("-inf")
    displaced = 0
    for stamp in records.timestamps:
        if stamp < high:
            displaced += 1
            assert high - stamp < LATENESS
        high = max(high, stamp)
    assert 0.05 < displaced / len(records) < 0.15


# -- failures -------------------------------------------------------


def test_failed_records_count_a_forced_shed():
    workload = WORKLOADS["keyed_batch"]
    size = FRAME_RECORDS
    frames = 24
    records = generate(workload, frames * size, seed=2)
    # A budget of one frame sheds every pipelined frame that arrives
    # while another is still being folded.
    with ServerProcess(workload.name, 1, max_inflight_records=size) as server:
        session = Session(server.port, workload)
        capacity = run_capacity(session, records, 0, frames)
        session.close()
    failed, parts = run.failures(session)
    accepted = sum(session.outcome.accepted.values())
    assert parts["shed"] > 0
    assert failed == parts["shed"] == capacity.records - accepted
    # Shed frames never reached the service, so the oracle over the
    # accepted frames still matches every answer.
    assert run.check_answers(workload, records, session) is None
