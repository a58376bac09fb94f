"""Pipeline benchmark: client -> protocol -> server -> gateway -> router
-> reorder buffer -> transport -> shard fold -> merge -> reply, plus the
in-process ``StreamEngine`` job of the paper.

Usage (from the root of a checkout)::

    python3 pipebench/run.py --workload keyed_batch --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  The last line
of standard output is the JSON result; details, spans and the
per-layer table go to ``pipebench/out/``.  See ``pipebench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
import paths  # noqa: E402  (exits 2 when the checkout has no src/)

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
from loadgen import Session, run_capacity, run_latency  # noqa: E402
from procs import ServerProcess, peak_rss_mb  # noqa: E402
from tracing import quantile  # noqa: E402
from workloads import (  # noqa: E402
    ENGINE_POOL,
    FRAME_RECORDS,
    LATENESS,
    WINDOW,
    WORKLOADS,
    Records,
    Workload,
    engine_pool,
    generate,
)

#: Server builds timed before and again after a socket run; the median
#: of all of them, normalized by the run's host slowdown, is ``setup_s``.
SETUP_REPEATS = 25
#: ``engine_multiquery`` times this many plan builds after every
#: ``ENGINE_SETUP_EVERY`` feed calls (outside the timed calls), so its
#: ``setup_s`` median spans the whole run rather than one moment.
ENGINE_SETUP_BATCH = 3
ENGINE_SETUP_EVERY = 256
#: ``engine_multiquery`` times the host speed reference after every
#: this many calls (outside the timed calls) and normalizes the calls
#: of each block of ``ENGINE_BLOCK_CALLS`` by the block's median.
ENGINE_REFERENCE_EVERY = 4
ENGINE_BLOCK_CALLS = ENGINE_POOL // FRAME_RECORDS
#: Latency-phase answers are normalized by the host slowdown of the
#: block of this many frames that holds their closing frame.
LATENCY_BLOCK_FRAMES = 16
#: Share of ``--seconds`` spent in the open-loop latency phase; the
#: closed loop gets the rest, so a run averages it over more of the
#: host's slow and fast spells.
LATENCY_SHARE = 0.4
#: Latency-phase frames at the end whose answers are not timed: an
#: answer closed there may wait for a frame the phase never sends.
TAIL_FRAMES = 2
#: p99 needs at least ten samples beyond it.
MIN_LATENCY_SAMPLES = 1000
#: The run is invalid when any latency-phase frame left this many frame
#: intervals after it was due: the generator fell behind its schedule,
#: and the stall would be charged to the answers' latency.
MAX_GENERATOR_LAG_FRAMES = 1.0
#: Records of the untimed CountingOperator pass.
COUNTING_RECORDS = 65536
#: Span totals must agree with the server's own histogram sums.  A
#: histogram brackets the wrapped call, so it reads higher: it also
#: holds the wrapper's own cost and, for submit, the executor
#: hand-off.  Spans may therefore exceed it only by a little, and must
#: cover most of it.
CROSS_CHECK_ABOVE = 0.05
CROSS_CHECK_BELOW = 0.40
CROSS_CHECK_SLACK_S = 0.02
#: The server's layer self times, summed over its threads, may exceed
#: the traced pass's wall time by this share: under the GIL a
#: span on the event-loop thread and one on an executor thread can both
#: be open while one of them waits for the other to release the lock.
WALL_CHECK_TOLERANCE = 0.10


def _metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(paths.ROOT / "BENCHMARK.json") as handle:
        return {
            metric["name"]: metric["unit"]
            for metric in json.load(handle)[section]
        }


END_TO_END_UNITS = _metric_units("end_to_end")
PER_LAYER_UNITS = _metric_units("per_layer")


class BenchmarkError(Exception):
    """A run that cannot produce a valid result."""


def host_metadata(workload: Workload) -> Dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "shards": workload.shards,
        "transport": (
            workload.transport if workload.kind == "socket" else None
        ),
    }


# -- socket workloads -----------------------------------------------


def _accepted(workload: Workload, records: Records, frames: List[int]):
    """Values (and timestamps) of the accepted frames, in arrival order."""
    size = FRAME_RECORDS
    values: List[int] = []
    stamps: List[float] = []
    for frame in frames:
        span = slice(frame * size, (frame + 1) * size)
        values.extend(records.values[span])
        if records.timestamps is not None:
            stamps.extend(records.timestamps[span])
    return values, stamps


def check_answers(
    workload: Workload, records: Records, session: Session
) -> Optional[str]:
    """Compare every answer of a session with the single-node oracle."""
    if session.outcome.errors:
        return "; ".join(session.outcome.errors)[:2000]
    frames = sorted(session.outcome.accepted)
    values, stamps = _accepted(workload, records, frames)
    if workload.mode == "time":
        expected = oracle.time_oracle(workload, stamps, values)
    else:
        expected = oracle.count_oracle(workload, values)
    return oracle.compare(expected, session.answers)


def failures(session: Session) -> Tuple[int, Dict[str, int]]:
    """Records shed, refused, errored, dropped or dead-lettered.

    Late records under the ``drop`` policy are dead-lettered, so the
    dead-letter count already holds them.
    """
    final = session.final["stats"] if session.final else {}
    parts = {
        "shed": session.outcome.shed_records,
        "errored": session.outcome.errored_records,
        "dropped": final.get("dropped_records", 0),
        "dead_letters": final.get("dead_letters", 0),
        "late": final.get("late_records", 0),
    }
    failed = (
        parts["shed"] + parts["errored"] + parts["dropped"]
        + parts["dead_letters"]
    )
    return failed, parts


def answer_latencies(
    workload, records, session, latency
) -> List[Tuple[int, float]]:
    """``(closing frame, latency)`` of each answer closed inside the
    latency phase.

    Timed from the due send time of the frame carrying the answer's
    closing record to the receipt of the reply holding the answer.
    """
    size = FRAME_RECORDS
    accepted = session.outcome.accepted
    frames = [f for f in range(latency.frames) if f in accepted]
    timed = len(frames) - TAIL_FRAMES
    positions = session.answers.positions
    stamps = None
    if workload.mode == "time":
        _, stamps = _accepted(workload, records, frames)
        last = max(stamps[: timed * size]) - LATENESS
        count = bisect_right(positions, last)
    else:
        count = bisect_right(positions, timed * size)
    ordinals = oracle.closing_frames(workload, positions[:count], stamps)
    receipts = session.receipt_times(count)
    return [
        (frames[ordinal], received - latency.due[frames[ordinal]])
        for received, ordinal in zip(receipts, ordinals)
    ]


def normalized_seconds(capacity, server: ServerProcess) -> float:
    """A closed loop's time at the reference host speed, from the
    server's samples over the loop."""
    slowdown = window_slowdowns(
        [(capacity.started, capacity.started + capacity.seconds)],
        server.final["samples"],
    )[0]
    return capacity.seconds / slowdown


def window_slowdowns(windows, samples, fallback=None) -> List[float]:
    """Host slowdown within each ``(start, end)`` window, from the
    server's ``(time, seconds)`` reference samples; ``fallback`` where
    a window holds none."""
    times = [at for at, _ in samples]
    result = []
    for start, end in windows:
        inside = [
            spent for _, spent in
            samples[bisect_left(times, start) : bisect_left(times, end)]
        ]
        result.append(hostspeed.slowdown(inside) if inside else fallback)
    return result


def check_schedule(late: List[float], interval: float) -> None:
    """Refuse the run when any open-loop frame left more than
    :data:`MAX_GENERATOR_LAG_FRAMES` intervals after its due time."""
    worst = max(late)
    if worst > MAX_GENERATOR_LAG_FRAMES * interval:
        raise BenchmarkError(
            f"generator fell behind its schedule: frame "
            f"{late.index(worst)} sent {worst * 1e3:.1f} ms late "
            f"(frame interval {interval * 1e3:.1f} ms)"
        )


def capacity_frames_for(workload: Workload, seconds: float) -> int:
    """Closed-loop frames that take ``seconds`` at the nominal capacity.

    The closed loop does a fixed amount of work, so peak RSS and CPU
    per record compare like with like when throughput changes.
    """
    return math.ceil(
        workload.nominal_capacity * seconds / FRAME_RECORDS
    )


def socket_run(
    workload: Workload, seed: int, seconds: float
) -> Dict[str, Any]:
    size = FRAME_RECORDS
    latency_seconds = seconds * LATENCY_SHARE
    latency_frames = math.ceil(
        workload.offered_rate * latency_seconds / size
    )
    capacity_frames = capacity_frames_for(
        workload, seconds - latency_seconds
    )
    records = generate(
        workload, (latency_frames + capacity_frames) * size, seed
    )
    workers: List[Tuple[float, int]] = []
    with ServerProcess(workload.name, SETUP_REPEATS) as server:
        session = Session(server.port, workload)
        cpu_before = server.tree_cpu_seconds()
        latency = run_latency(
            session, records, latency_frames, workload.offered_rate
        )
        capacity = run_capacity(
            session, records, latency_frames, capacity_frames,
            before_drain=lambda: workers.append(
                server.workers_peak_rss_mb()
            ),
        )
        session.close()
        cpu = server.tree_cpu_seconds() - cpu_before
        worker_rss, workers_gone = workers[0]
        rss = peak_rss_mb(server.pid) + worker_rss
    interval = size / workload.offered_rate
    late = latency.generator_late
    check_schedule(late, interval)
    problem = check_answers(workload, records, session)
    timed = answer_latencies(workload, records, session, latency)
    if len(timed) < MIN_LATENCY_SAMPLES:
        raise BenchmarkError(
            f"latency phase yielded {len(timed)} answers; p99 "
            f"needs {MIN_LATENCY_SAMPLES}"
        )
    # Host slowdowns over the whole run, each latency-phase block of
    # frames and each closed-loop segment, from the reference samples
    # the server process took.
    if not server.final:
        raise BenchmarkError("the server process ended without its samples")
    samples = server.final["samples"]
    run_slowdown = window_slowdowns(
        [(latency.due[0], capacity.started + capacity.seconds)], samples
    )[0]
    blocks = [
        (due, due + LATENCY_BLOCK_FRAMES * interval)
        for due in latency.due[::LATENCY_BLOCK_FRAMES]
    ]
    latency_slowdowns = window_slowdowns(blocks, samples, run_slowdown)
    segments = [
        (capacity.started + start, capacity.started + end)
        for start, end in capacity.segments()
    ]
    segment_slowdowns = window_slowdowns(segments, samples, run_slowdown)
    latencies = [spent for _, spent in timed]
    normalized = [
        spent / latency_slowdowns[frame // LATENCY_BLOCK_FRAMES]
        for frame, spent in timed
    ]
    capacity_seconds = sum(
        (end - start) / slow
        for (start, end), slow in zip(segments, segment_slowdowns)
    )
    setups = server.ready["setup_s"] + server.final["setup_s"]
    attempted = (latency.frames + capacity.frames) * size
    failed, failed_parts = failures(session)
    raw = {
        "ingest_tps": capacity.records / capacity.seconds,
        "answer_p50_ms": quantile(latencies, 0.50) * 1e3,
        "setup_s": statistics.median(setups),
        "cpu_us_per_record": cpu / attempted * 1e6,
    }
    metrics = {
        "ingest_tps": capacity.records / capacity_seconds,
        "answer_p50_ms": quantile(normalized, 0.50) * 1e3,
        # The tail waits for the next frame of the open-loop schedule,
        # a wall-clock interval, so it is not normalized.
        "answer_p99_ms": quantile(latencies, 0.99) * 1e3,
        "setup_s": raw["setup_s"] / run_slowdown,
        "peak_rss_mb": rss,
        "cpu_us_per_record": raw["cpu_us_per_record"] / run_slowdown,
        "delivered_frac": 1.0 - failed / attempted,
    }
    details = {
        "raw": raw,
        "host_slowdown": {
            "run": run_slowdown,
            "latency_blocks": latency_slowdowns,
            "capacity_segments": segment_slowdowns,
            "samples": len(samples),
        },
        "latency_phase": {
            "frames": latency.frames,
            "offered_rate": workload.offered_rate,
            "answers_timed": len(timed),
            "generator_late_ms": {
                "p50": quantile(late, 0.5) * 1e3,
                "p99": quantile(late, 0.99) * 1e3,
                "max": max(late) * 1e3,
            },
        },
        "capacity_phase": {
            "frames": capacity.frames,
            "records": capacity.records,
            "seconds": capacity.seconds,
            "segment_rates": capacity.segment_rates(size),
            "window": WINDOW,
        },
        "setup_s_samples": setups,
        "workers_gone_before_drain": workers_gone,
        "failed": failed_parts,
        "failed_frac": failed / attempted,
        "answers": len(session.answers),
    }
    return {
        "correct": problem is None,
        "problem": problem,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def _histograms(stats: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Sum, count and p99 of every histogram in a STATS payload."""
    found = {}
    for name, entry in stats["telemetry"]["metrics"].items():
        if entry["type"] != "histogram":
            continue
        series = entry["series"]
        found[name] = {
            "sum": sum(s["sum"] for s in series),
            "count": sum(s["count"] for s in series),
            "p99": max((s["p99"] or 0.0) for s in series),
        }
    return found


def _spans_file(out: Path, process: str) -> Path:
    return out.with_name(f"{out.stem}-spans-{process}.json")


def socket_trace(
    workload: Workload, seed: int, seconds: float, out: Path
) -> Dict[str, Any]:
    """Untraced then traced capacity pass over the same frames."""
    frames = capacity_frames_for(workload, seconds / 2)
    records = generate(workload, frames * FRAME_RECORDS, seed)
    with ServerProcess(workload.name, 1) as server:
        session = Session(server.port, workload)
        untraced = run_capacity(session, records, 0, frames)
        session.close()
    untraced_seconds = normalized_seconds(untraced, server)
    problems = [check_answers(workload, records, session)]
    server_spans = _spans_file(out, "server")
    recorder = tracing.SpanRecorder()
    patches = tracing.install_client(recorder)
    try:
        with ServerProcess(workload.name, 1, spans=server_spans) as server:
            session = Session(server.port, workload)
            traced = run_capacity(session, records, 0, frames)
            session.request_stats()
            session.wait_idle()
            session.close()
    finally:
        patches.undo()
    overhead = normalized_seconds(traced, server) / untraced_seconds
    client_dump = recorder.dump()
    with open(_spans_file(out, "client"), "w") as handle:
        json.dump(client_dump, handle)
    with open(server_spans) as handle:
        server_dump = json.load(handle)
    problems.append(check_answers(workload, records, session))
    client = tracing.span_table(client_dump)
    server = tracing.span_table(server_dump)
    spans = server["spans"]
    hist = _histograms(session.stats)
    counters = server_dump["counters"]
    records_in = traced.records

    def stat(name, field):
        return spans.get(name, {}).get(field, 0.0)

    def hist_stat(name, field="sum"):
        return hist.get(name, {}).get(field, 0.0)

    inline = workload.transport == "inline"
    transport_records = counters.get("service.transport.records", 0)
    metrics = {
        "net.client.encode_s": sum(
            client["spans"].get(name, {}).get("total_s", 0.0)
            for name in ("net.client.encode", "net.client.pack_column")
        ),
        "net.client.bytes_per_record": (
            client_dump["counters"].get("net.client.bytes", 0) / records_in
        ),
        "net.protocol.decode_s": stat("net.protocol.decode", "total_s"),
        "net.protocol.decode_p99_ms": stat("net.protocol.decode", "p99_ms"),
        "net.protocol.answer_encode_s": (
            stat("net.protocol.encode_answers", "total_s")
            + stat("net.protocol.encode_answers_frame", "total_s")
        ),
        "net.server.admission_s": hist_stat("repro_net_admission_seconds"),
        "net.server.reply_s": hist_stat("repro_net_reply_seconds"),
        "service.gateway.submit_s": stat("service.gateway.submit", "total_s"),
        "service.gateway.poll_s": stat("service.gateway.poll", "total_s"),
        "service.partition.self_s": stat("service.partition", "self_s"),
        "service.partition.calls_per_record": (
            stat("service.partition", "calls") / records_in
        ),
        "stream.outoforder.self_s": stat("stream.outoforder", "self_s"),
        "stream.outoforder.buffered_max": counters.get(
            "stream.outoforder.buffered", 0
        ),
        "service.transport.encode_s": stat(
            "service.transport.encode", "total_s"
        ),
        "service.transport.ring_wait_s": hist_stat(
            "repro_transport_ring_wait_seconds"
        ),
        "service.transport.worker_decode_s": hist_stat(
            "repro_transport_decode_seconds"
        ),
        "service.transport.bytes_per_record": (
            counters.get("service.transport.bytes", 0) / transport_records
            if transport_records
            else 0.0
        ),
        "service.shard.fold_s": (
            stat("service.shard.fold", "total_s")
            if inline
            else hist_stat("repro_shard_fold_seconds")
        ),
        "service.shard.fold_p99_ms": (
            stat("service.shard.fold", "p99_ms")
            if inline
            else hist_stat("repro_shard_fold_seconds", "p99") * 1e3
        ),
        "service.merge.self_s": stat("service.merge", "self_s"),
        "service.merge.p99_ms": stat("service.merge", "p99_ms"),
        "service.merge.answers": counters.get("service.merge.answers", 0),
        "stream.engine.feed_many_p50_ms": 0.0,
        "stream.engine.feed_many_p99_ms": 0.0,
        "core.ops_per_record": ops_per_record(
            workload, records.values, records.timestamps
        ),
        "trace.overhead_ratio": overhead,
    }
    checks = [
        ("decode", "net.protocol.decode", "repro_net_decode_seconds"),
        ("gateway submit", "service.gateway.submit",
         "repro_net_submit_seconds"),
        ("merge", "service.merge", "repro_merge_seconds"),
    ]
    if inline:
        checks.append(
            ("fold", "service.shard.fold", "repro_shard_fold_seconds")
        )
    checks = [
        (stage, stat(span, "total_s"), hist_stat(histogram))
        for stage, span, histogram in checks
    ]
    problems += cross_check(checks)
    problems += wall_check("generator", client, traced.seconds)
    problems += wall_check(
        "server", server, traced.seconds, WALL_CHECK_TOLERANCE
    )
    failed, failed_parts = failures(session)
    return {
        "correct": not any(problems),
        "problem": "; ".join(p for p in problems if p) or None,
        "attempted": records_in,
        "failed": failed,
        "metrics": metrics,
        "details": {
            "untraced_seconds": untraced.seconds,
            "traced_seconds": traced.seconds,
            "records": records_in,
            "cross_check": [
                {"stage": stage, "spans_s": spans_s, "histogram_s": hist_s}
                for stage, spans_s, hist_s in checks
            ],
            "failed": failed_parts,
            "layers": {"client": client, "server": server, "histograms": hist},
        },
    }


def cross_check(checks) -> List[str]:
    """Span totals against the server's own histogram sums."""
    problems = []
    for stage, spans, histogram in checks:
        low = histogram * (1 - CROSS_CHECK_BELOW) - CROSS_CHECK_SLACK_S
        high = histogram * (1 + CROSS_CHECK_ABOVE) + CROSS_CHECK_SLACK_S
        if not low <= spans <= high:
            problems.append(
                f"{stage}: spans {spans:.4f}s outside [{low:.4f}, "
                f"{high:.4f}]s around histogram {histogram:.4f}s"
            )
    return problems


def wall_check(
    process: str, table, wall: float, tolerance: float = 0.0
) -> List[str]:
    """The self times of one process's layers, summed over its threads,
    stay within the traced pass's wall time (plus ``tolerance``)."""
    spent = sum(span["self_s"] for span in table["spans"].values())
    limit = wall * (1 + tolerance)
    if spent <= limit:
        return []
    return [
        f"{process}: layer self times sum to {spent:.4f}s, past the "
        f"traced wall time {wall:.4f}s (limit {limit:.4f}s)"
    ]


def ops_per_record(workload: Workload, values, timestamps=None) -> float:
    """Paper Section 4.1 operation count per record (untimed pass).

    Runs the workload's queries on a single-node engine over the first
    :data:`COUNTING_RECORDS` records with a ``CountingOperator``; the
    count repeats exactly for a given seed.
    """
    from repro.operators.instrumented import CountingOperator
    from repro.operators.registry import get_operator
    from repro.stream.engine import EventTimeEngine, StreamEngine

    counting = CountingOperator(get_operator(workload.operator))
    queries = oracle.queries_of(workload)
    values = list(values[:COUNTING_RECORDS])
    if workload.mode == "time":
        engine = EventTimeEngine(
            queries, counting, lateness=LATENESS, late_policy="drop"
        )
        for stamp, value in zip(timestamps, values):
            engine.feed(stamp, value)
        engine.finish()
    else:
        engine = StreamEngine(queries, counting)
        for value in values:
            engine.feed(value)
    return counting.ops / len(values)


# -- engine workload ------------------------------------------------


def _engine_pass(
    workload, chunks, checker, calls=None, seconds=None, between=None
):
    """Closed loop of ``feed_many`` calls.

    Returns per-call wall and CPU times, the host speed reference times
    taken after every :data:`ENGINE_REFERENCE_EVERY` calls as
    ``(call, seconds)`` pairs, and the oracle's problems.  All of it but
    the ``feed_many`` calls is untimed.  ``between()`` runs before the
    first call and after every :data:`ENGINE_SETUP_EVERY` calls.
    """
    from repro.operators.registry import get_operator
    from repro.stream.engine import StreamEngine
    from repro.stream.sink import CollectSink

    sink = CollectSink()
    engine = StreamEngine(
        oracle.queries_of(workload),
        get_operator(workload.operator),
        sinks=[sink],
    )
    walls: List[float] = []
    cpus: List[float] = []
    references: List[Tuple[int, float]] = []
    problems: List[str] = []
    spent = 0.0
    call = 0
    while (calls is None or call < calls) and (
        seconds is None or spent < seconds
    ):
        if between is not None and call % ENGINE_SETUP_EVERY == 0:
            between()
        chunk = chunks[call % len(chunks)]
        cpu = time.process_time()
        started = time.perf_counter()
        engine.feed_many(chunk)
        wall = time.perf_counter() - started
        cpus.append(time.process_time() - cpu)
        walls.append(wall)
        spent += wall
        problem = checker.check(call, sink.answers)
        if problem is not None:
            problems.append(problem)
        sink.answers.clear()
        if call % ENGINE_REFERENCE_EVERY == 0:
            references.append((call, hostspeed.sample()))
        call += 1
    return walls, cpus, references, problems


def normalize_calls(times: List[float], references) -> List[float]:
    """Per-call ``times`` divided by their block's host slowdown."""
    slowdowns = block_slowdowns(len(times), references)
    return [
        spent / slowdowns[call // ENGINE_BLOCK_CALLS]
        for call, spent in enumerate(times)
    ]


def block_slowdowns(calls: int, references) -> List[float]:
    """Host slowdown of each block of :data:`ENGINE_BLOCK_CALLS` calls,
    from the reference times taken within the block."""
    per_block: List[List[float]] = [[] for _ in range(
        -(-calls // ENGINE_BLOCK_CALLS)
    )]
    for call, seconds in references:
        per_block[call // ENGINE_BLOCK_CALLS].append(seconds)
    return [hostspeed.slowdown(samples) for samples in per_block]


def _plan_builds(workload, builds: int) -> List[float]:
    """Normalized times of ``builds`` plan builds, each followed by one
    pass of the host speed reference."""
    from repro.operators.registry import get_operator
    from repro.stream.engine import StreamEngine

    operator = get_operator(workload.operator)
    queries = oracle.queries_of(workload)
    seconds, references = [], []
    for _ in range(builds):
        started = time.perf_counter()
        StreamEngine(queries, operator)
        seconds.append(time.perf_counter() - started)
        references.append(hostspeed.sample())
    slowdown = hostspeed.slowdown(references)
    return [spent / slowdown for spent in seconds]


def engine_run(
    workload: Workload, seed: int, seconds: float, trace: bool, out: Path
) -> Dict[str, Any]:
    size = FRAME_RECORDS
    pool = engine_pool(seed)
    chunks = [pool[at : at + size] for at in range(0, ENGINE_POOL, size)]
    checker = oracle.PeriodicOracle(workload, pool, size)
    if trace:
        walls, _, references, problems = _engine_pass(
            workload, chunks, checker, seconds=seconds / 2
        )
        recorder = tracing.SpanRecorder()
        patches = tracing.install_engine(recorder)
        try:
            traced, _, traced_references, more = _engine_pass(
                workload, chunks, checker, calls=len(walls)
            )
        finally:
            patches.undo()
        problems += more
        dump = recorder.dump()
        with open(_spans_file(out, "engine"), "w") as handle:
            json.dump(dump, handle)
        table = tracing.span_table(dump)
        problems += wall_check("engine", table, sum(traced))
        feed = table["spans"].get("stream.engine.feed_many", {})
        metrics = {name: 0.0 for name in PER_LAYER_UNITS}
        metrics.update(
            {
                "stream.engine.feed_many_p50_ms": feed.get("p50_ms", 0.0),
                "stream.engine.feed_many_p99_ms": feed.get("p99_ms", 0.0),
                "core.ops_per_record": ops_per_record(workload, pool * 2),
                "trace.overhead_ratio": (
                    sum(normalize_calls(traced, traced_references))
                    / sum(normalize_calls(walls, references))
                ),
            }
        )
        records = len(traced) * size
        details = {"calls": len(traced), "layers": {"engine": table}}
    else:
        setups: List[float] = []
        walls, cpus, references, problems = _engine_pass(
            workload, chunks, checker, seconds=seconds,
            between=lambda: setups.extend(
                _plan_builds(workload, ENGINE_SETUP_BATCH)
            ),
        )
        rss = peak_rss_mb()
        records = len(walls) * size
        slowdowns = block_slowdowns(len(walls), references)
        normalized = normalize_calls(walls, references)
        metrics = {
            "ingest_tps": records / sum(normalized),
            "answer_p50_ms": quantile(normalized, 0.50) * 1e3,
            "answer_p99_ms": quantile(normalized, 0.99) * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "cpu_us_per_record": sum(
                normalize_calls(cpus, references)
            ) / records * 1e6,
            "delivered_frac": 1.0,
        }
        details = {
            "calls": len(walls),
            "raw": {
                "ingest_tps": records / sum(walls),
                "answer_p50_ms": quantile(walls, 0.50) * 1e3,
                "answer_p99_ms": quantile(walls, 0.99) * 1e3,
                "cpu_us_per_record": sum(cpus) / records * 1e6,
            },
            "host_slowdown": statistics.median(slowdowns),
            "setup_s_samples": setups,
        }
    return {
        "correct": not problems,
        "problem": "; ".join(problems[:3]) or None,
        "attempted": records,
        "failed": 0,
        "metrics": metrics,
        "details": details,
    }


# -- entry point ----------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    meta = host_metadata(workload)
    if workload.transport == "process" and meta["nproc"] < workload.shards:
        sys.stderr.write(
            f"pipebench: {workload.name} runs {workload.shards} shard "
            f"processes but only {meta['nproc']} CPUs are available; "
            "refusing to report a result that would measure time-sharing\n"
        )
        return 2
    paths.OUT.mkdir(exist_ok=True)
    out = paths.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    started = time.perf_counter()
    try:
        if workload.kind == "engine":
            result = engine_run(
                workload, args.seed, args.seconds, bool(args.trace), out
            )
        elif args.trace:
            result = socket_trace(workload, args.seed, args.seconds, out)
        else:
            result = socket_run(workload, args.seed, args.seconds)
    except BenchmarkError as error:
        sys.stderr.write(f"pipebench: invalid run: {error}\n")
        return 3
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": meta,
        "wall_s": time.perf_counter() - started,
        **result,
    }
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    if result["problem"]:
        sys.stderr.write(f"pipebench: check failed: {result['problem']}\n")
    for name, value in result["metrics"].items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
