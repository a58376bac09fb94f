"""Load generation over one client connection.

A :class:`Session` owns one :class:`~repro.net.client.AggregationClient`
connection and two threads: the caller's thread sends, a reader
thread matches replies to requests in order (the server replies in
request order) and stores answers as compact columns stamped with
their receipt time.

* :func:`run_latency` is the open loop: frame ``k`` is due at
  ``t0 + k * FRAME_RECORDS / rate`` whatever the server does, each
  SUBMIT is followed by a POLL, and the generator's own lateness
  against that schedule is recorded.
* :func:`run_capacity` is the closed loop: a fixed number of frames
  with at most ``window`` SUBMIT+POLL pairs in flight, ended by DRAIN.
  Polling here too keeps answer delivery inside the measured work.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.net import client as client_module
from repro.net.protocol import FrameType

from oracle import Answers, query_specs
from workloads import FRAME_RECORDS, KEYS, WINDOW, Records, Workload

#: Reply wait bound; a live server answers far sooner.
REQUEST_TIMEOUT = 120.0
#: The one key of one-key workloads.
COLUMN_KEY = KEYS[0]

_SUBMIT_TYPES = {
    "batch": FrameType.SUBMIT_BATCH,
    "event": FrameType.SUBMIT_EVENT_BATCH,
    "column": FrameType.SUBMIT_COLUMN,
}


def frame_payload(workload: Workload, records: Records, frame: int) -> Any:
    """The wire payload of frame ``frame`` (records are pre-generated)."""
    start = frame * FRAME_RECORDS
    stop = start + FRAME_RECORDS
    values = records.values[start:stop]
    if workload.frame == "column":
        kind, body = client_module.pack_column(list(values))
        return (COLUMN_KEY, kind, body)
    keys = [KEYS[index] for index in records.keys[start:stop]]
    if workload.frame == "event":
        return list(zip(keys, records.timestamps[start:stop], values))
    return list(zip(keys, values))


@dataclass
class FrameOutcome:
    """Per-frame reply accounting."""

    accepted: Dict[int, int] = field(default_factory=dict)
    shed_records: int = 0
    errored_records: int = 0
    errors: List[str] = field(default_factory=list)


class Session:
    """One connection: sends from the caller's thread, reads on another."""

    def __init__(self, port: int, workload: Workload):
        self.workload = workload
        self.client = client_module.AggregationClient(
            "127.0.0.1", port, request_timeout=REQUEST_TIMEOUT
        )
        self._specs = query_specs(workload)
        self.answers = Answers(time_mode=workload.mode == "time")
        #: ``(receipt time, answers held after the reply)`` per answer reply.
        self.marks: List[tuple] = []
        self.outcome = FrameOutcome()
        self.final: Optional[Dict[str, Any]] = None
        self.stats: Optional[Dict[str, Any]] = None
        self.failure: Optional[BaseException] = None
        self.window: Optional[threading.Semaphore] = None
        self._pending: deque = deque()
        self._idle = threading.Condition()
        self._reader = threading.Thread(
            target=self._read, name="pipebench-reader", daemon=True
        )
        self._reader.start()

    # -- sending ----------------------------------------------------

    def _send(
        self, request: tuple, frame_type: FrameType, payload=None
    ) -> None:
        with self._idle:
            self._pending.append(request)
        self.client.send_frame(frame_type, payload)

    def submit(self, frame: int, records: int, payload: Any) -> None:
        frame_type = _SUBMIT_TYPES[self.workload.frame]
        self._send(("submit", frame, records), frame_type, payload)

    def poll(self) -> None:
        self._send(("poll",), FrameType.POLL)

    def drain(self) -> None:
        self._send(("drain",), FrameType.DRAIN)

    def request_stats(self) -> None:
        self._send(("stats",), FrameType.STATS)

    def wait_idle(self, timeout: float = REQUEST_TIMEOUT) -> None:
        """Block until every request sent so far has its reply."""
        deadline = time.monotonic() + timeout
        with self._idle:
            while self._pending and self.failure is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("server replies stopped arriving")
                self._idle.wait(remaining)
        if self.failure is not None:
            raise RuntimeError("reply reader failed") from self.failure

    def close(self) -> None:
        """Close the connection and join the reader."""
        self._send(("close",), FrameType.CLOSE)
        self._reader.join(REQUEST_TIMEOUT)
        # The server has already closed its side; this only releases
        # the socket (the client's own CLOSE attempt fails quietly).
        self.client.close()

    # -- reading ----------------------------------------------------

    def _read(self) -> None:
        try:
            while True:
                reply_type, payload = self.client.read_reply()
                received = time.perf_counter()
                with self._idle:
                    request = self._pending.popleft()
                if request[0] == "close":
                    return
                self._handle(request, reply_type, payload, received)
                with self._idle:
                    if not self._pending:
                        self._idle.notify_all()
        except BaseException as error:  # surfaced by wait_idle
            self.failure = error
            with self._idle:
                self._idle.notify_all()

    def _handle(self, request, reply_type, payload, received) -> None:
        kind = request[0]
        if kind == "submit":
            _, frame, records = request
            if reply_type is FrameType.OK:
                self.outcome.accepted[frame] = records
            elif reply_type is FrameType.RETRY:
                self.outcome.shed_records += records
            else:
                self.outcome.errored_records += records
                self.outcome.errors.append(repr(payload))
        elif kind == "poll":
            if reply_type is not FrameType.ANSWERS:
                self.outcome.errors.append(f"POLL failed: {payload!r}")
                payload = []
            self._absorb(payload, received)
            if self.window is not None:
                self.window.release()
        elif kind == "drain":
            if reply_type is not FrameType.OK:
                self.outcome.errors.append(f"DRAIN failed: {payload!r}")
                self.marks.append((received, len(self.answers)))
                return
            # The DRAIN reply repeats every answer of the run in
            # emission order; the ones not yet polled are its tail.
            self.final = payload
            self._absorb(payload["answers"][len(self.answers):], received)
        elif kind == "stats":
            self.stats = payload

    def _absorb(self, rows, received: float) -> None:
        add = self.answers.add
        specs = self._specs
        for position, spec, value in rows:
            add(position, specs[spec], value)
        self.marks.append((received, len(self.answers)))

    def receipt_times(self, count: int) -> List[float]:
        """Receipt time of each of the first ``count`` answers."""
        times: List[float] = []
        for received, held in self.marks:
            if len(times) >= count:
                break
            times.extend([received] * (min(held, count) - len(times)))
        return times


@dataclass
class LatencyPhase:
    frames: int
    due: List[float]
    generator_late: List[float]
    seconds: float


def run_latency(
    session: Session, records: Records, frames: int, rate: float
) -> LatencyPhase:
    """Open loop: SUBMIT then POLL per frame, on a fixed schedule."""
    workload = session.workload
    interval = FRAME_RECORDS / rate
    due_times: List[float] = []
    late: List[float] = []
    start = time.perf_counter() + 0.05
    for frame in range(frames):
        payload = frame_payload(workload, records, frame)
        due = start + frame * interval
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late.append(time.perf_counter() - due)
        session.submit(frame, FRAME_RECORDS, payload)
        session.poll()
        due_times.append(due)
    session.wait_idle()
    return LatencyPhase(frames, due_times, late, time.perf_counter() - start)


#: Frames per closed-loop segment.  Segment rates are recorded to show
#: how much the rate moves within one run.
SEGMENT_FRAMES = 32


@dataclass
class CapacityPhase:
    first_frame: int
    frames: int
    records: int
    #: ``perf_counter()`` at the first send.
    started: float
    #: First send until the DRAIN reply.
    seconds: float
    #: Receipt time of each frame's POLL reply, relative to the first send.
    completions: List[float]

    def segments(self) -> List[tuple]:
        """``(start, end)`` of each segment, relative to the first send:
        whole segments end at their last POLL reply, the last one at
        the DRAIN reply."""
        marks = [0.0] + self.completions[SEGMENT_FRAMES - 1 :: SEGMENT_FRAMES]
        if marks[-1] < self.seconds:
            marks.append(self.seconds)
        return list(zip(marks, marks[1:]))

    def segment_rates(self, records_per_frame: int) -> List[float]:
        """Records completed per second in each whole segment."""
        return [
            SEGMENT_FRAMES * records_per_frame / (end - start)
            for start, end in self.segments()[: self.frames // SEGMENT_FRAMES]
        ]


def run_capacity(
    session: Session,
    records: Records,
    first_frame: int,
    frames: int,
    before_drain: Optional[Callable[[], None]] = None,
) -> CapacityPhase:
    """Closed loop over ``frames`` frames from ``first_frame``, then DRAIN."""
    workload = session.workload
    session.window = threading.Semaphore(WINDOW)
    first_mark = len(session.marks)
    start = time.perf_counter()
    for frame in range(first_frame, first_frame + frames):
        payload = frame_payload(workload, records, frame)
        session.window.acquire()
        session.submit(frame, FRAME_RECORDS, payload)
        session.poll()
    if before_drain is not None:
        before_drain()
    session.drain()
    session.wait_idle()
    elapsed = session.marks[-1][0] - start
    session.window = None
    return CapacityPhase(
        first_frame,
        frames,
        frames * FRAME_RECORDS,
        start,
        elapsed,
        [received - start for received, _ in session.marks[first_mark:-1]],
    )
