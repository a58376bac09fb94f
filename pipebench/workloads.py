"""The pipeline workloads and their seeded input generators.

Every input is derived from ``--seed`` before any timing starts; the
program under test only ever sees the generated records.  Sizing
constants (offered rates, nominal capacities) were measured on a
2-core x86-64 host running CPython 3.11; they size pools and the
open-loop rate, they are not results.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Tuple

#: Keys of the keyed workloads.  Names do not depend on the seed, so
#: the key -> shard split (FNV-1a over ``repr(key)``) is the same in
#: every run and only the sampled sequence changes with the seed.
KEYS = tuple(f"k{rank:02d}" for rank in range(64))
ZIPF_EXPONENT = 1.1
VALUE_RANGE = range(-1000, 1001)

#: Event time advances one millisecond per record in base order; the
#: half-millisecond offset keeps every timestamp off slice boundaries.
EVENT_TICK = 0.001
LATENESS = 0.064
#: Share of records displaced later in arrival order.
DISPLACED_SHARE = 0.10
#: Largest displacement, in records.  48 ms < the 64 ms lateness bound,
#: so no displaced record is ever behind the watermark.
MAX_DISPLACEMENT = 48

#: ``engine_multiquery`` feeds a cyclic pool of this many DEBS12
#: readings.  A periodic input keeps the pool small and lets the oracle
#: check every answer from two periods (see ``oracle.PeriodicOracle``).
ENGINE_POOL = 32768


#: Records per SUBMIT frame and per ``feed_many`` call.
FRAME_RECORDS = 1024
#: Service micro-batch size: the service default.  Flush rounds then
#: fire every few dozen records, so only the short tail of a frame
#: waits for the next frame before its answers release.
SERVICE_BATCH_SIZE = 64
#: Closed-loop window: SUBMIT+POLL pairs in flight.
WINDOW = 8


@dataclass(frozen=True)
class Workload:
    """One named traffic mix and the service configuration it targets.

    Why each workload exists is recorded in ``pipebench/README.md``.
    """

    name: str
    #: ``"socket"`` drives client -> server -> service; ``"engine"``
    #: drives ``StreamEngine.feed_many`` in-process.
    kind: str
    operator: str
    #: Count queries as ``(range, slide)``; time queries as
    #: ``(range_seconds, slide_seconds)`` when ``mode == "time"``.
    queries: Tuple[Tuple[float, float], ...]
    #: Wire frame: ``"batch"`` (SUBMIT_BATCH), ``"event"``
    #: (SUBMIT_EVENT_BATCH) or ``"column"`` (SUBMIT_COLUMN).
    frame: str = "batch"
    mode: str = "global"
    transport: str = "inline"
    shards: int = 2
    #: Open-loop latency-phase rate, records/s (about a quarter of the
    #: capacity measured for the workload on the sizing host).
    offered_rate: float = 0.0
    #: Capacity measured on the sizing host, records/s; sizes the
    #: closed loop's fixed amount of work.
    nominal_capacity: float = 0.0
    keyed: bool = True


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="keyed_batch",
            kind="socket",
            operator="sum",
            queries=((1024, 32), (512, 64)),
            offered_rate=24_000.0,
            nominal_capacity=110_000.0,
        ),
        Workload(
            name="event_shm",
            kind="socket",
            operator="max",
            queries=((1.024, 0.032), (0.512, 0.064)),
            frame="event",
            mode="time",
            transport="process",
            offered_rate=16_000.0,
            nominal_capacity=65_000.0,
        ),
        Workload(
            name="event_inline",
            kind="socket",
            operator="max",
            queries=((1.024, 0.032), (0.512, 0.064)),
            frame="event",
            mode="time",
            offered_rate=16_000.0,
            nominal_capacity=85_000.0,
        ),
        Workload(
            name="column_answers",
            kind="socket",
            operator="sum",
            queries=(
                (64, 2), (128, 4), (256, 4), (512, 8),
                (1024, 8), (2048, 16), (4096, 16), (8192, 8),
            ),
            frame="column",
            shards=1,
            offered_rate=11_000.0,
            nominal_capacity=45_000.0,
            keyed=False,
        ),
        Workload(
            name="engine_multiquery",
            kind="engine",
            operator="max",
            queries=tuple((32 << step, 16) for step in range(8)),
            shards=0,
            keyed=False,
        ),
    )
}


@dataclass
class Records:
    """A generated record stream in arrival order, stored compactly.

    ``keys`` holds indexes into :data:`KEYS` (``None`` for one-key
    streams), ``timestamps`` is ``None`` outside event time.
    """

    values: array
    keys: Optional[array] = None
    timestamps: Optional[array] = None

    def __len__(self) -> int:
        return len(self.values)


def generate(workload: Workload, count: int, seed: int) -> Records:
    """The first ``count`` records of the workload's stream for ``seed``."""
    rng = random.Random(seed)
    values = array("q", rng.choices(VALUE_RANGE, k=count))
    if not workload.keyed:
        return Records(values)
    weights = [
        1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(KEYS))
    ]
    ranks = rng.choices(
        range(len(KEYS)), cum_weights=list(accumulate(weights)), k=count
    )
    keys = array("B", ranks)
    if workload.mode != "time":
        return Records(values, keys)
    order = displaced_order(count, rng)
    return Records(
        array("q", [values[index] for index in order]),
        array("B", [keys[index] for index in order]),
        array("d", [(index + 0.5) * EVENT_TICK for index in order]),
    )


def displaced_order(count: int, rng: random.Random) -> array:
    """Arrival order of ``count`` base-ordered records.

    A record picked with probability :data:`DISPLACED_SHARE` arrives
    right after the record ``d`` places later in base order, ``d``
    uniform in ``1..MAX_DISPLACEMENT``; every other record keeps its
    place.  A displaced record therefore trails the newest timestamp
    seen by less than ``MAX_DISPLACEMENT`` ticks.
    """
    held: dict = {}
    order = array("q")
    for index in range(count):
        if rng.random() < DISPLACED_SHARE:
            target = min(index + rng.randint(1, MAX_DISPLACEMENT), count - 1)
            held.setdefault(target, []).append(index)
        else:
            order.append(index)
        order.extend(held.pop(index, ()))
    return order


def engine_pool(seed: int) -> list:
    """The cyclic DEBS12 energy-reading pool of ``engine_multiquery``."""
    from repro.datasets import debs12_values

    return list(debs12_values(ENGINE_POOL, seed=seed))
