"""Stream record types.

The window algorithms operate on plain values; these record types exist
for the dataset and engine layers, where tuples carry positions and
timestamps (the DEBS12 schema has "3 energy readings and 51 values
signifying various sensor states ... sampled at the rate of 100Hz",
paper Section 5.1).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, List, Tuple


@dataclass(frozen=True)
class Record:
    """A positioned, timestamped stream tuple.

    Attributes:
        position: 1-based arrival sequence number.
        timestamp: Event time in seconds.
        value: The payload handed to the aggregation operator.
    """

    position: int
    timestamp: float
    value: Any


@dataclass(frozen=True)
class KeyedEvent:
    """A keyed, event-timestamped record as submitted to the service.

    The event-time ingestion surface (``submit_event`` on the service,
    gateway, and network clients; the ``SUBMIT_EVENT_BATCH`` wire
    frame) speaks this shape: ordering is derived from ``timestamp`` —
    the time the event *happened* — rather than from the arrival
    position the transport assigns, and ``key`` routes the record to
    its shard exactly as in the count-based path.
    """

    key: Any
    timestamp: float
    value: Any

    def astuple(self) -> Tuple[Any, float, Any]:
        """The ``(key, timestamp, value)`` wire/batch representation."""
        return (self.key, self.timestamp, self.value)


class RecordColumns(Sequence):
    """Keyed records held column-major but read as a list of rows.

    The wire decoder builds one of these from a ``SUBMIT_BATCH`` (two
    columns: ``keys``, ``values``) or ``SUBMIT_EVENT_BATCH`` body
    (three: ``keys``, ``timestamps``, ``values``) so the router can
    scatter the columns without the rows ever being rebuilt as tuples.
    Anything that treats it as the decoded payload — iteration,
    indexing, ``len``, ``==`` — sees the list of rows it was encoded
    from: each row is a ``row_type`` (``tuple`` or ``list``) and the
    view compares equal to an equal ``list`` of such rows.
    """

    __slots__ = ("columns", "row_type")

    def __init__(self, columns: Sequence[List[Any]], row_type: type = tuple):
        self.columns = tuple(columns)
        self.row_type = row_type

    @property
    def keys(self) -> List[Any]:
        """The first column: one key per record."""
        return self.columns[0]

    @property
    def values(self) -> List[Any]:
        """The last column: one value per record."""
        return self.columns[-1]

    @property
    def timestamps(self) -> List[Any]:
        """The middle column of ``(key, timestamp, value)`` rows."""
        return self.columns[1]

    def __len__(self) -> int:
        return len(self.columns[0])

    def __iter__(self):
        rows = zip(*self.columns)
        return rows if self.row_type is tuple else map(list, rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        return self.row_type(column[index] for column in self.columns)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, RecordColumns):
            other = list(other)
        if not isinstance(other, list):
            return NotImplemented
        return list(self) == other

    __hash__ = None  # type: ignore[assignment]  # mutable, like list

    def __repr__(self) -> str:
        return f"RecordColumns({list(self)!r})"


@dataclass(frozen=True)
class SensorEvent:
    """A DEBS12-schema manufacturing-equipment event.

    Attributes:
        position: 1-based sequence number.
        timestamp: Event time in seconds (100 Hz sampling).
        energy: The three energy readings the paper aggregates
            ("aggregating three different energy readings from the
            DEBS12 dataset", Section 5.2).
        states: 51 sensor-state fields (binary/ordinal), carried for
            schema fidelity; the reproduced experiments do not
            aggregate them, exactly like the paper.
    """

    position: int
    timestamp: float
    energy: Tuple[float, float, float]
    states: Tuple[int, ...] = field(default=(), repr=False)

    def reading(self, index: int) -> float:
        """One of the three energy readings (0, 1 or 2)."""
        return self.energy[index]
