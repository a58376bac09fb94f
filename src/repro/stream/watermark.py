"""A unified, monotone watermark model for count- and event-time streams.

A *watermark* is a monotone promise about completeness: once a stream's
watermark reaches ``w``, no record ordered before ``w`` will be accepted
any more, so every window (slice) that ends at or before ``w`` can be
closed and its aggregate emitted.  Before this module existed the repo
had two disconnected incarnations of that idea — the count-based slice
watermark the :class:`~repro.service.partition.Router` stamps on flush
rounds, and the implicit "latest timestamp seen" cursor inside
:class:`~repro.windows.timebased.TimeSlicer` — with no shared contract.
Both are now instances of :class:`Watermark`:

* count streams advance it with ``SliceClock.slices_closed_by(position)``
  (the number of *slices* fully covered by the records routed so far);
* event-time streams advance it with a :class:`BoundedLatenessWatermark`
  value (``max event timestamp seen − allowed lateness``) mapped through
  a :class:`TimeSliceClock` to the same "number of closed slices" unit.

Monotonicity is enforced at the type level: :meth:`Watermark.advance`
ignores regressions instead of trusting every caller to pre-compare,
which is what lets a restarted shard worker replay old batches without
ever reporting a watermark older than its checkpoint.
"""

from __future__ import annotations

import math
from typing import Union

from ..errors import InvalidQueryError

__all__ = ["Watermark", "BoundedLatenessWatermark", "TimeSliceClock"]

Ordered = Union[int, float]


class Watermark:
    """A monotone high-water cursor over any totally ordered domain.

    The single invariant is that :attr:`value` never decreases.  All the
    repo's completeness tracking — router flush rounds, per-shard merge
    frontiers, time-slicer cursors — funnels through this type so the
    invariant lives in exactly one place.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Ordered = 0):
        self._value = value

    @property
    def value(self) -> Ordered:
        return self._value

    def advance(self, value: Ordered) -> bool:
        """Raise the watermark to ``value`` if that is an advance.

        Returns ``True`` when the watermark moved; a stale (smaller or
        equal) value is ignored and returns ``False`` — never an error,
        because replayed batches and racing shards legitimately present
        old watermarks.
        """
        if value > self._value:
            self._value = value
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Watermark({self._value!r})"


class BoundedLatenessWatermark(Watermark):
    """An event-time watermark trailing the newest timestamp by a bound.

    ``observe(ts)`` folds one record's event timestamp in; the watermark
    value is ``max timestamp seen − lateness``.  A record is *late* —
    its slice may already be closed — exactly when its timestamp is
    strictly below :attr:`value`; a record at the watermark itself is
    still acceptable.  Monotone because the max is monotone and the
    bound is constant.
    """

    __slots__ = ("lateness", "_high")

    def __init__(self, lateness: float):
        if not (lateness >= 0.0) or not math.isfinite(lateness):
            raise InvalidQueryError(
                f"lateness bound must be finite and >= 0, got {lateness!r}"
            )
        super().__init__(-math.inf)
        self.lateness = float(lateness)
        self._high = -math.inf

    @property
    def high(self) -> float:
        """The newest event timestamp observed so far (``-inf`` if none)."""
        return self._high

    def observe(self, timestamp: float) -> bool:
        """Fold one event timestamp in; returns ``True`` on advance."""
        if timestamp > self._high:
            self._high = timestamp
            return self.advance(timestamp - self.lateness)
        return False

    def is_late(self, timestamp: float) -> bool:
        """Whether ``timestamp`` is strictly behind the watermark.

        A record *at* the watermark is still acceptable — lateness
        requires being strictly below it.
        """
        return timestamp < self.value


class TimeSliceClock:
    """Maps event timestamps to time-slice indexes and back.

    Answers the same contract as :class:`repro.service.slices.SliceClock`
    (``slice_of``, ``slices_closed_by``, exclusive ``slice_end``) over
    timestamps instead of arrival positions.  Slice ``k`` covers the
    half-open interval ``[origin + k*g, origin + (k+1)*g)`` for slice
    width ``g``, matching ``TimeSlicer``'s assignment rule, so a record
    exactly on a boundary belongs to the *next* slice.
    """

    __slots__ = ("slice_seconds", "origin")

    def __init__(self, slice_seconds: float, origin: float = 0.0):
        if not (slice_seconds > 0.0) or not math.isfinite(slice_seconds):
            raise InvalidQueryError(
                f"slice width must be finite and > 0, got {slice_seconds!r}"
            )
        self.slice_seconds = float(slice_seconds)
        self.origin = float(origin)

    def slice_of(self, timestamp: float) -> int:
        """The slice index the record at ``timestamp`` belongs to."""
        return int((timestamp - self.origin) // self.slice_seconds)

    def slices_closed_by(self, watermark: float) -> int:
        """How many slices a watermark at ``watermark`` seconds closes.

        Slice ``k`` closes once no record with timestamp below its end
        ``origin + (k+1)*g`` can arrive — i.e. once the watermark
        reaches that end.  Clamped at zero so a fresh stream (watermark
        still ``-inf``) reports no closed slices instead of a negative
        count.
        """
        if watermark == -math.inf:
            return 0
        return max(0, int((watermark - self.origin) // self.slice_seconds))

    def slice_end(self, index: int) -> float:
        """The exclusive end timestamp of slice ``index``."""
        return self.origin + (index + 1) * self.slice_seconds
