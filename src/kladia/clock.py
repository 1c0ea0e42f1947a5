"""Injected virtual clock.

Protocol timing (72h challenge windows, 14-day correction deadlines,
voting periods, timelocks) always reads time from the VirtualClock it is
given, which moves only when advanced, at one-hour granularity: the
simulator, `kld cycle` and the tests all use it.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone


class VirtualClock:
    """Deterministic clock advanced explicitly, one-hour granularity."""

    def __init__(self, start: datetime):
        if start.tzinfo is None:
            start = start.replace(tzinfo=timezone.utc)
        self._now = start

    def now(self) -> datetime:
        return self._now

    def advance_hours(self, hours: int) -> datetime:
        if hours < 0:
            raise ValueError("clock cannot move backwards")
        self._now += timedelta(hours=hours)
        return self._now

    def advance_days(self, days: int) -> datetime:
        return self.advance_hours(days * 24)
