"""Virtual clock for deterministic simulation.

Every substrate in :mod:`repro` (the Slurm scheduler, the TTL caches, the
news feed, ...) takes time from a :class:`SimClock` instead of
``time.time()``.  This makes the whole dashboard deterministic and lets
tests and benchmarks advance hours of simulated wall time instantly.

The clock counts seconds since a configurable epoch.  Helpers convert
between the float timestamp used internally and the ISO-8601 strings that
Slurm command output uses (``2025-11-16T08:30:00``).
"""

from __future__ import annotations

import datetime as _dt
from typing import Callable, List

#: Default simulation epoch: the first day of SC'25, where the paper was
#: presented.  Any fixed date works; tests rely on determinism, not the
#: particular value.
DEFAULT_EPOCH = _dt.datetime(2025, 11, 16, 0, 0, 0)

ISO_FORMAT = "%Y-%m-%dT%H:%M:%S"


class SimClock:
    """A monotonically advancing virtual clock.

    Parameters
    ----------
    start:
        Initial timestamp in seconds since the epoch.  Defaults to 0.
    epoch:
        Calendar datetime corresponding to ``t == 0``.
    """

    __slots__ = ("_now", "_epoch", "_observers")

    def __init__(self, start: float = 0.0, epoch: _dt.datetime = DEFAULT_EPOCH):
        if start < 0:
            raise ValueError(f"clock cannot start before the epoch: {start}")
        self._now = float(start)
        self._epoch = epoch
        self._observers: List[Callable[[float], None]] = []

    # -- reading ---------------------------------------------------------

    def now(self) -> float:
        """Current simulated time in seconds since the epoch."""
        return self._now

    @property
    def epoch(self) -> _dt.datetime:
        return self._epoch

    def datetime(self, t: float | None = None) -> _dt.datetime:
        """Calendar datetime for ``t`` (default: now)."""
        if t is None:
            t = self._now
        return self._epoch + _dt.timedelta(seconds=t)

    def isoformat(self, t: float | None = None) -> str:
        """ISO-8601 string Slurm-style (no timezone) for ``t``."""
        return self.datetime(t).strftime(ISO_FORMAT)

    def isoformat_tz(self, t: float | None = None, offset_minutes: int = 0) -> str:
        """ISO-8601 string shifted into a viewer's local timezone.

        The simulation epoch is treated as UTC; the dashboard's frontend
        adjusts display times "for the user's local timezone" (paper §7),
        which we model with an explicit offset.

        >>> SimClock().isoformat_tz(0, offset_minutes=-300)
        '2025-11-15T19:00:00-05:00'
        """
        if not -24 * 60 <= offset_minutes <= 24 * 60:
            raise ValueError(f"implausible timezone offset: {offset_minutes} min")
        if t is None:
            t = self._now
        local = self.datetime(t) + _dt.timedelta(minutes=offset_minutes)
        sign = "+" if offset_minutes >= 0 else "-"
        hh, mm = divmod(abs(offset_minutes), 60)
        return f"{local.strftime(ISO_FORMAT)}{sign}{hh:02d}:{mm:02d}"

    def parse_iso(self, s: str) -> float:
        """Inverse of :meth:`isoformat`: seconds since the epoch."""
        dt = _dt.datetime.strptime(s, ISO_FORMAT)
        return (dt - self._epoch).total_seconds()

    # -- advancing -------------------------------------------------------

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds`` (must be >= 0)."""
        if seconds < 0:
            raise ValueError(f"time cannot move backwards: {seconds}")
        self._now += float(seconds)
        for obs in self._observers:
            obs(self._now)
        return self._now

    def advance_to(self, t: float) -> float:
        """Move the clock forward to absolute time ``t`` (>= now)."""
        if t < self._now:
            raise ValueError(
                f"advance_to({t}) would move time backwards from {self._now}"
            )
        return self.advance(t - self._now)

    def subscribe(self, fn: Callable[[float], None]) -> None:
        """Call ``fn(now)`` after every advance (used by daemons)."""
        self._observers.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(t={self._now:.1f}, {self.isoformat()})"


def duration_hms(seconds: float) -> str:
    """Format a duration the way Slurm does: ``D-HH:MM:SS`` or ``HH:MM:SS``.

    >>> duration_hms(3661)
    '01:01:01'
    >>> duration_hms(90061)
    '1-01:01:01'
    """
    seconds = int(max(0, round(seconds)))
    days, rem = divmod(seconds, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, secs = divmod(rem, 60)
    if days:
        return f"{days}-{hours:02d}:{minutes:02d}:{secs:02d}"
    return f"{hours:02d}:{minutes:02d}:{secs:02d}"


def parse_duration(text: str) -> float:
    """Parse Slurm duration strings: ``MM:SS``, ``HH:MM:SS``, ``D-HH:MM:SS``,
    ``D-HH``, ``D-HH:MM`` and bare minutes (``sbatch --time=30``).

    Returns seconds.  Raises :class:`ValueError` on malformed input.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty duration")
    if text in ("UNLIMITED", "INFINITE", "NOT_SET"):
        return float("inf")
    days = 0
    if "-" in text:
        day_part, _, text = text.partition("-")
        days = int(day_part)
        parts = text.split(":")
        if len(parts) == 1:
            h, m, s = int(parts[0]), 0, 0
        elif len(parts) == 2:
            h, m = int(parts[0]), int(parts[1])
            s = 0
        elif len(parts) == 3:
            h, m, s = (int(p) for p in parts)
        else:
            raise ValueError(f"bad duration: {text!r}")
    else:
        parts = text.split(":")
        if len(parts) == 1:
            # Bare number = minutes, per sbatch(1).
            h, m, s = 0, int(parts[0]), 0
        elif len(parts) == 2:
            h, m, s = 0, int(parts[0]), int(parts[1])
        elif len(parts) == 3:
            h, m, s = (int(p) for p in parts)
        else:
            raise ValueError(f"bad duration: {text!r}")
    if m >= 60 and len(parts) > 1:
        raise ValueError(f"minutes out of range in {text!r}")
    if s >= 60:
        raise ValueError(f"seconds out of range in {text!r}")
    return float(days * 86400 + h * 3600 + m * 60 + s)
