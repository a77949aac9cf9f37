"""Failure vocabulary for the fault-injection and resilience layers.

Every injected or detected failure surfaces as a :class:`DaemonError`
subclass, so the fetch path and the route layer can treat "the backend
is misbehaving" uniformly — retry it, trip a breaker on it, serve stale
for it, or turn it into a structured 503 — without ever letting a raw
traceback reach the browser.
"""

from __future__ import annotations


class FaultConfigError(ValueError):
    """A fault schedule is malformed: zero-length or negative-duration
    window, or two windows of the same kind overlapping on the same
    target.  Subclasses :class:`ValueError` so existing callers catching
    the old untyped validation errors keep working.

    Attributes
    ----------
    reason:
        Machine-readable tag: ``"empty-window"``, ``"inverted-window"``,
        or ``"overlap"``.
    """

    def __init__(self, reason: str, message: str):
        self.reason = reason
        super().__init__(message)


class DaemonError(RuntimeError):
    """Base class for backend-service failures (daemons and external APIs).

    Attributes
    ----------
    daemon:
        Name of the failing service ("slurmctld", "slurmdbd", "news", ...).
    command:
        The command-line tool in flight when the failure hit, if any
        (annotated by :class:`~repro.slurm.commands.base.SlurmCommand`).
    """

    def __init__(self, daemon: str, message: str = ""):
        self.daemon = daemon
        self.command: str = ""
        super().__init__(message or f"{daemon} failed")


class DaemonUnavailableError(DaemonError):
    """The daemon refused the connection: hard outage or injected error."""

    def __init__(self, daemon: str, reason: str = "unavailable"):
        self.reason = reason
        super().__init__(daemon, f"{daemon} is unavailable ({reason})")


class DaemonTimeoutError(DaemonError):
    """The daemon answered, but slower than the source's timeout allows."""

    def __init__(self, daemon: str, latency_s: float, timeout_s: float):
        self.latency_s = latency_s
        self.timeout_s = timeout_s
        super().__init__(
            daemon,
            f"{daemon} RPC took {latency_s:.3f}s (timeout {timeout_s:.3f}s)",
        )


class CircuitOpenError(DaemonError):
    """The circuit breaker for this daemon is open — fail fast, no RPC."""

    def __init__(self, daemon: str, retry_after_s: float = 0.0):
        self.retry_after_s = retry_after_s
        super().__init__(
            daemon,
            f"circuit breaker for {daemon} is open "
            f"(retry in {retry_after_s:.0f}s)",
        )


class SourceUnavailableError(DaemonError):
    """A data source could not be served at all: every attempt failed and
    the cache held no stale copy to fall back on.  The route layer maps
    this to a structured HTTP 503."""

    def __init__(self, source: str, daemon: str, cause: DaemonError):
        self.source = source
        self.cause = cause
        super().__init__(
            daemon,
            f"data source {source!r} unavailable: {cause}",
        )
