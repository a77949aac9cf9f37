"""Fault injection + resilience: keep the dashboard useful when the
cluster's daemons are not.

:class:`FaultPlan` schedules outages, brownouts, and flaky windows
against the simulated backends; :class:`ResilientFetcher` gives the
dashboard's fetch path timeouts, retries, circuit breakers, and
serve-stale fallback so injected chaos degrades responses instead of
crashing them.  :mod:`repro.faults.admission` layers overload control
on top: per-request :class:`Deadline` budgets and the brownout
:class:`AdmissionController` that sheds load before a brownout becomes
a blackout.
"""

from .admission import (
    TIERS,
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
    Deadline,
)
from .errors import (
    CircuitOpenError,
    DaemonError,
    DaemonTimeoutError,
    DaemonUnavailableError,
    DeadlineExceededError,
    FaultConfigError,
    SourceUnavailableError,
)
from .plan import ANY_SERVICE, FaultPlan, FaultWindow
from .resilience import (
    BreakerConfig,
    CircuitBreaker,
    FetchOutcome,
    ResilientFetcher,
    RetryPolicy,
    service_for_source,
)

__all__ = [
    "ANY_SERVICE",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "BreakerConfig",
    "CircuitBreaker",
    "CircuitOpenError",
    "DaemonError",
    "DaemonTimeoutError",
    "DaemonUnavailableError",
    "Deadline",
    "DeadlineExceededError",
    "FaultConfigError",
    "FaultPlan",
    "FaultWindow",
    "FetchOutcome",
    "ResilientFetcher",
    "RetryPolicy",
    "SourceUnavailableError",
    "TIERS",
    "service_for_source",
]
