"""Admission control: brownout load shedding.

The resilient fetch path bounds each fetch (per-source timeout, retries,
circuit breaker, serve-stale), but on its own it keeps querying a sick
backend at full rate.  :class:`AdmissionController` is a feedback loop
over breaker states and route p95 latency that steps the dashboard
through ``normal → brownout → shed`` tiers: brownout stretches TTLs and
disables expensive pages, shed rejects everything non-essential while
``/healthz``, ``/metrics`` and My Jobs stay alive.

Concurrency against a daemon is not capped here: single-flight keeps
one compute per cache key, and refresh-ahead runs on the bounded
worker pool.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.obs.metrics import Histogram, MetricsRegistry, quantile_from_buckets

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import SimClock

    from .resilience import ResilientFetcher

#: the admission tiers, in order of escalation; the gauge value is the index
TIERS: Tuple[str, ...] = ("normal", "brownout", "shed")

#: every value the ``reason`` label of ``repro_admission_rejected_total``
#: can take (pre-seeded to zero so the family always renders)
REJECT_REASONS: Tuple[str, ...] = ("brownout", "shed")


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning for the whole admission layer.

    Defaults are deliberately generous: evaluation gated on simulated
    time, and tier thresholds that a single recovering breaker
    (half-open, +1) cannot trip — admission only bites under genuine
    distress.
    """

    #: Retry-After hint attached to brownout/shed rejections
    retry_after_s: float = 1.0
    #: minimum simulated seconds between controller evaluations
    eval_interval_s: float = 5.0
    #: minimum simulated seconds in a tier before stepping back down
    min_dwell_s: float = 30.0
    #: distress score at which the tier may step up to brownout / shed
    brownout_at: int = 2
    shed_at: int = 4
    #: route p95 latency (s) that scores +1 / +2 distress
    p95_brownout_s: float = 1.0
    p95_shed_s: float = 5.0
    #: TTL stretch applied to every source while not in "normal"
    brownout_ttl_multiplier: float = 4.0
    #: routes disabled during brownout (the expensive aggregates)
    expensive_routes: Tuple[str, ...] = ("job_performance", "job_overview")
    #: routes that survive even shed (liveness surface + My Jobs)
    essential_routes: Tuple[str, ...] = ("homepage", "my_jobs")


@dataclass
class AdmissionDecision:
    """Outcome of one route admission check."""

    allowed: bool
    reason: str = ""
    message: str = ""
    status: int = 200
    retry_after_s: float = 0.0


class AdmissionController:
    """The brownout feedback loop: distress signals in, tier out.

    Each evaluation (rate-limited to one per ``eval_interval_s`` of
    *simulated* time, so request bursts at one instant evaluate once)
    computes a distress score from two signals:

    * circuit breakers — +2 per open breaker, +1 per half-open;
    * route latency — +1 / +2 when the aggregate route p95 passes the
      brownout / shed thresholds.

    The tier moves **one step per evaluation** toward the score's target
    (``normal`` < ``brownout_at`` <= brownout < ``shed_at`` <= shed) and
    must dwell ``min_dwell_s`` before stepping back down, so a flapping
    breaker cannot flap the whole dashboard.
    """

    def __init__(self, config: AdmissionConfig, registry: MetricsRegistry,
                 fetcher: "ResilientFetcher", clock: "SimClock"):
        self.config = config
        self.registry = registry
        self.fetcher = fetcher
        self.clock = clock
        self._lock = threading.Lock()
        self._tier = "normal"
        self._tier_since = clock.now()
        self._last_eval = clock.now()
        self._signals: Dict[str, Any] = {}
        self._tier_gauge = registry.gauge(
            "repro_brownout_tier",
            "Current admission tier (0=normal, 1=brownout, 2=shed).",
        )
        self._tier_gauge.set(0.0)
        self._rejected = registry.counter(
            "repro_admission_rejected_total",
            "Requests rejected by the admission layer, by reason.",
            ("reason",),
        )
        for reason in REJECT_REASONS:
            self._rejected.inc(0.0, reason=reason)
        self._transitions = registry.counter(
            "repro_brownout_transitions_total",
            "Admission tier transitions, by destination tier.",
            ("to",),
        )

    # -- state ---------------------------------------------------------------

    @property
    def tier(self) -> str:
        """Current tier name (no evaluation side effects)."""
        with self._lock:
            return self._tier

    def ttl_multiplier(self) -> float:
        """TTL stretch for the fetch path: >1 outside ``normal``."""
        return 1.0 if self.tier == "normal" else self.config.brownout_ttl_multiplier

    def force_tier(self, tier: str) -> None:
        """Pin the tier directly (operator override, benchmarks).

        Bypasses the scoring loop but keeps the gauge, transition
        counter, and dwell clock consistent; the next evaluation may
        step away again once its interval and dwell allow.
        """
        if tier not in TIERS:
            raise ValueError(f"unknown admission tier: {tier!r}")
        now = self.clock.now()
        with self._lock:
            if tier != self._tier:
                self._tier = tier
                self._tier_since = now
                self._transitions.inc(to=tier)
            self._last_eval = now
            self._tier_gauge.set(float(TIERS.index(tier)))

    # -- the feedback loop ---------------------------------------------------

    def score(self) -> Tuple[int, Dict[str, Any]]:
        """Current distress score and the signals behind it."""
        states = self.fetcher.breaker_states()
        open_n = sum(1 for s in states.values() if s == "open")
        half_n = sum(1 for s in states.values() if s == "half_open")
        score = 2 * open_n + half_n

        p95 = self._route_p95()
        if p95 is not None:
            if p95 >= self.config.p95_shed_s:
                score += 2
            elif p95 >= self.config.p95_brownout_s:
                score += 1

        signals = {
            "breakers_open": open_n,
            "breakers_half_open": half_n,
            "route_p95_s": round(p95, 6) if p95 is not None else None,
            "score": score,
        }
        return score, signals

    def _route_p95(self) -> Optional[float]:
        """Aggregate p95 across every route's latency histogram."""
        family = self.registry.get("repro_route_latency_seconds")
        if not isinstance(family, Histogram):
            return None
        bounds = list(family.buckets) + [float("inf")]
        combined = [0] * len(bounds)
        total = 0
        for labels in family.labelsets():
            series = family.snapshot(**labels)
            if series is None:
                continue
            for i, count in enumerate(series.bucket_counts):
                combined[i] += count
            total += series.count
        if total == 0:
            return None
        return quantile_from_buckets(bounds, combined, 0.95)

    def maybe_evaluate(self) -> str:
        """Evaluate at most once per ``eval_interval_s`` of sim time."""
        now = self.clock.now()
        with self._lock:
            if now - self._last_eval < self.config.eval_interval_s:
                return self._tier
        return self.evaluate()

    def evaluate(self) -> str:
        """Recompute the score and move the tier at most one step."""
        now = self.clock.now()
        target_score, signals = self.score()
        if target_score >= self.config.shed_at:
            target = 2
        elif target_score >= self.config.brownout_at:
            target = 1
        else:
            target = 0
        with self._lock:
            self._last_eval = now
            self._signals = signals
            current = TIERS.index(self._tier)
            new = current
            if target > current:
                new = current + 1
            elif target < current and now - self._tier_since >= self.config.min_dwell_s:
                new = current - 1
            if new != current:
                self._tier = TIERS[new]
                self._tier_since = now
                self._transitions.inc(to=self._tier)
            self._tier_gauge.set(float(new))
            return self._tier

    # -- admission decisions -------------------------------------------------

    def admit_route(self, name: str) -> AdmissionDecision:
        """Decide whether route ``name`` may run under the current tier."""
        tier = self.maybe_evaluate()
        cfg = self.config
        if tier == "normal" or name in cfg.essential_routes:
            return AdmissionDecision(True)
        if tier == "shed":
            self._rejected.inc(reason="shed")
            return AdmissionDecision(
                False,
                reason="shed",
                status=503,
                retry_after_s=cfg.retry_after_s,
                message=(
                    f"the dashboard is shedding load; route {name!r} is "
                    "temporarily disabled (essential routes stay available)"
                ),
            )
        if name in cfg.expensive_routes:
            self._rejected.inc(reason="brownout")
            return AdmissionDecision(
                False,
                reason="brownout",
                status=503,
                retry_after_s=cfg.retry_after_s,
                message=(
                    f"the dashboard is in brownout; expensive route {name!r} "
                    "is temporarily disabled"
                ),
            )
        return AdmissionDecision(True)

    # -- reporting -----------------------------------------------------------

    def report(self) -> Dict[str, Any]:
        """Tier + signals for ``/healthz`` and the overload report."""
        with self._lock:
            return {
                "tier": self._tier,
                "tier_index": TIERS.index(self._tier),
                "since": self._tier_since,
                "signals": dict(self._signals),
            }
