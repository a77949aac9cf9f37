"""Admission control: deadlines and the brownout loop.

The overload contract added on top of retry/breaker/serve-stale:

* a request's :class:`Deadline` bounds total spend — the retry loop
  stops the moment the remaining budget cannot cover another attempt,
  producing a structured 504 with no wasted backoff;
* the :class:`AdmissionController` steps ``normal → brownout → shed``
  one tier per evaluation and keeps essential routes alive throughout.
"""

from __future__ import annotations

import pytest

from repro.auth import Directory
from repro.core.caching import CachePolicy
from repro.core.dashboard import Dashboard
from repro.faults import (
    AdmissionConfig,
    AdmissionController,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
)
from repro.obs import MetricsRegistry
from repro.sim.clock import SimClock
from repro.slurm import small_test_cluster


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0.0)
        with pytest.raises(ValueError):
            Deadline(-1.0)

    def test_elapsed_combines_wall_time_and_charges(self):
        t = {"v": 100.0}
        d = Deadline(10.0, now=lambda: t["v"])
        assert d.elapsed() == 0.0
        t["v"] = 101.0  # one wall second passes
        d.charge(2.5)  # plus simulated RPC latency
        assert d.elapsed() == pytest.approx(3.5)
        assert d.remaining() == pytest.approx(6.5)

    def test_negative_charges_ignored(self):
        d = Deadline(10.0, now=lambda: 0.0)
        d.charge(-5.0)
        assert d.elapsed() == 0.0

    def test_expiry_and_affordability(self):
        d = Deadline(3.0, now=lambda: 0.0)
        assert not d.expired()
        assert d.can_afford(3.0)
        assert not d.can_afford(3.1)
        d.charge(2.0)
        assert d.can_afford(1.0) and not d.can_afford(1.5)
        d.charge(2.0)
        assert d.expired()
        assert d.remaining() < 0


class _StubFetcher:
    """Just enough fetcher surface for the controller's signals."""

    def __init__(self):
        self.states = {}

    def breaker_states(self):
        return dict(self.states)


def make_controller(**overrides):
    clock = SimClock()
    registry = MetricsRegistry()
    fetcher = _StubFetcher()
    config = AdmissionConfig(
        eval_interval_s=overrides.pop("eval_interval_s", 0.0),
        min_dwell_s=overrides.pop("min_dwell_s", 30.0),
        **overrides,
    )
    ctrl = AdmissionController(config, registry=registry, fetcher=fetcher, clock=clock)
    return ctrl, fetcher, clock, registry


class TestAdmissionController:
    def test_starts_normal_and_admits_everything(self):
        ctrl, _, _, registry = make_controller()
        assert ctrl.tier == "normal"
        assert ctrl.admit_route("job_performance").allowed
        assert ctrl.ttl_multiplier() == 1.0
        assert registry.get("repro_brownout_tier").value() == 0.0

    def test_open_breaker_steps_into_brownout(self):
        ctrl, fetcher, _, registry = make_controller()
        fetcher.states = {"slurmctld": "open"}
        assert ctrl.evaluate() == "brownout"
        assert registry.get("repro_brownout_tier").value() == 1.0
        assert ctrl.ttl_multiplier() == ctrl.config.brownout_ttl_multiplier

    def test_half_open_breaker_alone_is_not_distress(self):
        ctrl, fetcher, _, _ = make_controller()
        fetcher.states = {"slurmctld": "half_open"}
        assert ctrl.evaluate() == "normal"

    def test_one_step_per_evaluation(self):
        ctrl, fetcher, _, _ = make_controller()
        fetcher.states = {"slurmctld": "open", "slurmdbd": "open"}  # score 4
        assert ctrl.evaluate() == "brownout"  # not straight to shed
        assert ctrl.evaluate() == "shed"

    def test_brownout_rejects_expensive_routes_only(self):
        ctrl, fetcher, _, registry = make_controller()
        fetcher.states = {"slurmctld": "open"}
        ctrl.evaluate()
        rejected = ctrl.admit_route("job_performance")
        assert not rejected.allowed
        assert rejected.status == 503 and rejected.reason == "brownout"
        assert rejected.retry_after_s > 0
        assert ctrl.admit_route("recent_jobs").allowed
        assert ctrl.admit_route("my_jobs").allowed
        counter = registry.get("repro_admission_rejected_total")
        assert counter.value(reason="brownout") == 1.0

    def test_shed_keeps_essential_routes_alive(self):
        ctrl, fetcher, _, _ = make_controller()
        fetcher.states = {"slurmctld": "open", "slurmdbd": "open"}
        ctrl.evaluate()
        ctrl.evaluate()
        assert ctrl.tier == "shed"
        assert ctrl.admit_route("homepage").allowed
        assert ctrl.admit_route("my_jobs").allowed
        rejected = ctrl.admit_route("recent_jobs")
        assert not rejected.allowed
        assert rejected.status == 503 and rejected.reason == "shed"

    def test_recovery_requires_dwell(self):
        ctrl, fetcher, clock, _ = make_controller(min_dwell_s=60.0)
        fetcher.states = {"slurmctld": "open"}
        ctrl.evaluate()
        fetcher.states = {}
        assert ctrl.evaluate() == "brownout"  # healthy again, but too soon
        clock.advance(61)
        assert ctrl.evaluate() == "normal"

    def test_evaluation_rate_limited_on_sim_time(self):
        ctrl, fetcher, clock, _ = make_controller(eval_interval_s=5.0)
        fetcher.states = {"slurmctld": "open"}
        assert ctrl.maybe_evaluate() == "normal"  # gated: just constructed
        clock.advance(5)
        assert ctrl.maybe_evaluate() == "brownout"

    def test_report_shape(self):
        ctrl, fetcher, _, _ = make_controller()
        fetcher.states = {"slurmctld": "open"}
        ctrl.evaluate()
        report = ctrl.report()
        assert report["tier"] == "brownout"
        assert report["tier_index"] == 1
        assert report["signals"]["breakers_open"] == 1
        assert report["signals"]["score"] == 2
        assert set(report["signals"]) == {
            "breakers_open", "breakers_half_open", "route_p95_s", "score",
        }


@pytest.fixture
def tight_dash():
    """A tiny world with aggressive timeouts and a 3 s route deadline."""
    cluster = small_test_cluster()
    directory = Directory()
    directory.add_user("alice")
    directory.add_account("lab", members=["alice"], managers=["alice"])
    policy = CachePolicy(
        timeouts_s={"squeue": 1.0},
        deadlines_s={"recent_jobs": 3.0},
    )
    return Dashboard(cluster, directory, cache_policy=policy)


class TestDeadlineMidRetry:
    def test_exhaustion_stops_the_retry_loop(self, tight_dash, alice_v):
        """Attempt 1 against a 5 s-slow daemon spends the whole 3 s
        budget: exactly one RPC, no backoff scheduled, a structured 504
        with a retry hint, and the span flagged ``deadline_exceeded``."""
        dash = tight_dash
        plan = FaultPlan()
        plan.schedule_slowdown("slurmctld", extra_latency_s=5.0)
        dash.inject_faults(plan)
        ctld = dash.ctx.cluster.daemons.ctld
        rpcs_before = ctld.total_rpcs

        resp = dash.call("recent_jobs", alice_v)

        assert not resp.ok and resp.status == 504
        assert "deadline" in resp.error
        assert resp.retry_after_s is not None and resp.retry_after_s > 0
        assert ctld.total_rpcs == rpcs_before + 1  # no retry RPCs
        assert dash.ctx.fetcher.backoff_log == []  # no backoff slept
        rejected = dash.ctx.obs.registry.get("repro_admission_rejected_total")
        assert rejected.value(reason="deadline") == 1.0
        root = dash.ctx.obs.tracer.recent(1)[0]
        assert root.name == "route:recent_jobs"
        assert root.attrs.get("deadline_exceeded") is True

    def test_explicit_deadline_overrides_route_default(self, tight_dash, alice_v):
        dash = tight_dash
        plan = FaultPlan()
        plan.schedule_slowdown("slurmctld", extra_latency_s=5.0)
        dash.inject_faults(plan)
        # a huge explicit budget lets the full retry schedule run: the
        # route now fails with the underlying 503, not a 504
        resp = dash.call(
            "recent_jobs", alice_v, deadline=Deadline(600.0)
        )
        assert not resp.ok and resp.status == 503
        assert dash.ctx.fetcher.backoff_log != []  # retries actually ran

    def test_deadline_spared_by_fresh_cache(self, tight_dash, alice_v):
        dash = tight_dash
        warm = dash.call("recent_jobs", alice_v)
        assert warm.ok
        plan = FaultPlan()
        plan.schedule_slowdown("slurmctld", extra_latency_s=5.0)
        dash.inject_faults(plan)
        # fresh hit short-circuits before any deadline accounting
        resp = dash.call("recent_jobs", alice_v)
        assert resp.ok and resp.status == 200


class TestBrownoutSurface:
    def force_brownout(self, dash):
        breaker = dash.ctx.fetcher.breaker_for("slurmctld")
        for _ in range(breaker.config.failure_threshold):
            breaker.record_failure()
        assert breaker.state == "open"
        assert dash.ctx.admission.evaluate() == "brownout"

    def test_homepage_shows_banner(self, tight_dash, alice_v):
        dash = tight_dash
        self.force_brownout(dash)
        html = dash.render_homepage(alice_v).html
        assert "brownout-banner" in html
        assert 'data-tier="brownout"' in html

    def test_normal_homepage_has_no_banner(self, tight_dash, alice_v):
        html = tight_dash.render_homepage(alice_v).html
        assert "brownout-banner" not in html

    def test_expensive_route_rejected_with_tier_span(self, tight_dash, alice_v):
        dash = tight_dash
        self.force_brownout(dash)
        resp = dash.call("job_performance", alice_v)
        assert not resp.ok and resp.status == 503
        assert resp.retry_after_s is not None and resp.retry_after_s > 0
        root = dash.ctx.obs.tracer.recent(1)[0]
        assert root.attrs.get("admission") == "brownout"

    def test_ttls_stretched_during_brownout(self, tight_dash, alice_v):
        dash = tight_dash
        warm = dash.call("recent_jobs", alice_v)
        assert warm.ok
        rpcs_before = dash.ctx.cluster.daemons.ctld.total_rpcs
        self.force_brownout(dash)
        # past the normal squeue TTL but inside the stretched one: the
        # entry is still treated as fresh, no daemon query happens
        ttl = dash.ctx.cache_policy.ttl_for("squeue")
        dash.clock.advance(ttl + 1)
        resp = dash.call("recent_jobs", alice_v)
        assert resp.ok and resp.status == 200
        assert dash.ctx.cluster.daemons.ctld.total_rpcs == rpcs_before


class TestStaleRescueOfAdmissionErrors:
    def test_deadline_exceeded_serves_stale_when_available(
        self, tight_dash, alice_v
    ):
        dash = tight_dash
        warm = dash.call("recent_jobs", alice_v)
        assert warm.ok
        # expire the entry, then slow the daemon beyond the budget
        dash.clock.advance(dash.ctx.cache_policy.ttl_for("squeue") + 1)
        plan = FaultPlan()
        plan.schedule_slowdown("slurmctld", extra_latency_s=5.0)
        dash.inject_faults(plan)
        resp = dash.call("recent_jobs", alice_v)
        assert resp.ok and resp.status == 200
        assert resp.degraded is True
        assert resp.stale_age_s is not None and resp.stale_age_s > 0
