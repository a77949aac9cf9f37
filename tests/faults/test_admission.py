"""Admission control: the brownout loop.

The overload contract on top of retry/breaker/serve-stale: the
:class:`AdmissionController` steps ``normal → brownout → shed`` one tier
per evaluation and keeps essential routes alive throughout.
"""

from __future__ import annotations

import pytest

from repro.auth import Directory
from repro.core.caching import CachePolicy
from repro.core.dashboard import Dashboard
from repro.faults import AdmissionConfig, AdmissionController
from repro.obs import MetricsRegistry
from repro.sim.clock import SimClock
from repro.slurm import small_test_cluster


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
    """A tiny world with aggressive timeouts."""
    cluster = small_test_cluster()
    directory = Directory()
    directory.add_user("alice")
    directory.add_account("lab", members=["alice"], managers=["alice"])
    policy = CachePolicy(timeouts_s={"squeue": 1.0})
    return Dashboard(cluster, directory, cache_policy=policy)


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

