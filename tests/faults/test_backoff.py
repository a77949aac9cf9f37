"""Retry policy: a request's fetch makes up to ``max_attempts`` attempts,
a background refresh exactly one."""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, RetryPolicy


class TestRetryPolicy:
    def test_validates_config(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestFetcherBackoffDeterminism:
    def test_retries_are_counted(self):
        from repro.auth import Directory, Viewer
        from repro.core.dashboard import Dashboard
        from repro.slurm import small_test_cluster

        directory = Directory()
        directory.add_user("alice")
        directory.add_account("lab", members=["alice"])
        dash = Dashboard(small_test_cluster(), directory)
        plan = FaultPlan()
        plan.schedule_outage("slurmctld", start=0.0)
        dash.inject_faults(plan)
        dash.call("recent_jobs", Viewer(username="alice"))
        # default policy: 3 attempts -> 2 retries for the one fetch
        assert dash.ctx.cache.stats.retries == 2


class TestRefreshMakesOneAttempt:
    def test_refresh_against_a_down_daemon_fails_once(self, dash, alice_v):
        """A background refresh that meets an outage makes one RPC, counts
        one breaker failure and no retry, and leaves the entry served."""
        captured = []
        dash.ctx.cache.refresh_runner = lambda thunk: (captured.append(thunk) or True)
        warm = dash.call("recent_jobs", alice_v)
        assert warm.ok
        # inside the soft window (0.8 x 30 s squeue TTL), before hard expiry
        dash.clock.advance(25.0)
        assert dash.call("recent_jobs", alice_v).ok
        assert len(captured) == 1

        plan = FaultPlan()
        plan.schedule_outage("slurmctld", start=dash.clock.now())
        dash.inject_faults(plan)
        ctld = dash.ctx.cluster.daemons.ctld
        breaker = dash.ctx.fetcher.breaker_for("slurmctld")
        registry = dash.ctx.obs.registry
        entry = dash.ctx.cache.entry("squeue:alice")
        failed_before = ctld.failed_rpcs
        failures_before = breaker._consecutive_failures
        retries_before = registry.total("repro_fetch_retries_total")

        captured[0]()

        assert ctld.failed_rpcs == failed_before + 1
        assert breaker._consecutive_failures == failures_before + 1
        assert registry.total("repro_fetch_retries_total") == retries_before
        assert dash.ctx.cache.entry("squeue:alice") is entry
        served = dash.call("recent_jobs", alice_v)
        assert served.ok and not served.degraded
