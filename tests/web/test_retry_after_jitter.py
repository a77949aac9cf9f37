"""Deterministic jitter on the ``Retry-After`` header.

Un-jittered rejection hints synchronize every rejected client onto the
same retry instant (a thundering herd against a service that just came
back).  :class:`RetryJitter` decorrelates them: each rejection draws
from one seeded ``repro.sim.rng`` stream, spreading the hinted header
into ``[hint, hint * 1.5)`` — reproducibly, because the stream is
seeded.  The JSON body keeps the exact un-jittered ``retry_after_s``
(machine-readable budget); only the header is spread.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.caching import CachePolicy
from repro.core.dashboard import build_demo_dashboard
from repro.faults import FaultPlan
from repro.web.delivery import RetryJitter
from repro.web.server import DashboardServer


class TestRetryJitterUnit:
    def test_same_seed_same_sequence(self):
        a = RetryJitter(seed=3)
        b = RetryJitter(seed=3)
        assert [a.jitter(30.0) for _ in range(5)] == [
            b.jitter(30.0) for _ in range(5)
        ]

    def test_consecutive_draws_differ(self):
        j = RetryJitter(seed=0)
        first, second = j.jitter(60.0), j.jitter(60.0)
        assert first != second

    def test_spread_bounds(self):
        j = RetryJitter(seed=1, spread=0.5)
        for _ in range(50):
            hint = j.jitter(10.0)
            assert 10.0 <= hint < 15.0

    def test_zero_spread_is_identity(self):
        j = RetryJitter(seed=0, spread=0.0)
        assert j.jitter(42.0) == 42.0

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            RetryJitter(spread=-0.1)


@pytest.fixture
def served():
    dash, directory, _ = build_demo_dashboard(
        duration_hours=0.5,
        seed=11,
        cache_policy=CachePolicy(timeouts_s={"squeue": 1.0}),
    )
    server = DashboardServer(dash).start()
    yield server, dash, directory
    server.stop()


def request(server, path, username):
    import urllib.error
    import urllib.request

    req = urllib.request.Request(
        server.url + path, headers={"X-Remote-User": username}
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, resp.headers, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


class TestRetryAfterHeaderJitter:
    def test_successive_rejections_get_different_hints(self, served):
        """Regression: two rejections sharing one un-jittered budget used
        to get byte-identical ``Retry-After`` headers.  Drive the breaker
        open (its cooldown hint is identical across back-to-back
        rejections on a frozen sim clock) and require the headers to
        spread while the JSON bodies stay on the exact budget."""
        server, dash, directory = served
        user = directory.users()[0].username
        plan = FaultPlan()
        plan.schedule_outage("slurmctld", start=dash.clock.now(), end=math.inf)
        dash.inject_faults(plan)

        rejections = []
        for _ in range(30):
            status, headers, body = request(
                server, "/api/v1/widgets/recent_jobs", user
            )
            if status == 503 and headers.get("Retry-After"):
                payload = json.loads(body)
                # breaker-open rejections: cooldown-sized hints, same
                # un-jittered budget on a frozen clock
                if payload.get("retry_after_s", 0) >= 10:
                    rejections.append(
                        (int(headers["Retry-After"]), payload["retry_after_s"])
                    )
            if len(rejections) == 2:
                break
        assert len(rejections) == 2, "breaker never opened"

        (header_a, body_a), (header_b, body_b) = rejections
        # body keeps the exact shared budget; header is spread
        assert body_a == body_b
        assert header_a != header_b
        for header, body in rejections:
            assert math.ceil(body) <= header <= math.ceil(body * 1.5)

    def test_header_jitter_is_reproducible_across_servers(self, served):
        """Same seed, same fault, same request sequence -> same headers
        (the jitter is deterministic, not random per process)."""
        server, dash, directory = served
        user = directory.users()[0].username
        plan = FaultPlan()
        plan.schedule_outage("slurmctld", start=dash.clock.now(), end=math.inf)
        dash.inject_faults(plan)

        def header_sequence(srv):
            out = []
            for _ in range(10):
                status, headers, _ = request(
                    srv, "/api/v1/widgets/recent_jobs", user
                )
                if headers.get("Retry-After"):
                    out.append(headers["Retry-After"])
            return out

        first = header_sequence(server)
        assert first, "no rejection carried Retry-After"

        dash2, directory2, _ = build_demo_dashboard(
            duration_hours=0.5,
            seed=11,
            cache_policy=CachePolicy(timeouts_s={"squeue": 1.0}),
        )
        plan2 = FaultPlan()
        plan2.schedule_outage(
            "slurmctld", start=dash2.clock.now(), end=math.inf
        )
        dash2.inject_faults(plan2)
        server2 = DashboardServer(dash2).start()
        try:
            assert header_sequence(server2) == first
        finally:
            server2.stop()
