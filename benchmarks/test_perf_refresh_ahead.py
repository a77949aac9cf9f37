"""P6 — refresh-ahead caching.

A latency claim layered on the caching story of §2.4:

* **refresh-ahead** keeps hot keys perpetually warm: once a key is
  popular, lookups landing in its soft-TTL window are served from cache
  instantly while a *background* revalidation rewrites the entry — in
  steady state the request path issues **zero** backend RPCs;
* and refresh-ahead is **load-aware**: outside the ``normal`` admission
  tier the arming gate closes, so background revalidation can never
  deepen a brownout, and it resumes the moment the tier recovers.

Set ``REFRESH_AHEAD_SMOKE=1`` to run with reduced sizes (CI smoke).
"""

from __future__ import annotations

import os

from .conftest import fresh_world

SMOKE = os.environ.get("REFRESH_AHEAD_SMOKE") == "1"
STEADY_CYCLES = 3 if SMOKE else 8


def captured_runner(cache):
    """Replace the worker pool with a capture list so the bench controls
    exactly when each background revalidation runs."""
    captured = []
    cache.refresh_runner = lambda thunk: (captured.append(thunk) or True)
    return captured


def test_perf_refresh_ahead_zero_request_rpcs(report):
    """(a) Hot-key steady state: every request is served from cache and
    every backend RPC happens in the background refresh."""
    dash, _, viewer = fresh_world(seed=13, hours=1.0)
    cache = dash.ctx.cache
    daemons = dash.ctx.cluster.daemons
    captured = captured_runner(cache)

    warm = dash.call("system_status", viewer)
    assert warm.ok

    # sinfo TTL is 60 s, soft TTL 0.8 × 60 = 48 s: landing at age 50 is
    # inside the soft window but well short of hard expiry
    request_rpcs = []
    for cycle in range(STEADY_CYCLES):
        dash.ctx.cluster.advance(50.0)
        daemons.reset_counters()
        resp = dash.call("system_status", viewer)
        assert resp.ok and not resp.degraded
        request_rpcs.append(daemons.ctld.total_rpcs)
        assert len(captured) == 1, "exactly one revalidation armed per window"
        entry_before = cache.entry("sinfo:all")
        captured.pop()()  # run the background refresh
        entry_after = cache.entry("sinfo:all")
        assert entry_after.stored_at > entry_before.stored_at, (
            "refresh must rewrite the entry with a fresh TTL"
        )
        assert daemons.ctld.total_rpcs == 1, "the refresh itself costs one RPC"

    assert request_rpcs == [0] * STEADY_CYCLES, (
        f"steady-state requests must cost zero on-request RPCs: {request_rpcs}"
    )
    served = cache.metrics.total("repro_cache_served_while_refreshing_total")
    assert served >= STEADY_CYCLES
    report(
        "",
        "P6a: refresh-ahead hot-key steady state",
        f"{STEADY_CYCLES} soft-window reloads of System Status -> "
        f"{sum(request_rpcs)} on-request slurmctld RPCs "
        f"({STEADY_CYCLES} background refreshes, "
        f"{int(served)} hits served while revalidating)",
    )


def test_perf_refresh_ahead_pauses_in_brownout(report):
    """(c) The arming gate: refresh-ahead halts outside the ``normal``
    tier and resumes on recovery."""
    dash, _, viewer = fresh_world(seed=19, hours=1.0)
    cache = dash.ctx.cache
    captured = captured_runner(cache)

    assert dash.call("system_status", viewer).ok  # warm
    dash.ctx.cluster.advance(50.0)  # into the sinfo soft window

    dash.ctx.admission.force_tier("brownout")
    resp = dash.call("system_status", viewer)
    assert resp.ok
    assert captured == [], "brownout must not enqueue background refreshes"
    paused = cache.metrics.total(
        "repro_cache_refresh_ahead_total", result="paused"
    )
    assert paused >= 1

    dash.ctx.admission.force_tier("normal")
    resp = dash.call("system_status", viewer)
    assert resp.ok
    assert len(captured) == 1, "recovery must re-arm refresh-ahead"
    captured.pop()()
    report(
        "",
        "P6c: refresh-ahead load-awareness",
        f"brownout soft-window reload -> 0 refreshes armed "
        f"({int(paused)} counted paused); "
        "first reload after recovery re-armed the revalidation",
    )
