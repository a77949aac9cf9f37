"""P8 — HTTP delivery layer: conditional GET / gzip / streaming A/B.

The wire layer used to re-render and re-send every byte on every
request.  Three delivery optimisations now sit between the render
pipeline and the socket:

* **Conditional GET** — strong ETags derived from cache-entry write
  generations; a revalidation of an unchanged widget answers ``304``
  with *zero* route renders and *zero* body bytes.
* **gzip** — negotiated via ``Accept-Encoding``, applied to
  compressible bodies above a size threshold, decoded output
  byte-identical to the identity response.
* **Streamed homepage** — the shell flushes first and the five fan-out
  widgets stream into their slots; the assembled stream is
  byte-identical to the sequential batch render.

``delivery_ab`` measures all three against one dashboard and its
output is the ``delivery`` section recorded in ``BENCH_load.json``.

Set ``DELIVERY_SMOKE=1`` to run the reduced CI smoke (same checks, the
flag only exists for symmetry with the other bench jobs).
"""

from __future__ import annotations

import os

from repro.load import delivery_ab, validate_bench

SMOKE = os.environ.get("DELIVERY_SMOKE") == "1"


def test_perf_delivery_ab_section(report):
    """The exact structure recorded as ``delivery`` in BENCH_load.json."""
    section = delivery_ab()

    nm = section["not_modified"]
    report(
        f"304 revalidation: {nm['full_body_bytes']} -> "
        f"{nm['revalidation_body_bytes']} body bytes "
        f"(saved {nm['bytes_saved']}), renders during 304: "
        f"{nm['render_calls_during_304']:.0f}"
    )
    # revalidating an unchanged widget costs zero renders and zero body
    assert nm["status"] == 304
    assert nm["render_calls_during_304"] == 0
    assert nm["revalidation_body_bytes"] == 0
    assert nm["bytes_saved"] == nm["full_body_bytes"] > 0

    gz = section["gzip"]
    report(
        f"gzip: widget {gz['widget_identity_bytes']} -> "
        f"{gz['widget_gzip_bytes']} bytes, homepage "
        f"{gz['homepage_identity_bytes']} -> {gz['homepage_gzip_bytes']} "
        f"bytes (savings {gz['savings_ratio']:.1%})"
    )
    assert gz["widget_gzip_bytes"] < gz["widget_identity_bytes"]
    assert gz["homepage_gzip_bytes"] < gz["homepage_identity_bytes"]
    assert gz["savings_ratio"] > 0.3

    # the compressed / streamed bodies decode to the exact bytes the
    # sequential batch pipeline produces — delivery never changes content
    report(
        f"streamed homepage identical: "
        f"{section['streamed_homepage_identical']}  "
        f"decoded identical: {section['decoded_identical']}"
    )
    assert section["streamed_homepage_identical"] is True
    assert section["decoded_identical"] is True


def test_perf_delivery_schema_round_trip(report):
    """A BENCH document carrying the delivery section must validate."""
    doc = {
        "kind": "repro-load-bench",
        "schema_version": 1,
        "scenarios": [_minimal_scenario()],
        "delivery": delivery_ab(seed=78),
    }
    errors = validate_bench(doc)
    report(f"delivery section schema violations: {errors or 'none'}")
    assert errors == []


def _minimal_scenario() -> dict:
    """Smallest record satisfying the scenario schema (placeholder row)."""
    return {
        "name": "placeholder",
        "seed": 0,
        "mode": "smoke",
        "duration_s": 0.0,
        "users": 0,
        "trace": {
            "digest": "0", "requests": 0, "distinct_users": 0, "by_route": {},
        },
        "latency_ms": {"p50": 0, "p95": 0, "p99": 0, "mean": 0, "max": 0},
        "rps": {"offered_sim": 0, "achieved_wall": 0},
        "requests": {"completed": 0},
        "statuses": {},
        "ctld_rpcs": 0,
        "ctld_rpcs_per_request": 0,
        "cache": {"lookups": 0, "hits": 0, "hit_rate": 0.0, "stale_served": 0},
        "shed": {
            "admission_rejected": 0, "http_429_503_504": 0,
            "http_5xx": 0, "rate": 0.0,
        },
        "admission_tiers": [],
        "lock": {},
    }
