"""Deterministic load harness for the dashboard (standing benchmarks).

``repro.load`` replays realistic user populations against the real HTTP
server on the sim clock: Zipf-skewed users, a weighted route mix over
the paper's pages, Poisson arrivals with optional burst windows, and
scheduled fault windows — all drawn from seeded streams so the same
seed always produces the identical traffic trace.  Results land in a
schema'd ``BENCH_load.json`` (see :mod:`repro.load.report`) that
``tools/bench_report.py`` runs, validates, summarizes, and diffs.
"""

from .generator import (
    RequestOutcome,
    bench_environment,
    delivery_ab,
    percentile,
    run_scenario,
    run_suite,
)
from .report import diff, load_bench, summarize, validate_bench, write_bench
from .scenarios import (
    Burst,
    FaultSpec,
    PlannedRequest,
    RouteWeight,
    Scenario,
    build_trace,
    default_scenarios,
    trace_digest,
    trace_summary,
    user_population,
)

__all__ = [
    "Burst",
    "FaultSpec",
    "PlannedRequest",
    "RequestOutcome",
    "RouteWeight",
    "Scenario",
    "bench_environment",
    "build_trace",
    "default_scenarios",
    "delivery_ab",
    "diff",
    "load_bench",
    "percentile",
    "run_scenario",
    "run_suite",
    "summarize",
    "trace_digest",
    "trace_summary",
    "user_population",
    "validate_bench",
    "write_bench",
]
