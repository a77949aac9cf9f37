"""End-to-end tests for the load harness over the real HTTP server.

Small populations keep these fast, but nothing is mocked: a populated
dashboard, the threaded HTTP server, concurrent clients, the sim clock
advancing tick by tick, and (for the fault test) a scheduled ctld
outage mid-run.
"""

import pytest

from repro.load import (
    FaultSpec,
    Scenario,
    default_scenarios,
    run_scenario,
    run_suite,
    validate_bench,
)


def _tiny(name="tiny", **overrides) -> Scenario:
    defaults = dict(
        name=name, seed=7, duration_s=6.0, tick_s=1.0, users=8, rps=4.0,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenarioRun:
    def test_record_is_schema_complete(self):
        rec = run_scenario(_tiny())
        doc = {
            "schema_version": 1,
            "kind": "repro-load-bench",
            "scenarios": [rec],
        }
        assert validate_bench(doc) == []

    def test_every_planned_request_completes(self):
        rec = run_scenario(_tiny())
        assert rec["requests"]["completed"] == rec["requests"]["planned"]
        assert rec["requests"]["planned"] == rec["trace"]["requests"]
        assert rec["shed"]["transport_errors"] == 0

    def test_nominal_run_is_all_2xx(self):
        rec = run_scenario(_tiny())
        assert set(rec["statuses"]) == {"200"}

    def test_same_seed_runs_replay_identical_traces(self):
        """The acceptance guarantee: counts and digests must not vary
        between two runs; only wall-clock latency may."""
        a = run_scenario(_tiny())
        b = run_scenario(_tiny())
        assert a["trace"] == b["trace"]
        assert a["statuses"] == b["statuses"]
        assert a["ctld_rpcs"] == b["ctld_rpcs"]
        assert a["cache"]["lookups"] == b["cache"]["lookups"]
        # hit vs coalesced is a wall-clock race (a same-tick request for
        # an in-flight key coalesces if the leader is still computing,
        # hits if it finished) — only the sum is deterministic
        assert (
            a["cache"]["hits"] + a["cache"]["coalesced"]
            == b["cache"]["hits"] + b["cache"]["coalesced"]
        )
        assert a["cache"]["stale_served"] == b["cache"]["stale_served"]

    def test_closed_mode_same_trace_as_open(self):
        open_rec = run_scenario(_tiny(mode="open"))
        closed_rec = run_scenario(_tiny(mode="closed", clients=2))
        assert open_rec["trace"]["digest"] == closed_rec["trace"]["digest"]

    def test_cache_metrics_move(self):
        rec = run_scenario(_tiny(rps=6.0))
        assert rec["cache"]["lookups"] > 0
        assert 0.0 <= rec["cache"]["hit_rate"] <= 1.0
        assert rec["ctld_rpcs_per_request"] >= 0.0


class TestFaultWindowE2E:
    """Satellite: an outage mid-run must show graceful degradation."""

    @pytest.fixture(scope="class")
    def record(self):
        scenario = _tiny(
            name="outage_e2e",
            seed=11,
            duration_s=9.0,
            rps=5.0,
            mode="closed",
            clients=4,
            cache_ttl_s=1.5,
            faults=(
                FaultSpec(
                    service="slurmctld", start_s=3.0, end_s=7.0,
                    kind="outage",
                ),
            ),
        )
        return run_scenario(scenario)

    def test_homepage_stays_200_through_outage(self, record):
        """Degraded-but-present beats a 500: the homepage absorbed the
        outage for every request that asked for it."""
        homepage_planned = record["trace"]["by_route"].get("/", 0)
        assert homepage_planned > 0
        # no 5xx at all: every failure path degraded or shed cleanly
        assert record["shed"]["http_5xx"] == 0
        assert record["statuses"].get("200", 0) > 0

    def test_stale_serves_are_nonzero_and_recorded(self, record):
        assert record["cache"]["stale_served"] > 0

    def test_fault_window_depresses_hit_rate_vs_clean_run(self, record):
        clean = run_scenario(
            _tiny(name="outage_e2e", seed=11, duration_s=9.0, rps=5.0,
                  mode="closed", clients=4, cache_ttl_s=1.5)
        )
        assert record["cache"]["hit_rate"] <= clean["cache"]["hit_rate"] + 0.05


class TestSuite:
    def test_smoke_suite_emits_valid_doc(self):
        doc = run_suite(
            [_tiny(name="suite_a"), _tiny(name="suite_b", seed=8)],
            smoke=True,
        )
        assert validate_bench(doc) == []
        assert [r["name"] for r in doc["scenarios"]] == ["suite_a", "suite_b"]

    def test_default_smoke_scenarios_have_required_shapes(self):
        names = {s.name for s in default_scenarios(smoke=True)}
        assert {"steady_state", "burst", "fault_window"} <= names
