"""Tests for the BENCH document schema, summaries, and trajectory diff."""

import json
import pathlib

import pytest

from repro.load import diff, load_bench, summarize, validate_bench, write_bench

#: the committed trajectory file; it predates some schema removals, so
#: it also pins that unknown sections and fields are tolerated
COMMITTED_BENCH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_load.json"


def _scenario_record(name="steady_state", digest="abc123", p95=12.5):
    return {
        "name": name,
        "description": "",
        "seed": 1,
        "mode": "open",
        "duration_s": 60.0,
        "users": 50,
        "trace": {
            "digest": digest,
            "requests": 100,
            "distinct_users": 20,
            "by_route": {"/": 40},
        },
        "latency_ms": {"p50": 5.0, "p95": p95, "p99": 20.0,
                       "mean": 6.0, "max": 30.0},
        "rps": {"offered_sim": 10.0, "achieved_wall": 55.0},
        "requests": {"planned": 100, "completed": 100, "ok": 98},
        "statuses": {"200": 98, "503": 2},
        "ctld_rpcs": 40.0,
        "ctld_rpcs_per_request": 0.4,
        "cache": {"lookups": 300.0, "hits": 250.0, "hit_rate": 0.833,
                  "stale_served": 0.0, "coalesced": 3.0},
        "shed": {"admission_rejected": 0.0, "http_429_503_504": 2,
                 "http_5xx": 0, "transport_errors": 0, "rate": 0.02},
        "admission_tiers": [[0.0, "normal"]],
        "lock": {"acquisitions": 600.0, "contended": 3.0, "wait_s": 0.001},
    }


def _doc(**overrides):
    doc = {
        "schema_version": 1,
        "kind": "repro-load-bench",
        "smoke": False,
        "scenarios": [_scenario_record()],
    }
    doc.update(overrides)
    return doc


class TestValidate:
    def test_valid_doc_passes(self):
        assert validate_bench(_doc()) == []

    def test_committed_bench_still_validates_summarizes_and_diffs(self):
        doc = load_bench(COMMITTED_BENCH)
        assert validate_bench(doc) == []
        assert "steady_state" in summarize(doc)
        assert "steady_state" in diff(doc, doc)

    def test_rejects_non_object(self):
        assert validate_bench([1, 2]) == ["document is not a JSON object"]

    def test_rejects_wrong_kind_and_missing_version(self):
        errors = validate_bench({"kind": "nope", "scenarios": [{}]})
        assert any("kind" in e for e in errors)
        assert any("schema_version" in e for e in errors)

    def test_rejects_empty_scenarios(self):
        errors = validate_bench(_doc(scenarios=[]))
        assert errors == ["scenarios must be a non-empty array"]

    def test_flags_every_missing_metric_field(self):
        rec = _scenario_record()
        del rec["latency_ms"]["p99"]
        del rec["cache"]["stale_served"]
        del rec["shed"]["rate"]
        del rec["ctld_rpcs_per_request"]
        errors = validate_bench(_doc(scenarios=[rec]))
        assert any("p99" in e for e in errors)
        assert any("stale_served" in e for e in errors)
        assert any("rate" in e for e in errors)
        assert any("ctld_rpcs_per_request" in e for e in errors)

    def test_flags_wrong_types(self):
        rec = _scenario_record()
        rec["ctld_rpcs"] = "forty"
        errors = validate_bench(_doc(scenarios=[rec]))
        assert any("ctld_rpcs" in e and "type" in e for e in errors)

class TestWriteBench:
    def test_refuses_invalid_doc(self, tmp_path):
        with pytest.raises(ValueError, match="refusing to write"):
            write_bench({"kind": "nope"}, tmp_path / "bad.json")

    def test_writes_valid_doc_with_stamp(self, tmp_path):
        out = write_bench(
            _doc(), tmp_path / "BENCH_load.json",
            generated_at="2026-01-01T00:00:00+00:00",
        )
        loaded = json.loads(out.read_text())
        assert loaded["generated_at"] == "2026-01-01T00:00:00+00:00"
        assert validate_bench(loaded) == []


class TestSummarize:
    def test_renders_every_scenario_row(self):
        doc = _doc(scenarios=[
            _scenario_record("steady_state"),
            _scenario_record("burst"),
        ])
        out = summarize(doc)
        assert "steady_state" in out and "burst" in out
        assert "p95ms" in out

    def test_shows_admission_timeline_when_degraded(self):
        rec = _scenario_record()
        rec["admission_tiers"] = [[0.0, "normal"], [20.0, "brownout"]]
        out = summarize(_doc(scenarios=[rec]))
        assert "brownout@20s" in out

class TestDiff:
    def test_reports_latency_deltas(self):
        old = _doc()
        new = _doc(scenarios=[_scenario_record(p95=25.0)])
        out = diff(old, new)
        assert "p95 12.5 -> 25.0ms (+100.0%)" in out

    def test_flags_changed_trace(self):
        old = _doc()
        new = _doc(scenarios=[_scenario_record(digest="different")])
        assert "TRACE CHANGED" in diff(old, new)

    def test_identical_trace_not_flagged(self):
        assert "TRACE CHANGED" not in diff(_doc(), _doc())

    def test_new_and_removed_scenarios(self):
        old = _doc(scenarios=[_scenario_record("gone")])
        new = _doc(scenarios=[_scenario_record("fresh")])
        out = diff(old, new)
        assert "fresh: new scenario" in out
        assert "gone: removed" in out
