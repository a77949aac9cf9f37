"""Regression tests for ``tools/obs_report.py`` on degenerate scrapes.

A scrape can be empty (server just started), truncated mid-line (the
scraper died or the connection dropped), or contain histogram families
that are registered but have zero observations.  The report tool must
render honestly — ``n/a`` where there is no data — and never crash.
"""

import importlib.util
import pathlib
import sys

import pytest

_TOOL = (
    pathlib.Path(__file__).resolve().parent.parent.parent
    / "tools"
    / "obs_report.py"
)


def _load_tool():
    spec = importlib.util.spec_from_file_location("obs_report_under_test", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def obs_report():
    return _load_tool()


class TestDegeneratePayloads:
    def test_empty_payload_renders(self, obs_report):
        out = obs_report.render_report("")
        assert "no route histograms" in out
        assert "no cache counters" in out
        assert "no breaker gauges" in out
        assert "no brownout tier gauge" in out
        assert "no tier transitions recorded" in out

    def test_truncated_line_is_dropped_not_fatal(self, obs_report):
        payload = (
            'repro_route_requests_total{route="my_jobs"} 7\n'
            'repro_cache_requests_total{source="squ'  # cut mid-scrape
        )
        out = obs_report.render_report(payload)
        assert "my_jobs" not in out or True  # must simply not raise
        assert "==" in out

    def test_whole_families_survive_partial_tail(self, obs_report):
        payload = (
            'repro_daemon_rpcs_total{daemon="slurmctld"} 42\n'
            "repro_broken 1 2 3 extra tokens\n"
        )
        out = obs_report.render_report(payload)
        assert "slurmctld" in out
        assert "rpcs=42" in out

    def test_bucket_without_bound_is_skipped(self, obs_report):
        payload = (
            'repro_route_latency_seconds_bucket{route="x",le="0.1"} 3\n'
            'repro_route_latency_seconds_bucket{route="x",le="oops"} 3\n'
            'repro_route_latency_seconds_bucket{route="x",le="+Inf"} 3\n'
        )
        rows = obs_report.route_table(
            obs_report.samples_by_name(
                obs_report.parse_prometheus_text(payload, lenient=True)
            )
        )
        assert len(rows) == 1
        assert rows[0]["observations"] == 3


class TestZeroObservationHistograms:
    PAYLOAD = (
        'repro_route_latency_seconds_bucket{route="idle",le="0.1"} 0\n'
        'repro_route_latency_seconds_bucket{route="idle",le="+Inf"} 0\n'
        'repro_route_latency_seconds_bucket{route="busy",le="0.1"} 5\n'
        'repro_route_latency_seconds_bucket{route="busy",le="+Inf"} 5\n'
    )

    def test_zero_observations_yield_none_quantiles(self, obs_report):
        by_name = obs_report.samples_by_name(
            obs_report.parse_prometheus_text(self.PAYLOAD)
        )
        rows = {r["route"]: r for r in obs_report.route_table(by_name)}
        assert rows["idle"]["p50_ms"] is None
        assert rows["idle"]["p95_ms"] is None
        assert rows["busy"]["p95_ms"] is not None

    def test_renders_na_not_zero(self, obs_report):
        out = obs_report.render_report(self.PAYLOAD)
        idle_line = next(l for l in out.splitlines() if l.startswith("idle"))
        assert "n/a" in idle_line
        assert "0.0" not in idle_line.split(None, 3)[3]

    def test_observed_routes_sort_above_unobserved(self, obs_report):
        by_name = obs_report.samples_by_name(
            obs_report.parse_prometheus_text(self.PAYLOAD)
        )
        rows = obs_report.route_table(by_name)
        assert rows[0]["route"] == "busy"


class TestBreakerStateGuard:
    def test_state_sample_missing_state_label(self, obs_report):
        payload = 'repro_breaker_state{service="news"} 1\n'
        out = obs_report.render_report(payload)
        assert "news" in out
        assert "unknown" in out


class TestAdmissionSections:
    PAYLOAD = (
        "repro_brownout_tier 1\n"
        'repro_brownout_transitions_total{to="brownout"} 2\n'
        'repro_brownout_transitions_total{to="normal"} 1\n'
        'repro_admission_rejected_total{reason="brownout"} 4\n'
        'repro_admission_rejected_total{reason="shed"} 3\n'
    )

    def _by_name(self, obs_report, payload):
        return obs_report.samples_by_name(
            obs_report.parse_prometheus_text(payload)
        )

    def test_tier_and_transitions(self, obs_report):
        out = obs_report.render_report(self.PAYLOAD)
        assert "admission tier: brownout (gauge=1)" in out
        lines = out.splitlines()
        assert any(l.split() == ["->", "brownout", "2x"] for l in lines)
        assert any(l.split() == ["->", "normal", "1x"] for l in lines)

    def test_out_of_range_tier_is_reported_not_fatal(self, obs_report):
        out = obs_report.render_report("repro_brownout_tier 7\n")
        assert "admission tier: unknown(7)" in out

    def test_rejections_cover_every_reason_with_a_total(self, obs_report):
        rows = obs_report.rejection_table(
            self._by_name(obs_report, self.PAYLOAD)
        )
        assert rows == {"brownout": 4.0, "shed": 3.0}
        out = obs_report.render_report(self.PAYLOAD)
        assert any(l.split() == ["total", "7"] for l in out.splitlines())
        shed_only = 'repro_admission_rejected_total{reason="shed"} 3\n'
        rows = obs_report.rejection_table(self._by_name(obs_report, shed_only))
        assert rows == {"brownout": 0.0, "shed": 3.0}

    def test_scrape_cut_anywhere_still_renders(self, obs_report):
        """A scrape may end mid-line; every section must still render."""
        for cut in range(len(self.PAYLOAD)):
            out = obs_report.render_report(self.PAYLOAD[:cut])
            for header in ("== Admission tier ==", "== Rejections by reason =="):
                assert header in out
        out = obs_report.render_report(self.PAYLOAD[:-20])
        assert "admission tier: brownout (gauge=1)" in out
        assert any(l.split() == ["brownout", "4"] for l in out.splitlines())


class TestCli:
    def test_main_reads_file(self, obs_report, tmp_path, capsys):
        p = tmp_path / "metrics.txt"
        p.write_text('repro_daemon_rpcs_total{daemon="slurmdbd"} 3\n')
        assert obs_report.main([str(p)]) == 0
        assert "slurmdbd" in capsys.readouterr().out

    def test_main_survives_empty_stdin(self, obs_report, monkeypatch, capsys):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        assert obs_report.main([]) == 0
        assert "no route histograms" in capsys.readouterr().out
