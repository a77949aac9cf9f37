"""Tests for the full news page and My Interactive Sessions page."""

import pytest

from repro.core.pages.news_page import render_news_page
from repro.core.pages.sessions_page import render_sessions_page


class TestNewsPage:
    def test_lists_all_articles(self, dash, alice_v):
        data = dash.call("news_page", alice_v).data
        assert len(data["articles"]) == 3  # the world fixture publishes 3
        titles = [a["title"] for a in data["articles"]]
        assert titles[0] == "New software stack deployed"  # newest first

    def test_category_filter(self, dash, alice_v):
        data = dash.call("news_page", alice_v, {"category": "outage"}).data
        assert len(data["articles"]) == 1
        assert data["articles"][0]["category"] == "outage"
        assert data["filter"] == "outage"

    def test_unknown_category_isolated(self, dash, alice_v):
        resp = dash.call("news_page", alice_v, {"category": "gossip"})
        assert not resp.ok and resp.status == 400

    def test_styling_carried_through(self, dash, alice_v):
        data = dash.call("news_page", alice_v).data
        outage = next(a for a in data["articles"] if a["category"] == "outage")
        assert outage["color"] == "red" and outage["style"] == "past"

    def test_render(self, dash, alice_v):
        data = dash.call("news_page", alice_v).data
        html = render_news_page(data).render()
        assert "Cluster News" in html
        assert "category-filter" in html
        assert "accordion" in html

    def test_widget_links_to_page(self, dash, alice_v):
        widget = dash.call("announcements", alice_v).data
        assert widget["all_news_url"] == "/news"
        assert dash.registry.get("news_page").path == "/api/v1/news"


class TestSessionsPage:
    def test_lists_manager_sessions(self, dash, alice_v, session):
        data = dash.call("my_sessions", alice_v).data
        ids = [s["session_id"] for s in data["sessions"]]
        assert session.session_id in ids

    def test_running_session_has_connect(self, dash, alice_v, session):
        data = dash.call("my_sessions", alice_v).data
        card = next(
            s for s in data["sessions"] if s["session_id"] == session.session_id
        )
        assert card["state"] == "Running"
        assert card["connect_url"]
        assert card["app_title"] == "Jupyter Notebook"
        assert card["relaunch_url"].endswith("session_contexts/new")
        assert card["job_overview_url"] == f"/jobs/{session.job_id}"

    def test_only_own_sessions(self, dash, bob_v, session):
        data = dash.call("my_sessions", bob_v).data
        assert all(
            s["session_id"] != session.session_id for s in data["sessions"]
        )

    def test_includes_provenance_tagged_jobs(self, dash, bob_v):
        """Jobs tagged interactive outside the session manager appear too."""
        from repro.slurm.model import InteractiveSessionInfo
        from tests.conftest import simple_spec

        spec = simple_spec(
            name="sys/dashboard/vscode", user="bob", account="physics-lab",
            actual_runtime=7200, time_limit=7200,
        )
        spec.interactive = InteractiveSessionInfo(
            app_name="vscode", session_id="vscode-777", working_dir="/tmp/v"
        )
        dash.ctx.cluster.submit(spec)
        dash.ctx.cache.clear()
        data = dash.call("my_sessions", bob_v).data
        ids = [s["session_id"] for s in data["sessions"]]
        assert "vscode-777" in ids

    def test_active_count(self, dash, alice_v):
        data = dash.call("my_sessions", alice_v).data
        assert data["active"] <= data["total"]
        assert data["active"] >= 1  # the fixture session is running

    def test_render(self, dash, alice_v):
        data = dash.call("my_sessions", alice_v).data
        html = render_sessions_page(data).render()
        assert "My Interactive Sessions" in html
        assert "Connect" in html


class TestTimezoneSupport:
    def test_timeline_in_viewer_timezone(self, dash, alice_v, jobs):
        """§7: times adjusted for the user's local timezone."""
        data = dash.call(
            "job_overview", alice_v,
            {"job_id": jobs["low_eff"].job_id, "tz_offset_minutes": -300},
        ).data
        submitted = next(
            e for e in data["timeline"]["events"] if e["label"] == "Submitted"
        )
        assert submitted["time"].endswith("-05:00")
        # epoch midnight UTC - 5 h = 19:00 the previous day
        assert submitted["time"].startswith("2025-11-15T19:00:00")
        assert data["timeline"]["tz_offset_minutes"] == -300

    def test_default_is_utc_like(self, dash, alice_v, jobs):
        data = dash.call(
            "job_overview", alice_v, {"job_id": jobs["low_eff"].job_id}
        ).data
        submitted = data["timeline"]["events"][0]
        assert "+" not in submitted["time"] and submitted["time"].count("-") == 2

    def test_positive_offset(self, dash, alice_v, jobs):
        data = dash.call(
            "job_overview", alice_v,
            {"job_id": jobs["low_eff"].job_id, "tz_offset_minutes": 120},
        ).data
        assert data["timeline"]["events"][0]["time"].endswith("+02:00")

    def test_implausible_offset_isolated(self, dash, alice_v, jobs):
        resp = dash.call(
            "job_overview", alice_v,
            {"job_id": jobs["low_eff"].job_id, "tz_offset_minutes": 10_000},
        )
        assert not resp.ok and resp.status == 400

    @pytest.mark.parametrize("offset", ["abc", 1.5])
    def test_malformed_offset_is_a_400(self, dash, alice_v, jobs, offset):
        resp = dash.call(
            "job_overview", alice_v,
            {"job_id": jobs["low_eff"].job_id, "tz_offset_minutes": offset},
        )
        assert resp.status == 400, resp.error
