"""Tests for the Job Overview page (§7, Fig. 4d) — header, timeline,
cards, session tab, log tabs, array tab, privacy."""

import pytest

from repro.core.pages.job_overview import render_job_overview
from repro.ood import LOG_TAIL_LINES


def overview(dash, viewer, job_id, expect_ok=True):
    resp = dash.call("job_overview", viewer, {"job_id": job_id})
    if expect_ok:
        assert resp.ok, resp.error
        return resp.data
    return resp


class TestHeaderAndTimeline:
    def test_header(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        h = data["header"]
        assert h["name"] == "md_long"
        assert h["state"] == "RUNNING"
        assert h["state_color"] == "blue"
        assert h["state_label"] == "Running"

    def test_pending_header_has_friendly_reason(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["pending"].job_id)
        assert data["header"]["reason"] == "AssocGrpCpuLimit"
        assert "aggregate group CPU limit" in data["header"]["reason_friendly"]

    def test_timeline_running_job(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        events = {e["label"]: e for e in data["timeline"]["events"]}
        assert events["Submitted"]["reached"]
        assert events["Started"]["reached"]
        assert not events["Ended"]["reached"]
        assert data["timeline"]["color"] == "blue"

    def test_timeline_completed_job(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["low_eff"].job_id)
        events = {e["label"]: e for e in data["timeline"]["events"]}
        assert all(
            events[l]["reached"] for l in ("Submitted", "Eligible", "Started", "Ended")
        )


class TestOverviewCards:
    def test_job_information_card(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        info = data["overview"]["job_information"]
        assert info["user"] == "alice"
        assert info["account"] == "physics-lab"
        assert info["partition"] == "cpu"
        assert info["qos"] == "normal"

    def test_resources_card_links_nodes(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        res = data["overview"]["resources"]
        assert res["cpus"] == 16
        assert res["node_links"]
        assert res["node_links"][0]["overview_url"].startswith("/nodes/")

    def test_time_card_shows_remaining_for_running(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        tm = data["overview"]["time"]
        assert tm["time_remaining"] is not None
        assert tm["time_limit"] == "08:00:00"

    def test_time_card_no_remaining_for_finished(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["low_eff"].job_id)
        assert data["overview"]["time"]["time_remaining"] is None

    def test_efficiency_card(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["low_eff"].job_id)
        eff = data["overview"]["efficiency"]
        assert eff["cpu"] == "10%"
        assert eff["time"] == "4%"


class TestSessionTab:
    def test_batch_job_has_no_session_tab(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        assert data["session"] is None

    def test_interactive_job_session_tab(self, dash, alice_v, jobs, session):
        data = overview(dash, alice_v, jobs["interactive"].job_id)
        sess = data["session"]
        assert sess is not None
        assert sess["app"] == "jupyter"
        assert sess["app_title"] == "Jupyter Notebook"
        assert sess["session_id"] == session.session_id
        assert sess["relaunch_url"].endswith("/jupyter/session_contexts/new")
        assert sess["working_dir_url"].startswith("/pun/sys/dashboard/files/fs/")
        assert sess["state"] == "Running"
        assert sess["connect_url"] is not None


class TestLogTabs:
    def test_owner_sees_logs_with_line_numbers(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        logs = data["logs"]
        assert logs["available"]
        out = logs["out"]
        assert out["lines"]
        assert out["first_line_number"] >= 1
        assert out["total_lines"] >= len(out["lines"])
        assert out["full_file_url"].startswith("/pun/sys/dashboard/files/fs/")

    def test_long_job_truncated_to_1000_lines(self, dash, alice_v, jobs):
        """§7: only the most recent 1000 lines are shown."""
        dash.ctx.cluster.advance(3 * 3600)  # md_long accumulates logs
        dash.ctx.cache.clear()
        data = overview(dash, alice_v, jobs["running"].job_id)
        out = data["logs"]["out"]
        assert out["truncated"]
        assert len(out["lines"]) == LOG_TAIL_LINES
        assert out["first_line_number"] == out["total_lines"] - LOG_TAIL_LINES + 1

    def test_group_member_cannot_read_logs(self, dash, bob_v, jobs):
        """bob shares the account, may see the page — but not the logs."""
        data = overview(dash, bob_v, jobs["running"].job_id)
        assert data["header"]["name"] == "md_long"  # page visible
        assert not data["logs"]["available"]
        assert "permission denied" in data["logs"]["reason"]

    def test_failed_job_error_log_has_traceback(self, dash, bob_v, jobs):
        data = overview(dash, bob_v, jobs["failed"].job_id)
        assert data["logs"]["available"]
        assert any("Traceback" in ln for ln in data["logs"]["err"]["lines"])


class TestArrayTab:
    def test_array_member_lists_siblings(self, dash, alice_v, jobs):
        task = jobs["array"][1]
        data = overview(dash, alice_v, task.job_id)
        arr = data["array"]
        assert arr is not None
        assert arr["array_job_id"] == jobs["array"][0].job_id
        assert len(arr["tasks"]) == 3
        assert [t["task_id"] for t in arr["tasks"]] == [0, 1, 2]
        assert all(t["state"] == "COMPLETED" for t in arr["tasks"])

    def test_non_array_job_has_no_array_tab(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        assert data["array"] is None


class TestPrivacyAndErrors:
    def test_unrelated_user_gets_403(self, dash, dave_v, jobs):
        resp = overview(dash, dave_v, jobs["running"].job_id, expect_ok=False)
        assert resp.status == 403

    def test_owner_of_other_group_job_hidden_from_alice(self, dash, alice_v, jobs):
        resp = overview(dash, alice_v, jobs["private"].job_id, expect_ok=False)
        assert resp.status == 403

    def test_admin_sees_any_job(self, dash, jobs):
        from repro.auth import Viewer

        root = Viewer(username="root", is_admin=True)
        data = overview(dash, root, jobs["private"].job_id)
        assert data["header"]["name"] == "secret"

    def test_unknown_job_404(self, dash, alice_v):
        resp = overview(dash, alice_v, 999_999, expect_ok=False)
        assert resp.status == 404

    def test_missing_job_id_isolated(self, dash, alice_v):
        resp = dash.call("job_overview", alice_v, {})
        assert not resp.ok and resp.status == 400

    @pytest.mark.parametrize("job_id", ["abc", 1.5, True, 0])
    def test_malformed_job_id_is_a_400(self, dash, alice_v, job_id):
        resp = dash.call("job_overview", alice_v, {"job_id": job_id})
        assert resp.status == 400, resp.error


class TestRender:
    def test_full_page_render(self, dash, alice_v, jobs, session):
        data = overview(dash, alice_v, jobs["interactive"].job_id)
        html = render_job_overview(data).render()
        assert "Jupyter Notebook" in html
        assert "timeline" in html
        assert "Job Information" in html
        assert "Efficiency" in html
        assert "Connect" in html

    def test_log_render_has_gutter_and_autoscroll(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["running"].job_id)
        html = render_job_overview(data).render()
        assert "line-number" in html
        assert 'data-autoscroll="bottom"' in html
        assert "Open full file" in html

    def test_array_render(self, dash, alice_v, jobs):
        data = overview(dash, alice_v, jobs["array"][0].job_id)
        html = render_job_overview(data).render()
        assert "Job array" in html
