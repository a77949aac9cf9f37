"""Tests for the dashboard pages: My Jobs, Performance, Cluster Status,
Node Overview, Job Overview, Homepage."""

import pytest

from repro.auth import Viewer
from repro.core.pages.cluster_status import (
    render_cluster_status_grid,
    render_cluster_status_list,
)
from repro.core.pages.job_overview import render_job_overview
from repro.core.pages.job_performance import render_job_performance
from repro.core.pages.my_jobs import render_my_jobs
from repro.core.pages.node_overview import render_node_overview
from repro.core.params import coerce_params


def page(dash, name, viewer, params=None):
    resp = dash.call(name, viewer, params)
    assert resp.ok, f"{name}: {resp.error}"
    return resp.data


# ---------------------------------------------------------------------------
# My Jobs (§4, Fig. 3)
# ---------------------------------------------------------------------------


class TestMyJobs:
    def test_includes_own_and_group_jobs(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        users = {j["user"] for j in data["jobs"]}
        assert users == {"alice", "bob"}  # group scope, not just own

    def test_excludes_other_groups(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        assert all(j["user"] != "dave" for j in data["jobs"])

    def test_all_states_present_not_just_queued(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        states = {j["state"] for j in data["jobs"]}
        assert {"COMPLETED", "FAILED", "RUNNING", "PENDING"} <= states

    def test_friendly_reason_for_pending(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        blocked = next(j for j in data["jobs"] if j["name"] == "blocked")
        assert blocked["reason"] == "AssocGrpCpuLimit"
        assert (
            blocked["reason_friendly"]
            == "It means this job's association has reached its aggregate "
            "group CPU limit."
        )

    def test_wait_time_column(self, dash, alice_v, jobs):
        data = page(dash, "my_jobs", alice_v)
        blocked = next(j for j in data["jobs"] if j["name"] == "blocked")
        assert blocked["wait_time"] == "00:05:00"  # pending for 300 s

    def test_efficiency_toggle_off_by_default(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        assert not data["efficiency_enabled"]
        assert "efficiency" not in data["jobs"][0]

    def test_efficiency_columns_when_toggled(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v, {"efficiency": True})
        low = next(j for j in data["jobs"] if j["name"] == "notebook_batch")
        assert low["efficiency"]["cpu"] == "10%"
        assert low["efficiency"]["time"] == "4%"  # 1200 s of 8 h

    def test_low_efficiency_job_warned(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        low = next(j for j in data["jobs"] if j["name"] == "notebook_batch")
        kinds = {w["kind"] for w in low["warnings"]}
        assert "cpu" in kinds and "time" in kinds
        assert any("reduce your queue wait times" in w["message"]
                   for w in low["warnings"])

    def test_expandable_details(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        gpu = next(j for j in data["jobs"] if j["name"] == "train_gpu")
        assert gpu["details"]["gpu_hours"] == pytest.approx(1.0, abs=0.05)
        assert gpu["details"]["requested_memory"] == "31.2G"  # 32000 MB
        low = next(j for j in data["jobs"] if j["name"] == "notebook_batch")
        assert low["details"]["allocated_cpus"] == 32

    def test_interactive_job_app_in_details(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        jup = next(j for j in data["jobs"] if "jupyter" in j["name"])
        assert jup["details"]["interactive_app"] == "jupyter"

    def test_state_filter(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v, {"state": "FAILED"})
        assert data["jobs"]
        assert all(j["state"] == "FAILED" for j in data["jobs"])

    def test_bad_state_filter_isolated(self, dash, alice_v):
        resp = dash.call("my_jobs", alice_v, {"state": "EXPLODED"})
        assert not resp.ok and resp.status == 400

    @pytest.mark.parametrize("params,status", [
        ({"start": "abc"}, 400),
        ({"end": "x"}, 400),
        ({"start": 0, "end": 1e12}, 200),
    ])
    def test_time_bounds_must_be_numbers(self, dash, alice_v, params, status):
        resp = dash.call("my_jobs", alice_v, params)
        assert resp.status == status, resp.error

    def test_search_filter(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v, {"search": "crashy"})
        assert [j["name"] for j in data["jobs"]] == ["crashy"]

    def test_numeric_looking_search_is_matched_as_sent(self, dash, alice_v):
        # off the wire, "01" must reach the page as text, not as the int 1
        params = coerce_params([("search", "01")])
        data = page(dash, "my_jobs", alice_v, params)
        assert sorted(j["job_id"] for j in data["jobs"]) == ["1001", "1010"]

    def test_equal_time_bounds_share_one_sacct_entry(self, dash, alice_v):
        dbd = dash.ctx.cluster.daemons.dbd
        assert dash.call("my_jobs", alice_v, coerce_params([("start", "0")])).ok
        rpcs = dbd.total_rpcs
        assert dash.call("my_jobs", alice_v, coerce_params([("start", "0.0")])).ok
        assert dbd.total_rpcs == rpcs

    def test_sorted_newest_first(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        submits = [j["submit_time"] for j in data["jobs"]]
        assert submits == sorted(submits, reverse=True)

    def test_charts_shape(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v)
        state_chart = data["charts"]["state_distribution"]
        assert set(state_chart["labels"]) == {"alice", "bob"}
        gpu_chart = data["charts"]["gpu_hours"]
        assert gpu_chart["labels"] == ["bob"]  # only bob used GPUs
        assert gpu_chart["datasets"][0]["data"][0] == pytest.approx(1.0, abs=0.05)

    def test_render_html(self, dash, alice_v):
        data = page(dash, "my_jobs", alice_v, {"efficiency": True})
        html = render_my_jobs(data).render()
        assert "Toggle Efficiency Data" in html
        assert "AssocGrpCpuLimit" in html
        assert "efficiency-warning" in html
        assert 'data-job-id' in html


# ---------------------------------------------------------------------------
# Job Performance Metrics (§5, Fig. 4a)
# ---------------------------------------------------------------------------


class TestJobPerformance:
    def test_default_range(self, dash, alice_v):
        data = page(dash, "job_performance", alice_v)
        assert data["range"] == "7d"
        assert set(data["available_ranges"]) == {"24h", "7d", "30d", "90d", "all"}

    def test_metrics_shape(self, dash, alice_v):
        m = page(dash, "job_performance", alice_v)["metrics"]
        # alice: notebook_batch + 3 array tasks + jupyter + md_long + blocked
        assert m["job_count"] == 7
        assert m["total_gpu_hours"] == 0.0  # bob ran the GPU job
        assert m["mean_cpu_efficiency"] is not None

    def test_bob_sees_his_gpu_hours(self, dash, bob_v):
        m = page(dash, "job_performance", bob_v)["metrics"]
        assert m["total_gpu_hours"] == pytest.approx(1.0, abs=0.05)

    def test_all_range(self, dash, alice_v):
        data = page(dash, "job_performance", alice_v, {"range": "all"})
        assert data["range"] == "all"
        assert data["metrics"]["job_count"] == 7

    def test_custom_range(self, dash, alice_v):
        clock = dash.clock
        start = clock.isoformat(clock.now() - 10)
        data = page(dash, "job_performance", alice_v, {"start": start})
        assert data["range"] == "custom"
        # only still-live jobs overlap the last 10 s
        assert data["metrics"]["job_count"] <= 7

    def test_inverted_custom_range_isolated(self, dash, alice_v):
        clock = dash.clock
        resp = dash.call(
            "job_performance",
            alice_v,
            {"start": clock.isoformat(100), "end": clock.isoformat(50)},
        )
        assert not resp.ok and resp.status == 400

    @pytest.mark.parametrize("params", [{"start": "yesterday"}, {"end": 5}])
    def test_malformed_custom_range_is_a_400(self, dash, alice_v, params):
        resp = dash.call("job_performance", alice_v, params)
        assert resp.status == 400, resp.error

    def test_unknown_range_isolated(self, dash, alice_v):
        resp = dash.call("job_performance", alice_v, {"range": "1y"})
        assert not resp.ok and resp.status == 400

    def test_render(self, dash, alice_v):
        data = page(dash, "job_performance", alice_v)
        html = render_job_performance(data).render()
        assert "Average queue wait" in html
        assert "range-selector" in html


# ---------------------------------------------------------------------------
# Cluster Status (§6, Fig. 4b)
# ---------------------------------------------------------------------------


class TestClusterStatus:
    def test_all_nodes_listed(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v)
        assert data["total"] == 10  # 8 cpu + 2 gpu
        assert data["shown"] == 10

    def test_grid_cell_colors(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v)
        colors = {n["name"]: n["color"] for n in data["nodes"]}
        busy = [c for c in colors.values() if c == "green"]
        idle = [c for c in colors.values() if c == "faded-green"]
        assert busy and idle

    def test_tooltip_contents(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v)
        node = data["nodes"][0]
        assert "CPUs" in node["tooltip"]
        assert "partitions:" in node["tooltip"]

    def test_search_by_partition(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v, {"search": "gpu"})
        assert data["shown"] == 2
        assert all(n["name"].startswith("g") for n in data["nodes"])

    def test_search_by_state(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v, {"search": "mixed"})
        assert all(n["state"] == "MIXED" for n in data["nodes"])

    def test_sort_by_cpu_load_desc(self, dash, alice_v):
        params = coerce_params([("sort", "cpu_load"), ("desc", "true")])
        data = page(dash, "cluster_status", alice_v, params)
        fractions = [n["cpu_fraction"] for n in data["nodes"]]
        assert fractions == sorted(fractions, reverse=True)

    def test_bad_sort_isolated(self, dash, alice_v):
        resp = dash.call("cluster_status", alice_v, {"sort": "favourite_color"})
        assert not resp.ok and resp.status == 400

    @pytest.mark.parametrize("flag", ["maybe", "1"])
    def test_desc_accepts_only_true_or_false(self, dash, alice_v, flag):
        params = coerce_params([("sort", "cpu_load"), ("desc", flag)])
        resp = dash.call("cluster_status", alice_v, params)
        assert resp.status == 400, resp.error

    def test_node_links(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v)
        assert all(
            n["overview_url"] == f"/nodes/{n['name']}" for n in data["nodes"]
        )

    def test_render_grid_and_list(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v)
        grid = render_cluster_status_grid(data).render()
        assert grid.count("node-cell") == 10
        assert 'role="grid"' in grid
        listing = render_cluster_status_list(data).render()
        assert listing.count("<tr") == 11  # header + 10 rows
        assert "node-search" in listing

    def test_state_counts(self, dash, alice_v):
        data = page(dash, "cluster_status", alice_v)
        assert sum(data["state_counts"].values()) == 10


# ---------------------------------------------------------------------------
# Node Overview (§6.1, Fig. 4c)
# ---------------------------------------------------------------------------


class TestNodeOverview:
    def busy_node(self, dash, jobs):
        return jobs["running"].nodes[0]

    def test_status_and_usage_cards(self, dash, alice_v, jobs):
        name = self.busy_node(dash, jobs)
        data = page(dash, "node_overview", alice_v, {"node": name})
        assert data["status"]["state"] in ("MIXED", "ALLOCATED")
        assert data["status"]["online"]
        assert data["usage"]["cpu"]["used"] >= 16
        assert data["usage"]["memory"]["fraction"] > 0

    def test_gpu_node_has_gpu_card(self, dash, alice_v):
        data = page(dash, "node_overview", alice_v, {"node": "g001"})
        assert data["usage"]["gpu"] is not None
        assert data["usage"]["gpu"]["model"] == "nvidia_a100"

    def test_cpu_node_has_no_gpu_card(self, dash, alice_v):
        data = page(dash, "node_overview", alice_v, {"node": "a001"})
        assert data["usage"]["gpu"] is None

    def test_details_tab_fields(self, dash, alice_v):
        data = page(dash, "node_overview", alice_v, {"node": "g001"})
        fields = {d["field"]: d["value"] for d in data["details"]}
        assert fields["Operating system"].startswith("Linux")
        assert fields["Generic resources"] == "gpu:nvidia_a100:4"
        assert "avx512" in fields["Available features"]

    def test_running_jobs_tab(self, dash, alice_v, jobs):
        name = self.busy_node(dash, jobs)
        data = page(dash, "node_overview", alice_v, {"node": name})
        names = {j["name"] for j in data["running_jobs"]}
        assert "md_long" in names
        job = next(j for j in data["running_jobs"] if j["name"] == "md_long")
        assert job["user"] == "alice"
        assert job["overview_url"].startswith("/jobs/")

    def test_missing_node_param(self, dash, alice_v):
        resp = dash.call("node_overview", alice_v, {})
        assert not resp.ok and resp.status == 400

    def test_unknown_node_404(self, dash, alice_v):
        resp = dash.call("node_overview", alice_v, {"node": "zzz"})
        assert resp.status == 404

    def test_render(self, dash, alice_v, jobs):
        data = page(dash, "node_overview", alice_v,
                    {"node": self.busy_node(dash, jobs)})
        html = render_node_overview(data).render()
        assert "Resource usage" in html
        assert "Node details" in html
        assert "Running jobs" in html
        assert 'role="tablist"' in html


# ---------------------------------------------------------------------------
# Homepage (§3, Fig. 2)
# ---------------------------------------------------------------------------


class TestHomepage:
    def test_manifest(self, dash, alice_v):
        data = page(dash, "homepage", alice_v)
        assert data["username"] == "alice"
        assert [w["name"] for w in data["widgets"]] == [
            "announcements",
            "recent_jobs",
            "system_status",
            "accounts",
            "storage",
        ]

    def test_shell_renders_instantly_with_placeholders(self, dash, alice_v):
        html = dash.render_homepage_shell(alice_v)
        assert html.count("component-loading") == 5
        assert "Logged in as alice" in html

    def test_full_render(self, dash, alice_v):
        render = dash.render_homepage(alice_v)
        assert render.ok
        html = render.html
        for marker in ("widget-announcements", "widget-recent-jobs",
                       "widget-system-status", "widget-accounts",
                       "widget-storage"):
            assert marker in html

    def test_widget_failure_isolated(self, dash, alice_v):
        """§2.4: one broken widget does not break the homepage."""
        route = dash.registry.get("storage")
        broken = type(route)(
            name=route.name, path=route.path, feature=route.feature,
            data_sources=route.data_sources,
            handler=lambda c, v, p: 1 / 0,
        )
        dash.registry.unregister("storage")
        dash.registry.register(broken)
        render = dash.render_homepage(alice_v)
        assert not render.ok
        assert set(render.failures) == {"storage"}
        assert "widget-error" in render.html
        # the four other widgets still rendered
        assert "widget-recent-jobs" in render.html
        assert "widget-announcements" in render.html
