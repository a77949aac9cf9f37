"""Tests for the account-usage export (§3.4)."""

import csv
import io
import xml.etree.ElementTree as ET

import pytest

from repro.auth import PermissionDenied
from repro.core.export import export_csv, export_excel_xml


class TestCsvExport:
    def test_manager_can_export(self, dash, alice_v):
        text = export_csv(dash.ctx, alice_v, "physics-lab")
        rows = list(csv.DictReader(io.StringIO(text)))
        users = {r["user"] for r in rows}
        assert users == {"alice", "bob"}  # both have finished jobs

    def test_usage_values(self, dash, alice_v):
        text = export_csv(dash.ctx, alice_v, "physics-lab")
        rows = {r["user"]: r for r in csv.DictReader(io.StringIO(text))}
        bob = rows["bob"]
        # bob: crashy (300 s x 4 cpus) + train_gpu (1800 s x 8 cpus)
        assert float(bob["cpu_hours"]) == pytest.approx(
            (300 * 4 + 1800 * 8) / 3600, abs=0.1
        )
        assert float(bob["gpu_hours"]) == pytest.approx(1.0, abs=0.05)
        assert int(bob["job_count"]) == 2

    def test_member_cannot_export(self, dash, bob_v):
        with pytest.raises(PermissionDenied):
            export_csv(dash.ctx, bob_v, "physics-lab")

    def test_non_member_cannot_export(self, dash, dave_v):
        with pytest.raises(PermissionDenied):
            export_csv(dash.ctx, dave_v, "physics-lab")

    def test_sorted_by_cpu_hours(self, dash, alice_v):
        text = export_csv(dash.ctx, alice_v, "physics-lab")
        rows = list(csv.DictReader(io.StringIO(text)))
        hours = [float(r["cpu_hours"]) for r in rows]
        assert hours == sorted(hours, reverse=True)


class TestExcelExport:
    def test_valid_spreadsheetml(self, dash, alice_v):
        text = export_excel_xml(dash.ctx, alice_v, "physics-lab")
        root = ET.fromstring(text)
        ns = "{urn:schemas-microsoft-com:office:spreadsheet}"
        rows = root.findall(f".//{ns}Row")
        assert len(rows) >= 3  # header + 2 users
        header_cells = [
            d.text for d in rows[0].findall(f"{ns}Cell/{ns}Data")
        ]
        assert header_cells[:2] == ["account", "user"]

    def test_permission_gated(self, dash, bob_v):
        with pytest.raises(PermissionDenied):
            export_excel_xml(dash.ctx, bob_v, "physics-lab")


class TestExportRoute:
    def test_csv_via_route(self, dash, alice_v):
        resp = dash.call(
            "account_usage_export", alice_v,
            {"account": "physics-lab", "format": "csv"},
        )
        assert resp.ok
        assert resp.data["mime_type"] == "text/csv"
        assert resp.data["filename"] == "physics-lab_usage.csv"
        assert "cpu_hours" in resp.data["content"]

    def test_excel_via_route(self, dash, alice_v):
        resp = dash.call(
            "account_usage_export", alice_v,
            {"account": "physics-lab", "format": "xls"},
        )
        assert resp.ok
        assert resp.data["mime_type"] == "application/vnd.ms-excel"

    def test_forbidden_via_route(self, dash, bob_v):
        resp = dash.call(
            "account_usage_export", bob_v, {"account": "physics-lab"}
        )
        assert resp.status == 403

    def test_bad_format_isolated(self, dash, alice_v):
        resp = dash.call(
            "account_usage_export", alice_v,
            {"account": "physics-lab", "format": "pdf"},
        )
        assert not resp.ok and resp.status == 400

    def test_missing_account_isolated(self, dash, alice_v):
        resp = dash.call("account_usage_export", alice_v, {})
        assert not resp.ok and resp.status == 400


class TestDashboardFacade:
    def test_feature_table_matches_paper_table1(self, dash):
        """The regenerated Table 1 must match the paper row-for-row."""
        table = {r["feature"]: r["data_sources"] for r in dash.feature_table()}
        expected = {
            "Announcements widget": "API call to RCAC news page",
            "Recent Jobs widget": "squeue (Slurm)",
            "System Status widget": "sinfo (Slurm)",
            "Accounts widget": "scontrol show assoc (Slurm)",
            "Storage widget": "ZFS and GPFS storage database",
            "My Jobs": "sacct (Slurm)",
            "Job Performance Metrics": "sacct (Slurm)",
            "Cluster Status": "scontrol show node (Slurm)",
            "Job Overview": "scontrol show job (Slurm)",
            "Node Overview": "scontrol show node (Slurm)",
        }
        assert table == expected

    def test_get_by_path(self, dash, alice_v):
        resp = dash.get("/api/v1/widgets/recent_jobs", alice_v)
        assert resp.ok
        resp404 = dash.get("/api/v1/nope", alice_v)
        assert resp404.status == 404

    def test_build_demo_dashboard(self):
        from repro.core.dashboard import build_demo_dashboard
        from repro.auth import Viewer

        dash, directory, result = build_demo_dashboard(duration_hours=1.0)
        assert result.submitted > 0
        viewer = Viewer(username=directory.users()[0].username)
        assert dash.call("system_status", viewer).ok
