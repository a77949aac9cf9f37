"""Tests for the ``python -m repro`` demo-server CLI."""

import subprocess
import sys


class TestCli:
    def test_once_mode_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--once", "--hours", "0.5",
             "--port", "0"],
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Serving at http://" in proc.stdout
        assert "homepage ok=True" in proc.stdout

    def test_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "--hours" in proc.stdout


class TestApiDocsGenerator:
    def test_generator_runs_and_covers_packages(self):
        import importlib.util
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", repo / "tools" / "gen_api_docs.py"
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        api = repo / "docs" / "API.md"
        before = (api.read_bytes(), api.stat().st_mtime_ns)
        text = gen.render()
        for section in ("repro.core.caching", "repro.slurm.scheduler",
                        "repro.web.server", "repro.ood.sessions"):
            assert f"### `{section}`" in text
        # rendering is pure: the tracked file is neither rewritten nor changed
        assert (api.read_bytes(), api.stat().st_mtime_ns) == before
