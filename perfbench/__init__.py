"""End-to-end and per-layer benchmark of the dashboard over HTTP.

Run ``python3 perfbench/run.py --workload browse --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
