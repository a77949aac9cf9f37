#!/usr/bin/env python3
"""Run, validate, summarize, and diff the standing load benchmarks.

Subcommands::

    python tools/bench_report.py run [--out BENCH_load.json] [--smoke]
        Replay the default scenario suite (steady_state, burst,
        fault_window) plus the delivery comparison, and write the
        schema'd BENCH document.  ``--smoke`` (or the ``LOAD_SMOKE=1``
        environment variable) shrinks populations and durations for CI.
        If the output file already exists, the trajectory diff against
        the previous run is printed.

    python tools/bench_report.py validate BENCH_load.json
        Exit nonzero listing every schema violation (CI gate).

    python tools/bench_report.py summarize BENCH_load.json
        Human-readable table of one BENCH document.

    python tools/bench_report.py diff OLD.json NEW.json
        Scenario-by-scenario trajectory comparison.
"""

from __future__ import annotations

import argparse
import datetime
import os
import pathlib
import sys
from typing import List

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.load import (  # noqa: E402
    default_scenarios,
    diff,
    load_bench,
    run_suite,
    summarize,
    validate_bench,
    write_bench,
)


def _cmd_run(opts: argparse.Namespace) -> int:
    smoke = opts.smoke or os.environ.get("LOAD_SMOKE") == "1"
    out = pathlib.Path(opts.out)
    previous = load_bench(out) if out.exists() else None

    def progress(msg: str) -> None:
        print(f"[bench] {msg}", flush=True)

    doc = run_suite(
        default_scenarios(smoke=smoke),
        smoke=smoke,
        progress=progress,
    )
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
        timespec="seconds"
    )
    write_bench(doc, out, generated_at=stamp)
    print(f"[bench] wrote {out}")
    print()
    print(summarize(doc))
    if previous is not None:
        print()
        print(f"== trajectory vs previous {out.name} ==")
        print(diff(previous, doc))
    return 0


def _cmd_validate(opts: argparse.Namespace) -> int:
    doc = load_bench(opts.path)
    errors = validate_bench(doc)
    if errors:
        print(f"{opts.path}: INVALID")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(f"{opts.path}: ok ({len(doc['scenarios'])} scenarios)")
    return 0


def _cmd_summarize(opts: argparse.Namespace) -> int:
    print(summarize(load_bench(opts.path)))
    return 0


def _cmd_diff(opts: argparse.Namespace) -> int:
    print(diff(load_bench(opts.old), load_bench(opts.new)))
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="replay the scenario suite")
    run_p.add_argument("--out", default="BENCH_load.json",
                       help="output path (default BENCH_load.json)")
    run_p.add_argument("--smoke", action="store_true",
                       help="small populations/durations (CI; also LOAD_SMOKE=1)")
    run_p.set_defaults(func=_cmd_run)

    val_p = sub.add_parser("validate", help="schema-check a BENCH file")
    val_p.add_argument("path")
    val_p.set_defaults(func=_cmd_validate)

    sum_p = sub.add_parser("summarize", help="print a human summary")
    sum_p.add_argument("path")
    sum_p.set_defaults(func=_cmd_summarize)

    diff_p = sub.add_parser("diff", help="compare two BENCH files")
    diff_p.add_argument("old")
    diff_p.add_argument("new")
    diff_p.set_defaults(func=_cmd_diff)

    opts = parser.parse_args(argv)
    return opts.func(opts)


if __name__ == "__main__":
    sys.exit(main())
