"""BENCH_load.json: schema, validation, summaries, trajectory diffs.

The harness emits one JSON document per run.  The schema is enforced
with a small hand-rolled validator (the container has no jsonschema
package, and the checks we need — required keys, types, non-empty
scenario list — fit in a page).  ``diff`` compares two BENCH documents
scenario by scenario so the repo can track a *trajectory*: commit the
current ``BENCH_load.json``, rerun after a change, and the diff shows
which scenario's p95 / hit rate / shed rate moved and by how much.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional, Tuple, Union

Number = (int, float)

#: every scenario record must carry these (field -> expected type)
SCENARIO_FIELDS: Dict[str, Union[type, Tuple[type, ...]]] = {
    "name": str,
    "seed": int,
    "mode": str,
    "duration_s": Number,
    "users": int,
    "trace": dict,
    "latency_ms": dict,
    "rps": dict,
    "requests": dict,
    "statuses": dict,
    "ctld_rpcs": Number,
    "ctld_rpcs_per_request": Number,
    "cache": dict,
    "shed": dict,
    "admission_tiers": list,
    "lock": dict,
}

LATENCY_FIELDS = ("p50", "p95", "p99", "mean", "max")
CACHE_FIELDS = ("lookups", "hits", "hit_rate", "stale_served")
SHED_FIELDS = ("admission_rejected", "http_429_503_504", "http_5xx", "rate")
TRACE_FIELDS = ("digest", "requests", "distinct_users", "by_route")
RPS_FIELDS = ("offered_sim", "achieved_wall")


def validate_bench(doc: Any) -> List[str]:
    """Return a list of schema violations (empty means valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("kind") != "repro-load-bench":
        errors.append("kind must be 'repro-load-bench'")
    if not isinstance(doc.get("schema_version"), int):
        errors.append("schema_version must be an integer")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        errors.append("scenarios must be a non-empty array")
        return errors
    for i, rec in enumerate(scenarios):
        where = f"scenarios[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{where} is not an object")
            continue
        label = rec.get("name", where)
        for field, expected in SCENARIO_FIELDS.items():
            if field not in rec:
                errors.append(f"{label}: missing field {field!r}")
            elif not isinstance(rec[field], expected):
                errors.append(
                    f"{label}: field {field!r} has type "
                    f"{type(rec[field]).__name__}"
                )
        for field in LATENCY_FIELDS:
            if field not in rec.get("latency_ms", {}):
                errors.append(f"{label}: latency_ms missing {field!r}")
        for field in CACHE_FIELDS:
            if field not in rec.get("cache", {}):
                errors.append(f"{label}: cache missing {field!r}")
        for field in SHED_FIELDS:
            if field not in rec.get("shed", {}):
                errors.append(f"{label}: shed missing {field!r}")
        for field in TRACE_FIELDS:
            if field not in rec.get("trace", {}):
                errors.append(f"{label}: trace missing {field!r}")
        for field in RPS_FIELDS:
            if field not in rec.get("rps", {}):
                errors.append(f"{label}: rps missing {field!r}")
    delivery = doc.get("delivery")
    if delivery is not None:
        if not isinstance(delivery, dict):
            errors.append("delivery must be an object")
        else:
            for field in ("not_modified", "gzip",
                          "streamed_homepage_identical", "decoded_identical"):
                if field not in delivery:
                    errors.append(f"delivery: missing field {field!r}")
            for field in ("full_body_bytes", "bytes_saved",
                          "render_calls_during_304"):
                if field not in delivery.get("not_modified", {}):
                    errors.append(f"delivery: not_modified missing {field!r}")
            if "savings_ratio" not in delivery.get("gzip", {}):
                errors.append("delivery: gzip missing 'savings_ratio'")
    return errors


def load_bench(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Read and parse a BENCH file (no validation)."""
    return json.loads(pathlib.Path(path).read_text())


def summarize(doc: Dict[str, Any]) -> str:
    """Human-readable table of one BENCH document."""
    lines: List[str] = []
    mode = "smoke" if doc.get("smoke") else "full"
    lines.append(f"repro-load-bench (schema v{doc.get('schema_version')}, {mode})")
    lines.append("")
    header = (
        f"{'scenario':<14} {'mode':<6} {'reqs':>5} {'p50ms':>7} {'p95ms':>7} "
        f"{'p99ms':>7} {'hit%':>6} {'stale':>6} {'shed%':>6} {'rpc/rq':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for rec in doc.get("scenarios", []):
        lat = rec["latency_ms"]
        lines.append(
            f"{rec['name']:<14} {rec['mode']:<6} "
            f"{rec['requests']['completed']:>5} "
            f"{lat['p50']:>7.1f} {lat['p95']:>7.1f} {lat['p99']:>7.1f} "
            f"{rec['cache']['hit_rate'] * 100:>5.1f}% "
            f"{rec['cache']['stale_served']:>6.0f} "
            f"{rec['shed']['rate'] * 100:>5.1f}% "
            f"{rec['ctld_rpcs_per_request']:>7.2f}"
        )
        tiers = rec.get("admission_tiers", [])
        degraded = [t for t in tiers if t[1] != "normal"]
        if degraded:
            timeline = " -> ".join(f"{t[1]}@{t[0]:.0f}s" for t in tiers)
            lines.append(f"{'':<14} admission: {timeline}")
    delivery = doc.get("delivery")
    if delivery:
        nm = delivery["not_modified"]
        gz = delivery["gzip"]
        lines.append("")
        lines.append("HTTP delivery (conditional GET / gzip / streaming):")
        lines.append(
            f"  304 revalidation: {nm['full_body_bytes']} -> "
            f"{nm['revalidation_body_bytes']} body bytes "
            f"(saved {nm['bytes_saved']}), "
            f"renders during 304: {nm['render_calls_during_304']:.0f}"
        )
        lines.append(
            f"  gzip savings: {gz['savings_ratio'] * 100:.1f}%  "
            f"streamed homepage identical: "
            f"{delivery['streamed_homepage_identical']}  "
            f"decoded identical: {delivery['decoded_identical']}"
        )
    return "\n".join(lines)


def _pct_delta(old: float, new: float) -> str:
    if old == 0:
        return "n/a" if new == 0 else "+inf"
    return f"{(new - old) / old * 100:+.1f}%"


def diff(old: Dict[str, Any], new: Dict[str, Any]) -> str:
    """Trajectory diff between two BENCH documents.

    Deterministic fields (trace digest, request counts) are checked for
    *equality* — a changed digest means the traffic changed, so latency
    comparisons would be apples to oranges.  Wall-clock fields (latency,
    achieved RPS) are reported as percentage deltas.
    """
    lines: List[str] = []
    old_by_name = {r["name"]: r for r in old.get("scenarios", [])}
    for rec in new.get("scenarios", []):
        name = rec["name"]
        prev = old_by_name.pop(name, None)
        if prev is None:
            lines.append(f"{name}: new scenario (no baseline)")
            continue
        notes: List[str] = []
        if prev["trace"]["digest"] != rec["trace"]["digest"]:
            notes.append(
                "TRACE CHANGED (digest differs — latency deltas not "
                "comparable)"
            )
        elif prev["trace"]["requests"] != rec["trace"]["requests"]:
            notes.append("request count changed with same digest (bug?)")
        for q in ("p50", "p95", "p99"):
            notes.append(
                f"{q} {prev['latency_ms'][q]:.1f} -> "
                f"{rec['latency_ms'][q]:.1f}ms "
                f"({_pct_delta(prev['latency_ms'][q], rec['latency_ms'][q])})"
            )
        notes.append(
            f"hit_rate {prev['cache']['hit_rate']:.3f} -> "
            f"{rec['cache']['hit_rate']:.3f}"
        )
        notes.append(
            f"shed_rate {prev['shed']['rate']:.3f} -> {rec['shed']['rate']:.3f}"
        )
        notes.append(
            f"rpc/rq {prev['ctld_rpcs_per_request']:.2f} -> "
            f"{rec['ctld_rpcs_per_request']:.2f}"
        )
        lines.append(f"{name}:")
        lines.extend(f"  {note}" for note in notes)
    for name in old_by_name:
        lines.append(f"{name}: removed (present in baseline only)")

    old_dl = old.get("delivery")
    new_dl = new.get("delivery")
    if old_dl and new_dl:
        lines.append(
            f"delivery 304 bytes saved: "
            f"{old_dl['not_modified']['bytes_saved']} -> "
            f"{new_dl['not_modified']['bytes_saved']}, gzip savings: "
            f"{old_dl['gzip']['savings_ratio']:.3f} -> "
            f"{new_dl['gzip']['savings_ratio']:.3f}"
        )
    return "\n".join(lines) if lines else "(no scenarios to compare)"


def write_bench(
    doc: Dict[str, Any], path: Union[str, pathlib.Path],
    generated_at: Optional[str] = None,
) -> pathlib.Path:
    """Validate then write a BENCH document (raises on schema errors)."""
    errors = validate_bench(doc)
    if errors:
        raise ValueError(
            "refusing to write invalid BENCH document:\n  "
            + "\n  ".join(errors)
        )
    if generated_at is not None:
        doc = {**doc, "generated_at": generated_at}
    out = pathlib.Path(path)
    out.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return out
