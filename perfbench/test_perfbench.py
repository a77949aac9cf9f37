"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
from collections import defaultdict
from types import SimpleNamespace

import pytest

from perfbench import stats
from perfbench.checks import digest, structural_problems
from perfbench.client import TRANSPORT_ERROR, Response
from perfbench.plan import (
    CONNECTIONS,
    WORKLOADS,
    Catalog,
    Request,
    Tick,
    build_plan,
    plan_digest,
    poll_periods,
)
from perfbench.run import Generator, Record

CATALOG = Catalog(
    users=tuple(f"user{i:02d}" for i in range(12)),
    accounts={f"user{i:02d}": ("lab",) for i in range(12)},
    nodes=("a001", "a002", "g001"),
    jobs=((1001, "user01"), (1002, "user02"), (1003, "user01")),
    # the homepage manifest's max-ages, plus My Jobs'
    max_age_s={
        "/api/v1/widgets/accounts": 120.0,
        "/api/v1/widgets/announcements": 300.0,
        "/api/v1/widgets/recent_jobs": 30.0,
        "/api/v1/widgets/storage": 600.0,
        "/api/v1/widgets/system_status": 60.0,
        "/api/v1/my_jobs": 60.0,
    },
)


# -- plan ------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_gives_one_trace(name):
    workload = WORKLOADS[name]
    first = plan_digest(build_plan(workload, CATALOG, 5, 16))
    again = plan_digest(build_plan(workload, CATALOG, 5, 16))
    other = plan_digest(build_plan(workload, CATALOG, 6, 16))
    assert first == again
    assert first != other


def test_open_loop_times_enough_requests_for_p95():
    for workload in WORKLOADS.values():
        plan = build_plan(workload, CATALOG, 1, 16)
        timed = sum(len(t.requests) for t in plan.open_ticks)
        assert timed >= stats.min_samples(0.95)


def test_churn_outage_covers_middle_third():
    plan = build_plan(WORKLOADS["churn"], CATALOG, 1, 16)
    n = len(plan.open_ticks)
    assert plan.outage_ticks == (n // 3, 2 * n // 3)


def test_poll_tabs_refetch_each_route_once_its_max_age_lapses():
    workload = WORKLOADS["poll"]
    plan = build_plan(workload, CATALOG, 3, 40)
    per_round = len(CATALOG.users) // CONNECTIONS
    assert len(plan.warmup) == per_round  # round 0: every tab opens
    ticks = plan.warmup + plan.open_ticks
    rounds = len(ticks) // per_round
    assert rounds > 20
    # a 30 sim-s round, so each route comes back every max-age / 30 s
    every = {
        "/api/v1/widgets/accounts": 4,
        "/api/v1/widgets/announcements": 10,
        "/api/v1/widgets/recent_jobs": 1,
        "/api/v1/widgets/storage": 20,
        "/api/v1/widgets/system_status": 2,
        "/api/v1/my_jobs": 2,
    }
    assert poll_periods(workload, CATALOG) == every
    fetched = defaultdict(list)
    lanes = defaultdict(set)
    reloads = []
    for t, tick in enumerate(ticks[:rounds * per_round]):
        assert len(tick.lanes) == len(tick.requests)
        for req, lane in zip(tick.requests, tick.lanes):
            lanes[req.user].add(lane)
            if req.path == "/":
                reloads.append((t // per_round, req.user))
            else:
                assert req.conditional
                fetched[req.user, req.path].append(t // per_round)
    for user in CATALOG.users:
        for path, period in every.items():
            assert fetched[user, path] == list(range(0, rounds, period))
        # a tab keeps its connection
        assert len(lanes[user]) == 1
    # once a round one user reloads the page, a different one each round
    assert [r for r, _ in reloads] == list(range(rounds))
    first = [user for _, user in reloads[:len(CATALOG.users)]]
    assert sorted(first) == sorted(CATALOG.users)


def test_route_mix_is_dealt_exactly():
    plan = build_plan(WORKLOADS["browse"], CATALOG, 2, 100)
    paths = [r.path for t in plan.open_ticks[:50] for r in t.requests]
    assert len(paths) == 300
    assert paths.count("/") == 105  # 35 % of every 100 dealt


# -- percentiles -----------------------------------------------------------------


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert stats.percentile(values, 0.5) == 100
    assert stats.percentile(values, 0.95) == 190
    assert stats.percentile([3.0], 0.95) == 3.0
    assert stats.percentile([5, 1, 4, 2, 3], 0.5) == 3


def test_ten_samples_lie_beyond_p95_from_200():
    assert stats.beyond(200, 0.95) == 10
    assert stats.beyond(199, 0.95) == 9
    assert stats.min_samples(0.95) == 200
    assert stats.min_samples(0.5) == 20


def test_open_loop_latency_counts_from_due_time():
    # both requests were due at t=0; the second waited behind the first
    latencies = stats.open_loop_latencies([0.0, 0.0], [0.05, 0.1], [True, True])
    assert latencies == pytest.approx([0.05, 0.1])
    failed = stats.open_loop_latencies([0.0], [0.01], [False])
    assert failed == [math.inf]


class _FakeClockGenerator(Generator):
    """Ticks that take given times on a fake clock, without a server."""

    def __init__(self, workload, durations):
        super().__init__(SimpleNamespace(port=0), workload)
        self.t = 0.0
        self.durations = list(durations)

    def now(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds

    def run_tick(self, tick, due):
        self.t += self.durations.pop(0)
        response = Response(200, done_at=self.t)
        return [Record("r", tick.requests[0], response, None, due=due)], 0.0

    def barrier(self, tick, measured):
        pass


def test_a_slow_tick_makes_the_next_ones_late():
    workload = dataclasses.replace(WORKLOADS["browse"], tick_wall_s=0.1)
    ticks = [Tick((Request("user00", "/"),))] * 4
    # tick 0 runs 0.25 s of a 0.1 s period: ticks 1 and 2 start late,
    # tick 3 is back on the schedule, which never moved
    gen = _FakeClockGenerator(workload, [0.25, 0.01, 0.01, 0.01])
    result = gen.run_phase(ticks, paced=True)
    due = [r.due for r in result.records]
    done = [r.response.done_at for r in result.records]
    assert due == pytest.approx([0.0, 0.1, 0.2, 0.3])
    assert result.late_ticks == 2
    assert result.late_s == pytest.approx(0.15 + 0.06)
    latencies = stats.open_loop_latencies(due, done, [True] * 4)
    assert latencies == pytest.approx([0.25, 0.16, 0.07, 0.01])


def test_failures_lower_ok_rate_and_capacity():
    clean = [200, 304, 200, 200]
    faulty = [200, 304, 503, TRANSPORT_ERROR]
    assert stats.ok_rate(clean) == 1.0
    assert stats.ok_rate(faulty) == 0.5
    assert stats.capacity(clean, 2.0) == 2.0
    assert stats.capacity(faulty, 2.0) == 1.0
    assert stats.ok_rate([429]) == 0.0


# -- self time -------------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    # request 0..10 with children parse 0..1 and dispatch 2..9; dispatch
    # has two overlapping children on other threads (3..6, 5..8) and one
    # that runs past its end (8.5..12, clipped to 8.5..9)
    spans = [
        (1, 0, "r", "web.server.request", 0.0, 10.0, None),
        (2, 1, "r", "web.server.parse", 0.0, 1.0, None),
        (3, 1, "r", "core.routes", 2.0, 9.0, None),
        (4, 3, "r", "core.pages", 3.0, 6.0, None),
        (5, 3, "r", "core.pages", 5.0, 8.0, None),
        (6, 3, "r", "core.caching", 8.5, 12.0, None),
    ]
    selfs = stats.self_times(spans)
    assert selfs[1] == pytest.approx(10 - 1 - 7)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(7 - (5 + 0.5))
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[6] == pytest.approx(3.5)


def test_union_length():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 1), (2, 3)]) == 2.0
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0


# -- structural checks -----------------------------------------------------------


def _json_response(status, envelope, **headers):
    body = json.dumps(envelope).encode()
    return Response(
        status, {"content-type": "application/json", **headers}, body
    )


def test_structural_checks_accept_a_good_json_answer():
    good = _json_response(200, {"ok": True, "status": 200, "data": {}})
    assert structural_problems(good, (200,)) == []


def test_structural_checks_catch_envelope_and_status_mismatches():
    lying = _json_response(200, {"ok": False, "status": 503})
    problems = structural_problems(lying, (200,))
    assert any("ok=" in p for p in problems)
    assert any("envelope status" in p for p in problems)
    refused = _json_response(503, {"ok": False, "status": 503})
    assert structural_problems(refused, (200, 503)) == []
    assert structural_problems(refused, (200,)) == ["unexpected status 503"]


def test_structural_checks_on_304():
    ok = Response(304, {"etag": '"abc"'})
    assert structural_problems(ok, (200, 304), sent_etag='"abc"') == []
    wrong = Response(304, {"etag": '"xyz"'})
    assert structural_problems(wrong, (304,), sent_etag='"abc"')
    assert structural_problems(ok, (304,), sent_etag=None)
    with_body = Response(304, {"etag": '"abc"'}, b"x")
    assert structural_problems(with_body, (304,), sent_etag='"abc"')


def test_structural_checks_decode_gzip_and_need_whole_pages():
    html = b"<!DOCTYPE html><html><body>hi</body></html>"
    page = Response(
        200,
        {"content-type": "text/html", "content-encoding": "gzip"},
        gzip.compress(html),
    )
    assert structural_problems(page, (200,)) == []
    truncated = Response(
        200, {"content-type": "text/html"}, html[:20], complete=False
    )
    problems = structural_problems(truncated, (200,))
    assert "chunked body truncated" in problems
    assert "HTML document incomplete" in problems
    corrupt = Response(
        200,
        {"content-type": "text/html", "content-encoding": "gzip"},
        gzip.compress(html)[:-4],
    )
    assert any("decode" in p for p in structural_problems(corrupt, (200,)))


def test_transport_errors_fail_every_check():
    lost = Response(TRANSPORT_ERROR, error="ConnectionResetError")
    assert structural_problems(lost, (200,)) == [
        "transport: ConnectionResetError"
    ]


def test_digest_hashes_the_decoded_body():
    plain = Response(200, {}, b"hello")
    zipped = Response(200, {"content-encoding": "gzip"}, gzip.compress(b"hello"))
    assert digest(plain) == digest(zipped)
    assert digest(plain)[0] == 200
