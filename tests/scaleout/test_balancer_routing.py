"""Balancer routing decisions, tested without any worker processes.

``route()`` is a pure function of (request identity, ring, breaker
state, wall clock), so these tests construct a BalancerServer with
fake worker addresses and an injected clock and never ``start()`` it.
"""

import pytest

from repro.scaleout import BalancerServer
from repro.scaleout.ring import HashRing
from repro.web.delivery import request_cache_key

WORKERS = {
    "w0": ("127.0.0.1", 1),
    "w1": ("127.0.0.1", 2),
    "w2": ("127.0.0.1", 3),
}


def make_balancer(affinity=True, clock=None):
    return BalancerServer(
        WORKERS, affinity=affinity, clock=clock or (lambda: 0.0)
    )


class TestAffinityRouting:
    def test_candidates_follow_ring_preference(self):
        bal = make_balancer()
        ring = HashRing(WORKERS)
        path = "/api/v1/my_jobs?range=all"
        key = request_cache_key("alice", False, "/api/v1/my_jobs", "range=all")
        candidates, routing = bal.route("alice", False, path)
        assert routing == "affinity"
        assert candidates == ring.preference(key)

    def test_same_identity_same_owner_every_time(self):
        bal = make_balancer()
        owners = {
            bal.route("bob", False, "/api/v1/my_jobs")[0][0]
            for _ in range(20)
        }
        assert len(owners) == 1

    def test_admin_bit_is_part_of_the_key(self):
        """Admin and non-admin views of a path cache separately, so
        they may own separately; the derivation must include the bit."""
        bal = make_balancer()
        plain = request_cache_key("eve", False, "/api/v1/my_jobs", "")
        admin = request_cache_key("eve", True, "/api/v1/my_jobs", "")
        assert plain != admin

    def test_viewerless_requests_fall_back_to_round_robin(self):
        bal = make_balancer()
        _cands, routing = bal.route(None, False, "/")
        assert routing == "round_robin"


class TestRoundRobinRouting:
    def test_rotation_cycles_the_fleet(self):
        bal = make_balancer(affinity=False)
        firsts = [
            bal.route("alice", False, "/api/v1/my_jobs")[0][0]
            for _ in range(6)
        ]
        assert firsts == ["w0", "w1", "w2", "w0", "w1", "w2"]


class TestUnhealthySinking:
    def test_open_breaker_sinks_owner_to_the_back(self):
        now = {"t": 100.0}
        bal = make_balancer(clock=lambda: now["t"])
        path = "/api/v1/my_jobs"
        owner = bal.route("carol", False, path)[0][0]
        bal.breakers[owner].record_failure(now["t"])
        candidates, _ = bal.route("carol", False, path)
        assert candidates[-1] == owner
        assert set(candidates) == set(WORKERS)

    def test_cooldown_restores_the_owner(self):
        now = {"t": 100.0}
        bal = make_balancer(clock=lambda: now["t"])
        path = "/api/v1/my_jobs"
        owner = bal.route("carol", False, path)[0][0]
        bal.breakers[owner].record_failure(now["t"])
        now["t"] += bal.breakers[owner].cooldown_s + 0.1
        assert bal.route("carol", False, path)[0][0] == owner

    def test_all_open_still_probes_everyone(self):
        """A guaranteed 503 is worse than an attempt: even with every
        breaker open the candidate list stays full."""
        now = {"t": 100.0}
        bal = make_balancer(clock=lambda: now["t"])
        for breaker in bal.breakers.values():
            breaker.record_failure(now["t"])
        candidates, _ = bal.route("dave", False, "/api/v1/my_jobs")
        assert set(candidates) == set(WORKERS)


class TestConstruction:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            BalancerServer({})

    def test_registry_pre_registers_worker_up(self):
        bal = make_balancer()
        text = bal.registry.render()
        assert 'repro_balancer_worker_up{worker="w0"} 1' in text
        assert "repro_balancer_workers 3" in text
