"""Property tests: the consistent-hash ring under membership change.

The fleet balancer leans on exactly two ring promises when a worker
dies or joins: keys owned by *surviving* nodes never move, and the
departed node's ~1/N share redistributes instead of reshuffling the
world.  Hypothesis hunts for node-name sets that break either.  The
pinned hash and owner table below guard one more, across restarts: a
fleet restarted on new code still sends every key to the same worker.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scaleout.ring import HashRing, _hash64
from repro.web.delivery import request_cache_key

#: deterministic key population shaped like real affinity keys
KEYS = [
    f"user{i:03d}|{i % 2}|/api/v1/my_jobs?range=all" for i in range(300)
]

node_names = st.lists(
    st.text(alphabet="abcdefghijklmnop0123456789_-", min_size=1, max_size=12),
    min_size=2,
    max_size=8,
    unique=True,
)


@given(nodes=node_names, data=st.data())
@settings(max_examples=60, deadline=None)
def test_remove_moves_only_the_dead_nodes_keys(nodes, data):
    """A key changes owner after remove(x) iff x owned it before."""
    victim = data.draw(st.sampled_from(nodes))
    ring = HashRing(nodes)
    before = {key: ring.owner(key) for key in KEYS}
    ring.remove(victim)
    for key in KEYS:
        after = ring.owner(key)
        if before[key] == victim:
            assert after != victim
        else:
            assert after == before[key], (
                f"key {key!r} moved {before[key]!r} -> {after!r} though "
                f"its owner survived the removal of {victim!r}"
            )


@given(nodes=node_names, data=st.data())
@settings(max_examples=60, deadline=None)
def test_remove_remaps_roughly_one_nth(nodes, data):
    """The remapped share is the dead node's share: ~1/N, never most."""
    victim = data.draw(st.sampled_from(nodes))
    ring = HashRing(nodes)
    before = {key: ring.owner(key) for key in KEYS}
    ring.remove(victim)
    moved = sum(1 for key in KEYS if ring.owner(key) != before[key])
    n = len(nodes)
    # expectation is len(KEYS)/n; 64 vnodes keep shares tight, the
    # 3/n bound is many standard deviations of slack
    assert moved <= max(1, int(len(KEYS) * min(1.0, 3.0 / n)))


@given(nodes=node_names, new_node=st.text(
    alphabet="qrstuvwxyz", min_size=1, max_size=12,
))
@settings(max_examples=60, deadline=None)
def test_add_steals_only_for_the_new_node(nodes, new_node):
    """A key changes owner after add(x) iff x is its new owner."""
    ring = HashRing(nodes)
    before = {key: ring.owner(key) for key in KEYS}
    ring.add(new_node)
    for key in KEYS:
        after = ring.owner(key)
        if after != before[key]:
            assert after == new_node, (
                f"key {key!r} moved {before[key]!r} -> {after!r} on the "
                f"addition of {new_node!r}"
            )


@given(nodes=node_names)
@settings(max_examples=60, deadline=None)
def test_ownership_ignores_membership_order(nodes):
    """Same members, any insertion order: identical key -> owner map."""
    forward = HashRing(nodes)
    backward = HashRing(reversed(nodes))
    for key in KEYS[::10]:
        assert forward.owner(key) == backward.owner(key)


@given(nodes=node_names)
@settings(max_examples=60, deadline=None)
def test_preference_is_a_permutation_led_by_the_owner(nodes):
    """preference() yields every node once, the owner first."""
    ring = HashRing(nodes)
    for key in KEYS[::10]:
        pref = ring.preference(key)
        assert pref[0] == ring.owner(key)
        assert sorted(pref) == sorted(nodes)


@given(nodes=node_names, data=st.data())
@settings(max_examples=60, deadline=None)
def test_failover_matches_preference_order(nodes, data):
    """After the owner dies, the new owner is the old second choice.

    This is the property the balancer's retry path banks on: rehashing
    on a shrunken ring lands on the same worker the preference walk
    would have tried next, so failover is consistent however it is
    computed.
    """
    victim = data.draw(st.sampled_from(nodes))
    ring = HashRing(nodes)
    expectations = {}
    for key in KEYS[::5]:
        if ring.owner(key) == victim:
            pref = ring.preference(key)
            expectations[key] = next(n for n in pref if n != victim)
    ring.remove(victim)
    for key, expected in expectations.items():
        assert ring.owner(key) == expected


@pytest.mark.parametrize("n", [4, 8])
def test_keys_spread_evenly_across_nodes(n):
    """64 vnodes per node: every node owns keys, none over ~2x its share."""
    ring = HashRing(f"w{i}" for i in range(n))
    counts = {node: 0 for node in ring.nodes}
    for i in range(2000):
        counts[ring.owner(f"route:{i}")] += 1
    assert min(counts.values()) > 0
    assert max(counts.values()) < 2 * (2000 / n)


def test_rejects_bad_config():
    with pytest.raises(ValueError):
        HashRing(["w0"], vnodes=0)
    ring = HashRing(["w0"])
    with pytest.raises(ValueError):
        ring.add("w0")
    with pytest.raises(ValueError):
        ring.remove("w1")
    ring.remove("w0")
    with pytest.raises(ValueError):
        ring.owner("any")
    assert ring.preference("any") == []


def test_hash_is_process_independent():
    """BLAKE2b, not the per-process salted ``hash()``: the same key
    hashes identically in every worker and across restarts."""
    assert _hash64("stable-key") == 7424698699771254153


#: (affinity key, preference order over w0..w2) as the ring has always
#: computed them; a change to the point derivation fails here instead
#: of silently moving every key to a different worker
OWNER_TABLE = [
    (("alice", False, "/api/v1/my_jobs", ""), ["w0", "w2", "w1"]),
    (("alice", False, "/", ""), ["w0", "w1", "w2"]),
    (("alice", False, "/api/v1/widgets/recent_jobs", ""), ["w1", "w2", "w0"]),
    (("bob", False, "/api/v1/my_jobs", "range=all"), ["w1", "w0", "w2"]),
    (("carol", False, "/api/v1/cluster_status", ""), ["w1", "w0", "w2"]),
    (("dave", False, "/", ""), ["w2", "w0", "w1"]),
    (("erin", True, "/api/v1/widgets/system_status", ""), ["w2", "w1", "w0"]),
    (("frank", False, "/api/v1/node_overview", "node=a000"), ["w2", "w0", "w1"]),
]


@pytest.mark.parametrize(
    "identity,expected", OWNER_TABLE,
    ids=[request_cache_key(*identity) for identity, _ in OWNER_TABLE],
)
def test_affinity_keys_keep_their_workers(identity, expected):
    ring = HashRing(["w0", "w1", "w2"])
    key = request_cache_key(*identity)
    assert ring.owner(key) == expected[0]
    assert ring.preference(key) == expected
