"""Consistent-hash ring the balancer routes cache-affinity keys on."""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, List


def _hash64(text: str) -> int:
    """Stable 64-bit hash for ring points and keys (never ``hash()``,
    which is salted per process and would reshuffle across restarts)."""
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """A consistent-hash ring over named nodes with stable membership.

    Each node contributes ``vnodes`` points (BLAKE2b of
    ``"shard:<node>:vnode:<i>"`` — the derivation is pinned by tests,
    because changing it would silently move every key to a new owner).
    A key is owned by the clockwise successor of its hash point.
    Removing a node deletes only that node's points: every key owned by
    a *surviving* node keeps its owner, and the removed node's ~1/N
    share redistributes across the survivors — the property the fleet
    balancer relies on when a worker process dies.

    :meth:`preference` walks the ring clockwise from a key's point and
    yields distinct nodes in ring order — the owner first, then the
    fallbacks a balancer retries when the owner is unhealthy.
    """

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1: {vnodes}")
        self.vnodes = vnodes
        self._nodes: List[str] = []
        # sorted parallel arrays: ring point -> owning node
        self._points: List[int] = []
        self._owners: List[str] = []
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> List[str]:
        """Member nodes in insertion order."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        """Add a node's vnode points to the ring."""
        if node in self._nodes:
            raise ValueError(f"node already on the ring: {node!r}")
        self._nodes.append(node)
        for v in range(self.vnodes):
            point = _hash64(f"shard:{node}:vnode:{v}")
            i = bisect.bisect_left(self._points, point)
            self._points.insert(i, point)
            self._owners.insert(i, node)

    def remove(self, node: str) -> None:
        """Remove a node; only its ~1/N of the key space remaps."""
        if node not in self._nodes:
            raise ValueError(f"node not on the ring: {node!r}")
        self._nodes.remove(node)
        keep = [i for i, owner in enumerate(self._owners) if owner != node]
        self._points = [self._points[i] for i in keep]
        self._owners = [self._owners[i] for i in keep]

    # -- lookup --------------------------------------------------------------

    def owner(self, key: str) -> str:
        """The node owning ``key`` (clockwise successor on the ring)."""
        if not self._nodes:
            raise ValueError("ring has no nodes")
        if len(self._nodes) == 1:
            return self._nodes[0]
        return self._owners[self._successor(key)]

    def preference(self, key: str) -> List[str]:
        """Every node, ordered by ring distance from ``key``'s point.

        The first entry is the owner; later entries are where the key
        re-hashes if the nodes before them are unhealthy.  Walking
        *ring points* (not the node list) keeps the fallback assignment
        consistent: two keys owned by a dead node spread across
        different survivors instead of all piling onto one.
        """
        if not self._nodes:
            return []
        out: List[str] = []
        start = self._successor(key)
        n = len(self._points)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if owner not in out:
                out.append(owner)
                if len(out) == len(self._nodes):
                    break
        return out

    def _successor(self, key: str) -> int:
        point = _hash64(key)
        i = bisect.bisect_right(self._points, point)
        return 0 if i == len(self._points) else i
