"""Standing up N independent simulated clusters behind one timeline.

:class:`ClusterRegistry` is the federation's substrate: each member is a
*complete* dashboard stack — its own :class:`~repro.slurm.cluster.SlurmCluster`,
:class:`~repro.slurm.daemon.DaemonBus`, :class:`~repro.faults.FaultPlan`
hooks, circuit breakers, bulkheads, admission controller, worker pool,
and TTL cache — so nothing is shared *except* the
:class:`~repro.sim.clock.SimClock`.  Shared-nothing members make the
isolation claims structural: one cluster's invalidation epochs, ETag
write generations, breaker trips and brownout tiers physically cannot
touch another's, because they live in different objects.

The shared clock is what lets the federation serve one coherent page:
cache freshness, fault windows and ETag revalidation across members all
answer against the same ``now``.  Each member still owns its *event
queue* (an :class:`~repro.sim.events.EventLoop` over the shared clock);
:meth:`ClusterRegistry.advance` interleaves the queues deterministically
by (timestamp, member index), so a federated run replays exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

from repro.auth import Directory
from repro.core.caching import CachePolicy
from repro.core.dashboard import Dashboard
from repro.faults import AdmissionConfig, FaultPlan
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.slurm.cluster import small_test_cluster
from repro.slurm.workload import WorkloadConfig, WorkloadResult, populated_cluster


class ClusterMember:
    """One federated cluster: a fully wired dashboard plus its identity."""

    def __init__(
        self,
        name: str,
        dashboard: Dashboard,
        directory: Directory,
        workload: Optional[WorkloadResult] = None,
    ):
        self.name = name
        self.dashboard = dashboard
        self.directory = directory
        self.workload = workload
        self.fault_plan: Optional[FaultPlan] = None

    @property
    def ctx(self):
        return self.dashboard.ctx

    @property
    def loop(self) -> EventLoop:
        return self.dashboard.ctx.cluster.loop

    def inject_faults(self, plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
        """Install a chaos schedule on *this member only* — the other
        members' daemons never see it."""
        self.fault_plan = plan
        return self.dashboard.inject_faults(plan)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterMember({self.name!r})"


class ClusterRegistry:
    """N independent simulated clusters sharing one simulated timeline.

    Members register in a stable order; the first member added is the
    federation's *default* (plain single-cluster API paths without a
    ``?cluster=`` selector route to it).
    """

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._members: "OrderedDict[str, ClusterMember]" = OrderedDict()

    # -- membership ----------------------------------------------------------

    def add_cluster(
        self,
        name: str,
        seed: int = 2025,
        duration_hours: float = 6.0,
        workload: Optional[WorkloadConfig] = None,
        cache_policy: Optional[CachePolicy] = None,
        admission: Optional[AdmissionConfig] = None,
        cpu_nodes: int = 8,
        gpu_nodes: int = 2,
    ) -> ClusterMember:
        """Stand up one populated member cluster and its dashboard.

        Population replays ``duration_hours`` of simulated workload on
        the *shared* clock, so members added sequentially occupy
        staggered (but mutually consistent) windows of the one timeline.
        """
        if name in self._members:
            raise ValueError(f"duplicate cluster name {name!r}")
        cluster = small_test_cluster(
            name=name,
            cpu_nodes=cpu_nodes,
            gpu_nodes=gpu_nodes,
            loop=EventLoop(self.clock),
        )
        cluster, directory, result = populated_cluster(
            seed=seed,
            duration_hours=duration_hours,
            config=workload or WorkloadConfig(seed=seed),
            cluster=cluster,
        )
        dashboard = Dashboard(
            cluster,
            directory,
            cache_policy=cache_policy,
            admission=admission,
        )
        member = ClusterMember(name, dashboard, directory, workload=result)
        self._members[name] = member
        return member

    def add_member(self, member: ClusterMember) -> ClusterMember:
        """Register an externally built member (its cluster must share
        :attr:`clock`, or federated freshness checks would disagree)."""
        if member.name in self._members:
            raise ValueError(f"duplicate cluster name {member.name!r}")
        if member.ctx.clock is not self.clock:
            raise ValueError(
                f"member {member.name!r} runs on a different clock; "
                f"build its cluster with EventLoop(registry.clock)"
            )
        self._members[member.name] = member
        return member

    def get(self, name: str) -> Optional[ClusterMember]:
        return self._members.get(name)

    def members(self) -> List[ClusterMember]:
        """Every member, in registration order."""
        return list(self._members.values())

    @property
    def names(self) -> List[str]:
        return list(self._members.keys())

    @property
    def default(self) -> ClusterMember:
        """The first member added (target of un-selected API paths)."""
        if not self._members:
            raise ValueError("registry has no clusters")
        return next(iter(self._members.values()))

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[ClusterMember]:
        return iter(self._members.values())

    def __contains__(self, name: str) -> bool:
        return name in self._members

    # -- time ---------------------------------------------------------------

    def advance(self, seconds: float) -> int:
        """Run every member's event queue forward ``seconds`` of shared
        simulated time, interleaving deterministically.

        At each step the member with the earliest pending event fires
        (ties broken by registration order); when no member has an event
        left inside the window, the clock jumps to the target.  Returns
        the number of events processed across all members.
        """
        target = self.clock.now() + seconds
        members = self.members()
        processed = 0
        while True:
            best_idx = -1
            best_time = target
            for idx, member in enumerate(members):
                t = member.loop.peek_time()
                if t is not None and t <= best_time:
                    # strict < keeps registration order as the tie-break:
                    # an equal timestamp never displaces an earlier member
                    if best_idx == -1 or t < best_time:
                        best_idx = idx
                        best_time = t
            if best_idx == -1:
                break
            members[best_idx].loop.step()
            processed += 1
        self.clock.advance_to(max(target, self.clock.now()))
        return processed

    def now(self) -> float:
        return self.clock.now()

    # -- fault injection ------------------------------------------------------

    def inject_faults(self, name: str, plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
        """Install a chaos schedule on one member (``None`` removes it)."""
        member = self._members.get(name)
        if member is None:
            raise KeyError(f"no cluster named {name!r}")
        return member.inject_faults(plan)

    def fault_report(self) -> Dict[str, Dict[str, int]]:
        """Per-member fault-window counts by kind (instrumentation)."""
        return {
            name: (m.fault_plan.snapshot() if m.fault_plan is not None else {})
            for name, m in self._members.items()
        }
